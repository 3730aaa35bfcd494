"""Contraction ratios, extreme measures, and the ergodicity classifier."""
from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrank2 import (
    CoveringSpec,
    ExpansionTooLarge,
    LevelMap,
    SimplexPoint,
    UsageError,
    circuit_length,
    classify_ergodicity,
    expand_circuit_word,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_uniquely_ergodic_family,
    gen_weakmix_not_mix_family,
    one_minus_r,
    push_measure_down,
    r_product,
    r_value,
    spec_from_json,
    telescope,
    vertex_measure,
    winding_product,
    xi_project,
)

from proxrank2 import families
from proxrank2.measures import decimal_str, rat_from_json, rat_to_json

from _corpus import random_restricted_spec, reduced_specs

BASE = gen_substitution_family(depth=6)


def test_r_values_of_base_family():
    assert r_value(BASE, 1) == Fraction(4, 7)
    assert r_value(BASE, 2) == Fraction(28, 31)
    assert one_minus_r(BASE, 2) == Fraction(3, 31)
    assert r_product(BASE, 3, 1) == Fraction(16, 31)


def test_r_product_equals_circuit_edge_fraction():
    rng = random.Random(0x4EA5)
    for _ in range(15):
        spec = random_restricted_spec(rng, max_depth=5, max_length=10**5)
        n = rng.randint(1, spec.depth)
        m = rng.randint(n + 1, spec.depth + 1)
        sym = expand_circuit_word(spec, m, n).symbols
        frac = Fraction(sym.count("C") * circuit_length(spec, n), circuit_length(spec, m))
        assert r_product(spec, m, n) == frac


def test_xi_projection_of_base_family():
    pt = SimplexPoint(level=3, w_e=Fraction(1, 2), w_c=Fraction(1, 2))
    down = xi_project(BASE, 3, 1, pt)
    assert (down.w_e, down.w_c) == (Fraction(23, 31), Fraction(8, 31))
    assert down.w_e + down.w_c == 1


def test_xi_projection_composes():
    pt = SimplexPoint(level=4, w_e=Fraction(2, 5), w_c=Fraction(3, 5))
    direct = xi_project(BASE, 4, 1, pt)
    stepped = xi_project(BASE, 2, 1, xi_project(BASE, 4, 2, pt))
    assert (direct.w_e, direct.w_c) == (stepped.w_e, stepped.w_c)


def test_vertex_measure_of_base_family():
    vec = vertex_measure(BASE, 2, 6)
    l2, l6 = circuit_length(BASE, 2), circuit_length(BASE, 6)
    big_b = winding_product(BASE, 6, 2)
    assert vec.loop == Fraction(l6 - big_b * l2, l6) == Fraction(255, 2047)
    assert vec.circuit == tuple(Fraction(256, 2047) for _ in range(l2))
    assert vec.mass == 1
    assert vec.conserved


def test_short_loop_run_list_fails_every_measure_query():
    # a has 2 entries where b = 3 needs 4: the weights would rest on a length
    # read off a map with missing loop runs
    spec = spec_from_json('{"l1": 4, "levels": [{"a": [1, 1], "b": 3}]}')
    queries = (
        lambda: vertex_measure(spec, 1, 2),
        lambda: vertex_measure(spec, 1, 2, which="fixed"),
        lambda: classify_ergodicity(spec),
        lambda: r_product(spec, 2, 1),
    )
    for query in queries:
        with pytest.raises(UsageError, match=r"^level 1: a must have b\+1=4 entries, got 2$"):
            query()


def test_edge_measure_stops_at_the_cap_before_allocating(monkeypatch):
    # l_30 is about 3.5e18 edges: a tuple of that many would exhaust memory
    spec = gen_mixing_family(depth=40)
    for which in ("nonatomic", "fixed"):
        with pytest.raises(ExpansionTooLarge) as exc:
            vertex_measure(spec, 30, 35, which=which)
        assert exc.value.needed == circuit_length(spec, 30)
    l2 = circuit_length(BASE, 2)
    monkeypatch.setenv("PROXRANK2_CAP", str(l2))
    assert len(vertex_measure(BASE, 2, 6).circuit) == l2
    monkeypatch.setenv("PROXRANK2_CAP", str(l2 - 1))
    with pytest.raises(ExpansionTooLarge, match=f"^edge measure of level 2 needs {l2} "):
        vertex_measure(BASE, 2, 6, which="fixed")


def test_fixed_measure_sits_on_loop():
    vec = vertex_measure(BASE, 3, 6, which="fixed")
    assert vec.loop == 1
    assert set(vec.circuit) == {Fraction(0)}
    assert vec.mass == 1


def test_push_measure_down_refines_exactly():
    vec = vertex_measure(BASE, 2, 6)
    down = push_measure_down(BASE, vec)
    assert down.level == 1
    assert down.mass == 1
    assert down.conserved
    # pushing the level-m extreme is the level-(n-1) extreme of the same horizon
    direct = vertex_measure(BASE, 1, 6)
    assert down.circuit == direct.circuit
    assert down.loop == direct.loop


def test_push_measure_down_on_random_corpus_conserves_mass():
    rng = random.Random(0x90A55)
    for _ in range(10):
        spec = random_restricted_spec(rng, max_depth=5, max_length=10**5)
        n = rng.randint(2, spec.depth)
        vec = vertex_measure(spec, n, spec.depth + 1)
        down = push_measure_down(spec, vec)
        assert down.mass == 1
        assert down.conserved
        assert down.circuit == vertex_measure(spec, n - 1, spec.depth + 1).circuit


def test_classifier_verdicts_for_generated_families():
    assert classify_ergodicity(gen_substitution_family(depth=6)).label == "TwoErgodic(certified)"
    assert classify_ergodicity(gen_mixing_family(depth=8)).label == "TwoErgodic(certified)"
    assert classify_ergodicity(gen_not_weakmix_family(3, depth=8)).label == "TwoErgodic(certified)"
    assert (
        classify_ergodicity(gen_uniquely_ergodic_family(depth=5)).label
        == "UniquelyErgodic(certified)"
    )
    assert (
        classify_ergodicity(gen_weakmix_not_mix_family(depth=7)).label
        == "UniquelyErgodic(certified)"
    )


def test_classifier_base_family_bound_values():
    report = classify_ergodicity(gen_substitution_family(depth=6))
    by_i = {row.i: row for row in report.rows}
    # presented loop masses match 3 / l_{i+1}
    for i in range(2, 7):
        assert by_i[i].one_minus_r == Fraction(3, circuit_length(BASE, i + 1))


def test_classifier_hand_entered_spec_is_undetermined():
    spec = CoveringSpec(
        l1=3,
        levels=(LevelMap(a=(1, 0, 1), b=2), LevelMap(a=(2, 1, 2), b=2)),
    )
    report = classify_ergodicity(spec)
    assert report.verdict == "Undetermined"
    assert not report.certified
    assert report.label == "Undetermined"


def test_classifier_survives_telescoping():
    tel = telescope(gen_substitution_family(depth=6), (2, 5, 7))
    report = classify_ergodicity(tel)
    assert report.label == "TwoErgodic(certified)"


def test_uniquely_ergodic_family_loop_mass_is_half():
    spec = gen_uniquely_ergodic_family(depth=5)
    for n in range(1, spec.depth + 1):
        assert one_minus_r(spec, n) == Fraction(1, 2)


def test_report_serialization_round_trip():
    report = classify_ergodicity(BASE)
    d = report.to_dict()
    assert d["verdict"] == "TwoErgodic" and d["certified"] is True
    csv = report.to_csv()
    assert csv.splitlines()[0] == "i,one_minus_r,partial_sum,partial_product"
    assert len(csv.splitlines()) == len(report.rows) + 1


def test_usage_errors_on_bad_levels():
    with pytest.raises(UsageError):
        r_value(BASE, 0)
    with pytest.raises(UsageError):
        r_product(BASE, 1, 2)
    with pytest.raises(UsageError):
        vertex_measure(BASE, 5, 3)


@settings(max_examples=60, deadline=None)
@given(reduced_specs, st.data())
def test_partial_sums_in_any_read_order(spec, data):
    rows = classify_ergodicity(spec).rows
    n = len(rows)
    assert n == spec.depth
    # eager reference from the public per-level functions
    sums = list(accumulate(one_minus_r(spec, i) for i in range(1, n + 1)))
    expected = [
        (i, one_minus_r(spec, i), r_product(spec, i + 1, 1), sums[i - 1]) for i in range(1, n + 1)
    ]

    def values(row):
        return (row.i, row.one_minus_r, row.partial_product, row.partial_sum)

    for k in data.draw(st.permutations(range(n)), label="read order"):
        how = data.draw(st.sampled_from(("index", "negative", "slice")), label="read by")
        if how == "index":
            row = rows[k]
        elif how == "negative":
            row = rows[k - n]
        else:
            stop = data.draw(st.integers(k + 1, n + 2), label="slice stop")
            part = rows[k:stop]
            assert isinstance(part, tuple) and len(part) == min(stop, n) - k
            row = part[0]
        assert values(row) == expected[k]
        assert row is rows[k] is rows[k - n]
    assert [values(row) for row in rows] == expected
    step = data.draw(st.sampled_from((-1, 2, -3)), label="slice step")
    assert list(map(values, rows[::step])) == expected[::step]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[k]


@settings(max_examples=40, deadline=None)
@given(reduced_specs, st.data())
def test_report_output_does_not_depend_on_earlier_reads(spec, data):
    untouched = classify_ergodicity(spec)
    read = classify_ergodicity(spec)
    picks = st.lists(st.integers(0, len(read.rows) - 1), max_size=4)
    for k in data.draw(picks, label="rows read first"):
        if data.draw(st.booleans(), label="read its partial sum"):
            read.rows[k].partial_sum
        else:
            read.rows[k]
    assert hash(read) == hash(classify_ergodicity(spec))
    assert read == classify_ergodicity(spec)
    assert read.to_dict() == untouched.to_dict()
    assert read.to_csv() == untouched.to_csv()
    assert read.rows == untouched.rows
    # doubling l1 and every a doubles every length and leaves every row the same
    doubled = CoveringSpec(
        l1=2 * spec.l1,
        levels=tuple(LevelMap(a=tuple(2 * x for x in lm.a), b=lm.b) for lm in spec.levels),
    )
    rows = classify_ergodicity(doubled).rows
    assert rows == read.rows and hash(rows) == hash(untouched.rows)
    # one more edge on level 1 changes every length, so row 1 differs
    assert classify_ergodicity(replace(spec, l1=spec.l1 + 1)).rows != read.rows
    if spec.depth > 1:
        assert classify_ergodicity(spec, depth=spec.depth - 1).rows != read.rows


@contextmanager
def _no_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_decimal_str_matches_str_at_any_size():
    samples = [0, 7, -12, 10**603, 10**604 - 1, -(10**4299), 3**20_000, -(7**9_000), 10**12_345]
    with _no_digit_limit():
        expected = [str(x) for x in samples]
    assert [decimal_str(x) for x in samples] == expected


def test_report_prints_sums_past_the_digit_limit():
    report = classify_ergodicity(gen_mixing_family(depth=200))
    last = report.rows[-1]
    assert len(decimal_str(last.partial_sum.denominator)) > 4300
    cells = report.to_csv().splitlines()[-1].split(",")
    row = report.to_dict()["rows"][-1]
    with _no_digit_limit():
        expected = (last.one_minus_r, last.partial_sum, last.partial_product)
        assert cells == ["200", *map(str, expected)]
        assert rat_from_json(row["partial_sum"]) == last.partial_sum


# ---------------------------------------------------- integer bound check ---

def _fraction_bound_holds(spec, top):
    """The convergence bound checked in ``Fraction`` arithmetic, level by level.

    The reference for the classifier's integer check: ``1 - r(i)`` against
    ``scale * r^p``, or ``scale * (r^p - r^q) / (1 - r)`` over a telescoped
    span ``[p, q)``.
    """
    rec = spec.family_record
    r = rec.ratio
    spans = zip(rec.levels, rec.levels[1:])
    limits = (rec.scale * (r**p if q == p + 1 else (r**p - r**q) / (1 - r)) for p, q in spans)
    return all(one_minus_r(spec, i) <= limit for i, limit in zip(range(1, top + 1), limits))


def _tighten(spec, factor, ratio_factor=1):
    """``spec`` with its record's ``scale`` and ``ratio`` multiplied by the factors."""
    rec = spec.family_record
    forged = replace(rec, scale=rec.scale * factor, ratio=rec.ratio * ratio_factor)
    spec.__dict__["family_record"] = forged
    return spec


@st.composite
def _convergent_specs(draw):
    """A spec of a convergence family, maybe telescoped, maybe with a tightened bound."""
    tag = draw(st.sampled_from(["not_weakmix", "mixing", "substitution"]))
    depth = draw(st.integers(1, 7))
    if tag == "not_weakmix":
        p = draw(st.integers(3, 7))
        s, s2, l1 = (p * draw(st.integers(1, 3)) for _ in range(3))
        t_bar = draw(st.integers(2, 4))
        spec = gen_not_weakmix_family(p, depth=depth, l1=l1, s=s, s2=s2, t_bar=t_bar)
    elif tag == "mixing":
        spec = gen_mixing_family(l1=2 * draw(st.integers(5, 40)) + 1, depth=depth)
    else:
        spec = gen_substitution_family(depth=depth)
    # steps of 2 and 3 between kept levels make telescoped spans q > p + 1
    keep = [draw(st.integers(1, min(2, depth)))]
    while keep[-1] < depth + 1:
        keep.append(min(depth + 1, keep[-1] + draw(st.integers(1, 3))))
    spec = telescope(spec, keep)
    factor = draw(
        st.one_of(
            st.just(Fraction(1)),
            st.integers(1, 63).map(lambda k: Fraction(k, 64)),
            st.integers(1, 12).map(lambda k: 1 - Fraction(1, 10**k)),
        )
    )
    # a smaller ratio moves the first failing level away from level 1
    ratio_factor = draw(
        st.one_of(st.just(Fraction(1)), st.integers(2, 40).map(lambda k: Fraction(k, k + 1)))
    )
    if (factor, ratio_factor) == (1, 1):
        return spec
    return _tighten(spec, factor, ratio_factor)


@settings(max_examples=150, deadline=None)
@given(_convergent_specs(), st.integers(1, 8))
def test_integer_bound_check_agrees_with_fraction_formula(spec, depth):
    report = classify_ergodicity(spec, depth=depth)
    holds = _fraction_bound_holds(spec, min(depth, spec.depth))
    assert report.certified == holds
    if not holds:
        assert report.certificate == "the construction's convergence bound FAILED verification"


def test_bound_check_holds_at_equality():
    # 1 - r(1) = 3/7 equals the substitution bound (12/7) * (1/4)^1
    spec = gen_substitution_family(depth=1)
    assert one_minus_r(spec, 1) == Fraction(12, 7) * Fraction(1, 4)
    assert classify_ergodicity(spec).certified
    spec = _tighten(gen_substitution_family(depth=1), 1 - Fraction(1, 10**9))
    assert not classify_ergodicity(spec).certified
    # over the telescoped span [1, 3), 1 - r(3, 1) = 15/31 equals
    # scale * (1/4 + 1/16) for scale = 48/31
    tel = _tighten(telescope(gen_substitution_family(depth=6), (1, 3, 7)), Fraction(28, 31))
    assert 1 - r_product(tel, 2, 1) == tel.family_record.scale * Fraction(5, 16)
    assert classify_ergodicity(tel, depth=1).certified
    assert _fraction_bound_holds(tel, 1)
    tel = _tighten(tel, 1 - Fraction(1, 10**9))
    assert not classify_ergodicity(tel, depth=1).certified


@pytest.mark.parametrize("j", range(9))
def test_bound_is_checked_once_and_decides_every_depth(j):
    # With the ratio halved, (1 - r(i)) / ratio^i grows with i, so the scale
    # (1 - r(j)) / ratio^j keeps the bound on exactly the first j levels.
    spec = gen_substitution_family(depth=8)
    rec = spec.family_record
    ratio = rec.ratio / 2
    scale = one_minus_r(spec, j) / ratio**j if j else one_minus_r(spec, 1) / ratio / 2
    spec.__dict__["family_record"] = replace(rec, scale=scale, ratio=ratio)
    count = families._levels_under_geometric_bound
    with mock.patch.object(families, "_levels_under_geometric_bound", wraps=count) as check:
        for depth in range(1, spec.depth + 1):
            report = classify_ergodicity(spec, depth=depth)
            assert report.certified == (depth <= j) == _fraction_bound_holds(spec, depth), depth
            if depth > j:
                assert report.certificate == "the construction's convergence bound FAILED verification"
            else:
                assert report.label == "TwoErgodic(certified)"
    assert check.call_count == 1
    assert spec.family_record.bounded == j


# Each divergent construction with the maps its bound constrains: every map
# of the uniquely ergodic one, the maps into boundary levels 3, 6, 9, 12 of
# the staged one, and the telescoped maps whose span holds one of them.
_DIVERGENT = {
    "uniquely_ergodic": (lambda: gen_uniquely_ergodic_family(depth=8), tuple(range(8))),
    "staged": (lambda: gen_weakmix_not_mix_family(depth=12), (2, 5, 8, 11)),
    "telescoped_staged": (
        lambda: telescope(gen_weakmix_not_mix_family(depth=12), (1, 3, 4, 5, 7, 8, 10, 13)),
        (1, 3, 5, 6),
    ),
}


@pytest.mark.parametrize("name", sorted(_DIVERGENT))
@pytest.mark.parametrize("j", range(5))
def test_divergence_bound_is_checked_once_and_decides_every_depth(name, j):
    # No loop mass at the j-th checked map breaks 1 - r >= delta there and
    # nowhere else, so the bound holds on exactly the first j checked maps.
    build, checked = _DIVERGENT[name]
    spec = build()
    rec = spec.family_record
    assert rec.checked == checked
    loops = list(rec.loops)
    if j < len(checked):
        loops[checked[j]] = 0
    spec.__dict__["family_record"] = replace(rec, loops=tuple(loops))
    count = families._maps_over_floor
    with mock.patch.object(families, "_maps_over_floor", wraps=count) as check:
        for depth in range(1, spec.depth + 1):
            report = classify_ergodicity(spec, depth=depth)
            below = [k for k in checked if k < depth]
            holds = all(Fraction(loops[k], spec.lengths[k + 1]) >= rec.delta for k in below)
            assert holds == (len(below) <= j), depth
            if not holds:
                assert report.certificate == f"the construction's {rec.kind} bound FAILED verification"
                assert not report.certified
            elif below:
                assert report.label == "UniquelyErgodic(certified)", depth
                assert f"verified on {len(below)} presented" in report.certificate
            else:
                assert report.certificate.endswith("no boundary level is presented to verify")
                assert not report.certified
    assert check.call_count == 1
    assert spec.family_record.bounded == min(j, len(checked))


# -------------------------------------------------------- pinned answers ---

def _answer_digest(report) -> str:
    """sha256 prefix of a report's verdict, certificate, row count and last row."""
    last = report.rows[-1]
    fields = [
        report.verdict,
        report.certified,
        report.certificate,
        len(report.rows),
        rat_to_json(last.one_minus_r),
        rat_to_json(last.partial_product),
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def _hand_spec(seed: int) -> CoveringSpec:
    """A seeded reduced spec of 40-120 levels with no family metadata."""
    rng = random.Random(seed)
    levels = []
    for _ in range(rng.randint(40, 120)):
        b = rng.randint(1, 4)
        a = tuple(rng.randint(1, 3) if j in (0, b) else rng.randint(0, 3) for j in range(b + 1))
        levels.append(LevelMap(a=a, b=b))
    return CoveringSpec(l1=rng.randint(2, 6), levels=tuple(levels))


def _pinned_reports():
    """``name -> report`` for every entry of :data:`_PINNED_ANSWERS`."""
    families = {
        "substitution": gen_substitution_family(depth=800),
        "mixing": gen_mixing_family(depth=800),
        "not_weakmix": gen_not_weakmix_family(depth=800),
        "weakmix_not_mix": gen_weakmix_not_mix_family(depth=800),
        "uniquely_ergodic": gen_uniquely_ergodic_family(depth=800),
    }
    out = {}
    for tag, spec in families.items():
        for depth in (1, 2, 50, 400, 800):
            out[f"{tag}@{depth}"] = classify_ergodicity(spec, depth=depth)
    for seed in (1, 2, 3, 913):
        out[f"hand{seed}"] = classify_ergodicity(_hand_spec(seed))
    for make, keep in [(gen_substitution_family, (1, 3, 6, 10)), (gen_not_weakmix_family, (2, 5, 9))]:
        spec = telescope(make(depth=9), keep)
        out[f"{spec.family.tag}|{keep}"] = classify_ergodicity(spec)
    return out


#: Digests of the answers of the classifier before its bound check moved to
#: integers; every rewrite of the classifier must keep them.
_PINNED_ANSWERS = {
    "substitution@1": "96b21b9bd7c572b7",
    "substitution@2": "930eb911cb2e4a8e",
    "substitution@50": "82969596a85bd76e",
    "substitution@400": "a5e98beac5cea5b3",
    "substitution@800": "db092a1256c5459d",
    "mixing@1": "bb5e00b3d87fe6b2",
    "mixing@2": "433527f649a40d76",
    "mixing@50": "cd2d3e6856936ced",
    "mixing@400": "6b60188e4e108786",
    "mixing@800": "e168bb4ae33cc61b",
    "not_weakmix@1": "c7ea9f9b7a20208d",
    "not_weakmix@2": "2f8da34a5ef03141",
    "not_weakmix@50": "1019afd9646906ac",
    "not_weakmix@400": "555a0419a4fc23ba",
    "not_weakmix@800": "8ff6929a12fd0ac9",
    "weakmix_not_mix@1": "6bb04dbb44a23cfd",
    "weakmix_not_mix@2": "91b6150b5b60f118",
    "weakmix_not_mix@50": "6dd3b6345c4b489e",
    "weakmix_not_mix@400": "964758d1b99e4102",
    "weakmix_not_mix@800": "da7b74b7fb98767d",
    "uniquely_ergodic@1": "38730a4e9e22c2e9",
    "uniquely_ergodic@2": "eb64542bb45e8bc3",
    "uniquely_ergodic@50": "770ba45cd4939583",
    "uniquely_ergodic@400": "1fa2f8bf77302c38",
    "uniquely_ergodic@800": "3844df2332c2e4b3",
    "hand1": "05f295cd5805ed03",
    "hand2": "c60123eff251906c",
    "hand3": "932d9c8bdf8dad9d",
    "hand913": "3a8740ea9fe20525",
    "substitution|(1, 3, 6, 10)": "d7020662ba44a9c8",
    "not_weakmix|(2, 5, 9)": "123858f6dab5de21",
}


def test_classifier_answers_are_pinned():
    got = {name: _answer_digest(report) for name, report in _pinned_reports().items()}
    assert got == _PINNED_ANSWERS
