"""Contraction ratios, extreme measures, and the ergodicity classifier."""
from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrank2 import (
    CoveringSpec,
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

from proxrank2.measures import decimal_str, rat_from_json

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
    for k in data.draw(st.permutations(range(len(rows))), label="read order"):
        expected = sum((row.one_minus_r for row in rows[: k + 1]), Fraction(0))
        assert rows[k].partial_sum == expected


@settings(max_examples=40, deadline=None)
@given(reduced_specs, st.data())
def test_report_output_does_not_depend_on_earlier_reads(spec, data):
    untouched = classify_ergodicity(spec)
    read = classify_ergodicity(spec)
    picks = st.lists(st.integers(0, len(read.rows) - 1), max_size=4)
    for k in data.draw(picks, label="rows read first"):
        read.rows[k].partial_sum
    assert read.to_dict() == untouched.to_dict()
    assert read.to_csv() == untouched.to_csv()
    assert read.rows == untouched.rows


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
