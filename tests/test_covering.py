"""Spec model: validation, lengths, telescoping, serialization, families."""
from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxrank2 import (
    CoveringSpec,
    ExpansionTooLarge,
    LevelMap,
    RestrictedLevelMap,
    UsageError,
    circuit_length,
    classify_ergodicity,
    compose_word,
    cumulative_runs,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_uniquely_ergodic_family,
    gen_weakmix_not_mix_family,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    symbol_count,
    telescope,
    validate,
    winding_product,
)

from _corpus import (
    permissive_level,
    random_plain_spec,
    random_restricted_spec,
    raw_lengths,
    reduced_specs,
)


def test_base_family_lengths_follow_recurrence():
    spec = gen_substitution_family(depth=6)
    lengths = [circuit_length(spec, i) for i in range(1, 8)]
    assert lengths == [2, 7, 31, 127, 511, 2047, 8191]
    # level 1 winds twice (ECECE); every deeper level winds four times
    assert lengths[1] == 3 + 2 * lengths[0]
    for prev, nxt in zip(lengths[1:], lengths[2:]):
        assert nxt == 3 + 4 * prev


@settings(max_examples=80, deadline=None)
@given(reduced_specs, st.data())
def test_length_table_matches_raw_recurrence(spec, data):
    raw = raw_lengths(spec)
    assert [circuit_length(spec, n) for n in range(1, spec.depth + 2)] == raw
    back = spec_from_dict(spec_to_dict(spec))
    assert [circuit_length(back, n) for n in range(1, back.depth + 2)] == raw
    # keep levels at most three apart so the composed words stay small
    keep = [data.draw(st.integers(1, spec.depth + 1))]
    while keep[-1] < spec.depth + 1:
        keep.append(min(spec.depth + 1, keep[-1] + data.draw(st.integers(1, 3))))
    tele = telescope(spec, keep)
    assert [circuit_length(tele, j) for j in range(1, tele.depth + 2)] == [
        raw[k - 1] for k in keep
    ]
    for bad in (0, spec.depth + 2):
        with pytest.raises(UsageError):
            circuit_length(spec, bad)


@settings(max_examples=60, deadline=None)
@given(reduced_specs)
def test_winding_table_matches_raw_products(spec):
    raw = [1]
    for lm in spec.levels:
        raw.append(raw[-1] * lm.b)
    assert spec.windings == tuple(raw)
    top = spec.depth + 1
    for n, m in [(1, top), (top, top), (1, 1), ((top + 1) // 2, top)]:
        assert winding_product(spec, m, n) == math.prod(lm.b for lm in spec.levels[n - 1 : m - 1])
    for n, m in [(0, 1), (2, 1), (1, top + 1)]:
        with pytest.raises(UsageError, match="need 1 <= n <= m"):
            winding_product(spec, m, n)


def test_length_table_rejects_non_numeric_levels():
    text = '{"l1": 2, "levels": [{"a": [1, 1, 1], "b": 2}, {"a": [1, "x"], "b": 1}]}'
    with pytest.raises(UsageError, match="level 2"):
        circuit_length(spec_from_json(text), 1)  # the loader refuses it before the table


@pytest.mark.parametrize(
    "level, message",
    [
        ({"a": [1], "b": 0}, "level 2: winding number b must be >= 1, got 0"),
        ({"a": [1, 1], "b": 3}, "level 2: a must have b+1=4 entries, got 2"),
        ({"a": [1, -2, 1], "b": 2}, "level 2: loop runs a must be >= 0, got -2"),
    ],
    ids=["no-winding", "short-a", "negative-run"],
)
def test_length_table_checks_each_map_shape(level, message):
    spec = spec_from_dict({"l1": 3, "levels": [{"a": [1, 1], "b": 1}, level]})
    assert not validate(spec).ok
    queries = (
        lambda: circuit_length(spec, 1),
        lambda: circuit_length(spec, 3),
        lambda: winding_product(spec, 2, 1),  # reads only b, but from the checked table
    )
    for query in queries:
        with pytest.raises(UsageError) as info:
            query()
        assert str(info.value) == message


def test_validate_accepts_generated_families():
    for spec in (
        gen_substitution_family(depth=5),
        gen_mixing_family(depth=5),
        gen_weakmix_not_mix_family(depth=7),
        gen_not_weakmix_family(3, depth=5),
        gen_uniquely_ergodic_family(depth=4),
    ):
        report = validate(spec)
        assert report.ok, report.problems
        assert report.problems == ()


def test_validate_flags_broken_margins():
    bad = CoveringSpec(l1=2, levels=(LevelMap(a=(0, 1, 1), b=2),))
    report = validate(bad)
    assert not report.ok
    assert any("margin" in p for p in report.problems)


def test_validate_checks_a_repeated_map_once_and_reports_every_level(monkeypatch):
    # One map object at levels 1 and 3, an equal copy at level 2, and an
    # unhashable (list) field: each object is checked once, and the
    # messages still name every level.
    bad, good = LevelMap(a=[0, 1, 1], b=2), LevelMap(a=(1, 1), b=1)
    spec = CoveringSpec(l1=2, levels=(bad, LevelMap(a=[0, 1, 1], b=2), bad, good))
    calls = []
    real = LevelMap.problems
    monkeypatch.setattr(LevelMap, "problems", lambda lm: calls.append(id(lm)) or real(lm))
    report = validate(spec)
    assert len(calls) == 3
    assert report.problems == tuple(
        f"level {k}: a must be a tuple of b+1=3 entries, got [0, 1, 1]" for k in (1, 2, 3)
    )
    assert report.level_summaries == (
        "level 1: INVALID (1 problem(s))",
        "level 2: INVALID (1 problem(s))",
        "level 3: INVALID (1 problem(s))",
        "level 4: ok (general, b=1, sum(a)=2)",
    )
    assert report.warnings == (
        "level 4: b=1 (a single winding refines no partition; "
        "the system is Cantor only if b >= 2 at infinitely many levels)",
    )


def test_validate_flags_short_base_circuit():
    bad = CoveringSpec(l1=1, levels=(LevelMap(a=(1, 1), b=1),))
    report = validate(bad)
    assert not report.ok


def test_validate_warns_on_single_winding():
    spec = CoveringSpec(l1=2, levels=(LevelMap(a=(1, 1), b=1),))
    report = validate(spec)
    assert report.ok
    assert any("b = 1" in w or "winding" in w for w in report.warnings)


def test_restricted_run_form_matches_word_parse():
    rng = random.Random(0xC0FFEE)
    for _ in range(50):
        rm = RestrictedLevelMap(
            s=rng.randint(1, 5),
            t=rng.randint(2, 5),
            a_mid="".join(rng.choice("EC") for _ in range(rng.randint(0, 6))),
            t2=rng.randint(2, 5),
            s2=rng.randint(1, 5),
        )
        assert rm.to_level_map() == LevelMap.from_word(rm.word(), restricted=rm)


def test_restricted_run_form_handles_huge_exponents_symbolically():
    rm = RestrictedLevelMap(s=10**15, t=2, a_mid="", t2=3, s2=10**15)
    lm = rm.to_level_map()
    assert lm.b == 5
    assert lm.a[0] == 10**15 and lm.a[-1] == 10**15
    assert sum(lm.a) == 2 * 10**15


def test_winding_product_and_symbol_count():
    spec = gen_substitution_family(depth=4)
    assert winding_product(spec, 3, 1) == 2 * 4
    assert symbol_count(spec, 3, 1) == len(compose_word(spec, 3, 1))


def test_telescope_two_levels_of_base_family():
    spec = gen_substitution_family(depth=6)
    tel = telescope(spec, (1, 3))
    assert tel.l1 == 2
    assert tel.levels[0].a == (2, 1, 2, 1, 3, 1, 2, 1, 2)
    assert tel.levels[0].b == 8
    assert sum(tel.levels[0].a) == 15
    assert circuit_length(tel, 2) == 31


def test_telescope_composes_loop_exponents():
    spec = CoveringSpec(
        l1=2,
        levels=(LevelMap(a=(1, 0, 1), b=2), LevelMap(a=(1, 0, 1), b=2)),
    )
    tel = telescope(spec, (1, 3))
    assert tel.levels[0].a == (2, 0, 2, 0, 2)
    assert tel.levels[0].b == 4
    assert circuit_length(tel, 2) == circuit_length(spec, 3) == 14


def test_telescope_keep_all_is_identity():
    spec = gen_substitution_family(depth=5)
    tel = telescope(spec, tuple(range(1, spec.depth + 2)))
    assert [lm.a for lm in tel.levels] == [lm.a for lm in spec.levels]
    assert [lm.b for lm in tel.levels] == [lm.b for lm in spec.levels]


def test_telescope_preserves_kept_lengths_and_records_levels():
    spec = gen_substitution_family(depth=6)
    tel = telescope(spec, (2, 5, 7))
    assert tel.l1 == circuit_length(spec, 2) == 7
    assert circuit_length(tel, 2) == circuit_length(spec, 5) == 511
    assert circuit_length(tel, 3) == circuit_length(spec, 7) == 8191
    assert tel.family is not None
    assert tel.family.params["original_levels"] == [2, 5, 7]


def test_telescope_keeps_certified_classification():
    spec = gen_substitution_family(depth=6)
    tel = telescope(spec, (2, 5, 7))
    report = classify_ergodicity(tel)
    assert report.verdict == "TwoErgodic"
    assert report.certified


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        reduced_specs,
        st.builds(
            lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
            st.integers(1, 6),
            st.lists(st.integers(1, 4).flatmap(permissive_level), min_size=1, max_size=8),
        ),
    ),
    st.data(),
)
def test_telescope_equals_the_parse_of_the_composed_word(spec, data):
    keep = sorted(data.draw(st.sets(st.integers(1, spec.depth + 1), min_size=1), label="keep"))
    assume(all(symbol_count(spec, hi, lo) <= 50_000 for lo, hi in zip(keep, keep[1:])))
    tel = telescope(spec, keep)
    want = [
        spec.levels[lo - 1] if hi == lo + 1 else LevelMap.from_word(compose_word(spec, hi, lo))
        for lo, hi in zip(keep, keep[1:])
    ]
    assert tel.l1 == circuit_length(spec, keep[0])
    assert list(tel.levels) == want
    assert [LevelMap.from_word(lm.word()) for lm in spec.levels] == list(spec.levels)


def test_telescope_cap_bounds_the_composed_loop_runs():
    spec = gen_weakmix_not_mix_family(depth=12)
    tel = telescope(spec, [1, 4, 7, 10, 13], cap=126)  # 125 windings per map
    assert circuit_length(tel, 5) == circuit_length(spec, 13) == 216182364729
    with pytest.raises(ExpansionTooLarge) as info:
        telescope(spec, [1, 4, 7, 10, 13], cap=125)
    assert (info.value.needed, info.value.what) == (126, "loop runs of circuit 4 over level 1")


def test_telescope_rejects_bad_keep_lists():
    spec = gen_substitution_family(depth=4)
    with pytest.raises(UsageError):
        telescope(spec, ())
    with pytest.raises(UsageError):
        telescope(spec, (3, 1))
    with pytest.raises(UsageError):
        telescope(spec, (1, 99))


def test_random_specs_length_calculus_matches_composed_words(seed=0x51DE):
    rng = random.Random(seed)
    for _ in range(10):
        spec = random_restricted_spec(rng, max_depth=4, max_length=20_000)
        for m in range(2, spec.depth + 2):
            word = compose_word(spec, m, 1)
            expected = word.count("E") + word.count("C") * spec.l1
            assert circuit_length(spec, m) == expected


def test_json_round_trip_plain_and_family_specs():
    rng = random.Random(0xBEEF)
    specs = [random_plain_spec(rng, depth=4) for _ in range(5)]
    specs.append(gen_substitution_family(depth=5))
    specs.append(gen_weakmix_not_mix_family(depth=7))
    for spec in specs:
        text = spec_to_json(spec)
        back = spec_from_json(text)
        assert back == spec
        assert spec_to_json(back) == text


def _stage_numbers(spec, m, n):
    """``(len_d, s)`` of boundary ``m``: ``t_bar(m) l_m - tau(m - 1, n)`` and its margin."""
    rm = spec.levels[m - 1].restricted
    return rm.t_bar * circuit_length(spec, m) - cumulative_runs(spec, m - 1, n).tau, rm.s


def test_weakmix_family_records_stage_numbers():
    spec = gen_weakmix_not_mix_family(depth=7)
    stages = spec.family_record.stages
    assert stages == {3: 1, 6: 4}
    assert _stage_numbers(spec, 3, 1) == (431, 647)
    assert _stage_numbers(spec, 6, 4) == (216181, 324272)
    lengths = [circuit_length(spec, i) for i in range(1, 9)]
    assert lengths == [3, 17, 87, 1729, 8647, 43237, 864729, 4323647]


def test_json_round_trip_keeps_giant_margins_symbolic():
    spec = gen_weakmix_not_mix_family(depth=12)
    back = spec_from_json(spec_to_json(spec))
    assert back.levels == spec.levels
    assert circuit_length(back, 13) == circuit_length(spec, 13)


def test_weakmix_family_extends_without_materializing_margins():
    from proxrank2 import extend_family

    spec = gen_weakmix_not_mix_family(depth=7)
    ext = extend_family(spec, 14)
    assert ext is not None and ext.depth == 14
    assert list(ext.family_record.stages) == [3, 6, 9, 12]
    assert circuit_length(ext, 15) > 10**12


def test_mixing_family_lengths_are_odd_with_unit_margins():
    spec = gen_mixing_family(depth=8)
    lengths = [circuit_length(spec, i) for i in range(1, 9)]
    assert lengths[:4] == [11, 47, 191, 767]
    assert all(l % 2 == 1 for l in lengths)
    for lm in spec.levels:
        assert lm.a[0] == 1 and lm.a[-1] == 1


def test_uniquely_ergodic_family_margins_dominate():
    spec = gen_uniquely_ergodic_family(depth=5)
    for k, lm in enumerate(spec.levels, start=1):
        l_k = circuit_length(spec, k)
        s_bar = sum(lm.a)
        t_bar = lm.b
        assert s_bar >= t_bar * l_k


def test_generated_specs_json_keeps_family_metadata():
    spec = gen_weakmix_not_mix_family(depth=7)
    back = spec_from_json(spec_to_json(spec))
    assert back.family is not None
    assert back.family.tag == spec.family.tag
    assert back.family.params == spec.family.params == {"gen": {"l1": 3, "depth": 7}}
    assert back.family_record == spec.family_record
    assert back.family_record.stages == {3: 1, 6: 4}
