"""Symbolic dynamics on the covering: languages, arrays, witnesses, scans."""
from __future__ import annotations

import bisect
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrank2 import (
    BETA,
    CoveringSpec,
    ExpansionTooLarge,
    LevelMap,
    MissingStageMetadata,
    PointSeed,
    UsageError,
    WindowUndetermined,
    array_block,
    circuit_length,
    complexity_profile,
    cumulative_runs,
    d_word,
    forbidden_window_report,
    gen_family,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_uniquely_ergodic_family,
    gen_weakmix_not_mix_family,
    iterate,
    language,
    level1_separation_check,
    level_map,
    li_yorke_witness,
    mixing_window_check,
    position_of_seed,
    render_array_text,
    residue_obstruction,
    seed_from_position,
    stable_point,
    telescope,
    time_word,
    unstable_point,
    validate_seed,
)
from proxrank2 import dynamics, expansion
from proxrank2.expansion import _time_row, _walk_array

from _corpus import permissive_level, walk_gaps

BASE = gen_substitution_family(depth=6)


_FAMILIES = (
    gen_substitution_family,
    gen_mixing_family,
    gen_weakmix_not_mix_family,
    gen_not_weakmix_family,
    gen_uniquely_ergodic_family,
)


# ----------------------------------------------------------------- seeds ---

def test_seed_position_bijection_on_level_four():
    l4 = circuit_length(BASE, 4)
    seen = set()
    for pos in range(l4):
        seed = seed_from_position(BASE, 4, pos)
        validate_seed(BASE, seed)
        back = position_of_seed(BASE, seed)
        assert back == pos
        seen.add(seed)
    assert len(seen) == l4


@pytest.mark.parametrize("top", (20, 84, 247, 451))
@pytest.mark.parametrize(
    "tag, params", [("weakmix_not_mix", {}), ("custom", {"kind": "uniquely_ergodic"})]
)
def test_seed_round_trip_with_giant_margins(tag, params, top):
    # margins here grow with the circuit lengths; the descent reads runs only
    spec = gen_family(tag, depth=800, **params)
    l_top = circuit_length(spec, top)
    for pos in (0, 1, l_top // 3, l_top // 2, l_top - 1):
        seed = seed_from_position(spec, top, pos)
        assert position_of_seed(spec, seed) == pos


def _block_starts(row: str, l_k: int) -> list[int]:
    """Times where a level-``k`` block starts in a time row (E: one step)."""
    starts = []
    run = 0
    for t, ch in enumerate(row):
        if ch == "E":
            starts.append(t)
            run = 0
        else:
            if run % l_k == 0:
                starts.append(t)
            run += 1
    return starts


@pytest.mark.parametrize("gen", _FAMILIES)
def test_seed_slots_match_time_word_decode(gen):
    spec = gen(depth=4)
    top = max(m for m in range(2, spec.depth + 2) if circuit_length(spec, m) <= 4000)
    starts = {
        k: _block_starts(time_word(spec, top, k), circuit_length(spec, k))
        for k in range(1, top)
    }
    starts[top] = [0]
    for pos in range(circuit_length(spec, top)):
        seed = seed_from_position(spec, top, pos)
        ends = {k: bisect.bisect_right(starts[k], pos) for k in starts}
        for k in range(1, top):
            first = bisect.bisect_left(starts[k], starts[k + 1][ends[k + 1] - 1])
            assert seed.slot_at(k) == ends[k] - first - 1
        assert seed.offset == pos - starts[1][ends[1] - 1]


def test_stable_and_unstable_seed_positions():
    assert position_of_seed(BASE, stable_point(BASE, 2)) == 5
    assert position_of_seed(BASE, unstable_point(BASE, 2)) == 1
    assert position_of_seed(BASE, stable_point(BASE, 6)) == 2041


def test_seed_validation_rejects_bad_slots():
    bad = PointSeed(top_level=3, slot_path=(9, 0), offset=0)
    with pytest.raises(UsageError):
        validate_seed(BASE, bad)


# BASE: l1 = 2, maps (1, 1, 1) then (1, 0, 1, 0, 1); l_1 .. l_3 = 2, 7, 31.
_SEED_MESSAGES = [
    (PointSeed(3, (9, 0), 0), "level-1 slot must be 0 under a loop block, got 9"),
    (PointSeed(3, (1, 0), 0), "level-1 slot must be 0 under a loop block, got 1"),
    (PointSeed(3, (0, -1), 0), "level-2 slot -1 outside 0..6"),
    (PointSeed(3, (0, 7), 0), "level-2 slot 7 outside 0..6"),
    (PointSeed(3, (0, 0), 2), "offset 2 outside the base E-block span 0..0"),
    (PointSeed(3, (1, 1), 2), "offset 2 outside the base C-block span 0..1"),
    (PointSeed(3, (1, 1), -1), "offset -1 outside the base C-block span 0..1"),
    (PointSeed(3, (1,), 0), "slot_path length 1 != top-base = 2"),
    (PointSeed(3, (0,), 0, base_level=3), "slot_path length 1 != top-base = 0"),
    (PointSeed(9, (0,) * 8, 0), "need 1 <= base 1 <= top 9 <= 7"),
    (PointSeed(3, (), 0, base_level=4), "need 1 <= base 4 <= top 3 <= 7"),
    (PointSeed(3, (), 0, base_level=0), "need 1 <= base 0 <= top 3 <= 7"),
]


@pytest.mark.parametrize("seed, message", _SEED_MESSAGES)
def test_seed_error_messages_are_pinned(seed, message):
    for call in (validate_seed, position_of_seed):
        with pytest.raises(UsageError) as exc:
            call(BASE, seed)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "top, position, base, message",
    [
        (3, 31, 1, "position 31 outside circuit 3 (0..30)"),
        (3, -1, 1, "position -1 outside circuit 3 (0..30)"),
        (8, 0, 1, "need 1 <= base 1 <= top 8 <= 7"),
        (3, 0, 4, "need 1 <= base 4 <= top 3 <= 7"),
        (0, 0, 1, "need 1 <= base 1 <= top 0 <= 7"),
    ],
)
def test_seed_from_position_messages_are_pinned(top, position, base, message):
    with pytest.raises(UsageError) as exc:
        seed_from_position(BASE, top, position, base_level=base)
    assert str(exc.value) == message


def test_stable_and_unstable_points_check_the_top_level_first():
    for call in (stable_point, unstable_point):
        for top in (0, 8, 900):
            with pytest.raises(UsageError) as exc:
                call(BASE, top)
            assert str(exc.value) == f"need 1 <= base 1 <= top {top} <= 7"
    assert stable_point(BASE, 7).top_level == unstable_point(BASE, 1).top_level + 6


@pytest.mark.parametrize(
    "fields",
    [
        {"slot_path": "12"},
        {"slot_path": [1.5, 2]},
        {"slot_path": [True, 0]},
        {"base_level": None},
        {"base_level": 1.0},
        {"top_level": True},
        {"top_level": "3"},
        {"offset": 0.0},
        {"offset": [0]},
    ],
)
def test_seed_fields_must_be_ints(fields):
    d = {"top_level": 3, "slot_path": [1, 2], "offset": 0, **fields}
    with pytest.raises(UsageError) as exc:
        PointSeed.from_dict(d)
    assert "int" in str(exc.value)
    # the descent checks the same, for seeds built without from_dict
    seed = PointSeed(d["top_level"], tuple(d["slot_path"]), d["offset"], d.get("base_level", 1))
    with pytest.raises(UsageError):
        position_of_seed(gen_mixing_family(depth=5), seed)


def test_non_int_slot_gives_no_fractional_position():
    with pytest.raises(UsageError):
        position_of_seed(gen_mixing_family(depth=5), PointSeed(3, (1.5, 2), 0))
    with pytest.raises(UsageError):
        validate_seed(BASE, PointSeed(3, [1, 1], 0))  # a list, not a tuple


# The descent as it walked one level at a time through the accessors, kept
# as the reference for the table-reading descent.

def _slot_time_reference(lm, l_k, slot):
    time = 0
    for run in lm.a[:-1]:
        if slot < run:
            return time + slot, "E"
        if slot == run:
            return time + run, "C"
        slot -= run + 1
        time += run + l_k
    return time + slot, "E"


def _time_slot_reference(lm, l_k, time):
    slot = 0
    for run in lm.a[:-1]:
        if time < run:
            return slot + time, "E", 0
        if time < run + l_k:
            return slot + run, "C", time - run
        time -= run + l_k
        slot += run + 1
    return slot + time, "E", 0


def _descend_reference(spec, seed):
    if not 1 <= seed.base_level <= seed.top_level <= spec.depth + 1:
        raise UsageError(
            f"need 1 <= base {seed.base_level} <= top {seed.top_level} <= {spec.depth + 1}"
        )
    if len(seed.slot_path) != seed.top_level - seed.base_level:
        raise UsageError(
            f"slot_path length {len(seed.slot_path)} != top-base = "
            f"{seed.top_level - seed.base_level}"
        )
    pos = 0
    kind = "C"
    for k in range(seed.top_level - 1, seed.base_level - 1, -1):
        slot = seed.slot_at(k)
        if kind == "E":
            if slot != 0:
                raise UsageError(f"level-{k} slot must be 0 under a loop block, got {slot}")
            continue
        lm = level_map(spec, k)
        symbols = lm.a_total + lm.b
        if not 0 <= slot < symbols:
            raise UsageError(f"level-{k} slot {slot} outside 0..{symbols - 1}")
        time, kind = _slot_time_reference(lm, circuit_length(spec, k), slot)
        pos += time
    base_span = circuit_length(spec, seed.base_level) if kind == "C" else 1
    if not 0 <= seed.offset < base_span:
        raise UsageError(
            f"offset {seed.offset} outside the base {kind}-block span 0..{base_span - 1}"
        )
    return pos + seed.offset, kind


def _seed_from_position_reference(spec, top_level, position, base_level=1):
    if not 1 <= base_level <= top_level <= spec.depth + 1:
        raise UsageError(f"need 1 <= base {base_level} <= top {top_level} <= {spec.depth + 1}")
    if not 0 <= position < circuit_length(spec, top_level):
        raise UsageError(
            f"position {position} outside circuit {top_level} "
            f"(0..{circuit_length(spec, top_level) - 1})"
        )
    slots = []
    kind = "C"
    rem = position
    for k in range(top_level - 1, base_level - 1, -1):
        if kind == "E":
            slots.append(0)
            continue
        slot, kind, rem = _time_slot_reference(level_map(spec, k), circuit_length(spec, k), rem)
        slots.append(slot)
    slots.reverse()
    return PointSeed(top_level=top_level, slot_path=tuple(slots), offset=rem, base_level=base_level)


def _outcome(call, *args):
    try:
        return call(*args)
    except UsageError as exc:
        return "UsageError", str(exc)


def _random_seed(spec, top, base, draw):
    """A valid seed whose slots land on loop symbols about half the time."""
    slots = []
    kind = "C"
    for k in range(top - 1, base - 1, -1):
        if kind == "E":
            slots.append(0)
            continue
        lm = level_map(spec, k)
        runs = [j for j, run in enumerate(lm.a) if run]
        if runs and draw(st.booleans()):  # inside loop run j: after j runs and j C's
            j = draw(st.sampled_from(runs))
            slot = sum(lm.a[:j]) + j + draw(st.integers(0, lm.a[j] - 1))
        else:
            slot = draw(st.integers(0, lm.a_total + lm.b - 1))
        kind = _slot_time_reference(lm, circuit_length(spec, k), slot)[1]
        slots.append(slot)
    span = circuit_length(spec, base) if kind == "C" else 1
    offset = draw(st.integers(0, span - 1))
    return PointSeed(top, tuple(reversed(slots)), offset, base)


_seed_specs = st.one_of(
    st.builds(
        lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
        st.integers(1, 6),
        st.lists(st.integers(1, 4).flatmap(permissive_level), min_size=0, max_size=8),
    ),
    st.sampled_from([gen(depth=6) for gen in _FAMILIES]),
    st.sampled_from([gen(depth=800) for gen in _FAMILIES]),
)


@settings(max_examples=300, deadline=None)
@given(_seed_specs, st.data())
def test_seed_descent_equals_the_level_walk_reference(spec, data):
    # Every base level, slots on loop symbols (positions inside loop runs),
    # and single-field mutations whose error messages must match.
    top = data.draw(st.integers(1, spec.depth + 1), label="top")
    base = data.draw(st.integers(1, top), label="base")
    seed = _random_seed(spec, top, base, data.draw)
    pos, kind = _descend_reference(spec, seed)
    assert dynamics._descend(spec, seed) == (pos, kind)
    assert seed_from_position(spec, top, pos, base) == seed
    assert _seed_from_position_reference(spec, top, pos, base) == seed
    other = data.draw(st.integers(-1, circuit_length(spec, top)), label="position")
    assert _outcome(seed_from_position, spec, top, other, base) == _outcome(
        _seed_from_position_reference, spec, top, other, base
    )
    if seed.slot_path and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(seed.slot_path) - 1))
        slots = list(seed.slot_path)
        slots[i] = data.draw(st.integers(-2, slots[i] + 3))
        bad = PointSeed(top, tuple(slots), seed.offset, base)
    else:
        bad = PointSeed(top, seed.slot_path, data.draw(st.integers(-2, seed.offset + 3)), base)
    assert _outcome(dynamics._descend, spec, bad) == _outcome(_descend_reference, spec, bad)


@pytest.mark.parametrize("gen", _FAMILIES)
def test_seeds_at_every_base_level_equal_the_reference(gen):
    spec = gen(depth=5)
    rng = random.Random(5)
    for top in range(1, spec.depth + 2):
        l_top = circuit_length(spec, top)
        for base in range(1, top + 1):
            for pos in {0, l_top - 1, *(rng.randrange(l_top) for _ in range(12))}:
                want = _seed_from_position_reference(spec, top, pos, base)
                assert seed_from_position(spec, top, pos, base) == want
                assert dynamics._descend(spec, want) == _descend_reference(spec, want)


# -------------------------------------------------------------- language ---

def test_language_small_windows_of_base_family():
    assert set(language(BASE, 1, 1).words) == {"C", "E"}
    lang3 = language(BASE, 1, 3)
    assert sorted(lang3.words) == ["CCE", "CEC", "CEE", "ECC", "EEC", "EEE"]
    assert lang3.stabilized


def test_language_matches_substitution_after_relettering():
    from proxrank2 import factor_language

    # engine vs engine: both stabilize exactly, through different recursions
    for length in (5, 10, 24):
        lang = language(BASE, 1, length)
        assert lang.stabilized
        relettered = {w.replace("E", "1").replace("C", "0") for w in lang.words}
        assert relettered == set(factor_language(BETA, "0", length).factors), length
    # anchor against a directly materialized iterate: at width 10 every word
    # is already realized by the twelfth image (windows read as 10-bit codes)
    word = iterate(BETA, "0", 12)
    bits = np.frombuffer(word.encode("ascii"), dtype=np.uint8) - ord("0")
    count = bits.size - 9
    codes = np.zeros(count, dtype=np.uint16)
    for j in range(10):
        codes <<= 1
        codes |= bits[j: j + count]
    direct = {format(c, "010b") for c in np.flatnonzero(np.bincount(codes, minlength=1024))}
    lang10 = language(BASE, 1, 10)
    assert {w.replace("E", "1").replace("C", "0") for w in lang10.words} == direct


def test_language_at_higher_base_level():
    lang = language(BASE, 2, 4)
    assert lang.stabilized
    # every row over level 2 is a factor of a deeper row, so the level-3 row
    # itself must appear among the windows of the stabilized set's union
    row = time_word(BASE, 4, 2)
    for i in range(len(row) - 3):
        assert row[i: i + 4] in lang.words


def test_language_unstabilized_for_hand_spec(capsys):
    hand = CoveringSpec(l1=2, levels=(LevelMap(a=(1, 1, 1), b=2),))
    lang = language(hand, 1, 4)
    assert not lang.stabilized
    assert lang.stabilized_at is None


def _windows(word: str, length: int) -> set[str]:
    return {word[i: i + length] for i in range(len(word) - length + 1)}


def _reference_language(levels, l_n: int, length: int) -> frozenset:
    """Windows of the rows ``C^l_n``, ``E^a0 X E^a1 ... X E^ab`` over ``levels``.

    Reads levels until the first and last ``length`` letters of the row are
    both ``E^length``: every later junction and margin word then has only
    that window, so the set is final.  Fails if ``levels`` ends first.
    """
    loops = "E" * length
    row, head, tail = "C" * l_n, None, None
    words: set[str] = set()
    for lm in levels:
        runs = ["E" * min(r, length) for r in lm.a]
        if head is None:
            row = "C".join(runs).replace("C", row)
            words |= _windows(row, length)
            if len(row) >= length:
                head, tail = row[:length], row[-length:]
            continue
        for run in set(runs[1:-1]):
            words |= _windows(tail + run + head, length)
        words |= _windows(runs[0] + head, length) | _windows(tail + runs[-1], length)
        head, tail = (runs[0] + head)[:length], (tail + runs[-1])[-length:]
        if head == tail == loops:
            return frozenset(words)
    raise AssertionError("levels ran out before the reference closed")


def _continuations(length: int):
    """Three reduced continuations, long enough for the reference to close."""
    count = 2 * length + 2
    return (
        [LevelMap(a=(1, 1), b=1)] * count,
        [LevelMap(a=(1, 0, 0, 2), b=3)] * count,
        [LevelMap(a=(length + 1, 3, length + 1), b=2)] * count,
    )


# A valid hand spec on which stopping once the set is unchanged for two
# levels returned 10 of the 13 length-7 words every reduced continuation has.
_COUNTEREXAMPLE = CoveringSpec(
    l1=3,
    levels=(LevelMap(a=(9, 3, 1), b=2), LevelMap(a=(2, 1), b=1), LevelMap(a=(9, 1), b=1)),
)


def test_language_proof_closes_the_counterexample():
    lang = language(_COUNTEREXAMPLE, 1, 7)
    assert lang.stabilized and len(lang.words) == 13
    assert {"CCCEEEE", "CCEEEEE", "CEEEEEE"} <= lang.words
    for tail in _continuations(7):
        assert lang.words == _reference_language(_COUNTEREXAMPLE.levels + tuple(tail), 3, 7)


@st.composite
def _reduced_hand_specs(draw):
    margin = st.one_of(st.integers(1, 3), st.integers(1, 12))

    def level():
        b = draw(st.integers(1, 3))
        inner = [draw(st.integers(0, 4)) for _ in range(b - 1)]
        return LevelMap(a=(draw(margin), *inner, draw(margin)), b=b)

    levels = tuple(level() for _ in range(draw(st.integers(1, 5))))
    return CoveringSpec(l1=draw(st.integers(2, 6)), levels=levels), draw(st.integers(1, 10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_reduced_hand_specs())
def test_stabilized_hand_language_holds_in_every_continuation(case):
    spec, length = case
    lang = language(spec, 1, length)
    for tail in _continuations(length):
        ref = _reference_language(spec.levels + tuple(tail), spec.l1, length)
        if lang.stabilized:
            assert lang.words == ref
        else:
            assert lang.words <= ref


def test_family_languages_equal_the_reference_within_the_level_bound():
    for gen in _FAMILIES:
        spec, deep = gen(depth=4), gen(depth=3 + 2 * 64 + 1)
        for n in (1, 2, 3):
            for length in range(1, 65):
                lang = language(spec, n, length)
                assert lang.stabilized
                assert lang.stabilized_at - n <= max(1, length - 1), (gen, n, length)
                ref = _reference_language(deep.levels[n - 1:], circuit_length(deep, n), length)
                assert lang.words == ref, (gen, n, length)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_FAMILIES), st.integers(1, 3), st.integers(1, 24))
def test_language_equals_windows_of_materialized_rows(gen, n, length):
    lang = language(gen(depth=4), n, length)
    assert lang.stabilized
    spec = gen(depth=n + 2 * length + 1)
    # rows below and above the closing level realize no window outside the set
    union: set[str] = set()
    for m in range(n + 1, spec.depth + 2):
        if circuit_length(spec, m) > 1 << 17:
            break
        union |= _windows(time_word(spec, m, n), length)
        assert union <= lang.words
    assert lang.words == _reference_language(spec.levels[n - 1:], circuit_length(spec, n), length)


def test_language_at_deep_base_level():
    spec = gen_mixing_family(depth=40)
    deep = language(spec, 35, 4)
    assert deep.stabilized
    assert deep.words == language(spec, 10, 4).words


def test_complexity_profile_counts_and_decay():
    prof = complexity_profile(BASE, 8)
    counts = [row.count for row in prof]
    assert counts == [2, 4, 6, 9, 13, 17, 22, 28]
    assert all(row.stabilized for row in prof)


@pytest.mark.parametrize("gen", _FAMILIES)
def test_complexity_profile_equals_one_closure_per_length(gen):
    spec = gen(depth=4)
    prof = complexity_profile(spec, 16)
    assert [row.length for row in prof] == list(range(1, 17))
    for row in prof:
        lang = language(spec, 1, row.length)
        assert (row.count, row.stabilized) == (len(lang.words), lang.stabilized)


# ---------------------------------------------------------------- arrays ---

def test_array_block_of_position_two():
    seed = seed_from_position(BASE, 2, 2)
    block = array_block(BASE, seed, (-2, 4))
    row1 = block.rows[-1]
    assert row1.level == 1
    assert row1.symbols == "ECCECCE"
    assert row1.cuts == (-2, -1, 1, 2, 4)


def test_array_rows_nest_cuts():
    seed = seed_from_position(BASE, 5, 77)
    block = array_block(BASE, seed, (-20, 20))
    by_level = {row.level: row for row in block.rows}
    for lvl in range(2, 5):
        assert set(by_level[lvl].cuts) <= set(by_level[lvl - 1].cuts)


def test_array_text_rendering():
    seed = seed_from_position(BASE, 2, 2)
    text = render_array_text(array_block(BASE, seed, (-2, 4)))
    lines = text.splitlines()
    assert lines[-1].startswith("n=1")
    assert "|" in lines[-1]


def test_array_block_respects_window_bounds():
    seed = seed_from_position(BASE, 2, 2)
    with pytest.raises(WindowUndetermined):
        array_block(BASE, seed, (-3, 4))
    with pytest.raises(WindowUndetermined) as info:
        array_block(BASE, seed, (0, 5))
    assert info.value.first_time == 5


def test_stable_point_rows_turn_all_loop():
    # the forward tail is a staircase: the level-k row is all loop edges
    # from relative time k on (level 1 immediately, each level one later)
    seed = stable_point(BASE, 6)
    block = array_block(BASE, seed, (1, 5))
    for row in block.rows:
        if row.level < 6:
            tail = row.symbols[row.level - 1:]
            assert set(tail) == {"E"}, row
            assert row.cuts == tuple(range(row.level, 6)), row


def test_shift_commutes_with_reading_rows():
    l4 = circuit_length(BASE, 4)
    rng = random.Random(0x5211F7)
    for _ in range(10):
        pos = rng.randrange(l4 - 9)
        a = array_block(BASE, seed_from_position(BASE, 4, pos), (0, 8))
        b = array_block(BASE, seed_from_position(BASE, 4, pos + 1), (-1, 7))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.symbols == rb.symbols
            assert tuple(c - 1 for c in ra.cuts) == rb.cuts


# ------------------------------------------------------------- li-yorke ---

def test_li_yorke_identical_seeds_never_separate():
    seed = stable_point(BASE, 6)
    wit = li_yorke_witness(BASE, seed, seed, 5, 3)
    assert wit.separation_events == ()
    assert wit.best_k >= 3


def test_li_yorke_stable_vs_unstable():
    wit = li_yorke_witness(BASE, stable_point(BASE, 6), unstable_point(BASE, 6), 5, 1)
    assert wit.separation_events == (1, 3, 4)
    assert wit.proximal_events


def test_li_yorke_nearby_mixing_pairs_are_proximal_then_separate():
    mix = gen_mixing_family(depth=6)
    l3 = circuit_length(mix, 3)
    horizon = 10 * l3
    rng = random.Random(0xF1337)
    top = 6
    l_top = circuit_length(mix, top)
    for _ in range(5):
        pos = rng.randrange(l_top - horizon - 3)
        delta = rng.choice((1, 2))
        a = seed_from_position(mix, top, pos)
        b = seed_from_position(mix, top, pos + delta)
        wit = li_yorke_witness(mix, a, b, horizon, 3)
        assert any(k >= 3 for (_, k) in wit.proximal_events)
        assert wit.separation_events
        assert min(wit.separation_events) <= horizon


def _li_yorke_reference(spec, seed_a, seed_b, horizon, k_target, direction):
    """``li_yorke_witness(...).to_dict()`` read off the whole walks of both top circuits."""
    pos_a, pos_b = position_of_seed(spec, seed_a), position_of_seed(spec, seed_b)
    t_lo, t_hi = (0, horizon) if direction == "forward" else (-horizon, 0)
    span = t_hi - t_lo + 1
    best = np.zeros(span, dtype=int)
    for k in range(1, min(k_target, seed_a.top_level, seed_b.top_level) + 1):
        wa, wb = _walk_array(spec, seed_a.top_level, k), _walk_array(spec, seed_b.top_level, k)
        best[wa[pos_a + t_lo: pos_a + t_hi + 1] == wb[pos_b + t_lo: pos_b + t_hi + 1]] = k
    rows = [_walk_array(spec, seed.top_level, 1) for seed in (seed_a, seed_b)]
    symbols = [
        (w[p + t_lo: p + t_hi + 1] == 0) & (w[p + t_lo + 1: p + t_hi + 2] == 0)
        for w, p in zip(rows, (pos_a, pos_b))
    ]
    return {
        "seed_a": seed_a.to_dict(), "seed_b": seed_b.to_dict(), "horizon": horizon,
        "direction": direction, "k_target": k_target,
        "proximal_events": [[t_lo + int(i), int(best[i])] for i in np.flatnonzero(best)],
        "separation_events": [t_lo + int(i) for i in np.flatnonzero(symbols[0] != symbols[1])],
        "best_k": int(best.max()),
    }


def test_li_yorke_equals_whole_walk_scan_across_top_levels():
    # Seeds of different top levels read their windows from different walks.
    rng = random.Random(0x11F0)
    for spec in (BASE, gen_mixing_family(depth=5), gen_not_weakmix_family(3, depth=8)):
        for _ in range(12):
            horizon, direction = rng.randint(0, 60), rng.choice(("forward", "backward"))
            seeds = []
            for top in rng.sample(range(2, spec.depth + 2), 2):
                l_top = circuit_length(spec, top)
                lo, hi = (0, l_top - 1 - horizon) if direction == "forward" else (horizon, l_top - 1)
                if lo > hi:
                    break
                seeds.append(seed_from_position(spec, top, rng.randint(lo, hi)))
            if len(seeds) < 2:
                continue
            k_target = rng.randint(1, spec.depth + 1)
            got = li_yorke_witness(spec, *seeds, horizon, k_target, direction=direction)
            assert got.to_dict() == _li_yorke_reference(spec, *seeds, horizon, k_target, direction)


# ------------------------------------------------------- mixing criteria ---

def test_mixing_window_check_passes_at_stated_depth():
    mix = gen_mixing_family(depth=20)
    report = mixing_window_check(mix, 21, 1)
    assert report.ok
    assert report.window == (33, 40)
    assert report.pairs_checked == 121
    assert report.precondition_violations == ()
    assert report.failures == ()


def test_mixing_window_check_reports_empty_window():
    mix = gen_mixing_family(depth=6)
    report = mixing_window_check(mix, 4, 1)
    assert not report.ok
    assert report.window[0] > report.window[1]
    assert any("empty" in v for v in report.precondition_violations)


def test_mixing_window_check_flags_even_lengths():
    ue = gen_substitution_family(depth=6)
    report = mixing_window_check(ue, 5, 1)
    assert any("even" in v for v in report.precondition_violations)


def test_not_weakmix_fails_mixing_window():
    nw = gen_not_weakmix_family(3, depth=8)
    report = mixing_window_check(nw, 9, 1)
    assert not report.ok
    assert report.failures


# ---------------------------------------------------------------- residue ---

def test_residue_obstruction_not_weakmix_p3():
    nw = gen_not_weakmix_family(3, depth=15)
    report = residue_obstruction(nw, 1, 3, 16)
    assert report.passed
    assert report.classes_v1 == (1,)
    assert report.classes_v2 == (2,)
    assert report.violations_v1v1 == () and report.violations_v1v2 == ()


def test_residue_trivial_modulus_always_passes():
    nw = gen_not_weakmix_family(3, depth=8)
    report = residue_obstruction(nw, 1, 1, 9)
    assert report.passed


def test_residue_obstruction_fails_on_mixing_family():
    mix = gen_mixing_family(depth=8)
    report = residue_obstruction(mix, 1, 2, 9)
    assert not report.passed
    assert report.witnesses


def _residue_reference(spec, n, p, m, max_gap):
    """``residue_obstruction(...).to_dict()`` with both gap scans read off the walk."""
    walk = _walk_array(spec, m, n)
    occ1 = [int(x) for x in np.flatnonzero(walk == 1)]
    occ2 = [int(x) for x in np.flatnonzero(walk == 2)]
    classes1 = sorted({x % p for x in occ1})
    classes2 = sorted({x % p for x in occ2})
    class_ok = len(classes1) == len(classes2) == 1 and (classes2[0] - classes1[0]) % p == 1 % p
    witnesses = []
    if len(classes1) > 1:
        x, y = next((x, y) for x, y in zip(occ1, occ1[1:]) if (y - x) % p)
        witnesses.append(f"v1 at {x} and {y}: gap {y - x} != 0 mod {p}")
    later = [y for y in occ2 if y > occ1[0]]
    if not class_ok and later and (later[0] - occ1[0]) % p != 1 % p:
        witnesses.append(f"v1 at {occ1[0]}, v2 at {later[0]}: gap {later[0] - occ1[0]} != 1 mod {p}")
    gaps11 = [int(g) for g in np.flatnonzero(walk_gaps(spec, m, n, max_gap, 1, 1))]
    gaps12 = [int(g) for g in np.flatnonzero(walk_gaps(spec, m, n, max_gap, 1, 2))]
    bad11 = [g for g in gaps11 if g % p != 0][:8]
    bad12 = [g for g in gaps12 if g % p != 1 % p][:8]
    witnesses += [f"realized v1->v1 gap {g} != 0 mod {p}" for g in bad11[:1]]
    witnesses += [f"realized v1->v2 gap {g} != 1 mod {p}" for g in bad12[:1]]
    return {
        "n": n,
        "m": m,
        "p": p,
        "passed": class_ok and not bad11 and not bad12,
        "classes_v1": classes1,
        "classes_v2": classes2,
        "scan_max_gap": max_gap,
        "scanned_v1v1": len(gaps11),
        "scanned_v1v2": len(gaps12),
        "violations_v1v1": bad11,
        "violations_v1v2": bad12,
        "witnesses": witnesses,
    }


def _permissive_spec(rng):
    """``l1 >= 3`` and 1-6 levels of 1-4 windings, every loop run 0-3: zero margins,
    zero inner runs and ``b = 1`` levels included."""
    levels = []
    for _ in range(rng.randint(1, 6)):
        b = rng.randint(1, 4)
        levels.append(LevelMap(a=tuple(rng.randint(0, 3) for _ in range(b + 1)), b=b))
    return CoveringSpec(l1=rng.randint(3, 6), levels=tuple(levels))


# A level of 2048 slots below circuit 12: the walk has 294,907 entries at m = 3.
_WIDE = telescope(gen_not_weakmix_family(3, depth=15), [1, 12, 16])

_RESIDUE_SPECS = (
    gen_not_weakmix_family(3, depth=12),
    telescope(gen_not_weakmix_family(3, depth=12), [1, 3, 7, 13]),
    gen_mixing_family(depth=6),
    _WIDE,
    *(_permissive_spec(random.Random(seed)) for seed in range(12)),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_RESIDUE_SPECS), st.sampled_from([1, 2, 3, 5, 7, 2**70]), st.data())
def test_residue_obstruction_matches_walk_scan_reference(spec, p, data):
    m = data.draw(st.integers(1, spec.depth + 1), label="m")
    n = data.draw(st.integers(1, m), label="n")
    if circuit_length(spec, n) < 3:
        n = 1
    # the reference scans the walk gap by gap: slow past a few thousand on _WIDE
    top = 1000 if spec is _WIDE else 2 * circuit_length(spec, m)
    max_gap = data.draw(st.integers(1, top), label="max_gap")
    got = residue_obstruction(spec, n, p, m, max_gap=max_gap).to_dict()
    assert got == _residue_reference(spec, n, p, m, max_gap)


@pytest.mark.parametrize("p", [10**12, 4603 + 2, 2**70])
def test_residue_classes_of_a_modulus_beyond_the_circuit(p):
    # positions below p are their own residues (4603 of them at m = 10)
    spec = gen_not_weakmix_family(3, depth=12)
    got = residue_obstruction(spec, 1, p, 10, max_gap=50).to_dict()
    assert got == _residue_reference(spec, 1, p, 10, 50)
    assert len(got["classes_v1"]) > 1


def test_residue_classes_past_64_bit_positions():
    # Block starts 2^62 and 2^62 + 3 in a circuit of 2^63 + 6 steps: exact
    # residues for a modulus past int64, and mod 3 one class.
    spec = CoveringSpec(l1=3, levels=(LevelMap(a=(2**62, 0, 2**62), b=2),))
    big = residue_obstruction(spec, 1, 2**70, 2, max_gap=10)
    assert big.classes_v1 == (2**62 + 1, 2**62 + 4)
    assert big.classes_v2 == (2**62 + 2, 2**62 + 5)
    assert (big.violations_v1v1, big.violations_v1v2) == ((3,), (4,))
    assert big.witnesses[0] == f"v1 at {2**62 + 1} and {2**62 + 4}: gap 3 != 0 mod {2**70}"
    # a gap at the edge of the window is still its own residue
    assert residue_obstruction(spec, 1, 2**70, 2, max_gap=3).violations_v1v1 == (3,)
    small = residue_obstruction(spec, 1, 3, 2, max_gap=10)
    assert small.passed and small.classes_v1 == (2,)


def test_residue_obstruction_past_the_walk_cap():
    # circuit 801 has about 2^800 steps: the classes need no walk
    nw = gen_not_weakmix_family(3, depth=800)
    rep = residue_obstruction(nw, 1, 3, 801)
    assert rep.passed and (rep.classes_v1, rep.classes_v2) == ((1,), (2,))
    assert (rep.scanned_v1v1, rep.scanned_v1v2) == (33332, 33333)
    with pytest.raises(ExpansionTooLarge) as info:
        residue_obstruction(gen_mixing_family(depth=8), 1, 10**6, 9, max_gap=10, cap=1000)
    assert info.value.what == "residue row of circuit 9 over level 1"


def test_residue_obstruction_reads_one_windowed_row(monkeypatch):
    # One distance path whatever the winding number: one row of block-start
    # distances cut at the window.
    nw = gen_not_weakmix_family(3, depth=15)
    wide = _WIDE  # circuit 16 again, with b = 2048 on level 1
    calls = []
    real = dynamics._block_start_differences
    monkeypatch.setattr(
        dynamics, "_block_start_differences", lambda *args: calls.append(args[1:]) or real(*args)
    )
    far = residue_obstruction(nw, 1, 3, 16, max_gap=30_000)
    assert calls == [(16, 1, 30_000)]
    calls.clear()
    near = residue_obstruction(wide, 1, 3, 3, max_gap=50)
    assert calls == [(3, 1, 50)]
    assert far.passed and near.passed
    assert (far.classes_v1, far.classes_v2) == (near.classes_v1, near.classes_v2) == ((1,), (2,))
    assert near.to_dict() == {**residue_obstruction(nw, 1, 3, 16, max_gap=50).to_dict(), "m": 3}


# ------------------------------------------------------ forbidden window ---

def test_forbidden_window_first_boundary():
    wm = gen_weakmix_not_mix_family(depth=7)
    rep = forbidden_window_report(wm, 3)
    assert rep.lengths_agree
    assert rep.len_arith == rep.len_measured == 431
    assert rep.first_realized == 1300
    assert rep.width == 868
    assert rep.width >= 1
    assert rep.all_pairs_empty


def test_forbidden_window_second_boundary():
    wm = gen_weakmix_not_mix_family(depth=7)
    rep = forbidden_window_report(wm, 6)
    assert rep.lengths_agree
    assert rep.len_arith == rep.len_measured == 216181
    assert rep.first_realized == 648550
    assert rep.width == 432368


def _first_gap_above(pos_u, pos_v, floor):
    """Smallest realized gap ``> floor`` from positions ``pos_u`` to ``pos_v``."""
    if pos_u.size == 0 or pos_v.size == 0:
        return None
    idx = np.searchsorted(pos_v, pos_u + floor + 1)
    valid = idx < pos_v.size
    if not valid.any():
        return None
    return int((pos_v[idx[valid]] - pos_u[valid]).min())


def _forbidden_reference(spec, m):
    """``forbidden_window_report(spec, m).to_dict()`` with the gaps scanned off the top walk."""
    n = spec.family_record.stages[m]
    l_n = circuit_length(spec, n)
    len_arith = (
        level_map(spec, m).restricted.t_bar * circuit_length(spec, m)
        - cumulative_runs(spec, m - 1, n).tau
    )
    dw = d_word(spec, m + 1, n)
    len_measured = dw.count("E") + dw.count("C") * l_n
    top = spec.depth + 1
    walk = _walk_array(spec, top, n)
    noncenter = np.flatnonzero(walk != 0)
    first = _first_gap_above(noncenter, noncenter, len_arith)
    per_pair = []
    if (l_n - 1) ** 2 <= 36:
        occ = {u: np.flatnonzero(walk == u) for u in range(1, l_n)}
        per_pair = [
            {"u": u, "v": v, "first_realized": _first_gap_above(occ[u], occ[v], len_arith)}
            for u in range(1, l_n)
            for v in range(1, l_n)
        ]
    return {
        "m": m,
        "n": n,
        "top_level": top,
        "len_arith": len_arith,
        "len_measured": len_measured,
        "lengths_agree": len_arith == len_measured,
        "window_start": len_arith + 1,
        "first_realized": first,
        "width": None if first is None else first - len_arith - 1,
        "all_pairs_empty": first is None or first > len_arith + 1,
        "per_pair": per_pair,
        "noncenter_pairs": (l_n - 1) ** 2,
    }


_STAGED = gen_weakmix_not_mix_family(depth=7)


@pytest.mark.parametrize(
    "spec",
    [_STAGED, telescope(_STAGED, (1, 2, 3, 4, 5, 7, 8)), telescope(_STAGED, (1, 2, 3, 4, 6, 8))],
    ids=["family", "telescoped-7", "telescoped-6"],
)
def test_forbidden_window_equals_top_walk_scan(spec):
    stages = spec.family_record.stages
    assert stages
    for m in stages:
        assert forbidden_window_report(spec, m).to_dict() == _forbidden_reference(spec, m), m


def test_forbidden_window_requires_stage_metadata():
    with pytest.raises(MissingStageMetadata):
        forbidden_window_report(BASE, 3)


def test_forbidden_window_reads_windowed_rows(monkeypatch):
    # Stage 3 needs distances up to about 1300, far below the whole window
    # of the top circuit (l_8 - l_1 = 4323644 bits): rows are read cut at
    # 2 (len + l_n) = 868 and doubled, never at the whole window.
    calls = []
    real = dynamics._gap_rows
    monkeypatch.setattr(dynamics, "_gap_rows", lambda *args, **kw: calls.append(args[1:4]) or real(*args, **kw))
    want = forbidden_window_report(_STAGED, 3)
    assert calls == [(8, 1, 868), (8, 1, 1736)]
    whole = circuit_length(_STAGED, 8) - circuit_length(_STAGED, 1)
    calls.clear()
    forbidden_window_report(_STAGED, 6)
    assert calls and all(window < whole for (_, _, window) in calls), calls
    tracemalloc.start()
    try:
        assert forbidden_window_report(_STAGED, 3) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ------------------------------------------------------- level-1 separation ---

def test_level1_separation_of_base_family():
    rep = level1_separation_check(BASE, 3, 6, samples=100, rng_seed=7)
    assert rep.failures == ()
    assert rep.max_padding <= circuit_length(BASE, 3)


def test_level1_separation_requires_level_at_least_two():
    with pytest.raises(UsageError):
        level1_separation_check(BASE, 1, 4)


@pytest.mark.parametrize("kwargs", [{"pad_max": -1}, {"pad_max": -3}, {"samples": -1}])
def test_level1_separation_refuses_negative_counts(kwargs):
    with pytest.raises(UsageError, match="must be >= 0"):
        level1_separation_check(BASE, 3, 4, **kwargs)


def _separation_reference(spec, n, length, samples, rng_seed, pad_max):
    """One pair at a time, as the check read before its draws were batched."""
    top = spec.depth + 1
    pad = circuit_length(spec, n) if pad_max is None else pad_max
    l_top = circuit_length(spec, top)
    walk_n = _walk_array(spec, top, n)
    row1 = _time_row(spec, top, 1)
    rng = random.Random(rng_seed)
    skipped = max_padding = done = attempts = 0
    failures = []
    while done < samples and attempts < 50 * samples:
        attempts += 1
        t1 = rng.randrange(pad, l_top - length - pad)
        t2 = rng.randrange(pad, l_top - length - pad)
        if walk_n[t1: t1 + length + 1].tobytes() == walk_n[t2: t2 + length + 1].tobytes():
            skipped += 1
            continue
        done += 1
        a, b = row1[t1 - pad: t1 + length + pad], row1[t2 - pad: t2 + length + pad]
        diffs = np.flatnonzero(a != b)
        if diffs.size == 0:
            failures.append((t1, t2))
            continue
        rel = diffs - pad
        need = np.where(rel < 0, -rel, np.maximum(rel - (length - 1), 0))
        max_padding = max(max_padding, int(need.min()))
    return {
        "n": n, "length": length, "top_level": top, "samples": done, "max_padding": max_padding,
        "failures": [list(f) for f in failures], "skipped_identical": skipped,
    }


@pytest.mark.parametrize(
    "spec",
    [
        gen_substitution_family(depth=8),
        gen_mixing_family(depth=5),
        gen_weakmix_not_mix_family(depth=4),
        gen_not_weakmix_family(3, depth=9),
    ],
    ids=["substitution", "mixing", "weakmix", "not_weakmix"],
)
def test_level1_separation_equals_the_one_pair_loop(spec):
    # The batched draws take the same pairs as drawing one pair at a time;
    # pad_max 0..3 makes failures, small samples and short segments make
    # identical segments (and, with the block patched small, several batches).
    rng = random.Random(17)
    for n in range(2, spec.depth + 1):
        for length in (1, 3, 8):
            for pad_max in (None, 0, 1, 3):
                samples, seed = rng.choice((1, 7, 60)), rng.randrange(1000)
                if circuit_length(spec, spec.depth + 1) < length + 2 * (
                    circuit_length(spec, n) if pad_max is None else pad_max
                ) + 2:
                    continue
                want = _separation_reference(spec, n, length, samples, seed, pad_max)
                with mock.patch.object(dynamics, "_SEPARATION_BLOCK", rng.choice((1, 64, 1 << 18))):
                    got = level1_separation_check(spec, n, length, samples, seed, pad_max=pad_max)
                assert got.to_dict() == want, (n, length, pad_max, samples, seed)



def test_forbidden_window_widens_until_every_distance_is_found(monkeypatch):
    # A made-up distance row for stage 3 (len 431, l_n = 3): the floors are
    # 430, 431 and 432, and distance 430 sits on one of them.  The least
    # distance above 430 is in the first window (868), those above 431 and
    # 432 only at 5000, so the window doubles three times.
    row = sum(1 << d for d in (0, 430, 431, 5000))
    windows = []

    def rows(spec, m, n, window, zeros=True):
        windows.append(window)
        return [row & (1 << window + 1) - 1]

    monkeypatch.setattr(dynamics, "_gap_rows", rows)
    rep = forbidden_window_report(_STAGED, 3)
    assert windows == [868, 1736, 3472, 6944]
    assert (rep.first_realized, rep.width, rep.all_pairs_empty) == (432, 0, False)
    assert rep.per_pair == ((1, 1, 5000), (1, 2, 432), (2, 1, 4999), (2, 2, 5000))

@pytest.mark.parametrize("budget", [40, 300, 5000])
def test_level1_separation_reads_windows_across_small_bases(budget):
    # With the base walk of walk_windows cut to a few hundred entries, most
    # windows descend from far above the base, and many cross a copy end.
    rng = random.Random(budget)
    # The last spec is not reduced: its level words start with a circuit
    # step, so a block's first step is a C at level 1.
    permissive = CoveringSpec(l1=3, levels=(
        LevelMap(a=(0, 1, 2), b=2), LevelMap(a=(0, 0, 1, 1), b=3),
        LevelMap(a=(1, 0, 2), b=2), LevelMap(a=(0, 2, 1), b=2),
    ))
    for spec in (gen_substitution_family(depth=8), gen_mixing_family(depth=5),
                 gen_not_weakmix_family(3, depth=9), permissive):
        for n in (2, 3):
            length, seed, pad_max = rng.choice((1, 4, 8)), rng.randrange(1000), rng.choice((None, 2))
            want = _separation_reference(spec, n, length, 60, seed, pad_max)
            with mock.patch.object(expansion, "_WINDOW_BASE", budget):
                got = level1_separation_check(spec, n, length, 60, seed, pad_max=pad_max)
            assert got.to_dict() == want, (n, length, pad_max, seed)


def _seed_rows(spec, top, k, lo, count):
    """Entries ``lo .. lo + count - 1`` of the level-``k`` walk of circuit ``top``, by seed descent."""
    l_top = circuit_length(spec, top)
    return np.array([
        0 if p == l_top else seed_from_position(spec, top, p, base_level=k).offset
        for p in range(lo, lo + count)
    ])


def test_array_and_li_yorke_past_the_cap_equal_seed_descent():
    # Circuit 15 of the mixing family has 3.2e9 steps: no walk of it fits the cap.
    mix = gen_mixing_family(depth=14)
    top, pos = 15, 1_234_567_891
    assert circuit_length(mix, top) > 10**9
    block = array_block(mix, seed_from_position(mix, top, pos), (-30, 40))
    for row in block.rows:
        walk = _seed_rows(mix, top, row.level, pos - 30, 72)
        assert row.cuts == tuple(int(t) - 30 for t in np.flatnonzero(walk[:71] == 0)), row.level
        assert row.end_cut == (walk[71] == 0)
        symbols = np.where((walk[:-1] == 0) & (walk[1:] == 0), "E", "C")
        assert row.symbols == "".join(symbols), row.level
    horizon = 10 * circuit_length(mix, 3)
    a, b = seed_from_position(mix, top, pos), seed_from_position(mix, top, pos + 2)
    wit = li_yorke_witness(mix, a, b, horizon, 3)
    best = np.zeros(horizon + 1, dtype=int)
    for k in (1, 2, 3):
        best[_seed_rows(mix, top, k, pos, horizon + 1) == _seed_rows(mix, top, k, pos + 2, horizon + 1)] = k
    assert wit.proximal_events == tuple((int(t), int(best[t])) for t in np.flatnonzero(best))
    one_a, one_b = _seed_rows(mix, top, 1, pos, horizon + 2), _seed_rows(mix, top, 1, pos + 2, horizon + 2)
    sym_a = (one_a[:-1] == 0) & (one_a[1:] == 0)
    sym_b = (one_b[:-1] == 0) & (one_b[1:] == 0)
    assert wit.separation_events == tuple(np.flatnonzero(sym_a != sym_b).tolist())
    assert wit.best_k == 3 and wit.separation_events
