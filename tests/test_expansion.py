"""Word/walk expansion, margin stripping, and occurrence-gap analysis."""
from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxrank2 import (
    CoveringSpec,
    ExpansionTooLarge,
    LevelMap,
    RestrictedFormRequired,
    UsageError,
    circuit_length,
    compose_word,
    cumulative_runs,
    d_word,
    e_run_margins,
    expand_circuit_word,
    expand_vertex_walk,
    gap_set,
    gap_structure_report,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_uniquely_ergodic_family,
    gen_weakmix_not_mix_family,
    level_walks,
    realized_gap_table,
    telescope,
    time_word,
)
from proxrank2 import dynamics, expansion, mixing_window_check
from proxrank2.expansion import (
    _block_start_differences,
    _gap_rows,
    _time_row,
    _walk_array,
)

from _corpus import random_plain_spec, random_restricted_spec, reduced_specs, walk_gaps

BASE = gen_substitution_family(depth=6)


def test_symbol_words_of_base_family():
    assert expand_circuit_word(BASE, 2, 1).symbols == "ECECE"
    assert expand_circuit_word(BASE, 3, 2).symbols == "ECCECCE"
    assert expand_circuit_word(BASE, 4, 3).symbols == "ECCECCE"


def test_time_word_expands_each_circuit_to_base_steps():
    word = time_word(BASE, 3, 1)
    assert len(word) == circuit_length(BASE, 3)
    assert word == "EECCECCEECCECCEEECCECCEECCECCEE"
    # every C symbol of the level word contributes l_1 = 2 circuit steps
    sym = expand_circuit_word(BASE, 3, 1).symbols
    assert len(word) == sym.count("E") + 2 * sym.count("C")


def test_vertex_walk_marks_circuit_cuts_at_zero():
    walk = expand_vertex_walk(BASE, 2, 1)
    assert walk.steps == circuit_length(BASE, 2)
    assert list(walk.vertices) == [0, 0, 1, 0, 0, 1, 0, 0]


def test_walks_nest_across_levels():
    walks = level_walks(BASE, 3)
    w1, w2 = walks[1], walks[2]
    # a level-2 cut is always a level-1 cut
    assert set(np.flatnonzero(w2 == 0)) <= set(np.flatnonzero(w1 == 0))


def test_d_word_base_cases_and_one_step_recursion():
    assert d_word(BASE, 3, 2) == "CCECC"
    assert d_word(BASE, 4, 2) == "CCECCEECCECCEEECCECCEECCECC"
    d32 = d_word(BASE, 3, 2)
    assert d_word(BASE, 4, 2) == d32 + "EE" + d32 + "EEE" + d32 + "EE" + d32


def test_d_word_requires_restricted_levels():
    # level 1 of the base family is ECECE, which is not restricted-shaped
    with pytest.raises(RestrictedFormRequired):
        d_word(BASE, 3, 1)


def test_strip_identity_on_random_restricted_corpus():
    rng = random.Random(0x57121)
    for _ in range(25):
        spec = random_restricted_spec(rng, max_depth=6, max_length=10**6)
        n = rng.randint(2, max(2, spec.depth - 1))
        m = rng.randint(n + 2, spec.depth + 1)
        if m > spec.depth + 1:
            continue
        runs = cumulative_runs(spec, m - 1, n)
        word = expand_circuit_word(spec, m, n).symbols
        assert word == "E" * runs.s + d_word(spec, m, n) + "E" * runs.s2


def test_margins_of_base_family():
    assert e_run_margins(BASE, 3, 1) == (2, 2)
    assert e_run_margins(BASE, 4, 1) == (3, 3)
    assert e_run_margins(BASE, 4, 2) == (2, 2)


def test_margins_grow_at_least_one_per_level():
    rng = random.Random(0x9A6)
    for _ in range(25):
        spec = random_restricted_spec(rng, max_depth=6, max_length=10**6)
        for n in range(1, spec.depth):
            for m in range(n + 1, spec.depth + 2):
                left, right = e_run_margins(spec, m, n)
                assert left >= m - n and right >= m - n


def test_gap_set_of_base_family():
    g = gap_set(BASE, 3, 2, 1, 1, max_gap=20)
    assert g.gaps == (7, 8, 15)


def test_gap_set_same_vertex_includes_zero_only_on_request():
    # the walk of c_2 over its own level visits 0 at both endpoints
    g0 = gap_set(BASE, 2, 2, 0, 0, max_gap=10, include_zero=True)
    assert g0.gaps == (0, 7)
    g1 = gap_set(BASE, 2, 2, 0, 0, max_gap=10)
    assert g1.gaps == (7,)
    g2 = gap_set(BASE, 2, 2, 0, 0, max_gap=5, include_zero=True)
    assert g2.gaps == (0,)


def test_strip_engine_agrees_with_materialized_scan():
    # Past the cap the label reads "strips"; either way the gaps are those
    # of the walk scan.
    mix = gen_mixing_family(depth=8)
    for (m, n, u, v, w) in (
        (6, 2, 1, 5, 60),
        (7, 2, 3, 3, 48),
        (8, 1, 1, 2, 50),
        (8, 3, 10, 4, 44),
        (8, 1, 0, 2, 50),
        (7, 2, 3, 0, 48),
    ):
        want = tuple(np.flatnonzero(walk_gaps(mix, m, n, w, u, v)).tolist())
        forced = gap_set(mix, m, n, u, v, max_gap=w, cap=4 * circuit_length(mix, n) + 400)
        full = gap_set(mix, m, n, u, v, max_gap=w, cap=10**8)
        assert forced.gaps == full.gaps == want, (m, n, u, v)
        assert forced.engine.startswith("strip")
        assert full.engine == "materialized"


def test_strip_engine_handles_astronomical_lengths():
    mix = gen_mixing_family(depth=20)
    assert circuit_length(mix, 21) > 10**12
    g = gap_set(mix, 21, 1, 1, 1, max_gap=40)
    assert g.engine.startswith("strip")
    assert 33 in g.gaps


def test_gap_sets_grow_with_expansion_level():
    for m in range(3, 6):
        lo = set(gap_set(BASE, m, 2, 1, 1, max_gap=40).gaps)
        hi = set(gap_set(BASE, m + 1, 2, 1, 1, max_gap=40).gaps)
        assert lo <= hi


def test_realized_gap_table_matches_single_pair_scans():
    table, engine = realized_gap_table(BASE, 4, 2, max_gap=25)
    l2 = circuit_length(BASE, 2)
    for u in range(l2):
        for v in range(l2):
            gaps = gap_set(BASE, 4, 2, u, v, max_gap=25).gaps
            assert set(np.flatnonzero(table[u, v])) == set(gaps)


def _strips_agree_with_materialized(spec, m, n, window):
    """Compare the tables and gap sets under both labels with the walk scan.

    The cap leaves room for the walk of the lowest circuit ``k0`` longer
    than the window only, so the label reads ``strips``.  Returns the loop
    runs between consecutive level-``k0`` traversals and the two margins,
    read off the symbol word of circuit ``m`` over ``k0``.
    """
    k0 = next(k for k in range(n, m + 1) if circuit_length(spec, k) > window)
    assert k0 < m
    cap = circuit_length(spec, k0) + 1
    want = walk_gaps(spec, m, n, window)
    full, engine = realized_gap_table(spec, m, n, window, cap=10**8)
    assert engine == "materialized"
    assert np.array_equal(full, want)
    forced, engine = realized_gap_table(spec, m, n, window, cap=cap)
    assert engine == "strips"
    assert np.array_equal(forced, want)
    l_n = circuit_length(spec, n)
    vertices = sorted({0, 1, l_n // 2, l_n - 1})
    for u in vertices:
        for v in vertices:
            got = gap_set(spec, m, n, u, v, window, cap=cap)
            assert got.engine == "strips"
            assert got.gaps == tuple(int(g) for g in np.flatnonzero(want[u, v])), (u, v)
    word = compose_word(spec, m, k0)
    inner = word.strip("E")
    runs = {len(piece) for piece in inner.split("C")[1:-1]}
    return runs, len(word) - len(word.lstrip("E")), len(word) - len(word.rstrip("E"))


def _small_level(b):
    inner = st.lists(st.integers(0, 6), min_size=b - 1, max_size=b - 1)
    return st.tuples(st.integers(1, 3), inner, st.integers(1, 3)).map(
        lambda t: LevelMap(a=(t[0], *t[1], t[2]), b=b)
    )


_materializable_specs = st.one_of(
    st.builds(
        lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
        st.integers(2, 5),
        st.lists(st.integers(1, 3).flatmap(_small_level), min_size=2, max_size=6),
    ),
    st.integers(0, 2**32).map(
        lambda seed: random_restricted_spec(random.Random(seed), max_depth=5, max_length=20_000)
    ),
).filter(lambda spec: spec.depth >= 2 and circuit_length(spec, spec.depth + 1) <= 20_000)


@settings(max_examples=60, deadline=None)
@given(_materializable_specs, st.data())
def test_strip_engine_equals_materialized_scan(spec, data):
    m = spec.depth + 1
    n = data.draw(st.integers(1, min(2, spec.depth - 1)), label="n")
    top = circuit_length(spec, m - 1) - 1
    assume(top >= 1)
    window = data.draw(st.integers(1, min(top, 3 * circuit_length(spec, n + 1))), label="window")
    _strips_agree_with_materialized(spec, m, n, window)


def test_strip_engine_covers_every_run_shape():
    # A fixed corpus that must reach adjacent traversals (run 0), runs longer
    # than the window, margins longer than the window, and a run longer than
    # the window between margins that are not: past the window a loop run is
    # smeared whole, and past the cap every answer must still be the walk
    # scan's.
    rng = random.Random(0x5721)
    seen = {"run 0": 0, "run > window": 0, "margin > window": 0, "run > window >= margins": 0}
    specs = [gen_mixing_family(depth=6), gen_substitution_family(depth=8)]
    long_inner_run = (LevelMap(a=(1, 2, 1), b=2), LevelMap(a=(1, 5, 1), b=2))
    specs.append(CoveringSpec(l1=7, levels=long_inner_run))
    specs += [random_restricted_spec(rng, max_depth=5, max_length=20_000) for _ in range(6)]
    specs += [random_plain_spec(rng, depth=5, max_length=20_000) for _ in range(6)]
    for spec in specs:
        m = spec.depth + 1
        for n in (1, 2):
            l_n = circuit_length(spec, n)
            for window in sorted({1, 2, 3, 4, 5, 6, l_n, 2 * l_n + 1}):
                if n >= m - 1 or circuit_length(spec, m - 1) <= window:
                    continue
                runs, lead, trail = _strips_agree_with_materialized(spec, m, n, window)
                seen["run 0"] += 0 in runs
                seen["run > window"] += any(g > window for g in runs)
                seen["margin > window"] += max(lead, trail) > window
                seen["run > window >= margins"] += max(runs, default=0) > window >= max(lead, trail)
    assert all(seen.values()), seen


def test_gap_structure_report_of_base_family():
    rep = gap_structure_report(BASE, 5, 2)
    assert rep.cc_present
    assert rep.taus == ((2, 2, True), (3, 4, True))


def test_expansion_cap_is_enforced():
    with pytest.raises(ExpansionTooLarge) as info:
        time_word(BASE, 6, 1, cap=100)
    assert info.value.needed == circuit_length(BASE, 6)
    assert info.value.cap == 100


# --------------------------------------------------------------------------
# The run builder against the time-word pipeline it replaced
# --------------------------------------------------------------------------

def _reference_time_word(spec, m, n):
    """The time word spelled out: the symbol word with each C widened to l_n steps."""
    return compose_word(spec, m, n, cap=10**9).replace("C", "C" * circuit_length(spec, n))


def _reference_dtype(l_n):
    for dt in (np.int8, np.int16, np.int32):
        if l_n <= np.iinfo(dt).max + 1:
            return np.dtype(dt)
    return np.dtype(np.int64)


def _reference_walk(spec, m, n):
    """The vertex walk from run offsets: the vertex after step p is its offset
    inside its run of circuit steps, plus one, mod ``l_n``."""
    l_m, l_n = circuit_length(spec, m), circuit_length(spec, n)
    is_c = np.frombuffer(_reference_time_word(spec, m, n).encode("ascii"), np.uint8) == ord("C")
    idx = np.arange(l_m, dtype=np.int64)
    run_start = np.where(is_c & ~np.concatenate(([False], is_c[:-1])), idx, -1)
    np.maximum.accumulate(run_start, out=run_start)
    walk = np.zeros(l_m + 1, dtype=_reference_dtype(l_n))
    walk[1:] = np.where(is_c, (idx - run_start + 1) % l_n, 0)
    return walk


def _assert_builder_matches_reference(spec, m, n):
    ref = _reference_walk(spec, m, n)
    got = _walk_array(spec, m, n)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref), (m, n)
    assert time_word(spec, m, n) == _reference_time_word(spec, m, n), (m, n)
    l_m = circuit_length(spec, m)
    with pytest.raises(ExpansionTooLarge) as info:
        _walk_array(spec, m, n, cap=l_m)
    assert str(info.value) == (
        f"vertex walk of circuit {m} over level {n} needs {l_m + 1} materialized entries, "
        f"cap is {l_m}"
    )
    assert np.array_equal(_walk_array(spec, m, n, cap=l_m + 1), ref)
    assert time_word(spec, m, n, cap=l_m) == time_word(spec, m, n, cap=l_m + 1)
    if l_m > 1:
        with pytest.raises(ExpansionTooLarge) as info:
            time_word(spec, m, n, cap=l_m - 1)
        assert (info.value.needed, info.value.what) == (l_m, f"time word of circuit {m} over level {n}")


def _permissive_level(b):
    # zero margins and zero inner runs allowed; b = 1 levels included
    return st.lists(st.integers(0, 3), min_size=b + 1, max_size=b + 1).map(
        lambda a: LevelMap(a=tuple(a), b=b)
    )


_builder_specs = st.one_of(
    reduced_specs,
    st.integers(0, 2**32).map(
        lambda seed: random_restricted_spec(random.Random(seed), max_depth=5, max_length=20_000)
    ),
    st.builds(
        lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
        st.integers(1, 6),
        st.lists(st.integers(1, 4).flatmap(_permissive_level), min_size=1, max_size=6),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_builder_specs, st.data())
def test_run_builder_equals_time_word_pipeline(spec, data):
    lengths = [circuit_length(spec, k) for k in range(1, spec.depth + 2)]
    top = max(k for k in range(1, spec.depth + 2) if lengths[k - 1] <= 20_000)
    m = data.draw(st.integers(1, top), label="m")
    n = data.draw(st.integers(1, m), label="n")
    _assert_builder_matches_reference(spec, m, n)


@pytest.mark.parametrize("edge", [127, 128, 129, 32767, 32768, 32769])
def test_run_builder_at_walk_dtype_edges(edge):
    deeper = (LevelMap(a=(1, 1), b=1), LevelMap(a=(2, 0, 1), b=2))
    # l_1 at the edge, and l_2 at the edge from a b = 1 level over l_1 = 3
    for spec in (
        CoveringSpec(l1=edge, levels=deeper),
        CoveringSpec(l1=3, levels=(LevelMap(a=(edge - 4, 1), b=1), *deeper)),
    ):
        n = 1 if spec.l1 == edge else 2
        assert circuit_length(spec, n) == edge
        for m in range(n, spec.depth + 2):
            _assert_builder_matches_reference(spec, m, n)


def test_walk_and_time_row_stay_under_two_bytes_per_step():
    spec = gen_mixing_family(l1=11, depth=12)
    steps = circuit_length(spec, 11)
    for build in (_walk_array, _time_row):
        tracemalloc.start()
        try:
            row = build(spec, 11, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.size >= steps
        assert peak <= 2 * steps, (build.__name__, peak / steps)


@pytest.mark.parametrize("shift", range(8))
def test_dense_gap_mask_matches_direct_scan(shift):
    # The dense gap mask is the bool row that gap_set and realized_gap_table
    # unpack from a bitset row a byte at a time, and the direct scan is the
    # walk scan: masks of every size mod 8, at row reaches (max_gap + l_n - 1)
    # of every size mod 8, must equal it for every pair.  Every size, not
    # the random ones of test_gap_engine_equals_walk_scan_for_all_pairs.
    for spec, m, n in ((gen_mixing_family(depth=5), 4, 1), (gen_not_weakmix_family(3, depth=8), 7, 2)):
        max_gap = 40 + shift
        want = walk_gaps(spec, m, n, max_gap)
        got, engine = realized_gap_table(spec, m, n, max_gap)
        assert engine == "materialized" and np.array_equal(got, want)
        for u in range(circuit_length(spec, n)):
            for v in (0, 1, u):
                gaps = gap_set(spec, m, n, u, v, max_gap).gaps
                assert gaps == tuple(np.flatnonzero(want[u, v]).tolist()), (u, v)


# Three families, and telescoped ones whose first level has b >= 64 slots.
_ROW_SPECS = (
    gen_not_weakmix_family(3, depth=8),
    gen_mixing_family(depth=4),
    gen_weakmix_not_mix_family(depth=3),
    telescope(gen_not_weakmix_family(3, depth=10), [1, 8, 10]),
    telescope(gen_mixing_family(depth=6), [1, 4, 5]),
    telescope(gen_uniquely_ergodic_family(depth=6), [1, 4, 5]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_builder_specs, st.sampled_from(_ROW_SPECS)), st.data())
def test_block_start_differences_equal_occurrence_masks(spec, data):
    # Vertex u != 0 sits at (block start + u), so gap g from u to v is
    # realized exactly when two blocks start |g - (v - u)| apart.
    top = max(k for k in range(1, spec.depth + 2) if circuit_length(spec, k) <= 5_000)
    spec = CoveringSpec(l1=spec.l1, levels=spec.levels[: top - 1])
    if top >= 3 and data.draw(st.booleans(), label="telescoped"):
        inner = data.draw(st.sets(st.integers(2, top - 1), max_size=top - 2), label="keep")
        spec = telescope(spec, [1, *sorted(inner), top])
    m = data.draw(st.integers(1, spec.depth + 1), label="m")
    n = data.draw(st.integers(1, m), label="n")
    l_n, l_m = circuit_length(spec, n), circuit_length(spec, m)
    assume(l_n >= 2)
    # The row cut at any window is the full row's prefix: windows at 0, past
    # the walk, and around the largest distance X of every circuit k on the
    # way (l_k - l_n less both margins), where the recursion switches rows.
    near = {0, l_m - l_n, l_m + 1}
    for k in range(n + 1, m + 1):
        x = circuit_length(spec, k) - l_n - sum(e_run_margins(spec, k, n))
        near |= {max(x - 1, 0), x, x + 1}
    window = data.draw(
        st.one_of(st.sampled_from(sorted(near)), st.integers(0, l_m - l_n), st.integers(0, 2 * l_m)),
        label="window",
    )
    dist = _block_start_differences(spec, m, n, 2 * l_m)
    cut = _block_start_differences(spec, m, n, window)
    assert dist.dtype == bool and dist.size == l_m - l_n + 1 and dist[0]
    assert cut.dtype == bool and np.array_equal(cut, dist[: window + 1])
    u = data.draw(st.integers(1, l_n - 1), label="u")
    v = data.draw(st.integers(1, l_n - 1), label="v")
    max_gap = data.draw(st.integers(1, 2 * l_m), label="max_gap")
    gaps = np.arange(1, max_gap + 1)
    at = np.abs(gaps - (v - u))
    got = np.zeros(max_gap + 1, dtype=bool)
    got[gaps[at < dist.size]] = dist[at[at < dist.size]]
    assert np.array_equal(got, walk_gaps(spec, m, n, max_gap, u, v))


@pytest.mark.parametrize("spec", _ROW_SPECS[:3], ids=["not_weakmix", "mixing", "weakmix"])
def test_block_start_differences_cut_around_every_level_switch(spec):
    # Every circuit k on the way switches the recursion's rows where the
    # window passes its largest distance X_k: windows X_k - 1, X_k and
    # X_k + 1 of every (m, n) against the full row's prefix.
    for m in range(1, spec.depth + 2):
        l_m = circuit_length(spec, m)
        for n in range(1, m + 1):
            l_n = circuit_length(spec, n)
            dist = _block_start_differences(spec, m, n, l_m)
            for k in range(n + 1, m + 1):
                x = circuit_length(spec, k) - l_n - sum(e_run_margins(spec, k, n))
                for window in (x - 1, x, x + 1):
                    cut = _block_start_differences(spec, m, n, window)
                    assert np.array_equal(cut, dist[: window + 1]), (m, n, window)


# The level of 2048 slots below circuit 12, with windows far below and above
# the slot pitch: the walk has 294,907 entries at m = 3.
_WIDE = telescope(gen_not_weakmix_family(3, depth=15), [1, 12, 16])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("window", [50, 1000, 5000])
def test_block_start_differences_on_a_level_of_2048_slots(m, window):
    want = walk_gaps(_WIDE, m, 1, window, 1, 1)
    want[0] = True
    assert np.array_equal(_block_start_differences(_WIDE, m, 1, window), want)


@pytest.mark.parametrize("m", [40, 121, 801])
def test_block_start_differences_past_64_bit_lengths(m):
    # Circuit 31 of the mixing family is 64 bits long: the row is built from
    # the level maps alone, and shifted by v - u it must equal the gaps of
    # each nonzero pair, which read it at another window.
    mix = gen_mixing_family(depth=800)
    window = 2 * (m - 1) + 9
    dist = _block_start_differences(mix, m, 1, window + mix.l1)
    for u, v in ((1, 1), (3, 8), (10, 2)):
        got = gap_set(mix, m, 1, u, v, window)
        assert got.engine == "strips"
        want = tuple(g for g in range(1, window + 1) if dist[abs(g - (v - u))])
        assert got.gaps == want, (u, v)


_table_specs = st.builds(
    lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
    st.sampled_from([1, 2, 3, 11]),
    st.lists(st.integers(1, 4).flatmap(_permissive_level), min_size=0, max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(_table_specs, st.data())
def test_materialized_table_equals_pair_scatter_on_the_walk(spec, data):
    # Zero margins and zero inner runs, b = 1 levels, l_n = 1 (a walk of
    # zeros only) and m == n (one block); windows up to past the walk.
    top = max(k for k in range(1, spec.depth + 2) if circuit_length(spec, k) <= 20_000)
    m = data.draw(st.integers(1, top), label="m")
    l_m = circuit_length(spec, m)
    max_gap = data.draw(st.integers(1, l_m + 3), label="max_gap")
    got, engine = realized_gap_table(spec, m, 1, max_gap)
    assert engine == "materialized"
    assert np.array_equal(got, walk_gaps(spec, m, 1, max_gap))


_ENGINE_SPECS = (
    gen_mixing_family(depth=4),
    gen_substitution_family(depth=6),
    gen_not_weakmix_family(3, depth=8),
    gen_weakmix_not_mix_family(depth=3),
    gen_uniquely_ergodic_family(depth=4),
    # first levels of b >= 64 slots
    telescope(gen_not_weakmix_family(3, depth=10), [1, 8, 10]),
    telescope(gen_mixing_family(depth=6), [1, 4, 5]),
    telescope(gen_uniquely_ergodic_family(depth=6), [1, 4, 5]),
    # margins >= 2 and repeated inner runs, some zero, past the window
    CoveringSpec(l1=3, levels=(LevelMap(a=(3, 0, 2, 0, 2, 3), b=5),) * 4),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_ENGINE_SPECS),
        _table_specs,
        st.integers(0, 2**32).map(lambda seed: random_plain_spec(random.Random(seed), depth=5)),
        st.integers(0, 2**32).map(
            lambda seed: random_restricted_spec(random.Random(seed), max_depth=5)
        ),
    ),
    st.data(),
)
def test_gap_engine_equals_walk_scan_for_all_pairs(spec, data):
    # The table and the gap sets of every pair, vertex 0 included, equal the
    # walk scan.  Windows sit at l_k - 1, l_k and l_k + 1 of each level on
    # the way, where a shift by the circuit length starts to cut to zero;
    # or so that the rows' window (max_gap + l_n - 1) sits there, where a
    # level stops sweeping its slots; or anywhere up to past the walk.
    top = max(k for k in range(1, spec.depth + 2) if circuit_length(spec, k) <= 4_000)
    m = data.draw(st.integers(1, top), label="m")
    # the table has l_n^2 entries per gap
    n = data.draw(st.integers(1, max(k for k in range(1, m + 1) if circuit_length(spec, k) <= 40)), label="n")
    l_m, l_n = circuit_length(spec, m), circuit_length(spec, n)
    near = {l for k in range(n, m + 1) for l in (circuit_length(spec, k) + d for d in (-1, 0, 1))}
    near |= {circuit_length(spec, k) - l_n + d for k in range(n, m + 1) for d in (0, 1, 2)}
    window = data.draw(
        st.one_of(st.sampled_from(sorted(near - {0})), st.integers(1, 2 * l_m + 3)), label="window"
    )
    want = walk_gaps(spec, m, n, window)
    table, engine = realized_gap_table(spec, m, n, window)
    assert engine == "materialized" and np.array_equal(table, want)
    vertices = range(l_n) if l_n <= 8 else sorted({0, 1, 2, l_n // 2, l_n - 2, l_n - 1})
    for u in vertices:
        for v in vertices:
            got = gap_set(spec, m, n, u, v, window)
            assert got.gaps == tuple(np.flatnonzero(want[u, v]).tolist()), (u, v)


_FAMILIES = (
    gen_mixing_family(depth=7),
    gen_mixing_family(l1=13, depth=6),
    gen_substitution_family(depth=8),
    gen_not_weakmix_family(3, depth=10),
    gen_weakmix_not_mix_family(depth=5),
    gen_uniquely_ergodic_family(depth=8),
)


def _assert_rows_cut_from_swept(spec, m, n, windows):
    # At window l_{m-1} every level sweeps its slots; levels whose circuits
    # are longer than a window W take the closed-form step.  Cut to W, the
    # swept rows must equal the rows built at W.
    full = circuit_length(spec, m - 1)
    for zeros in (True, False):
        swept = _gap_rows(spec, m, n, full, zeros)
        for window in sorted(w for w in windows if 0 <= w <= full):
            mask = (1 << window + 1) - 1
            cut = _gap_rows(spec, m, n, window, zeros)
            assert cut == [row & mask for row in swept], (m, n, window, zeros)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_FAMILIES),
        st.builds(
            lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
            st.integers(1, 6),
            st.lists(st.integers(1, 4).flatmap(_permissive_level), min_size=1, max_size=9),
        ),
    ),
    st.data(),
)
def test_gap_rows_past_the_window_equal_the_swept_rows(spec, data):
    # At lengths far past the walk scan's reach, for every base level n:
    # every W up to 40, W at l_k - 1, l_k and l_k + 1 of each level on the
    # way, and a random W up to l_{m-1}.
    lengths = [circuit_length(spec, k) for k in range(1, spec.depth + 2)]
    top = max(k for k in range(2, spec.depth + 2) if lengths[k - 2] <= 200_000)
    m = data.draw(st.integers(2, top), label="m")
    window = data.draw(st.integers(0, lengths[m - 2]), label="window")
    for n in range(1, m):
        near = {lengths[k - 1] + d for k in range(n, m) for d in (-1, 0, 1)}
        _assert_rows_cut_from_swept(spec, m, n, near | set(range(41)) | {window})


@pytest.mark.parametrize("l1, runs", [
    (6, ((3, 3, 0), (3, 3, 1), (0, 3), (0, 2, 2), (3, 0))),
    (11, ((3, 3, 2), (0, 3, 2, 2), (3, 1, 3), (2, 2, 1))),
], ids=["l1_6", "l1_11"])
def test_gap_rows_past_the_window_with_unequal_margins(l1, runs):
    # The new twin shifts the last copy's tail past a_b and the first
    # copy's head past a_0; margins that differ tell the two apart.
    spec = CoveringSpec(l1=l1, levels=tuple(LevelMap(a=a, b=len(a) - 1) for a in runs))
    for m in range(2, spec.depth + 2):
        for n in range(1, m):
            near = {circuit_length(spec, k) + d for k in range(n, m) for d in (-1, 0, 1)}
            _assert_rows_cut_from_swept(spec, m, n, near | set(range(41)))


# sha256 prefixes of hex() of the rows [BB, BZ, ZB, ZZ] of the mixing family
# (depth 800, n = 1, window 2 (m - 1) + 10), captured while every level
# still swept its slots.
_PINNED_DEEP_ROWS = {
    121: ("4069604d52ccac5c", "4069604d52ccac5c", "a52e2f9f0a094578", "a52e2f9f0a094578"),
    401: ("df2171685558968f", "df2171685558968f", "76a336972cd8e3e2", "76a336972cd8e3e2"),
    801: ("04cea791dcaa651e", "04cea791dcaa651e", "6798793b84eabcee", "6798793b84eabcee"),
}


@pytest.mark.parametrize("m", sorted(_PINNED_DEEP_ROWS))
def test_deep_gap_rows_are_pinned(m):
    rows = _gap_rows(gen_mixing_family(depth=800), m, 1, 2 * (m - 1) + 10)
    digests = tuple(hashlib.sha256(hex(row).encode()).hexdigest()[:16] for row in rows)
    assert digests == _PINNED_DEEP_ROWS[m]


def test_materialized_table_never_counts_pairs():
    # No gap query builds a walk, under either label: the tables, the gap
    # sets of every kind of pair and the mixing window are read off the
    # level maps alone.
    mix = gen_mixing_family(l1=11, depth=8)
    cap = circuit_length(mix, 5) + 1

    def no_walk(*args, **kwargs):
        raise AssertionError("a gap query built a walk")

    with mock.patch.object(expansion, "_walk_array", no_walk), \
            mock.patch.object(dynamics, "_walk_array", no_walk):
        assert realized_gap_table(mix, 6, 1, 32)[1] == "materialized"
        assert realized_gap_table(mix, 6, 1, 32, cap=cap)[1] == "strips"
        for u, v in ((0, 3), (3, 0), (0, 0), (2, 5)):
            assert gap_set(mix, 6, 1, u, v, 32).engine == "materialized"
            assert gap_set(mix, 6, 1, u, v, 32, cap=cap).engine == "strips"
        assert mixing_window_check(mix, 9, 1).engine == "materialized"
        assert mixing_window_check(mix, 9, 1, cap=cap).engine == "strips"


# sha256 prefixes of the benchmark's gap_table answers on the mixing walk
# (l1 = 11, n = 1, max_gap 32, m = 5, 6, 6, 7, 7, 8 for every query seed,
# 913 and 1 included), captured while the table still counted pairs.
_PINNED_GAP_TABLES = {
    5: "fb2d2dde3c04616f",
    6: "d98926b9735ab1b4",
    7: "96d6f03a264cd18a",
    8: "96d6f03a264cd18a",
}


def test_benchmark_gap_tables_are_pinned():
    mix = gen_mixing_family(l1=11, depth=12)
    for m, digest in _PINNED_GAP_TABLES.items():
        table, engine = realized_gap_table(mix, m, 1, 32)
        assert (engine, hashlib.sha256(table.tobytes()).hexdigest()[:16]) == ("materialized", digest), m


@pytest.mark.parametrize("max_gap", [0, -2])
def test_realized_gap_table_rejects_windows_below_one(max_gap):
    with pytest.raises(UsageError, match=f"max_gap must be >= 1, got {max_gap}"):
        realized_gap_table(BASE, 4, 2, max_gap)


_SMEAR_SPECS = (
    # loop runs far longer than the window, just below it, and at every
    # doubling rung of the smear; zero runs and b = 1 levels between them
    CoveringSpec(l1=3, levels=(LevelMap(a=(40, 7, 0, 33), b=3), LevelMap(a=(2, 64), b=1))),
    CoveringSpec(l1=1, levels=(LevelMap(a=(5, 0, 8, 1), b=3), LevelMap(a=(1, 31, 1), b=2))),
    CoveringSpec(l1=2, levels=(LevelMap(a=(0, 3, 0), b=2), LevelMap(a=(15, 16, 17), b=2))),
)


@pytest.mark.parametrize("seed", range(3))
def test_run_interval_tests_match_the_gap_differences(seed):
    # A loop run of a steps adds its zeros as the run interval e .. e + a,
    # and the engine tests pairs against it by smearing rows over it in
    # O(log a) shifts; those tests must match the gap differences of the
    # walk scan for all pairs, at every window up to past the walk.
    spec = _SMEAR_SPECS[seed]
    rng = random.Random(seed)
    for m in range(1, spec.depth + 2):
        for n in range(1, m + 1):
            l_m = circuit_length(spec, m)
            for window in sorted({1, 2, 3, 7, 8, 15, 16, 31, 32, 33, rng.randint(1, l_m + 3)}):
                want = walk_gaps(spec, m, n, window)
                assert np.array_equal(realized_gap_table(spec, m, n, window)[0], want), (m, n, window)


@pytest.mark.parametrize("past_cap", [False, True])
@pytest.mark.parametrize(
    "spec, m, n, max_gap, vertices",
    [
        (gen_mixing_family(depth=6), 5, 1, 70, None),
        (gen_mixing_family(depth=6), 3, 3, 200, (1, 2, 95, 189, 190)),  # m == n: one block
        (gen_not_weakmix_family(3, depth=8), 6, 2, 600, None),  # max_gap beyond the walk
        (gen_weakmix_not_mix_family(depth=5), 4, 2, 40, None),
        (gen_substitution_family(depth=6), 6, 2, 100, None),
    ],
)
def test_nonzero_pair_gap_set_reads_the_vertex_one_row(spec, m, n, max_gap, vertices, past_cap):
    # Every pair of nonzero vertices (u > v and u == v included) is read
    # off the one block-start row; it must equal the walk scan.  Past the
    # cap, at the least cap that the window fits, the label reads "strips"
    # unless the walk fits too (m == n).
    l_m, l_n = circuit_length(spec, m), circuit_length(spec, n)
    cap = max(min(max_gap, l_m), l_n) + 1 if past_cap else None
    engine = "strips" if past_cap and l_m + 1 > cap else "materialized"
    want = walk_gaps(spec, m, n, max_gap)
    vertices = vertices or range(1, l_n)
    for u in vertices:
        for v in vertices:
            got = gap_set(spec, m, n, u, v, max_gap, cap=cap)
            assert (got.gaps, got.engine) == (tuple(np.flatnonzero(want[u, v]).tolist()), engine), (u, v)


# GapSet.to_dict() of the benchmark's gap queries on the mixing walk (l1 = 11,
# n = 1, max_gap 60) for two query seeds: (m, u, v) -> number of gaps, sha256
# prefix of the canonical JSON of the materialized answer, and of the strips
# answer at half the circuit as cap (m >= 7), captured before the scans read
# nonzero pairs off the vertex-1 row.
_PINNED_GAP_SETS = {
    (7, 10, 4): (54, "2a4a80e024ac5c60", "fd3943d94d6938bb"),
    (11, 1, 1): (50, "46fe6f8110a76156", "d740d39f146a766c"),
    (6, 3, 6): (38, "93676198663a4947", None),
    (10, 6, 6): (50, "d9140c8a16d7889d", "9d6b5c3a85d53ced"),
    (8, 6, 7): (50, "7879e186669dfc29", "bd2cfc76111c25ba"),
    (9, 4, 10): (45, "4622eadd22c65648", "f1dc1bd4ed486655"),
    (8, 4, 9): (46, "f8fcd4a1c3fb957c", "640126feda501768"),
    (6, 4, 5): (40, "9f3f63ccbf0ebd11", None),
    (7, 4, 7): (46, "8768c65768ed84a0", "45f2bbd4b21a51d0"),
    (8, 2, 10): (43, "f5344419df991123", "ff04b7877766d202"),
    (11, 4, 3): (51, "0a477ca5cbcbbe0f", "52a302e3dfcd24da"),
    (9, 4, 9): (46, "fd8a924f2cbebc11", "cec9d31c3f4cdc60"),
    (6, 3, 5): (39, "0c5a3be44e359360", None),
    (8, 1, 6): (46, "062e2d4282aaa065", "a0ef68277aa7e7b6"),
    (7, 4, 6): (47, "cf3e22813c75dcce", "54fa1b9ba5881770"),
    (10, 10, 9): (51, "57e56db81e0b1ac0", "291d52c3de0b3e49"),
    (6, 4, 4): (40, "31ff39db42997104", None),
    (7, 8, 4): (52, "7db6f91bc236422c", "91a2e74fa55058c7"),
}


def test_benchmark_gap_sets_are_pinned():
    mix = gen_mixing_family(l1=11, depth=12)

    def digest(gs):
        text = json.dumps(gs.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    for (m, u, v), (count, materialized, strips) in _PINNED_GAP_SETS.items():
        got = gap_set(mix, m, 1, u, v, 60)
        assert (len(got.gaps), digest(got)) == (count, materialized), (m, u, v)
        if strips:
            got = gap_set(mix, m, 1, u, v, 60, cap=circuit_length(mix, m) // 2)
            assert (got.engine, digest(got)) == ("strips", strips), (m, u, v)
