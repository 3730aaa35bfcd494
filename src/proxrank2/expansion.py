"""Expansion calculus: circuit words, vertex walks, d-words, margins, gap sets.

Granularity conventions
-----------------------

* A *symbol word* has one letter per traversal: ``E`` is one loop traversal,
  ``C`` one full circuit traversal of the target level.
* A *time word* has one letter per edge (time step): a ``C`` traversal of the
  level-``n`` circuit contributes ``l_n`` time steps.
* A *vertex walk* lists the visited level-``n`` vertices, one more entry than
  time steps.  Vertices are integers ``0 .. l_n - 1`` with ``0`` the central
  vertex (where the loop sits); a circuit traversal visits ``0, 1, ..,
  l_n - 1, 0``.

Time words and vertex walks come from one run builder, :func:`_fill_runs`:
it writes one level-``n`` circuit block into a preallocated row, then copies
the growing prefix into the circuit slots of each level map in turn, leaving
the loop runs as fill.  A walk costs its dtype's itemsize per step (1 byte
for ``l_n <= 128``); no string or index array is built on the way.

Gap sets ``N(u, v)`` collect the position differences ``pos(v) - pos(u) >= 1``
between occurrences of two vertices in a walk.  :func:`gap_set` and
:func:`realized_gap_table` scan the occurrences of the materialized walk
through :mod:`proxrank2.gapscan`, and past the cap a strip engine that never
materializes it (windows of width ``W`` cross at most one circuit join once
some circuit is longer than ``W``, so scanning one full copy plus short
join/margin strips is exhaustive).  ``residue_obstruction`` and
``forbidden_window_report`` read the distances up to a window between the
level-``n`` block starts, built from the level maps alone on Python-int
bitsets (:func:`_block_start_differences`).  Vertex ``u != 0`` sits at
(block start + ``u``), so the gaps from ``u`` to ``v`` are those distances
shifted by ``v - u`` (:func:`_nonzero_pair_rows`): :func:`gap_set` reads
them off the occurrences of vertex 1, and :func:`realized_gap_table` reads
the whole table off four occurrence rows, between vertex 1 and vertex 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import (
    CoveringSpec,
    circuit_length,
    compose_word,
    expansion_cap,
    level_map,
    symbol_count,
)
from .errors import ExpansionTooLarge, RestrictedFormRequired, UsageError
from .gapscan import _occurrence_gap_mask
from .report import Report


@dataclass(frozen=True)
class CircuitWord:
    """Symbol word of circuit ``m`` over graph ``level`` (one letter per traversal)."""

    level: int
    m: int
    symbols: str


@dataclass(frozen=True, eq=False)
class VertexWalk:
    """Vertex walk of circuit ``m`` through graph ``level`` (``steps + 1`` entries)."""

    level: int
    m: int
    vertices: np.ndarray

    @property
    def steps(self) -> int:
        return int(self.vertices.size - 1)


@dataclass(frozen=True)
class CumulativeRuns:
    """Cumulative restricted margins over levels ``n .. m``: s, s', and tau = s + s'."""

    m: int
    n: int
    s: int
    s2: int

    @property
    def tau(self) -> int:
        return self.s + self.s2


@dataclass(frozen=True)
class GapSet(Report):
    """Realized position gaps from ``u`` to ``v`` in the walk of circuit ``m``."""

    level: int
    m: int
    u: int
    v: int
    max_gap: int
    gaps: tuple[int, ...]
    engine: str


@dataclass(frozen=True)
class GapStructureReport(Report):
    """Which cumulative-run separations are realized between circuit blocks."""

    level: int
    m: int
    cc_present: bool
    taus: tuple[tuple[int, int, bool], ...]  # (k, tau(k, n), realized)
    interior_runs: tuple[int, ...]

    def to_dict(self) -> dict:
        taus = [{"k": k, "tau": t, "realized": r} for (k, t, r) in self.taus]
        return {**super().to_dict(), "taus": taus}


# --------------------------------------------------------------------------
# Words and walks
# --------------------------------------------------------------------------

def expand_circuit_word(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> CircuitWord:
    """Symbol word of circuit ``m`` over graph ``n`` (requires ``n < m``)."""
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    return CircuitWord(level=n, m=m, symbols=compose_word(spec, m, n, cap=cap))


_E, _C = ord("E"), ord("C")  # time-word letters: one loop step, one circuit step


def _fill_runs(
    spec: CoveringSpec, m: int, n: int, row: np.ndarray, block: np.ndarray, fill: int
) -> np.ndarray:
    """Write the level-``n`` time row of circuit ``m`` into ``row`` (``l_m`` entries).

    ``row`` must arrive set to ``fill``, the entry of one loop step, and
    ``block`` holds the ``l_n`` entries of one level-``n`` circuit traversal.
    The block goes first.  Then each level ``k = n .. m - 1`` copies the
    level-``k`` prefix ``row[:l_k]`` by slice into every circuit slot of its
    map ``a`` (slot ``j`` follows the loop runs ``a[0] .. a[j]`` and ``j``
    earlier slots); the loop runs keep the fill.  Slots ``1 .. b - 1`` are
    written first and slot 0 is taken from slot 1, so source and target never
    overlap.  Only on ``b = 1`` levels does slot 0 overlap the prefix, and
    numpy then buffers one level-``k`` copy.  The part of the old prefix in
    front of slot 0 is reset to the fill.

    Memory: ``row`` itself, plus one level copy on ``b = 1`` levels.
    Time: ``b`` slice copies per level.
    """
    l_k = block.size
    row[:l_k] = block
    for k in range(n, m):
        lm = spec.levels[k - 1]
        a = lm.a
        first = a[0] + l_k + a[1]
        off = first
        for j in range(2, lm.b + 1):
            row[off: off + l_k] = row[:l_k]
            off += l_k + a[j]
        if a[0]:
            row[a[0]: a[0] + l_k] = row[first: first + l_k] if lm.b > 1 else row[:l_k]
            row[: min(a[0], l_k)] = fill
        l_k = lm.next_length(l_k)
    return row


def _time_row(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> np.ndarray:
    """Time word of circuit ``m`` over graph ``n`` as ``uint8`` codes of ``E``/``C``.

    Built by :func:`_fill_runs` with block ``C * l_n`` and fill ``E``: 1 byte
    per step (about 100 MB at the default cap of 1e8), plus one level copy
    on ``b = 1`` levels.
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    limit = expansion_cap(cap)
    l_m = circuit_length(spec, m)
    if l_m > limit:
        raise ExpansionTooLarge(l_m, limit, what=f"time word of circuit {m} over level {n}")
    row = np.full(l_m, _E, dtype=np.uint8)
    return _fill_runs(spec, m, n, row, np.full(circuit_length(spec, n), _C, dtype=np.uint8), _E)


def time_word(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> str:
    """Time word of circuit ``m`` over graph ``n``: one letter per edge, ``l_m`` total.

    Decoded once from :func:`_time_row`: the ``uint8`` row and the ASCII
    string take 1 byte per step each (about 200 MB together at the default
    cap of 1e8), plus one level copy on ``b = 1`` levels.
    """
    return str(_time_row(spec, m, n, cap=cap), "ascii")


def _walk_dtype(l_n: int) -> np.dtype:
    if l_n <= 2**7:
        return np.dtype(np.int8)
    if l_n <= 2**15:
        return np.dtype(np.int16)
    if l_n <= 2**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _walk_array(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> np.ndarray:
    """Vertex walk of circuit ``m`` through graph ``n`` (``m == n`` allowed).

    Entry 0 is the central vertex and ``walk[1:]`` is the time row of
    :func:`_fill_runs` with block ``1, 2, .., l_n - 1, 0`` and fill 0 (the
    vertex after each step).  Memory: the itemsize of :func:`_walk_dtype`
    per step, plus one level copy on ``b = 1`` levels; at the default cap of
    1e8 that is about 100 MB for ``int8`` and about 400 MB for ``int32``.
    """
    limit = expansion_cap(cap)
    l_m = circuit_length(spec, m)
    l_n = circuit_length(spec, n)
    if l_m + 1 > limit:
        raise ExpansionTooLarge(l_m + 1, limit, what=f"vertex walk of circuit {m} over level {n}")
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    walk = np.zeros(l_m + 1, dtype=_walk_dtype(l_n))
    _fill_runs(spec, m, n, walk[1:], np.roll(np.arange(l_n, dtype=walk.dtype), -1), 0)
    return walk


def expand_vertex_walk(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> VertexWalk:
    """Vertex walk of circuit ``m`` through graph ``n`` (requires ``n < m``).

    Built by :func:`_walk_array`: the walk dtype's itemsize per step, plus one
    level copy on ``b = 1`` levels (about 100 MB for ``int8`` and 400 MB for
    ``int32`` at the default cap of 1e8).
    """
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    return VertexWalk(level=n, m=m, vertices=_walk_array(spec, m, n, cap=cap))


# --------------------------------------------------------------------------
# Restricted-form calculus: cumulative runs, d-words, margins
# --------------------------------------------------------------------------

def _restricted(spec: CoveringSpec, k: int):
    rm = level_map(spec, k).restricted
    if rm is None:
        raise RestrictedFormRequired(f"level {k} does not carry restricted-form data")
    return rm


def cumulative_runs(spec: CoveringSpec, m: int, n: int) -> CumulativeRuns:
    """Sums of the restricted margins over levels ``n .. m`` (``m = n - 1`` -> zeros)."""
    if not 1 <= n <= spec.depth + 1 or m > spec.depth:
        raise UsageError(f"cumulative runs need 1 <= n and m <= {spec.depth}, got n={n}, m={m}")
    s = s2 = 0
    for k in range(n, m + 1):
        rm = _restricted(spec, k)
        s += rm.s
        s2 += rm.s2
    return CumulativeRuns(m=m, n=n, s=s, s2=s2)


def d_word(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> str:
    """The stripped symbol word of circuit ``m`` over graph ``n``.

    Built by the join recursion over restricted levels, never by stripping an
    expanded word: ``d(n, n) = "C"`` and each level wraps ``t - 1`` and
    ``t' - 1`` copies (separated by the cumulative run ``tau``) around the
    image of the middle word.  The strip identity
    ``word(m, n) == E^s(m-1,n) + d(m, n) + E^s'(m-1,n)`` is an invariant.
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    limit = expansion_cap(cap)
    need = symbol_count(spec, m, n)
    if need > limit:
        raise ExpansionTooLarge(need, limit, what=f"d-word of circuit {m} over level {n}")
    word = "C"
    s_cum = s2_cum = 0
    for k in range(n, m):
        rm = _restricted(spec, k)
        unit = word + "E" * (s_cum + s2_cum)
        mid_parts = [
            "E" if ch == "E" else "E" * s_cum + word + "E" * s2_cum for ch in rm.a_mid
        ]
        middle = "E" * s2_cum + "".join(mid_parts) + "E" * s_cum
        word = unit * (rm.t - 1) + word + middle + unit * (rm.t2 - 1) + word
        s_cum += rm.s
        s2_cum += rm.s2
    return word


def e_run_margins(spec: CoveringSpec, m: int, n: int) -> tuple[int, int]:
    """Leading and trailing loop exponents of the level-``n`` word of circuit ``m``."""
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    lead = sum(level_map(spec, k).a[0] for k in range(n, m))
    trail = sum(level_map(spec, k).a[-1] for k in range(n, m))
    return lead, trail


# --------------------------------------------------------------------------
# Gap engines
# --------------------------------------------------------------------------

def _cut(x: int, cut: int) -> int:
    """``x`` without its bits above ``cut``; masked only when it has such bits."""
    return x & ((1 << cut + 1) - 1) if x.bit_length() > cut + 1 else x


def _prefix_shifts(x: int, gaps, cut: int) -> int:
    """Union of ``x`` shifted by each prefix sum ``0, g_0, g_0 + g_1, ..`` of ``gaps``, cut."""
    out = x = _cut(x, cut)
    for g in gaps:
        if g > cut:
            break
        x = _cut(x << g, cut)
        out |= x
    return out


def _block_start_differences(spec: CoveringSpec, m: int, n: int, window: int) -> np.ndarray:
    """Distances up to ``window`` between the level-``n`` blocks in the walk of circuit ``m``.

    Entry ``d`` of the bool row over ``0 .. min(window, l_m - l_n)`` is set
    when two level-``n`` blocks start ``d`` steps apart; vertex ``u != 0``
    sits at (block start + ``u``), so gap ``g`` from ``u`` to ``v != 0`` is
    realized exactly when entry ``|g - (v - u)|`` is set.

    Built from the level maps, never from the walk, on Python-int bitsets.
    With ``D`` the distances inside circuit ``k`` (``{0}`` on level ``n``)
    and ``X`` the largest, the recursion keeps ``low`` (bit ``x`` for ``x``
    in ``D``) and ``high`` (bit ``z`` for ``X - z`` in ``D``), so that
    ``twin = high | low << X`` has bit ``X + y`` for ``y`` in ``D`` and
    ``-D``.  The slot starts ``c_0 < .. < c_{b-1}`` of map ``k`` are at
    least ``l_k > X`` apart, so the distances one level up are ``D`` and
    ``c_j - c_i + y`` (``i < j``), the largest is ``X + d_max`` with
    ``d_max = c_{b-1} - c_0``, and, both cut at
    ``cut = min(window, X + d_max)``:

    * ``low'`` unites ``low`` and ``(c_j - c_i - X) + twin``, built by one
      sweep over the consecutive slot gaps ``g_j = l_k + a_{j+1}``: the
      bits of slot ``j + 1`` are those of slot ``j`` shifted by ``g_j``,
      and ``twin`` shifted by ``g_j - X``;
    * ``high'`` is ``twin`` shifted by every
      ``e = (c_i - c_0) + (c_{b-1} - c_j)``: by each prefix sum of the gaps
      from the left, then from the right (``i > j`` gives
      ``e > X + d_max``, which the cut drops).

    Memory: a few ints of at most ``2 window`` bits and the returned row of
    ``min(window, l_m - l_n) + 1`` bytes.  Time per level: a few shifts
    and ORs of ints up to ``cut`` bits per slot and per prefix sum up to
    ``cut``.
    """
    l_n = circuit_length(spec, n)
    l_k = l_n
    low = high = 1
    top = 0  # X
    for k in range(n, m):
        lm = spec.levels[k - 1]
        gaps = [l_k + x for x in lm.a[1:-1]]  # c_{i+1} - c_i, each > X
        d_max = sum(gaps)
        cut = min(window, top + d_max)
        twin = high | low << top if top <= cut else high  # bit X + y for y in D and -D
        if k < m - 1:
            high = _prefix_shifts(_prefix_shifts(twin, gaps, cut), reversed(gaps), cut)
        near = 0  # bit c_j - c_i + y over i < j and y in D and -D, for the current slot j
        for g in gaps:
            near = (near << g if g <= cut else 0) | (twin << g - top if g - top <= cut else 0)
            near = _cut(near, cut)
            low |= near
        top += d_max
        l_k = lm.next_length(l_k)
    size = min(window, l_k - l_n) + 1
    bits = np.frombuffer(low.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(bits, count=size, bitorder="little").view(bool)


def _nonzero_pair_rows(dist: np.ndarray, l_n: int, width: int) -> np.ndarray:
    """View ``R[u - 1, v - 1, g] = dist[|g - (v - u)|]`` for ``u, v`` in ``1 .. l_n - 1``.

    ``dist`` is the ``v1 -> v1`` distance row of a walk with ``dist[0]``
    set, at least ``width + l_n - 2`` entries long.  Vertex ``u != 0`` sits
    at (block start + ``u``), so gap ``g < width`` from ``u`` to ``v`` is
    realized exactly when ``R[u - 1, v - 1, g]`` is.  Strided views of one
    mirrored copy of ``dist``: ``width + 2 l_n`` bytes however many pairs
    are read.
    """
    c = l_n - 2
    mirror = np.concatenate((dist[c:0:-1], dist[: width + c]))  # entry t: dist[|t - c|]
    rows = np.lib.stride_tricks.sliding_window_view(mirror, width)  # row t: gaps from shift c - t
    pairs = np.lib.stride_tricks.sliding_window_view(rows, c + 1, axis=0)  # [i, g, j]: row i + j
    return pairs[:, :, ::-1].transpose(0, 2, 1)  # [u - 1, v - 1, g]: row c + (u - 1) - (v - 1)


def _fill_pair_table(walk: np.ndarray, table: np.ndarray) -> None:
    """Write the gaps of a materialized walk into ``table[u, v, gap]`` from four occurrence rows.

    Every vertex 1 of the walk starts a full block and vertex ``u != 0``
    sits at its block's vertex 1 plus ``u - 1``, so with ``w = max_gap``
    and the :func:`_occurrence_gap_mask` rows ``R11`` (``1 -> 1`` up to
    ``w + l_n - 2``, ``R11[0]`` set), ``R10`` (``1 -> 0``, the same reach),
    ``R01`` (``0 -> 1`` up to ``w``) and ``R00`` (``0 -> 0`` up to ``w``):

    * ``T[u, v, g] = R11[|g - (v - u)|]`` (:func:`_nonzero_pair_rows`);
    * ``T[u, 0, g] = R10[g + u - 1]``;
    * ``T[0, v, g] = R01[g - v + 1]``, false for ``g < v`` (a zero there
      would sit inside the block of ``v``);
    * ``T[0, 0, g] = R00[g]``.

    Every block is filled from strided views of those rows.  Memory beyond
    the table: the packed rows of the four scans and ``O(w + l_n)`` bytes.
    """
    l_n, width = table.shape[0], table.shape[2]
    max_gap = width - 1
    table[0, 0] = _occurrence_gap_mask(walk, 0, 0, max_gap)
    if l_n == 1:
        return
    reach = max_gap + l_n - 2
    r11 = _occurrence_gap_mask(walk, 1, 1, reach)
    r11[0] = True
    r10 = _occurrence_gap_mask(walk, 1, 0, reach)
    r01 = _occurrence_gap_mask(walk, 0, 1, max_gap)
    windows = np.lib.stride_tricks.sliding_window_view
    table[1:, 1:] = _nonzero_pair_rows(r11, l_n, width)
    table[1:, 0] = windows(r10, width)  # row u - 1: R10[u - 1 ..]
    into = np.concatenate((np.zeros(l_n - 2, dtype=bool), r01))  # entry d + l_n - 2: R01[d]
    table[0, 1:] = windows(into, width)[::-1]  # row v - 1 starts at d = 1 - v
    table[:, :, 0] = False


def _strip_segments(
    spec: CoveringSpec, m: int, n: int, window: int, cap: int | None = None
) -> tuple[np.ndarray, tuple[int, ...], int, int]:
    """What the strip engine scans for gaps ``<= window`` in circuit ``m``.

    Picks the lowest level ``k0 >= n`` whose circuit length exceeds the
    window and materializes that one walk, the *core*.  Returns the core, the
    distinct loop runs ``g <= window`` separating consecutive level-``k0``
    traversals (the run strips ``tail ‖ 0^(g-1) ‖ head`` are never built;
    :func:`_mark_runs` marks them), and the loop runs ``lead`` and ``trail``
    in front of the first and behind the last traversal (the margins).  Runs
    at least ``window + 1`` long are never bridged: they are dropped, and
    both margins are raised to ``window`` loops, enough to cover either side
    of them (no longer margin covers more).  Memory: the core walk, at most
    ``expansion_cap(cap)`` entries.
    """
    l_m = circuit_length(spec, m)
    limit = expansion_cap(cap)
    k0 = None
    for k in range(n, m + 1):
        if circuit_length(spec, k) >= window + 1:
            k0 = k
            break
    if k0 is None:
        raise ExpansionTooLarge(l_m + 1, limit, what=f"gap scan of circuit {m} over level {n}")
    core = _walk_array(spec, k0, n, cap=cap)
    if m == k0:
        return core, (), 0, 0
    w1 = window + 1
    # Bit g of ``runs``: a run of g loops; bit w1: a run of at least w1 loops.
    full = (1 << w1) - 1
    runs = 0
    for k in range(m - 1, k0 - 1, -1):
        lm = level_map(spec, k)
        lifted = runs << min(lm.a[-1] + lm.a[0], w1)
        runs = (lifted & full) | (lifted > full) << w1
        for x in lm.a[1:-1]:
            runs |= 1 << min(x, w1)
    overflow = bool(runs >> w1)
    lead, trail = e_run_margins(spec, m, k0)
    lead = window if overflow else min(lead, window)
    trail = window if overflow else min(trail, window)
    return core, tuple(g for g in range(w1) if runs >> g & 1), lead, trail


_PAIR_BLOCK = 1 << 18  # index pairs per block of the cross table of _mark_runs: about 10 MB


def _zero_block_cover(
    rows: np.ndarray, starts: np.ndarray, g: int, size: int, width: int
) -> np.ndarray:
    """Bool ``(size, width + 1)``: row ``r`` covers ``s .. s + g`` for each ``(r, s)`` pair."""
    hits = np.zeros((size, width + 1), dtype=np.int32)
    hits[rows, starts] = 1
    cs = np.cumsum(hits, axis=1)
    covered = cs.copy()
    covered[:, g + 1:] -= cs[:, : width - g]
    return covered > 0


def _mark_runs(
    table: np.ndarray,
    core: np.ndarray,
    runs: tuple[int, ...],
    lead: int,
    trail: int,
    u: int | None = None,
    v: int | None = None,
) -> None:
    """OR the gaps of every run strip ``tail ‖ 0^(g-1) ‖ head`` and both margins into ``table``.

    ``table`` is ``T[u, v, gap]`` for all pairs, or ``(1, 1, W + 1)`` for the
    one pair ``(u, v)`` when both are given.  With ``W = window``,
    ``L* = tail[:-1]`` and ``R* = head[1:]`` (``W`` entries each, the same for
    every run), the strip of run ``g >= 0`` is ``L* ‖ 0^(g+1) ‖ R*``.  Pairs
    inside ``tail`` or ``head`` are core pairs.  The rest:

    * ``(L*[i], R*[j])`` sits at gap ``D + g`` with ``D = (W - i) + (j + 1)``:
      one cross table over ``D``, OR-ed in shifted by ``g`` per run;
    * ``(L*[i], 0)`` covers ``δ .. δ + g`` with ``δ = W - i``, ``(0, R*[j])``
      covers ``ε .. ε + g`` with ``ε = j + 1``, and ``(0, 0)`` covers
      ``1 .. g``.  These intervals grow with ``g``, so the largest run covers
      those of every other run: one cumulative-sum window each.

    The margins are such zero blocks on one side: ``0^(lead+1) ‖ R*`` in
    front of the core and ``L* ‖ 0^(trail+1)`` behind it, so ``lead`` joins
    the runs for the ``(0, R*)`` covers, ``trail`` for the ``(L*, 0)``
    covers, and both for ``(0, 0)``.

    Memory: the cross table has the shape of ``table``, ``l_n² (W + 1)``
    bytes for all pairs, plus index blocks of at most ``_PAIR_BLOCK`` pairs.
    Time: one pass over the pairs of occurrences of ``u`` in ``L*`` and ``v``
    in ``R*`` (``W²`` for all pairs) and one slice-OR per run, so the
    single-pair form costs O(runs · W) beyond that pass.
    """
    if not (runs or lead or trail):
        return
    size_u, size_v, w1 = table.shape
    window = w1 - 1
    left, right = core[-w1:-1], core[1:w1]
    rows = left.astype(np.intp) if u is None else np.where(left == u, 0, -1)
    cols = right.astype(np.intp) if v is None else np.where(right == v, 0, -1)
    zero_row = 0 if u is None or u == 0 else -1
    zero_col = 0 if v is None or v == 0 else -1
    i = np.flatnonzero(rows >= 0)
    j = np.flatnonzero(cols >= 0)
    delta = window - i
    eps = j + 1
    if runs:
        cross = np.zeros_like(table)
        step = max(1, _PAIR_BLOCK // max(j.size, 1))
        for lo in range(0, i.size, step):
            dist = delta[lo: lo + step, None] + eps[None, :]
            a, b = np.nonzero(dist <= window)
            cross[rows[i[lo + a]], cols[j[b]], dist[a, b]] = True
        for g in runs:
            table[:, :, g:] |= cross[:, :, : w1 - g]
    g = runs[-1] if runs else 0
    if zero_col >= 0:
        table[:, zero_col, :] |= _zero_block_cover(rows[i], delta, max(g, trail), size_u, window)
    if zero_row >= 0:
        table[zero_row, :, :] |= _zero_block_cover(cols[j], eps, max(g, lead), size_v, window)
        if zero_col >= 0:
            table[zero_row, zero_col, 1: max(g, lead, trail) + 1] = True


def gap_set(
    spec: CoveringSpec,
    m: int,
    n: int,
    u: int,
    v: int,
    max_gap: int,
    cap: int | None = None,
    include_zero: bool = False,
) -> GapSet:
    """Realized gaps from ``u`` to ``v`` in the level-``n`` walk of circuit ``m``.

    Gaps of size 0 (a vertex paired with itself at the same time) are excluded
    unless ``include_zero`` is set.  No gap above ``l_m`` is realized, so the
    mask stops at ``min(max_gap, l_m)``.

    On the materialized walk, a pair of nonzero vertices is read off one
    ``v1 -> v1`` distance row: vertex ``u != 0`` sits at (block start +
    ``u``), so with ``dist`` the distances between occurrences of vertex 1
    (``dist[0]`` set, window ``top + l_n - 2``), gap ``g`` from ``u`` to
    ``v`` is realized exactly when ``dist[|g - (v - u)|]`` is
    (:func:`_nonzero_pair_rows`).  When the full walk exceeds the cap the
    exact strip engine is used instead of failing: it scans the core for
    this pair and marks the run strips and the margins with
    :func:`_mark_runs` restricted to row ``u`` and column ``v``.
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    l_n = circuit_length(spec, n)
    for name, x in (("u", u), ("v", v)):
        if not 0 <= x < l_n:
            raise UsageError(f"vertex {name}={x} outside 0..{l_n - 1}")
    if max_gap < 1:
        raise UsageError(f"max_gap must be >= 1, got {max_gap}")
    limit = expansion_cap(cap)
    l_m = circuit_length(spec, m)
    top = min(max_gap, l_m)
    if l_m + 1 <= limit:
        walk = _walk_array(spec, m, n, cap=cap)
        if u and v:
            dist = _occurrence_gap_mask(walk, 1, 1, top + l_n - 2)
            dist[0] = True
            mask = _nonzero_pair_rows(dist, l_n, top + 1)[u - 1, v - 1]
        else:
            mask = _occurrence_gap_mask(walk, u, v, top)
        engine = "materialized"
    else:
        core, runs, lead, trail = _strip_segments(spec, m, n, top, cap=cap)
        mask = _occurrence_gap_mask(core, u, v, top)
        _mark_runs(mask[None, None], core, runs, lead, trail, u, v)
        engine = "strips"
    gaps = [int(g) for g in np.flatnonzero(mask) if g >= 1]
    if include_zero and u == v:
        gaps = [0] + gaps
    return GapSet(level=n, m=m, u=u, v=v, max_gap=max_gap, gaps=tuple(gaps), engine=engine)


def realized_gap_table(
    spec: CoveringSpec, m: int, n: int, max_gap: int, cap: int | None = None
) -> tuple[np.ndarray, str]:
    """All-pairs realized-gap table ``T[u, v, gap]`` for gaps ``1 .. max_gap``.

    On the materialized walk the table is read off four occurrence rows of
    the walk (:func:`_fill_pair_table`): the walk, the packed rows of
    :func:`~proxrank2.gapscan._occurrence_gap_mask` and ``O(max_gap + l_n)``
    bytes besides the table.  Past the cap the strip engine fills the table
    the same way from its core, a full circuit walk of
    :func:`_strip_segments`, and adds the run strips and the margins with
    :func:`_mark_runs` (a cross table of the table's size).  The table has
    ``l_n² (max_gap + 1)`` bytes.
    """
    l_n = circuit_length(spec, n)
    if l_n > 2048:
        raise UsageError(f"all-pairs table only supported for l_n <= 2048, got {l_n}")
    if max_gap < 1:
        raise UsageError(f"max_gap must be >= 1, got {max_gap}")
    limit = expansion_cap(cap)
    l_m = circuit_length(spec, m)
    table = np.zeros((l_n, l_n, max_gap + 1), dtype=bool)
    if l_m + 1 <= limit:
        _fill_pair_table(_walk_array(spec, m, n, cap=cap), table)
        return table, "materialized"
    core, runs, lead, trail = _strip_segments(spec, m, n, max_gap, cap=cap)
    _fill_pair_table(core, table)
    _mark_runs(table, core, runs, lead, trail)
    return table, "strips"


def gap_structure_report(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> GapStructureReport:
    """Scan which cumulative-run separations occur between circuit blocks.

    Reports, for each ``k`` in ``n .. m-2``, whether the loop run of length
    ``tau(k, n)`` (sum of both margins over levels ``n .. k``) is realized
    between consecutive ``C`` blocks of the level-``n`` symbol word, plus
    whether adjacent traversals (``CC``) occur at the top expansion level.
    """
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    word = compose_word(spec, m, n, cap=cap)
    first = word.index("C")
    last = word.rindex("C")
    pieces = word[first:last + 1].split("C")[1:-1]
    interior = sorted({len(p) for p in pieces})
    realized = set(interior)
    taus = []
    tau = 0  # running e_run_margins(spec, k + 1, n), both margins summed
    for k in range(n, m - 1):
        lm = level_map(spec, k)
        tau += lm.a[0] + lm.a[-1]
        taus.append((k, tau, tau in realized))
    cc_present = "CC" in compose_word(spec, m, m - 1, cap=cap)
    return GapStructureReport(
        level=n,
        m=m,
        cc_present=cc_present,
        taus=tuple(taus),
        interior_runs=tuple(interior),
    )
