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
Windows of a walk need no walk: :func:`walk_windows` builds the walk of one
base circuit of at most 2^20 entries and descends each start to it.

Gap sets ``N(u, v)`` collect the position differences ``pos(v) - pos(u) >= 1``
between occurrences of two vertices in a walk.  One engine finds them, from
the level maps alone and on Python-int bitsets: :func:`_gap_rows` gives the
distances up to a window between the level-``n`` block starts and the
positions of vertex 0.  Vertex ``u != 0`` sits at (block start + ``u``), so
the gaps from ``u`` to ``v`` are the block-start distances shifted by
``v - u`` (:func:`_nonzero_pair_rows`), and the pairs with vertex 0 are
read off the three rows with the zeros (:func:`_fill_pair_table`).
:func:`gap_set`, :func:`realized_gap_table`, ``mixing_window_check``,
``residue_obstruction`` and ``forbidden_window_report`` build no walk, at
any depth; the cap bounds the window (:func:`_gap_window`).  Only
:func:`realized_gap_table` fills an all-pairs table: ``gap_set`` reads
one pair's row and ``mixing_window_check`` one shift of a row per
distance ``v - u``, both by the index rules of :func:`_fill_pair_table`.  :func:`gap_structure_report` spells no
word: it reads the loop runs between blocks off the level maps.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

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
    block = np.zeros(l_n, dtype=walk.dtype)
    block[:-1] = np.arange(1, l_n, dtype=walk.dtype)
    _fill_runs(spec, m, n, walk[1:], block, 0)
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


_WINDOW_BASE = 1 << 20  # entries of the base walk that walk_windows builds once per call
_POSITION_LIMIT = 1 << 62  # circuits this long or longer are not descended in int64


def _check_positions(spec: CoveringSpec, m: int, n: int) -> None:
    """Refuse a circuit whose positions (plus a window) would pass int64."""
    l_m = circuit_length(spec, m)
    if l_m >= _POSITION_LIMIT:
        raise ExpansionTooLarge(l_m + 1, _POSITION_LIMIT, what=f"window descent of circuit {m} over level {n}")


def _descend_positions(
    spec: CoveringSpec, m: int, k0: int, pos: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Offsets of the int64 positions ``pos`` of circuit ``m`` inside their level-``k`` copies.

    A generator: for each level ``k = m - 1 .. k0`` in turn it finds the
    last copy of circuit ``k`` that starts at or before a position, by
    ``np.searchsorted`` on the copy starts ``a[0] + .. + a[j] + j l_k``,
    subtracts its start, and yields the offsets with the ``inside`` mask.  A
    position on a loop step of some level, or at the end of a copy, is not
    inside: its vertex is 0, and its offset is set to 0, where every walk
    holds vertex 0 too.  So the offsets at level ``k`` are the level-``k``
    walk of circuit ``m`` at ``pos``.  The mask is updated in place by the
    next level; the offsets are a new array per level.
    """
    inside = np.ones(pos.shape, dtype=bool)
    for k in range(m - 1, k0 - 1, -1):
        l_k = spec.lengths[k - 1]
        loops_before = accumulate(spec.levels[k - 1].a[:-1])
        starts = np.array([s + j * l_k for j, s in enumerate(loops_before)], dtype=np.int64)
        # A position before copy 0 takes copy 0 and goes negative.
        pos = pos - starts[np.searchsorted(starts[1:], pos, side="right")]
        inside &= pos.view(np.uint64) < l_k
        pos *= inside
        yield pos, inside


def walk_windows(
    spec: CoveringSpec, m: int, n: int, starts, width: int, cap: int | None = None
) -> np.ndarray:
    """Windows ``_walk_array(spec, m, n)[s : s + width]`` for each ``s`` in ``starts``, one per row.

    The walk of circuit ``m`` is not built.  The level-``n`` walk of a base
    circuit ``K`` is, once: ``K`` is the deepest circuit ``n <= K <= m``
    whose walk has at most ``_WINDOW_BASE`` (2^20) entries and fits the cap
    (for ``K = n`` the walk ``0, 1, .., l_n - 1, 0`` is read off the
    offsets, not built).  Every start descends from ``m`` to ``K`` in int64
    (:func:`_descend_positions`), and a window that lies inside the
    level-``K`` copy of its start is a slice of the base walk.  A window
    that starts on a loop step of a level above ``K`` or crosses the end of
    its copy descends position by position.

    Memory: the base walk (at most 2^20 entries of the walk dtype, 1 MB for
    ``int8``), the returned rows, and 8 bytes per window entry for the index
    arrays (of the windows that descend position by position, or all of
    them for ``K = n``).  The cap bounds the entries returned; a circuit of
    ``l_m >= 2^62`` steps raises
    :class:`~proxrank2.errors.ExpansionTooLarge` naming the window descent.
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    _check_positions(spec, m, n)
    limit = expansion_cap(cap)
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    if width < 0:
        raise UsageError(f"window width must be >= 0, got {width}")
    if starts.size * width > limit:
        raise ExpansionTooLarge(starts.size * width, limit, what=f"walk windows of circuit {m} over level {n}")
    l_m, l_n = spec.lengths[m - 1], spec.lengths[n - 1]
    dtype = _walk_dtype(l_n)
    if not starts.size:
        return np.empty((0, width), dtype=dtype)
    if starts.min() < 0 or starts.max() > l_m + 1 - width:
        raise UsageError(f"walk windows must lie in 0..{l_m} (the walk of circuit {m})")
    k0 = m
    while k0 > n and spec.lengths[k0 - 1] + 1 > min(_WINDOW_BASE, limit):
        k0 -= 1
    base = _walk_array(spec, k0, n, cap=cap) if k0 > n else None

    def rows(off: np.ndarray) -> np.ndarray:  # the windows at offsets ``off`` of the base walk
        if base is None:
            return ((off[:, None] + np.arange(width)) % l_n).astype(dtype)
        # sliding_window_view(base, width), built without its checks (a few µs, not 25)
        step = base.strides[0]
        return np.ndarray((base.size - width + 1, width), dtype, base, 0, (step, step))[off]

    if k0 == m:  # the whole walk is the base
        return rows(starts)
    off, inside = deque(_descend_positions(spec, m, k0, starts), maxlen=1)[0]
    fits = inside & (off <= spec.lengths[k0 - 1] + 1 - width)
    if fits.all():
        return rows(off)
    out = np.empty((starts.size, width), dtype=dtype)
    if fits.any():
        out[fits] = rows(off[fits])
    pos = deque(_descend_positions(spec, m, k0, starts[~fits, None] + np.arange(width)), maxlen=1)[0][0]
    out[~fits] = pos if base is None else base[pos]
    return out


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
# Gap engine
# --------------------------------------------------------------------------

def _window_ops(cut: int) -> tuple:
    """``shift, smear, comb, tri, mask``: bitset operations on Python ints cut to bits ``0 .. cut``.

    ``comb`` and ``tri`` are the ORs of the shifts that a run of equal level
    maps adds to the rows of :func:`_gap_rows`; ``smear`` is
    ``comb(x, 1, a + 1)``.  Each is built by doubling, and a shift past the
    cut adds nothing, so the counts are capped at the cut.  ``mask`` has the
    bits ``0 .. cut``: ``x << s & mask`` is ``shift(x, s)`` for ``s <= cut + 1``.
    """
    mask = (1 << cut + 1) - 1

    def fit(x: int) -> int:  # x cut, masked only when it has bits past the cut
        return x & mask if x.bit_length() > cut + 1 else x

    def shift(x: int, s: int) -> int:  # x << s, cut
        return fit(x << s) if s <= cut else 0

    def comb(x: int, t: int, r: int) -> int:  # x | x << t | .. | x << (r - 1) t, in O(log r) shifts
        if r < 1:
            return 0
        r = min(r, cut // t + 1) if t else 1
        k = 1  # x shifted by 0 .. (k - 1) t
        while 2 * k <= r:
            x = fit(x | x << k * t)
            k *= 2
        return fit(x | x << (r - k) * t) if k < r else x

    def smear(x: int, a: int) -> int:  # x | x << 1 | .. | x << a
        if a >= cut:  # every bit from the lowest one of x up
            return -(x & -x) & mask
        return comb(x, 1, a + 1)

    def tri(f: int, c: int, s: int, r: int) -> int:  # OR of f << (i c + d s) over i + d < r (c <= s)
        if not c:
            return comb(f, s, r)
        r = min(r, cut // c + 1)  # i + d past cut // c shifts past the cut
        if r < 1:
            return 0
        tr = sq = f  # the ORs over i + d < k and over i, d < k
        k = 1
        while 2 * k <= r:  # i + d < 2 k: both below k, or i + d < k past k in i or in d
            tr = sq | shift(tr | shift(tr, k * (s - c)), k * c)
            sq |= shift(sq, k * c)
            sq |= shift(sq, k * s)
            k *= 2
        if k < r:  # i + d < r: below k, or past r - k in i or in d, or both below r - k <= k
            j = r - k
            tr |= shift(tr | shift(tr, j * (s - c)), j * c) | comb(comb(f, c, j), s, j)
        return tr

    return shift, smear, comb, tri, mask


def _gap_rows(spec: CoveringSpec, m: int, n: int, window: int, zeros: bool = True) -> list[int]:
    """Distance rows up to ``window`` between block starts and zeros of the walk of circuit ``m``.

    ``B`` holds the starts of the level-``n`` blocks (vertex ``u != 0``
    sits at block start + ``u``) and ``Z`` the positions of vertex 0.  Row
    ``PQ`` has bit ``d`` when some ``p`` in ``P`` and ``q`` in ``Q`` have
    ``q - p = d``.  Returns ``[BB, BZ, ZB, ZZ]`` as ints cut at ``window``,
    or ``[BB]`` without ``zeros``.

    Built from the level maps, never from the walk.  Per circuit ``k`` (of
    length ``l``) and sets ``P``, ``Q``, all cut at ``window``, the
    recursion keeps the rows, the heads ``hd[P]`` (positions), the tails
    ``tl[P]`` (``l - p``) and ``twin[PQ] = tl[P] ⊕ hd[Q]``: bit ``l + q - p``
    for every signed difference.  Circuit ``k + 1`` is the loop runs
    ``a_0 .. a_b`` with a copy of circuit ``k`` between each two, and one
    sweep over them keeps, at the current position ``cur``:

    * ``near[PQ]``: ``twin[PQ]`` shifted by the distance back to each
      earlier copy, so the pairs of an earlier copy with the next one are
      ``near``, and each slot costs ``near = near << gap | twin``;
    * ``runs[Q]``: ``hd[Q]`` smeared over each earlier loop run and shifted
      by the distance back to it (pairs from a run's zeros to the next copy);
    * ``tail[P]``: ``cur - p`` for the points swept so far, so a loop run
      of ``a`` steps adds the pairs ``smear(tail[P], a)`` into ``PZ``.

    Vertex 0 sits at every block boundary and every loop step, so a run
    from ``e`` adds the zeros ``e .. e + a``.  At the end ``tail`` is the
    new ``tl``, and the new ``twin`` is the cross of ``tl`` with the new
    ``hd``: ``near | runs`` shifted to each copy start up to the window,
    and ``tl`` smeared over each loop run that starts within it.  A smear
    over ``a`` takes ``O(log a)`` shifts, and no step loops over the bits
    of a set.  On the top level only the rows are kept up to date.

    Once ``l`` is past the window, a pair within it spans at most one loop
    run, and the level needs no sweep: each distinct inner run ``x`` adds
    ``twin`` shifted by ``x``, each distinct run after (before) a copy adds
    ``tl`` (``hd``) smeared over it.  The new ``hd`` and ``tl`` are those of
    the first and last copy shifted past the margins ``a_0`` and ``a_b``,
    and the new ``twin`` the old one shifted past both, plus the zeros of
    each margin against the copy at the other end.  Circuits only grow, so
    the sweep runs while ``l <= window`` and this step after that.

    That step is taken once per run of ``R`` levels with the same map
    (:attr:`~proxrank2.covering.CoveringSpec.run_ends`).  With
    ``s = a_0 + a_b``, level ``i`` of the run holds ``twin << i s``, ``hd
    << i a_0`` and ``tl << i a_b``, plus the margin terms ``F << (j c + d
    s)`` for ``j + d < i``, where ``F`` is ``smear(tl, a_0) << a_b`` with
    ``c = a_b`` or ``smear(hd, a_b) << a_0`` with ``c = a_0``.  So the run
    adds ``comb(twin, s, R) | tri(F, c, s, R - 1)`` shifted by each inner
    run, and the smears of ``comb(tl, a_b, R)`` and ``comb(hd, a_0, R)``
    over the largest run after and before a copy (an OR of smears is the
    smear by the largest run).  After it ``twin`` is ``twin << R s`` plus
    ``comb(F << (R - 1) c, s - c, R)`` (:func:`_window_ops`).  ``R = 1``
    is the step of one level.

    Memory: about two dozen ints of ``window`` bits, and shifts of twice
    that while they are cut: at most about 4 bytes per window entry (3.7
    measured at a window of 1e6).  Time per level within the window: a few
    shifts and ORs of such ints per slot.  Past it, per run of ``R`` equal
    maps: ``O(log R)`` shifts per distinct inner run and per margin term,
    however many levels and copies the run has.  Both plus ``O(log a)``
    shifts per smear over a loop run of ``a`` steps.
    """
    shift, smear, comb, tri, mask = _window_ops(window)
    cut = window
    l = circuit_length(spec, n)

    at_l, at_2l = shift(1, l), shift(1, 2 * l)  # bits l and 2 l, cut
    if zeros:
        hd, tl = [1, 1 | at_l], [at_l, 1 | at_l]
        rows = [1, 1 | at_l, 1, 1 | at_l]
        twin = [at_l, at_l | at_2l, 1 | at_l, 1 | at_l | at_2l]
    else:
        rows, twin = [1], [at_l]
    pairs = range(len(rows))
    k = n
    while k < m:
        lm = spec.levels[k - 1]
        a = lm.a
        if l > cut:  # a pair within the window spans at most one loop run
            r = min(spec.run_ends[k - 1], m) - k  # levels k .. k + r - 1 share the map a
            k += r
            a0, ab = a[0], a[-1]
            s = a0 + ab  # each level shifts twin by s, hd by a0 and tl by ab
            # The zeros of each margin against the copy at the other end, as
            # (row p, term f, step c): level i of the run adds f << i c to twin[p].
            margins = []
            if zeros:
                margins = [(p, shift(smear(tl[p >> 1], a0), ab), ab) for p in (1, 3)]
                margins += [(p, shift(smear(hd[p & 1], ab), a0), a0) for p in (2, 3)]
            inner = set(a[1:-1])
            if inner:  # a copy to the next one, at each level of the run
                seen = [comb(y, s, r) for y in twin]
                for p, f, c in margins:
                    seen[p] |= tri(f, c, s, r - 1)
                for x in inner:
                    rows = [rows[p] | shift(seen[p], x) for p in pairs]
            if zeros:  # a copy to the zeros of the next run, and those zeros to the next copy
                after, before = max(a[1:]), max(a[:-1])
                rows[1] |= smear(comb(tl[0], ab, r), after)
                rows[3] |= smear(comb(tl[1], ab, r), after)
                rows[2] |= smear(comb(hd[0], a0, r), before)
                rows[3] |= smear(comb(hd[1], a0, r), before)
            if k == m:  # past the top level only the rows are read
                break
            # The new tl ⊕ hd: the last copy and run, then the first run and copy.
            twin = [shift(y, r * s) for y in twin]
            for p, f, c in margins:
                twin[p] |= comb(shift(f, (r - 1) * c), s - c, r)
            if zeros:
                # The margins' own zeros stay out of hd, tl and twin: with the
                # runs around them they fill one run of zeros at each junction
                # of copies, whose distances the smears and twin[ZZ] give.
                hd = [shift(y, r * a0) for y in hd]
                tl = [shift(y, r * ab) for y in tl]
            continue  # circuits only grow: every later level takes this step
        top = k == m - 1  # past the top level only the rows are read
        near = [0] * len(rows)
        runs, tail, head = [0, 0], [0, 1], [0, 1]
        cur = 0
        for j, x in enumerate(a):
            if x:
                if zeros:
                    rows[1] |= smear(tail[0], x)
                    rows[3] |= smear(tail[1], x)
                if top and j == lm.b:
                    break
                near = [shift(y, x) for y in near]
                if zeros:  # x can pass the cut, the shift need not: bits past it fall off
                    ones, sx = smear(1, x), min(x, cut + 1)
                    tail = [tail[0] << sx & mask, tail[1] << sx & mask | ones]
                    runs = [
                        runs[0] << sx & mask | smear(hd[0], x),
                        runs[1] << sx & mask | smear(hd[1], x),
                    ]
                    if cur <= cut and not top:
                        head[1] |= ones << cur & mask
                cur += x
            if j == lm.b:
                break
            last = top and j == lm.b - 1  # no copy after this one reads near or runs
            for p in pairs:  # copy j starts at cur
                rows[p] |= near[p]
                if not last:
                    near[p] = shift(near[p], l) | twin[p]
            if zeros:  # l and, where read, cur are within the cut
                rows[2] |= runs[0]
                rows[3] |= runs[1]
                if not last:
                    runs = [runs[0] << l & mask, runs[1] << l & mask]
                tail = [tail[0] << l & mask | tl[0], tail[1] << l & mask | tl[1]]
                if cur <= cut and not top:
                    head = [head[0] | hd[0] << cur & mask, head[1] | hd[1] << cur & mask]
            cur += l
        if top:
            break
        if zeros:
            near = [near[p] | runs[p & 1] if p >= 2 else near[p] for p in pairs]
        twin = [0] * len(rows)
        cur = 0
        for j, x in enumerate(a):  # the new head, up to the window: tl crossed with each segment
            if cur > cut:
                break
            if zeros and x:
                twin[1] |= smear(tail[0], x) << cur & mask
                twin[3] |= smear(tail[1], x) << cur & mask
            cur += x
            if j < lm.b:
                twin = [twin[p] | shift(near[p], cur) for p in pairs]
                cur += l
        if zeros:
            hd, tl = head, tail
        l = lm.next_length(l)
        k += 1
    return rows


def _bits(x: int, size: int) -> np.ndarray:
    """Bits ``0 .. size - 1`` of ``x >= 0`` as a bool row."""
    if x.bit_length() > size:
        x &= (1 << size) - 1
    raw = np.frombuffer(x.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def _block_start_differences(spec: CoveringSpec, m: int, n: int, window: int) -> np.ndarray:
    """Distances up to ``window`` between the level-``n`` blocks in the walk of circuit ``m``.

    Entry ``d`` of the bool row over ``0 .. min(window, l_m - l_n)`` is set
    when two level-``n`` blocks start ``d`` steps apart; vertex ``u != 0``
    sits at (block start + ``u``), so gap ``g`` from ``u`` to ``v != 0`` is
    realized exactly when entry ``|g - (v - u)|`` is set.  The row ``BB`` of
    :func:`_gap_rows`; memory: its ints and the returned row.
    """
    size = min(window, circuit_length(spec, m) - circuit_length(spec, n)) + 1
    return _bits(_gap_rows(spec, m, n, window, zeros=False)[0], size)


def _nonzero_pair_rows(dist: np.ndarray, l_n: int, width: int) -> np.ndarray:
    """View ``R[u - 1, v - 1, g] = dist[|g - (v - u)|]`` for ``u, v`` in ``1 .. l_n - 1``.

    ``dist`` is the ``BB`` distance row with ``dist[0]`` set, at least
    ``width + l_n - 2`` entries long.  Vertex ``u != 0`` sits at (block
    start + ``u``), so gap ``g < width`` from ``u`` to ``v`` is realized
    exactly when ``R[u - 1, v - 1, g]`` is.  Strided views of one mirrored
    copy of ``dist``: ``width + 2 l_n`` bytes however many pairs are read.
    """
    c = l_n - 2
    mirror = np.concatenate((dist[c:0:-1], dist[: width + c]))  # entry t: dist[|t - c|]
    rows = np.lib.stride_tricks.sliding_window_view(mirror, width)  # row t: gaps from shift c - t
    pairs = np.lib.stride_tricks.sliding_window_view(rows, c + 1, axis=0)  # [i, g, j]: row i + j
    return pairs[:, :, ::-1].transpose(0, 2, 1)  # [u - 1, v - 1, g]: row c + (u - 1) - (v - 1)


def _fill_pair_table(rows: list[int], table: np.ndarray) -> None:
    """Write the gaps of the :func:`_gap_rows` rows into ``table[u, v, gap]``.

    With ``w = max_gap`` and the occurrence rows ``R11`` (``1 -> 1``,
    ``R11[0]`` set), ``R10`` (``1 -> 0``), ``R01`` (``0 -> 1``) and ``R00``
    (``0 -> 0``), read off the rows as ``R11 = BB``, ``R10[d] = BZ[d + 1]``,
    ``R01[d] = ZB[d - 1]`` and ``R00 = ZZ`` (vertex 1 sits at block start +
    1):

    * ``T[u, v, g] = R11[|g - (v - u)|]`` (:func:`_nonzero_pair_rows`);
    * ``T[u, 0, g] = R10[g + u - 1]``;
    * ``T[0, v, g] = R01[g - v + 1]``, false for ``g < v`` (a zero there
      would sit inside the block of ``v``);
    * ``T[0, 0, g] = R00[g]``.

    Every block is filled from strided views of those rows.  Memory beyond
    the table: four bool rows of ``w + l_n`` bytes.
    """
    bb, bz, zb, zz = rows
    l_n, width = table.shape[0], table.shape[2]
    table[0, 0] = _bits(zz, width)
    if l_n > 1:
        reach = width + l_n - 2
        windows = np.lib.stride_tricks.sliding_window_view
        table[1:, 1:] = _nonzero_pair_rows(_bits(bb, reach), l_n, width)
        table[1:, 0] = windows(_bits(bz >> 1, reach), width)  # row u - 1: R10[u - 1 ..]
        into = _bits(zb << l_n - 1, reach)  # entry d + l_n - 2: R01[d]
        table[0, 1:] = windows(into, width)[::-1]  # row v - 1 starts at d = 1 - v
    table[:, :, 0] = False


def _gap_window(spec: CoveringSpec, m: int, n: int, max_gap: int, cap: int | None) -> tuple[int, str]:
    """The last gap ``top = min(max_gap, l_m)`` that can be realized, and the ``engine`` label.

    The gap rows reach ``top + l_n - 1``, and ``cap`` bounds both parts of
    that window, the gaps and one level-``n`` block: each needs at most
    ``expansion_cap(cap) - 1`` entries, or
    :class:`~proxrank2.errors.ExpansionTooLarge` is raised before anything
    is built.  So the window stays below twice the cap, and the rows below
    about 8 bytes per unit of cap (800 MB at the default of 1e8).  The label is
    ``materialized`` when the walk of circuit ``m`` (``l_m + 1`` entries)
    would fit the cap and ``strips`` otherwise; it reports that test, not
    which scan ran: no gap query builds a walk.
    """
    limit = expansion_cap(cap)
    l_m, l_n = circuit_length(spec, m), circuit_length(spec, n)
    if m < n:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    top = min(max_gap, l_m)
    if max(top, l_n) + 1 > limit:
        raise ExpansionTooLarge(max(top, l_n) + 1, limit, what=f"gap window of circuit {m} over level {n}")
    return top, "materialized" if l_m + 1 <= limit else "strips"


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
    mask stops at ``top = min(max_gap, l_m)``.

    Read off the :func:`_gap_rows` rows up to ``top + l_n - 1``, by the index
    rules of :func:`_fill_pair_table`: a pair of nonzero vertices off ``BB``
    alone, by one index array, a pair with vertex 0 off all four rows.
    Memory: the rows' ints (about 4 bytes per window entry), a bool row of
    ``top + l_n`` bytes, an index array of ``8 (top + 1)`` bytes, and the
    answer, about 50 bytes per realized gap as Python ints.
    ``engine`` reports whether the walk would fit the cap (:func:`_gap_window`).
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    l_n = circuit_length(spec, n)
    for name, x in (("u", u), ("v", v)):
        if not 0 <= x < l_n:
            raise UsageError(f"vertex {name}={x} outside 0..{l_n - 1}")
    if max_gap < 1:
        raise UsageError(f"max_gap must be >= 1, got {max_gap}")
    top, engine = _gap_window(spec, m, n, max_gap, cap)
    window = top + l_n - 1
    if u and v:  # T[u, v, g] = R11[|g - (v - u)|]
        dist = _bits(_gap_rows(spec, m, n, window, zeros=False)[0], window)
        mask = dist[np.abs(np.arange(top + 1) - (v - u))]
    else:
        bb, bz, zb, zz = _gap_rows(spec, m, n, window)
        mask = _bits(bz >> u if u else zb << v if v else zz, top + 1)
    gaps = (np.flatnonzero(mask[1:]) + 1).tolist()
    if include_zero and u == v:
        gaps = [0] + gaps
    return GapSet(level=n, m=m, u=u, v=v, max_gap=max_gap, gaps=tuple(gaps), engine=engine)


def realized_gap_table(
    spec: CoveringSpec, m: int, n: int, max_gap: int, cap: int | None = None
) -> tuple[np.ndarray, str]:
    """All-pairs realized-gap table ``T[u, v, gap]`` for gaps ``1 .. max_gap``.

    Filled by :func:`_fill_pair_table` from the four :func:`_gap_rows` rows
    up to ``min(max_gap, l_m) + l_n - 1``: the rows' ints and four bool rows
    of ``max_gap + l_n`` bytes besides the table, which has
    ``l_n² (max_gap + 1)`` bytes.  The label is that of :func:`_gap_window`.
    """
    l_n = circuit_length(spec, n)
    if l_n > 2048:
        raise UsageError(f"all-pairs table only supported for l_n <= 2048, got {l_n}")
    if max_gap < 1:
        raise UsageError(f"max_gap must be >= 1, got {max_gap}")
    top, engine = _gap_window(spec, m, n, max_gap, cap)
    table = np.zeros((l_n, l_n, max_gap + 1), dtype=bool)
    _fill_pair_table(_gap_rows(spec, m, n, top + l_n - 1), table)
    return table, engine


def gap_structure_report(spec: CoveringSpec, m: int, n: int) -> GapStructureReport:
    """Scan which cumulative-run separations occur between circuit blocks.

    Reports, for each ``k`` in ``n .. m-2``, whether the loop run of length
    ``tau(k, n)`` (sum of both margins over levels ``n .. k``) is realized
    between consecutive ``C`` blocks of the level-``n`` symbol word, plus
    whether adjacent traversals (``CC``) occur at the top expansion level.

    No word is spelled: circuit ``k + 1`` joins copies of circuit ``k`` by
    the inner runs ``x`` of level ``k``, which add the interior runs ``T +
    x + A`` (``A``, ``T``: the margins summed over levels ``n .. k - 1``).
    Memory: one int per distinct interior run, at most the windings of
    levels ``n .. m - 1`` summed.
    """
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    spec.lengths  # checks the shape of every map
    realized: set[int] = set()
    taus = []
    lead = trail = 0  # e_run_margins(spec, k, n)
    for k in range(n, m):
        a = level_map(spec, k).a
        realized.update(trail + x + lead for x in a[1:-1])
        lead += a[0]
        trail += a[-1]
        taus.append((k, lead + trail))
    return GapStructureReport(
        level=n,
        m=m,
        cc_present=0 in level_map(spec, m - 1).a[1:-1],
        taus=tuple((k, tau, tau in realized) for k, tau in taus[:-1]),
        interior_runs=tuple(sorted(realized)),
    )
