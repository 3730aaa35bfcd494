"""Exact gap masks of a materialized walk.

:func:`_occurrence_gap_mask` marks the gaps ``1 .. max_gap`` from the
occurrences of one vertex to those of another; ``gap_set`` scans its walks
with it.  Two exact paths, chosen by the cost model of
:func:`_sparse_join_cheaper`: a windowed join of the occurrence lists when
they are sparse, and otherwise a scan of packed bit rows (little-endian
``uint64`` words, bit ``i % 64`` of word ``i // 64`` for walk entry ``i``)
that settles the realized gaps on growing prefixes of the walk and proves
each maximal run of the other gaps empty with one interval test over the
whole walk.
"""
from __future__ import annotations

import numpy as np


_SPARSE_PAIRS = 2_000_000  # most expected joined pairs that _occurrence_gap_mask joins


def _join_pairs(size: int, count_u: int, count_v: int, w: int) -> float:
    """Expected pairs of the windowed join of ``count_u`` and ``count_v`` occurrences."""
    return count_u * max(1.0, count_v / size * w)


def _sparse_join_cheaper(size: int, count_u: int, count_v: int, w: int) -> bool:
    """Whether :func:`_occurrence_gap_mask` joins occurrence lists rather than scanning bitsets.

    The join is taken when its expected pairs stay at most ``_SPARSE_PAIRS``
    (its index arrays take about 32 bytes per joined pair, so about 64 MB)
    and cost no more than the dense scan, in nanoseconds timed with numpy
    on a 2-core x86 machine: 20 per joined pair against, per gap, 4000 plus
    1/64 per entry, an upper bound of the dense path (its prefix stage and
    run proofs cut the per-gap passes short).
    """
    pairs = _join_pairs(size, count_u, count_v, w)
    return pairs <= _SPARSE_PAIRS and 20 * pairs <= w * (4000 + size / 64)


def _join_gaps(occ_u: np.ndarray, occ_v: np.ndarray, w: int, mask: np.ndarray) -> None:
    """Mark in ``mask`` the gaps ``1 .. w`` between two sorted occurrence lists.

    The windowed join: each occurrence of ``u`` pairs with the occurrences
    of ``v`` in the next ``w`` positions.  Memory: about 32 bytes per pair.
    """
    lo = np.searchsorted(occ_v, occ_u + 1)
    counts = np.searchsorted(occ_v, occ_u + w, side="right") - lo
    total = int(counts.sum())
    if total:
        starts = np.cumsum(counts) - counts
        flat = np.arange(total, dtype=np.int64) + np.repeat(lo - starts, counts)
        mask[occ_v[flat] - np.repeat(occ_u, counts)] = True


_PREFIX = 1 << 16  # walk entries whose occurrences of u _join_prefix joins


def _join_prefix(walk: np.ndarray, u: int, v: int, w: int, mask: np.ndarray) -> int:
    """Mark in ``mask`` the gaps ``1 .. w`` from the first occurrences of ``u`` in ``walk``.

    Takes the occurrences of ``u`` among the first ``_PREFIX`` entries, at
    most ``16 _PREFIX / (w + 1)`` of them, and ORs together the ``w + 1``
    entries of ``walk == v`` from each one on.  Every gap marked is
    realized.  Returns the length of the prefix whose occurrences of ``u``
    were all joined (``walk.size`` when the mask is exact).  Memory: at
    most ``16 _PREFIX`` bytes of windows (1 MB), a bool row of at most
    ``17 _PREFIX`` entries and the occurrences (at most ``8 _PREFIX``
    bytes): about 2.6 MB.
    """
    occ = np.flatnonzero(walk[:_PREFIX] == u)
    take = occ[: 16 * _PREFIX // (w + 1)]
    if take.size:
        ahead = walk[: take[-1] + w + 1]
        is_v = np.zeros(take[-1] + w + 1, dtype=bool)
        np.equal(ahead, v, out=is_v[: ahead.size])
        windows = np.lib.stride_tricks.sliding_window_view(is_v, w + 1)  # row i: gaps 0 .. w from i
        mask[: w + 1] |= windows[take].any(axis=0)
        mask[0] = False
    if take.size < occ.size:
        return int(occ[take.size])
    return walk.size if walk.size <= _PREFIX else _PREFIX


_PACK_BLOCK = 1 << 18  # walk entries compared per step of _packed_occurrences (a multiple of 8)


def _packed_occurrences(walk: np.ndarray, x: int, size: int) -> tuple[int, np.ndarray]:
    """The occurrences of ``x`` in ``walk``: their number, and ``size`` packed words.

    The words are little-endian ``uint64``, zero-padded: bit ``i % 64`` of
    word ``i // 64`` is set when ``walk[i] == x``.  The walk is compared in
    blocks of ``_PACK_BLOCK`` entries, so the memory is the words (1/8 byte
    per entry) and one bool block, not a bool row of the walk's size.
    """
    words = np.zeros(size, dtype="<u8")
    out = words.view(np.uint8)
    block = np.empty(min(_PACK_BLOCK, walk.size), dtype=bool)
    count = 0
    for lo in range(0, walk.size, _PACK_BLOCK):
        hit = np.equal(walk[lo: lo + _PACK_BLOCK], x, out=block[: min(_PACK_BLOCK, walk.size - lo)])
        count += int(np.count_nonzero(hit))
        bits = np.packbits(hit, bitorder="little")
        out[lo // 8: lo // 8 + bits.size] = bits
    return count, words


def _or_shifted(dst: np.ndarray, src: np.ndarray, s: int, tmp: np.ndarray) -> None:
    """OR into ``dst`` the word row whose bit ``i`` is bit ``i + s`` of ``src`` (0 past its end).

    ``tmp`` is a scratch row of ``src``'s size.
    """
    q, r = divmod(s, 64)
    n = src.size - q
    if r == 0:
        dst[:n] |= src[q:]
        return
    np.right_shift(src[q:], np.uint64(r), out=tmp[:n])
    dst[:n] |= tmp[:n]
    np.left_shift(src[q + 1:], np.uint64(64 - r), out=tmp[: n - 1])
    dst[: n - 1] |= tmp[: n - 1]


def _run_hits(words_u: np.ndarray, words_v: np.ndarray, runs: list[tuple[int, int]]) -> list[bool]:
    """For each run ``(a, b)``: whether some set bits ``i`` of ``words_u`` and
    ``j`` of ``words_v`` have ``a <= j - i <= b``.

    The interval test on packed words: the ``v`` row, smeared over the
    offsets ``0 .. b - a`` and shifted down by ``a``, is AND-ed with the
    ``u`` row.  Runs are taken by width, then by ``a mod 64``.  Each width
    costs one smeared row, built on a doubling ladder (``v`` smeared over
    ``0 .. k - 1`` for ``k = 1, 2, 4, ..``), each ``a mod 64`` of a width
    one bit-shifted row, and each run one AND at the word offset
    ``a // 64``.  ``words_v`` must carry ``b // 64 + 1`` zero words past
    the end of ``words_u``.  Memory: five rows of ``words_v``'s size.
    """
    n = words_u.size
    hits = [False] * len(runs)
    order = sorted(range(len(runs)), key=lambda i: (runs[i][1] - runs[i][0], runs[i][0] & 63))
    tmp = np.empty_like(words_v)
    ladder, k = words_v, 1  # words_v smeared over the offsets 0 .. k - 1
    width = shift = row = None
    for i in order:
        a, b = runs[i]
        if b - a + 1 != width:
            width, shift = b - a + 1, None
            while 2 * k <= width:
                prev, ladder = ladder, ladder.copy()
                _or_shifted(ladder, prev, k, tmp)
                k *= 2
            smear = ladder
            if width > k:
                smear = ladder.copy()
                _or_shifted(smear, ladder, width - k, tmp)
        if a & 63 != shift:
            shift = a & 63
            row = smear
            if shift:
                row = np.zeros_like(smear)
                _or_shifted(row, smear, shift, tmp)
        q = a >> 6
        hits[i] = bool(np.bitwise_and(words_u, row[q: q + n], out=tmp[:n]).any())
    return hits


_SCAN_FIRST = 16  # fewest packed words per step of _scan_gaps
_SCAN_WORDS = 1 << 15  # most packed words per step, and gap-by-word entries per AND, of _scan_gaps


def _scan_gaps(
    words_u: np.ndarray,
    words_v: np.ndarray,
    gaps: np.ndarray,
    lo: int = 0,
    budget: int | None = None,
) -> tuple[np.ndarray, int]:
    """The ``gaps`` realized by set bits ``i`` of ``words_u[lo:]`` and ``i + gap`` of ``words_v``.

    The ``u`` words from ``lo`` on are taken in steps that make the
    scanned prefix four times longer (at least ``_SCAN_FIRST`` and at most
    ``_SCAN_WORDS`` words each).  A step tests every gap still open at
    once: row ``g`` of a gathered block of ``v`` words is shifted down by
    ``g`` bits and AND-ed with the step's ``u`` words, in blocks of at most
    ``_SCAN_WORDS`` entries.  A gap found is dropped, so one realized early
    in the walk costs little and one never realized costs a pass.  Without
    a ``budget`` the scan covers the rest of the row.  With one, it stops
    after a step that finds no gap, or before a step that would take the
    gap-by-word entries scanned past ``budget``.  Returns the gaps found
    and the word the scan stopped at.  ``words_v`` must carry
    ``max(gaps) // 64 + 1`` words past the end of ``words_u``.  Memory: a
    few blocks of ``_SCAN_WORDS`` words (8 bytes each) and their indices.
    """
    found = [gaps[:0]]
    while gaps.size and lo < words_u.size:
        hi = min(lo + min(max(_SCAN_FIRST, 3 * lo), _SCAN_WORDS), words_u.size)
        if budget is not None:
            budget -= gaps.size * (hi - lo)
            if budget < 0:
                break
        cols = np.arange(hi - lo + 1)
        new = np.zeros(gaps.size, dtype=bool)
        batch = max(1, _SCAN_WORDS // (hi - lo))
        for b in range(0, gaps.size, batch):
            g = gaps[b: b + batch]
            r = (g & 63).astype(np.uint64)[:, None]
            rows = words_v[((g >> 6) + lo)[:, None] + cols]
            # r = 0 must shift the high word out: 64 - r is split as (63 - r) + 1.
            hit = (rows[:, :-1] >> r) | (rows[:, 1:] << (np.uint64(63) - r) << np.uint64(1))
            hit &= words_u[lo:hi]
            new[b: b + batch] = hit.any(axis=1)
        found.append(gaps[new])
        gaps = gaps[~new]
        lo = hi
        if budget is not None and not new.any():
            break
    return np.concatenate(found), lo


def _maximal_runs(gaps: np.ndarray) -> list[tuple[int, int]]:
    """The maximal runs ``(first, last)`` of consecutive values in an ascending array."""
    if not gaps.size:
        return []
    cuts = np.flatnonzero(np.diff(gaps) > 1)
    firsts = gaps[np.concatenate(([0], cuts + 1))]
    lasts = gaps[np.concatenate((cuts, [gaps.size - 1]))]
    return list(zip(firsts.tolist(), lasts.tolist()))


def _occurrence_gap_mask(walk: np.ndarray, u: int, v: int, max_gap: int) -> np.ndarray:
    """Bool mask over 0..max_gap marking realized gaps from u to v (exact).

    Two exact paths, chosen by :func:`_sparse_join_cheaper`.  The sparse
    path joins the whole occurrence lists (:func:`_join_gaps`).  The dense
    path packs ``walk == u`` and ``walk == v`` into words and runs three
    stages:

    1. *Prefix.*  :func:`_join_prefix` joins the first occurrences of
       ``u``, then :func:`_scan_gaps` tests the gaps still open on prefixes
       that grow fourfold, until a step finds none or the scan has cost
       four passes over the packed walk.  Every gap found is realized; if
       the prefixes reach the end of the walk, the mask is exact.
    2. *Run proofs.*  The gaps left open form maximal runs ``[a, b]``, and
       one interval test over the whole walk (:func:`_run_hits`) proves a
       run empty.
    3. *Fallback.*  The gaps of a run that is not empty are tested one by
       one over the whole walk (:func:`_scan_gaps`), each dropped at its
       first pair.

    Worst case: the prefix stage, one AND over the packed walk per run,
    one pass per gap of a run that is not empty, and the smeared and
    shifted rows of :func:`_run_hits`.
    Memory: the packed rows, 1/8 byte per walk entry (plus ``max_gap / 8``
    bytes) each: ``u`` and ``v`` (one row when ``u == v``) and at most five
    in :func:`_run_hits`, so at most about 90 MB at ``walk.size = 1e8``;
    plus the blocks of :func:`_packed_occurrences` (256 KB),
    :func:`_join_prefix` (about 2.6 MB) and :func:`_scan_gaps` (a few MB).
    The sparse path adds a bool row of the walk (1 byte per entry) while it
    lists the occurrences, and its index arrays.
    """
    mask = np.zeros(max_gap + 1, dtype=bool)
    w = min(max_gap, walk.size - 1)
    if w < 1:
        return mask
    words = -(-walk.size // 64)
    count_v, words_v = _packed_occurrences(walk, v, words + w // 64 + 1)
    count_u, words_u = (count_v, words_v[:words]) if v == u else _packed_occurrences(walk, u, words)
    if count_u == 0 or count_v == 0:
        return mask
    if _sparse_join_cheaper(walk.size, count_u, count_v, w):
        occ_u = np.flatnonzero(walk == u)
        _join_gaps(occ_u, occ_u if v == u else np.flatnonzero(walk == v), w, mask)
        return mask
    joined = _join_prefix(walk, u, v, w, mask)
    if joined == walk.size:
        return mask
    open_gaps = np.flatnonzero(~mask[1: w + 1]) + 1
    found, scanned = _scan_gaps(words_u, words_v, open_gaps, joined // 64, 4 * words_u.size)
    mask[found] = True
    if scanned == words_u.size:
        return mask
    runs = _maximal_runs(np.flatnonzero(~mask[1: w + 1]) + 1)
    hit = [run for run, h in zip(runs, _run_hits(words_u, words_v, runs)) if h]
    if hit:
        gaps = np.concatenate([np.arange(a, b + 1) for a, b in hit])
        mask[_scan_gaps(words_u, words_v, gaps)[0]] = True
    return mask
