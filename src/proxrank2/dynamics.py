"""Finite orbit dynamics: factor language, array blocks, witnesses, obstructions.

A *seed* pins a point of the system by a finite tower of choices: for each
level below some top circuit, which block of the level map the orbit sits in,
plus an offset inside the base block.  A seed determines all rows of the
array picture inside the time span of its top block and nothing outside —
windows beyond that span raise :class:`~proxrank2.errors.WindowUndetermined`
rather than silently extending.

Row conventions: the level-``n`` row assigns one symbol per time step (``E``
on the loop, ``C`` on a circuit edge) and a *cut* before each time where the
walk sits at the central vertex — exactly the block structure of the
level-``n`` expansion.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .covering import (
    CoveringSpec,
    circuit_length,
    expansion_cap,
    level_map,
)
from .errors import (
    ExpansionTooLarge,
    MissingStageMetadata,
    UsageError,
    WindowUndetermined,
)
from .expansion import (
    _POSITION_LIMIT,
    _block_start_differences,
    _check_positions,
    _gap_rows,
    _gap_window,
    _time_row,
    cumulative_runs,
    d_word,
    realized_gap_table,
    walk_windows,
)
from .families import extend_family
from .report import Report
from .substitution import windows


# --------------------------------------------------------------------------
# Seeds and positions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSeed(Report):
    """A point pinned inside the level-``top_level`` circuit block.

    ``slot_path[i]`` is the block index chosen at level ``base_level + i``
    inside the expansion of the level-``base_level + i + 1`` block above it;
    ``offset`` is the time offset inside the base-level block (0 for a loop
    block, ``0 .. l_base - 1`` for a circuit block).
    """

    top_level: int
    slot_path: tuple[int, ...]
    offset: int
    base_level: int = 1

    def slot_at(self, level: int) -> int:
        if not self.base_level <= level < self.top_level:
            raise UsageError(f"no slot at level {level} (base {self.base_level}, top {self.top_level})")
        return self.slot_path[level - self.base_level]

    @classmethod
    def from_dict(cls, d: dict) -> "PointSeed":
        """A seed from JSON; every field must be an int (bools rejected)."""
        try:
            seed = cls(
                top_level=d["top_level"],
                slot_path=tuple(d["slot_path"]),
                offset=d["offset"],
                base_level=d.get("base_level", 1),
            )
        except (KeyError, TypeError) as exc:
            raise UsageError(f"seed dict needs top_level/slot_path/offset, got {d!r}") from exc
        _check_seed_fields(seed)
        return seed


def _check_seed_fields(seed: PointSeed) -> None:
    """Raise :class:`UsageError` unless every field of the seed is an int.

    An int means exactly ``int``: bools, floats and strings are refused.
    One ``type`` per slot, so the check stays a small share of a descent.
    """
    fields = (seed.top_level, seed.base_level, seed.offset)
    path = seed.slot_path
    if not (isinstance(path, tuple) and {*map(type, fields), *map(type, path)} <= {int}):
        raise UsageError(
            "seed needs int top_level, base_level and offset and a tuple of int "
            f"slots, got {seed!r}"
        )


def _check_top(spec: CoveringSpec, top_level: int, base_level: int = 1) -> None:
    """Raise :class:`UsageError` unless ``1 <= base_level <= top_level <= depth + 1``."""
    if not 1 <= base_level <= top_level <= spec.depth + 1:
        raise UsageError(f"need 1 <= base {base_level} <= top {top_level} <= {spec.depth + 1}")


def _descend(spec: CoveringSpec, seed: PointSeed) -> tuple[int, str]:
    """Validate a seed and return (absolute position, base block kind).

    Reads the spec's length and loop tables; symbol ``slot`` of a level
    word is found by walking its runs (``a[j]`` loop steps, then one
    circuit block of ``l_k`` steps), never by spelling the word.
    """
    _check_seed_fields(seed)
    top, base, path = seed.top_level, seed.base_level, seed.slot_path
    _check_top(spec, top, base)
    if len(path) != top - base:
        raise UsageError(f"slot_path length {len(path)} != top-base = {top - base}")
    lo = base - 1
    lengths = spec.lengths
    # Level k with its slot, map, loop steps and circuit length, top first.
    rows = zip(
        range(top - 1, lo, -1),
        reversed(path),
        reversed(spec.levels[lo : top - 1]),
        reversed(spec.loop_totals[lo : top - 1]),
        reversed(lengths[lo : top - 1]),
    )
    pos = 0
    kind = "C"
    for k, slot, lm, loops, l_k in rows:
        if kind == "E":
            if slot != 0:
                raise UsageError(f"level-{k} slot must be 0 under a loop block, got {slot}")
            continue
        symbols = loops + lm.b
        if not 0 <= slot < symbols:
            raise UsageError(f"level-{k} slot {slot} outside 0..{symbols - 1}")
        pos += slot  # one step per symbol, and l_k - 1 more per circuit block passed
        for run in lm.a:  # slot < a[b] once the last run is reached
            if slot < run:
                kind = "E"
                break
            if slot == run:
                break
            slot -= run + 1
            pos += l_k - 1
    base_span = lengths[lo] if kind == "C" else 1
    if not 0 <= seed.offset < base_span:
        raise UsageError(
            f"offset {seed.offset} outside the base {kind}-block span 0..{base_span - 1}"
        )
    return pos + seed.offset, kind


def validate_seed(spec: CoveringSpec, seed: PointSeed) -> None:
    _descend(spec, seed)


def position_of_seed(spec: CoveringSpec, seed: PointSeed) -> int:
    """Absolute time of the seed's time 0 inside its top-level circuit block."""
    return _descend(spec, seed)[0]


def seed_from_position(
    spec: CoveringSpec, top_level: int, position: int, base_level: int = 1
) -> PointSeed:
    """Inverse of :func:`position_of_seed` (block indices of an absolute time).

    Reads the spec's length table and walks the runs of each map, as
    :func:`position_of_seed` does.
    """
    _check_top(spec, top_level, base_level)
    lengths = spec.lengths
    if not 0 <= position < lengths[top_level - 1]:
        raise UsageError(
            f"position {position} outside circuit {top_level} "
            f"(0..{lengths[top_level - 1] - 1})"
        )
    lo = base_level - 1
    slots: list[int] = []
    kind = "C"
    rem = position
    rows = zip(reversed(spec.levels[lo : top_level - 1]), reversed(lengths[lo : top_level - 1]))
    for lm, l_k in rows:
        if kind == "E":
            slots.append(0)
            continue
        slot = 0
        for run in lm.a:  # rem < a[b] once the last run is reached
            if rem < run:
                slot += rem
                rem = 0
                kind = "E"
                break
            rem -= run
            if rem < l_k:
                slot += run
                break
            rem -= l_k
            slot += run + 1
        slots.append(slot)
    slots.reverse()
    return PointSeed(top_level=top_level, slot_path=tuple(slots), offset=rem, base_level=base_level)


def stable_point(spec: CoveringSpec, top_level: int) -> PointSeed:
    """The seed whose time 0 is the last circuit edge: forward rows turn all-``E``.

    Located by descent search (last circuit block at every level), not by a
    closed formula.
    """
    _check_top(spec, top_level)
    slots = []
    for lm in spec.levels[: top_level - 1]:
        slots.append(sum(lm.a[:-1]) + lm.b - 1)  # symbol index of the last C
    return PointSeed(
        top_level=top_level,
        slot_path=tuple(slots),
        offset=circuit_length(spec, 1) - 1,
        base_level=1,
    )


def unstable_point(spec: CoveringSpec, top_level: int) -> PointSeed:
    """The seed whose time 0 is the first circuit edge of every level."""
    _check_top(spec, top_level)
    slots = [lm.a[0] for lm in spec.levels[: top_level - 1]]  # first C
    return PointSeed(top_level=top_level, slot_path=tuple(slots), offset=0, base_level=1)


# --------------------------------------------------------------------------
# Factor language and complexity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LanguageResult:
    words: frozenset
    length: int
    level: int
    stabilized: bool
    stabilized_at: int | None
    top_level_used: int

    def sorted_words(self) -> list[str]:
        return sorted(self.words)


def language(
    spec: CoveringSpec, n: int, length: int, cap: int | None = None
) -> LanguageResult:
    """Length-``length`` factors of the level-``n`` rows, closed by a proof.

    Circuit ``n``'s row is ``C^l_n``; circuit ``m + 1``'s is ``E^a0 X E^a1
    ... X E^ab`` with ``X`` circuit ``m``'s row and ``(a, b)`` the level-``m``
    map.  A row is kept whole (loop runs capped at ``length``) while shorter
    than ``length``.  Once it has ``length`` letters, starting ``H`` and
    ending ``T``, only ``head = (E^K H)[:length]`` and ``tail = (T
    E^K')[-length:]`` are kept, ``K`` and ``K'`` summing the margins ``a[0]``
    and ``a[-1]`` read since; each level adds the windows of its junction
    words ``tail + E^r + head`` and of its two margin words.

    The stop is a proof: a later junction word has at least ``K + K'`` loops
    between its ``T`` and ``H`` parts, so once ``K + K' >= length - 1`` every
    later window lies in ``E^length + head`` or ``tail + E^length``.  Both
    words occur in every reduced continuation (``a[0], a[-1] >= 1``), so
    adding their windows gives the final set.  Rows grow and margins add up
    by at least 2 per level, so ``stabilized_at``, the circuit whose row closed
    the proof, is at most ``max(1, length - 1)`` levels above ``n``.  Family
    specs are extended on demand.  For a hand-entered spec ``stabilized``
    means the set is final for every reduced continuation of its levels; if
    they run out first the partial set is returned unstabilized.

    Memory bound: the word set holds at most ``expansion_cap(cap)`` letters
    (``len(words) * length``; one byte per letter plus about 50 bytes of
    ``str`` header per word), past which the partial set is returned flagged
    unstabilized.  Besides it the engine keeps one row of fewer than
    ``2 * length * (b + 1)`` letters for a level map with ``b`` windings.
    """
    if length < 1:
        raise UsageError(f"factor length must be >= 1, got {length}")
    if length > 65536:
        raise UsageError(f"factor length {length} is too large for the window engine")
    if not 1 <= n <= spec.depth:
        raise UsageError(f"need 1 <= n <= {spec.depth}, got {n}")
    limit = expansion_cap(cap)
    current = spec
    l_n = circuit_length(spec, n)
    row: str | None = "C" * l_n if l_n < length else None
    head = tail = "C" * length
    words: set[str] = set()
    margins = 0
    m = n  # the circuit whose row was read last
    closed_at = None
    while closed_at is None and len(words) * length <= limit:
        if m > current.depth:
            deeper = extend_family(current, current.depth * 2)
            if deeper is None:
                break
            current = deeper
            continue
        a = level_map(current, m).a
        m += 1
        if row is not None:
            # Windows can chain across several copies of a short row.
            row = "C".join("E" * min(r, length) for r in a).replace("C", row)
            words |= windows(row, length)
            if len(row) >= length:
                head, tail, row = row[:length], row[-length:], None
        else:
            for r in {min(v, length) for v in a[1:-1]}:
                words |= windows(tail + "E" * r + head, length)
            lead, trail = "E" * min(a[0], length), "E" * min(a[-1], length)
            words |= windows(lead + head, length) | windows(tail + trail, length)
            head, tail = (lead + head)[:length], (tail + trail)[-length:]
            margins += a[0] + a[-1]
        if row is None and margins >= length - 1:
            loops = "E" * length
            words |= windows(loops + head, length) | windows(tail + loops, length)
            closed_at = m
    return LanguageResult(
        words=frozenset(words),
        length=length,
        level=n,
        stabilized=closed_at is not None,
        stabilized_at=closed_at,
        top_level_used=m,
    )


@dataclass(frozen=True)
class ComplexityRow:
    length: int
    count: int
    stabilized: bool

    @property
    def ratio(self) -> float:
        return math.log2(self.count) / self.length if self.count > 0 else float("-inf")

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "count": self.count,
            "log2_count_over_length": self.ratio,
            "stabilized": self.stabilized,
        }


def complexity_profile(
    spec: CoveringSpec, max_length: int, cap: int | None = None
) -> tuple[ComplexityRow, ...]:
    """Word counts ``p(L)`` of the level-1 language for ``L = 1 .. max_length``.

    One :func:`language` closure at ``max_length``: every window of a row
    extends to the right inside a deeper row, so the length-``L`` factors are
    the length-``L`` prefixes of the length-``max_length`` ones.  Every row
    shares that closure's ``stabilized`` flag.
    """
    res = language(spec, 1, max_length, cap=cap)
    return tuple(
        ComplexityRow(length, len({w[:length] for w in res.words}), res.stabilized)
        for length in range(1, max_length + 1)
    )


# --------------------------------------------------------------------------
# Array blocks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayRow(Report):
    level: int
    symbols: str
    cuts: tuple[int, ...]
    end_cut: bool


@dataclass(frozen=True)
class ArrayBlock(Report):
    seed: PointSeed
    window: tuple[int, int]
    rows: tuple[ArrayRow, ...]  # ordered top level first

    def row(self, level: int) -> ArrayRow:
        for r in self.rows:
            if r.level == level:
                return r
        raise UsageError(f"no row at level {level}")


def array_block(
    spec: CoveringSpec,
    seed: PointSeed,
    window: tuple[int, int],
    cap: int | None = None,
) -> ArrayBlock:
    """All rows ``base..top`` of the array picture over an inclusive time window.

    Relative time 0 is the seed position; a window reaching outside the span
    of the seed's top block raises :class:`WindowUndetermined` naming the
    first undetermined time.

    Each row reads one window of its level's walk of the top circuit
    (:func:`~proxrank2.expansion.walk_windows`), at any depth.  Memory per
    row: one base walk of at most 2^20 entries, plus 8 bytes per window
    entry for the index arrays, plus the row itself.
    """
    t0, t1 = window
    if t0 > t1:
        raise UsageError(f"window must have t0 <= t1, got {window}")
    pos, _ = _descend(spec, seed)
    l_top = circuit_length(spec, seed.top_level)
    if pos + t0 < 0:
        raise WindowUndetermined(t0)
    if pos + t1 > l_top - 1:
        raise WindowUndetermined(l_top - 1 - pos + 1)
    span = t1 - t0 + 1
    rows = []
    for k in range(seed.top_level, seed.base_level - 1, -1):
        walk = walk_windows(spec, seed.top_level, k, [pos + t0], span + 1, cap=cap)[0]
        rows.append(
            ArrayRow(
                level=k,
                symbols=_step_symbols(walk, 0, span).tobytes().decode("ascii"),
                cuts=tuple((np.flatnonzero(walk[:span] == 0) + t0).tolist()),
                end_cut=bool(walk[span] == 0),
            )
        )
    return ArrayBlock(seed=seed, window=(t0, t1), rows=tuple(rows))


def render_array_text(block: ArrayBlock) -> str:
    """Plain-text rendering: one line per level, ``|`` before each block start."""
    t0, t1 = block.window
    lines = [f"window [{t0}, {t1}] at seed {block.seed.to_dict()}"]
    for row in block.rows:
        cells = []
        cuts = set(row.cuts)
        for i, ch in enumerate(row.symbols):
            cells.append(("|" if t0 + i in cuts else "") + ch)
        tail = "|" if row.end_cut else ""
        lines.append(f"n={row.level:<3}" + " " + "".join(cells) + tail)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Li-Yorke witnesses
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LiYorkeWitness(Report):
    seed_a: PointSeed
    seed_b: PointSeed
    horizon: int
    direction: str
    k_target: int
    proximal_events: tuple[tuple[int, int], ...]  # (time, deepest shared level)
    separation_events: tuple[int, ...]
    best_k: int


def li_yorke_witness(
    spec: CoveringSpec,
    seed_a: PointSeed,
    seed_b: PointSeed,
    horizon: int,
    k_target: int,
    direction: str = "forward",
    cap: int | None = None,
) -> LiYorkeWitness:
    """Scan a window for proximal events and level-1 separations.

    A proximal event at time ``t`` records the deepest level ``k <= k_target``
    whose walk puts both orbits on the same level-``k`` vertex; a separation
    event is a time with differing level-1 symbols.  Events are reported,
    never asserted — the caller decides what they prove.

    Each level reads the two windows of its walks of the top circuits
    (:func:`~proxrank2.expansion.walk_windows`, one call when both seeds
    share their top), at any depth.  Memory per level: one base walk of at
    most 2^20 entries per top, plus 8 bytes per window entry for the index
    arrays, plus the two windows and the ``int32`` row of deepest levels.
    """
    if horizon < 0:
        raise UsageError(f"horizon must be >= 0, got {horizon}")
    if k_target < 1:
        raise UsageError(f"k_target must be >= 1, got {k_target}")
    if direction not in ("forward", "backward"):
        raise UsageError(f"direction must be forward or backward, got {direction!r}")
    pos_a, _ = _descend(spec, seed_a)
    pos_b, _ = _descend(spec, seed_b)
    t_lo, t_hi = (0, horizon) if direction == "forward" else (-horizon, 0)
    for name, pos, top in (("a", pos_a, seed_a.top_level), ("b", pos_b, seed_b.top_level)):
        if pos + t_lo < 0:
            raise WindowUndetermined(t_lo)
        if pos + t_hi > circuit_length(spec, top) - 1:
            raise WindowUndetermined(circuit_length(spec, top) - 1 - pos + 1)
    k_max = min(k_target, seed_a.top_level, seed_b.top_level)
    span = t_hi - t_lo + 1
    tops, starts = (seed_a.top_level, seed_b.top_level), (pos_a + t_lo, pos_b + t_lo)

    def rows(k: int):  # both seeds' level-k windows, in one call when they share a top
        if tops[0] == tops[1]:
            return walk_windows(spec, tops[0], k, starts, span + 1, cap=cap)
        return [walk_windows(spec, top, k, [s], span + 1, cap=cap)[0] for top, s in zip(tops, starts)]

    best = np.zeros(span, dtype=np.int32)
    for k in range(1, k_max + 1):
        wa, wb = rows(k)
        best[wa[:span] == wb[:span]] = k
        if k == 1:
            sep = np.flatnonzero(_step_symbols(wa, 0, span) != _step_symbols(wb, 0, span))
    near = np.flatnonzero(best >= 1)
    return LiYorkeWitness(
        seed_a=seed_a,
        seed_b=seed_b,
        horizon=horizon,
        direction=direction,
        k_target=k_target,
        proximal_events=tuple(zip((near + t_lo).tolist(), best[near].tolist())),
        separation_events=tuple((sep + t_lo).tolist()),
        best_k=int(best.max()) if span else 0,
    )


def _step_symbols(walk: np.ndarray, start: int, span: int) -> np.ndarray:
    w0 = walk[start: start + span]
    w1 = walk[start + 1: start + span + 1]
    return np.where((w0 == 0) & (w1 == 0), np.uint8(ord("E")), np.uint8(ord("C")))


# --------------------------------------------------------------------------
# Mixing-window check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingWindowReport(Report):
    m: int
    n: int
    window: tuple[int, int]
    ok: bool
    precondition_violations: tuple[str, ...]
    failures: tuple[tuple[int, int, tuple[int, ...]], ...]
    pairs_checked: int
    engine: str

    def to_dict(self) -> dict:
        failures = [{"u": u, "v": v, "missing": list(miss)} for (u, v, miss) in self.failures]
        return {**super().to_dict(), "failures": failures}


def mixing_window_check(
    spec: CoveringSpec, m: int, n: int, cap: int | None = None
) -> MixingWindowReport:
    """Verify the gap window ``[3 l_n, 2(m - n)]`` is full for every vertex pair.

    Preconditions of the underlying statement (unit margins and odd circuit
    lengths on ``[n, m)``, window nonempty) are reported as violations but do
    not stop the scan.  Exact at any depth: the table is read off the level
    maps by :func:`~proxrank2.expansion.realized_gap_table`, which builds no
    walk, so ``cap`` bounds only the window of ``2(m - n)`` gaps and one
    level-``n`` block.  ``engine`` reports whether the walk of circuit ``m``
    would fit the cap.
    """
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    violations = []
    for k in range(n, m):
        lm = level_map(spec, k)
        if lm.a[0] != 1 or lm.a[-1] != 1:
            violations.append(f"level {k}: margins ({lm.a[0]}, {lm.a[-1]}) are not (1, 1)")
        if circuit_length(spec, k) % 2 == 0:
            violations.append(f"level {k}: circuit length {circuit_length(spec, k)} is even")
    l_n = circuit_length(spec, n)
    hi = 2 * (m - n)
    lo = 3 * l_n
    if lo > hi:
        violations.append(f"window [3*l_n, 2(m-n)] = [{lo}, {hi}] is empty")
    table, engine = realized_gap_table(spec, m, n, max(hi, 1), cap=cap)
    # (u, v, gap - lo) of every missing gap, sorted by pair, then by gap.
    missing = np.argwhere(~table[:, :, lo: hi + 1])
    cuts = np.flatnonzero(np.any(missing[1:, :2] != missing[:-1, :2], axis=1)) + 1
    failures = [
        (int(run[0, 0]), int(run[0, 1]), tuple(int(lo + g) for g in run[:, 2]))
        for run in np.split(missing, cuts)
        if run.size
    ]
    return MixingWindowReport(
        m=m,
        n=n,
        window=(lo, hi),
        ok=not failures and lo <= hi,
        precondition_violations=tuple(violations),
        failures=tuple(failures),
        pairs_checked=l_n * l_n,
        engine=engine,
    )


# --------------------------------------------------------------------------
# Residue obstruction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueReport(Report):
    n: int
    m: int
    p: int
    passed: bool
    classes_v1: tuple[int, ...]
    classes_v2: tuple[int, ...]
    scan_max_gap: int
    scanned_v1v1: int
    scanned_v1v2: int
    violations_v1v1: tuple[int, ...]
    violations_v1v2: tuple[int, ...]
    witnesses: tuple[str, ...]


def residue_obstruction(
    spec: CoveringSpec,
    n: int,
    p: int,
    m: int,
    max_gap: int = 100_000,
    cap: int | None = None,
) -> ResidueReport:
    """Check that vertex gaps are trapped mod ``p``: v1->v1 in 0, v1->v2 in 1.

    Proves the claim for *all* gaps by occurrence residue classes (every
    occurrence of ``v1`` in one class, every occurrence of ``v2`` in the
    next), then lists the realized gaps up to ``max_gap`` exactly.  On
    failure, concrete witness gaps are reported.

    ``v1`` sits at each level-``n`` block start + 1 and ``v2`` one step
    later (``l_n >= 3``), and no walk is built.  The block-start residues
    ``R`` follow the level maps: circuit ``k + 1`` holds copies of circuit
    ``k`` at ``c_j = a_0 + .. + a_j + j l_k``, so ``R <- (R + c_j) mod p``.
    Positions below ``p`` are their own residues, so ``p`` is clamped to
    ``l_m + 1``, exact for every ``p``.  The witness, two consecutive blocks
    not 0 mod ``p`` apart, lies in copy 0 if circuit ``k`` has one, else at
    the first junction of two copies.  Gap ``g`` is realized from ``v1`` to
    ``v1`` (``v2``) when entry ``g`` (``g - 1``) of the block-start
    distances up to ``w = min(max_gap, l_m)`` is set
    (:func:`~proxrank2.expansion._block_start_differences`).

    Memory: while a level is built, the sums of ``R`` and the distinct
    ``c_j``: at most ``B(m, n)`` int64 entries (Python ints once ``p`` and
    ``l_m`` pass 2^62), 8 bytes each and twice that while ``np.unique``
    sorts them.  ``cap`` bounds them before each level
    and bounds the gap window (:func:`~proxrank2.expansion._gap_window`),
    whose rows take a few ints of ``w / 8`` bytes.
    """
    if p < 1:
        raise UsageError(f"p must be >= 1, got {p}")
    if max_gap < 0:
        raise UsageError(f"max_gap must be >= 0, got {max_gap}")
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    if circuit_length(spec, n) < 3:
        raise UsageError("need l_n >= 3 so that the vertices v1 and v2 exist")
    limit = expansion_cap(cap)
    w, _ = _gap_window(spec, m, n, max_gap, cap)
    q = min(p, circuit_length(spec, m) + 1)  # positions below q are their own residues mod p
    dtype = np.int64 if q < _POSITION_LIMIT else object  # object: exact Python ints
    starts = np.zeros(1, dtype=dtype)  # the block-start residues mod q less ``shift``, ascending
    shift = 0  # the levels whose copies all start in one class shift the row by it
    first = last = 0  # the first and the last block start
    pair = None  # the first two consecutive block starts not 0 mod p apart
    for k in range(n, m):
        lm, l_k = spec.levels[k - 1], spec.lengths[k - 1]
        c = [x + j * l_k for j, x in enumerate(accumulate(lm.a[:-1]))]
        if pair is not None:
            pair = (c[0] + pair[0], c[0] + pair[1])
        else:  # the first junction of two copies whose blocks are not 0 mod p apart
            j = next((j for j in range(1, lm.b) if (c[j] + first - c[j - 1] - last) % p), 0)
            pair = (c[j - 1] + last, c[j] + first) if j else None
        first, last = c[0] + first, c[-1] + last
        shifts = sorted({x % q for x in c})
        if len(shifts) == 1:
            shift = (shift + shifts[0]) % q
            continue
        if starts.size * len(shifts) > limit:
            raise ExpansionTooLarge(
                starts.size * len(shifts), limit, what=f"residue row of circuit {m} over level {n}"
            )
        starts = np.unique((starts[:, None] + np.array(shifts, dtype=dtype)) % q)
    classes1 = tuple(np.unique((starts + shift + 1) % q).tolist())
    classes2 = tuple(sorted((c + 1) % p for c in classes1))
    class_ok = len(classes1) == 1
    witnesses = []
    if not class_ok:
        x, y = pair
        witnesses.append(f"v1 at {x + 1} and {y + 1}: gap {y - x} != 0 mod {p}")
    dist = _block_start_differences(spec, m, n, w)
    gaps11 = np.flatnonzero(dist[1:]) + 1
    gaps12 = np.flatnonzero(dist[:w]) + 1
    pw = min(p, w + 1)  # gaps below pw are their own residues mod p
    bad11 = tuple(gaps11[gaps11 % pw != 0][:8].tolist())
    bad12 = tuple(gaps12[gaps12 % pw != 1 % pw][:8].tolist())
    for g in bad11[:1]:
        witnesses.append(f"realized v1->v1 gap {g} != 0 mod {p}")
    for g in bad12[:1]:
        witnesses.append(f"realized v1->v2 gap {g} != 1 mod {p}")
    return ResidueReport(
        n=n,
        m=m,
        p=p,
        passed=class_ok and not bad11 and not bad12,
        classes_v1=classes1,
        classes_v2=classes2,
        scan_max_gap=max_gap,
        scanned_v1v1=int(gaps11.size),
        scanned_v1v2=int(gaps12.size),
        violations_v1v1=bad11,
        violations_v1v2=bad12,
        witnesses=tuple(witnesses),
    )


# --------------------------------------------------------------------------
# Forbidden-window report (staged family)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ForbiddenWindowReport(Report):
    m: int
    n: int
    top_level: int
    len_arith: int
    len_measured: int
    lengths_agree: bool
    window_start: int
    first_realized: int | None
    width: int | None
    all_pairs_empty: bool
    per_pair: tuple[tuple[int, int, int | None], ...]
    noncenter_pairs: int

    def to_dict(self) -> dict:
        per_pair = [{"u": u, "v": v, "first_realized": f} for (u, v, f) in self.per_pair]
        return {**super().to_dict(), "per_pair": per_pair}


def _first_distance_above(dist: int, floor: int) -> int | None:
    """Least ``d > floor`` set in the bitset ``dist``, or ``None``."""
    lo = max(floor + 1, 0)
    y = dist >> lo
    return lo + (y & -y).bit_length() - 1 if y else None


def forbidden_window_report(
    spec: CoveringSpec, m: int, n: int | None = None, cap: int | None = None
) -> ForbiddenWindowReport:
    """Empty gap window of a staged-family boundary level, measured two ways.

    The stripped-word length ``len(d(m+1, n))`` is computed once by recursion
    arithmetic (``t_bar(m) * l_m - tau(m-1, n)``) and once by expanding the
    d-word.  Then the top presented circuit is checked: for non-central
    vertex pairs no gap in ``[len+1, ...]`` is realized until the copies
    separate.  Central pairs sit inside loop runs and realize every small
    gap, so the window statement quantifies over the non-central pairs.  The
    stage base ``n`` comes from the spec's recognized construction
    (:attr:`~proxrank2.covering.CoveringSpec.family_record`), never from JSON.

    No walk is built.  Vertex ``u != 0`` sits at block start ``+ u``, and
    distinct level-``n`` blocks start at least ``l_n`` apart, so the gaps
    from ``u`` to ``v`` are ``d + (v - u)`` over the block-start distances
    ``d >= 0`` of :func:`~proxrank2.expansion._block_start_differences`.  The
    first one above ``floor`` is ``d* + (v - u)`` with ``d*`` the least
    distance ``> floor - (v - u)``; over all non-central pairs it is
    ``max(floor + 1, d* - (l_n - 2))`` with ``d*`` the least distance
    ``> floor - (l_n - 2)``.

    The distances come from the ``BB`` row of
    :func:`~proxrank2.expansion._gap_rows`, cut at a window of ``2 (len +
    l_n)`` first.  A row cut at a window is an exact prefix of the row of
    the whole circuit (window ``l_top - l_n``), so a distance found in it is
    the answer; while some distance is not found, the window doubles, up to
    that whole one.  Memory: the builder's bitsets, about 4 bytes per window
    entry, for a window of at most twice the last distance read (or the
    whole one).  The cap bounds the window read: before each row is built,
    a window of ``window + 1`` entries past the cap is refused with exit 3,
    naming the gap window.
    """
    rec = spec.family_record
    if rec.problem is not None:
        raise MissingStageMetadata(
            f"forbidden-window analysis needs a recognized staged-family spec ({rec.problem})"
        )
    base = rec.stages.get(m)
    if base is None:
        raise MissingStageMetadata(f"level {m} is not a stage boundary of this spec")
    if n is None:
        n = base
    elif n != base:
        raise UsageError(f"stage boundary {m} has base level {base}, got n={n}")
    rm = level_map(spec, m).restricted
    if rm is None:
        raise MissingStageMetadata(f"level {m} lacks restricted-form data")
    tau_below = cumulative_runs(spec, m - 1, n).tau
    len_arith = rm.t_bar * circuit_length(spec, m) - tau_below
    dw = d_word(spec, m + 1, n, cap=cap)
    n_c = dw.count("C")
    len_measured = (len(dw) - n_c) + n_c * circuit_length(spec, n)
    top = spec.depth + 1
    limit = expansion_cap(cap)
    l_n = circuit_length(spec, n)
    pairs = [(u, v) for u in range(1, l_n) for v in range(1, l_n)] if (l_n - 1) ** 2 <= 36 else []
    # The floor of the first gap over all pairs, then one per listed pair.
    floors = [len_arith - (l_n - 2)] + [len_arith - (v - u) for u, v in pairs] if l_n >= 2 else []
    whole = circuit_length(spec, top) - l_n
    window = min(2 * (len_arith + l_n), whole)
    found = [None] * len(floors)
    while floors:
        if window + 1 > limit:
            raise ExpansionTooLarge(window + 1, limit, what=f"gap window of circuit {top} over level {n}")
        dist = _gap_rows(spec, top, n, window, zeros=False)[0]
        found = [_first_distance_above(dist, f) for f in floors]
        if window == whole or None not in found:
            break
        window = min(2 * window, whole)
    d = found[0] if found else None
    first = None if d is None else max(len_arith + 1, d - (l_n - 2))
    width = None if first is None else first - len_arith - 1
    per_pair = [(u, v, None if d is None else d + (v - u)) for (u, v), d in zip(pairs, found[1:])]
    all_empty = first is None or first > len_arith + 1
    return ForbiddenWindowReport(
        m=m,
        n=n,
        top_level=top,
        len_arith=len_arith,
        len_measured=len_measured,
        lengths_agree=len_arith == len_measured,
        window_start=len_arith + 1,
        first_realized=first,
        width=width,
        all_pairs_empty=all_empty,
        per_pair=tuple(per_pair),
        noncenter_pairs=(l_n - 1) ** 2,
    )


# --------------------------------------------------------------------------
# Level-1 separation of distinct segments
# --------------------------------------------------------------------------

_SEPARATION_BLOCK = 1 << 18  # window entries of one side of a batch of level1_separation_check


@dataclass(frozen=True)
class SeparationReport(Report):
    n: int
    length: int
    top_level: int
    samples: int
    max_padding: int
    failures: tuple[tuple[int, int], ...]
    skipped_identical: int


def level1_separation_check(
    spec: CoveringSpec,
    n: int,
    length: int,
    samples: int = 200,
    rng_seed: int = 0,
    top_level: int | None = None,
    pad_max: int | None = None,
    cap: int | None = None,
) -> SeparationReport:
    """Distinct level-``n`` segments must separate at level 1 after bounded padding.

    Samples pairs of positions whose decorated level-``n`` segments (symbols
    plus cut pattern) differ, then finds the least symmetric padding of the
    level-1 rows that exhibits a difference.  Failures (no difference within
    ``pad_max``) are reported, not raised.

    The positions are drawn from ``random.Random(rng_seed)`` two at a time,
    in batches of at most as many pairs as samples are still missing, so the
    draws and the pairs taken are those of drawing one pair at a time.  The
    segments of a batch are compared at once, and the least paddings of the
    pairs that differ are read off their level-1 windows with one masked
    minimum.

    No row of the top circuit is built: each batch reads one window of the
    level-``n`` walk per position (:func:`~proxrank2.expansion.walk_windows`),
    from the padding before it to the padding after.  Its middle is the
    segment, and step ``t``'s level-1 symbol is ``E`` where ``w[t] ==
    w[t + 1] == 0`` (a loop step of level ``n``) and otherwise entry
    ``w[t]`` of the level-1 time row of one level-``n`` block.  Memory: one
    base walk of at most 2^20 entries, the level-1 row of ``l_n`` bytes,
    and a batch of at most ``2 * _SEPARATION_BLOCK`` window entries, each with
    8 bytes of index arrays and 8 bytes for the masked minimum.
    """
    if n < 2:
        raise UsageError(f"need n >= 2, got {n}")
    if length < 1:
        raise UsageError(f"length must be >= 1, got {length}")
    for name, count in (("samples", samples), ("pad_max", pad_max)):
        if count is not None and count < 0:
            raise UsageError(f"{name} must be >= 0, got {count}")
    if not 2 <= n <= spec.depth:
        raise UsageError(f"need 2 <= n <= {spec.depth}, got {n}")
    top = spec.depth + 1 if top_level is None else top_level
    if not n < top <= spec.depth + 1:
        raise UsageError(f"need n < top_level <= {spec.depth + 1}, got {top}")
    pad = circuit_length(spec, n) if pad_max is None else pad_max
    l_top = circuit_length(spec, top)
    if l_top < length + 2 * pad + 2:
        raise UsageError("top circuit too short for the requested length and padding")
    _check_positions(spec, top, n)
    # A level-n segment is its walk slice: the vertices fix the cut pattern
    # and, for l_n >= 2, each step symbol (only a loop step stays on 0).
    # For l_n = 1 every segment is the same and no level-1 symbol is read.
    block1 = _time_row(spec, n, 1, cap=cap)
    width = length + 2 * pad
    # A difference at offset j of a padded window needs padding need[j].
    rel = np.arange(width) - pad
    need = np.where(rel < 0, -rel, np.maximum(rel - (length - 1), 0))
    step = max(1, _SEPARATION_BLOCK // width)
    rng = random.Random(rng_seed)
    done = attempts = skipped = max_padding = 0
    failures: list[tuple[int, int]] = []
    while done < samples and attempts < 50 * samples:
        batch = min(samples - done, 50 * samples - attempts, step)
        t = np.array(
            [rng.randrange(pad, l_top - length - pad) for _ in range(2 * batch)], dtype=np.int64
        )
        w = walk_windows(spec, top, n, t - pad, width + 1, cap=cap).reshape(batch, 2, width + 1)
        keep = (w[:, 0, pad: pad + length + 1] != w[:, 1, pad: pad + length + 1]).any(axis=1)
        t, w = t.reshape(batch, 2)[keep], w[keep]
        attempts += batch
        done += len(t)
        skipped += batch - len(t)
        here = w[:, :, :-1]
        symbols = np.where((here == 0) & (w[:, :, 1:] == 0), np.uint8(ord("E")), block1[here])
        least = np.where(symbols[:, 0] != symbols[:, 1], need, width).min(axis=1)
        failures.extend(map(tuple, t[least == width].tolist()))
        max_padding = max(max_padding, int(least[least < width].max(initial=0)))
    return SeparationReport(
        n=n,
        length=length,
        top_level=top,
        samples=done,
        max_padding=max_padding,
        failures=tuple(failures),
        skipped_identical=skipped,
    )
