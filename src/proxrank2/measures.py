"""Invariant-measure calculus: exact rationals throughout.

``r(n)`` is the fraction of time a level-``n+1`` circuit traversal spends on
level-``n`` circuit edges: ``r(n) = b(n) * l_n / l_{n+1}``; the loop mass is
``1 - r(n) = sum(a(n)) / l_{n+1}``.  Products ``r(m, n)`` telescope, and the
convergence or divergence of ``sum(1 - r(i))`` decides between two ergodic
measures and unique ergodicity.  Everything here uses ``fractions.Fraction``
with zero tolerance; floats appear only in rendered output.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .covering import (
    CoveringSpec,
    circuit_length,
    expansion_cap,
    level_map,
    winding_product,
)
from .errors import ExpansionTooLarge, UsageError
from .report import Report, decimal_str, rat_from_json, rat_to_json  # rat_from_json: re-export


@dataclass(frozen=True)
class SimplexPoint(Report):
    """Barycentric weights of the two extreme measures seen at level ``n``."""

    level: int
    w_e: Fraction
    w_c: Fraction

    def problems(self) -> list[str]:
        out = []
        if self.w_e < 0 or self.w_c < 0:
            out.append("weights must be nonnegative")
        if self.w_e + self.w_c != 1:
            out.append(f"weights must sum to 1, got {self.w_e + self.w_c}")
        return out


@dataclass(frozen=True)
class MeasureVector(Report):
    """Per-edge weights on the level-``n`` graph: one loop edge, ``l_n`` circuit edges.

    Conservation on this graph shape means constant flow along the circuit
    (each interior vertex has a unique in/out edge); the central vertex then
    balances automatically.  The same check applies to any one-circuit-plus-
    loop graph, which is all the diagram layers used elsewhere need.
    """

    level: int
    loop: Fraction
    circuit: tuple[Fraction, ...]

    @property
    def mass(self) -> Fraction:
        return self.loop + sum(self.circuit, Fraction(0))

    @property
    def conserved(self) -> bool:
        return all(w == self.circuit[0] for w in self.circuit[1:])


def r_value(spec: CoveringSpec, n: int) -> Fraction:
    """Circuit mass of one refinement step: ``r(n) = b(n) l_n / l_{n+1}``."""
    lm = level_map(spec, n)
    return Fraction(lm.b * circuit_length(spec, n), circuit_length(spec, n + 1))


def one_minus_r(spec: CoveringSpec, n: int) -> Fraction:
    """Loop mass of one refinement step: ``sum(a(n)) / l_{n+1}``, read off the spec's tables."""
    level_map(spec, n)  # checks the range of n
    return Fraction(spec.loop_totals[n - 1], circuit_length(spec, n + 1))


def r_product(spec: CoveringSpec, m: int, n: int) -> Fraction:
    """Telescoped circuit mass ``r(m, n) = prod_{i=n}^{m-1} r(i)``.

    Equals the exact fraction of circuit time steps in the level-``n``
    expansion of the level-``m`` circuit: ``B(m, n) * l_n / l_m``.
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    return Fraction(winding_product(spec, m, n) * circuit_length(spec, n), circuit_length(spec, m))


def xi_project(spec: CoveringSpec, m: int, n: int, point: SimplexPoint) -> SimplexPoint:
    """Project level-``m`` simplex coordinates down to level ``n``.

    The loop extreme maps to the loop extreme; the circuit extreme splits as
    ``(1 - r(m, n))`` loop plus ``r(m, n)`` circuit.
    """
    if not 1 <= n < m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n < m <= {spec.depth + 1}, got n={n}, m={m}")
    if point.level != m:
        raise UsageError(f"point is at level {point.level}, expected {m}")
    rr = r_product(spec, m, n)
    return SimplexPoint(level=n, w_e=point.w_e + point.w_c * (1 - rr), w_c=point.w_c * rr)


def vertex_measure(
    spec: CoveringSpec, n: int, m_horizon: int, which: str = "nonatomic", cap: int | None = None
) -> MeasureVector:
    """Edge weights at level ``n`` of either extreme measure.

    ``fixed``: the point mass of the orbit trapped on the loop (weight 1 on
    the loop edge).  ``nonatomic``: occurrence frequencies in the level-``n``
    expansion of the level-``m_horizon`` circuit — the loop edge carries
    ``(l_m - B l_n) / l_m`` and every circuit edge ``B / l_m``, where ``B`` is
    the winding product.

    The circuit tuple repeats one ``Fraction``: 8 bytes per edge, so at most
    about 800 MB at the default cap of 1e8.  Raises
    :class:`~proxrank2.errors.ExpansionTooLarge` before allocating when
    ``l_n`` exceeds :func:`~proxrank2.covering.expansion_cap` of ``cap``.
    """
    if not 1 <= n <= m_horizon <= spec.depth + 1:
        raise UsageError(
            f"need 1 <= n <= m_horizon <= {spec.depth + 1}, got n={n}, m={m_horizon}"
        )
    if which not in ("fixed", "nonatomic"):
        raise UsageError(f"which must be 'fixed' or 'nonatomic', got {which!r}")
    l_n = circuit_length(spec, n)
    limit = expansion_cap(cap)
    if l_n > limit:
        raise ExpansionTooLarge(l_n, limit, what=f"edge measure of level {n}")
    if which == "fixed":
        return MeasureVector(level=n, loop=Fraction(1), circuit=(Fraction(0),) * l_n)
    l_m = circuit_length(spec, m_horizon)
    big_b = winding_product(spec, m_horizon, n)
    loop = Fraction(l_m - big_b * l_n, l_m)
    return MeasureVector(level=n, loop=loop, circuit=(Fraction(big_b, l_m),) * l_n)


def push_measure_down(spec: CoveringSpec, vec: MeasureVector) -> MeasureVector:
    """Refine a level-``n+1`` edge measure to level ``n`` by edge preimages.

    The loop covers the loop; each circuit time step of the level-``n+1``
    circuit lands on the loop or on a circuit edge according to the level
    map.  Summing weights over preimages is exact and needs no constancy.
    """
    n = vec.level - 1
    if n < 1:
        raise UsageError("cannot push below level 1")
    lm = level_map(spec, n)
    l_n = circuit_length(spec, n)
    if len(vec.circuit) != lm.next_length(l_n):
        raise UsageError(
            f"vector has {len(vec.circuit)} circuit edges, level {n + 1} has {lm.next_length(l_n)}"
        )
    loop = vec.loop
    circ = [Fraction(0) for _ in range(l_n)]
    pos = 0
    for ch in lm.word():
        if ch == "E":
            loop += vec.circuit[pos]
            pos += 1
        else:
            for i in range(l_n):
                circ[i] += vec.circuit[pos + i]
            pos += l_n
    return MeasureVector(level=n, loop=loop, circuit=tuple(circ))


# --------------------------------------------------------------------------
# Ergodicity classification
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ErgodicityRow:
    """One level of the loop-mass series; ``partial_sum`` is read from ``series``."""

    i: int
    one_minus_r: Fraction
    partial_product: Fraction
    series: LoopSeries = field(repr=False)

    @property
    def partial_sum(self) -> Fraction:
        """``sum(1 - r(j) for j <= i)``, exact."""
        return self.series.partial_sum(self.i - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErgodicityRow):
            return NotImplemented
        return (
            self.i == other.i
            and self.one_minus_r == other.one_minus_r
            and self.partial_product == other.partial_product
            and self.partial_sum == other.partial_sum
        )

    def __hash__(self) -> int:
        return hash((self.i, self.one_minus_r, self.partial_product))

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "one_minus_r": rat_to_json(self.one_minus_r),
            "partial_sum": rat_to_json(self.partial_sum),
            "partial_product": rat_to_json(self.partial_product),
        }


class LoopSeries(Sequence):
    """The rows of a loop-mass series, each built on its first read.

    Holds only the integer columns: ``loops[k] = sum(a(k + 1))``,
    ``tops[k] = l_{k+2}``, ``windings[k] = B(k + 2, 1)`` and ``l1``.  Row
    ``k`` (``i = k + 1``) costs two fractions, ``loops[k] / tops[k]`` and
    ``windings[k] l1 / tops[k]``, and is cached.  The running sums are filled
    in one pass the first time any row's ``partial_sum`` is read.  A read-only
    sequence: indices (negative too), slices (as tuples), iteration; equal to
    another series with equal rows.
    """

    __slots__ = ("_loops", "_tops", "_windings", "_l1", "_rows", "_sums")

    def __init__(
        self, loops: tuple[int, ...], tops: tuple[int, ...], windings: tuple[int, ...], l1: int
    ):
        self._loops, self._tops, self._windings, self._l1 = loops, tops, windings, l1
        self._rows: list[ErgodicityRow | None] = [None] * len(loops)
        self._sums: list[Fraction] | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        row = self._rows[k]  # raises IndexError past either end, as a tuple does
        if row is None:
            j = k % len(self._rows)
            l = self._tops[j]  # r(i + 1, 1) = B(i + 1, 1) l_1 / l_{i+1}
            row = ErgodicityRow(
                j + 1,
                Fraction(self._loops[j], l),
                Fraction(self._windings[j] * self._l1, l),
                self,
            )
            self._rows[j] = row
        return row

    def partial_sum(self, k: int) -> Fraction:
        """``sum(1 - r(i) for i <= k + 1)``; the first call fills all of them."""
        if self._sums is None:
            self._sums = list(accumulate(map(Fraction, self._loops, self._tops)))
        return self._sums[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopSeries):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"LoopSeries({tuple(self)!r})"


@dataclass(frozen=True)
class ErgodicityReport(Report):
    verdict: str  # "UniquelyErgodic" | "TwoErgodic" | "Undetermined"
    certified: bool
    certificate: str
    rows: LoopSeries

    @property
    def label(self) -> str:
        return f"{self.verdict}(certified)" if self.certified else self.verdict

    def to_dict(self) -> dict:
        rows = [row.to_dict() for row in self.rows]
        return {**super().to_dict(), "rows": rows, "label": self.label}

    def to_csv(self) -> str:
        def cell(x: Fraction) -> str:  # str(x) at any size
            num = decimal_str(x.numerator)
            return num if x.denominator == 1 else f"{num}/{decimal_str(x.denominator)}"

        lines = ["i,one_minus_r,partial_sum,partial_product"]
        for row in self.rows:
            cells = (row.one_minus_r, row.partial_sum, row.partial_product)
            lines.append(",".join([str(row.i), *map(cell, cells)]))
        return "\n".join(lines) + "\n"


def classify_ergodicity(spec: CoveringSpec, depth: int | None = None) -> ErgodicityReport:
    """Tabulate the loop-mass series and give a verdict.

    Each row holds ``1 - r(i) = sum(a(i)) / l_{i+1}`` and the partial product
    ``r(i + 1, 1) = B(i + 1, 1) l_1 / l_{i+1}``, read off the spec's length,
    winding and loop tables (:attr:`~proxrank2.covering.CoveringSpec.lengths`,
    :attr:`~proxrank2.covering.CoveringSpec.windings`,
    :attr:`~proxrank2.covering.CoveringSpec.loop_totals`), sliced to the
    ``top`` levels asked for, so no map is read again.  ``rows`` is a
    :class:`LoopSeries` over those integer columns, so the cost is paid where
    it is read:

    * the verdict costs one bisection and one comparison, and builds no row
      and no ``Fraction``;
    * a row costs two fractions on its first read (a gcd of two integers of
      up to ~1600 bits each at depth 800) and is cached;
    * the partial sums cost one pass on the first read of any
      ``partial_sum`` (``to_dict``, ``to_csv``, the ``ergodic`` CLI): O(depth)
      additions of fractions whose denominators grow toward
      ``lcm(l_2 .. l_{top+1})`` (hundreds of thousands of bits at depth
      800), so that pass dominates whenever it runs.

    A certified verdict needs a recognized family spec
    (:attr:`~proxrank2.covering.CoveringSpec.family_record`): ``l1`` and every
    presented level must equal the regenerated construction of the family
    tag.  The construction's loop-mass bound, derived in code from the tag,
    then decides:

    * divergence (``1 - r(i) >= delta`` everywhere, or at the boundary
      levels of a staged construction) certifies unique ergodicity;
    * geometric convergence (``1 - r(i) <= scale * ratio^i``) certifies two
      ergodic measures.

    The bound is re-verified on every presented level that it constrains, as
    a cross-check (for telescoped specs, through the original-level interval
    of each map).  The check does no ``Fraction`` arithmetic: each level
    compares two integer products, the loop mass cross-multiplied with the
    bound, whose powers of ``ratio``'s numerator and denominator are carried
    from level to level.  The bound is fixed per spec, so it is checked once
    per record (:class:`~proxrank2.families.FamilyRecord`): ``checked`` lists
    the maps it constrains and ``bounded`` counts the leading ones that keep
    it.  A call at depth ``top`` counts the checked maps below ``top`` by
    bisection and compares that count with ``bounded``.
    Finite data alone never certifies: an unrecognized spec is
    ``Undetermined``, and its certificate names the check that failed.
    """
    top = spec.depth if depth is None else min(depth, spec.depth)
    if top < 1:
        raise UsageError("need at least one presented level")
    rows = LoopSeries(  # row i reads l_{i+1} and B(i + 1, 1)
        spec.loop_totals[:top], spec.lengths[1 : top + 1], spec.windings[1 : top + 1], spec.l1
    )

    rec = spec.family_record
    if rec.problem is not None:
        return _undetermined(
            rows,
            f"not a recognized family construction ({rec.problem}): a finite prefix "
            "cannot decide whether the loop-mass series converges",
        )
    checked = bisect_left(rec.checked, top)  # the checked maps among the top presented
    if rec.bounded < checked:
        return _undetermined(rows, f"the construction's {rec.kind} bound FAILED verification")
    if rec.kind == "convergence":  # 0 < ratio < 1
        return ErgodicityReport(
            "TwoErgodic",
            True,
            f"{rec.evidence}; its geometric bound 1-r(i) <= {rec.scale} * {rec.ratio}^i verified "
            f"on all {top} presented levels; the construction extends it, so the loop-mass "
            "series converges and both extreme measures survive",
            rows,
        )
    if not checked:
        return _undetermined(rows, f"{rec.evidence}; no boundary level is presented to verify")
    where = "" if rec.kind == "divergence" else "boundary "
    return ErgodicityReport(
        "UniquelyErgodic",
        True,
        f"{rec.evidence}; its bound 1-r >= {rec.delta} verified on {checked} presented "
        f"{where}level(s); the construction repeats it at every further {where}level, so "
        "the loop-mass series diverges",
        rows,
    )


def _undetermined(rows, certificate: str) -> ErgodicityReport:
    return ErgodicityReport("Undetermined", False, certificate, rows)
