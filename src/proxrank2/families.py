"""Generators for the named covering families, and the certificates they carry.

Each generator returns a validated :class:`~proxrank2.covering.CoveringSpec`
whose ``family`` metadata holds the tag and the construction parameters
(``params["gen"]``), nothing more.  What a construction certifies lives here
in code: :func:`recognize` regenerates the construction from ``gen``, checks
that ``l1`` and every presented level equal the regenerated prefix (through
``params["original_levels"]`` for telescoped specs), and only then derives,
from the tag, the bound on the loop mass ``1 - r(n)`` that the ergodicity
classifier verifies and the stage boundaries that the forbidden-window
analysis reads.  Metadata a user can edit never certifies anything itself.

Family tags:

* ``substitution``     -- the base two-letter substitution system (length 2
  circuit; every deeper level winds twice-twice around with unit margins).
* ``mixing``           -- unit margins, odd circuit lengths, parity pad in the
  middle; realizes every vertex-pair gap in the topological-mixing window.
* ``weakmix_not_mix``  -- staged giant margins at boundary levels; uniquely
  ergodic and weakly mixing, with provably empty gap windows (not mixing).
* ``not_weakmix``      -- all margins divisible by ``p``; gaps are trapped in
  residue classes mod ``p``, obstructing weak mixing.
* ``custom``           -- other certified constructions (``uniquely_ergodic``).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .covering import (
    CoveringSpec,
    FamilyInfo,
    LevelMap,
    RestrictedLevelMap,
    telescope,
    validate,
    winding_product,
)
from .errors import ExpansionTooLarge, UsageError

TAG_SUBSTITUTION = "substitution"
TAG_MIXING = "mixing"
TAG_WEAKMIX_NOT_MIX = "weakmix_not_mix"
TAG_NOT_WEAKMIX = "not_weakmix"
TAG_CUSTOM = "custom"

#: The staged family's boundary levels are ``m = 3, 6, 9, ...``, each with stage base ``m - 2``.
_STAGE = 3


def _finish(l1: int, levels: list[LevelMap], tag: str, gen: dict) -> CoveringSpec:
    family = FamilyInfo(tag=tag, params={"gen": gen})
    spec = CoveringSpec(l1=l1, levels=tuple(levels), family=family)
    report = validate(spec)
    if not report.ok:
        raise UsageError(f"generator produced an invalid spec: {report.problems}")
    return spec


_UNIT_DEEP_MAP = RestrictedLevelMap(s=1, t=2, a_mid="E", t2=2, s2=1)  # word ECCECCE


def gen_substitution_family(depth: int = 6) -> CoveringSpec:
    """Base circuit of length 2; level 1 winds E C E C E, deeper levels E CC E CC E.

    The level-1 rows of this system are exactly the fixed-point language of
    the two-letter substitutions handled in :mod:`proxrank2.substitution`.
    Certified bound: ``1 - r(i) = 3 / l_{i+1} <= (12/7) * (1/4)^i``.
    """
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    levels = [LevelMap(a=(1, 1, 1), b=2)] + [_UNIT_DEEP_MAP.to_level_map()] * (depth - 1)
    return _finish(2, levels, TAG_SUBSTITUTION, {"depth": depth})


def gen_mixing_family(l1: int = 11, depth: int = 6) -> CoveringSpec:
    """Unit margins, parity pad keeping every circuit length odd.

    Every level map is ``E CC E CC E`` (``s = s' = 1``, ``t = t' = 2``, middle
    pad ``E`` keeping ``l_{n+1} = 4 l_n + 3`` odd).
    Certified bound: ``1 - r(i) = 3 / l_{i+1} <= (12 / l_2) * (1/4)^i``.
    """
    if l1 < 11 or l1 % 2 == 0:
        raise UsageError(f"mixing family needs odd l1 >= 11, got {l1}")
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    levels = [_UNIT_DEEP_MAP.to_level_map()] * depth
    return _finish(l1, levels, TAG_MIXING, {"l1": l1, "depth": depth})


def gen_weakmix_not_mix_family(l1: int = 3, depth: int = 7) -> CoveringSpec:
    """Staged construction: giant equal margins every third level.

    In-stage levels use ``s = s' = 1, t = 2, t' = 3`` (odd total winding 5).
    At each boundary level ``m`` (``m = 3, 6, 9, ...``, stage base
    ``n = m - 2``) the margins jump to the least integer exceeding
    ``1.5 * len(d(m+1, n))``, which pins the gap sets of non-loop vertices
    away from an explicit window.  :func:`recognize` derives the stage table
    for the forbidden-window analysis.
    Certified: ``1 - r(m) >= 1/2`` at every boundary level.
    """
    if l1 < 3 or l1 % 2 == 0:
        raise UsageError(f"weakmix_not_mix family needs odd l1 >= 3, got {l1}")
    if depth < _STAGE:
        raise UsageError(f"depth must be >= 3 to reach the first boundary, got {depth}")
    t_bar = 5
    levels: list[LevelMap] = []
    length = l1
    tau = 0  # tau(k - 1, n) over the current stage while building level k
    for k in range(1, depth + 1):
        if k % _STAGE == 0:
            len_d = t_bar * length - tau
            s = (3 * len_d) // 2 + 1
            tau = 0
        else:
            s = 1
            tau += 2 * s
        levels.append(RestrictedLevelMap(s=s, t=2, a_mid="", t2=3, s2=s).to_level_map())
        length = levels[-1].next_length(length)
    return _finish(l1, levels, TAG_WEAKMIX_NOT_MIX, {"l1": l1, "depth": depth})


def gen_not_weakmix_family(
    p: int = 3,
    depth: int = 4,
    l1: int | None = None,
    s: int | None = None,
    s2: int | None = None,
    t_bar: int = 2,
) -> CoveringSpec:
    """Every margin and the base length divisible by ``p``: gap residues are rigid.

    Level maps are the plain ``E^s C^t_bar E^s'``; all circuit-block start
    positions then fall in one residue class mod ``p``, so gaps between
    occurrences of the circuit vertices ``v1``/``v2`` are trapped in fixed
    residue classes, killing weak mixing.
    Certified bound: ``1 - r(i) <= ((s + s') / l1) * (1 / t_bar)^i``.
    """
    if p < 3:
        raise UsageError(f"not_weakmix family needs p >= 3, got {p}")
    l1 = p if l1 is None else l1
    s = p if s is None else s
    s2 = s if s2 is None else s2
    if l1 < 2 or l1 % p != 0:
        raise UsageError(f"l1 must be a multiple of p >= 2, got {l1}")
    if s % p != 0 or s2 % p != 0 or s < 1 or s2 < 1:
        raise UsageError(f"margins must be positive multiples of p, got s={s}, s'={s2}")
    if t_bar < 2:
        raise UsageError(f"t_bar must be >= 2, got {t_bar}")
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    lm = LevelMap(a=(s,) + (0,) * (t_bar - 1) + (s2,), b=t_bar)
    gen = {"p": p, "depth": depth, "l1": l1, "s": s, "s2": s2, "t_bar": t_bar}
    return _finish(l1, [lm] * depth, TAG_NOT_WEAKMIX, gen)


def gen_uniquely_ergodic_family(l1: int = 2, depth: int = 5) -> CoveringSpec:
    """Margins as heavy as the windings: ``s = s' = 2 l_n`` with ``t = t' = 2``.

    Then ``s_bar(n) = t_bar(n) * l_n`` at every level, so the loop mass
    ``1 - r(n) = 1/2`` exactly and the partial sums diverge: uniquely ergodic
    by the divergence criterion.  Tagged ``custom`` (kind ``uniquely_ergodic``).
    """
    if l1 < 2:
        raise UsageError(f"l1 must be >= 2, got {l1}")
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    levels: list[LevelMap] = []
    length = l1
    for _ in range(depth):
        rm = RestrictedLevelMap(s=2 * length, t=2, a_mid="", t2=2, s2=2 * length)
        levels.append(rm.to_level_map())
        length = levels[-1].next_length(length)
    gen = {"kind": "uniquely_ergodic", "l1": l1, "depth": depth}
    return _finish(l1, levels, TAG_CUSTOM, gen)


_GENERATORS = {
    TAG_SUBSTITUTION: gen_substitution_family,
    TAG_MIXING: gen_mixing_family,
    TAG_WEAKMIX_NOT_MIX: gen_weakmix_not_mix_family,
    TAG_NOT_WEAKMIX: gen_not_weakmix_family,
}


def gen_family(tag: str, **params) -> CoveringSpec:
    """Dispatch to a family generator by tag (``custom`` needs ``kind=...``)."""
    if tag == TAG_CUSTOM:
        kind = params.pop("kind", None)
        if kind == "uniquely_ergodic":
            return gen_uniquely_ergodic_family(**params)
        raise UsageError(f"unknown custom family kind {kind!r}")
    gen = _GENERATORS.get(tag)
    if gen is None:
        raise UsageError(f"unknown family tag {tag!r}")
    return gen(**params)


# --------------------------------------------------------------------------
# Recognition: a family spec checked against its regenerated construction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRecord:
    """What the regenerated construction certifies about a presented spec.

    ``problem`` names the failed check; then nothing else is set.  Otherwise
    ``l1`` and every presented level equal the construction of ``tag``, whose
    loop-mass bound is ``1 - r(i) <= scale * ratio^i`` at every level
    (``kind == "convergence"``), ``1 - r(i) >= delta`` at every level
    (``"divergence"``), or ``1 - r(m) >= delta`` at the boundary levels
    ``boundaries`` up to the regenerated depth (``"divergence_on_levels"``).
    ``levels`` is the original level of each presented circuit
    (``1 .. depth + 1`` unless telescoped), the numbering of ``boundaries``.
    ``loops`` and ``lengths`` are the spec's ``loop_totals`` and ``lengths``.
    The bound is fixed by the record, so it is checked once per record, on
    first read: :attr:`checked` lists the maps it constrains and
    :attr:`bounded` counts the leading ones that keep it.  The classifier
    at depth ``top`` then makes one bisection of :attr:`checked` and one
    comparison.
    """

    problem: str | None
    tag: str = ""
    kind: str = ""
    delta: Fraction | None = None
    scale: Fraction | None = None
    ratio: Fraction | None = None
    levels: tuple[int, ...] = ()
    boundaries: tuple[int, ...] = ()
    loops: tuple[int, ...] = field(default=(), compare=False, repr=False)
    lengths: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def stages(self) -> dict[int, int]:
        """Boundary ``m`` -> base ``n`` (presented numbering) of stages kept whole."""
        pos = {lvl: k for k, lvl in enumerate(self.levels, start=1)}
        return {
            pos[m]: pos[m - _STAGE + 1]
            for m in self.boundaries
            if m - _STAGE + 1 in pos and pos.get(m + 1) == pos[m - _STAGE + 1] + _STAGE
        }

    @cached_property
    def evidence(self) -> str:
        """The check the record rests on, for certificates (built once per record)."""
        n = len(self.levels) - 1
        what = f"l1 and all {n} presented levels equal the regenerated {self.tag} construction"
        if self.levels != tuple(range(1, len(self.levels) + 1)):
            what += f" telescoped to original levels {list(self.levels)}"
        return what

    @cached_property
    def checked(self) -> tuple[int, ...]:
        """The presented maps (``0`` for level 1) whose loop mass the bound constrains.

        Every map, but for ``divergence_on_levels`` only the maps whose
        original span ``[levels[k], levels[k + 1])`` holds a boundary level.
        """
        spans = range(len(self.levels) - 1)
        if self.kind != "divergence_on_levels":
            return tuple(spans)
        marks, levels = self.boundaries, self.levels
        return tuple(
            k for k in spans if bisect_left(marks, levels[k + 1]) > bisect_left(marks, levels[k])
        )

    @cached_property
    def bounded(self) -> int:
        """How many leading :attr:`checked` maps keep the bound (checked once per record)."""
        if self.kind == "convergence":
            return _levels_under_geometric_bound(
                self.loops, self.lengths[1:], self.levels, self.scale, self.ratio
            )
        return _maps_over_floor(self.loops, self.lengths[1:], self.checked, self.delta)


def _levels_under_geometric_bound(loops, lengths, levels, scale: Fraction, ratio: Fraction) -> int:
    """How many leading ``loops[k] / lengths[k]`` are within the geometric bound of their span.

    Map ``k`` spans the original levels ``[p, q) = [levels[k], levels[k + 1])``,
    over which the bound is
    ``scale * r^p`` when ``q = p + 1``, and the sum
    ``scale * (r^p - r^q) / (1 - r)`` of ``scale * r^j`` over ``p <= j < q``
    for a telescoped map, with ``r = ratio`` in ``(0, 1)``.  Writing
    ``scale = sn / sd`` and ``r = rn / rd`` and clearing the positive
    denominators, each level compares two integers:

    * ``a sd rd^p <= sn rn^p l``;
    * ``a sd rd^q (rd - rn) <= sn (rn^p rd^(q-p) - rn^q) rd l``.

    ``rn^p`` and ``rd^p`` are carried from one span to the next, so a level
    costs a few multiplications and no power of a fraction.
    """
    sn, sd = scale.numerator, scale.denominator
    rn, rd = ratio.numerator, ratio.denominator
    rn_p, rd_p = rn ** levels[0], rd ** levels[0]
    count = 0
    for a, l, p, q in zip(loops, lengths, levels, levels[1:]):
        if q == p + 1:
            rn_q, rd_q = rn_p * rn, rd_p * rd
            over = a * sd * rd_p > sn * rn_p * l
        else:
            rn_step, rd_step = rn ** (q - p), rd ** (q - p)
            rn_q, rd_q = rn_p * rn_step, rd_p * rd_step
            over = a * sd * rd_q * (rd - rn) > sn * (rn_p * rd_step - rn_q) * rd * l
        if over:
            break
        count += 1
        rn_p, rd_p = rn_q, rd_q
    return count


def _maps_over_floor(loops, lengths, maps, delta: Fraction) -> int:
    """How many leading maps ``k`` of ``maps`` keep ``loops[k] / lengths[k] >= delta``.

    Compares ``loops[k] dd >= dn lengths[k]`` for ``delta = dn / dd``: two
    integer products per map, and no ``Fraction``.
    """
    dn, dd = delta.numerator, delta.denominator
    count = 0
    for k in maps:
        if loops[k] * dd < dn * lengths[k]:
            break
        count += 1
    return count


def _regenerate(spec: CoveringSpec, depth: int) -> CoveringSpec:
    """The construction that ``spec.family`` names, at ``depth`` levels (``UsageError`` if none)."""
    fam = spec.family
    gen = fam.params.get("gen")
    if not isinstance(gen, dict) or any(type(v) is not int for k, v in gen.items() if k != "kind"):
        raise UsageError("generator parameters 'gen' must be a dict of integers")
    # t_bar sizes a tuple in every map of the construction; a genuine spec holds one as long.
    if gen.get("t_bar", 0) > max((len(lm.a) for lm in spec.levels), default=0):
        raise UsageError(f"t_bar = {gen['t_bar']} exceeds every presented winding number")
    try:
        return gen_family(fam.tag, **{**gen, "depth": depth})
    except TypeError as exc:  # a parameter name the generator does not take
        raise UsageError(f"generator parameters do not fit tag {fam.tag!r}") from exc


def _difference(spec: CoveringSpec, target: CoveringSpec) -> str | None:
    """The first presented datum that differs from ``target``'s prefix, or ``None``."""
    if spec.l1 != target.l1:
        return "l1 differs from the regenerated construction"
    for n, (lm, want) in enumerate(zip(spec.levels, target.levels), start=1):
        if (lm.a, lm.b) != (want.a, want.b):
            return f"level {n} differs from the regenerated construction"
    return None


def _bound(tag: str, regen: CoveringSpec, depth: int) -> dict:
    """The loop-mass bound that the construction of ``tag`` proves on levels ``1 .. depth``."""
    quarter, half, lm = Fraction(1, 4), Fraction(1, 2), regen.levels[0]
    return {
        TAG_SUBSTITUTION: {"kind": "convergence", "scale": Fraction(12, 7), "ratio": quarter},
        TAG_MIXING: {"kind": "convergence", "scale": Fraction(12, regen.lengths[1]), "ratio": quarter},
        TAG_NOT_WEAKMIX: {
            "kind": "convergence",
            "scale": Fraction(lm.a[0] + lm.a[-1], regen.l1),
            "ratio": Fraction(1, lm.b),
        },
        TAG_WEAKMIX_NOT_MIX: {
            "kind": "divergence_on_levels",
            "delta": half,
            "boundaries": tuple(range(_STAGE, depth + 1, _STAGE)),
        },
        TAG_CUSTOM: {"kind": "divergence", "delta": half},  # uniquely_ergodic: 1 - r(i) = 1/2
    }[tag]


def recognize(spec: CoveringSpec) -> FamilyRecord:
    """Check a spec against the construction its family metadata names.

    Reads only ``family.tag``, ``params["gen"]`` and, for a telescoped spec,
    ``params["original_levels"]``.  Regenerates the levels the presented spec
    implies (``gen.depth`` is ignored), but at least ``_STAGE`` of them, since
    the staged construction has no shorter form, and compares ``l1`` and
    every presented ``(a, b)`` with that prefix, telescoped to
    ``original_levels`` when present.  Returns the record of the
    construction's bound over the presented levels, or a record naming the
    failed check.
    :attr:`CoveringSpec.family_record` caches the result on the spec.
    """
    fam = spec.family
    if fam is None:
        return FamilyRecord("no family metadata")
    top = spec.depth + 1
    kept = fam.params.get("original_levels", list(range(1, top + 1)))
    try:
        l_top = spec.lengths[-1]
        # Every construction has b >= 2, so l_k >= 2^k and level k is below l_k.bit_length().
        if not (
            isinstance(kept, (list, tuple))
            and len(kept) == top
            and all(type(k) is int for k in kept)
            and all(p < q for p, q in zip([0, *kept], kept))
            and type(l_top) is int
            and kept[-1] <= l_top.bit_length()
        ):
            raise UsageError(f"original_levels must be {top} increasing original levels")
        regen = target = _regenerate(spec, max(kept[-1] - 1, _STAGE))
        if list(kept) != list(range(1, top + 1)):  # compose only what has the presented sizes
            windings = [winding_product(regen, q, p) for p, q in zip(kept, kept[1:])]
            sizes = [regen.lengths[k - 1] for k in kept]
            if sizes != list(spec.lengths) or windings != [lm.b for lm in spec.levels]:
                raise UsageError("telescoped lengths differ from the regenerated construction")
            target = telescope(regen, kept)
    except (UsageError, ExpansionTooLarge) as exc:
        return FamilyRecord(str(exc))
    problem = _difference(spec, target)
    if problem is not None:
        return FamilyRecord(problem)
    return FamilyRecord(
        None,
        fam.tag,
        levels=tuple(kept),
        loops=spec.loop_totals,
        lengths=spec.lengths,
        **_bound(fam.tag, regen, kept[-1] - 1),
    )


def extend_family(spec: CoveringSpec, new_depth: int) -> CoveringSpec | None:
    """Regenerate a family spec at ``new_depth`` levels (at least its own depth).

    Returns ``None`` unless ``l1`` and the presented levels are a prefix of
    the regenerated construction: a hand-entered or edited spec, unknown
    construction parameters, and telescoped specs are not extended.
    """
    fam = spec.family
    if fam is None or "original_levels" in fam.params:
        return None
    try:
        regen = _regenerate(spec, max(new_depth, spec.depth))
    except UsageError:
        return None
    return regen if _difference(spec, regen) is None else None
