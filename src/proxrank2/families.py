"""Generators for the named covering families.

Each generator returns a validated :class:`~proxrank2.covering.CoveringSpec`
whose ``family`` metadata records the construction parameters, a
machine-checkable per-level constraint record, and (when the construction
certifies one) a bound on the loop mass ``1 - r(n)`` that the ergodicity
classifier can verify on the presented levels and extend to the limit.

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

from fractions import Fraction

from .covering import (
    CoveringSpec,
    FamilyInfo,
    LevelMap,
    RestrictedLevelMap,
    validate,
)
from .errors import UsageError
from .measures import rat_to_json

TAG_SUBSTITUTION = "substitution"
TAG_MIXING = "mixing"
TAG_WEAKMIX_NOT_MIX = "weakmix_not_mix"
TAG_NOT_WEAKMIX = "not_weakmix"
TAG_CUSTOM = "custom"


def _finish(l1: int, levels: list[LevelMap], tag: str, params: dict) -> CoveringSpec:
    spec = CoveringSpec(l1=l1, levels=tuple(levels), family=FamilyInfo(tag=tag, params=params))
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
    levels: list[LevelMap] = [LevelMap(a=(1, 1, 1), b=2)]
    checks = [{"level": 1, "shape": "ECECE"}]
    lengths = [2, 7]
    for k in range(2, depth + 1):
        levels.append(_UNIT_DEEP_MAP.to_level_map())
        lengths.append(levels[-1].next_length(lengths[-1]))
        checks.append({"level": k, "shape": "ECCECCE", "l_next": str(lengths[-1])})
    params = {
        "gen": {"depth": depth},
        "level_checks": checks,
        "bound": {
            "type": "convergence",
            "scale": rat_to_json(Fraction(12, 7)),
            "ratio": rat_to_json(Fraction(1, 4)),
        },
    }
    return _finish(2, levels, TAG_SUBSTITUTION, params)


def gen_mixing_family(l1: int = 11, depth: int = 6) -> CoveringSpec:
    """Unit margins, parity pad keeping every circuit length odd.

    Every level map is ``E CC E CC E`` (``s = s' = 1``, ``t = t' = 2``, middle
    pad ``E`` keeping ``l_{n+1} = 4 l_n + 3`` odd).  Constraints checked per
    level: unit margins and odd circuit length.
    """
    if l1 < 11 or l1 % 2 == 0:
        raise UsageError(f"mixing family needs odd l1 >= 11, got {l1}")
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    levels: list[LevelMap] = []
    checks = []
    lengths = [l1]
    for k in range(1, depth + 1):
        levels.append(_UNIT_DEEP_MAP.to_level_map())
        nxt = levels[-1].next_length(lengths[-1])
        checks.append(
            {
                "level": k,
                "s": 1,
                "s'": 1,
                "l": str(lengths[-1]),
                "l_odd": lengths[-1] % 2 == 1,
                "parity_pad": "E",
            }
        )
        lengths.append(nxt)
    l2 = lengths[1]
    params = {
        "gen": {"l1": l1, "depth": depth},
        "level_checks": checks,
        "bound": {
            "type": "convergence",
            "scale": rat_to_json(Fraction(12, l2)),
            "ratio": rat_to_json(Fraction(1, 4)),
        },
    }
    return _finish(l1, levels, TAG_MIXING, params)


def gen_weakmix_not_mix_family(l1: int = 3, depth: int = 7) -> CoveringSpec:
    """Staged construction: giant equal margins every third level.

    In-stage levels use ``s = s' = 1, t = 2, t' = 3`` (odd total winding 5).
    At each boundary level ``m`` (``m = 3, 6, 9, ...``, stage base
    ``n = m - 2``) the margins jump to the least integer exceeding
    ``1.5 * len(d(m+1, n))``, which pins the gap sets of non-loop vertices
    away from an explicit window.  Stage records land in the metadata so the
    forbidden-window analysis can find its parameters.
    Certified: ``1 - r(m) >= 1/2`` at every boundary level.
    """
    if l1 < 3 or l1 % 2 == 0:
        raise UsageError(f"weakmix_not_mix family needs odd l1 >= 3, got {l1}")
    if depth < 3:
        raise UsageError(f"depth must be >= 3 to reach the first boundary, got {depth}")
    t_bar = 5
    levels: list[LevelMap] = []
    checks = []
    stages = []
    lengths = [l1]
    stage_base = 1
    tau_cum = 0  # tau(k-1, stage_base) while building level k
    for k in range(1, depth + 1):
        boundary = k == stage_base + 2
        if boundary:
            len_d = t_bar * lengths[-1] - tau_cum
            s = (3 * len_d) // 2 + 1
            stages.append({"m": k, "n": stage_base, "len_d": str(len_d), "s": str(s)})
        else:
            s = 1
        rm = RestrictedLevelMap(s=s, t=2, a_mid="", t2=3, s2=s)
        levels.append(rm.to_level_map())
        nxt = levels[-1].next_length(lengths[-1])
        checks.append(
            {
                "level": k,
                "role": "boundary" if boundary else "stage",
                "s": str(s),
                "s'": str(s),
                "t_bar_odd": t_bar % 2 == 1,
                "l": str(lengths[-1]),
            }
        )
        lengths.append(nxt)
        if boundary:
            stage_base = k + 1
            tau_cum = 0
        else:
            tau_cum += 2 * s
    params = {
        "gen": {"l1": l1, "depth": depth},
        "level_checks": checks,
        "stages": stages,
        "bound": {
            "type": "divergence_on_levels",
            "delta": rat_to_json(Fraction(1, 2)),
            "levels": [st["m"] for st in stages],
        },
    }
    return _finish(l1, levels, TAG_WEAKMIX_NOT_MIX, params)


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
    a = (s,) + (0,) * (t_bar - 1) + (s2,)
    lm = LevelMap(a=a, b=t_bar)
    levels = [lm] * depth
    checks = [
        {"level": k, "s_mod_p": s % p, "s'_mod_p": s2 % p, "l1_mod_p": l1 % p}
        for k in range(1, depth + 1)
    ]
    l2 = lm.next_length(l1)
    params = {
        "gen": {"p": p, "depth": depth, "l1": l1, "s": s, "s2": s2, "t_bar": t_bar},
        "p": p,
        "level_checks": checks,
        "bound": {
            "type": "convergence",
            "scale": rat_to_json(Fraction(s + s2, l1)),
            "ratio": rat_to_json(Fraction(1, t_bar)),
        },
    }
    return _finish(l1, levels, TAG_NOT_WEAKMIX, params)


def gen_uniquely_ergodic_family(l1: int = 2, depth: int = 5) -> CoveringSpec:
    """Margins as heavy as the windings: ``s = s' = 2 l_n`` with ``t = t' = 2``.

    Then ``s_bar(n) = t_bar(n) * l_n`` at every level, so the loop mass
    ``1 - r(n) = 1/2`` exactly and the partial sums diverge: uniquely ergodic
    by the divergence criterion.  Tagged ``custom`` with a divergence bound.
    """
    if l1 < 2:
        raise UsageError(f"l1 must be >= 2, got {l1}")
    if depth < 1:
        raise UsageError(f"depth must be >= 1, got {depth}")
    levels: list[LevelMap] = []
    checks = []
    length = l1
    for k in range(1, depth + 1):
        rm = RestrictedLevelMap(s=2 * length, t=2, a_mid="", t2=2, s2=2 * length)
        levels.append(rm.to_level_map())
        checks.append(
            {"level": k, "s_bar": str(4 * length), "t_bar_times_l": str(4 * length)}
        )
        length = levels[-1].next_length(length)
    params = {
        "gen": {"kind": "uniquely_ergodic", "l1": l1, "depth": depth},
        "level_checks": checks,
        "bound": {"type": "divergence", "delta": rat_to_json(Fraction(1, 2))},
    }
    return _finish(l1, levels, TAG_CUSTOM, params)


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


def extend_family(spec: CoveringSpec, new_depth: int) -> CoveringSpec | None:
    """Regenerate a family spec at greater depth (same construction prefix).

    Returns ``None`` when the spec carries no regenerable construction
    (hand-entered, custom-kind unknown, or telescoped).
    """
    fam = spec.family
    if fam is None or "original_levels" in fam.params:
        return None
    gen_params = fam.params.get("gen")
    if gen_params is None:
        return None
    params = dict(gen_params)
    params["depth"] = max(new_depth, params.get("depth", 1))
    try:
        if fam.tag == TAG_CUSTOM:
            return gen_family(TAG_CUSTOM, **params)
        return gen_family(fam.tag, **params)
    except UsageError:
        return None
