"""Seeded random spec generators shared by the test modules.

Two shapes are produced: specs whose every level is in the restricted form
(so the margin-stripping recursion applies), and plain reduced specs with
arbitrary loop exponents.  Both keep circuit lengths small enough to
materialize, and both are deterministic in the supplied RNG.
:data:`reduced_specs` is a hypothesis strategy for deep reduced specs whose
lengths are never materialized.  :func:`walk_gaps` is the reference that the
gap engine is checked against: the realized gaps read off a materialized walk.
"""
from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from proxrank2 import CoveringSpec, LevelMap, RestrictedLevelMap, circuit_length
from proxrank2.expansion import _walk_array


def random_restricted_spec(
    rng: random.Random, max_depth: int = 6, max_length: int = 10**6
) -> CoveringSpec:
    """A spec whose every level map has the ``E^s C^t mid C^t' E^s'`` shape."""
    l1 = rng.choice((2, 3, 4, 5, 7))
    depth = rng.randint(3, max_depth)
    levels: list[LevelMap] = []
    length = l1
    for _ in range(depth):
        placed = False
        for _ in range(40):
            rm = RestrictedLevelMap(
                s=rng.randint(1, 4),
                t=rng.randint(2, 4),
                a_mid="".join(rng.choice("EC") for _ in range(rng.randint(0, 4))),
                t2=rng.randint(2, 4),
                s2=rng.randint(1, 4),
            )
            lm = rm.to_level_map()
            nxt = lm.next_length(length)
            if nxt <= max_length:
                levels.append(lm)
                length = nxt
                placed = True
                break
        if not placed:
            break
    return CoveringSpec(l1=l1, levels=tuple(levels))


def random_plain_spec(
    rng: random.Random, depth: int = 5, max_length: int = 10**6
) -> CoveringSpec:
    """A reduced spec with free-form loop exponents (not restricted)."""
    l1 = rng.randint(2, 6)
    levels: list[LevelMap] = []
    length = l1
    for _ in range(depth):
        for _ in range(40):
            b = rng.randint(1, 4)
            a = tuple(
                rng.randint(1, 3) if j in (0, b) else rng.randint(0, 3)
                for j in range(b + 1)
            )
            lm = LevelMap(a=a, b=b)
            nxt = lm.next_length(length)
            if nxt <= max_length:
                levels.append(lm)
                length = nxt
                break
        else:
            break
    return CoveringSpec(l1=l1, levels=tuple(levels))


def permissive_level(b: int):
    """Level maps of ``b`` windings, every loop run 0-3: zero margins and zero inner runs allowed."""
    return st.lists(st.integers(0, 3), min_size=b + 1, max_size=b + 1).map(
        lambda a: LevelMap(a=tuple(a), b=b)
    )


def _level_maps(b: int):
    inner = st.lists(st.integers(0, 5), min_size=b - 1, max_size=b - 1)
    return st.tuples(st.integers(1, 5), inner, st.integers(1, 5)).map(
        lambda t: LevelMap(a=(t[0], *t[1], t[2]), b=b)
    )


#: Reduced specs of 1-40 levels with windings 1-4 and margins >= 1.
reduced_specs = st.builds(
    lambda l1, levels: CoveringSpec(l1=l1, levels=tuple(levels)),
    st.integers(2, 9),
    st.integers(1, 40).flatmap(
        lambda depth: st.lists(
            st.integers(1, 4).flatmap(_level_maps), min_size=depth, max_size=depth
        )
    ),
)


def raw_lengths(spec: CoveringSpec) -> list[int]:
    """Circuit lengths ``l_1 .. l_{depth+1}`` by the recurrence, from scratch."""
    out = [spec.l1]
    for lm in spec.levels:
        out.append(sum(lm.a) + lm.b * out[-1])
    return out


def walk_gaps(spec: CoveringSpec, m: int, n: int, max_gap: int, u=None, v=None) -> np.ndarray:
    """The realized gaps of the level-``n`` walk of circuit ``m``, read off the walk gap by gap.

    Returns the bool table ``T[u, v, g]`` over every vertex pair and
    ``g = 0 .. max_gap``, or, given ``u`` and ``v``, the row of that pair.
    Gap ``g`` is realized when some entry ``i`` of the walk is ``u`` and
    entry ``i + g`` is ``v``; ``g = 0`` never counts.
    """
    walk = _walk_array(spec, m, n, cap=10**9)
    gaps = range(1, min(max_gap, walk.size - 1) + 1)
    if u is not None:
        row = np.zeros(max_gap + 1, dtype=bool)
        is_u, is_v = walk == u, walk == v
        for g in gaps:
            row[g] = np.any(is_u[:-g] & is_v[g:])
        return row
    l_n = circuit_length(spec, n)
    table = np.zeros((l_n, l_n, max_gap + 1), dtype=bool)
    for g in gaps:
        table[walk[:-g], walk[g:], g] = True
    return table
