"""Data model for rank-2 proximal graph coverings.

A covering is presented by the length of the base circuit (``l1``) together
with one *level map* per level.  The level-``n`` map describes how the circuit
of level ``n+1`` winds through the level-``n`` graph: it is a word over
``{E, C}`` that starts and ends with ``E``, where ``E`` is one traversal of
the level-``n`` loop and ``C`` is one full traversal of the level-``n``
circuit.  Equivalently, the map is the exponent vector ``a = (a0, ..., ab)``
(loop powers) interleaved with ``b`` circuit traversals.

This module holds the spec types, validation, the circuit-length calculus,
telescoping (composing consecutive level maps), and JSON (de)serialization.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Any, Sequence

from .errors import ExpansionTooLarge, UsageError

#: Default cap on materialized symbols / walk entries for any single expansion.
DEFAULT_EXPANSION_CAP = 10**8

#: Environment variable that overrides the default cap.
CAP_ENV_VAR = "PROXRANK2_CAP"


def expansion_cap(override: int | None = None) -> int:
    """Resolve the effective materialization cap.

    Precedence: explicit ``override`` argument, then ``PROXRANK2_CAP`` in the
    environment, then :data:`DEFAULT_EXPANSION_CAP`.
    """
    if override is not None:
        if override < 1:
            raise UsageError(f"cap must be positive, got {override}")
        return override
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            val = int(env)
        except ValueError as exc:
            raise UsageError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
        if val < 1:
            raise UsageError(f"{CAP_ENV_VAR} must be positive, got {val}")
        return val
    return DEFAULT_EXPANSION_CAP


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class RestrictedLevelMap:
    """A level map in the restricted shape ``E^s C^t a_mid C^t2 E^s2``.

    ``s``/``s2`` are the leading/trailing loop powers, ``t``/``t2`` the sizes
    of the two circuit bursts bracketing the middle word ``a_mid`` (itself a
    word over ``{E, C}``, possibly empty).  The d-word calculus and the
    forbidden-window analysis only apply to maps carrying this shape.
    """

    s: int
    t: int
    a_mid: str
    t2: int
    s2: int

    def word(self) -> str:
        return "E" * self.s + "C" * self.t + self.a_mid + "C" * self.t2 + "E" * self.s2

    def to_level_map(self) -> "LevelMap":
        """The same map in run-length form, carrying the restricted fields.

        The loop runs are read off the fields, so huge ``s``/``s'`` exponents
        never materialize a word: ``s``, ``t - 1`` zeros, the runs between the
        ``C``'s of ``a_mid``, ``t' - 1`` zeros and ``s'``.
        """
        mid = [len(run) for run in self.a_mid.split("C")]
        a = (self.s, *[0] * (self.t - 1), *mid, *[0] * (self.t2 - 1), self.s2)
        return LevelMap(a=a, b=len(a) - 1, restricted=self)

    @property
    def s_bar(self) -> int:
        """Total loop power of the map (``s + s2`` plus loops inside ``a_mid``)."""
        return self.s + self.s2 + self.a_mid.count("E")

    @property
    def t_bar(self) -> int:
        """Total winding number of the map (``t + t2`` plus circuits inside ``a_mid``)."""
        return self.t + self.t2 + self.a_mid.count("C")

    def problems(self) -> list[str]:
        out = []
        for name in ("s", "t", "t2", "s2"):
            v = getattr(self, name)
            if not _is_int(v):
                out.append(f"restricted field {name} must be an int, got {v!r}")
        if not out:
            if self.s < 1 or self.s2 < 1:
                out.append("restricted form needs s >= 1 and s' >= 1")
            if self.t < 2 or self.t2 < 2:
                out.append("restricted form needs t >= 2 and t' >= 2")
        if not isinstance(self.a_mid, str) or any(ch not in "EC" for ch in self.a_mid):
            out.append(f"a_mid must be a word over {{E, C}}, got {self.a_mid!r}")
        return out


@dataclass(frozen=True)
class LevelMap:
    """One level of the presentation: loop exponents ``a`` around ``b`` windings.

    ``a`` has ``b + 1`` entries; ``a[0]`` and ``a[-1]`` are the margins of the
    map and must be positive for the presentation to be in reduced form.  The
    constructor is permissive (it only freezes the data); use
    :meth:`problems` or :func:`validate` to check the invariants.
    """

    a: tuple[int, ...]
    b: int
    restricted: RestrictedLevelMap | None = None

    @classmethod
    def from_word(cls, word: str, restricted: RestrictedLevelMap | None = None) -> "LevelMap":
        """Run-length parse of an {E, C} word: the loop runs around its ``C``'s."""
        if not word or any(ch not in "EC" for ch in word):
            raise UsageError(f"level-map word must be a nonempty word over {{E, C}}, got {word!r}")
        a = tuple(len(run) for run in word.split("C"))
        return cls(a=a, b=len(a) - 1, restricted=restricted)

    def word(self) -> str:
        parts = ["E" * self.a[0]]
        for j in range(1, self.b + 1):
            parts.append("C")
            parts.append("E" * self.a[j])
        return "".join(parts)

    @property
    def a_total(self) -> int:
        return sum(self.a)

    def next_length(self, l_n: int) -> int:
        """Circuit length one level up: ``l_{n+1} = sum(a) + b * l_n``."""
        return self.a_total + self.b * l_n

    def problems(self) -> list[str]:
        out = []
        if not _is_int(self.b) or self.b < 1:
            out.append(f"winding number b must be an int >= 1, got {self.b!r}")
            return out
        if not isinstance(self.a, tuple) or len(self.a) != self.b + 1:
            out.append(f"a must be a tuple of b+1={self.b + 1} entries, got {self.a!r}")
            return out
        for j, v in enumerate(self.a):
            if not _is_int(v) or v < 0:
                out.append(f"a[{j}] must be a nonnegative int, got {v!r}")
        if not out:
            if self.a[0] < 1:
                out.append("leading margin a[0] must be >= 1 (reduced form)")
            if self.a[-1] < 1:
                out.append(f"trailing margin a[{self.b}] must be >= 1 (reduced form)")
        if self.restricted is not None:
            out.extend(self.restricted.problems())
            if not out:
                rform = self.restricted.to_level_map()
                if (rform.a, rform.b) != (self.a, self.b):
                    out.append("restricted fields disagree with the (a, b) data")
        return out


@dataclass(frozen=True)
class FamilyInfo:
    """Optional provenance of a generated spec: a tag plus generator parameters.

    ``params`` holds the generator's arguments (``gen``) and, after
    :func:`telescope`, the original level of each kept circuit
    (``original_levels``).  It certifies nothing by itself:
    :func:`proxrank2.families.recognize` regenerates the construction and
    checks the presented levels against it.  Other keys are kept and ignored.
    """

    tag: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CoveringSpec:
    """A finite presentation: base circuit length plus one map per level.

    ``levels[k]`` is the map of level ``k+1`` (1-based level ``n`` has map
    ``levels[n-1]``, describing circuit ``n+1`` over graph ``n``).  A spec of
    depth ``D`` presents circuit lengths for levels ``1 .. D+1``.

    The spec is immutable, so its per-level tables are built once, on first
    use, at one int per level each:

    * :attr:`lengths` holds ``l_1 .. l_{D+1}`` (read by
      :func:`circuit_length` and the seed descent);
    * :attr:`windings` holds the winding products ``B(1, 1) .. B(D+1, 1)``
      (read by :func:`winding_product` and the classifier);
    * :attr:`loop_totals` holds the loop steps ``sum(a)`` of each map (read
      by the seed descent and the loop-mass classifier);
    * :attr:`run_ends` marks the runs of levels with equal loop runs, which
      the gap engine steps over at once.

    :attr:`family_record` holds what the family construction certifies,
    checked once.

    Loading lets through maps that :func:`validate` rejects.  Building
    :attr:`lengths` checks the shape of every map once, so code that reads a
    length may walk the slots of any map: ``b >= 1`` windings and ``b + 1``
    loop runs ``>= 0``.
    """

    l1: int
    levels: tuple[LevelMap, ...]
    family: FamilyInfo | None = None

    @property
    def depth(self) -> int:
        return len(self.levels)

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """Circuit lengths ``l_1 .. l_{depth+1}`` by ``l_{n+1} = sum(a) + b l_n``.

        Raises :class:`UsageError` naming the first level whose map has no
        winding, a loop-run list of the wrong size or a negative loop run.
        """
        out = [self.l1]
        for n, lm in enumerate(self.levels, start=1):
            if lm.b < 1:
                raise UsageError(f"level {n}: winding number b must be >= 1, got {lm.b}")
            if len(lm.a) != lm.b + 1:
                raise UsageError(f"level {n}: a must have b+1={lm.b + 1} entries, got {len(lm.a)}")
            if min(lm.a) < 0:
                raise UsageError(f"level {n}: loop runs a must be >= 0, got {min(lm.a)}")
            out.append(lm.next_length(out[-1]))
        if min(out) < 1:
            raise UsageError(f"circuit {out.index(min(out)) + 1} has length < 1 (see validate)")
        return tuple(out)

    @cached_property
    def windings(self) -> tuple[int, ...]:
        """Winding products ``B(k, 1) = b(1) ... b(k - 1)`` for ``k = 1 .. depth+1``.

        Raises the :class:`UsageError` of :attr:`lengths` on a malformed map.
        """
        self.lengths  # checks the shape of every map
        return tuple(accumulate((lm.b for lm in self.levels), mul, initial=1))

    @cached_property
    def loop_totals(self) -> tuple[int, ...]:
        """Loop steps ``sum(a)`` of the maps of levels ``1 .. depth``: one int per level.

        Raises the :class:`UsageError` of :attr:`lengths` on a malformed map.
        """
        self.lengths  # checks the shape of every map
        return tuple(sum(lm.a) for lm in self.levels)

    @cached_property
    def run_ends(self) -> tuple[int, ...]:
        """Entry ``k - 1``: the first level past ``k`` whose loop runs ``a`` differ from level ``k``'s.

        ``depth + 1`` when every later level has the same ``a``.  Levels ``k
        .. run_ends[k - 1] - 1`` share ``a`` (and so ``b``), whatever their
        restricted data.  Built once per spec, back to front, one comparison
        per level.
        """
        ends = [self.depth + 1] * self.depth
        for k in range(self.depth - 1, 0, -1):  # level k against level k + 1
            cur, nxt = self.levels[k - 1], self.levels[k]
            ends[k - 1] = ends[k] if nxt is cur or nxt.a == cur.a else k + 1
        return tuple(ends)

    @cached_property
    def family_record(self):
        """:func:`proxrank2.families.recognize` of this spec, computed once."""
        from .families import recognize  # families imports this module
        return recognize(self)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]
    warnings: tuple[str, ...]
    level_summaries: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "problems": list(self.problems),
            "warnings": list(self.warnings),
            "levels": list(self.level_summaries),
        }


def validate(spec: CoveringSpec) -> ValidationReport:
    """Check every presentation invariant and collect warnings.

    Invalid data never raises here: all failures are reported.  A winding
    number of 1 at some level yields a warning (such a level does not refine
    the partition into a Cantor set on its own), not an error.  Each
    distinct map object is checked once per call; the messages are still
    given per level.
    """
    problems: list[str] = []
    warnings: list[str] = []
    summaries: list[str] = []
    if not _is_int(spec.l1) or spec.l1 < 2:
        problems.append(f"l1 must be an int >= 2, got {spec.l1!r}")
    # Generated specs repeat one map object, which is checked once.  Keyed
    # by id, not by value: a map loaded from JSON may hold unhashable fields.
    checked: dict[int, list[str]] = {}
    for idx, lm in enumerate(spec.levels, start=1):
        lp = checked.get(id(lm))
        if lp is None:
            lp = checked[id(lm)] = lm.problems()
        for p in lp:
            problems.append(f"level {idx}: {p}")
        if not lp:
            if lm.b == 1:
                warnings.append(
                    f"level {idx}: b=1 (a single winding refines no partition; "
                    "the system is Cantor only if b >= 2 at infinitely many levels)"
                )
            shape = "restricted" if lm.restricted is not None else "general"
            summaries.append(f"level {idx}: ok ({shape}, b={lm.b}, sum(a)={lm.a_total})")
        else:
            summaries.append(f"level {idx}: INVALID ({len(lp)} problem(s))")
    return ValidationReport(
        ok=not problems,
        problems=tuple(problems),
        warnings=tuple(warnings),
        level_summaries=tuple(summaries),
    )


def level_map(spec: CoveringSpec, n: int) -> LevelMap:
    """The map of level ``n`` (the word of circuit ``n+1`` over graph ``n``)."""
    if not 1 <= n <= spec.depth:
        raise UsageError(f"level map index {n} outside presented range 1..{spec.depth}")
    return spec.levels[n - 1]


def circuit_length(spec: CoveringSpec, n: int) -> int:
    """Length of the level-``n`` circuit; presented levels are ``1 .. depth+1``.

    A lookup in the spec's length table (:attr:`CoveringSpec.lengths`, one
    int per level, built once per spec).
    """
    if not 1 <= n <= spec.depth + 1:
        raise UsageError(f"circuit level {n} outside presented range 1..{spec.depth + 1}")
    return spec.lengths[n - 1]


def winding_product(spec: CoveringSpec, m: int, n: int) -> int:
    """Number of level-``n`` circuit traversals inside one level-``m`` circuit.

    One exact division of two entries of the winding table
    (:attr:`CoveringSpec.windings`): ``B(m, n) = B(m, 1) / B(n, 1)``.
    """
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    return spec.windings[m - 1] // spec.windings[n - 1]


def symbol_count(spec: CoveringSpec, m: int, n: int) -> int:
    """Symbols in the level-``n`` word of the level-``m`` circuit (E's plus C's)."""
    big_b = winding_product(spec, m, n)
    return big_b + (circuit_length(spec, m) - big_b * circuit_length(spec, n))


def compose_word(spec: CoveringSpec, m: int, n: int, cap: int | None = None) -> str:
    """Word of the level-``m`` circuit over graph ``n`` (allows ``m == n`` -> "C")."""
    if not 1 <= n <= m <= spec.depth + 1:
        raise UsageError(f"need 1 <= n <= m <= {spec.depth + 1}, got n={n}, m={m}")
    limit = expansion_cap(cap)
    need = symbol_count(spec, m, n)
    if need > limit:
        raise ExpansionTooLarge(need, limit, what=f"word of circuit {m} over level {n}")
    word = "C"
    for k in range(m - 1, n - 1, -1):
        word = word.replace("C", level_map(spec, k).word())
    return word


def telescope(spec: CoveringSpec, keep_levels: Sequence[int], cap: int | None = None) -> CoveringSpec:
    """Compose consecutive level maps, retaining only the listed levels.

    ``keep_levels`` must be strictly increasing presented levels; the result
    presents the same circuits at the retained levels.  Keeping every
    presented level returns the spec unchanged.

    The map between kept neighbours ``lo < hi`` is composed from loop runs,
    never spelled: with ``r`` the runs of circuit ``k`` over level ``lo``,
    circuit ``k + 1`` has ``[a_0 + r_0, inner, r_B + a_1 + r_0, inner, ..,
    r_B + a_b]`` (``inner = r[1:-1]``).  Memory: the ``B(hi, lo) + 1`` ints
    of each map, which ``cap`` bounds before it is built.
    """
    keep = list(keep_levels)
    if not keep:
        raise UsageError("keep_levels must be nonempty")
    if any(keep[i] >= keep[i + 1] for i in range(len(keep) - 1)):
        raise UsageError(f"keep_levels must be strictly increasing, got {keep}")
    if keep[0] < 1 or keep[-1] > spec.depth + 1:
        raise UsageError(
            f"keep_levels must lie in the presented range 1..{spec.depth + 1}, got {keep}"
        )
    if keep == list(range(1, spec.depth + 2)):
        return spec
    limit = expansion_cap(cap)
    new_levels: list[LevelMap] = []
    for lo, hi in zip(keep, keep[1:]):
        if hi == lo + 1:
            new_levels.append(spec.levels[lo - 1])
            continue
        need = winding_product(spec, hi, lo) + 1
        if need > limit:
            raise ExpansionTooLarge(need, limit, what=f"loop runs of circuit {hi} over level {lo}")
        runs = [0, 0]  # circuit lo over itself: one C
        for lm in spec.levels[lo - 1: hi - 1]:
            inner = runs[1:-1]
            out = [lm.a[0] + runs[0]]
            for x in lm.a[1:-1]:
                out += [*inner, runs[-1] + x + runs[0]]
            runs = out + inner + [runs[-1] + lm.a[-1]]
        new_levels.append(LevelMap(a=tuple(runs), b=len(runs) - 1))
    family = spec.family
    if family is not None:
        original = family.params.get("original_levels")
        if original is None:
            original = list(range(1, spec.depth + 2))
        params = dict(family.params)
        params["original_levels"] = [original[k - 1] for k in keep]
        family = FamilyInfo(tag=family.tag, params=params)
    return CoveringSpec(l1=circuit_length(spec, keep[0]), levels=tuple(new_levels), family=family)


# --------------------------------------------------------------------------
# JSON (de)serialization
# --------------------------------------------------------------------------

def level_map_to_dict(lm: LevelMap) -> dict:
    if lm.restricted is not None:
        r = lm.restricted
        return {"s": r.s, "t": r.t, "a_mid": r.a_mid, "t'": r.t2, "s'": r.s2}
    return {"a": list(lm.a), "b": lm.b}


def level_map_from_dict(d: dict) -> LevelMap:
    """A level map from JSON, type-checked; value ranges are :func:`validate`'s."""
    if not isinstance(d, dict):
        raise UsageError(f"a level map must be a JSON object, got {type(d).__name__}")
    if "s" in d:
        if not {"t", "t'", "s'"} <= d.keys():
            raise UsageError("a restricted level map needs keys s, t, t' and s'")
        r = RestrictedLevelMap(s=d["s"], t=d["t"], a_mid=d.get("a_mid", ""), t2=d["t'"], s2=d["s'"])
        bad = r.problems()
        if not bad and r.t_bar > expansion_cap():
            bad.append("restricted map winds more often than the expansion cap allows")
        if bad:
            raise UsageError("; ".join(bad))
        return r.to_level_map()
    a, b = d.get("a"), d.get("b")
    if not (isinstance(a, list) and a and all(map(_is_int, a)) and _is_int(b)):
        raise UsageError("a level map needs 'a', a nonempty list of ints, and 'b', an int")
    return LevelMap(a=tuple(a), b=b)


def spec_to_dict(spec: CoveringSpec) -> dict:
    out: dict[str, Any] = {
        "l1": spec.l1,
        "levels": [level_map_to_dict(lm) for lm in spec.levels],
        "family": None,
    }
    if spec.family is not None:
        out["family"] = {"tag": spec.family.tag, "params": spec.family.params}
    return out


def spec_from_dict(d: dict) -> CoveringSpec:
    if not (isinstance(d, dict) and {"l1", "levels"} <= d.keys()):
        raise UsageError("a spec needs keys 'l1' and 'levels'")
    l1, raw_levels = d["l1"], d["levels"]
    if not _is_int(l1):
        raise UsageError(f"l1 must be an int, got {type(l1).__name__}")
    if not isinstance(raw_levels, list):
        raise UsageError(f"'levels' must be a list, got {type(raw_levels).__name__}")
    levels = []
    for idx, raw in enumerate(raw_levels, start=1):
        try:
            levels.append(level_map_from_dict(raw))
        except UsageError as exc:
            raise UsageError(f"level {idx}: {exc}") from exc
    family = None
    fam = d.get("family")
    if fam:
        if not (
            isinstance(fam, dict)
            and isinstance(fam.get("tag"), str)
            and isinstance(fam.get("params"), dict)
        ):
            raise UsageError("family metadata needs a string 'tag' and a dict 'params'")
        family = FamilyInfo(tag=fam["tag"], params=dict(fam["params"]))
    return CoveringSpec(l1=l1, levels=tuple(levels), family=family)


def spec_to_json(spec: CoveringSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))


def spec_from_json(text: str) -> CoveringSpec:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise UsageError(f"invalid spec JSON: {exc}") from exc
    return spec_from_dict(data)
