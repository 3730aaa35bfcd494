"""Two-letter substitutions and their factor languages.

The package ships three named substitutions on ``{0, 1}``:

* ``TAU``:   0 -> 001, 1 -> 1
* ``ALPHA``: 0 -> 0010011, 1 -> 1   (the square of ``TAU``)
* ``BETA``:  0 -> 1001001, 1 -> 1

``ALPHA`` and ``BETA`` commute and generate the same factor language; the
iterates of ``BETA`` on ``0`` are exactly the level-1 time rows of the base
covering family (loop steps read as ``1``, circuit steps as ``0``), which is
what :func:`substitution_bridge` checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller

from .covering import expansion_cap
from .errors import ExpansionTooLarge, UsageError
from .report import Report


@dataclass(frozen=True)
class Substitution:
    """A letter-to-word morphism; every image must be nonempty."""

    rules: dict

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(self.rules))

    def problems(self) -> list[str]:
        out = []
        for k, v in self.rules.items():
            if not isinstance(k, str) or len(k) != 1:
                out.append(f"letters must be single characters, got {k!r}")
            if not isinstance(v, str) or not v:
                out.append(f"image of {k!r} must be a nonempty word, got {v!r}")
            elif any(ch not in self.rules for ch in v):
                out.append(f"image of {k!r} uses letters outside the alphabet: {v!r}")
        return out


TAU = Substitution({"0": "001", "1": "1"})
ALPHA = Substitution({"0": "0010011", "1": "1"})
BETA = Substitution({"0": "1001001", "1": "1"})


def apply_word(sub: Substitution, word: str) -> str:
    bad = sub.problems()
    if bad:
        raise UsageError("; ".join(bad))
    table = str.maketrans(sub.rules)
    # Deleting the alphabet leaves the foreign letters in order; translate
    # alone would pass them through unchanged.
    foreign = word.translate(dict.fromkeys(table))
    if foreign:
        raise UsageError(f"letter {foreign[0]!r} outside the alphabet {sub.alphabet}")
    return word.translate(table)


def _image_length(sub: Substitution, word: str) -> int:
    """``len(apply_word(sub, word))`` without building it (``word`` in the alphabet)."""
    return sum(word.count(x) * len(w) for x, w in sub.rules.items())


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution ``x -> outer(inner(x))``."""
    if set(outer.rules) != set(inner.rules):
        raise UsageError("can only compose substitutions on the same alphabet")
    return Substitution({x: apply_word(outer, w) for x, w in inner.rules.items()})


def iterate(sub: Substitution, letter: str, k: int, cap: int | None = None) -> str:
    """The word ``sub^k(letter)`` (``k >= 0``), capped in length."""
    if k < 0:
        raise UsageError(f"k must be >= 0, got {k}")
    bad = sub.problems()
    if bad:
        raise UsageError("; ".join(bad))
    limit = expansion_cap(cap)
    word = letter
    if any(ch not in sub.rules for ch in word):
        raise UsageError(f"seed {letter!r} outside the alphabet {sub.alphabet}")
    table = str.maketrans(sub.rules)
    for _ in range(k):
        grown = _image_length(sub, word)
        if grown > limit:
            raise ExpansionTooLarge(grown, limit, what="substitution iterate")
        word = word.translate(table)
    return word


def windows(word: str, length: int) -> set[str]:
    """All length-``length`` windows of a word (empty set if it is shorter)."""
    return {word[i: i + length] for i in range(len(word) - length + 1)}


@dataclass(frozen=True)
class FactorLanguage:
    """Factors of one length of a seeded substitution; ``iterations`` counts
    the substitution steps run (growth steps of the seed plus closure layers,
    the last, empty layer of a stabilized closure included)."""

    factors: frozenset
    length: int
    stabilized: bool
    stabilized_at: int | None
    iterations: int

    def sorted_words(self) -> list[str]:
        return sorted(self.factors)


def factor_language(
    sub: Substitution, seed: str, length: int, cap: int | None = None
) -> FactorLanguage:
    """Union of the length-``length`` factors of all iterates ``sub^k(seed)``.

    The seed is iterated until it has ``length`` letters, at iterate ``k0``.
    A word that does not grow for ``|A|`` consecutive steps (``A`` the
    alphabet) never grows again: along those steps every letter position
    repeats a letter, so each letter of the word lies on a cycle of
    one-letter images.  Such a seed proves the union empty at that iterate
    (or at once, if it is a fixed word); any other seed grows at least once
    every ``|A| + 1`` steps and reaches ``length`` letters within
    ``length * (|A| + 1)`` steps, unless the cap stops it first.

    From ``G = Fact_L(sub^k0(seed))`` a breadth-first closure then adds one
    iterate per layer.  Images are nonempty, so a window of ``sub(w)`` that
    starts in ``sub(w_i)`` lies in ``sub(w_i ... w_(i+L-1))``.  It is thus a
    window of ``sub(v)`` that starts in ``sub(v[0])`` for the factor
    ``v = w[i: i + L]``, unless it starts in the image of one of the last
    ``L - 1`` letters, and then it is a window of ``sub(T)`` for the
    length-``L`` suffix ``T`` of ``w``.  Layer ``j`` therefore adds, for each
    factor found by layer ``j - 1``, the windows of its image that start in
    the image of its first letter, and the windows of ``sub(T)`` past
    ``sub(T[0])`` for the suffix ``T`` of iterate ``k0 + j - 1``, carried as
    ``T <- sub(T)[-L:]``; ``T`` is a factor, so its windows that start in
    ``sub(T[0])`` are added by the same layer or were by an earlier one.
    Windows of factors found earlier were added by earlier layers, so layer
    ``j`` adds exactly the new factors of iterate ``k0 + j``.  A layer that
    adds nothing leaves ``G`` closed under ``v -> Fact_L(sub(v))``, a fixed
    point that proves the union final.  ``stabilized_at`` is the last
    iterate that added a factor (or the iterate at which a short seed was
    proved never to grow).

    Cost: for ``n`` factors found by the layer before, a layer slices
    ``O(max|sub(x)| * (n + L))`` windows of ``L`` letters, where every
    window of every ``sub(v)`` would be ``O(max|sub(x)| * n * L)``.  When
    exactly one letter ``x`` has ``sub(x) != x`` (as for ``TAU``, ``ALPHA``
    and ``BETA``) images are built by ``str.replace`` of ``x``, a fifth of
    the time of ``str.translate`` on a table of words, which every other
    substitution uses.

    Memory bound: the factor set holds at most ``expansion_cap(cap)``
    letters (``len(factors) * length``; one byte per letter plus about 50
    bytes of ``str`` header per factor).  Past it, or when growing the seed
    would pass the cap, the partial set is returned flagged unstabilized.
    """
    if length < 1:
        raise UsageError(f"factor length must be >= 1, got {length}")
    if length > 65536:
        raise UsageError(f"factor length {length} is too large for the window engine")
    bad = sub.problems()
    if bad:
        raise UsageError("; ".join(bad))
    if any(ch not in sub.rules for ch in seed):
        raise UsageError(f"seed {seed!r} outside the alphabet {sub.alphabet}")
    limit = expansion_cap(cap)
    moved = [x for x, w in sub.rules.items() if w != x]
    if len(moved) == 1:
        image_of = methodcaller("replace", moved[0], sub.rules[moved[0]])
    else:
        image_of = methodcaller("translate", str.maketrans(sub.rules))

    def result(seen, stabilized_at, steps):
        return FactorLanguage(
            factors=frozenset(seen),
            length=length,
            stabilized=stabilized_at is not None,
            stabilized_at=stabilized_at,
            iterations=steps,
        )

    word, k, flat = seed, 0, 0
    while len(word) < length:
        if _image_length(sub, word) > limit:
            return result((), None, k)
        grown = image_of(word)
        if grown == word or flat == len(sub.rules):
            # A word shorter than a window that never grows: the union stays empty.
            return result((), k, k)
        flat = flat + 1 if len(grown) == len(word) else 0
        word, k = grown, k + 1
    heads = {x: range(len(w)) for x, w in sub.rules.items()}
    seen = windows(word, length)
    frontier = seen
    tail = word[-length:]
    while frontier:
        if len(seen) * length > limit:
            return result(seen, None, k)
        image = image_of(tail)
        found = {image[i: i + length] for i in range(len(sub.rules[tail[0]]), len(image) - length + 1)}
        tail = image[-length:]
        for v in frontier:
            image = image_of(v)
            found.update([image[i: i + length] for i in heads[v[0]]])
        frontier = found - seen
        seen |= frontier
        k += 1
    return result(seen, k - 1, k)


@dataclass(frozen=True)
class LanguageComparison(Report):
    equal: bool
    length: int
    left_stabilized_at: int | None
    right_stabilized_at: int | None
    only_left: tuple[str, ...]
    only_right: tuple[str, ...]


def languages_equal(
    left: Substitution,
    left_seed: str,
    right: Substitution,
    right_seed: str,
    length: int,
    cap: int | None = None,
) -> LanguageComparison:
    """Compare stabilized factor sets of two seeded substitutions."""
    a = factor_language(left, left_seed, length, cap=cap)
    b = factor_language(right, right_seed, length, cap=cap)
    only_a = tuple(sorted(a.factors - b.factors)[:8])
    only_b = tuple(sorted(b.factors - a.factors)[:8])
    return LanguageComparison(
        equal=a.stabilized and b.stabilized and a.factors == b.factors,
        length=length,
        left_stabilized_at=a.stabilized_at,
        right_stabilized_at=b.stabilized_at,
        only_left=only_a,
        only_right=only_b,
    )


def commute_check(left: Substitution, right: Substitution) -> bool:
    """Whether ``left . right == right . left`` letterwise."""
    return compose(left, right).rules == compose(right, left).rules


def conjugation_identity(k: int, ell: int, cap: int | None = None) -> bool:
    """Check ``ALPHA^k(1^ell 0) == BETA^k(1^(ell-k) 0 1^k)`` (needs ``ell > k >= 1``)."""
    if not 1 <= k < ell:
        raise UsageError(f"need ell > k >= 1, got k={k}, ell={ell}")
    limit = expansion_cap(cap)
    left = "1" * ell + "0"
    right = "1" * (ell - k) + "0" + "1" * k
    for _ in range(k):
        grown = max(_image_length(ALPHA, left), _image_length(BETA, right))
        if grown > limit:
            raise ExpansionTooLarge(grown, limit, what="conjugation check")
        left = apply_word(ALPHA, left)
        right = apply_word(BETA, right)
    return left == right


@dataclass(frozen=True)
class BridgeReport(Report):
    equal: bool
    length: int
    covering_level_used: int | None
    substitution_stabilized_at: int | None
    covering_size: int
    substitution_size: int
    only_covering: tuple[str, ...]
    only_substitution: tuple[str, ...]


def substitution_bridge(length: int, cap: int | None = None) -> BridgeReport:
    """Compare the base family's level-1 row language with ``BETA``'s language.

    The covering's level-1 time rows, read with loop steps as ``1`` and
    circuit steps as ``0``, should produce exactly the stabilized factor set
    of ``BETA`` seeded at ``0`` (one circuit traversal contributes ``00``).
    """
    from .dynamics import language as covering_language
    from .families import gen_substitution_family

    spec = gen_substitution_family(depth=12)
    cov = covering_language(spec, 1, length, cap=cap)
    cov_words = {w.replace("E", "1").replace("C", "0") for w in cov.words}
    sub = factor_language(BETA, "0", length, cap=cap)
    only_cov = tuple(sorted(cov_words - sub.factors)[:8])
    only_sub = tuple(sorted(sub.factors - cov_words)[:8])
    return BridgeReport(
        equal=cov.stabilized and sub.stabilized and cov_words == sub.factors,
        length=length,
        covering_level_used=cov.stabilized_at,
        substitution_stabilized_at=sub.stabilized_at,
        covering_size=len(cov_words),
        substitution_size=len(sub.factors),
        only_covering=only_cov,
        only_substitution=only_sub,
    )
