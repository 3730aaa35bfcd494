"""Reference answers that do not come from the code path under test.

Every function here rebuilds its answer from the raw covering data
(``spec.l1`` and each level's ``a``/``b`` exponents) or from the paper's
closed forms.  The only library code it uses is the data classes and the
family generators, which define the inputs; none of the engines under test
is called.  The benchmark compares each timed answer against these after
the timed phase.
"""
from __future__ import annotations

import hashlib

import numpy as np

#: The paper's verdict table: family tag -> (verdict, certified).
VERDICTS = {
    "substitution": ("TwoErgodic", True),
    "mixing": ("TwoErgodic", True),
    "not_weakmix": ("TwoErgodic", True),
    "weakmix_not_mix": ("UniquelyErgodic", True),
    "uniquely_ergodic": ("UniquelyErgodic", True),
    "hand": ("Undetermined", False),
}

#: Stripped-word lengths len(d(m+1, n)) of the staged family (l1 = 3) at its
#: two first stage boundaries, as printed in the paper.
STAGE_LENGTHS = {3: 431, 6: 216181}


def digest(data) -> str:
    """Short stable digest of bytes, a string, or a sequence of strings."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.int64).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, (bytes, bytearray)):
        data = "\n".join(sorted(data)).encode()
    return hashlib.sha256(data).hexdigest()[:16]


# --------------------------------------------------------------------------
# Length calculus
# --------------------------------------------------------------------------

def lengths(spec, top: int) -> list[int]:
    """``[None, l_1, ..., l_top]`` from the raw exponents."""
    out = [None, spec.l1]
    for k in range(1, top):
        lm = spec.levels[k - 1]
        out.append(sum(lm.a) + lm.b * out[-1])
    return out


def closed_form_length(tag: str, l1: int, n: int) -> int | None:
    """The paper's closed forms: ``2^(2n-1)-1`` (substitution, n >= 2) and
    ``(l1+1) 4^(n-1) - 1`` (mixing)."""
    if tag == "substitution" and n >= 2:
        return 2 ** (2 * n - 1) - 1
    if tag == "mixing":
        return (l1 + 1) * 4 ** (n - 1) - 1
    return None


def winding(spec, m: int, n: int) -> int:
    prod = 1
    for k in range(n, m):
        prod *= spec.levels[k - 1].b
    return prod


# --------------------------------------------------------------------------
# Positions: seeds and Bratteli paths
# --------------------------------------------------------------------------

def decode_position(spec, top: int, pos: int, ls: list[int]) -> tuple[tuple[int, ...], int]:
    """Slot path (base level 1 first) and base offset of an absolute time."""
    slots: list[int] = []
    rem = pos
    in_loop = False
    for k in range(top - 1, 0, -1):
        if in_loop:
            slots.append(0)
            continue
        a = spec.levels[k - 1].a
        slot = 0
        for j, run in enumerate(a):
            if rem < run:
                slot += rem
                in_loop = True
                rem = 0
                break
            rem -= run
            slot += run
            if j == len(a) - 1:
                raise ValueError("position outside the circuit")
            if rem < ls[k]:
                break
            rem -= ls[k]
            slot += 1
        slots.append(slot)
    slots.reverse()
    return tuple(slots), rem


def path_ordinals(spec, rows: int, pos: int, ls: list[int]) -> tuple[int, ...]:
    """Ordinals of the path into the row-``rows`` circuit vertex at ``pos``."""
    slots, offset = decode_position(spec, rows, pos, ls)
    return (offset + 1,) + tuple(s + 1 for s in slots)


# --------------------------------------------------------------------------
# Walks and gap tables
# --------------------------------------------------------------------------

def _expand(base: np.ndarray, a, cap: int | None = None) -> np.ndarray:
    """``0^a0 base 0^a1 base ... 0^ab`` with zero runs optionally capped."""
    parts = []
    for j, run in enumerate(a):
        run = run if cap is None else min(run, cap)
        if run:
            parts.append(np.zeros(run, dtype=np.int64))
        if j < len(a) - 1:
            parts.append(base)
    return np.concatenate(parts)


def vertex_walk(spec, m: int, n: int) -> np.ndarray:
    """Level-``n`` vertex walk of circuit ``m``: 0, then one entry per step."""
    l_n = lengths(spec, n)[n]
    x = np.arange(1, l_n + 1, dtype=np.int64) % l_n
    for k in range(n, m):
        x = _expand(x, spec.levels[k - 1].a)
    return np.concatenate(([0], x))


def _mark(table: np.ndarray, arr: np.ndarray, width: int) -> None:
    """Mark every pair ``(arr[i], arr[i + g])`` with ``1 <= g <= width``."""
    w = min(width, arr.size - 1)
    if w < 1:
        return
    i = np.arange(arr.size)[:, None]
    j = i + np.arange(1, w + 1)[None, :]
    inside = j < arr.size
    i, j = np.broadcast_to(i, j.shape)[inside], j[inside]
    table[arr[i], arr[j], j - i] = True


def gap_table(spec, m: int, n: int, width: int) -> np.ndarray:
    """``T[u, v, g]``: some ``u`` is followed ``g <= width`` steps later by ``v``.

    Walks ``X_{k+1} = 0^a0 X_k 0^a1 ... 0^ab`` level by level.  While a copy
    is short it is kept whole (zero runs capped at ``width + 1``, which keeps
    every pair at distance ``<= width``); once it is longer than four windows
    only its first and last ``width`` entries matter, because a pair at
    distance ``<= width`` crosses at most one junction.
    """
    l_n = lengths(spec, n)[n]
    table = np.zeros((l_n, l_n, width + 1), dtype=bool)
    w1 = width + 1
    exact = np.arange(1, l_n + 1, dtype=np.int64) % l_n
    head = tail = None
    for k in range(n, m):
        a = spec.levels[k - 1].a
        if exact is not None and exact.size < 4 * w1:
            exact = _expand(exact, a, cap=w1)
            continue
        if exact is not None:
            _mark(table, exact, width)
            head, tail = exact[:width], exact[-width:]
            exact = None
        for run in sorted({min(r, w1) for r in a[1:-1]}):
            _mark(table, np.concatenate((tail, np.zeros(run, dtype=np.int64), head)), width)
        lead = np.zeros(min(a[0], w1), dtype=np.int64)
        trail = np.zeros(min(a[-1], w1), dtype=np.int64)
        _mark(table, np.concatenate((lead, head)), width)
        _mark(table, np.concatenate((tail, trail)), width)
        head = np.concatenate((lead, head))[:width]
        tail = np.concatenate((tail, trail))[-width:]
    _mark(table, np.concatenate(([0], exact if exact is not None else head)), width)
    return table


def gaps(table: np.ndarray, u: int, v: int) -> tuple[int, ...]:
    return tuple(int(g) for g in np.flatnonzero(table[u, v]) if g >= 1)


def step_symbols(walk: np.ndarray, start: int, span: int) -> np.ndarray:
    w0 = walk[start:start + span]
    w1 = walk[start + 1:start + span + 1]
    return np.where((w0 == 0) & (w1 == 0), ord("E"), ord("C"))


# --------------------------------------------------------------------------
# Words
# --------------------------------------------------------------------------

def level_word(lm) -> str:
    return "C".join("E" * run for run in lm.a)


def symbol_word(spec, m: int, n: int) -> str:
    """Symbol word of circuit ``m`` over graph ``n``, composed top-down."""
    word = "C"
    for k in range(m - 1, n - 1, -1):
        word = word.replace("C", level_word(spec.levels[k - 1]))
    return word


def margins(spec, m: int, n: int) -> tuple[int, int]:
    """Cumulative restricted margins ``s``, ``s'`` over levels ``n .. m-1``."""
    s = sum(spec.levels[k - 1].restricted.s for k in range(n, m))
    s2 = sum(spec.levels[k - 1].restricted.s2 for k in range(n, m))
    return s, s2


# --------------------------------------------------------------------------
# Factor languages
# --------------------------------------------------------------------------

def _windows(word: str, length: int) -> set[str]:
    return {word[i:i + length] for i in range(len(word) - length + 1)}


def row_language(levels_of, l1: int, length: int) -> frozenset:
    """Length-``length`` factors of every level-1 time row of a covering.

    ``levels_of(depth)`` returns at least ``depth`` level maps.  Rows are the
    words ``X_1 = C^l1`` and ``X_{k+1} = E^a0 X_k E^a1 ... E^ab``.  Every
    factor is a substring of a word built here: a whole row while rows are
    short, then the junction words ``tail + E^r + head`` and the margin
    words.  Each level prepends and appends at least one ``E``, so the first
    and last ``length`` letters of a row become all ``E`` after at most
    ``length`` abstract levels; from then on every new window is all ``E``
    and the set is final (a fixed point, not a heuristic).
    """
    cap = length
    row = "C" * l1
    words: set[str] = set()
    head = tail = None
    depth = 2 * length + 8
    levels = levels_of(depth)
    k = 0
    allE = "E" * length
    while True:
        if k >= len(levels):
            depth *= 2
            levels = levels_of(depth)
        a = levels[k].a
        k += 1
        if row is not None and len(row) < 4 * length:
            row = "C".join("E" * min(r, cap) for r in a).replace("C", row)
            continue
        if row is not None:
            words |= _windows(row, length)
            head, tail = row[:length], row[-length:]
            row = None
        for run in {min(r, cap) for r in a[1:-1]}:
            words |= _windows(tail + "E" * run + head, length)
        lead, trail = "E" * min(a[0], cap), "E" * min(a[-1], cap)
        words |= _windows(lead + head, length)
        words |= _windows(tail + trail, length)
        head = (lead + head)[:length]
        tail = (tail + trail)[-length:]
        if head == allE and tail == allE:
            return frozenset(words)


def base_language_01(length: int) -> frozenset:
    """Factors of the base family's rows relettered ``E -> 1, C -> 0``.

    By the paper's bridge (and ``tau^2 = alpha``, ``alpha``/``beta``
    commuting) this is also the factor language of ``tau``, ``alpha`` and
    ``beta`` seeded at ``0``.
    """
    from proxrank2 import gen_substitution_family

    words = row_language(lambda d: gen_substitution_family(depth=d).levels, 2, length)
    return frozenset(w.replace("E", "1").replace("C", "0") for w in words)
