"""Seeded query lists for the benchmark's workloads.

A workload is a list of :class:`Query` objects built from one seed.  Sizes
(depths, rows, lengths, window widths) follow a fixed ladder of rungs per
query kind, with a small seeded jitter on every rung but the largest, so that
runs with different seeds do the same amount of work; the seed draws
everything else that does not change the cost (positions, vertex pairs,
window widths, starting depths, sampling seeds, random restricted and
hand-entered specs, and the order of the queries).  The library only ever sees
the generated inputs.

Each query carries three callables: ``call`` (the timed library call),
``answer`` (reduces the result to a small comparable value, outside the
timer) and ``expect`` (the reference answer, computed after the timed phase
by :mod:`refs`, never by the code path under test).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import proxrank2 as P

import refs

TAGS = ("substitution", "mixing", "not_weakmix", "weakmix_not_mix", "uniquely_ergodic")


@dataclass
class Query:
    kind: str
    params: tuple
    call: Callable[[], Any]
    answer: Callable[[Any], Any]
    expect: Callable[[], Any]
    first: bool = False  # run at the head of every pass (see build)


def _jitter(rng: random.Random, rungs, spread, fixed_from=None) -> list[int]:
    """Rungs moved by up to ``spread``; rungs ``>= fixed_from`` stay put.

    ``fixed_from`` defaults to the largest rung.  Rungs whose cost grows
    steeply with the size are kept fixed, or the work would vary by seed.
    """
    top = max(rungs) if fixed_from is None else fixed_from
    return [r if r >= top else r + rng.randint(-spread, spread) for r in rungs]


def _family(tag: str, depth: int):
    """A family spec with the generator's default parameters.

    Seeds never change a family's parameters: the cost of every query kind
    grows with l1 and with the margins, so a seeded parameter would change
    the amount of work from one seed to the next.
    """
    if tag == "uniquely_ergodic":
        return P.gen_uniquely_ergodic_family(depth=depth)
    return P.gen_family(tag, depth=depth)


def _hand_spec(rng: random.Random, depth: int):
    """A reduced spec with no family metadata (the classifier cannot certify it)."""
    levels = []
    for _ in range(depth):
        b = rng.randint(2, 4)
        a = tuple(rng.randint(1, 3) if j in (0, b) else rng.randint(0, 3) for j in range(b + 1))
        levels.append(P.LevelMap(a=a, b=b))
    return P.CoveringSpec(l1=rng.randint(2, 6), levels=tuple(levels))


def _restricted_spec(rng: random.Random, max_length: int = 10**6):
    """A spec whose every level has the restricted shape ``E^s C^t mid C^t' E^s'``."""
    l1 = rng.choice((2, 3, 4, 5, 7))
    levels, length = [], l1
    for _ in range(rng.randint(3, 6)):
        for _ in range(40):
            rm = P.RestrictedLevelMap(
                s=rng.randint(1, 4), t=rng.randint(2, 4),
                a_mid="".join(rng.choice("EC") for _ in range(rng.randint(0, 4))),
                t2=rng.randint(2, 4), s2=rng.randint(1, 4),
            )
            lm = rm.to_level_map()
            if lm.next_length(length) <= max_length:
                levels.append(lm)
                length = lm.next_length(length)
                break
    return P.CoveringSpec(l1=l1, levels=tuple(levels))


# --------------------------------------------------------------------------
# deep: exact arithmetic at depth, almost nothing materialized
# --------------------------------------------------------------------------

def deep(rng: random.Random) -> list[Query]:
    specs = {tag: _family(tag, 800) for tag in TAGS}
    mix = specs["mixing"]
    l1 = mix.l1
    qs: list[Query] = []

    def classify(tag, spec, d):
        def expect():
            ls = refs.lengths(spec, d + 1)
            closed = refs.closed_form_length(tag, spec.l1, d + 1) or ls[d + 1]
            return refs.VERDICTS[tag] + (d, Fraction(sum(spec.levels[d - 1].a), closed))
        return Query(
            "classify", (tag, d),
            lambda: P.classify_ergodicity(spec, depth=d),
            lambda r: (r.verdict, r.certified, len(r.rows), r.rows[-1].one_minus_r),
            expect,
        )

    for tag in TAGS:
        for d in _jitter(rng, (50, 100, 150, 250, 400), 3, fixed_from=math.inf):
            qs.append(classify(tag, specs[tag], d))
    qs.append(classify("mixing", mix, 800))
    qs[-1].first = True
    for depth in _jitter(rng, (40, 60, 80, 100, 120), 2, fixed_from=math.inf):
        hand = _hand_spec(rng, depth)
        qs.append(classify("hand", hand, hand.depth))

    def seed_roundtrip(tag, spec, top, pos):
        def call():
            seed = P.seed_from_position(spec, top, pos)
            return seed, P.position_of_seed(spec, seed)

        def expect():
            slots, offset = refs.decode_position(spec, top, pos, refs.lengths(spec, top))
            return refs.digest(repr(slots)), offset, pos
        return Query("seed_roundtrip", (tag, top, pos), call,
                     lambda r: (refs.digest(repr(r[0].slot_path)), r[0].offset, r[1]), expect)

    # Only families whose level words stay short: seed_from_position spells
    # out each level word, which overflows on the giant margins of the
    # staged and uniquely ergodic families at these depths.
    for tag in ("substitution", "mixing", "not_weakmix"):
        for top in _jitter(rng, (30, 60, 120, 200, 400), 3, fixed_from=math.inf):
            pos = rng.randrange(refs.lengths(specs[tag], top)[top])
            qs.append(seed_roundtrip(tag, specs[tag], top, pos))

    def bratteli(tag, spec, rows, pos, steps=3):
        diagram = P.covering_to_diagram(spec, rows=rows)

        def call():
            path = P.path_from_position(diagram, rows, "c", pos)
            moved = path
            for _ in range(steps):
                moved = P.vershik_successor(diagram, moved)
            return path, moved, P.position_of_path(diagram, moved)

        def expect():
            ls = refs.lengths(spec, rows)
            return (refs.digest(repr(refs.path_ordinals(spec, rows, pos, ls))),
                    refs.digest(repr(refs.path_ordinals(spec, rows, pos + steps, ls))),
                    pos + steps)
        return Query("bratteli", (tag, rows, pos), call,
                     lambda r: (refs.digest(repr(r[0].ordinals)), refs.digest(repr(r[1].ordinals)), r[2]),
                     expect)

    for rows, tag in zip(_jitter(rng, (150, 300, 600), 5),
                         ("substitution", "mixing", "mixing")):
        spec = specs[tag]
        pos = rng.randrange(refs.lengths(spec, rows)[rows] - 4)
        qs.append(bratteli(tag, spec, rows, pos))

    def r_product(tag, spec, m, n):
        def expect():
            ls = refs.lengths(spec, m)
            return Fraction(refs.winding(spec, m, n) * ls[n], ls[m])
        return Query("r_product", (tag, m, n), lambda: P.r_product(spec, m, n), lambda r: r, expect)

    def vertex_measure(tag, spec, n, m):
        def expect():
            ls = refs.lengths(spec, m)
            big_b = refs.winding(spec, m, n)
            return Fraction(ls[m] - big_b * ls[n], ls[m]), Fraction(big_b, ls[m]), ls[n], True
        return Query(
            "vertex_measure", (tag, n, m), lambda: P.vertex_measure(spec, n, m),
            lambda r: (r.loop, r.circuit[0], len(r.circuit), r.conserved), expect,
        )

    # Families take the rungs in turn: their integers differ in size, so a
    # seeded choice would change the work per seed.
    for i, m in enumerate(_jitter(rng, range(40, 400, 24), 3)):
        tag = TAGS[i % len(TAGS)]
        qs.append(r_product(tag, specs[tag], m, rng.randint(1, 10)))
    for i, m in enumerate(_jitter(rng, range(100, 801, 60), 3)):
        tag = TAGS[i % len(TAGS)]
        qs.append(vertex_measure(tag, specs[tag], rng.randint(1, 2), m))

    def strip_gaps(m, u, v, width):
        def expect():
            got = refs.gaps(refs.gap_table(mix, m, 1, width), u, v)
            window = set(range(3 * l1, min(width, 2 * (m - 1)) + 1))
            return (got if window <= set(got) else "paper window not realized"), "strips"
        return Query("gap_strips", (m, u, v, width),
                     lambda: P.gap_set(mix, m, 1, u, v, width),
                     lambda r: (r.gaps, r.engine), expect)

    # Full mixing windows between non-central vertices: the central vertex
    # occurs far more often, which would make the cost depend on the draw.
    for m in _jitter(rng, tuple(range(25, 118, 4)) + (120,), 1):
        qs.append(strip_gaps(m, rng.randrange(1, l1), rng.randrange(1, l1), 2 * (m - 1)))

    def mixcheck(m):
        lo, hi = 3 * l1, 2 * (m - 1)

        def expect():
            full = bool(refs.gap_table(mix, m, 1, hi)[:, :, lo:hi + 1].all())
            return (full, (lo, hi), 0, l1 * l1, "strips", 0)
        return Query(
            "mixcheck", (m,), lambda: P.mixing_window_check(mix, m, 1),
            lambda r: (r.ok, r.window, len(r.failures), r.pairs_checked, r.engine,
                       len(r.precondition_violations)),
            expect,
        )

    for m in _jitter(rng, (25, 50, 80, 120), 2):
        qs.append(mixcheck(m))
    return qs


# --------------------------------------------------------------------------
# language: factor-language closures
# --------------------------------------------------------------------------

def language(rng: random.Random) -> list[Query]:
    # Shallow specs: the closures extend them as they need (extend_family).
    specs = {tag: _family(tag, 4) for tag in TAGS}
    base = P.gen_substitution_family(depth=6)
    subs = {"tau": P.TAU, "alpha": P.ALPHA, "beta": P.BETA}
    ref01: dict[int, frozenset] = {}

    def base01(length):
        if length not in ref01:
            ref01[length] = refs.base_language_01(length)
        return ref01[length]

    def words_answer(words, stabilized):
        return len(words), refs.digest(words), stabilized

    qs: list[Query] = []

    def row_language(tag, length):
        spec = specs[tag]

        def expect():
            words = refs.row_language(lambda d: _family(tag, d).levels, spec.l1, length)
            return words_answer(words, True)
        return Query("language", (tag, spec.depth, length),
                     lambda: P.language(spec, 1, length),
                     lambda r: words_answer(r.words, r.stabilized), expect)

    # Rungs avoid L = 8..12, where the cost of the substitution and mixing
    # closures jumps by two orders of magnitude.
    for tag in ("substitution", "mixing"):
        for length in (2, 3, 4, 5, 6, 16 + rng.randint(-2, 2), 32):
            qs.append(row_language(tag, length))
    # Jitter only where all three closures cost the same at L - 1, L, L + 1;
    # elsewhere a moved rung changes which queries sit near the median.
    for tag in ("not_weakmix", "weakmix_not_mix", "uniquely_ergodic"):
        for length in (2, 5, 6, *_jitter(rng, range(9, 28, 2), 1, fixed_from=math.inf), 32):
            qs.append(row_language(tag, length))

    def factor_language(name, length):
        return Query("factor_language", (name, length),
                     lambda: P.factor_language(subs[name], "0", length),
                     lambda r: words_answer(r.factors, r.stabilized),
                     lambda: words_answer(base01(length), True))

    # The substitution closures' cost grows steeply with L at every L, so
    # their rungs are fixed.
    for name in subs:
        for length in (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16):
            qs.append(factor_language(name, length))
    qs.append(factor_language("alpha", 32))

    for length in (3, 6, 10, 14):
        qs.append(Query(
            "languages_equal", (length,),
            lambda length=length: P.languages_equal(P.ALPHA, "0", P.BETA, "0", length),
            lambda r: (r.equal, r.left_stabilized_at is not None, r.right_stabilized_at is not None),
            lambda: (True, True, True),
        ))

    for length in (4, 8, 12, 24):
        qs.append(Query(
            "bridge", (length,),
            lambda length=length: P.substitution_bridge(length),
            lambda r: (r.equal, r.covering_size, r.substitution_size),
            lambda length=length: (True, len(base01(length)), len(base01(length))),
        ))

    for top in (4, 6, 8, 24):
        qs.append(Query(
            "complexity", (top,),
            lambda top=top: P.complexity_profile(base, top),
            lambda r: tuple((row.count, row.stabilized) for row in r),
            lambda top=top: tuple((len(base01(k)), True) for k in range(1, top + 1)),
        ))
    return qs


# --------------------------------------------------------------------------
# walks: materialized walks and gap scans
# --------------------------------------------------------------------------

def walks(rng: random.Random) -> list[Query]:
    mix = P.gen_mixing_family(l1=11, depth=12)
    l1 = mix.l1
    ls = refs.lengths(mix, 13)
    qs: list[Query] = []

    def gap_query(kind, m, u, v, width, cap=None):
        engine = "strips" if cap else "materialized"
        return Query(kind, (m, u, v, width, cap),
                     lambda: P.gap_set(mix, m, 1, u, v, width, cap=cap),
                     lambda r: (r.gaps, r.engine),
                     lambda: (refs.gaps(refs.gap_table(mix, m, 1, width), u, v), engine))

    # Window widths are fixed per kind: the scans' cost grows with them.
    for m in (6, 6, 7, 7, 8, 8, 9, 10, 11):
        u, v, width = rng.randrange(1, l1), rng.randrange(1, l1), 60
        qs.append(gap_query("gap_materialized", m, u, v, width))
        if m >= 7:
            # The same question forced onto the strip engine: both answers
            # must match one reference, which cross-checks the two engines.
            qs.append(gap_query("gap_strips", m, u, v, width, cap=ls[m] // 2))

    for m in (5, 6, 6, 7, 7, 8):
        width = 32
        qs.append(Query(
            "gap_table", (m, width),
            lambda m=m, width=width: P.realized_gap_table(mix, m, 1, width),
            lambda r: (refs.digest(r[0].tobytes()), r[1]),
            lambda m=m, width=width: (refs.digest(refs.gap_table(mix, m, 1, width).tobytes()),
                                      "materialized"),
        ))

    nw = P.gen_not_weakmix_family(3, depth=16)

    def residue(m, max_gap):
        def expect():
            walk = refs.vertex_walk(nw, m, 1)
            c1 = tuple(sorted({int(x) for x in (walk == 1).nonzero()[0] % 3}))
            c2 = tuple(sorted({int(x) for x in (walk == 2).nonzero()[0] % 3}))
            return True, c1, c2, (), (), True, True
        return Query(
            "residue", (m, max_gap), lambda: P.residue_obstruction(nw, 1, 3, m, max_gap=max_gap),
            lambda r: (r.passed, r.classes_v1, r.classes_v2, r.violations_v1v1,
                       r.violations_v1v2, r.scanned_v1v1 > 0, r.scanned_v1v2 > 0),
            expect,
        )

    for m, max_gap in zip((8, 10, 12, 14, 16),
                          _jitter(rng, (5_000, 10_000, 15_000, 20_000, 30_000), 500)):
        qs.append(residue(m, max_gap))

    staged = P.gen_weakmix_not_mix_family(depth=7)
    for m, want in refs.STAGE_LENGTHS.items():
        qs.append(Query(
            "forbidden", (m,), lambda m=m: P.forbidden_window_report(staged, m),
            lambda r: (r.len_arith, r.len_measured, r.lengths_agree, r.all_pairs_empty,
                       r.window_start == r.len_arith + 1,
                       r.width is not None and r.width >= 1
                       and r.first_realized == r.window_start + r.width),
            lambda want=want: (want, want, True, True, True, True),
        ))

    for depth in (7, 8, 9, 10, 11):
        spec = P.gen_substitution_family(depth=depth)
        length, seed = rng.randint(4, 8), rng.randrange(2**31)
        qs.append(Query(
            "separation", (depth, length, seed),
            lambda spec=spec, length=length, seed=seed: P.level1_separation_check(
                spec, 3, length, samples=200, rng_seed=seed),
            lambda r: (r.samples, r.failures, r.max_padding <= 31),
            lambda: (200, (), True),
        ))

    six = P.gen_mixing_family(depth=6)
    six_ls = refs.lengths(six, 6)
    horizon = 10 * six_ls[3]
    six_walks = {}

    def walk6(k):
        if k not in six_walks:
            six_walks[k] = refs.vertex_walk(six, 6, k)
        return six_walks[k]

    def li_yorke(pos, delta):
        a = P.seed_from_position(six, 6, pos)
        b = P.seed_from_position(six, 6, pos + delta)

        def expect():
            best = [0] * (horizon + 1)
            for k in (1, 2, 3):
                w = walk6(k)
                eq = w[pos:pos + horizon + 1] == w[pos + delta:pos + delta + horizon + 1]
                for t in eq.nonzero()[0]:
                    best[t] = k
            sym = refs.step_symbols(walk6(1), pos, horizon + 1)
            sym_b = refs.step_symbols(walk6(1), pos + delta, horizon + 1)
            sep = tuple(int(t) for t in (sym != sym_b).nonzero()[0])
            prox = tuple((t, k) for t, k in enumerate(best) if k)
            if not sep or max(best) < 3:
                return "paper witness not found"
            return max(best), refs.digest(repr(prox)), refs.digest(repr(sep))
        return Query(
            "li_yorke", (pos, delta), lambda: P.li_yorke_witness(six, a, b, horizon, 3),
            lambda r: (r.best_k, refs.digest(repr(r.proximal_events)),
                       refs.digest(repr(r.separation_events))),
            expect,
        )

    def array(pos, t0, t1):
        seed = P.seed_from_position(six, 6, pos)

        def expect():
            rows = []
            for k in range(6, 0, -1):
                w = walk6(k)
                sym = refs.step_symbols(w, pos + t0, t1 - t0 + 1)
                cuts = tuple(t0 + int(i) for i in (w[pos + t0:pos + t1 + 1] == 0).nonzero()[0])
                rows.append((k, bytes(sym.astype("uint8")).decode(), cuts, bool(w[pos + t1 + 1] == 0)))
            return refs.digest(repr(rows))
        return Query(
            "array_block", (pos, t0, t1), lambda: P.array_block(six, seed, (t0, t1)),
            lambda r: refs.digest(repr([(row.level, row.symbols, row.cuts, row.end_cut)
                                        for row in r.rows])),
            expect,
        )

    for _ in range(14):
        qs.append(li_yorke(rng.randrange(six_ls[6] - horizon - 3), rng.choice((1, 2))))
        pos = rng.randrange(100, six_ls[6] - 200)
        qs.append(array(pos, -rng.randint(0, 80), rng.randint(0, 120)))

    for m, n in ((6, 1), (7, 1), (7, 2), (8, 1), (9, 2), (10, 1)):
        qs.append(Query(
            "vertex_walk", (m, n), lambda m=m, n=n: P.expand_vertex_walk(mix, m, n),
            lambda r: (r.vertices.size, refs.digest(r.vertices)),
            lambda m=m, n=n: (ls[m] + 1, refs.digest(refs.vertex_walk(mix, m, n))),
        ))

    def words(spec, m, n):
        def call():
            return P.expand_circuit_word(spec, m, n).symbols, P.d_word(spec, m, n)

        def expect():
            word = refs.symbol_word(spec, m, n)
            s, s2 = refs.margins(spec, m, n)
            return refs.digest(word), refs.digest(word[s:len(word) - s2])
        return Query("circuit_word", (spec.l1, tuple(lm.a for lm in spec.levels), m, n), call,
                     lambda r: (refs.digest(r[0]), refs.digest(r[1])), expect)

    for _ in range(36):
        spec = _restricted_spec(rng)
        n = rng.randint(1, max(1, spec.depth - 1))
        qs.append(words(spec, rng.randint(n + 1, spec.depth + 1), n))
    return qs


WORKLOADS = {"deep": deep, "language": language, "walks": walks}


def build(workload: str, seed: int) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    queries = WORKLOADS[workload](rng)
    rng.shuffle(queries)
    # The process's peak memory depends on what the heap held when the
    # largest query ran; running it first makes the peak independent of the
    # seeded order.
    queries.sort(key=lambda q: not q.first)
    return queries
