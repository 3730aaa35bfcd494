"""Command-line interface.

Exit codes: 0 success / analysis passed, 1 analysis failure (a check ran and
reported a violation, or an analysis-level error such as an undetermined
window), 2 usage error, 3 expansion cap exceeded.  ``--json-errors`` turns
error reporting into a single JSON object on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bratteli as bt
from . import dynamics as dyn
from . import substitution as sb
from .covering import (
    CoveringSpec,
    circuit_length,
    spec_from_json,
    spec_to_json,
    telescope,
    validate,
)
from .errors import (
    ExpansionTooLarge,
    ProxRank2Error,
    UsageError,
    WindowUndetermined,
)
from .expansion import (
    d_word,
    e_run_margins,
    expand_vertex_walk,
    gap_set,
    gap_structure_report,
    time_word,
    expand_circuit_word,
)
from .families import gen_family
from .measures import (
    classify_ergodicity,
    one_minus_r,
    r_value,
    vertex_measure,
)
from .report import decimal_str


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_json(obj) -> None:
    print(_canon(obj))


def _load_spec(args) -> CoveringSpec:
    path = getattr(args, "spec", None)
    if not path:
        raise UsageError("this command needs --spec FILE (use - for stdin)")
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read spec: {exc}") from exc
    return spec_from_json(text)


def _write_out(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"expected a list of integers, got {text!r}") from exc


def _frac_str(x: Fraction) -> str:
    return f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"


# --------------------------------------------------------------------------
# Command implementations
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = _load_spec(args)
    report = validate(spec)
    if args.json:
        _print_json(report.to_dict())
    else:
        print("ok" if report.ok else "invalid")
        for p in report.problems:
            print(f"problem: {p}")
        for w in report.warnings:
            print(f"warning: {w}")
    return 0 if report.ok else 1


def cmd_length(args) -> int:
    spec = _load_spec(args)
    if args.n is None:
        rows = {str(n): circuit_length(spec, n) for n in range(1, spec.depth + 2)}
        if args.json:
            _print_json(rows)
        else:
            for n in range(1, spec.depth + 2):
                print(f"{n} {circuit_length(spec, n)}")
    else:
        value = circuit_length(spec, args.n)
        _print_json({"n": args.n, "length": value}) if args.json else print(value)
    return 0


def cmd_telescope(args) -> int:
    spec = _load_spec(args)
    keep = _int_list(args.keep)
    _write_out(args, spec_to_json(telescope(spec, keep, cap=args.cap)))
    return 0


def cmd_expand(args) -> int:
    if args.head is not None and args.head < 0:
        raise UsageError(f"--head must be >= 0, got {args.head}")
    spec = _load_spec(args)
    if args.what == "symbol":
        seq = expand_circuit_word(spec, args.m, args.n, cap=args.cap).symbols
    elif args.what == "time":
        seq = time_word(spec, args.m, args.n, cap=args.cap)
    else:
        walk = expand_vertex_walk(spec, args.m, args.n, cap=args.cap)
        seq = ",".join(str(int(v)) for v in walk.vertices)
    if args.head is not None and len(seq) > args.head:
        seq = seq[: args.head] + "..."
    print(seq)
    return 0


def cmd_dword(args) -> int:
    spec = _load_spec(args)
    print(d_word(spec, args.m, args.n, cap=args.cap))
    return 0


def cmd_margins(args) -> int:
    spec = _load_spec(args)
    lead, trail = e_run_margins(spec, args.m, args.n)
    _print_json({"lead": lead, "trail": trail}) if args.json else print(lead, trail)
    return 0


def cmd_gaps(args) -> int:
    spec = _load_spec(args)
    gs = gap_set(
        spec,
        args.m,
        args.n,
        args.u,
        args.v,
        args.max_gap,
        cap=args.cap,
        include_zero=args.include_zero,
    )
    if args.json:
        _print_json(gs.to_dict())
    else:
        print(",".join(str(g) for g in gs.gaps))
    return 0


def cmd_gapstruct(args) -> int:
    spec = _load_spec(args)
    report = gap_structure_report(spec, args.m, args.n)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"cc_present {report.cc_present}")
        for level, tau, realized in report.taus:
            print(f"tau level={level} value={tau} realized={realized}")
        print("interior_runs " + ",".join(str(r) for r in report.interior_runs))
    return 0


def cmd_rvalues(args) -> int:
    spec = _load_spec(args)
    depth = args.depth if args.depth is not None else spec.depth
    if depth > spec.depth:
        raise UsageError(f"depth {depth} exceeds the presented {spec.depth}")
    rows = [
        {
            "n": n,
            "r": _frac_str(r_value(spec, n)),
            "one_minus_r": _frac_str(one_minus_r(spec, n)),
        }
        for n in range(1, depth + 1)
    ]
    if args.format == "json":
        _print_json(rows)
    elif args.format == "csv":
        print("n,r,one_minus_r")
        for row in rows:
            print(f"{row['n']},{row['r']},{row['one_minus_r']}")
    else:
        for row in rows:
            print(f"{row['n']} r={row['r']} 1-r={row['one_minus_r']}")
    return 0


def cmd_ergodic(args) -> int:
    spec = _load_spec(args)
    report = classify_ergodicity(spec, depth=args.depth)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.label)
        if report.certificate:
            print(f"certificate: {report.certificate}")
        for row in report.rows:
            print(
                f"i={row.i} 1-r={_frac_str(row.one_minus_r)} "
                f"sum={_frac_str(row.partial_sum)} product={_frac_str(row.partial_product)}"
            )
    return 0


def cmd_measure(args) -> int:
    spec = _load_spec(args)
    vec = vertex_measure(spec, args.n, args.horizon, which=args.which, cap=args.cap)
    if args.json:
        _print_json(vec.to_dict())
    else:
        print(f"loop {_frac_str(vec.loop)}")
        for i, w in enumerate(vec.circuit):
            print(f"edge{i} {_frac_str(w)}")
    return 0


def cmd_language(args) -> int:
    spec = _load_spec(args)
    res = dyn.language(spec, args.n, args.length, cap=args.cap)
    if args.json:
        _print_json(
            {
                "count": len(res.words),
                "stabilized": res.stabilized,
                "stabilized_at": res.stabilized_at,
                "top_level_used": res.top_level_used,
                "words": res.sorted_words() if args.words else None,
            }
        )
    else:
        print(
            f"count={len(res.words)} stabilized={res.stabilized} "
            f"at={res.stabilized_at} top={res.top_level_used}"
        )
        if args.words:
            for w in res.sorted_words():
                print(w)
    return 0 if res.stabilized else 1


def cmd_complexity(args) -> int:
    spec = _load_spec(args)
    rows = dyn.complexity_profile(spec, args.max_length, cap=args.cap)
    if args.json:
        _print_json([r.to_dict() for r in rows])
    else:
        for r in rows:
            print(f"L={r.length} p={r.count} log2(p)/L={r.ratio:.6f} stabilized={r.stabilized}")
    return 0 if all(r.stabilized for r in rows) else 1


def _seed_from_flags(spec: CoveringSpec, args, suffix: str) -> dyn.PointSeed:
    """One of --point/--position/--stable/--unstable (with suffix) picks a point."""
    raw = getattr(args, f"point{suffix}", None)
    pos = getattr(args, f"position{suffix}", None)
    stable = getattr(args, f"stable{suffix}", None)
    unstable = getattr(args, f"unstable{suffix}", None)
    given = [x for x in (raw, pos, stable, unstable) if x is not None]
    if len(given) != 1:
        raise UsageError(
            f"give exactly one of --point{suffix}/--position{suffix}/"
            f"--stable{suffix}/--unstable{suffix}"
        )
    if raw is not None:
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
            raise UsageError(f"bad seed JSON: {exc}") from exc
        return dyn.PointSeed.from_dict(data)
    if pos is not None:
        try:
            top_s, pos_s = pos.split(":")
            return dyn.seed_from_position(spec, int(top_s), int(pos_s))
        except ValueError as exc:
            raise UsageError(f"--position{suffix} wants TOP:POS, got {pos!r}") from exc
    if stable is not None:
        return dyn.stable_point(spec, stable)
    return dyn.unstable_point(spec, unstable)


def cmd_array(args) -> int:
    spec = _load_spec(args)
    seed = _seed_from_flags(spec, args, "")
    try:
        t0_s, t1_s = args.window.split(":")
        window = (int(t0_s), int(t1_s))
    except ValueError as exc:
        raise UsageError(f"--window wants T0:T1, got {args.window!r}") from exc
    block = dyn.array_block(spec, seed, window, cap=args.cap)
    if args.json:
        _print_json(block.to_dict())
    else:
        sys.stdout.write(dyn.render_array_text(block))
    return 0


def cmd_stablepoint(args) -> int:
    spec = _load_spec(args)
    seed = (
        dyn.unstable_point(spec, args.top) if args.unstable else dyn.stable_point(spec, args.top)
    )
    _print_json(
        {"seed": seed.to_dict(), "position": dyn.position_of_seed(spec, seed)}
    )
    return 0


def cmd_liyorke(args) -> int:
    spec = _load_spec(args)
    seed_a = _seed_from_flags(spec, args, "_a")
    seed_b = _seed_from_flags(spec, args, "_b")
    wit = dyn.li_yorke_witness(
        spec,
        seed_a,
        seed_b,
        horizon=args.horizon,
        k_target=args.k_target,
        direction=args.direction,
        cap=args.cap,
    )
    deep = [t for t, k in wit.proximal_events if k >= args.k_target]
    if args.json:
        _print_json(wit.to_dict())
    else:
        print(
            f"best_k={wit.best_k} proximal={len(wit.proximal_events)} "
            f"at_target={len(deep)} separations={len(wit.separation_events)}"
        )
        if deep:
            print(f"first_at_target={deep[0]}")
        if wit.separation_events:
            print(f"first_separation={wit.separation_events[0]}")
    return 0


def cmd_mixcheck(args) -> int:
    spec = _load_spec(args)
    report = dyn.mixing_window_check(spec, args.m, args.n, cap=args.cap)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"window [{report.window[0]}, {report.window[1]}] engine={report.engine}")
        for v in report.precondition_violations:
            print(f"precondition: {v}")
        print("ok" if report.ok else f"failures: {len(report.failures)}")
        for u, v, missing in report.failures[:10]:
            print(f"  pair ({u},{v}) missing {','.join(str(g) for g in missing)}")
    return 0 if report.ok else 1


def cmd_residue(args) -> int:
    spec = _load_spec(args)
    report = dyn.residue_obstruction(
        spec, args.n, args.p, args.m, max_gap=args.max_gap, cap=args.cap
    )
    if args.json:
        _print_json(report.to_dict())
    else:
        print(
            f"classes v1={list(report.classes_v1)} v2={list(report.classes_v2)} mod {report.p}"
        )
        print(
            f"scanned v1v1={report.scanned_v1v1} v1v2={report.scanned_v1v2} "
            f"up to {report.scan_max_gap}"
        )
        print("passed" if report.passed else "failed")
        for w in report.witnesses:
            print(f"witness: {w}")
    return 0 if report.passed else 1


def cmd_forbidden(args) -> int:
    spec = _load_spec(args)
    report = dyn.forbidden_window_report(spec, args.m, n=args.base, cap=args.cap)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(
            f"len_arith={report.len_arith} len_measured={report.len_measured} "
            f"agree={report.lengths_agree}"
        )
        print(
            f"window_start={report.window_start} first_realized={report.first_realized} "
            f"width={report.width}"
        )
        print("empty" if report.all_pairs_empty else "violated")
        for u, v, first in report.per_pair:
            print(f"  pair ({u},{v}) first={first}")
    return 0 if report.all_pairs_empty and report.lengths_agree else 1


def cmd_sep1(args) -> int:
    spec = _load_spec(args)
    report = dyn.level1_separation_check(
        spec,
        args.n,
        args.length,
        samples=args.samples,
        rng_seed=args.seed,
        top_level=args.top,
        pad_max=args.pad_max,
        cap=args.cap,
    )
    if args.json:
        _print_json(report.to_dict())
    else:
        print(
            f"samples={report.samples} max_padding={report.max_padding} "
            f"skipped_identical={report.skipped_identical}"
        )
        for t1, t2 in report.failures[:10]:
            print(f"failure: positions {t1} and {t2}")
    return 0 if not report.failures else 1


def cmd_bratteli(args) -> int:
    spec = _load_spec(args)
    diagram = bt.covering_to_diagram(spec, rows=args.rows)
    if args.action == "export":
        if args.format == "dot":
            sys.stdout.write(bt.diagram_to_dot(diagram))
        else:
            print(bt.diagram_to_json(diagram))
        return 0
    if args.action == "roundtrip":
        text = bt.diagram_to_json(diagram)
        back = bt.diagram_from_json(text)
        spec2 = bt.diagram_to_covering(back)
        same_bytes = bt.diagram_to_json(back) == text
        same_maps = spec2.l1 == spec.l1 and all(
            a.word() == b.word() for a, b in zip(spec2.levels, diagram_levels(spec, args.rows))
        )
        ok = same_bytes and same_maps
        print("roundtrip ok" if ok else "roundtrip FAILED")
        return 0 if ok else 1
    # vershik
    row = diagram.rows if args.row is None else args.row
    path = bt.path_from_position(diagram, row, args.vertex, args.position)
    positions = [args.position]
    for _ in range(args.steps):
        path = bt.vershik_successor(diagram, path)
        positions.append(bt.position_of_path(diagram, path))
    print(",".join(str(p) for p in positions))
    return 0


def diagram_levels(spec: CoveringSpec, rows: int | None):
    """Level maps a diagram with the given row count presents."""
    count = (spec.depth + 1 if rows is None else rows) - 1
    return spec.levels[:count]


_NAMED_SUBS = {"tau": sb.TAU, "alpha": sb.ALPHA, "beta": sb.BETA}


def _resolve_sub(name: str) -> sb.Substitution:
    if name in _NAMED_SUBS:
        return _NAMED_SUBS[name]
    try:
        rules = json.loads(name)
        sub = sb.Substitution(rules={str(k): str(v) for k, v in rules.items()})
    except (json.JSONDecodeError, AttributeError) as exc:
        raise UsageError(
            f"substitution must be tau/alpha/beta or a JSON rules object, got {name!r}"
        ) from exc
    bad = sub.problems()
    if bad:
        raise UsageError("; ".join(bad))
    return sub


def cmd_subst(args) -> int:
    if args.action == "apply":
        print(sb.apply_word(_resolve_sub(args.args[0]), args.args[1]))
        return 0
    if args.action == "iterate":
        sub = _resolve_sub(args.args[0])
        print(sb.iterate(sub, args.args[1], int(args.args[2]), cap=args.cap))
        return 0
    if args.action == "lang":
        sub = _resolve_sub(args.args[0])
        lang = sb.factor_language(sub, args.args[1], int(args.args[2]), cap=args.cap)
        print(
            f"count={len(lang.factors)} stabilized={lang.stabilized} "
            f"at={lang.stabilized_at}"
        )
        for w in lang.sorted_words():
            print(w)
        return 0 if lang.stabilized else 1
    if args.action == "equal":
        cmp = sb.languages_equal(
            _resolve_sub(args.args[0]),
            args.args[1],
            _resolve_sub(args.args[2]),
            args.args[3],
            int(args.args[4]),
            cap=args.cap,
        )
        if args.json:
            _print_json(cmp.to_dict())
        else:
            print("equal" if cmp.equal else "different")
            for w in cmp.only_left:
                print(f"only_left: {w}")
            for w in cmp.only_right:
                print(f"only_right: {w}")
        return 0 if cmp.equal else 1
    if args.action == "commute":
        ok = sb.commute_check(_resolve_sub(args.args[0]), _resolve_sub(args.args[1]))
        print("commute" if ok else "do not commute")
        return 0 if ok else 1
    if args.action == "conj":
        ok = sb.conjugation_identity(int(args.args[0]), int(args.args[1]), cap=args.cap)
        print("identity holds" if ok else "identity FAILS")
        return 0 if ok else 1
    if args.action == "bridge":
        report = sb.substitution_bridge(int(args.args[0]), cap=args.cap)
        if args.json:
            _print_json(report.to_dict())
        else:
            print("equal" if report.equal else "different")
            print(
                f"covering_size={report.covering_size} "
                f"substitution_size={report.substitution_size}"
            )
        return 0 if report.equal else 1
    raise UsageError(f"unknown subst action {args.action!r}")


_FAMILY_PARAM_KEYS = ("depth", "l1", "p", "s", "s2", "t_bar")


def cmd_family(args) -> int:
    params = {}
    for key in _FAMILY_PARAM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.tag == "uniquely_ergodic":
        spec = gen_family("custom", kind="uniquely_ergodic", **params)
    else:
        spec = gen_family(args.tag, **params)
    _write_out(args, spec_to_json(spec))
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", help="covering spec JSON file, or - for stdin")
    common.add_argument(
        "--cap",
        type=int,
        help="expansion cap override (default 1e8 or PROXRANK2_CAP): the longest word or walk,"
        " about 1 byte per step; a gap query's window stays below twice the cap, and its rows"
        " below about 8 bytes per unit of cap",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--json-errors", action="store_true", help="report errors as JSON on stderr"
    )

    parser = argparse.ArgumentParser(
        prog="proxrank2",
        description="Rank-2 proximal graph coverings: expansion, gaps, measures, arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check a covering spec")

    p = add("length", cmd_length, "circuit length(s)")
    p.add_argument("n", type=int, nargs="?", help="level (omit for all)")

    p = add("telescope", cmd_telescope, "compose away skipped levels")
    p.add_argument("--keep", required=True, help="comma-separated levels to keep")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = add("expand", cmd_expand, "expand a circuit over a lower level")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--what", choices=("symbol", "time", "walk"), default="symbol")
    p.add_argument("--head", type=int, help="print only the first K characters")

    p = add("dword", cmd_dword, "margin-stripped word of the restricted recursion")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("margins", cmd_margins, "leading/trailing loop-run margins")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("gaps", cmd_gaps, "realized occurrence gaps between two vertices")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("--max-gap", type=int, required=True)
    p.add_argument("--include-zero", action="store_true")

    p = add("gapstruct", cmd_gapstruct, "loop-run structure of an expansion")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("rvalues", cmd_rvalues, "contraction ratios r(n)")
    p.add_argument("--depth", type=int)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = add("ergodic", cmd_ergodic, "invariant-measure classification")
    p.add_argument(
        "--depth",
        type=int,
        help="levels to check and print (default: all presented levels); a printed "
        "partial sum has digits in proportion to its level, so the output grows "
        "quadratically with depth",
    )

    p = add("measure", cmd_measure, "extreme-measure edge weights at a level")
    p.add_argument("n", type=int)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--which", choices=("nonatomic", "fixed"), default="nonatomic")

    p = add("language", cmd_language, "stabilized factor language of a row")
    p.add_argument("n", type=int)
    p.add_argument("length", type=int)
    p.add_argument("--words", action="store_true", help="list the words")

    p = add("complexity", cmd_complexity, "word-count profile of the level-1 rows")
    p.add_argument("max_length", type=int)

    p = add("array", cmd_array, "render array rows around a seed")
    p.add_argument("--point", help="seed as JSON")
    p.add_argument("--position", help="TOP:POS")
    p.add_argument("--stable", type=int, help="stable point at level N")
    p.add_argument("--unstable", type=int, help="unstable point at level N")
    p.add_argument("--window", required=True, help="T0:T1 inclusive")

    p = add("stablepoint", cmd_stablepoint, "distinguished stable/unstable seeds")
    p.add_argument("top", type=int)
    p.add_argument("--unstable", action="store_true")

    p = add("liyorke", cmd_liyorke, "proximal/separation events of a seed pair")
    for sfx in ("-a", "-b"):
        p.add_argument(f"--point{sfx}", help="seed as JSON")
        p.add_argument(f"--position{sfx}", help="TOP:POS")
        p.add_argument(f"--stable{sfx}", type=int)
        p.add_argument(f"--unstable{sfx}", type=int)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--k-target", type=int, default=1)
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")

    p = add("mixcheck", cmd_mixcheck, "verify the full mixing gap window")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("residue", cmd_residue, "gap residue-class obstruction")
    p.add_argument("n", type=int)
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--max-gap", type=int, default=100_000)

    p = add("forbidden", cmd_forbidden, "empty gap window at a stage boundary")
    p.add_argument("m", type=int)
    p.add_argument("--base", type=int, help="stage base level (default: the construction's)")

    p = add("sep1", cmd_sep1, "level-1 separation of distinct segments")
    p.add_argument("n", type=int)
    p.add_argument("length", type=int)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--top", type=int)
    p.add_argument("--pad-max", type=int)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the sampled pairs")

    p = add("bratteli", cmd_bratteli, "ordered-diagram translation and Vershik map")
    p.add_argument("action", choices=("export", "roundtrip", "vershik"))
    p.add_argument("--rows", type=int)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--row", type=int, help="target row for vershik")
    p.add_argument("--vertex", default="c", help="target vertex for vershik")
    p.add_argument("--position", type=int, default=0, help="start position for vershik")
    p.add_argument("--steps", type=int, default=1, help="successor steps to take")

    p = add("subst", cmd_subst, "substitution toolkit")
    p.add_argument(
        "action",
        choices=("apply", "iterate", "lang", "equal", "commute", "conj", "bridge"),
    )
    p.add_argument("args", nargs="*")

    p = add("family", cmd_family, "generate a named family spec")
    p.add_argument("action", choices=("gen",))
    p.add_argument(
        "tag",
        choices=(
            "substitution",
            "mixing",
            "weakmix_not_mix",
            "not_weakmix",
            "uniquely_ergodic",
        ),
    )
    p.add_argument("--depth", type=int)
    p.add_argument("--l1", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--s2", type=int)
    p.add_argument("--t-bar", type=int, dest="t_bar")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    return parser


def _report_error(args, exc: Exception, code: int, **extra) -> int:
    if args is not None and getattr(args, "json_errors", False):
        payload = {"error": type(exc).__name__, "message": str(exc), **extra}
        print(_canon(payload), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        return _report_error(args, exc, 2)
    except ExpansionTooLarge as exc:
        return _report_error(args, exc, 3, needed=exc.needed, cap=exc.cap, what=exc.what)
    except WindowUndetermined as exc:
        return _report_error(args, exc, 1, first_time=exc.first_time)
    except ProxRank2Error as exc:
        return _report_error(args, exc, 1)


if __name__ == "__main__":
    sys.exit(main())
