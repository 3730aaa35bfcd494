"""One workload process: set up, run the closed loop, check the answers.

Started by ``run.py``; prints one JSON object as its last line of output.
With ``--setup-only`` it stops after building the query list, so the parent
can time set-up more than once per run.

The timed phase runs whole passes over the query list, one query at a time
(a closed loop with a single client), until ``--seconds`` have elapsed; the
pass in progress then completes, so every query runs the same number of
times.  A query's latency is the best of its repetitions: the machine is
shared, and other tenants only ever add time, in phases of seconds that
would otherwise decide the result of a whole run.  Such a phase often holds
one CPU for half a minute or more while the other runs at full speed, so
successive passes move the process from one CPU to the next.  Answers are
reduced to small values outside the per-query timer and compared with the
references only after the timed phase.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict


class CpuRotation:
    """Pins the process to the next CPU it may use, one CPU per pass."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)
        self.turn = 0

    def next(self) -> None:
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def run_pass(queries, answers: list[Counter], best: list[float], tracer=None) -> None:
    clock = time.perf_counter
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query += 1
        t0 = clock()
        try:
            result = q.call()
        except Exception as exc:  # a failed query is counted, not fatal
            best[i] = min(best[i], clock() - t0)
            answers[i][("raised", repr(exc))] += 1
            continue
        best[i] = min(best[i], clock() - t0)
        try:
            answers[i][q.answer(result)] += 1
        except Exception as exc:
            answers[i][("unreadable result", repr(exc))] += 1
        del result


def check(queries, answers: list[Counter]) -> tuple[int, int, dict]:
    """(attempted, failed, failures by kind) against the reference answers."""
    attempted = failed = 0
    by_kind: dict[str, int] = defaultdict(int)
    for q, seen in zip(queries, answers):
        try:
            want = q.expect()
        except Exception as exc:
            want = ("reference raised", repr(exc))
        for got, count in seen.items():
            attempted += count
            if got != want:
                failed += count
                by_kind[q.kind] += count
                print(f"wrong answer: {q.kind} {q.params!r}: got {got!r}, want {want!r}",
                      file=sys.stderr)
    return attempted, failed, dict(by_kind)


def inputs_digest(queries) -> str:
    text = "\n".join(f"{q.kind} {q.params!r}" for q in queries)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this .npz file")
    args = ap.parse_args(argv)

    import proxrank2
    import workloads

    queries = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    out = {"ready": ready, "queries": len(queries), "digest": inputs_digest(queries)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    answers = [Counter() for _ in queries]
    best = [float("inf")] * len(queries)
    passes = 0
    rotation = CpuRotation()
    start = time.perf_counter()
    if not args.trace:
        pass_s = []
        while True:
            rotation.next()
            t0 = time.perf_counter()
            run_pass(queries, answers, best)
            pass_s.append(time.perf_counter() - t0)
            passes += 1
            if time.perf_counter() - start >= args.seconds:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
        kind_ms: dict[str, float] = defaultdict(float)
        for q, dt in zip(queries, best):
            kind_ms[q.kind] += dt * 1000
        out.update(
            passes=passes,
            pass_s=pass_s,
            kind_best_ms={k: round(v, 1) for k, v in sorted(kind_ms.items())},
            queries_per_s=len(queries) / sum(best),
            query_p50_ms=statistics.median(best) * 1000,
            query_p90_ms=p90 * 1000,
            beyond_p90=sum(1 for x in best if x > p90),
            peak_rss_mb=peak_kb / 1024,
        )
    else:
        import tracer as tracing

        tracer = tracing.Tracer(proxrank2)
        best_traced = list(best)
        while True:
            rotation.next()
            run_pass(queries, answers, best)
            tracer.install()
            try:
                run_pass(queries, answers, best_traced, tracer)
            finally:
                tracer.uninstall()
            passes += 1
            if time.perf_counter() - start >= args.seconds:
                break
        layers = tracing.layer_metrics(tracer, passes * len(queries))
        layers["trace.overhead_frac"] = (sum(best_traced) / sum(best) - 1, "frac")
        if args.spans:
            tracer.save(args.spans)
        del tracer
        memory = tracing.Tracer(proxrank2)
        memory.install(memory=True)
        try:
            run_pass(queries, answers, [float("inf")] * len(queries))
        finally:
            memory.uninstall()
        layers.update(tracing.memory_metrics(memory))
        out.update(passes=passes, layers=layers)

    rotation.restore()
    attempted, failed, by_kind = check(queries, answers)
    out.update(attempted=attempted, failed=failed, failed_by_kind=by_kind,
               kinds=dict(Counter(q.kind for q in queries)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
