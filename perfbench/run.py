"""proxrank2 benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each run starts the workload in its own process (``worker.py``),
times set-up in several fresh processes and reports the median, and prints
every metric by name with its unit.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, plus the overhead of tracing against untraced
passes of the same run.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("deep", "language", "walks")
# Set-up-only processes before and after the measured one, so that the
# median of the set-up samples spans the run rather than one moment of it.
SETUP_RUNS_BEFORE = SETUP_RUNS_AFTER = 3
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # One client thread per process: keep numpy's BLAS pool from adding threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], timeout: float) -> tuple[float, dict]:
    """Run a worker; return (spawn time on the monotonic clock, its JSON line)."""
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "proxrank2" / "__init__.py").is_file():
        print(f"error: no proxrank2 sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    began = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups, digests = [], set()
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)

    def setup_only() -> None:
        # Alternate CPUs, as the worker's passes do (see worker.py).
        os.sched_setaffinity(0, {cpus[len(setups) % len(cpus)]})
        try:
            spawned, info = run_child(base + ["--setup-only"], DEADLINE_S)
        finally:
            os.sched_setaffinity(0, allowed)
        setups.append(info["ready"] - spawned)
        digests.add(info["digest"])

    for _ in range(SETUP_RUNS_BEFORE):
        setup_only()
    cmd = base + (["--spans", str(OUT / f"spans-{tag}.npz")] if args.trace else [])
    spawned, rec = run_child(cmd, DEADLINE_S - (time.monotonic() - began))
    setups.append(rec["ready"] - spawned)
    digests.add(rec["digest"])
    for _ in range(SETUP_RUNS_AFTER):
        setup_only()

    attempted, failed = rec["attempted"], rec["failed"]
    deterministic = len(digests) == 1
    if args.trace:
        import cliprobe

        cli = cliprobe.probe(OUT / "cli", child_env())
        attempted += cli["attempted"]
        failed += cli["failed"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in rec["layers"].items()}
        for name, (v, u) in cli["metrics"].items():
            metrics[name] = {"value": v, "unit": u}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "queries_per_s": {"value": rec["queries_per_s"], "unit": "1/s"},
            "query_p50_ms": {"value": rec["query_p50_ms"], "unit": "ms"},
            "query_p90_ms": {"value": rec["query_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} queries/pass={rec['queries']} passes={rec['passes']} "
          f"inputs_sha256={rec['digest'][:16]} identical_inputs_across_setups={deterministic}")
    if not args.trace:
        print(f"  samples={rec['passes'] * rec['queries']} (best of {rec['passes']} per query) "
              f"beyond_p90={rec['beyond_p90']} "
              f"setup_samples_s={[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {failed / max(attempted, 1):14.6g} frac "
          f"({failed} of {attempted}; by kind {rec['failed_by_kind']})")

    record = dict(rec, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, metrics=metrics,
                  attempted=attempted, failed=failed)
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
