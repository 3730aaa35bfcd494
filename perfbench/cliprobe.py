"""The ``cli`` layer, measured from outside the library.

* ``cli.import_ms`` / ``cli.import_numpy_ms``: cumulative import time of
  ``proxrank2`` and of ``numpy`` as reported by ``python -X importtime``
  (median of several fresh interpreters).
* ``cli.exit_nonzero``: README commands, each run as its own
  ``proxrank2`` process on specs written by ``proxrank2 family gen``, that
  exit with a nonzero code.  Their printed answers are checked too.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

IMPORT_RUNS = 5

# (arguments, expected first lines of standard output).  The expected text
# comes from the README and the paper, and the complexity counts from the
# benchmark's own factor sets (refs.row_language), never from the library.
COMMANDS = (
    (["family", "gen", "substitution", "--depth", "6", "-o", "base.json"], []),
    (["family", "gen", "mixing", "--depth", "20", "-o", "mix.json"], []),
    (["validate", "--spec", "base.json"], ["ok"]),
    (["length", "7", "--spec", "base.json"], ["8191"]),
    (["gaps", "3", "2", "1", "1", "--max-gap", "20", "--spec", "base.json"], ["7,8,15"]),
    (["ergodic", "--spec", "base.json"], ["TwoErgodic(certified)"]),
    (["language", "1", "3", "--spec", "base.json"], ["count=6 stabilized=True"]),
    (["complexity", "4", "--spec", "base.json"], ["L=1 p=2", "L=2 p=4", "L=3 p=6", "L=4 p=9"]),
    (["mixcheck", "21", "1", "--spec", "mix.json"], ["window [33, 40] engine=strips", "ok"]),
    (["subst", "bridge", "12"], ["equal"]),
    (["bratteli", "vershik", "--rows", "4", "--position", "27", "--steps", "3",
      "--spec", "base.json"], ["27,28,29,30"]),
)


def _import_times(env: dict) -> tuple[float, float]:
    """Cumulative import ms of proxrank2 and numpy in one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import proxrank2"],
                          capture_output=True, text=True, env=env, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found[parts[2].strip()] = int(parts[1]) / 1000
    return found["proxrank2"], found["numpy"]


def _matches(stdout: str, expected: list[str]) -> bool:
    lines = stdout.splitlines()
    return all(len(lines) > i and lines[i].startswith(want) for i, want in enumerate(expected))


def probe(workdir: Path, env: dict) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    times = [_import_times(env) for _ in range(IMPORT_RUNS)]
    nonzero = wrong = 0
    for args, expected in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "proxrank2.cli", *args], cwd=workdir,
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            nonzero += 1
        if proc.returncode != 0 or not _matches(proc.stdout, expected):
            wrong += 1
            print(f"cli command {args} exited {proc.returncode}: {proc.stdout[:200]!r} "
                  f"{proc.stderr[:200]!r}", file=sys.stderr)
    return {
        "attempted": len(COMMANDS),
        "failed": wrong,
        "metrics": {
            "cli.import_ms": (statistics.median(t[0] for t in times), "ms"),
            "cli.import_numpy_ms": (statistics.median(t[1] for t in times), "ms"),
            "cli.exit_nonzero": (float(nonzero), "count"),
        },
    }
