"""Spans around calls into ``proxrank2``, recorded from outside the library.

:meth:`Tracer.install` replaces every public function of the library's
modules (plus the private walk producer ``_walk_array``, which the gap
engines call directly, and the diagram method ``span_table``) with a
wrapper, wherever the name is bound: in the defining module, in every
module that did ``from .covering import ...``, and in the package
namespace.  :meth:`Tracer.uninstall` puts the originals back, so untraced
passes run the unmodified library.

Each span is ``(name, parent, query, start, end)``.  Spans stay in memory
until the run ends; self time is a span's duration minus the time covered
by its child spans.  Counts are read from returned objects (``engine``,
``iterations``, ``top_level_used``, walk sizes).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

MODULES = ("covering", "families", "expansion", "measures", "bratteli", "dynamics", "substitution")
PRIVATE_PRODUCERS = {("expansion", "_walk_array")}
#: Functions whose allocation peak the memory pass records.
MEMORY_PRODUCERS = {"expansion._walk_array", "measures.classify_ergodicity"}

#: Span name -> layer reported as ``<layer>.self_ms``.
_DYNAMICS_LAYER = {
    "language": "dynamics.language",
    "complexity_profile": "dynamics.language",
    "seed_from_position": "dynamics.seeds",
    "position_of_seed": "dynamics.seeds",
    "validate_seed": "dynamics.seeds",
    "stable_point": "dynamics.seeds",
    "unstable_point": "dynamics.seeds",
}
LAYERS = (
    "covering", "families", "measures", "bratteli", "expansion",
    "dynamics.language", "dynamics.checks", "dynamics.seeds", "substitution",
)


def layer_of(name: str) -> str | None:
    module, _, func = name.partition(".")
    if module == "dynamics":
        return _DYNAMICS_LAYER.get(func, "dynamics.checks")
    return module if module in MODULES else None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.query_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()
        self.peaks: list[tuple[str, int, int]] = []  # (name, peak bytes, walk steps)
        self.memory_mode = False
        self._saved: list[tuple[object, str, object]] = []
        self._seen_errors: set[int] = set()

    # -- installation -----------------------------------------------------

    def _targets(self):
        pkg = self.package
        for modname in MODULES:
            mod = sys.modules[f"{pkg.__name__}.{modname}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and (modname, attr) not in PRIVATE_PRODUCERS:
                    continue
                yield obj, f"{modname}.{attr}"

    def install(self, memory: bool = False) -> None:
        """Wrap every target wherever it is bound (or only producers if ``memory``)."""
        self.memory_mode = memory
        wrappers = {}
        for func, name in self._targets():
            if memory and name not in MEMORY_PRODUCERS:
                continue
            wrappers[id(func)] = self._wrap(func, name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        if not memory:
            cls = sys.modules[f"{self.package.__name__}.bratteli"].OrderedBratteliDiagram
            self._saved.append((cls, "span_table", cls.span_table))
            cls.span_table = self._wrap(cls.span_table, "bratteli.span_table")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, func, name: str):
        if self.memory_mode:
            return self._wrap_memory(func, name)
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        on_result = _RESULT_COUNTERS.get(name)
        is_expansion = name.startswith("expansion.")
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(tracer.name_col)
            stack = tracer.stack
            tracer.name_col.append(nid)
            tracer.parent_col.append(stack[-1] if stack else -1)
            tracer.query_col.append(tracer.query)
            tracer.end_col.append(0.0)
            stack.append(sid)
            tracer.start_col.append(clock())
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if is_expansion and type(exc).__name__ == "ExpansionTooLarge" \
                        and id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    tracer.counts["expansion.cap_exceeded"] += 1
                raise
            finally:
                tracer.end_col[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return wrapper

    def _wrap_memory(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return func(*args, **kwargs)
            tracemalloc.start()
            try:
                result = func(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            steps = int(result.size - 1) if name == "expansion._walk_array" else 0
            tracer.peaks.append((name, peak, steps))
            return result

        return wrapper

    # -- reporting --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32),
            "query": np.frombuffer(self.query_col, dtype=np.int32),
            "start": np.frombuffer(self.start_col, dtype=np.float64),
            "end": np.frombuffer(self.end_col, dtype=np.float64),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span duration and self time (duration minus child coverage)."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        covered = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][has_parent], dur[has_parent])
        return dur, dur - covered

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# --------------------------------------------------------------------------
# Counts read from returned objects
# --------------------------------------------------------------------------

def _compose_word(counts, result):
    counts["covering.compose_word.symbols"] += len(result)


def _walk(counts, result):
    counts["expansion.walk_steps"] += int(result.size - 1)


def _gap_set(counts, result):
    counts["expansion.gap_queries"] += 1
    counts["expansion.strip_answers"] += result.engine == "strips"


def _gap_table(counts, result):
    counts["expansion.gap_queries"] += 1
    counts["expansion.strip_answers"] += result[1] == "strips"


def _language(counts, result):
    counts["dynamics.language.levels_scanned"] += result.top_level_used - result.level
    counts["dynamics.language.unstabilized"] += not result.stabilized


def _factor_language(counts, result):
    counts["substitution.factor_language.iterations"] += result.iterations
    counts["substitution.unstabilized"] += not result.stabilized


def _classify(counts, result):
    counts["measures.classify.levels"] += len(result.rows)


_RESULT_COUNTERS = {
    "covering.compose_word": _compose_word,
    "expansion._walk_array": _walk,
    "expansion.gap_set": _gap_set,
    "expansion.realized_gap_table": _gap_table,
    "dynamics.language": _language,
    "substitution.factor_language": _factor_language,
    "measures.classify_ergodicity": _classify,
}


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, per query where it is a total."""
    names = tracer.names
    cols = tracer.arrays()
    dur, self_t = tracer.self_times()
    name_of = cols["name"]
    per_q = 1.0 / max(queries, 1)
    out: dict[str, tuple[float, str]] = {}

    layer_self = Counter()
    calls = Counter()
    name_ms = Counter()
    for nid, name in enumerate(names):
        sel = name_of == nid
        calls[name] = int(sel.sum())
        name_ms[name] = float(dur[sel].sum()) * 1000
        layer = layer_of(name)
        if layer is not None:
            layer_self[layer] += float(self_t[sel].sum()) * 1000
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layer_self[layer] * per_q, "ms")

    c = tracer.counts
    out["covering.circuit_length.calls"] = (calls["covering.circuit_length"] * per_q, "count")
    out["covering.compose_word.symbols"] = (c["covering.compose_word.symbols"] * per_q, "count")
    out["families.extend_family.calls"] = (calls["families.extend_family"] * per_q, "count")
    levels = c["measures.classify.levels"]
    out["measures.classify.ms_per_level"] = (
        name_ms["measures.classify_ergodicity"] / levels if levels else 0.0, "ms")
    out["bratteli.span_table.calls"] = (calls["bratteli.span_table"] * per_q, "count")
    out["expansion.walk_steps"] = (c["expansion.walk_steps"] * per_q, "count")
    gq = c["expansion.gap_queries"]
    out["expansion.gap_queries"] = (gq * per_q, "count")
    out["expansion.strip_share"] = (c["expansion.strip_answers"] / gq if gq else 0.0, "frac")
    out["expansion.cap_exceeded"] = (float(c["expansion.cap_exceeded"]), "count")
    out["dynamics.language.calls"] = (calls["dynamics.language"] * per_q, "count")
    out["dynamics.language.levels_scanned"] = (
        c["dynamics.language.levels_scanned"] * per_q, "count")
    out["dynamics.language.unstabilized"] = (float(c["dynamics.language.unstabilized"]), "count")

    profiles = calls["dynamics.complexity_profile"]
    if profiles:
        lang = tracer.name_ids["dynamics.language"]
        prof = tracer.name_ids["dynamics.complexity_profile"]
        parents = cols["parent"][name_of == lang]
        under = int((name_of[parents[parents >= 0]] == prof).sum())
        out["dynamics.complexity.language_calls_per_profile"] = (under / profiles, "count")
    else:
        out["dynamics.complexity.language_calls_per_profile"] = (0.0, "count")

    out["substitution.factor_language.calls"] = (
        calls["substitution.factor_language"] * per_q, "count")
    out["substitution.factor_language.iterations"] = (
        c["substitution.factor_language.iterations"] * per_q, "count")
    out["substitution.unstabilized"] = (float(c["substitution.unstabilized"]), "count")
    return out


def memory_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    classify = [p for name, p, _ in tracer.peaks if name == "measures.classify_ergodicity"]
    walks = [(p, s) for name, p, s in tracer.peaks if name == "expansion._walk_array"]
    steps = sum(s for _, s in walks)
    return {
        "measures.classify.peak_alloc_mb": (max(classify) / 2**20 if classify else 0.0, "MB"),
        "expansion.bytes_per_step": (sum(p for p, _ in walks) / steps if steps else 0.0, "B/step"),
    }
