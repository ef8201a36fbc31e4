"""In-memory span tracing around epiprofiler's public functions.

The tracer never edits the package's source. It replaces, in the namespaces
of the loaded ``epiprofiler`` modules, every binding of a target function
with a wrapper that records a span, and puts the originals back on
``uninstall``. A target that no longer exists is reported as absent and the
run goes on without it, so the trace survives refactors of the package.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module under epiprofiler, function name). A caller module sees
# a span for every call it makes through a module-level name, whichever
# module it imported the function from.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("network.load_adjacency", "network", "load_adjacency"),
    ("network.generate", "network", "generate_erdos_renyi"),
    ("network.hop_distances", "network", "hop_distances"),
    ("network.mobility", "network", "mobility_matrix"),
    ("simulator.simulate", "simulator", "simulate"),
    ("simulator.synthesize", "simulator", "synthesize_dataset"),
    ("profiler.decay_weights", "profiler", "decay_weights"),
    ("profiler.score", "profiler", "likeliness_scores"),
    ("profiler.hit_score", "profiler", "hit_score"),
    ("experiments.run", "experiments", "run_hit_experiment"),
    ("experiments.run", "experiments", "sweep_decay_parameter"),
    ("experiments.load_config", "experiments", "load_experiment_file"),
    ("experiments.write_csv", "experiments", "hit_curve_rows"),
    ("experiments.write_csv", "experiments", "write_hit_curves_csv"),
    ("experiments.write_csv", "experiments", "write_sweep_csv"),
    ("data_ingest.load_case_series", "data_ingest", "load_case_series"),
    ("data_ingest.filter_regions", "data_ingest", "filter_regions"),
    ("data_ingest.daily_deltas", "data_ingest", "daily_deltas"),
    ("data_ingest.rank_timeline", "data_ingest", "rank_timeline"),
    ("data_ingest.write_timeline_csv", "data_ingest", "write_timeline_csv"),
)

# What a span keeps of its call's result, for counters.
NOTES = {
    "profiler.score": lambda result: bool(getattr(result, "degenerate", False)),
}


def _resolve(module_name: str, attr: str):
    """The target function, or None when the module or name is gone."""
    try:
        module = importlib.import_module(f"epiprofiler.{module_name}")
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


def _rebind(fn, wrapper, undo: list) -> None:
    """Point every module-level binding of ``fn`` in the loaded epiprofiler
    modules at ``wrapper``, recording how to undo it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "epiprofiler" or name.startswith("epiprofiler.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
                undo.append((mod, key, fn))


def _restore(undo: list) -> None:
    for mod, key, fn in reversed(undo):
        setattr(mod, key, fn)
    undo.clear()


class HitScoreCheck:
    """Output check on every call of ``profiler.hit_score``: the score must
    be finite and lie in [1/N, 1]. It keeps only the failures, so it adds
    nothing to memory on a correct run."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.bad: list[float] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        fn = _resolve("profiler", "hit_score")
        if fn is None:
            return
        low, bad = 1.0 / self.n_nodes, self.bad

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            score = fn(*args, **kwargs)
            if not (math.isfinite(score) and low <= score <= 1.0):
                bad.append(score)
            return score

        _rebind(fn, checked, self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)

    def take_errors(self) -> list[str]:
        """Errors since the last call."""
        if not self.bad:
            return []
        errors = [f"{len(self.bad)} hit scores outside [1/{self.n_nodes}, 1], first {self.bad[0]!r}"]
        self.bad.clear()
        return errors


class Tracer:
    """Records spans as tuples
    ``(id, name, start, end, parent, repeat, unit, error, note)``.

    ``repeat`` and ``unit`` are set by the caller: the repeat of the workload
    and the number of units it had completed when the span started, so all
    spans of one unit share both. ``parent`` is -1 at the top level.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.repeat = -1
        self.unit = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        for span_name, module_name, attr in TARGETS:
            fn = _resolve(module_name, attr)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
            else:
                _rebind(fn, self._wrap(span_name, fn), self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)

    def _wrap(self, name, fn):
        note_of = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            repeat, unit = self.repeat, self.unit
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, repeat, unit, type(exc).__name__, None))
                raise
            end = perf_counter()
            stack.pop()
            note = note_of(result) if note_of is not None else None
            spans.append((sid, name, start, end, parent, repeat, unit, None, note))
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "repeat", "unit", "error", "note")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> tuple[dict, Counter]:
    """Per span name: total self time (duration minus the durations of its
    direct children, which never overlap in one thread) and call count."""
    child = defaultdict(float)
    for sid, name, start, end, parent, *_ in spans:
        child[parent] += end - start
    total, calls = defaultdict(float), Counter()
    for sid, name, start, end, *_ in spans:
        total[name] += end - start - child[sid]
        calls[name] += 1
    return total, calls


# Per-layer metrics: (name, unit, span, scale). Times are self times and,
# like counts, are given per unit of the workload, so runs of different
# length compare.
PER_UNIT = (
    ("network.hop_distances_s", "s", "network.hop_distances", 1.0),
    ("network.generate_s", "s", "network.generate", 1.0),
    ("network.mobility_s", "s", "network.mobility", 1.0),
    ("network.load_adjacency_ms", "ms", "network.load_adjacency", 1e3),
    ("simulator.simulate_s", "s", "simulator.simulate", 1.0),
    ("simulator.synthesize_ms", "ms", "simulator.synthesize", 1e3),
    ("profiler.decay_weights_s", "s", "profiler.decay_weights", 1.0),
    ("profiler.score_s", "s", "profiler.score", 1.0),
    ("profiler.hit_score_ms", "ms", "profiler.hit_score", 1e3),
    ("experiments.self_s", "s", "experiments.run", 1.0),
    ("data_ingest.load_case_series_ms", "ms", "data_ingest.load_case_series", 1e3),
    ("data_ingest.filter_regions_ms", "ms", "data_ingest.filter_regions", 1e3),
    ("data_ingest.daily_deltas_ms", "ms", "data_ingest.daily_deltas", 1e3),
    ("data_ingest.rank_timeline_ms", "ms", "data_ingest.rank_timeline", 1e3),
    ("data_ingest.write_timeline_csv_ms", "ms", "data_ingest.write_timeline_csv", 1e3),
    ("cli.self_ms", "ms", "cli.main", 1e3),
)


def layer_metrics(spans, units: int, outputs: int, specs: int, steps_per_unit: int) -> dict:
    """Per-layer metrics of one traced phase.

    ``units`` completed units, ``outputs`` output files written, ``specs``
    decay specs scored per snapshot, ``steps_per_unit`` integrator steps per
    unit (0 where nothing is simulated).
    """
    total, calls = self_times(spans)
    units = max(units, 1)
    metrics = {name: (total[span] * scale / units, unit) for name, unit, span, scale in PER_UNIT}
    sim_steps = units * steps_per_unit
    metrics["simulator.step_us"] = (1e6 * total["simulator.simulate"] / sim_steps if sim_steps else 0.0, "us")
    metrics["simulator.diverged"] = (sum(
        1 for s in spans if s[1] == "simulator.simulate" and s[7] == "SimulationDiverged") / units, "count")
    metrics["profiler.score_calls"] = (calls["profiler.score"] / units, "count")
    metrics["profiler.weight_builds"] = (calls["profiler.decay_weights"] / units, "count")
    metrics["profiler.weight_builds_per_pair"] = (calls["profiler.decay_weights"] / (units * specs), "count")
    metrics["profiler.degenerate"] = (sum(
        1 for s in spans if s[1] == "profiler.score" and s[8]) / units, "count")
    loads = calls["experiments.load_config"]
    metrics["experiments.load_config_ms"] = (1e3 * total["experiments.load_config"] / loads if loads else 0.0, "ms")
    metrics["experiments.write_csv_ms"] = (1e3 * total["experiments.write_csv"] / max(outputs, 1), "ms")
    return metrics
