"""Measured process of one benchmark run. ``run.py`` starts it in a fresh
interpreter, so its set-up time and peak resident memory belong to the
workload alone.

Phases: set-up (import epiprofiler and load the inputs), an untraced timed
phase and, with ``--trace 1``, a traced timed phase in the same process. Both
phases wrap ``hit_score`` to check every hit score; that costs about a
microsecond per call. It writes one JSON result to
``--result``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
from time import perf_counter

from spans import HitScoreCheck, Tracer, layer_metrics
from workloads import WORKLOADS, Ensemble, open_workload

WINDOW_S = 1.0


class UnitClock:
    """Per-unit latencies and completion times, from the workload's progress
    callbacks. Keeps the tracer's unit id equal to the number of units
    completed."""

    def __init__(self, tracer: Tracer | None = None):
        self.latencies: list[float] = []
        self.ends: list[float] = []
        self.tracer = tracer
        self.origin = self._last = perf_counter()

    def start(self) -> None:
        self._last = perf_counter()

    def progress(self, done=None, total=None) -> None:
        now = perf_counter()
        self.latencies.append(now - self._last)
        self.ends.append(now - self.origin)
        self._last = now
        if self.tracer is not None:
            self.tracer.unit = len(self.latencies)


def window_rates(ends: list[float]) -> list[float]:
    """Throughput of consecutive windows of whole units, each lasting at
    least WINDOW_S."""
    rates, start, units = [], 0.0, 0
    for end in ends:
        units += 1
        if end - start >= WINDOW_S:
            rates.append(units / (end - start))
            start, units = end, 0
    return rates


class Outcome:
    """Attempted and failed units of the run, with the output checks."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.model = None

    def record(self, fingerprint, errors, model) -> None:
        if not errors:
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                errors = ["output differs from the first repeat of this run"]
        n = self.workload.units_per_repeat
        self.attempted += n
        if errors:
            self.failed += n
            if len(self.errors) < 5:
                self.errors.extend(errors)
        else:
            self.model = model


def timed_phase(workload, seconds: float, outcome: Outcome, tracer: Tracer | None = None) -> dict:
    """Run whole repeats until ``seconds`` have passed."""
    clock = UnitClock(tracer)
    attempted, failed = outcome.attempted, outcome.failed
    repeats = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        if tracer is not None:
            tracer.repeat, tracer.unit = repeats, len(clock.latencies)
        clock.start()
        try:
            fingerprint, errors, model = workload.repeat(clock.progress)
        except Exception as exc:  # a failed unit is counted, not fatal
            fingerprint, errors, model = None, [f"{type(exc).__name__}: {exc}"], None
        outcome.record(fingerprint, errors, model)
        repeats += 1
    elapsed = perf_counter() - start
    attempted = outcome.attempted - attempted
    completed = attempted - (outcome.failed - failed)
    rates = window_rates(clock.ends) or [completed / elapsed]
    return {
        "elapsed_s": elapsed,
        "repeats": repeats,
        "attempted": attempted,
        "completed": completed,
        "window_units_per_s": rates,
        "latencies_ms": [1e3 * x for x in clock.latencies],
        "unit_end_s": clock.ends,
    }


def check_hit_scores(check: HitScoreCheck, phase: dict, outcome: Outcome) -> None:
    """Fail every unit of the phase if it produced a bad hit score."""
    errors = check.take_errors()
    if errors:
        outcome.failed += phase["completed"]
        phase["completed"] = 0
        outcome.errors.extend(errors)


def blas_environment() -> dict:
    """numpy's BLAS and, for OpenBLAS, the thread count it runs with."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True, help="JSON object of input paths")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="gzipped JSON-lines span dump of the traced phase")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = open_workload(args.workload, json.loads(args.inputs))

    start = perf_counter()
    import epiprofiler

    workload.load()
    result = {"setup_s": perf_counter() - start, "epiprofiler": epiprofiler.__file__}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    outcome = Outcome(workload)
    check = HitScoreCheck(workload.nodes)
    check.install()
    result["untraced"] = timed_phase(workload, args.seconds, outcome)
    check_hit_scores(check, result["untraced"], outcome)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        if isinstance(workload, Ensemble):
            # Load the config once more under the tracer, for load_config_ms.
            workload.load()
        phase = timed_phase(workload, args.seconds, outcome, tracer)
        tracer.uninstall()
        check_hit_scores(check, phase, outcome)
        result["traced"] = phase
        layers = layer_metrics(tracer.spans, phase["completed"], phase["repeats"],
                               workload.specs, workload.steps_per_unit)
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        result["absent_targets"] = tracer.absent
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    check.uninstall()
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
        model_outputs=outcome.model,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=blas_environment(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
