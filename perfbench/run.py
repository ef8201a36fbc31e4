"""epiprofiler benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It writes the workload's inputs from the
seed under ``.perfbench_runs/``, measures set-up time in fresh interpreters,
runs the workload in a fresh worker process for S seconds, checks every
output and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it is a JSON record of the machine, the
model's outputs and the checks; the same record, and with ``--trace 1`` the
span dump, is kept under ``.perfbench_runs/results/``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"
# One BLAS thread: the workloads run with workers=1, and a single-threaded
# run is the plain baseline that later changes are compared with.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The largest array any workload holds: an N x N float64 network matrix at
# N=1000.
LARGEST_ARRAY_BYTES = 1000 * 1000 * 8


# Record fields kept in the results file but not printed.
BULKY = ("metrics", "unit_latencies_ms", "unit_end_s")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "llc": None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            caches.append((level, size))
    if caches:
        level, size = max(caches)
        info["llc"] = f"L{level} {size}"
        kib = int(size.rstrip("K")) if size.endswith("K") else None
        if kib is not None:
            ratio = LARGEST_ARRAY_BYTES / (kib * 1024)
            info["bandwidth"] = (
                f"no bandwidth figure is reported: the largest array "
                f"({LARGEST_ARRAY_BYTES / 1e6:.0f} MB) is {ratio:.2f} x the LLC, below 4 x")
    return info


def percentile(values, q):
    """q-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_worker(args: list[str], env: dict, result: Path, deadline: float, log: Path) -> dict:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker could start")
    with open(log, "ab") as err:
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args, "--result", str(result)],
                                  env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited with code {proc.returncode}:\n{tail}")
    with open(result) as fh:
        return json.load(fh)


def bench(args, root: Path, deadline: float) -> tuple[dict, dict]:
    runs = root / ".perfbench_runs"
    results = runs / "results"
    workdir = runs / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir()
    try:
        inputs = make_inputs(args.workload, args.seed, root, workdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update({var: "1" for var in THREAD_VARS})
        common = ["--workload", args.workload, "--inputs", json.dumps(inputs)]
        log = workdir / "worker.log"
        setup = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                probe = run_worker(common + ["--setup-only"], env, workdir / f"setup{k}.json",
                                   deadline, log)
                setup.append(probe["setup_s"])
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = ["--spans", str(results / f"{stem}-spans.jsonl.gz")] if args.trace else []
        out = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra,
                         env, workdir / "result.json", deadline, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = root / "src" / "epiprofiler" / "__init__.py"
    if Path(out["epiprofiler"]).resolve() != expected.resolve():
        raise BenchError(f"worker imported {out['epiprofiler']}, not {expected}")

    untraced = out["untraced"]
    latencies = untraced["latencies_ms"]
    if not latencies:
        raise BenchError(f"no unit completed: {out['errors']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "environment": {**out["environment"], **{var: env[var] for var in THREAD_VARS},
                        "workers": 1},
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_frac": out["failed"] / out["attempted"],
        "errors": out["errors"],
        "untraced": {key: untraced[key] for key in ("elapsed_s", "repeats", "completed")},
        # Run-time figures are reported but not gated: on a shared host they
        # move with the host's load from run to run by more than any bound
        # the benchmark may set (README, "Noise on a shared host").
        "units_per_s": {"value": statistics.median(untraced["window_units_per_s"]), "unit": "1/s"},
        "units_per_s_best": {"value": max(untraced["window_units_per_s"]), "unit": "1/s"},
        "unit_ms_p50": {"value": statistics.median(latencies), "unit": "ms",
                        "samples": len(latencies)},
        "unit_ms_min": {"value": min(latencies), "unit": "ms"},
        "unit_ms_quartiles": statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies,
        "window_units_per_s": untraced["window_units_per_s"],
        "unit_latencies_ms": latencies,
        "unit_end_s": untraced["unit_end_s"],
        "model_outputs": out["model_outputs"],
    }
    # A tail percentile is reported only with ten samples beyond it.
    if len(latencies) >= 100:
        record["unit_ms_p90"] = {"value": percentile(latencies, 90), "unit": "ms",
                                 "samples": len(latencies)}
    if args.trace:
        best = record["units_per_s_best"]["value"]
        best_traced = max(out["traced"]["window_units_per_s"])
        metrics = dict(out["layers"])
        metrics["trace.units_per_s_best"] = {"value": best_traced, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (1.0 - best_traced / best), "unit": "%"}
        record["absent_targets"] = out["absent_targets"]
        record["span_count"] = out["span_count"]
    else:
        metrics = {
            "peak_rss_mb": {"value": out["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        record["setup_probes_s"] = setup
        record["worker_setup_s"] = out["setup_s"]
    record["metrics"] = metrics
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measured time of each phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    deadline = monotonic() + DEADLINE_S
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "epiprofiler" / "__init__.py").is_file():
        print(f"error: {root} holds no epiprofiler source tree (src/epiprofiler); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        record, metrics = bench(args, root, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({key: value for key, value in record.items() if key not in BULKY}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
