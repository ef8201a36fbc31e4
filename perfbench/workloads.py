"""The four benchmark workloads: seeded input generation, the calls one
repeat makes into epiprofiler's public API, and the checks on its outputs.

Input generation runs in the orchestrating process and needs no epiprofiler
import; ``load`` and ``repeat`` run in the measured worker process.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

LOW_R = {"alpha": 0.11, "beta": 0.09, "gamma": 0.2}
MID_R = {"alpha": 0.133, "beta": 0.067, "gamma": 0.2}
OPTIMAL_DECAYS = [
    {"kind": "naive"},
    {"kind": "power", "param": 2.0},
    {"kind": "polynomial", "param": 0.5},
    {"kind": "exponential", "param": 0.05},
]
POLY = [{"kind": "polynomial", "param": 0.5}]
# Ten polynomial exponents spaced geometrically from 0.25 to 8.
SWEEP_GRID = [round(0.25 * 32 ** (k / 9), 4) for k in range(10)]

# replicates is the number of units per repeat; every repeat of a run
# recomputes the same replicates, so their outputs must be identical.
ENSEMBLES = {
    "ensemble-n100": dict(replicates=10, nodes=100, rates=LOW_R, decays=OPTIMAL_DECAYS,
                          times=[float(t) for t in range(5, 101, 5)]),
    "ensemble-n1000": dict(replicates=2, nodes=1000, rates=LOW_R, decays=POLY,
                           times=[5.0, 10.0, 15.0, 20.0]),
    "sweep-n300": dict(replicates=2, nodes=300, rates=MID_R, decays=POLY,
                       times=[float(t) for t in range(1, 101)],
                       sweep={"kind": "polynomial", "grid": SWEEP_GRID}),
}
WORKLOADS = (*ENSEMBLES, "sars-timeline")

SARS_DAYS = 27
SARS_REGIONS = 11
SARS_LEADER = "HKG"
SIM_DT = 0.05


def make_inputs(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's input files for ``seed`` into ``workdir``;
    return what the worker needs to find them."""
    if workload in ENSEMBLES:
        spec = ENSEMBLES[workload]
        raw = {
            "experiment": "hit",
            "replicates": spec["replicates"],
            "nodes": spec["nodes"],
            "mean_degree": 2.0,
            **spec["rates"],
            "decays": spec["decays"],
            "observation_times": spec["times"],
            "sim_dt": SIM_DT,
            "master_seed": seed,
        }
        if "sweep" in spec:
            raw["sweep"] = spec["sweep"]
        config = workdir / "config.json"
        config.write_text(json.dumps(raw, indent=2) + "\n")
        return {"config": str(config), "out": str(workdir / "out.csv")}
    # sars-timeline: the bundled data with node order and case-row order
    # shuffled by the seed. Neither changes which region leads.
    data = root / "src" / "epiprofiler" / "data"
    rng = random.Random(seed)
    with open(data / "sars_aviation_adjacency.csv", newline="") as fh:
        adj = list(csv.reader(fh))
    labels = adj[0]
    cells = {row[0]: dict(zip(labels, row[1:])) for row in adj[1:]}
    order = labels[:]
    rng.shuffle(order)
    net = workdir / "net.csv"
    with open(net, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(order)
        for a in order:
            writer.writerow([a] + [cells[a][b] for b in order])
    with open(data / "sars_who_cumulative.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    rng.shuffle(body)
    cases = workdir / "cases.csv"
    with open(cases, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(body)
    return {"net": str(net), "cases": str(cases), "out": str(workdir / "timeline.csv")}


def open_workload(workload: str, inputs: dict):
    if workload in ENSEMBLES:
        return Ensemble(workload, inputs)
    return Timeline(inputs)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _spec_label(spec) -> str:
    return spec.kind.value if spec.param is None else f"{spec.kind.value}({spec.param:g})"


class Ensemble:
    """run_hit_experiment or sweep_decay_parameter plus the CSV write, as
    ``epiprofiler evaluate`` and ``epiprofiler sweep`` call them."""

    def __init__(self, workload: str, inputs: dict):
        spec = ENSEMBLES[workload]
        self.config_path = inputs["config"]
        self.out = inputs["out"]
        self.nodes = spec["nodes"]
        self.units_per_repeat = spec["replicates"]
        self.is_sweep = "sweep" in spec
        self.specs = len(spec["sweep"]["grid"]) if self.is_sweep else len(spec["decays"])
        # New-case snapshots need one report beyond the last observation.
        self.steps_per_unit = round((max(spec["times"]) + 1.0) / SIM_DT)

    def load(self) -> None:
        from epiprofiler import experiments

        self.experiments = experiments
        self.file = experiments.load_experiment_file(self.config_path)

    def repeat(self, progress):
        """One repeat; returns (fingerprint, errors, model outputs)."""
        exp, cfg = self.experiments, self.file.config
        if self.is_sweep:
            result = exp.sweep_decay_parameter(
                cfg, self.file.sweep_kind, self.file.sweep_grid, workers=1, progress=progress)
            exp.write_sweep_csv(self.out, "sweep", result)
            means = list(result.mean.values())
            model = {"mean_H": {repr(p): h for p, h in result.mean.items()},
                     "best_param": result.best_param}
            errors = [] if result.best_param in result.mean else ["best_param is not on the grid"]
        else:
            result = exp.run_hit_experiment(cfg, workers=1, progress=progress)
            exp.write_hit_curves_csv(self.out, exp.hit_curve_rows("hit", result))
            means = [h for curve in result.mean.values() for h in curve]
            model = {"times": list(result.times),
                     "mean_H": {_spec_label(s): list(curve) for s, curve in result.mean.items()}}
            errors = []
        if len(result.trajectory_checksums) != self.units_per_repeat:
            errors.append(f"{len(result.trajectory_checksums)} trajectory checksums "
                          f"for {self.units_per_repeat} replicates")
        # A mean of hit scores that all equal 1/N can round one ulp below it.
        low, high = (1.0 - 1e-9) / self.nodes, 1.0 + 1e-9
        bad = [h for h in means if not (math.isfinite(h) and low <= h <= high)]
        if bad:
            errors.append(f"{len(bad)} mean hit scores outside [1/{self.nodes}, 1], first {bad[0]!r}")
        return (_sha256(self.out), result.trajectory_checksums), errors, model


class Timeline:
    """``epiprofiler rank-timeline`` on the bundled SARS data, run in-process
    through ``epiprofiler.cli.main`` by one closed-loop caller."""

    units_per_repeat = 1
    nodes = SARS_REGIONS
    specs = 1
    steps_per_unit = 0

    def __init__(self, inputs: dict):
        self.net, self.cases, self.out = inputs["net"], inputs["cases"], inputs["out"]
        self.argv = ["rank-timeline", "--net", self.net, "--cases", self.cases, "--out", self.out]
        self._checked: tuple[str, dict] | None = None

    def load(self) -> None:
        from epiprofiler import cli, data_ingest, network

        self.cli = cli
        network.load_adjacency(self.net)
        data_ingest.load_case_series(self.cases)

    def repeat(self, progress):
        code = self.cli.main(self.argv)
        progress(1, 1)
        if code != 0:
            return None, [f"rank-timeline exited with code {code}"], None
        data = Path(self.out).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self._checked is not None and self._checked[0] == digest:
            return digest, [], self._checked[1]
        errors, model = check_timeline(data.decode())
        if not errors:
            self._checked = (digest, model)
        return digest, errors, model


def check_timeline(text: str):
    """The README's claim on the bundled data: 27 days of 11 ranked regions
    with Hong Kong first on every day."""
    rows = list(csv.DictReader(io.StringIO(text)))
    errors = []
    if len(rows) != SARS_DAYS * SARS_REGIONS:
        errors.append(f"timeline has {len(rows)} rows, expected {SARS_DAYS} x {SARS_REGIONS}")
    leaders = {r["date"]: r["region"] for r in rows if r.get("rank") == "1"}
    if len(leaders) != SARS_DAYS:
        errors.append(f"timeline ranks {len(leaders)} days, expected {SARS_DAYS}")
    others = sorted(d for d, region in leaders.items() if region != SARS_LEADER)
    if others:
        errors.append(f"{SARS_LEADER} is not ranked first on {len(others)} days, first {others[0]}")
    return errors, {"top_region": leaders}
