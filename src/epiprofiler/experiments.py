"""Ensemble evaluation harness: hit-score curves over random topologies,
hit-vs-correlation samples, observable comparisons, and decay-parameter
sweeps. Each replicate derives its RNG streams from (master_seed, replicate
index), so results are identical no matter how replicates are scheduled."""
from __future__ import annotations

import csv
import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .network import generate_erdos_renyi, hop_distances
from .profiler import DecayKind, DecayProfile, DecaySpec, hit_score
from .simulator import (
    EpidemicParams,
    InitialCondition,
    ObservableKind,
    SimulationDiverged,
    ZeroVarianceError,
    _step_multiple,
    initial_correlation,
    simulate,
    synthesize_dataset,
)

DEFAULT_OBSERVATION_TIMES = tuple(float(t) for t in range(5, 101, 5))

ProgressFn = Callable[[int, int], None]


class ConfigError(ValueError):
    """Raised when an experiment config file is malformed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full recipe for one synthetic ensemble experiment."""

    replicates: int
    params: EpidemicParams
    decays: tuple[DecaySpec, ...]
    n_nodes: int = 100
    mean_degree: float = 2.0
    index_cases: float = 20.0
    population: float = 1e8
    observation_times: tuple[float, ...] = DEFAULT_OBSERVATION_TIMES
    delta_t: float = 1.0
    kind: ObservableKind = ObservableKind.NEW_CASES
    master_seed: int = 0
    sim_dt: float = 0.05
    report_dt: float = 1.0
    noise: bool = True

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates!r}")
        if self.n_nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.n_nodes!r}")
        if not 0 < self.mean_degree < self.n_nodes:
            raise ValueError(f"mean_degree must lie in (0, {self.n_nodes}), got {self.mean_degree!r}")
        for name in ("population", "sim_dt", "report_dt", "delta_t"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        _step_multiple(self.report_dt, self.sim_dt, "report_dt", "sim_dt")
        _step_multiple(self.delta_t, self.report_dt, "delta_t", "report_dt")
        share = self.population / self.n_nodes
        if not 0 < self.index_cases <= share:
            raise ValueError(
                f"index_cases must lie in (0, population / nodes = {share!r}], got {self.index_cases!r}"
            )
        if not self.decays:
            raise ValueError("at least one decay spec is required")
        object.__setattr__(self, "decays", tuple(self.decays))
        times = tuple(float(t) for t in self.observation_times)
        if not times or any(t < 0 for t in times) or list(times) != sorted(times):
            raise ValueError("observation_times must be a non-empty increasing sequence of t >= 0")
        for t in times:
            if abs(t / self.report_dt - round(t / self.report_dt)) > 1e-9:
                raise ValueError(
                    f"observation time {t} is not on the reporting grid (report_dt={self.report_dt})"
                )
        object.__setattr__(self, "observation_times", times)
        object.__setattr__(self, "kind", ObservableKind(self.kind))

    @property
    def t_end(self) -> float:
        """Shortest reporting horizon covering every observation."""
        need = max(self.observation_times)
        if self.kind.is_difference:
            need += self.delta_t
        reports = max(1, math.ceil(need / self.report_dt - 1e-9))
        return reports * self.report_dt


@dataclass(frozen=True)
class HitCurve:
    """Mean hit score and standard error per decay spec over the time grid."""

    times: tuple[float, ...]
    mean: dict[DecaySpec, tuple[float, ...]]
    stderr: dict[DecaySpec, tuple[float, ...]]
    replicates: int
    trajectory_checksums: tuple[str, ...]


@dataclass(frozen=True)
class CorrelationSamples:
    """Pooled (initial-correlation, hit score) pairs per decay spec."""

    pairs: dict[DecaySpec, tuple[tuple[float, float], ...]]
    skipped: int
    replicates: int
    trajectory_checksums: tuple[str, ...]


@dataclass(frozen=True)
class SweepResult:
    """Mean hit score per decay parameter, plus the minimizer."""

    kind: DecayKind
    mean: dict[float, float]
    best_param: float
    replicates: int
    trajectory_checksums: tuple[str, ...]


def _replicate(cfg: ExperimentConfig, kinds: tuple[ObservableKind, ...], rep: int):
    """One replicate: a topology, source and trajectory drawn from the seeds
    (master_seed, rep, 0|1|2), with every (kind, time) observation stacked
    once and scored by one decay profile per spec.

    Returns the trajectory checksum, the hit scores shaped (len(kinds),
    len(cfg.decays), len(times)), and the initial correlation at each
    observation time, NaN where the correlation has zero variance.
    """
    net = generate_erdos_renyi(cfg.n_nodes, cfg.mean_degree, seed=(cfg.master_seed, rep, 0))
    source_rng = np.random.default_rng((cfg.master_seed, rep, 1))
    source = int(source_rng.integers(cfg.n_nodes))
    init = InitialCondition(source, cfg.index_cases, cfg.population)
    try:
        traj = simulate(
            net,
            cfg.params,
            init,
            cfg.t_end,
            sim_dt=cfg.sim_dt,
            report_dt=cfg.report_dt,
            seed=(cfg.master_seed, rep, 2),
            noise=cfg.noise,
        )
    except SimulationDiverged as exc:
        raise SimulationDiverged(f"replicate {rep}: {exc}") from exc
    dist = hop_distances(net)
    times = cfg.observation_times
    values = np.stack(
        [synthesize_dataset(traj, t, cfg.delta_t, kind).values for kind in kinds for t in times]
    )
    hits = np.empty((len(kinds), len(cfg.decays), len(times)))
    for s_idx, spec in enumerate(cfg.decays):
        scores, _ = DecayProfile.build(dist, spec).score_batch(values)
        for row, (k_idx, t_idx) in enumerate(np.ndindex(len(kinds), len(times))):
            hits[k_idx, s_idx, t_idx] = hit_score(scores[row], source)
    correlations = np.full(len(times), np.nan)
    for t_idx, t in enumerate(times):
        try:
            correlations[t_idx] = initial_correlation(traj, t)
        except ZeroVarianceError:
            pass
    return traj.checksum(), hits, correlations


def _run_replicates(
    cfg: ExperimentConfig,
    kinds: tuple[ObservableKind, ...],
    workers: int,
    progress: ProgressFn | None,
):
    """Every replicate of cfg, in replicate order: the trajectory checksums,
    the hit scores shaped (reps, kinds, specs, times) and the initial
    correlations shaped (reps, times). ``progress(done, total)`` is called
    once per replicate."""
    times = len(cfg.observation_times)
    checksums = []
    hits = np.empty((cfg.replicates, len(kinds), len(cfg.decays), times))
    correlations = np.empty((cfg.replicates, times))
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            # Imported here so a serial run never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        results = mapper(partial(_replicate, cfg, kinds), range(cfg.replicates))
        for rep, (checksum, rep_hits, rep_correlations) in enumerate(results):
            checksums.append(checksum)
            hits[rep] = rep_hits
            correlations[rep] = rep_correlations
            if progress is not None:
                progress(rep + 1, cfg.replicates)
    return tuple(checksums), hits, correlations


def _hit_curve(cfg: ExperimentConfig, samples: np.ndarray, checksums: tuple[str, ...]) -> HitCurve:
    """Mean and standard error over replicates of hit scores shaped
    (reps, specs, times)."""
    mean = samples.mean(axis=0)
    if cfg.replicates > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(cfg.replicates)
    else:
        stderr = np.zeros_like(mean)
    return HitCurve(
        cfg.observation_times,
        {spec: tuple(float(x) for x in mean[s_idx]) for s_idx, spec in enumerate(cfg.decays)},
        {spec: tuple(float(x) for x in stderr[s_idx]) for s_idx, spec in enumerate(cfg.decays)},
        cfg.replicates,
        checksums,
    )


def run_hit_experiment(
    cfg: ExperimentConfig, workers: int = 1, progress: ProgressFn | None = None
) -> HitCurve:
    """Mean hit-score curve per decay spec over random topologies.

    Each replicate draws a fresh topology and a uniformly random source,
    simulates once, and scores the observation grid with every decay spec.
    """
    checksums, hits, _ = _run_replicates(cfg, (cfg.kind,), workers, progress)
    return _hit_curve(cfg, hits[:, 0], checksums)


def hit_vs_correlation(
    cfg: ExperimentConfig, workers: int = 1, progress: ProgressFn | None = None
) -> CorrelationSamples:
    """Pair each hit score with the surviving-trace correlation at the same
    observation time. Zero-variance samples are skipped and counted."""
    checksums, hits, correlations = _run_replicates(cfg, (cfg.kind,), workers, progress)
    valid = ~np.isnan(correlations)
    pairs = {
        spec: tuple(zip(correlations[valid].tolist(), hits[:, 0, s_idx][valid].tolist()))
        for s_idx, spec in enumerate(cfg.decays)
    }
    return CorrelationSamples(pairs, int(np.count_nonzero(~valid)), cfg.replicates, checksums)


def compare_observables(
    cfg: ExperimentConfig, workers: int = 1, progress: ProgressFn | None = None
) -> dict[ObservableKind, HitCurve]:
    """Hit curves for all four observable kinds from identical trajectories,
    so the comparison is paired replicate by replicate. cfg.kind is ignored;
    the horizon always covers the difference observables."""
    cfg = replace(cfg, kind=ObservableKind.NEW_CASES)
    kinds = tuple(ObservableKind)
    checksums, hits, _ = _run_replicates(cfg, kinds, workers, progress)
    return {kind: _hit_curve(cfg, hits[:, k_idx], checksums) for k_idx, kind in enumerate(kinds)}


def sweep_decay_parameter(
    cfg: ExperimentConfig,
    kind: DecayKind,
    grid: Sequence[float],
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """Mean hit score (over replicates and the observation grid) per decay
    parameter, with identical trajectories across parameters. Returns the
    minimizer; ties break toward the smaller parameter."""
    kind = DecayKind(kind)
    grid = [float(p) for p in grid]
    if not grid:
        raise ValueError("sweep grid must not be empty")
    sweep_cfg = replace(cfg, decays=tuple(DecaySpec(kind, p) for p in grid))
    checksums, hits, _ = _run_replicates(sweep_cfg, (cfg.kind,), workers, progress)
    # Mean over the time grid per replicate, then over replicates.
    mean_per_param = hits[:, 0].mean(axis=2).mean(axis=0)
    best_idx = min(range(len(grid)), key=lambda i: (mean_per_param[i], grid[i]))
    mean = {grid[i]: float(mean_per_param[i]) for i in range(len(grid))}
    return SweepResult(kind, mean, grid[best_idx], cfg.replicates, checksums)


def rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("rank correlation needs two equal-length vectors of size >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise ZeroVarianceError("rank correlation undefined for constant input")
    return float((rx @ ry) / denom)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# Tidy CSV export and JSON configs
# ---------------------------------------------------------------------------

HIT_CSV_HEADER = ["experiment", "decay_kind", "param", "t", "mean_H", "stderr", "replicates"]


def hit_curve_rows(experiment: str, curve: HitCurve) -> list[list[str]]:
    rows = []
    for spec in curve.mean:
        for t_idx, t in enumerate(curve.times):
            rows.append(
                [
                    experiment,
                    spec.kind.value,
                    "" if spec.param is None else repr(spec.param),
                    repr(float(t)),
                    repr(curve.mean[spec][t_idx]),
                    repr(curve.stderr[spec][t_idx]),
                    str(curve.replicates),
                ]
            )
    return rows


def write_hit_curves_csv(path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HIT_CSV_HEADER)
        writer.writerows(rows)


def write_correlation_csv(path, experiment: str, samples: CorrelationSamples) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "decay_kind", "param", "initial_correlation", "hit_score"])
        for spec, pairs in samples.pairs.items():
            param = "" if spec.param is None else repr(spec.param)
            for corr, h in pairs:
                writer.writerow([experiment, spec.kind.value, param, repr(corr), repr(h)])


def write_sweep_csv(path, experiment: str, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "decay_kind", "param", "mean_H", "replicates", "selected"])
        for param in sorted(result.mean):
            writer.writerow(
                [
                    experiment,
                    result.kind.value,
                    repr(param),
                    repr(result.mean[param]),
                    str(result.replicates),
                    "true" if param == result.best_param else "false",
                ]
            )


@dataclass(frozen=True)
class ExperimentFile:
    """Parsed experiment config file: the ensemble recipe plus which
    experiment to run and an optional sweep block."""

    config: ExperimentConfig
    experiment: str = "hit"
    sweep_kind: DecayKind | None = None
    sweep_grid: tuple[float, ...] = ()


def _number(value, field: str, where: str) -> float:
    """A finite JSON number; booleans are not numbers here."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise ConfigError(f"{where}: field {field} must be a finite number, got {value!r}")
    return float(value)


def _require(mapping: dict, key: str, types, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = mapping[key]
    if types is float:
        return _number(value, repr(key), where)
    if types is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: field {key!r} must be an integer, got {value!r}")
        return value
    if not isinstance(value, types):
        raise ConfigError(f"{where}: field {key!r} has unexpected type {type(value).__name__}")
    return value


def experiment_file_from_dict(raw: dict, where: str = "config") -> ExperimentFile:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    known = {
        "replicates", "nodes", "mean_degree", "alpha", "beta", "gamma",
        "index_cases", "population", "observation_times", "delta_t",
        "observable", "decays", "master_seed", "sim_dt", "report_dt",
        "noise", "experiment", "sweep",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where}: unknown field {key!r}")
    replicates = _require(raw, "replicates", int, where)
    alpha = _require(raw, "alpha", float, where)
    beta = _require(raw, "beta", float, where)
    gamma = _require(raw, "gamma", float, where)
    decays_raw = _require(raw, "decays", list, where)
    decays = []
    for idx, entry in enumerate(decays_raw):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"{where}: decays[{idx}] must be an object with a 'kind' field")
        param = entry.get("param")
        if param is not None:
            param = _number(param, f"'decays[{idx}].param'", where)
        try:
            decays.append(DecaySpec(DecayKind(entry["kind"]), param))
        except ValueError as exc:
            raise ConfigError(f"{where}: decays[{idx}]: {exc}") from exc
    kwargs = {}
    for key, attr, typ in [
        ("nodes", "n_nodes", int),
        ("mean_degree", "mean_degree", float),
        ("index_cases", "index_cases", float),
        ("population", "population", float),
        ("delta_t", "delta_t", float),
        ("master_seed", "master_seed", int),
        ("sim_dt", "sim_dt", float),
        ("report_dt", "report_dt", float),
    ]:
        if key in raw:
            kwargs[attr] = _require(raw, key, typ, where)
    if "observation_times" in raw:
        times = _require(raw, "observation_times", list, where)
        kwargs["observation_times"] = tuple(
            _number(t, f"'observation_times[{idx}]'", where) for idx, t in enumerate(times)
        )
    if "observable" in raw:
        try:
            kwargs["kind"] = ObservableKind(_require(raw, "observable", str, where))
        except ValueError as exc:
            raise ConfigError(f"{where}: field 'observable': {exc}") from exc
    if "noise" in raw:
        noise = raw["noise"]
        if not isinstance(noise, bool):
            raise ConfigError(f"{where}: field 'noise' must be a boolean, got {noise!r}")
        kwargs["noise"] = noise
    try:
        cfg = ExperimentConfig(
            replicates=replicates,
            params=EpidemicParams(alpha, beta, gamma),
            decays=tuple(decays),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    experiment = raw.get("experiment", "hit")
    if experiment not in ("hit", "correlation", "observables"):
        raise ConfigError(
            f"{where}: field 'experiment' must be one of hit/correlation/observables, got {experiment!r}"
        )
    sweep_kind = None
    sweep_grid: tuple[float, ...] = ()
    if "sweep" in raw:
        sweep = raw["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError(f"{where}: field 'sweep' must be an object")
        try:
            sweep_kind = DecayKind(_require(sweep, "kind", str, f"{where}.sweep"))
        except ValueError as exc:
            raise ConfigError(f"{where}.sweep: field 'kind': {exc}") from exc
        grid = _require(sweep, "grid", list, f"{where}.sweep")
        if not grid:
            raise ConfigError(f"{where}.sweep: field 'grid' must not be empty")
        values = []
        for idx, p in enumerate(grid):
            values.append(_number(p, f"'sweep.grid[{idx}]'", where))
            try:
                DecaySpec(sweep_kind, values[-1])
            except ValueError as exc:
                raise ConfigError(f"{where}.sweep: grid[{idx}]: {exc}") from exc
        sweep_grid = tuple(values)
    return ExperimentFile(cfg, experiment, sweep_kind, sweep_grid)


def load_experiment_file(path) -> ExperimentFile:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return experiment_file_from_dict(raw, where=str(path))
