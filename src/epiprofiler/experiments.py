"""Ensemble evaluation harness: hit-score curves over random topologies,
hit-vs-correlation samples, observable comparisons, and decay-parameter
sweeps. Each replicate derives its RNG streams from (master_seed, replicate
index), so results are identical no matter how replicates are scheduled."""
from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .network import _check_graph, _number, _open_text, _write_csv, generate_erdos_renyi
from .profiler import DecayKind, DecaySpec, ObservableKind, _hit_scores
from .simulator import (
    MAX_REPORT_VALUES,
    EpidemicParams,
    InitialCondition,
    SimulationDiverged,
    _check_run,
    _grid_steps,
    _reports,
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
        replicates = _number(self.replicates, "replicates", 1, integer=True)
        n_nodes, mean_degree = _check_graph(self.n_nodes, self.mean_degree)
        master_seed = _number(self.master_seed, "master_seed", 0, integer=True)
        decays = tuple(self.decays)
        if not decays:
            raise ValueError("decays must hold at least one decay spec")
        _refuse_repeats(decays, "decays")
        times = tuple(_number(t, f"observation_times[{i}]") for i, t in enumerate(self.observation_times))
        if not times:
            raise ValueError("observation_times must not be empty")
        # The hit scores a run holds; compare_observables scores every kind.
        if replicates * len(ObservableKind) * len(decays) * len(times) > MAX_REPORT_VALUES:
            raise ValueError(
                f"replicates ({replicates}) x {len(ObservableKind)} kinds x {len(decays)} decays x "
                f"{len(times)} times exceed {MAX_REPORT_VALUES} hit scores, the limit for a run"
            )
        # The recipe of a one-report run: everything simulate checks but the
        # horizon, which is a whole number of reports by construction.
        init = InitialCondition(0, self.index_cases, self.population)
        _check_run(n_nodes, init, self.report_dt, self.sim_dt, self.report_dt, self.noise)
        sim_dt, report_dt = float(self.sim_dt), float(self.report_dt)  # checked by _check_run
        delta_t = _number(self.delta_t, "delta_t", 0, strict=True)
        _grid_steps(delta_t, report_dt, "delta_t")
        # Every time a replicate looks up, by the rule the lookup applies:
        # t, and t + delta_t, which compare_observables reads for any kind.
        reports = []
        for i, t in enumerate(times):
            reports.append(_grid_steps(t, report_dt, f"observation time observation_times[{i}]"))
            _grid_steps(t + delta_t, report_dt, f"observation time {t!r} + delta_t")
        # Each time is its own report, so no report is read or counted twice.
        if any(b <= a for a, b in zip(reports, reports[1:])):
            raise ValueError(f"observation_times must be strictly increasing report times, got {list(times)}")
        # The longest run a replicate makes, within the run budget.
        _check_run(n_nodes, init, times[-1] + delta_t, sim_dt, report_dt)
        for name, value in dict(
            replicates=replicates, decays=decays, n_nodes=n_nodes, mean_degree=mean_degree, delta_t=delta_t,
            index_cases=init.index_cases, population=init.population, observation_times=times, sim_dt=sim_dt,
            kind=ObservableKind(self.kind), master_seed=master_seed, report_dt=report_dt,
        ).items():
            object.__setattr__(self, name, value)

    @property
    def t_end(self) -> float:
        """Shortest reporting horizon covering every observation."""
        need = max(self.observation_times) + (self.delta_t if self.kind.is_difference else 0.0)
        return max(1, _grid_steps(need, self.report_dt, "t_end")) * self.report_dt


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


def _replicate(cfg: ExperimentConfig, kinds: tuple[ObservableKind, ...], rep: int, correlate: bool = False):
    """One replicate: a topology, source and trajectory drawn from the seeds
    (master_seed, rep, 0|1|2), with every (kind, time) observation stacked
    once and scored once per spec.

    Returns the trajectory checksum, the hit scores shaped (len(kinds),
    len(cfg.decays), len(times)), and the initial correlation at each
    observation time, NaN where the correlation has zero variance or when
    ``correlate`` is off.

    The phases run in this order: draw the network and the source; run the
    step loop and slice the observations and correlations out of it
    (:func:`_observe`); then count every hit score in the one pass of
    :func:`profiler._hit_scores` over the breadth-first search, which holds
    no (m, N) scores and no N x N array.
    """
    net = generate_erdos_renyi(cfg.n_nodes, cfg.mean_degree, seed=(cfg.master_seed, rep, 0))
    source_rng = np.random.default_rng((cfg.master_seed, rep, 1))
    source = int(source_rng.integers(cfg.n_nodes))
    init = InitialCondition(source, cfg.index_cases, cfg.population)
    try:
        checksum, values, correlations = _observe(cfg, kinds, net, init, (cfg.master_seed, rep, 2), correlate)
    except SimulationDiverged as exc:
        raise SimulationDiverged(f"replicate {rep}: {exc}") from exc
    hits = _hit_scores(net, cfg.decays, values, source).reshape(len(cfg.decays), len(kinds), -1)
    return checksum, hits.transpose(1, 0, 2), correlations


def _observe(cfg: ExperimentConfig, kinds, net, init: InitialCondition, seed, correlate: bool):
    """Run a replicate's step loop, :func:`simulator._reports`, copying only
    the rows that the observations (and, with ``correlate``, the initial
    correlations) read into one block allocated before the run. Returns the
    checksum, the (m, N) stack of the (kind, time) observations in row-major
    order, and the correlations. The block dies with this call."""
    times, step = cfg.observation_times, cfg.report_dt
    # The block row of each (series, report) read, in order of first read,
    # and the block rows that each observation and each correlation reads. A
    # difference kind observes max(0, X(t + delta_t) - X(t)), a snapshot X(t).
    slot, observations, pairs = {}, [], []
    for kind, t in product(kinds, times):
        series = "infectious" if kind in (ObservableKind.INFECTIOUS, ObservableKind.INFECTIOUS_CHANGE) else "cases"
        read = (t, t + cfg.delta_t) if kind.is_difference else (t,)
        observations.append([slot.setdefault((series, _grid_steps(u, step, "t")), len(slot)) for u in read])
    for t in times if correlate else ():
        pairs.append([slot.setdefault(("infectious", _grid_steps(u, step, "t")), len(slot)) for u in (0.0, t)])
    fills = {}
    for (series, report), i in slot.items():
        fills.setdefault(report, []).append((series, i))
    block = np.empty((len(slot), cfg.n_nodes))
    steps_per_report, n_reports = _check_run(cfg.n_nodes, init, cfg.t_end, cfg.sim_dt, step)
    digest = hashlib.sha256()
    run = _reports(net, cfg.params, init, cfg.sim_dt, step, steps_per_report, n_reports, seed, cfg.noise, digest)
    for report, vectors in run:
        for series, i in fills.get(report, ()):
            block[i] = vectors[series]
    values = np.empty((len(observations), cfg.n_nodes))
    for row, read in zip(values, observations):
        if len(read) == 1:
            row[:] = block[read[0]]
        else:
            np.subtract(block[read[1]], block[read[0]], out=row)
            np.maximum(row, 0.0, out=row)
    correlations = np.full(len(times), np.nan)
    for t_idx, (start, now) in enumerate(pairs):
        correlations[t_idx] = _correlation(block[start], block[now])
    return digest.hexdigest(), values, correlations


def _correlation(start: np.ndarray, now: np.ndarray) -> float:
    """Pearson correlation between two profiles across nodes, clipped into
    [-1, 1] against rounding (a profile proportional to the other can
    otherwise come out a few ulp above 1); NaN when either is constant."""
    x, y = start - start.mean(), now - now.mean()
    sx, sy = float(x @ x), float(y @ y)
    if sx == 0.0 or sy == 0.0:
        return math.nan
    return min(1.0, max(-1.0, float((x @ y) / math.sqrt(sx * sy))))


def _run_replicates(
    cfg: ExperimentConfig,
    kinds: tuple[ObservableKind, ...],
    workers: int,
    progress: ProgressFn | None,
    correlate: bool,
):
    """Every replicate of cfg, in replicate order: the trajectory checksums,
    the hit scores shaped (reps, kinds, specs, times) and the initial
    correlations shaped (reps, times), all NaN unless ``correlate`` is set.
    ``progress(done, total)`` is called once per replicate."""
    times = len(cfg.observation_times)
    checksums = []
    hits = np.empty((cfg.replicates, len(kinds), len(cfg.decays), times))
    correlations = np.empty((cfg.replicates, times))
    # A pool starts all its workers at once, so it is never larger than the
    # work or the CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cfg.replicates, cpus)
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            # Imported here so a serial run never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        results = mapper(partial(_replicate, cfg, kinds, correlate=correlate), range(cfg.replicates))
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
    checksums, hits, _ = _run_replicates(cfg, (cfg.kind,), workers, progress, correlate=False)
    return _hit_curve(cfg, hits[:, 0], checksums)


def hit_vs_correlation(
    cfg: ExperimentConfig, workers: int = 1, progress: ProgressFn | None = None
) -> CorrelationSamples:
    """Pair each hit score with the surviving-trace correlation at the same
    observation time. Zero-variance samples are skipped and counted."""
    checksums, hits, correlations = _run_replicates(cfg, (cfg.kind,), workers, progress, correlate=True)
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
    checksums, hits, _ = _run_replicates(cfg, kinds, workers, progress, correlate=False)
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
    specs = _sweep_specs(kind, grid)
    grid = [spec.param for spec in specs]
    cfg = replace(cfg, decays=specs)
    checksums, hits, _ = _run_replicates(cfg, (cfg.kind,), workers, progress, correlate=False)
    # Mean over the time grid per replicate, then over replicates.
    mean_per_param = hits[:, 0].mean(axis=2).mean(axis=0)
    best_idx = min(range(len(grid)), key=lambda i: (mean_per_param[i], grid[i]))
    mean = {grid[i]: float(mean_per_param[i]) for i in range(len(grid))}
    return SweepResult(specs[0].kind, mean, grid[best_idx], cfg.replicates, checksums)


def _sweep_specs(kind, grid) -> tuple[DecaySpec, ...]:
    """One :class:`DecaySpec` of ``kind`` per parameter of ``grid``; a naive
    decay has none to sweep. Errors name sweep.kind, sweep.grid[i] or sweep.grid."""
    field = "sweep.kind"
    try:
        if DecayKind(kind) is DecayKind.NAIVE:
            raise ValueError("a naive decay has no parameter to sweep")
        specs = []
        for idx, p in enumerate(grid):
            field = f"sweep.grid[{idx}]"
            specs.append(DecaySpec(kind, p))
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None
    if not specs:
        raise ValueError("sweep.grid must not be empty")
    _refuse_repeats(specs, "sweep.grid")
    return tuple(specs)


def _refuse_repeats(specs, field: str) -> None:
    """Refuse a spec listed twice: results are keyed by spec (or parameter),
    so a repeat would be scored and then silently merged."""
    first = {}
    for idx, spec in enumerate(specs):
        if first.setdefault(spec, idx) != idx:
            raise ValueError(f"{field}[{idx}] repeats {field}[{first[spec]}]")


# ---------------------------------------------------------------------------
# Tidy CSV export and JSON configs
# ---------------------------------------------------------------------------

HIT_CSV_HEADER = ["experiment", "decay_kind", "param", "t", "mean_H", "stderr", "replicates"]


def _param_text(spec: DecaySpec) -> str:
    return "" if spec.param is None else repr(spec.param)


def hit_curve_rows(experiment: str, curve: HitCurve) -> list[list[str]]:
    reps = str(curve.replicates)
    return [
        [experiment, spec.kind.value, _param_text(spec), repr(float(t)), repr(mean), repr(err), reps]
        for spec in curve.mean
        for t, mean, err in zip(curve.times, curve.mean[spec], curve.stderr[spec])
    ]


def write_hit_curves_csv(path, rows: list[list[str]]) -> None:
    _write_csv(path, HIT_CSV_HEADER, rows)


def write_correlation_csv(path, experiment: str, samples: CorrelationSamples) -> None:
    rows = (
        [experiment, spec.kind.value, _param_text(spec), repr(corr), repr(h)]
        for spec, pairs in samples.pairs.items()
        for corr, h in pairs
    )
    _write_csv(path, ["experiment", "decay_kind", "param", "initial_correlation", "hit_score"], rows)


def write_sweep_csv(path, experiment: str, result: SweepResult) -> None:
    kind, replicates, best = result.kind.value, str(result.replicates), result.best_param
    rows = (
        [experiment, kind, repr(p), repr(result.mean[p]), replicates, "true" if p == best else "false"]
        for p in sorted(result.mean)
    )
    _write_csv(path, ["experiment", "decay_kind", "param", "mean_H", "replicates", "selected"], rows)


@dataclass(frozen=True)
class ExperimentFile:
    """Parsed experiment config file: the ensemble recipe plus which
    experiment to run and an optional sweep block."""

    config: ExperimentConfig
    experiment: str = "hit"
    sweep_kind: DecayKind | None = None
    sweep_grid: tuple[float, ...] = ()


# The ExperimentConfig field of each optional config key that is passed on
# as it is, for ExperimentConfig to check.
_CONFIG_FIELDS = dict(
    nodes="n_nodes", mean_degree="mean_degree", index_cases="index_cases", population="population",
    delta_t="delta_t", master_seed="master_seed", sim_dt="sim_dt", report_dt="report_dt", noise="noise",
)


def _require(mapping: dict, key: str, where: str, types=object):
    """``mapping[key]``, which must be present and an instance of ``types``."""
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = mapping[key]
    if not isinstance(value, types):
        raise ConfigError(f"{where}: field {key!r} has unexpected type {type(value).__name__}")
    return value


def _object(value, where: str, known) -> dict:
    """``value``, which must be a JSON object whose every key is in ``known``:
    the one key rule for the top level, each decay entry and the sweep block."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in known:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return value


def experiment_file_from_dict(raw: dict, where: str = "config") -> ExperimentFile:
    _object(raw, where, {"replicates", "alpha", "beta", "gamma", "decays", "observation_times", "observable",
                         "experiment", "sweep", *_CONFIG_FIELDS})
    required = ("replicates", "alpha", "beta", "gamma")
    replicates, alpha, beta, gamma = (_require(raw, key, where) for key in required)
    decays = []
    for idx, entry in enumerate(_require(raw, "decays", where, list)):
        entry = _object(entry, f"{where}: decays[{idx}]", ("kind", "param"))
        field = f"decays[{idx}].kind"
        try:
            kind = DecayKind(entry.get("kind"))
            field = f"decays[{idx}].param"
            decays.append(DecaySpec(kind, entry.get("param")))
        except ValueError as exc:
            raise ConfigError(f"{where}: {field}: {exc}") from exc
    kwargs = {attr: raw[key] for key, attr in _CONFIG_FIELDS.items() if key in raw}
    if "observation_times" in raw:
        kwargs["observation_times"] = _require(raw, "observation_times", where, list)
    if "observable" in raw:
        observable = _require(raw, "observable", where, str)
        try:
            kwargs["kind"] = ObservableKind(observable)
        except ValueError as exc:
            raise ConfigError(f"{where}: field 'observable': {exc}") from exc
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
    specs = ()
    if "sweep" in raw:
        sweep = _object(raw["sweep"], f"{where}: sweep", ("kind", "grid"))
        kind = _require(sweep, "kind", f"{where}: sweep", str)
        grid = _require(sweep, "grid", f"{where}: sweep", list)
        try:
            specs = _sweep_specs(kind, grid)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    sweep_kind = specs[0].kind if specs else None
    return ExperimentFile(cfg, experiment, sweep_kind, tuple(spec.param for spec in specs))


def load_experiment_file(path) -> ExperimentFile:
    try:
        with _open_text(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return experiment_file_from_dict(raw, where=str(path))
