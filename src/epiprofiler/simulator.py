"""Stochastic metapopulation SIR integrator and observation synthesis.

The infectious compartment and the cumulative case counter follow a Langevin
system: frequency-dependent infection, constant removal and degree-weighted
migration between linked nodes. Each reaction channel (an infection or a
removal at a node, or a move of one compartment along one directed link) has
one Gaussian noise term, and the channel's increment leaves one compartment
and enters another. The susceptible and removed compartments mirror the
infectious dynamics with the same migration law; that mirroring is a modelling
extension documented in the README.
"""
from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import Network, _number, _readonly, _ReadOnlyArrays, _write_csv, _write_json, mobility_edges
from .profiler import Dataset, ObservableKind


# The reported series of a run, in the order the state keeps them; the
# checksum takes them in this order.
SERIES = ("susceptible", "infectious", "removed", "cases")

# The largest run simulate accepts, checked before any work: integration
# steps in all, and report values (reports x nodes) in each reported series.
MAX_STEPS = 10**8
MAX_REPORT_VALUES = 10**8


class SimulationDiverged(RuntimeError):
    """Raised when a state becomes non-finite during integration."""


class ZeroVarianceError(ValueError):
    """Raised when a correlation is requested for a constant profile."""


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission rates per unit time: infection (alpha), removal (beta),
    total mobility (gamma). beta must be positive; alpha and gamma may be
    zero so that pure-decay and migration-free sanity runs stay expressible.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name, strict in (("alpha", False), ("beta", True), ("gamma", False)):
            object.__setattr__(self, name, _number(getattr(self, name), name, 0, strict=strict))

    @property
    def reproductive_ratio(self) -> float:
        return self.alpha / self.beta


@dataclass(frozen=True)
class InitialCondition:
    """Outbreak start: index cases at one source node, total population split
    equally across nodes."""

    source: int
    index_cases: float = 20.0
    population: float = 1e8

    def __post_init__(self):
        object.__setattr__(self, "source", _number(self.source, "source", integer=True))
        for name in ("index_cases", "population"):
            object.__setattr__(self, name, _number(getattr(self, name), name, 0, strict=True))


@dataclass(frozen=True, eq=False)
class Trajectory(_ReadOnlyArrays):
    """The record of one simulation run: the rows it kept of each reported
    series, with the provenance and the checksum of the whole run.

    The run reports at t = k * report_dt for k = 0..last_report.
    ``reports[name]`` lists, ascending, the report indices kept of series
    ``name`` (one of :data:`SERIES`), and the array field ``name``, shaped
    (kept reports, nodes), holds those rows in that order; a default
    :func:`simulate` run keeps every report of every series. Provenance
    (network, parameters, seed, step sizes, noise flag) is carried along so
    runs can be reproduced. ``checksum`` is the content hash of every report
    of the run, kept or not: for each report k, in order, the float64 bytes
    of t_k, then S_k, I_k, R_k and J_k.
    """

    reports: dict[str, tuple[int, ...]]
    susceptible: np.ndarray
    infectious: np.ndarray
    removed: np.ndarray
    cases: np.ndarray
    network: Network
    params: EpidemicParams
    init: InitialCondition
    seed: tuple[int, ...]
    sim_dt: float
    report_dt: float
    noise: bool
    last_report: int
    checksum: str

    def __post_init__(self):
        for name in SERIES:
            given = getattr(self, name)
            arr = np.asarray(given)
            kept = len(self.reports[name])
            if len(arr) != kept:
                raise ValueError(f"{name} has {len(arr)} rows for its {kept} kept reports")
            self._keep(name, arr, given)

    @property
    def n_nodes(self) -> int:
        return self.susceptible.shape[1]

    @property
    def times(self) -> np.ndarray:
        """The time of every report of the run."""
        return _readonly(np.arange(self.last_report + 1, dtype=float) * self.report_dt)

    def report_index(self, t: float) -> int:
        """Index of reporting time t (every run starts at t = 0)."""
        return _grid_steps(t, self.report_dt, "t")

    def row(self, series: str, report: int) -> np.ndarray:
        """The vector of ``series`` (one of :data:`SERIES`) at report index
        ``report``, which the run must have kept."""
        if report > self.last_report:
            raise ValueError(
                f"t={report * self.report_dt!r} is outside the simulated range "
                f"[0.0, {self.last_report * self.report_dt!r}]"
            )
        kept = self.reports[series]
        i = bisect.bisect_left(kept, report)
        if i == len(kept) or kept[i] != report:
            raise ValueError(f"report {report} of {series} was not kept")
        return getattr(self, series)[i]


def _grid_steps(t: float, dt: float, name: str, grid: str = "reporting grid (report_dt)") -> int:
    """The number of steps of ``dt`` (finite and positive) in time ``t``: the
    one rule for "t is on a time grid". ``t`` must be finite, non-negative and
    within a relative 1e-9 of a whole number of steps; a nonzero ``t`` must
    come to at least one step. ``name`` and ``grid`` name both in the error."""
    ratio = t / dt
    steps = int(round(ratio)) if t >= 0 and math.isfinite(ratio) else -1
    if steps < 0 or abs(ratio - steps) > 1e-9 * max(1.0, ratio) or (steps == 0 and t != 0):
        raise ValueError(f"{name} ({t!r}) is not on the {grid}: it must be a whole number of steps of {dt}")
    return steps


def _check_run(n: int, init: InitialCondition, t_end, sim_dt, report_dt, noise=True) -> tuple[int, int]:
    """Check the recipe of a run on ``n`` nodes before any work. Returns the
    integration steps per report and the number of reports."""
    if not isinstance(noise, bool):
        raise ValueError(f"noise must be a boolean, got {noise!r}")
    sim_dt = _number(sim_dt, "sim_dt", 0, strict=True)
    report_dt = _number(report_dt, "report_dt", 0, strict=True)
    t_end = _number(t_end, "t_end", 0, strict=True)
    if not 0 <= init.source < n:
        raise ValueError(f"source index {init.source} out of range for {n} nodes")
    steps_per_report = _grid_steps(report_dt, sim_dt, "report_dt", "integration grid (sim_dt)")
    n_reports = _grid_steps(t_end, report_dt, "t_end")
    if steps_per_report * n_reports > MAX_STEPS:
        raise ValueError(
            f"a run of t_end ({t_end!r}) at sim_dt ({sim_dt!r}) takes more than "
            f"{MAX_STEPS} integration steps, the limit for one run"
        )
    if (n_reports + 1) * n > MAX_REPORT_VALUES:
        raise ValueError(
            f"a run of t_end ({t_end!r}) at report_dt ({report_dt!r}) on {n} nodes keeps more than "
            f"{MAX_REPORT_VALUES} report values per series, the limit for one run"
        )
    share = init.population / n
    if init.index_cases > share:
        raise ValueError(
            f"index_cases ({init.index_cases}) exceeds the per-node population share ({share})"
        )
    return steps_per_report, n_reports


def simulate(
    net: Network,
    params: EpidemicParams,
    init: InitialCondition,
    t_end: float,
    *,
    sim_dt: float = 0.05,
    report_dt: float = 1.0,
    seed=0,
    noise: bool = True,
    record=None,
) -> Trajectory:
    """Integrate the Langevin SIR system with the Euler–Maruyama scheme.

    A step is one list of 2N + 3E reaction channels, for N nodes and the E
    directed edges of :func:`mobility_edges`: infection S_i -> I_i, removal
    I_i -> R_i, then the move of S, of I and of R along every edge. Each
    channel draws one standard Gaussian z per step, and its amount
    a + sqrt(a) z, with a its expected amount in sim_dt, leaves one
    compartment and enters another; so a step costs O(N + E), and with noise
    on or off only the clamps change the population, to rounding. The case
    counter adds alpha I sim_dt + sqrt(alpha I sim_dt) z with the infection
    channel's z. States are clamped at zero after each step and the
    case-counter increment is clamped at zero, so cumulative cases never
    decrease. With ``noise=False`` the integration reduces to deterministic
    Euler on the drift terms.

    Returns the run's :class:`Trajectory`. ``record`` maps series of
    :data:`SERIES` to the report indices to keep of them, and the run keeps
    only those rows (none of a series it does not name); ``record=None``
    keeps every report of every series. Whatever is kept, the integration,
    and so every value, is the same, and the step loop takes the checksum of
    every report as it goes.

    Raises SimulationDiverged if any state becomes non-finite, naming the
    node and time.
    """
    n = net.n
    steps_per_report, n_reports = _check_run(n, init, t_end, sim_dt, report_dt, noise)
    sim_dt, report_dt = float(sim_dt), float(report_dt)  # checked by _check_run
    share = init.population / n
    seeds = seed if isinstance(seed, (tuple, list, np.ndarray)) else (seed,)
    seed_tuple = tuple(_number(s, "seed", 0, integer=True) for s in seeds)
    if record is None:
        record = dict.fromkeys(SERIES, range(n_reports + 1))
    unknown = sorted(map(str, set(record) - set(SERIES)))
    if unknown:
        raise ValueError(f"only {', '.join(SERIES)} can be recorded, got {', '.join(unknown)}")
    reports = {}
    for name in SERIES:
        given = list(record.get(name, ()))
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in given):
            raise ValueError(f"recorded reports of {name} must be integers, got {given}")
        reports[name] = kept = tuple(sorted({int(k) for k in given}))
        if kept and not 0 <= kept[0] <= kept[-1] <= n_reports:
            raise ValueError(f"recorded reports of {name} must lie in [0, {n_reports}], got {list(kept)}")
    # Row c of out[name] holds report reports[name][c] of series name; the
    # cursor is the next row to fill, so recording costs O(1) per report.
    out = {name: np.empty((len(kept), n)) for name, kept in reports.items()}
    cursor = dict.fromkeys(SERIES, 0)
    digest = hashlib.sha256()

    alpha_dt, beta_dt = params.alpha * sim_dt, params.beta * sim_dt
    if params.gamma > 0:
        src_e, dst_e, rate_e = mobility_edges(net, params.gamma)
    else:
        src_e = dst_e = np.zeros(0, dtype=np.intp)
        rate_e = np.zeros(0)
    # The reaction channels, built once per run. The state is S, I and R
    # stacked into one vector of 3N slots, and channel k moves its amount
    # from slot frm[k] to slot to[k]: infection S_i -> I_i, removal
    # I_i -> R_i, then every directed edge of S, of I and of R, in row-major
    # edge order. Channel k's expected amount in a step is rate_dt[k] times
    # the state at frm[k], except infection's, which is alpha_dt times the
    # frequency-dependent force S_i I_i / (S_i + I_i + R_i).
    nodes = np.arange(n)
    offsets = n * np.arange(3)[:, None]
    frm = np.concatenate((nodes, n + nodes, (src_e + offsets).ravel()))
    to = np.concatenate((n + nodes, 2 * n + nodes, (dst_e + offsets).ravel()))
    rate_dt = np.concatenate((np.full(n, alpha_dt), np.full(n, beta_dt), np.tile(rate_e * sim_dt, 3)))

    x = np.zeros(3 * n)
    x[:n] = share
    x[init.source] -= init.index_cases
    x[n + init.source] = init.index_cases
    cases = np.zeros(n)
    cases[init.source] = init.index_cases

    rng = np.random.default_rng(seed_tuple) if noise else None
    # The step's work arrays, allocated once per run: each channel's amount,
    # its noise and its standard normal.
    amt, amp, z = np.empty(frm.size), np.empty(frm.size), np.empty(frm.size)
    # The infection channels, and the channels whose amount is linear in the
    # state at their frm slot.
    amt_force, rate_force, z_force = amt[:n], rate_dt[:n], z[:n]
    amt_linear, rate_linear, frm_linear = amt[n:], rate_dt[n:], frm[n:]

    step = 0
    # Report 0 is the initial state, reached after no steps.
    for report in range(n_reports + 1):
        # Overflow is handled by the divergence check below, so intermediate
        # arithmetic may produce inf/nan without warning spam.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps_per_report if report else 0):
                sus, inf = x[:n], x[n : 2 * n]
                total = sus + inf + x[2 * n :]
                frac = np.divide(sus * inf, total, out=np.zeros(n), where=total > 0)
                np.multiply(rate_force, frac, out=amt_force)
                # The indices are valid, so "clip" only skips the copy of out
                # that take's default mode gathers into first.
                np.take(x, frm_linear, out=amt_linear, mode="clip")
                amt_linear *= rate_linear
                # New cases share the infection channel's normal.
                grow = alpha_dt * inf
                if noise:
                    rng.standard_normal(out=z)
                    grow = grow + np.sqrt(grow) * z_force
                    np.sqrt(amt, out=amp)
                    amp *= z
                    amt += amp
                # Each channel's amount leaves its frm slot and enters its to
                # slot, so the step moves population without changing its sum.
                d = np.bincount(to, weights=amt, minlength=3 * n)
                d -= np.bincount(frm, weights=amt, minlength=3 * n)
                # In place: each report copies the rows it keeps and hashes x
                # before the next step, so no view of x outlives a step.
                x += d
                np.maximum(x, 0.0, out=x)
                cases += np.maximum(grow, 0.0)
                step += 1

        # Non-finite values persist once they appear, so checking at report
        # boundaries still catches every divergence.
        vectors = dict(zip(SERIES, (*x.reshape(3, n), cases)))
        if not (np.isfinite(x).all() and np.isfinite(cases).all()):
            t_fail = step * sim_dt
            for name, vec in vectors.items():
                bad = np.flatnonzero(~np.isfinite(vec))
                if bad.size:
                    node = int(bad[0])
                    raise SimulationDiverged(
                        f"non-finite {name} at node {net.labels[node]} "
                        f"(index {node}) at t={t_fail:.6g}"
                    )
        for name, kept in reports.items():
            c = cursor[name]
            if c < len(kept) and kept[c] == report:
                out[name][c] = vectors[name]
                cursor[name] = c + 1
        # The checksum's bytes of this report: t, then S, I and R (the
        # state x, in that order) and J, all float64. The scalar is hashed
        # through its buffer: with numpy 2.4, its tobytes() left about 2.6
        # small objects alive per N=100 run (tracemalloc over 100 runs).
        digest.update(np.float64(report * report_dt))
        digest.update(x)
        digest.update(cases)

    # Read-only before they are handed over, so the result keeps them uncopied.
    out = {name: _readonly(arr) for name, arr in out.items()}
    return Trajectory(
        reports,
        **out,
        network=net,
        params=params,
        init=init,
        seed=seed_tuple,
        sim_dt=sim_dt,
        report_dt=report_dt,
        noise=noise,
        last_report=n_reports,
        checksum=digest.hexdigest(),
    )


def synthesize_dataset(
    traj: Trajectory,
    t_obs: float,
    delta_t: float = 1.0,
    kind: ObservableKind = ObservableKind.NEW_CASES,
) -> Dataset:
    """Slice an observation vector out of a trajectory that kept the rows
    it reads (see :func:`_observation_reads`).

    Difference kinds report max(0, X(t_obs + delta_t) - X(t_obs)) per node,
    for a finite positive delta_t; snapshot kinds report the raw vector at
    t_obs (delta_t is ignored).
    """
    kind = ObservableKind(kind)
    series, times = _observation_reads(kind, t_obs, delta_t)
    rows = [traj.row(series, traj.report_index(t)) for t in times]
    values = rows[0].copy() if len(rows) == 1 else np.maximum(rows[1] - rows[0], 0.0)
    return Dataset(values, kind, t_obs=float(t_obs))


def _observation_reads(kind: ObservableKind, t_obs: float, delta_t: float) -> tuple[str, tuple]:
    """The series an observation of ``kind`` at ``t_obs`` reads, and the
    times it reads it at: t_obs, and t_obs + delta_t for a difference kind."""
    kind = ObservableKind(kind)
    delta_t = _number(delta_t, "delta_t", 0, strict=True) if kind.is_difference else delta_t
    infectious = kind in (ObservableKind.INFECTIOUS, ObservableKind.INFECTIOUS_CHANGE)
    times = (t_obs, t_obs + delta_t) if kind.is_difference else (t_obs,)
    return "infectious" if infectious else "cases", times


def initial_correlation(traj: Trajectory, t: float) -> float:
    """Pearson correlation between the infectious profile at time t and the
    initial profile (report 0), clipped into [-1, 1] against rounding (a
    profile proportional to the initial one can otherwise come out a few ulp
    above 1). Raises ZeroVarianceError when either profile is constant across
    nodes, so callers may skip the sample."""
    start = traj.row("infectious", 0)
    now = traj.row("infectious", traj.report_index(t))
    x = start - start.mean()
    y = now - now.mean()
    sx = float(x @ x)
    sy = float(y @ y)
    if sx == 0.0 or sy == 0.0:
        which = "initial" if sx == 0.0 else f"t={t}"
        raise ZeroVarianceError(f"infectious profile at {which} is constant across nodes")
    return min(1.0, max(-1.0, float((x @ y) / math.sqrt(sx * sy))))


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Export the reported series as CSV (time, node_label, S, I, R, J) and
    echo all run parameters into a .meta.json sidecar. The trajectory must
    have kept every report of every series."""
    every = tuple(range(traj.last_report + 1))
    for name in SERIES:
        if traj.reports[name] != every:
            raise ValueError(f"a trajectory CSV needs every report, but {name} kept only some")
    path = Path(path)
    series = (traj.susceptible, traj.infectious, traj.removed, traj.cases)
    rows = (
        [repr(float(t)), label, *(repr(float(x[k, i])) for x in series)]
        for k, t in enumerate(traj.times)
        for i, label in enumerate(traj.network.labels)
    )
    _write_csv(path, ["time", "node_label", "S", "I", "R", "J"], rows)
    sidecar = path.with_suffix(".meta.json")
    meta = {
        "alpha": traj.params.alpha,
        "beta": traj.params.beta,
        "gamma": traj.params.gamma,
        "source": traj.init.source,
        "index_cases": traj.init.index_cases,
        "population": traj.init.population,
        "t_end": float(traj.times[-1]),
        "sim_dt": traj.sim_dt,
        "report_dt": traj.report_dt,
        "seed": list(traj.seed),
        "noise": traj.noise,
        "nodes": traj.n_nodes,
        "labels": list(traj.network.labels),
        "checksum": traj.checksum,
    }
    _write_json(sidecar, meta)
    return sidecar
