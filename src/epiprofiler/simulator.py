"""Stochastic metapopulation SIR integrator and observation synthesis.

The infectious compartment and the cumulative case counter follow a Langevin
system: frequency-dependent infection, constant removal, degree-weighted
migration between linked nodes, and one independent Gaussian channel per
demographic event type. The susceptible and removed compartments mirror the
infectious dynamics with the same migration law; that mirroring is a modelling
extension documented in the README.
"""
from __future__ import annotations

import csv
import enum
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import Network, mobility_edges


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
        for name, low in (("alpha", 0.0), ("beta", None), ("gamma", 0.0)):
            value = getattr(self, name)
            ok = isinstance(value, (int, float)) and math.isfinite(value)
            ok = ok and (value > 0 if low is None else value >= low)
            if not ok:
                bound = "positive" if low is None else "non-negative"
                raise ValueError(f"{name} must be a finite {bound} number, got {value!r}")

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
        if self.index_cases <= 0:
            raise ValueError(f"index_cases must be positive, got {self.index_cases!r}")
        if self.population <= 0:
            raise ValueError(f"population must be positive, got {self.population!r}")


class ObservableKind(str, enum.Enum):
    """What a Dataset records per node."""

    INFECTIOUS = "infectious"
    CUMULATIVE_CASES = "cumulative_cases"
    INFECTIOUS_CHANGE = "infectious_change"
    NEW_CASES = "new_cases"

    @property
    def is_difference(self) -> bool:
        return self in (ObservableKind.INFECTIOUS_CHANGE, ObservableKind.NEW_CASES)


@dataclass(frozen=True, eq=False)
class Dataset:
    """One observation vector (a number per node) plus its kind tag.

    ``t_obs`` is provenance for synthetic data only; real pipelines leave it
    unset because the outbreak start time is unknown.
    """

    values: np.ndarray
    kind: ObservableKind
    t_obs: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("dataset values must be a vector")
        if (values < 0).any():
            raise ValueError("dataset values must be non-negative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", ObservableKind(self.kind))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Reported time series of one simulation run, on a uniform grid.

    Arrays are shaped (reports, nodes). Provenance (network, parameters, seed,
    step sizes, noise flag) is carried along so runs can be reproduced.
    """

    times: np.ndarray
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

    @property
    def n_nodes(self) -> int:
        return self.susceptible.shape[1]

    def report_index(self, t: float) -> int:
        """Index of reporting time t; errors if t is off-grid or out of range."""
        times = self.times
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise ValueError(
                f"t={t!r} outside the simulated range [{times[0]}, {times[-1]}]"
            )
        idx = int(round((t - times[0]) / self.report_dt))
        idx = min(max(idx, 0), len(times) - 1)
        if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t!r} is not on the reporting grid (spacing {self.report_dt})")
        return idx

    def checksum(self) -> str:
        """Content hash of the reported series; equal runs hash equally."""
        h = hashlib.sha256()
        for arr in (self.times, self.susceptible, self.infectious, self.removed, self.cases):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


def _normalize_seed(seed) -> tuple[int, ...]:
    if seed is None:
        raise ValueError("simulate requires an explicit seed")
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _step_multiple(big: float, small: float, big_name: str, small_name: str) -> int:
    ratio = big / small
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"{big_name} ({big}) must be a positive multiple of {small_name} ({small})")
    return k


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
) -> Trajectory:
    """Integrate the Langevin SIR system with the Euler–Maruyama scheme.

    Every noise channel (infection, removal, and each migration direction per
    compartment, inflow and outflow separately) draws an independent standard
    Gaussian each step, scaled by sqrt(sim_dt). The infection channel is
    shared between the infectious compartment and the case counter. States are
    clamped at zero after each step and the case-counter increment is clamped
    at zero, so cumulative cases never decrease. With ``noise=False`` the
    integration reduces to deterministic Euler on the drift terms.

    Migration runs over the directed edge list of :func:`mobility_edges`, so
    a step costs O(N + E) for N nodes and E directed edges.

    Raises SimulationDiverged if any state becomes non-finite, naming the
    node and time.
    """
    if sim_dt <= 0:
        raise ValueError(f"sim_dt must be positive, got {sim_dt!r}")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    n = net.n
    if not 0 <= init.source < n:
        raise ValueError(f"source index {init.source} out of range for {n} nodes")
    share = init.population / n
    if init.index_cases > share:
        raise ValueError(
            f"index_cases ({init.index_cases}) exceeds the per-node population share ({share})"
        )
    steps_per_report = _step_multiple(report_dt, sim_dt, "report_dt", "sim_dt")
    n_reports = _step_multiple(t_end, report_dt, "t_end", "report_dt")
    seed_tuple = _normalize_seed(seed)

    if params.gamma > 0:
        src_e, dst_e, rate_e = mobility_edges(net, params.gamma)
    else:
        src_e = dst_e = np.zeros(0, dtype=np.intp)
        rate_e = np.zeros(0)
    ne = src_e.size
    # The state is S, I and R stacked into one vector of 3N slots; edge e of
    # compartment c runs from slot c*N + src_e[e] to slot c*N + dst_e[e].
    src3 = (src_e + n * np.arange(3)[:, None]).ravel()
    dst3 = (dst_e + n * np.arange(3)[:, None]).ravel()
    rate3_dt = np.tile(rate_e * sim_dt, 3)
    leave3_dt = np.bincount(src3, weights=rate3_dt, minlength=3 * n)

    x = np.zeros(3 * n)
    x[:n] = share
    x[init.source] -= init.index_cases
    x[n + init.source] = init.index_cases
    cases = np.zeros(n)
    cases[init.source] = init.index_cases

    out_x = np.empty((3, n_reports + 1, n))
    out_j = np.empty((n_reports + 1, n))
    out_x[:, 0], out_j[0] = x.reshape(3, n), cases

    rng = np.random.default_rng(seed_tuple) if noise else None
    alpha_dt, beta_dt = params.alpha * sim_dt, params.beta * sim_dt

    step = 0
    for report in range(1, n_reports + 1):
        # Overflow is handled by the divergence check below, so intermediate
        # arithmetic may produce inf/nan without warning spam.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps_per_report):
                # Expected events this step: infections, removals, new cases,
                # and the mass moved along each edge of each compartment.
                sus, inf = x[:n], x[n : 2 * n]
                total = sus + inf + x[2 * n :]
                frac = np.divide(sus * inf, total, out=np.zeros(n), where=total > 0)
                infect = alpha_dt * frac
                remove = beta_dt * inf
                grow = alpha_dt * inf
                moved = rate3_dt * x[src3]

                if noise:
                    # Channel layout: infection, removal, then per compartment
                    # the inflow and the outflow noise of every edge.
                    z = rng.standard_normal(2 * n + 6 * ne)
                    z_force = z[:n]
                    z_mig = z[2 * n :].reshape(3, 2, ne)
                    amp = np.sqrt(moved).reshape(3, ne)
                    out_noise = np.bincount(src3, weights=(amp * z_mig[:, 1]).ravel(), minlength=3 * n)
                    moved = moved + (amp * z_mig[:, 0]).ravel()
                    grow = grow + np.sqrt(grow) * z_force
                    infect = infect + np.sqrt(infect) * z_force
                    remove = remove + np.sqrt(remove) * z[n : 2 * n]

                d = np.bincount(dst3, weights=moved, minlength=3 * n) - leave3_dt * x
                if noise:
                    d -= out_noise
                d[:n] -= infect
                d[n : 2 * n] += infect - remove
                d[2 * n :] += remove
                x = np.maximum(x + d, 0.0)
                cases = cases + np.maximum(grow, 0.0)
                step += 1

        # Non-finite values persist once they appear, so checking at report
        # boundaries still catches every divergence.
        if not (np.isfinite(x).all() and np.isfinite(cases).all()):
            t_fail = step * sim_dt
            vectors = (*x.reshape(3, n), cases)
            for name, vec in zip(("susceptible", "infectious", "removed", "cases"), vectors):
                bad = np.flatnonzero(~np.isfinite(vec))
                if bad.size:
                    node = int(bad[0])
                    raise SimulationDiverged(
                        f"non-finite {name} at node {net.labels[node]} "
                        f"(index {node}) at t={t_fail:.6g}"
                    )
        out_x[:, report], out_j[report] = x.reshape(3, n), cases

    times = np.arange(n_reports + 1, dtype=float) * report_dt
    for arr in (times, out_x, out_j):
        arr.setflags(write=False)
    return Trajectory(
        times=times,
        susceptible=out_x[0],
        infectious=out_x[1],
        removed=out_x[2],
        cases=out_j,
        network=net,
        params=params,
        init=init,
        seed=seed_tuple,
        sim_dt=sim_dt,
        report_dt=report_dt,
        noise=noise,
    )


def synthesize_dataset(
    traj: Trajectory,
    t_obs: float,
    delta_t: float = 1.0,
    kind: ObservableKind = ObservableKind.NEW_CASES,
) -> Dataset:
    """Slice an observation vector out of a trajectory.

    Difference kinds report max(0, X(t_obs + delta_t) - X(t_obs)) per node;
    snapshot kinds report the raw vector at t_obs (delta_t is ignored).
    """
    kind = ObservableKind(kind)
    idx = traj.report_index(t_obs)
    if kind is ObservableKind.INFECTIOUS:
        values = traj.infectious[idx].copy()
    elif kind is ObservableKind.CUMULATIVE_CASES:
        values = traj.cases[idx].copy()
    else:
        series = traj.infectious if kind is ObservableKind.INFECTIOUS_CHANGE else traj.cases
        idx_later = traj.report_index(t_obs + delta_t)
        values = np.maximum(series[idx_later] - series[idx], 0.0)
    return Dataset(values, kind, t_obs=float(t_obs))


def initial_correlation(traj: Trajectory, t: float) -> float:
    """Pearson correlation between the infectious profile at time t and the
    initial profile. Raises ZeroVarianceError when either profile is constant
    across nodes, so callers may skip the sample."""
    start = traj.infectious[0]
    now = traj.infectious[traj.report_index(t)]
    x = start - start.mean()
    y = now - now.mean()
    sx = float(x @ x)
    sy = float(y @ y)
    if sx == 0.0 or sy == 0.0:
        which = "initial" if sx == 0.0 else f"t={t}"
        raise ZeroVarianceError(f"infectious profile at {which} is constant across nodes")
    return float((x @ y) / math.sqrt(sx * sy))


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Export the reported series as CSV (time, node_label, S, I, R, J) and
    echo all run parameters into a .meta.json sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "node_label", "S", "I", "R", "J"])
        for k, t in enumerate(traj.times):
            for i, label in enumerate(traj.network.labels):
                writer.writerow(
                    [
                        repr(float(t)),
                        label,
                        repr(float(traj.susceptible[k, i])),
                        repr(float(traj.infectious[k, i])),
                        repr(float(traj.removed[k, i])),
                        repr(float(traj.cases[k, i])),
                    ]
                )
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
        "checksum": traj.checksum(),
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
