"""Acceptance suite: every release criterion at its pinned tolerance.

Each check prints one `[acceptance] criterion NN ...: PASS/FAIL` line. The
ensemble runs use 100 replicates with fixed master seeds, so every number
here is reproducible. Expect a few minutes of runtime.
"""
import json
import math
import os

import numpy as np
import pytest

import epiprofiler as ep
from epiprofiler.cli import main as cli_main
from epiprofiler.data_ingest import SARS_ADJACENCY_FILE, SARS_CASES_FILE, bundled_data_path
from epiprofiler.experiments import (
    ExperimentConfig,
    compare_observables,
    hit_vs_correlation,
    run_hit_experiment,
    sweep_decay_parameter,
)
from epiprofiler.profiler import (
    DecayKind,
    DecaySpec,
    LikelinessResult,
    ObservableKind,
    decay_weight,
    likeliness_scores,
)
from epiprofiler.simulator import EpidemicParams, InitialCondition, simulate
from oracles import (
    adjacency,
    hit_score,
    hop_distances,
    is_interchangeable,
    mobility_matrix,
    oracle_scores,
    rank_correlation,
    relaxation_distances,
)

MASTER_SEED = 20030317

POLY = DecaySpec(DecayKind.POLYNOMIAL, 0.5)
OPTIMAL_SPECS = (
    DecaySpec(DecayKind.NAIVE),
    DecaySpec(DecayKind.POWER, 2.0),
    POLY,
    DecaySpec(DecayKind.EXPONENTIAL, 0.05),
)

# Time-grid estimates for the ensemble runs. The r=4 runs stop at t=60:
# beyond t~75 the source node's population share is exhausted and the hit
# score bends upward, which the flat-curve claims exclude. The r=1.2 and
# r=2 runs use the default grid to t=100.
SHORT_TIMES = tuple(float(t) for t in range(10, 61, 5))
LONG_TIMES = tuple(float(t) for t in range(5, 101, 5))
LATE_SHORT = 35.0
LATE_LONG = 50.0

LOW_R_PARAMS = EpidemicParams(0.11, 0.09, 0.2)  # r = 1.2
MID_R_PARAMS = EpidemicParams(0.133, 0.067, 0.2)  # r = 2
HIGH_R_PARAMS = EpidemicParams(0.16, 0.04, 0.2)  # r = 4

# Ensemble results do not depend on the worker count (tests/test_experiments.py
# checks workers=1 against workers=2), so the fixtures use up to two.
WORKERS = min(2, os.cpu_count() or 1)


def report(number: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def in_se(margin: float, *stderrs: float) -> str:
    """``margin`` in standard errors: in the one given, or in the root sum of
    squares of several, as if their estimates were independent."""
    se = math.sqrt(sum(x * x for x in stderrs))
    return f"{margin / se:.1f} SE" if se > 0 else "SE 0"


# ---------------------------------------------------------------------------
# Shared ensemble runs (computed once; ~2 minutes total)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def high_r_sparse_curve():
    cfg = ExperimentConfig(
        replicates=100, params=HIGH_R_PARAMS, decays=(POLY,),
        observation_times=SHORT_TIMES, master_seed=MASTER_SEED,
    )
    return run_hit_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def high_r_dense_curve():
    cfg = ExperimentConfig(
        replicates=100, params=HIGH_R_PARAMS, decays=(POLY,), mean_degree=4.0,
        observation_times=SHORT_TIMES, master_seed=MASTER_SEED,
    )
    return run_hit_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def low_r_curves():
    cfg = ExperimentConfig(
        replicates=100, params=LOW_R_PARAMS, decays=OPTIMAL_SPECS,
        observation_times=LONG_TIMES, master_seed=MASTER_SEED,
    )
    return run_hit_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def low_r_correlation_samples():
    cfg = ExperimentConfig(
        replicates=100, params=LOW_R_PARAMS, decays=OPTIMAL_SPECS,
        observation_times=LONG_TIMES, master_seed=MASTER_SEED + 1,
    )
    return hit_vs_correlation(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def mid_r_observable_curves():
    cfg = ExperimentConfig(
        replicates=100, params=MID_R_PARAMS, decays=(POLY,),
        observation_times=LONG_TIMES, master_seed=MASTER_SEED,
    )
    return compare_observables(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def sweep_result():
    cfg = ExperimentConfig(
        replicates=100, params=MID_R_PARAMS, decays=(POLY,),
        observation_times=LONG_TIMES, master_seed=MASTER_SEED,
    )
    return sweep_decay_parameter(cfg, DecayKind.POLYNOMIAL, [0.25, 0.5, 1.0, 2.0, 5.0], workers=WORKERS)


# ---------------------------------------------------------------------------
# 1. Decay-function exactness
# ---------------------------------------------------------------------------


def test_criterion_01_decay_exactness():
    checks = [
        (DecaySpec(DecayKind.POLYNOMIAL, 0.5), 3, 0.5),
        (DecaySpec(DecayKind.EXPONENTIAL, 0.05), 10, math.exp(-0.5)),
        (DecaySpec(DecayKind.POWER, 2.0), 0, 1.0),
        (DecaySpec(DecayKind.POWER, 2.0), 3, 8.0 / 6.0),
        (DecaySpec(DecayKind.POWER, 2.0), 4, 16.0 / 24.0),
        (DecaySpec(DecayKind.NAIVE), 0, 1.0),
        (DecaySpec(DecayKind.NAIVE), 1, 0.0),
        (DecaySpec(DecayKind.POLYNOMIAL, 2.0), 2, 1.0 / 9.0),
        (DecaySpec(DecayKind.EXPONENTIAL, 1.0), 3, math.exp(-3.0)),
    ]
    worst = max(abs(decay_weight(spec, d) - want) for spec, d, want in checks)
    report("01", "decay-function exactness", worst <= 1e-12, f"max abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Mobility law
# ---------------------------------------------------------------------------


def test_criterion_02_mobility_law():
    ok = True
    worst = 0.0
    for seed in range(100):
        net = ep.generate_erdos_renyi(40, 2.5, seed=(MASTER_SEED, seed))
        g = mobility_matrix(net, 0.2)
        sums = g.sum(axis=1)
        deg = net.degrees()
        rel = np.abs(sums[deg > 0] / 0.2 - 1.0)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        ok = ok and np.all(rel <= 1e-12) and np.all(sums[deg == 0] == 0.0)

    path = np.zeros((3, 3), dtype=int)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = 1
    g_path = mobility_matrix(ep.Network(path), 0.2)
    ok = ok and g_path[0, 1] == 0.2 and g_path[1, 0] == 0.1 and g_path[1, 2] == 0.1

    star = np.zeros((5, 5), dtype=int)
    star[0, 1:] = star[1:, 0] = 1
    g_star = mobility_matrix(ep.Network(star), 0.2)
    ok = ok and np.all(g_star[0, 1:] == 0.05) and np.all(g_star[1:, 0] == 0.2)

    report("02", "mobility row sums and hand cases", ok, f"worst row-sum rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Distance oracle
# ---------------------------------------------------------------------------


def test_criterion_03_distance_oracle():
    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng((MASTER_SEED, 3, seed))
        n = int(rng.integers(2, 21))
        k = float(rng.uniform(0.5, min(n - 1, 4)))
        net = ep.generate_erdos_renyi(n, k, seed=(MASTER_SEED, 4, seed))
        if not np.array_equal(hop_distances(net), relaxation_distances(adjacency(net))):
            mismatches += 1
    report("03", "hop distances match relaxation oracle", mismatches == 0,
           f"{mismatches} mismatches over 50 graphs")


# ---------------------------------------------------------------------------
# 4. Conservation
# ---------------------------------------------------------------------------


def test_criterion_04_conservation():
    worst = 0.0
    for params in (HIGH_R_PARAMS, MID_R_PARAMS, HIGH_R_PARAMS):
        net = ep.generate_erdos_renyi(100, 2.0, seed=(MASTER_SEED, 40))
        traj = simulate(net, params, InitialCondition(0), 100.0, seed=0, noise=False)
        totals = (traj.susceptible + traj.infectious + traj.removed).sum(axis=1)
        worst = max(worst, float(np.abs(totals / 1e8 - 1.0).max()))
    report("04", "noise-off population conservation", worst <= 1e-6, f"worst rel drift {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Scoring oracle
# ---------------------------------------------------------------------------


def test_criterion_05_scoring_oracle():
    worst = 0.0
    for seed in range(12):
        rng = np.random.default_rng((MASTER_SEED, 5, seed))
        n = int(rng.integers(2, 9))
        net = ep.generate_erdos_renyi(n, min(n - 1.0, 2.0), seed=(MASTER_SEED, 6, seed))
        dist = hop_distances(net)
        values = rng.integers(0, 30, size=n).astype(float)
        if values.sum() == 0:
            values[int(rng.integers(n))] = 1.0
        data = ep.Dataset(values, ObservableKind.NEW_CASES)
        for spec in OPTIMAL_SPECS:
            got = likeliness_scores(net, data, spec).scores
            want = oracle_scores(dist, values, spec)
            worst = max(worst, float(np.abs(got - np.asarray(want)).max()))
    # naive ranking reproduces sorting by observed counts exactly
    net = ep.generate_erdos_renyi(25, 2.0, seed=(MASTER_SEED, 7))
    values = np.random.default_rng(8).integers(0, 50, size=25).astype(float)
    data = ep.Dataset(values, ObservableKind.NEW_CASES)
    result = likeliness_scores(net, data, DecaySpec(DecayKind.NAIVE))
    expected_ranking = np.lexsort((np.arange(25), -values))
    naive_ok = result.ranking.tolist() == expected_ranking.tolist()
    report("05", "scoring matches extended-precision oracle", worst <= 1e-12 and naive_ok,
           f"max abs err {worst:.2e}, naive argmax ranking {'ok' if naive_ok else 'wrong'}")


# ---------------------------------------------------------------------------
# 6. Random baseline
# ---------------------------------------------------------------------------


def test_criterion_06_random_baseline():
    n = 100
    rng = np.random.default_rng(MASTER_SEED)
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        scores = rng.random(n)
        result = LikelinessResult(scores)
        total += hit_score(result.scores, int(rng.integers(n)))
    mean = total / trials
    expected = (n + 1) / (2 * n)
    report("06", "random-search baseline", abs(mean - expected) <= 0.02,
           f"mean H {mean:.4f} vs {expected:.4f}")


# ---------------------------------------------------------------------------
# 7. Flat low hit score at high reproduction (r=4, mean degree 2)
# ---------------------------------------------------------------------------


def test_criterion_07_high_r_low_hit(high_r_sparse_curve):
    curve = high_r_sparse_curve
    late = [(m, se) for t, m, se in zip(curve.times, curve.mean[POLY], curve.stderr[POLY]) if t >= LATE_SHORT]
    worst, worst_se = max(late)
    report("07", "r=4 late-time mean hit score <= 0.15", worst <= 0.15,
           f"max late mean H {worst:.3f} over t >= {LATE_SHORT:g}, {in_se(0.15 - worst, worst_se)} below 0.15")


# ---------------------------------------------------------------------------
# 8. Approach to random search at low reproduction (r=1.2)
# ---------------------------------------------------------------------------


def test_criterion_08_low_r_trend(low_r_curves):
    times = np.asarray(low_r_curves.times)
    increasing = True
    detail = []
    for spec in OPTIMAL_SPECS:
        curve = np.asarray(low_r_curves.mean[spec])
        se = low_r_curves.stderr[spec]
        slope = float(np.polyfit(times, curve, 1)[0])
        increasing = increasing and slope > 0 and curve[-1] > curve[0]
        detail.append(f"{spec.kind.value} last {curve[-1]:.3f}, rise {in_se(curve[-1] - curve[0], se[0], se[-1])}")
    # the family's closest approach to the random baseline is the naive curve
    closest_last, closest_se = max(
        (float(low_r_curves.mean[spec][-1]), low_r_curves.stderr[spec][-1]) for spec in OPTIMAL_SPECS
    )
    ok = increasing and closest_last > 0.3
    report("08", "r=1.2 hit score rises toward random", ok,
           "; ".join(detail) + f"; closest {closest_last:.3f}, {in_se(closest_last - 0.3, closest_se)} above 0.3"
           "; a rise's SE treats the first and last times as independent, not paired")


# ---------------------------------------------------------------------------
# 9. Hit score falls with surviving-trace correlation
# ---------------------------------------------------------------------------


def test_criterion_09_correlation_trend(low_r_correlation_samples):
    corr_values = []
    hit_values = []
    for spec in OPTIMAL_SPECS:
        for corr, h in low_r_correlation_samples.pairs[spec]:
            corr_values.append(corr)
            hit_values.append(h)
    rho = rank_correlation(corr_values, hit_values)
    report("09", "rank correlation of (trace correlation, hit score) <= -0.5", rho <= -0.5,
           f"rho {rho:.3f}, {low_r_correlation_samples.skipped} zero-variance samples skipped")


# ---------------------------------------------------------------------------
# 10. Observable-kind ordering (r=2, polynomial)
# ---------------------------------------------------------------------------


def test_criterion_10a_cumulative_beats_new_cases(mid_r_observable_curves):
    times = mid_r_observable_curves[ObservableKind.CUMULATIVE_CASES].times
    cumulative = mid_r_observable_curves[ObservableKind.CUMULATIVE_CASES].mean[POLY]
    new_cases = mid_r_observable_curves[ObservableKind.NEW_CASES].mean[POLY]
    stderrs = zip(mid_r_observable_curves[ObservableKind.CUMULATIVE_CASES].stderr[POLY],
                  mid_r_observable_curves[ObservableKind.NEW_CASES].stderr[POLY])
    late = [(c, d, se) for t, c, d, se in zip(times, cumulative, new_cases, stderrs) if t >= LATE_LONG]
    ok = all(c <= d for c, d, _ in late)
    worst_gap, gap_se = min((d - c, se) for c, d, se in late)
    report("10a", "cumulative counts at least as informative as new cases (late times)",
           ok, f"min late (newcases - cumulative) gap {worst_gap:.3f}, {in_se(worst_gap, *gap_se)}; "
           "the SE treats the two curves as independent, not paired")


def test_criterion_10b_infectious_change_uninformative(mid_r_observable_curves):
    # Pinned tolerance: the infectious-change curve must sit within +/-0.1 of
    # the random baseline (N+1)/(2N). This fails for this model: nodes the
    # outbreak never reached report exactly zero change, so the support of the
    # observation alone localizes the source (measured mean H ~ 0.2, i.e. the
    # observable is somewhat informative). Kept faithful and red rather than
    # widened; see the decisions ledger.
    baseline = (100 + 1) / (2 * 100)
    curve = mid_r_observable_curves[ObservableKind.INFECTIOUS_CHANGE]
    deviation, se = max((abs(value - baseline), se) for value, se in zip(curve.mean[POLY], curve.stderr[POLY]))
    report("10b", "infectious-change curve within 0.1 of random baseline",
           deviation <= 0.1,
           f"max |mean H - {baseline:.3f}| = {deviation:.3f}, margin {in_se(0.1 - deviation, se)} to the tolerance")


# ---------------------------------------------------------------------------
# 11. Degree effect at matched times (r=4)
# ---------------------------------------------------------------------------


def test_criterion_11_degree_effect(high_r_sparse_curve, high_r_dense_curve):
    k2 = high_r_sparse_curve.mean[POLY]
    k4 = high_r_dense_curve.mean[POLY]
    diffs = [b - a for a, b in zip(k2, k4)]
    ok = all(d >= 0 for d in diffs)
    worst = diffs.index(min(diffs))
    gap_se = (high_r_sparse_curve.stderr[POLY][worst], high_r_dense_curve.stderr[POLY][worst])
    report("11", "mean degree 4 washes out faster than 2 at matched times", ok,
           f"min (k4 - k2) gap {min(diffs):.3f}, {in_se(min(diffs), *gap_se)}, "
           f"over t in {high_r_sparse_curve.times[0]:g}..{high_r_sparse_curve.times[-1]:g}; "
           "the SE treats the two curves as independent, not paired")


# ---------------------------------------------------------------------------
# 12. Sweep consistency
# ---------------------------------------------------------------------------


def test_criterion_12_sweep_consistency(sweep_result):
    h_half = sweep_result.mean[0.5]
    h_five = sweep_result.mean[5.0]
    report("12", "polynomial sweep orders 0.5 before 5", h_half <= h_five,
           f"mean H(0.5) {h_half:.4f} <= mean H(5) {h_five:.4f}; minimizer {sweep_result.best_param:g}")


# ---------------------------------------------------------------------------
# 13. Case-study pipeline on the bundled reconstruction (data-dependent)
# ---------------------------------------------------------------------------


def test_criterion_13_sars_pipeline():
    net = ep.load_adjacency(bundled_data_path(SARS_ADJACENCY_FILE))
    dist = hop_distances(net)
    labels = list(net.labels)
    pair = [labels.index("THI"), labels.index("VIE")]
    triple = [labels.index("MAS"), labels.index("GBR"), labels.index("GER")]
    equivalences_ok = is_interchangeable(dist, pair) and is_interchangeable(dist, triple)
    # equivalence fidelity gates the rest of this data-dependent criterion
    report("13-gate", "bundled adjacency passes interchangeability checks (data-dependent)",
           equivalences_ok)

    series = ep.filter_regions(ep.load_case_series(bundled_data_path(SARS_CASES_FILE)))
    datasets = ep.daily_deltas(series, labels=net.labels)
    timeline = ep.rank_timeline(net, datasets, POLY, dates=series.dates[:-1])
    tops = [timeline.labels[entry.result.ranking[0]] for entry in timeline.entries]
    ok = bool(tops) and all(top == "HKG" for top in tops)
    report("13", "HKG ranks first on every observation day (data-dependent)", ok,
           f"{len(tops)} days, rank-1 regions {sorted(set(tops))}")


# ---------------------------------------------------------------------------
# 14. Manifest reproducibility
# ---------------------------------------------------------------------------


def test_criterion_14_manifest_reproducibility(tmp_path):
    config = {
        "replicates": 3,
        "nodes": 20,
        "mean_degree": 2.0,
        "alpha": 0.16,
        "beta": 0.04,
        "gamma": 0.2,
        "population": 2e5,
        "observation_times": [2.0, 5.0],
        "decays": [{"kind": "polynomial", "param": 0.5}],
        "master_seed": MASTER_SEED,
        "sim_dt": 0.1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outputs = {}
    net_path = tmp_path / "net.csv"
    assert cli_main(["gen-net", "--nodes", "15", "--mean-degree", "2", "--seed", "3",
                     "--out", str(net_path)]) == 0
    outputs["gen-net"] = net_path
    traj_path = tmp_path / "traj.csv"
    assert cli_main(["simulate", "--net", str(net_path), "--alpha", "0.16", "--beta", "0.04",
                     "--gamma", "0.2", "--source", "random", "--population", "1.5e6",
                     "--t-end", "10", "--seed", "4", "--out", str(traj_path)]) == 0
    outputs["simulate"] = traj_path
    curve_path = tmp_path / "curve.csv"
    assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(curve_path)]) == 0
    outputs["evaluate"] = curve_path

    ok = True
    details = []
    for name, original in outputs.items():
        manifest = original.parent / (original.name + ".manifest.json")
        replay = tmp_path / f"replay_{original.name}"
        assert cli_main(["rerun", "--manifest", str(manifest), "--out", str(replay)]) == 0
        same = replay.read_bytes() == original.read_bytes()
        ok = ok and same
        details.append(f"{name} {'=' if same else '!='}")
    report("14", "rerun from manifest reproduces outputs byte-for-byte", ok, ", ".join(details))
