import json
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler import experiments, network, profiler
from epiprofiler.experiments import (
    ConfigError,
    ExperimentConfig,
    compare_observables,
    experiment_file_from_dict,
    hit_curve_rows,
    hit_vs_correlation,
    load_experiment_file,
    run_hit_experiment,
    sweep_decay_parameter,
    write_hit_curves_csv,
    write_sweep_csv,
    _replicate,
)
from epiprofiler.network import generate_erdos_renyi
from epiprofiler.profiler import DecayKind, DecaySpec, ObservableKind, likeliness_scores, score_batch
from epiprofiler.simulator import EpidemicParams, InitialCondition, simulate

from oracles import (
    ZeroVarianceError,
    _average_ranks,
    average_ranks,
    hit_score,
    initial_correlation,
    rank_correlation,
    synthesize_dataset,
)

POLY = DecaySpec(DecayKind.POLYNOMIAL, 0.5)
NAIVE = DecaySpec(DecayKind.NAIVE)


def tiny_config(**overrides):
    base = dict(
        replicates=3,
        params=EpidemicParams(0.16, 0.04, 0.2),
        decays=(POLY, NAIVE),
        n_nodes=20,
        mean_degree=2.0,
        population=2e5,
        observation_times=(2.0, 5.0, 10.0),
        master_seed=99,
        sim_dt=0.1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_horizon_covers_observations(self):
        cfg = tiny_config()
        assert cfg.t_end == 11.0  # max t + delta_t for difference kinds

    def test_snapshot_kinds_skip_delta(self):
        cfg = tiny_config(kind=ObservableKind.CUMULATIVE_CASES)
        assert cfg.t_end == 10.0

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            tiny_config(replicates=0)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="increasing"):
            tiny_config(observation_times=(5.0, 2.0))

    def test_rejects_off_grid_times(self):
        with pytest.raises(ValueError, match="reporting grid"):
            tiny_config(observation_times=(2.5,))

    @pytest.mark.parametrize("overrides,field", [
        (dict(n_nodes=1), "nodes"),
        (dict(mean_degree=20.0), "mean_degree"),
        (dict(sim_dt=0.0), "sim_dt"),
        (dict(sim_dt=0.03), "sim_dt"),
        (dict(delta_t=0.5), "delta_t"),
        (dict(index_cases=2e4), "index_cases"),
        (dict(population=float("nan")), "population"),
        (dict(delta_t=0.0), "delta_t"),
        (dict(delta_t=-1.0), "delta_t"),
        (dict(delta_t=1e-12), "delta_t"),
        (dict(observation_times=(-1.0, 2.0)), "observation time"),
        (dict(observation_times=(1e-9,)), "observation time"),
        (dict(observation_times=(5e-9,), report_dt=10.0, delta_t=10.0), "observation time"),
        (dict(master_seed=-3), "master_seed"),
        # A repeated report, even one written as two nearby times, would be
        # read and counted twice.
        (dict(observation_times=(5.0, 5.0, 6.0)), "observation_times"),
        (dict(observation_times=(5.0, 5.0 + 1e-12)), "observation_times"),
    ])
    def test_rejects_values_that_would_fail_a_replicate(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            tiny_config(**overrides)

    @pytest.mark.parametrize("replicates", [10**7, 10**12, 10**400])
    def test_rejects_an_ensemble_beyond_the_hit_score_budget(self, replicates):
        # 4 observable kinds x 2 specs x 3 times x 10^7 replicates is over 10^8
        # hit scores, a hit array that is refused before it is allocated.
        with pytest.raises(ValueError, match=r"replicates \(1.*exceed 100000000 hit scores"):
            tiny_config(replicates=replicates)

    def test_accepts_an_ensemble_at_the_hit_score_budget(self):
        # 4 x 2 x 5 x 2.5 * 10^6 is exactly 10^8.
        cfg = tiny_config(replicates=2_500_000, observation_times=(1.0, 2.0, 3.0, 4.0, 5.0))
        assert cfg.replicates == 2_500_000

    def test_rejects_empty_decays(self):
        with pytest.raises(ValueError, match="decay"):
            tiny_config(decays=())

    @pytest.mark.parametrize("overrides", [
        dict(sim_dt=1e-300),
        # 10^6 steps per report pass on their own, 101 reports do not.
        dict(sim_dt=1e-6, observation_times=(100.0,)),
    ])
    def test_rejects_a_run_beyond_the_step_budget(self, overrides):
        # Checked by the constructor alone: no run is started.
        with pytest.raises(ValueError, match=r"sim_dt \(1e-.*more than 100000000 integration steps"):
            tiny_config(**overrides)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), report_dt=st.sampled_from([0.1, 0.25, 1.0, 10.0]) | st.floats(0.01, 10.0))
    def test_accepted_times_can_all_be_looked_up(self, data, report_dt):
        # Times near the grid: k steps, scaled by up to a few 1e-9 and
        # shifted by a few 1e-9, both sides of the rule's tolerance.
        near_grid = st.builds(
            lambda k, scale, shift: k * report_dt * (1 + scale) + shift,
            st.integers(0, 6),
            st.sampled_from([0.0, 1e-12, -1e-12, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6]),
            st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 5e-9]),
        )
        times = sorted(data.draw(st.lists(near_grid, min_size=1, max_size=3), label="times"))
        delta_t = data.draw(near_grid | st.floats(-1.0, 3.0), label="delta_t")
        try:
            cfg = tiny_config(replicates=1, n_nodes=2, mean_degree=1.0, observation_times=times,
                              delta_t=delta_t, sim_dt=report_dt, report_dt=report_dt, noise=False)
        except ValueError:
            return
        net = generate_erdos_renyi(2, 1.0, seed=0)
        traj = simulate(net, cfg.params, InitialCondition(0, cfg.index_cases, cfg.population),
                        cfg.t_end, sim_dt=cfg.sim_dt, report_dt=cfg.report_dt, seed=0, noise=False)
        for kind in ObservableKind:
            for t in cfg.observation_times:
                synthesize_dataset(traj, t, cfg.delta_t, kind)


class TestHitExperiment:
    def test_deterministic_from_master_seed(self):
        a = run_hit_experiment(tiny_config())
        b = run_hit_experiment(tiny_config())
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.trajectory_checksums == b.trajectory_checksums

    def test_single_replicate_runs_twice_identically(self):
        a = run_hit_experiment(tiny_config(replicates=1))
        b = run_hit_experiment(tiny_config(replicates=1))
        assert a.mean == b.mean

    def test_mean_hit_in_valid_interval(self):
        curve = run_hit_experiment(tiny_config(replicates=5))
        for spec in curve.mean:
            for value in curve.mean[spec]:
                assert 1.0 / 20 <= value <= 1.0

    def test_workers_do_not_change_results(self):
        cfg = tiny_config(replicates=4)
        serial = run_hit_experiment(cfg, workers=1)
        parallel = run_hit_experiment(cfg, workers=2)
        assert serial.mean == parallel.mean
        assert serial.trajectory_checksums == parallel.trajectory_checksums
        assert hit_curve_rows("hit", serial) == hit_curve_rows("hit", parallel)

    def test_checksums_are_trajectory_checksums_for_any_worker_count(self):
        # A replicate records only the rows it reads, yet its checksum is
        # that of the full trajectory, taken report by report.
        cfg = tiny_config(replicates=3)
        want = tuple(full_trajectory(cfg, rep)[2].checksum for rep in range(cfg.replicates))
        for workers in (1, 2):
            assert run_hit_experiment(cfg, workers=workers).trajectory_checksums == want

    def test_workers_do_not_change_any_experiment(self):
        cfg = tiny_config(replicates=4)
        assert hit_vs_correlation(cfg, workers=1) == hit_vs_correlation(cfg, workers=2)
        assert compare_observables(cfg, workers=1) == compare_observables(cfg, workers=2)
        grid = [0.25, 0.5, 2.0]
        serial = sweep_decay_parameter(cfg, DecayKind.POLYNOMIAL, grid, workers=1)
        assert serial == sweep_decay_parameter(cfg, DecayKind.POLYNOMIAL, grid, workers=2)

    def test_pool_reports_progress_in_replicate_order(self):
        seen = []
        run_hit_experiment(tiny_config(), workers=2, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_serial_import_loads_no_process_pool(self):
        # The pool machinery is imported only when workers > 1.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import epiprofiler

        code = (
            "import sys, epiprofiler.cli\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
        )
        src = str(Path(epiprofiler.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_progress_callback_sees_every_replicate(self):
        seen = []
        run_hit_experiment(tiny_config(), progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


def full_trajectory(cfg, rep, net=None):
    """The network, source and full trajectory of replicate ``rep``, rebuilt
    from its documented seeds (master_seed, rep, 0|1|2); ``net``, when
    given, stands in for the network that seed 0 draws."""
    if net is None:
        net = generate_erdos_renyi(cfg.n_nodes, cfg.mean_degree, seed=(cfg.master_seed, rep, 0))
    source = int(np.random.default_rng((cfg.master_seed, rep, 1)).integers(cfg.n_nodes))
    traj = simulate(
        net,
        cfg.params,
        InitialCondition(source, cfg.index_cases, cfg.population),
        cfg.t_end,
        sim_dt=cfg.sim_dt,
        report_dt=cfg.report_dt,
        seed=(cfg.master_seed, rep, 2),
        noise=cfg.noise,
    )
    return net, source, traj


class TestScoreGrid:
    def test_spec_major_grid_matches_per_pair_scoring(self):
        # The kernel scores one stack per spec; rebuilding each replicate
        # from its documented seeds (master_seed, rep, 0|1|2) and scoring
        # every (kind, time, spec) cell on its own must give the same bits.
        specs = (POLY, NAIVE, DecaySpec(DecayKind.POWER, 2.0), DecaySpec(DecayKind.EXPONENTIAL, 0.05))
        cfg = tiny_config(decays=specs, observation_times=(1.0, 2.0, 5.0, 10.0))
        kinds = tuple(ObservableKind)
        for rep in range(3):
            net, source, traj = full_trajectory(cfg, rep)
            checksum, grid, correlations = _replicate(cfg, kinds, rep, correlate=True)
            assert checksum == traj.checksum
            assert grid.shape == (len(kinds), len(specs), len(cfg.observation_times))
            for k_idx, kind in enumerate(kinds):
                for t_idx, t in enumerate(cfg.observation_times):
                    data = synthesize_dataset(traj, t, cfg.delta_t, kind)
                    for s_idx, spec in enumerate(specs):
                        want = hit_score(likeliness_scores(net, data, spec).scores, source)
                        assert grid[k_idx, s_idx, t_idx] == want
            for t_idx, t in enumerate(cfg.observation_times):
                try:
                    assert correlations[t_idx] == initial_correlation(traj, t)
                except ZeroVarianceError:
                    assert np.isnan(correlations[t_idx])


# One replicate at the N=1000 benchmark's settings, at any N.
N1000_SETTINGS = dict(
    replicates=1, params=EpidemicParams(0.11, 0.09, 0.2), decays=(POLY,),
    observation_times=(5.0, 10.0, 15.0, 20.0), master_seed=3,
)


def _replicate_peak(cfg):
    """tracemalloc peak of one replicate of ``cfg``, as the hit experiment
    and the sweep run it (no correlations)."""
    _replicate(tiny_config(), (ObservableKind.NEW_CASES,), 0)  # first-call imports
    tracemalloc.start()
    try:
        _replicate(cfg, (cfg.kind,), 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sweep_config():
    """One replicate of the N=300 sweep benchmark's shape: 10 polynomial
    specs and m = 100 stacked observations."""
    grid = [round(0.25 * 32 ** (k / 9), 4) for k in range(10)]
    return ExperimentConfig(
        replicates=1, params=EpidemicParams(0.133, 0.067, 0.2), n_nodes=300,
        observation_times=tuple(float(t) for t in range(1, 101)),
        decays=tuple(DecaySpec(DecayKind.POLYNOMIAL, p) for p in grid), master_seed=3,
    )


def stack_bytes(cfg):
    """Bytes of a one-kind replicate's (m, N) float64 observation stack."""
    return 8 * len(cfg.observation_times) * cfg.n_nodes


class TestReplicateMemory:
    def test_replicate_holds_no_n_by_n_array(self):
        # Scoring streams the BFS blocks, so no replicate array is N x N.
        n = 600
        assert _replicate_peak(ExperimentConfig(n_nodes=n, **N1000_SETTINGS)) <= 6 * n * n

    def test_trajectory_and_distances_are_not_held_at_once(self):
        # The trajectory (about 1.2 N^2 bytes here) is released before the
        # BFS runs, so the peak is the larger of the two phases, not their
        # sum.
        n = 600
        assert _replicate_peak(ExperimentConfig(n_nodes=n, **N1000_SETTINGS)) <= 3.5 * n * n

    def test_replicate_at_the_n1000_benchmark_settings_stays_below_n_squared(self):
        # The int8 distance matrix alone would be N^2 bytes; scoring never
        # builds it, and the simulate phase keeps 8 of 88 rows.
        n = 1000
        assert _replicate_peak(ExperimentConfig(n_nodes=n, **N1000_SETTINGS)) < n * n

    def test_sweep_replicate_holds_one_specs_scores_at_a_time(self):
        # Beside the (m, N) stack, a replicate holds no spec's (m, N) scores,
        # only chunk-sized scratch; holding a spec's scores, full-size
        # normalisation temporaries or the unread infectious rows would each
        # add about another 8 m N bytes.
        cfg = sweep_config()
        assert _replicate_peak(cfg) < 4 * stack_bytes(cfg)

    def test_sweep_replicate_counts_hits_without_a_specs_scores(self):
        # Counting the hits chunk by chunk holds no (m, N) scores beside the
        # stack: holding one spec's scores peaked at 3.14 stacks.
        cfg = sweep_config()
        assert _replicate_peak(cfg) < 2.75 * stack_bytes(cfg)


ALL_SPECS = (POLY, NAIVE, DecaySpec(DecayKind.POWER, 2.0), DecaySpec(DecayKind.EXPONENTIAL, 0.05))


def star_network(n):
    """A star on ``n`` nodes with hub 0: its leaves are interchangeable."""
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return network.Network(adj)


def replicate_on(cfg, kinds, star):
    """``_replicate(cfg, kinds, 0)`` and the network it ran on: its own draw,
    or with ``star`` a star on cfg.n_nodes nodes."""
    if not star:
        return _replicate(cfg, kinds, 0), None
    net = star_network(cfg.n_nodes)
    with mock.patch.object(experiments, "generate_erdos_renyi", lambda *args, **kwargs: net):
        return _replicate(cfg, kinds, 0), net


class TestOnePath:
    """A replicate counts its hit scores in one pass over the BFS blocks;
    each must be the hit score of the whole ``score_batch`` row."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 70),
        topology=st.sampled_from(["sparse", "connected", "star"]),
        alpha=st.sampled_from([0.16, 0.0]),
        noise=st.booleans(),
        specs=st.integers(1, len(ALL_SPECS)),
        times=st.integers(1, 3),
        all_kinds=st.booleans(),
        bfs_pairs=st.sampled_from([1, 40, 97, 1 << 15]),
        row_elements=st.sampled_from([1, 50, 1 << 12, 1 << 14]),
        seed=st.integers(0, 1000),
    )
    def test_hits_are_hit_scores_of_the_whole_score_rows(
        self, n, topology, alpha, noise, specs, times, all_kinds, bfs_pairs, row_elements, seed
    ):
        # A mean degree of 0.3 leaves the network disconnected. A star run
        # with noise off gives interchangeable leaves equal data, so their
        # scores can tie. With alpha 0 the new-case rows are all zero. Small
        # BFS blocks leave N off a multiple of the block and put the source
        # in any block; small row blocks split each BFS block again.
        mean_degree = min(0.3 if topology == "sparse" else 2.5, n - 1.0)
        cfg = tiny_config(replicates=1, n_nodes=n, mean_degree=mean_degree, params=EpidemicParams(alpha, 0.04, 0.2),
                          noise=noise, decays=ALL_SPECS[:specs], observation_times=(0.0, 3.0, 7.0)[:times],
                          master_seed=seed)
        kinds = tuple(ObservableKind) if all_kinds else (ObservableKind.NEW_CASES,)
        with mock.patch.object(network, "_BFS_BLOCK_PAIRS", bfs_pairs), \
                mock.patch.object(profiler, "_ROW_BLOCK_ELEMENTS", row_elements):
            (checksum, hits, _), star = replicate_on(cfg, kinds, topology == "star")
        net, source, traj = full_trajectory(cfg, 0, star)
        assert checksum == traj.checksum
        values = np.array([synthesize_dataset(traj, t, cfg.delta_t, kind).values
                           for kind in kinds for t in cfg.observation_times])
        for s_idx, spec in enumerate(cfg.decays):
            scores, _ = score_batch(net, spec, values)
            want = [hit_score(row, source) for row in scores]
            assert hits[:, s_idx].ravel().tolist() == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 70),
        star=st.booleans(),
        where=st.sampled_from(["first", "middle", "last"]),
        m=st.integers(1, 6),
        bfs_pairs=st.sampled_from([1, 40, 97, 1 << 15]),
        row_elements=st.sampled_from([1, 50, 1 << 12, 1 << 14]),
        seed=st.integers(0, 1000),
    )
    def test_counts_equal_hit_score_with_the_source_in_any_block(
        self, n, star, where, m, bfs_pairs, row_elements, seed
    ):
        # The source sits in the first, a middle or the last BFS block. On a
        # star every leaf gets the same data, so a leaf source ties with
        # interchangeable leaves; about a third of the rows are all zero.
        rng = np.random.default_rng(seed)
        net = star_network(n) if star else generate_erdos_renyi(n, min(0.8, n - 1.0), seed=seed)
        values = rng.random((m, n))
        if star:
            values[:, 1:] = values[:, [1]]
        values[rng.random(m) < 0.3] = 0.0
        block = max(1, min(n, bfs_pairs // n))
        starts = range(0, n, block)
        lo = {"first": starts[0], "middle": starts[len(starts) // 2], "last": starts[-1]}[where]
        source = min(n - 1, lo + int(rng.integers(block)))
        with mock.patch.object(network, "_BFS_BLOCK_PAIRS", bfs_pairs), \
                mock.patch.object(profiler, "_ROW_BLOCK_ELEMENTS", row_elements):
            hits = profiler._hit_scores(net, ALL_SPECS, values, source)
        assert hits.shape == (len(ALL_SPECS), m)
        for spec, got in zip(ALL_SPECS, hits):
            scores, _ = score_batch(net, spec, values)
            assert got.tolist() == [hit_score(row, source) for row in scores]

    @pytest.mark.parametrize("topology,alpha,noise", [
        ("connected", 0.16, True),
        ("sparse", 0.16, True),
        ("star", 0.16, False),  # tied leaves
        ("star", 0.0, False),  # all-zero new-case rows
        ("sparse", 0.0, True),
    ])
    def test_every_hit_score_is_finite_and_at_least_one_node(self, topology, alpha, noise):
        # The source itself is always counted, so 1/N <= H <= 1; an all-zero
        # observation scores every candidate 0, so its H is 1.
        n = 30
        kinds = tuple(ObservableKind)
        for seed in range(3):
            cfg = tiny_config(replicates=1, n_nodes=n, mean_degree=0.3 if topology == "sparse" else 2.5,
                              params=EpidemicParams(alpha, 0.04, 0.2), noise=noise, decays=ALL_SPECS,
                              observation_times=(0.0, 3.0, 7.0), master_seed=seed)
            (_, hits, _), _ = replicate_on(cfg, kinds, topology == "star")
            assert np.isfinite(hits).all()
            assert (hits >= 1 / n).all() and (hits <= 1).all()
            if alpha == 0.0:
                assert (hits[kinds.index(ObservableKind.NEW_CASES)] == 1.0).all()


class TestPairedArms:
    def test_observables_reuse_hit_experiment_trajectories(self):
        cfg = tiny_config()
        hit = run_hit_experiment(cfg)
        kinds = compare_observables(cfg)
        for curve in kinds.values():
            assert curve.trajectory_checksums == hit.trajectory_checksums

    def test_observable_curves_are_paired_and_complete(self):
        curves = compare_observables(tiny_config())
        assert set(curves) == set(ObservableKind)
        new_cases_curve = curves[ObservableKind.NEW_CASES]
        base = run_hit_experiment(tiny_config())
        assert new_cases_curve.mean == base.mean

    def test_snapshot_kind_config_still_covers_difference_horizon(self):
        # the configured kind must not shorten the horizon under the
        # difference observables
        curves = compare_observables(tiny_config(kind=ObservableKind.INFECTIOUS))
        assert set(curves) == set(ObservableKind)

    def test_sweep_reuses_trajectories_across_parameters(self):
        cfg = tiny_config(decays=(POLY,))
        hit = run_hit_experiment(cfg)
        sweep = sweep_decay_parameter(cfg, DecayKind.POLYNOMIAL, [0.25, 0.5, 2.0])
        assert sweep.trajectory_checksums == hit.trajectory_checksums


class TestSweep:
    def test_single_value_grid_returned(self):
        sweep = sweep_decay_parameter(tiny_config(), DecayKind.POLYNOMIAL, [0.7])
        assert sweep.best_param == 0.7
        assert list(sweep.mean) == [0.7]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            sweep_decay_parameter(tiny_config(), DecayKind.POLYNOMIAL, [])

    def test_tie_breaks_toward_smaller_parameter(self):
        # with alpha=0 no case is ever added, so every new-case snapshot is all
        # zero, noise on or off, and every parameter ties at hit score 1
        cfg = tiny_config(
            params=EpidemicParams(0.0, 30.0, 0.2),
            observation_times=(5.0, 8.0),
            sim_dt=0.01,
        )
        sweep = sweep_decay_parameter(cfg, DecayKind.POLYNOMIAL, [2.0, 0.5, 1.0])
        assert set(sweep.mean.values()) == {1.0}
        assert sweep.best_param == 0.5

    def test_mean_over_grid_and_replicates(self):
        sweep = sweep_decay_parameter(tiny_config(), DecayKind.EXPONENTIAL, [0.05, 5.0])
        assert set(sweep.mean) == {0.05, 5.0}
        for value in sweep.mean.values():
            assert 0.0 < value <= 1.0


class ReadLog(dict):
    """One report's vectors from the step loop, noting in ``log`` the
    (series, report) of each vector read."""

    def __init__(self, vectors, report, log):
        super().__init__(vectors)
        self.report, self.log = report, log

    def __getitem__(self, series):
        self.log.append((series, self.report))
        return super().__getitem__(series)


class TestRecordedRows:
    """A replicate copies out of the step loop only the rows its experiment
    reads, each once. The correlations read the infectious rows at 0 and at
    each t, and only hit_vs_correlation reads the correlations."""

    @pytest.mark.parametrize("experiment,infectious", [
        (run_hit_experiment, set()),
        # INFECTIOUS reads each t, INFECTIOUS_CHANGE each t and t + delta_t.
        (compare_observables, {2, 3, 5, 6, 10, 11}),
        (partial(sweep_decay_parameter, kind=DecayKind.POLYNOMIAL, grid=[0.25, 2.0]), set()),
        (hit_vs_correlation, {0, 2, 5, 10}),
    ])
    def test_experiments_record_only_the_infectious_rows_they_read(self, monkeypatch, experiment, infectious):
        cfg = tiny_config()  # times 2, 5, 10 on a unit report grid, delta_t 1
        logs = []
        real = experiments._reports

        def spy(*args, **kwargs):
            logs.append([])
            for report, vectors in real(*args, **kwargs):
                yield report, ReadLog(vectors, report, logs[-1])

        monkeypatch.setattr(experiments, "_reports", spy)
        experiment(cfg)
        assert len(logs) == cfg.replicates
        for log in logs:
            assert len(log) == len(set(log))
            assert {report for series, report in log if series == "infectious"} == infectious

    @pytest.mark.parametrize("report_dt,delta_t,times,extinct", [
        (1.0, 2.0, (0.0, 1.0, 4.0, 9.0), False),
        (0.5, 1.0, (0.0, 0.5, 2.0, 4.5), False),
        (1.0, 2.0, (0.0, 1.0, 4.0), True),
    ], ids=["unit-grid", "half-grid", "extinct"])
    def test_stack_and_correlations_are_the_oracles_of_the_full_run(
        self, monkeypatch, report_dt, delta_t, times, extinct
    ):
        # The (m, N) stack the scoring pass gets, and the correlations, equal
        # the observations and correlations sliced one at a time from the
        # whole trajectory, bit for bit; delta_t is two reports. In the
        # extinct run, noise off, no infection or migration and
        # beta * sim_dt = 1 remove every infectious person in the first
        # step, so each correlation after t = 0 is undefined.
        cfg = tiny_config(observation_times=times, delta_t=delta_t, report_dt=report_dt)
        if extinct:
            cfg = replace(cfg, params=EpidemicParams(0.0, 100.0, 0.0), sim_dt=0.01, noise=False)
        kinds = tuple(ObservableKind)
        stacks = []
        real = experiments._hit_scores

        def spy(net, specs, values, source):
            stacks.append(values.copy())
            return real(net, specs, values, source)

        monkeypatch.setattr(experiments, "_hit_scores", spy)
        for rep in range(cfg.replicates):
            checksum, _, correlations = _replicate(cfg, kinds, rep, correlate=True)
            _, _, traj = full_trajectory(cfg, rep)
            assert checksum == traj.checksum
            want = np.array([synthesize_dataset(traj, t, cfg.delta_t, kind).values for kind in kinds for t in times])
            assert stacks[rep].tobytes() == want.tobytes()
            for t_idx, t in enumerate(times):
                try:
                    assert correlations[t_idx] == initial_correlation(traj, t)
                except ZeroVarianceError:
                    assert np.isnan(correlations[t_idx])
            assert np.isnan(correlations[1:]).all() == extinct

    def test_correlation_pairs_match_the_full_trajectories(self):
        cfg = tiny_config(decays=(POLY,))
        want = []
        for rep in range(cfg.replicates):
            net, source, traj = full_trajectory(cfg, rep)
            for t in cfg.observation_times:
                try:
                    corr = initial_correlation(traj, t)
                except ZeroVarianceError:
                    continue
                data = synthesize_dataset(traj, t, cfg.delta_t, cfg.kind)
                want.append((corr, hit_score(likeliness_scores(net, data, POLY).scores, source)))
        assert hit_vs_correlation(cfg).pairs[POLY] == tuple(want)


class TestHitVsCorrelation:
    def test_pairs_and_skips(self):
        samples = hit_vs_correlation(tiny_config(decays=(POLY,)))
        pairs = samples.pairs[POLY]
        assert len(pairs) + samples.skipped == 3 * 3  # replicates x times
        for corr, h in pairs:
            assert -1.0 <= corr <= 1.0
            assert 0.0 < h <= 1.0

    def test_time_zero_sample_has_unit_correlation(self):
        cfg = tiny_config(decays=(POLY,), observation_times=(0.0, 2.0))
        samples = hit_vs_correlation(cfg)
        zero_time_pairs = samples.pairs[POLY][::2]  # every replicate's first time
        assert len(zero_time_pairs) == 3
        for corr, h in zero_time_pairs:
            assert corr == pytest.approx(1.0)
            assert h <= 0.25  # concentrated snapshot keeps the search small

    def test_rerun_reproduces_every_pair(self):
        cfg = tiny_config(decays=(POLY,))
        assert hit_vs_correlation(cfg).pairs == hit_vs_correlation(cfg).pairs

    def test_extinct_runs_are_skipped_and_counted(self):
        # noise off, no infection, no migration and beta * sim_dt = 1: the
        # first step removes every infectious person, so I(t) is all zero
        cfg = tiny_config(
            params=EpidemicParams(0.0, 100.0, 0.0),
            observation_times=(5.0, 8.0),
            sim_dt=0.01,
            decays=(POLY,),
            noise=False,
        )
        samples = hit_vs_correlation(cfg)
        assert samples.skipped == 3 * 2
        assert samples.pairs[POLY] == ()


class TestRankCorrelation:
    def test_perfect_monotone(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        # hand value: x ranks (1.5, 1.5, 3); y ranks (1, 2, 3)
        got = rank_correlation([5.0, 5.0, 9.0], [1.0, 2.0, 3.0])
        assert got == pytest.approx(np.corrcoef([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])[0, 1])

    def test_constant_input_rejected(self):
        with pytest.raises(ZeroVarianceError):
            rank_correlation([1.0, 1.0], [2.0, 3.0])

    def test_known_spearman_value(self):
        x = [86, 97, 99, 100, 101, 103, 106, 110, 112, 113]
        y = [0, 20, 28, 27, 50, 29, 7, 17, 6, 12]
        assert rank_correlation(x, y) == pytest.approx(-0.17575757575, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1,
            max_size=40,
        )
    )
    def test_average_ranks_match_the_scan_oracle(self, values):
        # Small integers make long tie runs; -0.0 ties with 0.0.
        values = np.array(values)
        assert _average_ranks(values).tobytes() == average_ranks(values).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rank_correlation([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            rank_correlation([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


class TestExport:
    def test_tidy_csv_shape(self, tmp_path):
        curve = run_hit_experiment(tiny_config())
        path = tmp_path / "curve.csv"
        write_hit_curves_csv(path, hit_curve_rows("demo", curve))
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,decay_kind,param,t,mean_H,stderr,replicates"
        assert len(lines) == 1 + 2 * 3  # two decay specs, three times
        assert lines[1].startswith("demo,polynomial,0.5,2.0,")

    def test_sweep_csv_marks_selection(self, tmp_path):
        sweep = sweep_decay_parameter(tiny_config(), DecayKind.POLYNOMIAL, [0.5, 5.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, "sweep", sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,decay_kind,param,mean_H,replicates,selected"
        assert sum(line.endswith(",true") for line in lines[1:]) == 1


class TestConfigFile:
    def good_raw(self):
        return {
            "replicates": 2,
            "nodes": 15,
            "mean_degree": 2.0,
            "alpha": 0.16,
            "beta": 0.04,
            "gamma": 0.2,
            "population": 1e5,
            "observation_times": [2.0, 4.0],
            "decays": [{"kind": "polynomial", "param": 0.5}],
            "master_seed": 5,
            "sim_dt": 0.1,
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.good_raw()))
        exp = load_experiment_file(path)
        assert exp.config.replicates == 2
        assert exp.config.decays == (POLY,)
        assert exp.experiment == "hit"

    def test_missing_field_named(self):
        raw = self.good_raw()
        del raw["alpha"]
        with pytest.raises(ConfigError, match="alpha"):
            experiment_file_from_dict(raw)

    def test_bad_decay_named(self):
        raw = self.good_raw()
        raw["decays"] = [{"kind": "polynomial"}]
        with pytest.raises(ConfigError, match=r"decays\[0\]"):
            experiment_file_from_dict(raw)

    def test_unknown_field_named(self):
        raw = self.good_raw()
        raw["replicate"] = 3
        with pytest.raises(ConfigError, match="replicate"):
            experiment_file_from_dict(raw)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_experiment_file(path)

    def test_errors_name_the_path_as_given(self, tmp_path):
        # The path is not parsed, so an unnormalised one is named as spelt.
        (tmp_path / "cfg.json").write_text("{not json")
        given = f"{tmp_path}/./cfg.json"
        with pytest.raises(ConfigError) as exc:
            load_experiment_file(given)
        assert str(exc.value).startswith(f"{given}: invalid JSON: ")

    def test_sweep_block(self):
        raw = self.good_raw()
        raw["sweep"] = {"kind": "exponential", "grid": [0.01, 0.05]}
        exp = experiment_file_from_dict(raw)
        assert exp.sweep_kind is DecayKind.EXPONENTIAL
        assert exp.sweep_grid == (0.01, 0.05)

    def test_bad_experiment_mode(self):
        raw = self.good_raw()
        raw["experiment"] = "banana"
        with pytest.raises(ConfigError, match="experiment"):
            experiment_file_from_dict(raw)
