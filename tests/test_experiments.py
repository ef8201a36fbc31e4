import json
import tracemalloc

import numpy as np
import pytest

from epiprofiler.experiments import (
    ConfigError,
    ExperimentConfig,
    compare_observables,
    experiment_file_from_dict,
    hit_curve_rows,
    hit_vs_correlation,
    load_experiment_file,
    rank_correlation,
    run_hit_experiment,
    sweep_decay_parameter,
    write_hit_curves_csv,
    write_sweep_csv,
    _replicate,
)
from epiprofiler.network import generate_erdos_renyi, hop_distances
from epiprofiler.profiler import DecayKind, DecaySpec, hit_score, likeliness_scores
from epiprofiler.simulator import (
    EpidemicParams,
    InitialCondition,
    ObservableKind,
    ZeroVarianceError,
    initial_correlation,
    simulate,
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
    ])
    def test_rejects_values_that_would_fail_a_replicate(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            tiny_config(**overrides)

    def test_rejects_empty_decays(self):
        with pytest.raises(ValueError, match="decay"):
            tiny_config(decays=())


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


class TestScoreGrid:
    def test_spec_major_grid_matches_per_pair_scoring(self):
        # The kernel scores one stack per spec; rebuilding each replicate
        # from its documented seeds (master_seed, rep, 0|1|2) and scoring
        # every (kind, time, spec) cell on its own must give the same bits.
        specs = (POLY, NAIVE, DecaySpec(DecayKind.POWER, 2.0), DecaySpec(DecayKind.EXPONENTIAL, 0.05))
        cfg = tiny_config(decays=specs, observation_times=(1.0, 2.0, 5.0, 10.0))
        kinds = tuple(ObservableKind)
        for rep in range(3):
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
            dist = hop_distances(net)
            checksum, grid, correlations = _replicate(cfg, kinds, rep)
            assert checksum == traj.checksum()
            assert grid.shape == (len(kinds), len(specs), len(cfg.observation_times))
            for k_idx, kind in enumerate(kinds):
                for t_idx, t in enumerate(cfg.observation_times):
                    data = synthesize_dataset(traj, t, cfg.delta_t, kind)
                    for s_idx, spec in enumerate(specs):
                        want = hit_score(likeliness_scores(dist, data, spec).scores, source)
                        assert grid[k_idx, s_idx, t_idx] == want
            for t_idx, t in enumerate(cfg.observation_times):
                try:
                    assert correlations[t_idx] == initial_correlation(traj, t)
                except ZeroVarianceError:
                    assert np.isnan(correlations[t_idx])


class TestReplicateMemory:
    def test_hop_distances_are_the_one_n_by_n_array(self):
        # One replicate at the N=1000 benchmark's settings, at N=600: the
        # int16 distances (2 N^2 bytes) are its only N x N array; the
        # trajectory adds about 1.2 N^2 and the scoring blocks stay small.
        n = 600
        cfg = ExperimentConfig(
            replicates=1,
            params=EpidemicParams(0.11, 0.09, 0.2),
            decays=(POLY,),
            n_nodes=n,
            observation_times=(5.0, 10.0, 15.0, 20.0),
            master_seed=3,
        )
        _replicate(tiny_config(), (ObservableKind.NEW_CASES,), 0)  # first-call imports
        tracemalloc.start()
        try:
            _replicate(cfg, (cfg.kind,), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n * n


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
        # a removal rate that kills the outbreak instantly makes every dataset
        # degenerate, so every parameter ties at hit score 1
        cfg = tiny_config(
            params=EpidemicParams(1e-9, 30.0, 0.2),
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
        # huge removal rate: infection dies instantly, I(t) becomes all-zero
        cfg = tiny_config(
            params=EpidemicParams(1e-9, 30.0, 0.2),
            observation_times=(5.0, 8.0),
            sim_dt=0.01,
            decays=(POLY,),
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
