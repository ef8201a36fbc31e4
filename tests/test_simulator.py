import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler.experiments import ExperimentConfig, _replicate
from epiprofiler.network import Network, generate_erdos_renyi
from epiprofiler.profiler import Dataset, DecayKind, DecaySpec, ObservableKind
from epiprofiler.simulator import (
    MAX_REPORT_VALUES,
    MAX_STEPS,
    EpidemicParams,
    InitialCondition,
    SERIES,
    SimulationDiverged,
    Trajectory,
    _check_run,
    _reports,
    simulate,
    write_trajectory_csv,
)
from oracles import ZeroVarianceError, initial_correlation, linear_phase, synthesize_dataset

HIGH_R_PARAMS = EpidemicParams(0.16, 0.04, 0.2)


def two_isolated_nodes():
    return Network(np.zeros((2, 2), dtype=int))


def classical_sir_reference(alpha, beta, s0, i0, t_end, dt=0.01):
    """Independent scalar SIR reference: classic Runge-Kutta (4th order) on
    the frequency-dependent drift equations."""

    def rhs(state):
        s, i, r = state
        total = s + i + r
        force = alpha * s * i / total if total > 0 else 0.0
        return np.array([-force, force - beta * i, beta * i])

    state = np.array([s0, i0, 0.0])
    steps = int(round(t_end / dt))
    history = [state.copy()]
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        history.append(state.copy())
    return np.array(history)


class TestParams:
    def test_reproductive_ratio(self):
        assert HIGH_R_PARAMS.reproductive_ratio == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [
        dict(alpha=-0.1), dict(beta=0.0), dict(gamma=-1.0),
        dict(alpha=True), dict(beta=True), dict(gamma=False),
        # numpy numbers go through the same bounds as Python ones
        dict(alpha=np.int64(-1)), dict(beta=np.int64(0)), dict(gamma=np.float32(-1.0)),
        dict(alpha="0.1"), dict(beta=None), dict(gamma=10**400),
    ])
    def test_rejects_bad_rates(self, bad):
        kwargs = dict(alpha=0.1, beta=0.1, gamma=0.1)
        kwargs.update(bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            EpidemicParams(**kwargs)

    def test_zero_alpha_and_gamma_allowed(self):
        params = EpidemicParams(0.0, 0.1, 0.0)
        assert params.reproductive_ratio == 0.0


class TestSimulate:
    def test_pure_exponential_decay(self):
        # isolated source node, no infection: I(t) = I0 * exp(-beta t)
        params = EpidemicParams(0.0, 0.04, 0.2)
        traj = simulate(
            two_isolated_nodes(),
            params,
            InitialCondition(0, index_cases=20, population=200),
            10.0,
            sim_dt=0.01,
            seed=0,
            noise=False,
        )
        expected = 20 * math.exp(-0.04 * 10)
        assert traj.infectious[-1, 0] == pytest.approx(expected, rel=0.01)

    def test_population_conserved_without_noise(self):
        net = generate_erdos_renyi(50, 2.0, seed=21)
        params = EpidemicParams(0.133, 0.067, 0.2)
        traj = simulate(net, params, InitialCondition(4), 100.0, seed=0, noise=False)
        totals = (traj.susceptible + traj.infectious + traj.removed).sum(axis=1)
        np.testing.assert_allclose(totals, 1e8, rtol=1e-6)

    def test_population_conserved_without_noise_or_migration(self):
        # gamma=0 leaves the edge list empty: only infection and removal act.
        net = generate_erdos_renyi(50, 2.0, seed=22)
        params = EpidemicParams(0.16, 0.04, 0.0)
        traj = simulate(net, params, InitialCondition(4), 60.0, seed=0, noise=False)
        totals = (traj.susceptible + traj.infectious + traj.removed).sum(axis=1)
        np.testing.assert_allclose(totals, 1e8, rtol=1e-14)
        # With no migration the outbreak never leaves the source node.
        assert np.count_nonzero(traj.cases[-1]) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_population_conserved_with_noise_when_no_clamp_fires(self, seed):
        # Each channel's one normal moves the same amount out of one slot and
        # into another. With 1e5 index cases on two linked nodes, no amount of
        # one step comes near a state, so no clamp fires and the total stays
        # (measured within 1 ulp over 2000 seeds).
        net = Network(np.array([[0, 1], [1, 0]]))
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(0, 1e5, 1e6), 0.05,
                        sim_dt=0.05, report_dt=0.05, seed=seed, noise=True)
        totals = (traj.susceptible + traj.infectious + traj.removed).sum(axis=1)
        assert traj.infectious[1, 1] > 0 and traj.removed[1, 0] > 0
        assert abs(totals[1] - 1e6) <= 4 * math.ulp(1e6), totals[1] - 1e6

    def test_identical_seeds_bit_identical(self):
        net = generate_erdos_renyi(30, 2.0, seed=5)
        a = simulate(net, HIGH_R_PARAMS, InitialCondition(2), 20.0, seed=(1, 2), noise=True)
        b = simulate(net, HIGH_R_PARAMS, InitialCondition(2), 20.0, seed=(1, 2), noise=True)
        assert a.checksum == b.checksum
        assert np.array_equal(a.infectious, b.infectious)

    def test_different_seeds_differ(self):
        net = generate_erdos_renyi(30, 2.0, seed=5)
        a = simulate(net, HIGH_R_PARAMS, InitialCondition(2), 20.0, seed=1, noise=True)
        b = simulate(net, HIGH_R_PARAMS, InitialCondition(2), 20.0, seed=2, noise=True)
        assert a.checksum != b.checksum

    @pytest.mark.parametrize("seed", range(5))
    def test_cases_never_decrease_with_noise(self, seed):
        net = generate_erdos_renyi(20, 2.0, seed=(31, seed))
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(0), 40.0, seed=seed, noise=True)
        assert np.all(np.diff(traj.cases, axis=0) >= 0)

    def test_states_stay_non_negative_with_noise(self):
        net = generate_erdos_renyi(20, 2.0, seed=8)
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(0), 40.0, seed=3, noise=True)
        for arr in (traj.susceptible, traj.infectious, traj.removed, traj.cases):
            assert np.all(arr >= 0)

    def test_single_node_matches_classical_sir(self):
        # migration off: one populated node behaves as the scalar SIR model
        params = EpidemicParams(0.16, 0.04, 0.0)
        pop = 1e6
        traj = simulate(
            Network(np.zeros((2, 2), dtype=int)),
            params,
            InitialCondition(0, index_cases=20, population=2 * pop),
            200.0,
            sim_dt=0.005,
            report_dt=0.5,
            seed=0,
            noise=False,
        )
        ref = classical_sir_reference(0.16, 0.04, pop - 20, 20.0, 200.0, dt=0.01)
        ref_times = np.arange(ref.shape[0]) * 0.01
        final_size_ref = ref[-1, 2]
        final_size = traj.removed[-1, 0]
        assert final_size == pytest.approx(final_size_ref, rel=0.005)
        peak_ref = ref[:, 1].max()
        peak = traj.infectious[:, 0].max()
        assert peak == pytest.approx(peak_ref, rel=0.005)
        # peak timing agrees to within one reporting interval
        t_peak = traj.times[traj.infectious[:, 0].argmax()]
        t_peak_ref = ref_times[ref[:, 1].argmax()]
        assert abs(t_peak - t_peak_ref) <= 0.5

    def test_halving_step_changes_little(self):
        net = generate_erdos_renyi(40, 2.0, seed=17)
        init = InitialCondition(1)
        coarse = simulate(net, HIGH_R_PARAMS, init, 50.0, sim_dt=0.05, seed=0, noise=False)
        fine = simulate(net, HIGH_R_PARAMS, init, 50.0, sim_dt=0.025, seed=0, noise=False)
        i_coarse = coarse.infectious[-1]
        i_fine = fine.infectious[-1]
        denom = np.linalg.norm(i_fine)
        assert np.linalg.norm(i_coarse - i_fine) / denom < 0.01

    def test_epidemic_spreads_across_nodes(self):
        # new cases rise over time and reach nodes beyond the source
        net = generate_erdos_renyi(100, 2.0, seed=77)
        source = int(net.degrees().argmax())
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(source), 60.0, seed=4, noise=True)
        early = synthesize_dataset(traj, 5.0, 1.0, ObservableKind.NEW_CASES).values
        late = synthesize_dataset(traj, 50.0, 1.0, ObservableKind.NEW_CASES).values
        assert late.sum() > early.sum()
        assert np.count_nonzero(late > 1.0) > np.count_nonzero(early > 1.0)

    def test_divergence_aborts_with_node_and_time(self):
        net = generate_erdos_renyi(5, 2.0, seed=1)
        params = EpidemicParams(1e200, 0.01, 0.2)  # case counter overflows
        with pytest.raises(SimulationDiverged, match=r"node .*t="):
            simulate(net, params, InitialCondition(0, 20, 1e9), 200.0, sim_dt=1.0,
                     report_dt=1.0, seed=12, noise=True)

    def test_report_dt_must_be_multiple_of_sim_dt(self):
        net = two_isolated_nodes()
        with pytest.raises(ValueError, match="report_dt"):
            simulate(net, HIGH_R_PARAMS, InitialCondition(0), 10.0, sim_dt=0.3,
                     report_dt=1.0, seed=0)

    def test_index_cases_cannot_exceed_node_share(self):
        net = two_isolated_nodes()
        with pytest.raises(ValueError, match="share"):
            simulate(net, HIGH_R_PARAMS, InitialCondition(0, index_cases=200, population=100),
                     10.0, seed=0)

    @pytest.mark.parametrize("field", ["index_cases", "population"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, True, "5", None, np.int64(0), 10**400])
    def test_initial_condition_needs_finite_positive_counts(self, field, bad):
        with pytest.raises(ValueError, match=field):
            InitialCondition(0, **{field: bad})

    @pytest.mark.parametrize("t_end,sim_dt,report_dt,field", [
        (0.0, 0.05, 1.0, "t_end"),
        (np.nan, 0.05, 1.0, "t_end"),
        (np.inf, 0.05, 1.0, "t_end"),
        (10.5, 0.05, 1.0, "t_end"),
        (1e-9, 0.05, 1.0, "t_end"),
        (10.0, 0.0, 1.0, "sim_dt"),
        (10.0, 0.05, -1.0, "report_dt"),
    ])
    def test_bad_time_grid_rejected_naming_it(self, t_end, sim_dt, report_dt, field):
        net = two_isolated_nodes()
        with pytest.raises(ValueError, match=field):
            simulate(net, HIGH_R_PARAMS, InitialCondition(0), t_end, sim_dt=sim_dt,
                     report_dt=report_dt, seed=0)

    def test_source_out_of_range(self):
        net = two_isolated_nodes()
        with pytest.raises(ValueError, match="source"):
            simulate(net, HIGH_R_PARAMS, InitialCondition(5), 10.0, seed=0)

    @pytest.mark.parametrize("seed", [(1.5, 2.9), 1.5, True, "7", -1, (3, -1), None])
    def test_seed_must_be_non_negative_integers(self, seed):
        # Each is refused, not cast: (1.5, 2.9) is not (1, 2), nor True 1.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            simulate(two_isolated_nodes(), HIGH_R_PARAMS, InitialCondition(0), 2.0, seed=seed)

    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_initial_condition_needs_an_integer_source(self, bad):
        # True would be node 1, and 1.5 an index numpy refuses mid-run.
        with pytest.raises(ValueError, match="source"):
            InitialCondition(bad)


def make_trajectory(times, cases, infectious=None):
    """Hand-built trajectory for observation tests: the given rows of the
    case and infectious series (zero when not given) sit at the reports at
    ``times``, on the grid their first step sets, and every other report is
    zero."""
    report_dt = float(times[1] - times[0])
    kept = [int(round(t / report_dt)) for t in times]
    n = np.shape(cases)[1]
    net = Network(np.zeros((n, n), dtype=int))

    def at_reports(rows):
        out = np.zeros((kept[-1] + 1, n))
        out[kept] = rows
        return out

    zeros = at_reports(0.0)
    return Trajectory(
        susceptible=zeros,
        infectious=zeros if infectious is None else at_reports(infectious),
        removed=zeros,
        cases=at_reports(cases),
        network=net,
        params=EpidemicParams(0.1, 0.1, 0.1),
        init=InitialCondition(0, 1.0, float(n)),
        seed=(0,),
        sim_dt=0.05,
        report_dt=report_dt,
        noise=False,
        last_report=kept[-1],
        checksum="not a run",
    )


class TestSynthesizeDataset:
    def test_new_cases_by_definition(self):
        traj = make_trajectory([5.0, 6.0], [[10.0, 0.0], [14.0, 1.0]])
        data = synthesize_dataset(traj, 5.0, 1.0, ObservableKind.NEW_CASES)
        np.testing.assert_array_equal(data.values, [4.0, 1.0])
        assert data.kind is ObservableKind.NEW_CASES
        assert data.t_obs == 5.0

    def test_infectious_snapshot_at_start(self):
        net = two_isolated_nodes()
        traj = simulate(net, EpidemicParams(0.0, 0.04, 0.2),
                        InitialCondition(0, 20, 200), 5.0, seed=0, noise=False)
        data = synthesize_dataset(traj, 0.0, kind=ObservableKind.INFECTIOUS)
        np.testing.assert_array_equal(data.values, [20.0, 0.0])

    def test_infectious_change_clamps_decreases(self):
        traj = make_trajectory([0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]],
                               infectious=[[5.0, 1.0], [3.0, 4.0]])
        data = synthesize_dataset(traj, 0.0, 1.0, ObservableKind.INFECTIOUS_CHANGE)
        np.testing.assert_array_equal(data.values, [0.0, 3.0])

    def test_out_of_range_rejected(self):
        traj = make_trajectory([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError, match="range"):
            synthesize_dataset(traj, 5.0, 1.0, ObservableKind.NEW_CASES)
        with pytest.raises(ValueError, match="range"):
            # interval end falls beyond the last report
            synthesize_dataset(traj, 1.0, 1.0, ObservableKind.NEW_CASES)

    @pytest.mark.parametrize("kind", [k for k in ObservableKind if k.is_difference])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_difference_needs_finite_positive_delta_t(self, kind, bad):
        net = generate_erdos_renyi(6, 2.0, seed=1)
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(0), 3.0, seed=0)
        with pytest.raises(ValueError, match="delta_t"):
            synthesize_dataset(traj, 1.0, bad, kind)

    def test_snapshot_ignores_delta_t(self):
        traj = make_trajectory([0.0, 1.0], [[1.0, 2.0], [3.0, 5.0]])
        data = synthesize_dataset(traj, 1.0, -1.0, ObservableKind.CUMULATIVE_CASES)
        np.testing.assert_array_equal(data.values, [3.0, 5.0])

    def test_off_grid_rejected(self):
        traj = make_trajectory([0.0, 1.0, 2.0], [[0.0], [1.0], [2.0]])
        for t in (0.25, 1e-9, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="grid"):
                synthesize_dataset(traj, t, 1.0, ObservableKind.CUMULATIVE_CASES)


class TestInitialCorrelation:
    def setup_method(self):
        net = generate_erdos_renyi(30, 2.0, seed=2)
        self.traj = simulate(net, HIGH_R_PARAMS, InitialCondition(3), 30.0, seed=9, noise=True)

    def test_self_correlation_is_one(self):
        assert initial_correlation(self.traj, 0.0) == pytest.approx(1.0)

    def test_positive_scaling_gives_one(self):
        base = self.traj.infectious[0]
        traj = make_trajectory([0.0, 1.0], np.zeros((2, 30)),
                               infectious=np.stack([base, 3.5 * base]))
        assert initial_correlation(traj, 1.0) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.floats(1e-3, 1e9), st.floats(1e-6, 1e6))
    def test_scaled_single_source_profile_stays_in_range(self, nodes_and_source, start, scale):
        # The quotient of a profile proportional to the initial one can come
        # out a few ulp above 1; the correlation is clipped into [-1, 1].
        n, source = nodes_and_source
        infectious = np.zeros((2, n))
        infectious[:, source] = start, start * scale
        traj = make_trajectory([0.0, 1.0], np.zeros((2, n)), infectious=infectious)
        assert 1.0 - 1e-12 <= initial_correlation(traj, 1.0) <= 1.0

    def test_constant_profile_raises(self):
        traj = make_trajectory([0.0, 1.0], np.zeros((2, 3)),
                               infectious=[[4.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        with pytest.raises(ZeroVarianceError):
            initial_correlation(traj, 1.0)

    def test_in_range(self):
        value = initial_correlation(self.traj, 20.0)
        assert -1.0 <= value <= 1.0


class TestCaseCounterVariant:
    def test_default_init_makes_t0_snapshots_identical(self):
        net = generate_erdos_renyi(10, 2.0, seed=6)
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(2), 5.0, seed=1)
        infectious = synthesize_dataset(traj, 0.0, kind=ObservableKind.INFECTIOUS)
        cumulative = synthesize_dataset(traj, 0.0, kind=ObservableKind.CUMULATIVE_CASES)
        np.testing.assert_array_equal(infectious.values, cumulative.values)


class TestDataset:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            Dataset(np.array([1.0, -0.5]), ObservableKind.NEW_CASES)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([1.0, bad]), ObservableKind.NEW_CASES)

    def test_kind_coerced_from_string(self):
        data = Dataset(np.array([1.0]), "new_cases")
        assert data.kind is ObservableKind.NEW_CASES


class TestRunBudget:
    """Runs that could not finish, or whose reports could not be stored,
    are refused by the recipe check before any work."""

    def test_step_budget_names_t_end_and_sim_dt(self):
        init = InitialCondition(0)
        # 10^4 reports of 10^4 steps each is exactly the limit.
        assert _check_run(2, init, 1e4, 1e-4, 1.0) == (10**4, 10**4)
        for t_end, sim_dt in ((1e4 + 1.0, 1e-4), (1.0, 1e-300), (1e300, 0.05)):
            with pytest.raises(ValueError, match=re.escape(f"t_end ({t_end!r}) at sim_dt ({sim_dt!r})")):
                _check_run(2, init, t_end, sim_dt, 1.0)
        assert MAX_STEPS == 10**8

    def test_report_budget_names_t_end_and_report_dt(self):
        init = InitialCondition(0, 20.0, 1e12)
        # (reports + 1) x nodes values per series: 10^4 x 10^4 is the limit.
        assert _check_run(10**4, init, 9999.0, 1.0, 1.0) == (1, 9999)
        with pytest.raises(ValueError, match=r"t_end \(10000.0\) at report_dt \(1.0\) on 10000 nodes"):
            _check_run(10**4, init, 10000.0, 1.0, 1.0)
        assert MAX_REPORT_VALUES == 10**8

    @pytest.mark.parametrize("flags,field", [
        (["--t-end", "1e300"], "t_end"),
        (["--t-end", "1", "--sim-dt", "1e-300"], "sim_dt"),
    ])
    def test_cli_exits_2_before_any_work(self, tmp_path, flags, field):
        # In a subprocess with a timeout, so a broken check cannot hang the suite.
        net = tmp_path / "net.csv"
        net.write_text("a,b\na,0,1\nb,1,0\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from epiprofiler.cli import main; sys.exit(main())",
             "simulate", "--net", str(net), "--alpha", "0.1", "--beta", "0.1", "--gamma", "0.1",
             "--source", "0", *flags, "--out", str(tmp_path / "traj.csv")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and field in proc.stderr
        assert not (tmp_path / "traj.csv").exists()


class TestRecordedRows:
    def run(self):
        net = generate_erdos_renyi(12, 2.0, seed=6)
        return simulate(net, HIGH_R_PARAMS, InitialCondition(2, 20, 1e5), 8.0, seed=3)

    def test_rows_and_checksum_are_the_trajectory_s(self):
        # simulate collects every report of the step loop, which hashes each
        # report into the digest it is given as it goes.
        traj = self.run()
        steps_per_report, n_reports = _check_run(12, traj.init, 8.0, traj.sim_dt, traj.report_dt)
        digest = hashlib.sha256()
        seen = []
        for report, vectors in _reports(traj.network, traj.params, traj.init, traj.sim_dt, traj.report_dt,
                                        steps_per_report, n_reports, traj.seed, traj.noise, digest):
            assert tuple(vectors) == SERIES
            for series, vec in vectors.items():
                assert np.array_equal(vec, getattr(traj, series)[report])
            seen.append(report)
        assert seen == list(range(9))
        assert digest.hexdigest() == traj.checksum

    def test_none_keeps_every_report_of_every_series(self):
        traj = self.run()
        assert traj.last_report == 8
        for series in SERIES:
            assert getattr(traj, series).shape == (9, 12)
            assert not getattr(traj, series).flags.writeable
        np.testing.assert_array_equal(traj.times, np.arange(9.0))

    def test_rows_must_match_their_reports(self):
        traj = self.run()
        with pytest.raises(ValueError, match="cases has 1 rows for the run's 9 reports"):
            dataclasses.replace(traj, cases=traj.cases[:1])

    def test_checksum_hashes_each_report_in_order(self):
        traj = self.run()
        h = hashlib.sha256()
        for k, t in enumerate(traj.times):
            h.update(np.float64(t).tobytes())
            for series in (traj.susceptible, traj.infectious, traj.removed, traj.cases):
                h.update(series[k].tobytes())
        assert traj.checksum == h.hexdigest()


def path_with_isolated_node():
    """Nodes 0-1-2-3 on a path, and node 4 linked to none."""
    adj = np.zeros((5, 5), dtype=int)
    for i in range(3):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return Network(adj)


def thirty_nodes():
    return generate_erdos_renyi(30, 3.0, seed=(5, 0, 0))


# Runs of t_end 10 at sim_dt 0.05 (seed 7, 1e6 people, 20 index cases), as
# (network, params, source, noise) with their checksum. A change to any
# trajectory bit shows here; a change of the model must change these on
# purpose.
PINNED_RUNS = {
    "noise": (thirty_nodes, HIGH_R_PARAMS, 4, True,
              "ad819140b4eb13c0dac5aec0ac1fbd102860f7b4a71e87afbdbffd7c0237f8eb"),
    "no-noise": (thirty_nodes, HIGH_R_PARAMS, 4, False,
                 "eb17ccfd8e1922f0729f0cf134decef6f873240215324f5b50487a732e924283"),
    # No migration: only the infection and removal channels act.
    "gamma-0": (thirty_nodes, EpidemicParams(0.16, 0.04, 0.0), 4, True,
                "eefca658a152dbca6670f1887c92a6fa389531320215702bed34b71f0fc1f8e9"),
    "isolated-node": (path_with_isolated_node, HIGH_R_PARAMS, 1, True,
                      "6c87fa8466d51737a89d656b53639c0b609c01fbf0b724978f3ab1f117a4e545"),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name", PINNED_RUNS)
    def test_checksum(self, name):
        net, params, source, noise, checksum = PINNED_RUNS[name]
        traj = simulate(net(), params, InitialCondition(source, 20.0, 1e6), 10.0, seed=7, noise=noise)
        assert traj.checksum == checksum

    def test_n1000_benchmark_replicate(self):
        # Replicate 1 of an ensemble-n1000 run with master seed 1.
        cfg = ExperimentConfig(replicates=2, params=EpidemicParams(0.11, 0.09, 0.2),
                               decays=(DecaySpec(DecayKind.POLYNOMIAL, 0.5),), n_nodes=1000,
                               observation_times=(5.0, 10.0, 15.0, 20.0), master_seed=1)
        checksum, hits, _ = _replicate(cfg, (cfg.kind,), 1)
        assert checksum == "f17ada0564bf87985c396db2c78eb9dac0352457a81bea4e195749b738dac293"
        assert hits.ravel().tolist() == [0.002, 0.002, 0.308, 0.536]


def early_phase_network():
    return generate_erdos_renyi(100, 2.0, seed=(20030317, 0, 0))


def early_phase_totals(params):
    """Mean and standard error of the total I(20) over noise seeds 0..63 of
    the early-phase run (see :class:`TestEarlyPhase`), and its exact I(20)."""
    net, init = early_phase_network(), InitialCondition(0, 20.0)
    totals = [simulate(net, params, init, 20.0, seed=s).infectious[20].sum() for s in range(64)]
    se = float(np.std(totals, ddof=1)) / math.sqrt(len(totals))
    return float(np.mean(totals)), se, linear_phase(net, params, init, 20.0)[0]


class TestEarlyPhase:
    """The integrator against the exact infectious vector and case counter of
    the noise-off model while I is much smaller than S (``oracles.linear_phase``):
    20 index cases at node 0 of the N=100 acceptance topology, low-r rates
    and t=20, where the noise-off I stays below 1e-4 of a node's population."""

    def test_noise_off_error_halves_with_sim_dt(self):
        # Euler is first order: each halving of sim_dt halves the relative L1
        # error of I(20) and of J(20) (measured ratios 2.00 to 2.01).
        net, init = early_phase_network(), InitialCondition(0, 20.0)
        params = EpidemicParams(0.11, 0.09, 0.2)
        exact = linear_phase(net, params, init, 20.0)
        runs = [simulate(net, params, init, 20.0, sim_dt=dt, noise=False) for dt in (0.1, 0.05, 0.025, 0.0125)]
        for series, want in zip(("infectious", "cases"), exact):
            errors = [np.abs(getattr(run, series)[20] - want).sum() / want.sum() for run in runs]
            ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
            assert all(1.8 <= ratio <= 2.2 for ratio in ratios), (series, ratios)

    def test_noise_on_mean_without_migration_is_the_exact_growth(self):
        # Without migration only the source grows, as 20 e^((alpha - beta) t)
        # in the mean; 64 seeds' mean lies within 3 SE of it (measured +0.1 SE).
        mean, se, exact = early_phase_totals(EpidemicParams(0.11, 0.09, 0.0))
        assert exact.sum() == pytest.approx(20 * math.exp(0.02 * 20), rel=1e-12)
        assert abs(mean - exact.sum()) <= 3 * se, (mean, se, exact.sum())

    def test_noise_on_mean_with_migration_is_reported(self):
        # Printed, not asserted: with migration, noise on sub-person I and
        # the zero clamp inflate early growth (measured +24 to +34 SE). The
        # assertions check the oracle: migration moves I without changing
        # its total.
        mean, se, exact = early_phase_totals(EpidemicParams(0.11, 0.09, 0.2))
        assert np.count_nonzero(exact > 1e-3) > 1
        assert exact.sum() == pytest.approx(20 * math.exp(0.02 * 20), rel=1e-12)
        print(
            f"[diagnostic] early phase, noise on, gamma=0.2: mean total I(20) {mean:.1f} +/- {se:.1f} "
            f"over 64 seeds against {exact.sum():.2f} exact, {(mean - exact.sum()) / se:+.1f} SE (not asserted)"
        )


class TestTrajectoryAccess:
    def test_times_uniform_and_increasing(self):
        net = generate_erdos_renyi(8, 2.0, seed=4)
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(1), 10.0, report_dt=2.0, seed=2)
        spacing = np.diff(traj.times)
        assert np.all(spacing > 0)
        np.testing.assert_allclose(spacing, 2.0, rtol=1e-15)


class TestTrajectoryExport:
    def test_csv_and_sidecar(self, tmp_path):
        net = generate_erdos_renyi(4, 2.0, seed=3)
        traj = simulate(net, HIGH_R_PARAMS, InitialCondition(1), 3.0, seed=5)
        out = tmp_path / "traj.csv"
        sidecar = write_trajectory_csv(traj, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "time,node_label,S,I,R,J"
        assert len(lines) == 1 + 4 * 4  # header + 4 report times x 4 nodes
        import json

        meta = json.loads(sidecar.read_text())
        assert meta["alpha"] == 0.16
        assert meta["seed"] == [5]
        assert meta["checksum"] == traj.checksum

    def test_numpy_scalar_inputs_are_exported_as_plain_numbers(self, tmp_path):
        net = generate_erdos_renyi(4, 2.0, seed=3)
        params = EpidemicParams(np.float32(0.125), np.float64(0.04), np.int64(0))
        init = InitialCondition(np.int64(2), np.int32(20), np.float32(1e6))
        traj = simulate(net, params, init, np.int64(3), sim_dt=np.float32(0.25), report_dt=np.int8(1),
                        seed=(np.uint8(5), np.int64(1)))
        meta = json.loads(write_trajectory_csv(traj, tmp_path / "traj.csv").read_text())
        assert meta["source"] == 2 and meta["index_cases"] == 20.0 and meta["alpha"] == 0.125
        assert meta["sim_dt"] == 0.25 and meta["report_dt"] == 1.0 and meta["seed"] == [5, 1]
