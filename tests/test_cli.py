import argparse
import gc
import importlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from epiprofiler.cli import build_parser, main
from epiprofiler.data_ingest import SARS_ADJACENCY_FILE, SARS_CASES_FILE, bundled_data_path
from epiprofiler.network import load_adjacency


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def net_csv(tmp_path):
    path = tmp_path / "net.csv"
    assert run("gen-net", "--nodes", "10", "--mean-degree", "2", "--seed", "7",
               "--out", str(path)) == 0
    return path


@pytest.fixture()
def path3_csv(tmp_path):
    path = tmp_path / "path3.csv"
    path.write_text("n0,n1,n2\nn0,0,1,0\nn1,1,0,1\nn2,0,1,0\n")
    return path


def small_config(tmp_path, **extra):
    raw = {
        "replicates": 2,
        "nodes": 12,
        "mean_degree": 2.0,
        "alpha": 0.16,
        "beta": 0.04,
        "gamma": 0.2,
        "population": 1.2e5,
        "observation_times": [2.0, 4.0],
        "decays": [{"kind": "polynomial", "param": 0.5}],
        "master_seed": 11,
        "sim_dt": 0.1,
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestGenNet:
    def test_writes_valid_network(self, net_csv):
        net = load_adjacency(net_csv)
        assert net.n == 10

    def test_same_invocation_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("gen-net", "--nodes", "20", "--mean-degree", "3",
                       "--seed", "5", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mean_degree_out_of_range_is_usage_error(self, tmp_path, capsys):
        for nodes, mean_degree in (("100", "200"), ("10", "9.5")):
            code = run("gen-net", "--nodes", nodes, "--mean-degree", mean_degree,
                       "--out", str(tmp_path / "x.csv"))
            assert code == 2
            assert "mean_degree" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    def test_nodes_over_the_pair_budget_exit_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("gen-net", "--nodes", "10000000", "--mean-degree", "2", "--out", str(out)) == 2
        assert "nodes (10000000)" in error_line(capsys)
        assert not out.exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("gen-net", "--nodes", "10", "--out", str(tmp_path / "x.csv")) == 2

    def test_negative_seed_exits_2_naming_flag(self, tmp_path, capsys):
        assert run("gen-net", "--nodes", "10", "--mean-degree", "2", "--seed=-1",
                   "--out", str(tmp_path / "x.csv")) == 2
        assert "--seed" in error_line(capsys)

    def test_manifest_written(self, net_csv):
        manifest = json.loads((net_csv.parent / "net.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "gen-net"
        assert manifest["arguments"]["seed"] == 7


class TestSimulate:
    def test_trajectory_has_monotone_cases(self, tmp_path, net_csv):
        out = tmp_path / "traj.csv"
        code = run("simulate", "--net", str(net_csv), "--alpha", "0.16", "--beta", "0.04",
                   "--gamma", "0.2", "--source", "0", "--population", "1e6",
                   "--t-end", "20", "--seed", "3", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        per_node = {}
        for row in rows:
            _, label, *_rest, j = row.split(",")
            per_node.setdefault(label, []).append(float(j))
        for series in per_node.values():
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_no_noise_exponential_decay(self, tmp_path):
        net = tmp_path / "two.csv"
        net.write_text("a,b\na,0,0\nb,0,0\n")
        out = tmp_path / "traj.csv"
        code = run("simulate", "--net", str(net), "--alpha", "0", "--beta", "0.04",
                   "--gamma", "0.2", "--source", "0", "--index-cases", "20",
                   "--population", "200", "--t-end", "10", "--sim-dt", "0.01",
                   "--no-noise", "--seed", "0", "--out", str(out))
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        i_a = [float(r[3]) for r in rows if r[1] == "a"]
        assert i_a[-1] == pytest.approx(20 * math.exp(-0.4), rel=0.01)

    def test_missing_net_flag_exits_2(self, tmp_path):
        assert run("simulate", "--alpha", "0.1", "--beta", "0.1", "--gamma", "0.1",
                   "--t-end", "5", "--out", str(tmp_path / "x.csv")) == 2

    def test_bad_source_exits_2(self, tmp_path, net_csv, capsys):
        # A superscript digit passes str.isdigit but not int().
        for source in ("banana", "\u00b2"):
            code = run("simulate", "--net", str(net_csv), "--alpha", "0.1", "--beta", "0.1",
                       "--gamma", "0.1", "--source", source, "--t-end", "5",
                       "--seed", "1", "--out", str(tmp_path / "x.csv"))
            assert code == 2
            assert f"--source must be a node index or 'random', got {source!r}" in error_line(capsys)

    @pytest.mark.parametrize("flag,field", [
        ("--t-end=0", "t_end"),
        ("--t-end=10.5", "t_end"),
        ("--t-end=nan", "t_end"),
        ("--t-end=inf", "t_end"),
        ("--sim-dt=0", "sim_dt"),
        ("--sim-dt=0.03", "sim_dt"),
        ("--report-dt=0", "report_dt"),
        ("--index-cases=1e6", "index_cases"),
        ("--index-cases=nan", "index_cases"),
        ("--population=nan", "population"),
        ("--source=10", "source"),
        ("--source=-1", "source"),
        ("--seed=-1", "--seed"),
    ])
    def test_bad_recipe_exits_2_before_any_work(self, tmp_path, net_csv, capsys, flag, field):
        out = tmp_path / "x.csv"
        code = run("simulate", "--net", str(net_csv), "--alpha", "0.16", "--beta", "0.04",
                   "--gamma", "0.2", "--source", "0", "--population", "1e6", "--t-end", "5",
                   flag, "--out", str(out))
        assert code == 2
        assert field in error_line(capsys)
        assert not out.exists()

    def test_random_source_resolved_in_manifest(self, tmp_path, net_csv):
        out = tmp_path / "traj.csv"
        assert run("simulate", "--net", str(net_csv), "--alpha", "0.16", "--beta", "0.04",
                   "--gamma", "0.2", "--source", "random", "--population", "1e6",
                   "--t-end", "5", "--seed", "9", "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["arguments"]["source"].isdigit()


class TestProfile:
    def test_path_graph_hand_ranking(self, tmp_path, path3_csv):
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,1\nn2,0\n")
        out = tmp_path / "ranking.csv"
        code = run("profile", "--net", str(path3_csv), "--data", str(data),
                   "--decay", "polynomial", "--param", "0.5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,node_label,score"
        assert [line.split(",")[1] for line in lines[1:]] == ["n1", "n0", "n2"]

    def test_naive_with_param_is_usage_error(self, tmp_path, path3_csv, capsys):
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,1\nn2,0\n")
        code = run("profile", "--net", str(path3_csv), "--data", str(data),
                   "--decay", "naive", "--param", "1.0", "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "naive" in capsys.readouterr().err

    @pytest.mark.parametrize("decay,param", [
        ("exponential", "inf"), ("power", "nan"), ("polynomial", "-1"), ("polynomial", None),
    ])
    def test_bad_param_exits_2_naming_it(self, tmp_path, path3_csv, capsys, decay, param):
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,1\nn2,0\n")
        flags = [] if param is None else [f"--param={param}"]
        code = run("profile", "--net", str(path3_csv), "--data", str(data), "--decay", decay,
                   *flags, "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "param" in error_line(capsys)

    def test_all_zero_data_succeeds_degenerate(self, tmp_path, path3_csv, capsys):
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,0\nn2,0\n")
        out = tmp_path / "ranking.csv"
        code = run("profile", "--net", str(path3_csv), "--data", str(data),
                   "--decay", "polynomial", "--param", "0.5", "--out", str(out))
        assert code == 0
        assert "degenerate" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 4

    def test_values_whose_squares_underflow_are_not_degenerate(self, tmp_path, capsys):
        # Every square of 1e-200 underflows to 0; the ranking is that of
        # any other constant vector.
        net = tmp_path / "net6.csv"
        assert run("gen-net", "--nodes", "6", "--mean-degree", "2", "--seed", "1", "--out", str(net)) == 0
        outs = {}
        for value in ("1e-200", "1"):
            data = tmp_path / f"data{value}.csv"
            data.write_text("node_label,value\n" + "".join(f"n{i},{value}\n" for i in range(6)))
            outs[value] = tmp_path / f"ranking{value}.csv"
            assert run("profile", "--net", str(net), "--data", str(data), "--decay", "polynomial",
                       "--param", "0.5", "--out", str(outs[value])) == 0
            assert "degenerate" not in capsys.readouterr().err
        assert outs["1e-200"].read_bytes() == outs["1"].read_bytes()

    def test_label_mismatch_exits_2(self, tmp_path, path3_csv, capsys):
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nx,1\ny,2\nz,3\n")
        assert run("profile", "--net", str(path3_csv), "--data", str(data),
                   "--decay", "naive", "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert "first missing: 'n0'" in err and "first unknown: 'x'" in err

    @pytest.mark.parametrize("text,problem", [
        ("nan", "not finite"),
        ("inf", "not finite"),
        ("-inf", "not finite"),
        ("1e400", "not finite"),
        ("-1", "negative"),
    ])
    def test_bad_observation_value_exits_2_naming_line(self, tmp_path, path3_csv, capsys,
                                                       text, problem):
        data = tmp_path / "data.csv"
        data.write_text(f"node_label,value\nn0,0\nn1,{text}\nn2,0\n")
        out = tmp_path / "r.csv"
        assert run("profile", "--net", str(path3_csv), "--data", str(data),
                   "--decay", "naive", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{data}: line 3:" in err and problem in err
        assert not out.exists()

    @pytest.mark.parametrize("decay,values,problem", [
        ("power", "0,1,0", "power decay parameter 1e+200"),
        ("naive", "1e200,1e200,0", "observation 0"),
    ], ids=["weight", "observation"])
    def test_scores_beyond_float_range_exit_2(self, tmp_path, path3_csv, capsys, decay, values, problem):
        # On the 3-node path, power 1e200 weighs hop 2 beyond float range, and
        # the observations' norm overflows: either would zero every score.
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\n" + "".join(f"n{i},{v}\n" for i, v in enumerate(values.split(","))))
        flags = ["--param", "1e200"] if decay == "power" else []
        out = tmp_path / "r.csv"
        assert run("profile", "--net", str(path3_csv), "--data", str(data), "--decay", decay, *flags,
                   "--out", str(out)) == 2
        assert problem in error_line(capsys)
        assert not out.exists()


class TestEvaluateAndSweep:
    def test_evaluate_writes_curve_csv(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "curve.csv"
        assert run("evaluate", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,decay_kind,param,t,mean_H,stderr,replicates"
        assert len(lines) == 3  # one decay spec, two times

    def test_evaluate_deterministic(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("evaluate", "--config", str(cfg), "--out", str(a)) == 0
        assert run("evaluate", "--config", str(cfg), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_evaluate_workers_match_serial(self, tmp_path):
        cfg = small_config(tmp_path, replicates=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("evaluate", "--config", str(cfg), "--out", str(a)) == 0
        assert run("evaluate", "--config", str(cfg), "--workers", "2", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["beta"]
        cfg.write_text(json.dumps(raw))
        assert run("evaluate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,field", [
        ({"observation_times": ["a"]}, "observation_times[0]"),
        ({"observation_times": [True]}, "observation_times[0]"),
        ({"decays": [{"kind": "polynomial", "param": "0.5"}]}, "decays[0].param"),
        ({"decays": [{"kind": "polynomial", "param": True}]}, "decays[0].param"),
        ({"sim_dt": 0.0}, "sim_dt"),
        ({"sim_dt": -1.0}, "sim_dt"),
        ({"sim_dt": 0.03}, "sim_dt"),
        ({"nodes": 1}, "nodes"),
        ({"observation_times": [5e-9], "report_dt": 10, "delta_t": 10}, "observation time"),
        ({"observation_times": [1e-9]}, "observation time"),
        ({"master_seed": -3}, "master_seed"),
        ({"observation_times": [5, 5, 6]}, "observation_times"),
        ({"replicates": 10**12}, "replicates"),
        ({"replicates": 10**400}, "replicates"),
        ({"replicates": 2.5}, "replicates"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"nodes": "12"}, "nodes"),
        ({"noise": 1}, "noise"),
        ({"decays": [{"kind": "polynomial", "param": 0.5, "parm": 9}]}, "decays[0]: unknown field 'parm'"),
        ({"sweep": {"kind": "polynomial", "grid": [1.0], "grd": [2.0]}}, "sweep: unknown field 'grd'"),
        ({"decays": [{"kind": "naive"}, {"kind": "naive"}]}, "decays[1] repeats decays[0]"),
        ({"decays": [{"kind": "polynomial", "param": 0.5}, {"kind": "naive"}, {"kind": "polynomial", "param": 0.5}]},
         "decays[2] repeats decays[0]"),
        ({"sweep": {"kind": "polynomial", "grid": [0.5, 0.5, 1.0]}}, "sweep.grid[1] repeats sweep.grid[0]"),
    ])
    def test_invalid_config_value_exits_2_naming_field(self, tmp_path, capsys, extra, field):
        cfg = small_config(tmp_path, **extra)
        out = tmp_path / "x.csv"
        assert run("evaluate", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,flag", [
        ("evaluate", "--workers=0"),
        ("evaluate", "--workers=-3"),
        ("evaluate", "--seed=-1"),
        ("sweep", "--workers=0"),
        ("sweep", "--workers=-3"),
    ])
    def test_bad_count_flag_exits_2_before_any_work(self, tmp_path, capsys, subcommand, flag):
        cfg = small_config(tmp_path, sweep={"kind": "polynomial", "grid": [0.5]})
        out = tmp_path / "x.csv"
        assert run(subcommand, "--config", str(cfg), flag, "--out", str(out)) == 2
        assert flag.split("=")[0] in error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["evaluate", "sweep"])
    def test_pool_never_larger_than_replicates(self, tmp_path, monkeypatch, subcommand):
        # A pool forks all its workers at once; this fake starts none.
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # More replicates than usable CPUs, so the CPUs bound the pool.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        cfg = small_config(tmp_path, replicates=cpus + 2, sweep={"kind": "polynomial", "grid": [0.5]})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(subcommand, "--config", str(cfg), "--workers", "5000", "--out", str(a)) == 0
        pools = [cpus] if cpus > 1 else []
        assert sizes == pools
        assert run(subcommand, "--config", str(cfg), "--out", str(b)) == 0
        assert sizes == pools
        assert a.read_bytes() == b.read_bytes()

    def test_correlation_mode(self, tmp_path):
        cfg = small_config(tmp_path, experiment="correlation")
        out = tmp_path / "pairs.csv"
        assert run("evaluate", "--config", str(cfg), "--out", str(out)) == 0
        header = out.read_text().splitlines()[0]
        assert header == "experiment,decay_kind,param,initial_correlation,hit_score"

    def test_observables_mode(self, tmp_path):
        cfg = small_config(tmp_path, experiment="observables")
        out = tmp_path / "kinds.csv"
        assert run("evaluate", "--config", str(cfg), "--out", str(out)) == 0
        text = out.read_text()
        for kind in ("infectious", "cumulative_cases", "infectious_change", "new_cases"):
            assert f"observables[{kind}]" in text

    @pytest.mark.parametrize("replicates,workers", [(1, "1"), (2, "2")], ids=["serial", "pool"])
    @pytest.mark.parametrize("subcommand", ["evaluate", "sweep"])
    def test_decay_refused_mid_run_exits_2_naming_it(self, tmp_path, capsys, subcommand,
                                                      replicates, workers):
        # Whether a profile norm overflows depends on each drawn network's
        # diameter, so the refusal comes from inside a replicate, and with two
        # workers it crosses the process pool.
        cfg = small_config(tmp_path, nodes=6, replicates=replicates,
                           decays=[{"kind": "power", "param": 1e200}],
                           sweep={"kind": "power", "grid": [1e200]})
        out = tmp_path / "x.csv"
        assert run(subcommand, "--config", str(cfg), "--workers", workers, "--out", str(out)) == 2
        assert "power decay parameter 1e+200" in error_line(capsys)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_requires_block(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) == 2
        assert "sweep" in capsys.readouterr().err

    def test_sweep_writes_table(self, tmp_path):
        cfg = small_config(tmp_path, sweep={"kind": "polynomial", "grid": [0.5, 2.0]})
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3


class TestRankTimeline:
    @pytest.mark.parametrize("flags,problem", [
        (["--decay", "power", "--param", "1e200"], "power decay parameter 1e+200"),
        (["--window-days", "99999999999999999999"], "window_days 99999999999999999999"),
    ], ids=["weight", "window"])
    def test_out_of_range_flag_exits_2_naming_it(self, tmp_path, capsys, flags, problem):
        out = tmp_path / "timeline.csv"
        code = run("rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                   "--cases", str(bundled_data_path(SARS_CASES_FILE)), *flags, "--out", str(out))
        assert code == 2
        assert problem in error_line(capsys)
        assert not out.exists()

    def test_bundled_inputs_hkg_first(self, tmp_path):
        out = tmp_path / "timeline.csv"
        code = run("rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                   "--cases", str(bundled_data_path(SARS_CASES_FILE)), "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        rank_one = [row[3] for row in rows if row[2] == "1"]
        assert rank_one and all(region == "HKG" for region in rank_one)

    def test_a_run_interns_no_strings(self, tmp_path, monkeypatch):
        # Python 3.11's pathlib interns each part of a path it parses. Parts
        # that die with their path leave dead entries in the interpreter's
        # table of interned strings, and a process that called main in a
        # loop rebuilt that table (about 1 MB) every few hundred runs.
        argv = ["rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                "--cases", str(bundled_data_path(SARS_CASES_FILE)), "--out", str(tmp_path / "timeline.csv")]
        assert run(*argv) == 0
        interned = []
        monkeypatch.setattr(sys, "intern", lambda text: interned.append(text) or text)
        assert run(*argv) == 0
        assert interned == []

    @pytest.mark.parametrize("min_cases,dropped", [("0", "IRL, ITA"), ("3", "ITA")],
                             ids=["min_cases_0", "min_cases_3"])
    def test_regions_the_network_lacks_are_dropped_with_a_warning(self, tmp_path, caplog,
                                                                   min_cases, dropped):
        # The bundled case file has 13 regions and the network 11; a low
        # threshold keeps ITA (and IRL), which the network lacks.
        out = tmp_path / "timeline.csv"
        with caplog.at_level(logging.WARNING, logger="epiprofiler.data_ingest"):
            code = run("rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                       "--cases", str(bundled_data_path(SARS_CASES_FILE)),
                       "--min-cases", min_cases, "--out", str(out))
        assert code == 0
        drops = [r.getMessage() for r in caplog.records if "network lacks" in r.getMessage()]
        assert drops == [f"dropping case-series regions the network lacks: {dropped}"]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        network = load_adjacency(bundled_data_path(SARS_ADJACENCY_FILE))
        assert {row[3] for row in rows} == set(network.labels)

    def test_label_mismatch_exits_2(self, tmp_path, net_csv, capsys):
        out = tmp_path / "timeline.csv"
        cases = bundled_data_path(SARS_CASES_FILE)
        code = run("rank-timeline", "--net", str(net_csv), "--cases", str(cases), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "labels" in err
        assert err.startswith(f"error: {Path(cases).resolve()}: region set")
        # A network node missing from the series is named.
        assert "'n0'" in err


def _rerun_first_argv(subcommand, tmp_path, net_csv, path3_csv):
    """Flags (without --out) for one run of ``subcommand`` that writes a manifest."""
    if subcommand == "gen-net":
        return ["--nodes", "10", "--mean-degree", "2", "--seed", "7"]
    if subcommand == "simulate":
        return ["--net", str(net_csv), "--alpha", "0.16", "--beta", "0.04", "--gamma", "0.2",
                "--source", "random", "--population", "1e6", "--t-end", "10", "--seed", "21"]
    if subcommand == "profile":
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,1\nn2,3\n")
        return ["--net", str(path3_csv), "--data", str(data), "--decay", "polynomial",
                "--param", "0.5"]
    if subcommand == "evaluate":
        return ["--config", str(small_config(tmp_path))]
    if subcommand == "sweep":
        cfg = small_config(tmp_path, sweep={"kind": "polynomial", "grid": [0.5, 2.0]})
        return ["--config", str(cfg)]
    assert subcommand == "rank-timeline"
    return ["--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
            "--cases", str(bundled_data_path(SARS_CASES_FILE))]


def _manifest(out):
    return json.loads(Path(str(out) + ".manifest.json").read_text())


class TestRerun:
    @pytest.mark.parametrize("subcommand", [
        "gen-net", "simulate", "profile", "evaluate", "sweep", "rank-timeline",
    ])
    def test_rerun_byte_identical(self, tmp_path, net_csv, path3_csv, subcommand):
        out = tmp_path / "first.csv"
        argv = _rerun_first_argv(subcommand, tmp_path, net_csv, path3_csv)
        assert run(subcommand, *argv, "--out", str(out)) == 0
        out2 = tmp_path / "again.csv"
        assert run("rerun", "--manifest", str(out) + ".manifest.json", "--out", str(out2)) == 0
        first, again = _manifest(out), _manifest(out2)
        assert again["subcommand"] == first["subcommand"] == subcommand
        assert len(again["outputs"]) == len(first["outputs"]) >= 1
        assert again["outputs"][0] == str(out2)
        for original, replayed in zip(first["outputs"], again["outputs"]):
            assert Path(replayed).read_bytes() == Path(original).read_bytes()
        assert again["arguments"].pop("out") == str(out2)
        assert first["arguments"].pop("out") == str(out)
        assert again["arguments"] == first["arguments"]

    def test_missing_manifest_exits_2(self, tmp_path):
        assert run("rerun", "--manifest", str(tmp_path / "nope.json")) == 2

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("[1, 2]")
        assert run("rerun", "--manifest", str(manifest)) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_non_object_arguments_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "gen-net", "arguments": 5}))
        assert run("rerun", "--manifest", str(manifest)) == 2
        assert "'arguments'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [False, True])
    def test_boolean_for_valued_flag_exits_2_naming_field(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "gen-net", "arguments": {
            "nodes": 6, "mean_degree": 2, "seed": value, "out": str(out)}}))
        assert run("rerun", "--manifest", str(manifest)) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_switch_replays(self, tmp_path, net_csv):
        # --no-noise is a store_true flag, so its manifest value is a boolean.
        out = tmp_path / "first.csv"
        argv = _rerun_first_argv("simulate", tmp_path, net_csv, None)
        assert run("simulate", *argv, "--no-noise", "--out", str(out)) == 0
        assert _manifest(out)["arguments"]["no_noise"] is True
        out2 = tmp_path / "again.csv"
        assert run("rerun", "--manifest", str(out) + ".manifest.json", "--out", str(out2)) == 0
        assert out2.read_bytes() == out.read_bytes()
        assert _manifest(out2)["arguments"]["no_noise"] is True

    def test_self_replaying_rerun_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"subcommand": "rerun", "arguments": {"manifest": str(manifest)}}))
        assert run("rerun", "--manifest", str(manifest)) == 2
        assert "'subcommand'" in capsys.readouterr().err


def error_line(capsys) -> str:
    """The run's one ``error:`` line, after checking that nothing else failed."""
    err = capsys.readouterr().err
    assert "runtime failure" not in err and "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(lines) == 1, err
    return lines[0]


class TestBadFiles:
    """Unusable input or output paths exit 2 with a message naming the file."""

    @pytest.fixture()
    def inputs(self, tmp_path, path3_csv):
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,1\nn2,0\n")
        return {
            "net": path3_csv,
            "data": data,
            "cases": bundled_data_path(SARS_CASES_FILE),
            "config": small_config(tmp_path),
        }

    @staticmethod
    def argv(inputs, flag, path, out):
        paths = {**inputs, flag: path}
        if flag in ("net", "data"):
            return ["profile", "--net", str(paths["net"]), "--data", str(paths["data"]),
                    "--decay", "naive", "--out", str(out)]
        if flag == "cases":
            return ["rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                    "--cases", str(paths["cases"]), "--out", str(out)]
        return ["evaluate", "--config", str(paths["config"]), "--out", str(out)]

    @pytest.mark.parametrize("flag", ["net", "data", "cases", "config"])
    def test_directory_input_exits_2_naming_it(self, tmp_path, inputs, capsys, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(self.argv(inputs, flag, folder, tmp_path / "o.csv")) == 2
        assert "not a regular file" in error_line(capsys)

    @pytest.mark.parametrize(
        "flag,bad",
        [
            ("net", b"n0,n1\nn0,0,1\nn\xe91,1,0\n"),
            ("data", b"node_label,value\nn0,0\nn\xe91,1\nn2,0\n"),
            ("cases", b"date,region,cumulative_cases\n2003-03-17,HKG,5\n2003-03-18,H\xe9KG,7\n"),
        ],
        ids=["adjacency", "observation", "cases"],
    )
    def test_non_utf8_csv_exits_2_naming_file_and_line(self, tmp_path, inputs, capsys, flag, bad):
        path = tmp_path / "bad.csv"
        path.write_bytes(bad)
        assert main(self.argv(inputs, flag, path, tmp_path / "o.csv")) == 2
        line = error_line(capsys)
        assert str(path) in line and "line 3" in line and "UTF-8" in line

    @pytest.mark.parametrize("subcommand", ["evaluate", "sweep"])
    def test_non_utf8_config_exits_2_naming_file(self, tmp_path, capsys, subcommand):
        config = small_config(tmp_path)
        config.write_bytes(config.read_bytes().replace(b"polynomial", b"polyn\xf4mial"))
        assert run(subcommand, "--config", str(config), "--out", str(tmp_path / "o.csv")) == 2
        line = error_line(capsys)
        assert str(config) in line and "UTF-8" in line

    def test_non_utf8_manifest_exits_2_naming_file(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b'{"subcommand": "gen-n\xe9t"}')
        assert run("rerun", "--manifest", str(manifest)) == 2
        line = error_line(capsys)
        assert str(manifest) in line and "UTF-8" in line

    def test_output_in_missing_directory_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "o.csv"
        assert run("evaluate", "--config", str(small_config(tmp_path)), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "replicate" not in err
        assert err == f"error: output directory does not exist: {out.parent}\n"

    def test_output_with_trailing_slash_in_missing_directory_exits_2(self, tmp_path, capsys):
        # A trailing separator names a directory, which must exist.
        out = tmp_path / "missing_dir"
        assert run("gen-net", "--nodes", "5", "--mean-degree", "2", "--out", f"{out}{os.sep}") == 2
        assert capsys.readouterr().err == f"error: output directory does not exist: {out}\n"
        assert not out.exists()

    def test_rerun_redirect_into_missing_directory_exits_2(self, tmp_path, net_csv, capsys):
        out = tmp_path / "missing_dir" / "o.csv"
        manifest = str(net_csv) + ".manifest.json"
        assert run("rerun", "--manifest", manifest, "--out", str(out)) == 2
        assert "output directory does not exist" in error_line(capsys)
        assert not out.parent.exists()

    def test_output_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert run("gen-net", "--nodes", "5", "--mean-degree", "2", "--out", str(tmp_path)) == 2
        assert "output path is a directory" in error_line(capsys)


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_leave_no_argparse_garbage(self, tmp_path):
        # A parser build leaves its help formatters in reference cycles, so
        # building one per call would pile them up in the oldest gc
        # generation over in-process calls.
        argv = ["rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                "--cases", str(bundled_data_path(SARS_CASES_FILE)), "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 0  # the first call in this process may build the parser
        gc.collect()
        old_debug = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                assert main(argv) == 0
            gc.collect()
            formatters = sum(isinstance(obj, argparse.HelpFormatter) for obj in gc.garbage)
        finally:
            gc.set_debug(old_debug)
            gc.garbage.clear()
        assert formatters == 0


class TestTopLevel:
    def test_version_exits_0(self):
        assert run("--version") == 0

    def test_unknown_subcommand_exits_2(self):
        assert run("frobnicate") == 2

    @pytest.mark.parametrize("module,name", [("data_ingest", "rank_timeline"), ("experiments", "_reports")])
    @pytest.mark.parametrize("exc,code,err", [
        (ValueError("x"), 2, "error: x\n"),
        (RuntimeError("y"), 1, "runtime failure: y\n"),
    ], ids=["value_error", "runtime_error"])
    def test_exception_mid_run_sets_exit_code_by_type(self, tmp_path, monkeypatch, capsys,
                                                      module, name, exc, code, err):
        # main alone turns an exception into an exit code: a ValueError raised
        # anywhere in a run is bad input, and any other exception is a runtime
        # failure, whichever library call raises it.
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(importlib.import_module(f"epiprofiler.{module}"), name, fail)
        out = tmp_path / "o.csv"
        if module == "data_ingest":
            argv = ["rank-timeline", "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                    "--cases", str(bundled_data_path(SARS_CASES_FILE))]
        else:
            argv = ["evaluate", "--config", str(small_config(tmp_path))]
        assert run(*argv, "--out", str(out)) == code
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_unwritable_output_is_runtime_failure(self, tmp_path, path3_csv, capsys):
        # A write that fails while the run writes (here a full device) is a
        # runtime failure; an output directory that does not exist is caught
        # before any work (TestBadFiles).
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        data = tmp_path / "data.csv"
        data.write_text("node_label,value\nn0,0\nn1,1\nn2,0\n")
        code = run("profile", "--net", str(path3_csv), "--data", str(data),
                   "--decay", "naive", "--out", "/dev/full")
        assert code == 1
        assert "runtime failure" in capsys.readouterr().err

    def test_console_script_entry_point(self, tmp_path):
        # The installed console script when there is one; otherwise the
        # target pyproject.toml names, run the way the script would run it.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
        assert scripts == {"epiprofiler": "epiprofiler.cli:main"}
        module, func = scripts["epiprofiler"].split(":")
        exe = shutil.which("epiprofiler")
        env = dict(os.environ)
        if exe is None:
            script = f"import sys; from {module} import {func}; sys.exit({func}())"
            command = [sys.executable, "-c", script]
            env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        else:
            command = [exe]
        out = tmp_path / "net.csv"
        proc = subprocess.run(
            [*command, "gen-net", "--nodes", "6", "--mean-degree", "2", "--seed", "1",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_adjacency(out).n == 6
