"""Golden bytes of every output writer, on inputs built by hand (no
simulation, no libm call), so that any change to an output format shows up
here as a diff."""
import argparse
import datetime as dt
import gc
import textwrap
from pathlib import Path

import numpy as np
import pytest

from epiprofiler import __version__
from epiprofiler.cli import _write_manifest
from epiprofiler.data_ingest import RankingTimeline, TimelineEntry, write_timeline_csv
from epiprofiler.experiments import (
    CorrelationSamples,
    HitCurve,
    SweepResult,
    hit_curve_rows,
    write_correlation_csv,
    write_hit_curves_csv,
    write_sweep_csv,
)
from epiprofiler.network import Network
from epiprofiler.profiler import DecayKind, DecaySpec, LikelinessResult, write_ranking_csv
from epiprofiler.simulator import EpidemicParams, InitialCondition, Trajectory, write_trajectory_csv

NAIVE = DecaySpec(DecayKind.NAIVE)
POLY = DecaySpec(DecayKind.POLYNOMIAL, 0.5)


def csv_bytes(*lines: str) -> bytes:
    """The file csv's default dialect writes: every row ends in \\r\\n."""
    return "".join(line + "\r\n" for line in lines).encode()


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_ranking_csv():
    result = LikelinessResult(np.array([0.25, 1.0, 1 / 3]))
    write_ranking_csv(result, ["a", "b", "c"], "rank.csv")
    assert Path("rank.csv").read_bytes() == csv_bytes(
        "rank,node_label,score",
        "1,b,1.0",
        "2,c,0.3333333333333333",
        "3,a,0.25",
    )


def test_hit_curves_csv():
    curve = HitCurve(
        (5.0, 10.0),
        {NAIVE: (0.5, 0.25), POLY: (0.1, 1 / 3)},
        {NAIVE: (0.0, 0.125), POLY: (0.05, 0.2)},
        4,
        (),
    )
    write_hit_curves_csv("hit.csv", hit_curve_rows("hit", curve))
    assert Path("hit.csv").read_bytes() == csv_bytes(
        "experiment,decay_kind,param,t,mean_H,stderr,replicates",
        "hit,naive,,5.0,0.5,0.0,4",
        "hit,naive,,10.0,0.25,0.125,4",
        "hit,polynomial,0.5,5.0,0.1,0.05,4",
        "hit,polynomial,0.5,10.0,0.3333333333333333,0.2,4",
    )


def test_correlation_csv():
    samples = CorrelationSamples({NAIVE: ((0.5, 0.1),), POLY: ((-0.25, 1.0), (1 / 3, 0.5))}, 1, 2, ())
    write_correlation_csv("corr.csv", "correlation", samples)
    assert Path("corr.csv").read_bytes() == csv_bytes(
        "experiment,decay_kind,param,initial_correlation,hit_score",
        "correlation,naive,,0.5,0.1",
        "correlation,polynomial,0.5,-0.25,1.0",
        "correlation,polynomial,0.5,0.3333333333333333,0.5",
    )


def test_sweep_csv():
    # Rows come in ascending parameter order; a tie on the mean keeps the
    # selected parameter's flag on that parameter only.
    result = SweepResult(DecayKind.POWER, {2.0: 0.3, 0.5: 0.125, 1.0: 0.125}, 0.5, 3, ())
    write_sweep_csv("sweep.csv", "sweep", result)
    assert Path("sweep.csv").read_bytes() == csv_bytes(
        "experiment,decay_kind,param,mean_H,replicates,selected",
        "sweep,power,0.5,0.125,3,true",
        "sweep,power,1.0,0.125,3,false",
        "sweep,power,2.0,0.3,3,false",
    )


def test_timeline_csv():
    timeline = RankingTimeline(
        ("HKG", "SIN"),
        (
            TimelineEntry(0, dt.date(2003, 3, 17), LikelinessResult(np.array([0.75, 0.5]))),
            TimelineEntry(3, dt.date(2003, 3, 20), LikelinessResult(np.zeros(2), degenerate=True)),
        ),
    )
    write_timeline_csv(timeline, "timeline.csv")
    assert Path("timeline.csv").read_bytes() == csv_bytes(
        "day_index,date,rank,region,score,degenerate_flag",
        "0,2003-03-17,1,HKG,0.75,false",
        "0,2003-03-17,2,SIN,0.5,false",
        "3,2003-03-20,1,HKG,0.0,true",
        "3,2003-03-20,2,SIN,0.0,true",
    )


def test_trajectory_csv_and_sidecar():
    traj = Trajectory(
        susceptible=np.array([[99.0, 100.0], [98.5, 99.75]]),
        infectious=np.array([[1.0, 0.0], [1.25, 0.1]]),
        removed=np.array([[0.0, 0.0], [0.25, 0.15]]),
        cases=np.array([[1.0, 0.0], [1.5, 0.25]]),
        network=Network(np.array([[0, 1], [1, 0]]), labels=["a", "b"]),
        params=EpidemicParams(0.4, 0.2, 0.1),
        init=InitialCondition(0, 1.0, 200.0),
        seed=(5, 1),
        sim_dt=0.05,
        report_dt=0.5,
        noise=True,
        last_report=1,
        checksum="9d6d88642e2be748d1d48180d167b0f57e39b48d147eb2002f0e9c1b4c7a5444",
    )
    sidecar = write_trajectory_csv(traj, "traj.csv")
    assert Path("traj.csv").read_bytes() == csv_bytes(
        "time,node_label,S,I,R,J",
        "0.0,a,99.0,1.0,0.0,1.0",
        "0.0,b,100.0,0.0,0.0,0.0",
        "0.5,a,98.5,1.25,0.25,1.5",
        "0.5,b,99.75,0.1,0.15,0.25",
    )
    assert str(sidecar) == "traj.meta.json"
    assert sidecar.read_bytes() == textwrap.dedent(
        """\
        {
          "alpha": 0.4,
          "beta": 0.2,
          "checksum": "9d6d88642e2be748d1d48180d167b0f57e39b48d147eb2002f0e9c1b4c7a5444",
          "gamma": 0.1,
          "index_cases": 1.0,
          "labels": [
            "a",
            "b"
          ],
          "nodes": 2,
          "noise": true,
          "population": 200.0,
          "report_dt": 0.5,
          "seed": [
            5,
            1
          ],
          "sim_dt": 0.05,
          "source": 0,
          "t_end": 0.5
        }
        """
    ).encode()


def test_trajectory_csv_of_integer_arrays_writes_floats():
    # Trajectory keeps its arrays as given, so the writer must format an int
    # or bool report as a float (1.0, not 1 or True).
    traj = Trajectory(
        susceptible=np.array([[99, 100]]),
        infectious=np.array([[1, 0]]),
        removed=np.array([[False, True]]),
        cases=np.array([[True, False]]),
        network=Network(np.array([[0, 1], [1, 0]]), labels=["a", "b"]),
        params=EpidemicParams(0.4, 0.2, 0.1),
        init=InitialCondition(0, 1.0, 200.0),
        seed=(5, 1),
        sim_dt=1,
        report_dt=1,
        noise=False,
        last_report=0,
        checksum="0" * 64,
    )
    write_trajectory_csv(traj, "traj.csv")
    assert Path("traj.csv").read_bytes() == csv_bytes(
        "time,node_label,S,I,R,J",
        "0.0,a,99.0,1.0,0.0,1.0",
        "0.0,b,100.0,0.0,1.0,0.0",
    )


def test_manifest_write_leaves_no_garbage():
    # json's indenting encoder leaves its closures in reference cycles; a
    # manifest write must leave nothing for the cycle collector.
    args = argparse.Namespace(subcommand="gen-net", func=print, nodes=5, mean_degree=2.0, seed=0,
                              out="net.csv")
    _write_manifest(args, ["net.csv"])  # first-call imports
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            _write_manifest(args, ["net.csv"])
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_manifest():
    args = argparse.Namespace(subcommand="gen-net", func=print, nodes=5, mean_degree=2.0, seed=0, out="net.csv")
    _write_manifest(args, ["net.csv"])
    assert Path("net.csv.manifest.json").read_bytes() == textwrap.dedent(
        f"""\
        {{
          "arguments": {{
            "mean_degree": 2.0,
            "nodes": 5,
            "out": "net.csv",
            "seed": 0
          }},
          "outputs": [
            "net.csv"
          ],
          "subcommand": "gen-net",
          "tool": "epiprofiler",
          "version": "{__version__}"
        }}
        """
    ).encode()
