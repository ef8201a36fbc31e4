"""Mutation fuzz of the four input parsers through ``cli.main``: the
experiment config JSON, the adjacency CSV, the observation CSV and the case
CSV. Each example deletes bytes from, or inserts bytes into, a valid input.
Every run must exit 0 or 2, and an exit 2 must print an ``error:`` line with
no traceback and no "runtime failure".

The examples are derandomized, so a run of the suite is repeatable; raise
``max_examples`` (or drop ``derandomize``) for a longer campaign.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler import experiments
from epiprofiler.cli import main

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# Bytes that parsers treat specially, plus digits, which turn values into
# other valid-looking values.
TOKENS = [b",", b"\n", b"\r", b'"', b"\x00", b"\xff", *(str(d).encode() for d in range(10))]

NET = b"A,B,C,D\nA,0,1,0,1\nB,1,0,1,0\nC,0,1,0,1\nD,1,0,1,0\n"
OBSERVATIONS = b"node_label,value\nA,1\nB,2.5\nC,0\nD,3\n"
CASES = b"""date,region,cumulative_cases
2003-03-17,A,6
2003-03-17,B,5
2003-03-17,C,5
2003-03-17,D,7
2003-03-18,A,9
2003-03-18,B,5
2003-03-18,C,8
2003-03-18,D,7
2003-03-19,A,12
2003-03-19,B,6
2003-03-19,C,8
2003-03-19,D,10
"""
CONFIG = json.dumps(
    {
        "replicates": 2,
        "nodes": 6,
        "mean_degree": 2.0,
        "alpha": 0.16,
        "beta": 0.04,
        "gamma": 0.2,
        "population": 6000.0,
        "observation_times": [1.0, 2.0],
        "decays": [{"kind": "polynomial", "param": 0.5}, {"kind": "naive"}],
        "master_seed": 3,
        "sim_dt": 0.25,
    }
).encode()

# Node-steps (replicates x nodes x integration steps) above which a config
# that parsed is not run: the parsers are under test, not the simulator.
RUN_BUDGET = 20_000


class _TooCostly(BaseException):
    """Raised in place of a run over RUN_BUDGET. A BaseException, so that
    ``cli.main`` does not report it as a runtime failure."""


@st.composite
def mutated(draw, base: bytes) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        if draw(st.booleans()):
            del data[pos : pos + draw(st.integers(1, 8))]
        else:
            data[pos:pos] = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=1))
    return bytes(data)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "net.csv").write_bytes(NET)
    (path / "obs.csv").write_bytes(OBSERVATIONS)
    (path / "cases.csv").write_bytes(CASES)
    (path / "config.json").write_bytes(CONFIG)
    return path


@pytest.fixture(scope="module")
def bounded_runs():
    run_replicates = experiments._run_replicates

    def bounded(cfg, *args, **kwargs):
        if cfg.replicates * cfg.n_nodes * cfg.t_end / cfg.sim_dt > RUN_BUDGET:
            raise _TooCostly
        return run_replicates(cfg, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_run_replicates", bounded)
        yield


def check_contract(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except _TooCostly:
            return
    text = err.getvalue()
    assert code in (0, 2), text
    assert "Traceback" not in text and "runtime failure" not in text, text
    if code == 2:
        assert any(line.startswith("error: ") for line in text.splitlines()), text


def test_valid_inputs_exit_0(workdir, bounded_runs):
    # The base inputs that the fuzz mutates are themselves accepted.
    runs = [
        ["profile", "--net", workdir / "net.csv", "--data", workdir / "obs.csv", "--decay", "naive"],
        ["rank-timeline", "--net", workdir / "net.csv", "--cases", workdir / "cases.csv", "--window-days", "2"],
        ["evaluate", "--config", workdir / "config.json"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv] + ["--out", str(workdir / "out.csv")]) == 0


@FUZZ
@given(data=mutated(CONFIG))
def test_config(workdir, bounded_runs, data):
    path = workdir / "fuzz_config.json"
    path.write_bytes(data)
    check_contract(["evaluate", "--config", path, "--out", workdir / "out.csv"])


@FUZZ
@given(data=mutated(NET))
def test_adjacency_csv(workdir, data):
    path = workdir / "fuzz_net.csv"
    path.write_bytes(data)
    check_contract(["profile", "--net", path, "--data", workdir / "obs.csv", "--decay", "naive",
                    "--out", workdir / "out.csv"])


@FUZZ
@given(data=mutated(OBSERVATIONS))
def test_observation_csv(workdir, data):
    path = workdir / "fuzz_obs.csv"
    path.write_bytes(data)
    check_contract(["profile", "--net", workdir / "net.csv", "--data", path, "--decay", "polynomial",
                    "--param", "0.5", "--out", workdir / "out.csv"])


@FUZZ
@given(data=mutated(CASES))
def test_case_csv(workdir, data):
    path = workdir / "fuzz_cases.csv"
    path.write_bytes(data)
    check_contract(["rank-timeline", "--net", workdir / "net.csv", "--cases", path, "--window-days", "2",
                    "--out", workdir / "out.csv"])
