"""Fuzz of ``cli.main``. The mutation tests cover the four input parsers:
the experiment config JSON, the adjacency CSV, the observation CSV and the
case CSV; each example deletes bytes from, or inserts bytes into, a valid
input. The flag tests set one numeric flag of ``simulate`` or ``profile`` to
zero, a negative, an off-grid, a tiny or a non-finite value, and the
config-field test sets one field of the experiment config to each JSON type
and to edge numbers. Every run must exit 0 or 2, and an exit 2 must print an
``error:`` line with no traceback and no "runtime failure"; a flag or field
test's error must also name the flag or field.

The examples are derandomized, so a run of the suite is repeatable; raise
``max_examples`` (or drop ``derandomize``) for a longer campaign.
"""
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler import experiments, simulator
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
# or a simulate command that parsed is not run: the parsers are under test,
# not the simulator.
RUN_BUDGET = 20_000

# Every top-level field of an experiment config, and one element of each of
# its lists of numbers, as a path of keys and indices into the config.
CONFIG_FIELDS = {
    **{key: (key,) for key in [
        "replicates", "nodes", "mean_degree", "alpha", "beta", "gamma", "index_cases", "population",
        "observation_times", "delta_t", "observable", "decays", "master_seed", "sim_dt", "report_dt",
        "noise", "experiment", "sweep",
    ]},
    "decays[0].param": ("decays", 0, "param"),
    "observation_times[0]": ("observation_times", 0),
    "sweep.grid[0]": ("sweep", "grid", 0),
}
# The values a config-field test sets, by their JSON text.
FIELD_VALUES = {
    "true": True, "false": False, "null": None, '"1"': "1", "[]": [], "{}": {}, "0": 0, "-1": -1,
    "2.5": 2.5, "NaN": math.nan, "Infinity": math.inf, "10**400": 10**400,
}

# The values a flag test draws; None keeps the flag's valid value.
FLAG_VALUES = ["0", "-1", "0.03", "10.5", "1e-9", "nan", "inf", "-inf", None]
# A power weight of 1e300 per hop is beyond float range at hop 2.
PARAM_VALUES = [*FLAG_VALUES, "1e300"]
SIMULATE_FLAGS = {
    "alpha": "0.16", "beta": "0.04", "gamma": "0.2", "source": "0", "index-cases": "20",
    "population": "6000", "t-end": "10", "sim-dt": "0.25", "report-dt": "1", "seed": "3",
}


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


@pytest.fixture(scope="module")
def bounded_simulate():
    simulate = simulator.simulate

    def bounded(net, params, init, t_end, *, sim_dt, **kwargs):
        if sim_dt > 0 and net.n * t_end / sim_dt > RUN_BUDGET:
            raise _TooCostly
        return simulate(net, params, init, t_end, sim_dt=sim_dt, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "simulate", bounded)
        yield


def check_contract(argv, names=()) -> int | None:
    """Run argv; returns the exit code, or None for a run over budget. An
    exit 2 must name one of ``names`` (the flag or its field) when given."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except _TooCostly:
            return None
    text = err.getvalue()
    assert code in (0, 2), text
    assert "Traceback" not in text and "runtime failure" not in text, text
    if code == 2:
        # cli.main prints "error: ..."; argparse, which only the flag tests
        # reach, prints "epiprofiler <subcommand>: error: ...".
        prefixes = ("error: ", "epiprofiler ") if names else ("error: ",)
        errors = [line for line in text.splitlines() if line.startswith(prefixes) and "error: " in line]
        assert errors, text
        assert not names or any(name in errors[0] for name in names), text
    return code


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


@pytest.mark.parametrize("value", FIELD_VALUES, ids=str)
@pytest.mark.parametrize("field", CONFIG_FIELDS)
def test_config_field(workdir, bounded_runs, field, value):
    raw = json.loads(CONFIG)
    raw["sweep"] = {"kind": "polynomial", "grid": [0.5]}
    *parents, last = CONFIG_FIELDS[field]
    target = raw
    for key in parents:
        target = target[key]
    target[last] = FIELD_VALUES[value]
    path = workdir / "field_config.json"
    path.write_text(json.dumps(raw))
    check_contract(["evaluate", "--config", path, "--out", workdir / "out.csv"], names=(field,))


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


@FUZZ
@given(flag=st.sampled_from(sorted(SIMULATE_FLAGS)), value=st.sampled_from(FLAG_VALUES))
def test_simulate_flag(workdir, bounded_simulate, flag, value):
    flags = {**SIMULATE_FLAGS, flag: value or SIMULATE_FLAGS[flag]}
    # --flag=value, so that argparse takes "-1" and "-inf" as values.
    argv = ["simulate", "--net", workdir / "net.csv", *(f"--{k}={v}" for k, v in flags.items()),
            "--out", workdir / "traj.csv"]
    check_contract(argv, names=(f"--{flag}", flag.replace("-", "_")))


@FUZZ
@given(decay=st.sampled_from(["naive", "power", "polynomial", "exponential"]),
       value=st.sampled_from(PARAM_VALUES))
def test_profile_param(workdir, decay, value):
    out = workdir / "ranking.csv"
    out.unlink(missing_ok=True)
    param = [] if value is None else [f"--param={value}"]
    argv = ["profile", "--net", workdir / "net.csv", "--data", workdir / "obs.csv", "--decay", decay,
            *param, "--out", out]
    if check_contract(argv, names=("param",)) == 0:
        scores = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert all(math.isfinite(x) for x in scores), scores
