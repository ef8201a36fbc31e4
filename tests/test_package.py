"""The package's top level: lazy public names, and which submodules an import
loads, and the decisions every module shares. Import checks run in a fresh
interpreter, because this test process has loaded every submodule already."""
import ast
import datetime as dt
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epiprofiler
from epiprofiler import network
from epiprofiler.data_ingest import (
    SARS_ADJACENCY_FILE,
    SARS_CASES_FILE,
    CaseReportSeries,
    bundled_data_path,
    filter_regions,
)
from epiprofiler.experiments import ExperimentConfig
from epiprofiler.network import generate_erdos_renyi, mobility_edges
from epiprofiler.profiler import Dataset, DecaySpec, LikelinessResult, ObservableKind
from epiprofiler.simulator import EpidemicParams, InitialCondition, simulate
from oracles import synthesize_dataset


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    src = str(Path(epiprofiler.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def loaded_after(statement: str) -> set[str]:
    """The epiprofiler submodules a fresh interpreter holds after ``statement``."""
    return {
        name.removeprefix("epiprofiler.")
        for name in modules_after(statement)
        if name.startswith("epiprofiler.")
    }


class TestImports:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import epiprofiler") == set()

    def test_experiments_loads_neither_ingest_nor_cli(self):
        loaded = loaded_after("from epiprofiler import experiments")
        assert "experiments" in loaded
        assert not loaded & {"data_ingest", "cli"}

    def test_cli_loads_neither_experiments_nor_ingest(self):
        loaded = loaded_after("import epiprofiler.cli")
        assert "cli" in loaded
        assert not loaded & {"experiments", "data_ingest"}

    def test_experiments_loads_no_process_pool(self):
        # The pool machinery is imported only when a run asks for workers > 1.
        loaded = modules_after("import epiprofiler.experiments")
        assert "epiprofiler.experiments" in loaded
        assert not loaded & {"concurrent.futures.process", "multiprocessing"}

    def test_profiler_loads_no_simulator(self):
        loaded = loaded_after("import epiprofiler.profiler")
        assert "profiler" in loaded
        assert "simulator" not in loaded

    @pytest.mark.parametrize(
        "subcommand,absent",
        [
            # gen-net draws from numpy.random, which imports hashlib itself.
            ("gen-net", {"epiprofiler.simulator"}),
            ("profile", {"epiprofiler.simulator", "hashlib"}),
            ("rank-timeline", {"epiprofiler.simulator", "hashlib"}),
        ],
    )
    def test_subcommands_without_simulation_load_no_simulator(self, tmp_path, subcommand, absent):
        # These subcommands run no simulation, so neither the integrator nor
        # the hashlib it imports for checksums is loaded.
        net, obs = tmp_path / "net.csv", tmp_path / "obs.csv"
        net.write_text("a,b,c\na,0,1,0\nb,1,0,1\nc,0,1,0\n")
        obs.write_text("node_label,value\na,1\nb,2\nc,0\n")
        argv = {
            "gen-net": ["--nodes", "5", "--mean-degree", "2"],
            "profile": ["--net", str(net), "--data", str(obs), "--decay", "naive"],
            "rank-timeline": [
                "--net", str(bundled_data_path(SARS_ADJACENCY_FILE)),
                "--cases", str(bundled_data_path(SARS_CASES_FILE)),
            ],
        }[subcommand]
        argv = [subcommand, *argv, "--out", str(tmp_path / "out.csv")]
        loaded = modules_after(f"from epiprofiler.cli import main\nassert main({argv!r}) == 0")
        assert "epiprofiler.cli" in loaded
        assert not loaded & absent

    def test_a_public_name_loads_its_module_only(self):
        loaded = loaded_after("from epiprofiler import DecaySpec")
        assert "profiler" in loaded
        assert not loaded & {"experiments", "data_ingest", "cli"}


# Public names no package code needs: how a library user reaches the
# bundled data files.
PUBLIC_FOR_USERS = {"bundled_data_path"}


class TestPublicNames:
    @pytest.mark.parametrize("name", [n for n in epiprofiler.__all__ if n != "__version__"])
    def test_name_is_the_submodules_object(self, name):
        module = importlib.import_module(f"epiprofiler.{epiprofiler._EXPORTS[name]}")
        value = getattr(epiprofiler, name)
        assert value is getattr(module, name)
        # A class or function is listed under the module that defines it,
        # not one that imports it.
        assert getattr(value, "__module__", module.__name__) == module.__name__

    def test_dir_covers_all(self):
        assert set(epiprofiler.__all__) <= set(dir(epiprofiler))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'nope'"):
            epiprofiler.nope  # noqa: B018
        assert not hasattr(epiprofiler, "nope")

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from epiprofiler import *", namespace)
        for name in epiprofiler.__all__:
            assert namespace[name] is getattr(epiprofiler, name)

    def test_readme_lists_each_public_name_under_its_module(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("(`epiprofiler._EXPORTS`):\n\n", 1)[1].split("\n\n", 1)[0]
        listed = {
            name: module
            for module, body in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", block, re.M | re.S)
            for name in re.findall(r"`(\w+)`", body)
        }
        assert listed == epiprofiler._EXPORTS

    def test_every_public_definition_is_used_by_the_package(self):
        # A top-level public function or class that no package code names
        # outside its own definition serves only the tests: it belongs in
        # tests/oracles.py. A string (such as an _EXPORTS key) is no use.
        trees = {
            path.name: ast.parse(path.read_text())
            for path in sorted(Path(epiprofiler.__file__).parent.glob("*.py"))
        }
        defined, used = [], {}
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    defined.append((module, node))
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        used.setdefault(sub.id, set()).add(node)
                    elif isinstance(sub, ast.Attribute):
                        used.setdefault(sub.attr, set()).add(node)
        unused = [
            f"{module}: {node.name}"
            for module, node in defined
            if node.name not in PUBLIC_FOR_USERS and not used.get(node.name, set()) - {node}
        ]
        assert unused == []


class TestExitCodeRule:
    def test_only_main_turns_an_exception_into_an_exit_code(self):
        # cli.main maps any ValueError to exit 2 and any other exception to
        # exit 1. A handler elsewhere in cli.py that returns an exit code, or
        # that re-raises a caught ValueError as another type, would fork that
        # rule. Each handler belongs to its innermost function: ast.walk goes
        # breadth first, so an inner function is reached after its outer one.
        tree = ast.parse((Path(epiprofiler.__file__).parent / "cli.py").read_text())
        owner = {node: "<module>" for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func) if node in owner)
        forks = []
        for handler, name in owner.items():
            where = f"{name}, line {handler.lineno}"
            types = ast.walk(handler.type) if handler.type else [ast.Name("BaseException")]
            caught = {n.id for n in types if isinstance(n, ast.Name)}
            catches_value_error = bool(caught & {"ValueError", "Exception", "BaseException"})
            for node in ast.walk(handler):
                value = getattr(node, "value", None)
                returns_int = isinstance(node, ast.Return) and (
                    isinstance(value, ast.Constant) and type(value.value) is int
                    or isinstance(value, ast.Call) and getattr(value.func, "id", None) == "int"
                )
                if returns_int and name != "main":
                    forks.append(f"{where}: returns an exit code")
                if isinstance(node, ast.Raise) and node.exc is not None and catches_value_error:
                    raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(raised, "id", None) != "ValueError":
                        forks.append(f"{where}: re-raises a ValueError as {ast.unparse(raised)}")
        assert forks == []
        assert "main" in owner.values()


def small_net():
    return generate_erdos_renyi(6, 2.0, seed=1)


# Each frozen class with array fields (a case id starts with the class
# name): a factory and its array fields.
READ_ONLY_CASES = {
    "Network": (small_net, ("indptr", "indices")),
    "Dataset": (lambda: Dataset(np.array([1.0, 0.0, 2.5]), ObservableKind.NEW_CASES), ("values",)),
    "Trajectory": (
        lambda: simulate(small_net(), EpidemicParams(0.4, 0.2, 0.1), InitialCondition(0, 5.0, 600.0), 2.0, seed=3),
        ("times", "susceptible", "infectious", "removed", "cases"),
    ),
    "LikelinessResult": (
        lambda: LikelinessResult(np.array([0.5, 0.25, 1.0])),
        ("scores", "ranking"),
    ),
    "CaseReportSeries": (
        lambda: CaseReportSeries(
            ("A", "B"), (dt.date(2003, 3, 17), dt.date(2003, 3, 18)), np.array([[1.0, np.nan], [2.0, 3.0]])
        ),
        ("cumulative",),
    ),
}


class TestReadOnlyArrays:
    @pytest.mark.parametrize("name", READ_ONLY_CASES)
    def test_arrays_stay_read_only_through_pickle(self, name):
        make, fields = READ_ONLY_CASES[name]
        obj = make()
        copy = pickle.loads(pickle.dumps(obj))
        assert type(obj).__name__ == name.partition("(")[0]
        for field in fields:
            arr, back = getattr(obj, field), getattr(copy, field)
            assert not arr.flags.writeable, field
            assert not back.flags.writeable, field
            assert back.dtype == arr.dtype and np.array_equal(back, arr, equal_nan=arr.dtype.kind == "f")

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda a: Dataset(a, ObservableKind.NEW_CASES), "values"),
            (lambda a: LikelinessResult(a), "scores"),
            (lambda a: CaseReportSeries(("A", "B", "C"), (dt.date(2003, 3, 17),), a[None, :]), "cumulative"),
        ],
        ids=["Dataset", "LikelinessResult", "CaseReportSeries"],
    )
    def test_callers_array_stays_writable(self, make, field):
        # The float64 input needs no cast: the instance must still neither
        # freeze nor alias the caller's array.
        a = np.array([3.0, 2.0, 1.0])
        kept = getattr(make(a), field)
        a[0] = 9.0
        assert a.flags.writeable
        assert kept.ravel().tolist() == [3.0, 2.0, 1.0]
        assert not kept.flags.writeable


# network.py helpers that alone read CSV, write CSV, write JSON, or set array flags.
SHARED_HELPERS = ("_readonly", "_read_csv", "_write_csv", "_write_json")


def test_each_shared_decision_has_one_home():
    helpers = [inspect.getsource(getattr(network, name)) for name in SHARED_HELPERS]
    for path in sorted(Path(epiprofiler.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "network.py":
            for source in helpers:
                assert source in text
                text = text.replace(source, "")
        for call in ("csv.reader(", "csv.writer(", "json.dump(", "setflags("):
            assert call not in text, f"{path.name} calls {call} outside the network.py helpers"


def test_only_network_imports_csv():
    # One CSV reader (network._read_csv) and one writer (network._write_csv):
    # every other module reads and writes CSV through them.
    importers = []
    for path in sorted(Path(epiprofiler.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if "csv" in names or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                importers.append(path.name)
    assert importers == ["network.py"]


def run(**kwargs):
    """A one-report run on the small network, with ``kwargs`` overriding its
    recipe."""
    recipe = dict(params=EpidemicParams(0.4, 0.2, 0.1), init=InitialCondition(0, 5.0, 600.0), t_end=2.0,
                  sim_dt=0.5, report_dt=1.0, seed=3)
    recipe.update(kwargs)
    return simulate(small_net(), **recipe)


def config(**kwargs):
    recipe = dict(replicates=1, params=EpidemicParams(0.4, 0.2, 0.1), decays=(DecaySpec("naive"),), n_nodes=6,
                  population=600.0, observation_times=(1.0, 2.0), sim_dt=0.5)
    recipe.update(kwargs)
    return ExperimentConfig(**recipe)


def series():
    dates = tuple(dt.date(2003, 3, d) for d in (17, 18, 19))
    return CaseReportSeries(("A", "B"), dates, np.array([[1.0, 0.0], [6.0, 2.0], [9.0, 3.0]]))


# Every scalar numeric field, as (owner, field): the field's name in errors,
# a call with a value for the field, a valid value (integral, and exact in
# float32), and how to read the value kept, or None where none is kept.
# Each is checked by the one rule, network._number.
NUMERIC_FIELDS = {
    ("EpidemicParams", "alpha"): ("alpha", lambda v: EpidemicParams(v, 0.2, 0.1), 1.0, lambda r: r.alpha),
    ("EpidemicParams", "beta"): ("beta", lambda v: EpidemicParams(0.4, v, 0.1), 1.0, lambda r: r.beta),
    ("EpidemicParams", "gamma"): ("gamma", lambda v: EpidemicParams(0.4, 0.2, v), 1.0, lambda r: r.gamma),
    ("InitialCondition", "source"): ("source", InitialCondition, 2, lambda r: r.source),
    ("InitialCondition", "index_cases"): (
        "index_cases", lambda v: InitialCondition(0, v), 20.0, lambda r: r.index_cases),
    ("InitialCondition", "population"): (
        "population", lambda v: InitialCondition(0, 20.0, v), 1e8, lambda r: r.population),
    ("DecaySpec", "param"): ("param", lambda v: DecaySpec("power", v), 2.0, lambda r: r.param),
    ("simulate", "t_end"): ("t_end", lambda v: run(t_end=v), 2.0, lambda r: r.last_report * r.report_dt),
    ("simulate", "sim_dt"): ("sim_dt", lambda v: run(sim_dt=v), 1.0, lambda r: r.sim_dt),
    ("simulate", "report_dt"): ("report_dt", lambda v: run(report_dt=v), 1.0, lambda r: r.report_dt),
    ("simulate", "seed"): ("seed", lambda v: run(seed=v), 3, lambda r: r.seed[0]),
    ("simulate", "seed[1]"): ("seed", lambda v: run(seed=(3, v)), 4, lambda r: r.seed[1]),
    ("synthesize_dataset", "delta_t"): ("delta_t", lambda v: synthesize_dataset(run(), 0.0, v), 1.0, None),
    ("ExperimentConfig", "replicates"): ("replicates", lambda v: config(replicates=v), 2, lambda r: r.replicates),
    ("ExperimentConfig", "master_seed"): (
        "master_seed", lambda v: config(master_seed=v), 5, lambda r: r.master_seed),
    ("ExperimentConfig", "observation_times[1]"): (
        "observation_times[1]", lambda v: config(observation_times=(1.0, v)), 2.0,
        lambda r: r.observation_times[1]),
    ("ExperimentConfig", "nodes"): ("nodes", lambda v: config(n_nodes=v), 6, lambda r: r.n_nodes),
    ("ExperimentConfig", "mean_degree"): (
        "mean_degree", lambda v: config(mean_degree=v), 2.0, lambda r: r.mean_degree),
    ("ExperimentConfig", "index_cases"): (
        "index_cases", lambda v: config(index_cases=v), 20.0, lambda r: r.index_cases),
    ("ExperimentConfig", "population"): (
        "population", lambda v: config(population=v), 600.0, lambda r: r.population),
    ("ExperimentConfig", "delta_t"): ("delta_t", lambda v: config(delta_t=v), 1.0, lambda r: r.delta_t),
    ("ExperimentConfig", "sim_dt"): ("sim_dt", lambda v: config(sim_dt=v), 1.0, lambda r: r.sim_dt),
    ("ExperimentConfig", "report_dt"): ("report_dt", lambda v: config(report_dt=v), 1.0, lambda r: r.report_dt),
    ("generate_erdos_renyi", "n"): ("nodes", lambda v: generate_erdos_renyi(v, 2.0, seed=1), 6, lambda r: r.n),
    ("generate_erdos_renyi", "mean_degree"): (
        "mean_degree", lambda v: generate_erdos_renyi(6, v, seed=1), 2.0, None),
    ("mobility_edges", "gamma"): ("gamma", lambda v: mobility_edges(small_net(), v), 1.0, None),
    ("filter_regions", "window_days"): ("window_days", lambda v: filter_regions(series(), window_days=v), 1, None),
    ("filter_regions", "min_cases"): ("min_cases", lambda v: filter_regions(series(), v, 1), 5, None),
}
INTEGER_FIELDS = {key for key, (_, _, good, _) in NUMERIC_FIELDS.items() if isinstance(good, int)}
# The owners of a random network's mean degree, called with (nodes,
# mean_degree): each keeps the mean degree in (0, nodes - 1].
GRAPH_FIELDS = {
    ("ExperimentConfig", "mean_degree"): lambda n, k: config(n_nodes=n, mean_degree=k),
    ("generate_erdos_renyi", "mean_degree"): lambda n, k: generate_erdos_renyi(n, k, seed=1),
}


@pytest.mark.parametrize("key", NUMERIC_FIELDS, ids="-".join)
@pytest.mark.parametrize("bad", [True, "1", None, np.nan, np.inf, -np.inf], ids=repr)
def test_numeric_field_rejects_a_non_number_naming_it(key, bad):
    name, call, _, _ = NUMERIC_FIELDS[key]
    with pytest.raises(ValueError, match=re.escape(name)):
        call(bad)


@pytest.mark.parametrize("key", NUMERIC_FIELDS, ids="-".join)
def test_numeric_field_keeps_numpy_scalars_as_python_numbers(key):
    _, call, good, kept = NUMERIC_FIELDS[key]
    if key in INTEGER_FIELDS:
        values, plain = (np.int64(good), np.int32(good), np.uint8(good)), int
    else:
        values, plain = (np.float64(good), np.float32(good), np.int64(good)), float
    for value in values:
        result = call(value)
        if kept is not None:
            assert kept(result) == good
            assert type(kept(result)) is plain


@pytest.mark.parametrize("key", GRAPH_FIELDS, ids="-".join)
@pytest.mark.parametrize("n,k", [(10, 9.5), (2, 1.5)])
def test_mean_degree_above_nodes_minus_one_is_refused(key, n, k):
    with pytest.raises(ValueError, match=re.escape(f"mean_degree must lie in (0, {n - 1}], got {k!r}")):
        GRAPH_FIELDS[key](n, k)
    assert GRAPH_FIELDS[key](n, float(n - 1)) is not None


@pytest.mark.parametrize("key", sorted(INTEGER_FIELDS), ids="-".join)
def test_integer_field_rejects_a_float(key):
    name, call, good, _ = NUMERIC_FIELDS[key]
    with pytest.raises(ValueError, match=re.escape(name)):
        call(good + 0.5)


def test_numeric_rule_has_one_home():
    # math.isfinite on a scalar field only in the rule; _grid_steps checks a
    # ratio it computes, not a field.
    homes = {"network.py": network._number, "simulator.py": epiprofiler.simulator._grid_steps}
    for path in sorted(Path(epiprofiler.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name in homes:
            source = inspect.getsource(homes[path.name])
            assert "math.isfinite(" in source
            text = text.replace(source, "")
        assert "math.isfinite(" not in text, f"{path.name} checks a number outside network._number"
