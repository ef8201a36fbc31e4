"""The package's top level: lazy public names, and which submodules an import
loads. Import checks run in a fresh interpreter, because this test process
has loaded every submodule already."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epiprofiler


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

    def test_a_public_name_loads_its_module_only(self):
        loaded = loaded_after("from epiprofiler import DecaySpec")
        assert "profiler" in loaded
        assert not loaded & {"experiments", "data_ingest", "cli"}


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
