"""What a fresh process loads: the lazy package surface and the modules each
command imports, read from ``python -X importtime`` as the benchmark starts
``python -m chiralwalk.cli`` (bytecode not written, so every import compiles)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chiralwalk

SRC = Path(__file__).resolve().parent.parent / "src"
PREFIX = "import time:"


def run_python(args, cwd, limit_bytes=None):
    """Run ``python -X importtime ARGS``; exit code, modules it imported, other stderr."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    limit = None
    if limit_bytes is not None:
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120, preexec_fn=limit)
    lines = proc.stderr.splitlines()
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines
              if line.startswith(PREFIX) and "imported package" not in line}
    other = "\n".join(line for line in lines if not line.startswith(PREFIX))
    return proc.returncode, loaded, other


def package_modules(loaded):
    return {name for name in loaded if name.split(".")[0] == "chiralwalk"}


def loads_numpy(loaded):
    return any(name.split(".")[0] == "numpy" for name in loaded)


FRONT_END = {"chiralwalk", "chiralwalk.defaults"}
WALK = FRONT_END | {"chiralwalk.graph", "chiralwalk.propagator"}
CIRCUIT = WALK | {"chiralwalk.circuit"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["classify", "--help"], 0),
    (["classify"], 2),                       # a required flag is missing
    (["evolve", "--graph", "g", "--t-max", "x"], 2),
    (["evolve", "--graph", "g", "--t-max", "1_0"], 2),  # refused by the files' real rule
    (["no-such-command"], 2),
])
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv, code):
    returncode, loaded, err = run_python(["-m", "chiralwalk.cli", *argv], tmp_path)
    assert returncode == code, err
    assert package_modules(loaded) == FRONT_END
    assert not loads_numpy(loaded)
    assert not loaded & {"dataclasses", "inspect"}


TRIANGLE = "nodes 3\nedge 0 1 1.0 0.3\nedge 1 2 1.0 0.0\nedge 2 0 1.0 0.0\n"


@pytest.mark.parametrize("argv, modules", [
    (["classify", "--graph", "g.graph", "--out", "out"], WALK | {"chiralwalk.symmetry"}),
    (["evolve", "--graph", "g.graph", "--t-max", "1", "--t-count", "4", "--out", "out"],
     WALK),
    (["circuit-sweep", "--theta-step", "1", "--out", "out"], CIRCUIT),
    (["reproduce-fig2", "--grid", "2", "--out", "out"], CIRCUIT),
    (["trotter-check", "--graph", "g.graph", "--halvings", "1", "--out", "out"], CIRCUIT),
    (["properties", "--seed", "1", "--out", "out"],
     CIRCUIT | {"chiralwalk.symmetry", "chiralwalk.randgen", "chiralwalk.properties"}),
])
def test_each_command_imports_only_its_own_modules(tmp_path, argv, modules):
    # no walk command loads the circuit layer, and no circuit command loads symmetry
    (tmp_path / "g.graph").write_text(TRIANGLE)
    returncode, loaded, err = run_python(["-m", "chiralwalk.cli", *argv], tmp_path)
    assert returncode == 0, err
    assert package_modules(loaded) == modules


@pytest.mark.parametrize("argv, named", [
    (["classify", "--graph", "huge.graph"], "line 1: node count 3000000000"),
    (["reproduce-fig2", "--grid", "1000000", "--out", "fig2"], "--grid 1000000"),
    (["circuit-sweep", "--theta-step", "1e-9", "--out", "sweep.csv"], "--theta-step"),
])
def test_sizes_over_the_dense_budget_exit_2_before_allocating(tmp_path, argv, named):
    # the address-space limit makes an allocation with the size fail at once
    # instead of swapping, so an unchecked size ends as "ran out of memory"
    (tmp_path / "huge.graph").write_text("nodes 3000000000\nedge 0 1 1 0\n")
    returncode, _, err = run_python(["-m", "chiralwalk.cli", *argv], tmp_path,
                                    limit_bytes=2 ** 30)
    assert returncode == 2
    assert named in err and "budget" in err, err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["huge.graph"]


def test_bare_import_loads_no_numpy(tmp_path):
    returncode, loaded, err = run_python(["-c", "import chiralwalk"], tmp_path)
    assert returncode == 0, err
    assert package_modules(loaded) == {"chiralwalk"}
    assert not loads_numpy(loaded)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from chiralwalk import *", namespace)
    namespace.pop("__builtins__")
    assert len(chiralwalk.__all__) == len(set(chiralwalk.__all__)) == 39
    assert set(namespace) == set(chiralwalk.__all__)


def test_each_export_is_the_object_of_its_home_module():
    assert chiralwalk.classify is chiralwalk.symmetry.classify
    for name in chiralwalk.__all__:
        value = getattr(chiralwalk, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("chiralwalk.")
        assert getattr(home, name) is value


def test_dir_lists_every_export_and_an_unknown_name_raises():
    assert set(chiralwalk.__all__) <= set(dir(chiralwalk))
    with pytest.raises(AttributeError, match="no_such_name"):
        chiralwalk.no_such_name
