"""Command-line front end: schemas, exit codes, determinism."""

import contextlib
import csv
import errno
import gc
import hashlib
import io
import math
import os
import re
import select
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chiralwalk
from chiralwalk import eig_hermitian, parse_graph, propagator, pts_numeric, sweep_time
from chiralwalk.cli import (DEFAULT_SWEEP_ALPHAS, DEFAULT_SWEEP_THETAS, _theta_grid,
                            _transfer_csv, main)
from chiralwalk.defaults import DEFAULTS
from chiralwalk.properties import PROPERTY_SUITE

from .graphs import blas_core, csv_text, validate_table_csv
from .oracles import three_cycle_taylor

PI = math.pi

TRIANGLE = "nodes 3\nedge 0 1 1.0 0.0\nedge 1 2 1.0 0.0\nedge 2 0 1.0 0.0\n"
CHAIN = "nodes 4\nedge 0 1 1 0.9\nedge 1 2 1 -0.4\nedge 2 3 1 2.0\n"
CHAIN_ARGV = ["evolve", "--t-max", "2", "--t-count", "7", "--graph"]  # times k / 3
SUITES = [name for name, _ in PROPERTY_SUITE]
ONE_TRIAL = [arg for name in SUITES for arg in ("--trials", f"{name}=1")]


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE)
    return path


def read_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# --- classify ---------------------------------------------------------------

def test_classify_triangle_text_block(triangle_file, capsys):
    assert main(["classify", "--graph", str(triangle_file)]) == 0
    out = capsys.readouterr().out
    assert "structural_class=non-bipartite" in out
    assert "structural_pts=No" in out


def test_classify_chain(tmp_path, capsys):
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    assert main(["classify", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert "structural_class=tree" in out
    assert "phase_dependent=No" in out


def test_classify_edgeless_graph_is_a_trivial_tree(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("nodes 3\n")
    assert main(["classify", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert "structural_class=tree" in out
    assert "structural_pts=Yes" in out


def test_classify_batch_mode_emits_csv(tmp_path, capsys):
    first = tmp_path / "a.graph"
    second = tmp_path / "b.graph"
    first.write_text(TRIANGLE)
    second.write_text(CHAIN)
    assert main(["classify", "--graph", str(first), "--graph", str(second)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("structural_class,")
    assert len(out) == 3


def test_classify_csv_quotes_a_label_with_a_comma(tmp_path, capsys):
    path = tmp_path / "labelled.graph"
    path.write_text("nodes 3\nedge a,x b 1 0.2\nedge b c 1 0.4\nedge c a,x 1 0.1\n")
    plain = tmp_path / "plain.graph"
    plain.write_text(TRIANGLE)
    assert main(["classify", "--csv", "--graph", str(path), "--graph", str(plain)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header, quoted, unquoted = list(csv.reader(io.StringIO("\n".join(lines))))
    assert len(header) == 14
    assert len(quoted) == 14
    assert quoted[header.index("labels")] == "a,x:0;b:1;c:2"
    # a row with nothing to quote keeps its plain comma-joined bytes
    assert lines[2] == ",".join(unquoted)


def test_classify_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("nodes 2\nedge 0 1 0 0\n")
    assert main(["classify", "--graph", str(path)]) == 2
    assert "zero-magnitude" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (b"nodes 2\nedge 0 1 1 0\nedge 0 5 1 0\n",
     "line 3: edge (0, 5) index out of range for 2 nodes"),
    (b"nodes 2\nedge 0 1 1 0\n# caf\xe9\n", "line 3: not UTF-8 text"),
    (b"nodes 3\nedge 0 1 1e308 0.3\nedge 1 2 1e308 0.5\nedge 0 2 1e308 0.1\n",
     "eigendecomposition is not finite: matrix entries too large"),
], ids=["parse", "undecodable", "numeric"])
def test_classify_error_names_its_file(tmp_path, capsys, triangle_file, data, message):
    # one of several --graph files fails, by its text or by its numbers
    path = tmp_path / "bad.graph"
    path.write_bytes(data)
    out = tmp_path / "report.csv"
    assert main(["classify", "--graph", str(triangle_file), "--graph", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"chiralwalk: error: {path}: {message}\n"
    assert not out.exists()


def test_classify_missing_file_exits_2(tmp_path, capsys):
    assert main(["classify", "--graph", str(tmp_path / "nope.graph")]) == 2


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_classify_bad_tolerance_exits_2(triangle_file, capsys, tol):
    assert main(["classify", "--graph", str(triangle_file), f"--tol={tol}"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_classify_a_self_energy_spread_past_the_float_range_is_a_self_edge(tmp_path,
                                                                          capsys):
    # 1e308 - (-1e308) overflows to inf: a self-edge, and no overflow warning
    path = tmp_path / "spread.graph"
    path.write_text("nodes 2\nedge 0 1 1.0 0.0\nself 0 1e308\nself 1 -1e308\n")
    assert main(["classify", "--graph", str(path)]) == 0
    assert "structural_class=tree-with-self-edges\n" in capsys.readouterr().out


def test_classify_a_spectral_norm_too_small_for_the_sample_horizon_exits_2(tmp_path,
                                                                          capsys):
    # the sample times reach 2*pi / ||H||, which is inf for ||H|| = 1e-320
    path = tmp_path / "faint.graph"
    path.write_text("nodes 2\nedge 0 1 1e-320 0.0\n")
    assert main(["classify", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == (f"chiralwalk: error: {path}: 2*pi over the "
                                       f"graph's spectral norm 1e-320 overflows a float\n")


def test_classify_a_horizon_near_the_largest_float_samples_a_finite_grid(tmp_path, capsys):
    # 2*pi / 1e-307 is finite, but three times it is not: no sample may pass the horizon
    path = tmp_path / "faint.graph"
    path.write_text("nodes 2\nedge 0 1 1e-307 0\n")
    assert main(["classify", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert "numeric_pts_residual=0\n" in out
    assert "pts_symmetric_at_samples=Yes\n" in out


# One graph of each certificate kind: a tree with self-energies (phase-removal
# gauge, self-edge odd cycle), a bipartite square (two-coloring, negation
# gauge), the chiral triangle (odd cycle, no gauge) and a labelled path (both
# gauges and labels).  The report bytes are frozen; only the residual, whose
# last bits depend on the BLAS, is recomputed at test time.
REPORT_GRAPHS = {
    "tree": "nodes 4\nedge 0 1 1.0 0.7\nedge 1 2 0.5 -1.2\nedge 1 3 2.0 2.5\n"
            "self 0 0.5\nself 2 -0.25\n",
    "square": "nodes 4\nedge 0 1 1.0 0.3\nedge 1 2 1.0 -0.8\nedge 2 3 1.0 1.1\n"
              "edge 3 0 1.0 0.4\n",
    "triangle": "nodes 3\n" + "".join(f"edge {i} {j} 1.0 0.5235987755982988\n"
                                      for i, j in ((0, 1), (1, 2), (2, 0))),
    "labelled": "nodes 3\nedge a b 1.0 0.3\nedge b c 0.5 -0.2\n",
}
REPORT_TEXT = {
    "tree": "structural_class=tree-with-self-edges\nn_nodes=4\nn_edges=3\n"
            "is_forest=Yes\nis_bipartite=No\nstructural_pts=Yes\nphase_dependent=No\n"
            "numeric_pts_residual={residual}\npts_symmetric_at_samples=Yes\n"
            "odd_cycle=0;0\n"
            "phase_removal_gauge=0;0.69999999999999996;-0.5;3.2000000000000002\n",
    "square": "structural_class=bipartite-with-cycles\nn_nodes=4\nn_edges=4\n"
              "is_forest=No\nis_bipartite=Yes\nstructural_pts=Yes\nphase_dependent=Yes\n"
              "numeric_pts_residual={residual}\npts_symmetric_at_samples=Yes\n"
              "two_coloring=0;1;0;1\n"
              "negation_gauge=0;3.1415926535897931;0;3.1415926535897931\n",
    "triangle": "structural_class=non-bipartite\nn_nodes=3\nn_edges=3\n"
                "is_forest=No\nis_bipartite=No\nstructural_pts=No\nphase_dependent=Yes\n"
                "numeric_pts_residual={residual}\npts_symmetric_at_samples=No\n"
                "odd_cycle=0;1;2;0\n",
    "labelled": "structural_class=tree\nn_nodes=3\nn_edges=2\n"
                "is_forest=Yes\nis_bipartite=Yes\nstructural_pts=Yes\nphase_dependent=No\n"
                "numeric_pts_residual={residual}\npts_symmetric_at_samples=Yes\n"
                "two_coloring=0;1;0\n"
                "phase_removal_gauge=0;0.29999999999999999;0.099999999999999978\n"
                "negation_gauge=0;3.1415926535897931;0\nlabels=a:0;b:1;c:2\n",
}
REPORT_CSV = (
    "structural_class,n_nodes,n_edges,is_forest,is_bipartite,structural_pts,"
    "phase_dependent,numeric_pts_residual,pts_symmetric_at_samples,two_coloring,"
    "odd_cycle,phase_removal_gauge,negation_gauge,labels\n"
    "tree-with-self-edges,4,3,Yes,No,Yes,No,{tree},Yes,,0;0,"
    "0;0.69999999999999996;-0.5;3.2000000000000002,,\n"
    "bipartite-with-cycles,4,4,No,Yes,Yes,Yes,{square},Yes,0;1;0;1,,,"
    "0;3.1415926535897931;0;3.1415926535897931,\n"
    "non-bipartite,3,3,No,No,No,Yes,{triangle},No,,0;1;2;0,,,\n"
    "tree,3,2,Yes,Yes,Yes,No,{labelled},Yes,0;1;0,,"
    "0;0.29999999999999999;0.099999999999999978,0;3.1415926535897931;0,a:0;b:1;c:2\n"
)


def report_residual(name):
    return format(pts_numeric(parse_graph(REPORT_GRAPHS[name])), ".17g")


@pytest.mark.parametrize("name", list(REPORT_GRAPHS))
def test_classify_text_bytes_are_frozen(tmp_path, capsys, name):
    path = tmp_path / f"{name}.graph"
    path.write_text(REPORT_GRAPHS[name])
    assert main(["classify", "--graph", str(path)]) == 0
    expected = REPORT_TEXT[name].format(residual=report_residual(name))
    assert capsys.readouterr().out == expected


def test_classify_csv_bytes_are_frozen(tmp_path, capsys):
    argv = ["classify", "--csv"]
    for name, text in REPORT_GRAPHS.items():
        path = tmp_path / f"{name}.graph"
        path.write_text(text)
        argv += ["--graph", str(path)]
    assert main(argv) == 0
    expected = REPORT_CSV.format(**{name: report_residual(name) for name in REPORT_GRAPHS})
    assert capsys.readouterr().out == expected


# --- evolve -----------------------------------------------------------------

def test_evolve_zero_grid_gives_identity_rows(triangle_file, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "0",
                 "--t-count", "1", "--out", str(out)]) == 0
    text = out.read_text()
    validate_table_csv(text)
    header, rows = read_rows(text)
    assert header == ["axis", "from", "to", "probability"]
    for axis, frm, to, p in rows:
        expected = 1.0 if frm == to else 0.0
        assert abs(float(p) - expected) <= 1e-12


def test_evolve_triangle_peak_on_fine_grid(triangle_file, tmp_path):
    out = tmp_path / "table.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max",
                 repr(2 * PI), "--t-count", "8193", "--out", str(out)]) == 0
    _, rows = read_rows(out.read_text())
    best = max(float(p) for _, frm, to, p in rows if frm == "0" and to == "2")
    assert abs(best - 4.0 / 9.0) <= 1e-6   # grid-limited peak of the closed form
    coarse = tmp_path / "coarse.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max",
                 repr(2 * PI), "--t-count", "256", "--out", str(coarse)]) == 0
    _, rows = read_rows(coarse.read_text())
    best = max(float(p) for _, frm, to, p in rows if frm == "0" and to == "2")
    assert best <= 4.0 / 9.0 + 1e-9
    assert best >= 4.0 / 9.0 - 1e-3


def test_evolve_tree_tables_phase_independent_after_rounding(tmp_path):
    chiral = tmp_path / "chiral.graph"
    plain = tmp_path / "plain.graph"
    chiral.write_text(CHAIN)
    plain.write_text("nodes 4\nedge 0 1 1 0\nedge 1 2 1 0\nedge 2 3 1 0\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for graph, out in ((chiral, out_a), (plain, out_b)):
        assert main(["evolve", "--graph", str(graph), "--t-max", "6.0",
                     "--t-count", "64", "--out", str(out)]) == 0
    _, rows_a = read_rows(out_a.read_text())
    _, rows_b = read_rows(out_b.read_text())
    rounded_a = [(r[0], r[1], r[2], round(float(r[3]), 9)) for r in rows_a]
    rounded_b = [(r[0], r[1], r[2], round(float(r[3]), 9)) for r in rows_b]
    assert rounded_a == rounded_b


def test_evolve_bad_count_exits_2(triangle_file, capsys):
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "1",
                 "--t-count", "0"]) == 2


def test_evolve_names_a_t_count_below_one_before_it_reads_the_graph(triangle_file, tmp_path,
                                                                    capsys, monkeypatch):
    # as classify --tol and trotter-check --halvings do: a missing graph is not
    # opened and a graph that loads is not eigendecomposed
    calls = []
    monkeypatch.setattr(propagator, "eig_hermitian",
                        lambda matrix: calls.append(1) or eig_hermitian(matrix))
    for graph in (tmp_path / "missing.graph", triangle_file):
        assert main(["evolve", "--graph", str(graph), "--t-max", "1", "--t-count", "0"]) == 2
        err = capsys.readouterr().err
        assert "--t-count must be at least 1, got 0" in err and str(graph) not in err, err
    assert calls == []


@pytest.mark.parametrize("flag, value", [("--t-max", "nan"), ("--t-max", "inf"),
                                         ("--t-min", "-inf"), ("--t-min", "nan")])
def test_evolve_non_finite_time_exits_2(triangle_file, tmp_path, capsys, flag, value):
    times = {"--t-min": "0", "--t-max": "1", flag: value}
    out = tmp_path / "table.csv"
    # NAME=VALUE keeps argparse from reading "-inf" as an option
    assert main(["evolve", "--graph", str(triangle_file), "--t-count", "3",
                 "--out", str(out), *(f"{k}={v}" for k, v in times.items())]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_evolve_overflowing_time_span_exits_2(triangle_file, capsys):
    assert main(["evolve", "--graph", str(triangle_file), "--t-min=-1e308",
                 "--t-max", "1e308", "--t-count", "3"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_evolve_single_time_ignoring_t_max_exits_2(triangle_file, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "5",
                 "--t-count", "1", "--out", str(out)]) == 2
    assert "--t-max" in capsys.readouterr().err
    assert not out.exists()
    assert main(["evolve", "--graph", str(triangle_file), "--t-min", "5",
                 "--t-max", "5", "--t-count", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out.read_text())
    assert {row[0] for row in rows} == {"5"}


# finite edge magnitudes whose spectrum overflows float64
OVERFLOWING_TRIANGLE = ("nodes 3\nedge 0 1 1e308 0.3\nedge 1 2 1e308 0.5\n"
                        "edge 0 2 1e308 0.1\n")


@pytest.mark.parametrize("command", [["classify"],
                                     ["evolve", "--t-max", "1", "--t-count", "3"]])
def test_overflowing_spectrum_exits_2(tmp_path, capsys, command):
    path = tmp_path / "huge.graph"
    path.write_text(OVERFLOWING_TRIANGLE)
    out = tmp_path / "out.txt"
    assert main([command[0], "--graph", str(path), *command[1:], "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    (["evolve", "--t-max", "1"], OVERFLOWING_TRIANGLE,
     "eigendecomposition is not finite: matrix entries too large"),
    (["trotter-check"], OVERFLOWING_TRIANGLE,
     "eigendecomposition is not finite: matrix entries too large"),
    (["trotter-check"], "nodes 2\n", "splitting circuit needs at least one edge"),
    (["trotter-check"], "nodes 2\nedge 0 1 1 0\nself 0 0.5\n",
     "splitting circuit does not represent self-energies"),
], ids=["evolve-spectrum", "trotter-spectrum", "trotter-edgeless", "trotter-self-energy"])
def test_a_fault_of_the_graph_names_the_graph_file(tmp_path, capsys, command, text, message):
    # no flag is at fault, so none is named: trotter-check refuses the graph before its ladder
    path = tmp_path / "bad.graph"
    path.write_text(text)
    assert main([command[0], "--graph", str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == f"chiralwalk: error: {path}: {message}\n"


def test_evolve_overflowing_phase_exits_2(tmp_path, capsys):
    path = tmp_path / "pair.graph"
    path.write_text("nodes 2\nedge 0 1 2 0\n")  # spectral norm 2
    out = tmp_path / "table.csv"
    assert main(["evolve", "--graph", str(path), "--t-min", "1e308", "--t-max", "1e308",
                 "--t-count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--t-min" in err and "--t-max" in err
    assert err.endswith("times the graph's spectral norm overflows a float\n")
    assert not out.exists()
    # a large time whose phases stay finite still gives a valid table
    assert main(["evolve", "--graph", str(path), "--t-min", "1e300", "--t-max", "1e300",
                 "--t-count", "1", "--out", str(out)]) == 0
    validate_table_csv(out.read_text())


def child_env() -> dict[str, str]:
    """The environment of a fresh ``python -m chiralwalk.cli`` child."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(chiralwalk.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")))))


def test_evolve_bytes_do_not_depend_on_the_cpus_available(tmp_path):
    """Tables of one t-chunk (1024 points at N=16) and of two, written by
    fresh interpreters that see one CPU and every CPU, so neither the spectral
    step's threads nor the CSV blocks can change a byte."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity")
    graph = tmp_path / "ring.graph"
    graph.write_text("nodes 16\n" + "".join(f"edge {k} {(k + 1) % 16} 1.0 {0.1 * k}\n"
                                             for k in range(16)))
    env = child_env()
    cpu = min(os.sched_getaffinity(0))
    for count in (600, 1100):
        digests = []
        for name, pin in (("one.csv", lambda: os.sched_setaffinity(0, {cpu})),
                          ("all.csv", None)):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "chiralwalk.cli", "evolve", "--graph",
                            str(graph), "--t-max", "7", "--t-count", str(count),
                            "--out", str(out)],
                           env=env, preexec_fn=pin, check=True, timeout=120)
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert out.read_text().count("\n") == 1 + count * 16 * 16
        assert digests[0] == digests[1]


def chain_grid(t_min, t_max, count):
    if count == 1:
        return [t_min]
    step = (t_max - t_min) / (count - 1)
    return [t_min + k * step for k in range(count)]


def with_cpus(monkeypatch, cpus: int) -> None:
    """Make this process see ``cpus`` CPUs, so ``evolve`` renders on that many."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_by_another_process(fifo: Path, run):
    """``run()``, and the bytes another process read from ``fifo`` meanwhile;
    a reader thread would keep ``evolve`` to one process."""
    copy = fifo.with_name(fifo.name + ".read")
    reader = subprocess.Popen([sys.executable, "-c", "import shutil, sys; shutil.copyfileobj("
                               "open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))",
                               str(fifo), str(copy)])
    try:
        result = run()
    finally:
        with contextlib.suppress(OSError):  # release a reader the command never wrote to
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        try:
            reader.wait(timeout=60)
        finally:
            reader.kill()
            reader.wait()
    received = copy.read_bytes()
    copy.unlink()
    return result, received


@pytest.mark.parametrize("per_block", [1, 3, None])  # None: every time point in one block
@pytest.mark.parametrize("block", [1, 2, 13])  # values per CSV kernel call
@pytest.mark.parametrize("out", ["file", "-", "fifo"])
@pytest.mark.parametrize("t_min, t_max, count", [(-0.5, 2.0, 7), (-0.0, -0.0, 1)])
def test_evolve_streams_the_bytes_of_one_table(tmp_path, capsys, monkeypatch, per_block,
                                               block, out, t_min, t_max, count):
    from chiralwalk import propagator

    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    if per_block is not None:  # t-chunks, and so stream blocks, of per_block points
        monkeypatch.setattr(propagator, "CHUNK_BYTES", per_block * 16 * 4 ** 2)
    monkeypatch.setattr(propagator, "CSV_BLOCK_VALUES", block)
    expected = csv_text(sweep_time(parse_graph(CHAIN), chain_grid(t_min, t_max, count)))
    target = {"file": tmp_path / "table.csv", "-": "-", "fifo": tmp_path / "table.fifo"}[out]
    if out == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo")
        os.mkfifo(target)
    argv = ["evolve", "--graph", str(path), f"--t-min={t_min!r}", f"--t-max={t_max!r}",
            "--t-count", str(count), "--out", str(target)]
    # the same bytes from one process and from workers, fewer or more than the chunks
    for cpus in (1, 2, 3, 5):
        with_cpus(monkeypatch, cpus)
        if out == "fifo":
            code, text = read_by_another_process(target, lambda: main(argv))
            text = text.decode()
        else:
            code = main(argv)
            text = target.read_text() if out == "file" else capsys.readouterr().out
        assert code == 0
        assert text == expected
        assert not list(tmp_path.glob("*.partial"))
        assert_no_child_left()


@pytest.mark.parametrize("without", ["fork", "sched_getaffinity", "thread"])
def test_evolve_renders_in_one_process_without_fork_affinity_or_alone(
        tmp_path, monkeypatch, without):
    # a lock another Python thread holds at a fork would stay held in the worker
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    monkeypatch.setattr(propagator, "CHUNK_BYTES", 16 * 4 ** 2)  # 7 t-chunks
    with_cpus(monkeypatch, 2)
    if without == "thread":
        done = threading.Event()
        other = threading.Thread(target=done.wait, daemon=True)
        other.start()
    else:
        monkeypatch.delattr(os, without, raising=False)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    out = tmp_path / "table.csv"
    try:
        assert main([*CHAIN_ARGV, str(path), "--out", str(out)]) == 0
    finally:
        if without == "thread":
            done.set()
            other.join(timeout=60)
    assert out.read_text() == csv_text(sweep_time(parse_graph(CHAIN), chain_grid(0.0, 2.0, 7)))


# outputs frozen at the text writer that stdout's byte handle replaced: the
# circuit-sweep table by digest, and classify's CSV of non-ASCII labels whole
STDOUT_CASES = {
    "circuit-sweep": (["circuit-sweep", "--alpha", "0.5", "--theta-min", "0",
                       "--theta-max", "1", "--theta-step", "0.5"],
                      "9a6b09a947d688b750ac7946c73243d5a71699b5c176a3817b1d4b2c54452a24"),
    "classify-csv": (["classify", "--csv", "--graph", "{graph}"], hashlib.sha256(
        b"structural_class,n_nodes,n_edges,is_forest,is_bipartite,structural_pts,"
        b"phase_dependent,numeric_pts_residual,pts_symmetric_at_samples,two_coloring,"
        b"odd_cycle,phase_removal_gauge,negation_gauge,labels\n"
        b"tree,2,1,Yes,Yes,Yes,No,2.7755575615628914e-16,Yes,0;1,,"
        b"0;0.29999999999999999,0;3.1415926535897931,\xce\xb1:0;\xce\xb2:1\n").hexdigest()),
}


@pytest.mark.parametrize("name", list(STDOUT_CASES))
def test_stdout_gets_the_bytes_written_to_a_file(tmp_path, capsysbinary, name):
    graph = tmp_path / "labels.graph"
    graph.write_text("nodes 2\nedge \u03b1 \u03b2 1 0.3\n", encoding="utf-8")
    argv, digest = STDOUT_CASES[name]
    argv = [arg.format(graph=graph) for arg in argv]
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    assert main([*argv, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == target.read_bytes()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_evolve_into_a_closed_pipe_exits_2_without_a_traceback(tmp_path):
    # the reader leaves after one line, as in ``evolve --out - | head -1``
    path = tmp_path / "ring.graph"
    path.write_text("nodes 16\n" + "".join(f"edge {k} {(k + 1) % 16} 1.0 0.2\n"
                                             for k in range(16)))
    child = subprocess.Popen([sys.executable, "-m", "chiralwalk.cli", "evolve", "--graph",
                              str(path), "--t-max", "5", "--t-count", "400", "--out", "-"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert child.stdout.readline() == b"axis,from,to,probability\n"
        child.stdout.close()
        err = child.stderr.read()
    finally:
        child.stderr.close()
        child.wait(timeout=120)
    assert child.returncode == 2
    assert err == b"chiralwalk: error: [Errno 32] Broken pipe\n"


def test_out_dev_stdout_on_a_pipe_writes_the_bytes_of_out_dash():
    # on a pipe /dev/stdout resolves to a name like pipe:[N] that is no file
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    argv = [sys.executable, "-m", "chiralwalk.cli", "circuit-sweep", "--alpha", "0",
            "--theta-step", "1", "--out"]
    runs = [subprocess.run(argv + [target], capture_output=True, env=child_env(), timeout=120)
            for target in ("-", "/dev/stdout")]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b""), (0, b"")]
    assert runs[1].stdout == runs[0].stdout
    assert runs[0].stdout.startswith(b"alpha,theta,from,to,probability\n")


def test_evolve_into_a_fifo_writes_in_place_the_bytes_of_a_file(triangle_file, tmp_path,
                                                                monkeypatch):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no os.mkfifo")
    argv = ["evolve", "--graph", str(triangle_file), "--t-max", "2", "--t-count", "1000",
            "--out"]
    assert main([*argv, str(tmp_path / "table.csv")]) == 0
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    monkeypatch.setattr(os, "replace", lambda *paths: pytest.fail(f"replaced {paths}"))
    try:
        assert main([*argv, str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
        if reader.is_alive():  # the command never opened the FIFO: release the reader
            with open(fifo, "wb"):
                pass
    # 392 KB, past a pipe's buffer, so the bytes were streamed while read
    assert received == [(tmp_path / "table.csv").read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.fifo",
                                                          "triangle.graph"]


def test_evolve_failing_on_a_later_block_leaves_no_partial_table(tmp_path, capsys,
                                                                 monkeypatch):
    from chiralwalk import propagator

    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    monkeypatch.setattr(propagator, "CHUNK_BYTES", 3 * 16 * 4 ** 2)  # 3 points a block
    blocks = []

    def failing_second(hamiltonian, grid):
        blocks.append(len(grid))
        if len(blocks) == 2:
            raise ValueError("render failed")
        return sweep_time(hamiltonian, grid)

    argv = ["evolve", "--graph", str(path), "--t-max", "2", "--t-count", "7", "--out"]
    out = tmp_path / "table.csv"
    # in one process the second block fails; on two CPUs, this process's second
    # block (the third) fails after a worker rendered the second
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        monkeypatch.setattr(propagator, "sweep_time", failing_second)
        out.unlink(missing_ok=True)
        blocks.clear()
        assert main([*argv, str(out)]) == 2
        assert "render failed" in capsys.readouterr().err
        assert blocks == ([3, 3] if cpus == 1 else [3, 1])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]
        # an earlier table at the target is left whole
        out.write_text("earlier\n")
        blocks.clear()
        assert main([*argv, str(out)]) == 2
        assert out.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph", "table.csv"]
        # a target that is not a regular file is written in place, never replaced
        monkeypatch.setattr(propagator, "sweep_time", sweep_time)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", lambda *paths: pytest.fail(f"replaced {paths}"))
            assert main([*argv, os.devnull]) == 0
        assert_no_child_left()


def failing_in_a_worker(monkeypatch, fail) -> list[float]:
    """Make ``sweep_time`` call ``fail()`` on the t-chunk that starts at time 1
    (the second of ``CHAIN_ARGV``'s three), and return the first time of each
    chunk that this process renders."""
    from chiralwalk import propagator

    monkeypatch.setattr(propagator, "CHUNK_BYTES", 3 * 16 * 4 ** 2)  # 3 points a t-chunk
    here, starts = os.getpid(), []

    def failing(hamiltonian, grid):
        if os.getpid() == here:
            starts.append(grid[0])
        if grid[0] == 1.0:
            fail()
        return sweep_time(hamiltonian, grid)

    monkeypatch.setattr(propagator, "sweep_time", failing)
    return starts


def raise_(exc):
    raise exc


@pytest.mark.parametrize("exc, message", [
    (ValueError("render failed"), "chiralwalk: error: render failed\n"),
    (MemoryError(), "chiralwalk: error: evolve ran out of memory\n"),
], ids=["ValueError", "MemoryError"])
def test_evolve_failing_in_a_worker_exits_as_in_one_process(tmp_path, capsys, monkeypatch,
                                                            exc, message):
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    starts = failing_in_a_worker(monkeypatch, lambda: raise_(exc))
    out = tmp_path / "table.csv"
    for cpus, rendered_here in ((1, [0.0, 1.0]), (2, [0.0])):  # on two, a worker fails
        with_cpus(monkeypatch, cpus)
        out.unlink(missing_ok=True)
        for kept in ([], ["table.csv"]):  # no file at the target, then an earlier table
            if kept:
                out.write_text("earlier\n")
            starts.clear()
            assert main([*CHAIN_ARGV, str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == message
            assert starts == rendered_here
            assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph", *kept]
            assert not kept or out.read_text() == "earlier\n"
            assert_no_child_left()


def test_evolve_with_a_worker_killed_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    failing_in_a_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with_cpus(monkeypatch, 2)
    out = tmp_path / "table.csv"
    assert main([*CHAIN_ARGV, str(path), "--out", str(out)]) == 2
    assert re.fullmatch(r"chiralwalk: error: t-chunk worker \d+ was killed by signal "
                        rf"{signal.SIGKILL:d} before its report\n", capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]
    assert_no_child_left()


def test_a_frame_cut_short_is_a_child_process_error():
    # the pipe ends after a frame's byte count but before that many bytes
    from chiralwalk.cli import _COUNT, _Worker

    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")

    def cut_short(pipe):
        os.write(pipe, _COUNT.pack(10) + b"abc")
        os._exit(3)

    worker, out = _Worker(cut_short, []), io.BytesIO()
    try:
        with pytest.raises(ChildProcessError, match=rf"^t-chunk worker {worker.pid} exited "
                                                    r"with status 3 before its report$"):
            worker.write_chunk(out)
    finally:
        worker.stop()
    assert out.getvalue() == b""
    assert_no_child_left()


def test_no_worker_outlives_a_killed_evolve(tmp_path):
    # every worker inherits the command's stderr, so its end means every worker ended
    cpus = sorted(getattr(os, "sched_getaffinity", lambda pid: ())(0))[:2]
    if not hasattr(os, "mkfifo") or len(cpus) < 2:
        pytest.skip("needs os.mkfifo and two CPUs")
    path = tmp_path / "ring.graph"
    path.write_text("nodes 32\n" + "".join(f"edge {k} {(k + 1) % 32} 1.0 {0.1 * k}\n"
                                             for k in range(32)))
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    # a reader that never blocks to open, so a command that fails first hangs nothing
    table = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    child = subprocess.Popen([sys.executable, "-m", "chiralwalk.cli", "evolve", "--graph",
                              str(path), "--t-max", "9", "--t-count", "2048", "--out",
                              str(fifo)], stderr=subprocess.PIPE, env=child_env(),
                             preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        assert select.select([table], [], [], 120)[0]
        assert os.read(table, 1) == b"a"
        child.kill()
        child.wait(timeout=60)
        err = child.stderr.fileno()
        deadline = time.monotonic() + 20
        while select.select([err], [], [], max(deadline - time.monotonic(), 0))[0]:
            if not os.read(err, 4096):
                break
        else:
            pytest.fail("a t-chunk worker outlived the command by 20 s")
    finally:
        os.close(table)
        child.kill()
        child.wait()
        child.stderr.close()
    assert_no_child_left()


def test_evolve_whose_second_fork_fails_reaps_the_first_worker(tmp_path, capsys,
                                                               monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    monkeypatch.setattr(propagator, "CHUNK_BYTES", 16 * 4 ** 2)  # 7 t-chunks
    with_cpus(monkeypatch, 3)
    fork, forks = os.fork, []

    def second_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert main([*CHAIN_ARGV, str(path), "--out", str(tmp_path / "table.csv")]) == 2
    # the fork fails before the output opens, so the message names no target
    assert capsys.readouterr().err == (f"chiralwalk: error: [Errno {errno.EAGAIN}] "
                                       f"{os.strerror(errno.EAGAIN)}\n")
    assert len(forks) == 2
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]
    assert_no_child_left()


def test_evolve_into_a_closed_pipe_reaps_every_worker(tmp_path, capsys, monkeypatch):
    # the first t-chunk (65 536 rows) fails to write while the workers render
    path = tmp_path / "ring.graph"
    path.write_text("nodes 16\n" + "".join(f"edge {k} {(k + 1) % 16} 1.0 0.2\n"
                                             for k in range(16)))
    with_cpus(monkeypatch, 3)
    read, write = os.pipe()
    os.close(read)
    stdout = io.TextIOWrapper(open(write, "wb"), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["evolve", "--graph", str(path), "--t-max", "5", "--t-count", "1000",
                     "--out", "-"]) == 2
    finally:
        with contextlib.suppress(BrokenPipeError):  # what the buffer still holds
            stdout.close()
    assert capsys.readouterr().err == "chiralwalk: error: [Errno 32] Broken pipe\n"
    assert_no_child_left()


def test_evolve_with_a_failing_csv_kernel_exits_2_and_leaves_no_file(tmp_path, capsys,
                                                                     monkeypatch):
    # the CSV kernel runs out of memory on its third block of the table
    from chiralwalk import propagator

    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    monkeypatch.setattr(propagator, "CSV_BLOCK_VALUES", 5)
    kernel, calls = propagator._fmt_real_block, []

    def failing_third(values):
        calls.append(len(values))
        if len(calls) == 3:
            raise MemoryError
        return kernel(values)

    monkeypatch.setattr(propagator, "_fmt_real_block", failing_third)
    assert main(["evolve", "--graph", str(path), "--t-max", "2", "--t-count", "7",
                 "--out", str(tmp_path / "table.csv")]) == 2
    assert capsys.readouterr().err == "chiralwalk: error: evolve ran out of memory\n"
    assert calls == [5, 5, 5]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]


def test_evolve_into_a_missing_directory_names_the_target(triangle_file, tmp_path, capsys):
    out = tmp_path / "missing" / "table.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"'{out}'")


def test_evolve_into_a_full_device_names_the_target(triangle_file, capsys):
    # the write fails when the handle is flushed, with no file name of its own
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "1",
                 "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == ("chiralwalk: error: [Errno 28] No space left on "
                                       "device: '/dev/full'\n")


class _FullFile(io.FileIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failing_write_to_a_file_names_the_target_and_leaves_no_partial(
        triangle_file, tmp_path, capsys, monkeypatch):
    from chiralwalk import cli

    monkeypatch.setattr(cli, "open", lambda path, mode: _FullFile(path, "w"), raising=False)
    out = tmp_path / "table.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"chiralwalk: error: [Errno {errno.ENOSPC}] "
                                       f"{os.strerror(errno.ENOSPC)}: '{out}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["triangle.graph"]


@pytest.mark.parametrize("argv", [
    ["classify", "--graph", "GRAPH"],
    ["evolve", "--graph", "GRAPH", "--t-max", "1"],
    ["circuit-sweep"],
    ["trotter-check", "--graph", "GRAPH"],
    ["properties", *ONE_TRIAL],
], ids=lambda argv: argv[0])
def test_out_to_a_directory_exits_2_and_writes_nothing_there(triangle_file, tmp_path, capsys,
                                                              argv):
    target = tmp_path / "out"
    target.mkdir()
    argv = [str(triangle_file) if arg == "GRAPH" else arg for arg in argv]
    assert main([*argv, "--out", str(target)]) == 2
    assert f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'" in (
        capsys.readouterr().err)
    assert list(target.iterdir()) == []


def test_reproduce_fig2_out_to_a_file_exits_2_and_leaves_it(tmp_path, capsys):
    target = tmp_path / "fig2"
    target.write_bytes(b"kept\n")
    assert main(["reproduce-fig2", "--grid", "2", "--out", str(target)]) == 2
    assert f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}" in capsys.readouterr().err
    assert target.read_bytes() == b"kept\n"


def test_evolve_peak_memory_does_not_grow_with_the_time_count(tmp_path, monkeypatch):
    from chiralwalk import propagator

    monkeypatch.setattr(propagator, "CHUNK_BYTES", 32 * 16 * 32 ** 2)  # 32 points a t-chunk
    path = tmp_path / "ring.graph"
    path.write_text("nodes 32\n" + "".join(f"edge {k} {(k + 1) % 32} 1.0 {0.1 * k}\n"
                                             for k in range(32)))
    peaks = []
    for count in (64, 512):  # 2 and 16 t-chunks
        tracemalloc.start()
        try:
            assert main(["evolve", "--graph", str(path), "--t-max", "9", "--t-count",
                         str(count), "--out", os.devnull]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 4.3-4.5 MB; one table held whole reads 57 MB at 512 points
    assert peaks[1] <= 1.5 * peaks[0]


# Runs ``evolve`` with the arguments given, as the ``chiralwalk`` program seeing two
# CPUs, in a child of this small interpreter, and prints the child's exit code and
# its peak memory (its workers' included) in KiB.  The child is forked here, not
# started by the test: a process the test starts inherits the test's own
# high-water mark in ``ru_maxrss``.
TWO_CPU_EVOLVE_CHILD = """
import os, sys

pid = os.fork()
if pid == 0:
    os.sched_getaffinity = lambda pid: {0, 1}
    sys.argv = ["chiralwalk", "evolve", *sys.argv[1:]]
    from chiralwalk.cli import entry_point
    entry_point()  # exits
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_evolve_workers_peak_memory_does_not_grow_with_the_time_count(tmp_path):
    if not hasattr(os, "wait4"):
        pytest.skip("needs os.wait4")
    path = tmp_path / "ring.graph"
    path.write_text("nodes 32\n" + "".join(f"edge {k} {(k + 1) % 32} 1.0 {0.1 * k}\n"
                                             for k in range(32)))
    peaks = []
    for count in (128, 1024):  # 2 and 16 t-chunks of 64 times
        child = subprocess.run([sys.executable, "-c", TWO_CPU_EVOLVE_CHILD, "--graph",
                                str(path), "--t-max", "9", "--t-count", str(count), "--out",
                                os.devnull], env=child_env(), capture_output=True, text=True,
                               timeout=120, check=True)
        code, peak = map(int, child.stdout.split())
        assert (code, child.stderr) == (0, "")
        peaks.append(peak)
    # each worker holds one t-chunk of text (about 3 MB here); the table's
    # 1M rows at 1024 times come to 49 MB
    assert peaks[1] <= 1.5 * peaks[0]


# --- circuit-sweep ----------------------------------------------------------

def test_circuit_sweep_default_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["circuit-sweep", "--out", str(out)]) == 0
    text = out.read_text()
    validate_table_csv(text)
    header, rows = read_rows(text)
    assert header == ["alpha", "theta", "from", "to", "probability"]
    assert len(rows) == 4 * 37 * 9
    by_alpha_02 = {}
    for alpha, theta, frm, to, p in rows:
        if frm == "0" and to == "2":
            by_alpha_02.setdefault(float(alpha), []).append(float(p))
    assert max(by_alpha_02[0.0]) <= 0.6
    assert abs(max(by_alpha_02[PI / 2]) - 0.94921875) <= 1e-9


def test_circuit_sweep_reflection_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["circuit-sweep", "--alpha", "0", "--alpha", repr(PI),
                 "--out", str(out)]) == 0
    _, rows = read_rows(out.read_text())
    base = {(f, t): {} for f in "012" for t in "012"}
    flipped = {(f, t): {} for f in "012" for t in "012"}
    for alpha, theta, frm, to, p in rows:
        store = base if float(alpha) == 0.0 else flipped
        store[(frm, to)][round(float(theta), 12)] = float(p)
    for key, curve in base.items():
        for theta, value in curve.items():
            assert abs(flipped[key][round(-theta, 12)] - value) <= 1e-12


def test_circuit_sweep_fuse_center_flag_is_gone(tmp_path, capsys):
    # the triangle palindrome has one gate sequence; argparse rejects the old flag
    with pytest.raises(SystemExit) as exit_info:
        main(["circuit-sweep", "--alpha", "1.1", "--fuse-center",
              "--out", str(tmp_path / "fused.csv")])
    assert exit_info.value.code == 2
    assert "--fuse-center" in capsys.readouterr().err
    assert not (tmp_path / "fused.csv").exists()


def test_circuit_sweep_degrees_flag(tmp_path):
    radians, degrees = tmp_path / "r.csv", tmp_path / "d.csv"
    assert main(["circuit-sweep", "--alpha", "90", "--theta-min", "-180",
                 "--theta-max", "180", "--theta-step", "10", "--degrees",
                 "--out", str(degrees)]) == 0
    assert main(["circuit-sweep", "--alpha", repr(PI / 2),
                 "--theta-min", repr(-PI), "--theta-max", repr(PI),
                 "--theta-step", repr(PI / 18), "--out", str(radians)]) == 0
    _, rows_r = read_rows(radians.read_text())
    _, rows_d = read_rows(degrees.read_text())
    worst = max(abs(float(a[-1]) - float(b[-1])) for a, b in zip(rows_r, rows_d))
    assert worst <= 1e-12


@pytest.mark.parametrize("argv, flags", [
    (["evolve", "--graph", "GRAPH", "--t-max", "1", "--t-count", "0"], ["--t-count"]),
    (["reproduce-fig2", "--out", "OUT", "--grid", "1"], ["--grid"]),
    (["circuit-sweep", "--theta-step", "0"], ["--theta-step"]),
    (["circuit-sweep", "--theta-step=-1"], ["--theta-step"]),
    (["circuit-sweep", "--theta-min", "1", "--theta-max", "0"], ["--theta-min", "--theta-max"]),
])
def test_bad_counts_and_ranges_name_their_flag(triangle_file, tmp_path, capsys, argv, flags):
    places = {"GRAPH": str(triangle_file), "OUT": str(tmp_path / "fig2")}
    assert main([places.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags), err


def test_circuit_sweep_bad_step_exits_2(capsys):
    assert main(["circuit-sweep", "--theta-step", "0"]) == 2
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                         ("--theta-min", "-inf"), ("--theta-max", "nan"),
                                         ("--theta-step", "inf")])
def test_circuit_sweep_non_finite_angle_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "sweep.csv"
    assert main(["circuit-sweep", "--theta-step", "1", f"{flag}={value}",
                 "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_circuit_sweep_overflowing_theta_span_exits_2(capsys):
    assert main(["circuit-sweep", "--theta-min=-1e308", "--theta-max", "1e308",
                 "--theta-step", "1"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_circuit_sweep_theta_count_past_a_float_exits_2(capsys):
    # the span over the step is the largest float, and its endpoint slack is not
    assert main(["circuit-sweep", "--theta-min", "0", "--theta-max", "1.7976931348623157e308",
                 "--theta-step", "1"]) == 2
    assert "--theta-step overflows" in capsys.readouterr().err


def test_theta_grid_never_passes_theta_max():
    grid = _theta_grid(-PI, PI, 0.9)
    assert len(grid) == 7
    assert max(grid) <= PI
    assert len(_theta_grid(-PI, PI, PI / 18)) == 37
    # span / step is 1800.0000000000002 here, and 1800 must still give 1801 points
    fine = _theta_grid(-PI, PI, float(format(PI / 900, ".17g")))
    assert len(fine) == 1801
    assert abs(fine[-1] - PI) <= 1e-12
    # -0.124 + 403 * 0.441 rounds to 177.59900000000002, past the end
    grid = _theta_grid(-0.124, 177.599, 0.441)
    assert len(grid) == 404
    assert grid[-1] == 177.599


def run_to_stdout(argv, out="-") -> tuple[int, bytes]:
    """``main(argv + ["--out", out])`` in process: exit code and stdout bytes."""
    stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(stream):
        code = main([*argv, "--out", out])
    return code, stream.buffer.getvalue()


def axis_values(table: bytes, column: int) -> list[str]:
    return [row.split(",")[column] for row in table.decode("ascii").splitlines()[1:]]


@pytest.mark.parametrize("t_min, t_max, count, last", [
    ("-4.17", "-0.271", 530, "-0.27100000000000002"),  # was -0.27099999999999991
    ("0", "2.225e-309", 5, "2.2249999999999994e-309"),  # was 2.2250000000000093e-309
    ("5", "1", 3, "1"),  # descending: 5, 3, 1
    ("-0", "0", 1, "-0"),
])
def test_evolve_times_never_leave_the_range(triangle_file, t_min, t_max, count, last):
    code, table = run_to_stdout(["evolve", "--graph", str(triangle_file),
                                 f"--t-min={t_min}", f"--t-max={t_max}",
                                 "--t-count", str(count)])
    assert code == 0
    times = list(dict.fromkeys(axis_values(table, 0)))
    assert len(times) == count
    assert times[-1] == last
    low, high = sorted((float(t_min), float(t_max)))
    assert all(low <= float(t) <= high for t in times)


# reals of 1 to 4 significant digits, and any float of magnitude up to 1e6
short_reals = st.builds(lambda digits, exponent: float(f"{digits}e{exponent}"),
                        st.integers(-9999, 9999), st.integers(-6, 3))
ends = st.one_of(short_reals, st.floats(-1e6, 1e6))


@pytest.fixture(scope="module")
def chiral_triangle(tmp_path_factory):
    path = tmp_path_factory.mktemp("range") / "triangle.graph"
    path.write_text("nodes 3\nedge 0 1 1.0 0.3\nedge 1 2 1.0 0.0\nedge 2 0 1.0 0.0\n")
    return path


@st.composite
def table_requests(draw):
    """``(argv, axis column, low, high, rows)`` of an ``evolve`` or a
    ``circuit-sweep`` table over a generated range, either direction for
    ``evolve``, of 1 to 40 points."""
    first, second = draw(ends), draw(ends)
    count = draw(st.integers(1, 40))
    if draw(st.booleans()):
        t_max = first if count == 1 else second
        argv = ["evolve", f"--t-min={first!r}", f"--t-max={t_max!r}", "--t-count", str(count)]
        return argv, 0, min(first, t_max), max(first, t_max), 9 * count
    low, high = sorted((first, second))
    # a short step of at least (high - low) / (count - 1), so at most count points
    least = max((high - low) / max(count - 1, 1), 1e-6)
    step = draw(st.integers(1000, 9999)) * 10.0 ** math.ceil(math.log10(least) - 3)
    points = math.floor((high - low) / step * (1 + 1e-12)) + 1
    argv = ["circuit-sweep", "--alpha", "0", f"--theta-min={low!r}", f"--theta-max={high!r}",
            f"--theta-step={step!r}"]
    return argv, 1, low, high, 9 * points


@settings(max_examples=200)
@given(table_requests())
def test_table_axes_stay_inside_the_requested_range(chiral_triangle, case):
    argv, column, low, high, rows = case
    if argv[0] == "evolve":
        argv = [*argv, "--graph", str(chiral_triangle)]
    code, table = run_to_stdout(argv)
    assert code == 0
    validate_table_csv(table.decode("ascii"))
    values = [float(value) for value in axis_values(table, column)]
    assert len(values) == rows
    assert all(low <= value <= high for value in values)


def test_sweep_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["circuit-sweep", "--out", str(first)]) == 0
    assert main(["circuit-sweep", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_circuit_sweep_degrees_keeps_the_radian_defaults():
    # --degrees converts the angles given to it, never the radian defaults
    assert run_to_stdout(["circuit-sweep", "--degrees"]) == run_to_stdout(["circuit-sweep"])
    code, table = run_to_stdout(["circuit-sweep", "--degrees", "--theta-step", "10"])
    assert code == 0
    thetas = sorted({float(value) for value in axis_values(table, 1)})
    assert (len(thetas), thetas[0], thetas[-1]) == (37, -PI, PI)


@pytest.mark.parametrize("argv, named", [
    (["circuit-sweep", "--theta-step", "1e-300"], "(--theta-step)"),
    (["classify", "--graph", "HUGE"], "line 1: node count"),
    (["classify", "--graph", "LONG"], "line 1: node count 1.0000000000000000e+3999"),
])
def test_over_budget_messages_stay_short(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)  # a short file name, so the message is its own length
    # node counts of 51 and 4000 digits, the second under int()'s 4300-digit limit
    files = {"HUGE": ("huge.graph", 10 ** 50 + 1), "LONG": ("long.graph", 10 ** 3999 + 1)}
    for name, nodes in files.values():
        Path(name).write_text(f"nodes {nodes}\n")
    assert main([files[arg][0] if arg in files else arg for arg in argv]) == 2
    err = capsys.readouterr().err.strip()
    assert named in err and "the 2147483648-byte budget" in err, err
    assert len(err) < 200, err


@st.composite
def real_texts(draw):
    """A real, infinite or NaN value as text, in one of the spellings
    ``float()`` reads: any sign, exponent, case, or a bare leading dot."""
    value = draw(st.one_of(st.floats(min_value=0.0), st.just(math.nan)))
    spell = draw(st.sampled_from([repr, "{:e}".format, "{:.3g}".format,
                                  lambda x: "{:.3f}".format(x).removeprefix("0"),
                                  lambda x: repr(x).replace("inf", "infinity")]))
    case = draw(st.sampled_from([str.lower, str.upper, str.capitalize]))
    return draw(st.sampled_from(["", "-", "+"])) + case(spell(value))


@st.composite
def number_flag_requests(draw):
    """``(argv, flags)``: ``evolve`` or ``circuit-sweep`` with generated values
    for some of its number ``flags``, each written ``--flag value`` or
    ``--flag=value``."""
    if draw(st.booleans()):
        argv, flags = ["evolve", "--t-count", "3"], ["--t-min", "--t-max"]
    else:
        argv = ["circuit-sweep"] + ["--degrees"] * draw(st.booleans())
        flags = ["--alpha"] * draw(st.integers(0, 2)) + ["--theta-min", "--theta-max",
                                                          "--theta-step"]
    for flag in flags:
        if flag == "--t-max" or draw(st.booleans()):
            text = draw(real_texts())
            argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return argv, flags


@settings(max_examples=150)
@given(number_flag_requests())
def test_number_flags_read_every_spelling_of_a_real(chiral_triangle, case):
    argv, flags = case
    if argv[0] == "evolve":
        argv = [*argv, "--graph", str(chiral_triangle)]
    err = io.StringIO()
    # a small size budget keeps each accepted sweep a few hundred points
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr("chiralwalk.graph.DEFAULTS", DEFAULTS._replace(dense_bytes=2 ** 16))
        try:
            code, _ = run_to_stdout(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    assert code in (0, 2)
    assert "expected one argument" not in err.getvalue()
    if code == 2:
        assert any(flag in err.getvalue() for flag in flags), (argv, err.getvalue())


# --- the command-line contract ----------------------------------------------

# the edges of the float range and of its spellings
EDGE_SPELLINGS = ["0", "-0", "0.5", "-1.25", "3", "inf", "-inf", "nan", "5e-324", "-5e-324",
                  "1e308", "-1e308"]
# a real spelling the token rule refuses (float() itself reads surrounding spaces)
REFUSED_REALS = [" 1 "]
reals = st.one_of(st.sampled_from(EDGE_SPELLINGS + REFUSED_REALS), st.floats(-4, 4).map(repr))
magnitudes = st.one_of(st.sampled_from(["0", "-0", "-1.25", "nan", "inf", "5e-324", "1e308"]),
                       st.floats(0, 4).map(repr))
# graphs every command takes, and the two edges of the magnitude range
CONTRACT_GRAPHS = ["nodes 1\n", "nodes 3\nedge 0 1 1 0.3\nedge 1 2 1 0\nedge 2 0 1 0\n", CHAIN,
                   "nodes 3\nedge 0 1 1 0\nself 2 -0.5\n", "nodes 2\nedge 0 1 1e308 0\n",
                   "nodes 2\nedge 0 1 5e-324 -0\n"]


@st.composite
def graph_texts(draw):
    """A graph file of 1 to 4 nodes, up to 4 edges (maybe a pair given twice)
    and maybe a self-energy, its reals from ``magnitudes`` and ``reals``."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    lines = [f"nodes {n}"]
    lines += [f"edge {i} {j} {draw(magnitudes)} {draw(reals)}"
              for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4) if pairs
                               else st.just([]))]
    lines += [f"self {draw(st.integers(0, n - 1))} {draw(reals)}"] * draw(st.booleans())
    return "\n".join(lines) + "\n"


# integer spellings the token rule refuses (int() itself reads 1_0, ١٢ and
# surrounding spaces), and +3, which it takes
REFUSED_COUNTS = ["1_0", "١٢", "²", "9" * 5000, " 3"]
counts = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(REFUSED_COUNTS + ["+3"]))


@st.composite
def contract_requests(draw):
    """``(graph text, argv, axes)``: a command line of ``evolve``,
    ``circuit-sweep`` (with or without ``--degrees``), ``classify`` (alone,
    ``--csv`` or ``--tol``), ``trotter-check``, ``reproduce-fig2`` (``--grid``
    at most 8) or ``properties`` (one trial per suite but one, its ``--trials``
    and ``--seed`` spelled from ``counts``), whose ``GRAPH`` names a file of the
    graph text, and for a table command ``(column, low, high)`` of each axis
    column's requested range."""
    argv, axes = [draw(st.sampled_from(["evolve", "circuit-sweep", "classify",
                                        "trotter-check", "reproduce-fig2",
                                        "properties"]))], []

    def flag(name, values):
        text = draw(values)
        argv.extend([f"{name}={text}"] if draw(st.booleans()) else [name, text])
        return float(text)

    if argv[0] == "evolve":
        count = draw(st.integers(1, 5))
        argv += ["--graph", "GRAPH", "--t-count", str(count)]
        t_min = flag("--t-min", reals)
        t_max = flag("--t-max", st.just(repr(t_min)) if count == 1 else reals)
        axes.append((0, min(t_min, t_max), max(t_min, t_max)))
    elif argv[0] == "circuit-sweep":
        degrees = draw(st.booleans())
        argv += ["--degrees"] * degrees
        angle = math.radians if degrees else float
        alphas = [angle(flag("--alpha", reals)) for _ in range(draw(st.integers(0, 2)))]
        low, high = (angle(flag(name, reals)) if draw(st.booleans()) else default
                     for name, default in zip(("--theta-min", "--theta-max"),
                                              DEFAULT_SWEEP_THETAS))
        if draw(st.booleans()):  # at least 0.25 rad: a finite sweep of a few hundred points
            step = st.floats(0.25, 4).map(math.degrees if degrees else float)
            flag("--theta-step", st.one_of(st.sampled_from(EDGE_SPELLINGS), step.map(repr)))
        alphas = alphas or DEFAULT_SWEEP_ALPHAS
        axes += [(0, min(alphas), max(alphas)), (1, low, high)]
    elif argv[0] == "classify":
        argv += ["--graph", "GRAPH"] + draw(st.sampled_from([[], ["--csv"]]))
        if draw(st.booleans()):
            flag("--tol", reals)
    elif argv[0] == "trotter-check":
        argv += ["--graph", "GRAPH", "--halvings", str(draw(st.integers(1, 4)))]
        flag("--theta-start", reals)
    elif argv[0] == "reproduce-fig2":
        argv += ["--grid", draw(st.one_of(st.integers(-1, 8).map(str), counts))]
    else:
        argv += ["--seed", draw(st.one_of(st.integers(0, 2 ** 32).map(str), counts))]
        drawn = draw(st.sampled_from(SUITES))
        for name in SUITES:
            argv += ["--trials", f"{name}={draw(counts) if name == drawn else 1}"]
    return draw(st.one_of(st.sampled_from(CONTRACT_GRAPHS), graph_texts())), argv, axes


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=200)
@given(contract_requests())
@example(("nodes 1\n", ["properties", "--seed", "١٢", *ONE_TRIAL], []))
@example(("nodes 1\n", ["reproduce-fig2", "--grid", "1_0"], []))
@example(("nodes 1\n", ["trotter-check", "--graph", "GRAPH"], []))
@example(("nodes 1\n", ["classify", "--graph", "GRAPH", "--tol", " 1 "], []))
def test_generated_command_lines_keep_the_cli_contract(contract_dir, case):
    text, argv, axes = case
    graph = contract_dir / "generated.graph"
    graph.write_text(text)
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    out = str(contract_dir / "fig2") if argv[0] == "reproduce-fig2" else "-"
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        try:
            code, table = run_to_stdout(argv, out)
        except SystemExit as exit_info:  # argparse refuses a usage
            code, table = exit_info.code, b""
    assert code in (0, 2), (argv, text)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    # a number the token rule refuses is refused, and every refusal names
    # what is at fault: a flag, a line of the graph file, the file or the output
    if any(arg.rpartition("=")[2] in REFUSED_COUNTS + REFUSED_REALS for arg in argv):
        assert code == 2, argv
    if code == 2:
        message = err.getvalue()
        named = [str(graph)] + [out] * (out != "-")
        assert (re.search(r"--[a-z]|line \d+:", message)
                or any(name in message for name in named)), (argv, text, message)
    if code == 0 and axes:
        validate_table_csv(table.decode("ascii"))
        for column, low, high in axes:
            assert all(low <= float(value) <= high for value in axis_values(table, column))


# --- reproduce-fig2 ---------------------------------------------------------

def test_reproduce_fig2_outputs(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"surface.csv", "slice_alpha_0.csv", "slice_alpha_pi_over_2.csv",
                     "slice_alpha_pi.csv", "slice_alpha_3pi_over_2.csv",
                     "summary.txt"}
    for name in names - {"summary.txt"}:
        validate_table_csv((out_dir / name).read_text())
    summary = (out_dir / "summary.txt").read_text()
    values = dict(line.split("=", 1) for line in summary.splitlines()
                  if "=" in line and ":" not in line.split("=")[0])
    # frozen pre-build oracle values for the default 64x64 grid
    assert abs(float(values["surface_max"]) - 0.9871779964335088) <= 1e-9
    assert abs(float(values["surface_max_alpha"]) - PI / 2) <= 1e-12
    _, rows = read_rows((out_dir / "surface.csv").read_text())
    assert len(rows) == 64 * 64


def test_running_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    from chiralwalk import circuit

    def out_of_memory(alphas, thetas):
        raise MemoryError  # bare, as numpy's allocation failures may be

    monkeypatch.setattr(circuit, "three_cycle_transfer", out_of_memory)
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "1000"]) == 2
    assert "reproduce-fig2 ran out of memory" in capsys.readouterr().err
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_reproduce_fig2_failure_leaves_no_directory(tmp_path, capsys, monkeypatch):
    from chiralwalk import circuit

    def out_of_memory(alphas, thetas):
        raise MemoryError

    monkeypatch.setattr(circuit, "three_cycle_transfer", out_of_memory)
    assert main(["reproduce-fig2", "--out", str(tmp_path / "fig2"), "--grid", "8"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_fig2_surface_is_periodic_in_alpha(tmp_path):
    # the wrapped alpha = 2*pi row must reproduce the alpha = 0 row
    from chiralwalk import three_cycle_unitaries
    thetas = [-PI + (k + 1) * 2 * PI / 64 for k in range(64)]
    base = np.abs(three_cycle_unitaries([0.0], thetas)) ** 2
    wrapped = np.abs(three_cycle_unitaries([2 * PI], thetas)) ** 2
    assert np.abs(base - wrapped).max() <= 1e-12


def test_fig2_surface_thetas_stay_inside_their_range(tmp_path):
    # at 13 points the last theta, -pi + 13 * 2 * pi / 13, rounds one ulp past pi
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "13"]) == 0
    _, rows = read_rows((out_dir / "surface.csv").read_text())
    thetas = [theta for _, theta, _, _, _ in rows]
    assert all(float(theta) <= PI for theta in thetas)
    assert thetas[-1] == "3.1415926535897931"


def test_fig2_slice_files_match_experiment_grid(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "8"]) == 0
    _, rows = read_rows((out_dir / "slice_alpha_pi_over_2.csv").read_text())
    assert len(rows) == 37
    peak = max(float(r[-1]) for r in rows)
    assert abs(peak - 0.94921875) <= 1e-9


def test_fig2_slices_are_the_circuit_sweep_default_rows(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "8"]) == 0
    code, table = run_to_stdout(["circuit-sweep"])
    assert code == 0
    sweep = [row for row in table.decode("ascii").splitlines()[1:]
             if row.split(",")[2:4] == ["0", "2"]]
    slices = [row for name in ("slice_alpha_0.csv", "slice_alpha_pi_over_2.csv",
                               "slice_alpha_pi.csv", "slice_alpha_3pi_over_2.csv")
              for row in (out_dir / name).read_text().splitlines()[1:]]
    assert len(sweep) == 148
    assert slices == sweep


def test_transfer_csv_matches_reference_bytes():
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    alphas = [-PI, 1 / 3]
    thetas = [0.0, 5e-324, 1 - 2 ** -53]
    probs = np.resize(np.array([0.0, 1.0, 1 / 3, 1 - 2 ** -53, 5e-324]),
                      2 * 3 * 9).reshape(2, 3, 3, 3)
    lines = ["alpha,theta,from,to,probability"]
    for a_index, alpha in enumerate(alphas):
        for t_index, theta in enumerate(thetas):
            p = probs[a_index, t_index, 2, 0]
            lines.append(f"{fmt(alpha)},{fmt(theta)},0,2,{fmt(p)}")
    assert _transfer_csv(alphas, thetas, probs[:, :, 2, 0]).decode("ascii") == \
        "\n".join(lines) + "\n"


def taylor_transfer(alpha, theta):
    return abs(three_cycle_taylor(alpha, theta)[2, 0]) ** 2


def test_fig2_grid8_values_match_taylor_oracle(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "8"]) == 0
    tables = {}
    for path in out_dir.glob("*.csv"):
        header, rows = read_rows(path.read_text())
        assert header == ["alpha", "theta", "from", "to", "probability"]
        assert {(frm, to) for _, _, frm, to, _ in rows} == {("0", "2")}
        table = np.array([[float(x) for x in (a, t, p)] for a, t, _, _, p in rows])
        oracle = [taylor_transfer(a, t) for a, t, _ in table]
        assert np.abs(table[:, 2] - oracle).max() <= 1e-12
        tables[path.name] = table
    surface = tables.pop("surface.csv")
    assert np.abs(surface[:, 0] - np.repeat(np.arange(8) * PI / 4, 8)).max() <= 1e-15
    assert np.abs(surface[:, 1] - np.tile(-PI + np.arange(1, 9) * PI / 4, 8)).max() <= 1e-15
    assert len(tables) == 4
    for table in tables.values():
        assert np.abs(table[:, 1] - (-PI + np.arange(37) * PI / 18)).max() <= 1e-15
    summary = (out_dir / "summary.txt").read_text().splitlines()
    values = dict(line.split("=", 1) for line in summary[1:5])
    assert values["surface_grid"] == "8x8"
    assert float(values["surface_max"]) == surface[:, 2].max()
    peak = taylor_transfer(float(values["surface_max_alpha"]), float(values["surface_max_theta"]))
    assert abs(float(values["surface_max"]) - peak) <= 1e-12
    for line in summary[5:9]:
        name, _, rest = line.partition(": ")
        alpha, maximum = (field.split("=")[1] for field in rest.split())
        assert float(alpha) == tables[name][0, 0]
        assert float(maximum) == tables[name][:, 2].max()
        oracle = max(taylor_transfer(float(alpha), t) for t in tables[name][:, 1])
        assert abs(float(maximum) - oracle) <= 1e-12


# sha256 of each reproduce-fig2 --grid 8 output, frozen from the row-update
# engine once test_fig2_grid8_values_match_taylor_oracle checked its values
FIG2_GRID8_SHA256 = {
    "slice_alpha_0.csv":
        "a8d9e183a60470c1d4626a08ffbb0a0d429f2e6b61fa232598bfe3c4b656b636",
    "slice_alpha_3pi_over_2.csv":
        "95890d9c23b4356055833ae273487d0d0a5a1619ec199825efc5db296100bcac",
    "slice_alpha_pi.csv":
        "ec07b1f3da29e182e1ce9b802b2d5376865d03ba7f7684d95cb17a1c11b53ae0",
    "slice_alpha_pi_over_2.csv":
        "d221f859ac56ffa26c6e9ca070723860a3baeb3eb215c4574cf3719ea2f7d587",
    "summary.txt":
        "8b1f6e25511c6caf7d28c0003416f16efba5eec531f92256c9f02ed55027cb7b",
    "surface.csv":
        "3f92641e04e3c5cb38d734025a5b02881149d3d8f9432d054810771ed4982a8b",
}


def test_fig2_grid8_outputs_are_byte_stable(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "8"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.iterdir()}
    assert digests == FIG2_GRID8_SHA256


# --- trotter-check ----------------------------------------------------------

def test_trotter_check_reports_third_order_ratios(triangle_file, capsys):
    assert main(["trotter-check", "--graph", str(triangle_file),
                 "--theta-start", "0.1", "--halvings", "2"]) == 0
    out = capsys.readouterr().out
    ratio_lines = [line for line in out.splitlines()
                   if line and not line.startswith("#")]
    ratios = [float(line.split()[-1]) for line in ratio_lines[3:]]
    assert len(ratios) == 2
    assert all(6.0 <= r <= 10.0 for r in ratios)


def test_trotter_check_accepts_mixed_magnitudes(tmp_path, capsys):
    path = tmp_path / "mixed.graph"
    path.write_text("nodes 3\nedge 0 1 1.10 0.3\nedge 1 2 0.65 -0.7\nedge 0 2 0.57 1.1\n")
    assert main(["trotter-check", "--graph", str(path)]) == 0
    ratios = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()
              if "/" in line and not line.startswith("#")]
    assert len(ratios) == 4
    assert all(7.0 <= r <= 9.0 for r in ratios)


def ring6_text() -> str:
    """Seeded 6-ring with one magnitude on every edge and random phases."""
    rng = np.random.default_rng(6)
    h = float(rng.uniform(0.5, 1.5))
    edges = tuple(chiralwalk.Edge(v, (v + 1) % 6, h, float(rng.uniform(-PI, PI)))
                  for v in range(6))
    return chiralwalk.render_graph(chiralwalk.WalkHamiltonian(6, edges))


# frozen from the uniform-magnitude splitting circuit, default ladder
TROTTER_SHA256 = {
    "triangle": "6aedd97a478d3bd073d707720a3a4640a9efe0690539185c5516d6b9fae413b0",
    "ring6": "9b147e7145f0e5b4e840dcd228c4ae6fd6b49220b7def66812b7c07b5e9efacc",
}


def test_trotter_check_output_is_byte_stable(triangle_file, tmp_path):
    ring_file = tmp_path / "ring6.graph"
    ring_file.write_text(ring6_text())
    digests = {}
    for name, graph in (("triangle", triangle_file), ("ring6", ring_file)):
        out = tmp_path / f"{name}.txt"
        assert main(["trotter-check", "--graph", str(graph), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == TROTTER_SHA256, (
        f"digests frozen under the SkylakeX OpenBLAS core, run under {blas_core()}")


@pytest.mark.parametrize("halvings", ["0", "1100"])
def test_trotter_check_halvings_out_of_range_exits_2(triangle_file, capsys, halvings):
    assert main(["trotter-check", "--graph", str(triangle_file),
                 "--halvings", halvings]) == 2
    assert "--halvings" in capsys.readouterr().err


@pytest.mark.parametrize("theta_start, halvings", [("0", "4"), ("5e-324", "1")])
def test_trotter_check_zero_theta_exits_2(triangle_file, capsys, theta_start, halvings):
    # a zero angle gives rounding noise for errors and 0/0 for the ratios
    assert main(["trotter-check", "--graph", str(triangle_file),
                 "--theta-start", theta_start, "--halvings", halvings]) == 2
    assert "--theta-start" in capsys.readouterr().err


@pytest.mark.parametrize("text, theta_start", [
    # t = 1.7 / 1e-10 times the star's spectral norm (~1.7e298) overflows
    ("nodes 5\nedge 0 1 1e-10 0\n"
     + "".join(f"edge 1 {leaf} 1e298 0\n" for leaf in (2, 3, 4)), "1.7"),
    # t = 1 / 1e-10 times ||H|| = 1.5e298 is finite, but the reference drops the
    # uniform diagonal, and the edges alone have norm 2e298
    ("nodes 4\nedge 0 1 1e-10 0\nedge 1 2 1e298 0\nedge 2 3 1e298 0\nedge 1 3 1e298 0\n"
     + "".join(f"self {node} -0.5e298\n" for node in range(4)), "1"),
], ids=["star", "uniform-diagonal"])
def test_trotter_check_overflowing_reference_phase_exits_2(tmp_path, capsys, text,
                                                           theta_start):
    # every gate angle is finite; the reference propagator's phases are not
    path = tmp_path / "overflow.graph"
    path.write_text(text)
    out = tmp_path / "ladder.txt"
    assert main(["trotter-check", "--graph", str(path), "--theta-start", theta_start,
                 "--halvings", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--theta-start" in err
    assert err.endswith("times the graph's spectral norm overflows a float\n")
    assert not out.exists()


def test_trotter_check_angles_are_finite_where_the_magnitude_ratio_is_not(tmp_path, capsys):
    # 1e300 / 1e-10 overflows a float, but the angle 1e-20 / 2 * 1e310 = 5e289 does not
    path = tmp_path / "wide.graph"
    path.write_text("nodes 3\nedge 0 1 1e-10 0\nedge 1 2 1e300 0\n")
    assert main(["trotter-check", "--graph", str(path), "--theta-start", "1e-20",
                 "--halvings", "1"]) == 0
    ladder = capsys.readouterr().out.splitlines()[2:4]
    assert [line.split()[0] for line in ladder] == ["9.9999999999999995e-21",
                                                   "4.9999999999999997e-21"]
    assert all(math.isfinite(float(line.split()[1])) for line in ladder)


# --- properties -------------------------------------------------------------

def test_properties_command_reports_and_passes(tmp_path):
    out = tmp_path / "report.txt"
    trials = ["--trials", "gauge-invariance=5", "--trials", "forest-pts=5",
              "--trials", "bipartite-pts=5", "--trials", "forest-phase-independence=5",
              "--trials", "parity-split-agreement=5", "--trials", "negation-time-reversal=5",
              "--trials", "cycle-flux-gauge-invariance=5", "--trials", "unitarity=5",
              "--trials", "group-property=5", "--trials", "spectral-shift=5",
              "--trials", "rz-conjugation-identity=5", "--trials", "gate-embedding=5",
              "--trials", "palindrome-amplitude-symmetry=5",
              "--trials", "spanning-tree-circuit-pts=5",
              "--trials", "bipartite-circuit-pts=5", "--trials", "flux-dependence=5",
              "--trials", "excitation-preservation=5",
              "--trials", "non-bipartite-asymmetry=5",
              "--trials", "table-normalization=5"]
    assert main(["properties", "--seed", "11", "--out", str(out)] + trials) == 0
    report = out.read_text()
    assert "# seed=11" in report
    assert "# result=PASS" in report
    # same seed, same bytes
    second = tmp_path / "second.txt"
    assert main(["properties", "--seed", "11", "--out", str(second)] + trials) == 0
    assert out.read_bytes() == second.read_bytes()


def test_properties_fault_injection_exits_1(tmp_path, capsys):
    out = tmp_path / "fault.txt"
    code = main(["properties", "--seed", "11", "--inject-fault",
                 "--trials", "flux-dependence=3", "--out", str(out)])
    assert code == 1
    report = out.read_text()
    assert "flux-dependence" in report
    assert "FAIL" in report


def test_properties_bad_trials_exits_2(capsys):
    assert main(["properties", "--trials", "gauge-invariance=lots"]) == 2


def test_properties_trials_count_past_int_digit_limit_exits_2(capsys):
    # int() refuses more than 4300 digits with a message naming neither flag nor suite
    assert main(["properties", "--trials", "gauge-invariance=" + "9" * 5000]) == 2
    err = capsys.readouterr().err
    assert "--trials" in err and "'gauge-invariance'" in err
    assert "5000 digits" in err


def test_properties_non_ascii_digit_trials_exits_2(capsys):
    # '²'.isdigit() is True, but int() rejects it
    assert main(["properties", "--trials", "gauge-invariance=²"]) == 2
    assert "bad --trials override 'gauge-invariance=²'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--graph", "g", "--t-max", "1_0"], "--t-max"),
    (["evolve", "--graph", "g", "--t-max", "1", "--t-count", " 5"], "--t-count"),
    (["circuit-sweep", "--alpha", "١"], "--alpha"),
    (["reproduce-fig2", "--grid", "²", "--out", "fig2"], "--grid"),
    (["properties", "--seed", "١٢"], "--seed"),
    (["evolve", "--graph", "g", "--t-max", " 1 "], "--t-max"),
    (["circuit-sweep", "--theta-step", " 1"], "--theta-step"),
])
def test_a_number_a_graph_file_refuses_is_a_usage_error_naming_its_flag(capsys, argv, flag):
    # the number flags read the token rules of graph and circuit files
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


def test_properties_trials_count_may_carry_a_sign(tmp_path):
    # the integer rule takes an optional sign, in a graph file and in --trials alike
    signed = [arg for name in SUITES for arg in ("--trials", f"{name}=+1")]
    assert main(["properties", "--out", str(tmp_path / "report.txt"), *signed]) == 0


def test_properties_negative_seed_exits_2(capsys):
    assert main(["properties", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_properties_unknown_trials_name_exits_2(capsys):
    assert main(["properties", "--trials", "gauge-invarance=5"]) == 2
    assert "gauge-invarance=5" in capsys.readouterr().err


def test_properties_zero_trials_exits_2(capsys):
    assert main(["properties", "--trials", "non-bipartite-asymmetry=0"]) == 2
    assert "non-bipartite-asymmetry=0" in capsys.readouterr().err


def test_properties_repeated_trials_name_exits_2(capsys):
    assert main(["properties", "--trials", "trotter-order=1",
                 "--trials", "trotter-order=3"]) == 2
    assert "'trotter-order'" in capsys.readouterr().err


# --- benchmark trace spans --------------------------------------------------

def _record_calls(monkeypatch, functions) -> list[str]:
    """Replace each function at every module-level binding in the package, as
    the benchmark's traced run does; the list gets its name at each call."""
    called = []
    for original in functions:
        def recording(*args, _original=original, **kwargs):
            called.append(_original.__name__)
            return _original(*args, **kwargs)

        bindings = [(module, attribute) for key, module in list(sys.modules.items())
                    if key == "chiralwalk" or key.startswith("chiralwalk.")
                    for attribute, value in vars(module).items() if value is original]
        for module, attribute in bindings:
            monkeypatch.setattr(module, attribute, recording)
    return called


def _properties_at_one_trial(tmp_path) -> None:
    trials = [f"--trials={name}=1" for name, _ in PROPERTY_SUITE]
    assert main(["properties", "--seed", "3", "--out", str(tmp_path / "p.txt"),
                 *trials]) == 0


# circuit functions the benchmark's traced run wraps at every module-level
# binding; its run fails when one of them records no call on circuit-suite
TRACED_CIRCUIT_FUNCTIONS = ("apply_circuit", "_qubit_columns",
                            "excitation_preservation_check", "trotter_error",
                            "three_cycle_unitaries")


def test_circuit_commands_call_every_traced_circuit_function(triangle_file, tmp_path,
                                                            monkeypatch):
    from chiralwalk import circuit

    called = _record_calls(monkeypatch, [getattr(circuit, name)
                                         for name in TRACED_CIRCUIT_FUNCTIONS])
    _properties_at_one_trial(tmp_path)
    assert main(["circuit-sweep", "--alpha", "0.5", "--theta-min", "0", "--theta-max",
                 "1", "--theta-step", "0.5", "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["reproduce-fig2", "--grid", "2", "--out", str(tmp_path / "fig2")]) == 0
    assert main(["trotter-check", "--graph", str(triangle_file), "--halvings", "1",
                 "--out", str(tmp_path / "t.txt")]) == 0
    assert set(called) == set(TRACED_CIRCUIT_FUNCTIONS)


def test_properties_calls_every_traced_spectral_function(tmp_path, monkeypatch):
    # the property suites are the circuit-suite workload's only callers of
    # these; a suite that binds one when PROPERTY_SUITE is built calls the
    # original, and the benchmark's traced run reads no call
    from chiralwalk import propagator, symmetry

    called = _record_calls(monkeypatch, [symmetry.pts_numeric, propagator.sweep_time,
                                         propagator.propagate])
    _properties_at_one_trial(tmp_path)
    assert set(called) == {"pts_numeric", "sweep_time", "propagate"}


def test_table_commands_call_every_traced_table_function(triangle_file, tmp_path,
                                                        monkeypatch):
    # the benchmark's traced run wraps sweep_time at every module-level binding
    # and TransportTable.to_csv on its class, and counts text in what to_csv
    # returns; its run fails when a span records no call
    from chiralwalk import propagator

    called, returned = _record_calls(monkeypatch, [propagator.sweep_time]), []
    to_csv = propagator.TransportTable.to_csv

    def recording(*args, **kwargs):
        called.append("to_csv")
        returned.append(to_csv(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(propagator.TransportTable, "to_csv", recording)
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "2",
                 "--out", str(tmp_path / "e.csv")]) == 0
    assert called == ["sweep_time", "to_csv"]
    called.clear()
    assert main(["circuit-sweep", "--alpha", "0.5", "--theta-min", "0", "--theta-max",
                 "1", "--theta-step", "0.5", "--out", str(tmp_path / "s.csv")]) == 0
    assert called == ["to_csv"]
    assert returned == [None, None]


# symmetry functions the benchmark's traced run wraps at every module-level
# binding; its run fails when one of them records no call on classify-batch
TRACED_SYMMETRY_FUNCTIONS = ("classify", "pts_numeric", "is_bipartite", "is_forest",
                             "tree_phase_removal", "bipartite_negation_gauge")


def test_classify_calls_every_traced_symmetry_function(tmp_path, monkeypatch):
    from chiralwalk import symmetry

    called = _record_calls(monkeypatch, [getattr(symmetry, name)
                                         for name in TRACED_SYMMETRY_FUNCTIONS])
    graphs = []  # a bipartite forest and an odd cycle reach every structural step
    for stem, text in (("chain", CHAIN), ("triangle", TRIANGLE)):
        path = tmp_path / f"{stem}.graph"
        path.write_text(text)
        graphs += ["--graph", str(path)]
    assert main(["classify", "--csv", *graphs, "--out", str(tmp_path / "c.csv")]) == 0
    assert set(called) == set(TRACED_SYMMETRY_FUNCTIONS)


def test_each_command_eigendecomposes_each_graph_once(triangle_file, tmp_path,
                                                      monkeypatch):
    from chiralwalk import propagator

    calls = []
    original = propagator.eig_hermitian

    def counting(matrix):
        assert matrix.shape[0] == 1 and matrix.ndim == 3  # a one-graph stack
        calls.append(matrix.shape[-1])
        return original(matrix)

    monkeypatch.setattr(propagator, "eig_hermitian", counting)
    graphs = []
    for stem, text in (("chain", CHAIN), ("triangle", TRIANGLE),
                       ("square", "nodes 4\nedge 0 1 1 0.2\nedge 1 2 1 0.1\n"
                                  "edge 2 3 1 -0.6\nedge 3 0 1 1.3\n")):
        path = tmp_path / f"{stem}.graph"
        path.write_text(text)
        graphs += ["--graph", str(path)]
    assert main(["classify", "--csv", *graphs, "--out", str(tmp_path / "c.csv")]) == 0
    assert calls == [4, 3, 4]
    calls.clear()
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "2",
                 "--out", str(tmp_path / "e.csv")]) == 0
    assert calls == [3]
    calls.clear()
    monkeypatch.setattr(propagator, "CHUNK_BYTES", 10 * 16 * 3 ** 2)  # 26 t-chunks
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "2",
                 "--out", str(tmp_path / "e.csv")]) == 0
    assert calls == [3]
    calls.clear()
    shifted = tmp_path / "shifted.graph"  # a uniform diagonal, dropped as a global phase
    shifted.write_text(TRIANGLE + "".join(f"self {node} 0.4\n" for node in range(3)))
    for graph in (triangle_file, shifted):
        assert main(["trotter-check", "--graph", str(graph), "--halvings", "4",
                     "--out", str(tmp_path / "t.txt")]) == 0
    assert calls == [3, 3]


# --- process entry point ----------------------------------------------------

def _argv(command: str, graph: Path, out: Path, scale: int) -> list[str]:
    """``command``'s arguments at ``scale`` times its smallest work."""
    return {
        "classify": ["classify", "--csv", *["--graph", str(graph)] * scale],
        "evolve": ["evolve", "--graph", str(graph), "--t-max", "1",
                   "--t-count", str(8 * scale)],
        "circuit-sweep": ["circuit-sweep", "--theta-step", str(PI / (4 * scale))],
        "trotter-check": ["trotter-check", "--graph", str(graph),
                          "--halvings", str(2 * scale)],
        "reproduce-fig2": ["reproduce-fig2", "--grid", str(4 * scale)],
        "properties": ["properties", "--seed", "3",
                       *[f"--trials={name}={scale}" for name, _ in PROPERTY_SUITE]],
    }[command] + ["--out", str(out)]


def _cycle_garbage(argv: list[str]) -> int:
    """Objects in reference cycles left by one in-process run of ``argv``
    with the cycle collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", ["classify", "evolve", "circuit-sweep",
                                     "reproduce-fig2", "trotter-check", "properties"])
def test_a_command_leaves_the_same_cycles_at_four_times_the_work(triangle_file, tmp_path,
                                                                command):
    # entry_point runs a command with the cycle collector off, which holds
    # memory to the size of the work only while the garbage in reference
    # cycles does not grow with it
    small, large = (_cycle_garbage(_argv(command, triangle_file, tmp_path / "out", scale))
                    for scale in (1, 4))
    assert small == large


def _evolve_child_faults(graph: Path, count: int) -> int:
    """Minor page faults of one ``python -m chiralwalk.cli evolve`` child."""
    child = subprocess.Popen([sys.executable, "-m", "chiralwalk.cli", "evolve", "--graph",
                              str(graph), "--t-max", "9", "--t-count", str(count),
                              "--out", os.devnull], env=child_env())
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert child.returncode == 0
    return usage.ru_minflt


def test_an_evolve_child_faults_in_no_more_pages_at_four_times_the_times(tmp_path):
    # entry_point keeps its freed heap, so each t-chunk and CSV block reuses the
    # buffers of the one before instead of faulting fresh pages in
    import ctypes

    if not hasattr(os, "wait4") or not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("needs os.wait4 and a C library with mallopt")
    path = tmp_path / "ring.graph"
    path.write_text("nodes 32\n" + "".join(f"edge {k} {(k + 1) % 32} 1.0 {0.1 * k}\n"
                                             for k in range(32)))
    small, large = (_evolve_child_faults(path, count) for count in (128, 512))
    # about 5.7k faults each; 7.3k and 13.1k when freed chunks go back to the kernel
    assert large <= 1.05 * small


def test_main_leaves_the_allocator_as_it_finds_it(triangle_file, monkeypatch):
    from chiralwalk import cli

    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: pytest.fail("allocator changed"))
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "1",
                 "--out", os.devnull]) == 0


NO_MALLOPT_CHILD = """
import atexit, ctypes, sys

lookups = []


class NoMallopt:  # a C library without mallopt
    def __init__(self, name):
        pass

    def __getattr__(self, name):
        lookups.append(name)
        raise AttributeError(name)


ctypes.CDLL = NoMallopt
atexit.register(lambda: print(lookups, file=sys.stderr))
import chiralwalk.cli as cli

cli.entry_point()
"""


@pytest.mark.parametrize("t_count", ["300", "0"])
def test_a_command_without_mallopt_runs_as_with_it(triangle_file, t_count):
    argv = ["evolve", "--graph", str(triangle_file), "--t-max", "2", "--t-count", t_count,
            "--out", "-"]
    plain, substituted = (
        subprocess.run([sys.executable, *prefix, *argv], capture_output=True,
                       env=child_env(), timeout=120)
        for prefix in (["-m", "chiralwalk.cli"], ["-c", NO_MALLOPT_CHILD]))
    assert substituted.returncode == plain.returncode == (0 if t_count != "0" else 2)
    assert substituted.stdout == plain.stdout
    assert substituted.stderr == plain.stderr + b"['mallopt']\n"


ENTRY_POINT_CHILD = """
import atexit, gc
import chiralwalk.cli as cli

kept = []
atexit.register(lambda: print(gc.get_freeze_count() > 0))
cli._keep_freed_heap = lambda: kept.append(True)
cli.main = lambda: {code} if not gc.isenabled() and kept == [True] else 3
cli.entry_point()
"""


@pytest.mark.parametrize("code", [0, 1])
def test_entry_point_runs_main_without_the_cycle_collector(code):
    # main runs once the freed heap is kept, and its code is the exit code;
    # the objects are frozen before the exit
    child = subprocess.run([sys.executable, "-c", ENTRY_POINT_CHILD.format(code=code)],
                           capture_output=True, text=True, env=child_env(), timeout=120)
    assert child.returncode == code, child.stderr
    assert child.stdout == "True\n"


def test_the_console_script_is_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(chiralwalk.__file__).parents[2] / "pyproject.toml")
                            .read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"chiralwalk": "chiralwalk.cli:entry_point"}
