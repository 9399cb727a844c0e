"""Command-line front end: schemas, exit codes, determinism."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chiralwalk
from chiralwalk import parse_graph, pts_numeric, sweep_time, validate_table_csv
from chiralwalk.cli import _theta_grid, _transfer_csv, main
from chiralwalk.properties import PROPERTY_SUITE

from .oracles import three_cycle_taylor
from .test_propagator import failing_second_fork, force_workers

PI = math.pi

TRIANGLE = "nodes 3\nedge 0 1 1.0 0.0\nedge 1 2 1.0 0.0\nedge 2 0 1.0 0.0\n"
CHAIN = "nodes 4\nedge 0 1 1 0.9\nedge 1 2 1 -0.4\nedge 2 3 1 2.0\n"


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


def test_classify_missing_file_exits_2(tmp_path, capsys):
    assert main(["classify", "--graph", str(tmp_path / "nope.graph")]) == 2


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_classify_bad_tolerance_exits_2(triangle_file, capsys, tol):
    assert main(["classify", "--graph", str(triangle_file), f"--tol={tol}"]) == 2
    assert "--tol" in capsys.readouterr().err


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


def test_evolve_overflowing_phase_exits_2(tmp_path, capsys):
    path = tmp_path / "pair.graph"
    path.write_text("nodes 2\nedge 0 1 2 0\n")  # spectral norm 2
    out = tmp_path / "table.csv"
    assert main(["evolve", "--graph", str(path), "--t-min", "1e308", "--t-max", "1e308",
                 "--t-count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--t-min" in err and "--t-max" in err
    assert not out.exists()
    # a large time whose phases stay finite still gives a valid table
    assert main(["evolve", "--graph", str(path), "--t-min", "1e300", "--t-max", "1e300",
                 "--t-count", "1", "--out", str(out)]) == 0
    validate_table_csv(out.read_text())


def test_evolve_bytes_do_not_depend_on_the_cpus_available(tmp_path):
    """Tables of one t-chunk (1024 points at N=16) and of two, written by
    fresh interpreters that see one CPU and every CPU, so real forked workers
    render a full chunk in two blocks."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity")
    graph = tmp_path / "ring.graph"
    graph.write_text("nodes 16\n" + "".join(f"edge {k} {(k + 1) % 16} 1.0 {0.1 * k}\n"
                                             for k in range(16)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(chiralwalk.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")))))
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


@pytest.mark.parametrize("per_block", [1, 3, None])  # None: every time point in one block
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("t_min, t_max, count", [(-0.5, 2.0, 7), (-0.0, -0.0, 1)])
def test_evolve_streams_the_bytes_of_one_table(tmp_path, capsys, monkeypatch, per_block,
                                               workers, out, t_min, t_max, count):
    from chiralwalk import propagator

    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    if per_block is not None:  # t-chunks, and so stream blocks, of per_block points
        monkeypatch.setattr(propagator, "CHUNK_BYTES", per_block * 16 * 4 ** 2)
    force_workers(monkeypatch, workers)
    expected = sweep_time(parse_graph(CHAIN), chain_grid(t_min, t_max, count)).to_csv()
    target = tmp_path / "table.csv" if out == "file" else "-"
    assert main(["evolve", "--graph", str(path), f"--t-min={t_min!r}", f"--t-max={t_max!r}",
                 "--t-count", str(count), "--out", str(target)]) == 0
    text = target.read_text() if out == "file" else capsys.readouterr().out
    assert text == expected
    assert not list(tmp_path.glob("*.partial"))


def test_evolve_failing_on_a_later_block_leaves_no_partial_table(tmp_path, capsys,
                                                                 monkeypatch):
    from chiralwalk import cli, propagator

    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    monkeypatch.setattr(propagator, "CHUNK_BYTES", 3 * 16 * 4 ** 2)  # 3 points a block
    blocks = []

    def failing_second(hamiltonian, grid):
        blocks.append(len(grid))
        if len(blocks) == 2:
            raise ValueError("render failed")
        return sweep_time(hamiltonian, grid)

    monkeypatch.setattr(cli, "sweep_time", failing_second)
    argv = ["evolve", "--graph", str(path), "--t-max", "2", "--t-count", "7", "--out"]
    out = tmp_path / "table.csv"
    assert main([*argv, str(out)]) == 2
    assert "render failed" in capsys.readouterr().err
    assert blocks == [3, 3]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]
    # an earlier table at the target is left whole
    out.write_text("earlier\n")
    blocks.clear()
    assert main([*argv, str(out)]) == 2
    assert out.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph", "table.csv"]
    # a target that is not a regular file is written in place, never replaced
    monkeypatch.setattr(cli, "sweep_time", sweep_time)
    monkeypatch.setattr(os, "replace", lambda *paths: pytest.fail(f"replaced {paths}"))
    assert main([*argv, os.devnull]) == 0


def test_evolve_with_a_failing_csv_worker_exits_2_and_leaves_no_file(tmp_path, capsys,
                                                                     monkeypatch):
    from chiralwalk import propagator

    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    force_workers(monkeypatch, 2)
    parent = os.getpid()
    render_rows = propagator._render_rows

    def failing_in_worker(*args):
        if os.getpid() != parent:
            raise MemoryError
        return render_rows(*args)

    monkeypatch.setattr(propagator, "_render_rows", failing_in_worker)
    assert main(["evolve", "--graph", str(path), "--t-max", "2", "--t-count", "7",
                 "--out", str(tmp_path / "table.csv")]) == 2
    assert "CSV worker" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]


def test_evolve_with_a_failing_fork_exits_2_and_leaves_no_file(tmp_path, capsys,
                                                               monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    force_workers(monkeypatch, 3)
    pids, _ = failing_second_fork(monkeypatch)
    assert main(["evolve", "--graph", str(path), "--t-max", "2", "--t-count", "7",
                 "--out", str(tmp_path / "table.csv")]) == 2
    assert "injected fork failure" in capsys.readouterr().err
    assert len(pids) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.graph"]


def test_evolve_into_a_missing_directory_names_the_target(triangle_file, tmp_path, capsys):
    out = tmp_path / "missing" / "table.csv"
    assert main(["evolve", "--graph", str(triangle_file), "--t-max", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"'{out}'")


def test_evolve_peak_memory_does_not_grow_with_the_time_count(tmp_path):
    path = tmp_path / "ring.graph"
    path.write_text("nodes 32\n" + "".join(f"edge {k} {(k + 1) % 32} 1.0 {0.1 * k}\n"
                                             for k in range(32)))
    peaks = []
    for count in (512, 4096):  # 2 and 16 t-chunks of 256 points
        tracemalloc.start()
        try:
            assert main(["evolve", "--graph", str(path), "--t-max", "9", "--t-count",
                         str(count), "--out", os.devnull]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one table held whole reads 57 MB against 451 MB
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


def test_theta_grid_never_passes_theta_max():
    grid = _theta_grid(-PI, PI, 0.9)
    assert len(grid) == 7
    assert max(grid) <= PI
    assert len(_theta_grid(-PI, PI, PI / 18)) == 37
    # span / step is 1800.0000000000002 here, and 1800 must still give 1801 points
    fine = _theta_grid(-PI, PI, float(format(PI / 900, ".17g")))
    assert len(fine) == 1801
    assert abs(fine[-1] - PI) <= 1e-12


def test_sweep_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["circuit-sweep", "--out", str(first)]) == 0
    assert main(["circuit-sweep", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


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
    from chiralwalk import cli

    def out_of_memory(alphas, thetas):
        raise MemoryError  # bare, as numpy's allocation failures may be

    monkeypatch.setattr(cli, "three_cycle_transfer", out_of_memory)
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "1000000"]) == 2
    assert "reproduce-fig2 ran out of memory" in capsys.readouterr().err
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_fig2_surface_is_periodic_in_alpha(tmp_path):
    # the wrapped alpha = 2*pi row must reproduce the alpha = 0 row
    from chiralwalk import three_cycle_unitaries
    thetas = [-PI + (k + 1) * 2 * PI / 64 for k in range(64)]
    base = np.abs(three_cycle_unitaries([0.0], thetas)) ** 2
    wrapped = np.abs(three_cycle_unitaries([2 * PI], thetas)) ** 2
    assert np.abs(base - wrapped).max() <= 1e-12


def test_fig2_slice_files_match_experiment_grid(tmp_path):
    out_dir = tmp_path / "fig2"
    assert main(["reproduce-fig2", "--out", str(out_dir), "--grid", "8"]) == 0
    _, rows = read_rows((out_dir / "slice_alpha_pi_over_2.csv").read_text())
    assert len(rows) == 37
    peak = max(float(r[-1]) for r in rows)
    assert abs(peak - 0.94921875) <= 1e-9


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
    assert _transfer_csv(alphas, thetas, probs[:, :, 2, 0]) == "\n".join(lines) + "\n"


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
        "26675bf06044698eda6b4c87eef8abf7bbc870c32d4df3ac684493a35b9c0c93",
    "slice_alpha_3pi_over_2.csv":
        "3c1cc1eabac626876d079efd8ce364f34d217be48147945a694558be033cb5f3",
    "slice_alpha_pi.csv":
        "13686f5f4553e9ee8f819db420986b790f64a887c39da83193cc515e96510973",
    "slice_alpha_pi_over_2.csv":
        "e9c15712bf749e03ae7318da0577c0801e6613b045f6e497482b090f2fd388f2",
    "summary.txt":
        "e8f8f3b981a0f25ab68526256152ea8d5c367059edc35e67b905aaff7ecfbf5a",
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
    assert digests == TROTTER_SHA256


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
    assert "--theta-start" in capsys.readouterr().err
    assert not out.exists()


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

# circuit functions the benchmark's traced run wraps at every module-level
# binding; its run fails when one of them records no call on circuit-suite
TRACED_CIRCUIT_FUNCTIONS = ("apply_circuit", "_qubit_columns",
                            "excitation_preservation_check", "trotter_error",
                            "three_cycle_unitaries")


def test_circuit_commands_call_every_traced_circuit_function(triangle_file, tmp_path,
                                                            monkeypatch):
    from chiralwalk import circuit

    called = set()
    for name in TRACED_CIRCUIT_FUNCTIONS:
        original = getattr(circuit, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        bindings = [(module, attribute) for key, module in list(sys.modules.items())
                    if key == "chiralwalk" or key.startswith("chiralwalk.")
                    for attribute, value in vars(module).items() if value is original]
        for module, attribute in bindings:
            monkeypatch.setattr(module, attribute, counting)
    trials = [f"--trials={name}=1" for name, _ in PROPERTY_SUITE]
    assert main(["properties", "--seed", "3", "--out", str(tmp_path / "p.txt"),
                 *trials]) == 0
    assert main(["circuit-sweep", "--alpha", "0.5", "--theta-min", "0", "--theta-max",
                 "1", "--theta-step", "0.5", "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["reproduce-fig2", "--grid", "2", "--out", str(tmp_path / "fig2")]) == 0
    assert main(["trotter-check", "--graph", str(triangle_file), "--halvings", "1",
                 "--out", str(tmp_path / "t.txt")]) == 0
    assert called == set(TRACED_CIRCUIT_FUNCTIONS)


# symmetry functions the benchmark's traced run wraps at every module-level
# binding; its run fails when one of them records no call on classify-batch
TRACED_SYMMETRY_FUNCTIONS = ("classify", "pts_numeric", "is_bipartite", "is_forest",
                             "tree_phase_removal", "bipartite_negation_gauge")


def test_classify_calls_every_traced_symmetry_function(tmp_path, monkeypatch):
    from chiralwalk import symmetry

    called = set()
    for name in TRACED_SYMMETRY_FUNCTIONS:
        original = getattr(symmetry, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        bindings = [(module, attribute) for key, module in list(sys.modules.items())
                    if key == "chiralwalk" or key.startswith("chiralwalk.")
                    for attribute, value in vars(module).items() if value is original]
        for module, attribute in bindings:
            monkeypatch.setattr(module, attribute, counting)
    graphs = []  # a bipartite forest and an odd cycle reach every structural step
    for stem, text in (("chain", CHAIN), ("triangle", TRIANGLE)):
        path = tmp_path / f"{stem}.graph"
        path.write_text(text)
        graphs += ["--graph", str(path)]
    assert main(["classify", "--csv", *graphs, "--out", str(tmp_path / "c.csv")]) == 0
    assert called == set(TRACED_SYMMETRY_FUNCTIONS)


def test_each_command_eigendecomposes_each_graph_once(triangle_file, tmp_path,
                                                      monkeypatch):
    from chiralwalk import propagator

    calls = []
    original = propagator.eig_hermitian
    monkeypatch.setattr(propagator, "eig_hermitian",
                        lambda matrix: calls.append(len(matrix)) or original(matrix))
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
