"""Command-line front end: schemas, exit codes, determinism."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest

from chiralwalk import validate_table_csv
from chiralwalk.cli import _theta_grid, _transfer_csv, main

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


def test_circuit_sweep_fused_center_matches(tmp_path):
    plain, fused = tmp_path / "plain.csv", tmp_path / "fused.csv"
    assert main(["circuit-sweep", "--alpha", "1.1", "--out", str(plain)]) == 0
    assert main(["circuit-sweep", "--alpha", "1.1", "--fuse-center",
                 "--out", str(fused)]) == 0
    _, rows_p = read_rows(plain.read_text())
    _, rows_f = read_rows(fused.read_text())
    worst = max(abs(float(a[-1]) - float(b[-1])) for a, b in zip(rows_p, rows_f))
    assert worst <= 1e-12


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


def test_fig2_surface_is_periodic_in_alpha(tmp_path):
    # the wrapped alpha = 2*pi row must reproduce the alpha = 0 row
    from chiralwalk import three_cycle_probabilities
    thetas = [-PI + (k + 1) * 2 * PI / 64 for k in range(64)]
    base = three_cycle_probabilities([0.0], thetas)
    wrapped = three_cycle_probabilities([2 * PI], thetas)
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
    assert _transfer_csv(alphas, thetas, probs) == "\n".join(lines) + "\n"


# sha256 of each reproduce-fig2 --grid 8 output, frozen from the per-row
# f-string renderer the template renderer replaced
FIG2_GRID8_SHA256 = {
    "slice_alpha_0.csv":
        "7092139a97fe8e8a018cbf615bdcbdf4604645650985993ed0166526929a6255",
    "slice_alpha_3pi_over_2.csv":
        "50b6c2d58732e52a07d129adf620ff42a585d2823fa1fe4d245ea39837ba4f48",
    "slice_alpha_pi.csv":
        "bed72ad7b366676470860d55aab7d02dc123ee153f0d1ac86e24fa10e3d2a803",
    "slice_alpha_pi_over_2.csv":
        "83bb1dd11048dfb12c1277246f82c178a1f6b796cc4496ad07f1405d9d39d806",
    "summary.txt":
        "06f9d5abac66c40085e449b9f8e8ffaee31d1ba4acc5ca4d0a70069ea995c590",
    "surface.csv":
        "95a32acfa0855ca3ab204433405c71a6b834aeccd3d99595beac317e06a9df13",
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


def test_trotter_check_rejects_nonuniform_magnitudes(tmp_path, capsys):
    path = tmp_path / "mixed.graph"
    path.write_text("nodes 3\nedge 0 1 1.0 0\nedge 1 2 2.0 0\n")
    assert main(["trotter-check", "--graph", str(path)]) == 2
    assert "uniform" in capsys.readouterr().err


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


def test_properties_unknown_trials_name_exits_2(capsys):
    assert main(["properties", "--trials", "gauge-invarance=5"]) == 2
    assert "gauge-invarance=5" in capsys.readouterr().err


def test_properties_zero_trials_exits_2(capsys):
    assert main(["properties", "--trials", "non-bipartite-asymmetry=0"]) == 2
    assert "non-bipartite-asymmetry=0" in capsys.readouterr().err
