"""Tests of the benchmark itself: inputs, gates, metric names and emission.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gates
import tracing
import workloads
from chiralwalk.cli import main as cli_main

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = workloads.build(name, 7, tmp_path)
    again = workloads.build(name, 7, tmp_path)
    other = workloads.build(name, 8, tmp_path)
    assert first.files == again.files
    assert [inv.argv for inv in first.invocations] == [inv.argv for inv in again.invocations]
    assert first.files != other.files or first.invocations[0].argv != other.invocations[0].argv


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)


def _write_inputs(workload, root: Path) -> None:
    (root / "inputs").mkdir()
    (root / "out").mkdir()
    for relative, text in workload.files.items():
        (root / "inputs" / relative).write_text(text)


def test_evolve_gate_rejects_one_flipped_probability(tmp_path):
    rng = np.random.default_rng(3)
    graph = workloads.make_graph(rng, "small", 6, "non-bipartite", labelled=True)
    (tmp_path / "small.graph").write_text(graph.render())
    out = tmp_path / "table.csv"
    assert cli_main(["evolve", "--graph", str(tmp_path / "small.graph"), "--t-max", "3.5",
                     "--t-count", "8", "--out", str(out)]) == 0
    times = gates.time_grid(0.0, 3.5, 8)
    gates.check_evolve(out, graph, times)

    lines = out.read_text().splitlines()
    # swap two probabilities of one column: schema and column sums still hold
    row_a, row_b = 1 + 3 * 36 + 2 * 6 + 1, 1 + 3 * 36 + 2 * 6 + 4
    head_a, _, p_a = lines[row_a].rpartition(",")
    head_b, _, p_b = lines[row_b].rpartition(",")
    assert abs(float(p_a) - float(p_b)) > 1e-6
    lines[row_a], lines[row_b] = f"{head_a},{p_b}", f"{head_b},{p_a}"
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(gates.GateError, match="sampled entries"):
        gates.check_evolve(out, graph, times)


def test_classify_gate_rejects_wrong_class(tmp_path):
    workload = workloads.build("classify-batch", 5, tmp_path)
    _write_inputs(workload, tmp_path)
    invocation = workload.invocations[0]
    assert cli_main(list(invocation.argv)) == 0
    invocation.check(invocation.output)

    lines = invocation.output.read_text().splitlines()
    assert lines[1].startswith("tree,")
    lines[1] = "non-bipartite," + lines[1].partition(",")[2]
    invocation.output.write_text("\n".join(lines) + "\n")
    with pytest.raises(gates.GateError, match="class non-bipartite"):
        invocation.check(invocation.output)


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_per_layer_metrics_match_benchmark_json():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == list(tracing.PER_LAYER)


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_every_metric_is_emitted(name):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "circuit-suite", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
