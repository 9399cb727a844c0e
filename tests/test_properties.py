"""The property-suite harness itself: results, determinism, fault injection."""

import numpy as np
import pytest

from chiralwalk import properties
from chiralwalk.cli import main
from chiralwalk.graph import fmt_real
from chiralwalk.properties import (PROPERTY_SUITE, format_property_report,
                                   run_property_suite)

QUICK_TRIALS = {name: 8 for name, _ in PROPERTY_SUITE}

# every suite's name, default trial count, bound (as reported) and status at
# default trials and the default seed
DEFAULT_SUITE_TABLE = (
    ("gauge-invariance", 200, "9.9999999999999998e-13", "PASS"),
    ("forest-pts", 100, "1.0000000000000001e-09", "PASS"),
    ("bipartite-pts", 100, "1.0000000000000001e-09", "PASS"),
    ("forest-phase-independence", 100, "1.0000000000000001e-09", "PASS"),
    ("parity-split-agreement", 60, "9.9999999999999998e-13", "PASS"),
    ("negation-time-reversal", 100, "9.9999999999999998e-13", "PASS"),
    ("cycle-flux-gauge-invariance", 100, "9.9999999999999998e-13", "PASS"),
    ("unitarity", 100, "1e-10", "PASS"),
    ("group-property", 100, "1.0000000000000001e-09", "PASS"),
    ("spectral-shift", 100, "9.9999999999999998e-13", "PASS"),
    ("rz-conjugation-identity", 100, "9.9999999999999998e-13", "PASS"),
    ("gate-embedding", 100, "9.9999999999999998e-13", "PASS"),
    ("palindrome-amplitude-symmetry", 100, "9.9999999999999998e-13", "PASS"),
    ("spanning-tree-circuit-pts", 100, "1e-10", "PASS"),
    ("bipartite-circuit-pts", 100, "1e-10", "PASS"),
    ("flux-dependence", 100, "1e-10", "PASS"),
    ("trotter-order", 2, "2", "PASS"),
    ("excitation-preservation", 100, "9.9999999999999998e-13", "PASS"),
    ("non-bipartite-asymmetry", 100, "0.001", "PASS"),
    ("table-normalization", 50, "1.0000000000000001e-09", "PASS"),
)


def test_every_property_passes_with_reduced_trials():
    results = run_property_suite(99, trials=QUICK_TRIALS)
    assert len(results) == len(PROPERTY_SUITE)
    failures = [r.name for r in results if not r.passed]
    assert failures == []


def test_results_record_trials_and_bounds():
    results = run_property_suite(99, trials=QUICK_TRIALS)
    by_name = {r.name: r for r in results}
    assert by_name["gauge-invariance"].trials == 8
    assert by_name["gauge-invariance"].bound == 1e-12
    assert by_name["non-bipartite-asymmetry"].note.startswith("detected")


def test_report_format_and_determinism():
    first = format_property_report(run_property_suite(321, QUICK_TRIALS), 321)
    second = format_property_report(run_property_suite(321, QUICK_TRIALS), 321)
    assert first == second
    assert "# seed=321" in first
    assert first.strip().endswith("# result=PASS")


def test_fault_injection_breaks_flux_dependence_only():
    results = run_property_suite(99, trials=QUICK_TRIALS, inject_fault=True)
    by_name = {r.name: r for r in results}
    assert not by_name["flux-dependence"].passed
    others = [r for r in results if r.name != "flux-dependence"]
    assert all(r.passed for r in others)
    report = format_property_report(results, 99)
    assert "# result=FAIL" in report


def test_fault_injection_is_detectable_directly():
    rng = np.random.default_rng(0)
    result = dict(PROPERTY_SUITE)["flux-dependence"](rng, trials=5, inject_fault=True)
    assert not result.passed
    assert result.worst > 1e-3


@pytest.mark.parametrize("name", [name for name, _ in PROPERTY_SUITE])
def test_each_property_runs_standalone(name):
    func = dict(PROPERTY_SUITE)[name]
    rng = np.random.default_rng(5)
    result = func(rng, trials=5)
    assert result.name == name
    assert result.passed


def test_suite_table_at_default_trials_is_frozen():
    results = run_property_suite(20260808)
    table = tuple((r.name, r.trials, fmt_real(r.bound), "PASS" if r.passed else "FAIL")
                  for r in results)
    assert table == DEFAULT_SUITE_TABLE


def test_trotter_order_runs_every_trial(monkeypatch):
    original = properties.trotter_error
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(properties, "trotter_error", counting)
    result = dict(PROPERTY_SUITE)["trotter-order"](np.random.default_rng(3), trials=3)
    assert result.trials == 3 and result.passed
    # each trial checks steps 0.1 and 0.05, each against its half step
    assert len(calls) == 12


def test_nan_residual_fails_its_suite(monkeypatch, tmp_path):
    def nan_propagator(hamiltonian, t):
        return np.full((hamiltonian.n_nodes,) * 2, np.nan, dtype=complex)

    monkeypatch.setattr(properties, "propagate", nan_propagator)
    result = dict(PROPERTY_SUITE)["gauge-invariance"](np.random.default_rng(0), trials=3)
    assert np.isnan(result.worst)
    assert not result.passed
    out = tmp_path / "report.txt"
    trials = [f"--trials={name}=2" for name, _ in PROPERTY_SUITE]
    assert main(["properties", "--seed", "5", "--out", str(out), *trials]) == 1
    assert "\ngauge-invariance 2 nan 9.9999999999999998e-13 FAIL\n" in out.read_text()
