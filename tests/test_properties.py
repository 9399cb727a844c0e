"""The property-suite harness itself: results, determinism, fault injection,
and stacked judging against one instance at a time."""

import math
import tracemalloc

import numpy as np
import pytest

from chiralwalk import (Edge, GateSpec, PalindromicCircuit, WalkHamiltonian, apply_circuit,
                        apply_gauge, circuit_sweep_table, cycle_flux, default_time_samples,
                        eq_parity_residual, excitation_preservation_check,
                        gate_qubit_space, properties, propagate, propagator, pts_numeric,
                        randgen, rz_decompose, sweep_time, trotter_error)
from chiralwalk.circuit import _apply_gates, _gate_rows, _gate_table
from chiralwalk.cli import main
from chiralwalk.graph import fmt_real
from chiralwalk.propagator import SpectralDecomposition
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
    # each trial checks steps 0.1 and 0.05, each against its half step:
    # three distinct steps, each computed once
    assert len(calls) == 9


def test_nan_residual_fails_its_suite(monkeypatch, tmp_path):
    def nan_propagators(dec, times):
        return np.full(np.shape(times) + (dec.n, dec.n), np.nan, dtype=complex)

    # the one spectral product, which the suite runs on its stack
    monkeypatch.setattr(SpectralDecomposition, "propagator_batch", nan_propagators)
    result = dict(PROPERTY_SUITE)["gauge-invariance"](np.random.default_rng(0), trials=3)
    assert np.isnan(result.worst)
    assert not result.passed
    out = tmp_path / "report.txt"
    trials = [f"--trials={name}=2" for name, _ in PROPERTY_SUITE]
    assert main(["properties", "--seed", "5", "--out", str(out), *trials]) == 1
    assert "\ngauge-invariance 2 nan 9.9999999999999998e-13 FAIL\n" in out.read_text()


# --- stacked judging ----------------------------------------------------------
# Each reference draws one suite's instances with the generator calls the
# suite makes, trial after trial, and measures each residual through the
# one-instance API: ``propagate``, ``spectrum`` (through ``pts_numeric`` and
# ``sweep_time``), ``apply_circuit`` and the gate engine on one gate.  The
# parity-split reference picks its time from the graph's samples, where the
# suite draws an index into them.

def _gap(a, b) -> float:
    return float(np.abs(a - b).max())


def _probabilities(graph, t):
    return np.abs(propagate(graph, t)) ** 2


def _gauge_invariance(rng):
    graph = randgen.random_hamiltonian(rng, n_max=8)
    gauge = randgen.random_gauge(rng, graph.n_nodes)
    t = float(rng.uniform(-5.0, 5.0))
    return _gap(_probabilities(graph, t), _probabilities(apply_gauge(graph, gauge), t))


def _forest_phase_independence(rng):
    graph = randgen.random_forest(rng, n_max=12, with_self_energies=True)
    times = default_time_samples(graph, count=16)
    return _gap(sweep_time(graph, times).probabilities,
                sweep_time(graph.zero_phase_copy(), times).probabilities)


def _negation_time_reversal(rng):
    graph = randgen.random_bipartite(rng, 10)
    t = float(rng.uniform(0.1, 5.0))
    return _gap(np.abs(propagate(graph, t)), np.abs(propagate(graph, -t)))


def _unitarity(rng):
    graph = randgen.random_hamiltonian(rng, n_max=16)
    u = propagate(graph, float(rng.uniform(-10.0, 10.0)))
    return _gap(u.conj().T @ u, np.eye(len(u)))


def _group_property(rng):
    graph = randgen.random_hamiltonian(rng, n_max=10)
    t1, t2 = rng.uniform(-3.0, 3.0, size=2)
    return _gap(propagate(graph, float(t1 + t2)),
                propagate(graph, float(t1)) @ propagate(graph, float(t2)))


def _spectral_shift(rng):
    graph = randgen.random_hamiltonian(rng, n_max=8)
    shift = float(rng.uniform(-3.0, 3.0))
    diag = graph.diagonal()
    shifted = WalkHamiltonian(graph.n_nodes, graph.edges,
                              tuple((v, float(diag[v] + shift)) for v in range(graph.n_nodes)))
    t = float(rng.uniform(-4.0, 4.0))
    return _gap(_probabilities(graph, t), _probabilities(shifted, t))


def _gate_embedding(rng):
    gate = GateSpec(0, 1, rng.uniform(-2 * math.pi, 2 * math.pi),
                    rng.uniform(-2 * math.pi, 2 * math.pi))
    node = _apply_gates(np.eye(2, dtype=complex), _gate_rows(*_gate_table([[gate]])[..., 0]))
    return _gap(gate_qubit_space(gate)[np.ix_((2, 1), (2, 1))], node)


def _palindrome_amplitude_symmetry(rng):
    n = int(rng.integers(2, 7))
    u = apply_circuit(randgen.random_palindrome(rng, n, int(rng.integers(1, 7)),
                                                zero_alpha=True))
    return _gap(u, u.T)


def _circuit_pts(circuit):
    p = np.abs(apply_circuit(circuit)) ** 2
    return _gap(p, p.T)


def _flux_dependence(rng, inject_fault=False):
    phases = rng.uniform(-np.pi, np.pi, size=3)
    theta = float(rng.uniform(-np.pi, np.pi))
    lam = rng.uniform(-np.pi, np.pi, size=3)
    redistributed = np.array([phases[0] + lam[0] - lam[1], phases[1] + lam[1] - lam[2],
                              phases[2] + lam[2] - lam[0]])
    if inject_fault:
        redistributed[0] = -redistributed[0]
    tables = [np.abs(apply_circuit(PalindromicCircuit(3, tuple(
        GateSpec(i, j, float(alpha), theta)
        for (i, j), alpha in zip(((0, 1), (1, 2), (2, 0)), assignment))))) ** 2
        for assignment in (phases, redistributed)]
    return _gap(tables[0], tables[1])


def _trotter_order(rng):
    phase = float(rng.uniform(-1.0, 1.0))
    graph = WalkHamiltonian(3, (Edge(0, 1, 1.0, phase), Edge(1, 2, 1.0, phase),
                                Edge(0, 2, 1.0, -phase)))
    return _gap(np.array([trotter_error(graph, step) / trotter_error(graph, step / 2.0)
                          for step in (0.1, 0.05)]), 8.0)


def _parity_split_agreement(rng):
    graph = randgen.random_hamiltonian(rng, n_max=7)
    t = float(rng.choice(default_time_samples(graph)))
    p = _probabilities(graph, t)
    skew = _gap(p, p.T)
    parity = float(np.abs(eq_parity_residual(graph, t)).max())
    residual = abs(2.0 * parity - skew)
    return residual if (parity <= 1e-10) == (skew <= 1e-9) else max(residual, 1.0)


def _cycle_flux_gauge_invariance(rng):
    graph, cycle = randgen.random_ring_with_chords(rng, 10)
    gauge = randgen.random_gauge(rng, graph.n_nodes)
    flux = cycle_flux(graph, cycle)
    flux_gauged = cycle_flux(apply_gauge(graph, gauge), cycle)
    return abs(math.remainder(flux - flux_gauged, 2 * math.pi))


def _rz_conjugation_identity(rng):
    gate = GateSpec(0, 1, rng.uniform(-2 * math.pi, 2 * math.pi),
                    rng.uniform(-2 * math.pi, 2 * math.pi))
    pre, sym, post = rz_decompose(gate)
    return _gap(pre @ sym @ post, gate_qubit_space(gate))


def _excitation_preservation(rng):
    n = int(rng.integers(2, 7))
    return excitation_preservation_check(
        randgen.random_palindrome(rng, n, int(rng.integers(1, 6))))


def _sweep_column_defect(rng):
    graph = randgen.random_hamiltonian(rng, n_max=10)
    return sweep_time(graph, default_time_samples(graph, count=8)).column_sum_defect()


ONE_INSTANCE = {
    "gauge-invariance": _gauge_invariance,
    "forest-pts": lambda rng: pts_numeric(
        randgen.random_forest(rng, n_max=12, with_self_energies=True)),
    "bipartite-pts": lambda rng: pts_numeric(randgen.random_bipartite(rng, 12)),
    "forest-phase-independence": _forest_phase_independence,
    "parity-split-agreement": _parity_split_agreement,
    "negation-time-reversal": _negation_time_reversal,
    "cycle-flux-gauge-invariance": _cycle_flux_gauge_invariance,
    "unitarity": _unitarity,
    "group-property": _group_property,
    "spectral-shift": _spectral_shift,
    "rz-conjugation-identity": _rz_conjugation_identity,
    "gate-embedding": _gate_embedding,
    "palindrome-amplitude-symmetry": _palindrome_amplitude_symmetry,
    "spanning-tree-circuit-pts": lambda rng: _circuit_pts(
        randgen.random_spanning_tree_palindrome(rng, 8)),
    "bipartite-circuit-pts": lambda rng: _circuit_pts(
        randgen.random_bipartite_palindrome(rng, 8)),
    "flux-dependence": _flux_dependence,
    "trotter-order": _trotter_order,
    "excitation-preservation": _excitation_preservation,
}


@pytest.mark.parametrize("seed", [11, 2026])
@pytest.mark.parametrize("name", list(ONE_INSTANCE))
def test_stacked_worst_is_the_one_instance_worst_bit_for_bit(name, seed):
    trials = 3 if name == "trotter-order" else 40
    result = dict(PROPERTY_SUITE)[name](np.random.default_rng(seed), trials=trials)
    rng = np.random.default_rng(seed)
    residuals = [ONE_INSTANCE[name](rng) for _ in range(trials)]
    assert result.worst == max(residuals)
    assert result.trials == trials


@pytest.mark.parametrize("seed", [11, 2026])
def test_stacked_fault_injection_is_the_one_instance_worst(seed):
    result = dict(PROPERTY_SUITE)["flux-dependence"](np.random.default_rng(seed), trials=30,
                                                      inject_fault=True)
    rng = np.random.default_rng(seed)
    worst = max(_flux_dependence(rng, inject_fault=True) for _ in range(30))
    assert result.worst == worst and worst > 1e-3
    assert not result.passed


@pytest.mark.parametrize("seed", [11, 2026])
def test_stacked_statistical_suites_match_one_instance_runs(seed):
    suites = dict(PROPERTY_SUITE)
    rng = np.random.default_rng(seed)
    residuals = [pts_numeric(randgen.random_nonbipartite(rng, 12)) for _ in range(40)]
    result = suites["non-bipartite-asymmetry"](np.random.default_rng(seed), trials=40)
    assert result.worst == min(residuals)
    assert result.note == f"detected {sum(r > 1e-3 for r in residuals)}/40"

    rng = np.random.default_rng(seed)
    defects = [_sweep_column_defect(rng) for _ in range(40)]
    grid = circuit_sweep_table(rng.uniform(0, 2 * np.pi, size=4),
                               rng.uniform(-np.pi, np.pi, size=16))
    result = suites["table-normalization"](np.random.default_rng(seed), trials=40)
    assert result.worst == max(defects + [grid.column_sum_defect()])


@pytest.mark.parametrize("trials", [1, 19, 100])
def test_non_bipartite_asymmetry_fails_below_95_percent(monkeypatch, trials):
    # a run that detects nothing is under 95% at every trial count
    monkeypatch.setattr(properties, "pts_numeric", lambda graph: 0.0)
    result = dict(PROPERTY_SUITE)["non-bipartite-asymmetry"](np.random.default_rng(0),
                                                              trials=trials)
    assert result.note == f"detected 0/{trials}" and not result.passed


def test_stacked_memory_does_not_grow_with_trials(monkeypatch):
    # A 64 KiB chunk budget makes a window 455 instances of flux-dependence,
    # whose one node count gives every window the same instances.  CPython
    # keeps up to 2000 freed tuples of each small size for reuse, which
    # tracemalloc still counts, so a first run at the larger count fills
    # those lists before either peak is taken.
    monkeypatch.setattr(propagator, "CHUNK_BYTES", 2 ** 16)
    run = dict(PROPERTY_SUITE)["flux-dependence"]
    run(np.random.default_rng(0), trials=5000)
    peaks = []
    for trials in (500, 5000):
        tracemalloc.start()
        try:
            assert run(np.random.default_rng(1), trials=trials).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
