"""Quantified invariant suites: randomized checks with explicit bounds.

Each property draws its instances from its own child generator of one
master seed, measures a worst residual, and compares it to a fixed bound.
The suites back the ``properties`` command and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import randgen
from .circuit import (GateSpec, PalindromicCircuit, apply_circuit,
                      excitation_preservation_check, gate_node_matrix,
                      gate_qubit_space, rz_decompose, three_cycle_probabilities,
                      trotter_error)
from .graph import Edge, WalkHamiltonian, fmt_real
from .propagator import propagate, sweep_time
from .symmetry import (apply_gauge, cycle_flux, default_time_samples,
                       eq_parity_residual, pts_numeric)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    worst: float
    bound: float
    passed: bool
    note: str = ""


def _table(hamiltonian, times) -> np.ndarray:
    return sweep_time(hamiltonian, times).probabilities


def prop_gauge_invariance(rng, trials: int = 200) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_hamiltonian(rng, n_max=8)
        gauge = randgen.random_gauge(rng, graph.n_nodes)
        t = float(rng.uniform(-5.0, 5.0))
        p = np.abs(propagate(graph, t)) ** 2
        p_gauged = np.abs(propagate(apply_gauge(graph, gauge), t)) ** 2
        worst = max(worst, float(np.abs(p - p_gauged).max()))
    return PropertyResult("gauge-invariance", trials, worst, 1e-12, worst <= 1e-12)


def prop_forest_pts(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_forest(rng, n_max=12, with_self_energies=True)
        worst = max(worst, pts_numeric(graph).residual)
    return PropertyResult("forest-pts", trials, worst, 1e-9, worst <= 1e-9)


def prop_bipartite_pts(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, pts_numeric(randgen.random_bipartite(rng, 12)).residual)
    return PropertyResult("bipartite-pts", trials, worst, 1e-9, worst <= 1e-9)


def prop_forest_phase_independence(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_forest(rng, n_max=12, with_self_energies=True)
        times = default_time_samples(graph, count=16)
        diff = _table(graph, times) - _table(graph.zero_phase_copy(), times)
        worst = max(worst, float(np.abs(diff).max()))
    return PropertyResult("forest-phase-independence", trials, worst, 1e-9,
                          worst <= 1e-9)


def prop_parity_split_agreement(rng, trials: int = 60) -> PropertyResult:
    """Twice the parity-split residual equals the pairwise probability skew."""
    worst = 0.0
    agree = True
    for _ in range(trials):
        graph = randgen.random_hamiltonian(rng, n_max=7)
        t = float(rng.choice(default_time_samples(graph)))
        p = np.abs(propagate(graph, t)) ** 2
        skew = float(np.abs(p - p.T).max())
        parity = max(abs(eq_parity_residual(graph, t, i, j))
                     for i in range(graph.n_nodes)
                     for j in range(i + 1, graph.n_nodes))
        worst = max(worst, abs(2.0 * parity - skew))
        agree = agree and ((parity <= 1e-10) == (skew <= 1e-9))
    if not agree:
        worst = max(worst, 1.0)
    return PropertyResult("parity-split-agreement", trials, worst, 1e-12,
                          worst <= 1e-12)


def prop_negation_time_reversal(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_bipartite(rng, 10)
        t = float(rng.uniform(0.1, 5.0))
        forward = np.abs(propagate(graph, t))
        backward = np.abs(propagate(graph, -t))
        worst = max(worst, float(np.abs(forward - backward).max()))
    return PropertyResult("negation-time-reversal", trials, worst, 1e-12,
                          worst <= 1e-12)


def prop_cycle_flux_gauge_invariance(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph, cycle = randgen.random_ring_with_chords(rng, 10)
        gauge = randgen.random_gauge(rng, graph.n_nodes)
        flux = cycle_flux(graph, cycle)
        flux_gauged = cycle_flux(apply_gauge(graph, gauge), cycle)
        worst = max(worst, abs(math.remainder(flux - flux_gauged, TWO_PI)))
    return PropertyResult("cycle-flux-gauge-invariance", trials, worst, 1e-12,
                          worst <= 1e-12)


def prop_unitarity(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_hamiltonian(rng, n_max=16)
        u = propagate(graph, float(rng.uniform(-10.0, 10.0)))
        worst = max(worst, float(np.abs(u.conj().T @ u - np.eye(len(u))).max()))
    return PropertyResult("unitarity", trials, worst, 1e-10, worst <= 1e-10)


def prop_group_property(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_hamiltonian(rng, n_max=10)
        t1, t2 = rng.uniform(-3.0, 3.0, size=2)
        combined = propagate(graph, float(t1 + t2))
        split = propagate(graph, float(t1)) @ propagate(graph, float(t2))
        worst = max(worst, float(np.abs(combined - split).max()))
    return PropertyResult("group-property", trials, worst, 1e-9, worst <= 1e-9)


def prop_spectral_shift(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_hamiltonian(rng, n_max=8)
        shift = float(rng.uniform(-3.0, 3.0))
        diag = graph.diagonal()
        shifted = WalkHamiltonian(
            graph.n_nodes, graph.edges,
            tuple((v, float(diag[v] + shift)) for v in range(graph.n_nodes)))
        t = float(rng.uniform(-4.0, 4.0))
        p = np.abs(propagate(graph, t)) ** 2
        p_shifted = np.abs(propagate(shifted, t)) ** 2
        worst = max(worst, float(np.abs(p - p_shifted).max()))
    return PropertyResult("spectral-shift", trials, worst, 1e-12, worst <= 1e-12)


def prop_rz_conjugation_identity(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        gate = GateSpec(0, 1, float(rng.uniform(-TWO_PI, TWO_PI)),
                        float(rng.uniform(-TWO_PI, TWO_PI)))
        pre, sym, post = rz_decompose(gate)
        worst = max(worst, float(np.abs(pre @ sym @ post - gate_qubit_space(gate)).max()))
    return PropertyResult("rz-conjugation-identity", trials, worst, 1e-12,
                          worst <= 1e-12)


def prop_gate_embedding(rng, trials: int = 100) -> PropertyResult:
    """Qubit gate restricted to {|10>, |01>} equals the node-space block."""
    worst = 0.0
    for _ in range(trials):
        gate = GateSpec(0, 1, float(rng.uniform(-TWO_PI, TWO_PI)),
                        float(rng.uniform(-TWO_PI, TWO_PI)))
        qubit = gate_qubit_space(gate)
        # basis order |00>, |01>, |10>, |11>: indices 2 and 1 are nodes i, j
        restricted = qubit[np.ix_((2, 1), (2, 1))]
        node = gate_node_matrix(gate, 2)
        worst = max(worst, float(np.abs(restricted - node).max()))
    return PropertyResult("gate-embedding", trials, worst, 1e-12, worst <= 1e-12)


def prop_palindrome_amplitude_symmetry(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        circuit = randgen.random_palindrome(rng, n, int(rng.integers(1, 7)),
                                            zero_alpha=True)
        u = apply_circuit(circuit, "node")
        worst = max(worst, float(np.abs(u - u.T).max()))
    return PropertyResult("palindrome-amplitude-symmetry", trials, worst, 1e-12,
                          worst <= 1e-12)


def _circuit_pts_residual(circuit) -> float:
    p = np.abs(apply_circuit(circuit, "node")) ** 2
    return float(np.abs(p - p.T).max())


def prop_spanning_tree_circuit_pts(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, _circuit_pts_residual(
            randgen.random_spanning_tree_palindrome(rng, 8)))
    return PropertyResult("spanning-tree-circuit-pts", trials, worst, 1e-10,
                          worst <= 1e-10)


def prop_bipartite_circuit_pts(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, _circuit_pts_residual(
            randgen.random_bipartite_palindrome(rng, 8)))
    return PropertyResult("bipartite-circuit-pts", trials, worst, 1e-10,
                          worst <= 1e-10)


def prop_flux_dependence(rng, trials: int = 100,
                         inject_fault: bool = False) -> PropertyResult:
    """Triangle transport depends on per-gate phases only through their sum.

    Two phase assignments with equal total flux are gauge images of each
    other, so their probability tables must agree.  ``inject_fault`` flips
    one phase sign in the second assignment (changing the flux) and is
    expected to make this property fail; it exists to prove the harness
    can see a genuine violation.
    """
    worst = 0.0
    for _ in range(trials):
        phases = rng.uniform(-np.pi, np.pi, size=3)
        theta = float(rng.uniform(-np.pi, np.pi))
        lam = rng.uniform(-np.pi, np.pi, size=3)
        # same-flux redistribution: subtract a discrete gradient
        redistributed = np.array([phases[0] + lam[0] - lam[1],
                                  phases[1] + lam[1] - lam[2],
                                  phases[2] + lam[2] - lam[0]])
        if inject_fault:
            redistributed[0] = -redistributed[0]
        tables = []
        for assignment in (phases, redistributed):
            half = (GateSpec(0, 1, float(assignment[0]), theta),
                    GateSpec(1, 2, float(assignment[1]), theta),
                    GateSpec(2, 0, float(assignment[2]), theta))
            u = apply_circuit(PalindromicCircuit(3, half), "node")
            tables.append(np.abs(u) ** 2)
        worst = max(worst, float(np.abs(tables[0] - tables[1]).max()))
    return PropertyResult("flux-dependence", trials, worst, 1e-10, worst <= 1e-10)


def prop_trotter_order(rng, trials: int = 2) -> PropertyResult:
    """Halving the step shrinks the splitting error ~8x (third-order local)."""
    phase = float(rng.uniform(-1.0, 1.0))
    graph = WalkHamiltonian(3, (Edge(0, 1, 1.0, phase), Edge(1, 2, 1.0, phase),
                                Edge(0, 2, 1.0, -phase)))
    ratios = []
    for step in (0.1, 0.05):
        ratios.append(trotter_error(graph, step) / trotter_error(graph, step / 2.0))
    worst = max(abs(r - 8.0) for r in ratios)
    passed = all(6.0 <= r <= 10.0 for r in ratios)
    note = "ratios " + ", ".join(format(r, ".4f") for r in ratios)
    return PropertyResult("trotter-order", trials, worst, 2.0, passed, note)


def prop_excitation_preservation(rng, trials: int = 100) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        circuit = randgen.random_palindrome(rng, n, int(rng.integers(1, 6)))
        worst = max(worst, excitation_preservation_check(circuit))
    return PropertyResult("excitation-preservation", trials, worst, 1e-12,
                          worst <= 1e-12)


def prop_nonbipartite_asymmetry(rng, trials: int = 100) -> PropertyResult:
    """Odd cycles with generic flux break symmetry detectably (statistical)."""
    detected = 0
    min_residual = math.inf
    for _ in range(trials):
        graph = randgen.random_nonbipartite(rng, 12)
        residual = pts_numeric(graph).residual
        min_residual = min(min_residual, residual)
        if residual > 1e-3:
            detected += 1
    passed = detected >= int(0.95 * trials)
    return PropertyResult("non-bipartite-asymmetry", trials, float(min_residual),
                          1e-3, passed, f"detected {detected}/{trials}")


def prop_table_normalization(rng, trials: int = 50) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        graph = randgen.random_hamiltonian(rng, n_max=10)
        table = sweep_time(graph, default_time_samples(graph, count=8))
        worst = max(worst, table.column_sum_defect())
    alphas = rng.uniform(0, TWO_PI, size=4)
    thetas = rng.uniform(-np.pi, np.pi, size=16)
    circuit_probs = three_cycle_probabilities(alphas, thetas)
    worst = max(worst, float(np.abs(circuit_probs.sum(axis=2) - 1.0).max()))
    return PropertyResult("table-normalization", trials, worst, 1e-9,
                          worst <= 1e-9)


PROPERTY_SUITE: tuple[tuple[str, Callable], ...] = (
    ("gauge-invariance", prop_gauge_invariance),
    ("forest-pts", prop_forest_pts),
    ("bipartite-pts", prop_bipartite_pts),
    ("forest-phase-independence", prop_forest_phase_independence),
    ("parity-split-agreement", prop_parity_split_agreement),
    ("negation-time-reversal", prop_negation_time_reversal),
    ("cycle-flux-gauge-invariance", prop_cycle_flux_gauge_invariance),
    ("unitarity", prop_unitarity),
    ("group-property", prop_group_property),
    ("spectral-shift", prop_spectral_shift),
    ("rz-conjugation-identity", prop_rz_conjugation_identity),
    ("gate-embedding", prop_gate_embedding),
    ("palindrome-amplitude-symmetry", prop_palindrome_amplitude_symmetry),
    ("spanning-tree-circuit-pts", prop_spanning_tree_circuit_pts),
    ("bipartite-circuit-pts", prop_bipartite_circuit_pts),
    ("flux-dependence", prop_flux_dependence),
    ("trotter-order", prop_trotter_order),
    ("excitation-preservation", prop_excitation_preservation),
    ("non-bipartite-asymmetry", prop_nonbipartite_asymmetry),
    ("table-normalization", prop_table_normalization),
)


def run_property_suite(seed: int, trials: dict[str, int] | None = None,
                       inject_fault: bool = False) -> list[PropertyResult]:
    """Run every suite with child generators spawned from one master seed."""
    trials = trials or {}
    streams = np.random.default_rng(seed).spawn(len(PROPERTY_SUITE))
    results = []
    for (name, func), stream in zip(PROPERTY_SUITE, streams):
        kwargs = {}
        if name in trials:
            kwargs["trials"] = trials[name]
        if name == "flux-dependence":
            kwargs["inject_fault"] = inject_fault
        results.append(func(stream, **kwargs))
    return results


def format_property_report(results: list[PropertyResult], seed: int) -> str:
    lines = [
        "# chiralwalk property suite",
        f"# seed={seed}",
        "# columns: name trials worst bound status note",
    ]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = f" [{r.note}]" if r.note else ""
        lines.append(f"{r.name} {r.trials} {fmt_real(r.worst)} {fmt_real(r.bound)} "
                     f"{status}{note}")
    overall = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"# result={overall}")
    return "\n".join(lines) + "\n"
