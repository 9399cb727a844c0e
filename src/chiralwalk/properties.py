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
                      circuit_sweep_table, excitation_preservation_check,
                      gate_node_matrix, gate_qubit_space, rz_decompose,
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


def _trials(residual: Callable, rng, trials: int, **kwargs) -> list[float]:
    """One residual per trial, each drawing its instance from ``rng`` in turn."""
    return [residual(rng, **kwargs) for _ in range(trials)]


def _judge(name: str, trials: int, bound: float, residuals) -> PropertyResult:
    """Pass when the worst residual is within ``bound``; a NaN residual fails."""
    worst = float(np.max(residuals, initial=0.0))
    return PropertyResult(name, trials, worst, bound, worst <= bound)


def _suite(name: str, default_trials: int, bound: float, residual: Callable):
    """The ``(name, run)`` row of a suite judged on its worst per-trial residual."""
    def run(rng, trials: int = default_trials, **kwargs) -> PropertyResult:
        return _judge(name, trials, bound, _trials(residual, rng, trials, **kwargs))
    return name, run


def _gap(a, b) -> float:
    return float(np.abs(a - b).max())


def _probabilities(hamiltonian, t: float) -> np.ndarray:
    return np.abs(propagate(hamiltonian, t)) ** 2


def _gauge_invariance(rng) -> float:
    graph = randgen.random_hamiltonian(rng, n_max=8)
    gauge = randgen.random_gauge(rng, graph.n_nodes)
    t = float(rng.uniform(-5.0, 5.0))
    return _gap(_probabilities(graph, t), _probabilities(apply_gauge(graph, gauge), t))


def _forest_phase_independence(rng) -> float:
    graph = randgen.random_forest(rng, n_max=12, with_self_energies=True)
    times = default_time_samples(graph, count=16)
    return _gap(sweep_time(graph, times).probabilities,
                sweep_time(graph.zero_phase_copy(), times).probabilities)


def _parity_split_agreement(rng) -> float:
    """Twice the parity-split residual equals the pairwise probability skew."""
    graph = randgen.random_hamiltonian(rng, n_max=7)
    t = float(rng.choice(default_time_samples(graph)))
    p = _probabilities(graph, t)
    skew = _gap(p, p.T)
    parity = float(np.abs(eq_parity_residual(graph, t)).max())
    residual = abs(2.0 * parity - skew)
    # the two tests must also agree on whether this p is symmetric at all
    return residual if (parity <= 1e-10) == (skew <= 1e-9) else max(residual, 1.0)


def _negation_time_reversal(rng) -> float:
    graph = randgen.random_bipartite(rng, 10)
    t = float(rng.uniform(0.1, 5.0))
    return _gap(np.abs(propagate(graph, t)), np.abs(propagate(graph, -t)))


def _cycle_flux_gauge_invariance(rng) -> float:
    graph, cycle = randgen.random_ring_with_chords(rng, 10)
    gauge = randgen.random_gauge(rng, graph.n_nodes)
    flux = cycle_flux(graph, cycle)
    flux_gauged = cycle_flux(apply_gauge(graph, gauge), cycle)
    return abs(math.remainder(flux - flux_gauged, TWO_PI))


def _unitarity(rng) -> float:
    graph = randgen.random_hamiltonian(rng, n_max=16)
    u = propagate(graph, float(rng.uniform(-10.0, 10.0)))
    return _gap(u.conj().T @ u, np.eye(len(u)))


def _group_property(rng) -> float:
    graph = randgen.random_hamiltonian(rng, n_max=10)
    t1, t2 = rng.uniform(-3.0, 3.0, size=2)
    combined = propagate(graph, float(t1 + t2))
    return _gap(combined, propagate(graph, float(t1)) @ propagate(graph, float(t2)))


def _spectral_shift(rng) -> float:
    graph = randgen.random_hamiltonian(rng, n_max=8)
    shift = float(rng.uniform(-3.0, 3.0))
    diag = graph.diagonal()
    shifted = WalkHamiltonian(
        graph.n_nodes, graph.edges,
        tuple((v, float(diag[v] + shift)) for v in range(graph.n_nodes)))
    t = float(rng.uniform(-4.0, 4.0))
    return _gap(_probabilities(graph, t), _probabilities(shifted, t))


def _random_gate(rng) -> GateSpec:
    return GateSpec(0, 1, float(rng.uniform(-TWO_PI, TWO_PI)),
                    float(rng.uniform(-TWO_PI, TWO_PI)))


def _rz_conjugation_identity(rng) -> float:
    gate = _random_gate(rng)
    pre, sym, post = rz_decompose(gate)
    return _gap(pre @ sym @ post, gate_qubit_space(gate))


def _gate_embedding(rng) -> float:
    """Qubit gate restricted to {|10>, |01>} equals the node-space block."""
    gate = _random_gate(rng)
    # basis order |00>, |01>, |10>, |11>: indices 2 and 1 are nodes i, j
    restricted = gate_qubit_space(gate)[np.ix_((2, 1), (2, 1))]
    return _gap(restricted, gate_node_matrix(gate, 2))


def _palindrome_amplitude_symmetry(rng) -> float:
    n = int(rng.integers(2, 7))
    circuit = randgen.random_palindrome(rng, n, int(rng.integers(1, 7)),
                                        zero_alpha=True)
    u = apply_circuit(circuit)
    return _gap(u, u.T)


def _circuit_pts_residual(circuit) -> float:
    p = np.abs(apply_circuit(circuit)) ** 2
    return _gap(p, p.T)


def _flux_dependence(rng, inject_fault: bool = False) -> float:
    """Triangle transport depends on per-gate phases only through their sum.

    Two phase assignments with equal total flux are gauge images of each
    other, so their probability tables must agree.  ``inject_fault`` flips
    one phase sign in the second assignment (changing the flux) and is
    expected to make this property fail; it exists to prove the harness
    can see a genuine violation.
    """
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
        u = apply_circuit(PalindromicCircuit(3, half))
        tables.append(np.abs(u) ** 2)
    return _gap(tables[0], tables[1])


def _trotter_order(rng) -> float:
    """Halving the step 0.1 or 0.05 shrinks the splitting error ~8x (third order)."""
    phase = float(rng.uniform(-1.0, 1.0))
    graph = WalkHamiltonian(3, (Edge(0, 1, 1.0, phase), Edge(1, 2, 1.0, phase),
                                Edge(0, 2, 1.0, -phase)))
    ratios = np.array([trotter_error(graph, step) / trotter_error(graph, step / 2.0)
                       for step in (0.1, 0.05)])
    return _gap(ratios, 8.0)


def _excitation_preservation(rng) -> float:
    n = int(rng.integers(2, 7))
    return excitation_preservation_check(
        randgen.random_palindrome(rng, n, int(rng.integers(1, 6))))


def _nonbipartite_asymmetry(name: str, default_trials: int, threshold: float):
    """Odd cycles with generic flux break symmetry detectably (statistical)."""
    def run(rng, trials: int = default_trials) -> PropertyResult:
        residuals = _trials(
            lambda r: pts_numeric(randgen.random_nonbipartite(r, 12)), rng, trials)
        detected = sum(residual > threshold for residual in residuals)
        return PropertyResult(name, trials, float(np.min(residuals, initial=math.inf)),
                              threshold, detected >= int(0.95 * trials),
                              f"detected {detected}/{trials}")
    return name, run


def _sweep_column_defect(rng) -> float:
    graph = randgen.random_hamiltonian(rng, n_max=10)
    return sweep_time(graph, default_time_samples(graph, count=8)).column_sum_defect()


def _table_normalization(name: str, default_trials: int, bound: float):
    """Time sweeps, then one circuit grid drawn after them, have unit column sums."""
    def run(rng, trials: int = default_trials) -> PropertyResult:
        defects = _trials(_sweep_column_defect, rng, trials)
        grid = circuit_sweep_table(rng.uniform(0, TWO_PI, size=4),
                                   rng.uniform(-np.pi, np.pi, size=16))
        return _judge(name, trials, bound, defects + [grid.column_sum_defect()])
    return name, run


PROPERTY_SUITE: tuple[tuple[str, Callable], ...] = (
    _suite("gauge-invariance", 200, 1e-12, _gauge_invariance),
    _suite("forest-pts", 100, 1e-9, lambda rng: pts_numeric(
        randgen.random_forest(rng, n_max=12, with_self_energies=True))),
    _suite("bipartite-pts", 100, 1e-9,
           lambda rng: pts_numeric(randgen.random_bipartite(rng, 12))),
    _suite("forest-phase-independence", 100, 1e-9, _forest_phase_independence),
    _suite("parity-split-agreement", 60, 1e-12, _parity_split_agreement),
    _suite("negation-time-reversal", 100, 1e-12, _negation_time_reversal),
    _suite("cycle-flux-gauge-invariance", 100, 1e-12, _cycle_flux_gauge_invariance),
    _suite("unitarity", 100, 1e-10, _unitarity),
    _suite("group-property", 100, 1e-9, _group_property),
    _suite("spectral-shift", 100, 1e-12, _spectral_shift),
    _suite("rz-conjugation-identity", 100, 1e-12, _rz_conjugation_identity),
    _suite("gate-embedding", 100, 1e-12, _gate_embedding),
    _suite("palindrome-amplitude-symmetry", 100, 1e-12, _palindrome_amplitude_symmetry),
    _suite("spanning-tree-circuit-pts", 100, 1e-10, lambda rng: _circuit_pts_residual(
        randgen.random_spanning_tree_palindrome(rng, 8))),
    _suite("bipartite-circuit-pts", 100, 1e-10, lambda rng: _circuit_pts_residual(
        randgen.random_bipartite_palindrome(rng, 8))),
    _suite("flux-dependence", 100, 1e-10, _flux_dependence),
    _suite("trotter-order", 2, 2.0, _trotter_order),
    _suite("excitation-preservation", 100, 1e-12, _excitation_preservation),
    _nonbipartite_asymmetry("non-bipartite-asymmetry", 100, 1e-3),
    _table_normalization("table-normalization", 50, 1e-9),
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
