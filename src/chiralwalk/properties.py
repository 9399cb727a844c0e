"""Quantified invariant suites: randomized checks with explicit bounds.

Each property draws its instances from its own child generator of one
master seed, measures a worst residual, and compares it to a fixed bound.
The suites back the ``properties`` command and the acceptance tests.

Most suites draw their instances first, trial after trial with the same
generator calls as one instance at a time, and then judge them in stacks:
grouped by node count (circuits also by full sequence length), in windows
of at most ``chunk_length`` instances of the window's largest node count, so
a stack of N x N matrices stays within the propagator's t-chunk budget and
memory does not grow with ``trials``.  A stack takes one ``spectra`` eigensolve,
one stacked propagator product or one pass of ``_unitary_stack``, the gate
engine's one entry, over full gate sequences, and gives every instance
the bytes a one-instance run gives it, so the time is linear in ``trials``.
A suite that exercises a one-instance function (``pts_numeric``,
``sweep_time``, ``propagate``, ``trotter_error``,
``excitation_preservation_check``) is a draw and a residual: its judge calls
the residual per instance, on spectra computed for the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import randgen
from .circuit import (GateSpec, PalindromicCircuit, _single_excitation_rows, _unitary_stack,
                      circuit_sweep_table, excitation_preservation_check, gate_qubit_space,
                      rz_decompose, three_cycle_circuit, trotter_error)
from .defaults import DEFAULTS
from .graph import Edge, WalkHamiltonian, fmt_real
from .propagator import chunk_length, propagate, spectra, sweep_time
from .symmetry import (_pts_skew, apply_gauge, cycle_flux, default_time_samples,
                       eq_parity_residual, pts_numeric)

TWO_PI = 2.0 * math.pi
_TRIANGLE = tuple((gate.i, gate.j) for gate in three_cycle_circuit(0.0, 0.0).half)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    worst: float
    bound: float
    passed: bool
    note: str = ""


def _judge(name: str, trials: int, bound: float, residuals) -> PropertyResult:
    """Pass when the worst residual is within ``bound``; a NaN residual fails."""
    worst = float(np.max(residuals, initial=0.0))
    return PropertyResult(name, trials, worst, bound, worst <= bound)


def _nodes(instance) -> tuple[int, ...]:
    """Stack key of an instance: the node count of its first entry."""
    return (instance[0].n_nodes,)


def _nodes_and_gates(instance) -> tuple[int, ...]:
    """Stack key of a circuit instance: node count and sequence length."""
    return (instance[0].n_nodes, len(instance[0].full))


def _stacks(draw: Callable, rng, trials: int, key: Callable, **kwargs) -> Iterator[list]:
    """Draw ``trials`` instances (tuples) from ``rng`` in order and yield them
    grouped by ``key``, whose first entry is the node count, window by
    window: a window closes at ``chunk_length`` of its largest node count,
    so each group's stack fits one t-chunk."""
    window: list = []
    capacity = math.inf
    for trial in range(trials):
        window.append(draw(rng, **kwargs))
        capacity = min(capacity, chunk_length(key(window[-1])[0]))
        if len(window) >= capacity or trial == trials - 1:
            groups: dict = {}
            for instance in window:
                groups.setdefault(key(instance), []).append(instance)
            window, capacity = [], math.inf
            while groups:  # hold no group of a window while the next is drawn
                yield groups.popitem()[1]


def _stacked(name: str, default_trials: int, bound: float, draw: Callable,
             judge: Callable, key: Callable = _nodes):
    """The ``(name, run)`` row of a suite judged in stacks: ``judge(group)``
    gives the residual of each instance of a group, in any order."""
    def run(rng, trials: int = default_trials, **kwargs) -> PropertyResult:
        worst = 0.0
        for residuals in map(judge, _stacks(draw, rng, trials, key, **kwargs)):
            worst = np.maximum(worst, np.max(residuals))  # a NaN stays
        return _judge(name, trials, bound, worst)
    return name, run


def _each(residual: Callable) -> Callable:
    """Judge of a stack by ``residual(*instance)`` per instance.  A residual
    calls what it exercises by its module-level name, looked up when it runs,
    so a binding replaced after import (a tracer's) is the one called."""
    return lambda group: [residual(*instance) for instance in group]


def _per_graph(residual: Callable) -> Callable:
    """``_each(residual)`` after one ``spectra`` call on the first entry of
    each instance, kept on each graph where the one-graph functions read it."""
    def judge(group) -> list:
        spectra([instance[0] for instance in group])
        return _each(residual)(group)
    return judge


_pts_residuals = _per_graph(lambda graph: pts_numeric(graph))


def _gap(a, b) -> float:
    return float(np.abs(a - b).max())


def _gaps(a, b) -> np.ndarray:
    """``_gap`` of each matrix pair of two stacks (the last two axes)."""
    return np.abs(a - b).max(axis=(-2, -1))


def _draw_gauge_invariance(rng) -> tuple:
    graph = randgen.random_hamiltonian(rng, n_max=8)
    gauge = randgen.random_gauge(rng, graph.n_nodes)
    return graph, apply_gauge(graph, gauge), rng.uniform(-5.0, 5.0)


def _same_probabilities(group) -> np.ndarray:
    """Probability gap of two graphs of one node count at one time, each instance."""
    graphs, others, times = zip(*group)
    probabilities = np.abs(spectra(graphs + others).propagator_batch(times + times)) ** 2
    return _gaps(probabilities[:len(group)], probabilities[len(group):])


def _draw_forest(rng) -> tuple:
    return (randgen.random_forest(rng, n_max=12, with_self_energies=True),)


def _forest_phase_independence(group) -> list[float]:
    graphs = [graph for graph, in group]
    copies = [graph.zero_phase_copy() for graph in graphs]
    spectra(graphs + copies)
    residuals = []
    for graph, copy in zip(graphs, copies):
        times = default_time_samples(graph)[3::4]
        residuals.append(_gap(sweep_time(graph, times).probabilities,
                              sweep_time(copy, times).probabilities))
    return residuals


def _draw_parity_split(rng) -> tuple:
    # the index of one of the graph's default time samples, which need its spectrum
    return randgen.random_hamiltonian(rng, n_max=7), int(rng.choice(DEFAULTS.pts_samples))


def _parity_split_agreement(graph, sample: int) -> float:
    """Twice the parity-split residual equals the pairwise probability skew."""
    t = default_time_samples(graph)[sample]
    skew = float(_pts_skew(np.abs(propagate(graph, t)) ** 2))
    parity = 2.0 * float(np.abs(eq_parity_residual(graph, t)).max())
    residual = abs(parity - skew)
    # the two tests must also agree on whether this p is symmetric at all
    return residual if (parity <= DEFAULTS.pts) == (skew <= DEFAULTS.pts) else max(residual, 1.0)


def _negation_time_reversal(group) -> np.ndarray:
    graphs, times = zip(*group)
    dec = spectra(graphs)
    times = np.array(times)
    return _gaps(np.abs(dec.propagator_batch(times)), np.abs(dec.propagator_batch(-times)))


def _draw_cycle_flux(rng) -> tuple:
    graph, cycle = randgen.random_ring_with_chords(rng, 10)
    return graph, cycle, randgen.random_gauge(rng, graph.n_nodes)


def _cycle_flux_gauge_invariance(graph, cycle, gauge) -> float:
    flux = cycle_flux(graph, cycle)
    flux_gauged = cycle_flux(apply_gauge(graph, gauge), cycle)
    return abs(math.remainder(flux - flux_gauged, TWO_PI))


def _unitarity(group) -> np.ndarray:
    graphs, times = zip(*group)
    u = spectra(graphs).propagator_batch(times)
    return _gaps(u.conj().swapaxes(-1, -2) @ u, np.eye(u.shape[-1]))


def _draw_group_property(rng) -> tuple:
    graph = randgen.random_hamiltonian(rng, n_max=10)
    t1, t2 = rng.uniform(-3.0, 3.0, size=2)
    return graph, float(t1), float(t2)


def _group_property(group) -> np.ndarray:
    graphs, t1, t2 = zip(*group)
    u = spectra(graphs).propagator_batch
    t1, t2 = np.array(t1), np.array(t2)
    return _gaps(u(t1 + t2), u(t1) @ u(t2))


def _draw_spectral_shift(rng) -> tuple:
    graph = randgen.random_hamiltonian(rng, n_max=8)
    shift = rng.uniform(-3.0, 3.0)
    diag = graph.diagonal()
    shifted = WalkHamiltonian(
        graph.n_nodes, graph.edges,
        tuple((v, float(diag[v] + shift)) for v in range(graph.n_nodes)))
    return graph, shifted, rng.uniform(-4.0, 4.0)


def _random_gate(rng) -> GateSpec:
    return GateSpec(0, 1, rng.uniform(-TWO_PI, TWO_PI), rng.uniform(-TWO_PI, TWO_PI))


def _rz_conjugation_identity(gate) -> float:
    pre, sym, post = rz_decompose(gate)
    return _gap(pre @ sym @ post, gate_qubit_space(gate))


def _gate_embedding(group) -> np.ndarray:
    """Qubit gate restricted to {|10>, |01>} equals the node engine's gate."""
    gates = [gate for gate, in group]
    rows = _single_excitation_rows(2)
    restricted = np.array([gate_qubit_space(gate)[np.ix_(rows, rows)] for gate in gates])
    return _gaps(restricted, _unitary_stack(2, [[gate] for gate in gates]))


def _draw_zero_alpha_palindrome(rng) -> tuple:
    n = int(rng.integers(2, 7))
    return (randgen.random_palindrome(rng, n, int(rng.integers(1, 7)), zero_alpha=True),)


def _palindrome_amplitude_symmetry(group) -> np.ndarray:
    u = _unitary_stack(group[0][0].n_nodes, [circuit.full for circuit, in group])
    return _gaps(u, u.swapaxes(-1, -2))


def _circuit_pts(group) -> np.ndarray:
    return _pts_skew(np.abs(_unitary_stack(group[0][0].n_nodes,
                                           [circuit.full for circuit, in group])) ** 2)


def _draw_flux_dependence(rng, inject_fault: bool = False) -> tuple:
    """Triangle transport depends on per-gate phases only through their sum.

    Two phase assignments with equal total flux are gauge images of each
    other, so their probability tables must agree.  ``inject_fault`` flips
    one phase sign in the second assignment (changing the flux) and is
    expected to make this property fail; it exists to prove the harness
    can see a genuine violation.
    """
    phases = rng.uniform(-np.pi, np.pi, size=3)
    theta = rng.uniform(-np.pi, np.pi)
    lam = rng.uniform(-np.pi, np.pi, size=3)
    # same-flux redistribution: subtract a discrete gradient
    redistributed = np.array([phases[0] + lam[0] - lam[1],
                              phases[1] + lam[1] - lam[2],
                              phases[2] + lam[2] - lam[0]])
    if inject_fault:
        redistributed[0] = -redistributed[0]
    return tuple(PalindromicCircuit(3, tuple(GateSpec(i, j, float(phase), theta)
                                             for (i, j), phase in zip(_TRIANGLE, assignment)))
                 for assignment in (phases, redistributed))


def _flux_dependence(group) -> np.ndarray:
    tables = np.abs(_unitary_stack(3, [c.full for pair in group for c in pair])) ** 2
    return _gaps(tables[0::2], tables[1::2])


def _draw_trotter_order(rng) -> tuple:
    phase = rng.uniform(-1.0, 1.0)
    return (WalkHamiltonian(3, (Edge(0, 1, 1.0, phase), Edge(1, 2, 1.0, phase),
                                Edge(0, 2, 1.0, -phase))),)


def _trotter_order(graph) -> float:
    """Halving the step 0.1 or 0.05 shrinks the splitting error ~8x (third order)."""
    errors = np.array([trotter_error(graph, step) for step in (0.1, 0.05, 0.025)])
    return _gap(errors[:-1] / errors[1:], 8.0)


def _draw_palindrome(rng) -> tuple:
    n = int(rng.integers(2, 7))
    return (randgen.random_palindrome(rng, n, int(rng.integers(1, 6))),)


def _nonbipartite_asymmetry(name: str, default_trials: int, threshold: float):
    """Odd cycles with generic flux break symmetry detectably, in 95% of trials."""
    def run(rng, trials: int = default_trials) -> PropertyResult:
        detected, least = 0, math.inf
        for residuals in map(_pts_residuals, _stacks(
                lambda r: (randgen.random_nonbipartite(r, 12),), rng, trials, _nodes)):
            detected += sum(residual > threshold for residual in residuals)
            least = float(np.min(residuals, initial=least))
        return PropertyResult(name, trials, least, threshold, 20 * detected >= 19 * trials,
                              f"detected {detected}/{trials}")
    return name, run


def _table_normalization(name: str, default_trials: int, bound: float):
    """Time sweeps, then one circuit grid drawn after them, have unit column sums."""
    _, sweeps = _stacked(name, default_trials, bound,
                         lambda rng: (randgen.random_hamiltonian(rng, n_max=10),),
                         _per_graph(lambda graph: sweep_time(
                             graph, default_time_samples(graph)[7::8]).column_sum_defect()))

    def run(rng, trials: int = default_trials) -> PropertyResult:
        worst = sweeps(rng, trials).worst
        grid = circuit_sweep_table(rng.uniform(0, TWO_PI, size=4),
                                   rng.uniform(-np.pi, np.pi, size=16))
        return _judge(name, trials, bound, [worst, grid.column_sum_defect()])
    return name, run


PROPERTY_SUITE: tuple[tuple[str, Callable], ...] = (
    _stacked("gauge-invariance", 200, 1e-12, _draw_gauge_invariance, _same_probabilities),
    _stacked("forest-pts", 100, DEFAULTS.pts, _draw_forest, _pts_residuals),
    _stacked("bipartite-pts", 100, DEFAULTS.pts,
             lambda rng: (randgen.random_bipartite(rng, 12),), _pts_residuals),
    _stacked("forest-phase-independence", 100, 1e-9, _draw_forest,
             _forest_phase_independence),
    _stacked("parity-split-agreement", 60, 1e-12, _draw_parity_split,
             _per_graph(_parity_split_agreement)),
    _stacked("negation-time-reversal", 100, 1e-12,
             lambda rng: (randgen.random_bipartite(rng, 10), rng.uniform(0.1, 5.0)),
             _negation_time_reversal),
    _stacked("cycle-flux-gauge-invariance", 100, 1e-12, _draw_cycle_flux,
             _each(_cycle_flux_gauge_invariance)),
    _stacked("unitarity", 100, 1e-10,
             lambda rng: (randgen.random_hamiltonian(rng, n_max=16), rng.uniform(-10.0, 10.0)),
             _unitarity),
    _stacked("group-property", 100, 1e-9, _draw_group_property, _group_property),
    _stacked("spectral-shift", 100, 1e-12, _draw_spectral_shift, _same_probabilities),
    _stacked("rz-conjugation-identity", 100, 1e-12, lambda rng: (_random_gate(rng),),
             _each(_rz_conjugation_identity), lambda instance: (2,)),
    _stacked("gate-embedding", 100, 1e-12, lambda rng: (_random_gate(rng),), _gate_embedding,
             lambda instance: (2,)),
    _stacked("palindrome-amplitude-symmetry", 100, 1e-12, _draw_zero_alpha_palindrome,
             _palindrome_amplitude_symmetry, _nodes_and_gates),
    _stacked("spanning-tree-circuit-pts", 100, 1e-10,
             lambda rng: (randgen.random_spanning_tree_palindrome(rng),), _circuit_pts,
             _nodes_and_gates),
    _stacked("bipartite-circuit-pts", 100, 1e-10,
             lambda rng: (randgen.random_bipartite_palindrome(rng),), _circuit_pts,
             _nodes_and_gates),
    _stacked("flux-dependence", 100, 1e-10, _draw_flux_dependence, _flux_dependence,
             _nodes_and_gates),
    _stacked("trotter-order", 2, 2.0, _draw_trotter_order, _per_graph(_trotter_order)),
    _stacked("excitation-preservation", 100, 1e-12, _draw_palindrome,
             _each(lambda circuit: excitation_preservation_check(circuit))),
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
