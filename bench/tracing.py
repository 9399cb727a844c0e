"""Spans around the calls into each ``chiralwalk`` layer, recorded from outside.

``cli``, ``symmetry``, ``properties`` and ``circuit`` bind names at import
(``from .propagator import sweep_time``), so wrapping a function in its
defining module alone would miss those callers.  ``Patches.rebind`` replaces
every module-level binding of a function across the package, methods are
wrapped on their class, and the property suites are wrapped inside the
``PROPERTY_SUITE`` tuple that ``run_property_suite`` reads.  A wrapper left
on a stale binding reads zero calls, so the run checks that every span
expected on a workload was entered.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

PROPERTY_SUITES = (
    "gauge-invariance", "forest-pts", "bipartite-pts", "forest-phase-independence",
    "parity-split-agreement", "negation-time-reversal", "cycle-flux-gauge-invariance",
    "unitarity", "group-property", "spectral-shift", "rz-conjugation-identity",
    "gate-embedding", "palindrome-amplitude-symmetry", "spanning-tree-circuit-pts",
    "bipartite-circuit-pts", "flux-dependence", "trotter-order",
    "excitation-preservation", "non-bipartite-asymmetry", "table-normalization",
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("propagator.propagator_batch.calls", "count", "lower"),
    ("propagator.propagator_batch.s", "s", "lower"),
    ("propagator.propagator_batch.bytes", "bytes_computed", "lower"),
    ("propagator.propagator_batch.flop", "flop_computed", "lower"),
    ("propagator.eig_hermitian.calls", "count", "lower"),
    ("propagator.eig_hermitian.s", "s", "lower"),
    ("propagator.sweep_time.s", "s", "lower"),
    ("propagator.sweep_time.self_s", "s", "lower"),
    ("propagator.TransportTable.to_csv.s", "s", "lower"),
    ("propagator.TransportTable.to_csv.rows", "rows", "lower"),
    ("propagator.TransportTable.to_csv.bytes", "bytes", "lower"),
    ("propagator.propagate.calls", "count", "lower"),
    ("propagator.propagate.s", "s", "lower"),
    ("symmetry.classify.s", "s", "lower"),
    ("symmetry.classify.self_s", "s", "lower"),
    ("symmetry.pts_numeric.s", "s", "lower"),
    ("symmetry.pts_numeric.self_s", "s", "lower"),
    ("symmetry.is_bipartite.s", "s", "lower"),
    ("symmetry.is_forest.s", "s", "lower"),
    ("symmetry.tree_phase_removal.s", "s", "lower"),
    ("symmetry.bipartite_negation_gauge.s", "s", "lower"),
    ("graph.parse_graph.calls", "count", "lower"),
    ("graph.parse_graph.s", "s", "lower"),
    ("graph.to_dense.calls", "count", "lower"),
    ("graph.to_dense.s", "s", "lower"),
    ("circuit.apply_circuit.node.calls", "count", "lower"),
    ("circuit.apply_circuit.node.s", "s", "lower"),
    ("circuit.apply_circuit.node.gates", "gates", "lower"),
    ("circuit.qubit_statevector.calls", "count", "lower"),
    ("circuit.qubit_statevector.s", "s", "lower"),
    ("circuit.qubit_statevector.gates", "gates", "lower"),
    ("circuit.excitation_preservation_check.s", "s", "lower"),
    ("circuit.trotter_error.calls", "count", "lower"),
    ("circuit.trotter_error.s", "s", "lower"),
    ("circuit.three_cycle_unitaries.s", "s", "lower"),
    ("circuit.three_cycle_unitaries.points", "points", "lower"),
    *((f"properties.{suite}.s", "s", "lower") for suite in PROPERTY_SUITES),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_COMMON = ("cli.main", "graph.parse_graph")
EXPECTED_SPANS = {
    "classify-batch": _COMMON + (
        "graph.to_dense", "propagator.eig_hermitian", "propagator.propagator_batch",
        "symmetry.classify", "symmetry.pts_numeric", "symmetry.is_bipartite",
        "symmetry.is_forest", "symmetry.tree_phase_removal",
        "symmetry.bipartite_negation_gauge"),
    "evolve-table": _COMMON + (
        "graph.to_dense", "propagator.eig_hermitian", "propagator.propagator_batch",
        "propagator.sweep_time", "propagator.TransportTable.to_csv"),
    "circuit-suite": _COMMON + (
        "circuit.apply_circuit.node", "circuit.qubit_statevector",
        "circuit.excitation_preservation_check", "circuit.trotter_error",
        "circuit.three_cycle_unitaries", "propagator.propagate",
        "propagator.eig_hermitian", "propagator.sweep_time", "symmetry.pts_numeric",
        "propagator.TransportTable.to_csv",
        *(f"properties.{suite}" for suite in PROPERTY_SUITES)),
}


class Tracer:
    """In-memory spans: name, start, end, parent index, and counts."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, counts]
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, index: int, counts: dict | None = None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = counts
        self._open.pop()

    def wrap(self, fn: Callable, name: str | Callable, counts: Callable | None = None):
        """``fn`` inside a span; ``name`` may depend on the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.enter(name(*args, **kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(index, counts(result, *args, **kwargs) if counts else None)

        return traced

    def aggregate(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total s, self_s and summed counts, over spans[first:]."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, counts) in enumerate(self.spans[first:], first):
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            for key, value in (counts or {}).items():
                entry[key] += value
        return totals


class Patches:
    """Reversible attribute replacements across the loaded ``chiralwalk`` modules."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def rebind(self, original, replacement) -> int:
        """Replace every module-level binding of ``original``; returns how many."""
        count = 0
        for name, module in list(sys.modules.items()):
            if name != "chiralwalk" and not name.startswith("chiralwalk."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, replacement)
                    count += 1
        if count == 0:
            raise RuntimeError(f"no binding of {original.__qualname__} found")
        return count

    def restore(self) -> None:
        for owner, attribute, value in reversed(self._undo):
            setattr(owner, attribute, value)
        self._undo.clear()


def _batch_counts(result, decomposition, times, *_, **__) -> dict:
    t, n = len(times), decomposition.n
    return {"bytes": 16 * t * n * n, "flop": 8 * t * n ** 3}


def _csv_counts(result, *_, **__) -> dict:
    return {"rows": result.count("\n") - 1, "bytes": len(result)} if result else {}


def _space(circuit, space="node", *_, **__) -> str:
    return f"circuit.apply_circuit.{space}"


def _gate_counts(result, circuit, *_, **__) -> dict:
    return {"gates": len(circuit.full)}


def _statevector_counts(result, circuit, *_, **__) -> dict:
    return {"gates": len(circuit.full) * circuit.n_nodes}


def _grid_counts(result, alphas, thetas, *_, **__) -> dict:
    return {"points": len(alphas) * len(thetas)}


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer of the loaded package; ``restore()`` undoes it."""
    from chiralwalk import circuit, graph, properties, propagator, symmetry

    patches = Patches()
    functions = [
        (graph.parse_graph, "graph.parse_graph", None),
        (graph.to_dense, "graph.to_dense", None),
        (propagator.eig_hermitian, "propagator.eig_hermitian", None),
        (propagator.sweep_time, "propagator.sweep_time", None),
        (propagator.propagate, "propagator.propagate", None),
        (circuit.apply_circuit, _space, _gate_counts),
        (circuit._qubit_columns, "circuit.qubit_statevector", _statevector_counts),
        (circuit.excitation_preservation_check, "circuit.excitation_preservation_check", None),
        (circuit.trotter_error, "circuit.trotter_error", None),
        (circuit.three_cycle_unitaries, "circuit.three_cycle_unitaries", _grid_counts),
    ]
    functions += [(getattr(symmetry, name), f"symmetry.{name}", None)
                  for name in ("classify", "pts_numeric", "is_bipartite", "is_forest",
                               "tree_phase_removal", "bipartite_negation_gauge")]
    for fn, name, counts in functions:
        patches.rebind(fn, tracer.wrap(fn, name, counts))

    batch = propagator.SpectralDecomposition.propagator_batch
    patches.set(propagator.SpectralDecomposition, "propagator_batch",
                tracer.wrap(batch, "propagator.propagator_batch", _batch_counts))
    to_csv = propagator.TransportTable.to_csv
    patches.set(propagator.TransportTable, "to_csv",
                tracer.wrap(to_csv, "propagator.TransportTable.to_csv", _csv_counts))

    suites = dict(properties.PROPERTY_SUITE)
    if tuple(suites) != PROPERTY_SUITES:
        raise RuntimeError(f"PROPERTY_SUITE changed: {tuple(suites)}")
    patches.set(properties, "PROPERTY_SUITE",
                tuple((name, tracer.wrap(fn, f"properties.{name}"))
                      for name, fn in properties.PROPERTY_SUITE))
    return patches


def layer_metrics(passes: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    """Median over traced passes of every span-derived per-layer metric."""
    values = {}
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if span in ("cli", "trace"):
            continue
        values[name] = statistics.median(p.get(span, {}).get(stat, 0.0) for p in passes)
    return values


def missing_spans(workload: str, totals: dict[str, dict[str, float]]) -> list[str]:
    return [span for span in EXPECTED_SPANS[workload]
            if totals.get(span, {}).get("calls", 0) == 0]


def dominant_self_time(totals: dict[str, dict[str, float]]) -> list[tuple[str, float]]:
    """Span names by total self time, largest first."""
    return sorted(((name, entry["self_s"]) for name, entry in totals.items()),
                  key=lambda item: -item[1])
