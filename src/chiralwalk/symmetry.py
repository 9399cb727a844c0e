"""Time-reversal classification of walk Hamiltonians.

Structural verdicts are exact graph computations on the support skeleton;
numeric verdicts sample ``|U(t)[i, j]|^2 - |U(t)[j, i]|^2`` on a spectral
time grid.  Gauge certificates witness the structural claims: a forest
admits a phase-removal gauge, a bipartite graph a sign-flip gauge.

Gauge convention, fixed project-wide: ``apply_gauge`` maps each directed
phase ``alpha(u -> v)`` to ``alpha(u -> v) + lambda_u - lambda_v`` (dense
form ``H -> L H L^dag`` with ``L = diag(exp(1j * lambda))``).  The sign is
anchored by the round trip ``apply_gauge(H, tree_phase_removal(H))`` having
all edge phases zero, which the test suite enforces.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .defaults import DEFAULTS
from .graph import Edge, GraphSkeleton, WalkHamiltonian, _check_node, fmt_real, skeleton
from .propagator import chunk_length, propagate, spectrum

TWO_PI = 2.0 * math.pi


class BipartiteCheck(NamedTuple):
    bipartite: bool
    coloring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None


def apply_gauge(hamiltonian: WalkHamiltonian, lam: Sequence[float]) -> WalkHamiltonian:
    """Conjugate by the diagonal unitary diag(e^{i lam}); diagonals are untouched."""
    if len(lam) != hamiltonian.n_nodes:
        raise ValueError(f"gauge has {len(lam)} phases for {hamiltonian.n_nodes} nodes")
    new_edges = tuple(Edge(e.i, e.j, e.h, e.alpha + lam[e.i] - lam[e.j])
                      for e in hamiltonian.edges)
    return WalkHamiltonian(hamiltonian.n_nodes, new_edges,
                           hamiltonian.self_energies, hamiltonian.labels)


def _odd_walk(u: int, v: int, parent: Sequence[int]) -> tuple[int, ...]:
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    path_v = [v]
    while parent[path_v[-1]] != -1:
        path_v.append(parent[path_v[-1]])
    # drop the shared tail above the lowest common ancestor
    while len(path_u) >= 2 and len(path_v) >= 2 and path_u[-2] == path_v[-2]:
        path_u.pop()
        path_v.pop()
    return tuple(reversed(path_u)) + tuple(path_v)


def is_bipartite(skel: GraphSkeleton) -> BipartiteCheck:
    """Two-coloring by depth parity; self-edges are length-1 odd cycles."""
    if skel.self_nodes:
        node = skel.self_nodes[0]
        return BipartiteCheck(False, None, (node, node))
    if skel.odd_edge is not None:
        return BipartiteCheck(False, None, _odd_walk(*skel.odd_edge, skel.parent))
    return BipartiteCheck(True, skel.color, None)


def is_forest(skel: GraphSkeleton) -> bool:
    """True when the simple edges are acyclic (self-edges do not count):
    a spanning forest of N nodes and C components has exactly N - C edges."""
    return len(skel.edges) == skel.n_nodes - skel.parent.count(-1)


def tree_phase_removal(hamiltonian: WalkHamiltonian) -> tuple[float, ...]:
    """Gauge zeroing every edge phase of a forest.

    Roots each component and propagates ``lambda_child = lambda_parent +
    alpha(parent -> child)``, so the gauged phase ``alpha + lambda_parent -
    lambda_child`` vanishes edge by edge.
    """
    skel = skeleton(hamiltonian)
    if not is_forest(skel):
        raise ValueError("support graph is not a forest")
    lam = [0.0] * hamiltonian.n_nodes
    for v in skel.order:
        u = skel.parent[v]
        if u != -1:
            lam[v] = lam[u] + hamiltonian.directed_phase(u, v)
    return tuple(lam)


def bipartite_negation_gauge(hamiltonian: WalkHamiltonian) -> tuple[float, ...]:
    """Gauge with lambda = 0 / pi on the two color classes, flipping H's sign.

    Requires all self-energies equal: the sign flip acts on the Hamiltonian
    after its uniform diagonal has been removed.
    """
    skel = skeleton(hamiltonian)
    if skel.self_nodes:
        raise ValueError("self-energies must all be equal for a negation gauge")
    check = is_bipartite(skel)
    if not check.bipartite:
        raise ValueError("support graph is not bipartite")
    return tuple(math.pi * c for c in check.coloring)


def default_time_samples(hamiltonian: WalkHamiltonian) -> tuple[float, ...]:
    """The graph's grid: ``DEFAULTS.pts_samples`` uniform times in (0, 2*pi / ||H||]."""
    scale = spectrum(hamiltonian).spectral_norm
    if scale <= 0.0:
        scale = 1.0
    horizon = TWO_PI / scale
    if not math.isfinite(horizon):
        raise ValueError(f"2*pi over the graph's spectral norm {scale!r} overflows a float")
    count = DEFAULTS.pts_samples
    return tuple(horizon * (k / count) for k in range(1, count + 1))  # none past the horizon


def _pts_skew(probabilities: np.ndarray) -> np.ndarray:
    """Each matrix's max ``p_ij - p_ji``: exact as ``p - p^T`` is antisymmetric; a NaN stays."""
    return (probabilities - probabilities.swapaxes(-1, -2)).max(axis=(-2, -1))


def pts_numeric(hamiltonian: WalkHamiltonian) -> float:
    """Sampled probability-symmetry residual (evidence, not a proof).

    The worst ``|U(t)[i, j]|^2 - |U(t)[j, i]|^2`` over the graph's own grid
    ``default_time_samples(H)`` and all node pairs: the largest of the
    per-chunk maxima, NaN when any chunk holds a NaN.  ``classify`` judges it
    against a tolerance; ``sweep_time`` gives probabilities at other times.
    """
    dec, times = spectrum(hamiltonian), np.asarray(default_time_samples(hamiltonian))
    step = chunk_length(dec.n)
    return float(np.max([_pts_skew(np.abs(dec.propagator_batch(times[k:k + step])) ** 2).max()
                         for k in range(0, len(times), step)]))


def eq_parity_residual(hamiltonian: WalkHamiltonian, t: float) -> np.ndarray:
    """Residual of the odd/even path-parity balance at time t, for every pair.

    Splits U = exp(-iHt) into its even part (U^dag + U)/2 and odd part
    (U^dag - U)/2 and returns the N x N matrix whose ``[i, j]`` entry is
    ``odd[j,i] * even[i,j] - odd[i,j] * even[j,i]``; it vanishes exactly when
    the pair's transition probabilities are time-symmetric at t.
    """
    u = propagate(hamiltonian, t)
    udag = u.conj().T
    even = (udag + u) / 2.0
    odd = (udag - u) / 2.0
    return odd.T * even - odd * even.T


def cycle_flux(hamiltonian: WalkHamiltonian, cycle: Sequence[int]) -> float:
    """Sum of directed edge phases around a closed walk, reduced to (-pi, pi].

    Gauge transformations shift each directed phase by a telescoping
    difference, so the flux is gauge-invariant.
    """
    cycle = [_check_node(v, "cycle node") for v in cycle]
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise ValueError("cycle must be a closed walk (first node repeated last)")
    total = 0.0
    for u, v in zip(cycle, cycle[1:]):
        total += hamiltonian.directed_phase(u, v)
    reduced = math.remainder(total, TWO_PI)
    if reduced <= -math.pi:
        reduced += TWO_PI
    return reduced


def _report_text(value) -> str:
    """One report value as text: absent ``""``, a tuple ``;``-joined, a flag
    ``Yes``/``No`` (numpy's too), a real through ``fmt_real``."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(map(_report_text, value))
    if isinstance(value, (bool, np.bool_)):
        return "Yes" if value else "No"
    return fmt_real(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class SymmetryReport:
    """Structural class, certificates and numeric residual for one Hamiltonian."""

    structural_class: str
    n_nodes: int
    n_edges: int
    is_forest: bool
    is_bipartite: bool
    structural_pts: bool
    phase_dependent: bool
    numeric_pts_residual: float
    pts_symmetric_at_samples: bool
    two_coloring: tuple[int, ...] | None = None
    odd_cycle: tuple[int, ...] | None = None
    phase_removal_gauge: tuple[float, ...] | None = None
    negation_gauge: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def fields(self) -> dict[str, str]:
        """Every field as its report text, in declaration order; an absent
        certificate is ``""`` and ``labels`` read ``name:index``."""
        values = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        if self.labels is not None:
            values["labels"] = tuple(f"{name}:{k}" for k, name in enumerate(self.labels))
        return {name: _report_text(value) for name, value in values.items()}

    def to_text(self) -> str:
        return "".join(f"{name}={value}\n" for name, value in self.fields().items() if value)

    @staticmethod
    def csv_header() -> str:
        return ",".join(field.name for field in dataclasses.fields(SymmetryReport))

    def to_csv_row(self) -> str:
        # minimal quoting: only a field holding ',', '"' or a line break is quoted
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(self.fields().values())
        return buffer.getvalue()[:-1]


def classify(hamiltonian: WalkHamiltonian, tol: float = DEFAULTS.pts) -> SymmetryReport:
    """Full structural + numeric symmetry report for one Hamiltonian."""
    skel = skeleton(hamiltonian)
    bipartite_check = is_bipartite(skel)
    forest = is_forest(skel)

    if forest:
        structural_class = "tree-with-self-edges" if skel.self_nodes else "tree"
    elif bipartite_check.bipartite:
        structural_class = "bipartite-with-cycles"
    else:
        structural_class = "non-bipartite"

    phase_removal = tree_phase_removal(hamiltonian) if forest else None
    negation = (bipartite_negation_gauge(hamiltonian)
                if bipartite_check.bipartite else None)
    residual = pts_numeric(hamiltonian)

    return SymmetryReport(
        structural_class=structural_class,
        n_nodes=hamiltonian.n_nodes,
        n_edges=len(hamiltonian.edges),
        is_forest=forest,
        is_bipartite=bipartite_check.bipartite,
        structural_pts=forest or bipartite_check.bipartite,
        phase_dependent=not forest,
        numeric_pts_residual=residual,
        pts_symmetric_at_samples=residual <= tol,
        two_coloring=bipartite_check.coloring,
        odd_cycle=bipartite_check.odd_cycle,
        phase_removal_gauge=phase_removal,
        negation_gauge=negation,
        labels=hamiltonian.labels,
    )
