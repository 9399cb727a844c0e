"""Test graphs shared by the test modules, built as WalkHamiltonians, and
the qubit-space reading of a circuit's node block."""

from __future__ import annotations

import numpy as np

from chiralwalk import Edge, PalindromicCircuit, WalkHamiltonian
from chiralwalk.circuit import _qubit_columns, _single_excitation_rows


def uniform_triangle(alpha: float) -> WalkHamiltonian:
    """Unit-magnitude triangle with the same phase on every edge: flux 3 alpha."""
    return WalkHamiltonian(3, (Edge(0, 1, 1.0, alpha), Edge(1, 2, 1.0, alpha),
                               Edge(2, 0, 1.0, alpha)))


def hermitian_graph(rng: np.random.Generator, n: int) -> WalkHamiltonian:
    """Complete graph on n nodes: a random magnitude and phase on every pair
    and a random real self-energy on every node, so a generic Hermitian H."""
    edges = tuple(Edge(i, j, float(rng.uniform(0.1, 2.0)),
                       float(rng.uniform(-np.pi, np.pi)))
                  for i in range(n) for j in range(i + 1, n))
    selfs = tuple((v, float(rng.normal())) for v in range(n))
    return WalkHamiltonian(n, edges, selfs)


def qubit_block(circuit: PalindromicCircuit) -> np.ndarray:
    """N x N single-excitation block of the qubit statevector run,
    ``B[i, j] = <i excited| circuit |j excited>``: the node-space unitary."""
    return _qubit_columns(circuit)[_single_excitation_rows(circuit.n_nodes)]
