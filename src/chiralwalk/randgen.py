"""Seeded random instances for property suites and stress tests."""

from __future__ import annotations

import numpy as np

from .circuit import GateSpec, PalindromicCircuit
from .graph import Edge, GraphSkeleton, WalkHamiltonian


def _random_edge_params(rng: np.random.Generator) -> tuple[float, float]:
    return rng.uniform(0.5, 1.5), rng.uniform(-np.pi, np.pi)


def random_tree_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform random attachment tree on n nodes."""
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def random_forest(rng: np.random.Generator, n_max: int = 12,
                  with_self_energies: bool = False) -> WalkHamiltonian:
    n = int(rng.integers(2, n_max + 1))
    edges = [Edge(i, j, *_random_edge_params(rng))
             for i, j in random_tree_edges(rng, n)
             if rng.random() < 0.85]
    selfs = ()
    if with_self_energies and rng.random() < 0.5:
        selfs = tuple((v, rng.uniform(-1.0, 1.0)) for v in range(n) if rng.random() < 0.4)
    return WalkHamiltonian(n, tuple(edges), selfs)


def _bipartite_edges(rng: np.random.Generator, n_max: int) -> tuple[int, list[Edge]]:
    """Node count and edges, ``i < j`` in ascending order, of a random
    bipartite graph with at least one edge."""
    n = int(rng.integers(2, n_max + 1))
    color = rng.integers(0, 2, size=n)
    color[0], color[-1] = 0, 1  # both classes inhabited
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if color[i] != color[j]]
    edges = [Edge(i, j, *_random_edge_params(rng))
             for i, j in pairs if rng.random() < 0.5]
    if not edges:
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        edges = [Edge(i, j, *_random_edge_params(rng))]
    return n, edges


def random_bipartite(rng: np.random.Generator, n_max: int = 12) -> WalkHamiltonian:
    """Random bipartite Hamiltonian with zero diagonal and at least one edge."""
    n, edges = _bipartite_edges(rng, n_max)
    return WalkHamiltonian(n, tuple(edges))


def random_nonbipartite(rng: np.random.Generator, n_max: int = 12) -> WalkHamiltonian:
    """Connected graph with an odd cycle, random phases, zero diagonal."""
    n = int(rng.integers(3, n_max + 1))
    pairs = set(random_tree_edges(rng, n))
    while True:
        skel = GraphSkeleton(n, tuple(sorted(pairs)))
        if skel.odd_edge is not None:
            break
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        pairs.add((i, j))
    edges = tuple(Edge(i, j, *_random_edge_params(rng)) for i, j in sorted(pairs))
    return WalkHamiltonian(n, edges)


def random_hamiltonian(rng: np.random.Generator, n_max: int = 8) -> WalkHamiltonian:
    """Arbitrary-class random Hamiltonian (may be forest, bipartite, neither)."""
    n = int(rng.integers(2, n_max + 1))
    edges = [Edge(i, j, *_random_edge_params(rng))
             for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    if not edges:
        edges = [Edge(0, n - 1, *_random_edge_params(rng))]
    selfs = ()
    if rng.random() < 0.4:
        selfs = tuple((v, rng.uniform(-1.0, 1.0)) for v in range(n) if rng.random() < 0.5)
    return WalkHamiltonian(n, tuple(edges), selfs)


def random_gauge(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(a) for a in rng.uniform(-np.pi, np.pi, size=n))


def random_ring_with_chords(rng: np.random.Generator,
                            n_max: int = 10) -> tuple[WalkHamiltonian, tuple[int, ...]]:
    """Graph containing a known ring 0..L-1; returns it with the closed walk."""
    length = int(rng.integers(3, max(4, n_max + 1)))
    pairs = {(v, (v + 1) % length) for v in range(length)}
    pairs = {(min(a, b), max(a, b)) for a, b in pairs}
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(0, length - 1))
        j = int(rng.integers(i + 1, length))
        pairs.add((i, j))
    edges = tuple(Edge(i, j, *_random_edge_params(rng)) for i, j in sorted(pairs))
    cycle = tuple(range(length)) + (0,)
    return WalkHamiltonian(length, edges), cycle


def random_palindrome(rng: np.random.Generator, n: int, gate_count: int,
                      zero_alpha: bool = False) -> PalindromicCircuit:
    half = []
    for _ in range(gate_count):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        alpha = 0.0 if zero_alpha else rng.uniform(-np.pi, np.pi)
        half.append(GateSpec(i, j, alpha, rng.uniform(-np.pi, np.pi)))
    return PalindromicCircuit(n, half)


def random_spanning_tree_palindrome(rng: np.random.Generator) -> PalindromicCircuit:
    """Palindrome on 2 to 8 nodes whose half holds one random-phase gate per tree edge."""
    n = int(rng.integers(2, 9))
    pairs = random_tree_edges(rng, n)
    rng.shuffle(pairs)
    half = [GateSpec(i, j, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            for i, j in pairs]
    return PalindromicCircuit(n, half)


def random_bipartite_palindrome(rng: np.random.Generator) -> PalindromicCircuit:
    """Palindrome on 2 to 8 nodes whose support is bipartite; gates may repeat edges."""
    n, edges = _bipartite_edges(rng, 8)
    pairs = [(e.i, e.j) for e in edges]
    half = []
    for _ in range(int(rng.integers(1, 2 * len(pairs) + 1))):
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        half.append(GateSpec(i, j, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)))
    return PalindromicCircuit(n, half)
