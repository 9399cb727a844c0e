"""Complex-weighted graph Hamiltonians: data model, file format, validation.

A walk Hamiltonian over N labeled nodes stores each coupling as an edge
``(i, j, h, alpha)`` meaning matrix entry ``H[i, j] = h * exp(1j * alpha)``
with ``H[j, i]`` its complex conjugate; the diagonal holds real
self-energies.  Hermiticity is structural: edges are canonicalized to
``i < j`` (declaring ``(j, i, h, a)`` stores ``(i, j, h, -a)``), so the
dense matrix reconstructs conjugate pairs exactly rather than approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .defaults import DEFAULTS


class Edge(NamedTuple):
    i: int
    j: int
    h: float
    alpha: float


class GraphFormatError(ValueError):
    """Raised on malformed graph or circuit files; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _check_finite_real(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _check_node(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _add_edge(index: dict[tuple[int, int], Edge], raw, n_nodes: int) -> None:
    """Validate one ``(i, j, h, alpha)`` and store it canonically (``i < j``)
    in ``index``; the one edge check of both the constructor and the parser."""
    i, j, h, alpha = raw
    i, j = _check_node(i, "edge endpoint"), _check_node(j, "edge endpoint")
    if i == j:
        raise ValueError(f"self-coupling ({i}, {j}): endpoints coincide; use a self-energy")
    if not (0 <= i < n_nodes and 0 <= j < n_nodes):
        raise ValueError(f"edge ({i}, {j}) index out of range for {n_nodes} nodes")
    h = _check_finite_real(h, "edge magnitude")
    alpha = _check_finite_real(alpha, "edge phase")
    if h == 0.0:
        raise ValueError(f"edge ({i}, {j}) has zero magnitude; omit zero-magnitude edges")
    if h < 0.0:
        raise ValueError(f"edge ({i}, {j}) has negative magnitude {h}")
    if i > j:
        i, j, alpha = j, i, -alpha
    if (i, j) in index:
        raise ValueError(f"duplicate edge ({i}, {j})")
    index[i, j] = Edge(i, j, h, alpha)


def _add_self_energy(selfs: dict[int, float], entry, n_nodes: int) -> None:
    """Validate one real ``(node, energy)`` and store it in ``selfs``."""
    node, energy = entry
    node = _check_node(node, "self-energy node")
    if not (0 <= node < n_nodes):
        raise ValueError(f"self-energy node {node} out of range")
    if node in selfs:
        raise ValueError(f"duplicate self-energy for node {node}")
    if isinstance(energy, complex) and energy.imag != 0.0:
        raise ValueError(f"self-energy of node {node} must be real, got {energy!r}")
    selfs[node] = _check_finite_real(energy, "self-energy")


@dataclass(frozen=True)
class WalkHamiltonian:
    """Hermitian walk generator over ``n_nodes`` basis states.

    Immutable after construction; edges are stored canonically (``i < j``,
    sorted) and ``self_energies`` as sorted ``(node, energy)`` pairs.
    ``labels`` optionally records the string names a graph file used for
    each index, for traceability in reports.
    """

    n_nodes: int
    edges: tuple[Edge, ...] = ()
    self_energies: tuple[tuple[int, float], ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n_nodes, int) or self.n_nodes < 1:
            raise ValueError("n_nodes must be a positive integer")
        index: dict[tuple[int, int], Edge] = {}
        for raw in self.edges:
            _add_edge(index, raw, self.n_nodes)
        object.__setattr__(self, "edges", tuple(sorted(index.values())))

        selfs: dict[int, float] = {}
        for entry in self.self_energies:
            _add_self_energy(selfs, entry, self.n_nodes)
        object.__setattr__(self, "self_energies", tuple(sorted(selfs.items())))

        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) > self.n_nodes:
                raise ValueError("more labels than nodes")
            object.__setattr__(self, "labels", labels)

        object.__setattr__(self, "_edge_index", index)

    def directed_phase(self, u: int, v: int) -> float:
        """Phase of the dense entry ``H[u, v]`` (raises if the edge is absent)."""
        edge = self._edge_index.get((u, v) if u < v else (v, u))  # type: ignore[attr-defined]
        if edge is None:
            raise ValueError(f"no edge between {u} and {v}")
        return edge.alpha if u < v else -edge.alpha

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.n_nodes)
        for node, energy in self.self_energies:
            diag[node] = energy
        return diag

    @cached_property
    def _skeleton(self) -> GraphSkeleton:
        diag = self.diagonal()
        shifted = diag - diag.min()
        self_nodes = tuple(int(i) for i in np.flatnonzero(shifted > DEFAULTS.self_edge))
        return GraphSkeleton(self.n_nodes, tuple((e.i, e.j) for e in self.edges), self_nodes)

    def zero_phase_copy(self) -> "WalkHamiltonian":
        edges = tuple(Edge(e.i, e.j, e.h, 0.0) for e in self.edges)
        return WalkHamiltonian(self.n_nodes, edges, self.self_energies, self.labels)


@dataclass(frozen=True)
class GraphSkeleton:
    """Unweighted support structure: simple edges plus self-edge markers.

    Construction lays the breadth-first spanning forest of the simple edges,
    roots in index order: the visit ``order``, each node's tree ``parent``
    (-1 at a root) and depth-parity ``color``, and the first ``odd_edge``
    joining two nodes of one color (``None`` if none); equality ignores them.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    self_nodes: tuple[int, ...] = ()
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)
    parent: tuple[int, ...] = field(init=False, compare=False, repr=False)
    color: tuple[int, ...] = field(init=False, compare=False, repr=False)
    odd_edge: tuple[int, int] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adjacency: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        parent = [-1] * self.n_nodes
        color = [-1] * self.n_nodes
        order: list[int] = []  # also the queue: order[head:] waits to be expanded
        head = 0
        odd_edge = None
        for root in range(self.n_nodes):
            if color[root] != -1:
                continue
            color[root] = 0
            order.append(root)
            while head < len(order):
                u = order[head]
                head += 1
                for v in adjacency[u]:
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        parent[v] = u
                        order.append(v)
                    elif odd_edge is None and color[v] == color[u]:
                        odd_edge = (u, v)
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "color", tuple(color))
        object.__setattr__(self, "odd_edge", odd_edge)


def to_dense(hamiltonian: WalkHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix; conjugate pairs are exact by construction."""
    n = hamiltonian.n_nodes
    matrix = np.zeros((n, n), dtype=complex)
    for i, j, h, alpha in hamiltonian.edges:
        value = h * np.exp(1j * alpha)
        matrix[i, j] = value
        matrix[j, i] = value.conjugate()
    for node, energy in hamiltonian.self_energies:
        matrix[node, node] = energy
    return matrix


def skeleton(hamiltonian: WalkHamiltonian) -> GraphSkeleton:
    """Support graph of the Hamiltonian, built on first use and kept on it.

    A node carries a self-edge only when its energy exceeds the minimum
    diagonal by more than ``DEFAULTS.self_edge``: adding the same constant to
    every self-energy does not change the walk, so a uniform diagonal is
    no structure at all.
    """
    return hamiltonian._skeleton


def fmt_real(x: float) -> str:
    """17 significant digits: the shortest fixed width that round-trips every float64."""
    return format(float(x), ".17g")


def render_graph(hamiltonian: WalkHamiltonian) -> str:
    """Graph-file text for the Hamiltonian; ``parse_graph`` round-trips it."""
    lines = [f"nodes {hamiltonian.n_nodes}"]
    for i, j, h, alpha in hamiltonian.edges:
        lines.append(f"edge {i} {j} {fmt_real(h)} {fmt_real(alpha)}")
    for node, energy in hamiltonian.self_energies:
        lines.append(f"self {node} {fmt_real(energy)}")
    return "\n".join(lines) + "\n"


def _looks_like_int(token: str) -> bool:
    """An optional sign and ASCII digits: the integer rule of graph and circuit files."""
    body = token[1:] if token[:1] in "+-" else token
    return body.isascii() and body.isdigit()


def _parse_int(token: str, what: str, line: int) -> int:
    if not _looks_like_int(token):
        raise GraphFormatError(f"bad {what} {token!r}", line)
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise GraphFormatError(f"{what} has {len(token)} digits", line) from None


class _NodeResolver:
    """Maps node tokens to dense indices.

    Integer tokens are indices directly; non-integer tokens are string
    labels assigned indices in order of first appearance.  The two styles
    cannot be mixed within one file.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.mode: str | None = None
        self.label_map: dict[str, int] = {}

    def resolve(self, token: str, line: int) -> int:
        if _looks_like_int(token):
            if self.mode == "label":
                raise GraphFormatError("cannot mix integer indices and string labels", line)
            self.mode = "index"
            index = _parse_int(token, "node index", line)
            if not (0 <= index < self.n_nodes):
                raise GraphFormatError(f"node index {index} out of range", line)
            return index
        if self.mode == "index":
            raise GraphFormatError("cannot mix integer indices and string labels", line)
        self.mode = "label"
        if token not in self.label_map:
            if len(self.label_map) >= self.n_nodes:
                raise GraphFormatError(f"label {token!r} exceeds declared node count", line)
            self.label_map[token] = len(self.label_map)
        return self.label_map[token]

    def labels(self) -> tuple[str, ...] | None:
        if self.mode != "label":
            return None
        return tuple(sorted(self.label_map, key=self.label_map.get))


def _parse_real(token: str, what: str, line: int) -> float:
    """The real rule of graph and circuit files: ``float()`` on ASCII without ``_``."""
    if not token.isascii() or "_" in token:
        raise GraphFormatError(f"bad {what} {token!r}", line)
    try:
        value = float(token)
    except ValueError:
        raise GraphFormatError(f"bad {what} {token!r}", line) from None
    if not math.isfinite(value):
        raise GraphFormatError(f"{what} must be finite, got {token!r}", line)
    return value


def parse_graph(text: str) -> WalkHamiltonian:
    """Parse graph-file text into a validated WalkHamiltonian.

    Format (line oriented, ``#`` starts a comment):

        nodes <N>
        edge <i> <j> <h> <alpha>     # h > 0, alpha in radians
        self <i> <energy>
    """
    n_nodes: int | None = None
    resolver: _NodeResolver | None = None
    edges: dict[tuple[int, int], Edge] = {}
    selfs: dict[int, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if n_nodes is None:
            if keyword != "nodes":
                raise GraphFormatError("first declaration must be 'nodes <N>'", lineno)
            if len(tokens) != 2 or not _looks_like_int(tokens[1]):
                raise GraphFormatError("expected 'nodes <N>'", lineno)
            n_nodes = _parse_int(tokens[1], "node count", lineno)
            if n_nodes < 1:
                raise GraphFormatError("node count must be positive", lineno)
            resolver = _NodeResolver(n_nodes)
            continue
        if keyword == "nodes":
            raise GraphFormatError("duplicate 'nodes' declaration", lineno)
        if keyword == "edge":
            if len(tokens) != 5:
                raise GraphFormatError("expected 'edge <i> <j> <h> <alpha>'", lineno)
            entry = (resolver.resolve(tokens[1], lineno), resolver.resolve(tokens[2], lineno),
                     _parse_real(tokens[3], "edge magnitude", lineno),
                     _parse_real(tokens[4], "edge phase", lineno))
            add, target = _add_edge, edges
        elif keyword == "self":
            if len(tokens) != 3:
                raise GraphFormatError("expected 'self <i> <energy>'", lineno)
            entry = (resolver.resolve(tokens[1], lineno),
                     _parse_real(tokens[2], "self-energy", lineno))
            add, target = _add_self_energy, selfs
        else:
            raise GraphFormatError(f"unknown declaration {keyword!r}", lineno)
        try:
            add(target, entry, n_nodes)
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno) from None

    if n_nodes is None:
        raise GraphFormatError("empty graph file (missing 'nodes <N>')")
    return WalkHamiltonian(n_nodes, tuple(edges.values()), tuple(selfs.items()),
                           resolver.labels())


def load_graph(path) -> WalkHamiltonian:
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())
