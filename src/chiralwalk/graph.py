"""Complex-weighted graph Hamiltonians: data model, file format, validation.

A walk Hamiltonian over N labeled nodes stores each coupling as an edge
``(i, j, h, alpha)`` meaning matrix entry ``H[i, j] = h * exp(1j * alpha)``
with ``H[j, i]`` its complex conjugate; the diagonal holds real
self-energies.  Hermiticity is structural: edges are canonicalized to
``i < j`` (declaring ``(j, i, h, a)`` stores ``(i, j, h, -a)``), so the
dense matrix reconstructs conjugate pairs exactly rather than approximately.

Graph and circuit files are read line by line through ``_read_lines``, so
every per-line error of either names its line, their numbers by the token
rules of ``defaults``, and every real is written by ``fmt_real``
(probability CSVs by ``propagator.render_csv``'s array kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .defaults import DEFAULTS, _looks_like_int, _parse_int, _parse_real


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
    if type(value) is not float:  # a float is its own float()
        if isinstance(value, (complex, np.complexfloating)):
            raise ValueError(f"{what} must be real, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _check_node(value, what: str) -> int:
    if type(value) is int:  # an int is its own int()
        return value
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_dense_size(what: str, entries: int) -> None:
    """The size rule: refuse, before anything is allocated, a size whose dense
    complex array of ``entries`` values would exceed ``DEFAULTS.dense_bytes``.
    The size it refuses is written in three digits, however large it is."""
    if 16 * entries > DEFAULTS.dense_bytes:
        from decimal import Decimal  # an exact int of any size, unlike a float

        raise ValueError(f"{what} needs a dense array of {Decimal(16 * entries):.3g} "
                         f"bytes, over the {DEFAULTS.dense_bytes}-byte budget")


def _check_node_count(value, what: str) -> int:
    """The node-count rule: a positive integer whose N x N matrix fits the budget.
    A refused count is written exactly up to 17 digits, rounded past them."""
    n = _check_node(value, what)
    if n < 1:
        raise ValueError(f"{what} must be a positive integer")
    if 16 * n * n > DEFAULTS.dense_bytes:
        from decimal import Decimal

        _check_dense_size(f"{what} {Decimal(n):.17g}", n * n)
    return n


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
        object.__setattr__(self, "n_nodes", _check_node_count(self.n_nodes, "n_nodes"))
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
        with np.errstate(over="ignore"):  # a spread past the float range is inf, a self-edge
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
    if hamiltonian.edges:
        i, j, h, alpha = map(np.array, zip(*hamiltonian.edges))
        matrix[i, j] = h * np.exp(1j * alpha)
        matrix[j, i] = matrix[i, j].conj()
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
    """17 significant digits: the shortest fixed width that round-trips every
    float64.  Probability CSVs get the same bytes from the array kernel
    ``propagator._fmt_real_block``, which calls this outside its exact range."""
    return format(float(x), ".17g")


def render_graph(hamiltonian: WalkHamiltonian) -> str:
    """Graph-file text for the Hamiltonian; ``parse_graph`` round-trips it."""
    lines = [f"nodes {hamiltonian.n_nodes}"]
    for i, j, h, alpha in hamiltonian.edges:
        lines.append(f"edge {i} {j} {fmt_real(h)} {fmt_real(alpha)}")
    for node, energy in hamiltonian.self_energies:
        lines.append(f"self {node} {fmt_real(energy)}")
    return "\n".join(lines) + "\n"


def _read_lines(text: str, read) -> None:
    """Call ``read(tokens)`` on each line of ``text`` that holds a token after
    its ``#`` comment is cut.  A ``ValueError`` from ``read``, or a line that
    does not encode as UTF-8 (``load_graph``'s undecodable bytes), becomes a
    ``GraphFormatError`` naming the line: the one place a file error gets it."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        try:
            raw.encode("utf-8")
            if tokens:
                read(tokens)
        except ValueError as exc:
            message = "not UTF-8 text" if isinstance(exc, UnicodeEncodeError) else str(exc)
            raise GraphFormatError(message, lineno) from None


def parse_graph(text: str) -> WalkHamiltonian:
    """Parse graph-file text into a validated WalkHamiltonian.

    Format (line oriented, ``#`` starts a comment):

        nodes <N>
        edge <i> <j> <h> <alpha>     # h > 0, alpha in radians
        self <i> <energy>

    Node tokens are integer indices, or string labels numbered in order of
    first appearance; one file uses one style.
    """
    n_nodes: int | None = None
    known: dict[str, int] = {}  # node token -> index, in order of first appearance
    labelled = False  # the style of the first node token, which the file keeps
    edges: dict[tuple[int, int], Edge] = {}
    selfs: dict[int, float] = {}

    def node(token: str) -> int:
        nonlocal labelled
        index = known.get(token)
        if index is None:
            label = not _looks_like_int(token)
            if not known:
                labelled = label
            elif label != labelled:
                raise ValueError("cannot mix integer indices and string labels")
            if not label:
                index = _parse_int(token, "node index")
            elif len(known) >= n_nodes:
                raise ValueError(f"label {token!r} exceeds declared node count")
            else:
                index = len(known)
            known[token] = index
        return index

    def read(tokens: list[str]) -> None:
        nonlocal n_nodes
        keyword = tokens[0]
        if n_nodes is None:
            if keyword != "nodes":
                raise ValueError("first declaration must be 'nodes <N>'")
            if len(tokens) != 2 or not _looks_like_int(tokens[1]):
                raise ValueError("expected 'nodes <N>'")
            n_nodes = _check_node_count(_parse_int(tokens[1], "node count"), "node count")
        elif keyword == "edge":
            if len(tokens) != 5:
                raise ValueError("expected 'edge <i> <j> <h> <alpha>'")
            _add_edge(edges, (node(tokens[1]), node(tokens[2]),
                              _parse_real(tokens[3], "edge magnitude"),
                              _parse_real(tokens[4], "edge phase")), n_nodes)
        elif keyword == "self":
            if len(tokens) != 3:
                raise ValueError("expected 'self <i> <energy>'")
            _add_self_energy(selfs, (node(tokens[1]), _parse_real(tokens[2], "self-energy")),
                             n_nodes)
        elif keyword == "nodes":
            raise ValueError("duplicate 'nodes' declaration")
        else:
            raise ValueError(f"unknown declaration {keyword!r}")

    _read_lines(text, read)
    if n_nodes is None:
        raise GraphFormatError("empty graph file (missing 'nodes <N>')")
    return WalkHamiltonian(n_nodes, tuple(edges.values()), tuple(selfs.items()),
                           tuple(known) if labelled else None)


def load_graph(path) -> WalkHamiltonian:
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        return parse_graph(handle.read())
