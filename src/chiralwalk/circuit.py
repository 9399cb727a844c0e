"""Palindromic two-site-gate circuits and their walk-node action.

Each gate ``(i, j, alpha, theta)`` mixes one pair of sites.  On the walk
node space it is the identity except for the 2x2 block

    [[cos(theta),                 -1j * exp(-1j*alpha) * sin(theta)],
     [-1j * exp(1j*alpha) * sin(theta),               cos(theta)  ]]

on ``(|i>, |j>)``.  On qubits it is generated by ``cos(alpha) * S + sin(alpha)
* A`` with ``S = XiXj + YiYj`` and ``A = XiYj - YiXj``, and factors as a pair
of local z-rotations around the symmetric ``alpha = 0`` gate,

    U(alpha, theta) = Rz_j(alpha) U(0, theta) Rz_j(alpha)^dag,

with ``Rz(a) = exp(-1j * (a/2) * Z)``.  That conjugation identity is the
anchor that fixes which of ``exp(+-1j*alpha)`` sits above the diagonal;
the test suite enforces it.  Tensor convention: qubit k is factor k,
factor 0 leftmost; walk node ``|k>`` is the basis state with qubit k in
``|1>`` and the rest in ``|0>``.

Costs: in node space a gate rewrites rows i and j of the state, O(N) per
gate per batch element, so a G-gate unitary is O(G N).  The engines take
full sequences (only ``PalindromicCircuit.full`` mirrors a half), their
rows from ``_gate_rows`` with the batch axes of the caller's gate table,
coefficients in one ``_gate_coefficients`` call over every position: the
sequences of a stack (``_unitary_stack``, in one pass of G steps, and
``apply_circuit`` its stack of one), or the (alpha, theta) grid of the
triangle (one angle row, shared by its six positions, over the grid).  In
qubit space all n start nodes share one statevector array, O(G 2^n n) for
the circuit, each distinct gate's 4x4 block is built once, and each gate
moves its two qubit axes first and back with one transpose each, on
permutations built once per (n, i, j).

A splitting palindrome has one construction, ``splitting_palindrome`` of
directed edges: ``trotter_error``'s circuit of a graph, and the experiment's
``three_cycle_circuit``, one symmetric splitting step of the triangle walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .defaults import DEFAULTS, _parse_int, _parse_real
from .graph import (Edge, GraphFormatError, GraphSkeleton, WalkHamiltonian, _check_finite_real,
                    _check_node, _check_node_count, _read_lines, fmt_real, skeleton)
from .propagator import TransportTable, _freeze, propagate

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_XX_YY = np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
_XY_YX = np.kron(PAULI_X, PAULI_Y) - np.kron(PAULI_Y, PAULI_X)
_ZZ = np.kron(PAULI_Z, PAULI_Z)
_EVEN, _ODD = _I4 + _ZZ, _I4 - _ZZ  # twice the projectors on ZZ = +1 and ZZ = -1


@dataclass(frozen=True)
class GateSpec:
    """Two-site gate parameters: pair (i, j), chirality alpha, angle theta."""

    i: int
    j: int
    alpha: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "i", _check_node(self.i, "gate endpoint"))
        object.__setattr__(self, "j", _check_node(self.j, "gate endpoint"))
        if self.i == self.j:
            raise ValueError(f"gate endpoints must differ, got ({self.i}, {self.j})")
        if self.i < 0 or self.j < 0:
            raise ValueError("gate endpoints must be nonnegative")
        object.__setattr__(self, "alpha", _check_finite_real(self.alpha, "gate alpha"))
        object.__setattr__(self, "theta", _check_finite_real(self.theta, "gate theta"))

    def pair(self) -> tuple[int, int]:
        return (self.i, self.j) if self.i < self.j else (self.j, self.i)


@dataclass(frozen=True)
class PalindromicCircuit:
    """Mirror-symmetric gate sequence: a half, then the same half reversed."""

    n_nodes: int
    half: tuple[GateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", _check_node_count(self.n_nodes, "n_nodes"))
        object.__setattr__(self, "half", tuple(self.half))
        for gate in self.half:
            if gate.i >= self.n_nodes or gate.j >= self.n_nodes:
                raise ValueError(f"gate {gate} out of range for {self.n_nodes} nodes")

    @property
    def full(self) -> tuple[GateSpec, ...]:
        return self.half + tuple(reversed(self.half))

    def support(self) -> GraphSkeleton:
        """Support skeleton: an edge wherever some gate acts."""
        return GraphSkeleton(self.n_nodes, tuple(sorted({gate.pair() for gate in self.full})))


# ---------------------------------------------------------------------------
# node-space action

def _gate_coefficients(alpha, theta):
    """``(c, u, l)`` of the mixing block ``[[c, u], [l, c]]``; arrays broadcast."""
    s = np.sin(theta)
    return np.cos(theta), -1j * np.exp(-1j * alpha) * s, -1j * np.exp(1j * alpha) * s


def _gate_rows(i, j, alpha, theta) -> list[tuple]:
    """``(i, j, c, u, l)`` per position of a gate table whose endpoints and
    angles have shape ``(position, *batch)``, the angles possibly broadcast
    over both.  One ``_gate_coefficients`` call serves the whole table; an entry
    the whole batch shares at a position is a Python scalar, else that position's array."""
    columns = []
    for entry in (np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp),
                  *_gate_coefficients(np.asarray(alpha), np.asarray(theta))):
        # judged before the angle row the triangle's positions share is broadcast over them
        flat = entry.reshape(len(entry), math.prod(entry.shape[1:]))
        differs = np.broadcast_to((flat != flat[:, :1]).any(axis=1), len(i))
        column = np.broadcast_to(flat[:, 0], len(i)).tolist()
        entry = np.broadcast_to(entry, (len(i),) + entry.shape[1:])
        for p in np.flatnonzero(differs):
            column[p] = entry[p]
        columns.append(column)
    return list(zip(*columns))


def _gate_table(sequences: Sequence[Sequence[GateSpec]]) -> np.ndarray:
    """Rows i, j, alpha, theta of gate sequences of one length, each ``(position, sequence)``."""
    table = [[(g.i, g.j, g.alpha, g.theta) for g in gates] for gates in sequences]
    return np.array(table, dtype=float).reshape(len(sequences), -1, 4).T


def _apply_gates(state: np.ndarray, rows: Iterable[tuple]) -> np.ndarray:
    """Apply ``(i, j, c, u, l)`` gates in order to ``state``, in place.

    Axis 0 of ``state`` is the node and the coefficients broadcast against
    one node's row, so a batch of circuits sits on the last axis.  An
    endpoint is a node, or an array of nodes that broadcasts against a row
    like the coefficients: one per batch element, so one pass applies many
    circuits of one length.  A gate rewrites rows i and j only, ``row_i <- c
    row_i + u row_j`` and ``row_j <- l row_i + c row_j`` (both from the old
    rows): O(N) per batch element.
    """
    positions = None
    for i, j, c, u, l in rows:
        if np.ndim(i) or np.ndim(j):  # per-element rows: index every position
            positions = positions or np.indices(state.shape[1:], sparse=True)
            i, j = (i, *positions), (j, *positions)
        row_i, row_j = state[i], state[j]
        state[i], state[j] = c * row_i + u * row_j, l * row_i + c * row_j
    return state


def _unitary_stack(n_nodes: int, sequences: Sequence[Sequence[GateSpec]]) -> np.ndarray:
    """Ordered products of gate sequences of one length on ``n_nodes`` nodes,
    a ``(len(sequences), n_nodes, n_nodes)`` stack from one ``_apply_gates``
    pass over the identity: the one entry into the node-space engine."""
    state = np.repeat(np.eye(n_nodes, dtype=complex)[..., None], len(sequences), axis=2)
    return np.moveaxis(_apply_gates(state, _gate_rows(*_gate_table(sequences))), -1, 0)


# ---------------------------------------------------------------------------
# qubit-space action

def gate_qubit_space(gate: GateSpec) -> np.ndarray:
    """4x4 two-qubit gate in (qubit i, qubit j) factor order.

    Closed form of the exponential: the (1 + ZZ)/2 sector (|00>, |11>) is
    untouched for every (alpha, theta); the single-excitation sector mixes.
    """
    generator = math.cos(gate.alpha) * _XX_YY + math.sin(gate.alpha) * _XY_YX
    return 0.5 * (_EVEN + math.cos(gate.theta) * _ODD - 1j * math.sin(gate.theta) * generator)


def rz_rotation(alpha: float) -> np.ndarray:
    """Rz(alpha) = exp(-1j * (alpha/2) * Z)."""
    return np.array([[np.exp(-0.5j * alpha), 0.0],
                     [0.0, np.exp(0.5j * alpha)]], dtype=complex)


def rz_decompose(gate: GateSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the gate as (Rz on qubit j) @ symmetric gate @ (inverse Rz).

    Returned as three 4x4 matrices in (qubit i, qubit j) order whose product
    reproduces ``gate_qubit_space(gate)``.
    """
    rotation = np.kron(_I2, rz_rotation(gate.alpha))
    symmetric = gate_qubit_space(GateSpec(gate.i, gate.j, 0.0, gate.theta))
    return rotation, symmetric, rotation.conj().T


# ---------------------------------------------------------------------------
# circuit application

def _single_excitation_rows(n_nodes: int) -> list[int]:
    """Basis index of |0...010...0> with qubit ``k`` excited, for each node k."""
    return [1 << (n_nodes - 1 - node) for node in range(n_nodes)]


def _qubit_columns(circuit: PalindromicCircuit) -> np.ndarray:
    """Full statevectors after the circuit, one column per excited start node.

    All start nodes travel together as the trailing axis of one
    ``(2,) * n + (n,)`` array, so each gate is one 4 x (2^(n-2) n) product.
    """
    n = circuit.n_nodes
    if n > DEFAULTS.qubit_space_max:
        raise ValueError(f"qubit-space evaluation limited to {DEFAULTS.qubit_space_max} qubits")
    columns = np.zeros((1 << n, n), dtype=complex)
    columns[_single_excitation_rows(n), range(n)] = 1.0
    psi = columns.reshape((2,) * n + (n,))
    blocks: dict[GateSpec, np.ndarray] = {}
    for gate in circuit.full:
        if gate not in blocks:
            blocks[gate] = gate_qubit_space(gate)
        forward, back = _pair_first(n, gate.i, gate.j)
        pair = psi.transpose(forward)
        mixed = blocks[gate] @ pair.reshape(4, -1)
        psi = mixed.reshape(pair.shape).transpose(back)
    return psi.reshape(1 << n, n)


@lru_cache(maxsize=None)
def _pair_first(n: int, i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutation of an ``(2,) * n + (n,)`` statevector array that puts
    qubits i and j first, and its inverse."""
    forward = (i, j) + tuple(axis for axis in range(n + 1) if axis not in (i, j))
    return forward, tuple(np.argsort(forward).tolist())


def apply_circuit(circuit: PalindromicCircuit) -> np.ndarray:
    """Ordered product of the full gate sequence, read-only: a stack of one."""
    return _freeze(_unitary_stack(circuit.n_nodes, [circuit.full])[0])


def excitation_preservation_check(circuit: PalindromicCircuit) -> float:
    """Worst probability weight leaked outside the single-excitation subspace."""
    outside = np.delete(_qubit_columns(circuit),
                        _single_excitation_rows(circuit.n_nodes), axis=0)
    return float((np.abs(outside) ** 2).sum(axis=0).max()) if outside.size else 0.0


# ---------------------------------------------------------------------------
# the three-node palindrome

def three_cycle_circuit(alpha: float, theta: float) -> PalindromicCircuit:
    """Six-gate palindrome on the triangle, every gate sharing (alpha, theta):
    one symmetric splitting step, at half step ``theta``, of the unit triangle
    walk with phase ``-alpha`` on 0 -> 1, 1 -> 2 and 2 -> 0.

    The smallest palindrome whose support has an odd cycle; its directed
    flux is three times the per-gate phase, so transport depends on alpha
    only through ``3 * alpha mod 2*pi``.
    """
    alpha = _check_finite_real(alpha, "gate alpha")  # a bad alpha is named before theta
    edges = [Edge(i, j, 1.0, -alpha) for i, j in ((0, 1), (1, 2), (2, 0))]
    return splitting_palindrome(3, edges, theta)


def _three_cycle_run(alphas: Sequence[float], thetas: Sequence[float],
                     start: np.ndarray) -> np.ndarray:
    """Triangle palindrome on ``start``, batched over the (alpha, theta) grid:
    the last two axes of the state, and the batch of the gate table of
    ``three_cycle_circuit(0, 1).full``, whose one shared angle row takes the
    alpha offsets as a column and the theta multiples as a row, so ``exp``
    runs once per alpha and ``sin``/``cos`` once per theta, for all six gates."""
    alphas = np.asarray(alphas, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)[None, :]
    start = np.asarray(start, dtype=complex)[..., None, None]
    state = np.broadcast_to(start, start.shape[:-2] + (alphas.size, thetas.size)).copy()
    i, j, alpha, theta = _gate_table([three_cycle_circuit(0.0, 1.0).full])[..., None]
    return _apply_gates(state, _gate_rows(i, j, alpha[:1] + alphas, theta[:1] * thetas))


def three_cycle_unitaries(alphas: Sequence[float], thetas: Sequence[float]) -> np.ndarray:
    """Unitary stack ``u[a, k]`` (3x3 each) of the triangle palindrome, in one pass."""
    return np.moveaxis(_three_cycle_run(alphas, thetas, np.eye(3)), (-2, -1), (0, 1))


def three_cycle_transfer(alphas: Sequence[float], thetas: Sequence[float]) -> np.ndarray:
    """Transfer probability ``p[a, k]`` of ``0 -> 2``, propagating column 0 only."""
    return np.abs(_three_cycle_run(alphas, thetas, np.eye(3)[:, 0])[2]) ** 2


def circuit_sweep_table(alphas: Sequence[float], thetas: Sequence[float]) -> TransportTable:
    """Triangle-palindrome sweep as a circuit-schema TransportTable."""
    alphas = [_check_finite_real(a, "sweep alpha") for a in alphas]
    thetas_list = [_check_finite_real(t, "sweep theta") for t in thetas]
    if not alphas or not thetas_list:
        raise ValueError("sweep grids must be nonempty")
    probs = np.abs(three_cycle_unitaries(alphas, thetas_list)) ** 2
    axes = [(a, t) for a in alphas for t in thetas_list]
    return TransportTable(axes, _freeze(probs.reshape(len(axes), 3, 3)))


# ---------------------------------------------------------------------------
# splitting a Hamiltonian evolution into a gate palindrome

def _splitting_reference(hamiltonian: WalkHamiltonian) -> WalkHamiltonian:
    """The Hamiltonian a splitting palindrome of ``hamiltonian`` simulates:
    its edges.  A graph with no edge or with self-edges is refused; a uniform
    diagonal is a global phase that no gate carries, so it is dropped."""
    if not hamiltonian.edges:
        raise ValueError("splitting circuit needs at least one edge")
    if skeleton(hamiltonian).self_nodes:
        raise ValueError("splitting circuit does not represent self-energies")
    if hamiltonian.self_energies:
        return WalkHamiltonian(hamiltonian.n_nodes, hamiltonian.edges)
    return hamiltonian


def splitting_palindrome(n_nodes: int, edges: Sequence[Edge], half_step) -> PalindromicCircuit:
    """Symmetric splitting palindrome of directed ``(i, j, h, alpha)`` edges
    over ``t = 2 * half_step / h_0``, ``h_0`` the first edge's magnitude: one
    gate per edge, at angle ``half_step * h / h_0`` and phase ``-alpha``, as the
    node gate carries ``exp(-1j*alpha)`` on its (i, j) entry."""
    half_step = _check_finite_real(half_step, "gate theta")
    # h / h_0 as mantissa ratio and exponent difference: finite where the angle is
    m0, x0 = math.frexp(edges[0].h)
    parts = [math.frexp(e.h) for e in edges]
    return PalindromicCircuit(n_nodes, tuple(
        GateSpec(e.i, e.j, -e.alpha, math.ldexp(half_step * (m / m0), x - x0))
        for e, (m, x) in zip(edges, parts)))


def trotter_error(hamiltonian: WalkHamiltonian, scale: float) -> float:
    """Max-norm error of the splitting palindrome of the edges of the
    ``_splitting_reference`` at half step ``scale / 2`` against its
    ``exp(-iHt)`` at ``t = scale / h_0``, where ``h_0`` is the magnitude of
    the first edge."""
    hamiltonian = _splitting_reference(hamiltonian)
    # refuses an overflowing phase first
    exact = propagate(hamiltonian, float(scale) / hamiltonian.edges[0].h)
    approx = apply_circuit(splitting_palindrome(hamiltonian.n_nodes, hamiltonian.edges,
                                                float(scale) / 2.0))
    return float(np.abs(approx - exact).max())


# ---------------------------------------------------------------------------
# circuit files

def parse_circuit(text: str) -> PalindromicCircuit:
    """Parse 'gate <i> <j> <alpha> <theta>' lines as a palindrome half."""
    half: list[GateSpec] = []

    def read(tokens: list[str]) -> None:
        if tokens[0] != "gate" or len(tokens) != 5:
            raise ValueError("expected 'gate <i> <j> <alpha> <theta>'")
        i, j = (_parse_int(token, "gate endpoint") for token in tokens[1:3])
        alpha, theta = (_parse_real(token, "gate parameters") for token in tokens[3:5])
        half.append(GateSpec(i, j, alpha, theta))
        _check_node_count(max(i, j) + 1, "circuit node count")

    _read_lines(text, read)
    if not half:
        raise GraphFormatError("empty circuit file")
    return PalindromicCircuit(max(max(g.i, g.j) for g in half) + 1, half)


def render_circuit(circuit: PalindromicCircuit) -> str:
    lines = [f"gate {g.i} {g.j} {fmt_real(g.alpha)} {fmt_real(g.theta)}" for g in circuit.half]
    return "\n".join(lines) + "\n"
