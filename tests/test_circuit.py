"""Two-site gates, palindromes, the triangle circuit, splitting error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import (Edge, GateSpec, GraphFormatError, PalindromicCircuit,
                        WalkHamiltonian, apply_circuit, circuit_sweep_table,
                        excitation_preservation_check, gate_qubit_space,
                        parse_circuit, propagate, render_circuit, rz_decompose,
                        three_cycle_circuit, three_cycle_unitaries, trotter_error)
from chiralwalk.circuit import (_apply_gates, _gate_rows, _qubit_columns, _unitary_stack,
                               three_cycle_transfer)
from chiralwalk import circuit as circuit_module

from .graphs import qubit_block, uniform_triangle
from .oracles import pair_gate_taylor, three_cycle_taylor

PI = math.pi
EXPERIMENT_GRID = [-PI + k * PI / 18 for k in range(37)]

angles = st.floats(min_value=-2 * PI, max_value=2 * PI,
                   allow_nan=False, allow_infinity=False)


# --- single gates -----------------------------------------------------------

def node_gate(gate, n):
    """The one gate's N x N unitary, as the node engine applies it."""
    return _apply_gates(np.eye(n, dtype=complex),
                        _gate_rows([gate.i], [gate.j], [gate.alpha], [gate.theta]))


def test_gate_node_zero_angle_is_identity():
    u = node_gate(GateSpec(0, 1, 0.9, 0.0), 4)
    assert np.array_equal(u, np.eye(4, dtype=complex))


def test_gate_node_quarter_angle_swaps_probability():
    u = node_gate(GateSpec(0, 1, 0.0, PI / 2), 2)
    block = np.array([[0.0, -1j], [-1j, 0.0]])
    assert np.abs(u - block).max() <= 1e-15


def test_single_gate_transfer_is_alpha_independent():
    rng = np.random.default_rng(1)
    for _ in range(25):
        alpha = float(rng.uniform(-2 * PI, 2 * PI))
        theta = float(rng.uniform(-2 * PI, 2 * PI))
        u = node_gate(GateSpec(0, 1, alpha, theta), 2)
        expected = math.sin(theta) ** 2
        assert abs(abs(u[1, 0]) ** 2 - expected) <= 1e-12
        assert abs(abs(u[0, 1]) ** 2 - expected) <= 1e-12
        assert abs(np.abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_gate_orientation_flip_negates_alpha():
    a = node_gate(GateSpec(0, 2, 0.8, 1.1), 3)
    b = node_gate(GateSpec(2, 0, -0.8, 1.1), 3)
    assert np.array_equal(a, b)


def test_gate_qubit_zero_angle_is_identity():
    assert np.abs(gate_qubit_space(GateSpec(0, 1, 1.2, 0.0)) - np.eye(4)).max() == 0.0


@settings(max_examples=50)
@given(angles, angles)
def test_gate_qubit_fixes_empty_and_double_occupation(alpha, theta):
    u = gate_qubit_space(GateSpec(0, 1, alpha, theta))
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    e11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.abs(u @ e00 - e00).max() <= 1e-15
    assert np.abs(u @ e11 - e11).max() <= 1e-15


def test_gate_qubit_matches_exponential_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = float(rng.uniform(-2 * PI, 2 * PI))
        theta = float(rng.uniform(-2 * PI, 2 * PI))
        analytic = gate_qubit_space(GateSpec(0, 1, alpha, theta))
        assert np.abs(analytic - pair_gate_taylor(alpha, theta)).max() <= 1e-12


def test_gate_qubit_restriction_equals_node_block():
    rng = np.random.default_rng(3)
    for _ in range(100):
        gate = GateSpec(0, 1, float(rng.uniform(-2 * PI, 2 * PI)),
                        float(rng.uniform(-2 * PI, 2 * PI)))
        qubit = gate_qubit_space(gate)
        # single-excitation rows/cols: |10> (index 2) is node 0, |01> node 1
        restricted = qubit[np.ix_((2, 1), (2, 1))]
        node = node_gate(gate, 2)
        assert np.abs(restricted - node).max() <= 1e-12


# --- z-rotation decomposition -----------------------------------------------

def test_rz_decompose_trivial_at_zero_alpha():
    pre, sym, post = rz_decompose(GateSpec(0, 1, 0.0, 0.7))
    assert np.abs(pre - np.eye(4)).max() <= 1e-15
    assert np.abs(post - np.eye(4)).max() <= 1e-15
    assert np.abs(sym - gate_qubit_space(GateSpec(0, 1, 0.0, 0.7))).max() == 0.0


@settings(max_examples=100)
@given(angles, angles)
def test_rz_decompose_reproduces_the_gate(alpha, theta):
    gate = GateSpec(0, 1, alpha, theta)
    pre, sym, post = rz_decompose(gate)
    assert np.abs(pre @ sym @ post - gate_qubit_space(gate)).max() <= 1e-12


def test_rotation_fusion_leaves_one_interior_pair():
    # the triangle's chirality gauges onto the central (2, 0) pair alone:
    # U(alpha, theta) = B P B^dag with B = diag(exp(1j * (-alpha, 0, alpha)))
    rng = np.random.default_rng(5)
    for _ in range(25):
        alpha = float(rng.uniform(-PI, PI))
        theta = float(rng.uniform(-PI, PI))
        boundary = np.diag(np.exp(1j * np.array([-alpha, 0.0, alpha])))
        fused = PalindromicCircuit(3, (GateSpec(0, 1, 0.0, theta), GateSpec(1, 2, 0.0, theta),
                                       GateSpec(2, 0, 3 * alpha, theta)))
        direct = apply_circuit(three_cycle_circuit(alpha, theta))
        gauged = boundary @ apply_circuit(fused) @ boundary.conj().T
        assert np.abs(gauged - direct).max() <= 1e-12


def test_fusion_boundary_diagonals_do_not_touch_probabilities():
    boundary = np.diag(np.exp(1j * np.array((-0.53, 0.0, 0.53))))
    u = apply_circuit(three_cycle_circuit(0.53, 1.3))
    stripped = boundary.conj().T @ u @ boundary
    assert np.abs(np.abs(stripped) ** 2 - np.abs(u) ** 2).max() <= 1e-12


# --- palindromes ------------------------------------------------------------

def test_empty_palindrome_is_identity():
    circuit = PalindromicCircuit(3, ())
    assert circuit.full == ()
    assert np.array_equal(apply_circuit(circuit), np.eye(3, dtype=complex))


def test_triangle_palindrome_shape():
    circuit = three_cycle_circuit(0.4, 0.9)
    pairs = [(g.i, g.j) for g in circuit.full]
    assert pairs == [(0, 1), (1, 2), (2, 0), (2, 0), (1, 2), (0, 1)]
    assert circuit.full == tuple(reversed(circuit.full))
    assert circuit.support().edges == ((0, 1), (0, 2), (1, 2))


def test_support_graph_feeds_the_classifier():
    from chiralwalk import is_bipartite, is_forest
    triangle_support = three_cycle_circuit(0.4, 0.9).support()
    assert not is_bipartite(triangle_support).bipartite
    chain = PalindromicCircuit(3, (GateSpec(0, 1, 0.2, 0.5), GateSpec(1, 2, -0.1, 0.4)))
    chain_support = chain.support()
    assert is_forest(chain_support)
    assert is_bipartite(chain_support).bipartite


@settings(max_examples=30)
@given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 10 ** 6))
def test_any_palindrome_equals_its_reverse(n, k, seed):
    rng = np.random.default_rng(seed)
    half = []
    for _ in range(k):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        half.append(GateSpec(i, j, float(rng.uniform(-PI, PI)),
                             float(rng.uniform(-PI, PI))))
    circuit = PalindromicCircuit(n, half)
    assert circuit.full == tuple(reversed(circuit.full))


def random_gate(rng, n):
    i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
    return GateSpec(i, j, float(rng.uniform(-PI, PI)), float(rng.uniform(-PI, PI)))


def random_palindrome_with_repeats(rng, n):
    """Palindrome whose half repeats some gates and some pairs."""
    half = [random_gate(rng, n) for _ in range(int(rng.integers(1, 6)))]
    half += [half[int(rng.integers(len(half)))] for _ in range(int(rng.integers(0, 3)))]
    for _ in range(int(rng.integers(0, 3))):
        again = half[int(rng.integers(len(half)))]
        half.append(GateSpec(again.i, again.j, float(rng.uniform(-PI, PI)), again.theta))
    rng.shuffle(half)
    return PalindromicCircuit(n, half)


def embedded_qubit_gate(gate, n):
    """The gate's N x N unitary built from its qubit matrix, not by the node
    engine: the |10>, |01> block at rows and columns (i, j) of the identity."""
    u = np.eye(n, dtype=complex)
    u[np.ix_((gate.i, gate.j), (gate.i, gate.j))] = \
        gate_qubit_space(gate)[np.ix_((2, 1), (2, 1))]
    return u


def test_row_update_engine_matches_gate_products():
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        for _ in range(12):
            circuit = random_palindrome_with_repeats(rng, n)
            product = np.eye(n, dtype=complex)
            for gate in circuit.full:
                product = embedded_qubit_gate(gate, n) @ product
            assert np.abs(apply_circuit(circuit) - product).max() <= 1e-13


def test_one_gate_pass_over_many_palindromes_equals_each_alone():
    rng = np.random.default_rng(15)
    for n in (2, 3, 5):
        # one half length; endpoints and angles differ per circuit, and a
        # shared first gate gives the pass a position with node endpoints
        first = random_gate(rng, n)
        circuits = [PalindromicCircuit(n, [first] + [random_gate(rng, n) for _ in range(3)])
                    for _ in range(7)]
        stack = _unitary_stack(n, [circuit.full for circuit in circuits])
        assert stack.shape == (7, n, n)
        for u, circuit in zip(stack, circuits):
            assert u.tobytes() == apply_circuit(circuit).tobytes()


# The two row builders that ``_gate_rows`` replaced, written out: the
# one-circuit builder (scalar coefficients once per distinct (alpha, theta),
# array offsets for the triangle grid) and the stacked builder (one array per
# position, a shared endpoint as a node).  The coefficient formula is copied
# too, so a change to its products shows here.

def reference_coefficients(alpha, theta):
    s = np.sin(theta)
    return np.cos(theta), -1j * np.exp(-1j * alpha) * s, -1j * np.exp(1j * alpha) * s


def reference_gate_rows(gates, alphas=0.0, thetas=1.0):
    coefficients = {(a, t): reference_coefficients(alphas + a, thetas * t)
                    for a, t in {(g.alpha, g.theta) for g in gates}}
    return [(g.i, g.j) + coefficients[g.alpha, g.theta] for g in gates]


def reference_stack_rows(circuits):
    rows = []
    for gates in zip(*(circuit.half for circuit in circuits)):
        i, j, alpha, theta = (np.array(values) for values in
                              zip(*((g.i, g.j, g.alpha, g.theta) for g in gates)))
        i, j = (int(k[0]) if (k == k[0]).all() else k for k in (i, j))
        rows.append((i, j) + reference_coefficients(alpha, theta))
    return rows + rows[::-1]


def reference_unitary(circuit):
    return _apply_gates(np.eye(circuit.n_nodes, dtype=complex),
                        reference_gate_rows(circuit.full))


def reference_three_cycle_run(alphas, thetas, start):
    alphas = np.asarray(alphas, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)[None, :]
    start = np.asarray(start, dtype=complex)[..., None, None]
    state = np.broadcast_to(start, start.shape[:-2] + (alphas.size, thetas.size)).copy()
    rows = reference_gate_rows(three_cycle_circuit(0.0, 1.0).full, alphas, thetas)
    return _apply_gates(state, rows)


def splitting_palindrome(graph, scale):
    """The half ``trotter_error`` builds: one gate per edge, phase negated."""
    h0 = graph.edges[0].h
    return PalindromicCircuit(graph.n_nodes, tuple(
        GateSpec(e.i, e.j, -e.alpha, float(scale) / 2.0 * (e.h / h0)) for e in graph.edges))


@pytest.mark.parametrize("n", [48, 96])
def test_ring_splitting_unitaries_equal_the_old_builder_byte_for_byte(n):
    rng = np.random.default_rng(n)
    h = float(rng.uniform(0.5, 1.5))
    phases = rng.uniform(-PI, PI, size=n)
    phases[:3] = 0.0, -0.0, 0.0  # negated to -0.0, 0.0, -0.0 on the gates
    ring = WalkHamiltonian(n, tuple(Edge(v, (v + 1) % n, h, float(a))
                                    for v, a in enumerate(phases)))
    for scale in (0.2, 0.1, 0.05, 0.025, 0.0125):
        circuit = splitting_palindrome(ring, scale)
        assert apply_circuit(circuit).tobytes() == reference_unitary(circuit).tobytes()


def test_random_palindromes_equal_the_old_builder_byte_for_byte():
    rng = np.random.default_rng(28)
    circuits = [random_palindrome_with_repeats(rng, n) for n in range(2, 9) for _ in range(12)]
    # repeated angles that differ only in the sign of zero
    circuits.append(PalindromicCircuit(3, (GateSpec(0, 1, 0.0, 0.7), GateSpec(1, 2, -0.0, 0.7),
                                           GateSpec(0, 2, 0.4, 0.0), GateSpec(0, 1, 0.4, -0.0),
                                           GateSpec(2, 1, -0.0, -0.0), GateSpec(0, 2, 0.0, 0.0))))
    for circuit in circuits:
        assert apply_circuit(circuit).tobytes() == reference_unitary(circuit).tobytes()


@pytest.mark.parametrize("shared", [True, False])
def test_stacks_equal_the_old_builder_byte_for_byte(shared):
    rng = np.random.default_rng(29 + shared)
    for n in (2, 3, 5, 8):
        template = [random_gate(rng, n) for _ in range(4)]
        circuits = []
        for _ in range(9):
            half = [GateSpec(g.i, g.j, float(rng.uniform(-PI, PI)), float(rng.uniform(-PI, PI)))
                    if shared else random_gate(rng, n) for g in template]
            half[1] = template[1]  # one position the whole stack shares
            circuits.append(PalindromicCircuit(n, half))
        state = np.repeat(np.eye(n, dtype=complex)[..., None], len(circuits), axis=2)
        reference = np.moveaxis(_apply_gates(state, reference_stack_rows(circuits)), -1, 0)
        assert _unitary_stack(n, [c.full for c in circuits]).tobytes() == reference.tobytes()


def test_triangle_grid_equals_the_old_builder_byte_for_byte():
    rng = np.random.default_rng(30)
    alphas = rng.uniform(-2 * PI, 2 * PI, 37)
    alphas[:2] = 0.0, -0.0
    thetas = rng.uniform(-2 * PI, 2 * PI, 40)
    unitaries = np.moveaxis(reference_three_cycle_run(alphas, thetas, np.eye(3)),
                            (-2, -1), (0, 1))
    transfer = np.abs(reference_three_cycle_run(alphas, thetas, np.eye(3)[:, 0])[2]) ** 2
    assert three_cycle_unitaries(alphas, thetas).tobytes() == unitaries.tobytes()
    assert three_cycle_transfer(alphas, thetas).tobytes() == transfer.tobytes()


def test_triangle_grid_evaluates_its_shared_angles_once(monkeypatch):
    # the triangle's three half positions share their angles: their coefficients
    # are evaluated once over the (alpha, theta) grid, not once per position
    sizes = []

    def recording(alpha, theta):
        sizes.append(np.broadcast(alpha, theta).size)
        return coefficients(alpha, theta)

    coefficients = circuit_module._gate_coefficients
    monkeypatch.setattr(circuit_module, "_gate_coefficients", recording)
    alphas, thetas = np.linspace(0.0, PI, 5), np.linspace(-PI, PI, 7)
    three_cycle_transfer(alphas, thetas)
    assert sum(sizes) == len(alphas) * len(thetas)


def test_one_gate_equals_the_old_builder_byte_for_byte():
    rng = np.random.default_rng(31)
    for n in (2, 3, 6):
        for _ in range(10):
            gate = random_gate(rng, n)
            reference = _apply_gates(np.eye(n, dtype=complex), reference_gate_rows([gate]))
            assert node_gate(gate, n).tobytes() == reference.tobytes()


def test_column_transfer_equals_unitary_entry():
    rng = np.random.default_rng(14)
    alphas = rng.uniform(0, 2 * PI, 5)
    thetas = rng.uniform(-PI, PI, 7)
    transfer = three_cycle_transfer(alphas, thetas)
    unitaries = three_cycle_unitaries(alphas, thetas)
    assert transfer.shape == (5, 7)
    assert np.abs(transfer - np.abs(unitaries[..., 2, 0]) ** 2).max() <= 1e-15


def qubit_columns_reference(circuit):
    """One statevector per start node, each gate a 4 x 2^(n-2) product."""
    n = circuit.n_nodes
    columns = np.zeros((1 << n, n), dtype=complex)
    for node in range(n):
        psi = np.zeros(1 << n, dtype=complex)
        psi[1 << (n - 1 - node)] = 1.0
        for gate in circuit.full:
            pair = np.moveaxis(psi.reshape((2,) * n), (gate.i, gate.j), (0, 1))
            mixed = gate_qubit_space(gate) @ pair.reshape(4, -1)
            psi = np.moveaxis(mixed.reshape(pair.shape), (0, 1), (gate.i, gate.j)).reshape(-1)
        columns[:, node] = psi
    return columns


def test_qubit_columns_match_per_node_loop():
    rng = np.random.default_rng(15)
    for n in range(2, 8):
        for _ in range(4):
            circuit = random_palindrome_with_repeats(rng, n)
            batched, reference = _qubit_columns(circuit), qubit_columns_reference(circuit)
            if n >= 4:
                # both sides are 4 x M matrix products: the same sums, bit for bit
                assert np.array_equal(batched, reference)
            else:
                # one or two columns per node make the reference a matrix-vector
                # product, which the BLAS rounds differently in the last place
                assert np.abs(batched - reference).max() <= 1e-15
    assert np.array_equal(_qubit_columns(PalindromicCircuit(3, ())), np.eye(8)[:, [4, 2, 1]])


def test_apply_circuit_zero_angles_is_identity():
    circuit = three_cycle_circuit(0.7, 0.0)
    assert np.abs(apply_circuit(circuit) - np.eye(3)).max() <= 1e-15


def test_node_and_qubit_blocks_agree():
    circuit = three_cycle_circuit(0.9, 1.2)
    node = apply_circuit(circuit)
    qubit = qubit_block(circuit)
    assert np.abs(node - qubit).max() <= 1e-10


def test_symmetric_palindrome_has_symmetric_amplitudes():
    circuit = three_cycle_circuit(0.0, 0.8)
    u = apply_circuit(circuit)
    assert np.abs(u - u.T).max() <= 1e-12


def test_qubit_space_rejects_large_registers():
    big = PalindromicCircuit(15, (GateSpec(0, 1, 0.1, 0.1),))
    with pytest.raises(ValueError, match="limited"):
        qubit_block(big)


def test_gate_out_of_range_rejected_at_build():
    with pytest.raises(ValueError, match="out of range"):
        PalindromicCircuit(3, (GateSpec(0, 5, 0.1, 0.1),))


def test_gate_spec_validation():
    with pytest.raises(ValueError, match="differ"):
        GateSpec(1, 1, 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        GateSpec(0, 1, math.inf, 0.0)


@pytest.mark.parametrize("value", [1 + 0j, 0.5 + 1j, np.complex128(1.0),
                                   np.complex128(0.5 + 1j)])
def test_gate_spec_refuses_complex_angles(value):
    with pytest.raises(ValueError, match="gate alpha must be real"):
        GateSpec(0, 1, value, 0.0)
    with pytest.raises(ValueError, match="gate theta must be real"):
        GateSpec(0, 1, 0.0, value)


@pytest.mark.parametrize("endpoints", [(0.0, 1), (0, np.float64(1.0)), (0, "1")])
def test_gate_spec_endpoints_are_integers(endpoints):
    with pytest.raises(ValueError, match="gate endpoint must be an integer"):
        GateSpec(*endpoints, 0.0, 0.0)
    gate = GateSpec(np.int64(2), np.int32(0), np.float32(0.5), 1)
    assert (gate.i, gate.j, gate.alpha, gate.theta) == (2, 0, 0.5, 1.0)
    assert type(gate.i) is int and type(gate.theta) is float


@pytest.mark.parametrize("n_nodes, message", [(2.5, "an integer"), (0, "a positive integer"),
                                              (-1, "a positive integer")])
def test_palindrome_node_count_is_a_positive_integer(n_nodes, message):
    with pytest.raises(ValueError, match=f"n_nodes must be {message}"):
        PalindromicCircuit(n_nodes, ())


def test_palindrome_takes_a_numpy_integer_node_count():
    circuit = PalindromicCircuit(np.int64(2), (GateSpec(0, 1, 0.0, PI / 2),))
    assert circuit == PalindromicCircuit(2, (GateSpec(0, 1, 0.0, PI / 2),))


# --- the triangle circuit ---------------------------------------------------

def test_batched_probabilities_match_gate_products():
    rng = np.random.default_rng(9)
    alphas = rng.uniform(0, 2 * PI, 3)
    thetas = rng.uniform(-PI, PI, 5)
    probs = np.abs(three_cycle_unitaries(alphas, thetas)) ** 2
    for a_index, alpha in enumerate(alphas):
        for t_index, theta in enumerate(thetas):
            u = apply_circuit(three_cycle_circuit(float(alpha), float(theta)))
            assert np.abs(probs[a_index, t_index] - np.abs(u) ** 2).max() <= 1e-12


def test_batched_probabilities_match_taylor_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        alpha = float(rng.uniform(0, 2 * PI))
        theta = float(rng.uniform(-PI, PI))
        probs = (np.abs(three_cycle_unitaries([alpha], [theta])) ** 2)[0, 0]
        oracle = np.abs(three_cycle_taylor(alpha, theta)) ** 2
        assert np.abs(probs - oracle).max() <= 1e-12


def test_symmetric_slice_respects_point_six_bound():
    probs = (np.abs(three_cycle_unitaries([0.0], EXPERIMENT_GRID)) ** 2)[0]
    assert probs[:, 1, 0].max() <= 0.6
    assert probs[:, 2, 0].max() <= 0.6


def test_chiral_slice_peak_value():
    probs = (np.abs(three_cycle_unitaries([PI / 2], EXPERIMENT_GRID)) ** 2)[0]
    # frozen pre-build oracle value: 243/256 at theta = -5*pi/6 and -pi/6
    assert abs(probs[:, 2, 0].max() - 0.94921875) <= 1e-9


def test_reflection_in_time():
    rng = np.random.default_rng(11)
    thetas = np.array(EXPERIMENT_GRID)
    for alpha in rng.uniform(0, 2 * PI, 6):
        plus = (np.abs(three_cycle_unitaries([alpha + PI], thetas)) ** 2)[0]
        minus = (np.abs(three_cycle_unitaries([alpha], -thetas)) ** 2)[0]
        assert np.abs(plus - minus).max() <= 1e-12


@pytest.mark.parametrize("alphas, thetas, message", [
    ([math.nan], [1.0], "sweep alpha must be finite, got nan"),
    ([0.5], [1.0, math.inf], "sweep theta must be finite, got inf"),
    ([0.5 + 1j], [1.0], "sweep alpha must be real"),
    ([0.5], [np.complex128(1.0)], "sweep theta must be real"),
])
def test_sweep_grids_follow_the_real_rule(alphas, thetas, message):
    # a NaN grid value would give rows validate_table_csv refuses
    with pytest.raises(ValueError, match=message):
        circuit_sweep_table(alphas, thetas)


# --- splitting error --------------------------------------------------------

def test_splitting_error_vanishes_at_zero_scale():
    assert trotter_error(uniform_triangle(0.3), 0.0) <= 1e-12


def test_splitting_error_third_order_ratio():
    for alpha in (0.0, 0.3):
        graph = uniform_triangle(alpha)
        for theta in (0.1, 0.05):
            ratio = trotter_error(graph, theta) / trotter_error(graph, theta / 2)
            assert 6.0 <= ratio <= 10.0


def test_disjoint_edges_split_exactly():
    graph = WalkHamiltonian(4, (Edge(0, 1, 1.0, 0.4), Edge(2, 3, 1.0, -0.9)))
    for theta in (0.1, 0.7, 2.0):
        assert trotter_error(graph, theta) <= 1e-12


def test_splitting_approximates_the_walk():
    graph = uniform_triangle(0.5)
    theta = 0.01
    circuit_error = trotter_error(graph, theta)
    assert circuit_error <= 1e-5
    exact = propagate(graph, theta)
    assert np.abs(exact).max() <= 1.0 + 1e-12


def mixed_triangle(self_energies=()) -> WalkHamiltonian:
    return WalkHamiltonian(3, (Edge(0, 1, 1.10, 0.3), Edge(1, 2, 0.65, -0.7),
                               Edge(0, 2, 0.57, 1.1)), self_energies)


def test_splitting_error_third_order_with_mixed_magnitudes():
    thetas = [0.2 / 2 ** k for k in range(5)]
    errors = [trotter_error(mixed_triangle(), theta) for theta in thetas]
    ratios = [errors[k] / errors[k + 1] for k in range(4)]
    assert all(7.0 <= r <= 9.0 for r in ratios)


def test_splitting_error_ignores_a_uniform_diagonal():
    # a uniform diagonal is a global phase, not a self-edge
    shifted = mixed_triangle(((0, 0.7), (1, 0.7), (2, 0.7)))
    for theta in (0.2, 0.05):
        assert trotter_error(shifted, theta) == trotter_error(mixed_triangle(), theta)


def test_splitting_rejections():
    with pytest.raises(ValueError, match="self-energies"):
        trotter_error(WalkHamiltonian(2, (Edge(0, 1, 1.0, 0.0),), ((0, 1.0),)), 0.1)
    with pytest.raises(ValueError, match="at least one edge"):
        trotter_error(WalkHamiltonian(2), 0.1)


# --- excitation preservation ------------------------------------------------

def test_triangle_circuit_preserves_excitation_number():
    for alpha in (0.0, PI / 2, PI, 3 * PI / 2):
        for theta in EXPERIMENT_GRID[::6]:
            circuit = three_cycle_circuit(alpha, float(theta))
            assert excitation_preservation_check(circuit) <= 1e-12


def test_identity_circuit_has_zero_leakage():
    assert excitation_preservation_check(PalindromicCircuit(3, ())) == 0.0


def test_random_palindromes_preserve_excitation_number():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        half = []
        for _ in range(int(rng.integers(1, 5))):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            half.append(GateSpec(i, j, float(rng.uniform(-PI, PI)),
                                 float(rng.uniform(-PI, PI))))
        assert excitation_preservation_check(PalindromicCircuit(n, half)) <= 1e-12


# --- circuit files ----------------------------------------------------------

def test_parse_circuit_round_trip():
    text = "# triangle half\ngate 0 1 0.5 0.25\ngate 1 2 0.5 0.25\ngate 2 0 0.5 0.25\n"
    circuit = parse_circuit(text)
    assert circuit.n_nodes == 3
    assert len(circuit.full) == 6
    again = parse_circuit(render_circuit(circuit))
    assert again == circuit


def test_parse_circuit_errors():
    with pytest.raises(GraphFormatError, match="expected 'gate"):
        parse_circuit("gate 0 1 0.5\n")
    with pytest.raises(GraphFormatError, match="bad gate parameters"):
        parse_circuit("gate 0 1 x 0.5\n")
    # reals follow the graph-file real rule: ASCII, no underscores
    with pytest.raises(GraphFormatError, match="bad gate parameters '1_0'"):
        parse_circuit("gate 0 1 1_0 0.5\n")
    with pytest.raises(GraphFormatError, match="bad gate parameters"):
        parse_circuit("gate 0 1 0.5 \u0661\n")
    with pytest.raises(GraphFormatError, match="empty circuit"):
        parse_circuit("# nothing\n")
    with pytest.raises(GraphFormatError, match="differ"):
        parse_circuit("gate 1 1 0.0 0.5\n")
    # endpoints follow the graph-file integer rule: ASCII digits only
    with pytest.raises(GraphFormatError, match="bad gate endpoint '1_0'"):
        parse_circuit("gate 1_0 2 0 0\n")
    with pytest.raises(GraphFormatError, match="bad gate endpoint"):
        parse_circuit("gate \u0660 1 0 0\n")


@pytest.mark.parametrize("text, fragment, line", [
    ("# half\ngate 0 x 0 0\n", "bad gate endpoint 'x'", 2),
    ("gate 0 1 0 0\n\ngate 2 2 0 0\n", "gate endpoints must differ, got (2, 2)", 3),
    ("gate 0 1 nan 0\n", "gate alpha must be finite, got nan", 1),
    ("gate 0 1 0 0\ngate 1 2 0.5\n", "expected 'gate", 2),
    ("gate 0 1 0 0 0\n", "expected 'gate", 1),
    ("gate 0 1 0 0\nnodes 3\n", "expected 'gate", 2),
    ("gate 0 1 0 0\ngate -1 2 0 0\n", "nonnegative", 2),
    ("\n  # note\n\ngate 0 1 1_0 0  # cut\n", "bad gate parameters '1_0'", 4),
    ("gate 0 1 0 0\ngate 0 3000000000 0 0\n",
     "circuit node count 3000000001 needs a dense array", 2),
])
def test_parse_circuit_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(GraphFormatError) as err:
        parse_circuit(text)
    assert fragment in str(err.value)
    assert str(err.value).startswith(f"line {line}: ")
    assert err.value.line == line


def test_parse_circuit_reports_a_non_finite_angle_by_the_gate_check():
    with pytest.raises(GraphFormatError, match="line 2: gate theta must be finite, got inf"):
        parse_circuit("gate 0 1 0 0\ngate 1 2 0.5 inf\n")

