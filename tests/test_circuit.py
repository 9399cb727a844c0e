"""Two-site gates, palindromes, the triangle circuit, splitting error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import (Edge, GateSpec, GraphFormatError, PalindromicCircuit,
                        WalkHamiltonian, apply_circuit,
                        excitation_preservation_check, gate_qubit_space,
                        parse_circuit, propagate, render_circuit, rz_decompose,
                        three_cycle_circuit, three_cycle_unitaries, trotter_error)
from chiralwalk.circuit import _qubit_columns, gate_node_matrix, three_cycle_transfer

from .graphs import qubit_block, uniform_triangle
from .oracles import pair_gate_taylor, three_cycle_taylor

PI = math.pi
EXPERIMENT_GRID = [-PI + k * PI / 18 for k in range(37)]

angles = st.floats(min_value=-2 * PI, max_value=2 * PI,
                   allow_nan=False, allow_infinity=False)


# --- single gates -----------------------------------------------------------

def test_gate_node_zero_angle_is_identity():
    u = gate_node_matrix(GateSpec(0, 1, 0.9, 0.0), 4)
    assert np.array_equal(u, np.eye(4, dtype=complex))


def test_gate_node_quarter_angle_swaps_probability():
    u = gate_node_matrix(GateSpec(0, 1, 0.0, PI / 2), 2)
    block = np.array([[0.0, -1j], [-1j, 0.0]])
    assert np.abs(u - block).max() <= 1e-15


def test_single_gate_transfer_is_alpha_independent():
    rng = np.random.default_rng(1)
    for _ in range(25):
        alpha = float(rng.uniform(-2 * PI, 2 * PI))
        theta = float(rng.uniform(-2 * PI, 2 * PI))
        u = gate_node_matrix(GateSpec(0, 1, alpha, theta), 2)
        expected = math.sin(theta) ** 2
        assert abs(abs(u[1, 0]) ** 2 - expected) <= 1e-12
        assert abs(abs(u[0, 1]) ** 2 - expected) <= 1e-12
        assert abs(np.abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_gate_orientation_flip_negates_alpha():
    a = gate_node_matrix(GateSpec(0, 2, 0.8, 1.1), 3)
    b = gate_node_matrix(GateSpec(2, 0, -0.8, 1.1), 3)
    assert np.array_equal(a, b)


def test_gate_qubit_zero_angle_is_identity():
    assert np.abs(gate_qubit_space(GateSpec(0, 1, 1.2, 0.0)) - np.eye(4)).max() == 0.0


@settings(max_examples=50, deadline=None)
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
        node = gate_node_matrix(gate, 2)
        assert np.abs(restricted - node).max() <= 1e-12


# --- z-rotation decomposition -----------------------------------------------

def test_rz_decompose_trivial_at_zero_alpha():
    pre, sym, post = rz_decompose(GateSpec(0, 1, 0.0, 0.7))
    assert np.abs(pre - np.eye(4)).max() <= 1e-15
    assert np.abs(post - np.eye(4)).max() <= 1e-15
    assert np.abs(sym - gate_qubit_space(GateSpec(0, 1, 0.0, 0.7))).max() == 0.0


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=30, deadline=None)
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


def test_row_update_engine_matches_gate_products():
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        for _ in range(12):
            circuit = random_palindrome_with_repeats(rng, n)
            product = np.eye(n, dtype=complex)
            for gate in circuit.full:
                product = gate_node_matrix(gate, n) @ product
            assert np.abs(apply_circuit(circuit) - product).max() <= 1e-13


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

