"""Graph model, file format, and structural validation."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import (DEFAULTS, Edge, GraphFormatError, PalindromicCircuit,
                        WalkHamiltonian, parse_circuit, parse_graph, render_graph, skeleton,
                        to_dense)
from chiralwalk.graph import load_graph
from chiralwalk.propagator import _fmt_real_block

TRIANGLE = "nodes 3\nedge 0 1 1.0 0.0\nedge 1 2 1.0 0.0\nedge 2 0 1.0 0.0\n"


def test_parse_three_cycle():
    graph = parse_graph(TRIANGLE)
    assert graph.n_nodes == 3
    assert [(e.i, e.j) for e in graph.edges] == [(0, 1), (0, 2), (1, 2)]
    assert all(e.h == 1.0 and e.alpha == 0.0 for e in graph.edges)
    dense = to_dense(graph)
    assert np.array_equal(dense, dense.T)  # real symmetric, exactly
    assert np.array_equal(dense.imag, np.zeros((3, 3)))


def test_parse_trivial_single_node():
    graph = parse_graph("nodes 1\n")
    assert graph.n_nodes == 1
    assert graph.edges == ()
    assert np.array_equal(to_dense(graph), np.zeros((1, 1), dtype=complex))


def test_parse_canonicalizes_reversed_edge():
    graph = parse_graph("nodes 2\nedge 1 0 1.0 0.7\n")
    assert graph.edges == (Edge(0, 1, 1.0, -0.7),)
    assert to_dense(graph)[0, 1] == np.exp(-0.7j)


def test_comments_and_blank_lines():
    text = "# walk on two sites\n\nnodes 2  # count\nedge 0 1 2.0 0.1 # coupling\n"
    graph = parse_graph(text)
    assert graph.edges == (Edge(0, 1, 2.0, 0.1),)


def test_to_dense_quarter_phase():
    graph = WalkHamiltonian(2, (Edge(0, 1, 1.0, math.pi / 2),))
    dense = to_dense(graph)
    assert np.allclose(dense, np.array([[0, 1j], [-1j, 0]]), atol=1e-15)
    assert np.array_equal(dense, dense.conj().T)


def test_to_dense_self_energy_only():
    graph = WalkHamiltonian(1, (), ((0, 2.5),))
    assert np.array_equal(to_dense(graph), np.array([[2.5 + 0j]]))


def test_dense_is_hermitian_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        edges = [Edge(i, j, float(rng.uniform(0.1, 2)), float(rng.uniform(-9, 9)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        graph = WalkHamiltonian(n, tuple(edges))
        dense = to_dense(graph)
        assert np.array_equal(dense, dense.conj().T)


def test_skeleton_three_cycle_no_self_edges():
    skel = skeleton(parse_graph(TRIANGLE))
    assert skel.edges == ((0, 1), (0, 2), (1, 2))
    assert skel.self_nodes == ()


def test_skeleton_marks_nodes_above_reference_energy():
    graph = parse_graph("nodes 3\nedge 0 1 1 0\nedge 1 2 1 0\n"
                        "self 0 1.0\nself 1 0.0\nself 2 0.0\n")
    assert skeleton(graph).self_nodes == (0,)


def test_skeleton_star_is_tree_shaped():
    graph = parse_graph("nodes 4\nedge 0 1 1 0\nedge 0 2 1 0\nedge 0 3 1 0\n")
    skel = skeleton(graph)
    assert len(skel.edges) == 3
    assert skel.self_nodes == ()


def test_skeleton_invariant_under_uniform_energy_shift():
    base = parse_graph("nodes 3\nedge 0 1 1 0.3\nself 0 0.5\nself 2 -0.25\n")
    for shift in (-3.0, 0.0, 1e-3, 7.25):
        shifted = WalkHamiltonian(
            base.n_nodes, base.edges,
            tuple((v, float(base.diagonal()[v] + shift)) for v in range(3)))
        assert skeleton(shifted) == skeleton(base)


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                  if pairs else st.just([]))
    magnitudes = st.floats(min_value=1e-6, max_value=1e6,
                           allow_nan=False, allow_infinity=False)
    phases = st.floats(min_value=-50.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False)
    edges = tuple(Edge(i, j, draw(magnitudes), draw(phases)) for i, j in chosen)
    self_nodes = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    selfs = tuple((v, draw(phases)) for v in self_nodes)
    return WalkHamiltonian(n, edges, selfs)


@settings(max_examples=60)
@given(hamiltonians())
def test_render_parse_round_trip(graph):
    again = parse_graph(render_graph(graph))
    assert again.n_nodes == graph.n_nodes
    assert again.edges == graph.edges
    assert again.self_energies == graph.self_energies
    assert np.array_equal(to_dense(again), to_dense(graph))


def test_round_trip_preserves_17_digit_reals():
    graph = WalkHamiltonian(2, (Edge(0, 1, 1 / 3, math.pi),), ((1, -2 / 7),))
    assert parse_graph(render_graph(graph)) == graph


def assert_block_is_fmt_real(values):
    """``_fmt_real_block`` gives ``format(x, ".17g")`` of every value and no RuntimeWarning."""
    values = np.asarray(values, dtype=float)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _fmt_real_block(values)
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    assert lines.tobytes().translate(None, b"\0").decode("ascii") == \
        "%.17g\n" * len(values) % tuple(values.tolist())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=100)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=16))
def test_real_block_kernel_matches_fmt_real_on_any_floats(values):
    assert_block_is_fmt_real(values)


def test_real_block_kernel_matches_fmt_real():
    rng = np.random.default_rng(20261019)
    # random positive patterns with exponent fields 59..1022, [2^-964, 1): the
    # kernel's own range [1e-290, 1) and the bottom of the binade below it
    exponents = rng.integers(59, 1023, 2 ** 18, dtype=np.uint64)
    mantissas = rng.integers(0, 2 ** 52, 2 ** 18, dtype=np.uint64)
    inside = (exponents << np.uint64(52)) | mantissas
    # arbitrary bit patterns, most of them for the fmt_real fallback
    anywhere = rng.integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64)
    for bits in (inside, anywhere):
        for start in range(0, len(bits), 2 ** 17):
            assert_block_is_fmt_real(bits[start:start + 2 ** 17].view(np.float64))
    # every decade boundary 10^k, k = -324..308, and 2 ulps either side
    centers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    boundaries = [centers]
    for direction in (math.inf, -math.inf):
        near = centers
        for _ in range(2):
            near = np.nextafter(near, direction)
            boundaries.append(near)
    assert_block_is_fmt_real(np.concatenate(boundaries))
    # rounding ties to 17 digits: x * 10^(16 - decade) ends in exactly .5
    ties = [1 + 2 ** -17, 3 * 2.0 ** -30, 26215 * 2.0 ** -18, 262143 * 2.0 ** -18,
            43 * 2.0 ** -22, 419 * 2.0 ** -22]
    specials = [0.0, -0.0, 1.0, 1 - 2 ** -53, 5e-324, sys.float_info.max]
    assert_block_is_fmt_real(ties + specials)


@pytest.mark.parametrize("text, fragment, line", [
    ("edge 0 1 1 0\n", "first declaration", 1),
    ("nodes 0\n", "positive", 1),
    ("nodes two\n", "nodes", 1),
    ("nodes 2\nnodes 2\n", "duplicate 'nodes'", 2),
    ("nodes 2\nedge 0 1 1\n", "expected 'edge", 2),
    ("nodes 2\nedge 0 1 x 0\n", "magnitude", 2),
    ("nodes 2\nedge 0 1 1 y\n", "phase", 2),
    ("nodes 2\nedge 0 0 1 0\n", "coincide", 2),
    ("nodes 2\nedge 0 1 0 0\n", "zero-magnitude", 2),
    ("nodes 2\nedge 0 1 -1 0\n", "negative", 2),
    ("nodes 2\nedge 0 2 1 0\n", "out of range", 2),
    ("nodes 2\nedge 0 1 1 0\nedge 1 0 1 0\n", "duplicate edge", 3),
    ("nodes 2\nself 0 1\nself 0 2\n", "duplicate self-energy", 3),
    ("nodes 2\nself 3 1\n", "out of range", 2),
    ("nodes 2\nself 0\n", "expected 'self <i> <energy>'", 2),
    ("nodes 2\nspin 0 1\n", "unknown declaration", 2),
    ("nodes 2\nedge a 1 1 0\n", "mix", 2),
    ("nodes 1\nedge a b 1 0\n", "exceeds declared node count", 2),
    ("nodes 2\nedge a b 1 0\nedge b a 1 0\n", "duplicate edge", 3),
    ("nodes 2\nself a 1\nself a 2\n", "duplicate self-energy", 3),
    ("nodes 2\nedge a a 1 0\n", "coincide", 2),
    # integers are ASCII digits; a count or index int() refuses names its line
    ("nodes \u00b2\n", "expected 'nodes", 1),
    ("nodes 2\nedge 0 \u00b2 1 0\n", "mix", 2),
    ("nodes 2\nedge \u0660 1 1 0\n", "mix", 2),
    # reals are ASCII without underscores, where float() alone reads both
    ("nodes 2\nedge 0 1 1_0 1\n", "bad edge magnitude '1_0'", 2),
    ("nodes 2\nedge 0 1 1 \u0661\n", "bad edge phase", 2),
    ("nodes 2\nself 0 \u0663\n", "bad self-energy", 2),
    # a non-finite real is the entry's own check, quoted as a value
    ("nodes 2\nedge 0 1 inf 0\n", "edge magnitude must be finite, got inf", 2),
    ("nodes 2\nedge 0 1 1 nan\n", "edge phase must be finite, got nan", 2),
    ("nodes 2\nself 0 -inf\n", "self-energy must be finite, got -inf", 2),
    # the entry range-checks its indices, after the parser has read every real
    ("nodes 2\nedge 0 5 x 0\n", "bad edge magnitude 'x'", 2),
    ("nodes 2\nedge 0 5 1 0\n", "edge (0, 5) index out of range for 2 nodes", 2),
    ("nodes 2\nself -1 0\n", "self-energy node -1 out of range", 2),
    pytest.param("nodes " + "9" * 5000 + "\n", "node count has 5000 digits", 1,
                 id="nodes-5000-digits"),
    pytest.param("nodes 3000000000\n", "node count 3000000000 needs a dense array", 1,
                 id="nodes-over-budget"),
    pytest.param("nodes 2\nedge 0 " + "9" * 5000 + " 1 0\n", "node index has 5000 digits", 2,
                 id="edge-5000-digits"),
])
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize("data, line", [
    (b"nodes 2\nedge 0 1 1 0\n# caf\xe9\n", 3),  # Latin-1, even in a comment
    (b"nodes 2\nedge 0 1 \xff 0\n", 2),
    (b"\x80nodes 2\n", 1),
])
def test_undecodable_bytes_carry_their_line(tmp_path, data, line):
    path = tmp_path / "bytes.graph"
    path.write_bytes(data)
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert str(err.value) == f"line {line}: not UTF-8 text"
    assert err.value.line == line


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "bom.graph"
    path.write_bytes(b"\xef\xbb\xbfnodes 2\nedge 0 1 1 0\n")
    assert load_graph(path) == parse_graph("nodes 2\nedge 0 1 1 0\n")


_NODE = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["a", "b", "c", "d"]))
_REAL = st.one_of(st.floats(-2.0, 2.0).map(repr), st.sampled_from(["1", "0", "-1e308"]))
_TOKEN = st.one_of(
    _NODE, _REAL,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1_0", "\u00b2", "\u0661", "x#y", "9" * 5000, "--1", "+2", "nodes"]),
)
_LINE = st.one_of(
    st.just("nodes 3"),
    st.builds("edge {} {} {} {}".format, _NODE, _NODE, _REAL, _REAL),
    st.builds("self {} {}".format, _NODE, _REAL),
    st.builds("gate {} {} {} {}".format, _NODE, _NODE, _REAL, _REAL),
    st.builds(" ".join, st.lists(_TOKEN, min_size=1, max_size=5)),
    st.sampled_from(["", "   ", "# comment", "\tspin 0 1 # junk keyword"]),
)


@settings(max_examples=300)
@given(st.lists(_LINE, max_size=8).map("\n".join))
def test_file_errors_name_a_line_that_holds_a_token(text):
    for parse in (parse_graph, parse_circuit):
        try:
            parse(text)
        except GraphFormatError as err:
            if err.line is None:
                assert str(err).startswith("empty ")
                continue
            assert str(err).startswith(f"line {err.line}: ")
            assert text.splitlines()[err.line - 1].split("#", 1)[0].split()


def test_parse_empty_file_is_an_error():
    with pytest.raises(GraphFormatError, match="empty graph file"):
        parse_graph("# nothing here\n")


def test_string_labels_map_in_declaration_order():
    graph = parse_graph("nodes 3\nedge a b 1 0.25\nself c -1\n")
    assert graph.labels == ("a", "b", "c")
    assert graph.edges == (Edge(0, 1, 1.0, 0.25),)
    assert graph.self_energies == ((2, -1.0),)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="duplicate edge"):
        WalkHamiltonian(2, (Edge(0, 1, 1, 0.1), Edge(1, 0, 1, 0.2)))
    with pytest.raises(ValueError, match="zero magnitude"):
        WalkHamiltonian(2, (Edge(0, 1, 0.0, 0.0),))
    with pytest.raises(ValueError, match="out of range"):
        WalkHamiltonian(2, (Edge(0, 5, 1.0, 0.0),))
    with pytest.raises(ValueError, match="self-coupling"):
        WalkHamiltonian(2, (Edge(1, 1, 1.0, 0.0),))
    with pytest.raises(ValueError, match="must be real"):
        WalkHamiltonian(1, (), ((0, 1 + 2j),))
    with pytest.raises(ValueError, match="positive integer"):
        WalkHamiltonian(0)
    with pytest.raises(ValueError, match="more labels than nodes"):
        WalkHamiltonian(2, labels=("a", "b", "c"))


@pytest.mark.parametrize("value", [1 + 0j, 0.5 + 1j, np.complex128(1.0),
                                   np.complex128(0.5 + 1j)])
def test_complex_reals_are_refused(value):
    # float() raises TypeError on a Python complex and truncates a numpy one
    with pytest.raises(ValueError, match="edge magnitude must be real"):
        WalkHamiltonian(2, (Edge(0, 1, value, 0.0),))
    with pytest.raises(ValueError, match="edge phase must be real"):
        WalkHamiltonian(2, (Edge(0, 1, 1.0, value),))
    with pytest.raises(ValueError, match="self-energy must be real"):
        WalkHamiltonian(2, (), ((0, value),))


def test_numpy_integer_node_count_is_accepted():
    graph = WalkHamiltonian(np.int64(3), (Edge(0, 2, 1.0, 0.5),))
    assert graph == WalkHamiltonian(3, (Edge(0, 2, 1.0, 0.5),))
    assert type(graph.n_nodes) is int
    with pytest.raises(ValueError, match="n_nodes must be an integer"):
        WalkHamiltonian(2.0)


def test_node_counts_over_the_dense_budget_are_refused():
    # one past the largest N whose N x N complex matrix fits the budget
    n = math.isqrt(DEFAULTS.dense_bytes // 16) + 1
    for build in (WalkHamiltonian, lambda count: PalindromicCircuit(count, ())):
        with pytest.raises(ValueError, match=f"n_nodes {n} needs a dense array"):
            build(n)
        assert build(n - 1).n_nodes == n - 1  # nothing dense is built yet


@pytest.mark.parametrize("node", [1.7, 1.0, np.float64(1.0)])
def test_nodes_must_be_integers(node):
    with pytest.raises(ValueError, match="self-energy node must be an integer"):
        WalkHamiltonian(3, (), ((node, 0.5),))
    with pytest.raises(ValueError, match="edge endpoint must be an integer"):
        WalkHamiltonian(3, (Edge(0, node, 1.0, 0.0),))


def test_numpy_integer_nodes_are_accepted():
    graph = WalkHamiltonian(3, (Edge(np.int64(0), np.int64(2), 1.0, 0.0),),
                            ((np.int64(1), 0.5),))
    assert graph.edges == (Edge(0, 2, 1.0, 0.0),)
    assert graph.self_energies == ((1, 0.5),)
    assert all(type(e) is int for e in (graph.edges[0].i, graph.self_energies[0][0]))


def test_directed_phase_orientation():
    graph = parse_graph("nodes 2\nedge 0 1 1.0 0.7\n")
    assert graph.directed_phase(0, 1) == 0.7
    assert graph.directed_phase(1, 0) == -0.7
    with pytest.raises(ValueError, match="no edge"):
        graph.directed_phase(0, 0)
