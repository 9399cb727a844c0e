"""Structural classification, gauges, and numeric symmetry checks."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import (Edge, WalkHamiltonian, apply_gauge,
                        bipartite_negation_gauge, classify, cycle_flux,
                        default_time_samples, eq_parity_residual, is_bipartite,
                        is_forest, max_transfer, parse_graph, propagate, pts_numeric,
                        skeleton, to_dense, tree_phase_removal)
from chiralwalk import randgen, symmetry
from chiralwalk.defaults import DEFAULTS
from chiralwalk.graph import GraphSkeleton
from chiralwalk.propagator import chunk_length, spectrum

from .graphs import hermitian_graph, uniform_triangle

PI = math.pi


def random_forest_edges(rng, n):
    return [(int(rng.integers(0, v)), v) for v in range(1, n)
            if rng.random() < 0.9]


def assert_closed_odd_walk(skel, walk):
    assert walk[0] == walk[-1]
    assert (len(walk) - 1) % 2 == 1
    edge_set = set(skel.edges)
    for u, v in zip(walk, walk[1:]):
        if u == v:
            assert u in skel.self_nodes
        else:
            assert (min(u, v), max(u, v)) in edge_set


# --- classification ---------------------------------------------------------

def test_classify_chain_is_symmetric_and_phase_free():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.9\nedge 1 2 1 -0.4\nedge 2 3 1 2.0\n")
    report = classify(graph)
    assert report.structural_class == "tree"
    assert report.structural_pts is True
    assert report.phase_dependent is False
    assert report.phase_removal_gauge is not None
    assert report.numeric_pts_residual <= 1e-9


def test_classify_even_cycle_is_symmetric_but_phase_dependent():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.3\nedge 1 2 1 0.1\n"
                        "edge 2 3 1 -0.7\nedge 3 0 1 0.2\n")
    report = classify(graph)
    assert report.structural_class == "bipartite-with-cycles"
    assert report.structural_pts is True
    assert report.phase_dependent is True
    assert report.negation_gauge is not None
    assert report.numeric_pts_residual <= 1e-9


def test_classify_triangle_breaks_symmetry():
    report = classify(uniform_triangle(PI / 6))
    assert report.structural_class == "non-bipartite"
    assert report.structural_pts is False
    assert report.phase_dependent is True
    assert report.odd_cycle == (0, 1, 2, 0)
    assert report.numeric_pts_residual > 1e-3


def test_classify_zero_flux_triangle_distinguishes_structure_from_instance():
    # odd-cycle geometry, but this instance's flux is zero: the structural
    # verdict stays No while the sampled numerics report symmetry
    report = classify(uniform_triangle(0.0))
    assert report.structural_class == "non-bipartite"
    assert report.structural_pts is False
    assert report.pts_symmetric_at_samples is True
    assert report.numeric_pts_residual <= 1e-9


def test_classify_tree_with_self_edges():
    graph = parse_graph("nodes 3\nedge 0 1 1 0.4\nedge 1 2 1 0.8\nself 0 1.5\n")
    report = classify(graph)
    assert report.structural_class == "tree-with-self-edges"
    assert report.is_forest is True
    assert report.is_bipartite is False          # the self-edge is an odd cycle
    assert report.structural_pts is True          # phases still gauge away
    assert report.phase_dependent is False
    assert report.numeric_pts_residual <= 1e-9


def test_report_text_and_csv_round_trip_keys():
    report = classify(parse_graph("nodes 3\nedge a b 1 0.1\nedge b c 1 0.2\n"))
    text = report.to_text()
    assert "structural_class=tree" in text
    assert "phase_dependent=No" in text
    assert "labels=a:0;b:1;c:2" in text
    header = report.csv_header().split(",")
    row = report.to_csv_row().split(",")
    assert len(header) == len(row)



@pytest.mark.parametrize("text, verdict", [
    ("nodes 3\nedge 0 1 1 0.1\nedge 1 2 1 0.2\n", "Yes"),
    ("nodes 3\nedge 0 1 2 0.3\nedge 1 2 2 0.5\nedge 0 2 2 0.1\n", "No"),
])
def test_report_text_from_a_numpy_tolerance_reads_yes_no(text, verdict):
    # a numpy tolerance makes the verdict a numpy bool, still written Yes/No
    report = classify(parse_graph(text), np.float64(1e-9))
    flags = [f.name for f in dataclasses.fields(report) if f.type in ("bool", bool)]
    assert "is_forest" in flags
    lines = dict(line.split("=", 1) for line in report.to_text().splitlines())
    row = dict(zip(report.csv_header().split(","), report.to_csv_row().split(",")))
    for fields in (lines, row):
        assert fields["pts_symmetric_at_samples"] == verdict
        assert {fields[name] for name in flags} <= {"Yes", "No"}


# --- bipartiteness ----------------------------------------------------------

def test_path_is_bipartite_with_alternating_coloring():
    skel = skeleton(parse_graph("nodes 4\nedge 0 1 1 0\nedge 1 2 1 0\nedge 2 3 1 0\n"))
    check = is_bipartite(skel)
    assert check.bipartite
    assert check.coloring == (0, 1, 0, 1)


def test_triangle_witness_is_the_triangle():
    check = is_bipartite(skeleton(uniform_triangle(0.0)))
    assert not check.bipartite
    assert check.odd_cycle == (0, 1, 2, 0)
    assert_closed_odd_walk(skeleton(uniform_triangle(0.0)), check.odd_cycle)


def test_self_edge_is_a_unit_odd_cycle():
    graph = parse_graph("nodes 2\nedge 0 1 1 0\nself 1 3.0\n")
    check = is_bipartite(skeleton(graph))
    assert not check.bipartite
    assert check.odd_cycle == (1, 1)


def test_odd_cycle_witnesses_are_valid_walks():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            pairs.add((i, j))
        edges = tuple(Edge(i, j, 1.0, 0.0) for i, j in sorted(pairs))
        skel = skeleton(WalkHamiltonian(n, edges))
        check = is_bipartite(skel)
        if not check.bipartite:
            assert_closed_odd_walk(skel, check.odd_cycle)
        else:
            for i, j in skel.edges:
                assert check.coloring[i] != check.coloring[j]


# --- gauges -----------------------------------------------------------------

def test_single_edge_phase_removal():
    graph = parse_graph("nodes 2\nedge 0 1 1.0 0.7\n")
    gauge = tree_phase_removal(graph)
    assert gauge == (0.0, 0.7)
    assert abs(apply_gauge(graph, gauge).edges[0].alpha) <= 1e-15


def test_star_phase_removal_makes_hamiltonian_real():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.1\nedge 0 2 1 0.2\nedge 0 3 1 0.3\n")
    gauged = apply_gauge(graph, tree_phase_removal(graph))
    assert max(abs(e.alpha) for e in gauged.edges) <= 1e-12
    assert np.abs(to_dense(gauged).imag).max() <= 1e-12


def test_path_phase_removal_matches_propagation_rule():
    graph = parse_graph("nodes 3\nedge 0 1 1 0.78539816339744828\n"
                        "edge 1 2 1 -0.78539816339744828\n")
    gauge = tree_phase_removal(graph)
    assert np.allclose(gauge, (0.0, PI / 4, 0.0), atol=1e-15)
    gauged = apply_gauge(graph, gauge)
    assert max(abs(e.alpha) for e in gauged.edges) <= 1e-12


def test_phase_removal_round_trip_on_random_forests():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        edges = tuple(Edge(i, j, float(rng.uniform(0.5, 1.5)),
                           float(rng.uniform(-PI, PI)))
                      for i, j in random_forest_edges(rng, n))
        graph = WalkHamiltonian(n, edges)
        gauged = apply_gauge(graph, tree_phase_removal(graph))
        worst = max((abs(e.alpha) for e in gauged.edges), default=0.0)
        assert worst <= 1e-12


def test_phase_removal_rejects_cycles():
    with pytest.raises(ValueError, match="not a forest"):
        tree_phase_removal(uniform_triangle(0.1))


def test_two_site_negation_gauge():
    graph = parse_graph("nodes 2\nedge 0 1 1.0 0.4\n")
    gauge = bipartite_negation_gauge(graph)
    assert gauge == (0.0, PI)
    flipped = to_dense(apply_gauge(graph, gauge))
    assert np.abs(flipped + to_dense(graph)).max() <= 1e-12


def test_even_cycle_negation_gauge_with_uniform_diagonal():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.3\nedge 1 2 1 0.1\n"
                        "edge 2 3 1 -0.7\nedge 3 0 1 0.2\n"
                        "self 0 2.0\nself 1 2.0\nself 2 2.0\nself 3 2.0\n")
    gauge = bipartite_negation_gauge(graph)
    diag = np.diag(graph.diagonal())
    original = to_dense(graph) - diag
    flipped = to_dense(apply_gauge(graph, gauge)) - diag
    assert np.abs(flipped + original).max() <= 1e-12


def test_negation_gauge_rejections():
    with pytest.raises(ValueError, match="not bipartite"):
        bipartite_negation_gauge(uniform_triangle(0.0))
    with pytest.raises(ValueError, match="equal"):
        bipartite_negation_gauge(
            parse_graph("nodes 2\nedge 0 1 1 0\nself 0 1.0\n"))


def test_negation_gauge_implies_time_reversal_pairing():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.9\nedge 1 2 1 0.4\n"
                        "edge 2 3 1 1.3\nedge 3 0 1 -0.2\n")
    for t in (0.5, 1.9, 3.3):
        forward = np.abs(propagate(graph, t))
        backward = np.abs(propagate(graph, -t))
        assert np.abs(forward - backward).max() <= 1e-12


def test_apply_gauge_identity_and_mismatch():
    graph = uniform_triangle(0.5)
    assert apply_gauge(graph, (0.0, 0.0, 0.0)) == graph
    with pytest.raises(ValueError, match="gauge has"):
        apply_gauge(graph, (0.0, 0.0))


@settings(max_examples=40)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_gauge_composition(lam1, lam2):
    graph = uniform_triangle(0.3)
    one_then_two = apply_gauge(apply_gauge(graph, tuple(lam1)), tuple(lam2))
    combined = apply_gauge(graph, tuple(a + b for a, b in zip(lam1, lam2)))
    for left, right in zip(one_then_two.edges, combined.edges):
        assert abs(left.alpha - right.alpha) <= 1e-12


def test_gauge_preserves_transition_probabilities():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        edges = tuple(Edge(i, j, float(rng.uniform(0.5, 1.5)),
                           float(rng.uniform(-PI, PI)))
                      for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5)
        graph = WalkHamiltonian(n, edges)
        gauge = tuple(float(x) for x in rng.uniform(-PI, PI, n))
        t = float(rng.uniform(-5, 5))
        p = np.abs(propagate(graph, t)) ** 2
        p_gauged = np.abs(propagate(apply_gauge(graph, gauge), t)) ** 2
        assert np.abs(p - p_gauged).max() <= 1e-12


# --- numeric symmetry -------------------------------------------------------

def test_tree_pts_residual_is_tiny():
    rng = np.random.default_rng(2)
    graph = WalkHamiltonian(6, tuple(
        Edge(i, j, float(rng.uniform(0.5, 1.5)), float(rng.uniform(-PI, PI)))
        for i, j in random_forest_edges(rng, 6)))
    residual = pts_numeric(graph)
    assert residual <= 1e-9
    assert residual <= DEFAULTS.pts


def test_chiral_triangle_fails_pts_on_coarse_grid(monkeypatch):
    graph = uniform_triangle(PI / 6)  # total flux pi/2
    times = [2 * PI * k / 64 for k in range(1, 65)]
    monkeypatch.setattr(symmetry, "default_time_samples", lambda hamiltonian: times)
    residual = pts_numeric(graph)
    assert residual > 0.1
    assert not residual <= DEFAULTS.pts


def test_real_triangle_passes_pts():
    assert pts_numeric(uniform_triangle(0.0)) <= 1e-9


def pts_reference(graph, times):
    worst = 0.0
    for t in times:
        p = np.abs(propagate(graph, t)) ** 2
        worst = max(worst, float(np.abs(p - p.T).max()))
    return worst


# several full t-chunks, then a last one short by one, full, or of one time
@pytest.mark.parametrize("n, count", [(48, 4 * chunk_length(48) - 1), (48, 4 * chunk_length(48)),
                                      (48, 4 * chunk_length(48) + 1), (48, 1), (1, 1), (1, 5)])
def test_pts_residual_matches_per_time_loop_across_chunk_edges(monkeypatch, n, count):
    graph = hermitian_graph(np.random.default_rng(31), n)
    times = np.linspace(0.05, 4.0, count)
    monkeypatch.setattr(symmetry, "default_time_samples", lambda hamiltonian: times)
    assert abs(pts_numeric(graph) - pts_reference(graph, times)) <= 1e-12


def test_pts_numeric_peak_memory_is_bounded_by_the_chunk(monkeypatch):
    graph = hermitian_graph(np.random.default_rng(37), 200)
    tracemalloc.start()
    try:
        residual = pts_numeric(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = default_time_samples(graph)
    monkeypatch.setattr(symmetry, "default_time_samples", lambda hamiltonian: samples)
    assert residual == pts_numeric(graph)
    # the unchunked 64 x 200 x 200 complex stack alone is 41 MB
    assert peak < 32e6


def test_pts_sweep_working_set_is_one_cache_sized_chunk():
    graph = hermitian_graph(np.random.default_rng(41), 192)
    spectrum(graph)
    tracemalloc.start()
    try:
        pts_numeric(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 1 MiB chunk at N = 192 is one time: U, V scaled by its phases and
    # the kept V^H (0.59 MB each) and |U|^2, p - p^T (0.29 MB each) read
    # 2.07 MB; 4 MiB chunks of 7 times read 10.9 MB
    assert peak < 3e6


CHIRAL_TRIANGLE = "nodes 3\nedge 0 1 2 0.3\nedge 1 2 2 0.5\nedge 0 2 2 0.1\n"


def test_pts_residual_keeps_a_nan_chunk_and_classify_reads_it_as_asymmetric(monkeypatch):
    graph = parse_graph(CHIRAL_TRIANGLE)
    samples = [0.7]
    monkeypatch.setattr(symmetry, "default_time_samples", lambda hamiltonian: samples)
    assert pts_numeric(graph) > 0.5
    # t = 1e308 overflows the phases E * t on purpose, so the chunk holds NaN
    samples.append(1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = pts_numeric(graph)
        report = classify(graph)
    assert math.isnan(residual)
    assert math.isnan(report.numeric_pts_residual)
    assert not report.pts_symmetric_at_samples


@pytest.mark.parametrize("case", ["random", "probabilities", "symmetric", "nan"])
def test_pts_skew_is_each_matrix_s_max_magnitude_bit_for_bit(case):
    rng = np.random.default_rng(43)
    if case == "random":
        p = rng.random((4, 5, 5))
    else:
        graph = hermitian_graph(rng, 6)
        p = np.abs(np.array([propagate(graph, t) for t in (0.3, 1.1, 2.9)])) ** 2
    if case == "symmetric":
        p = p + p.swapaxes(-1, -2)
    if case == "nan":
        p[1, 2, 4] = np.nan
    expected = np.abs(p - p.swapaxes(-1, -2)).max(axis=(-2, -1))
    assert symmetry._pts_skew(p).tobytes() == expected.tobytes()
    assert [symmetry._pts_skew(matrix).tobytes() for matrix in p] == \
        [value.tobytes() for value in expected]
    if case == "symmetric":
        assert not expected.any()
    if case == "nan":
        assert np.isnan(expected).tolist() == [False, True, False]


def test_default_time_samples_scale_with_spectrum():
    samples = default_time_samples(uniform_triangle(0.0))
    assert len(samples) == 64
    assert math.isclose(samples[-1], 2 * PI / 2.0)  # spectral norm is 2


@pytest.mark.parametrize("function", [pts_numeric, default_time_samples])
def test_the_sample_grid_is_the_graph_s_own(function):
    assert list(inspect.signature(function).parameters) == ["hamiltonian"]


def test_grid_strides_are_the_coarse_grids_bit_for_bit():
    # the suites sample [3::4] and [7::8] of the 64-point grid; as k / 64 is
    # exact, these are the 16- and 8-point grids, one rounding of horizon * m / n
    rng = np.random.default_rng(37)
    graphs = [draw(rng) for _ in range(10) for draw in (
        lambda r: randgen.random_forest(r, n_max=12, with_self_energies=True),
        lambda r: randgen.random_hamiltonian(r, n_max=10))]
    faint = parse_graph("nodes 2\nedge 0 1 1e-307 0\n")  # horizon near the largest float
    for graph in graphs + [faint]:
        samples = default_time_samples(graph)
        horizon = 2 * PI / (spectrum(graph).spectral_norm or 1.0)
        assert math.isfinite(samples[-1])
        for stride, count in ((samples[3::4], 16), (samples[7::8], 8)):
            assert stride == tuple(horizon / count * m for m in range(1, count + 1))
            if graph is not faint:  # the grid a count of 16 or 8 gave, where it was finite
                assert stride == tuple(horizon * m / count for m in range(1, count + 1))


# --- parity-split residual --------------------------------------------------

def test_parity_residual_vanishes_on_bipartite_graphs():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.6\nedge 1 2 1 -0.2\n"
                        "edge 2 3 1 1.0\nedge 3 0 1 0.5\n")
    for t in (0.4, 1.1, 2.7):
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(eq_parity_residual(graph, t)[i, j]) <= 1e-12


def test_parity_residual_zero_at_zero_time():
    assert abs(eq_parity_residual(uniform_triangle(0.8), 0.0)[0, 2]) <= 1e-14


def test_parity_residual_nonzero_for_chiral_triangle():
    assert abs(eq_parity_residual(uniform_triangle(PI / 2), 0.9)[0, 2]) > 1e-3


def test_parity_residual_entry_is_the_documented_product():
    # [i, j] = odd[j,i] * even[i,j] - odd[i,j] * even[j,i]; its transpose,
    # the other pair order, reads the opposite sign
    graph = parse_graph(CHIRAL_TRIANGLE)
    u = propagate(graph, 0.7)
    even, odd = (u.conj().T + u) / 2.0, (u.conj().T - u) / 2.0
    expected = odd[1, 0] * even[0, 1] - odd[0, 1] * even[1, 0]
    residual = eq_parity_residual(graph, 0.7)[0, 1]
    assert abs(residual - expected) <= 1e-15
    assert residual.real == pytest.approx(-0.2933, abs=1e-4)


def test_parity_residual_is_half_the_probability_skew():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        edges = tuple(Edge(i, j, float(rng.uniform(0.5, 1.5)),
                           float(rng.uniform(-PI, PI)))
                      for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.6)
        if not edges:
            continue
        graph = WalkHamiltonian(n, edges)
        t = float(rng.uniform(0.2, 4.0))
        p = np.abs(propagate(graph, t)) ** 2
        for i in range(n):
            for j in range(i + 1, n):
                residual = eq_parity_residual(graph, t)[i, j]
                assert abs(2 * abs(residual) - abs(p[i, j] - p[j, i])) <= 1e-12


# --- cycle flux -------------------------------------------------------------

def test_triangle_flux_is_three_alpha():
    assert abs(cycle_flux(uniform_triangle(0.2), (0, 1, 2, 0)) - 0.6) <= 1e-12
    # 3 * 2.0 = 6.0 wraps into (-pi, pi]
    assert abs(cycle_flux(uniform_triangle(2.0), (0, 1, 2, 0))
               - (6.0 - 2 * PI)) <= 1e-12


def test_flux_of_minus_pi_reads_pi():
    # the reduction's half-open interval (-pi, pi] keeps pi and maps -pi onto it
    graph = WalkHamiltonian(3, (Edge(0, 1, 1.0, -PI), Edge(1, 2, 1.0, 0.0),
                                Edge(0, 2, 1.0, 0.0)))
    assert cycle_flux(graph, (0, 1, 2, 0)) == math.pi


def test_four_cycle_flux_cancels():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.1\nedge 1 2 1 0.2\n"
                        "edge 2 3 1 -0.3\nedge 3 0 1 0.0\n")
    assert abs(cycle_flux(graph, (0, 1, 2, 3, 0))) <= 1e-12


def test_flux_is_gauge_invariant():
    rng = np.random.default_rng(4)
    graph = uniform_triangle(0.77)
    for _ in range(20):
        gauge = tuple(float(x) for x in rng.uniform(-PI, PI, 3))
        flux = cycle_flux(apply_gauge(graph, gauge), (0, 1, 2, 0))
        base = cycle_flux(graph, (0, 1, 2, 0))
        assert abs(math.remainder(flux - base, 2 * PI)) <= 1e-12


def test_flux_orientation_flips_sign():
    graph = uniform_triangle(0.2)
    assert abs(cycle_flux(graph, (0, 2, 1, 0)) + 0.6) <= 1e-12


def test_flux_errors():
    graph = parse_graph("nodes 3\nedge 0 1 1 0\nedge 1 2 1 0\n")
    with pytest.raises(ValueError, match="no edge between 2 and 0"):
        cycle_flux(graph, (0, 1, 2, 0))
    with pytest.raises(ValueError, match="closed walk"):
        cycle_flux(graph, (0, 1, 2))


@pytest.mark.parametrize("call", [
    lambda graph: cycle_flux(graph, (0, 1.9, 2, 0)),  # not the walk (0, 1, 2, 0)
    lambda graph: cycle_flux(graph, (0.2, 1, 2, 0.7)),  # not closed
    lambda graph: max_transfer(graph, 0, 2.0, (0.0, 1.0)),
    lambda graph: max_transfer(graph, np.float64(0.0), 2, (0.0, 1.0)),
], ids=["flux-fraction", "flux-unclosed", "transfer-float", "transfer-numpy-float"])
def test_walk_nodes_are_read_by_the_integer_rule(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(uniform_triangle(0.2))


@pytest.mark.parametrize("skel, forest", [
    (GraphSkeleton(4, ()), True),                                   # isolated nodes
    (GraphSkeleton(5, ((0, 1), (2, 3), (3, 4))), True),             # two components
    (GraphSkeleton(2, ((0, 1), (0, 1))), False),                    # repeated pair
    (GraphSkeleton(3, ((0, 1), (1, 2), (0, 2))), False),            # triangle
    (GraphSkeleton(3, ((0, 1), (1, 2)), (0, 2)), True),             # self-nodes on a path
    (GraphSkeleton(6, ((0, 1), (2, 3), (3, 4), (2, 4))), False),    # cycle beside a tree
])
def test_is_forest_table(skel, forest):
    # a forest on N nodes with C components has exactly N - C edges
    assert is_forest(skel) is forest


def disjoint_union(a, b):
    shift = a.n_nodes
    edges = a.edges + tuple(Edge(e.i + shift, e.j + shift, e.h, e.alpha) for e in b.edges)
    selfs = a.self_energies + tuple((v + shift, x) for v, x in b.self_energies)
    return WalkHamiltonian(a.n_nodes + b.n_nodes, edges, selfs)


# every classify field but numeric_pts_residual, comma-joined in field order
FROZEN_STRUCTURAL_ROWS = (
    'tree-with-self-edges,6,5,Yes,No,Yes,No,Yes,,0;0,0;1.7286118688752445'
        ';1.2687904540555497;2.2579423513037353;2.1853329003679112'
        ';0.59578241714036184,,',
    'tree-with-self-edges,2,0,Yes,No,Yes,No,Yes,,1;1,0;0,,',
    'tree,3,2,Yes,Yes,Yes,No,Yes,0;1;0,,0;2.0566458760863622'
        ';1.9730341483537983,0;3.1415926535897931;0,',
    'tree,3,2,Yes,Yes,Yes,No,Yes,0;1;0,,0;2.8734166829758347'
        ';2.250977846652205,0;3.1415926535897931;0,',
    'tree,2,1,Yes,Yes,Yes,No,Yes,0;1,,0;-1.8948681472782301,0'
        ';3.1415926535897931,',
    'bipartite-with-cycles,7,4,No,Yes,Yes,Yes,Yes,0;0;1;0;1;0;0,,,0;0'
        ';3.1415926535897931;0;3.1415926535897931;0;0,',
    'tree,5,2,Yes,Yes,Yes,No,Yes,0;0;1;0;1,,0;0;2.6447402335780161;0'
        ';-0.46697638326166935,0;0;3.1415926535897931;0;3.1415926535897931,',
    'non-bipartite,4,5,No,No,No,Yes,No,,0;1;3;0,,,',
    'non-bipartite,3,3,No,No,No,Yes,No,,0;1;2;0,,,',
    'non-bipartite,5,6,No,No,No,Yes,No,,1;2;4;1,,,',
    'non-bipartite,3,3,No,No,No,Yes,No,,0;1;2;0,,,',
    'non-bipartite,5,7,No,No,No,Yes,No,,1;2;3;1,,,',
    'bipartite-with-cycles,6,6,No,Yes,Yes,Yes,Yes,0;1;0;1;0;1,,,0'
        ';3.1415926535897931;0;3.1415926535897931;0;3.1415926535897931,',
    'non-bipartite,6,5,No,No,No,Yes,No,,3;4;5;3,,,',
)


def test_classify_structural_fields_are_frozen():
    rng = np.random.default_rng(2361)
    graphs = [randgen.random_forest(rng, 6, with_self_energies=True) for _ in range(4)]
    graphs += [randgen.random_bipartite(rng, 8) for _ in range(3)]
    graphs += [randgen.random_nonbipartite(rng, 6) for _ in range(3)]
    graphs += [randgen.random_ring_with_chords(rng, 6)[0] for _ in range(3)]
    graphs.append(disjoint_union(randgen.random_forest(rng, 4),
                                 randgen.random_ring_with_chords(rng, 5)[0]))
    rows = []
    for graph in graphs:
        fields = classify(graph).fields()
        del fields["numeric_pts_residual"]
        rows.append(",".join(fields.values()))
    assert tuple(rows) == FROZEN_STRUCTURAL_ROWS


def test_one_skeleton_per_hamiltonian(monkeypatch):
    # a bipartite forest with a uniform diagonal: every structural step runs
    graph = WalkHamiltonian(4, (Edge(0, 1, 1.0, 0.3), Edge(1, 2, 0.8, -1.1),
                                Edge(1, 3, 1.2, 2.0)), tuple((v, 0.5) for v in range(4)))
    built = []
    original = GraphSkeleton.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GraphSkeleton, "__post_init__", counting)
    report = classify(graph)
    assert report.is_forest and report.is_bipartite
    assert len(built) == 1
    assert skeleton(graph) is skeleton(graph)
    assert len(built) == 1
