"""Spectral evolution, transition probabilities, sweeps, maximization."""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from chiralwalk import (Edge, WalkHamiltonian, apply_gauge, eig_hermitian,
                        eq_parity_residual, max_transfer, parse_graph, propagate,
                        sweep_time, to_dense, trotter_error)
from chiralwalk import propagator
from chiralwalk.cli import _transfer_csv
from chiralwalk.propagator import (TransportTable, chunk_length, field_rows, render_csv,
                                   spectrum)

from .graphs import blas_core, csv_text, hermitian_graph, uniform_triangle, validate_table_csv
from .oracles import expm_taylor, triangle_probability_closed_form, \
    circulant_triangle_eigenvalues

PI = math.pi


def two_site() -> WalkHamiltonian:
    return WalkHamiltonian(2, (Edge(0, 1, 1.0, 0.0),))


# --- eigendecomposition -----------------------------------------------------

def test_eig_two_site_spectrum():
    dec = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eig_triangle_spectra_match_circulant_formula():
    for alpha in (0.0, PI / 2):
        dec = eig_hermitian(to_dense(uniform_triangle(alpha)))
        assert np.allclose(dec.eigenvalues,
                           circulant_triangle_eigenvalues(alpha), atol=1e-9)
    assert np.allclose(
        eig_hermitian(to_dense(uniform_triangle(0.0))).eigenvalues,
        [-1.0, -1.0, 2.0], atol=1e-9)
    assert np.allclose(
        eig_hermitian(to_dense(uniform_triangle(PI / 2))).eigenvalues,
        [-math.sqrt(3), 0.0, math.sqrt(3)], atol=1e-9)


def test_eig_rejects_a_non_finite_spectrum():
    # finite entries whose spectrum overflows float64
    with pytest.raises(ValueError, match="not finite"):
        eig_hermitian(to_dense(parse_graph(
            "nodes 3\nedge 0 1 1e308 0.3\nedge 1 2 1e308 0.5\nedge 0 2 1e308 0.1\n")))


def test_spectrum_is_kept_on_its_hamiltonian(monkeypatch):
    calls = []
    monkeypatch.setattr(propagator, "eig_hermitian",
                        lambda matrix: calls.append(1) or eig_hermitian(matrix))
    graph = uniform_triangle(0.4)
    assert spectrum(graph) is spectrum(graph)
    propagate(graph, 0.5)
    sweep_time(graph, [0.1, 0.2])
    max_transfer(graph, 0, 2, (0.0, 1.0))
    assert len(calls) == 1
    gauged = apply_gauge(graph, (0.3, -0.1, 0.7))
    assert spectrum(gauged) is not spectrum(graph)
    assert len(calls) == 2
    assert np.allclose(spectrum(gauged).eigenvalues, spectrum(graph).eigenvalues,
                       atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        eig_hermitian(np.zeros((2, 3)))
    # the gates judge a stack as a whole: one bad matrix refuses it
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(np.stack([np.eye(2), [[0.0, 1.0], [0.5, 0.0]]]))
    with pytest.raises(ValueError, match="square"):
        eig_hermitian(np.zeros(3))


def folded_product(dec, times) -> np.ndarray:
    """One spectrum's unitaries at ``times`` as one (T*N, N) x (N, N) matrix
    product, the reference the broadcast ``propagator_batch`` must equal."""
    n = dec.n
    ph = np.exp(-1j * np.outer(np.asarray(times, dtype=float), dec.eigenvalues))
    return ((dec.eigenvectors * ph[:, None, :]).reshape(-1, n) @ dec.adjoint).reshape(-1, n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 48, 64, 200])
def test_propagator_batch_equals_the_folded_product_byte_for_byte(n):
    rng = np.random.default_rng(n)
    dec = spectrum(hermitian_graph(rng, n))
    full = chunk_length(n)
    for count in sorted({1, 3, full // 2, full - 1, full} - {0}):  # partial and full t-chunks
        times = rng.uniform(-5.0, 5.0, size=count)
        batch = dec.propagator_batch(times)
        assert batch.shape == (count, n, n)
        assert batch.tobytes() == folded_product(dec, times).tobytes(), (
            f"equal bytes established under the SkylakeX OpenBLAS core, "
            f"run under {blas_core()}")


def test_stacked_spectra_and_propagators_equal_one_graph_at_a_time():
    rng = np.random.default_rng(8)
    graphs = [hermitian_graph(rng, 6) for _ in range(5)]
    alone = [hermitian_graph(np.random.default_rng(8), 6)]  # a copy of graphs[0]
    alone += [WalkHamiltonian(6, g.edges, g.self_energies) for g in graphs[1:]]
    times = rng.uniform(-5.0, 5.0, size=5)
    stack = propagator.spectra(graphs)
    for k, (graph, copy) in enumerate(zip(graphs, alone)):
        # each spectrum is kept on its graph, bit for bit the one-graph spectrum
        assert spectrum(graph).eigenvalues.tobytes() == spectrum(copy).eigenvalues.tobytes()
        assert spectrum(graph).eigenvectors.tobytes() == spectrum(copy).eigenvectors.tobytes()
        assert spectrum(graph).eigenvalues.tobytes() == stack.eigenvalues[k].tobytes()
    unitaries = stack.propagator_batch(times)
    assert unitaries.shape == (5, 6, 6)
    for u, copy, t in zip(unitaries, alone, times):
        assert u.tobytes() == folded_product(spectrum(copy), [t])[0].tobytes()


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 17))
        matrix = to_dense(hermitian_graph(rng, n))
        dec = eig_hermitian(matrix)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        scale = max(1.0, float(np.abs(matrix).max()))
        assert np.abs(rebuilt - matrix).max() <= 1e-10 * scale
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-14)


# --- propagation ------------------------------------------------------------

def test_propagate_zero_time_is_identity():
    u = propagate(uniform_triangle(0.4), 0.0)
    assert np.abs(u - np.eye(3)).max() <= 1e-12


def test_two_site_full_transfer_at_quarter_period():
    u = propagate(two_site(), PI / 2)
    assert abs(abs(u[1, 0]) ** 2 - 1.0) <= 1e-12


def test_negative_time_is_adjoint():
    graph = uniform_triangle(0.9)
    forward = propagate(graph, 1.3)
    backward = propagate(graph, -1.3)
    assert np.abs(backward - forward.conj().T).max() <= 1e-10


def test_group_property():
    rng = np.random.default_rng(5)
    graph = uniform_triangle(0.2)
    for _ in range(10):
        t1, t2 = rng.uniform(-3, 3, size=2)
        joined = propagate(graph, float(t1 + t2))
        split = propagate(graph, float(t1)) @ propagate(graph, float(t2))
        assert np.abs(joined - split).max() <= 1e-9


def test_unitarity_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 17))
        edges = tuple(Edge(i, j, float(rng.uniform(0.2, 1.5)),
                           float(rng.uniform(-PI, PI)))
                      for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.4)
        graph = WalkHamiltonian(n, edges)
        u = propagate(graph, float(rng.uniform(-10, 10)))
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-10


def test_spectral_shift_changes_nothing_observable():
    graph = uniform_triangle(0.7)
    shifted = WalkHamiltonian(3, graph.edges, tuple((v, 2.5) for v in range(3)))
    for t in (0.3, 1.7, 4.0):
        p = np.abs(propagate(graph, t)) ** 2
        p_shifted = np.abs(propagate(shifted, t)) ** 2
        assert np.abs(p - p_shifted).max() <= 1e-12


def test_matches_taylor_squaring_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        graph = hermitian_graph(rng, n)
        t = float(rng.uniform(-4, 4))
        via_spectrum = propagate(graph, t)
        via_taylor = expm_taylor(-1j * to_dense(graph) * t)
        assert np.abs(via_spectrum - via_taylor).max() <= 1e-8


def test_triangle_transfer_matches_closed_form():
    graph = uniform_triangle(0.0)
    for t in np.linspace(0.0, 2 * PI, 41):
        p = abs(propagate(graph, float(t))[2, 0]) ** 2
        assert abs(p - triangle_probability_closed_form(float(t))) <= 1e-12


# --- batched kernel ---------------------------------------------------------

def test_propagator_batch_matches_per_time_and_taylor_oracle():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 9):
        graph = hermitian_graph(rng, n)
        times = rng.uniform(-2, 2, size=7)
        batch = spectrum(graph).propagator_batch(times)
        assert batch.shape == (7, n, n)
        for t, u in zip(times, batch):
            assert np.abs(u - propagate(graph, t)).max() <= 1e-12
            assert np.abs(u - expm_taylor(-1j * to_dense(graph) * t)).max() <= 1e-12


def sweep_reference(graph, times):
    return np.array([np.abs(propagate(graph, t)) ** 2 for t in times])


# several full t-chunks, then a last one short by one, full, or of one time
@pytest.mark.parametrize("n, count", [(64, 4 * chunk_length(64) - 1), (64, 4 * chunk_length(64)),
                                      (64, 4 * chunk_length(64) + 1), (64, 1), (1, 1), (1, 5)])
def test_sweep_matches_per_time_loop_across_chunk_edges(n, count):
    rng = np.random.default_rng(23)
    graph = hermitian_graph(rng, n)
    times = np.linspace(-3.0, 3.0, count)
    probabilities = sweep_time(graph, times).probabilities
    assert probabilities.shape == (count, n, n)
    assert np.abs(probabilities - sweep_reference(graph, times)).max() <= 1e-12


def test_chunk_length_fills_the_budget():
    assert chunk_length(64) == 16           # 1 MiB / (16 bytes * 64^2)
    assert chunk_length(1000) == 1          # one matrix even above the budget
    assert chunk_length(1) >= 1 and chunk_length(0) >= 1


# --- sweeps -----------------------------------------------------------------

def test_sweep_single_zero_time_gives_identity_rows():
    table = sweep_time(uniform_triangle(0.3), [0.0])
    assert np.abs(table.probabilities[0] - np.eye(3)).max() <= 1e-12
    assert table.column_sum_defect() <= 1e-9


def test_tree_table_equals_phase_zeroed_table():
    graph = parse_graph("nodes 4\nedge 0 1 1 0.9\nedge 1 2 1 -1.3\nedge 1 3 1 2.2\n")
    times = np.linspace(0.1, 6.0, 24)
    chiral = sweep_time(graph, times).probabilities
    plain = sweep_time(graph.zero_phase_copy(), times).probabilities
    assert np.abs(chiral - plain).max() <= 1e-9


def test_triangle_sweep_respects_transfer_ceiling():
    table = sweep_time(uniform_triangle(0.0), np.linspace(1e-3, 2 * PI, 256))
    off_diagonal = table.probabilities.copy()
    off_diagonal[:, range(3), range(3)] = 0.0
    assert off_diagonal.max() <= 4.0 / 9.0 + 1e-9


def test_sweep_requires_nonempty_grid():
    with pytest.raises(ValueError, match="nonempty"):
        sweep_time(uniform_triangle(0.0), [])


def test_table_csv_schema_and_precision():
    table = sweep_time(two_site(), [0.0, 0.25, 1 / 3])
    text = csv_text(table)
    validate_table_csv(text)
    lines = text.strip().split("\n")
    assert lines[0] == "axis,from,to,probability"
    assert len(lines) == 1 + 3 * 4
    # 17 significant digits round-trip the axis value exactly
    axis_value = float(lines[-1].split(",")[0])
    assert axis_value == 1 / 3


# one bit pattern of each awkward kind: zero, one, a repeating binary
# fraction, the float just below 1, and the smallest subnormal
AWKWARD = (0.0, 1.0, 1 / 3, 1 - 2 ** -53, 5e-324)


def reference_csv(table):
    """The per-row ``format(x, ".17g")`` loop that defines the byte contract."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    # the schema follows from the width of the grid: a time, or the gate angles
    lines = [{1: "axis,from,to,probability",
              2: "alpha,theta,from,to,probability"}[table.axes.shape[1]]]
    prefixes = [",".join(fmt(x) for x in point) for point in table.axes]
    for k, prefix in enumerate(prefixes):
        for frm in range(table.n):
            for to in range(table.n):
                lines.append(f"{prefix},{frm},{to},"
                             f"{fmt(table.probabilities[k, to, frm])}")
    return "\n".join(lines) + "\n"


def awkward_probabilities(count, n):
    cells = count * n * n
    return np.resize(np.array(AWKWARD), cells).reshape(count, n, n)


def test_time_table_csv_matches_reference_bytes():
    axes = (-PI,) + AWKWARD
    table = TransportTable(axes, awkward_probabilities(len(axes), 3))
    text = csv_text(table)
    assert text == reference_csv(table)
    assert text.split("\n")[1] == "-3.1415926535897931,0,0,0"
    assert "4.9406564584124654e-324" in text
    assert "0.99999999999999989" in text


def test_circuit_table_csv_matches_reference_bytes():
    axes = tuple((alpha, theta) for alpha in (-PI, 1 / 3)
                 for theta in (5e-324, 0.0, 1 - 2 ** -53))
    table = TransportTable(axes, awkward_probabilities(len(axes), 2))
    text = csv_text(table)
    assert text == reference_csv(table)
    assert text.split("\n")[1] == "-3.1415926535897931,4.9406564584124654e-324,0,0,0"


@pytest.mark.parametrize("kind, axes", [("time", ()), ("time", (0.5,)),
                                        ("circuit", ((0.5, 1.0),))])
def test_degenerate_table_csv_matches_reference_bytes(kind, axes):
    # no grid points, or no nodes: the header alone
    table = TransportTable(axes, np.zeros((len(axes), 0, 0)))
    assert csv_text(table) == reference_csv(table)
    assert csv_text(table).startswith({"time": "axis,", "circuit": "alpha,"}[kind])


@pytest.mark.parametrize("outer, inner", [(0, 3), (2, 0), (0, 0)])
def test_a_grid_without_rows_renders_its_header_alone(outer, inner):
    # `outer` times of `inner` nodes, or `outer` alphas by `inner` thetas: with
    # either count 0 there are no values, so no block
    table = TransportTable(np.arange(outer, dtype=float), np.zeros((outer, inner, inner)))
    assert csv_text(table) == "axis,from,to,probability\n"
    assert table.column_sum_defect() == 0.0  # no column, so no defect
    transfer = np.zeros((outer, inner))
    assert _transfer_csv(np.arange(outer), np.arange(inner), transfer) == \
        b"alpha,theta,from,to,probability\n"


def test_table_csv_matches_reference_bytes_on_a_sweep():
    table = sweep_time(hermitian_graph(np.random.default_rng(41), 7),
                       np.linspace(-2.0, 3.0, 11))
    assert csv_text(table) == reference_csv(table)


def test_table_csv_peak_memory_is_bounded():
    # (N, T) = (48, 256): 589 824 rows, 28 MB of text.  A list of one string
    # per row peaks near 115 MB; one string per grid point stays near 59 MB.
    probabilities = np.random.default_rng(43).random((256, 48, 48))
    table = TransportTable(np.linspace(0.0, 9.0, 256), probabilities)
    tracemalloc.start()
    try:
        text = csv_text(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + 256 * 48 * 48
    assert peak < 85e6


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 100, 101])
def test_table_csv_renders_the_bytes_of_one_string_per_pair(n):
    # reference: field_rows of N^2 Python (from, to) tuples, one string per pair
    pairs = field_rows([(frm, to) for frm in range(n) for to in range(n)])
    for axes in ((0.0, 0.5, 2.25), ((0.0, 1.0), (PI, 1 / 3))):
        probabilities = np.random.default_rng(n).random((len(axes), n, n))
        table = TransportTable(axes, probabilities)
        points = np.reshape(axes, (len(axes), -1))
        values = probabilities.transpose(0, 2, 1).reshape(len(axes), n * n)
        reference = b"".join(render_csv(points.shape[1], field_rows(points), pairs, values))
        assert csv_text(table).encode("ascii") == reference


def test_table_csv_keeps_no_memory_at_512_nodes():
    # nothing outlives the call; the peak, 4.2-4.3 MiB when measured, is the 2 MiB
    # of values in from-major order and one render block, with no N^2 field table
    table = TransportTable((0.5,), np.random.default_rng(5).random((1, 512, 512)))
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table.to_csv(sink)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert current - start < 0.25 * 2 ** 20
    assert peak - start < 5 * 2 ** 20


@pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (2, 3, 3, 1), ()])
def test_table_refuses_a_tensor_that_is_not_points_by_nodes_by_nodes(shape):
    with pytest.raises(ValueError, match=re.escape(f"(points, N, N), got {shape}")):
        TransportTable((0.5, 1.0), np.zeros(shape))


# of both schemas: three fields a point, ragged points, text, and a time per
# point for three points where the tensor has two
@pytest.mark.parametrize("axes", [((0.5, 1.0, 2.0), (0.5, 1.0, 2.0)), ((0.5, 1.0), (2.0,)),
                                  ("x", "y"), (0.5, 1.0, 2.0)])
def test_circuit_table_refuses_axes_that_are_not_angle_pairs(axes):
    with pytest.raises(ValueError, match="shape"):
        TransportTable(axes, np.zeros((2, 3, 3)))


def test_table_schema_follows_from_the_width_of_its_axes():
    # one (alpha, theta) pair is a circuit table, whatever else it could be taken
    # for; text is refused when the table is built, not when it is written
    table = TransportTable(((0.5, 1.0),), awkward_probabilities(1, 2))
    assert csv_text(table) == reference_csv(table)
    assert csv_text(table).startswith("alpha,theta,from,to,probability\n0.5,1,0,0,0\n")
    with pytest.raises(ValueError, match="shape"):
        TransportTable(("x",), np.zeros((1, 2, 2)))


def test_table_keeps_its_axes_as_a_read_only_float_grid():
    times = np.array([0, 1])
    table = TransportTable(times, np.zeros((2, 1, 1)))
    times[0] = 7
    assert table.axes.dtype == np.float64 and table.axes.tolist() == [[0.0], [1.0]]
    with pytest.raises(ValueError, match="read-only"):
        table.axes[0, 0] = 7.0


def test_array_dataclasses_compare_by_identity_and_hash():
    # a generated __eq__ over ndarray fields asks an array for its truth value
    graph = two_site()
    table = sweep_time(graph, [0.5, 1.0])
    assert (table == sweep_time(graph, [0.5, 1.0])) is False
    assert table == table and hash(table) == hash(table)
    assert (spectrum(graph) == spectrum(two_site())) is False
    assert spectrum(graph) == spectrum(graph) and {spectrum(graph)} == {spectrum(graph)}


@pytest.mark.parametrize("block", [1, 2, 3, 4, 13])
@pytest.mark.parametrize("kind", ["time", "circuit"])
def test_table_csv_bytes_do_not_depend_on_the_block_length(monkeypatch, block, kind):
    # blocks of the values kernel that end inside a grid point and across
    # several; each table holds values the kernel computes and values it hands
    # to fmt_real
    monkeypatch.setattr(propagator, "CSV_BLOCK_VALUES", block)
    for count in (1, 2, 5, 13):
        axes = tuple(np.linspace(-PI, 1 / 3, count))
        if kind == "circuit":
            axes = tuple((alpha, alpha / 7) for alpha in axes)
        table = TransportTable(axes, awkward_probabilities(count, 3))
        assert csv_text(table) == reference_csv(table)
        assert csv_text(table, header=False) == reference_csv(table).split("\n", 1)[1]


@pytest.mark.parametrize("block", [1, 2, 3, 4, 13])
def test_transfer_csv_bytes_do_not_depend_on_the_block_length(monkeypatch, block):
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    alphas = [0.0, 1 / 3, PI, 5e-324, 2.5]
    thetas = [-PI, 0.0, 1 - 2 ** -53]
    transfer = np.resize(np.array(AWKWARD), (len(alphas), len(thetas)))
    rows = [[f"{fmt(alpha)},{fmt(theta)},0,2,{fmt(transfer[a, k])}\n"
             for k, theta in enumerate(thetas)] for a, alpha in enumerate(alphas)]
    header = "alpha,theta,from,to,probability\n"
    monkeypatch.setattr(propagator, "CSV_BLOCK_VALUES", block)
    # the fig2 surface, and one of its constant-alpha slices
    assert _transfer_csv(alphas, thetas, transfer).decode("ascii") == \
        header + "".join(sum(rows, []))
    assert _transfer_csv(alphas[1:2], thetas, transfer[1][None]).decode("ascii") == \
        header + "".join(rows[1])


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_table_csv_renders_in_one_block_without_fork_or_affinity(monkeypatch, missing):
    # rendering stays in this process: it needs neither os.fork nor the CPU
    # affinity, and opens no pipe
    monkeypatch.delattr(os, missing, raising=False)
    monkeypatch.setattr(os, "pipe", lambda: pytest.fail("a pipe was opened"))
    table = TransportTable(AWKWARD, awkward_probabilities(len(AWKWARD), 2))
    assert table.probabilities.size <= propagator.CSV_BLOCK_VALUES
    assert csv_text(table) == reference_csv(table)


def test_csv_validator_rejects_malformed_tables():
    with pytest.raises(ValueError, match="header"):
        validate_table_csv("time,from,to,p\n0,0,0,1\n")
    with pytest.raises(ValueError, match="columns"):
        validate_table_csv("axis,from,to,probability\n0,0,0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        validate_table_csv("axis,from,to,probability\n0,0,0,x\n")
    with pytest.raises(ValueError, match="out of range"):
        validate_table_csv("axis,from,to,probability\n0,0,0,1.5\n")


# --- maximization -----------------------------------------------------------

def test_max_transfer_two_site():
    t_star, p_star = max_transfer(two_site(), 0, 1, (0.0, 2 * PI))
    assert abs(p_star - 1.0) <= 1e-9
    assert abs(t_star - PI / 2) <= 1e-6


def test_max_transfer_keeps_a_scan_point_the_refinement_misses():
    # sin^2(t) rises across the whole window, so its peak is the window's end;
    # each of ``_peak``'s scans includes both ends of its window, and every
    # rescan keeps the end, so the end itself is returned, not a point near it
    t_star, p_star = max_transfer(two_site(), 0, 1, (0.0, 1.0))
    assert t_star == 1.0
    assert abs(p_star - math.sin(1.0) ** 2) <= 1e-15


def test_max_transfer_symmetric_triangle_is_four_ninths():
    _, p_star = max_transfer(uniform_triangle(0.0), 0, 2, (0.0, 2 * PI))
    assert abs(p_star - 4.0 / 9.0) <= 1e-9


def test_max_transfer_chiral_triangle_is_near_perfect():
    _, p_star = max_transfer(uniform_triangle(PI / 6), 0, 2, (0.0, 2 * PI))
    assert p_star >= 0.999
    _, p_star_edgewise = max_transfer(uniform_triangle(PI / 2), 0, 2, (0.0, 2 * PI))
    assert p_star_edgewise >= 0.999


def test_max_transfer_never_exceeds_one_where_the_transfer_is_perfect():
    # the rounded sum over the spectrum gave 1.0000000000000004 at the chiral peak
    for alpha in (PI / 6, PI / 2, -PI / 6):
        _, p_star = max_transfer(uniform_triangle(alpha), 0, 2, (0.0, 2 * PI))
        assert 0.999 <= p_star <= 1.0


def test_the_peak_search_stops_where_floats_are_spaced_wider_than_refine_dt():
    # adjacent floats near 1e9 are 1.2e-7 apart, so no bracket there is ever
    # 1e-8 wide, and the search must stop all the same
    scans = []

    def peak(t):
        scans.append(t)
        if len(scans) > 20:
            raise RuntimeError("the peak search did not stop")
        return -(t - (1e9 + 0.3)) ** 2

    t_star, _ = propagator._peak(peak, 1e9, 1e9 + 1.0)
    assert abs(t_star - (1e9 + 0.3)) <= 1e-6


def test_max_transfer_validates_range():
    with pytest.raises(ValueError, match="positive length"):
        max_transfer(two_site(), 0, 1, (1.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        max_transfer(two_site(), 0, 5, (0.0, 1.0))


@pytest.mark.parametrize("from_node, to_node", [(0, 5), (-1, 2), (3, 0)])
def test_max_transfer_refuses_a_bad_node_before_it_eigendecomposes(monkeypatch, from_node,
                                                                   to_node):
    calls = []
    monkeypatch.setattr(propagator, "eig_hermitian",
                        lambda matrix: calls.append(1) or eig_hermitian(matrix))
    with pytest.raises(ValueError, match="node index out of range"):
        max_transfer(uniform_triangle(0.4), from_node, to_node, (0.0, 1.0))
    assert calls == []


@pytest.mark.parametrize("call, fragment", [
    (lambda graph: sweep_time(graph, [math.nan, 1.0]), "must be finite"),
    (lambda graph: propagate(graph, math.nan), "must be finite"),
    (lambda graph: max_transfer(graph, 0, 1, (math.nan, 1.0)), "must be finite"),
    (lambda graph: max_transfer(graph, 0, 1, (0.0, math.inf)), "must be finite"),
    (lambda graph: sweep_time(graph, [1j]), "must be real"),
    (lambda graph: propagate(graph, 1 + 0j), "must be real"),
    (lambda graph: max_transfer(graph, 0, 1, (0.0, 1j)), "must be real"),
], ids=["sweep-nan", "propagate-nan", "max-transfer-nan", "max-transfer-inf",
        "sweep-complex", "propagate-complex", "max-transfer-complex"])
def test_spectral_entry_points_read_times_by_the_real_rule(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(two_site())


@pytest.mark.parametrize("t_range", [(-1e308, 1e308), (1e308, 1.5e308)])
def test_max_transfer_rejects_an_overflowing_range(t_range):
    # both ends are finite, but the span, or t times the spectral norm 2, is not
    overflowing = "t_range's length" if t_range[0] < 0 else "times the graph's spectral norm"
    with pytest.raises(ValueError, match=f"{overflowing} overflows a float$"):
        max_transfer(uniform_triangle(0.0), 0, 2, t_range)


# an edge of magnitude 1e300 at t = 1e10, and a star whose splitting reference
# runs to t = 1.7 / 1e-10 with a spectral norm near 1.7e298
HUGE_EDGE = WalkHamiltonian(2, (Edge(0, 1, 1e300, 0.0),))
STAR = WalkHamiltonian(5, (Edge(0, 1, 1e-10, 0.0),)
                       + tuple(Edge(1, leaf, 1e298, 0.0) for leaf in (2, 3, 4)))


@pytest.mark.parametrize("call", [
    lambda: propagate(HUGE_EDGE, 1e10),
    lambda: sweep_time(HUGE_EDGE, [0.0, 1e10]),
    lambda: eq_parity_residual(HUGE_EDGE, 1e10),
    lambda: trotter_error(STAR, 1.7),
], ids=["propagate", "sweep-time", "eq-parity-residual", "trotter-error"])
def test_library_entry_points_refuse_an_overflowing_phase(call):
    # each time is finite, but its phase |t| * ||H|| is not: refused, not NaN
    with pytest.raises(ValueError,
                       match="times the graph's spectral norm overflows a float$"):
        call()
