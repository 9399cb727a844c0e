"""Spectral evolution, transition probabilities, sweeps, maximization."""

import errno
import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from chiralwalk import (Edge, WalkHamiltonian, apply_gauge, eig_hermitian,
                        max_transfer, parse_graph, propagate, sweep_time, to_dense,
                        validate_table_csv)
from chiralwalk import propagator
from chiralwalk.cli import _transfer_csv
from chiralwalk.propagator import TransportTable, chunk_length, spectrum

from .graphs import hermitian_graph, uniform_triangle
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


@pytest.mark.parametrize("n, count", [(64, chunk_length(64) - 1), (64, chunk_length(64)),
                                      (64, chunk_length(64) + 1), (64, 1), (1, 1), (1, 5)])
def test_sweep_matches_per_time_loop_across_chunk_edges(n, count):
    rng = np.random.default_rng(23)
    graph = hermitian_graph(rng, n)
    times = np.linspace(-3.0, 3.0, count)
    probabilities = sweep_time(graph, times).probabilities
    assert probabilities.shape == (count, n, n)
    assert np.abs(probabilities - sweep_reference(graph, times)).max() <= 1e-12


def test_chunk_length_fills_the_budget():
    assert chunk_length(64) == 64           # 4 MiB / (16 bytes * 64^2)
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
    text = table.to_csv()
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
    if table.axis_kind == "time":
        lines = ["axis,from,to,probability"]
        prefixes = [fmt(t) for t in table.axes]
    else:
        lines = ["alpha,theta,from,to,probability"]
        prefixes = [f"{fmt(alpha)},{fmt(theta)}" for alpha, theta in table.axes]
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
    table = TransportTable("time", axes, awkward_probabilities(len(axes), 3))
    text = table.to_csv()
    assert text == reference_csv(table)
    assert text.split("\n")[1] == "-3.1415926535897931,0,0,0"
    assert "4.9406564584124654e-324" in text
    assert "0.99999999999999989" in text


def test_circuit_table_csv_matches_reference_bytes():
    axes = tuple((alpha, theta) for alpha in (-PI, 1 / 3)
                 for theta in (5e-324, 0.0, 1 - 2 ** -53))
    table = TransportTable("circuit", axes, awkward_probabilities(len(axes), 2))
    text = table.to_csv()
    assert text == reference_csv(table)
    assert text.split("\n")[1] == "-3.1415926535897931,4.9406564584124654e-324,0,0,0"


@pytest.mark.parametrize("kind, axes", [("time", ()), ("time", (0.5,)),
                                        ("circuit", ((0.5, 1.0),))])
def test_degenerate_table_csv_matches_reference_bytes(kind, axes):
    # no grid points, or no nodes: the header alone
    table = TransportTable(kind, axes, np.zeros((len(axes), 0, 0)))
    assert table.to_csv() == reference_csv(table)


def test_table_csv_matches_reference_bytes_on_a_sweep():
    table = sweep_time(hermitian_graph(np.random.default_rng(41), 7),
                       np.linspace(-2.0, 3.0, 11))
    assert table.to_csv() == reference_csv(table)


def test_table_csv_peak_memory_is_bounded():
    # (N, T) = (48, 256): 589 824 rows, 28 MB of text.  A list of one string
    # per row peaks near 115 MB; one string per grid point stays near 59 MB.
    probabilities = np.random.default_rng(43).random((256, 48, 48))
    table = TransportTable("time", tuple(np.linspace(0.0, 9.0, 256)),
                           probabilities)
    tracemalloc.start()
    try:
        text = table.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + 256 * 48 * 48
    assert peak < 85e6


def force_workers(monkeypatch, workers):
    """Split every table over ``workers`` blocks, whatever its size or host."""
    monkeypatch.setattr(propagator, "PARALLEL_MIN_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["time", "circuit"])
def test_table_csv_bytes_do_not_depend_on_the_worker_count(monkeypatch, workers, kind):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    force_workers(monkeypatch, workers)
    for count in sorted({1, max(workers - 1, 1), workers, workers + 1, 13}):
        axes = tuple(np.linspace(-PI, 1 / 3, count))
        if kind == "circuit":
            axes = tuple((alpha, alpha / 7) for alpha in axes)
        table = TransportTable(kind, axes, awkward_probabilities(count, 3))
        assert table.to_csv() == reference_csv(table)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_transfer_csv_bytes_do_not_depend_on_the_worker_count(monkeypatch, workers):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    alphas = [0.0, 1 / 3, PI, 5e-324, 2.5]
    thetas = [-PI, 0.0, 1 - 2 ** -53]
    transfer = np.resize(np.array(AWKWARD), (len(alphas), len(thetas)))
    rows = [[f"{fmt(alpha)},{fmt(theta)},0,2,{fmt(transfer[a, k])}\n"
             for k, theta in enumerate(thetas)] for a, alpha in enumerate(alphas)]
    header = "alpha,theta,from,to,probability\n"
    force_workers(monkeypatch, workers)
    # the fig2 surface, and one of its constant-alpha slices
    assert _transfer_csv(alphas, thetas, transfer) == header + "".join(sum(rows, []))
    assert _transfer_csv(alphas[1:2], thetas, transfer[1][None]) == header + "".join(rows[1])


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_table_csv_renders_in_one_block_without_fork_or_affinity(monkeypatch, missing):
    force_workers(monkeypatch, 4)
    monkeypatch.delattr(os, missing, raising=False)
    monkeypatch.setattr(os, "pipe", lambda: pytest.fail("a worker was started"))
    table = TransportTable("time", AWKWARD, awkward_probabilities(len(AWKWARD), 2))
    assert table.to_csv() == reference_csv(table)


@pytest.mark.parametrize("blocks, workers", [(0.99, 1), (1, 1), (2.5, 2), (4, 4), (9, 4)])
def test_every_csv_block_holds_at_least_the_floor(monkeypatch, blocks, workers):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(propagator, "PARALLEL_MIN_VALUES", 400)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    pipe, pipes = os.pipe, []
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(1) or pipe())
    count = int(blocks * 400) // 4
    table = TransportTable("time", tuple(range(count)), np.full((count, 2, 2), 0.25))
    assert table.to_csv() == reference_csv(table)
    assert len(pipes) == workers - 1


def test_failed_csv_worker_raises_and_leaves_no_child_or_pipe(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    force_workers(monkeypatch, 3)
    parent = os.getpid()
    render_rows = propagator._render_rows
    fork, pipe = os.fork, os.pipe
    pids, fds = [], []

    def failing_in_worker(*args):
        if os.getpid() != parent:
            raise RuntimeError("injected worker failure")
        return render_rows(*args)

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def recording_pipe():
        fds.extend(pipe())
        return fds[-2:]

    monkeypatch.setattr(propagator, "_render_rows", failing_in_worker)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "pipe", recording_pipe)
    table = TransportTable("time", AWKWARD, awkward_probabilities(len(AWKWARD), 2))
    with pytest.raises(ChildProcessError, match="CSV worker .* exit status 1"):
        table.to_csv()
    assert len(pids) == 2 and len(fds) == 4
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_failed_parent_block_stops_every_csv_worker(monkeypatch):
    # each worker's block overfills its pipe, so a worker stops only when
    # every copy of its pipe's read end is closed
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    force_workers(monkeypatch, 3)
    parent = os.getpid()
    render_rows = propagator._render_rows

    def failing_in_parent(*args):
        if os.getpid() == parent:
            raise KeyError("injected parent failure")
        return render_rows(*args)

    def hung(signum, frame):
        raise TimeoutError("render_csv did not stop its workers")

    monkeypatch.setattr(propagator, "_render_rows", failing_in_parent)
    table = TransportTable("time", tuple(range(30)), np.full((30, 20, 20), 1 / 3))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(KeyError, match="injected"):
            table.to_csv()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_failed_parent_block_kills_a_worker_still_rendering(monkeypatch):
    # a worker's block would take 30 s; the parent's failure must not wait for it
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    force_workers(monkeypatch, 2)
    parent = os.getpid()
    render_rows = propagator._render_rows

    def slow_in_worker(*args):
        if os.getpid() == parent:
            raise KeyError("injected parent failure")
        time.sleep(30)
        return render_rows(*args)

    def hung(signum, frame):
        raise TimeoutError("render_csv waited for a worker still rendering")

    monkeypatch.setattr(propagator, "_render_rows", slow_in_worker)
    table = TransportTable("time", AWKWARD, awkward_probabilities(len(AWKWARD), 2))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(KeyError, match="injected"):
            table.to_csv()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def failing_second_fork(monkeypatch):
    """Make ``os.fork`` raise on its second call; returns the pids it started
    and every fd that ``os.pipe`` returned."""
    fork, pipe = os.fork, os.pipe
    pids, fds = [], []

    def recording_fork():
        if pids:
            raise OSError(errno.EAGAIN, "injected fork failure")
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def recording_pipe():
        fds.extend(pipe())
        return fds[-2:]

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "pipe", recording_pipe)
    return pids, fds


def test_failed_fork_kills_the_started_worker_and_closes_every_pipe(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    force_workers(monkeypatch, 3)
    pids, fds = failing_second_fork(monkeypatch)
    table = TransportTable("time", AWKWARD, awkward_probabilities(len(AWKWARD), 2))
    with pytest.raises(OSError, match="injected fork failure"):
        table.to_csv()
    assert len(pids) == 1 and len(fds) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


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


def test_max_transfer_symmetric_triangle_is_four_ninths():
    _, p_star = max_transfer(uniform_triangle(0.0), 0, 2, (0.0, 2 * PI))
    assert abs(p_star - 4.0 / 9.0) <= 1e-9


def test_max_transfer_chiral_triangle_is_near_perfect():
    _, p_star = max_transfer(uniform_triangle(PI / 6), 0, 2, (0.0, 2 * PI))
    assert p_star >= 0.999
    _, p_star_edgewise = max_transfer(uniform_triangle(PI / 2), 0, 2, (0.0, 2 * PI))
    assert p_star_edgewise >= 0.999


def test_golden_section_stops_where_floats_are_spaced_wider_than_the_width():
    # adjacent floats near 1e9 are 1.2e-7 apart, so no bracket there is ever
    # 1e-8 wide, and the search must stop all the same
    calls = []

    def peak(t):
        calls.append(t)
        if len(calls) > 500:
            raise RuntimeError("golden-section search did not stop")
        return -(t - (1e9 + 0.3)) ** 2

    t_star, _ = propagator._golden_section_max(peak, 1e9, 1e9 + 1.0, 1e-8)
    assert abs(t_star - (1e9 + 0.3)) <= 1e-6


def test_max_transfer_validates_range():
    with pytest.raises(ValueError, match="positive length"):
        max_transfer(two_site(), 0, 1, (1.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        max_transfer(two_site(), 0, 5, (0.0, 1.0))


@pytest.mark.parametrize("t_range", [(-1e308, 1e308), (1e308, 1.5e308)])
def test_max_transfer_rejects_an_overflowing_range(t_range):
    # both ends are finite, but the span, or t times the spectral norm 2, is not
    with pytest.raises(ValueError, match="overflows"):
        max_transfer(uniform_triangle(0.0), 0, 2, t_range)
