"""Exact evolution U = exp(-iHt) via Hermitian eigendecomposition.

Every spectral function takes a ``WalkHamiltonian`` and reads the spectrum
that ``spectrum(H)`` computes on first use and keeps on it, so each
Hamiltonian is eigendecomposed once.  After that O(N^3) factorization, a
full unitary costs O(N^3) per time point (one matrix product), while
``max_transfer``'s scan of a single entry costs O(N) per point.  Stacks of
unitaries over a time grid are built in t-chunks of at most ``CHUNK_BYTES``
complex bytes, so their peak memory is bounded by that budget, not by the
grid length; ``evolve`` streams its table one t-chunk per block, so its
memory does not grow with ``--t-count``.  Probabilities follow the column
convention ``p[to, from]``: entry ``|U[to, from]|^2`` is the probability of
the transition ``from -> to``.

Probability CSVs are rendered by ``render_csv``, split over forked workers
when the table is large enough; the bytes do not depend on their number.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .defaults import DEFAULTS
from .graph import WalkHamiltonian, _check_finite_real, to_dense

# Complex bytes of one t-chunk of a T x N x N unitary stack; the number of
# times per chunk follows from it for each N.
CHUNK_BYTES = 4 * 2 ** 20

# Fewest values ``render_csv`` gives each of its blocks: a forked worker and
# its pipe cost about 5 ms, more than rendering a smaller block saves.
PARALLEL_MIN_VALUES = 2 ** 16

# Exit status of a ``render_csv`` worker out of memory; any other failure exits 1.
_WORKER_OUT_OF_MEMORY = 3


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_norm(self) -> float:
        return float(np.abs(self.eigenvalues).max()) if self.n else 0.0

    def propagator_batch(self, times: np.ndarray) -> np.ndarray:
        """Stack of unitaries, shape (len(times), n, n), as one matrix product."""
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float),
                                       self.eigenvalues))
        n = self.n
        scaled = (self.eigenvectors * phases[:, None, :]).reshape(-1, n)
        return (scaled @ self.eigenvectors.conj().T).reshape(-1, n, n)


def chunk_length(n: int) -> int:
    """Times per chunk: as many N x N complex matrices as fit ``CHUNK_BYTES``."""
    return max(1, CHUNK_BYTES // (16 * max(n, 1) ** 2))


def probability_chunks(dec: SpectralDecomposition,
                       times: Sequence[float]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, |U(times[start:stop])|^2)`` over consecutive t-chunks."""
    times = np.asarray(times, dtype=float)
    step = chunk_length(dec.n)
    for start in range(0, len(times), step):
        yield start, np.abs(dec.propagator_batch(times[start:start + step])) ** 2


def eig_hermitian(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition with an explicit Hermiticity gate on the input."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    asym = float(np.abs(matrix - matrix.conj().T).max()) if matrix.size else 0.0
    if asym > DEFAULTS.hermiticity:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if not (np.isfinite(eigenvalues).all() and np.isfinite(eigenvectors).all()):
        raise ValueError("eigendecomposition is not finite: matrix entries too large")
    return SpectralDecomposition(_freeze(eigenvalues), _freeze(eigenvectors))


def spectrum(hamiltonian: WalkHamiltonian) -> SpectralDecomposition:
    """``eig_hermitian(to_dense(H))``, computed on first use and kept on ``H``."""
    kept = hamiltonian.__dict__.get("_spectrum")
    if kept is None:
        kept = eig_hermitian(to_dense(hamiltonian))
        object.__setattr__(hamiltonian, "_spectrum", kept)
    return kept


def propagate(hamiltonian: WalkHamiltonian, t: float) -> np.ndarray:
    """U = exp(-iHt) through the kept spectral factorization, read-only."""
    return _freeze(spectrum(hamiltonian).propagator_batch([_check_finite_real(t, "time")])[0])


def _render_rows(prefix_format: str, pieces: list[str],
                 outer: Sequence[tuple[float, ...]], values: np.ndarray) -> list[str]:
    """Rows of each outer point: one template, its prefix joined with every
    inner piece, filled by a single ``%`` (formatted numbers hold no ``%``)."""
    return [(prefix + prefix.join(pieces)) % tuple(row.tolist())
            for prefix, row in zip((prefix_format % fields for fields in outer), values)]


def _worker_count(outer_points: int, value_count: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), outer_points,
                      value_count // PARALLEL_MIN_VALUES))


def render_csv(header: str, outer: Sequence[tuple[float, ...]],
               inner: Sequence[tuple[float, ...]], values: np.ndarray) -> str:
    """Probability CSV: ``header``, then row ``outer[k]..., inner[m]..., values[k, m]``
    for each ``k`` and within it each ``m``.

    Every field is ``"%.17g" % x``: ``graph.fmt_real(x)`` for a float
    (17 digits round-trip a float64), plain digits for a node index.  Each
    inner piece is formatted once; each outer point's rows are one template,
    its prefix joined with every piece, filled by a single ``%``.

    The outer points are split into W contiguous blocks, W = min(CPUs in
    ``os.sched_getaffinity(0)``, ``len(outer)``), but no more blocks than
    whole multiples of ``PARALLEL_MIN_VALUES`` values, so W = 1 below it;
    W = 1 also without ``os.fork`` or ``os.sched_getaffinity``.  Each block
    after the first is rendered by a forked worker that writes its ASCII
    text to a pipe and exits; block 0 is rendered here, then the workers are
    read and reaped in block order, so the text is the same for every W.  A
    worker that runs out of memory raises ``MemoryError``, and one that fails
    otherwise ``ChildProcessError``.  On any exception, every worker not yet
    reaped is killed (SIGKILL), its pipe closed and the worker reaped, so no
    worker, pipe or partial text outlives the call.
    """
    if not inner or not outer:
        return header + "\n"
    pieces = [("%.17g," * len(fields)) % fields + "%.17g\n" for fields in inner]
    prefix_format = "%.17g," * len(outer[0])
    workers = _worker_count(len(outer), len(outer) * len(inner))
    bounds = [len(outer) * b // workers for b in range(workers + 1)]

    def render(b: int) -> list[str]:
        block = slice(bounds[b], bounds[b + 1])
        return _render_rows(prefix_format, pieces, outer[block], values[block])

    started = []  # (pid, read_fd) of every worker not yet reaped, in block order
    try:
        for b in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)  # if this process dies, the write fails, not hangs
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write("".join(render(b)).encode("ascii"))
                    status = 0
                except MemoryError:
                    status = _WORKER_OUT_OF_MEMORY
                finally:
                    os._exit(status)
            os.close(write_fd)
            started.append((pid, read_fd))
        parts = [header, "\n", *render(0)]
        while started:
            pid, read_fd = started[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del started[0]
            os.close(read_fd)
            if code == _WORKER_OUT_OF_MEMORY:
                raise MemoryError(f"CSV worker {pid} ran out of memory")
            if code != 0:
                raise ChildProcessError(f"CSV worker {pid} failed with exit status {code}")
            parts.append(data.decode("ascii"))
    finally:
        for pid, read_fd in started:
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
    return "".join(parts)


CSV_HEADERS = {"time": "axis,from,to,probability",
               "circuit": "alpha,theta,from,to,probability"}


@dataclass(frozen=True)
class TransportTable:
    """Transition-probability tensor over a parameter grid.

    ``probabilities[k, to, from]`` is the ``from -> to`` probability at grid
    point ``k``.  ``axis_kind`` selects the CSV schema: ``"time"`` rows are
    ``axis,from,to,probability``; ``"circuit"`` rows carry the gate
    parameters, ``alpha,theta,from,to,probability``.

    Byte contract of ``to_csv``: the header, then for each grid point every
    ``from`` in ascending order and within it every ``to``, each row ending
    in a newline, and every real written as ``graph.fmt_real(x)``.
    The text is fixed by the float64 values alone.
    """

    axis_kind: str
    axes: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        if self.axis_kind not in CSV_HEADERS:
            raise ValueError(f"unknown axis kind {self.axis_kind!r}")
        if len(self.axes) != self.probabilities.shape[0]:
            raise ValueError("axis length does not match probability tensor")

    @property
    def n(self) -> int:
        return self.probabilities.shape[1]

    def column_sum_defect(self) -> float:
        return float(np.abs(self.probabilities.sum(axis=1) - 1.0).max())

    def to_csv(self) -> str:
        if self.axis_kind == "time":
            axes = [(float(t),) for t in self.axes]
        else:
            axes = [(float(alpha), float(theta)) for alpha, theta in self.axes]
        pairs = [(frm, to) for frm in range(self.n) for to in range(self.n)]
        values = self.probabilities.transpose(0, 2, 1).reshape(len(axes), self.n ** 2)
        return render_csv(CSV_HEADERS[self.axis_kind], axes, pairs, values)


def sweep_time(hamiltonian: WalkHamiltonian, t_grid: Sequence[float]) -> TransportTable:
    """Probability tables over a time grid from the kept spectrum."""
    t_grid = tuple(_check_finite_real(t, "time") for t in t_grid)
    if not t_grid:
        raise ValueError("time grid must be nonempty")
    dec = spectrum(hamiltonian)
    probabilities = np.empty((len(t_grid), dec.n, dec.n))
    for start, chunk in probability_chunks(dec, t_grid):
        probabilities[start:start + len(chunk)] = chunk
    return TransportTable("time", t_grid, _freeze(probabilities))


def validate_table_csv(text: str) -> None:
    """Schema gate for probability CSVs: column count, finite reals, p in [0, 1]."""
    lines = text.strip().split("\n")
    if not lines or lines[0] not in CSV_HEADERS.values():
        raise ValueError(f"unknown table header {lines[0] if lines else ''!r}")
    width = lines[0].count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"row {lineno}: expected {width} columns")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"row {lineno}: non-numeric field") from None
        if not all(np.isfinite(v) for v in values):
            raise ValueError(f"row {lineno}: non-finite value")
        if not (-1e-12 <= values[-1] <= 1.0 + 1e-12):
            raise ValueError(f"row {lineno}: probability {values[-1]} out of range")


def _golden_section_max(f, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Golden-section search, a fixed number of steps: the count that shrinks
    ``hi - lo`` to ``width``, so it ends even where floats near ``hi`` are
    spaced wider than ``width``."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    steps = math.ceil(math.log(width / (hi - lo), inv_phi)) if hi - lo > width else 0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
    t = (a + b) / 2.0
    return t, f(t)


def max_transfer(hamiltonian: WalkHamiltonian, from_node: int, to_node: int,
                 t_range: tuple[float, float]) -> tuple[float, float]:
    """Maximize the ``from -> to`` probability over a time window.

    Coarse scan over ``DEFAULTS.scan_points`` samples, then golden-section
    refinement of the best bracket down to ``DEFAULTS.refine_dt``.
    Returns ``(t_star, p_star)``.
    """
    lo, hi = (_check_finite_real(t, "t_range end") for t in t_range)
    if hi <= lo:
        raise ValueError("t_range must be a finite interval of positive length")
    dec = spectrum(hamiltonian)
    if not (math.isfinite(hi - lo)
            and math.isfinite(max(abs(lo), abs(hi)) * dec.spectral_norm)):
        raise ValueError("t_range's length, or its ends times the spectral norm, "
                         "overflows a float")
    n = dec.n
    if not (0 <= from_node < n and 0 <= to_node < n):
        raise ValueError("node index out of range")
    coeff = dec.eigenvectors[to_node, :] * dec.eigenvectors[from_node, :].conj()

    def prob(t: float) -> float:
        return float(abs(np.dot(coeff, np.exp(-1j * dec.eigenvalues * t))) ** 2)

    grid = np.linspace(lo, hi, DEFAULTS.scan_points)
    values = np.abs(np.exp(-1j * np.outer(grid, dec.eigenvalues)) @ coeff) ** 2
    best = int(values.argmax())
    bracket_lo = grid[max(best - 1, 0)]
    bracket_hi = grid[min(best + 1, len(grid) - 1)]
    t_star, p_star = _golden_section_max(prob, bracket_lo, bracket_hi, DEFAULTS.refine_dt)
    if values[best] > p_star:
        t_star, p_star = float(grid[best]), float(values[best])
    return t_star, p_star
