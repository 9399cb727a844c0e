"""Exact evolution U = exp(-iHt) via Hermitian eigendecomposition.

There is one eigensolve path and one propagator product, and a single
Hamiltonian is a stack of one.  ``spectra`` decomposes Hamiltonians of one
node count as one stack (one ``eig_hermitian`` call) and keeps each spectrum
on its Hamiltonian; ``spectrum(H)`` reads the kept one, running
``spectra((H,))`` on first use, so each Hamiltonian is eigendecomposed once
and every spectral function takes a ``WalkHamiltonian``.  After that O(N^3)
factorization, ``SpectralDecomposition.propagator_batch`` is the one
product, V e^{-iEt} V^H broadcast over the times: one spectrum's unitaries
over a time grid, or each of a stack's at its own time, O(N^3) per unitary,
while ``max_transfer``'s scans of a single entry, by ``_peak``, the one
maximum search, cost O(N) per point.
A t-chunk is the ``chunk_length(N)`` unitaries that fit ``CHUNK_BYTES``
(1 MiB), about a 2 MiB L2 cache with their ``|U|^2`` and ``p - p^T``:
``evolve`` writes its table, and ``pts_numeric`` reduces its grid, one
t-chunk at a time; ``evolve`` renders its chunks on one process per CPU,
with the bytes of one process (``cli._write_chunks``).  ``sweep_time`` is
one product, so a grid of several t-chunks holds its unitaries whole, about
4x its table (no command passes one).
Probabilities follow the column convention ``p[to, from]``: entry
``|U[to, from]|^2`` is the probability of the transition ``from -> to``.

Probability CSVs, header line included, are rendered by ``render_csv`` as
ASCII blocks of ``CSV_BLOCK_VALUES`` rows: the values go through the array
kernel ``_fmt_real_block`` beside it, and every value outside its exact range
through ``graph.fmt_real``; ``field_rows`` formats each grid point's fields
and each node's ``k,`` once: a table's rows are its (grid point, from)
fields beside every ``to``, so no N^2 ``from,to`` table is built, and the
width of its grid picks the schema.  ``TransportTable.to_csv`` writes each
block to a binary file as soon as it is rendered, so no table's text exists
whole and the memory beyond the probabilities is the block's and one field
row per (point, from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .defaults import DEFAULTS
from .graph import WalkHamiltonian, _check_finite_real, _check_node, fmt_real, to_dense

# Complex bytes of one t-chunk of a T x N x N unitary stack; the number of
# times per chunk follows from it for each N.  At 1 MiB a chunk's U and its
# |U|^2 and p - p^T (half as large each) come to about a 2 MiB L2 cache; a
# larger budget does the same flops per time with a working set out of cache.
CHUNK_BYTES = 2 ** 20

# Values per ``_fmt_real_block`` call, and rows per block, in
# ``render_csv``: the kernel's temporaries (about 150 bytes a value) and each
# block's text stay small.
CSV_BLOCK_VALUES = 2 ** 13


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns; of one
    matrix, or of each of a stack (leading axes on both arrays)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def spectral_norm(self) -> float:
        return float(np.abs(self.eigenvalues).max()) if self.n else 0.0

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V^H, read-only: the transposed view of one conjugated copy of V,
        made on first use and kept, so each t-chunk reuses it."""
        return _freeze(self.eigenvectors.conj()).swapaxes(-1, -2)

    def propagator_batch(self, times: Sequence[float]) -> np.ndarray:
        """exp(-iHt) as one broadcast product: for one spectrum, a stack of
        shape (len(times), n, n), one unitary per time; for a stack of
        spectra, each spectrum's unitary at its own time ``times[k]``."""
        phases = np.exp(-1j * (np.asarray(times, dtype=float)[..., None] * self.eigenvalues))
        return (self.eigenvectors * phases[..., None, :]) @ self.adjoint


def chunk_length(n: int) -> int:
    """Times per chunk: as many N x N complex matrices as fit ``CHUNK_BYTES``
    (1 MiB, so a chunk's unitaries and probabilities come to about a 2 MiB
    L2 cache), and at least one."""
    return max(1, CHUNK_BYTES // (16 * max(n, 1) ** 2))


def eig_hermitian(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a matrix, or of each of an ``(..., n, n)`` stack,
    with explicit Hermiticity and finiteness gates on the whole input."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    asym = float(np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max()) if matrix.size else 0.0
    if asym > DEFAULTS.hermiticity:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if not (np.isfinite(eigenvalues).all() and np.isfinite(eigenvectors).all()):
        raise ValueError("eigendecomposition is not finite: matrix entries too large")
    return SpectralDecomposition(_freeze(eigenvalues), _freeze(eigenvectors))


def spectrum(hamiltonian: WalkHamiltonian) -> SpectralDecomposition:
    """The spectrum kept on ``H``; on first use, that of ``spectra((H,))``."""
    if "_spectrum" not in hamiltonian.__dict__:
        spectra((hamiltonian,))
    return hamiltonian.__dict__["_spectrum"]


def spectra(hamiltonians: Sequence[WalkHamiltonian]) -> SpectralDecomposition:
    """The spectra of Hamiltonians of one node count, as the stack of one
    ``eig_hermitian`` call (the package's one eigensolve); each is also kept
    on its Hamiltonian, where ``spectrum`` reads it."""
    stack = eig_hermitian(np.stack([to_dense(h) for h in hamiltonians]))
    for h, values, vectors in zip(hamiltonians, stack.eigenvalues, stack.eigenvectors):
        object.__setattr__(h, "_spectrum", SpectralDecomposition(values, vectors))
    return stack


def _check_times(hamiltonian: WalkHamiltonian, times: Sequence[float],
                 what: str) -> tuple[float, ...]:
    """The one time rule: ``times`` (named ``what``) as floats, each a finite
    real, at least one, and the largest phase ``max|t| * ||H||`` a finite float."""
    times = tuple(_check_finite_real(t, what) for t in times)
    if not times:
        raise ValueError(f"{what} must be nonempty")
    if not math.isfinite(max(abs(t) for t in times) * spectrum(hamiltonian).spectral_norm):
        raise ValueError(f"{what} times the graph's spectral norm overflows a float")
    return times


def propagate(hamiltonian: WalkHamiltonian, t: float) -> np.ndarray:
    """U = exp(-iHt) through the kept spectral factorization, read-only;
    refuses a time by the time rule."""
    times = _check_times(hamiltonian, (t,), f"time {t!r}")
    return _freeze(spectrum(hamiltonian).propagator_batch(times)[0])


def field_rows(points: np.ndarray) -> np.ndarray:
    """Each row's leading CSV fields, ``%.17g,`` per value of a (points,
    fields) array, as one NUL-padded row of a uint8 array."""
    texts = ["%.17g," * len(fields) % tuple(fields) for fields in np.asarray(points).tolist()]
    return np.array(texts, dtype=bytes).reshape(-1, 1).view(np.uint8)


# ``_fmt_real_block`` computes 10^-_BLOCK_DECADES <= x < 1 itself; a value's
# text fits 8 bytes of lead ("0.000d" or "d."), 16 digits and 8 of exponent.
_BLOCK_DECADES = 290
_BLOCK_WIDTH = 32


@cache
def _decade_tables() -> tuple[np.ndarray, ...]:
    """For the decades 10^-n, n = _BLOCK_DECADES..1, built with int arithmetic:
    the smallest double >= 10^-n (then 1.0), and 10^(16 + n) as ``hi + lo``
    with the Dekker halves of ``hi``."""
    floors, scales = [], []
    for n in range(_BLOCK_DECADES, 0, -1):
        floor = 1 / 10 ** n  # int true division rounds correctly
        num, den = floor.as_integer_ratio()
        floors.append(floor if num * 10 ** n >= den else math.nextafter(floor, 1.0))
        power = 10 ** (16 + n)
        hi = float(power)
        mantissa, exponent = math.frexp(hi)
        split = mantissa * 134217729.0  # 2^27 + 1
        head = split - (split - mantissa)
        scales.append((hi, float(power - int(hi)), math.ldexp(head, exponent),
                       math.ldexp(mantissa - head, exponent)))
    return (np.array(floors + [1.0]), *np.array(scales).T)


@cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """NUL-padded ASCII pieces of ``_fmt_real_block``'s texts, as integers:
    the lead ``[6 * digit + form]`` (forms "0.d" to "0.000d", "d." and "d"),
    four digits ``[g]`` and, trailing zeros dropped, ``[g + 10^4]``, and the
    exponent ``[-power]`` ("" down to 10^-4)."""
    leads = [[f"0.{'0' * zeros}{d}" for zeros in range(4)] + [f"{d}.", f"{d}"]
             for d in range(10)]
    pairs = [f"{i:02d}" for i in range(100)]
    quads = [high + low for high in pairs for low in pairs]
    exponents = [f"e-{p:02d}" if p > 4 else "" for p in range(_BLOCK_DECADES + 1)]
    return (np.array(leads, dtype="S8").view(np.uint64).reshape(-1),
            np.array(quads + [q.rstrip("0") for q in quads], dtype="S4").view(np.uint32),
            np.array(exponents, dtype="S8").view(np.uint64))


def _fmt_real_block(values: np.ndarray) -> np.ndarray:
    """``fmt_real`` of each value of a float64 block, as a uint8 array of
    shape ``(len(values), _BLOCK_WIDTH)`` whose row's non-NUL bytes, in
    order, are that value's text.

    For 10^-_BLOCK_DECADES <= x < 1 the decade comes from the table of exact
    decade floors, and the 17 digits from rounding the error-free
    double-double product x * 10^(16 - decade) (Dekker's two-product) to
    nearest; the text is laid out as %g does, "0.000ddd" down to 1e-4 and
    "d.ddde-XX" below, from tables of its lead, of four digits with and
    without trailing zeros, and of its exponent.  Every other value (zero,
    negative, non-finite, subnormal, tiny, 1 or more), and every product
    within 1e-6 of a rounding tie, goes through ``fmt_real``.
    """
    floors, hi, lo, hi_head, hi_tail = _decade_tables()
    lead_texts, quad_texts, exponent_texts = _text_tables()
    values = np.asarray(values, dtype=float)
    exact = (values >= floors[0]) & (values < 1.0)
    x = np.where(exact, values, 0.5)
    decade = np.floor((np.frexp(x)[1] - 1) * math.log10(2)).astype(np.intp) + _BLOCK_DECADES
    decade += x >= floors[decade + 1]  # now floors[decade] <= x < floors[decade + 1]
    split = x * 134217729.0
    head = split - (split - x)
    tail = x - head
    a, b = hi_head[decade], hi_tail[decade]
    product = x * hi[decade]  # x * 10^(16 - decade) = product + error, exactly
    error = ((head * a - product) + head * b + tail * a) + tail * b + x * lo[decade]
    rounding = np.rint(error)
    exact &= np.abs(error - rounding) < 0.5 - 1e-6
    digits = product.astype(np.int64) + rounding.astype(np.int64)
    power = decade - _BLOCK_DECADES
    carry = digits == 10 ** 17  # rounded up to the next decade
    digits[carry] = 10 ** 16
    power += carry
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    out = np.empty((len(x), _BLOCK_WIDTH // 8), np.uint64)
    quads = out.view(np.uint32)
    strip = np.full(len(x), 10 ** 4)  # every later group of four digits is zero
    for column, group in ((5, lower % 10 ** 4), (4, lower // 10 ** 4),
                          (3, upper % 10 ** 4), (2, upper // 10 ** 4)):
        quads[:, column] = quad_texts[group + strip]
        strip *= group == 0
    form = np.where(power >= -4, -1 - power, 4 + (rest == 0))
    out[:, 0] = lead_texts[6 * lead + form]
    out[:, 3] = exponent_texts[-power]
    out = out.view(np.uint8)
    others = np.flatnonzero(~exact)
    texts = np.array([fmt_real(v) for v in values[others].tolist()], dtype=f"S{_BLOCK_WIDTH}")
    out[others] = texts.view(np.uint8).reshape(-1, _BLOCK_WIDTH)
    return out


CSV_HEADERS = {1: "axis,from,to,probability",
               2: "alpha,theta,from,to,probability"}


def render_csv(fields: int | None, outer: np.ndarray, inner: np.ndarray,
               values: np.ndarray) -> Iterator[bytes]:
    """The header of a grid of ``fields`` fields per point (none for
    ``fields=None``), then rows ``outer[k], inner[m], values[k, m]`` in
    ``(k, m)`` order, as ASCII blocks of ``CSV_BLOCK_VALUES`` rows, each
    yielded as it is rendered.

    ``outer`` and ``inner`` are NUL-padded field rows (``field_rows`` of
    grid points or of nodes, or the two side by side), so each point's
    fields are formatted once: ``graph.fmt_real(x)`` for a float (17 digits
    round-trip a float64), plain digits for a node index.  Each block's
    values go through the kernel ``_fmt_real_block``, which computes the
    texts in its exact range and calls ``fmt_real`` for the rest; its rows
    are laid out as NUL-padded bytes (outer fields, inner fields, value,
    newline) and the NULs deleted.  So the memory beyond ``values`` is
    bounded by the block, and the bytes do not depend on its length.
    """
    if fields is not None:
        yield CSV_HEADERS[fields].encode("ascii") + b"\n"
    values = np.asarray(values, dtype=float).reshape(-1)
    for start in range(0, len(values), CSV_BLOCK_VALUES):
        index = np.arange(start, min(start + CSV_BLOCK_VALUES, len(values)))
        rows = np.concatenate([np.take(outer, index // len(inner), axis=0),
                               np.take(inner, index % len(inner), axis=0),
                               _fmt_real_block(values[start:start + len(index)]),
                               np.full((len(index), 1), ord("\n"), np.uint8)], axis=1)
        yield rows.tobytes().translate(None, b"\0")


@dataclass(frozen=True, eq=False)
class TransportTable:
    """Transition-probability tensor over a parameter grid.

    ``probabilities[k, to, from]`` is the ``from -> to`` probability at grid
    point ``k``, whose coordinates are the row ``axes[k]``.  ``axes`` is kept
    as a read-only float64 copy of shape (points, fields), and 1-D input is
    one time per point; the width picks the CSV schema.  One field is a time,
    ``axis,from,to,probability``; two are the gate parameters,
    ``alpha,theta,from,to,probability``.

    Byte contract of ``to_csv``: the ASCII header, then for each grid point
    every ``from`` in ascending order and within it every ``to``, each row
    ending in a newline, and every real written as ``graph.fmt_real(x)``.
    The bytes are fixed by the float64 values alone; they are written in
    ``render_csv``'s blocks, each as soon as it is rendered.
    """

    axes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        shape = self.probabilities.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"probability tensor must have shape (points, N, N), got {shape}")
        axes = np.asarray(self.axes)
        if axes.ndim == 1:
            axes = axes[:, None]  # one time per point
        if (axes.dtype.kind not in "iuf" or axes.ndim != 2
                or axes.shape[1] not in CSV_HEADERS or len(axes) != shape[0]):
            raise ValueError(f"axes must be one time or one (alpha, theta) pair of reals for "
                             f"each of {shape[0]} points, got {axes.dtype} axes of shape "
                             f"{np.shape(self.axes)}")
        object.__setattr__(self, "axes", _freeze(axes.astype(float)))

    @property
    def n(self) -> int:
        return self.probabilities.shape[1]

    def column_sum_defect(self) -> float:
        return float(np.abs(self.probabilities.sum(axis=1) - 1.0).max(initial=0.0))

    def to_csv(self, file: BinaryIO, header: bool = True) -> None:
        """Write the table's CSV to the binary ``file``, one ``render_csv``
        block at a time; without its header line when ``header`` is false."""
        points, fields = self.axes.shape
        nodes = field_rows(np.arange(self.n)[:, None])
        outer = np.hstack([np.repeat(field_rows(self.axes), self.n, 0),
                           np.tile(nodes, (points, 1))])  # (point, from) rows
        values = self.probabilities.transpose(0, 2, 1).reshape(points * self.n, self.n)
        file.writelines(render_csv(fields if header else None, outer, nodes, values))


def sweep_time(hamiltonian: WalkHamiltonian, t_grid: Sequence[float]) -> TransportTable:
    """Probability tables over a time grid, one product of the kept spectrum;
    refuses a grid by the time rule."""
    t_grid = _check_times(hamiltonian, t_grid, "time grid")
    probabilities = np.abs(spectrum(hamiltonian).propagator_batch(t_grid)) ** 2
    return TransportTable(t_grid, _freeze(probabilities))


def _peak(f, lo: float, hi: float) -> tuple[float, float]:
    """``(t, f(t))`` at the best value of the vectorized ``f`` on [lo, hi]: a
    scan of ``DEFAULTS.scan_points`` points, ends included, then rescans of the
    best point's bracket until it is ``DEFAULTS.refine_dt`` wide or stops
    narrowing, as it does where floats are spaced wider than that."""
    width = math.inf
    while True:
        grid = np.linspace(lo, hi, DEFAULTS.scan_points)
        values = f(grid)
        best = int(values.argmax())
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        if hi - lo <= DEFAULTS.refine_dt or hi - lo >= width:
            return float(grid[best]), float(values[best])
        width = hi - lo


def max_transfer(hamiltonian: WalkHamiltonian, from_node: int, to_node: int,
                 t_range: tuple[float, float]) -> tuple[float, float]:
    """``(t_star, p_star)``: the ``_peak`` of the ``from -> to`` probability
    over a time window, in [0, 1]; refuses a window whose length or phases
    overflow."""
    from_node, to_node = (_check_node(v, "transfer node") for v in (from_node, to_node))
    n = hamiltonian.n_nodes
    if not (0 <= from_node < n and 0 <= to_node < n):
        raise ValueError("node index out of range")
    lo, hi = (_check_finite_real(t, "t_range end") for t in t_range)
    if hi <= lo:
        raise ValueError("t_range must be a finite interval of positive length")
    if not math.isfinite(hi - lo):
        raise ValueError("t_range's length overflows a float")
    _check_times(hamiltonian, (lo, hi), "t_range's ends")
    dec = spectrum(hamiltonian)
    coeff = dec.eigenvectors[to_node, :] * dec.eigenvectors[from_node, :].conj()

    def prob(times):  # |U(t)[to, from]|^2 at each of an array of times, at most 1
        # a sum of N rounded terms can exceed 1 by a few ulps where the transfer is perfect
        return np.minimum(np.abs(np.exp(-1j * np.multiply.outer(times, dec.eigenvalues))
                                 @ coeff) ** 2, 1.0)

    return _peak(prob, lo, hi)
