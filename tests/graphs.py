"""Test graphs shared by the test modules, built as WalkHamiltonians, the
qubit-space reading of a circuit's node block, a table's CSV as text, the
schema check of a probability CSV, and the name of the BLAS core."""

from __future__ import annotations

import ctypes
import io
from pathlib import Path

import numpy as np

from chiralwalk import Edge, PalindromicCircuit, TransportTable, WalkHamiltonian
from chiralwalk.circuit import _qubit_columns, _single_excitation_rows


def uniform_triangle(alpha: float) -> WalkHamiltonian:
    """Unit-magnitude triangle with the same phase on every edge: flux 3 alpha."""
    return WalkHamiltonian(3, (Edge(0, 1, 1.0, alpha), Edge(1, 2, 1.0, alpha),
                               Edge(2, 0, 1.0, alpha)))


def hermitian_graph(rng: np.random.Generator, n: int) -> WalkHamiltonian:
    """Complete graph on n nodes: a random magnitude and phase on every pair
    and a random real self-energy on every node, so a generic Hermitian H."""
    edges = tuple(Edge(i, j, float(rng.uniform(0.1, 2.0)),
                       float(rng.uniform(-np.pi, np.pi)))
                  for i in range(n) for j in range(i + 1, n))
    selfs = tuple((v, float(rng.normal())) for v in range(n))
    return WalkHamiltonian(n, edges, selfs)


def qubit_block(circuit: PalindromicCircuit) -> np.ndarray:
    """N x N single-excitation block of the qubit statevector run,
    ``B[i, j] = <i excited| circuit |j excited>``: the node-space unitary."""
    return _qubit_columns(circuit)[_single_excitation_rows(circuit.n_nodes)]


def csv_text(table: TransportTable, header: bool = True) -> str:
    """The bytes ``table.to_csv`` writes, read back as text."""
    buffer = io.BytesIO()
    table.to_csv(buffer, header=header)
    return buffer.getvalue().decode("ascii")


CSV_HEADER_LINES = ("axis,from,to,probability", "alpha,theta,from,to,probability")


def validate_table_csv(text: str) -> None:
    """Schema gate for probability CSVs: column count, finite reals, p in [0, 1]."""
    lines = text.strip().split("\n")
    if not lines or lines[0] not in CSV_HEADER_LINES:
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


def blas_core() -> str:
    """The CPU core whose kernels numpy's bundled OpenBLAS runs (the one
    ``OPENBLAS_CORETYPE`` names, when set), or ``"unknown"`` for another BLAS.
    A test that pins bytes from BLAS names it on failure: another core can
    round the last bits differently."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs")
                       .glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"
