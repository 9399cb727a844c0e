"""Central numeric defaults: every tolerance and grid constant lives here."""

from __future__ import annotations

from typing import NamedTuple


class NumericDefaults(NamedTuple):
    # validation tolerances
    hermiticity: float = 1e-12        # max |M - M^dag| accepted by eig_hermitian
    self_edge: float = 1e-12          # shifted diagonal above this counts as a self-edge

    # contract tolerances
    pts: float = 1e-9                 # sampled probability-symmetry verdict

    # grids and iteration limits
    pts_samples: int = 64             # sample count of every graph's time grid
    scan_points: int = 4096           # coarse grid for max_transfer
    refine_dt: float = 1e-8           # golden-section bracket width target
    qubit_space_max: int = 14         # dense statevector limit (2^n amplitudes)
    dense_bytes: int = 2 ** 31        # largest dense array a node count or grid may ask for


DEFAULTS = NumericDefaults()
