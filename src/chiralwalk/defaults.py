"""Central numeric defaults: every tolerance and grid constant lives here, and
the one rule for the text of a number (``_parse_int``, ``_parse_real``), read
by graph and circuit files and by the command line's number flags."""

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
    scan_points: int = 4096           # points of each scan of propagator._peak
    refine_dt: float = 1e-8           # bracket width at which _peak stops rescanning
    qubit_space_max: int = 14         # dense statevector limit (2^n amplitudes)
    dense_bytes: int = 2 ** 31        # largest dense array a node count or grid may ask for


DEFAULTS = NumericDefaults()


def _looks_like_int(token: str) -> bool:
    """An optional sign and ASCII digits: the integer rule of number text."""
    body = token[1:] if token[:1] in "+-" else token
    return body.isascii() and body.isdigit()


def _parse_int(token: str, what: str) -> int:
    if not _looks_like_int(token):
        raise ValueError(f"bad {what} {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"{what} has {len(token)} digits") from None


def _parse_real(token: str, what: str) -> float:
    """The real rule of number text: ``float()`` on ASCII without ``_`` or
    surrounding whitespace."""
    if not token.isascii() or "_" in token or token.strip() != token:
        raise ValueError(f"bad {what} {token!r}")
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad {what} {token!r}") from None
