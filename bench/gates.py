"""Correctness gates for CLI outputs.

Each gate raises ``GateError`` when an output is wrong.  References are
computed here with numpy from the benchmark's own description of the input,
never through ``chiralwalk``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CLASSIFY_FIELDS = (
    "structural_class", "n_nodes", "n_edges", "is_forest", "is_bipartite",
    "structural_pts", "phase_dependent", "numeric_pts_residual",
    "pts_symmetric_at_samples", "two_coloring", "odd_cycle",
    "phase_removal_gauge", "negation_gauge", "labels",
)
SYMMETRIC_CLASSES = ("tree", "tree-with-self-edges", "bipartite-with-cycles")
PTS_TOL = 1e-9
PROB_TOL = 1e-9
CHIRAL_GRID_PEAK = 243 / 256      # alpha = pi/2 slice peak on the 37-point grid
SYMMETRIC_SLICE_BOUND = 0.6       # alpha = 0 slice bound
TROTTER_RATIO_RANGE = (7.0, 9.0)
PROPERTY_SUITES = 20
PALINDROME_ORDER = ((0, 1), (1, 2), (2, 0), (2, 0), (1, 2), (0, 1))


class GateError(Exception):
    """An output failed its correctness gate."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _load_csv(path: Path, header: str, columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
    require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise GateError(f"{path.name}: malformed row ({exc})") from None
    require(data.shape[1] == columns, f"{path.name}: {data.shape[1]} columns")
    require(bool(np.isfinite(data).all()), f"{path.name}: non-finite field")
    probs = data[:, -1]
    require(bool(((probs >= -1e-12) & (probs <= 1 + 1e-12)).all()),
            f"{path.name}: probability outside [0, 1]")
    return data


# ---------------------------------------------------------------------------
# classify

def check_classify(path: Path, graphs) -> None:
    """Class as generated; symmetric classes have PTS residual <= 1e-9."""
    lines = path.read_text(encoding="utf-8").splitlines()
    require(bool(lines) and lines[0] == ",".join(CLASSIFY_FIELDS), "classify: bad header")
    require(len(lines) == 1 + len(graphs),
            f"classify: {len(lines) - 1} rows for {len(graphs)} graphs")
    for graph, line in zip(graphs, lines[1:]):
        values = line.split(",")
        require(len(values) == len(CLASSIFY_FIELDS),
                f"{graph.name}: {len(values)} fields")
        row = dict(zip(CLASSIFY_FIELDS, values))
        require(row["structural_class"] == graph.intended_class,
                f"{graph.name}: class {row['structural_class']}, "
                f"generated as {graph.intended_class}")
        require(int(row["n_nodes"]) == graph.n, f"{graph.name}: n_nodes")
        require(int(row["n_edges"]) == len(graph.edges), f"{graph.name}: n_edges")
        residual = float(row["numeric_pts_residual"])
        require(math.isfinite(residual) and residual >= 0.0, f"{graph.name}: residual")
        if graph.intended_class in SYMMETRIC_CLASSES:
            require(residual <= PTS_TOL and row["pts_symmetric_at_samples"] == "Yes",
                    f"{graph.name}: PTS residual {residual:.3e} > {PTS_TOL}")
        else:
            require(row["is_bipartite"] == "No" and row["odd_cycle"] != "",
                    f"{graph.name}: no odd cycle reported")
        expected_labels = ""
        if graph.labels is not None:
            expected_labels = ";".join(f"{graph.labels[node]}:{k}"
                                       for k, node in enumerate(graph.file_order()))
        require(row["labels"] == expected_labels, f"{graph.name}: label mapping")


# ---------------------------------------------------------------------------
# evolve

def time_grid(t_min: float, t_max: float, count: int) -> np.ndarray:
    step = (t_max - t_min) / (count - 1)
    return np.array([t_min + k * step for k in range(count)])


def check_evolve(path: Path, graph, times: np.ndarray, samples: int = 4096) -> None:
    """Schema, T*N^2 rows, column sums, and sampled entries against eigh."""
    n, count = graph.n, len(times)
    data = _load_csv(path, "axis,from,to,probability", 4)
    require(data.shape[0] == count * n * n,
            f"evolve: {data.shape[0]} rows, expected {count * n * n}")
    axis = data[:, 0].reshape(count, n * n)
    require(bool(np.allclose(axis, times[:, None], rtol=1e-12, atol=1e-12)),
            "evolve: time axis")
    frm = data[:, 1].reshape(count, n, n)
    to = data[:, 2].reshape(count, n, n)
    nodes = np.arange(n)
    require(bool((frm == nodes[None, :, None]).all() and (to == nodes[None, None, :]).all()),
            "evolve: from/to ordering")
    probs = data[:, 3].reshape(count, n, n)             # [k, from, to]
    defect = float(np.abs(probs.sum(axis=2) - 1.0).max())
    require(defect <= PROB_TOL, f"evolve: column sum defect {defect:.3e}")

    eigenvalues, vectors = np.linalg.eigh(graph.dense())
    rng = np.random.default_rng(count * n)
    ks = rng.integers(0, count, size=samples)
    frms = rng.integers(0, n, size=samples)
    tos = rng.integers(0, n, size=samples)
    phases = np.exp(-1j * np.outer(times[ks], eigenvalues))
    amplitudes = np.einsum("sm,sm,sm->s", vectors[tos], phases, vectors[frms].conj())
    error = float(np.abs(np.abs(amplitudes) ** 2 - probs[ks, frms, tos]).max())
    require(error <= PROB_TOL, f"evolve: sampled entries off by {error:.3e}")


# ---------------------------------------------------------------------------
# triangle palindrome: circuit-sweep and reproduce-fig2

def triangle_probabilities(alphas, thetas) -> np.ndarray:
    """``p[..., to, from]`` of the six-gate triangle palindrome.

    ``alphas`` and ``thetas`` broadcast against each other.
    """
    a, t = np.broadcast_arrays(np.asarray(alphas, dtype=float),
                               np.asarray(thetas, dtype=float))
    eye = np.broadcast_to(np.eye(3, dtype=complex), a.shape + (3, 3))
    cos, sin = np.cos(t), np.sin(t)
    u = eye.copy()
    for i, j in PALINDROME_ORDER:
        gate = eye.copy()
        gate[..., i, i] = cos
        gate[..., j, j] = cos
        gate[..., i, j] = -1j * np.exp(-1j * a) * sin
        gate[..., j, i] = -1j * np.exp(1j * a) * sin
        u = gate @ u
    return np.abs(u) ** 2


def _slice_gates(alpha_pi_2_grid: np.ndarray, alpha_0: np.ndarray, what: str) -> None:
    peak = float(alpha_pi_2_grid.max())
    require(abs(peak - CHIRAL_GRID_PEAK) <= PROB_TOL,
            f"{what}: alpha=pi/2 grid peak {peak!r}, expected 243/256")
    worst = float(alpha_0.max())
    require(worst <= SYMMETRIC_SLICE_BOUND, f"{what}: alpha=0 slice reaches {worst!r}")


def check_sweep(path: Path, alphas, refine: int) -> None:
    """Every entry against the reference; grid-peak and symmetric-slice gates."""
    count = 36 * refine + 1
    data = _load_csv(path, "alpha,theta,from,to,probability", 5)
    require(data.shape[0] == len(alphas) * count * 9,
            f"circuit-sweep: {data.shape[0]} rows")
    grid = data.reshape(len(alphas), count, 3, 3, 5)   # [a, k, from, to, column]
    require(bool(np.allclose(grid[:, 0, 0, 0, 0], alphas, atol=1e-12)), "circuit-sweep: alphas")
    nodes = np.arange(3)
    require(bool((grid[..., 2] == nodes[:, None]).all() and (grid[..., 3] == nodes).all()),
            "circuit-sweep: from/to ordering")
    thetas = grid[0, :, 0, 0, 1]
    require(abs(thetas[0] + math.pi) <= 1e-12 and abs(thetas[-1] - math.pi) <= 1e-9,
            "circuit-sweep: theta range")
    probs = grid[..., 4]                                # [a, k, from, to]
    reference = triangle_probabilities(np.asarray(alphas)[:, None], thetas[None, :])
    reference = reference.transpose(0, 1, 3, 2)
    error = float(np.abs(probs - reference).max())
    require(error <= PROB_TOL, f"circuit-sweep: entries off by {error:.3e}")
    _slice_gates(probs[list(alphas).index(math.pi / 2), ::refine, 0, 2],
                 probs[list(alphas).index(0.0), :, 0, 2], "circuit-sweep")


def _transfer(path: Path, rows: int) -> np.ndarray:
    data = _load_csv(path, "alpha,theta,from,to,probability", 5)
    require(data.shape[0] == rows, f"{path.name}: {data.shape[0]} rows, expected {rows}")
    require(bool((data[:, 2] == 0).all() and (data[:, 3] == 2).all()),
            f"{path.name}: transfer is not 0 -> 2")
    reference = triangle_probabilities(data[:, 0], data[:, 1])
    error = float(np.abs(reference[:, 2, 0] - data[:, 4]).max())
    require(error <= PROB_TOL, f"{path.name}: entries off by {error:.3e}")
    return data


def check_fig2(out_dir: Path, grid: int) -> None:
    surface = _transfer(out_dir / "surface.csv", grid * grid)
    alphas = surface[::grid, 0]
    require(bool(np.allclose(alphas, np.arange(grid) * 2 * math.pi / grid, atol=1e-12)),
            "surface.csv: alpha grid")
    chiral = _transfer(out_dir / "slice_alpha_pi_over_2.csv", 37)
    symmetric = _transfer(out_dir / "slice_alpha_0.csv", 37)
    for name in ("slice_alpha_pi.csv", "slice_alpha_3pi_over_2.csv"):
        _transfer(out_dir / name, 37)
    _slice_gates(chiral[:, 4], symmetric[:, 4], "reproduce-fig2")
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
    stated = [line.partition("=")[2] for line in summary if line.startswith("surface_max=")]
    require(len(stated) == 1 and float(stated[0]) == surface[:, 4].max(),
            "summary.txt: surface_max disagrees with surface.csv")


# ---------------------------------------------------------------------------
# properties and trotter-check

def check_properties(path: Path, trials: dict[str, int]) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(bool(lines) and lines[-1] == "# result=PASS", "properties: result is not PASS")
    rows = [line.split() for line in lines if not line.startswith("#")]
    require(len(rows) == PROPERTY_SUITES, f"properties: {len(rows)} suites, expected 20")
    for row in rows:
        require(row[4] == "PASS", f"properties: {row[0]} {row[4]}")
        if row[0] in trials:
            require(int(row[1]) == trials[row[0]], f"properties: {row[0]} ran {row[1]} trials")
    missing = set(trials) - {row[0] for row in rows}
    require(not missing, f"properties: suites missing {sorted(missing)}")


def check_trotter(path: Path, halvings: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    split = lines.index("# successive ratios error(theta)/error(theta/2)")
    errors = [float(line.split()[1]) for line in lines[2:split]]
    ratios = [float(line.split()[1]) for line in lines[split + 1:]]
    require(len(errors) == halvings + 1 and len(ratios) == halvings,
            "trotter-check: ladder length")
    low, high = TROTTER_RATIO_RANGE
    require(low <= ratios[-1] <= high, f"trotter-check: last ratio {ratios[-1]!r}")
