"""Batch command-line front end: file-to-file, deterministic, scriptable.

Exit codes: 0 success, 1 property violation, 2 usage, parse, I/O or
out-of-memory error.
All angles are radians unless ``--degrees`` is given, which converts at
the argument boundary only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .circuit import circuit_sweep_table, three_cycle_transfer, trotter_error
from .defaults import DEFAULTS
from .graph import GraphFormatError, WalkHamiltonian, fmt_real, load_graph, skeleton
from .propagator import CSV_HEADERS, chunk_length, render_csv, spectrum, sweep_time
from .properties import PROPERTY_SUITE, format_property_report, run_property_suite
from .symmetry import SymmetryReport, classify

PI = math.pi

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_SWEEP_ALPHAS = (0.0, PI / 2, PI, 3 * PI / 2)
# 2 ** k converts to a float only for k < 1024
MAX_HALVINGS = 1023


def _write_output(target: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of strings written in order as
    each is produced, as UTF-8 to stdout (``None`` or ``-``) or to ``target``.
    A regular file is written to a sibling that replaces it once complete, so
    a failure leaves no partial file; another target (``/dev/null``, a pipe)
    is written directly."""
    pieces = (text,) if isinstance(text, str) else text
    path = None if target in (None, "-") else os.path.realpath(target)
    if path is None:
        sys.stdout.writelines(pieces)
    elif os.path.exists(path) and not os.path.isfile(path):
        with open(target, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        partial = f"{path}.{os.getpid()}.partial"
        try:
            with open(partial, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
            os.replace(partial, path)
        except OSError as exc:  # name the target, not the sibling
            if exc.filename != partial:
                raise
            raise type(exc)(exc.errno, exc.strerror, target) from None
        finally:
            if os.path.exists(partial):
                os.unlink(partial)


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value!r}")
    return float(value)


def _angle(flag: str, value: float, degrees: bool) -> float:
    value = _finite(flag, value)
    return math.radians(value) if degrees else value


def _theta_grid(theta_min: float, theta_max: float, theta_step: float) -> list[float]:
    if theta_step <= 0:
        raise ValueError("theta step must be positive")
    if theta_max < theta_min:
        raise ValueError("theta range is empty")
    # floor, not round, so no point lands past theta_max; the relative slack
    # keeps an endpoint that rounding puts a few ulps short of an integer ratio
    ratio = (theta_max - theta_min) / theta_step
    if not math.isfinite(ratio):
        raise ValueError("theta range over --theta-step overflows a float")
    count = math.floor(ratio * (1.0 + 1e-12)) + 1
    return [theta_min + k * theta_step for k in range(count)]


def experiment_theta_grid() -> list[float]:
    """37 angles: every pi/18 step across [-pi, pi]."""
    return [-PI + k * PI / 18 for k in range(37)]


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    if _finite("--tol", args.tol) < 0:
        raise ValueError(f"--tol must not be negative, got {args.tol!r}")
    reports: list[SymmetryReport] = []
    for path in args.graph:
        reports.append(classify(load_graph(path), tol=args.tol))
    if args.csv or len(reports) > 1:
        lines = [SymmetryReport.csv_header()]
        lines += [report.to_csv_row() for report in reports]
        _write_output(args.out, "\n".join(lines) + "\n")
    else:
        _write_output(args.out, reports[0].to_text())
    return EXIT_OK


def cmd_evolve(args) -> int:
    _finite("--t-min", args.t_min)
    _finite("--t-max", args.t_max)
    graph = load_graph(args.graph)
    if args.t_count < 1:
        raise ValueError("t-count must be at least 1")
    if args.t_count == 1:
        if args.t_max != args.t_min:
            raise ValueError("--t-count 1 samples only --t-min; --t-max must equal it")
        step = -0.0  # t_min + 0 * -0.0 is t_min, also for t_min = -0.0
    else:
        step = (args.t_max - args.t_min) / (args.t_count - 1)
        if not math.isfinite(step):
            raise ValueError("--t-max - --t-min overflows a float")
    if not math.isfinite(max(abs(args.t_min), abs(args.t_max))
                         * spectrum(graph).spectral_norm):
        raise ValueError("--t-min/--t-max times the graph's spectral norm overflows a float")
    _write_output(args.out, _time_table_blocks(graph, args.t_min, step, args.t_count))
    return EXIT_OK


def _time_table_blocks(graph: WalkHamiltonian, t_min: float, step: float,
                       count: int) -> Iterable[str]:
    """The ``evolve`` CSV over ``t_min + k * step``, ``k < count``, one t-chunk
    of the grid at a time; only the first block keeps its header."""
    length = chunk_length(graph.n_nodes)
    for start in range(0, count, length):
        grid = [t_min + k * step for k in range(start, min(start + length, count))]
        text = sweep_time(graph, grid).to_csv()
        yield text if start == 0 else text[text.index("\n") + 1:]


def cmd_circuit_sweep(args) -> int:
    if args.alpha:
        alphas = [_angle("--alpha", a, args.degrees) for a in args.alpha]
    else:
        alphas = list(DEFAULT_SWEEP_ALPHAS)
    thetas = _theta_grid(_angle("--theta-min", args.theta_min, args.degrees),
                         _angle("--theta-max", args.theta_max, args.degrees),
                         _angle("--theta-step", args.theta_step, args.degrees))
    table = circuit_sweep_table(alphas, thetas)
    _write_output(args.out, table.to_csv())
    return EXIT_OK


def _transfer_csv(alphas, thetas, transfer) -> str:
    """Circuit-schema rows of the ``0 -> 2`` transfer ``transfer[a, k]``."""
    return render_csv(CSV_HEADERS["circuit"], [(alpha,) for alpha in alphas],
                      [(theta, 0, 2) for theta in thetas], transfer)


def cmd_reproduce_fig2(args) -> int:
    if args.grid < 2:
        raise ValueError("surface grid must have at least 2 points per axis")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = args.grid
    surface_alphas = [k * 2 * PI / count for k in range(count)]
    surface_thetas = [-PI + (k + 1) * 2 * PI / count for k in range(count)]
    transfer = three_cycle_transfer(surface_alphas, surface_thetas)
    _write_output(str(out_dir / "surface.csv"),
                  _transfer_csv(surface_alphas, surface_thetas, transfer))

    slice_thetas = experiment_theta_grid()
    slice_alphas = list(DEFAULT_SWEEP_ALPHAS)
    slices = three_cycle_transfer(slice_alphas, slice_thetas)
    slice_names = ("slice_alpha_0.csv", "slice_alpha_pi_over_2.csv",
                   "slice_alpha_pi.csv", "slice_alpha_3pi_over_2.csv")
    for name, alpha, row in zip(slice_names, slice_alphas, slices):
        _write_output(str(out_dir / name), _transfer_csv([alpha], slice_thetas, row[None]))

    a_star, t_star = np.unravel_index(np.argmax(transfer), transfer.shape)
    slice_max = slices.max(axis=1)
    summary = [
        "# transfer summary for the three-node palindrome, start node 0 -> node 2",
        f"surface_grid={count}x{count}",
        f"surface_max={fmt_real(transfer.max())}",
        f"surface_max_alpha={fmt_real(surface_alphas[a_star])}",
        f"surface_max_theta={fmt_real(surface_thetas[t_star])}",
    ]
    for name, alpha, value in zip(slice_names, slice_alphas, slice_max):
        summary.append(f"{name}: alpha={fmt_real(alpha)} max={fmt_real(value)}")
    summary.append(f"symmetric_slice_bound=0.6 "
                   f"(observed {fmt_real(slice_max[0])} at alpha=0)")
    _write_output(str(out_dir / "summary.txt"), "\n".join(summary) + "\n")
    return EXIT_OK


def cmd_trotter_check(args) -> int:
    theta_start = _finite("--theta-start", args.theta_start)
    if not 1 <= args.halvings <= MAX_HALVINGS:
        raise ValueError(f"--halvings must be between 1 and {MAX_HALVINGS}, "
                         f"got {args.halvings}")
    thetas = [theta_start / (2 ** k) for k in range(args.halvings + 1)]
    if thetas[-1] == 0.0:
        raise ValueError(f"--theta-start must be nonzero, and stay nonzero over "
                         f"{args.halvings} halvings; got {theta_start!r}")
    graph = load_graph(args.graph)
    if graph.self_energies and not skeleton(graph).self_nodes:
        # a uniform diagonal is a global phase; one edges-only copy serves every step
        graph = WalkHamiltonian(graph.n_nodes, graph.edges)
    # the reference propagates the edges to t = theta / h_0 (h_0 the first edge's magnitude)
    norm = spectrum(graph).spectral_norm
    if graph.edges and not math.isfinite(abs(theta_start) / graph.edges[0].h * norm):
        raise ValueError("--theta-start over the first edge's magnitude, times the "
                         "graph's spectral norm, overflows a float")
    errors = [trotter_error(graph, theta) for theta in thetas]
    lines = ["# symmetric splitting error ladder", "# theta error"]
    lines += [f"{fmt_real(th)} {fmt_real(err)}" for th, err in zip(thetas, errors)]
    lines.append("# successive ratios error(theta)/error(theta/2)")
    for k in range(len(thetas) - 1):
        ratio = errors[k] / errors[k + 1] if errors[k + 1] > 0 else math.inf
        lines.append(f"{fmt_real(thetas[k])}/{fmt_real(thetas[k + 1])} {fmt_real(ratio)}")
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_trials(items) -> dict[str, int]:
    suites = {name for name, _ in PROPERTY_SUITE}
    overrides = {}
    for item in items or ():
        name, _, value = item.partition("=")
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"bad --trials override {item!r} (expected NAME=COUNT)")
        if name not in suites:
            raise ValueError(f"bad --trials override {item!r}: unknown suite {name!r}")
        try:
            count = int(value)
        except ValueError:  # more digits than int() converts
            raise ValueError(f"bad --trials override for suite {name!r}: COUNT has "
                             f"{len(value)} digits") from None
        if count < 1:
            raise ValueError(f"bad --trials override {item!r}: COUNT must be at least 1")
        if name in overrides:
            raise ValueError(f"bad --trials override {item!r}: suite {name!r} given twice")
        overrides[name] = count
    return overrides


def cmd_properties(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    results = run_property_suite(args.seed, _parse_trials(args.trials),
                                 inject_fault=args.inject_fault)
    _write_output(args.out, format_property_report(results, args.seed))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralwalk",
        description="Chiral quantum walks: classification, evolution sweeps, "
                    "and palindromic-circuit transport.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symmetry report for graph files")
    p.add_argument("--graph", action="append", required=True,
                   help="graph file (repeatable)")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true",
                   help="one CSV row per graph instead of a text block")
    p.add_argument("--tol", type=float, default=DEFAULTS.pts)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evolve", help="transition-probability table over a time grid")
    p.add_argument("--graph", required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--t-count", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("circuit-sweep",
                       help="triangle-palindrome transport over an (alpha, theta) grid")
    p.add_argument("--alpha", type=float, action="append",
                   help="chirality phase (repeatable; default 0, pi/2, pi, 3pi/2)")
    p.add_argument("--theta-min", type=float, default=-PI)
    p.add_argument("--theta-max", type=float, default=PI)
    p.add_argument("--theta-step", type=float, default=PI / 18)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_circuit_sweep)

    p = sub.add_parser("reproduce-fig2",
                       help="full transfer surface, four constant-alpha slices, "
                            "and a summary of extrema")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=int, default=64,
                   help="surface grid resolution per axis")
    p.set_defaults(func=cmd_reproduce_fig2)

    p = sub.add_parser("trotter-check",
                       help="splitting-error ladder for a graph without self-edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--theta-start", type=float, default=0.2)
    p.add_argument("--halvings", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trotter_check)

    p = sub.add_parser("properties", help="run the quantified invariant suites")
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--trials", action="append", metavar="NAME=COUNT",
                   help="override a suite's trial count (repeatable)")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one gate phase so flux-dependence must fail")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_properties)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"chiralwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # often bare, so its text says nothing
        print(f"chiralwalk: error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
