"""Batch command-line front end: file-to-file, deterministic, scriptable.

Exit codes: 0 success, 1 property violation, 2 usage, parse, I/O or
out-of-memory error.
All angles are radians; ``circuit-sweep --degrees`` reads the angle flags
it is given in degrees, converting at the argument boundary only, while the
angles it is not given keep their radian defaults.  A number flag reads its
value, a negative real (``-1e-3``, ``-INF``, ``-nan``) too, by the token
rules of graph files (``defaults._parse_real``, ``_parse_int``); a spelling
they refuse is a usage error.  A graph file's own fault names the file.
Run as a program (``python -m chiralwalk.cli`` or the ``chiralwalk`` script,
both ``entry_point``), a command runs with Python's cycle collector off and
freezes its objects before the interpreter exits.  It also keeps its freed
heap: glibc's mmap and trim thresholds are fixed at ``HEAP_KEEP_BYTES``, so
the buffers each t-chunk and CSV block frees are reused by the next instead
of being handed back to the kernel and faulted in again (a 32-node ``evolve``
child takes about 5.7k minor page faults at 128, 512 and 2048 times, where it
took 7.3k, 13.1k and 36-37k).  ``main`` leaves the collector and the
allocator as it finds them.
``evolve`` renders its t-chunks on one process per CPU it may run on, forked
once after the spectrum (``_write_chunks``); every byte and its order are
those of one process, and each worker holds at most one t-chunk of text.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import struct
import sys
import threading
import warnings
from pathlib import Path
from typing import BinaryIO, Iterator

# each command imports the numeric modules it calls when it runs, so help and
# usage errors never load numpy
from .defaults import DEFAULTS, _looks_like_int, _parse_int, _parse_real

PI = math.pi

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_SWEEP_ALPHAS = (0.0, PI / 2, PI, 3 * PI / 2)
DEFAULT_SWEEP_THETAS = (-PI, PI, PI / 18)  # theta min, max, step; fig2's slices too
# argparse reads a token that starts with "-" as a value only when its
# negative-number rule matches, by default -1 and -1.5 alone; this rule takes
# every real the real rule reads (-1e-3, -INF, -nan), and no option starts so
NEGATIVE_REAL = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
# 2 ** k converts to a float only for k < 1024
MAX_HALVINGS = 1023


@contextlib.contextmanager
def _output(target: str | None) -> Iterator[BinaryIO]:
    """A binary handle for an output: stdout's buffer (``None`` or ``-``), or
    ``target``.  A regular file is written to a sibling that replaces it on a
    clean exit and is removed on any exception, so a failure leaves no partial
    file; another target (``/dev/null``, a pipe) is written in place."""
    if target in (None, "-"):
        sys.stdout.flush()  # keep whatever was printed as text before these bytes
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    # the target's own stat: on a pipe, the real path of /dev/stdout names no file
    if os.path.exists(target) and not os.path.isfile(target):
        with _naming(target), open(target, "wb") as handle:
            yield handle
        return
    path = os.path.realpath(target)
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with _naming(target, partial):
            with open(partial, "wb") as handle:
                yield handle
            os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


@contextlib.contextmanager
def _naming(target: str, sibling: str | None = None) -> Iterator[None]:
    """Re-raise an ``OSError`` that names no file (a failed write or close) or
    names ``sibling`` as one that names ``target``."""
    try:
        yield
    except OSError as exc:
        if exc.errno is None or exc.filename not in (None, sibling):
            raise
        raise type(exc)(exc.errno, exc.strerror, target) from None


# a number flag's type: argparse names a refused value by it ("invalid real value")
def real(text: str) -> float:
    return _parse_real(text, "real")


def integer(text: str) -> int:
    return _parse_int(text, "integer")


@contextlib.contextmanager
def _graph_fault(path: str) -> Iterator[None]:
    """Prefix a ``ValueError`` raised inside with ``path``: the graph file at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _angle(flag: str, value: float, degrees: bool) -> float:
    from .graph import _check_finite_real

    value = _check_finite_real(value, flag)
    return math.radians(value) if degrees else value


def _clamped(points, stop: float, ascending: bool) -> list[float]:
    """The points of a grid; one that rounding puts past ``stop`` (above it when
    ``ascending``, else below) is ``stop``, and a tie keeps ``-0`` as it is."""
    clamp = min if ascending else max
    return [clamp(point, stop) for point in points]


def _axis(start: float, step: float, stop: float, ks: range) -> list[float]:
    """``start + k * step`` for each ``k``, ``_clamped`` at ``stop`` in ``step``'s direction."""
    return _clamped((start + k * step for k in ks), stop, ascending=step > 0)


def _theta_grid(theta_min: float, theta_max: float, theta_step: float,
                alphas: int = 1) -> list[float]:
    """The theta axis of a sweep over ``alphas`` chirality phases."""
    from .graph import _check_dense_size

    if theta_step <= 0:
        raise ValueError("--theta-step must be positive")
    if theta_max < theta_min:
        raise ValueError("--theta-max must not be below --theta-min")
    # floor, not round, then _axis's clamp: no point lands past theta_max; the
    # slack keeps an endpoint that rounding puts a few ulps short of an integer ratio
    ratio = (theta_max - theta_min) / theta_step * (1.0 + 1e-12)
    if not math.isfinite(ratio):
        raise ValueError("theta range over --theta-step overflows a float")
    count = math.floor(ratio) + 1
    # the sweep keeps one 3x3 unitary per (alpha, theta) point
    _check_dense_size(f"circuit-sweep grid of {alphas} alphas x {count:.3g} thetas "
                      f"(--theta-step)", 9 * alphas * count)
    return _axis(theta_min, theta_step, theta_max, range(count))


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    from .graph import _check_finite_real, load_graph
    from .symmetry import SymmetryReport, classify

    if _check_finite_real(args.tol, "--tol") < 0:
        raise ValueError(f"--tol must not be negative, got {args.tol!r}")
    reports = []
    for path in args.graph:
        with _graph_fault(path):
            reports.append(classify(load_graph(path), tol=args.tol))
    if args.csv or len(reports) > 1:
        lines = [SymmetryReport.csv_header()]
        lines += [report.to_csv_row() for report in reports]
        text = "\n".join(lines) + "\n"
    else:
        text = reports[0].to_text()
    with _output(args.out) as out:
        out.write(text.encode("utf-8"))
    return EXIT_OK


def cmd_evolve(args) -> int:
    from .graph import load_graph
    from .propagator import _check_times, chunk_length, spectrum, sweep_time

    if args.t_count < 1:
        raise ValueError(f"--t-count must be at least 1, got {args.t_count}")
    with _graph_fault(args.graph):
        graph = load_graph(args.graph)
        spectrum(graph)
    t_min, t_max = _check_times(graph, (args.t_min, args.t_max), "--t-min/--t-max")
    if args.t_count == 1:
        if t_max != t_min:
            raise ValueError("--t-count 1 samples only --t-min; --t-max must equal it")
        step = -0.0  # t_min + 0 * -0.0 is t_min, also for t_min = -0.0
    else:
        step = (t_max - t_min) / (args.t_count - 1)
        if not math.isfinite(step):
            raise ValueError("--t-max - --t-min overflows a float")
    # the table is written one t-chunk at a time, so it never exists whole
    length = chunk_length(graph.n_nodes)

    def render(start: int, file: BinaryIO) -> None:
        grid = _axis(t_min, step, t_max, range(start, min(start + length, args.t_count)))
        sweep_time(graph, grid).to_csv(file, header=start == 0)

    _write_chunks(render, range(0, args.t_count, length), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# t-chunk workers

# an order (a chunk's start) or a report (the chunk's byte count, or minus the
# length of an exception's pickle)
_COUNT = struct.Struct("q")


def _processes(chunks: int) -> int:
    """Processes that render ``chunks`` t-chunks: one per CPU this process may
    run on, at most one per chunk.  One where ``os.fork``, the CPU affinity or
    ``os.memfd_create`` is missing, and while another Python thread runs: a
    lock it holds at the fork would stay held in the worker."""
    if (threading.active_count() > 1 or not all(
            hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create"))):
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _write_chunks(render, starts: range, target: str | None) -> None:
    """``render(start, file)`` for each chunk start, with the bytes written to
    the ``_output`` of ``target`` in the order of ``starts``.  Chunk ``k`` is
    rendered by process ``k % P`` of ``P = _processes(len(starts))``, forked
    before the output opens: this one renders its own straight into the
    output, and each worker into its one-chunk buffer, which is written to
    the output at that chunk's turn before the worker is sent its next start.
    A worker's exception is raised here at its chunk's turn; on every path
    each worker is killed if it still runs, and reaped."""
    processes = _processes(len(starts))
    workers: list[_Worker] = []
    try:
        for _ in range(processes - 1):
            workers.append(_Worker(render, workers))
        for worker, start in zip(workers, starts[1:]):
            worker.send(start)
        with _output(target) as out:
            for k, start in enumerate(starts):
                if k % processes == 0:
                    render(start, out)
                    continue
                worker = workers[k % processes - 1]
                worker.write_chunk(out)
                if k + processes < len(starts):
                    worker.send(starts[k + processes])
    finally:
        for worker in workers:
            worker.stop()


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from the pipe ``fd``; fewer when it closes first."""
    data = b""
    while len(data) < size:
        piece = os.read(fd, size - len(data))
        if not piece:
            break
        data += piece
    return data


class _Worker:
    """A forked process that renders each chunk start it is sent into its
    buffer, a memfd rewritten from offset 0, and reports the byte count."""

    def __init__(self, render, others: list[_Worker]):
        self.pid = None
        self.buffer = os.memfd_create("chiralwalk-chunk")
        orders, self.orders = os.pipe()
        self.reports, reports = os.pipe()
        self.fds = (self.buffer, self.orders, self.reports)
        try:
            # Python 3.12+ warns when a process with threads forks; no other
            # thread here runs Python (``_processes``), and OpenBLAS, whose pool
            # is the usual other thread, stops it across a fork
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except BaseException:
            for fd in (*self.fds, orders, reports):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                for fd in (self.orders, self.reports, *(fd for w in others for fd in w.fds)):
                    os.close(fd)
                _serve(render, self.buffer, orders, reports)
            finally:
                os._exit(0)
        os.close(orders)
        os.close(reports)

    def send(self, start: int) -> None:
        os.write(self.orders, _COUNT.pack(start))

    def write_chunk(self, out: BinaryIO) -> None:
        """Write the bytes of the chunk this worker reports next to ``out``;
        raise the exception it reports instead, or ``ChildProcessError`` when it
        ends without a report."""
        import mmap

        report = _read_exactly(self.reports, _COUNT.size)
        if len(report) < _COUNT.size:
            raise ChildProcessError(f"t-chunk worker {self.pid} {self._reap()} before "
                                    f"its report")
        (count,) = _COUNT.unpack(report)
        if count < 0:
            import pickle

            raise pickle.loads(_read_exactly(self.reports, -count))
        with mmap.mmap(self.buffer, count, prot=mmap.PROT_READ) as text:
            out.write(text)

    def _reap(self) -> str:
        """Wait for the worker to end; how it ended."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"

    def stop(self) -> None:
        """Kill the worker if it still runs, reap it, and close its descriptors."""
        import signal

        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        for fd in self.fds:
            os.close(fd)


def _serve(render, buffer: int, orders: int, reports: int) -> None:
    """A worker's loop: for each start read from ``orders`` until it closes,
    ``render`` that chunk into ``buffer`` from offset 0 and write its byte
    count to ``reports``; an exception is written instead, as minus the
    length of its pickle and the pickle."""
    with open(buffer, "wb", closefd=False) as sink, \
            open(reports, "wb", closefd=False) as report:
        try:
            while order := _read_exactly(orders, _COUNT.size):
                sink.seek(0)
                render(_COUNT.unpack(order)[0], sink)
                sink.flush()
                report.write(_COUNT.pack(sink.tell()))
                report.flush()
        except BaseException as exc:  # raised by the command at this chunk's turn
            import pickle

            payload = pickle.dumps(exc)
            report.write(_COUNT.pack(-len(payload)) + payload)


def cmd_circuit_sweep(args) -> int:
    from .circuit import circuit_sweep_table

    if args.alpha:
        alphas = [_angle("--alpha", a, args.degrees) for a in args.alpha]
    else:
        alphas = list(DEFAULT_SWEEP_ALPHAS)
    # an angle not given keeps its radian default, under --degrees too
    theta_min, theta_max, theta_step = (
        default if value is None else _angle(flag, value, args.degrees)
        for flag, value, default in zip(("--theta-min", "--theta-max", "--theta-step"),
                                        (args.theta_min, args.theta_max, args.theta_step),
                                        DEFAULT_SWEEP_THETAS))
    thetas = _theta_grid(theta_min, theta_max, theta_step, len(alphas))
    table = circuit_sweep_table(alphas, thetas)
    with _output(args.out) as out:
        table.to_csv(out)
    return EXIT_OK


def _transfer_csv(alphas, thetas, transfer) -> bytes:
    """Circuit-schema CSV of the ``0 -> 2`` transfer ``transfer[a, k]``."""
    from .propagator import field_rows, render_csv

    return b"".join(render_csv(2, field_rows([(alpha,) for alpha in alphas]),
                               field_rows([(theta, 0, 2) for theta in thetas]), transfer))


def cmd_reproduce_fig2(args) -> int:
    from .circuit import three_cycle_transfer
    from .graph import _check_dense_size, fmt_real

    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2 points per axis, got {args.grid}")
    count = args.grid
    # the surface's state holds three amplitudes per (alpha, theta) point
    _check_dense_size(f"--grid {count}", 3 * count * count)
    surface_alphas = [k * 2 * PI / count for k in range(count)]
    # its own formula: _axis's rounding would move theta = 0 (--grid 400) and the --grid 13 peak
    surface_thetas = _clamped((-PI + (k + 1) * 2 * PI / count for k in range(count)),
                              PI, ascending=True)
    transfer = three_cycle_transfer(surface_alphas, surface_thetas)
    outputs = {"surface.csv": _transfer_csv(surface_alphas, surface_thetas, transfer)}

    slice_alphas = list(DEFAULT_SWEEP_ALPHAS)
    slice_thetas = _theta_grid(*DEFAULT_SWEEP_THETAS, len(slice_alphas))
    slices = three_cycle_transfer(slice_alphas, slice_thetas)
    slice_names = ("slice_alpha_0.csv", "slice_alpha_pi_over_2.csv",
                   "slice_alpha_pi.csv", "slice_alpha_3pi_over_2.csv")
    for name, alpha, row in zip(slice_names, slice_alphas, slices):
        outputs[name] = _transfer_csv([alpha], slice_thetas, row[None])

    a_star, t_star = divmod(int(transfer.argmax()), count)
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
    outputs["summary.txt"] = ("\n".join(summary) + "\n").encode("utf-8")

    # everything is computed before the directory exists, so a failure leaves none
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in outputs.items():
        with _output(str(out_dir / name)) as out:
            out.write(data)
    return EXIT_OK


def cmd_trotter_check(args) -> int:
    from .circuit import _splitting_reference, trotter_error
    from .graph import _check_finite_real, fmt_real, load_graph
    from .propagator import spectrum

    theta_start = _check_finite_real(args.theta_start, "--theta-start")
    if not 1 <= args.halvings <= MAX_HALVINGS:
        raise ValueError(f"--halvings must be between 1 and {MAX_HALVINGS}, "
                         f"got {args.halvings}")
    thetas = [theta_start / (2 ** k) for k in range(args.halvings + 1)]
    if thetas[-1] == 0.0:
        raise ValueError(f"--theta-start must be nonzero, and stay nonzero over "
                         f"{args.halvings} halvings; got {theta_start!r}")
    with _graph_fault(args.graph):  # refused, with its spectrum, before the ladder
        graph = _splitting_reference(load_graph(args.graph))
        spectrum(graph)
    try:
        errors = [trotter_error(graph, theta) for theta in thetas]
    except ValueError as exc:  # a step of the ladder: name the flag it comes from
        raise ValueError(f"--theta-start {theta_start!r}: {exc}") from None
    lines = ["# symmetric splitting error ladder", "# theta error"]
    lines += [f"{fmt_real(th)} {fmt_real(err)}" for th, err in zip(thetas, errors)]
    lines.append("# successive ratios error(theta)/error(theta/2)")
    for k in range(len(thetas) - 1):
        ratio = errors[k] / errors[k + 1] if errors[k + 1] > 0 else math.inf
        lines.append(f"{fmt_real(thetas[k])}/{fmt_real(thetas[k + 1])} {fmt_real(ratio)}")
    with _output(args.out) as out:
        out.write(("\n".join(lines) + "\n").encode("utf-8"))
    return EXIT_OK


def _parse_trials(items) -> dict[str, int]:
    from .properties import PROPERTY_SUITE

    suites = {name for name, _ in PROPERTY_SUITE}
    overrides = {}
    for item in items or ():
        name, _, value = item.partition("=")
        if not _looks_like_int(value):
            raise ValueError(f"bad --trials override {item!r} (expected NAME=COUNT)")
        if name not in suites:
            raise ValueError(f"bad --trials override {item!r}: unknown suite {name!r}")
        # the one refusal left, more digits than int() converts, names the suite
        count = _parse_int(value, f"bad --trials override for suite {name!r}: COUNT")
        if count < 1:
            raise ValueError(f"bad --trials override {item!r}: COUNT must be at least 1")
        if name in overrides:
            raise ValueError(f"bad --trials override {item!r}: suite {name!r} given twice")
        overrides[name] = count
    return overrides


def cmd_properties(args) -> int:
    from .properties import format_property_report, run_property_suite

    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    results = run_property_suite(args.seed, _parse_trials(args.trials),
                                 inject_fault=args.inject_fault)
    with _output(args.out) as out:
        out.write(format_property_report(results, args.seed).encode("utf-8"))
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
    p.add_argument("--tol", type=real, default=DEFAULTS.pts)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evolve", help="transition-probability table over a time grid")
    p.add_argument("--graph", required=True)
    p.add_argument("--t-min", type=real, default=0.0)
    p.add_argument("--t-max", type=real, required=True)
    p.add_argument("--t-count", type=integer, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("circuit-sweep",
                       help="triangle-palindrome transport over an (alpha, theta) grid")
    p.add_argument("--alpha", type=real, action="append",
                   help="chirality phase (repeatable; default 0, pi/2, pi, 3pi/2)")
    p.add_argument("--theta-min", type=real, help="default -pi")
    p.add_argument("--theta-max", type=real, help="default pi")
    p.add_argument("--theta-step", type=real, help="default pi/18")
    p.add_argument("--degrees", action="store_true",
                   help="read the angles given here in degrees")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_circuit_sweep)

    p = sub.add_parser("reproduce-fig2",
                       help="full transfer surface, four constant-alpha slices, "
                            "and a summary of extrema")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=integer, default=64,
                   help="surface grid resolution per axis")
    p.set_defaults(func=cmd_reproduce_fig2)

    p = sub.add_parser("trotter-check",
                       help="splitting-error ladder for a graph without self-edges")
    p.add_argument("--graph", required=True)
    p.add_argument("--theta-start", type=real, default=0.2)
    p.add_argument("--halvings", type=integer, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trotter_check)

    p = sub.add_parser("properties", help="run the quantified invariant suites")
    p.add_argument("--seed", type=integer, default=20260808)
    p.add_argument("--trials", action="append", metavar="NAME=COUNT",
                   help="override a suite's trial count (repeatable)")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one gate phase so flux-dependence must fail")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_properties)

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = NEGATIVE_REAL
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"chiralwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # often bare; append its text when it has one
        detail = f": {exc}" if str(exc) else ""
        print(f"chiralwalk: error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


# glibc hands a freed block of at least its mmap threshold back to the kernel,
# and trims the heap's free top once it passes its trim threshold; each t-chunk
# and CSV block allocates and frees 0.1-3 MiB arrays, which the next one then
# faults in again, page by page.  Below this size a command keeps them in its
# heap; past it (the dense matrices of a large N) they are still returned.
HEAP_KEEP_BYTES = 64 * 2 ** 20
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds at ``HEAP_KEEP_BYTES``; a C library
    without ``mallopt`` keeps its own policy."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt(M_MMAP_THRESHOLD, HEAP_KEEP_BYTES)
    mallopt(M_TRIM_THRESHOLD, HEAP_KEEP_BYTES)


def entry_point() -> None:
    # One command is one short process, and the cycle collector buys it nothing:
    # a command leaves the same few hundred objects in reference cycles (its
    # argument parser) whatever the size of its work, so with the collector off
    # memory cannot grow with the work.  Off, no collection walks numpy's and the
    # command's objects while they load and run; frozen, the final collection at
    # exit skips them too.  A short process is better off keeping its freed heap
    # too, so its chunk buffers are reused, not faulted in again.  ``main`` keeps
    # the collector and the allocator as they are for in-process callers.
    _keep_freed_heap()
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
