"""Benchmark of the chiralwalk command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a fixed list of CLI
invocations (one pass) over inputs generated from ``--seed``.  After set-up,
passes repeat for ``--seconds`` in a closed loop with one client: every
invocation is a fresh ``python -m chiralwalk.cli`` child, started only after
the previous one has exited, and every output goes through a correctness
gate.  The last line of standard output is the JSON result; the line before
it records the machine, the input properties and the output digests.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
the same argument lists in process through ``chiralwalk.cli.main``,
alternating untraced and traced passes, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1            # steadier than 2 on a small VM; einsum speed was equal
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
PROBE_REFERENCE_S = 0.045   # HostSpeed probe time that defines the reference speed

if __name__ == "__main__":
    # must precede the first numpy import, in this process and its children
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

import numpy as np  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def run_child(args: list[str], env: dict[str, str]) -> tuple[float, float, int, str]:
    """Run ``python args...``; returns wall seconds, peak RSS in MB, exit code, stderr."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def digest(path: Path) -> str:
    """sha256 of a file, or of a directory's sorted file names and contents."""
    sha = hashlib.sha256()
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    for item in files:
        if path.is_dir():
            sha.update(item.name.encode() + b"\0")
        sha.update(item.read_bytes())
    return sha.hexdigest()


def output_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(item.stat().st_size for item in path.iterdir())
    return path.stat().st_size


def clear(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


class Gatekeeper:
    """Checks every output.  Output bytes identical to an output that passed
    for the same invocation pass without re-running the full gate."""

    def __init__(self):
        self.passed: dict[str, set[str]] = defaultdict(set)
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def check(self, invocation: workloads.Invocation) -> bool:
        try:
            sha = digest(invocation.output)
            self.digests[invocation.name] = sha
            if sha not in self.passed[invocation.name]:
                invocation.check(invocation.output)
                self.passed[invocation.name].add(sha)
            return True
        except (gates.GateError, OSError, ValueError, IndexError) as exc:
            self.errors.append(f"{invocation.name}: {exc}")
            return False


class HostSpeed:
    """Scales wall times to a reference host speed.

    On a shared host the speed of identical work drifts by tens of percent
    over minutes, uniformly across interpreter, numpy and process start-up
    work.  A fixed probe of interpreter and numpy work, run just before and
    just after a timed interval, measures that drift; the interval is scaled
    by ``PROBE_REFERENCE_S`` over the mean of the two probes.  The probe is
    benchmark code, so a change to the program moves the scaled time exactly
    as it moves the wall time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._v = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self._phases = np.exp(1j * rng.normal(size=(32, 64)))
        self.probes: list[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        np.einsum("ik,tk,jk->tij", self._v, self._phases, self._v.conj())
        elapsed = time.perf_counter() - start
        self.probes.append(elapsed)
        return elapsed

    def scaled(self, before: float, wall: float) -> float:
        """``wall`` timed between probe ``before`` and a probe taken now."""
        return wall * PROBE_REFERENCE_S / ((before + self.probe()) / 2)


def setup(name: str, seed: int, env: dict[str, str],
          speed: HostSpeed) -> tuple[workloads.Workload, float, float]:
    """Generate and write the inputs, then one throwaway warm-up invocation.

    Repeated ``SETUP_REPEATS`` times; returns the workload and the median
    scaled and wall times.
    """
    scaled, walls, input_digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        start = time.perf_counter()
        work = WORK / name
        if work.exists():
            shutil.rmtree(work)
        workload = workloads.build(name, seed, work)
        (work / "inputs").mkdir(parents=True)
        (work / "out").mkdir()
        for relative, text in workload.files.items():
            (work / "inputs" / relative).write_text(text, encoding="utf-8")
        _, _, code, err = run_child(["-m", "chiralwalk.cli", "--help"], env)
        walls.append(time.perf_counter() - start)
        scaled.append(speed.scaled(before, walls[-1]))
        if code != 0:
            raise BenchError(f"warm-up invocation failed ({code}): {err.strip()}")
        input_digests.add(hashlib.sha256(json.dumps(workload.files, sort_keys=True)
                                          .encode()).hexdigest())
    if len(input_digests) != 1:
        raise BenchError("input generation is not deterministic")
    return workload, statistics.median(scaled), statistics.median(walls)


def measure(workload: workloads.Workload, seconds: float, env: dict[str, str],
            gatekeeper: Gatekeeper, speed: HostSpeed) -> tuple[dict, int, int, dict]:
    """Closed loop of child invocations; metrics, attempted, failed, info."""
    walls: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    peak_mb, attempted, failed = 0.0, 0, 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for invocation in workload.invocations:
            clear(invocation.output)
            before = speed.probe()
            wall, rss_mb, code, err = run_child(
                ["-m", "chiralwalk.cli", *invocation.argv], env)
            attempted += 1
            walls[invocation.name].append(wall)
            scaled[invocation.name].append(speed.scaled(before, wall))
            peak_mb = max(peak_mb, rss_mb)
            if code != 0:
                gatekeeper.errors.append(f"{invocation.name}: exit {code}: {err.strip()}")
                failed += 1
            elif not gatekeeper.check(invocation):
                failed += 1
    # median time of each invocation across passes, summed over one pass
    run_s = sum(statistics.median(values) for values in scaled.values())
    metrics = {"run_s": (run_s, "s"), "peak_rss_mb": (peak_mb, "MB")}
    info = {"passes": attempted // len(workload.invocations),
            "wall_run_s": sum(statistics.median(values) for values in walls.values()),
            "probe_s": statistics.median(speed.probes),
            "invocation_wall_s": walls}
    return metrics, attempted, failed, info


def import_cli():
    sys.path.insert(0, str(SRC))
    import chiralwalk.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"chiralwalk imported from {cli.__file__}, not {SRC}")
    return cli


def in_process_pass(cli, workload, gatekeeper, tracer=None) -> tuple[float, int, int, int]:
    """One pass through ``cli.main``; wall seconds, attempted, failed, output bytes."""
    total, failed, out_bytes = 0.0, 0, 0
    for invocation in workload.invocations:
        clear(invocation.output)
        span = tracer.enter("cli.main") if tracer else None
        start = time.perf_counter()
        try:
            code = cli.main(list(invocation.argv))
        except Exception as exc:  # a crash is a failed invocation, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        finally:
            total += time.perf_counter() - start
            if tracer:
                tracer.exit(span)
        if code != 0:
            gatekeeper.errors.append(f"{invocation.name}: {code}")
            failed += 1
        elif not gatekeeper.check(invocation):
            failed += 1
        else:
            out_bytes += output_bytes(invocation.output)
    return total, len(workload.invocations), failed, out_bytes


def trace(workload: workloads.Workload, seconds: float, env: dict[str, str],
          gatekeeper: Gatekeeper) -> tuple[dict, int, int, dict]:
    """Alternate untraced and traced in-process passes; per-layer metrics."""
    cli = import_cli()
    tracer = tracing.Tracer()
    plain, traced, passes, out_bytes = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, tried, bad, _ = in_process_pass(cli, workload, gatekeeper)
        plain.append(wall)
        first = len(tracer.spans)
        try:
            patches = tracing.install(tracer)
        except RuntimeError as exc:
            raise BenchError(f"cannot install trace wrappers: {exc}") from None
        try:
            wall, tried2, bad2, written = in_process_pass(cli, workload, gatekeeper, tracer)
        finally:
            patches.restore()
        traced.append(wall)
        out_bytes.append(written)
        passes.append(tracer.aggregate(first))
        attempted += tried + tried2
        failed += bad + bad2
    missing = tracing.missing_spans(workload.name, passes[-1])
    if missing:
        raise BenchError(f"expected spans recorded no calls (stale binding?): {missing}")

    startup = [run_child(["-c", "import chiralwalk.cli"], env)[0]
               for _ in range(STARTUP_REPEATS)]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    values = tracing.layer_metrics(passes)
    values["cli.out_bytes"] = statistics.median(out_bytes)
    values["cli.startup_s"] = statistics.median(startup)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}

    with open(WORK / workload.name / "spans.json", "w", encoding="utf-8") as handle:
        json.dump([span[:4] for span in tracer.spans], handle)
    info = {"traced_passes": len(passes),
            "self_time_ranking": tracing.dominant_self_time(passes[-1])[:6]}
    return metrics, attempted, failed, info


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "caches": caches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "chiralwalk" / "cli.py").is_file():
            raise BenchError(f"no chiralwalk sources under {SRC}")
        WORK.mkdir(exist_ok=True)
        env = child_env()
        speed = HostSpeed()
        workload, setup_s, wall_setup_s = setup(args.workload, args.seed, env, speed)
        gatekeeper = Gatekeeper()
        if args.trace:
            metrics, attempted, failed, info = trace(workload, args.seconds, env, gatekeeper)
        else:
            metrics, attempted, failed, info = measure(workload, args.seconds, env,
                                                       gatekeeper, speed)
            metrics["setup_s"] = (setup_s, "s")
            info["wall_setup_s"] = wall_setup_s
            metrics["success_ratio"] = ((attempted - failed) / attempted, "ratio")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for error in gatekeeper.errors[:10]:
        print(f"bench: gate: {error}", file=sys.stderr)
    info.update(workload=workload.name, seed=args.seed, machine=machine_record(),
                inputs=workload.properties, output_sha256=gatekeeper.digests,
                gate_errors=len(gatekeeper.errors))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not gatekeeper.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
