"""sha256 of every output file of the benchmark's invocations, run on a source tree.

    python3 tools/output_digests.py [--one-cpu] SRC SEED [WORKLOAD...]

Run from the root of a checkout.  For each workload (all of them when none is
named) the inputs are generated from SEED by ``bench/workloads.build`` and
written as ``bench/run.py`` writes them; then each invocation runs once as a
``python -m chiralwalk.cli`` child with ``PYTHONPATH=SRC`` and one BLAS
thread, and one line ``workload invocation file sha256`` is printed for each
file it writes.  Every path is relative to a fresh scratch directory, so two
source trees give the same lines exactly when their outputs agree byte for
byte:

    python3 tools/output_digests.py ../parent/src 7 > parent.txt
    python3 tools/output_digests.py src 7 > change.txt
    diff parent.txt change.txt

``--one-cpu`` pins each child to one CPU (``os.sched_setaffinity``), so
``evolve`` renders every t-chunk in one process; a ``diff`` against a run
without it checks that the t-chunk workers write the bytes of one process:

    python3 tools/output_digests.py --one-cpu src 7 > one.txt
    python3 tools/output_digests.py src 7 > all.txt
    diff one.txt all.txt

Exits 1 when a child fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    one_cpu = argv[:1] == ["--one-cpu"]
    argv = argv[one_cpu:]
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src, seed, names = Path(argv[0]).resolve(), int(argv[1]), argv[2:] or list(workloads.BUILDERS)
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    env = {**os.environ, "PYTHONPATH": str(src), **{var: "1" for var in THREAD_VARS}}
    failed = False
    with tempfile.TemporaryDirectory() as directory:
        scratch = Path(directory)
        for name in names:
            work = Path(name)
            workload = workloads.build(name, seed, work)
            (scratch / work / "inputs").mkdir(parents=True)
            (scratch / work / "out").mkdir()
            for relative, text in workload.files.items():
                (scratch / work / "inputs" / relative).write_text(text, encoding="utf-8")
            for invocation in workload.invocations:
                child = subprocess.run([sys.executable, "-m", "chiralwalk.cli", *invocation.argv],
                                       cwd=scratch, env=env, stdin=subprocess.DEVNULL,
                                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                       text=True, preexec_fn=pin)
                if child.returncode != 0:
                    print(f"{name} {invocation.name}: exit {child.returncode}: "
                          f"{child.stderr.strip()}", file=sys.stderr)
                    failed = True
                    continue
                output = scratch / invocation.output
                files = sorted(output.iterdir()) if output.is_dir() else [output]
                for path in files:
                    sha = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(name, invocation.name, path.relative_to(scratch / work / "out"), sha)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
