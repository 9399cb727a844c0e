"""Seeded inputs and CLI invocation lists for the three benchmark workloads.

Every workload is a fixed list of ``chiralwalk`` invocations (one "pass").
The seed chooses edges, phases, magnitudes, self-energies, labels, time
horizons and sweep phases; it never changes a size (N, E, T, grid, trial
count), so the work a pass does is the same for every seed and run times
compare across seeds.  Graphs are built here, not through ``chiralwalk``,
so the correctness gates can check the program against the benchmark's
own description of each input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gates

CLASSES = ("tree", "tree-with-self-edges", "bipartite-with-cycles", "non-bipartite")

# classify-batch: one --csv invocation per batch.  The einsum in
# propagator_batch grows as N^3, so the two N >= 192 graphs dominate; N stays
# at or below 256 because one N~500 classify takes ~24 s on its own.
CLASSIFY_BATCHES = (
    (16, 18, 20, 24, 28, 32, 36, 40, 48, 56),
    (64, 72, 80, 96),
    (192,),
    (200,),
)

# evolve-table: (N, T) per invocation, each writing 0.5-0.6M CSV rows.
EVOLVE_SIZES = ((32, 512), (48, 256), (64, 128))
EVOLVE_CLASSES = ("non-bipartite", "bipartite-with-cycles", "tree-with-self-edges")

# circuit-suite sizes.
SWEEP_REFINE = 50            # circuit-sweep theta step = (pi/18) / SWEEP_REFINE
FIG2_GRID = 400              # reproduce-fig2 surface is FIG2_GRID^2 points
TROTTER_RINGS = (48, 72, 96)
PROPERTY_TRIALS = (
    ("palindrome-amplitude-symmetry", 300),
    ("spanning-tree-circuit-pts", 300),
    ("bipartite-circuit-pts", 300),
    ("flux-dependence", 300),
    ("excitation-preservation", 300),
    ("gate-embedding", 300),
    ("rz-conjugation-identity", 300),
)

LABEL_PREFIXES = ("site", "q", "node_", "v")


@dataclass(frozen=True)
class GraphSpec:
    """One generated graph, as the benchmark intends it."""

    name: str
    n: int
    intended_class: str
    edges: tuple[tuple[int, int, float, float], ...]   # (i, j, h, alpha), i < j
    self_energies: tuple[tuple[int, float], ...]
    labels: tuple[str, ...] | None = None              # token used for node k

    def token(self, k: int) -> str:
        return self.labels[k] if self.labels is not None else str(k)

    def render(self) -> str:
        lines = [f"# {self.intended_class}, generated by bench/workloads.py",
                 f"nodes {self.n}"]
        lines += [f"edge {self.token(i)} {self.token(j)} {_real(h)} {_real(a)}"
                  for i, j, h, a in self.edges]
        lines += [f"self {self.token(v)} {_real(e)}" for v, e in self.self_energies]
        return "\n".join(lines) + "\n"

    def file_order(self) -> list[int]:
        """Nodes in order of first appearance in the file (label numbering)."""
        order: dict[int, None] = {}
        for i, j, _, _ in self.edges:
            order.setdefault(i)
            order.setdefault(j)
        for v, _ in self.self_energies:
            order.setdefault(v)
        return list(order)

    def dense(self) -> np.ndarray:
        """Hermitian matrix in the index space the program assigns."""
        index = list(range(self.n))
        if self.labels is not None:
            for position, node in enumerate(self.file_order()):
                index[node] = position
        h = np.zeros((self.n, self.n), dtype=complex)
        for i, j, mag, alpha in self.edges:
            a, b = index[i], index[j]
            # the parser stores an edge declared as (a, b) with b < a as (b, a, mag, -alpha)
            h[a, b] = mag * np.exp(1j * alpha)
            h[b, a] = np.conj(h[a, b])
        for v, energy in self.self_energies:
            h[index[v], index[v]] = energy
        return h


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, where it writes, and its correctness gate."""

    name: str
    argv: tuple[str, ...]
    output: Path
    check: Callable[[Path], None]


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    files: dict[str, str] = field(default_factory=dict)   # relative path -> text
    properties: dict = field(default_factory=dict)         # recorded input properties


def _real(x: float) -> str:
    return format(float(x), ".17g")


def _edge_params(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(0.5, 1.5)), float(rng.uniform(-math.pi, math.pi))


def make_graph(rng: np.random.Generator, name: str, n: int, kind: str,
               labelled: bool = False) -> GraphSpec:
    """Connected graph on n nodes whose support is of the structural class ``kind``."""
    perm = [int(v) for v in rng.permutation(n)]     # hide the attachment order
    pairs: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        a, b = perm[u], perm[v]
        pairs.add((min(a, b), max(a, b)))

    if kind in ("tree", "tree-with-self-edges", "non-bipartite"):
        for v in range(1, n):
            add(int(rng.integers(0, v)), v)
    if kind == "non-bipartite":
        a, b, c = (int(x) for x in rng.choice(n, size=3, replace=False))
        add(a, b)
        add(b, c)
        add(a, c)
        while len(pairs) < n - 1 + n // 2:
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            add(u, v)
    if kind == "bipartite-with-cycles":
        color = [v % 2 for v in range(n)]             # 0 and 1 are both inhabited
        for v in range(1, n):
            options = [u for u in range(v) if color[u] != color[v]]
            add(options[int(rng.integers(0, len(options)))], v)
        while len(pairs) < n - 1 + max(1, n // 2):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            if color[u] != color[v]:
                add(u, v)

    edges = tuple((i, j, *_edge_params(rng)) for i, j in sorted(pairs))
    if kind == "tree-with-self-edges":
        chosen = sorted(int(v) for v in rng.choice(n, size=max(1, n // 3), replace=False))
        selfs = tuple((v, float(rng.uniform(0.1, 1.0))) for v in chosen)
    elif kind == "non-bipartite" and rng.random() < 0.5:
        selfs = tuple((v, float(rng.uniform(-1.0, 1.0))) for v in range(n)
                      if rng.random() < 0.3)
    elif rng.random() < 0.5:
        # a uniform diagonal shifts the spectrum and adds no structure
        energy = float(rng.uniform(-1.0, 1.0))
        selfs = tuple((v, energy) for v in range(n))
    else:
        selfs = ()
    labels = None
    if labelled:
        prefix = LABEL_PREFIXES[int(rng.integers(0, len(LABEL_PREFIXES)))]
        labels = tuple(f"{prefix}{int(k)}" for k in rng.permutation(n))
    return GraphSpec(name, n, kind, edges, selfs, labels)


def share_gauge_equivalent(graphs: list[GraphSpec]) -> float:
    """Share of graphs with a possibly gauge-equivalent partner.

    Gauge equivalence needs the same node count, support and magnitudes, so
    graphs that differ in any of these cannot be equivalent.
    """
    keys = [(g.n, tuple((i, j, h) for i, j, h, _ in g.edges)) for g in graphs]
    shared = sum(1 for key in keys if keys.count(key) > 1)
    return shared / len(graphs)


def ring_graph(rng: np.random.Generator, name: str, n: int) -> GraphSpec:
    """Ring with one magnitude on every edge and random phases (splitting input)."""
    h = float(rng.uniform(0.5, 1.5))
    pairs = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    edges = tuple((i, j, h, float(rng.uniform(-math.pi, math.pi))) for i, j in sorted(pairs))
    return GraphSpec(name, n, "ring", edges, ())


def _classify_batch(rng, inputs: Path, out: Path) -> Workload:
    workload = Workload("classify-batch", [])
    graphs: list[GraphSpec] = []
    for b, sizes in enumerate(CLASSIFY_BATCHES):
        batch = []
        for n in sizes:
            index = len(graphs)
            graph = make_graph(rng, f"g{index:02d}", n, CLASSES[index % len(CLASSES)],
                               labelled=index % 3 == 1)
            workload.files[f"{graph.name}.graph"] = graph.render()
            graphs.append(graph)
            batch.append(graph)
        output = out / f"classify-{b}.csv"
        argv = ["classify", "--csv", "--out", str(output)]
        for graph in batch:
            argv += ["--graph", str(inputs / f"{graph.name}.graph")]
        workload.invocations.append(Invocation(
            f"classify-{b}", tuple(argv), output,
            lambda path, batch=tuple(batch): gates.check_classify(path, batch)))
    workload.properties = {
        "graphs": len(graphs),
        "N": [g.n for g in graphs],
        "E": [len(g.edges) for g in graphs],
        "class_mix": {kind: sum(g.intended_class == kind for g in graphs) for kind in CLASSES},
        "label_style_graphs": sum(g.labels is not None for g in graphs),
        "gauge_equivalent_share": share_gauge_equivalent(graphs),
    }
    return workload


def _evolve_table(rng, inputs: Path, out: Path) -> Workload:
    workload = Workload("evolve-table", [])
    rows, graphs = [], []
    for k, ((n, count), kind) in enumerate(zip(EVOLVE_SIZES, EVOLVE_CLASSES)):
        graph = make_graph(rng, f"e{k}", n, kind)
        graphs.append(graph)
        t_max = _real(rng.uniform(4.0, 12.0))
        workload.files[f"{graph.name}.graph"] = graph.render()
        output = out / f"evolve-{k}.csv"
        argv = ("evolve", "--graph", str(inputs / f"{graph.name}.graph"),
                "--t-max", t_max, "--t-count", str(count), "--out", str(output))
        times = gates.time_grid(0.0, float(t_max), count)
        workload.invocations.append(Invocation(
            f"evolve-{k}", argv, output,
            lambda path, graph=graph, times=times: gates.check_evolve(path, graph, times)))
        rows.append({"N": n, "E": len(graph.edges), "T": count, "class": kind,
                     "rows": count * n * n})
    workload.properties = {"invocations": rows,
                           "gauge_equivalent_share": share_gauge_equivalent(graphs)}
    return workload


def _circuit_suite(rng, inputs: Path, out: Path) -> Workload:
    workload = Workload("circuit-suite", [])
    trials = dict(PROPERTY_TRIALS)
    output = out / "properties.txt"
    argv = ["properties", "--seed", str(int(rng.integers(0, 2**31))), "--out", str(output)]
    for name, count in PROPERTY_TRIALS:
        argv += ["--trials", f"{name}={count}"]
    workload.invocations.append(Invocation(
        "properties", tuple(argv), output,
        lambda path: gates.check_properties(path, trials)))

    alphas = [0.0, math.pi / 2] + [float(a) for a in rng.uniform(0.0, 2 * math.pi, size=2)]
    output = out / "sweep.csv"
    argv = ["circuit-sweep", "--theta-step", _real(math.pi / 18 / SWEEP_REFINE),
            "--out", str(output)]
    for alpha in alphas:
        argv += ["--alpha", _real(alpha)]
    workload.invocations.append(Invocation(
        "circuit-sweep", tuple(argv), output,
        lambda path: gates.check_sweep(path, alphas, SWEEP_REFINE)))

    output = out / "fig2"
    workload.invocations.append(Invocation(
        "reproduce-fig2", ("reproduce-fig2", "--grid", str(FIG2_GRID), "--out", str(output)),
        output, lambda path: gates.check_fig2(path, FIG2_GRID)))

    rings = []
    for n in TROTTER_RINGS:
        graph = ring_graph(rng, f"ring{n}", n)
        rings.append(graph)
        workload.files[f"{graph.name}.graph"] = graph.render()
        output = out / f"trotter-{n}.txt"
        workload.invocations.append(Invocation(
            f"trotter-{n}",
            ("trotter-check", "--graph", str(inputs / f"{graph.name}.graph"),
             "--theta-start", "0.2", "--halvings", "4", "--out", str(output)),
            output, lambda path: gates.check_trotter(path, 4)))
    workload.properties = {
        "property_trials": trials,
        "sweep_points": len(alphas) * (36 * SWEEP_REFINE + 1),
        "fig2_grid": FIG2_GRID,
        "trotter_rings_N": list(TROTTER_RINGS),
        "gauge_equivalent_share": share_gauge_equivalent(rings),
    }
    return workload


BUILDERS = {
    "classify-batch": _classify_batch,
    "evolve-table": _evolve_table,
    "circuit-suite": _circuit_suite,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Workload ``name`` for ``seed``: input texts plus invocations that read
    them from ``work/inputs`` and write to ``work/out``."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](rng, work / "inputs", work / "out")
