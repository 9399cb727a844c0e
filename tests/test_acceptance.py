"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expected values marked "frozen" were computed by the independent
Taylor-exponential oracle (tests/oracles.py) before the package was built,
or by the independent high-precision evaluation noted beside them, and are
asserted at 1e-9.

Each criterion's measurement runs once per module through the ``acceptance``
fixture, which records every unitary and probability table it produces.
Criterion 10 takes all measurements of criteria 1-9 (reusing those already
taken) and checks unitarity and column normalization across all of them, so
it gives the same verdict whether it runs with the suite or alone.
"""

import math
import time

import numpy as np
import pytest

from chiralwalk import (GateSpec, apply_gauge, gate_qubit_space,
                        max_transfer, propagate, pts_numeric, rz_decompose,
                        three_cycle_circuit, three_cycle_unitaries, trotter_error)
from chiralwalk.propagator import _peak, spectrum
from chiralwalk.randgen import (random_bipartite, random_forest, random_gauge,
                                random_hamiltonian, random_nonbipartite)
from chiralwalk.symmetry import default_time_samples

from .graphs import qubit_block, uniform_triangle
from .oracles import three_cycle_taylor

PI = math.pi
EXPERIMENT_GRID = [-PI + k * PI / 18 for k in range(37)]
GRID_STEP = PI / 18
DENSE_POINTS = 10000
ACCEPTANCE_SEED = 20260808

GOLDEN_CHIRAL_GRID_PEAK = 0.94921875          # = 243/256, frozen pre-build
GOLDEN_SYMMETRIC_GRID_PEAK_13 = 0.52734375    # = 135/256, frozen pre-build
GOLDEN_SYMMETRIC_GRID_PEAK_12 = 0.2841796875  # = 291/1024, frozen pre-build
# Maximum over real theta of P(1->3) at alpha = pi/2, attained at
# theta* = -0.5922841578 and its mirror -pi - theta*.  Frozen from a
# 40-digit mpmath evaluation of the gate formula in the circuit.py docstring,
# maximized by a root of the derivative; no package code involved.
GOLDEN_CHIRAL_CONTINUOUS_PEAK = 0.98726287805


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# Measurements: each takes ``record`` and returns the quantities its test
# asserts on, recording every unitary and probability stack it builds.

def _measure_1(record):
    start = time.perf_counter()
    grid_u = three_cycle_unitaries([0.0], EXPERIMENT_GRID)
    grid_p = np.abs(grid_u) ** 2
    peak_12 = float(grid_p[0, :, 1, 0].max())
    peak_13 = float(grid_p[0, :, 2, 0].max())
    dense_u = three_cycle_unitaries([0.0], np.linspace(-PI, PI, DENSE_POINTS))
    dense_p = np.abs(dense_u) ** 2
    dense_peak = float(max(dense_p[0, :, 1, 0].max(), dense_p[0, :, 2, 0].max()))
    elapsed = time.perf_counter() - start
    record(unitaries=grid_u, probabilities=grid_p)
    record(unitaries=dense_u, probabilities=dense_p)
    return peak_12, peak_13, dense_peak, elapsed


def _measure_2_golden(record):
    start = time.perf_counter()
    unitaries = three_cycle_unitaries([PI / 2], EXPERIMENT_GRID)
    peak = float((np.abs(unitaries) ** 2)[0, :, 2, 0].max())
    elapsed = time.perf_counter() - start
    record(unitaries=unitaries)
    oracle_peak = max(abs(three_cycle_taylor(PI / 2, th)[2, 0]) ** 2
                      for th in EXPERIMENT_GRID)
    return peak, oracle_peak, elapsed


def _measure_2_bound(record):
    def chiral_transfer(thetas):  # P(1->3) of the triangle palindrome at alpha = pi/2
        unitaries = three_cycle_unitaries([PI / 2], thetas)
        record(unitaries=unitaries)
        return np.abs(unitaries[0, :, 2, 0]) ** 2

    theta_star, peak = _peak(chiral_transfer, -PI, PI)
    grid_u = three_cycle_unitaries([PI / 2], EXPERIMENT_GRID)
    grid_p = np.abs(grid_u) ** 2
    record(unitaries=grid_u, probabilities=grid_p)
    oracle = float(abs(three_cycle_taylor(PI / 2, theta_star)[2, 0]) ** 2)
    grid_13 = grid_p[0, :, 2, 0]
    grid_peak = float(grid_13.max())
    grid_argmax = np.asarray(EXPERIMENT_GRID)[grid_13 >= grid_peak - 1e-12]
    grid_distance = float(np.abs(grid_argmax - theta_star).min())
    return peak, theta_star, oracle, grid_peak, grid_distance


def _measure_3(record):
    alphas = [k * 2 * PI / 16 for k in range(16)]
    thetas = np.array(EXPERIMENT_GRID)
    worst = 0.0
    for alpha in alphas:
        plus = three_cycle_unitaries([alpha + PI], thetas)
        minus = three_cycle_unitaries([alpha], -thetas)
        record(unitaries=plus, probabilities=np.abs(plus) ** 2)
        record(unitaries=minus, probabilities=np.abs(minus) ** 2)
        worst = max(worst, float(np.abs(np.abs(plus) ** 2
                                        - np.abs(minus) ** 2).max()))
    return worst


def _measure_4(record):
    start = time.perf_counter()
    _, p_symmetric = max_transfer(uniform_triangle(0.0), 0, 2, (0.0, 2 * PI))
    t_chiral, p_chiral = max_transfer(uniform_triangle(PI / 6), 0, 2, (0.0, 2 * PI))
    elapsed = time.perf_counter() - start
    for graph, t in ((uniform_triangle(0.0), PI / 3), (uniform_triangle(PI / 6), t_chiral)):
        u = propagate(graph, t)
        record(unitaries=u, probabilities=np.abs(u) ** 2)
    return p_symmetric, p_chiral, elapsed


def _measure_5(record):
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst_forest = 0.0
    for _ in range(100):
        graph = random_forest(rng, n_max=12, with_self_energies=True)
        batch = spectrum(graph).propagator_batch(np.array(default_time_samples(graph)))
        record(unitaries=batch, probabilities=np.abs(batch) ** 2)
        worst_forest = max(worst_forest, pts_numeric(graph))
    worst_bipartite = 0.0
    for _ in range(100):
        graph = random_bipartite(rng, n_max=12)
        batch = spectrum(graph).propagator_batch(np.array(default_time_samples(graph)))
        record(unitaries=batch, probabilities=np.abs(batch) ** 2)
        worst_bipartite = max(worst_bipartite, pts_numeric(graph))
    detected = 0
    for _ in range(100):
        graph = random_nonbipartite(rng, n_max=12)
        residual = pts_numeric(graph)
        if residual > 1e-3:
            detected += 1
    elapsed = time.perf_counter() - start
    return worst_forest, worst_bipartite, detected, elapsed


def _measure_6(record):
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    worst = 0.0
    for _ in range(200):
        graph = random_hamiltonian(rng, n_max=8)
        gauge = random_gauge(rng, graph.n_nodes)
        t = float(rng.uniform(-5.0, 5.0))
        u = propagate(graph, t)
        u_gauged = propagate(apply_gauge(graph, gauge), t)
        record(unitaries=u, probabilities=np.abs(u) ** 2)
        record(unitaries=u_gauged)
        worst = max(worst, float(np.abs(np.abs(u) ** 2
                                        - np.abs(u_gauged) ** 2).max()))
    return worst


def _measure_7(record):
    rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
    worst = 0.0
    for _ in range(100):
        gate = GateSpec(0, 1, float(rng.uniform(-2 * PI, 2 * PI)),
                        float(rng.uniform(-2 * PI, 2 * PI)))
        pre, sym, post = rz_decompose(gate)
        target = gate_qubit_space(gate)
        record(unitaries=target, probabilities=np.abs(target) ** 2)
        worst = max(worst, float(np.abs(pre @ sym @ post - target).max()))
    return worst


def _measure_8(record):
    graph = uniform_triangle(0.3)
    ratios = []
    for theta in (0.1, 0.05):
        ratios.append(trotter_error(graph, theta) / trotter_error(graph, theta / 2))
        target = propagate(graph, theta)
        record(unitaries=target, probabilities=np.abs(target) ** 2)
    return ratios


def _measure_9(record):
    worst_leak = 0.0
    for alpha in (0.0, PI / 2, PI, 3 * PI / 2):
        for theta in EXPERIMENT_GRID:
            circuit = three_cycle_circuit(alpha, float(theta))
            block = qubit_block(circuit)
            record(unitaries=block, probabilities=np.abs(block) ** 2)
            leak = 1.0 - float((np.abs(block) ** 2).sum(axis=0).min())
            worst_leak = max(worst_leak, abs(leak))
    return worst_leak


_MEASUREMENTS = {
    "1": _measure_1,
    "2 (golden peak)": _measure_2_golden,
    "2 (stated 0.95 bound)": _measure_2_bound,
    "3": _measure_3,
    "4": _measure_4,
    "5": _measure_5,
    "6": _measure_6,
    "7": _measure_7,
    "8": _measure_8,
    "9": _measure_9,
}


class _Acceptance:
    """Takes each criterion's measurement once and keeps every stack it made."""

    def __init__(self):
        self.unitaries: list[np.ndarray] = []
        self.probabilities: list[np.ndarray] = []
        self._results: dict = {}

    def record(self, unitaries=None, probabilities=None):
        if unitaries is not None:
            self.unitaries.append(np.asarray(unitaries, dtype=complex)
                                  .reshape(-1, *np.shape(unitaries)[-2:]))
        if probabilities is not None:
            self.probabilities.append(np.asarray(probabilities, dtype=float)
                                      .reshape(-1, *np.shape(probabilities)[-2:]))

    def measure(self, criterion: str):
        if criterion not in self._results:
            self._results[criterion] = _MEASUREMENTS[criterion](self.record)
        return self._results[criterion]


@pytest.fixture(scope="module")
def acceptance():
    return _Acceptance()


def test_criterion_1_symmetric_circuit_bound(acceptance):
    peak_12, peak_13, dense_peak, elapsed = acceptance.measure("1")
    ok = (peak_12 <= 0.6 and peak_13 <= 0.6 and dense_peak <= 0.6
          and abs(peak_12 - GOLDEN_SYMMETRIC_GRID_PEAK_12) <= 1e-9
          and abs(peak_13 - GOLDEN_SYMMETRIC_GRID_PEAK_13) <= 1e-9
          and elapsed < 1.0)
    _report("1", ok, f"symmetric slice peaks P(1->2)={peak_12:.10f}, "
                     f"P(1->3)={peak_13:.10f}, dense={dense_peak:.10f} <= 0.6 "
                     f"({elapsed * 1e3:.0f} ms)")
    assert peak_12 <= 0.6 and peak_13 <= 0.6
    assert dense_peak <= 0.6
    assert abs(peak_12 - GOLDEN_SYMMETRIC_GRID_PEAK_12) <= 1e-9
    assert abs(peak_13 - GOLDEN_SYMMETRIC_GRID_PEAK_13) <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_chiral_peak_matches_frozen_oracle(acceptance):
    """Grid half of criterion 2: the 37-point grid peak is exactly 243/256."""
    peak, oracle_peak, elapsed = acceptance.measure("2 (golden peak)")
    ok = (abs(peak - GOLDEN_CHIRAL_GRID_PEAK) <= 1e-9
          and abs(oracle_peak - GOLDEN_CHIRAL_GRID_PEAK) <= 1e-9
          and elapsed < 1.0)
    _report("2 (golden peak)", ok,
            f"chiral slice peak P(1->3)={peak:.10f}, oracle={oracle_peak:.10f}, "
            f"frozen={GOLDEN_CHIRAL_GRID_PEAK} ({elapsed * 1e3:.0f} ms)")
    assert abs(peak - GOLDEN_CHIRAL_GRID_PEAK) <= 1e-9
    assert abs(oracle_peak - GOLDEN_CHIRAL_GRID_PEAK) <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_chiral_peak_meets_stated_bound(acceptance):
    """Continuous half of criterion 2: the chiral slice transports >= 0.95.

    P(1->3) at alpha = pi/2 is maximized over theta in [-pi, pi] by
    ``propagator._peak``, the search ``max_transfer`` runs.  The peak must
    reach the stated 0.95 bound, match the frozen continuous peak and the
    Taylor oracle at theta* to 1e-9, sit no lower than the grid peak
    (243/256, pinned by the golden test above), and lie within one grid step
    of a grid argmax, so that the experiment grid brackets the near-perfect
    peak.
    """
    peak, theta_star, oracle, grid_peak, grid_distance = \
        acceptance.measure("2 (stated 0.95 bound)")
    ok = (peak >= 0.95
          and abs(peak - GOLDEN_CHIRAL_CONTINUOUS_PEAK) <= 1e-9
          and abs(peak - oracle) <= 1e-9
          and grid_peak <= peak
          and grid_distance <= GRID_STEP)
    _report("2 (stated 0.95 bound)", ok,
            f"continuous chiral peak P(1->3)={peak:.11f} >= 0.95 at "
            f"theta*={theta_star:.10f} (oracle={oracle:.11f}); grid peak "
            f"{grid_peak:.10f} <= continuous, grid argmax {grid_distance:.4f} "
            f"<= pi/18 away")
    assert peak >= 0.95
    assert abs(peak - GOLDEN_CHIRAL_CONTINUOUS_PEAK) <= 1e-9
    assert abs(peak - oracle) <= 1e-9
    assert grid_peak <= peak
    assert grid_distance <= GRID_STEP


def test_criterion_3_reflection_symmetry(acceptance):
    worst = acceptance.measure("3")
    ok = worst <= 1e-12
    _report("3", ok, f"time-reflection residual {worst:.3e} <= 1e-12 "
                     f"over a 16x37 grid")
    assert worst <= 1e-12


def test_criterion_4_hamiltonian_triangle_oracle(acceptance):
    p_symmetric, p_chiral, elapsed = acceptance.measure("4")
    ok = (abs(p_symmetric - 4.0 / 9.0) <= 1e-9 and p_chiral >= 0.999
          and elapsed < 1.0)
    _report("4", ok, f"symmetric peak {p_symmetric:.12f} (4/9 +- 1e-9), "
                     f"flux-pi/2 peak {p_chiral:.12f} >= 0.999 "
                     f"({elapsed * 1e3:.0f} ms)")
    assert abs(p_symmetric - 4.0 / 9.0) <= 1e-9
    assert p_chiral >= 0.999
    assert elapsed < 1.0


def test_criterion_5_geometry_taxonomy_suites(acceptance):
    worst_forest, worst_bipartite, detected, elapsed = acceptance.measure("5")
    ok = (worst_forest <= 1e-9 and worst_bipartite <= 1e-9 and detected >= 95
          and elapsed < 30.0)
    _report("5", ok, f"forest residual {worst_forest:.3e}, bipartite residual "
                     f"{worst_bipartite:.3e} (both <= 1e-9), asymmetry detected "
                     f"{detected}/100 (>= 95), seed {ACCEPTANCE_SEED} "
                     f"({elapsed:.2f} s)")
    assert worst_forest <= 1e-9
    assert worst_bipartite <= 1e-9
    assert detected >= 95
    assert elapsed < 30.0


def test_criterion_6_gauge_invariance(acceptance):
    worst = acceptance.measure("6")
    ok = worst <= 1e-12
    _report("6", ok, f"gauge residual {worst:.3e} <= 1e-12 over 200 triples")
    assert worst <= 1e-12


def test_criterion_7_rotation_decomposition_exactness(acceptance):
    worst = acceptance.measure("7")
    ok = worst <= 1e-12
    _report("7", ok, f"z-rotation conjugation residual {worst:.3e} <= 1e-12 "
                     f"over 100 gates")
    assert worst <= 1e-12


def test_criterion_8_splitting_error_order(acceptance):
    ratios = acceptance.measure("8")
    ok = all(6.0 <= r <= 10.0 for r in ratios)
    _report("8", ok, "error(theta)/error(theta/2) = "
            + ", ".join(f"{r:.4f}" for r in ratios) + " in [6, 10]")
    for ratio in ratios:
        assert 6.0 <= ratio <= 10.0


def test_criterion_9_excitation_preservation(acceptance):
    worst_leak = acceptance.measure("9")
    ok = worst_leak <= 1e-12
    _report("9", ok, f"single-excitation leakage {worst_leak:.3e} <= 1e-12 "
                     f"over the 37x4 grid")
    assert worst_leak <= 1e-12


def test_criterion_10_unitarity_and_normalization(acceptance):
    for criterion in _MEASUREMENTS:
        acceptance.measure(criterion)
    worst_unitarity = 0.0
    count = 0
    for stack in acceptance.unitaries:
        gram = np.einsum("kji,kjl->kil", stack.conj(), stack)
        eye = np.eye(stack.shape[-1])
        worst_unitarity = max(worst_unitarity, float(np.abs(gram - eye).max()))
        count += stack.shape[0]
    worst_column = 0.0
    rows = 0
    for probs in acceptance.probabilities:
        worst_column = max(worst_column, float(np.abs(probs.sum(axis=1) - 1.0).max()))
        rows += probs.shape[0]
    ok = worst_unitarity <= 1e-10 and worst_column <= 1e-9
    _report("10", ok, f"unitarity defect {worst_unitarity:.3e} <= 1e-10 over "
                      f"{count} propagators; column-sum defect {worst_column:.3e} "
                      f"<= 1e-9 over {rows} tables")
    assert worst_unitarity <= 1e-10
    assert worst_column <= 1e-9
