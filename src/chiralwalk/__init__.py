"""Chiral continuous-time quantum walks and palindromic two-site-gate circuits.

Simulate walks generated by complex Hermitian graph Hamiltonians, classify
their time-reversal behavior from the support-graph geometry, and drive the
same transport with mirror-symmetric circuits of two-site gates whose
chirality is controlled by local z-rotations.
"""

from .circuit import (GateSpec, PalindromicCircuit, apply_circuit,
                      circuit_sweep_table, excitation_preservation_check,
                      gate_qubit_space, parse_circuit, render_circuit,
                      rz_decompose, three_cycle_circuit, three_cycle_unitaries,
                      trotter_error)
from .defaults import DEFAULTS
from .graph import (Edge, GraphFormatError, WalkHamiltonian, load_graph,
                    parse_graph, render_graph, skeleton, to_dense)
from .propagator import (TransportTable, eig_hermitian, max_transfer, propagate,
                         sweep_time, validate_table_csv)
from .properties import format_property_report, run_property_suite
from .symmetry import (SymmetryReport, apply_gauge, bipartite_negation_gauge,
                       classify, cycle_flux, default_time_samples,
                       eq_parity_residual, is_bipartite, is_forest, pts_numeric,
                       tree_phase_removal)

__version__ = "0.1.0"

__all__ = [
    "DEFAULTS",
    "Edge",
    "GraphFormatError",
    "WalkHamiltonian",
    "load_graph",
    "parse_graph",
    "render_graph",
    "skeleton",
    "to_dense",
    "TransportTable",
    "eig_hermitian",
    "max_transfer",
    "propagate",
    "sweep_time",
    "validate_table_csv",
    "SymmetryReport",
    "apply_gauge",
    "bipartite_negation_gauge",
    "classify",
    "cycle_flux",
    "default_time_samples",
    "eq_parity_residual",
    "is_bipartite",
    "is_forest",
    "pts_numeric",
    "tree_phase_removal",
    "GateSpec",
    "PalindromicCircuit",
    "apply_circuit",
    "circuit_sweep_table",
    "excitation_preservation_check",
    "gate_qubit_space",
    "parse_circuit",
    "render_circuit",
    "rz_decompose",
    "three_cycle_circuit",
    "three_cycle_unitaries",
    "trotter_error",
    "format_property_report",
    "run_property_suite",
]
