"""Chiral continuous-time quantum walks and palindromic two-site-gate circuits.

Simulate walks generated by complex Hermitian graph Hamiltonians, classify
their time-reversal behavior from the support-graph geometry, and drive the
same transport with mirror-symmetric circuits of two-site gates whose
chirality is controlled by local z-rotations.

Each exported name is imported from its home module on first access, so
``import chiralwalk`` loads neither numpy nor a numeric module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "defaults": ("DEFAULTS",),
    "graph": ("Edge", "GraphFormatError", "WalkHamiltonian", "load_graph", "parse_graph",
              "render_graph", "skeleton", "to_dense"),
    "propagator": ("TransportTable", "eig_hermitian", "max_transfer", "propagate",
                   "sweep_time"),
    "symmetry": ("SymmetryReport", "apply_gauge", "bipartite_negation_gauge", "classify",
                 "cycle_flux", "default_time_samples", "eq_parity_residual", "is_bipartite",
                 "is_forest", "pts_numeric", "tree_phase_removal"),
    "circuit": ("GateSpec", "PalindromicCircuit", "apply_circuit", "circuit_sweep_table",
                "excitation_preservation_check", "gate_qubit_space", "parse_circuit",
                "render_circuit", "rz_decompose", "three_cycle_circuit",
                "three_cycle_unitaries", "trotter_error"),
    "properties": ("format_property_report", "run_property_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Import ``name`` from its home module and keep it as a package global."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
