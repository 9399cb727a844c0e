"""Rules of the source itself, checked on its syntax tree."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chiralwalk"


def _line_carrying_errors(tree: ast.AST) -> list[tuple[str | None, int]]:
    """``(enclosing function, source line)`` of each ``GraphFormatError``
    call given more than its message."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee == "GraphFormatError" and (len(node.args) != 1 or node.keywords):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_line_reader_gives_a_file_error_its_line():
    found = {path.name: _line_carrying_errors(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, _ in found.pop("graph.py")] == ["_read_lines"]
    assert {name: calls for name, calls in found.items() if calls} == {}


def _readers(tree: ast.AST, name: str) -> set[str | None]:
    """Enclosing function of each place ``tree`` reads ``name``: as a
    variable, an attribute or an import (``None`` at module level)."""
    found = set()

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if ((isinstance(node, ast.Name) and node.id == name
             and not isinstance(node.ctx, ast.Store))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in (node.name, node.asname))):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _readers_by_module(name: str) -> dict[str, set[str | None]]:
    found = {path.name: _readers(ast.parse(path.read_text(encoding="utf-8")), name)
             for path in sorted(PACKAGE.glob("*.py"))}
    return {module: functions for module, functions in found.items() if functions}


def test_only_the_csv_writer_reads_the_csv_headers():
    assert list(_readers_by_module("CSV_HEADERS")) == ["propagator.py"]


def test_one_fork_site():
    # ``cli._Worker`` forks every t-chunk worker and ``stop`` kills and reaps
    # it; a second path that creates processes would leave its own behind
    assert _readers_by_module("fork") == {"cli.py": {"__init__"}}


def test_only_chunk_length_reads_the_chunk_budget():
    assert _readers_by_module("CHUNK_BYTES") == {"propagator.py": {"chunk_length"}}


@pytest.mark.parametrize("name", ["_looks_like_int", "_parse_int", "_parse_real"])
def test_one_rule_for_the_text_of_a_number(name):
    # graph and circuit files, the number flags and --trials read the rules of defaults.py
    definers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if _defines(ast.parse(path.read_text(encoding="utf-8")), name)]
    assert definers == ["defaults.py"]


def _argument_types(tree: ast.AST) -> list[str]:
    """The source of each ``type=`` given to an ``add_argument`` call."""
    return [ast.unparse(keyword.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
            for keyword in node.keywords if keyword.arg == "type"]


def test_every_number_flag_reads_the_token_rules():
    # a bare float or int reads 1_0 as 10 and a non-ASCII digit as its value
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert sorted(_argument_types(cli)) == ["integer"] * 4 + ["real"] * 8
    assert _readers(cli, "_parse_int") == {None, "integer", "_parse_trials"}  # None: the import
    assert _readers(cli, "_parse_real") == {None, "real"}


def test_one_time_rule():
    # ``_check_times`` checks every time a spectral function or ``evolve`` is given;
    # ``sweep_time`` is one product, and only ``pts_numeric`` walks t-chunks
    assert _readers_by_module("_check_times") == {
        "propagator.py": {"propagate", "sweep_time", "max_transfer"}, "cli.py": {"cmd_evolve"}}
    propagator = ast.parse((PACKAGE / "propagator.py").read_text(encoding="utf-8"))
    sweep = next(node for node in ast.walk(propagator)
                 if isinstance(node, ast.FunctionDef) and node.name == "sweep_time")
    assert not [node for node in ast.walk(sweep)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    for name in ("_check_phases", "probability_chunks"):
        assert _readers_by_module(name) == {}


@pytest.mark.parametrize("name", ["scan_points", "refine_dt"])
def test_one_peak_search(name):
    # ``propagator._peak`` is the one maximum search; ``max_transfer`` runs it
    assert _readers_by_module(name) == {"propagator.py": {"_peak"}}


def test_one_splitting_compiler():
    # ``splitting_palindrome`` is the one walk-to-gate rule (h / h_0 by
    # ``frexp``); ``trotter_error`` and ``three_cycle_circuit`` build through it
    circuit = ast.parse((PACKAGE / "circuit.py").read_text(encoding="utf-8"))
    assert _readers(circuit, "frexp") == {"splitting_palindrome"}


def test_only_spectra_eigendecomposes():
    assert _readers_by_module("eig_hermitian") == {"propagator.py": {"spectra"}}


def _defines(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` defines ``name``: a function, a class or an assignment."""
    return any((isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
               or (isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Store))
               for node in ast.walk(tree))


@pytest.mark.parametrize("name", ["_fmt_real_block", "_decade_tables", "_text_tables",
                                  "_BLOCK_DECADES", "_BLOCK_WIDTH"])
def test_the_real_block_kernel_lives_beside_the_csv_writer(name):
    definers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if _defines(ast.parse(path.read_text(encoding="utf-8")), name)]
    assert definers == ["propagator.py"]
    assert list(_readers_by_module(name)) == ["propagator.py"]


def test_one_gate_row_builder():
    assert _readers_by_module("_gate_coefficients") == {"circuit.py": {"_gate_rows"}}
    definers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if _defines(ast.parse(path.read_text(encoding="utf-8")), "_stack_rows")]
    assert definers == [] and _readers_by_module("_stack_rows") == {}


@pytest.mark.parametrize("name", ["_apply_gates", "_gate_rows", "_gate_table"])
def test_the_gate_engine_has_one_entry_outside_its_module(name):
    # other modules reach the node-space engine through ``_unitary_stack`` only
    assert list(_readers_by_module(name)) == ["circuit.py"]


def _reversers(tree: ast.AST) -> set[str | None]:
    """Enclosing function of each ``reversed(...)`` call and ``[::-1]`` slice."""
    found = set()

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if ((isinstance(node, ast.Call) and getattr(node.func, "id", None) == "reversed")
                or (isinstance(node, ast.Slice) and node.step is not None
                    and ast.unparse(node.step) == "-1")):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_a_palindrome_is_mirrored_once():
    # the engine takes full gate sequences; only ``PalindromicCircuit.full`` mirrors a half
    circuit = ast.parse((PACKAGE / "circuit.py").read_text(encoding="utf-8"))
    assert _reversers(circuit) == {"full"}


@pytest.mark.parametrize("name", ["skeleton", "self_energies", "edges"])
def test_the_cli_restates_no_splitting_rule(name):
    # ``circuit._splitting_reference`` is the one statement of what a splitting
    # palindrome simulates; ``trotter-check`` reads it and no graph field
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _readers(cli, name) == set()


@pytest.mark.parametrize("name", ["_node_rows", "axis_kind"])
def test_a_table_is_its_grid(name):
    # the CSV schema follows from the width of the axes, and ``field_rows`` is
    # the one builder of field rows: no kind beside the grid, no second builder
    definers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if _defines(ast.parse(path.read_text(encoding="utf-8")), name)]
    assert definers == [] and _readers_by_module(name) == {}


def test_every_regular_property_suite_is_judged_in_stacks():
    # a suite is a draw and a residual judged by ``_stacked``; no per-trial row form
    properties = ast.parse((PACKAGE / "properties.py").read_text(encoding="utf-8"))
    assert not _defines(properties, "_suite") and _readers(properties, "_suite") == set()


def test_one_statement_of_the_pts_skew():
    # ``symmetry._pts_skew`` is the one ``p - p^T`` of a probability matrix or stack
    definers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if _defines(ast.parse(path.read_text(encoding="utf-8")), "_pts_skew")]
    assert definers == ["symmetry.py"]
    assert _readers_by_module("_pts_skew") == {
        "symmetry.py": {"pts_numeric"},
        "properties.py": {None, "_circuit_pts", "_parity_split_agreement"}}


def _tolerance_literals(tree: ast.AST) -> list[tuple[int, bool]]:
    """``(source line, placement)`` of each float literal of magnitude in
    (0, 1e-6]: placed when it sits in the ``PROPERTY_SUITE`` assignment and in
    no function or lambda there."""
    found = []

    def visit(node: ast.AST, in_suite: bool, in_function: bool) -> None:
        if isinstance(node, ast.AnnAssign):
            in_suite = in_suite or getattr(node.target, "id", None) == "PROPERTY_SUITE"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function = True
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-6):
            found.append((node.lineno, in_suite and not in_function))
        for child in ast.iter_child_nodes(node):
            visit(child, in_suite, in_function)

    visit(tree, False, False)
    return found


def test_property_tolerances_sit_in_the_suite_table():
    # a suite's bound is its ``PROPERTY_SUITE`` row; no judge keeps a tolerance of its own
    literals = _tolerance_literals(ast.parse((PACKAGE / "properties.py").read_text(
        encoding="utf-8")))
    assert [line for line, placed in literals if not placed] == []
    assert literals  # the rows' own bounds are seen


def _imported_packages(path: Path) -> set[str]:
    """Top-level package of each absolute import in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


@pytest.mark.parametrize("directory, declared", [
    (PACKAGE, {"numpy"}),
    (PACKAGE.parent.parent / "tests", {"numpy", "pytest", "hypothesis", "chiralwalk", "tests"}),
])
def test_imports_are_declared_dependencies(directory, declared):
    # pyproject.toml declares numpy, and pytest and hypothesis for the tests;
    # anything else that imports on one host would fail on a clean install
    allowed = set(sys.stdlib_module_names) | declared
    undeclared = {path.name: sorted(_imported_packages(path) - allowed)
                  for path in sorted(directory.glob("*.py"))}
    assert {name: found for name, found in undeclared.items() if found} == {}
