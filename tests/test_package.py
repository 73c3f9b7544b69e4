"""The package's public namespace and its module boundaries."""

import ast
import types
from pathlib import Path

import projquant


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(projquant.__all__)) == len(projquant.__all__)
    for name in projquant.__all__:
        value = getattr(projquant, name)
        assert not isinstance(value, types.ModuleType), name


def _modules_naming(names):
    users = set()
    for path in Path(projquant.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            found = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name for alias in node.names)
            if found & names:
                users.add(path.name)
    return users


def test_only_casimir_builds_rows_of_c0():
    """The integer rows over the Krylov vectors of C0 are one module's
    format: no other module names the kernel or the projector constants."""
    assert _modules_naming({"_combine", "projector_constants"}) == {"casimir.py"}


def test_only_resonance_solves_the_resonance_quadratic():
    """The integer quadratic that decides which labels meet is written once:
    the free slots of the solve and `classify_shift` both read it."""
    assert _modules_naming({"isqrt"}) == {"resonance.py"}


def test_only_casimir_states_which_labels_exist():
    """The rule for the admissible labels of a degree is written once:
    `isotypic` and the package only import it."""
    owners = {}
    for path in Path(projquant.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                owners.setdefault(node.name, []).append(path.name)
    assert owners["labels_for_degree"] == owners["tableau_labels"] == ["casimir.py"]
    assert projquant.isotypic.labels_for_degree is projquant.labels_for_degree


def test_the_level_kernels_are_integer_only():
    """`_nc_body` and `_combine`, and every casimir function they reach,
    work on integer numerators over one denominator: Fractions and Polys
    are built only at their callers' boundary."""
    tree = ast.parse(Path(projquant.casimir.__file__).read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    kernels, pending = {}, ["_nc_body", "_combine"]
    while pending:
        name = pending.pop()
        kernels[name] = functions[name]
        pending.extend({node.id for node in ast.walk(functions[name])
                        if isinstance(node, ast.Name) and node.id in functions}
                       - set(kernels) - set(pending))
    assert set(kernels) == {"_nc_body", "_combine", "_image", "fiber_casimir"}
    for name, kernel in kernels.items():
        named = {getattr(node, "id", None) for node in ast.walk(kernel)}
        named |= {getattr(node, "attr", None) for node in ast.walk(kernel)}
        assert not named & {"Fraction", "Poly", "_poly", "_numerators"}, name
