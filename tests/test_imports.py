"""The runtime stays stdlib-only: sympy and hypothesis serve the tests."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bialgebra_forge"


def _imported(source: str):
    """Top-level names of the absolute imports in source; a relative
    import names the package itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "bialgebra_forge" if node.level else node.module.split(".")[0]


def _outside(source: str) -> set:
    return {
        name for name in _imported(source)
        if name not in sys.stdlib_module_names and name != "bialgebra_forge"
    }


def test_import_check_sees_third_party_modules():
    assert _outside("import sympy\nfrom hypothesis import given\n") == {"sympy", "hypothesis"}
    assert _outside("from __future__ import annotations\nfrom .params import ParamPoly\n"
                    "import json\nfrom fractions import Fraction\n") == set()


def test_runtime_is_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        assert _outside(path.read_text(encoding="utf-8")) == set(), path.name


def _names(tree) -> set:
    """Every name a module reads, imports or takes an attribute by."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_the_kernel_holds_no_word_length_guard():
    """ncpoly, rewrite and hopf neither import nor raise CapExceededError,
    and no ncpoly function takes a longest word: the parser bounds what it
    forms and the build bounds what the checks form (exprparse), so a
    guard in the kernel would be a second rule."""
    for module in ("ncpoly", "rewrite", "hopf"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert "CapExceededError" not in _names(tree), module
    tree = ast.parse((PACKAGE / "ncpoly.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            taken = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            assert "longest" not in taken, node.name


def _slots(cls: ast.ClassDef) -> tuple:
    """The __slots__ a class body declares; none when it declares none."""
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return ()


def _bound(cls: ast.ClassDef) -> set:
    """Every name a class body binds (its methods, class attributes and
    slots) and every attribute its methods store."""
    names = set(_slots(cls))
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store))
    return names


def test_word_and_tensor_values_share_one_constructor_set():
    """arity is a slot of every value, and _of, zero and unit are written
    once, on ncpoly._Terms: NCPoly and TensorNCPoly bind none of them, nor
    a second name for NCPoly's public constructor, so the two classes
    differ only in how a key splits into its factor words."""
    tree = ast.parse((PACKAGE / "ncpoly.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    shared = {"_of", "zero", "unit", "arity"}
    assert "arity" in _slots(classes["_Terms"])
    assert shared <= _bound(classes["_Terms"])
    for name in ("NCPoly", "TensorNCPoly"):
        assert not (shared | {"from_coeff"}) & _bound(classes[name]), name
