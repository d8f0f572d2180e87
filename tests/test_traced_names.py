"""The functions and values the benchmark harness reaches by name still exist.

``perfbench/spans.py`` wraps ``module.function`` names from its ``SPANNED``
and ``COUNTED`` tuples, and every ``perfbench/*.py`` imports names from
``multihead`` modules or reads them as attributes, also in code it holds as a
string, such as ``run.py``'s set-up line.  The names are read from those
files' syntax trees, so a deletion or rename in the package fails here rather
than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _string_tuple(tree: ast.Module, target: str) -> tuple:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"spans.py assigns no {target}")


def _traced_names() -> list:
    spans = _tree("spans.py")
    names = [*_string_tuple(spans, "SPANNED"), *_string_tuple(spans, "COUNTED")]
    called = {
        node.attr
        for node in ast.walk(_tree("checks.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "fockspace"
    }
    return names + [f"fockspace.{attr}" for attr in sorted(called)]


def test_the_harness_names_some_functions():
    names = _traced_names()
    assert "closed_form.wigner" in names and "serialize.fmt" in names
    assert "fockspace.build_state" in names


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"multihead.{module}"), function, None))


def _dotted(node) -> str | None:
    """``a.b.c`` for an attribute chain on a plain name, ``a`` for the name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _code_trees(tree: ast.Module):
    """The module, and each string constant in it that parses as code."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                continue


def _package_names() -> list:
    """Every multihead.<module>.<name> a perfbench file imports or reads as an attribute."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for tree in _code_trees(_tree(path.name)):
            bound = {"multihead": "multihead"}  # local name -> the dotted name it stands for
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multihead":
                    for alias in node.names:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                elif isinstance(node, ast.Import):
                    names.update(a.name for a in node.names if a.name.startswith("multihead."))
            names.update(bound.values())
            for node in ast.walk(tree):
                root, _, rest = (_dotted(node) or "").partition(".")
                if root in bound and rest:
                    names.add(f"{bound[root]}.{rest}")
    names.discard("multihead")
    return sorted(names)


def _resolve(dotted: str):
    """The object a dotted name stands for, importing the longest module prefix."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_the_harness_imports_some_names():
    names = _package_names()
    assert {"multihead.compare.TOL_DEFAULT", "multihead.sweeps.SweepTemplate"} <= set(names)
    assert {"multihead.cli.build_parser", "multihead.cli.main"} <= set(names)


@pytest.mark.parametrize("name", _package_names())
def test_imported_name_resolves(name):
    _resolve(name)
