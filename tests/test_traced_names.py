"""The functions the benchmark harness reaches by name still exist.

``perfbench/spans.py`` wraps ``module.function`` names from its ``SPANNED``
and ``COUNTED`` tuples, and ``perfbench/checks.py`` calls ``fockspace``
functions directly.  The names are read from those files' syntax trees, so a
deletion or rename in the package fails here rather than in a traced run.
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
