"""The names ``perfbench/tracing.py`` reaches into the package by.

The tracer wraps ``Graph`` methods by name and counts calls to some functions
by their dotted name.  A method renamed or deleted here breaks ``--trace 1``
with a ``KeyError``; a function renamed or deleted silently zeroes its
counter.  The tracer is read with ``ast``, not imported, and is not changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from nulldecomp import Graph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The functions whose calls or self time layer_metrics reads by name.
COUNTED = (
    "linalg.rref",
    "unicyclic.classify",
    "trees.tree_decomposition",
    "trees.full_support_vector",
    "graph.parse_edge_list",
    "linalg.same_span",
    "linalg.mat_vec",
)


def tracing_tree() -> ast.Module:
    return ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))


def constant(name: str):
    """The literal value of a module-level assignment in the tracer."""
    for node in tracing_tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def layer_metric_names() -> set[str]:
    """String arguments of the ``calls(...)`` / ``self_s(...)`` lookups in layer_metrics."""
    body = next(
        node
        for node in tracing_tree().body
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    return {
        arg.value
        for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("calls", "self_s")
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


def test_graph_methods_are_graph_attributes():
    assert [m for m in constant("GRAPH_METHODS") if m not in vars(Graph)] == []


def test_modules_import():
    for name in constant("MODULES"):
        importlib.import_module(f"nulldecomp.{name}")


def test_counted_functions_exist():
    assert set(COUNTED) <= layer_metric_names()
    for dotted in COUNTED:
        module, function = dotted.split(".")
        assert callable(getattr(importlib.import_module(f"nulldecomp.{module}"), function, None)), dotted
