"""Spans around nulldecomp's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the package's modules
by a timing wrapper, in every module namespace that bound it: a name brought
in with ``from .linalg import null_space_basis`` is a separate binding, and
patching only the defining module would miss the calls made through it.  The
structure-building methods of ``Graph`` are wrapped on the class.  Small
accessors (``neighbors``, ``degree``, ``n``, ...) are not wrapped; their time
counts toward the caller.  ``uninstall`` restores every original binding.

A span is ``[name, start, end, parent, op, cells, repeat, hidden]``:
``parent`` is the index of the enclosing span (-1 for none), ``op`` the
benchmark operation it belongs to, ``cells`` the rows x cols of an ``rref``
input or an adjacency matrix, ``repeat`` whether an ``rref`` input matrix or
subgraph vertex set was already seen in the same operation, and ``hidden``
the time the tracer spent computing those, which is taken out of the
parent's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Callable

MODULES = ("cli", "graph", "linalg", "trees", "unicyclic", "decomposition", "oracle", "checks", "generator")
GRAPH_METHODS = (
    "from_edges",
    "components",
    "is_connected",
    "is_forest",
    "is_unicyclic",
    "induced_subgraph",
    "delete_vertices",
    "adjacency_matrix",
    "neighborhood",
    "is_independent_set",
    "to_edge_list",
)
OP = "bench.op"

NAME, START, END, PARENT, OPIDX, CELLS, REPEAT, HIDDEN = range(8)


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._seen: dict[str, set] = {"rref": set(), "subgraph": set()}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        prefix = pkg.__name__ + "."
        wrappers: dict[int, Callable] = {}
        for module in [pkg] + [getattr(pkg, name) for name in MODULES]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(prefix):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__[len(prefix):]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(name, value, _PROBES.get(name))
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        graph_class = pkg.graph.Graph
        for method in GRAPH_METHODS:
            raw = graph_class.__dict__[method]
            self._restore.append((graph_class, method, raw))
            name = f"graph.{method}"
            if isinstance(raw, staticmethod):
                setattr(graph_class, method, staticmethod(self._wrap(name, raw.__func__, None)))
            else:
                setattr(graph_class, method, self._wrap(name, raw, _PROBES.get(name)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable, probe: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            began = clock()
            cells = repeat = None
            if probe is not None:
                args, cells, repeat = probe(self, args)
            start = clock()
            index = len(spans)
            spans.append([name, start, 0.0, stack[-1] if stack else -1, self.op, cells, repeat, start - began])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()

        return traced

    # -- operations -------------------------------------------------------

    def run_op(self, op: int, call: Callable[[], object]) -> object:
        """Run one benchmark operation as a root span of its own."""
        self.op = op
        self._seen = {"rref": set(), "subgraph": set()}
        return self._wrap(OP, call, None)()

    def first_visit(self, kind: str, key: object) -> bool:
        seen = self._seen[kind]
        if key in seen:
            return False
        seen.add(key)
        return True

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def write(self, path: Path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op, *_ in self.spans:
                out.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, op]) + "\n")


# -- probes: counters and repeat keys taken at the call boundary ------------


def _probe_rref(tracer: Tracer, args: tuple) -> tuple[tuple, int, bool]:
    matrix = args[0]
    rows = len(matrix)
    cells = rows * (len(matrix[0]) if rows else 0)
    key = tuple(tuple(row) for row in matrix)
    return args, cells, not tracer.first_visit("rref", key)


def _probe_adjacency(tracer: Tracer, args: tuple) -> tuple[tuple, int, None]:
    n = len(args[0].labels)
    return args, n * n, None


def _subgraph_probe(keep: Callable[[object, tuple], set]) -> Callable:
    def probe(tracer: Tracer, args: tuple) -> tuple[tuple, None, bool | None]:
        if len(args) < 2 or tracer.parent_name() == "graph.delete_vertices":
            return args, None, None  # uncounted; inside a deletion, its own span counts
        graph, vertices = args[0], tuple(args[1])  # the vertices may be a one-shot iterator
        args = (graph, vertices) + args[2:]
        try:
            key = frozenset(graph.labels[v] for v in keep(graph, vertices))
        except (IndexError, TypeError):
            return args, None, None
        return args, None, not tracer.first_visit("subgraph", key)

    return probe


_PROBES = {
    "linalg.rref": _probe_rref,
    "graph.adjacency_matrix": _probe_adjacency,
    "graph.induced_subgraph": _subgraph_probe(lambda g, vs: set(vs)),
    "graph.delete_vertices": _subgraph_probe(lambda g, vs: set(range(len(g.labels))) - set(vs)),
}


# -- per-layer metrics from the spans ---------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its children (and tracer time)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= (s[END] - s[START]) + s[HIDDEN]
    return own


def layer_metrics(spans: list[list], overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value, unit), from the spans of one pass.

    Spans outside an operation are skipped.  The generator runs only while
    the corpus is built, which ``setup_s`` measures, so it has no layer
    metric here.
    """
    own = self_times(spans)
    module_self: dict[str, float] = {name: 0.0 for name in MODULES if name != "generator"}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[OPIDX] < 0:
            continue
        by_name.setdefault(s[NAME], []).append(i)
        module = s[NAME].split(".")[0]
        if module in module_self:
            module_self[module] += own[i]

    def calls(*names: str) -> list[int]:
        return [i for name in names for i in by_name.get(name, [])]

    def self_s(name: str) -> float:
        return sum(own[i] for i in calls(name))

    def repeat_frac(indices: list[int]) -> float:
        return sum(spans[i][REPEAT] for i in indices) / len(indices) if indices else 0.0

    op_time = sum(spans[i][END] - spans[i][START] for i in calls(OP))
    rref = calls("linalg.rref")
    subgraph = [i for i in calls("graph.induced_subgraph", "graph.delete_vertices") if spans[i][REPEAT] is not None]
    metrics = {
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "linalg.rref.cells": (sum(spans[i][CELLS] for i in rref), "count"),
        "linalg.rref.share": (self_s("linalg.rref") / op_time if op_time else 0.0, "fraction"),
        "linalg.rref.calls": (len(rref), "count"),
        "linalg.rref.repeat_frac": (repeat_frac(rref), "fraction"),
        "graph.subgraph.calls": (len(subgraph), "count"),
        "graph.subgraph.repeat_frac": (repeat_frac(subgraph), "fraction"),
        "graph.adjacency_matrix.cells": (sum(spans[i][CELLS] for i in calls("graph.adjacency_matrix")), "count"),
        "unicyclic.classify.calls": (len(calls("unicyclic.classify")), "count"),
        "trees.tree_decomposition.calls": (len(calls("trees.tree_decomposition", "trees.tree_support")), "count"),
        "oracle.calls": (sum(len(ids) for name, ids in by_name.items() if name.startswith("oracle.")), "count"),
        "trees.full_support_vector.self_s": (self_s("trees.full_support_vector"), "s"),
        "graph.parse_edge_list.self_s": (self_s("graph.parse_edge_list"), "s"),
        "linalg.same_span.self_s": (self_s("linalg.same_span"), "s"),
        "linalg.mat_vec.self_s": (self_s("linalg.mat_vec"), "s"),
    }
    for module, seconds in module_self.items():
        metrics[f"{module}.self_s"] = (seconds, "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "fraction")
    return metrics
