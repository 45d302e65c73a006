"""Support/core/N-vertex decomposition of forests and unicyclic graphs,
case analysis, and the closed formulas for the independence and matching
numbers.

Two independent routes produce the decomposition:

* ``decomposition_from_basis`` reads the support straight off a kernel
  basis of the whole adjacency matrix.  By default, and so in ``analyze``,
  that is the canonical basis from the exact sparse elimination over
  adjacency lists (``linalg.sparse_null_basis``); the check battery passes
  the dense RREF kernel instead, so its reading never shares the production
  kernel.  This is the source of truth.
* ``structural_decomposition`` assembles the same sets from pendant-tree and
  complement decompositions according to the six-way case split that
  ``unicyclic.classify`` decides (four Type I cases by how the complement
  kernel behaves at the witness's cycle neighbors, two Type II cases by
  cycle length mod 4), from the classification the caller holds.  Every
  piece is a forest, decomposed through a maximum matching (``trees``), so
  this route computes no kernel and runs in time linear in the graph.

Their agreement on every unicyclic graph is one of the package's central
verified properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import UnsupportedGraphClass
from .graph import Graph
from .linalg import Vector, sparse_null_basis, support_indices
from .trees import forest_decomposition, tree_alpha, tree_nu
from .unicyclic import (
    CASE_TI3,
    CASE_TI4,
    CASE_TII_NON4K,
    TYPE1,
    UnicyclicClass,
    classify,
    recursion_nullity,
)

CASE_FOREST = "Forest"


@dataclass(frozen=True)
class Decomposition:
    """Support, core, and N-vertices of a graph, with case and class tags.

    Support and core are disjoint except in the TII-4k case, where they
    intersect exactly in the cycle.
    """

    support: frozenset[int]
    core: frozenset[int]
    n_vertices: frozenset[int]
    case: str
    nullity: int
    cls: UnicyclicClass | None = None


def decomposition_from_basis(g: Graph, basis: Sequence[Vector] | None = None) -> Decomposition:
    """Decomposition read off a kernel basis of A(g), by default the canonical one.

    Accepts forests and unicyclic graphs; anything else is out of scope for
    the decomposition theory, and is refused before any kernel is computed.
    A caller that already holds a basis of A(g) passes it in, and A(g) is
    not reduced again; without one the canonical basis comes from the sparse
    elimination over g's adjacency lists.
    """
    if g.is_forest():
        cls = None
        case = CASE_FOREST
    elif g.is_unicyclic():
        cls = classify(g)
        case = cls.case
    else:
        raise UnsupportedGraphClass(
            f"graph with {g.n} vertices and {g.edge_count} edges is neither a forest nor unicyclic"
        )
    if basis is None:
        basis = sparse_null_basis(g.adjacency)
    support = frozenset().union(*map(support_indices, basis))
    core = g.neighborhood(support)
    n_vertices = frozenset(range(g.n)) - support - core
    return Decomposition(support, core, n_vertices, case, len(basis), cls)


def structural_decomposition(g: Graph, cls: UnicyclicClass) -> Decomposition:
    """Decomposition of a unicyclic graph assembled from forest decompositions, case by case.

    ``cls`` is g's classification, which fixes the case.  The nullity comes
    from the pendant-tree recursion alone; ``run_checks`` compares it with
    the rank (``nullity_recursion``).
    """
    case = cls.case
    pend = cls.pendant_trees
    everything = frozenset(range(g.n))
    cycle = cls.cycle.vertex_set()
    to_core: frozenset[int] = frozenset()  # vertices the case moves into the core
    to_n: frozenset[int] = frozenset()  # vertices the case adds to the N-vertices
    if cls.tag == TYPE1:
        v = cls.witness
        tree = pend[v] - {v} if case == CASE_TI4 else pend[v]
        pieces = [tree, everything - pend[v]]
        if case in (CASE_TI3, CASE_TI4):
            to_core = frozenset({v})
    elif case == CASE_TII_NON4K:
        pieces, to_n = [everything - cycle], cycle
    else:
        pieces, to_core = [pend[v] for v in cls.cycle.vertices], cycle
    parts = [forest_decomposition(g, vs) for vs in pieces]
    return Decomposition(
        frozenset().union(*(d.support for d in parts)),
        frozenset().union(to_core, *(d.core for d in parts)),
        frozenset().union(to_n, *(d.n_vertices for d in parts)) - to_core,
        case,
        recursion_nullity(g, pend, cls.witness),
        cls,
    )


def _ceil_half(value: int) -> int:
    return -((-value) // 2)


def alpha(g: Graph, d: Decomposition | None = None) -> int:
    """Independence number from the decomposition alone.

    Forests: |support| + |N|/2 per component.  Unicyclic graphs: when the
    whole cycle sits among the N-vertices the same floor formula applies;
    otherwise the count is |support| + ceil((|N| - |support ∩ core|) / 2).
    """
    if d is None:
        d = decomposition_from_basis(g)
    if d.case == CASE_FOREST:
        return tree_alpha(g, d)
    if d.cls.cycle.vertex_set() <= d.n_vertices:
        return len(d.support) + len(d.n_vertices) // 2
    return len(d.support) + _ceil_half(len(d.n_vertices) - len(d.support & d.core))


def nu(g: Graph, d: Decomposition | None = None) -> int:
    """Matching number: |core| + floor((|N| - |support ∩ core|) / 2)."""
    if d is None:
        d = decomposition_from_basis(g)
    if d.case == CASE_FOREST:
        return tree_nu(g, d)
    return len(d.core) + (len(d.n_vertices) - len(d.support & d.core)) // 2


@dataclass(frozen=True)
class AnalysisReport:
    """Full analysis of one graph, serializable to a stable JSON shape."""

    graph: Graph
    decomposition: Decomposition
    alpha: int
    nu: int
    checks: Mapping[str, bool] = field(default_factory=dict)

    @property
    def class_tag(self) -> str:
        cls = self.decomposition.cls
        return cls.tag if cls else "forest"

    def to_dict(self) -> dict:
        g, d = self.graph, self.decomposition
        cycle = sorted(g.label_set(d.cls.cycle.vertices)) if d.cls else []
        return {
            "n": g.n,
            "m": g.edge_count,
            "class": self.class_tag,
            "case": d.case,
            "cycle": cycle,
            "nullity": d.nullity,
            "support": sorted(g.label_set(d.support)),
            "core": sorted(g.label_set(d.core)),
            "n_vertices": sorted(g.label_set(d.n_vertices)),
            "alpha": self.alpha,
            "nu": self.nu,
            "checks": dict(self.checks),
        }

    def to_text(self) -> str:
        data = self.to_dict()
        lines = [
            f"graph: {data['n']} vertices, {data['m']} edges",
            f"class: {data['class']} (case {data['case']})",
        ]
        if data["cycle"]:
            lines.append(f"cycle: {' '.join(data['cycle'])}")
        lines.append(f"nullity: {data['nullity']}")
        for key in ("support", "core", "n_vertices"):
            members = " ".join(data[key]) if data[key] else "(empty)"
            lines.append(f"{key.replace('_', '-')} ({len(data[key])}): {members}")
        lines.append(f"alpha: {data['alpha']}")
        lines.append(f"nu: {data['nu']}")
        if self.checks:
            passed = sum(self.checks.values())
            lines.append(f"checks: {passed}/{len(self.checks)} passed")
            for name, ok in sorted(self.checks.items()):
                if not ok:
                    lines.append(f"  FAILED: {name}")
        return "\n".join(lines) + "\n"


def analyze(g: Graph) -> AnalysisReport:
    """Decompose ``g`` and evaluate the closed formulas.

    The decomposition is read off the canonical kernel from the sparse
    elimination.  The report's ``checks`` map starts empty; a caller that
    wants the cross-check battery runs ``checks.run_checks(g)`` and
    attaches its map, as ``analyze --verify`` does.
    """
    d = decomposition_from_basis(g)
    return AnalysisReport(g, d, alpha(g, d), nu(g, d))
