"""Support/core/N-vertex decomposition of forests and unicyclic graphs,
case analysis, and the closed formulas for the independence and matching
numbers.

Two independent routes produce the one record ``trees.Decomposition``:

* ``decomposition_from_basis`` reads the sets off a kernel basis of the
  whole adjacency matrix through ``kernel_decomposition``, the one kernel
  reading.  By default, and so in ``analyze`` on a unicyclic graph, that is
  the canonical basis ``unicyclic.rref_null_basis`` gives for the class in
  hand, the one place that picks a whole-graph kernel: a forest's comes off
  a maximum matching, a unicyclic graph's is its constructed basis brought
  to reduced echelon form, with no whole-graph elimination.  The check
  battery passes the dense RREF kernel instead, so its reading never shares
  the production kernel.  This is the source of truth.
* ``structural_decomposition`` assembles the same sets from pendant-tree and
  complement decompositions according to the six-way case split that
  ``unicyclic.classify`` decides (four Type I cases by how the complement
  kernel behaves at the witness's cycle neighbors, two Type II cases by
  cycle length mod 4), from the classification the caller holds, which
  carries those decompositions; a forest (class None) is one piece.  Every
  piece is a forest, decomposed through a maximum matching (``trees``), so
  this route computes no kernel and runs in time linear in the graph.
  ``analyze`` reads every forest this way.

Both take the graph's class from ``classify``, which refuses any graph that
is neither a forest nor unicyclic; neither checks the class again.

Their agreement on every forest and unicyclic graph is one of the package's
central verified properties (``structural_matches_basis``).  ``alpha`` and
``nu`` read nothing but a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .errors import OddNSet
from .graph import Graph
from .linalg import Vector
from .trees import Decomposition, forest_decomposition, tree_decomposition
from .unicyclic import (
    CASE_TI3,
    CASE_TI4,
    CASE_TII_NON4K,
    TYPE1,
    UnicyclicClass,
    classify,
    recursion_nullity,
    rref_null_basis,
)


def kernel_decomposition(g: Graph, basis: Sequence[Vector], vertices: frozenset[int]) -> Decomposition:
    """Decomposition of the subgraph ``vertices`` induce, read off a kernel basis of it in g's indices.

    Each vector holds only its nonzero coordinates, so the support is the
    union of their key sets; core: the support's neighbors in ``vertices``;
    N-vertices: the rest; nullity: the number of vectors.
    """
    support = frozenset().union(*basis)
    core = g.neighborhood(support) & vertices
    return Decomposition(support, core, vertices - support - core, len(basis))


def decomposition_from_basis(g: Graph, basis: Sequence[Vector] | None = None) -> Decomposition:
    """Decomposition read off a kernel basis of A(g), by default the canonical one.

    ``classify`` refuses a graph that is neither a forest nor unicyclic
    before any kernel is computed.  A caller that already holds a basis of
    A(g) passes it in, and A(g) is not reduced again; without one the
    canonical basis comes from ``rref_null_basis`` for that class, as in
    ``analyze`` on a unicyclic graph, so a forest's is read off a maximum
    matching and a unicyclic graph's is reduced from its constructed basis.
    """
    return _whole_graph_reading(g, classify(g), basis)


def _whole_graph_reading(
    g: Graph, cls: UnicyclicClass | None, basis: Sequence[Vector] | None = None
) -> Decomposition:
    """``decomposition_from_basis`` for a caller that holds ``cls = classify(g)``."""
    if basis is None:
        basis = rref_null_basis(g, cls).vectors
    return replace(kernel_decomposition(g, basis, frozenset(range(g.n))), cls=cls)


def structural_decomposition(g: Graph, cls: UnicyclicClass | None) -> Decomposition:
    """Decomposition of g assembled from forest decompositions, case by case.

    ``cls`` is ``classify(g)``, which fixes the case and carries every piece
    but TI-4's T_v - v; None gives the forest decomposition of g.  The
    nullity comes from the pendant-tree recursion alone; ``run_checks``
    compares it with the rank (``nullity_recursion``).
    """
    if cls is None:
        return tree_decomposition(g)
    case = cls.case
    cycle = cls.cycle.vertex_set()
    to_core: frozenset[int] = frozenset()  # vertices the case moves into the core
    to_n: frozenset[int] = frozenset()  # vertices the case adds to the N-vertices
    if cls.tag == TYPE1:
        v = cls.witness
        parts = [cls.pendant_decompositions[v], cls.complement]
        if case == CASE_TI4:  # the one piece the class does not carry
            parts[0] = forest_decomposition(g, cls.pendant_trees[v] - {v})
        if case in (CASE_TI3, CASE_TI4):
            to_core = frozenset({v})
    elif case == CASE_TII_NON4K:
        parts, to_n = [cls.complement], cycle
    else:
        parts, to_core = list(cls.pendant_decompositions.values()), cycle
    return Decomposition(
        frozenset().union(*(d.support for d in parts)),
        frozenset().union(to_core, *(d.core for d in parts)),
        frozenset().union(to_n, *(d.n_vertices for d in parts)) - to_core,
        recursion_nullity(cls),
        cls,
    )


def _unpaired(d: Decomposition) -> int:
    """|N| - |support ∩ core|, which the formulas halve; a forest's is |N|, always even."""
    if d.cls is None and len(d.n_vertices) % 2:
        raise OddNSet(f"odd N-vertex set of size {len(d.n_vertices)} on a forest")
    return len(d.n_vertices) - len(d.support & d.core)


def alpha(d: Decomposition) -> int:
    """Independence number from the decomposition alone.

    |support| + ceil((|N| - |support ∩ core|) / 2), or |support| + floor(|N| / 2)
    when the whole cycle sits among the N-vertices.  On a forest both read
    |support| + |N| / 2.
    """
    if d.cls is not None and d.cls.cycle.vertex_set() <= d.n_vertices:
        return len(d.support) + len(d.n_vertices) // 2
    return len(d.support) + (_unpaired(d) + 1) // 2


def nu(d: Decomposition) -> int:
    """Matching number: |core| + floor((|N| - |support ∩ core|) / 2), on a forest |core| + |N| / 2."""
    return len(d.core) + _unpaired(d) // 2


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

    ``g`` is classified once.  A forest is decomposed through a maximum
    matching (``structural_decomposition``), in time linear in g, with no
    kernel; a unicyclic graph's decomposition is read off the canonical
    kernel ``rref_null_basis`` reduces from its constructed basis.  The
    report's ``checks`` map starts empty; a caller that wants the
    cross-check battery runs ``checks.run_checks(g)`` and attaches its map,
    as ``analyze --verify`` does.
    """
    cls = classify(g)
    d = structural_decomposition(g, None) if cls is None else _whole_graph_reading(g, cls)
    return AnalysisReport(g, d, alpha(d), nu(d))
