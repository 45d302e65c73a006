"""Brute-force ground truth for small graphs.

A matching is an independent set of the line graph, whose vertices are the
edges and whose adjacency is sharing an endpoint.  So each tier runs one
routine over two mask builders: ``_adjacency_masks`` for the graph itself,
``_line_graph_masks`` for its line graph.

* full enumeration (``ENUMERATION_BUDGET``, 14 vertices, and 14 edges for
  matchings) for set-valued answers: all maximum independent sets, all
  maximum matchings, the set of vertices missed by some maximum matching,
  the intersection of all maximum independent sets.  One loop exhausts the
  vertex subsets of either graph;
* exact branch and bound with degree pruning (``SEARCH_BUDGET``, 22
  vertices, and 22 edges for nu) when only the numbers are needed: alpha
  is the independence number of the graph, nu that of its line graph.

Each function refuses a graph above its tier's budget with ``BudgetExceeded``.

Since ``brute_nu`` and ``maximum_matchings`` read the same line graph, the
tests pin both against a search over edge subsets that shares no code with
this module.
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .graph import Graph

# The most vertices each tier accepts, and the most edges matchings and nu are computed over.
ENUMERATION_BUDGET = 14
SEARCH_BUDGET = 22


def _require_budget(size: int, budget: int, unit: str) -> None:
    if size > budget:
        raise BudgetExceeded(f"{size} {unit} exceeds oracle budget of {budget}")


def _adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


def _line_graph_masks(g: Graph) -> tuple[list[tuple[int, int]], list[int]]:
    """The edges of ``g`` in order, and for each the mask of the other edges sharing an endpoint with it."""
    edges = list(g.edges())
    incident = [0] * g.n
    for e, (u, v) in enumerate(edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    return edges, [(incident[u] | incident[v]) & ~(1 << e) for e, (u, v) in enumerate(edges)]


def brute_alpha(g: Graph) -> int:
    """Exact independence number."""
    _require_budget(g.n, SEARCH_BUDGET, "vertices")
    return _independence_number(_adjacency_masks(g))


def brute_nu(g: Graph) -> int:
    """Exact matching number: the independence number of the line graph."""
    _require_budget(g.n, SEARCH_BUDGET, "vertices")
    _require_budget(g.edge_count, SEARCH_BUDGET, "edges")
    return _independence_number(_line_graph_masks(g)[1])


def _independence_number(adj: list[int]) -> int:
    """Independence number of the graph with neighbor masks ``adj``, by branch and bound with degree pruning.

    Vertices of degree at most one in the remaining subgraph are always safe
    to take, which collapses forests and unicyclic graphs without branching.
    """
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_v, best_deg = -1, None
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (adj[v] & mask).bit_count()
            if best_deg is None or deg > best_deg:
                best_v, best_deg = v, deg
            if deg <= 1:
                best_v, best_deg = v, deg
                break
        v = best_v
        if best_deg <= 1:
            result = 1 + rec(mask & ~(adj[v] | (1 << v)))
        else:
            result = max(rec(mask & ~(1 << v)), 1 + rec(mask & ~(adj[v] | (1 << v))))
        memo[mask] = result
        return result

    return rec((1 << len(adj)) - 1)


def maximum_independent_sets(g: Graph) -> list[frozenset[int]]:
    """All maximum independent sets, by exhausting vertex subsets."""
    _require_budget(g.n, ENUMERATION_BUDGET, "vertices")
    return [frozenset(_bits(mask)) for mask in _maximum_independent_masks(_adjacency_masks(g))]


def maximum_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """All maximum matchings: the maximum independent sets of the line graph, by exhausting edge subsets."""
    _require_budget(g.n, ENUMERATION_BUDGET, "vertices")
    _require_budget(g.edge_count, ENUMERATION_BUDGET, "edges")
    edges, conflicts = _line_graph_masks(g)
    return [frozenset(edges[e] for e in _bits(mask)) for mask in _maximum_independent_masks(conflicts)]


def _maximum_independent_masks(adj: list[int]) -> list[int]:
    """Every maximum independent set of the graph with neighbor masks ``adj``, as a bit mask, ascending."""
    best = -1
    hits: list[int] = []
    for subset in range(1 << len(adj)):
        size = subset.bit_count()
        if size < best:
            continue
        m = subset
        independent = True
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[v] & subset:
                independent = False
                break
        if not independent:
            continue
        if size > best:
            best = size
            hits = [subset]
        else:
            hits.append(subset)
    return hits


def edmonds_gallai_set(g: Graph) -> frozenset[int]:
    """Vertices missed by at least one maximum matching."""
    missed: set[int] = set()
    everything = frozenset(range(g.n))
    for matching in maximum_matchings(g):
        saturated = {v for edge in matching for v in edge}
        missed |= everything - saturated
    return frozenset(missed)


def max_independent_intersection(g: Graph) -> frozenset[int]:
    """Intersection of all maximum independent sets."""
    sets = maximum_independent_sets(g)
    out = set(sets[0]) if sets else set()
    for s in sets[1:]:
        out &= s
    return frozenset(out)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out
