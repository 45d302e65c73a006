"""Brute-force ground truth for small graphs.

One exact search answers every question: ``_independence_number`` is
branch and bound with degree pruning, memoized per graph, returning the
independence number of the subgraph on any vertex mask.  A matching is an
independent set of the line graph, whose vertices are the edges and whose
adjacency is sharing an endpoint, so the search runs over two mask
builders: ``_adjacency_masks`` for the graph itself, ``_line_graph_masks``
for its line graph.

* alpha and nu are the search on the full mask of either graph;
* the set-valued answers are searches on masks one vertex or one closed
  neighbourhood short: v is missed by some maximum matching when
  nu(G - v) = nu(G), lies in every maximum independent set when
  alpha(G - v) < alpha(G), and in some maximum independent set when
  1 + alpha(G - N[v]) = alpha(G).

Every function refuses a graph above ``SEARCH_BUDGET`` (22) vertices with
``BudgetExceeded``, and the ones that read the line graph (``brute_nu``,
``edmonds_gallai_set``) a graph above 22 edges too.

The tests pin every answer against searches over vertex and edge subsets
that share no code with this module.
"""

from __future__ import annotations

from typing import Callable

from .errors import BudgetExceeded
from .graph import Graph

# The most vertices the search accepts, and the most edges its line graph may have.
SEARCH_BUDGET = 22


def _require_budget(size: int, budget: int, unit: str) -> None:
    if size > budget:
        raise BudgetExceeded(f"{size} {unit} exceeds oracle budget of {budget}")


def _adjacency_masks(g: Graph) -> list[int]:
    _require_budget(g.n, SEARCH_BUDGET, "vertices")
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


def _line_graph_masks(g: Graph) -> tuple[list[int], list[int]]:
    """For each vertex the mask of its edges, and for each edge the mask of the other edges sharing an endpoint with it."""
    _require_budget(g.n, SEARCH_BUDGET, "vertices")
    _require_budget(g.edge_count, SEARCH_BUDGET, "edges")
    edges = list(g.edges())
    incident = [0] * g.n
    for e, (u, v) in enumerate(edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    return incident, [(incident[u] | incident[v]) & ~(1 << e) for e, (u, v) in enumerate(edges)]


def brute_alpha(g: Graph) -> int:
    """Exact independence number."""
    return _independence_number(_adjacency_masks(g))((1 << g.n) - 1)


def brute_nu(g: Graph) -> int:
    """Exact matching number: the independence number of the line graph."""
    conflicts = _line_graph_masks(g)[1]
    return _independence_number(conflicts)((1 << len(conflicts)) - 1)


def edmonds_gallai_set(g: Graph) -> frozenset[int]:
    """Vertices missed by at least one maximum matching: those whose deletion leaves nu unchanged."""
    incident, conflicts = _line_graph_masks(g)
    nu = _independence_number(conflicts)
    edges = (1 << len(conflicts)) - 1
    return frozenset(v for v in range(g.n) if nu(edges & ~incident[v]) == nu(edges))


def max_independent_intersection(g: Graph) -> frozenset[int]:
    """Intersection of all maximum independent sets: the vertices whose deletion lowers alpha."""
    alpha = _independence_number(_adjacency_masks(g))
    full = (1 << g.n) - 1
    return frozenset(v for v in range(g.n) if alpha(full & ~(1 << v)) < alpha(full))


def max_independent_union(g: Graph) -> frozenset[int]:
    """Union of all maximum independent sets: the v with 1 + alpha(G - N[v]) = alpha(G)."""
    adj = _adjacency_masks(g)
    alpha = _independence_number(adj)
    full = (1 << g.n) - 1
    return frozenset(v for v in range(g.n) if 1 + alpha(full & ~(adj[v] | (1 << v))) == alpha(full))


def _independence_number(adj: list[int]) -> Callable[[int], int]:
    """The independence number of the subgraph on a vertex mask, for the graph with neighbor masks ``adj``.

    Branch and bound with degree pruning, with one memo shared by every
    mask asked of it.  Vertices of degree at most one in the remaining
    subgraph are always safe to take, which collapses forests and
    unicyclic graphs without branching.
    """
    memo: dict[int, int] = {0: 0}

    def rec(mask: int) -> int:
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

    return rec
