"""Brute-force ground truth for small graphs.

Two tiers, matching what each consumer needs:

* full enumeration (``ENUMERATION_BUDGET``, 14 vertices, and 14 edges for
  matchings) for set-valued answers: all maximum independent sets, all
  maximum matchings, the set of vertices missed by some maximum matching,
  the intersection of all maximum independent sets.  One loop exhausts the
  subsets: of the vertices, or of the edges, as the maximum independent
  sets of the line graph;
* exact recursive search with degree-one reductions (``SEARCH_BUDGET``, 22
  vertices) when only the numbers alpha and nu are needed.

Each function refuses a graph above its tier's budget with ``BudgetExceeded``.

The recursive matching search is not a shortcut taken on faith: tests pin it
against exhaustive edge-subset maximization for every graph up to 12 vertices.
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .graph import Graph

# The most vertices each tier accepts, and the most edges matchings are enumerated over.
ENUMERATION_BUDGET = 14
SEARCH_BUDGET = 22


def _require_budget(size: int, budget: int, unit: str) -> None:
    if size > budget:
        raise BudgetExceeded(f"{size} {unit} exceeds oracle budget of {budget}")


def _adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


def brute_alpha(g: Graph) -> int:
    """Exact independence number by branch and bound with degree pruning.

    Vertices of degree at most one in the remaining subgraph are always safe
    to take, which collapses forests and unicyclic graphs without branching.
    """
    _require_budget(g.n, SEARCH_BUDGET, "vertices")
    adj = _adjacency_masks(g)
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

    return rec((1 << g.n) - 1)


def brute_nu(g: Graph) -> int:
    """Exact matching number by recursive search with leaf reduction.

    A degree-one vertex can always be matched along its unique edge without
    losing optimality; otherwise branch on a highest-degree vertex being
    unmatched or matched to each neighbor in turn.
    """
    _require_budget(g.n, SEARCH_BUDGET, "vertices")
    adj = _adjacency_masks(g)
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_v, best_deg = -1, 0
        leaf = -1
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (adj[v] & mask).bit_count()
            if deg == 1:
                leaf = v
                break
            if deg > best_deg:
                best_v, best_deg = v, deg
        if leaf >= 0:
            u = (adj[leaf] & mask).bit_length() - 1
            result = 1 + rec(mask & ~((1 << leaf) | (1 << u)))
        elif best_deg == 0:
            result = 0
        else:
            v = best_v
            result = rec(mask & ~(1 << v))
            rest = adj[v] & mask
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                result = max(result, 1 + rec(mask & ~((1 << v) | (1 << u))))
        memo[mask] = result
        return result

    return rec((1 << g.n) - 1)


def maximum_independent_sets(g: Graph) -> list[frozenset[int]]:
    """All maximum independent sets, by exhausting vertex subsets."""
    _require_budget(g.n, ENUMERATION_BUDGET, "vertices")
    return [frozenset(_bits(mask)) for mask in _maximum_independent_masks(_adjacency_masks(g))]


def maximum_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """All maximum matchings: the maximum independent sets of the line graph, by exhausting edge subsets."""
    _require_budget(g.n, ENUMERATION_BUDGET, "vertices")
    edges = list(g.edges())
    _require_budget(len(edges), ENUMERATION_BUDGET, "edges")
    ends = [(1 << u) | (1 << v) for u, v in edges]
    conflicts = [  # the line graph: edges that share an endpoint
        sum(1 << f for f, other in enumerate(ends) if f != e and other & mine) for e, mine in enumerate(ends)
    ]
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
