"""Independent reference values for forests and unicyclic graphs.

Nothing here imports ``nulldecomp``: the benchmark checks the package's
outputs against these values, so they must come from a separate route.
Everything is combinatorial and exact:

* the matching number of a forest by greedy leaf matching, in O(n), and its
  independence number as alpha = n - nu (Koenig);
* for a unicyclic graph, one branch on a cycle edge {a, b} or cycle vertex a:
  nu(G) = max(nu(G - ab), 1 + nu(G - a - b)) and
  alpha(G) = max(alpha(G - a), 1 + alpha(G - N[a])), both sides forests;
* the support of a tree as the Gallai-Edmonds set: x is supported iff some
  maximum matching misses it, i.e. iff nu(T - x) = nu(T);
* nullities from the forest identity eta = |F| - 2 nu and the Type I / II
  recursions eta = eta(T_v) + eta(G - T_v) and
  eta = eta(G - C) + 2 [|C| = 0 mod 4];
* the Type I case from the witness v, its cycle neighbours u and w and the
  tree T' = G - T_v.  TI-4 means some kernel vector of T' has x_u + x_w != 0,
  which holds iff joining a new vertex z to u and w lowers the nullity (a
  bordered-matrix rank argument: e_u + e_w lies outside the column space).
  TI-1 means u and w are both unsupported in T'.  Otherwise the case is TI-2
  when v has a supported neighbour in T_v and TI-3 when it has none.

Graphs are given as an adjacency list over indices and a set of live
vertices, so induced subgraphs are just smaller sets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Adjacency = Sequence[Sequence[int]]

# Mersenne prime used to test linear independence of kernel vectors mod p.
_PRIME = (1 << 61) - 1


def graph_from_edges(edges: Iterable[tuple[str, str]]) -> tuple[list[str], list[list[int]]]:
    """Labels in ascending order and the adjacency list over their indices."""
    pairs = list(edges)
    labels = sorted({label for pair in pairs for label in pair})
    index = {label: i for i, label in enumerate(labels)}
    adj: list[list[int]] = [[] for _ in labels]
    for a, b in pairs:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    return labels, adj


def forest_nu(adj: Adjacency, alive: set[int] | frozenset[int]) -> int:
    """Matching number of the forest induced by ``alive``: match leaves greedily."""
    degree = {v: sum(1 for w in adj[v] if w in alive) for v in alive}
    stack = [v for v, d in degree.items() if d <= 1]
    removed: set[int] = set()
    matched = 0
    while stack:
        v = stack.pop()
        if v in removed:
            continue
        removed.add(v)
        if degree[v] == 0:
            continue
        partner = next(w for w in adj[v] if w in alive and w not in removed)
        removed.add(partner)
        matched += 1
        for w in adj[partner]:
            if w in alive and w not in removed:
                degree[w] -= 1
                if degree[w] <= 1:
                    stack.append(w)
    if len(removed) != len(alive):
        raise ValueError("greedy leaf matching stalled: the vertex set induces a cycle")
    return matched


def forest_nullity(adj: Adjacency, alive: set[int] | frozenset[int]) -> int:
    return len(alive) - 2 * forest_nu(adj, alive)


def supported(adj: Adjacency, tree: frozenset[int], x: int) -> bool:
    """Whether ``x`` lies in the support of the forest induced by ``tree``."""
    return forest_nu(adj, tree - {x}) == forest_nu(adj, tree)


def _edge_count(adj: Adjacency, alive: frozenset[int]) -> int:
    return sum(1 for v in alive for w in adj[v] if w in alive) // 2


def _component_count(adj: Adjacency, alive: frozenset[int]) -> int:
    seen: set[int] = set()
    count = 0
    for start in alive:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in alive and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _cycle(adj: Adjacency, alive: frozenset[int]) -> frozenset[int]:
    """Vertex set of the unique cycle: what survives peeling off leaves."""
    degree = {v: sum(1 for w in adj[v] if w in alive) for v in alive}
    left = set(alive)
    queue = [v for v, d in degree.items() if d == 1]
    while queue:
        v = queue.pop()
        left.discard(v)
        for w in adj[v]:
            if w in left:
                degree[w] -= 1
                if degree[w] == 1:
                    queue.append(w)
    return frozenset(left)


def _pendant_tree(adj: Adjacency, alive: frozenset[int], cycle: frozenset[int], v: int) -> frozenset[int]:
    tree = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w in alive and w not in tree and w not in cycle:
                tree.add(w)
                stack.append(w)
    return frozenset(tree)


def _witness(adj: Adjacency, alive: frozenset[int], cycle: frozenset[int]) -> tuple[int | None, dict[int, frozenset[int]]]:
    """Smallest cycle vertex outside its pendant tree's support (None: Type II)."""
    pend = {v: _pendant_tree(adj, alive, cycle, v) for v in cycle}
    for v in sorted(cycle):
        if not supported(adj, pend[v], v):
            return v, pend
    return None, pend


def unicyclic_nullity(adj: Adjacency, alive: frozenset[int]) -> int:
    cycle = _cycle(adj, alive)
    v, pend = _witness(adj, alive, cycle)
    if v is not None:
        return forest_nullity(adj, pend[v]) + forest_nullity(adj, alive - pend[v])
    return forest_nullity(adj, alive - cycle) + (2 if len(cycle) % 4 == 0 else 0)


def _type1_case(adj: Adjacency, alive: frozenset[int], cycle: frozenset[int], v: int, tree_v: frozenset[int]) -> str:
    u, w = (x for x in adj[v] if x in cycle)
    rest = alive - tree_v
    z = len(adj)
    bordered = [list(nbrs) for nbrs in adj] + [[u, w]]
    bordered[u].append(z)
    bordered[w].append(z)
    if unicyclic_nullity(bordered, rest | {z}) < forest_nullity(adj, rest):
        return "TI-4"
    if not supported(adj, rest, u) and not supported(adj, rest, w):
        return "TI-1"
    if any(supported(adj, tree_v, y) for y in adj[v] if y in tree_v):
        return "TI-2"
    return "TI-3"


def analyze(adj: Adjacency) -> dict[str, object]:
    """Class, case, nullity, alpha and nu of a forest or unicyclic graph."""
    alive = frozenset(range(len(adj)))
    n, m = len(alive), _edge_count(adj, alive)
    components = _component_count(adj, alive)
    if m == n - components:
        nu = forest_nu(adj, alive)
        return {"class": "forest", "case": "Forest", "nullity": n - 2 * nu, "alpha": n - nu, "nu": nu}
    if components != 1 or m != n:
        raise ValueError(f"graph with {n} vertices and {m} edges is neither a forest nor unicyclic")
    cycle = _cycle(adj, alive)
    a = min(cycle)
    b = min(x for x in adj[a] if x in cycle)
    without_edge = [[x for x in nbrs if {i, x} != {a, b}] for i, nbrs in enumerate(adj)]
    nu = max(forest_nu(without_edge, alive), 1 + forest_nu(adj, alive - {a, b}))
    closed = frozenset(adj[a]) | {a}
    alpha = max(len(alive) - 1 - forest_nu(adj, alive - {a}),
                1 + len(alive - closed) - forest_nu(adj, alive - closed))
    v, pend = _witness(adj, alive, cycle)
    if v is None:
        four_k = len(cycle) % 4 == 0
        nullity = forest_nullity(adj, alive - cycle) + (2 if four_k else 0)
        return {"class": "type2", "case": "TII-4k" if four_k else "TII-non4k",
                "nullity": nullity, "alpha": alpha, "nu": nu}
    nullity = forest_nullity(adj, pend[v]) + forest_nullity(adj, alive - pend[v])
    return {"class": "type1", "case": _type1_case(adj, alive, cycle, v, pend[v]),
            "nullity": nullity, "alpha": alpha, "nu": nu}


def _mod_p(x: Fraction) -> int:
    return x.numerator % _PRIME * pow(x.denominator % _PRIME, -1, _PRIME) % _PRIME


def kernel_basis_problem(adj: Adjacency, vectors: Sequence[Mapping[int, Fraction]], nullity: int) -> str | None:
    """Why ``vectors`` is not a kernel basis of A, or None when it is one.

    Each vector maps vertex indices to its nonzero coordinates.  A v = 0 is
    checked exactly over the adjacency lists; independence by the rank mod a
    large prime, which can only understate the rational rank.
    """
    if len(vectors) != nullity:
        return f"{len(vectors)} vectors for nullity {nullity}"
    for k, vec in enumerate(vectors):
        sums: dict[int, Fraction] = {}
        for j, x in vec.items():
            for i in adj[j]:
                sums[i] = sums.get(i, Fraction(0)) + x
        if any(s != 0 for s in sums.values()):
            return f"vector {k} is not in the kernel"
    pivots: dict[int, dict[int, int]] = {}
    for k, vec in enumerate(vectors):
        row = {j: r for j, r in ((j, _mod_p(x)) for j, x in vec.items()) if r}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, _PRIME)
                pivots[col] = {j: x * inv % _PRIME for j, x in row.items()}
                break
            factor = row[col]
            for j, x in pivots[col].items():
                row[j] = (row.get(j, 0) - factor * x) % _PRIME
            row = {j: x for j, x in row.items() if x}
        else:
            return f"vector {k} depends on the ones before it"
    return None
