"""Null decomposition of forests: support, core and N-vertices, and the one record of them.

The support of a graph is the set of vertices carrying a nonzero coordinate in
some kernel vector of the adjacency matrix.  For a forest it is the set of
vertices some maximum matching misses (Gallai-Edmonds), so a forest
decomposition comes from a maximum matching, in linear time, with no kernel.
The core is the union of neighborhoods of supported vertices, and the
N-vertices are everything else.  For forests these three sets partition the
vertex set.  ``Decomposition`` records them for forests and unicyclic graphs
alike; it lives here because ``decomposition`` and ``unicyclic`` import this
module.

Every operation accepts any forest and distributes over components, since
derived graphs elsewhere in the package (cycle complements, rooted-tree
deletions) are forests rather than single trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EmptyBasis, InternalCheckError, NotForest
from .graph import Graph
from .linalg import Vector, support_indices, vec_add, vec_scale

CASE_FOREST = "Forest"


@dataclass(frozen=True)
class Decomposition:
    """Support, core and N-vertices of a forest or unicyclic graph, with its nullity.

    A unicyclic graph carries its case and class; a forest has case ``Forest``
    and no class.  Support and core meet only in the cycle of a TII-4k graph.
    """

    support: frozenset[int]
    core: frozenset[int]
    n_vertices: frozenset[int]
    nullity: int
    case: str = CASE_FOREST
    cls: "UnicyclicClass | None" = None  # unicyclic imports this module


def forest_decomposition(g: Graph, vertices: Iterable[int]) -> Decomposition:
    """Decompose the forest that ``vertices`` induce in ``g``, in g's own indices.

    Leaves are matched to their parents bottom-up, which gives a maximum
    matching of a forest.  The support D is then every vertex reached from an
    exposed vertex by an even alternating path: each such path can be
    switched to give a maximum matching that misses its end.  The nullity is
    |F| - 2 * nu.  Raises NotForest when the vertices induce a cycle.
    """
    inside = set(vertices)
    adjacency = g.adjacency
    parent: dict[int, int] = {}
    order: list[int] = []  # depth-first preorder: every vertex before its children
    for root in inside:
        if root in parent:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in adjacency[x]:
                if y not in inside or y == parent[x]:
                    continue
                if y in parent:
                    raise NotForest(f"vertex set of size {len(inside)} induces a cycle")
                parent[y] = x
                stack.append(y)
    mate: dict[int, int] = {}
    for x in reversed(order):
        p = parent[x]
        if p >= 0 and x not in mate and p not in mate:
            mate[x], mate[p] = p, x
    support = {x for x in order if x not in mate}
    frontier = list(support)
    while frontier:
        x = frontier.pop()
        for y in adjacency[x]:
            if y in inside and y != mate.get(x):
                z = mate[y]  # y is matched, or the matching would not be maximum
                if z not in support:
                    support.add(z)
                    frontier.append(z)
    core = frozenset(y for x in support for y in adjacency[x] if y in inside)
    n_vertices = frozenset(inside - support - core)
    return Decomposition(frozenset(support), core, n_vertices, len(inside) - len(mate))


def tree_decomposition(t: Graph) -> Decomposition:
    """Decomposition of a whole forest."""
    return forest_decomposition(t, range(t.n))


def full_support_vector(
    basis: Sequence[Vector],
    *,
    nonzero_sum_indices: Sequence[int] | None = None,
) -> Vector:
    """A vector in the span whose support is the union of the basis supports.

    Tries the coefficient vectors (1, t, t^2, ..., t^(k-1)) for t = 1, 2, 3,
    and so on, and returns the first combination in which no union-support
    coordinate cancels.  Each such coordinate is a nonzero polynomial in t of
    degree < k, so only finitely many t are bad and the search terminates.

    When ``nonzero_sum_indices`` is given, the sum of the result over those
    coordinates must come out nonzero as well.  Callers use this where the sum
    feeds a later division; the same finitely-many-roots argument applies as
    long as the sum functional does not vanish on the whole span, which the
    caller must guarantee (it is checked against the basis and reported as an
    internal error otherwise).
    """
    if not basis:
        raise EmptyBasis("cannot build a full-support vector from an empty basis")
    length = len(basis[0])
    if any(len(vec) != length for vec in basis):
        raise DimensionMismatch("basis vectors have differing lengths")
    union: frozenset[int] = frozenset().union(*(support_indices(vec) for vec in basis))
    if nonzero_sum_indices is not None:
        if all(sum(vec[i] for i in nonzero_sum_indices) == 0 for vec in basis):
            raise InternalCheckError(
                "sum functional vanishes on the entire span; no combination can satisfy it"
            )
    t = 0
    while True:
        t += 1
        if t > 10000:
            raise InternalCheckError("full-support search did not terminate")
        combo: Vector = tuple(Fraction(0) for _ in range(length))
        weight = Fraction(1)
        for vec in basis:
            combo = vec_add(combo, vec_scale(weight, vec))
            weight *= t
        if any(combo[i] == 0 for i in union):
            continue
        if nonzero_sum_indices is not None and sum(combo[i] for i in nonzero_sum_indices) == 0:
            continue
        return combo
