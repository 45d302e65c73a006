"""Null decomposition of forests: support, core and N-vertices, and the one record of them.

The support of a graph is the set of vertices carrying a nonzero coordinate in
some kernel vector of the adjacency matrix.  For a forest it is the set of
vertices some maximum matching misses (Gallai-Edmonds), so a forest
decomposition comes from a maximum matching, in linear time, with no kernel.
The core is the union of neighborhoods of supported vertices, and the
N-vertices are everything else; for forests the three sets partition the
vertex set.  ``forest_decomposition`` takes a rooted forest, as
``linalg.forest_null_basis_on`` does: a whole forest rooted by
``linalg.peel`` (``rooted_forest``, which refuses a graph with a cycle), or a
piece of a unicyclic graph cut from its pendant trees (``unicyclic.piece``).
Every operation distributes over components.  ``Decomposition`` records the
three sets for forests and unicyclic graphs alike; it lives here because
``decomposition`` and ``unicyclic`` import this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyBasis, InternalCheckError, NotForest
from .graph import Graph
from .linalg import ZERO, Forest, Vector, peel

CASE_FOREST = "Forest"


@dataclass(frozen=True)
class Decomposition:
    """Support, core and N-vertices of a forest or unicyclic graph, with its nullity.

    A unicyclic graph carries its class, and its case is the class's; a
    forest has no class and case ``Forest``.  Support and core meet only in
    the cycle of a TII-4k graph.
    """

    support: frozenset[int]
    core: frozenset[int]
    n_vertices: frozenset[int]
    nullity: int
    cls: "UnicyclicClass | None" = None  # unicyclic imports this module

    @property
    def case(self) -> str:
        return self.cls.case if self.cls else CASE_FOREST


def forest_decomposition(g: Graph, parent: Forest) -> Decomposition:
    """Decompose the rooted forest ``parent``, the subgraph of g its key set induces, in g's own indices.

    Leaves are matched to their parents bottom-up, which gives a maximum
    matching of a forest: the cheaper one for a decomposition, at about half
    the cost of the column-order matching ``linalg.forest_null_basis_on``
    keeps because the canonical kernel needs its pivots.  The support D is
    then every vertex reached from an exposed vertex by an even alternating
    path: each such path can be switched to give a maximum matching that
    misses its end.  The nullity is |F| - 2 * nu.
    """
    adjacency = g.adjacency
    mate: dict[int, int] = {}
    for x, p in reversed(parent.items()):  # children first
        if p >= 0 and x not in mate and p not in mate:
            mate[x], mate[p] = p, x
    support = {x for x in parent if x not in mate}
    frontier = list(support)
    while frontier:
        x = frontier.pop()
        for y in adjacency[x]:
            if y in parent and y != mate.get(x):
                z = mate[y]  # y is matched, or the matching would not be maximum
                if z not in support:
                    support.add(z)
                    frontier.append(z)
    core = frozenset(y for x in support for y in adjacency[x] if y in parent)
    n_vertices = frozenset(parent.keys() - support - core)
    return Decomposition(frozenset(support), core, n_vertices, len(parent) - len(mate))


def rooted_forest(g: Graph) -> Forest:
    """The whole forest g, rooted by ``linalg.peel``; raises NotForest when g has a cycle."""
    forest, core = peel(g.adjacency)
    if core:
        raise NotForest(f"graph with {g.n} vertices has a cycle")
    return forest


def tree_decomposition(t: Graph) -> Decomposition:
    """Decomposition of a whole forest."""
    return forest_decomposition(t, rooted_forest(t))


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
    Each try sums, in g's own indices, on the sorted union of the key sets
    (every other coordinate is zero in every combination); each basis vector
    adds in only its own coordinates, so one try costs the total support.

    When ``nonzero_sum_indices`` is given, the sum of the result over those
    coordinates must come out nonzero as well.  Callers use this where the sum
    feeds a later division; the same finitely-many-roots argument applies as
    long as the sum functional does not vanish on the whole span, which the
    caller must guarantee (it is checked against the basis, on each vector's
    own coordinates, and reported as an internal error otherwise).
    """
    if not basis:
        raise EmptyBasis("cannot build a full-support vector from an empty basis")
    union = sorted(frozenset().union(*basis))
    if nonzero_sum_indices is not None:
        times = Counter(nonzero_sum_indices)  # an index listed twice counts twice
        if all(sum(x * times[i] for i, x in vec.items() if i in times) == 0 for vec in basis):
            raise InternalCheckError(
                "sum functional vanishes on the entire span; no combination can satisfy it"
            )
    t = 0
    while True:
        t += 1
        if t > 10000:
            raise InternalCheckError("full-support search did not terminate")
        combo = dict.fromkeys(union, ZERO)
        weight = Fraction(1)
        for vec in basis:
            for i, x in vec.items():
                combo[i] += weight * x
            weight *= t
        if not all(combo.values()):
            continue
        if nonzero_sum_indices is not None and sum(combo.get(i, ZERO) for i in nonzero_sum_indices) == 0:
            continue
        return combo
