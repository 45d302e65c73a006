"""Type I / Type II classification and explicit null-space bases for unicyclic graphs.

A unicyclic graph is Type I when some cycle vertex v falls outside the support
of its own pendant tree, and Type II when every cycle vertex sits inside.  The
class decides how a kernel basis of the whole graph assembles from kernels of
subgraphs:

* Type I splits along the witness v into the pendant tree and its complement.
  Complement kernel vectors whose coordinates at v's two cycle neighbors sum
  to zero extend by zero-padding; if some vector (the pivot) has a nonzero
  sum, a multiple of the pivot zeroes every other one's sum, and a single
  corrected vector (a scaled pivot plus a full-support kernel vector of the
  pendant tree minus v) fills the gap, first in the basis; that is TI-4.
  Both steps change only the coordinates on the pivot's support, and the
  full-support search sums in g's own indices: no position map.
* Type II extends the kernel of the forest left after deleting the cycle.
  When the cycle length is a multiple of 4 the cycle itself contributes two
  extra vectors z1 and z2: alternating-sign sums of normalized full-support
  pendant-tree vectors over the even and odd cycle positions.  The pendant
  trees are disjoint, so each tree vector's coordinates go straight in.

``classify`` is the one place that decides a graph's class: None for a
forest, the Type I / Type II class with its witness and case for a unicyclic
graph, ``UnsupportedGraphClass`` for anything else.  One leaf peel decides
which, and yields the cycle and the pendant trees.  Every route takes its
result as it is and checks nothing again; the class carries the cycle, the
pendant trees and the forest decompositions every later construction reads.
Those come from maximum matchings (``trees``), each of a vertex set of the
graph itself, so no subgraph is built.  A whole forest's canonical basis,
for ``rref_null_basis`` and ``constructed_null_basis`` alike, is read off a
maximum matching by ``linalg.forest_null_basis_on``, with no elimination.
The sparse elimination ``linalg.null_basis_on`` gives each subforest kernel
the Type I / Type II bases (private to ``constructed_null_basis``) assemble.
Both read g's adjacency lists and answer in g's own indices: no dense
matrix, no subgraph, no position map.  ``rref_null_basis`` of a unicyclic
graph takes the class its caller holds and brings the constructed basis to
reduced echelon form (``linalg.reduced_echelon_basis``), which is the
canonical basis, so no elimination runs over the whole graph.  Only a graph
that ``classify`` refuses is eliminated whole, in ``canonical_null_basis``,
which ``basis --method rref`` calls.  Each vector is the dict of its nonzero
coordinates (``linalg.Vector``), and each step touches only those.
``checks`` verifies all of them against the dense RREF kernel of A(G): the
constructed bases by span and exact annihilation, ``rref_null_basis``
vector for vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import CaseContradiction, NormalizationFailure, UnsupportedGraphClass
from .graph import CycleInfo, Graph
from .linalg import ZERO, Vector, forest_null_basis_on, null_basis_on, reduced_echelon_basis
from .trees import Decomposition, forest_decomposition, full_support_vector

TYPE1 = "type1"
TYPE2 = "type2"

CASE_TI1 = "TI-1"
CASE_TI2 = "TI-2"
CASE_TI3 = "TI-3"
CASE_TI4 = "TI-4"
CASE_TII_NON4K = "TII-non4k"
CASE_TII_4K = "TII-4k"

# Provenance tags describing how each basis vector was constructed.
RREF_CANONICAL = "RrefCanonical"
EXTENDED_PENDANT = "ExtendedPendant"
EXTENDED_COMPLEMENT = "ExtendedComplement"
CORRECTED = "Corrected"
EXTENDED_FOREST = "ExtendedForest"
CYCLE_ALTERNATING = "CycleAlternating"


@dataclass(frozen=True)
class UnicyclicClass:
    """Classification result: the case, the cycle, and (for Type I) a witness.

    The witness is the smallest-index cycle vertex that lies outside the
    support of its pendant tree.  Any qualifying vertex would do; fixing the
    smallest keeps every downstream construction reproducible.  The case is
    one of TI-1 to TI-4 for Type I and TII-non4k / TII-4k for Type II.  The
    pendant trees the classification tested ride along for every later
    construction, with their decompositions and the complement's (G - T_v
    for Type I, G - C for Type II); they follow from the graph and the
    cycle, so equality, hashing and repr skip them.
    """

    case: str
    cycle: CycleInfo
    pendant_trees: Mapping[int, frozenset[int]] = field(compare=False, repr=False)
    pendant_decompositions: Mapping[int, Decomposition] = field(compare=False, repr=False)
    complement: Decomposition = field(compare=False, repr=False)
    witness: int | None = None

    @property
    def tag(self) -> str:
        """Type II exactly when no cycle vertex is a witness."""
        return TYPE2 if self.witness is None else TYPE1


@dataclass(frozen=True)
class NullBasis:
    """An exact kernel basis of A(G) with per-vector construction provenance."""

    vectors: tuple[Vector, ...]
    provenance: tuple[str, ...]


def classify(g: Graph) -> UnicyclicClass | None:
    """Decide g's class: None for a forest; for a unicyclic graph, Type I / Type II and the case.

    The type comes from testing each cycle vertex against its pendant tree;
    each pendant tree and the complement are decomposed once, and the class
    carries them.  Any other graph raises ``UnsupportedGraphClass``.
    """
    peeled = _peel(g)
    if peeled is None:
        return None
    cycle, pend = peeled
    decomposed = {v: forest_decomposition(g, tree) for v, tree in pend.items()}
    outside = [v for v in sorted(cycle.vertices) if v not in decomposed[v].support]
    everything = frozenset(range(g.n))
    if not outside:
        case = CASE_TII_4K if cycle.length % 4 == 0 else CASE_TII_NON4K
        rest = forest_decomposition(g, everything - cycle.vertex_set())
        return UnicyclicClass(case, cycle, pend, decomposed, rest)
    v = outside[0]
    rest = forest_decomposition(g, everything - pend[v])
    next_witness = outside[1] if len(outside) > 1 else None
    case = _type1_case(g, cycle, pend, decomposed, rest, v, next_witness)
    return UnicyclicClass(case, cycle, pend, decomposed, rest, v)


def _peel(g: Graph) -> tuple[CycleInfo, dict[int, frozenset[int]]] | None:
    """Peel g down to its 2-core: None for a forest, else the cycle and pendant trees.

    Vertices of degree at most 1 are removed until none is left; each keeps
    as parent the one neighbor it still has when it goes.  An empty core
    means a forest.  Peeling keeps |E| - |V| + #components fixed, so g is
    unicyclic exactly when |E| = |V| and the core is one cycle: every core
    vertex keeps two core neighbors and one walk visits them all.  The degree
    test comes first, since a walk on any other core might never return.
    A removed vertex belongs to its parent's pendant tree.
    """
    adjacency = g.adjacency
    degree = [len(nbrs) for nbrs in adjacency]
    removed = [False] * g.n
    parent = list(range(g.n))
    order = [v for v in range(g.n) if degree[v] <= 1]
    for v in order:  # grows while it is read
        removed[v] = True
        for w in adjacency[v]:
            if not removed[w]:
                parent[v] = w
                degree[w] -= 1
                if degree[w] == 1:
                    order.append(w)
    if len(order) == g.n:
        return None
    core = [v for v in range(g.n) if not removed[v]]
    walk = [core[0]]
    if g.edge_count == g.n and all(degree[v] == 2 for v in core):
        nxt = min(w for w in adjacency[walk[0]] if not removed[w])
        while nxt != walk[0]:
            walk.append(nxt)
            nxt = next(w for w in adjacency[nxt] if not removed[w] and w != walk[-2])
    if len(walk) != len(core):
        raise UnsupportedGraphClass(
            f"graph with {g.n} vertices and {g.edge_count} edges is neither a forest nor unicyclic"
        )
    for v in reversed(order):  # a parent goes after its children, so it is resolved first
        parent[v] = parent[parent[v]]
    members: dict[int, list[int]] = {v: [] for v in walk}
    for v in range(g.n):
        members[parent[v]].append(v)
    return CycleInfo(tuple(walk)), {v: frozenset(tree) for v, tree in members.items()}


def _type1_case(
    g: Graph,
    cycle: CycleInfo,
    pend: Mapping[int, frozenset[int]],
    decomposed: Mapping[int, Decomposition],
    rest_d: Decomposition,
    v: int,
    next_witness: int | None,
) -> str:
    """Select which of the four Type I cases applies at witness v, whose complement G - T_v is rest_d.

    With pendant tree T_v and cycle neighbors u, w, TI-4 means some kernel
    vector of A(G - T_v) has x_u + x_w != 0: e_u + e_w leaves the column
    space, which is exactly when bordering with v lowers the nullity.  The
    bordered graph G[(V - T_v) + v] has G's cycle and pendant trees, except
    that T_v shrinks to {v}.  A lone vertex is its own support, and every
    cycle vertex before v lies in its tree's support, so the bordered graph's
    witness is ``next_witness``: the next cycle vertex, in index order,
    outside its tree's support.  Only its complement is decomposed anew.
    """
    u, w = cycle.neighbors_on_cycle(v)
    tree = decomposed.get(next_witness)  # None for a Type II bordered graph
    cut = cycle.vertex_set() if tree is None else pend[next_witness]
    bordered_rest = forest_decomposition(g, (frozenset(range(g.n)) - pend[v] | {v}) - cut)
    if _recursion(cycle.length, tree, bordered_rest) < rest_d.nullity:
        return CASE_TI4
    if u not in rest_d.support and w not in rest_d.support:
        return CASE_TI1
    if v in decomposed[v].core:
        return CASE_TI2
    if v in decomposed[v].n_vertices:
        return CASE_TI3
    raise CaseContradiction(
        f"witness {g.labels[v]!r} matches no Type I case; support test inconsistent"
    )


def cycle_nullity(length: int) -> int:
    """Nullity of a plain cycle: 2 when the length is divisible by 4, else 0."""
    return 2 if length % 4 == 0 else 0


def recursion_nullity(cls: UnicyclicClass) -> int:
    """Nullity of the classified graph by the pendant-tree recursion, off the forests the class carries.

    Type I with witness v: nullity(G) = nullity(T_v) + nullity(G - T_v).
    Type II: nullity(G) = nullity(G - C) + nullity(C).
    """
    return _recursion(cls.cycle.length, cls.pendant_decompositions.get(cls.witness), cls.complement)


def _recursion(length: int, witness_tree: Decomposition | None, complement: Decomposition) -> int:
    """The recursion's one formula; ``witness_tree`` is None for Type II."""
    return complement.nullity + (cycle_nullity(length) if witness_tree is None else witness_tree.nullity)


def rref_null_basis(g: Graph, cls: UnicyclicClass | None) -> NullBasis:
    """Canonical kernel basis of A(g), tagged RrefCanonical, for ``cls = classify(g)``.

    A forest's is its constructed basis.  A unicyclic graph's is its
    constructed basis brought to reduced echelon form
    (``linalg.reduced_echelon_basis``), which is the canonical one, so no
    elimination runs over the whole graph.  The class is taken as given.
    """
    basis = constructed_null_basis(g, cls)
    if cls is None:
        return basis
    return _canonical(reduced_echelon_basis(basis.vectors))


def canonical_null_basis(g: Graph) -> NullBasis:
    """``rref_null_basis`` on any graph, after one ``classify``; a graph it refuses is eliminated whole."""
    try:
        cls = classify(g)
    except UnsupportedGraphClass:
        return _canonical(null_basis_on(g.adjacency, range(g.n)))
    return rref_null_basis(g, cls)


def _canonical(vectors: list[Vector]) -> NullBasis:
    """The canonical kernel basis ``vectors``, each tagged RrefCanonical."""
    return NullBasis(tuple(vectors), (RREF_CANONICAL,) * len(vectors))


def _type1_null_basis(g: Graph, cls: UnicyclicClass) -> NullBasis:
    """Kernel basis of a Type I unicyclic graph built from subforest kernels."""
    v = cls.witness
    u, w = cls.cycle.neighbors_on_cycle(v)
    tree = cls.pendant_trees[v]
    rest_basis = null_basis_on(g.adjacency, frozenset(range(g.n)) - tree)

    def cycle_sum(vec: Vector) -> Fraction:
        return vec.get(u, ZERO) + vec.get(w, ZERO)

    tagged: list[tuple[Vector, str]] = []
    pivot = next((vec for vec in rest_basis if cycle_sum(vec) != 0), None)
    if pivot is not None:  # without one, every complement kernel vector already extends
        sub = tree - {v}
        neighbors = [t for t in g.neighbors(v) if t in sub]
        # The neighbor-sum must be nonzero or the corrected vector falls into the
        # extended pendant-tree span; full_support_vector raises if it cannot be.
        y = full_support_vector(null_basis_on(g.adjacency, sub), nonzero_sum_indices=neighbors)
        coeff = -sum(y.get(t, ZERO) for t in neighbors) / cycle_sum(pivot)
        tagged.append((_add_scaled(y, coeff, pivot), CORRECTED))
        rest_basis = [
            _add_scaled(vec, -cycle_sum(vec) / cycle_sum(pivot), pivot)
            for vec in rest_basis
            if vec is not pivot
        ]
    tagged += [(vec, EXTENDED_COMPLEMENT) for vec in rest_basis]
    tagged += [(vec, EXTENDED_PENDANT) for vec in null_basis_on(g.adjacency, tree)]
    return NullBasis(tuple(vec for vec, _ in tagged), tuple(tag for _, tag in tagged))


def _add_scaled(vec: Vector, coeff: Fraction, other: Vector) -> Vector:
    """vec + coeff * other, with a coordinate that cancels dropped: only other's coordinates change."""
    out = dict(vec)
    for i, x in other.items():
        out[i] = out.get(i, ZERO) + coeff * x
    return {i: x for i, x in out.items() if x}


def _type2_null_basis(g: Graph, cls: UnicyclicClass) -> NullBasis:
    """Kernel basis of a Type II unicyclic graph built from subforest kernels."""
    cyc = cls.cycle.vertices
    vectors = null_basis_on(g.adjacency, frozenset(range(g.n)) - cls.cycle.vertex_set())
    provenance = [EXTENDED_FOREST] * len(vectors)

    if cls.cycle.length % 4 == 0:
        z: tuple[Vector, Vector] = ({}, {})  # cycle position i goes to z[i % 2], negated for i % 4 < 2
        for i, v in enumerate(cyc):
            x = full_support_vector(null_basis_on(g.adjacency, cls.pendant_trees[v]))
            if x.get(v, ZERO) == 0:
                raise NormalizationFailure(
                    f"full-support vector vanishes at cycle vertex {g.labels[v]!r}"
                )
            scale = (-1 if i % 4 < 2 else 1) / x[v]
            z[i % 2].update((t, scale * y) for t, y in x.items())
        vectors.extend(z)
        provenance.extend((CYCLE_ALTERNATING, CYCLE_ALTERNATING))
    return NullBasis(tuple(vectors), tuple(provenance))


def constructed_null_basis(g: Graph, cls: UnicyclicClass | None) -> NullBasis:
    """Dispatch on ``classify(g)`` to the Type I or Type II construction.

    A forest has no class (``cls`` is None, as in ``Decomposition.cls``) and
    gets the canonical basis off a maximum matching (``forest_null_basis_on``),
    which is also ``rref_null_basis`` of a forest.  The class is taken as given,
    not checked, but a cycle under None raises NotForest.
    """
    if cls is None:
        return _canonical(forest_null_basis_on(g.adjacency, range(g.n)))
    if cls.tag == TYPE1:
        return _type1_null_basis(g, cls)
    return _type2_null_basis(g, cls)
