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
  Both steps change only the coordinates on the pivot's support.
* Type II extends the kernel of the forest left after deleting the cycle.
  When the cycle length is a multiple of 4 the cycle itself contributes two
  extra vectors z1 and z2: alternating-sign sums of normalized full-support
  pendant-tree vectors over the even and odd cycle positions.  The pendant
  trees are disjoint, so each tree vector's coordinates go straight in.

``classify`` is the one place that decides a graph's class: None for a
forest, the Type I / Type II class with its witness and case for a unicyclic
graph, ``UnsupportedGraphClass`` for anything else.  One leaf peel
(``linalg.peel``) decides which, and yields the cycle and the pendant trees,
each rooted at its cycle vertex.  ``piece`` cuts every other forest from
them: T_v - v, G - C, G - T_v and the bordered graph's complement.  The
class carries the pendant trees and the decompositions every later
construction reads, each by maximum matching (``trees``).  A whole forest's
constructed basis is its canonical one, off a maximum matching
(``linalg.forest_null_basis_on``), and so is every forest kernel the Type I
/ Type II bases assemble but Type I's G - T_v, which ``null_basis_on``
eliminates.  All read g's adjacency lists in g's own indices: no dense
matrix, no subgraph, no position map.  Where a canonical basis is printed or
checked, ``rref_null_basis`` brings the constructed one to reduced echelon
form (``linalg.reduced_echelon_basis``), or returns a forest's as it is;
only a graph ``classify`` refuses is eliminated whole, in
``canonical_null_basis``.  Each vector is the dict of its nonzero
coordinates (``linalg.Vector``).  ``checks`` verifies all of them against
the dense RREF kernel of A(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CaseContradiction, NormalizationFailure, UnsupportedGraphClass
from .graph import CycleInfo, Graph
from .linalg import ZERO, Forest, Vector, forest_null_basis_on, null_basis_on, peel, reduced_echelon_basis
from .trees import Decomposition, forest_decomposition, full_support_vector, rooted_forest

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
    construction, each the rooted forest ``linalg.peel`` gave, rooted at its
    cycle vertex, with their decompositions and the complement's (G - T_v
    for Type I, G - C for Type II); they follow from the graph and the
    cycle, so equality, hashing and repr skip them.
    """

    case: str
    cycle: CycleInfo
    pendant_trees: Mapping[int, Forest] = field(compare=False, repr=False)
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

    One ``linalg.peel`` gives the cycle and the pendant trees.  Each cycle
    vertex is tested against its tree; each tree and the complement are
    decomposed once, and the class carries them.  Any other graph raises
    ``UnsupportedGraphClass``.
    """
    forest, core = peel(g.adjacency)
    if not core:
        return None
    cycle = _cycle(g, forest, core)
    pend: dict[int, Forest] = {v: {} for v in cycle.vertices}
    root = [0] * g.n
    for x, p in forest.items():  # parents first, so each parent's root is known
        root[x] = x if p < 0 else root[p]
        pend[root[x]][x] = p
    decomposed = {v: forest_decomposition(g, tree) for v, tree in pend.items()}
    outside = [v for v in sorted(cycle.vertices) if v not in decomposed[v].support]
    if not outside:
        case = CASE_TII_4K if cycle.length % 4 == 0 else CASE_TII_NON4K
        rest = forest_decomposition(g, piece(pend, (), cycle.vertices))
        return UnicyclicClass(case, cycle, pend, decomposed, rest)
    v = outside[0]
    rest = forest_decomposition(g, piece(pend, cycle.path_around(v), ()))
    next_witness = outside[1] if len(outside) > 1 else None
    case = _type1_case(g, cycle, pend, decomposed, rest, v, next_witness)
    return UnicyclicClass(case, cycle, pend, decomposed, rest, v)


def _cycle(g: Graph, forest: Forest, core: list[int]) -> CycleInfo:
    """The cycle that is ``linalg.peel``'s core; ``UnsupportedGraphClass`` if the core is anything else.

    Peeling keeps |E| - |V| + #components fixed, so g is unicyclic exactly
    when |E| = |V| and the core is one cycle: each core vertex has two core
    neighbors (its neighbors that are roots) and one walk visits them all.
    The degree test comes first: a walk on any other core might never return.
    """
    ring = {v: [w for w in g.adjacency[v] if forest[w] < 0] for v in core}
    walk = [core[0]]
    if g.edge_count == g.n and all(len(nbrs) == 2 for nbrs in ring.values()):
        nxt = min(ring[walk[0]])
        while nxt != walk[0]:
            walk.append(nxt)
            nxt = next(w for w in ring[nxt] if w != walk[-2])
    if len(walk) != len(core):
        raise UnsupportedGraphClass(
            f"graph with {g.n} vertices and {g.edge_count} edges is neither a forest nor unicyclic"
        )
    return CycleInfo(tuple(walk))


def piece(trees: Mapping[int, Forest], path: Sequence[int], headless: Iterable[int]) -> Forest:
    """A cycle path with its vertices' pendant trees, and more pendant trees less their roots, as one rooted forest.

    ``trees`` holds pendant trees by cycle vertex, each rooted there
    (``UnicyclicClass.pendant_trees``).  The path, consecutive cycle
    vertices, is rooted at its first; a tree in ``headless`` loses its root,
    whose children become roots.  T_v - v is ``piece(trees, (), [v])``,
    G - C ``piece(trees, (), cycle)`` and G - T_v
    ``piece(trees, cycle.path_around(v), ())``.
    """
    forest: Forest = {}
    for i, c in enumerate(path):
        forest.update(trees[c])
        forest[c] = path[i - 1] if i else -1
    for c in headless:
        forest.update((x, -1 if p == c else p) for x, p in trees[c].items() if x != c)
    return forest


def _type1_case(
    g: Graph,
    cycle: CycleInfo,
    pend: Mapping[int, Forest],
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
    path, headless = ((), cycle.vertices) if tree is None else (cycle.path_around(next_witness), ())
    bordered_rest = forest_decomposition(g, piece({**pend, v: {v: -1}}, path, headless))
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


def rref_null_basis(basis: NullBasis) -> NullBasis:
    """The canonical kernel basis, tagged RrefCanonical, of the kernel ``basis`` spans.

    A basis already tagged RrefCanonical throughout (a forest's constructed
    basis, or an empty one) comes back as it is.  Any other is brought to
    reduced echelon form (``linalg.reduced_echelon_basis``), which is the
    canonical one, so no elimination runs over the whole graph.
    """
    if all(tag == RREF_CANONICAL for tag in basis.provenance):
        return basis
    return _canonical(reduced_echelon_basis(basis.vectors))


def canonical_null_basis(g: Graph) -> NullBasis:
    """``rref_null_basis`` of g's constructed basis; a graph ``classify`` refuses is eliminated whole."""
    try:
        cls = classify(g)
    except UnsupportedGraphClass:
        return _canonical(null_basis_on(g.adjacency, range(g.n)))
    return rref_null_basis(constructed_null_basis(g, cls))


def _canonical(vectors: list[Vector]) -> NullBasis:
    """The canonical kernel basis ``vectors``, each tagged RrefCanonical."""
    return NullBasis(tuple(vectors), (RREF_CANONICAL,) * len(vectors))


def _type1_null_basis(g: Graph, cls: UnicyclicClass) -> NullBasis:
    """Kernel basis of a Type I unicyclic graph built from subforest kernels."""
    v = cls.witness
    u, w = cls.cycle.neighbors_on_cycle(v)
    pend = cls.pendant_trees
    rest_basis = null_basis_on(g.adjacency, piece(pend, cls.cycle.path_around(v), ()))

    def cycle_sum(vec: Vector) -> Fraction:
        return vec.get(u, ZERO) + vec.get(w, ZERO)

    tagged: list[tuple[Vector, str]] = []
    pivot = next((vec for vec in rest_basis if cycle_sum(vec) != 0), None)
    if pivot is not None:  # without one, every complement kernel vector already extends
        sub = piece(pend, (), [v])
        neighbors = [t for t in g.neighbors(v) if t in sub]
        # The neighbor-sum must be nonzero or the corrected vector falls into the
        # extended pendant-tree span; full_support_vector raises if it cannot be.
        y = full_support_vector(forest_null_basis_on(g.adjacency, sub), nonzero_sum_indices=neighbors)
        coeff = -sum(y.get(t, ZERO) for t in neighbors) / cycle_sum(pivot)
        tagged.append((_add_scaled(y, coeff, pivot), CORRECTED))
        rest_basis = [
            _add_scaled(vec, -cycle_sum(vec) / cycle_sum(pivot), pivot) if cycle_sum(vec) else vec
            for vec in rest_basis
            if vec is not pivot
        ]
    tagged += [(vec, EXTENDED_COMPLEMENT) for vec in rest_basis]
    tagged += [(vec, EXTENDED_PENDANT) for vec in forest_null_basis_on(g.adjacency, pend[v])]
    return NullBasis(tuple(vec for vec, _ in tagged), tuple(tag for _, tag in tagged))


def _add_scaled(vec: Vector, coeff: Fraction, other: Vector) -> Vector:
    """vec + coeff * other, with a coordinate that cancels dropped: only other's coordinates change."""
    out = dict(vec)
    for i, x in other.items():
        out[i] = out.get(i, ZERO) + coeff * x
    return {i: x for i, x in out.items() if x}


def _type2_null_basis(g: Graph, cls: UnicyclicClass) -> NullBasis:
    """Kernel basis of a Type II unicyclic graph built from subforest kernels.

    G - C induces a forest, so its canonical kernel comes off a maximum
    matching (``forest_null_basis_on``), as each pendant tree's under z1 and
    z2 does: nothing here is eliminated.
    """
    cyc = cls.cycle.vertices
    vectors = forest_null_basis_on(g.adjacency, piece(cls.pendant_trees, (), cyc))
    provenance = [EXTENDED_FOREST] * len(vectors)

    if cls.cycle.length % 4 == 0:
        z: tuple[Vector, Vector] = ({}, {})  # cycle position i goes to z[i % 2], negated for i % 4 < 2
        for i, v in enumerate(cyc):
            x = full_support_vector(forest_null_basis_on(g.adjacency, cls.pendant_trees[v]))
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
    which ``rref_null_basis`` returns as it is.  The class is taken as given,
    not checked, but a cycle under None raises NotForest.
    """
    if cls is None:
        return _canonical(forest_null_basis_on(g.adjacency, rooted_forest(g)))
    if cls.tag == TYPE1:
        return _type1_null_basis(g, cls)
    return _type2_null_basis(g, cls)
