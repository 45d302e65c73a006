"""Type I / Type II classification and explicit null-space bases for unicyclic graphs.

A unicyclic graph is Type I when some cycle vertex v falls outside the support
of its own pendant tree, and Type II when every cycle vertex sits inside.  The
class decides how a kernel basis of the whole graph assembles from kernels of
subgraphs:

* Type I splits along the witness v into the pendant tree and its complement.
  Complement kernel vectors whose coordinates at v's two cycle neighbors sum
  to zero extend by zero-padding; if some vector has a nonzero sum, a single
  corrected vector (a scaled complement pivot plus a full-support kernel
  vector of the pendant tree minus v) fills the gap.
* Type II extends the kernel of the forest left after deleting the cycle.
  When the cycle length is a multiple of 4 the cycle itself contributes two
  extra vectors z1 and z2: alternating-sign sums of normalized full-support
  pendant-tree vectors over the odd and even cycle positions.

``classify`` is the one place that decides a graph's class, witness and
case; its result carries the cycle and pendant trees that every later
construction reads.  The class, the case and the nullity recursion need
only forest decompositions, which come from maximum matchings (``trees``).
Each forest they decompose is a vertex set of the graph itself, so no
subgraph is built.  ``rref_null_basis`` eliminates straight over the
graph's adjacency lists (``linalg.sparse_null_basis``), with no dense
matrix.  The Type I / Type II bases still take their vectors from dense
RREF kernels of induced subforests.  ``checks`` verifies all of
them against the dense RREF kernel of A(G): the constructed bases by span
and exact annihilation, ``rref_null_basis`` tuple for tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    CaseContradiction,
    DimensionMismatch,
    InternalCheckError,
    NormalizationFailure,
    NotUnicyclic,
    WrongType,
)
from .graph import CycleInfo, Graph, find_cycle, pendant_trees
from .linalg import Vector, null_space_basis, sparse_null_basis, vec_add, vec_scale
from .trees import forest_decomposition, full_support_vector

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
    """Classification result: the tag, the case, the cycle, and (for Type I) a witness.

    The witness is the smallest-index cycle vertex that lies outside the
    support of its pendant tree.  Any qualifying vertex would do; fixing the
    smallest keeps every downstream construction reproducible.  The case is
    one of TI-1 to TI-4 for Type I and TII-non4k / TII-4k for Type II.  The
    pendant trees the classification tested ride along for every later
    construction; they follow from the graph and the cycle, so equality and
    hashing skip them.
    """

    tag: str
    case: str
    cycle: CycleInfo
    pendant_trees: Mapping[int, frozenset[int]] = field(compare=False, repr=False)
    witness: int | None = None


@dataclass(frozen=True)
class NullBasis:
    """An exact kernel basis of A(G) with per-vector construction provenance."""

    vectors: tuple[Vector, ...]
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.vectors)


def classify(g: Graph) -> UnicyclicClass:
    """Decide Type I / Type II and the case by testing each cycle vertex against its pendant tree."""
    cycle = find_cycle(g)
    pend = pendant_trees(g, cycle)
    order = sorted(cycle.vertices)
    outside = (v for v in order if v not in forest_decomposition(g, pend[v]).support)
    v = next(outside, None)
    if v is None:
        case = CASE_TII_4K if cycle.length % 4 == 0 else CASE_TII_NON4K
        return UnicyclicClass(TYPE2, case, cycle, pend)
    case = _type1_case(g, cycle, pend, v, next(outside, None))
    return UnicyclicClass(TYPE1, case, cycle, pend, v)


def _type1_case(
    g: Graph, cycle: CycleInfo, pend: Mapping[int, frozenset[int]], v: int, next_witness: int | None
) -> str:
    """Select which of the four Type I cases applies at witness v.

    With pendant tree T_v and cycle neighbors u, w, TI-4 means some kernel
    vector of A(G - T_v) has x_u + x_w != 0: e_u + e_w leaves the column
    space, which is exactly when bordering with v lowers the nullity.  The
    bordered graph G[(V - T_v) + v] has G's cycle and pendant trees, except
    that T_v shrinks to {v}.  A lone vertex is its own support, and every
    cycle vertex before v lies in its tree's support, so the bordered graph's
    witness is ``next_witness``: the next cycle vertex, in index order,
    outside its tree's support.
    """
    u, w = cycle.neighbors_on_cycle(v)
    rest_d = forest_decomposition(g, frozenset(range(g.n)) - pend[v])
    if recursion_nullity(g, {**pend, v: frozenset({v})}, next_witness) < rest_d.nullity:
        return CASE_TI4
    if u not in rest_d.support and w not in rest_d.support:
        return CASE_TI1
    pend_d = forest_decomposition(g, pend[v])
    if v in pend_d.core:
        return CASE_TI2
    if v in pend_d.n_vertices:
        return CASE_TI3
    raise CaseContradiction(
        f"witness {g.labels[v]!r} matches no Type I case; support test inconsistent"
    )


def extend_vector(x: Sequence[Fraction], h_vertices: Sequence[int], g: Graph) -> Vector:
    """Zero-pad a subgraph vector to the full vertex set of ``g``.

    ``h_vertices`` are g-indices in ascending order; coordinate j of ``x``
    belongs to ``h_vertices[j]`` (the order induced subgraphs inherit).
    """
    positions = list(h_vertices)
    if len(x) != len(positions):
        raise DimensionMismatch(
            f"vector has {len(x)} coordinates for {len(positions)} vertices"
        )
    if any(not 0 <= v < g.n for v in positions):
        raise DimensionMismatch("subgraph vertex index out of range")
    coords = [Fraction(0)] * g.n
    for value, v in zip(x, positions):
        coords[v] = Fraction(value)
    return tuple(coords)


def cycle_nullity(length: int) -> int:
    """Nullity of a plain cycle: 2 when the length is divisible by 4, else 0."""
    return 2 if length % 4 == 0 else 0


def recursion_nullity(
    g: Graph, pendant_trees: Mapping[int, frozenset[int]], witness: int | None
) -> int:
    """Nullity of a unicyclic graph via the pendant-tree recursion, from forest nullities alone.

    The graph is the one ``g`` induces on the union of ``pendant_trees``,
    which maps each of its cycle vertices to the tree hanging there;
    ``witness`` is its Type I witness, or None when it is Type II.  For g
    itself that is ``recursion_nullity(g, cls.pendant_trees, cls.witness)``.

    Type I with witness v: nullity(G) = nullity(G{v}) + nullity(G - G{v}).
    Type II: nullity(G) = nullity(G - C) + nullity(C).
    """
    everything = frozenset().union(*pendant_trees.values())
    if witness is not None:
        tree = pendant_trees[witness]
        rest = everything - tree
        return forest_decomposition(g, tree).nullity + forest_decomposition(g, rest).nullity
    forest = everything - frozenset(pendant_trees)
    return forest_decomposition(g, forest).nullity + cycle_nullity(len(pendant_trees))


def rref_null_basis(g: Graph) -> NullBasis:
    """Canonical kernel basis of A(g), tagged RrefCanonical.  Works on any graph."""
    vectors = tuple(sparse_null_basis(g.adjacency))
    return NullBasis(vectors, (RREF_CANONICAL,) * len(vectors))


def type1_null_basis(g: Graph, cls: UnicyclicClass) -> NullBasis:
    """Kernel basis of a Type I unicyclic graph built from subgraph kernels."""
    if cls.tag != TYPE1:
        raise WrongType("type1_null_basis needs a Type I classification")
    if not g.is_unicyclic():
        raise NotUnicyclic(f"graph has {g.n} vertices and {g.edge_count} edges")
    v = cls.witness
    u, w = cls.cycle.neighbors_on_cycle(v)

    pend_vertices = sorted(cls.pendant_trees[v])
    tree = g.induced_subgraph(pend_vertices)
    rest_vertices = sorted(set(range(g.n)) - set(pend_vertices))
    rest = g.induced_subgraph(rest_vertices)
    rest_pos = {vertex: j for j, vertex in enumerate(rest_vertices)}
    pos_u, pos_w = rest_pos[u], rest_pos[w]

    tree_basis = null_space_basis(tree.adjacency_matrix())
    rest_basis = null_space_basis(rest.adjacency_matrix())

    def cycle_sum(vec: Vector) -> Fraction:
        return vec[pos_u] + vec[pos_w]

    vectors: list[Vector] = []
    provenance: list[str] = []

    pivot = next((vec for vec in rest_basis if cycle_sum(vec) != 0), None)
    if pivot is None:
        # Every complement kernel vector already extends to a kernel vector.
        for vec in rest_basis:
            vectors.append(extend_vector(vec, rest_vertices, g))
            provenance.append(EXTENDED_COMPLEMENT)
    else:
        zero_sum = [
            vec_add(vec, vec_scale(-cycle_sum(vec) / cycle_sum(pivot), pivot))
            for vec in rest_basis
            if vec is not pivot
        ]
        sub_vertices = sorted(set(pend_vertices) - {v})
        sub = g.induced_subgraph(sub_vertices)
        sub_pos = {vertex: j for j, vertex in enumerate(sub_vertices)}
        neighbor_positions = [sub_pos[t] for t in g.neighbors(v) if t in sub_pos]
        if not (set(g.neighbors(v)) & forest_decomposition(g, sub_vertices).support):
            raise InternalCheckError(
                "witness vertex has no supported neighbor in its deleted pendant tree"
            )
        sub_basis = null_space_basis(sub.adjacency_matrix())
        # The neighbor-sum must be nonzero or the corrected vector collapses
        # into the span of the extended pendant-tree kernel.
        y = full_support_vector(sub_basis, nonzero_sum_indices=neighbor_positions)
        coeff = -sum(y[j] for j in neighbor_positions) / cycle_sum(pivot)
        corrected = vec_add(
            vec_scale(coeff, extend_vector(pivot, rest_vertices, g)),
            extend_vector(y, sub_vertices, g),
        )
        vectors.append(corrected)
        provenance.append(CORRECTED)
        for vec in zero_sum:
            vectors.append(extend_vector(vec, rest_vertices, g))
            provenance.append(EXTENDED_COMPLEMENT)
    for vec in tree_basis:
        vectors.append(extend_vector(vec, pend_vertices, g))
        provenance.append(EXTENDED_PENDANT)
    return NullBasis(tuple(vectors), tuple(provenance))


def type2_null_basis(g: Graph, cls: UnicyclicClass) -> NullBasis:
    """Kernel basis of a Type II unicyclic graph built from subgraph kernels."""
    if cls.tag != TYPE2:
        raise WrongType("type2_null_basis needs a Type II classification")
    if not g.is_unicyclic():
        raise NotUnicyclic(f"graph has {g.n} vertices and {g.edge_count} edges")
    cyc = cls.cycle.vertices
    forest_vertices = sorted(set(range(g.n)) - set(cyc))
    forest = g.induced_subgraph(forest_vertices)

    vectors: list[Vector] = []
    provenance: list[str] = []
    for vec in null_space_basis(forest.adjacency_matrix()):
        vectors.append(extend_vector(vec, forest_vertices, g))
        provenance.append(EXTENDED_FOREST)

    if cls.cycle.length % 4 == 0:
        normalized: dict[int, Vector] = {}
        for v in cyc:
            tree_vertices = sorted(cls.pendant_trees[v])
            tree = g.induced_subgraph(tree_vertices)
            pos_v = tree_vertices.index(v)
            x = full_support_vector(null_space_basis(tree.adjacency_matrix()))
            if x[pos_v] == 0:
                raise NormalizationFailure(
                    f"full-support vector vanishes at cycle vertex {g.labels[v]!r}"
                )
            x = vec_scale(1 / x[pos_v], x)
            normalized[v] = extend_vector(x, tree_vertices, g)
        half = cls.cycle.length // 2
        z1: Vector = tuple(Fraction(0) for _ in range(g.n))
        z2: Vector = tuple(Fraction(0) for _ in range(g.n))
        for m in range(half):
            sign = Fraction(-1 if m % 2 == 0 else 1)
            z1 = vec_add(z1, vec_scale(sign, normalized[cyc[2 * m]]))
            z2 = vec_add(z2, vec_scale(sign, normalized[cyc[2 * m + 1]]))
        vectors.extend((z1, z2))
        provenance.extend((CYCLE_ALTERNATING, CYCLE_ALTERNATING))
    return NullBasis(tuple(vectors), tuple(provenance))


def constructed_null_basis(g: Graph, cls: UnicyclicClass | None) -> NullBasis:
    """Dispatch on g's classification to the Type I or Type II construction.

    A forest has no classification (``cls`` is None, as in
    ``Decomposition.cls``) and gets the canonical basis.
    """
    if g.is_forest():
        return rref_null_basis(g)
    if cls.tag == TYPE1:
        return type1_null_basis(g, cls)
    return type2_null_basis(g, cls)
