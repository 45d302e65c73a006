"""Cross-validation battery: every structural claim the package relies on,
expressed as a named boolean check over one graph.

The checks pit independent computation routes against each other: constructed
kernel bases against RREF kernels, structural decompositions (built from
maximum matchings) against basis-derived ones, closed formulas against
brute-force search, and the arithmetic identities that make the case analysis
exhaustive.  Every check that reads a support does so off an exact RREF
kernel, never off the matching route it is meant to test.

Every kernel the battery reads comes from the dense reference
``linalg.null_space_basis`` of a matrix ``_reference_kernel`` builds from
g's adjacency lists, never from a production kernel of ``linalg``
(``null_basis_on``, ``forest_null_basis_on``); A(G)·v sums v over those
lists.  Read back as zero-free ``{index: Fraction}`` dicts, the production
format, they hold ``rref_null_basis`` of the constructed basis vector for
vector in ``basis_count``, the one basis a run builds: a forest's
constructed basis itself, a unicyclic graph's brought to reduced echelon
form.  So a bug in either production kernel or in that reduction,
or a stored 0, fails a check instead of being checked against itself.  Only
``span_equality`` writes vectors out densely.

``run_checks`` is one body for forests and unicyclic graphs.  It reduces
A(G) and reads its decomposition once, classifying g once inside
``decomposition_from_basis``; every route under test takes that class.
The checks both classes share are written once, and each derived forest
gets one reference kernel, shared by every check on that vertex set.  The
recursion, the structural decomposition and the split identities read the
matching decompositions the class carries, so no vertex set is decomposed
twice.  A construction that raises fails every check on its vectors.  A
subgraph is built only where an oracle needs a ``Graph``; every identity on
independence and matching numbers reads ``decomposition.alpha`` / ``nu``.
``structural_matches_basis`` holds the matching route's support, core and
N-vertices to the kernel reading on every graph, and a unicyclic graph's
case to its kernel definition on G - T_v and T_v.  A failure here always
means a bug somewhere, which is exactly what the fuzzing campaign is
hunting for.  Every check runs through ``_guarded``, so one that raises
counts as failed; only the inputs checks share (kernels, decompositions,
the intersection and union of a forest's maximum independent sets,
annihilation) can escape.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Hashable, Sequence

from .decomposition import (
    Decomposition,
    alpha,
    decomposition_from_basis,
    kernel_decomposition,
    nu,
    structural_decomposition,
)
from .errors import DimensionMismatch
from .graph import Graph
from .linalg import ONE, ZERO, DenseVector, Vector, null_space_basis, same_span
from .oracle import (
    SEARCH_BUDGET,
    brute_alpha,
    brute_nu,
    edmonds_gallai_set,
    max_independent_intersection,
    max_independent_union,
)
from .trees import tree_decomposition
from .unicyclic import (
    CASE_TI1,
    CASE_TI2,
    CASE_TI3,
    CASE_TI4,
    CASE_TII_4K,
    CASE_TII_NON4K,
    EXTENDED_FOREST,
    EXTENDED_PENDANT,
    TYPE1,
    NullBasis,
    UnicyclicClass,
    constructed_null_basis,
    recursion_nullity,
    rref_null_basis,
)


# The most vertices of a forest whose set-valued checks run.  The oracle answers
# up to SEARCH_BUDGET, but asking above 14 would add check keys on graphs with
# n = 15-22 and so change the recorded check maps (golden and benchmark
# digests, ``analyze --verify --json``); that waits for skips reported in a
# field of their own.
SET_CHECK_GATE = 14

Forests = list[tuple[Graph, Decomposition]]  # each forest with its kernel reading, in g's indices
Kernel = Callable[[frozenset[int]], Decomposition]  # a vertex set's reference-kernel reading


def run_checks(g: Graph) -> dict[str, bool]:
    """Run every applicable check on a forest or unicyclic graph.

    Oracle-backed checks run only on graphs the oracle is asked about:
    ``alpha_oracle``, ``nu_oracle`` and ``derived_forest_formulas`` on
    graphs and derived forests of at most ``SEARCH_BUDGET`` vertices; the
    set-valued checks (``core_absent_from_some_mis``,
    ``n_vertex_swings_mis``, ``eg_equals_support``,
    ``mis_intersection_is_support``) on forests of at most
    ``SET_CHECK_GATE``.  Everything else always runs.
    """
    canonical = _reference_kernel(g, frozenset(range(g.n)))
    d = decomposition_from_basis(g, canonical)
    cls = d.cls  # the battery's one classification of g
    route = structural_decomposition(g, cls)  # the matching route under test
    kernel = cache(partial(_kernel_decomposition, g))  # reduced once per vertex set
    checks: dict[str, bool] = {}
    try:
        constructed = constructed_null_basis(g, cls)
    except Exception:  # a construction that raises fails every check on its vectors
        constructed = None
    built = constructed is not None
    annihilated = [_annihilated(g, v) for v in constructed.vectors] if built else []
    _guarded(checks, "basis_exact", lambda: built and all(annihilated))
    _guarded(checks, "basis_count", lambda: (
        built
        and len(constructed.vectors) == len(canonical) == route.nullity
        and rref_null_basis(constructed).vectors == tuple(canonical)
    ))

    _guarded(checks, "structural_matches_basis", lambda: (
        (route.support, route.core, route.n_vertices) == (d.support, d.core, d.n_vertices)
        and (cls is None or route.case == _kernel_case(g, cls, kernel))
    ))
    formulas = route if cls is None else d  # a forest's by matching, a unicyclic graph's by kernel
    if g.n <= SEARCH_BUDGET:
        _guarded(checks, "alpha_oracle", lambda: alpha(formulas) == brute_alpha(g))
        _guarded(checks, "nu_oracle", lambda: nu(formulas) == brute_nu(g))

    # The class's own checks return the forests the set-valued oracles read.
    # Each tree T around an off-support v is a forest component, or v's pendant tree.
    if cls is None:
        small_forests = _forest_checks(checks, g, d, route)
        pairs = [(frozenset(comp), v) for comp in g.components() for v in comp if v not in d.support]
    else:
        small_forests = _unicyclic_checks(checks, g, d, kernel, canonical, constructed, annihilated)
        pairs = [(tree, v) for v, tree in cls.pendant_trees.items() if v not in kernel(tree).support]
    if cls is None or pairs:
        _guarded(checks, "supported_neighbor_after_deletion", lambda: all(
            set(g.neighbors(v)) & kernel(tree - {v}).support for tree, v in pairs
        ))
    if cls is not None or small_forests:  # compared by label: f answers in its own indices, e in g's
        _guarded(checks, "eg_equals_support", lambda: all(
            f.label_set(edmonds_gallai_set(f)) == g.label_set(e.support) for f, e in small_forests
        ))
        _guarded(checks, "mis_intersection_is_support", lambda: all(
            f.label_set(max_independent_intersection(f)) == g.label_set(e.support) for f, e in small_forests
        ))
    return checks


def _guarded(checks: dict[str, bool], name: str, thunk: Callable[[], bool]) -> None:
    try:
        checks[name] = bool(thunk())
    except Exception:  # a raising check is a failing check, whatever it raises
        checks[name] = False


def _reference_kernel(g: Graph, vertices: frozenset[int]) -> list[Vector]:
    """Dense RREF kernel of the subgraph ``vertices`` induce, in g's indices, zeros dropped.

    Row and column j of the matrix, built straight from g's adjacency lists,
    belong to the j-th smallest vertex, as in ``Graph.induced_subgraph``.
    """
    vs = sorted(vertices)
    matrix = [[ONE if w in nbrs else ZERO for w in vs] for nbrs in (set(g.adjacency[v]) for v in vs)]
    return [{v: x for v, x in zip(vs, vec) if x} for vec in null_space_basis(matrix)]


def _dense(vectors: Sequence[Vector], n: int) -> list[DenseVector]:
    return [tuple(vec.get(i, ZERO) for i in range(n)) for vec in vectors]


def _annihilated(g: Graph, vec: Vector) -> bool:
    """A(G)·vec = 0, each row summed over one of g's adjacency lists: exact, O(m)."""
    if any(not 0 <= i < g.n for i in vec):
        raise DimensionMismatch(f"graph has {g.n} vertices, vector has a coordinate outside them")
    return all(sum(vec.get(w, ZERO) for w in nbrs) == 0 for nbrs in g.adjacency)


def _kernel_decomposition(g: Graph, vertices: frozenset[int]) -> Decomposition:
    """Decomposition of the forest ``vertices`` induce, read off its reference kernel."""
    return kernel_decomposition(g, _reference_kernel(g, vertices), vertices)


def _forest_checks(checks: dict[str, bool], g: Graph, d: Decomposition, t: Decomposition) -> Forests:
    """The forest's own checks, on its kernel reading ``d`` and matching route ``t``."""
    _guarded(checks, "even_n_set", lambda: len(d.n_vertices) % 2 == 0)
    _guarded(checks, "support_independent", lambda: g.is_independent_set(d.support))
    _guarded(checks, "supp_core_disjoint", lambda: not (d.support & d.core))
    _guarded(checks, "formula_sum", lambda: alpha(t) + nu(t) == g.n)
    if g.n > SET_CHECK_GATE:
        return []
    every, some = max_independent_intersection(g), max_independent_union(g)  # of all maximum independent sets
    _guarded(checks, "core_absent_from_some_mis", lambda: not d.core & every)
    _guarded(checks, "n_vertex_swings_mis", lambda: d.n_vertices <= some - every)
    return [(g, d)]


def _unicyclic_checks(
    checks: dict[str, bool], g: Graph, d_basis: Decomposition, kernel: Kernel,
    canonical: list[Vector], constructed: NullBasis | None, annihilated: list[bool],
) -> Forests:
    """The unicyclic graph's own checks, on the class ``d_basis`` carries."""
    cls = d_basis.cls
    cycle_set = cls.cycle.vertex_set()
    pend = cls.pendant_trees
    built = constructed is not None
    _guarded(checks, "nullity_recursion", lambda: recursion_nullity(cls) == len(canonical))
    _guarded(checks, "span_equality", lambda: (
        built and same_span(_dense(constructed.vectors, g.n), _dense(canonical, g.n))
    ))

    pendant = {v: kernel(pend[v]) for v in cls.cycle.vertices}  # the pendant trees' reference kernels
    _guarded(checks, "support_dichotomy", lambda: g.is_independent_set(d_basis.support) == (
        d_basis.case != CASE_TII_4K
    ))
    expected_overlap = cycle_set if d_basis.case == CASE_TII_4K else frozenset()
    _guarded(checks, "supp_core_rule", lambda: (d_basis.support & d_basis.core) == expected_overlap)
    _guarded(checks, "parity_rule", lambda: _parity_rule(d_basis))

    # The one class branch.  Whole-graph counts split along the class's
    # natural cut, into the pieces the class carries: the witness's pendant
    # tree and G - T_v for Type I, G - C and the cycle for Type II.  The
    # class also names the constructed vectors that extend a subforest
    # kernel by zeros, and Type II has identities of its own.
    forest_vs = frozenset(range(g.n)) - cycle_set
    if cls.tag == TYPE1:
        parts, base, at = [cls.pendant_decompositions[cls.witness], cls.complement], 0, "witness"
        extension, extended = "pendant_extension_null", EXTENDED_PENDANT
    else:
        parts, base, at = [cls.complement], cls.cycle.length // 2, "cycle"
        extension, extended = "forest_extension_null", EXTENDED_FOREST
        forest_k = kernel(forest_vs)
        _guarded(checks, "cycle_tree_neighbors_unsupported", lambda: all(
            u not in forest_k.support
            for v in cls.cycle.vertices
            for u in g.neighbors(v)
            if u in pend[v]
        ))
        _guarded(checks, "forest_support_in_pendant_supports", lambda: forest_k.support <= frozenset().union(
            *(d.support for d in pendant.values())
        ))
        _guarded(checks, "pendant_vs_forest_alpha_identity", lambda: (
            sum(map(alpha, pendant.values())) == cls.cycle.length + alpha(forest_k)
        ))
    _guarded(checks, extension, lambda: built and all(
        ok for ok, prov in zip(annihilated, constructed.provenance) if prov == extended
    ))
    _guarded(checks, f"alpha_splits_at_{at}", lambda: alpha(d_basis) == base + sum(map(alpha, parts)))
    _guarded(checks, f"nu_splits_at_{at}", lambda: nu(d_basis) == base + sum(map(nu, parts)))

    # Pendant-tree identities around off-support cycle vertices, on kernels.
    deleted = {v: kernel(pend[v] - {v}) for v in cls.cycle.vertices if v not in pendant[v].support}
    if deleted:
        _guarded(checks, "support_survives_root_deletion", lambda: all(
            pendant[v].support <= d.support for v, d in deleted.items()
        ))
        _guarded(checks, "alpha_stable_under_root_deletion", lambda: all(
            alpha(pendant[v]) == alpha(d) for v, d in deleted.items()
        ))
        _guarded(checks, "nu_drops_under_root_deletion", lambda: all(
            nu(pendant[v]) == nu(d) + 1 for v, d in deleted.items()
        ))

    cuts = [forest_vs] + [pend[v] - {v} for v in cls.cycle.vertices]
    # The set-check gate is below the search budget, so every forest the set checks read is searched too.
    searched = {vs: g.induced_subgraph(vs) for vs in cuts if 0 < len(vs) <= SEARCH_BUDGET}
    _guarded(checks, "derived_forest_formulas", lambda: all(
        alpha(t) == brute_alpha(f) and nu(t) == brute_nu(f)
        for f, t in zip(searched.values(), map(tree_decomposition, searched.values()))
    ))
    return [(f, kernel(vs)) for vs, f in searched.items() if len(vs) <= SET_CHECK_GATE]


def _kernel_case(g: Graph, cls: UnicyclicClass, kernel: Kernel) -> str:
    """The unicyclic case by its definition, read off the reference kernels.

    ``kernel`` gives the reference-kernel decomposition of a vertex set.
    The witness v is the smallest cycle vertex off the support of its
    pendant tree; with none the graph is Type II and the case is the cycle
    length mod 4.  With pendant tree T_v and cycle neighbors u, w of v:
    TI-4 when some kernel vector of A(G - T_v) has x_u + x_w != 0, TI-1
    when all of them vanish at u and w, otherwise TI-2 when v is in the
    core of T_v and TI-3 when not.
    """
    pendant = {v: kernel(cls.pendant_trees[v]) for v in cls.cycle.vertices}
    witness = min((v for v, d in pendant.items() if v not in d.support), default=None)
    if witness is None:
        return CASE_TII_4K if cls.cycle.length % 4 == 0 else CASE_TII_NON4K
    u, w = cls.cycle.neighbors_on_cycle(witness)
    basis = _reference_kernel(g, frozenset(range(g.n)) - cls.pendant_trees[witness])
    if any(vec.get(u, ZERO) + vec.get(w, ZERO) != 0 for vec in basis):
        return CASE_TI4
    if all(vec.get(u, ZERO) == vec.get(w, ZERO) == 0 for vec in basis):
        return CASE_TI1
    return CASE_TI2 if witness in pendant[witness].core else CASE_TI3


def _parity_rule(d: Decomposition) -> bool:
    """Floor/ceil arguments have the parity the case analysis proves.

    The argument |N| - |support ∩ core| is even in TI-1, TI-2, TI-4 and
    TII-4k, odd in TI-3, and in TII-non4k it matches the cycle length's
    parity (the forest contribution to N is always even).
    """
    value = len(d.n_vertices) - len(d.support & d.core)
    if d.case == CASE_TI3:
        return value % 2 == 1
    if d.case == CASE_TII_NON4K:
        return value % 2 == d.cls.cycle.length % 2
    return value % 2 == 0


def minimize_failing_graph(g: Graph, fails: Callable[[Graph], Hashable]) -> Graph:
    """Greedy shrink: drop leaves while the graph still fails the same way.

    ``fails`` gives a graph's failure signature, for example the set of its
    failed check names; an exception it raises has its type as signature.
    A candidate is kept only when its signature equals the original one, so
    the shrink cannot wander onto a different bug.  Leaf deletion preserves
    the unicyclic class, so the result stays a valid reproduction for every
    unicyclic-only code path.
    """

    def signature(h: Graph) -> Hashable:
        try:
            return fails(h)
        except Exception as exc:
            return type(exc)

    target = signature(g)
    current = g
    while True:
        for v in range(current.n):
            if current.degree(v) == 1:
                candidate = current.delete_vertices([v])
                if signature(candidate) == target:
                    current = candidate
                    break
        else:
            return current
