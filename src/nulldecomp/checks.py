"""Cross-validation battery: every structural claim the package relies on,
expressed as a named boolean check over one graph.

The checks pit independent computation routes against each other: constructed
kernel bases against RREF kernels, structural decompositions (built from
maximum matchings) against basis-derived ones, closed formulas against
brute-force search, and the arithmetic identities that make the case analysis
exhaustive.  Every check that reads a support does so off an exact RREF
kernel, never off the matching route it is meant to test.

Every kernel the battery reads comes from the dense reference
``linalg.null_space_basis``, never from ``linalg.sparse_null_basis``, which
builds the production kernels of ``analyze`` and ``rref_null_basis``.
``basis_count`` holds the production basis (``rref_null_basis``) to that
reference tuple for tuple, so a bug in the sparse elimination fails a check
instead of being checked against itself.

``run_checks`` reduces A(G) and reads its decomposition once, classifying
the graph once inside ``decomposition_from_basis``; every route under test
takes that classification.  Each derived forest the identities read
(pendant trees, T_v - v, G - C) gets one reference kernel from
``linalg.null_basis_on``, read by ``decomposition.kernel_decomposition`` and
shared by every check on that vertex set.  The constructed bases reduce the
same vertex sets again on purpose: they are the production construction
under test, bound for a sparse kernel, so the battery never shares their
kernels.  A subgraph is built only where an oracle needs a ``Graph``.
Every identity on independence and matching numbers reads
``decomposition.alpha`` / ``nu``.  ``structural_matches_basis`` holds the
case to its kernel definition on G - T_v and T_v.  A failure here always
means a bug somewhere, which is exactly what the fuzzing campaign is
hunting for; a check that raises any exception counts as failed.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Hashable

from .decomposition import (
    Decomposition,
    alpha,
    decomposition_from_basis,
    kernel_decomposition,
    nu,
    structural_decomposition,
)
from .graph import Graph
from .linalg import Matrix, Vector, is_zero_vector, mat_vec, null_basis_on, null_space_basis, same_span
from .oracle import (
    ENUMERATION_BUDGET,
    SEARCH_BUDGET,
    brute_alpha,
    brute_nu,
    edmonds_gallai_set,
    max_independent_intersection,
    maximum_independent_sets,
)
from .trees import forest_decomposition, tree_decomposition
from .unicyclic import (
    CASE_TI1,
    CASE_TI2,
    CASE_TI3,
    CASE_TI4,
    CASE_TII_4K,
    CASE_TII_NON4K,
    EXTENDED_FOREST,
    EXTENDED_PENDANT,
    TYPE2,
    UnicyclicClass,
    constructed_null_basis,
    recursion_nullity,
    rref_null_basis,
)


def run_checks(g: Graph) -> dict[str, bool]:
    """Run every applicable check on a forest or unicyclic graph.

    Oracle-backed checks are included only when the graph (or derived
    subgraph) fits the oracle's vertex budget (``ENUMERATION_BUDGET``,
    ``SEARCH_BUDGET``); everything else always runs.
    """
    matrix = g.adjacency_matrix()
    canonical = null_space_basis(matrix)
    d = decomposition_from_basis(g, canonical)
    if d.cls is None:
        return _forest_checks(g, matrix, canonical, d)
    return _unicyclic_checks(g, matrix, canonical, d)


def _guarded(checks: dict[str, bool], name: str, thunk: Callable[[], bool]) -> None:
    try:
        checks[name] = bool(thunk())
    except Exception:  # a raising check is a failing check, whatever it raises
        checks[name] = False


def _kernel_decomposition(g: Graph, vertices: frozenset[int]) -> Decomposition:
    """Decomposition of the forest ``vertices`` induce, read off its reference kernel."""
    return kernel_decomposition(g, null_basis_on(g.adjacency, vertices), vertices)


def _forest_checks(g: Graph, matrix: Matrix, canonical: list[Vector], d: Decomposition) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    basis = rref_null_basis(g)  # the production route for a forest
    t = tree_decomposition(g)  # the matching route the formulas are held to

    checks["basis_exact"] = all(is_zero_vector(mat_vec(matrix, v)) for v in basis.vectors)
    checks["basis_count"] = basis.vectors == tuple(canonical) and len(canonical) == t.nullity
    checks["even_n_set"] = len(d.n_vertices) % 2 == 0
    checks["support_independent"] = g.is_independent_set(d.support)
    checks["supp_core_disjoint"] = not (d.support & d.core)
    _guarded(checks, "supported_neighbor_after_deletion", lambda: _forest_neighbor_support(g, d.support))
    _guarded(checks, "formula_sum", lambda: alpha(t) + nu(t) == g.n)

    if g.n <= SEARCH_BUDGET:
        _guarded(checks, "alpha_oracle", lambda: alpha(t) == brute_alpha(g, SEARCH_BUDGET))
        _guarded(checks, "nu_oracle", lambda: nu(t) == brute_nu(g, SEARCH_BUDGET))
    if g.n <= ENUMERATION_BUDGET:
        _guarded(
            checks,
            "eg_equals_support",
            lambda: edmonds_gallai_set(g, ENUMERATION_BUDGET) == d.support,
        )
        _guarded(
            checks,
            "mis_intersection_is_support",
            lambda: max_independent_intersection(g, ENUMERATION_BUDGET) == d.support,
        )
        mis = maximum_independent_sets(g, ENUMERATION_BUDGET)
        checks["core_absent_from_some_mis"] = all(
            any(v not in s for s in mis) for v in d.core
        )
        checks["n_vertex_swings_mis"] = all(
            any(v in s for s in mis) and any(v not in s for s in mis) for v in d.n_vertices
        )
    return checks


def _forest_neighbor_support(g: Graph, support: frozenset[int]) -> bool:
    """Every off-support vertex of a forest has a supported neighbor once deleted.

    Checked per component: for v outside the support of its tree T, the set
    N(v) intersected with the support of T - v must be nonempty.
    """
    for comp in g.components():
        for v in comp:
            if v in support:
                continue
            if not (set(g.neighbors(v)) & _kernel_decomposition(g, frozenset(comp) - {v}).support):
                return False
    return True


def _unicyclic_checks(
    g: Graph, matrix: Matrix, canonical: list[Vector], d_basis: Decomposition
) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    cls = d_basis.cls  # the battery's one classification of g
    cycle_set = cls.cycle.vertex_set()
    pend = cls.pendant_trees
    kernel = cache(partial(_kernel_decomposition, g))  # reduced once per vertex set

    constructed = constructed_null_basis(g, cls)
    annihilated = [is_zero_vector(mat_vec(matrix, v)) for v in constructed.vectors]
    checks["basis_exact"] = all(annihilated)
    checks["basis_count"] = (
        len(constructed.vectors) == len(canonical) and rref_null_basis(g).vectors == tuple(canonical)
    )
    _guarded(
        checks, "nullity_recursion", lambda: recursion_nullity(g, pend, cls.witness) == len(canonical)
    )
    checks["span_equality"] = same_span(constructed.vectors, canonical)
    tag = EXTENDED_PENDANT if cls.tag != TYPE2 else EXTENDED_FOREST
    name = "pendant_extension_null" if cls.tag != TYPE2 else "forest_extension_null"
    checks[name] = all(ok for ok, prov in zip(annihilated, constructed.provenance) if prov == tag)

    # Off-support cycle vertices on the reference kernels of the pendant trees.
    pendant = {v: kernel(pend[v]) for v in cls.cycle.vertices}
    roots = [v for v in cls.cycle.vertices if v not in pendant[v].support]
    d_struct = structural_decomposition(g, cls)
    checks["structural_matches_basis"] = (
        d_basis.support == d_struct.support
        and d_basis.core == d_struct.core
        and d_basis.n_vertices == d_struct.n_vertices
        and d_struct.case == _kernel_case(g, cls, pendant)
    )
    checks["support_dichotomy"] = g.is_independent_set(d_basis.support) == (
        d_basis.case != CASE_TII_4K
    )
    expected_overlap = cycle_set if d_basis.case == CASE_TII_4K else frozenset()
    checks["supp_core_rule"] = (d_basis.support & d_basis.core) == expected_overlap
    checks["parity_rule"] = _parity_rule(d_basis)

    if g.n <= SEARCH_BUDGET:
        _guarded(checks, "alpha_oracle", lambda: alpha(d_basis) == brute_alpha(g, SEARCH_BUDGET))
        _guarded(checks, "nu_oracle", lambda: nu(d_basis) == brute_nu(g, SEARCH_BUDGET))

    # Whole-graph counts split along the class's natural cut: at the witness's
    # pendant tree for Type I, at the cycle for Type II.
    everything = frozenset(range(g.n))
    forest_vs = everything - cycle_set
    if cls.tag != TYPE2:
        cut, base = [pend[cls.witness], everything - pend[cls.witness]], 0
        alpha_name, nu_name = "alpha_splits_at_witness", "nu_splits_at_witness"
    else:
        cut, base = [forest_vs], cls.cycle.length // 2
        alpha_name, nu_name = "alpha_splits_at_cycle", "nu_splits_at_cycle"
    parts = [forest_decomposition(g, vs) for vs in cut]
    _guarded(checks, alpha_name, lambda: alpha(d_basis) == base + sum(map(alpha, parts)))
    _guarded(checks, nu_name, lambda: nu(d_basis) == base + sum(map(nu, parts)))

    # Pendant-tree identities around off-support cycle vertices, on kernels.
    if roots:
        deleted = {v: kernel(pend[v] - {v}) for v in roots}
        checks["supported_neighbor_after_deletion"] = all(
            set(g.neighbors(v)) & deleted[v].support for v in roots
        )
        checks["support_survives_root_deletion"] = all(
            pendant[v].support <= deleted[v].support for v in roots
        )
        _guarded(checks, "alpha_stable_under_root_deletion", lambda: all(
            alpha(pendant[v]) == alpha(deleted[v]) for v in roots
        ))
        _guarded(checks, "nu_drops_under_root_deletion", lambda: all(
            nu(pendant[v]) == nu(deleted[v]) + 1 for v in roots
        ))

    if cls.tag == TYPE2:
        forest_k = kernel(forest_vs)
        checks["cycle_tree_neighbors_unsupported"] = all(
            u not in forest_k.support
            for v in cls.cycle.vertices
            for u in g.neighbors(v)
            if u in pend[v]
        )
        checks["forest_support_in_pendant_supports"] = forest_k.support <= frozenset().union(
            *(d.support for d in pendant.values())
        )
        _guarded(checks, "pendant_vs_forest_alpha_identity", lambda: (
            sum(map(alpha, pendant.values())) == cls.cycle.length + alpha(forest_k)
        ))

    # Formulas and enumeration facts on the derived forests, compared by
    # label: the oracles take a built subgraph and answer in its indices, the
    # kernels answer in g's.
    cuts = [forest_vs] + [pend[v] - {v} for v in cls.cycle.vertices]
    # The enumeration budget is the smaller, so every enumerated forest is searched too.
    searched = {vs: g.induced_subgraph(vs) for vs in cuts if 0 < len(vs) <= SEARCH_BUDGET}
    _guarded(checks, "derived_forest_formulas", lambda: all(
        alpha(t) == brute_alpha(f, SEARCH_BUDGET) and nu(t) == brute_nu(f, SEARCH_BUDGET)
        for f, t in zip(searched.values(), map(tree_decomposition, searched.values()))
    ))
    enumerated = [(f, kernel(vs)) for vs, f in searched.items() if len(vs) <= ENUMERATION_BUDGET]
    checks["eg_equals_support"] = all(
        f.label_set(edmonds_gallai_set(f, ENUMERATION_BUDGET)) == g.label_set(d.support)
        for f, d in enumerated
    )
    checks["mis_intersection_is_support"] = all(
        f.label_set(max_independent_intersection(f, ENUMERATION_BUDGET)) == g.label_set(d.support)
        for f, d in enumerated
    )
    return checks


def _kernel_case(g: Graph, cls: UnicyclicClass, pendant) -> str:
    """The unicyclic case by its definition, read off the reference kernels.

    ``pendant`` maps each cycle vertex to the kernel decomposition of its
    pendant tree.  The witness v is the smallest cycle vertex off that
    support; with none the graph is Type II and the case is the cycle length
    mod 4.  With pendant tree T_v and cycle neighbors u, w of v: TI-4 when
    some kernel vector of A(G - T_v) has x_u + x_w != 0, TI-1 when all of
    them vanish at u and w, otherwise TI-2 when v is in the core of T_v and
    TI-3 when not.
    """
    witness = min((v for v, d in pendant.items() if v not in d.support), default=None)
    if witness is None:
        return CASE_TII_4K if cls.cycle.length % 4 == 0 else CASE_TII_NON4K
    u, w = cls.cycle.neighbors_on_cycle(witness)
    basis = null_basis_on(g.adjacency, frozenset(range(g.n)) - cls.pendant_trees[witness])
    if any(vec[u] + vec[w] != 0 for vec in basis):
        return CASE_TI4
    if all(vec[u] == vec[w] == 0 for vec in basis):
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
