from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulldecomp import Graph, GeneratorSpec, classify, generate_unicyclic
from nulldecomp.errors import EmptyBasis, InternalCheckError, NotForest
from nulldecomp.linalg import null_basis_on, null_space_basis
from nulldecomp.decomposition import alpha, nu
from nulldecomp.trees import Decomposition, forest_decomposition, full_support_vector, rooted_forest, tree_decomposition

from conftest import (
    cycle_graph,
    dense,
    cycle_with_attachments,
    forests_with_subsets,
    path_graph,
    rooted,
    star_graph,
    unicyclic_pieces,
)


def labels_of(g: Graph, indices) -> set[str]:
    return set(g.label_set(indices))


def test_support_path3():
    g = path_graph(3)
    assert labels_of(g, tree_decomposition(g).support) == {"p00", "p02"}


def test_support_path2_empty():
    assert tree_decomposition(path_graph(2)).support == frozenset()


def test_support_star():
    g = star_graph(3)
    assert labels_of(g, tree_decomposition(g).support) == {"x00", "x01", "x02"}


def test_support_rejects_cycles():
    with pytest.raises(NotForest):
        tree_decomposition(cycle_graph(4)).support
    with pytest.raises(NotForest):
        tree_decomposition(cycle_graph(4))


def test_decomposition_path3():
    d = tree_decomposition(path_graph(3))
    assert d.support == {0, 2} and d.core == {1} and d.n_vertices == frozenset()
    assert d.nullity == 1


def test_decomposition_path4_all_n_vertices():
    d = tree_decomposition(path_graph(4))
    assert d.support == frozenset() and d.core == frozenset()
    assert d.n_vertices == {0, 1, 2, 3} and d.nullity == 0


def test_decomposition_single_vertex():
    g = Graph.from_edges([], isolated=["v"])
    d = tree_decomposition(g)
    assert d.support == {0} and d.core == frozenset() and d.n_vertices == frozenset()


def test_decomposition_forest_distributes():
    forest = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z"), ("z", "w")]
    )
    d = tree_decomposition(forest)
    assert labels_of(forest, d.support) == {"a", "c"}
    assert labels_of(forest, d.core) == {"b"}
    assert labels_of(forest, d.n_vertices) == {"x", "y", "z", "w"}


def test_alpha_nu_examples():
    for g, expected in ((path_graph(3), (2, 1)), (path_graph(4), (2, 2)), (star_graph(3), (3, 1))):
        d = tree_decomposition(g)
        assert (alpha(d), nu(d)) == expected


def test_alpha_plus_nu_is_order():
    for g in (path_graph(3), path_graph(8), star_graph(5)):
        d = tree_decomposition(g)
        assert alpha(d) + nu(d) == g.n


def sparse(vec) -> dict[int, Fraction]:
    """A dense vector as the ``{index: Fraction}`` map of its nonzero coordinates."""
    return {i: Fraction(x) for i, x in enumerate(vec) if x != 0}


def vecs(*rows):
    return [sparse(row) for row in rows]


def test_full_support_single_vector():
    (v,) = vecs([1, 0, -1])
    assert full_support_vector([v]) == v


def test_full_support_two_disjoint():
    basis = vecs([1, 0, -1, 0], [0, 1, 0, -1])
    result = dense(full_support_vector(basis), 4)
    assert all(x != 0 for x in result)
    assert result == tuple(Fraction(x) for x in (1, 1, -1, -1))


def test_full_support_search_skips_cancelling_t():
    # t=1 gives (2, 0) which cancels; t=2 gives (3, 1).
    basis = vecs([1, -1], [1, 1])
    assert dense(full_support_vector(basis), 2) == (Fraction(3), Fraction(1))


def test_full_support_empty_basis():
    with pytest.raises(EmptyBasis):
        full_support_vector([])


def test_full_support_respects_sum_constraint():
    # First full-support hit has coordinate sum zero at {0, 2}; the constraint
    # forces the search onward.
    basis = vecs([-1, 1, 0, 0], [0, 0, 1, 0])
    free = dense(full_support_vector(basis), 4)
    assert sum(free[i] for i in (0, 2)) == 0
    constrained = dense(full_support_vector(basis, nonzero_sum_indices=(0, 2)), 4)
    assert sum(constrained[i] for i in (0, 2)) != 0
    union = {0, 1, 2}
    assert all(constrained[i] != 0 for i in union)


def test_full_support_refuses_a_sum_that_vanishes_on_the_span():
    # Every basis vector sums to zero over {0, 1}, so every combination does:
    # no t can make the sum nonzero, and the search must not start.
    basis = vecs([1, -1, 0], [0, 0, 1])
    with pytest.raises(InternalCheckError, match="vanishes on the entire span"):
        full_support_vector(basis, nonzero_sum_indices=(0, 1))


def test_full_support_matches_union_on_tree_kernels():
    for g in (star_graph(4), path_graph(9)):
        basis = [sparse(vec) for vec in null_space_basis(g.adjacency_matrix())]
        combined = dense(full_support_vector(basis), g.n)
        union = tree_decomposition(g).support
        assert {i for i, x in enumerate(combined) if x != 0} == set(union)


def dense_full_support_vector(basis, nonzero_sum_indices=None):
    """The search as it ran on whole n-tuples: the reference that pins t and the tuple."""
    union = frozenset(i for vec in basis for i, x in enumerate(vec) if x != 0)
    t = 0
    while True:
        t += 1
        combo = tuple(Fraction(0) for _ in basis[0])
        weight = Fraction(1)
        for vec in basis:
            combo = tuple(x + weight * y for x, y in zip(combo, vec))
            weight *= t
        if any(combo[i] == 0 for i in union):
            continue
        if nonzero_sum_indices is not None and sum(combo[i] for i in nonzero_sum_indices) == 0:
            continue
        return combo


@settings(max_examples=200, deadline=None)
@given(forests_with_subsets(), st.data())
def test_full_support_equals_the_dense_search(forest, data):
    g, vertices = forest
    canonical = [dense(vec, g.n) for vec in null_basis_on(g.adjacency, vertices)]
    if not canonical:
        return
    # The canonical kernel almost always succeeds at t = 1; adding a multiple of
    # each vector to the next keeps the span but makes t = 1 cancel often.
    ks = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=len(canonical), max_size=len(canonical)))
    mixed = [canonical[0]] + [
        tuple(x + k * y for x, y in zip(vec, prev))
        for k, prev, vec in zip(ks[1:], canonical, canonical[1:])
    ]
    # Sum indices anywhere in g, so some fall off the union support or off ``vertices``.
    sums = data.draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=g.n))
    for reference in (canonical, mixed):
        basis = [sparse(vec) for vec in reference]
        assert dense(full_support_vector(basis), g.n) == dense_full_support_vector(reference)
        if all(sum(vec[i] for i in sums) == 0 for vec in reference):
            with pytest.raises(InternalCheckError, match="vanishes on the entire span"):
                full_support_vector(basis, nonzero_sum_indices=sums)
            continue
        expected = dense_full_support_vector(reference, nonzero_sum_indices=sums)
        assert dense(full_support_vector(basis, nonzero_sum_indices=sums), g.n) == expected


# -- the matching route against the kernel --------------------------------


def kernel_decomposition(g: Graph, vertices) -> Decomposition:
    """The decomposition read off the canonical kernel of the induced subgraph, in g's indices."""
    vs = sorted(vertices)
    basis = null_space_basis(g.induced_subgraph(vs).adjacency_matrix())
    support = frozenset(vs[j] for vec in basis for j, x in enumerate(vec) if x != 0)
    core = g.neighborhood(support) & frozenset(vs)
    return Decomposition(support, core, frozenset(vs) - support - core, len(basis))


@settings(max_examples=200, deadline=None)
@given(forests_with_subsets())
def test_forest_decomposition_matches_kernel_on_random_forests(drawn):
    g, subset = drawn
    assert tree_decomposition(g) == kernel_decomposition(g, range(g.n))
    for vertices in (range(g.n), subset):  # rooted at the smallest vertices and at shuffled ones
        assert forest_decomposition(g, rooted(g, vertices)) == kernel_decomposition(g, vertices)
        assert forest_decomposition(g, rooted(g, vertices, random.Random(len(subset)))) == kernel_decomposition(g, vertices)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=10_000))
def test_forest_decomposition_matches_kernel_on_unicyclic_pieces(n, seed):
    g = generate_unicyclic(GeneratorSpec(n=n, seed=seed))
    for piece in unicyclic_pieces(g):
        assert forest_decomposition(g, piece) == kernel_decomposition(g, piece)


def test_forest_decomposition_matches_kernel_on_seeded_sample():
    for i in range(120):
        g = generate_unicyclic(GeneratorSpec(n=3 + i % 12, seed=7000 + i))
        for piece in unicyclic_pieces(g):
            assert forest_decomposition(g, piece) == kernel_decomposition(g, piece), (
                g.to_edge_list(),
                sorted(piece),
            )


def test_forest_decomposition_rejects_the_cycle():
    # A rooted forest holds no cycle, so the refusal is the whole graph's, in
    # its rooting: tree_decomposition and rooted_forest refuse g.
    g = cycle_with_attachments(5, tails={0: 2, 2: 1})
    cycle = classify(g).cycle.vertex_set()
    with pytest.raises(NotForest):
        tree_decomposition(g)
    with pytest.raises(NotForest):
        rooted_forest(g)
    assert forest_decomposition(g, rooted(g, cycle - {min(cycle)})).nullity == kernel_decomposition(
        g, cycle - {min(cycle)}
    ).nullity
