"""Property-based and seeded-corpus checks of the structural invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from nulldecomp import (
    GeneratorSpec,
    classify,
    constructed_null_basis,
    generate_unicyclic,
    parse_edge_list,
    run_checks,
)
from nulldecomp.decomposition import alpha, decomposition_from_basis, nu, structural_decomposition
from nulldecomp.linalg import is_zero_vector, mat_vec, null_space_basis, rref, same_span
from nulldecomp.oracle import brute_alpha, brute_nu
from nulldecomp.trees import tree_decomposition
from nulldecomp.unicyclic import CASE_TII_4K, recursion_nullity

from conftest import dense, kernel_case
from test_oracle import _reference_nu


@st.composite
def unicyclic_graphs(draw, min_n=5, max_n=13):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return generate_unicyclic(GeneratorSpec(n=n, seed=seed))


@st.composite
def forests(draw):
    g = draw(unicyclic_graphs())
    cycle = classify(g).cycle
    drop = draw(st.sampled_from(sorted(cycle.vertices)))
    return g.delete_vertices([drop])


common = settings(max_examples=40, deadline=None)


@common
@given(unicyclic_graphs())
def test_round_trip(g):
    assert parse_edge_list(g.to_edge_list()) == g


@common
@given(unicyclic_graphs())
def test_adjacency_matrix_shape(g):
    matrix = g.adjacency_matrix()
    for i in range(g.n):
        assert matrix[i][i] == 0
        assert sum(matrix[i]) == g.degree(i)
        for j in range(g.n):
            assert matrix[i][j] == matrix[j][i]


@common
@given(unicyclic_graphs())
def test_pendant_trees_partition(g):
    pend = classify(g).pendant_trees
    assert sum(len(s) for s in pend.values()) == g.n


@common
@given(unicyclic_graphs())
def test_constructed_basis_is_exact_and_spans(g):
    cls = classify(g)
    basis = constructed_null_basis(g, cls)
    matrix = g.adjacency_matrix()
    nullity = len(null_space_basis(matrix))
    assert len(basis.vectors) == nullity == recursion_nullity(cls)
    for vec in basis.vectors:
        assert is_zero_vector(mat_vec(matrix, dense(vec, g.n)))
    assert same_span([dense(vec, g.n) for vec in basis.vectors], null_space_basis(matrix))


@common
@given(unicyclic_graphs())
def test_structural_equals_basis_decomposition(g):
    a = decomposition_from_basis(g)
    b = structural_decomposition(g, a.cls)
    assert (a.support, a.core, a.n_vertices, a.case) == (b.support, b.core, b.n_vertices, b.case)
    assert b.case == kernel_case(g, a.cls)


@common
@given(unicyclic_graphs(max_n=12))
def test_formulas_match_oracle(g):
    d = decomposition_from_basis(g)
    assert alpha(d) == brute_alpha(g)
    assert nu(d) == brute_nu(g)
    assert alpha(d) + nu(d) <= g.n


@common
@given(unicyclic_graphs())
def test_support_independence_dichotomy(g):
    d = decomposition_from_basis(g)
    assert g.is_independent_set(d.support) == (d.case != CASE_TII_4K)
    overlap = d.support & d.core
    if d.case == CASE_TII_4K:
        assert overlap == classify(g).cycle.vertex_set()
    else:
        assert overlap == frozenset()


@common
@given(forests())
def test_forest_support_independent_and_formulas(f):
    d = tree_decomposition(f)
    assert f.is_independent_set(d.support)
    assert alpha(d) + nu(d) == f.n
    if f.n <= 13:
        assert alpha(d) == brute_alpha(f)
        assert nu(d) == brute_nu(f)


@common
@given(forests())
def test_rref_idempotent_on_forest_matrices(f):
    if f.n == 0:
        return
    reduced, _, _ = rref(f.adjacency_matrix())
    assert rref(reduced)[0] == reduced


def test_check_battery_over_seeded_sample():
    for i in range(60):
        g = generate_unicyclic(GeneratorSpec(n=5 + i % 9, seed=4000 + i))
        checks = run_checks(g)
        failed = {name for name, ok in checks.items() if not ok}
        assert not failed, (failed, g.to_edge_list())


@common
@given(unicyclic_graphs(max_n=12))
def test_recursive_matching_search_matches_exhaustive(g):
    # The line-graph search against a reference over edge subsets that shares no oracle code.
    assert brute_nu(g) == _reference_nu(g)
    forest = g.delete_vertices(classify(g).cycle.vertices)
    if forest.n:
        assert brute_nu(forest) == _reference_nu(forest)
