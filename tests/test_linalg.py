from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from nulldecomp import Graph, GeneratorSpec, generate_unicyclic
from nulldecomp.linalg import (
    is_zero_vector,
    mat_vec,
    null_basis_on,
    null_space_basis,
    row_space_signature,
    rref,
    same_span,
    sparse_null_basis,
)

from conftest import cycle_graph, forests_with_subsets, path_graph, unicyclic_pieces


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity():
    m = frac_matrix([[1, 0], [0, 1]])
    reduced, rank, pivots = rref(m)
    assert reduced == m
    assert rank == 2 and pivots == (0, 1)


def test_rref_zero_matrix():
    m = frac_matrix([[0, 0, 0]] * 3)
    reduced, rank, pivots = rref(m)
    assert reduced == m and rank == 0 and pivots == ()


def test_rref_path3_rank():
    # A of a 3-vertex path: [[0,1,0],[1,0,1],[0,1,0]] eliminates to rank 2.
    _, rank, _ = rref(path_graph(3).adjacency_matrix())
    assert rank == 2


def test_rref_idempotent():
    m = cycle_graph(6).adjacency_matrix()
    reduced, _, _ = rref(m)
    again, _, _ = rref(reduced)
    assert again == reduced


def test_null_space_path3():
    basis = null_space_basis(path_graph(3).adjacency_matrix())
    assert len(basis) == 1
    (vec,) = basis
    # Proportional to (1, 0, -1) on the path's ends.
    assert vec[1] == 0 and vec[0] == -vec[2] != 0


def test_null_space_sizes():
    assert len(null_space_basis(cycle_graph(4).adjacency_matrix())) == 2
    assert null_space_basis(frac_matrix([[0, 1], [1, 0]])) == []


def test_nullity_examples():
    # Columns minus rank.
    assert 5 - rref(cycle_graph(5).adjacency_matrix())[1] == 0
    assert 8 - rref(cycle_graph(8).adjacency_matrix())[1] == 2
    assert 1 - rref([[Fraction(0)]])[1] == 1


def test_basis_vectors_annihilate_exactly():
    for g in (cycle_graph(4), cycle_graph(8), path_graph(7)):
        matrix = g.adjacency_matrix()
        basis = null_space_basis(matrix)
        assert len(basis) == len(matrix) - rref(matrix)[1]
        for vec in basis:
            assert is_zero_vector(mat_vec(matrix, vec))


def test_canonical_free_column_pattern():
    matrix = cycle_graph(4).adjacency_matrix()
    basis = null_space_basis(matrix)
    _, _, pivots = rref(matrix)
    free = [c for c in range(4) if c not in pivots]
    assert len(basis) == len(free)
    for vec, own in zip(basis, free):
        assert vec[own] == 1
        for other in free:
            if other != own:
                assert vec[other] == 0


def test_denominator_clearing_keeps_null_vectors():
    for g in (cycle_graph(12), path_graph(9)):
        matrix = g.adjacency_matrix()
        for vec in null_space_basis(matrix):
            scale = math.lcm(*(x.denominator for x in vec))
            integral = [x * scale for x in vec]
            assert all(x.denominator == 1 for x in integral)
            assert is_zero_vector(mat_vec(matrix, integral))


def test_same_span():
    a = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    b = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    assert same_span(a, b)
    assert not same_span(a, [(Fraction(1), Fraction(1))])
    assert same_span([], [])
    assert row_space_signature([(Fraction(0), Fraction(0))]) == ()


# -- the sparse production kernel against the dense reference ----------------


def assert_sparse_matches_dense(g: Graph, vertices=None) -> None:
    """Same canonical basis, tuple for tuple, and every coordinate a Fraction.

    With ``vertices`` the comparison runs on the subgraph they induce.
    """
    if vertices is not None:
        g = g.induced_subgraph(sorted(vertices))
    sparse = sparse_null_basis(g.adjacency)
    assert sparse == null_space_basis(g.adjacency_matrix()), g.to_edge_list()
    assert all(type(x) is Fraction for vec in sparse for x in vec)


@settings(max_examples=200, deadline=None)
@given(forests_with_subsets())
def test_sparse_kernel_matches_dense_on_random_forests(drawn):
    g, subset = drawn
    assert_sparse_matches_dense(g)
    assert_sparse_matches_dense(g, subset)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=10_000))
def test_sparse_kernel_matches_dense_on_unicyclic_pieces(n, seed):
    g = generate_unicyclic(GeneratorSpec(n=n, seed=seed))
    assert_sparse_matches_dense(g)
    for piece in unicyclic_pieces(g):
        assert_sparse_matches_dense(g, piece)


def test_sparse_kernel_matches_dense_on_seeded_unicyclic_pieces():
    for i in range(100):
        g = generate_unicyclic(GeneratorSpec(n=3 + i % 16, seed=9000 + i))
        assert_sparse_matches_dense(g)
        for piece in unicyclic_pieces(g):
            assert_sparse_matches_dense(g, piece)


@st.composite
def graphs_with_subsets(draw):
    """A random graph on up to 11 vertices, usually with several cycles, and a vertex subset."""
    n = draw(st.integers(min_value=1, max_value=11))
    labels = [f"g{i:02d}" for i in range(n)]
    pairs = list(combinations(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges([pair for pair, k in zip(pairs, keep) if k], isolated=labels)
    subset = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return g, [v for v in range(n) if subset[v]]


@settings(max_examples=200, deadline=None)
@given(graphs_with_subsets())
def test_sparse_kernel_matches_dense_on_graphs_with_cycles(drawn):
    g, subset = drawn
    assert_sparse_matches_dense(g)
    assert_sparse_matches_dense(g, subset)


def test_sparse_kernel_matches_dense_on_several_cycles():
    # A unicyclic graph with chords added is what `basis --method rref` may get.
    for i in range(40):
        g = generate_unicyclic(GeneratorSpec(n=6 + i % 20, seed=500 + i))
        chords = [(g.labels[j], g.labels[(j * 7 + 3) % g.n]) for j in range(0, g.n, 3)]
        edges = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
        edges |= {frozenset(c) for c in chords if c[0] != c[1]}
        h = Graph.from_edges(tuple(sorted(e)) for e in edges)
        assert h.edge_count > h.n
        assert_sparse_matches_dense(h)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(combinations([f"k{i}" for i in range(n)], 2))


def test_sparse_kernel_edge_cases():
    one = Graph.from_edges([], isolated=["v"])
    isolated = Graph.from_edges([("a", "b")], isolated=["x", "y", "z"])
    for g in [one, isolated, complete_graph(5), cycle_graph(8)]:
        assert_sparse_matches_dense(g)
    assert_sparse_matches_dense(isolated, [0, 2, 4])
    assert sparse_null_basis(()) == []
    assert sparse_null_basis(one.adjacency) == [(Fraction(1),)]
    assert len(sparse_null_basis(isolated.adjacency)) == 3
    assert sparse_null_basis(complete_graph(5).adjacency) == []
    assert len(sparse_null_basis(cycle_graph(8).adjacency)) == 2


# -- the kernel over a vertex set against the subgraph it induces ------------


def assert_kernel_on_matches_subgraph(g: Graph, vertices) -> None:
    """The dense kernel of the induced subgraph, coordinate j placed at vertex vs[j], tuple for tuple."""
    vs = sorted(vertices)
    expected = []
    for vec in null_space_basis(g.induced_subgraph(vs).adjacency_matrix()):
        coords = [Fraction(0)] * g.n
        for v, x in zip(vs, vec):
            coords[v] = x
        expected.append(tuple(coords))
    got = null_basis_on(g.adjacency, frozenset(vertices))
    assert got == expected, (g.to_edge_list(), vs)
    assert all(type(x) is Fraction for vec in got for x in vec)


@settings(max_examples=200, deadline=None)
@given(forests_with_subsets())
def test_kernel_on_vertex_set_matches_subgraph_on_random_forests(drawn):
    g, subset = drawn
    for vertices in (subset, [], range(g.n)):
        assert_kernel_on_matches_subgraph(g, vertices)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=10_000))
def test_kernel_on_vertex_set_matches_subgraph_on_unicyclic_pieces(n, seed):
    g = generate_unicyclic(GeneratorSpec(n=n, seed=seed))
    for vertices in unicyclic_pieces(g) + [frozenset(), frozenset(range(g.n))]:
        assert_kernel_on_matches_subgraph(g, vertices)


def test_kernel_on_vertex_set_edge_cases():
    g = cycle_graph(4)
    assert null_basis_on(g.adjacency, []) == []
    assert null_basis_on((), []) == []
    assert null_basis_on(g.adjacency, [2]) == [(0, 0, 1, 0)]
    assert null_basis_on(g.adjacency, range(4)) == null_space_basis(g.adjacency_matrix())
