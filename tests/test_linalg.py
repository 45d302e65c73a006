from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from nulldecomp import Graph, GeneratorSpec, constructed_null_basis, generate_unicyclic
from nulldecomp.errors import InternalCheckError, NotForest
from nulldecomp.linalg import (
    forest_null_basis_on,
    is_zero_vector,
    mat_vec,
    null_basis_on,
    null_space_basis,
    reduced_echelon_basis,
    row_space_signature,
    rref,
    same_span,
)

from conftest import (
    assert_zero_free_inside,
    cycle_graph,
    dense,
    forests_with_subsets,
    hub_forest,
    path_graph,
    unicyclic_pieces,
)


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


# -- rref by its defining properties, whatever the elimination order ---------

ENTRIES = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)))
SCALES = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    """Tall, wide and square; with dependent rows, dependent columns, zero rows and zero columns."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [draw(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2))):  # rank-deficient: a row that combines two others
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(SCALES), draw(SCALES)
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(rows[i], rows[j])])
    if n_cols >= 2 and draw(st.booleans()):  # a free column: a multiple of an earlier one
        k = draw(st.integers(1, n_cols - 1))
        j, s = draw(st.integers(0, k - 1)), draw(SCALES)
        for row in rows:
            row[k] = s * row[j]
    if draw(st.booleans()):
        k = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[k] = Fraction(0)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * n_cols)
    return rows


def leibniz_det(m) -> Fraction:
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def assert_is_rref_of(m, reduced, rank, pivots) -> None:
    """``reduced`` is in reduced row echelon form and has the row space of ``m``."""
    n_cols = len(m[0])
    assert len(reduced) == len(m) and all(len(row) == n_cols for row in reduced)
    assert rank == len(pivots) and list(pivots) == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert reduced[i][p] == 1
        assert all(x == 0 for x in reduced[i][:p])
        assert all(reduced[k][p] == 0 for k in range(len(reduced)) if k != i)
    assert all(x == 0 for row in reduced[rank:] for x in row)
    # Row space: every row of m is the combination of R's rows its pivot entries give,
    # so rank(m) <= rank; a nonzero minor on the pivot columns gives rank(m) >= rank.
    for row in m:
        combined = [sum((row[p] * reduced[i][j] for i, p in enumerate(pivots)), Fraction(0)) for j in range(n_cols)]
        assert combined == list(row)
    assert any(leibniz_det([[row[p] for p in pivots] for row in chosen]) != 0
               for chosen in combinations(m, rank))


def test_rref_free_column_before_a_fractional_pivot_row():
    # Column 1 is free; its entry 1/2 in row 0 must survive the pivot in column 2.
    reduced, rank, pivots = rref(frac_matrix([[2, 1, 1], [4, 2, 3]]))
    assert reduced == frac_matrix([[1, Fraction(1, 2), 0], [0, 0, 1]])
    assert rank == 2 and pivots == (0, 2)
    m = frac_matrix([[0, 3, Fraction(-1, 3), 2], [0, 6, Fraction(1, 2), Fraction(5, 7)], [0, 0, 0, 0]])
    reduced, rank, pivots = rref(m)
    assert_is_rref_of(m, reduced, rank, pivots)
    assert pivots == (1, 2)


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_invariants(m):
    assert_is_rref_of(m, *rref(m))


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.randoms(use_true_random=False))
def test_rref_is_the_same_for_a_row_permuted_copy(m, rnd):
    shuffled = list(m)
    rnd.shuffle(shuffled)
    assert rref(shuffled) == rref(m)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rref_leaves_its_input_unchanged(m):
    before = [list(row) for row in m]
    reduced, _, _ = rref(m)
    assert m == before
    for row in reduced:
        row[:] = [Fraction(7)] * len(row)
    assert m == before


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_rref_takes_int_entries_and_returns_fractions(m, data):
    # A Fraction entry is taken as given and any other rational converted,
    # so the reduction and the kernel are the all-Fraction ones, in Fractions.
    integral = [(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x.denominator == 1]
    as_int = data.draw(st.sets(st.sampled_from(integral))) if integral else set()
    mixed = [[int(x) if (i, j) in as_int else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    reduced, rank, pivots = rref(mixed)
    assert (reduced, rank, pivots) == rref(m)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert all(type(x) is Fraction for vec in null_space_basis(mixed) for x in vec)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.randoms(use_true_random=False), st.data())
def test_same_span_on_scaled_permuted_spanning_sets(m, rnd, data):
    scales = data.draw(st.lists(SCALES, min_size=len(m), max_size=len(m)))
    spanning = [tuple(s * x for x in row) for s, row in zip(scales, m)]
    rnd.shuffle(spanning)
    assert same_span(m, spanning)
    _, _, pivots = rref(m)
    free = [c for c in range(len(m[0])) if c not in pivots]
    if free:  # e_f is zero at every pivot column but nonzero, so it lies outside the row space
        i = data.draw(st.integers(0, len(spanning) - 1))
        spanning[i] = tuple(x + (j == free[0]) for j, x in enumerate(spanning[i]))
        assert not same_span(m, spanning)


# -- the sparse production kernel against the dense reference ----------------


def assert_sparse_matches_dense(g: Graph, vertices=None) -> None:
    """Same canonical basis, written out densely tuple for tuple, and every coordinate a Fraction.

    With ``vertices`` the comparison runs on the subgraph they induce.
    """
    if vertices is not None:
        g = g.induced_subgraph(sorted(vertices))
    sparse = null_basis_on(g.adjacency, range(g.n))
    assert [dense(vec, g.n) for vec in sparse] == null_space_basis(g.adjacency_matrix()), g.to_edge_list()
    assert all(type(x) is Fraction for vec in sparse for x in vec.values())


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
    for vertices in (subset, [], range(g.n)):
        assert_kernel_on_matches_subgraph(g, vertices)


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
    assert null_basis_on((), range(0)) == []
    assert null_basis_on(one.adjacency, range(one.n)) == [{0: Fraction(1)}]
    assert len(null_basis_on(isolated.adjacency, range(isolated.n))) == 3
    assert null_basis_on(complete_graph(5).adjacency, range(5)) == []
    assert len(null_basis_on(cycle_graph(8).adjacency, range(8))) == 2


# -- the kernel over a vertex set against the subgraph it induces ------------


def theta_graph() -> Graph:
    """Two vertices joined by three paths of lengths 2, 2 and 3: three cycles."""
    return Graph.from_edges(
        [("a", "x"), ("x", "b"), ("a", "y"), ("y", "b"), ("a", "z1"), ("z1", "z2"), ("z2", "b")]
    )


def two_disjoint_cycles() -> Graph:
    """A 4-cycle and an 8-cycle side by side, their vertices interleaved in index order."""
    four = [f"v{2 * i:02d}" for i in range(4)]
    eight = [f"v{2 * i + 1:02d}" for i in range(8)]
    return Graph.from_edges(
        [(c[i], c[(i + 1) % len(c)]) for c in (four, eight) for i in range(len(c))]
    )


def placed_reference(g: Graph, vertices) -> list[tuple[Fraction, ...]]:
    """The dense kernel of the induced subgraph, coordinate j placed at vertex vs[j], zeros elsewhere."""
    vs = sorted(vertices)
    expected = []
    for vec in null_space_basis(g.induced_subgraph(vs).adjacency_matrix()):
        coords = [Fraction(0)] * g.n
        for v, x in zip(vs, vec):
            coords[v] = x
        expected.append(tuple(coords))
    return expected


def assert_kernel_on_matches_subgraph(g: Graph, vertices) -> None:
    """The placed dense kernel of the induced subgraph, tuple for tuple once written out densely."""
    got = null_basis_on(g.adjacency, frozenset(vertices))
    assert [dense(vec, g.n) for vec in got] == placed_reference(g, vertices), (g.to_edge_list(), sorted(vertices))
    assert all(type(x) is Fraction for vec in got for x in vec.values())


@settings(max_examples=200, deadline=None)
@given(forests_with_subsets(), st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=10_000))
def test_kernel_vectors_are_zero_free_maps_inside_the_vertex_set(drawn, n, seed):
    # The one production vector format: a vector's keys are its support, so a
    # key off ``vertices`` or a stored 0 would put a vertex in the wrong set.
    forest, subset = drawn
    g = generate_unicyclic(GeneratorSpec(n=n, seed=seed))
    for h, vertices in [(forest, subset)] + [(g, piece) for piece in unicyclic_pieces(g)]:
        basis = null_basis_on(h.adjacency, vertices)
        assert_zero_free_inside(basis, vertices)
        assert [dense(vec, h.n) for vec in basis] == placed_reference(h, vertices)


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


def test_kernel_on_vertex_set_matches_subgraph_on_several_cycles():
    for g in (theta_graph(), complete_graph(4), two_disjoint_cycles()):
        everything = frozenset(range(g.n))
        subsets = [everything, frozenset(), frozenset(range(0, g.n, 2))]
        subsets += [everything - {v} for v in range(g.n)]
        for vertices in subsets:
            assert_kernel_on_matches_subgraph(g, vertices)
    theta, cycles = theta_graph(), two_disjoint_cycles()
    assert null_basis_on(complete_graph(4).adjacency, range(4)) == []
    assert len(null_basis_on(theta.adjacency, range(theta.n))) == 1
    assert len(null_basis_on(cycles.adjacency, range(cycles.n))) == 2 + 2


def test_kernel_on_vertex_set_edge_cases():
    g = cycle_graph(4)
    assert null_basis_on(g.adjacency, []) == []
    assert null_basis_on((), []) == []
    assert null_basis_on(g.adjacency, [2]) == [{2: 1}]
    assert [dense(vec, 4) for vec in null_basis_on(g.adjacency, range(4))] == null_space_basis(g.adjacency_matrix())


# -- the forest kernel off a maximum matching against both eliminations -------


def assert_forest_kernel_matches(g: Graph, vertices) -> None:
    """``forest_null_basis_on`` equals ``null_basis_on`` tuple for tuple and the placed dense kernel, all entries ±1."""
    got = forest_null_basis_on(g.adjacency, vertices)
    assert got == null_basis_on(g.adjacency, vertices), (g.to_edge_list(), sorted(vertices))
    assert [dense(vec, g.n) for vec in got] == placed_reference(g, vertices)
    assert_zero_free_inside(got, vertices)
    assert all(type(x) is Fraction and abs(x) == 1 for vec in got for x in vec.values())


@st.composite
def shuffled_forests_with_subsets(draw):
    """A random forest on up to 24 vertices whose labels are a random permutation, and a vertex subset."""
    n = draw(st.integers(min_value=1, max_value=24))
    labels = draw(st.permutations([f"f{i:02d}" for i in range(n)]))
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=i - 1))  # -1 starts a new tree
        if parent >= 0:
            edges.append((labels[parent], labels[i]))
    g = Graph.from_edges(edges, isolated=labels)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return g, [v for v in range(n) if keep[v]]


@settings(max_examples=300, deadline=None)
@given(shuffled_forests_with_subsets())
def test_forest_kernel_matches_both_eliminations_on_shuffled_forests(drawn):
    g, subset = drawn
    for vertices in (range(g.n), subset):
        assert_forest_kernel_matches(g, vertices)


@settings(max_examples=100, deadline=None)
@given(forests_with_subsets())
def test_forest_kernel_matches_both_eliminations_on_random_forests(drawn):
    g, subset = drawn
    for vertices in (range(g.n), subset):
        assert_forest_kernel_matches(g, vertices)


def labeled_path(order: list[int]) -> Graph:
    """The path whose k-th vertex is labelled by ``order[k]``: label order is the path order read through it."""
    labels = [f"q{i:02d}" for i in order]
    return Graph.from_edges([(labels[k], labels[k + 1]) for k in range(len(labels) - 1)])


@pytest.mark.parametrize("n", [2, 3, 8, 9, 20, 21])
def test_forest_kernel_on_paths_in_every_order(n):
    rng = random.Random(n)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    for order in (list(range(n)), list(range(n))[::-1], shuffled):
        g = labeled_path(order)
        assert_forest_kernel_matches(g, range(g.n))
        assert_forest_kernel_matches(g, range(0, g.n, 2))


def test_forest_kernel_on_stars_and_hubs():
    # The centre "a" sorts before the leaves and "z" after them.
    first, last = (Graph.from_edges([(centre, f"x{i:02d}") for i in range(9)]) for centre in "az")
    assert first.index_of("a") == 0 and last.index_of("z") == last.n - 1
    for g in (first, last, hub_forest(1), hub_forest(7), hub_forest(5, extra=3)):
        assert_forest_kernel_matches(g, range(g.n))
        assert_forest_kernel_matches(g, range(1, g.n))
        assert_forest_kernel_matches(g, range(0, g.n, 3))


def test_forest_kernel_on_isolated_vertices_and_edge_cases():
    isolated = Graph.from_edges([("a", "b")], isolated=["x", "y", "z"])
    one = Graph.from_edges([], isolated=["v"])
    edge = Graph.from_edges([("a", "b")])
    for g in (isolated, one, edge):
        for vertices in ([], range(g.n), [0], [g.n - 1]):
            assert_forest_kernel_matches(g, vertices)
    assert forest_null_basis_on((), []) == []
    assert forest_null_basis_on(one.adjacency, [0]) == [{0: Fraction(1)}]
    assert forest_null_basis_on(edge.adjacency, [0, 1]) == []
    assert len(forest_null_basis_on(isolated.adjacency, range(isolated.n))) == 3


def triangle_with_a_leaf() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])


@pytest.mark.parametrize("make", [lambda: cycle_graph(4), theta_graph, triangle_with_a_leaf])
def test_forest_kernel_refuses_a_cycle(make):
    # The matching search and the walk assume a forest; on a cycle they
    # could loop, so the kernel refuses one, and so does the constructed
    # basis of a graph passed in as a forest (class None).
    g = make()
    with pytest.raises(NotForest):
        forest_null_basis_on(g.adjacency, range(g.n))
    with pytest.raises(NotForest):
        constructed_null_basis(g, None)
    acyclic = frozenset(range(1, g.n))  # each of the three loses its cycle with vertex 0
    assert_forest_kernel_matches(g, acyclic)


# -- the reduced echelon pass: any basis of a kernel reduces to the canonical one


def test_reduced_echelon_basis_of_nothing_and_of_one_vector():
    assert reduced_echelon_basis([]) == []
    assert reduced_echelon_basis([{5: Fraction(1)}]) == [{5: Fraction(1)}]
    vec = {0: Fraction(2), 3: Fraction(-4)}
    reduced = reduced_echelon_basis([vec])
    assert reduced == [{0: Fraction(-1, 2), 3: Fraction(1)}]
    assert all(type(x) is Fraction for x in reduced[0].values())
    assert vec == {0: Fraction(2), 3: Fraction(-4)}  # the input is left as it was


def test_reduced_echelon_basis_refuses_dependent_vectors():
    a, b = {0: Fraction(1), 2: Fraction(1)}, {1: Fraction(3)}
    with pytest.raises(InternalCheckError):
        reduced_echelon_basis([a, b, {0: Fraction(2), 1: Fraction(1), 2: Fraction(2)}])


def mixed(canonical, rnd: random.Random):
    """An invertible combination of ``canonical``: each vector plus multiples of later ones, scaled, then shuffled."""
    out = []
    for i, vec in enumerate(canonical):
        scale = Fraction(rnd.choice([-3, -1, 2, 5]), rnd.choice([1, 2, 7]))
        combo = {k: scale * x for k, x in vec.items()}
        for other in canonical[i + 1:]:
            factor = Fraction(rnd.randint(-2, 2), rnd.randint(1, 3))
            for k, x in other.items():
                combo[k] = combo.get(k, Fraction(0)) + factor * x
        out.append({k: x for k, x in combo.items() if x})
    rnd.shuffle(out)
    return out


@settings(max_examples=200, deadline=None)
@given(graphs_with_subsets(), st.randoms(use_true_random=False))
def test_reduced_echelon_basis_of_any_kernel_basis_is_the_canonical_one(drawn, rnd):
    g, subset = drawn
    for vertices in (subset, range(g.n)):
        canonical = null_basis_on(g.adjacency, vertices)
        reduced = reduced_echelon_basis(mixed(canonical, rnd))
        assert reduced == canonical
        assert all(type(x) is Fraction and x != 0 for vec in reduced for x in vec.values())


def test_reduced_echelon_basis_takes_vectors_in_any_order():
    g = hub_forest(2, extra=1)
    canonical = null_basis_on(g.adjacency, range(g.n))
    assert len(canonical) == 6  # 720 orders
    rnd = random.Random(7)
    basis = mixed(canonical, rnd)
    for order in permutations(basis):
        assert reduced_echelon_basis(order) == canonical
