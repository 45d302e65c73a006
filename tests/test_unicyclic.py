from __future__ import annotations

import copy
import random
import time
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulldecomp import GeneratorSpec, Graph, classify, constructed_null_basis, generate_unicyclic, parse_edge_list
from nulldecomp.checks import _kernel_decomposition
from nulldecomp.errors import BiasUnsatisfied, UnsupportedGraphClass
from nulldecomp.linalg import forest_null_basis_on, is_zero_vector, mat_vec, null_basis_on, null_space_basis, same_span
from nulldecomp.trees import forest_decomposition
from nulldecomp.unicyclic import (
    CORRECTED,
    CYCLE_ALTERNATING,
    EXTENDED_COMPLEMENT,
    EXTENDED_FOREST,
    EXTENDED_PENDANT,
    RREF_CANONICAL,
    TYPE1,
    TYPE2,
    NullBasis,
    cycle_nullity,
    piece,
    recursion_nullity,
    rref_null_basis,
)

from conftest import (
    assert_reduced_basis_is_eliminated_basis,
    assert_rooted_forest,
    assert_zero_free_inside,
    cycle_graph,
    cycle_with_attachments,
    dense,
    forests_with_subsets,
    hub_forest,
    path_graph,
    shuffled,
)
from test_exhaustive import MAX_N, _unicyclic_graph, unicyclic_graphs
from test_scale import _ti4_hub


def coords(g: Graph, vec) -> dict[str, Fraction]:
    return {g.labels[i]: x for i, x in enumerate(dense(vec, g.n)) if x != 0}


def written_out(g: Graph, vectors) -> list[tuple[Fraction, ...]]:
    """Kernel vectors as the n-tuples the dense reference functions take."""
    return [dense(vec, g.n) for vec in vectors]


def test_classify_plain_cycles_type2():
    for length in (3, 4, 5, 8):
        cls = classify(cycle_graph(length))
        assert cls.tag == TYPE2 and cls.witness is None


def test_classify_examples(ex_type1, ex_four_cycle):
    cls = classify(ex_type1)
    assert cls.tag == TYPE1
    assert ex_type1.labels[cls.witness] == "v"
    assert classify(ex_four_cycle).tag == TYPE2


def test_classify_smallest_witness():
    # Leaves at two cycle vertices: both pendant trees fail the support test;
    # the witness is the smaller index.
    g = cycle_with_attachments(4, tails={0: 1, 2: 1})
    cls = classify(g)
    assert cls.tag == TYPE1
    assert g.labels[cls.witness] == "c00"


def test_classify_rejects_non_unicyclic():
    # Neither a forest nor unicyclic: the one refusal, with the one message.
    theta = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
    triangle_and_isolated = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")], isolated=["d"])
    for g in (theta, triangle_and_isolated):
        with pytest.raises(UnsupportedGraphClass, match="is neither a forest nor unicyclic"):
            classify(g)


def random_graph(rng: random.Random) -> Graph:
    """n <= 12 vertices and n-3 to n+1 edges: forests, unicyclic, disconnected and multi-cycle graphs."""
    n = rng.randint(1, 12)
    m = rng.randint(max(0, n - 3), min(n + 1, n * (n - 1) // 2))
    labels = [f"v{k:02d}" for k in range(n)]
    pairs = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)]
    return Graph.from_edges(rng.sample(pairs, m), isolated=labels)


def test_classify_triage_matches_the_class_tests():
    # The component-based class tests of Graph are the oracle for classify's own peel.
    rng = random.Random(9)
    outcomes = set()
    for _ in range(2000):
        g = random_graph(rng)
        if g.is_forest():
            assert classify(g) is None, g.to_edge_list()
            outcomes.add("forest")
            continue
        if not g.is_unicyclic():
            with pytest.raises(UnsupportedGraphClass) as err:
                classify(g)
            assert str(err.value) == (
                f"graph with {g.n} vertices and {g.edge_count} edges is neither a forest nor unicyclic"
            )
            outcomes.add("refused")
            continue
        outcomes.add("unicyclic")
        cls = classify(g)
        cyc = cls.cycle.vertices
        assert len(set(cyc)) == len(cyc) >= 3
        assert all(cyc[i - 1] in g.neighbors(cyc[i]) for i in range(len(cyc))), g.to_edge_list()
        assert cyc[0] == min(cyc) and cyc[1] < cyc[-1]
        assert list(cls.pendant_trees) == list(cyc)
        assert sorted(v for tree in cls.pendant_trees.values() for v in tree) == list(range(g.n))
        for v, tree in cls.pendant_trees.items():
            assert tree.keys() & set(cyc) == {v} and tree[v] == -1
            assert g.induced_subgraph(sorted(tree)).is_connected()
            assert_rooted_forest(g, tree)
    assert outcomes == {"forest", "refused", "unicyclic"}


def test_classify_makes_no_component_pass(monkeypatch):
    # The peel alone triages: a Graph.components call would raise the planted error.
    def planted(self):
        raise RuntimeError("Graph.components called")

    monkeypatch.setattr(Graph, "components", planted)
    assert classify(path_graph(4)) is None
    assert classify(cycle_with_attachments(4, tails={0: 1})).tag == TYPE1
    theta = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
    with pytest.raises(UnsupportedGraphClass):
        classify(theta)


@settings(max_examples=100, deadline=None)
@given(forests_with_subsets())
def test_classify_reads_every_forest_as_none(forest):
    g, _ = forest
    assert classify(g) is None


def test_class_fields_hold_no_tag():
    assert [f.name for f in fields(classify(cycle_graph(4)))] == [
        "case",
        "cycle",
        "pendant_trees",
        "pendant_decompositions",
        "complement",
        "witness",
    ]


def test_carried_decompositions_are_right_and_invisible(ex_type1, ex_four_cycle):
    # Each decomposition the class carries is the one a fresh matching and
    # the reference kernel give for its vertex set, and neither equality,
    # hashing nor repr sees it.
    graphs = [ex_type1, ex_four_cycle, cycle_graph(4), cycle_graph(5)]
    graphs += [generate_unicyclic(GeneratorSpec(n=5 + i % 16, seed=7000 + i)) for i in range(80)]
    tags = set()
    for g in graphs:
        cls = classify(g)
        tags.add(cls.tag)
        assert list(cls.pendant_decompositions) == list(cls.pendant_trees)
        for v, tree in cls.pendant_trees.items():
            assert cls.pendant_decompositions[v] == forest_decomposition(g, tree) == _kernel_decomposition(
                g, frozenset(tree)
            )
        rest = _complement(g, cls)
        assert cls.complement == forest_decomposition(g, rest) == _kernel_decomposition(
            g, frozenset(rest)
        ), g.to_edge_list()
        again = classify(g)
        assert again == cls and hash(again) == hash(cls)
        assert "Decomposition" not in repr(cls) and "pendant" not in repr(cls) and "complement" not in repr(cls)
    assert tags == {TYPE1, TYPE2}


def test_cycle_nullity_closed_form():
    assert [cycle_nullity(n) for n in (3, 4, 5, 6, 7, 8)] == [0, 2, 0, 0, 0, 2]


def test_unicyclic_nullity_examples(ex_four_cycle):
    for g, expected in ((cycle_graph(4), 2), (cycle_graph(5), 0), (ex_four_cycle, 5)):
        cls = classify(g)
        recursion = recursion_nullity(cls)
        assert recursion == len(null_space_basis(g.adjacency_matrix())) == expected


def test_type1_basis_zero_sum_branch():
    # 4-cycle with a pendant leaf: the complement path's kernel vector has
    # vanishing sum at the witness's cycle neighbors, so plain extension works.
    g = cycle_with_attachments(4, tails={0: 1})
    cls = classify(g)
    basis = constructed_null_basis(g, cls)
    assert len(basis.vectors) == 1
    assert basis.provenance == (EXTENDED_COMPLEMENT,)
    (vec,) = written_out(g, basis.vectors)
    witness = cls.witness
    leaf = g.index_of("t00x00")
    assert vec[witness] == 0 and vec[leaf] == 0
    assert is_zero_vector(mat_vec(g.adjacency_matrix(), vec))


def test_type1_basis_corrected_branch():
    # 6-cycle with a pendant leaf: kernel vector coordinates were worked out
    # by hand from the corrected-vector construction.
    g = parse_edge_list("v u\nu a\na b\nb c\nc w\nw v\nv l")
    cls = classify(g)
    assert g.labels[cls.witness] == "v"
    basis = constructed_null_basis(g, cls)
    assert basis.provenance == (CORRECTED,)
    (vec,) = basis.vectors
    assert coords(g, vec) == {
        "u": Fraction(-1, 2),
        "b": Fraction(1, 2),
        "w": Fraction(-1, 2),
        "l": Fraction(1),
    }
    assert is_zero_vector(mat_vec(g.adjacency_matrix(), dense(vec, g.n)))


def test_type1_basis_empty_for_nonsingular():
    g = parse_edge_list("1 2\n2 3\n3 1\n1 4")
    cls = classify(g)
    assert cls.tag == TYPE1
    assert constructed_null_basis(g, cls).vectors == ()


def test_type1_pendant_vectors_present(ex_type1):
    cls = classify(ex_type1)
    basis = constructed_null_basis(ex_type1, cls)
    assert len(basis.vectors) == 2
    assert EXTENDED_PENDANT in basis.provenance
    matrix = ex_type1.adjacency_matrix()
    for vec in written_out(ex_type1, basis.vectors):
        assert is_zero_vector(mat_vec(matrix, vec))
    assert same_span(written_out(ex_type1, basis.vectors), written_out(ex_type1, rref_null_basis(basis).vectors))


def test_provenance_layout_by_case(families):
    # Type I: a corrected vector heads the basis exactly in TI-4, in place of
    # one complement vector, and the witness's pendant-tree kernel follows.
    # Type II: the forest G - C, then the two cycle vectors in TII-4k.
    graphs = [g for family in families.values() for g in family]
    graphs += [generate_unicyclic(GeneratorSpec(n=5 + i % 30, seed=6000 + i)) for i in range(600)]
    for g in graphs:
        cls = classify(g)
        rest = cls.complement.nullity
        if cls.tag == TYPE2:
            layout = (EXTENDED_FOREST,) * rest + (CYCLE_ALTERNATING,) * (2 if cls.case == "TII-4k" else 0)
        else:
            corrected = 1 if cls.case == "TI-4" else 0
            layout = (CORRECTED,) * corrected + (EXTENDED_COMPLEMENT,) * (rest - corrected)
            layout += (EXTENDED_PENDANT,) * cls.pendant_decompositions[cls.witness].nullity
        assert constructed_null_basis(g, cls).provenance == layout, g.to_edge_list()


def test_type2_basis_plain_c4_alternating():
    g = cycle_graph(4)
    basis = constructed_null_basis(g, classify(g))
    assert basis.provenance == (CYCLE_ALTERNATING, CYCLE_ALTERNATING)
    z1, z2 = basis.vectors
    assert coords(g, z1) == {"c00": Fraction(-1), "c02": Fraction(1)}
    assert coords(g, z2) == {"c01": Fraction(-1), "c03": Fraction(1)}


def test_type2_basis_plain_c5_empty():
    g = cycle_graph(5)
    assert constructed_null_basis(g, classify(g)).vectors == ()


def test_type2_basis_four_cycle_example(ex_four_cycle):
    g = ex_four_cycle
    basis = constructed_null_basis(g, classify(g))
    assert len(basis.vectors) == 5
    assert basis.provenance.count(EXTENDED_FOREST) == 3
    assert basis.provenance.count(CYCLE_ALTERNATING) == 2
    matrix = g.adjacency_matrix()
    for vec in written_out(g, basis.vectors):
        assert is_zero_vector(mat_vec(matrix, vec))
    assert same_span(written_out(g, basis.vectors), null_space_basis(matrix))


def test_constructed_basis_dispatch(ex_type1, ex_four_cycle):
    assert CORRECTED not in constructed_null_basis(ex_four_cycle, classify(ex_four_cycle)).provenance
    for g in (ex_type1, ex_four_cycle, path_graph(5)):
        basis = constructed_null_basis(g, classify(g))
        assert len(basis.vectors) == len(null_space_basis(g.adjacency_matrix()))


def test_degenerate_full_support_regression():
    # Pendant tree whose deleted forest admits a full-support kernel vector
    # with vanishing neighbor sum at the witness; the construction must pick
    # a combination with nonzero sum or the basis collapses.
    g = parse_edge_list("v u\nu x1\nx1 x2\nx2 x3\nx3 w\nw v\nv a\na m\nm b\nv c")
    cls = classify(g)
    assert g.labels[cls.witness] == "v"
    basis = constructed_null_basis(g, cls)
    matrix = g.adjacency_matrix()
    assert len(basis.vectors) == len(null_space_basis(matrix))
    for vec in written_out(g, basis.vectors):
        assert is_zero_vector(mat_vec(matrix, vec))
    assert same_span(written_out(g, basis.vectors), written_out(g, rref_null_basis(basis).vectors))


def test_constructed_basis_of_a_large_graph_builds_on_sparse_kernels():
    # Every subforest kernel comes from a sparse kernel (the complement's
    # elimination, the pendant trees' matching); with dense subforest
    # kernels this took 20-26 s.
    g = generate_unicyclic(GeneratorSpec(n=800, seed=3))
    cls = classify(g)
    assert cls.case == "TI-4"
    started = time.perf_counter()
    basis = constructed_null_basis(g, cls)
    assert time.perf_counter() - started < 5.0
    assert len(basis.vectors) == recursion_nullity(cls) == 180


def test_corrected_vector_precheck_is_linear_at_a_hub():
    # A 6-cycle whose witness v carries a leaf and 1600 copies of a six-vertex
    # tree: T_v - v has 3,201 kernel vectors and v has 1,601 neighbors in it.
    # Summing every vector over every neighbor took 16 s; each vector now
    # sums only its own coordinates.  The leaf sorts last, so no early vector
    # ends the precheck.
    g = parse_edge_list(_ti4_hub(1600))
    cls = classify(g)
    assert cls.case == "TI-4" and g.labels[cls.witness] == "v"
    started = time.perf_counter()
    basis = constructed_null_basis(g, cls)
    assert time.perf_counter() - started < 4.0
    assert basis.provenance.count(CORRECTED) == 1 and len(basis.vectors) == recursion_nullity(cls)


def test_constructed_vectors_are_zero_free_maps_over_the_vertices(ex_type1, ex_star, ex_five_cycle, ex_four_cycle):
    # Each constructed vector, corrected and cycle-alternating ones included,
    # holds only nonzero coordinates at g's own vertices: a coordinate that
    # cancels while the basis is assembled is dropped, not stored as 0.
    graphs = [ex_type1, ex_star, ex_five_cycle, ex_four_cycle]
    graphs += [generate_unicyclic(GeneratorSpec(n=5 + i % 20, seed=4000 + i)) for i in range(40)]
    cases = set()
    for g in graphs:
        cls = classify(g)
        cases.add(cls.case)
        assert_zero_free_inside(constructed_null_basis(g, cls).vectors, range(g.n))
    assert len(cases) >= 4


@pytest.mark.parametrize("length, tail", [(1000, 0), (400, 2), (4000, 0), (4000, 2)])
def test_cycle_alternating_vectors_combine_on_supports(length, tail):
    # z1 / z2 sum one pendant-tree vector per cycle vertex; combined over
    # whole n-tuples this took 7.5 s on the bare 1000-cycle and 3.4 s on the
    # 400-cycle with a two-vertex tail at every vertex.  At length 4000,
    # scanning dense n-tuple kernel vectors for their supports took 5.0 s
    # bare and 11.0 s with the tails.
    g = cycle_with_attachments(length, tails={i: tail for i in range(length)})
    cls = classify(g)
    assert cls.case == "TII-4k"
    started = time.perf_counter()
    basis = constructed_null_basis(g, cls)
    assert time.perf_counter() - started < 2.0
    assert basis.provenance[-2:] == (CYCLE_ALTERNATING, CYCLE_ALTERNATING)


# -- the canonical basis of a unicyclic graph is its constructed basis in
# -- reduced echelon form, equal to the whole-graph elimination


def test_reduced_basis_is_eliminated_basis_on_the_case_families(families, ex_type1, ex_star, ex_five_cycle, ex_four_cycle):
    for g in [ex_type1, ex_star, ex_five_cycle, ex_four_cycle] + [g for family in families.values() for g in family]:
        assert_reduced_basis_is_eliminated_basis(g)


def test_rref_null_basis_reads_only_the_basis_it_is_given(families, ex_type1, ex_star, ex_five_cycle, ex_four_cycle):
    # The argument comes back untouched, a second pass changes nothing, even
    # with the tags that let a canonical basis through taken away, and a
    # forest's constructed basis, canonical already, is returned as it is.
    graphs = [ex_type1, ex_star, ex_five_cycle, ex_four_cycle, path_graph(7), hub_forest(3, extra=1)]
    for g in graphs + [g for family in families.values() for g in family]:
        cls = classify(g)
        basis = constructed_null_basis(g, cls)
        before = copy.deepcopy(basis)
        reduced = rref_null_basis(basis)
        assert basis == before, g.to_edge_list()
        assert set(reduced.provenance) <= {RREF_CANONICAL}
        retagged = NullBasis(reduced.vectors, (CORRECTED,) * len(reduced.vectors))
        assert rref_null_basis(reduced) == rref_null_basis(retagged) == reduced, g.to_edge_list()
        if cls is None:
            assert basis.vectors and (reduced.vectors, reduced.provenance) == (before.vectors, before.provenance)


def _shuffled_unicyclic(n: int, seed: int) -> Graph | None:
    """A generated graph, its cycle of length 4 or 8 every other time, with its labels shuffled; None if the bias fails."""
    length = (None, 4, None, 8 if n >= 8 else 4)[seed % 4]
    spec = GeneratorSpec(n=n, cycle_length=length, seed=seed, class_bias=(None, TYPE1, TYPE2)[seed % 3])
    try:
        return shuffled(generate_unicyclic(spec), random.Random(seed))
    except BiasUnsatisfied:
        return None


def test_reduced_basis_is_eliminated_basis_on_shuffled_generated_graphs():
    # TI-4's corrected vector and TII-4k's z1, z2 hold coordinates other
    # than 1 and -1 on some of these graphs, so the pass normalizes leads
    # and clears with general factors.
    cases, fractional = set(), set()
    for seed in range(240):
        g = _shuffled_unicyclic(5 + seed % 30, seed)
        if g is None:
            continue
        cls = classify(g)
        cases.add(cls.case)
        basis = constructed_null_basis(g, cls)
        if any(
            prov in (CORRECTED, CYCLE_ALTERNATING) and any(abs(x) != 1 for x in vec.values())
            for vec, prov in zip(basis.vectors, basis.provenance)
        ):
            fractional.add(cls.case)
        assert_reduced_basis_is_eliminated_basis(g)
    assert cases == {"TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k"}
    assert fractional == {"TI-4", "TII-4k"}


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=100_000))
def test_reduced_basis_is_eliminated_basis_on_random_shuffled_graphs(n, seed):
    g = _shuffled_unicyclic(n, seed)
    if g is not None:
        assert_reduced_basis_is_eliminated_basis(g)


# -- every pendant-tree kernel comes off a maximum matching, and it is the
# -- one the elimination gives


def assert_pendant_kernels_are_eliminated_kernels(g: Graph) -> None:
    """For each pendant tree T_v, ``forest_null_basis_on`` on T_v and T_v - v equals ``null_basis_on``, tuple for tuple.

    T_v - v is cut by ``piece``, which must root the vertex set T_v less v.
    """
    trees = classify(g).pendant_trees
    for v, tree in trees.items():
        headless = piece(trees, (), [v])
        assert_rooted_forest(g, headless, tree.keys() - {v})
        for forest in (tree, headless):
            got = forest_null_basis_on(g.adjacency, forest)
            assert got == null_basis_on(g.adjacency, forest), (g.to_edge_list(), sorted(forest))


def assert_pieces_are_cut_right(g: Graph) -> None:
    """Each forest ``piece`` cuts is the rooted forest its vertex set, by set arithmetic, induces in g."""
    cls = classify(g)
    trees, cycle = cls.pendant_trees, cls.cycle
    everything = set(range(g.n))
    assert_rooted_forest(g, piece(trees, (), cycle.vertices), everything - cycle.vertex_set())
    for v, tree in trees.items():
        x = cycle.neighbors_on_cycle(v)[1]
        assert_rooted_forest(g, tree, tree.keys())
        assert_rooted_forest(g, piece(trees, (), [v]), tree.keys() - {v})
        assert_rooted_forest(g, piece(trees, cycle.path_around(v), ()), everything - tree.keys())
        bordered = piece({**trees, v: {v: -1}}, cycle.path_around(x), ())
        assert_rooted_forest(g, bordered, everything - tree.keys() - trees[x].keys() | {v})


def test_piece_cuts_every_forest_piece():
    graphs = [_unicyclic_graph(seq) for n in range(3, MAX_N + 1) for seq in unicyclic_graphs(n)]
    graphs += [g for seed in range(120) if (g := _shuffled_unicyclic(5 + seed % 30, seed)) is not None]
    for g in graphs:
        assert_pieces_are_cut_right(g)


def test_pendant_kernels_are_eliminated_kernels_on_every_small_unicyclic_graph():
    graphs = [_unicyclic_graph(seq) for n in range(3, MAX_N + 1) for seq in unicyclic_graphs(n)]
    assert len(graphs) == 1040
    for g in graphs:
        assert_pendant_kernels_are_eliminated_kernels(g)


def test_pendant_kernels_are_eliminated_kernels_on_shuffled_generated_graphs():
    cases = set()
    for seed in range(240):
        g = _shuffled_unicyclic(5 + seed % 30, seed)
        if g is not None:
            cases.add(classify(g).case)
            assert_pendant_kernels_are_eliminated_kernels(g)
    assert cases == {"TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k"}


# -- the complement kernel is the one the elimination gives: Type II's G - C
# -- comes off a maximum matching; Type I's G - T_v still comes from the
# -- elimination, and the matching would give it too


def assert_complement_kernel_is_eliminated_kernel(g: Graph) -> None:
    """``forest_null_basis_on`` on G - C (Type II) or G - T_v (Type I, witness v) equals ``null_basis_on``, tuple for tuple."""
    forest = _complement(g, classify(g))
    got = forest_null_basis_on(g.adjacency, forest)
    assert got == null_basis_on(g.adjacency, forest), (g.to_edge_list(), sorted(forest))


def _complement(g: Graph, cls) -> dict[int, int]:
    """G - C (Type II) or G - T_v (Type I, witness v), cut by ``piece`` and checked against set arithmetic."""
    trees, cycle = cls.pendant_trees, cls.cycle
    if cls.tag == TYPE2:
        forest, cut = piece(trees, (), cycle.vertices), cycle.vertex_set()
    else:
        forest, cut = piece(trees, cycle.path_around(cls.witness), ()), trees[cls.witness].keys()
    assert_rooted_forest(g, forest, set(range(g.n)) - cut)
    return forest


def test_complement_kernel_is_eliminated_kernel_on_every_small_unicyclic_graph():
    graphs = [_unicyclic_graph(seq) for n in range(3, MAX_N + 1) for seq in unicyclic_graphs(n)]
    assert len(graphs) == 1040
    for g in graphs:
        assert_complement_kernel_is_eliminated_kernel(g)


def test_complement_kernel_is_eliminated_kernel_on_shuffled_generated_graphs():
    cases = set()
    for seed in range(240):
        g = _shuffled_unicyclic(5 + seed % 30, seed)
        if g is not None:
            cases.add(classify(g).case)
            assert_complement_kernel_is_eliminated_kernel(g)
    assert cases == {"TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k"}
