from __future__ import annotations

from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings

from nulldecomp import Graph, GeneratorSpec, analyze, classify, generate_unicyclic, run_checks
from nulldecomp.decomposition import (
    Decomposition,
    alpha,
    decomposition_from_basis,
    nu,
    structural_decomposition,
)
from nulldecomp.errors import OddNSet, UnsupportedGraphClass
from nulldecomp.linalg import null_space_basis
from nulldecomp.trees import CASE_FOREST, tree_decomposition
from nulldecomp.unicyclic import (
    CASE_TI1,
    CASE_TI2,
    CASE_TI3,
    CASE_TI4,
    CASE_TII_4K,
    CASE_TII_NON4K,
    TYPE1,
    recursion_nullity,
)

from conftest import cycle_graph, cycle_with_attachments, forests_with_subsets, kernel_case, path_graph


def labels(g: Graph, s) -> set[str]:
    return set(g.label_set(s))


def test_example_type1_decomposition(ex_type1):
    d = decomposition_from_basis(ex_type1)
    assert labels(ex_type1, d.support) == {"a", "b", "e", "f", "i"}
    assert labels(ex_type1, d.core) == {"c", "v", "g", "h"}
    assert len(d.n_vertices) == 9
    assert labels(ex_type1, d.n_vertices) == {"d", "l", "j", "m", "n", "o", "p", "r", "q"}
    assert d.case == CASE_TI3
    assert d.nullity == 2


def test_example_type1_formulas(ex_type1):
    d = decomposition_from_basis(ex_type1)
    assert alpha(d) == 10
    assert nu(d) == 8


def test_example_star_decomposition(ex_star):
    d = decomposition_from_basis(ex_star)
    assert labels(ex_star, d.support) == {"v7", "v8", "v9"}
    assert labels(ex_star, d.core) == {"v6"}
    assert len(d.n_vertices) == 14
    assert d.case == CASE_TI1


def test_example_five_cycle_decomposition(ex_five_cycle):
    # The circulating support listing for this example is an erratum (it
    # includes i, which the same listing places in the core, and has m as an
    # N-vertex while omitting q); the computed sets below are consistent
    # with its alpha = 15 and nu = 9.
    d = decomposition_from_basis(ex_five_cycle)
    assert labels(ex_five_cycle, d.support) == set("ghjlmtuvwyz")
    assert labels(ex_five_cycle, d.core) == set("firsx")
    assert labels(ex_five_cycle, d.n_vertices) == set("abcdenopq")
    assert (len(d.support), len(d.core), len(d.n_vertices)) == (11, 5, 9)
    assert d.case == CASE_TII_NON4K
    assert alpha(d) == 15
    assert nu(d) == 9


def test_example_four_cycle_decomposition(ex_four_cycle):
    d = decomposition_from_basis(ex_four_cycle)
    assert labels(ex_four_cycle, d.support) == set("bcdejluvzw")
    assert labels(ex_four_cycle, d.core) == set("faiuvzw")
    assert labels(ex_four_cycle, d.n_vertices) == {"g", "h"}
    assert d.case == CASE_TII_4K
    assert labels(ex_four_cycle, d.support & d.core) == {"u", "v", "w", "z"}
    assert d.nullity == 5
    assert alpha(d) == 9
    assert nu(d) == 6


def test_plain_c4():
    g = cycle_graph(4)
    d = decomposition_from_basis(g)
    assert d.support == d.core == frozenset(range(4))
    assert d.n_vertices == frozenset()
    assert alpha(d) == 2 and nu(d) == 2


def test_structural_agrees_on_examples(ex_type1, ex_star, ex_five_cycle, ex_four_cycle):
    for g in (ex_type1, ex_star, ex_five_cycle, ex_four_cycle):
        a = decomposition_from_basis(g)
        b = structural_decomposition(g, a.cls)
        assert (a.support, a.core, a.n_vertices, a.case) == (
            b.support,
            b.core,
            b.n_vertices,
            b.case,
        )
        assert b.case == kernel_case(g, a.cls)


@settings(max_examples=100, deadline=None)
@given(forests_with_subsets())
def test_structural_decomposes_a_forest_by_matching(forest):
    g, _ = forest
    assert structural_decomposition(g, None) == tree_decomposition(g)
    assert structural_decomposition(g, classify(g)) == decomposition_from_basis(g)


def test_unsupported_graph_class():
    theta = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    )
    triangle_and_isolated = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")], isolated=["d"])
    for g in (theta, triangle_and_isolated):
        with pytest.raises(UnsupportedGraphClass, match="is neither a forest nor unicyclic"):
            decomposition_from_basis(g)


def test_decomposition_fields_hold_no_case(ex_type1):
    assert [f.name for f in fields(Decomposition)] == ["support", "core", "n_vertices", "nullity", "cls"]
    assert decomposition_from_basis(ex_type1).case == classify(ex_type1).case


def test_forest_route():
    g = path_graph(3)
    d = decomposition_from_basis(g)
    assert d.case == CASE_FOREST and d.cls is None
    assert alpha(d) == 2 and nu(d) == 1
    two = decomposition_from_basis(Graph.from_edges([("a", "b")]))
    assert alpha(two) == 1 and nu(two) == 1


def test_formulas_refuse_an_odd_n_set_on_a_forest():
    odd = Decomposition(frozenset({0}), frozenset({1}), frozenset({2, 3, 4}), 1)
    with pytest.raises(OddNSet):
        alpha(odd)
    with pytest.raises(OddNSet):
        nu(odd)


def test_report_shape(ex_four_cycle):
    report = analyze(ex_four_cycle)
    data = report.to_dict()
    assert data["class"] == "type2" and data["case"] == CASE_TII_4K
    assert data["cycle"] == ["u", "v", "w", "z"]
    assert data["support"] == sorted(data["support"])
    assert data["alpha"] == 9 and data["nu"] == 6 and data["nullity"] == 5
    assert data["checks"] == {}
    assert data["n"] == 15 and data["m"] == 15
    assert report.alpha + report.nu <= ex_four_cycle.n
    text = report.to_text()
    assert "alpha: 9" in text and "case TII-4k" in text


def test_report_verified(ex_four_cycle):
    report = replace(analyze(ex_four_cycle), checks=run_checks(ex_four_cycle))
    assert report.checks and all(report.checks.values())


def test_alpha_ge_support_outside_tii4k(ex_type1, ex_star):
    for g in (ex_type1, ex_star, cycle_graph(6)):
        d = decomposition_from_basis(g)
        assert d.case != CASE_TII_4K
        assert alpha(d) >= len(d.support)


def test_case_examples_from_families(families):
    for case, graphs in families.items():
        for g in graphs:
            assert structural_decomposition(g, classify(g)).case == case


def test_ti2_sets():
    g = cycle_with_attachments(4, leaves={0: 2})
    d = structural_decomposition(g, classify(g))
    assert d.case == "TI-2"
    assert labels(g, d.support) == {"u00x00", "u00x01", "c01", "c03"}
    assert labels(g, d.core) == {"c00", "c02"}
    assert d.n_vertices == frozenset()
    assert alpha(d) == 4 and nu(d) == 2


def kernel_case_tag(g: Graph, cls) -> str:
    """The Type I case by its definition, read off dense RREF kernels."""
    v = cls.witness
    u, w = cls.cycle.neighbors_on_cycle(v)
    pend = cls.pendant_trees[v]
    rest_vertices = sorted(set(range(g.n)) - pend.keys())
    pos = {vertex: j for j, vertex in enumerate(rest_vertices)}
    basis = null_space_basis(g.induced_subgraph(rest_vertices).adjacency_matrix())
    if any(vec[pos[u]] + vec[pos[w]] != 0 for vec in basis):
        return CASE_TI4
    if all(vec[pos[u]] == 0 and vec[pos[w]] == 0 for vec in basis):
        return CASE_TI1
    tree_vertices = sorted(pend)
    tree_basis = null_space_basis(g.induced_subgraph(tree_vertices).adjacency_matrix())
    support = {tree_vertices[j] for vec in tree_basis for j, x in enumerate(vec) if x != 0}
    return CASE_TI2 if v in g.neighborhood(support) else CASE_TI3


def test_case_tag_equals_kernel_definition(families):
    sample = [
        generate_unicyclic(GeneratorSpec(n=5 + i % 10, seed=9000 + i, class_bias=TYPE1))
        for i in range(150)
    ]
    sample += [g for case in (CASE_TI1, CASE_TI2, CASE_TI3, CASE_TI4) for g in families[case]]
    seen = set()
    for g in sample:
        cls = classify(g)
        assert cls.tag == TYPE1
        expected = kernel_case_tag(g, cls)
        assert cls.case == expected, g.to_edge_list()
        seen.add(expected)
    assert seen == {CASE_TI1, CASE_TI2, CASE_TI3, CASE_TI4}


@pytest.fixture
def decomposed_sets(decomposition_calls):
    """Run ``classify``, ``structural_decomposition`` and ``recursion_nullity`` on a graph.

    Returns how often each (graph, vertex set) was decomposed, and how many of those
    calls ``recursion_nullity`` made.
    """
    seen = decomposition_calls

    def run(g: Graph) -> tuple[Counter, int]:
        seen.clear()
        cls = classify(g)
        structural_decomposition(g, cls)
        before = seen.total()
        recursion_nullity(cls)
        return Counter(seen), seen.total() - before

    return run


@pytest.mark.parametrize("case", ["TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k"])
def test_no_vertex_set_is_decomposed_twice(decomposed_sets, families, case):
    # The class carries each pendant tree's and the complement's
    # decomposition; the assembly and the recursion read them from there.
    for g in families[case]:
        seen, in_recursion = decomposed_sets(g)
        assert in_recursion == 0
        assert seen and max(seen.values()) == 1, g.to_edge_list()


@pytest.mark.parametrize("length, witness_tail", [(24, 2), (32, 2), (30, 2), (24, 1), (25, 1), (26, 1)])
def test_no_vertex_set_is_decomposed_twice_on_long_cycles_with_trees(decomposed_sets, length, witness_tail):
    # The graphs of test_long_cycle_with_a_tree_at_every_vertex_passes, all six cases.
    g = cycle_with_attachments(length, tails={i: 2 for i in range(length)} | {0: witness_tail})
    seen, in_recursion = decomposed_sets(g)
    assert in_recursion == 0
    assert seen and max(seen.values()) == 1
