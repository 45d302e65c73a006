from __future__ import annotations

from dataclasses import replace

import pytest

from nulldecomp import Graph, GeneratorSpec, analyze, classify, generate_unicyclic, run_checks
from nulldecomp.decomposition import (
    CASE_FOREST,
    Decomposition,
    alpha,
    decomposition_from_basis,
    nu,
    structural_decomposition,
)
from nulldecomp.errors import NotUnicyclic, OddNSet, UnsupportedGraphClass
from nulldecomp.generator import FORCE_TYPE1
from nulldecomp.graph import pendant_trees
from nulldecomp.linalg import null_space_basis, support_indices
from nulldecomp.unicyclic import (
    CASE_TI1,
    CASE_TI2,
    CASE_TI3,
    CASE_TI4,
    CASE_TII_4K,
    CASE_TII_NON4K,
    TYPE1,
)

from conftest import cycle_graph, cycle_with_attachments, kernel_case, path_graph


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


def test_structural_rejects_forest():
    g = path_graph(4)
    with pytest.raises(NotUnicyclic):
        structural_decomposition(g, classify(g))


def test_unsupported_graph_class():
    theta = Graph.from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    )
    with pytest.raises(UnsupportedGraphClass):
        decomposition_from_basis(theta)


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
    pend = pendant_trees(g, cls.cycle)[v]
    rest_vertices = sorted(set(range(g.n)) - pend)
    pos = {vertex: j for j, vertex in enumerate(rest_vertices)}
    basis = null_space_basis(g.induced_subgraph(rest_vertices).adjacency_matrix())
    if any(vec[pos[u]] + vec[pos[w]] != 0 for vec in basis):
        return CASE_TI4
    if all(vec[pos[u]] == 0 and vec[pos[w]] == 0 for vec in basis):
        return CASE_TI1
    tree_vertices = sorted(pend)
    tree_basis = null_space_basis(g.induced_subgraph(tree_vertices).adjacency_matrix())
    support = {tree_vertices[j] for vec in tree_basis for j in support_indices(vec)}
    return CASE_TI2 if v in g.neighborhood(support) else CASE_TI3


def test_case_tag_equals_kernel_definition(families):
    sample = [
        generate_unicyclic(GeneratorSpec(n=5 + i % 10, seed=9000 + i, class_bias=FORCE_TYPE1))
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
