"""Acceptance suite: one test per criterion, each printing its pass line.

Golden values come from worked examples transcribed into conftest, cycle
nullities from the closed form, and the campaign criteria from the seeded
500-graph corpus plus the case-targeted families.
"""

from __future__ import annotations

import time

from nulldecomp import classify, constructed_null_basis, run_checks
from nulldecomp.decomposition import alpha, decomposition_from_basis, nu, structural_decomposition
from nulldecomp.linalg import is_zero_vector, mat_vec, null_space_basis, rref, same_span
from nulldecomp.oracle import brute_alpha, brute_nu
from nulldecomp.trees import tree_decomposition
from nulldecomp.unicyclic import recursion_nullity

from conftest import cycle_graph, dense, kernel_case


def _report(number: int, title: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({title}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_1_golden_type1(ex_type1):
    started = time.perf_counter()
    g = ex_type1
    d = decomposition_from_basis(g)
    assert g.label_set(d.support) == {"a", "b", "e", "f", "i"}
    assert g.label_set(d.core) == {"c", "v", "g", "h"}
    assert len(d.n_vertices) == 9
    assert alpha(d) == 10
    assert nu(d) == 8
    _report(1, "18-vertex Type I golden example", started, 1.0)


def test_criterion_2_golden_type2_five_cycle(ex_five_cycle):
    started = time.perf_counter()
    g = ex_five_cycle
    d = decomposition_from_basis(g)
    # The reference support listing for this example is a suspected erratum
    # (it has 12 entries, with i in both support and core and m in both
    # support and N); the computed sets reproduce the reference alpha/nu.
    assert len(d.support) == 11
    assert len(d.core) == 5
    assert len(d.n_vertices) == 9
    assert alpha(d) == 15
    assert nu(d) == 9
    _report(2, "25-vertex Type II golden example", started, 1.0)


def test_criterion_3_golden_type2_four_cycle(ex_four_cycle):
    started = time.perf_counter()
    g = ex_four_cycle
    d = decomposition_from_basis(g)
    assert g.label_set(d.support) == set("bcdejluvzw")
    assert len(d.support) == 10
    assert len(d.core) == 7
    assert g.label_set(d.n_vertices) == {"g", "h"}
    assert g.label_set(d.support & d.core) == {"u", "v", "w", "z"}
    assert g.label_set(classify(g).cycle.vertices) == {"u", "v", "w", "z"}
    assert alpha(d) == 9
    assert nu(d) == 6
    assert d.nullity == 5
    _report(3, "15-vertex Type II golden example", started, 1.0)


def test_criterion_4_cycle_nullity():
    started = time.perf_counter()
    for n in range(3, 18):
        expected = 2 if n % 4 == 0 else 0
        g = cycle_graph(n)
        assert len(null_space_basis(g.adjacency_matrix())) == expected, n
        cls = classify(g)
        assert recursion_nullity(cls) == expected, n
    _report(4, "cycle nullities up to length 17", started, 1.0)


def test_criterion_5_basis_exactness_and_span(random_corpus):
    started = time.perf_counter()
    assert len(random_corpus) >= 500
    for g in random_corpus:
        cls = classify(g)
        basis = constructed_null_basis(g, cls)
        matrix = g.adjacency_matrix()
        for vec in basis.vectors:
            assert is_zero_vector(mat_vec(matrix, dense(vec, g.n))), g.to_edge_list()
        rank_deficiency = g.n - rref(matrix)[1]
        assert len(basis.vectors) == rank_deficiency == recursion_nullity(cls)
        assert same_span([dense(vec, g.n) for vec in basis.vectors], null_space_basis(matrix)), g.to_edge_list()
    _report(5, "constructed bases exact + span equality on 500 random graphs", started, 60.0)


def test_criterion_6_formulas_vs_oracle(random_corpus):
    started = time.perf_counter()
    for g in random_corpus:
        d = decomposition_from_basis(g)
        assert alpha(d) == brute_alpha(g), g.to_edge_list()
        assert nu(d) == brute_nu(g), g.to_edge_list()
        cycle = d.cls.cycle
        pend = d.cls.pendant_trees
        derived = [g.delete_vertices(cycle.vertices)]
        derived += [g.induced_subgraph(sorted(pend[v].keys() - {v})) for v in cycle.vertices]
        for forest in derived:
            if forest.n == 0:
                continue
            t = tree_decomposition(forest)
            assert alpha(t) == brute_alpha(forest), forest.to_edge_list()
            assert nu(t) == brute_nu(forest), forest.to_edge_list()
    _report(6, "closed formulas match brute force on corpus + derived forests", started, 120.0)


def test_criterion_7_structural_identity_suite(random_corpus, families):
    started = time.perf_counter()
    small = [g for g in random_corpus if g.n <= 12][:200]
    small += [g for graphs in families.values() for g in graphs if g.n <= 12]
    assert len(small) >= 200
    required_somewhere = {
        "eg_equals_support",
        "mis_intersection_is_support",
        "supported_neighbor_after_deletion",
        "support_survives_root_deletion",
        "forest_support_in_pendant_supports",
        "alpha_stable_under_root_deletion",
        "nu_drops_under_root_deletion",
        "pendant_vs_forest_alpha_identity",
        "support_dichotomy",
        "supp_core_rule",
    }
    seen: set[str] = set()
    for g in small:
        checks = run_checks(g)
        failed = {name for name, ok in checks.items() if not ok}
        assert not failed, (failed, g.to_edge_list())
        seen |= set(checks)
    assert required_somewhere <= seen
    _report(7, "structural identity suite on graphs of at most 12 vertices", started, 120.0)


def test_criterion_8_structural_vs_basis_with_case_coverage(
    random_corpus, families, ex_type1, ex_star, ex_five_cycle, ex_four_cycle
):
    started = time.perf_counter()
    corpus = list(random_corpus)
    corpus += [g for graphs in families.values() for g in graphs]
    corpus += [ex_type1, ex_star, ex_five_cycle, ex_four_cycle]
    hits = {case: 0 for case in ("TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k")}
    for g in corpus:
        a = decomposition_from_basis(g)
        b = structural_decomposition(g, a.cls)
        assert (a.support, a.core, a.n_vertices, a.case) == (
            b.support,
            b.core,
            b.n_vertices,
            b.case,
        ), g.to_edge_list()
        assert b.case == kernel_case(g, a.cls), g.to_edge_list()
        hits[a.case] += 1
    assert all(count >= 10 for count in hits.values()), hits
    print(f"case coverage: {hits}")
    _report(8, "structural equals basis-derived decomposition, all cases covered", started, 120.0)
