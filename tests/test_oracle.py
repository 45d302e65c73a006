from __future__ import annotations

from itertools import combinations

import pytest

from nulldecomp import Graph
from nulldecomp.oracle import (
    ENUMERATION_BUDGET,
    SEARCH_BUDGET,
    brute_alpha,
    brute_nu,
    edmonds_gallai_set,
    max_independent_intersection,
    maximum_independent_sets,
    maximum_matchings,
)
from nulldecomp.errors import BudgetExceeded
from nulldecomp.trees import tree_decomposition

from conftest import cycle_graph, path_graph, star_graph


def test_brute_alpha_examples(ex_type1):
    assert brute_alpha(cycle_graph(5)) == 2
    assert brute_alpha(ex_type1) == 10
    single = Graph.from_edges([], isolated=["v"])
    assert brute_alpha(single) == 1


def test_brute_nu_examples(ex_type1):
    assert brute_nu(path_graph(4)) == 2
    assert brute_nu(ex_type1) == 8
    assert brute_nu(cycle_graph(5)) == 2


def test_budget_enforced():
    with pytest.raises(BudgetExceeded):
        brute_alpha(path_graph(SEARCH_BUDGET + 1))
    with pytest.raises(BudgetExceeded):
        edmonds_gallai_set(path_graph(ENUMERATION_BUDGET + 1))
    # Six vertices but 15 edges: matchings are enumerated over edge subsets.
    k6 = Graph.from_edges([(f"v{a}", f"v{b}") for a in range(6) for b in range(a + 1, 6)])
    with pytest.raises(BudgetExceeded, match="15 edges"):
        maximum_matchings(k6)
    with pytest.raises(BudgetExceeded):
        edmonds_gallai_set(k6)
    # Eight vertices but 28 edges: nu is searched over the line graph.
    k8 = Graph.from_edges([(f"v{a}", f"v{b}") for a in range(8) for b in range(a + 1, 8)])
    with pytest.raises(BudgetExceeded, match="28 edges"):
        brute_nu(k8)


def test_edmonds_gallai_examples():
    p3 = path_graph(3)
    assert edmonds_gallai_set(p3) == {0, 2}
    assert edmonds_gallai_set(path_graph(2)) == frozenset()
    star = star_graph(3)
    leaves = {star.index_of(f"x{i:02d}") for i in range(3)}
    assert edmonds_gallai_set(star) == leaves


def test_max_independent_intersection_examples():
    assert max_independent_intersection(path_graph(3)) == {0, 2}
    assert max_independent_intersection(path_graph(4)) == frozenset()
    assert max_independent_intersection(path_graph(2)) == frozenset()


def test_enumeration_consistency():
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        mis = maximum_independent_sets(g)
        assert all(len(s) == brute_alpha(g) for s in mis)
        assert all(g.is_independent_set(s) for s in mis)
        matchings = maximum_matchings(g)
        assert all(len(m) == brute_nu(g) for m in matchings)


def _reference_nu(g: Graph) -> int:
    """The most pairwise disjoint edges, by trying edge subsets from the largest down."""
    edges = list(g.edges())
    for size in range(len(edges), 0, -1):
        for chosen in combinations(edges, size):
            if len({v for edge in chosen for v in edge}) == 2 * size:
                return size
    return 0


def test_nu_matches_exhaustive_small():
    # brute_nu and maximum_matchings share the line-graph masks, so each is
    # held to a reference that uses no oracle code, and to the other.
    graphs = [
        path_graph(7),
        cycle_graph(5),
        cycle_graph(7),
        cycle_graph(12),
        star_graph(5),
        Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")]),
        Graph.from_edges([(f"v{a}", f"v{b}") for a in range(4) for b in range(a + 1, 4)]),  # K_4
        # theta: s and t joined by paths of one, two and three edges
        Graph.from_edges([("s", "t"), ("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"), ("c", "t")]),
    ]
    for g in graphs:
        expected = _reference_nu(g)
        assert brute_nu(g) == expected, g.to_edge_list()
        assert all(len(matching) == expected for matching in maximum_matchings(g)), g.to_edge_list()
        assert brute_nu(g) == len(next(iter(maximum_matchings(g))))


def test_mis_facts_for_trees():
    # Core vertices miss some maximum independent set; N-vertices swing.
    for g in (path_graph(6), star_graph(4), path_graph(3)):
        d = tree_decomposition(g)
        mis = maximum_independent_sets(g)
        for v in d.core:
            assert any(v not in s for s in mis)
        for v in d.n_vertices:
            assert any(v in s for s in mis)
            assert any(v not in s for s in mis)


def test_eg_equals_support_on_trees():
    for g in (path_graph(3), path_graph(6), star_graph(4)):
        assert edmonds_gallai_set(g) == tree_decomposition(g).support
        assert max_independent_intersection(g) == tree_decomposition(g).support

