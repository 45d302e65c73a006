"""The oracle against exhaustive references that share no code with it.

Every answer of ``nulldecomp.oracle`` comes off one memoized search.  The
references here try vertex subsets and edge subsets with
``itertools.combinations``, from the largest size down, on every tree and
unicyclic graph with at most eight vertices and on a few graphs outside
both classes.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from nulldecomp import Graph
from nulldecomp.oracle import (
    SEARCH_BUDGET,
    brute_alpha,
    brute_nu,
    edmonds_gallai_set,
    max_independent_intersection,
    max_independent_union,
)
from nulldecomp.errors import BudgetExceeded
from nulldecomp.trees import tree_decomposition

from conftest import cycle_graph, path_graph, star_graph
from test_exhaustive import _edges, _graph, _unicyclic_graph, free_trees, unicyclic_graphs

K4 = Graph.from_edges([(f"v{a}", f"v{b}") for a in range(4) for b in range(a + 1, 4)])
# theta: s and t joined by paths of one, two and three edges
THETA = Graph.from_edges([("s", "t"), ("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"), ("c", "t")])
TRIANGLE_WITH_TAIL = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")])
EDGE_AND_ISOLATED = Graph.from_edges([("a", "b")], isolated=["c"])


def _small_graphs() -> list[Graph]:
    """Every tree and unicyclic graph on at most eight vertices, then the graphs above and odd cycles."""
    graphs = [_graph(n, _edges(code, 0, 1)) for n in range(1, 9) for code in sorted(free_trees(n))]
    graphs += [_unicyclic_graph(seq) for n in range(3, 9) for seq in sorted(unicyclic_graphs(n))]
    return graphs + [K4, THETA, TRIANGLE_WITH_TAIL, cycle_graph(5), cycle_graph(7), EDGE_AND_ISOLATED]


def _reference_maximum_independent_sets(g: Graph) -> list[frozenset[int]]:
    """Every maximum independent set, by trying vertex subsets from the largest down."""
    for size in range(g.n, -1, -1):
        found = [
            frozenset(chosen)
            for chosen in combinations(range(g.n), size)
            if not any(w in chosen for v in chosen for w in g.neighbors(v))
        ]
        if found:
            return found
    raise AssertionError("the empty set is independent")


def _reference_maximum_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Every maximum matching, by trying edge subsets from the largest down."""
    edges = list(g.edges())
    for size in range(len(edges), -1, -1):
        found = [
            frozenset(chosen)
            for chosen in combinations(edges, size)
            if len({v for edge in chosen for v in edge}) == 2 * size
        ]
        if found:
            return found
    raise AssertionError("the empty matching is a matching")


def _reference_nu(g: Graph) -> int:
    return len(_reference_maximum_matchings(g)[0])


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
    too_many = path_graph(SEARCH_BUDGET + 1)
    for oracle in (brute_alpha, brute_nu, edmonds_gallai_set, max_independent_intersection, max_independent_union):
        with pytest.raises(BudgetExceeded, match=f"{SEARCH_BUDGET + 1} vertices"):
            oracle(too_many)
    # Eight vertices but 28 edges: nu and the Edmonds-Gallai set are searched over the line graph.
    k8 = Graph.from_edges([(f"v{a}", f"v{b}") for a in range(8) for b in range(a + 1, 8)])
    for oracle in (brute_nu, edmonds_gallai_set):
        with pytest.raises(BudgetExceeded, match="28 edges"):
            oracle(k8)


def test_set_oracles_answer_up_to_the_search_budget():
    odd, even = path_graph(SEARCH_BUDGET - 1), path_graph(SEARCH_BUDGET)
    support = tree_decomposition(odd).support
    assert support == frozenset(range(0, SEARCH_BUDGET - 1, 2))
    assert edmonds_gallai_set(odd) == max_independent_intersection(odd) == max_independent_union(odd) == support
    assert edmonds_gallai_set(even) == max_independent_intersection(even) == frozenset()
    assert max_independent_union(even) == frozenset(range(SEARCH_BUDGET))


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


def test_set_oracles_match_the_references():
    for g in _small_graphs():
        mis, matchings = _reference_maximum_independent_sets(g), _reference_maximum_matchings(g)
        missed = [frozenset(range(g.n)) - {v for edge in m for v in edge} for m in matchings]
        assert edmonds_gallai_set(g) == frozenset().union(*missed), g.to_edge_list()
        assert max_independent_intersection(g) == frozenset.intersection(*mis), g.to_edge_list()
        assert max_independent_union(g) == frozenset().union(*mis), g.to_edge_list()
        assert (brute_alpha(g), brute_nu(g)) == (len(mis[0]), len(matchings[0])), g.to_edge_list()


def test_nu_matches_exhaustive_small():
    # The line graph's search is held to a reference that uses no oracle code.
    graphs = [path_graph(7), cycle_graph(5), cycle_graph(7), cycle_graph(12), star_graph(5), TRIANGLE_WITH_TAIL, K4, THETA]
    for g in graphs:
        assert brute_nu(g) == _reference_nu(g), g.to_edge_list()


def test_mis_facts_for_trees():
    # Core vertices miss some maximum independent set; N-vertices swing.
    for g in (path_graph(6), star_graph(4), path_graph(3)):
        d = tree_decomposition(g)
        every, some = max_independent_intersection(g), max_independent_union(g)
        assert not d.core & every
        assert d.n_vertices <= some - every


def test_eg_equals_support_on_trees():
    for g in (path_graph(3), path_graph(6), star_graph(4)):
        assert edmonds_gallai_set(g) == tree_decomposition(g).support
        assert max_independent_intersection(g) == tree_decomposition(g).support

