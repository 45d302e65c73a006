"""The check battery: the failure minimizer keeps the failure it started
from, one run reduces each matrix once and classifies the graph once, the
case is held to its kernel definition, and a formula that raises fails its
check."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from nulldecomp import checks, classify, decomposition, linalg, run_checks
from nulldecomp.checks import minimize_failing_graph
from nulldecomp.errors import CaseContradiction, NormalizationFailure
from nulldecomp.trees import Decomposition
from nulldecomp.unicyclic import recursion_nullity

from conftest import cycle_with_attachments, path_graph


def pendant_path_graph():
    """A 4-cycle with a pendant path of six vertices: leaves peel off one at a time."""
    g = cycle_with_attachments(4, tails={0: 6})
    assert g.n == 10
    return g


def test_minimizer_stops_where_the_failed_checks_change():
    def failed_checks(h):
        if h.n >= 8:
            return frozenset({"span_equality"})
        if h.n >= 6:
            return frozenset({"parity_rule"})
        return frozenset()

    assert minimize_failing_graph(pendant_path_graph(), failed_checks).n == 8


def test_minimizer_does_not_trade_a_failed_check_for_a_raise():
    def failed_checks(h):
        if h.n >= 8:
            return frozenset({"span_equality"})
        raise CaseContradiction("a different bug")

    assert minimize_failing_graph(pendant_path_graph(), failed_checks).n == 8


def test_minimizer_holds_the_exception_type():
    def failed_checks(h):
        if h.n >= 7:
            raise CaseContradiction("the bug being shrunk")
        raise NormalizationFailure("a different bug")

    assert minimize_failing_graph(pendant_path_graph(), failed_checks).n == 7


def test_minimizer_shrinks_a_steady_failure_to_the_cycle():
    def failed_checks(h):
        return frozenset({"span_equality"})

    assert minimize_failing_graph(pendant_path_graph(), failed_checks).n == 4


def _full_matrix_reductions(monkeypatch, g) -> int:
    """How many times one ``run_checks(g)`` hands the whole n x n A(g) to ``rref``."""
    whole = g.adjacency_matrix()
    seen = []
    original = linalg.rref

    def counting(matrix):
        seen.append([list(row) for row in matrix] == whole)
        return original(matrix)

    monkeypatch.setattr(linalg, "rref", counting)
    run_checks(g)
    return sum(seen)


def test_run_checks_reduces_a_forest_matrix_once(monkeypatch):
    assert _full_matrix_reductions(monkeypatch, path_graph(7)) == 1


def test_run_checks_reduces_a_unicyclic_matrix_once(monkeypatch, ex_type1):
    assert _full_matrix_reductions(monkeypatch, ex_type1) == 1


def test_nullity_recursion_fails_on_an_off_by_one_recursion(monkeypatch, ex_four_cycle):
    assert run_checks(ex_four_cycle)["nullity_recursion"]
    cls = classify(ex_four_cycle)
    true_nullity = recursion_nullity(ex_four_cycle, cls.pendant_trees, cls.witness)
    monkeypatch.setattr(checks, "recursion_nullity", lambda *args: true_nullity + 1)
    assert run_checks(ex_four_cycle)["nullity_recursion"] is False


def test_a_guarded_check_that_raises_any_exception_fails(monkeypatch, ex_four_cycle):
    def planted(*args):
        raise StopIteration("planted")

    monkeypatch.setattr(checks, "recursion_nullity", planted)
    result = run_checks(ex_four_cycle)
    assert result["nullity_recursion"] is False
    assert all(ok for name, ok in result.items() if name != "nullity_recursion")


@pytest.mark.parametrize("example", ["ex_type1", "ex_four_cycle"])
def test_run_checks_classifies_once(monkeypatch, request, example):
    g = request.getfixturevalue(example)
    calls = []

    def counting(h):
        calls.append(h)
        return classify(h)

    for name, module in list(sys.modules.items()):
        if name.startswith("nulldecomp") and getattr(module, "classify", None) is classify:
            monkeypatch.setattr(module, "classify", counting)
    assert all(run_checks(g).values())
    assert calls == [g]


@pytest.mark.parametrize("case, planted", [("TI-4", "TI-1"), ("TI-1", "TI-2"), ("TI-2", "TI-1")])
def test_structural_matches_basis_fails_on_a_wrong_case(monkeypatch, families, case, planted):
    # TI-1 and TI-2 assemble the same sets, so only the case's kernel
    # definition tells those two plants apart.
    g = families[case][0]
    assert run_checks(g)["structural_matches_basis"]
    monkeypatch.setattr(decomposition, "classify", lambda h: replace(classify(h), case=planted))
    assert run_checks(g)["structural_matches_basis"] is False


@pytest.mark.parametrize("example, cut", [("ex_type1", "witness"), ("ex_four_cycle", "cycle")])
def test_an_odd_n_set_in_a_split_fails_the_split_checks(monkeypatch, request, example, cut):
    # alpha and nu raise OddNSet on a forest with an odd N-set; the battery
    # must report the split identities as failed, not raise.
    g = request.getfixturevalue(example)
    odd = Decomposition(frozenset(), frozenset(), frozenset({0}), 0)
    monkeypatch.setattr(checks, "forest_decomposition", lambda h, vertices: odd)
    result = run_checks(g)
    split = {f"alpha_splits_at_{cut}", f"nu_splits_at_{cut}"}
    assert {name: result[name] for name in split} == dict.fromkeys(split, False)
    assert all(ok for name, ok in result.items() if name not in split)
