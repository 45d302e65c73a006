"""The failure minimizer keeps the failure it started from."""

from __future__ import annotations

from nulldecomp.checks import minimize_failing_graph
from nulldecomp.errors import CaseContradiction, RecursionMismatch

from conftest import cycle_with_attachments


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
        raise RecursionMismatch("a different bug")

    assert minimize_failing_graph(pendant_path_graph(), failed_checks).n == 7


def test_minimizer_shrinks_a_steady_failure_to_the_cycle():
    def failed_checks(h):
        return frozenset({"span_equality"})

    assert minimize_failing_graph(pendant_path_graph(), failed_checks).n == 4
