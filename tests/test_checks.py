"""The check battery: the failure minimizer keeps the failure it started
from, one run reduces each matrix once, classifies the graph once and
builds its kernel basis once (as do ``analyze`` and ``basis``), the
matching route's sets are held to the kernel reading on forests too, the
case is held to its kernel definition, a check that raises fails only
itself, a constructed basis that raises fails every check on its vectors
(a forest's too), each set-valued check fails on a misplaced vertex and
holds exactly its own claim, every other check reads False on a planted
wrong value, long cycles with a pendant tree at every cycle vertex pass in
every case, and one run decomposes no vertex set twice."""

from __future__ import annotations

import io
import sys
from dataclasses import replace

import pytest

from nulldecomp import Graph, checks, classify, constructed_null_basis, decomposition, linalg, parse_edge_list, run_checks
from nulldecomp.checks import minimize_failing_graph
from nulldecomp.cli import main
from nulldecomp.errors import CaseContradiction, NormalizationFailure, OddNSet
from nulldecomp.linalg import ONE
from nulldecomp.oracle import brute_alpha
from nulldecomp.unicyclic import EXTENDED_FOREST, EXTENDED_PENDANT, RREF_CANONICAL, NullBasis, recursion_nullity

from conftest import cycle_with_attachments, path_graph, rebind


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
    true_nullity = recursion_nullity(cls)
    monkeypatch.setattr(checks, "recursion_nullity", lambda *args: true_nullity + 1)
    assert run_checks(ex_four_cycle)["nullity_recursion"] is False


def test_a_guarded_check_that_raises_any_exception_fails(monkeypatch, ex_four_cycle):
    def planted(*args):
        raise StopIteration("planted")

    monkeypatch.setattr(checks, "recursion_nullity", planted)
    result = run_checks(ex_four_cycle)
    assert result["nullity_recursion"] is False
    assert all(ok for name, ok in result.items() if name != "nullity_recursion")


@pytest.mark.parametrize(
    "edges, owner, name, check",
    [
        ("a b\nb c\nc a\nc d", checks, "_parity_rule", "parity_rule"),
        ("a b\nb c\nc a\nc d", checks, "_kernel_case", "structural_matches_basis"),
        ("a b\nb c\nc a\nc d", Graph, "is_independent_set", "support_dichotomy"),
        ("a b\nb c", Graph, "is_independent_set", "support_independent"),
    ],
    ids=["parity_rule", "kernel_case", "unicyclic_is_independent_set", "forest_is_independent_set"],
)
def test_a_check_that_raises_fails_only_itself(monkeypatch, edges, owner, name, check):
    # Each planted name is read by one check alone on its graph, outside the shared inputs.
    def planted(*args):
        raise KeyError("planted")

    g = parse_edge_list(edges)
    monkeypatch.setattr(owner, name, planted)
    assert {failed for failed, ok in run_checks(g).items() if not ok} == {check}


def test_a_production_kernel_that_raises_fails_basis_count(monkeypatch, ex_type1):
    def planted(*args):
        raise NormalizationFailure("planted")

    monkeypatch.setattr(checks, "rref_null_basis", planted)
    assert {name for name, ok in run_checks(ex_type1).items() if not ok} == {"basis_count"}


@pytest.mark.parametrize("example", ["ex_type1", "ex_four_cycle", "forest"])
def test_a_constructed_basis_that_raises_fails_the_checks_on_its_vectors(monkeypatch, request, example):
    # A forest's construction is forest_null_basis_on's basis: only its two vector checks fail.
    def planted(*args):
        raise NormalizationFailure("planted")

    g = path_graph(5) if example == "forest" else request.getfixturevalue(example)
    monkeypatch.setattr(checks, "constructed_null_basis", planted)
    result = run_checks(g)
    on_vectors = {"basis_exact", "basis_count", "span_equality", "pendant_extension_null", "forest_extension_null"}
    assert {name for name, ok in result.items() if not ok} == on_vectors & set(result)


@pytest.mark.parametrize("example", ["ex_type1", "ex_four_cycle", "forest"])
def test_run_checks_classifies_once(monkeypatch, capsys, request, example):
    # It builds g's kernel basis once too.  So do `analyze` and `basis` by
    # either method, on a forest too, except that analyze reads a forest off
    # a maximum matching and builds no basis.
    g = path_graph(5) if example == "forest" else request.getfixturevalue(example)
    calls, built = [], []

    def counting(h):
        calls.append(h)
        return classify(h)

    def building(h, cls):
        built.append(h)
        return constructed_null_basis(h, cls)

    rebind(monkeypatch, classify, counting)
    rebind(monkeypatch, constructed_null_basis, building)
    assert all(run_checks(g).values())
    assert calls == built == [g]
    for argv in (["analyze", "-"], ["basis", "-", "--method", "structural"], ["basis", "-", "--method", "rref"]):
        calls.clear()
        built.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(g.to_edge_list()))
        assert main(argv) == 0
        assert calls == [g]
        assert built == ([] if argv[0] == "analyze" and example == "forest" else [g]), argv
    capsys.readouterr()


@pytest.mark.parametrize("case, planted", [("TI-4", "TI-1"), ("TI-1", "TI-2"), ("TI-2", "TI-1")])
def test_structural_matches_basis_fails_on_a_wrong_case(monkeypatch, families, case, planted):
    # TI-1 and TI-2 assemble the same sets, so only the case's kernel
    # definition tells those two plants apart.
    g = families[case][0]
    assert run_checks(g)["structural_matches_basis"]
    monkeypatch.setattr(decomposition, "classify", lambda h: replace(classify(h), case=planted))
    assert run_checks(g)["structural_matches_basis"] is False


def test_structural_matches_basis_fails_on_a_wrong_forest_support(monkeypatch):
    # analyze reads a forest off the matching route, so the battery holds
    # that route's sets to the kernel reading on forests too.
    g = path_graph(7)
    assert run_checks(g)["structural_matches_basis"]
    v = min(decomposition.decomposition_from_basis(g).support)
    _plant_route(monkeypatch, lambda d: replace(d, support=d.support - {v}, n_vertices=d.n_vertices | {v}))
    assert run_checks(g)["structural_matches_basis"] is False


def _plant_route(monkeypatch, plant):
    """The matching route under test goes through ``plant``."""
    real = checks.structural_decomposition
    monkeypatch.setattr(checks, "structural_decomposition", lambda h, cls: plant(real(h, cls)))


def _plant_kernel_reading(monkeypatch, plant):
    """The decomposition the battery reads off g's own reference kernel goes through ``plant``."""
    real = checks.decomposition_from_basis
    monkeypatch.setattr(checks, "decomposition_from_basis", lambda h, basis: plant(real(h, basis)))


def _support_into_core(d):
    """The smallest support vertex moved into the core: alpha drops by one and nu grows by one."""
    v = min(d.support)
    return replace(d, support=d.support - {v}, core=d.core | {v})


def _core_into_support(d):
    return replace(d, support=d.support | d.core, core=frozenset())


def _plant_complement(monkeypatch, g):
    """The battery's one classification carries G - T_v / G - C with a support vertex moved into its core.

    So that piece's alpha drops by one and its nu grows by one, with its N-set unchanged.
    """
    cls = classify(g)
    planted = replace(cls, complement=_support_into_core(cls.complement))
    monkeypatch.setattr(decomposition, "classify", lambda h: planted)


def _plant_every_vertex_supported(monkeypatch, g):
    """Every reference-kernel reading of a vertex set other than g's own holds the whole set as support."""
    real = checks._kernel_decomposition
    monkeypatch.setattr(checks, "_kernel_decomposition", lambda h, vs: replace(real(h, vs), support=vs))


def _plant_reading_of(vertex_set, plant):
    """A plant: the reference-kernel reading of the one vertex set ``vertex_set(g)`` goes through ``plant``."""
    def planted(monkeypatch, g):
        target, real = vertex_set(g), checks._kernel_decomposition
        monkeypatch.setattr(checks, "_kernel_decomposition", lambda h, vs: plant(real(h, vs)) if vs == target else real(h, vs))

    return planted


def _witness_tree_less_witness(g):
    """pend[v] - {v} for a Type I g's witness v: the forest the root-deletion checks read."""
    cls = classify(g)
    return frozenset(cls.pendant_trees[cls.witness]) - {cls.witness}


def _cycle_complement(g):
    """G - C: the forest of a Type II g."""
    return frozenset(range(g.n)) - classify(g).cycle.vertex_set()


def _plant_constructed(edit):
    """A plant: the battery's constructed basis keeps its provenance tags, its vectors are ``edit(basis)``."""
    def planted(monkeypatch, g):
        real = checks.constructed_null_basis

        def build(h, cls):
            basis = real(h, cls)
            return NullBasis(edit(basis), basis.provenance)

        monkeypatch.setattr(checks, "constructed_null_basis", build)

    return planted


def _plant_unannihilated(tag):
    """A plant: the first constructed vector tagged ``tag`` becomes e_0, which A(G) does not annihilate."""
    def edit(basis):
        i = basis.provenance.index(tag)
        return basis.vectors[:i] + ({0: ONE},) + basis.vectors[i + 1:]

    return _plant_constructed(edit)


def _plant_supported_neighbors_into_n(monkeypatch, g):
    """The witness's neighbors leave the support of pend[v] - {v}'s reading for its N-set."""
    near = frozenset(g.neighbors(classify(g).witness))
    _plant_reading_of(_witness_tree_less_witness, lambda d: replace(
        d, support=d.support - near, n_vertices=d.n_vertices | (d.support & near)
    ))(monkeypatch, g)


# Each check, the graph it runs on and a plant that makes one value it reads wrong without raising.
WRONG_VALUES = {
    "alpha_oracle": ("path", lambda mp, g: mp.setattr(checks, "brute_alpha", lambda h: brute_alpha(h) + 1)),
    # The alpha half: test_cli's planted brute_nu fails the nu half.
    "derived_forest_formulas": ("ex_type1", lambda mp, g: mp.setattr(checks, "brute_alpha", lambda h: brute_alpha(h) + 1)),
    "even_n_set": ("path", lambda mp, g: _plant_kernel_reading(
        mp, lambda d: replace(d, support=d.support - {0}, n_vertices=d.n_vertices | {0})
    )),
    "supp_core_disjoint": ("path", lambda mp, g: _plant_kernel_reading(mp, lambda d: replace(d, core=d.core | {0}))),
    # Any partition with an even N-set satisfies the sum, so two vertices sit in two sets each.
    "formula_sum": ("path", lambda mp, g: _plant_route(mp, lambda d: replace(d, n_vertices=d.n_vertices | {0, 2}))),
    "supp_core_rule": ("ex_type1", lambda mp, g: _plant_kernel_reading(
        mp, lambda d: replace(d, core=d.core | {min(d.support)})
    )),
    "cycle_tree_neighbors_unsupported": ("ex_four_cycle", _plant_every_vertex_supported),
    "alpha_splits_at_witness": ("ex_type1", _plant_complement),
    "nu_splits_at_witness": ("ex_type1", _plant_complement),
    "alpha_splits_at_cycle": ("ex_four_cycle", _plant_complement),
    "nu_splits_at_cycle": ("ex_four_cycle", _plant_complement),
    # Every core vertex neighbours a support vertex.
    "support_independent": ("path", lambda mp, g: _plant_kernel_reading(mp, _core_into_support)),
    "support_dichotomy": ("ex_type1", lambda mp, g: _plant_kernel_reading(mp, _core_into_support)),
    "parity_rule": ("ex_type1", lambda mp, g: _plant_kernel_reading(
        mp, lambda d: replace(d, n_vertices=d.n_vertices - {min(d.n_vertices)})
    )),
    "basis_exact": ("path", _plant_unannihilated(RREF_CANONICAL)),
    "pendant_extension_null": ("ex_type1", _plant_unannihilated(EXTENDED_PENDANT)),
    "forest_extension_null": ("ex_four_cycle", _plant_unannihilated(EXTENDED_FOREST)),
    # Every vector is annihilated and the count is right, but the span is one short.
    "span_equality": ("ex_type1", _plant_constructed(lambda basis: basis.vectors[:-1] + basis.vectors[:1])),
    "supported_neighbor_after_deletion": ("ex_type1", _plant_supported_neighbors_into_n),
    # A core vertex of G - C lies in no pendant tree's support.
    "forest_support_in_pendant_supports": ("ex_four_cycle", _plant_reading_of(_cycle_complement, _core_into_support)),
    "pendant_vs_forest_alpha_identity": ("ex_four_cycle", _plant_reading_of(_cycle_complement, _support_into_core)),
    # With one support vertex into N, alpha and nu stay as they were.
    "support_survives_root_deletion": ("ex_type1", _plant_reading_of(_witness_tree_less_witness, lambda d: replace(
        d, support=d.support - {min(d.support)}, n_vertices=d.n_vertices | {min(d.support)}
    ))),
    "alpha_stable_under_root_deletion": ("ex_type1", _plant_reading_of(_witness_tree_less_witness, _support_into_core)),
    "nu_drops_under_root_deletion": ("ex_type1", _plant_reading_of(_witness_tree_less_witness, _support_into_core)),
}


@pytest.mark.parametrize("check", list(WRONG_VALUES))
def test_each_check_fails_on_a_planted_wrong_value(monkeypatch, request, check):
    # P_3 is the forest: its leaves 0 and 2 are the support, 1 the core.
    example, plant = WRONG_VALUES[check]
    g = path_graph(3) if example == "path" else request.getfixturevalue(example)
    assert run_checks(g)[check]
    plant(monkeypatch, g)
    assert run_checks(g)[check] is False


@pytest.mark.parametrize(
    "check, plant",
    [
        ("core_absent_from_some_mis", lambda d: replace(d, support=d.support - {0}, core=d.core | {0})),
        ("n_vertex_swings_mis", lambda d: replace(d, support=d.support - {0}, n_vertices=d.n_vertices | {0})),
        ("eg_equals_support", lambda d: replace(d, support=d.support - {0})),
        ("mis_intersection_is_support", lambda d: replace(d, support=d.support - {0})),
    ],
    ids=["into_core", "into_n_vertices", "dropped_for_eg", "dropped_for_mis"],
)
def test_each_set_valued_check_fails_on_a_misplaced_support_vertex(monkeypatch, check, plant):
    # P_3's leaf 0 is a support vertex: it lies in every maximum independent
    # set and is missed by a maximum matching.
    g = path_graph(3)
    assert 0 in decomposition.decomposition_from_basis(g).support
    assert run_checks(g)[check]
    _plant_kernel_reading(monkeypatch, plant)
    assert run_checks(g)[check] is False


def test_a_core_vertex_in_some_mis_passes_core_absent_from_some_mis(monkeypatch):
    # The check asks only what its name says: that no core vertex lie in
    # every maximum independent set.  P_2's vertex 0 lies in one of its
    # two, so moving it from N into the core leaves the check true.  A
    # check tightened to "in no maximum independent set", which also holds
    # on every forest, turns this to False on purpose.
    g = path_graph(2)
    _plant_kernel_reading(monkeypatch, lambda d: replace(d, n_vertices=d.n_vertices - {0}, core=d.core | {0}))
    assert run_checks(g)["core_absent_from_some_mis"] is True


@pytest.mark.parametrize("example, cut", [("ex_type1", "witness"), ("ex_four_cycle", "cycle")])
def test_an_odd_n_set_in_a_split_fails_the_split_checks(monkeypatch, request, example, cut):
    # alpha and nu raise OddNSet on a forest with an odd N-set; the battery
    # must report the split identities as failed, not raise.  The split reads
    # the pieces the class carries, so the plant pins the battery's one
    # classification and makes alpha / nu raise on its complement.
    g = request.getfixturevalue(example)
    cls = classify(g)
    monkeypatch.setattr(decomposition, "classify", lambda h: cls)

    def odd_on_complement(formula):
        def planted(d):
            if d is cls.complement:
                raise OddNSet("planted")
            return formula(d)

        return planted

    monkeypatch.setattr(checks, "alpha", odd_on_complement(checks.alpha))
    monkeypatch.setattr(checks, "nu", odd_on_complement(checks.nu))
    result = run_checks(g)
    split = {f"alpha_splits_at_{cut}", f"nu_splits_at_{cut}"}
    assert {name: result[name] for name in split} == dict.fromkeys(split, False)
    assert all(ok for name, ok in result.items() if name not in split)


@pytest.mark.parametrize(
    "length, witness_tail, case",
    [
        (24, 2, "TII-4k"),
        (32, 2, "TII-4k"),
        (30, 2, "TII-non4k"),
        (24, 1, "TI-3"),
        (25, 1, "TI-1"),
        (26, 1, "TI-4"),
    ],
)
def test_long_cycle_with_a_tree_at_every_vertex_passes(length, witness_tail, case):
    # Position 0 carries a one-vertex tail (off its own support, so Type I)
    # or a two-vertex tail like every other position (Type II).
    tails = {i: 2 for i in range(length)} | {0: witness_tail}
    g = cycle_with_attachments(length, tails=tails)
    assert classify(g).case == case
    failed = [name for name, ok in run_checks(g).items() if not ok]
    assert failed == []


@pytest.mark.parametrize("case", ["TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k", "forest"])
def test_run_checks_decomposes_no_vertex_set_twice(decomposition_calls, families, case):
    # The split identities read the pieces the class carries; they do not
    # decompose them again.  A subgraph an oracle builds counts apart from g.
    graphs = [path_graph(7), Graph.from_edges([("a", "b")], isolated=["c"])] if case == "forest" else families[case]
    for g in graphs:
        decomposition_calls.clear()
        assert all(run_checks(g).values())
        assert decomposition_calls and max(decomposition_calls.values()) == 1, g.to_edge_list()


@pytest.mark.parametrize("length, witness_tail", [(24, 2), (32, 2), (30, 2), (24, 1), (25, 1), (26, 1)])
def test_run_checks_decomposes_no_vertex_set_twice_on_long_cycles(decomposition_calls, length, witness_tail):
    # The graphs of test_long_cycle_with_a_tree_at_every_vertex_passes, all six cases.
    assert all(run_checks(cycle_with_attachments(length, tails={i: 2 for i in range(length)} | {0: witness_tail})).values())
    assert decomposition_calls and max(decomposition_calls.values()) == 1
