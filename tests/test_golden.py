"""Golden outputs: refactors must leave every user-visible byte unchanged.

For the conftest examples and a seeded corpus of unicyclic graphs and forests
(n 5-30, every case TI-1 .. TII-4k and Forest), ``tests/golden/outputs.json``
holds the sha256 of the exact output of ``analyze --json``, of
``basis --json`` with each method, and of the sorted ``run_checks`` map.

The digests were recorded once and are not regenerated to make a change
pass.  A graph added to the corpus is recorded with

    PYTHONPATH=src python tests/test_golden.py

which writes only the entries the file lacks and refuses to change a digest
it holds (``conftest.record_digests``, as ``tests/test_scale.py`` does).  An
output that changes on purpose has its entry deleted by hand first, so the
diff shows it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from nulldecomp import GeneratorSpec, Graph, checks, classify, constructed_null_basis, generate_unicyclic, linalg, parse_edge_list, run_checks, unicyclic
from nulldecomp.errors import DimensionMismatch
from nulldecomp.linalg import ONE, ZERO, null_basis_on, reduced_echelon_basis
from nulldecomp.unicyclic import TYPE1, TYPE2, NullBasis

from conftest import (
    EXAMPLE_FIVE_CYCLE,
    EXAMPLE_FOUR_CYCLE,
    EXAMPLE_STAR_SGRAPH,
    EXAMPLE_TYPE1,
    output_digest,
    plant_kernel,
    rebind,
    record_digests,
    run_command,
)

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
COMMANDS = {
    "analyze": ["analyze", "--json"],
    "basis_structural": ["basis", "--json", "--method", "structural"],
    "basis_rref": ["basis", "--json", "--method", "rref"],
}
ALL_CASES = {"TI-1", "TI-2", "TI-3", "TI-4", "TII-non4k", "TII-4k", "Forest"}


def corpus() -> dict[str, Graph]:
    """The four conftest examples, 40 seeded unicyclic graphs and six forests cut from them."""
    graphs = {
        "example_type1": parse_edge_list(EXAMPLE_TYPE1),
        "example_star": parse_edge_list(EXAMPLE_STAR_SGRAPH),
        "example_five_cycle": parse_edge_list(EXAMPLE_FIVE_CYCLE),
        "example_four_cycle": parse_edge_list(EXAMPLE_FOUR_CYCLE),
    }
    biases = (None, TYPE1, TYPE2)
    for i in range(40):
        n = 5 + (i * 7) % 26
        length = (None, 4, None, 6, 8, None)[i % 6]
        if length is not None and length > n:
            length = None
        spec = GeneratorSpec(n=n, cycle_length=length, seed=100 + i, class_bias=biases[i % 3])
        g = generate_unicyclic(spec)
        graphs[f"seed{100 + i}"] = g
        cycle = classify(g).cycle.vertices
        if i % 10 == 0:  # a tree: the graph less one cycle edge
            cut = {g.labels[cycle[0]], g.labels[cycle[1]]}
            graphs[f"seed{100 + i}_tree"] = Graph.from_edges(
                (g.labels[u], g.labels[v]) for u, v in g.edges() if {g.labels[u], g.labels[v]} != cut
            )
        elif i % 10 == 5 and g.n > len(cycle):  # a forest: the graph less its cycle
            graphs[f"seed{100 + i}_forest"] = g.delete_vertices(cycle)
    return graphs


CORPUS = corpus()


def _command_digest(key: str, g: Graph) -> str:
    return output_digest(*run_command(COMMANDS[key], g.to_edge_list()))


def _checks_digest(checks: dict[str, bool]) -> str:
    return output_digest(0, json.dumps(sorted(checks.items())))


def digests(g: Graph) -> dict[str, str]:
    """Every golden digest of one graph."""
    got = {key: _command_digest(key, g) for key in COMMANDS}
    got["checks"] = _checks_digest(run_checks(g))
    return got


def _entry(g: Graph) -> dict[str, str]:
    """What ``outputs.json`` holds for one graph: its case and every golden digest."""
    return {"case": json.loads(run_command(COMMANDS["analyze"], g.to_edge_list())[1])["case"], **digests(g)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(golden):
    assert set(golden) == set(CORPUS)
    assert {entry["case"] for entry in golden.values()} == ALL_CASES


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_golden(golden, name):
    assert digests(CORPUS[name]) == {key: golden[name][key] for key in [*COMMANDS, "checks"]}


# -- tripwires: the production kernels and the battery's reference stay apart,
# -- and classification reads g itself, never a subgraph built from it

EXAMPLES = ("example_type1", "example_star", "example_five_cycle", "example_four_cycle")


def _refuse(message: str):
    """A replacement for any function that raises AssertionError(message)."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    return refuse


@pytest.mark.parametrize("name", EXAMPLES + ("seed103", "seed100_tree", "seed125_forest"))
def test_whole_graph_kernels_need_no_dense_elimination(golden, monkeypatch, name):
    # Every production kernel, of the whole graph and of each subforest the
    # constructed Type I / Type II bases read (a whole forest, each pendant
    # tree, T_v - v, G - T_v and G - C), comes from a sparse kernel of
    # linalg, so no command here reduces a dense matrix.  seed103 is a TI-4
    # graph: its corrected vector reads T_v - v.
    refuse = _refuse("dense elimination or a subgraph on the production path")
    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    for key in ("analyze", "basis_rref", "basis_structural"):
        assert _command_digest(key, CORPUS[name]) == golden[name][key], key


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_constructed_bases_build_no_subgraph(golden, monkeypatch, name):
    # Every subforest kernel of the Type I / Type II bases comes from a
    # sparse kernel of linalg, which reads g's adjacency lists.
    refuse = _refuse("a subgraph or a whole-graph dense matrix on the constructed basis path")
    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    assert _command_digest("basis_structural", CORPUS[name]) == golden[name]["basis_structural"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_battery_builds_no_dense_adjacency_matrix(golden, monkeypatch, name):
    # The battery tests A(G)·v = 0 over g's adjacency lists and builds every
    # reference matrix in checks._reference_kernel, so the check map stays
    # the same with the dense whole-graph matrix and its product refused.
    refuse = _refuse("a dense whole-graph matrix or product in the check battery")
    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    monkeypatch.setattr(linalg, "mat_vec", refuse)
    monkeypatch.setattr(checks, "mat_vec", refuse, raising=False)
    assert _checks_digest(run_checks(CORPUS[name])) == golden[name]["checks"]


@pytest.mark.parametrize("name", ["example_type1", "example_four_cycle", "seed125_forest"])
def test_battery_refuses_a_vector_of_the_wrong_length(monkeypatch, name):
    # A coordinate at index n, past the last vertex, must not pass as annihilated.
    g = CORPUS[name]

    def one_too_long(real):
        def build(*args):
            basis = real(*args)
            return NullBasis(({**basis.vectors[0], g.n: ONE},) + basis.vectors[1:], basis.provenance)

        return build

    for routine in ("constructed_null_basis", "rref_null_basis"):
        monkeypatch.setattr(checks, routine, one_too_long(getattr(checks, routine)))
    with pytest.raises(DimensionMismatch):
        run_checks(g)


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is None))
def test_analyze_reads_a_forest_without_a_kernel(golden, monkeypatch, name):
    # A forest's decomposition comes from a maximum matching, so analyze
    # gives the same bytes with the kernel of every vertex set refused.
    plant_kernel(monkeypatch, _refuse("a kernel on analyze's forest path"))
    assert _command_digest("analyze", CORPUS[name]) == golden[name]["analyze"]


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is not None))
def test_a_unicyclic_graph_is_never_eliminated_whole(golden, monkeypatch, name):
    # analyze reads the constructed basis as it is, and the canonical basis
    # that basis --method rref prints and the battery checks is that basis
    # brought to reduced echelon form, so all three give the same answers
    # with null_basis_on refused on every vertex of g.
    def refuse_whole(adjacency, vertices):
        vertices = frozenset(vertices)
        if len(vertices) == len(adjacency):
            raise AssertionError("a whole-graph elimination of a unicyclic graph")
        return null_basis_on(adjacency, vertices)

    rebind(monkeypatch, null_basis_on, refuse_whole)
    g = CORPUS[name]
    for key in ("analyze", "basis_rref"):
        assert _command_digest(key, g) == golden[name][key], key
    _assert_golden_checks(golden, name)


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is not None))
def test_analyze_reads_a_unicyclic_graph_without_reduction(golden, monkeypatch, name):
    # A kernel's support is the union of any basis's supports, so analyze
    # reads the decomposition off the constructed basis and gives the same
    # bytes with the reduction to the canonical basis refused.  basis
    # --method rref prints the canonical basis, so it does reach the refusal
    # whenever there is a kernel to reduce.
    rebind(monkeypatch, reduced_echelon_basis, _refuse("a reduction to the canonical basis"))
    g = CORPUS[name]
    code, text = run_command(COMMANDS["analyze"], g.to_edge_list())
    assert output_digest(code, text) == golden[name]["analyze"]
    if json.loads(text)["nullity"]:
        with pytest.raises(AssertionError, match="a reduction to the canonical basis"):
            run_command(COMMANDS["basis_rref"], g.to_edge_list())


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is None))
def test_basis_reads_a_forest_without_elimination(golden, monkeypatch, name):
    # A forest's basis comes off a maximum matching (forest_null_basis_on),
    # so basis gives the same bytes by either method with every sparse and
    # dense elimination refused.
    rebind(monkeypatch, null_basis_on, _refuse("an elimination on basis's forest path"))
    monkeypatch.setattr(linalg, "rref", _refuse("an elimination on basis's forest path"))
    for key in ("basis_structural", "basis_rref"):
        assert _command_digest(key, CORPUS[name]) == golden[name][key], key


def _one_short_on(targets):
    """A kernel fault: the basis of a vertex set in ``targets`` loses its last vector."""
    return lambda vertices, basis: basis[:-1] if vertices in targets else basis


def _complement(g: Graph) -> frozenset[int]:
    """The vertex set a unicyclic g's constructed basis extends: G - T_v for Type I, G - C for Type II."""
    cls = classify(g)
    cut = cls.cycle.vertex_set() if cls.tag == TYPE2 else cls.pendant_trees[cls.witness].keys()
    return frozenset(range(g.n)) - frozenset(cut)


@pytest.mark.parametrize("name", ["example_type1", "seed125_forest"])
def test_battery_catches_a_faulty_sparse_kernel(monkeypatch, name):
    # The fault goes into the kernel g's whole-graph basis comes from: a
    # forest's kernel on every vertex, and for example_type1 the kernel of
    # G - T_v that its basis is reduced from.  One vector short there, the
    # count is wrong.
    g = CORPUS[name]
    source = frozenset(range(g.n)) if classify(g) is None else _complement(g)
    assert all(run_checks(g).values())
    plant_kernel(monkeypatch, _one_short_on({source}))
    assert run_checks(g)["basis_count"] is False


@pytest.mark.parametrize("name", ["example_type1", "seed125_forest"])
def test_battery_catches_a_stored_zero(monkeypatch, name):
    # A production vector holds only its nonzero coordinates, so its key set
    # is its support; a 0 stored at another vertex fails basis_count.  The 0
    # goes into the last step of g's canonical basis: the forest's kernel on
    # every vertex, and for example_type1 the reduced echelon pass over the
    # constructed basis.
    g = CORPUS[name]

    def with_a_zero(basis):
        outside = min(frozenset(range(g.n)) - basis[0].keys())
        return [{**basis[0], outside: ZERO}] + basis[1:]

    assert all(run_checks(g).values())
    if classify(g) is None:
        everything = frozenset(range(g.n))
        plant_kernel(monkeypatch, lambda vertices, basis: with_a_zero(basis) if vertices == everything else basis)
    else:
        rebind(monkeypatch, reduced_echelon_basis, lambda vectors: with_a_zero(reduced_echelon_basis(vectors)))
    assert run_checks(g)["basis_count"] is False


def test_battery_catches_a_faulty_forest_kernel(monkeypatch):
    # The last vector doubled still annihilates and keeps the count, so only
    # basis_count's comparison of the forest's canonical basis, which the
    # constructed basis shares, with the reference kernel sees it.
    g = CORPUS["seed125_forest"]
    everything = frozenset(range(g.n))

    def doubled_last(vertices, basis):
        return basis[:-1] + [{i: 2 * x for i, x in basis[-1].items()}] if vertices == everything else basis

    assert all(run_checks(g).values())
    plant_kernel(monkeypatch, doubled_last)
    assert {name for name, ok in run_checks(g).items() if not ok} == {"basis_count"}


@pytest.mark.parametrize("name", ["example_type1", "example_four_cycle"])
def test_battery_catches_a_short_subforest_kernel(monkeypatch, name):
    # The whole-graph kernel stays right; only the complement kernel the
    # constructed basis assembles (G - T_v for Type I, G - C for Type II)
    # loses its last vector, and the pendant trees keep theirs (the short
    # pendant kernel is test_battery_catches_a_short_pendant_kernel's plant).
    g = CORPUS[name]
    assert all(run_checks(g).values())
    plant_kernel(monkeypatch, _one_short_on({_complement(g)}))
    assert run_checks(g)["basis_count"] is False


@pytest.mark.parametrize("name", ["example_type1", "example_four_cycle"])
def test_battery_catches_a_short_pendant_kernel(monkeypatch, name):
    # example_type1's T_v (TI-3) and example_four_cycle's trees under z1 and
    # z2 (TII-4k) lose their last vector, and the battery sees it.
    g = CORPUS[name]
    assert all(run_checks(g).values())
    plant_kernel(monkeypatch, _one_short_on({frozenset(t) for t in classify(g).pendant_trees.values()}))
    checks = run_checks(g)
    assert checks["basis_count"] is False or checks["span_equality"] is False


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if classify(g) is not None))
def test_no_pendant_tree_is_eliminated(golden, monkeypatch, name):
    # Each pendant tree's kernel, and T_v - v's, comes off a maximum matching,
    # so the outputs and the check map stay the same with null_basis_on
    # refused on every vertex set inside one pendant tree.  Only Type I's
    # complement G - T_v is eliminated, and it holds two cycle vertices at
    # least, so it lies inside no pendant tree: no vertex set is excepted.
    g = CORPUS[name]
    cls = classify(g)

    def refuse_pendant(adjacency, vertices):
        if any(frozenset(vertices) <= tree.keys() for tree in cls.pendant_trees.values()):
            raise AssertionError("an elimination inside a pendant tree")
        return null_basis_on(adjacency, vertices)

    rebind(monkeypatch, null_basis_on, refuse_pendant)
    _assert_golden_everywhere(golden, name)


@pytest.mark.parametrize("name", sorted(name for name, g in CORPUS.items() if getattr(classify(g), "tag", None) == TYPE2))
def test_a_type2_graph_is_never_eliminated(golden, monkeypatch, name):
    # A Type II graph's pendant trees and its forest G - C come off maximum
    # matchings, and the reduction pass eliminates nothing, so the outputs
    # and the check map stay the same with null_basis_on refused outright.
    rebind(monkeypatch, null_basis_on, _refuse("an elimination in a Type II graph"))
    _assert_golden_everywhere(golden, name)


def _assert_golden_checks(golden, name: str) -> None:
    """The check map of CORPUS[name] is all True and gives its golden bytes."""
    checks = run_checks(CORPUS[name])
    assert all(checks.values())
    assert _checks_digest(checks) == golden[name]["checks"]


def _assert_golden_everywhere(golden, name: str) -> None:
    """analyze, basis by either method and the all-True check map of CORPUS[name] give their golden bytes."""
    for key in ("analyze", "basis_structural", "basis_rref"):
        assert _command_digest(key, CORPUS[name]) == golden[name][key], key
    _assert_golden_checks(golden, name)


def test_a_complement_vector_is_corrected_only_when_its_cycle_sum_is_nonzero(monkeypatch):
    # TI-4 adds a multiple of the pivot to a complement vector only to zero
    # its sum at the witness's cycle neighbors, so each call changes a vector:
    # the corrected one, and the 8 of the 27 other complement vectors whose
    # sum is nonzero.
    real = unicyclic._add_scaled
    coefficients = []

    def counted(vec, coeff, other):
        coefficients.append(coeff)
        return real(vec, coeff, other)

    monkeypatch.setattr(unicyclic, "_add_scaled", counted)
    ti4 = [(g, cls) for g in CORPUS.values() if (cls := classify(g)) is not None and cls.case == "TI-4"]
    for g, cls in ti4:
        constructed_null_basis(g, cls)
    assert len(ti4) == 15 and len(coefficients) == 23
    assert all(coefficients)


if __name__ == "__main__":
    raise SystemExit(record_digests(GOLDEN, [(name, lambda g=g: _entry(g)) for name, g in CORPUS.items()]))
