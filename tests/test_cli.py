from __future__ import annotations

import io
import json
import sys
import time

import pytest

from nulldecomp import GeneratorSpec, checks, cli, generate_unicyclic, linalg, parse_edge_list, unicyclic
from nulldecomp.cli import build_parser, main
from nulldecomp.decomposition import analyze, decomposition_from_basis
from nulldecomp.errors import InternalCheckError, NormalizationFailure
from nulldecomp.unicyclic import TYPE1

from conftest import EXAMPLE_FOUR_CYCLE, EXAMPLE_TYPE1, rebind
from test_scale import _hub, _path, _pendant_path, _spider


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example_type1(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(EXAMPLE_TYPE1)
    code, out, _ = run(capsys, ["analyze", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == 10 and data["nu"] == 8 and data["class"] == "type1"
    assert set(data) == {
        "n", "m", "class", "case", "cycle", "nullity",
        "support", "core", "n_vertices", "alpha", "nu", "checks",
    }
    for key in ("cycle", "support", "core", "n_vertices"):
        assert data[key] == sorted(data[key])


def test_analyze_four_cycle_verified(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(EXAMPLE_FOUR_CYCLE)
    code, out, _ = run(capsys, ["analyze", str(path), "--json", "--verify"])
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == 9 and data["nu"] == 6 and data["case"] == "TII-4k"
    assert data["checks"] and all(data["checks"].values())


def test_analyze_stdin_single_edge(capsys, monkeypatch):
    code, out, _ = run(capsys, ["analyze", "-"], stdin="a b\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "class: forest" in out
    assert "alpha: 1" in out and "nu: 1" in out


def test_analyze_parse_error_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["analyze", "-"], stdin="a a\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "line 1" in err


def test_analyze_refuses_a_label_starting_with_hash_exit_2(capsys, monkeypatch):
    # Accepted, this graph would not survive its own edge-list round trip.
    code, out, err = run(capsys, ["analyze", "-"], stdin="b #a\nc b\nc #a\n", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert "line 1" in err and "'#'" in err


def test_a_leading_byte_order_mark_is_not_a_label(tmp_path, capsys, monkeypatch):
    triangle = b"a b\nb c\nc a\n"
    _, plain, _ = run(capsys, ["analyze", "-", "--json"], stdin=triangle.decode(), monkeypatch=monkeypatch)
    path = tmp_path / "bom.edges"
    path.write_bytes(b"\xef\xbb\xbf" + triangle)
    from_file = run(capsys, ["analyze", str(path), "--json"])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf" + triangle), encoding="utf-8"))
    from_stdin = run(capsys, ["analyze", "-", "--json"])
    assert from_file == from_stdin == (0, plain, "")
    assert json.loads(plain)["n"] == 3


def test_analyze_unsupported_class_exit_3(capsys, monkeypatch):
    theta = "a b\nb c\nc d\nd a\na c\n"
    code, _, err = run(capsys, ["analyze", "-"], stdin=theta, monkeypatch=monkeypatch)
    assert code == 3


UNSUPPORTED = {
    "a b\nb c\nc d\nd a\na c\n": "error: graph with 4 vertices and 5 edges is neither a forest nor unicyclic\n",
    "a b\nb c\nc a\nx\n": "error: graph with 4 vertices and 3 edges is neither a forest nor unicyclic\n",
}


@pytest.mark.parametrize("edges", list(UNSUPPORTED))
def test_basis_structural_unsupported_class_exit_3(capsys, monkeypatch, edges):
    code, out, err = run(capsys, ["basis", "-"], stdin=edges, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err == UNSUPPORTED[edges]


@pytest.mark.parametrize("edges", list(UNSUPPORTED))
def test_analyze_and_basis_refuse_alike(capsys, monkeypatch, edges):
    results = [
        run(capsys, argv, stdin=edges, monkeypatch=monkeypatch)
        for argv in (["analyze", "-"], ["analyze", "-", "--json"], ["basis", "-", "--method", "structural"])
    ]
    assert results == [(3, "", UNSUPPORTED[edges])] * 3


RREF_ON_UNSUPPORTED = {
    "a b\nb c\nc d\nd a\na c\n": "nullity 1, basis:\n[RrefCanonical] b=-1 d=1\n",
    "a b\nb c\nc a\nx\n": "nullity 1, basis:\n[RrefCanonical] x=1\n",
}


@pytest.mark.parametrize("edges", list(UNSUPPORTED))
def test_basis_rref_reads_any_graph(capsys, monkeypatch, edges):
    # The canonical kernel needs no class, so the one subcommand that does
    # not exit 3 outside forests and unicyclic graphs prints it and exits 0.
    result = run(capsys, ["basis", "-", "--method", "rref"], stdin=edges, monkeypatch=monkeypatch)
    assert result == (0, RREF_ON_UNSUPPORTED[edges], "")


def test_analyze_a_long_path_in_linear_time(tmp_path, capsys):
    # A forest is read off a maximum matching.  The whole-graph elimination,
    # which clears every earlier pivot row, takes about a minute on this path.
    n = 6_400
    path = tmp_path / "path.edges"
    path.write_text(_path(n))
    started = time.perf_counter()
    code, out, _ = run(capsys, ["analyze", str(path), "--json"])
    elapsed = time.perf_counter() - started
    data = json.loads(out)
    assert code == 0 and (data["nullity"], data["alpha"], data["nu"]) == (0, n // 2, n // 2)
    assert elapsed < 1.0


@pytest.mark.parametrize("family, nullity", [("path", 0), ("spider", 1)])
def test_basis_of_a_large_forest_in_linear_time(tmp_path, capsys, family, nullity):
    # A forest's canonical basis is read off a maximum matching, by either
    # method and by decomposition_from_basis's default.  The whole-graph
    # elimination took 31-55 s on the 6,400-vertex path (odd length) and
    # 47-61 s on the 6,401-vertex spider of 16 legs of 400 vertices, whose
    # kernel the matching gives in 0.015 s.
    if family == "path":
        edges, coordinates = _path(6_400), 0
    else:
        edges, coordinates = _spider(16, 400), 3_201
    path = tmp_path / "forest.edges"
    path.write_text(edges)
    for method in ("structural", "rref"):
        started = time.perf_counter()
        code, out, _ = run(capsys, ["basis", str(path), "--json", "--method", method])
        elapsed = time.perf_counter() - started
        data = json.loads(out)
        assert code == 0 and data["nullity"] == nullity, method
        assert sum(len(vec["coordinates"]) for vec in data["vectors"]) == coordinates, method
        assert elapsed < 1.0, method
    g = parse_edge_list(edges)
    started = time.perf_counter()
    d = decomposition_from_basis(g)
    elapsed = time.perf_counter() - started
    assert d == analyze(g).decomposition and d.nullity == nullity
    assert elapsed < 1.0


@pytest.mark.parametrize("length, case, nullity", [(4, "TII-4k", 2), (5, "TII-non4k", 0)])
def test_a_type2_graph_with_a_long_pendant_path_in_linear_time(tmp_path, capsys, length, case, nullity):
    # A Type II graph's kernel is built from kernels read off maximum
    # matchings, of its pendant trees and of the forest G - C, and brought to
    # the canonical one in one reduction pass, so nothing is eliminated.
    # Eliminating G - C, here the 6,400-vertex path, took 41-54 s per command.
    path = tmp_path / "g.edges"
    path.write_text(_pendant_path(length, 6_400))
    for argv in (["analyze", "--json"], ["basis", "--json"], ["basis", "--json", "--method", "rref"]):
        started = time.perf_counter()
        code, out, _ = run(capsys, [argv[0], str(path), *argv[1:]])
        elapsed = time.perf_counter() - started
        data = json.loads(out)
        assert code == 0 and data["nullity"] == nullity, argv
        assert elapsed < 1.0, argv
        if argv[0] == "analyze":
            assert data["case"] == case


PEELED = {
    "cycle": ("".join(f"c{i:02d} c{(i + 1) % 12:02d}\n" for i in range(12)), 1),
    "hub": (_hub(6), 1),
    "type1": (generate_unicyclic(GeneratorSpec(n=40, seed=3, class_bias=TYPE1)).to_edge_list(), 1),
    "ti4": (_pendant_path(6, 3), 1),
    "forest": (_spider(3, 4) + "x y\nz\n", 2),
}


@pytest.mark.parametrize("family", sorted(PEELED))
def test_one_peel_roots_every_forest_a_command_reads(tmp_path, capsys, monkeypatch, family):
    # classify's leaf peel roots the pendant trees, and every forest piece
    # is cut from them: no piece is rooted again.  A forest is peeled by
    # classify and once more where it is decomposed or its basis is read.
    edges, most = PEELED[family]
    real, calls = linalg.peel, []

    def counted(adjacency):
        calls.append(len(adjacency))
        return real(adjacency)

    rebind(monkeypatch, real, counted)
    path = tmp_path / "g.edges"
    path.write_text(edges)
    n = parse_edge_list(edges).n
    for argv in (["analyze", "--json"], ["basis", "--json"], ["basis", "--json", "--method", "rref"]):
        calls.clear()
        code, out, _ = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 0 and out, argv
        assert 1 <= len(calls) <= most and set(calls) == {n}, (argv, calls)


def test_basis_structural_c4(capsys, monkeypatch):
    c4 = "1 2\n2 3\n3 4\n4 1\n"
    code, out, _ = run(
        capsys, ["basis", "-", "--method", "structural"], stdin=c4, monkeypatch=monkeypatch
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nullity 2, basis:"
    assert sum("CycleAlternating" in line for line in lines) == 2


def test_basis_path(capsys, monkeypatch):
    code, out, _ = run(capsys, ["basis", "-"], stdin="a b\nb c\n", monkeypatch=monkeypatch)
    assert code == 0
    assert "a=-1" in out and "c=1" in out


def test_basis_empty(capsys, monkeypatch):
    code, out, _ = run(capsys, ["basis", "-"], stdin="a b\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "nullity 0, empty basis"


def test_basis_json_round_trip(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["basis", "-", "--json", "--method", "rref"],
        stdin="a b\nb c\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    data = json.loads(out)
    assert data["nullity"] == 1
    assert data["vectors"][0]["coordinates"] == {"a": "-1", "c": "1"}


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_reused_parser_forgets_the_last_call_options(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(EXAMPLE_FOUR_CYCLE)
    code, out, _ = run(capsys, ["analyze", str(path), "--verify", "--json"])
    assert code == 0 and json.loads(out)["checks"]
    code, out, _ = run(capsys, ["analyze", str(path), "--json"])
    assert code == 0 and '"checks": {}' in out

    path.write_text(EXAMPLE_TYPE1)
    code, out, _ = run(capsys, ["basis", str(path), "--method", "rref", "--json"])
    assert code == 0 and {v["provenance"] for v in json.loads(out)["vectors"]} == {"RrefCanonical"}
    code, out, _ = run(capsys, ["basis", str(path), "--json"])
    provenance = {v["provenance"] for v in json.loads(out)["vectors"]}
    assert code == 0 and provenance and "RrefCanonical" not in provenance


def test_a_refused_call_leaves_the_parser_usable(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exit_info:
        main(["basis", "-", "--method", "dense"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, ["basis", "-"], stdin="a b\nb c\n", monkeypatch=monkeypatch)
    assert code == 0 and "a=-1" in out


def test_generate_deterministic(capsys):
    code1, out1, _ = run(capsys, ["generate", "--n", "8", "--seed", "1"])
    code2, out2, _ = run(capsys, ["generate", "--n", "8", "--seed", "1"])
    assert code1 == code2 == 0 and out1 == out2
    g = parse_edge_list(out1)
    assert g.is_unicyclic() and g.n == 8


def test_generate_forced_c4(capsys):
    code, out, _ = run(capsys, ["generate", "--n", "4", "--cycle-length", "4"])
    assert code == 0
    assert parse_edge_list(out).edge_count == 4


def test_generate_invalid_spec(capsys):
    code, _, err = run(capsys, ["generate", "--n", "3", "--cycle-length", "5"])
    assert code == 2 and "cycle length" in err


def test_verify_campaign(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--count", "40", "--min-n", "5", "--max-n", "12", "--seed", "7"],
    )
    assert code == 0
    assert out.strip() == "verify: 40/40 passed"


def test_verify_zero_count(capsys):
    code, out, _ = run(capsys, ["verify", "--count", "0"])
    assert code == 0
    assert "0/0 passed" in out


def test_verify_with_bias(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--count", "10", "--min-n", "6", "--max-n", "10", "--force-type", "1"],
    )
    assert code == 0 and "10/10 passed" in out


def _verify_with_a_raising_battery(capsys, monkeypatch, exc: Exception) -> list[str]:
    """Run a campaign whose battery raises ``exc``; return the report lines after its checks."""

    def raising(g, cls):
        raise exc

    monkeypatch.setattr(checks, "structural_decomposition", raising)
    code, out, err = run(
        capsys, ["verify", "--count", "5", "--min-n", "7", "--max-n", "9", "--seed", "3"]
    )
    assert code == 4 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"verify: FAILED on graph 0 (n=7, seed={3 * 1_000_003})"
    assert lines[2] == "minimized reproduction:"
    # Every graph raises the same way, so the shrink goes down to the bare cycle.
    small = parse_edge_list("\n".join(lines[3:]))
    assert small.is_unicyclic() and all(small.degree(v) == 2 for v in range(small.n))
    return lines


def test_verify_reports_a_raise_inside_the_battery(capsys, monkeypatch):
    planted = InternalCheckError("planted invariant failure")
    lines = _verify_with_a_raising_battery(capsys, monkeypatch, planted)
    assert lines[1] == "run_checks raised InternalCheckError: planted invariant failure"


def test_verify_reports_any_exception_inside_the_battery(capsys, monkeypatch):
    lines = _verify_with_a_raising_battery(capsys, monkeypatch, KeyError("planted lookup bug"))
    assert lines[1] == "run_checks raised KeyError: 'planted lookup bug'"


def test_analyze_verify_reports_a_raise_inside_the_battery(tmp_path, capsys, monkeypatch):
    def raising(g, cls):
        raise KeyError("planted")

    monkeypatch.setattr(checks, "structural_decomposition", raising)
    path = tmp_path / "g.edges"
    path.write_text("a b\nb c\nc a\nc d\n")
    code, out, err = run(capsys, ["analyze", str(path), "--verify"])
    assert code == 4 and out == ""
    assert err == "run_checks raised KeyError: 'planted'\n"


def test_analyze_verify_prints_and_exits_4_on_a_failed_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "brute_nu", lambda g: -1)
    path = tmp_path / "g.edges"
    path.write_text("a b\nb c\nc a\nc d\n")
    code, out, err = run(capsys, ["analyze", str(path), "--verify"])
    assert code == 4 and err == ""
    # A wrong nu fails both checks that call it; the report lists them by name.
    *_, summary, first, second = out.splitlines()
    assert (first, second) == ("  FAILED: derived_forest_formulas", "  FAILED: nu_oracle")
    passed, total = map(int, summary.removeprefix("checks: ").removesuffix(" passed").split("/"))
    assert passed == total - 2 > 0


def test_an_internal_check_error_escaping_a_command_exits_4(tmp_path, capsys, monkeypatch):
    def raising(g):
        raise InternalCheckError("planted invariant failure")

    monkeypatch.setattr(cli, "analyze", raising)
    path = tmp_path / "g.edges"
    path.write_text("a b\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert (code, out) == (4, "")
    assert err == "internal invariant failed: planted invariant failure\n"


def test_verify_names_the_exception_of_a_raising_construction(capsys, monkeypatch):
    # run_checks turns a raising construction into failed checks; verify must
    # still say what was raised.
    def raising(g, cls):
        raise NormalizationFailure("planted normalization failure")

    monkeypatch.setattr(unicyclic, "_type1_null_basis", raising)
    code, out, err = run(
        capsys, ["verify", "--count", "3", "--min-n", "7", "--max-n", "9", "--force-type", "1"]
    )
    assert code == 4 and err == ""
    lines = out.splitlines()
    assert lines[1].startswith("failed checks: ") and "basis_exact" in lines[1]
    assert lines[2] == "constructed_null_basis raised NormalizationFailure: planted normalization failure"
    assert lines[3] == "minimized reproduction:"


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "3", "--force-type", "1"],
    ["verify", "--count", "1", "--min-n", "3", "--max-n", "3", "--force-type", "1"],
])
def test_an_unsatisfiable_force_type_exits_2(capsys, argv):
    # A triangle is always Type II, so no attempt can be Type I.
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: no force-type1 graph found in 512 attempts for n=3, seed=0\n"


def test_verify_negative_count_exit_2(capsys):
    code, out, err = run(capsys, ["verify", "--count", "-5"])
    assert code == 2 and out == ""
    assert err == "error: negative graph count -5\n"


def test_verify_empty_vertex_range_exit_2(capsys):
    code, out, err = run(capsys, ["verify", "--min-n", "9", "--max-n", "5"])
    assert code == 2 and out == ""
    assert err == "error: empty vertex range [9, 5]\n"


def test_analyze_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_bytes(b"\xffa b\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {path} is not UTF-8 text\n"


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_analyze_non_utf8_stdin_exit_2(capsys, monkeypatch, errors):
    # A UTF-8 locale reads stdin strictly; Python's C-locale coercion reads it
    # with surrogateescape, which turns bad bytes into lone surrogates.
    stdin = io.TextIOWrapper(io.BytesIO(b"\xffa b\n"), encoding="utf-8", errors=errors)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, ["analyze", "-"])
    assert code == 2 and out == ""
    assert err == "error: standard input is not UTF-8 text\n"
