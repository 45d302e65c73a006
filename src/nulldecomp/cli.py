"""Command-line front end.

Subcommands:

* ``analyze``  - decompose a graph and report support/core/N-vertices,
  nullity, and the closed-formula independence and matching numbers.
* ``basis``    - print an exact kernel basis, either canonical (``rref``) or
  assembled from subgraph kernels (``structural``), with provenance per vector.
* ``generate`` - emit a seeded random unicyclic graph as edge-list text.
* ``verify``   - fuzzing campaign: generate graphs and run the whole check
  battery against each, failing loudly with a minimized reproduction.

Exit codes: 0 ok, 2 parse/input error, 3 unsupported graph class,
4 verification failure.

The argument parser is built once per process: ``main`` reuses it, so a
caller that runs ``main`` many times in one process pays for it once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .checks import minimize_failing_graph, run_checks
from .decomposition import analyze
from .errors import (
    EdgeListError,
    InternalCheckError,
    NotForest,
    NullDecompError,
    SpecInvalid,
    UnsupportedGraphClass,
)
from .generator import GeneratorSpec, generate_unicyclic
from .graph import Graph, parse_edge_list
from .unicyclic import TYPE1, TYPE2, classify, constructed_null_basis, rref_null_basis

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_VERIFY = 4

# --force-type choice -> GeneratorSpec.class_bias
_CLASS_BIAS = {None: None, "1": TYPE1, "2": TYPE2}


def _read_graph(source: str) -> Graph:
    try:
        text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
        text.encode("utf-8")  # stdin may have decoded bad bytes to lone surrogates
    except UnicodeError:
        name = "standard input" if source == "-" else source
        raise EdgeListError(f"{name} is not UTF-8 text") from None
    return parse_edge_list(text.removeprefix("\ufeff"))  # a leading U+FEFF is a byte-order mark


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    report = analyze(g)
    if args.verify:
        try:
            report = replace(report, checks=run_checks(g))
        except Exception as exc:  # a raise inside the battery fails verification
            print(f"run_checks raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VERIFY
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.to_text(), end="")
    if args.verify and not all(report.checks.values()):
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    basis = rref_null_basis(g) if args.method == "rref" else constructed_null_basis(g, classify(g))
    # Each vector's coordinates, label -> exact value, in index order.
    vectors = [
        (prov, {g.labels[i]: str(x) for i, x in sorted(vec.items())})
        for vec, prov in zip(basis.vectors, basis.provenance)
    ]
    if args.json:
        payload = {
            "nullity": len(vectors),
            "vectors": [{"provenance": prov, "coordinates": coords} for prov, coords in vectors],
        }
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    if not vectors:
        print("nullity 0, empty basis")
        return EXIT_OK
    print(f"nullity {len(vectors)}, basis:")
    for prov, coords in vectors:
        print(f"[{prov}] " + " ".join(f"{label}={x}" for label, x in coords.items()))
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        n=args.n,
        cycle_length=args.cycle_length,
        seed=args.seed,
        class_bias=_CLASS_BIAS[args.force_type],
    )
    print(generate_unicyclic(spec).to_edge_list(), end="")
    return EXIT_OK


def _failed_checks(g: Graph) -> frozenset[str]:
    return frozenset(name for name, ok in run_checks(g).items() if not ok)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise SpecInvalid(f"negative graph count {args.count}")
    if args.min_n > args.max_n:
        raise SpecInvalid(f"empty vertex range [{args.min_n}, {args.max_n}]")
    passed = 0
    for index in range(args.count):
        n = args.min_n + index % (args.max_n - args.min_n + 1)
        spec = GeneratorSpec(
            n=n,
            cycle_length=args.cycle_length,
            seed=args.seed * 1_000_003 + index,
            class_bias=_CLASS_BIAS[args.force_type],
        )
        g = generate_unicyclic(spec)
        try:
            failed = _failed_checks(g)
        except Exception as exc:  # any raise inside the battery fails this graph
            problem = f"run_checks raised {type(exc).__name__}: {exc}"
        else:
            if not failed:
                passed += 1
                continue
            problem = f"failed checks: {', '.join(sorted(failed))}"
            if "basis_exact" in failed:  # run_checks keeps only the names; recover the exception
                try:
                    constructed_null_basis(g, classify(g))
                except Exception as exc:
                    problem += f"\nconstructed_null_basis raised {type(exc).__name__}: {exc}"
        small = minimize_failing_graph(g, _failed_checks)
        print(f"verify: FAILED on graph {index} (n={n}, seed={spec.seed})")
        print(problem)
        print("minimized reproduction:")
        print(small.to_edge_list(), end="")
        return EXIT_VERIFY
    print(f"verify: {passed}/{args.count} passed")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nulldecomp",
        description="Exact null-space decomposition of trees and unicyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decompose a graph and evaluate the closed formulas")
    p.add_argument("input", nargs="?", default="-", help="edge-list file, or - for stdin")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verify", action="store_true", help="run the cross-check battery")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("basis", help="print an exact kernel basis of the adjacency matrix")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--method", choices=("rref", "structural"), default="structural")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("generate", help="emit a seeded random unicyclic graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cycle-length", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force-type", choices=("1", "2"), default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run the check battery over generated graphs")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--min-n", type=int, default=5)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycle-length", type=int, default=None)
    p.add_argument("--force-type", choices=("1", "2"), default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedGraphClass, NotForest) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASS
    except InternalCheckError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (NullDecompError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
