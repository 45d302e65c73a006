#!/usr/bin/env python3
"""Benchmark of nulldecomp's production and verification paths.

    python3 perfbench/run.py --workload analyze_mid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory and driven only through its public entry points, in this
one process and thread.  Workloads, metrics and the way to read them are in
``perfbench/README.md``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from a traced
pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("analyze_mid", "basis_mid", "verify_small")
SETUP_REPEATS = 5
MID_GADGET, SMALL_GADGET = 12, 4
DIGEST_HEX = 8  # hex digits of sha256 kept per operation in digests.json
TAIL_BEYOND = 10  # op_ms_tail is the highest percentile with this many samples above it
PAIR_EVERY = 3  # the traced run times every third graph untraced too

# Shared hosts drift in speed by a fifth or more within seconds, which swamps
# differences between commits.  While a run measures, a timer therefore runs
# a fixed calibration kernel (stdlib Fraction elimination, like the package's
# own hot loop) every CAL_INTERVAL seconds, inside operations too.  Each
# operation's time, less the kernels run inside it, is rescaled by the median
# kernel time around it to reference seconds: time on a machine where the
# kernel takes CAL_REFERENCE_S.
CAL_INTERVAL = 0.05
CAL_REFERENCE_S = 0.0025
_HILBERT = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(9)]


@dataclass
class Item:
    """One corpus graph: its slot, its edges, and what the program receives."""

    slot: corpus.Slot
    edges: list[tuple[str, str]]
    path: Path | None = None  # edge-list file, for the command-line workloads
    graph: object = None  # nulldecomp Graph, for verify_small


@dataclass
class Record:
    """One timed operation: corpus index, latency, canonical output or error."""

    index: int
    seconds: float
    output: str | None
    error: str | None
    reference_s: float = 0.0  # seconds rescaled by the calibration kernel (run_for only)


# -- set-up: import the package and build the corpus --------------------------


def import_package():
    """Import nulldecomp afresh from this checkout's ``src``."""
    if not (SRC / "nulldecomp" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no nulldecomp sources under {SRC}")
    for name in [m for m in sys.modules if m == "nulldecomp" or m.startswith("nulldecomp.")]:
        del sys.modules[name]
    package = importlib.import_module("nulldecomp")
    importlib.import_module("nulldecomp.cli")
    if Path(package.__file__).resolve().parent != (SRC / "nulldecomp").resolve():
        raise SystemExit(f"run.py: imported nulldecomp from {package.__file__}, not from {SRC}")
    return package


def build_corpus(package, workload: str, seed: int, workdir: Path) -> list[Item]:
    """The workload's graphs for ``seed``; edge-list files go to ``workdir``."""
    small = workload == "verify_small"
    name = "small" if small else "mid"
    items = []
    for index, slot in enumerate(corpus.workload_slots(workload)):
        rng = corpus.slot_rng(seed, name, index)
        graph = None
        if slot.family == corpus.GENERATED:
            if small:  # exactly the graphs `nulldecomp verify --seed <seed>` draws
                spec = package.GeneratorSpec(n=slot.n, seed=seed * 1_000_003 + index)
            else:
                length = corpus.cycle_length(slot)
                spec = package.GeneratorSpec(n=slot.n, cycle_length=length, seed=rng.randrange(2**31))
            graph = package.generate_unicyclic(spec)
            edges = [(graph.labels[u], graph.labels[v]) for u, nbrs in enumerate(graph.adjacency) for v in nbrs if u < v]
        elif slot.family == corpus.FOREST:
            edges = corpus.random_forest(slot, rng)
        else:
            edges = corpus.constructed_unicyclic(slot, rng, SMALL_GADGET if small else MID_GADGET)
        item = Item(slot, edges)
        if small:
            item.graph = graph if graph is not None else package.Graph.from_edges(edges)
        else:
            item.path = workdir / f"g{index:03d}.edges"
            item.path.write_text("".join(f"{a} {b}\n" for a, b in edges), encoding="utf-8")
        items.append(item)
    return items


def set_up(workload: str, seed: int, workdir: Path) -> tuple[object, list[Item]]:
    package = import_package()
    return package, build_corpus(package, workload, seed, workdir)


def timed_set_ups(workload: str, seed: int, workdir: Path) -> tuple[list[float], object, list[Item]]:
    """Set up SETUP_REPEATS times; returns each one's reference seconds and the last result."""
    spans = []
    with Calibration() as calibration:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            package, items = set_up(workload, seed, workdir)
            spans.append((start, time.perf_counter()))
        calibration.close_samples()
    return [calibration.reference_seconds(a, b) for a, b in spans], package, items


# -- operations -------------------------------------------------------------


def operation(package, workload: str) -> Callable[[Item], tuple[str | None, str | None]]:
    """The timed call for one graph; returns (output, error)."""
    if workload == "verify_small":
        checks = package.checks

        def verify(item: Item) -> tuple[str | None, str | None]:
            result = checks.run_checks(item.graph)
            failed = sorted(name for name, ok in result.items() if not ok)
            return result, f"failed checks: {', '.join(failed)}" if failed else None

        return verify

    cli = package.cli
    command = "analyze" if workload == "analyze_mid" else "basis"

    def run_cli(item: Item) -> tuple[str | None, str | None]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(item.path), "--json"])
        return out.getvalue(), None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"

    return run_cli


def run_one(op, index: int, item: Item, tracer: tracing.Tracer | None = None) -> Record:
    start = time.perf_counter()
    try:
        if tracer is None:
            output, error = op(item)
        else:
            output, error = tracer.run_op(index, lambda: op(item))
    except (Exception, SystemExit) as exc:  # a raising operation is a failed one
        output, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if isinstance(output, dict):
        output = json.dumps(output, sort_keys=True)
    return Record(index, seconds, output, error)


def traced_pass(op, items: list[Item], tracer: tracing.Tracer) -> tuple[list[Record], float]:
    """Trace every graph once; returns the records and the tracing overhead.

    Every PAIR_EVERY-th graph also runs untraced just before its traced run,
    so the two timings share the machine's state; the overhead is the ratio
    of their sums, minus one.
    """
    records: list[Record] = []
    untraced = traced = 0.0
    for index, item in enumerate(items):
        paired = index % PAIR_EVERY == 0
        if paired:
            untraced += run_one(op, index, item).seconds
        tracer.install()
        try:
            records.append(run_one(op, index, item, tracer))
        finally:
            tracer.uninstall()
        if paired:
            traced += records[-1].seconds
    return records, traced / untraced - 1.0


def calibration_kernel() -> None:
    """One fixed exact elimination of the 9 x 9 Hilbert matrix."""
    rows = [row[:] for row in _HILBERT]
    for c in range(len(rows)):
        inv = 1 / rows[c][c]
        for i in range(len(rows)):
            if i != c:
                factor = rows[i][c] * inv
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[c])]


class Calibration:
    """Times the calibration kernel on a timer signal while the context is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> Calibration:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL, CAL_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds spent from ``start`` to ``end``, less the kernels run inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        seconds = end - start - sum(self.durations[lo:hi])
        return seconds * CAL_REFERENCE_S / statistics.median(self.durations[max(lo - 1, 0) : hi + 1])

    def close_samples(self) -> None:
        """Take one more sample, so the last interval has one on each side."""
        time.sleep(CAL_INTERVAL)


def run_for(op, items: list[Item], seconds: float) -> tuple[list[Record], list[float], int]:
    """Whole passes over the corpus, as many as fit in ``seconds`` (at least one).

    Returns the records, with reference seconds filled in, the calibration
    kernel timings and the number of passes.
    """
    records: list[Record] = []
    spans: list[tuple[float, float]] = []
    with Calibration() as calibration:
        began = time.perf_counter()
        passes = 0
        while True:
            for index, item in enumerate(items):
                start = time.perf_counter()
                records.append(run_one(op, index, item))
                spans.append((start, time.perf_counter()))
            passes += 1
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / passes > seconds:
                break
        calibration.close_samples()
    for record, (start, end) in zip(records, spans):
        record.reference_s = calibration.reference_seconds(start, end)
    return records, calibration.durations, passes


# -- correctness: independent reference, digests, case coverage -------------


def check_output(workload: str, item: Item, output: str, ref: dict, adj, labels) -> str | None:
    """Why ``output`` disagrees with the reference, or None."""
    if workload == "verify_small":
        return None
    try:
        data = json.loads(output)
        if workload == "analyze_mid":
            expected = dict(ref, n=len(labels), m=len(item.edges))
            wrong = [key for key, value in expected.items() if data.get(key) != value]
            return f"reference mismatch in {', '.join(wrong)}" if wrong else None
        index = {label: i for i, label in enumerate(labels)}
        vectors = [
            {index[label]: Fraction(value) for label, value in vec["coordinates"].items()} for vec in data["vectors"]
        ]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if data.get("nullity") != ref["nullity"]:
        return f"nullity {data.get('nullity')}, reference {ref['nullity']}"
    problem = reference.kernel_basis_problem(adj, vectors, ref["nullity"])
    return f"not a kernel basis: {problem}" if problem else None


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGESTS.is_file():
        return None
    joined = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if joined is None:
        return None
    return [joined[i : i + DIGEST_HEX] for i in range(0, len(joined), DIGEST_HEX)]


def validate(workload: str, items: list[Item], records: list[Record], expected: list[str] | None) -> tuple[list[str], dict[str, int]]:
    """Mark failed records; returns the coverage problems and the case histogram.

    A record fails when it disagrees with the independent reference or, where
    ``expected`` digests are given, with its graph's recorded digest.
    """
    refs = []
    for item in items:
        labels, adj = reference.graph_from_edges(item.edges)
        refs.append((reference.analyze(adj), adj, labels))
    if expected is not None and len(expected) != len(items):
        raise SystemExit(f"run.py: digests.json holds {len(expected)} digests for {len(items)} graphs")
    verdicts: dict[tuple[int, str], str | None] = {}
    for record in records:
        if record.error is not None:
            continue
        key = (record.index, record.output)
        if key not in verdicts:
            ref, adj, labels = refs[record.index]
            verdict = check_output(workload, items[record.index], record.output, ref, adj, labels)
            if verdict is None and expected is not None and digest(record.output) != expected[record.index]:
                verdict = "output digest differs from the recorded one"
            verdicts[key] = verdict
        record.error = verdicts[key]
    histogram = {case: 0 for case in corpus.ALL_CASES}
    for ref, _, _ in refs:
        histogram[ref["case"]] += 1
    required = corpus.UNICYCLIC_CASES if workload == "verify_small" else corpus.ALL_CASES
    problems = [f"case {case} missing from the corpus" for case in required if histogram[case] == 0]
    return problems, histogram


# -- metrics ----------------------------------------------------------------


def tail_percentile(corpus_size: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples above it in one pass."""
    return max(1, min(99, int(100 * (1 - TAIL_BEYOND / corpus_size))))


def end_to_end(records: list[Record], kernels: list[float], setup_times: list[float], corpus_size: int) -> tuple[dict, list[str]]:
    """The end-to-end metrics; every time is in reference seconds."""
    latencies = [r.reference_s for r in records]
    completed = sum(1 for r in records if r.error is None)
    pct = tail_percentile(corpus_size)
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] if len(latencies) > 1 else latencies[0]
    beyond = sum(1 for x in latencies if x > tail)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "graphs_per_s": (completed / sum(latencies), "1/s"),
        "op_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = [r.seconds for r in records]
    notes = [
        f"op_ms_tail is p{pct} of {len(latencies)} samples, {beyond} above it",
        f"failed_frac = {sum(1 for r in records if r.error) / len(records):.6g}",
        f"calibration: {len(kernels)} kernels, median {1000 * statistics.median(kernels):.4g} ms "
        f"(reference {1000 * CAL_REFERENCE_S:g} ms); wall clock, kernels included: {completed / sum(wall):.6g} graphs/s, "
        f"p50 {1000 * statistics.median(wall):.6g} ms",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workdir = OUT / f"corpus-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times, package, items = timed_set_ups(args.workload, args.seed, workdir)
        op = operation(package, args.workload)
        if args.trace:
            tracer = tracing.Tracer(package)
            records, overhead = traced_pass(op, items, tracer)
            passes = 1
        else:
            records, kernels, passes = run_for(op, items, args.seconds)
        expected = recorded_digests(args.workload, args.seed)
        problems, histogram = validate(args.workload, items, records, expected)
        if args.trace:
            tracer.write(OUT / f"trace-{args.workload}.jsonl")
            metrics = tracing.layer_metrics(tracer.spans, overhead)
            notes = [f"trace: {len(tracer.spans)} spans written to {OUT.name}/trace-{args.workload}.jsonl"]
        else:
            metrics, notes = end_to_end(records, kernels, setup_times, len(items))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.error is not None]
    print(f"workload {args.workload}, seed {args.seed}: {len(items)} graphs x {passes} pass(es)")
    print("cases: " + ", ".join(f"{case} {count}" for case, count in histogram.items()))
    checked = "cases" if args.workload == "verify_small" else "outputs"
    print(f"reference: {checked} of all {len(items)} graphs checked independently; digests: "
          + (f"checked against {DIGESTS.name}" if expected else f"none in {DIGESTS.name} for this seed"))
    for line in notes + problems:
        print(line)
    for record in failed[:5]:
        print(f"FAILED graph {record.index} ({items[record.index].slot.family}): {record.error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
