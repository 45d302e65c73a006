#!/usr/bin/env python3
"""Record the per-graph output digests that run.py checks every output against.

    python3 perfbench/record_digests.py --seeds 0-20 [--workload analyze_mid ...]

Run it only at a commit whose outputs are the ones to keep: each output must
first pass the independent reference check, or nothing is recorded for its
seed.  Entries for other workloads and seeds in digests.json are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-20")
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(run.SRC))
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    for workload in args.workload or run.WORKLOADS:
        for seed in seeds:
            workdir = run.OUT / f"record-{workload}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                package, items = run.set_up(workload, seed, workdir)
                op = run.operation(package, workload)
                records = [run.run_one(op, index, item) for index, item in enumerate(items)]
                problems, _ = run.validate(workload, items, records, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failed = [f"graph {r.index}: {r.error}" for r in records if r.error is not None]
            if failed or problems:
                print(f"{workload} seed {seed}: not recorded: {'; '.join(problems + failed[:3])}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = "".join(run.digest(r.output) for r in records)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{workload} seed {seed}: {len(records)} digests", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
