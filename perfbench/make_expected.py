"""Regenerate ``expected.json``: run every catalog op once and record its answer.

Usage, from the repository root::

    python3 perfbench/make_expected.py

Run it only on a commit whose answers are trusted; every later run of the
benchmark is checked against the file it writes.  An op that fails, or whose
output breaks an independent invariant, aborts the regeneration.
"""

from __future__ import annotations

import json
import sys

import bench_catalog
import bench_checks
import run


def main() -> int:
    _, cli = run.setup(1)
    records = {}
    for workload, ops in bench_catalog.CATALOGS.items():
        for op in ops:
            result = run.run_op(cli, op.argv_in(run.WORK), run.OP_CAP_S)
            if result.error is not None or result.code != 0:
                print(f"{op.id}: {result.error or result.code}", file=sys.stderr)
                return 1
            projection, _ = bench_checks.project(op.argv, result.stdout)
            problems = bench_checks.invariant_problems(op.argv, projection)
            if problems:
                print(f"{op.id}: {problems}", file=sys.stderr)
                return 1
            records[op.id] = bench_checks.record(op.argv, result.stdout)
        print(f"{workload}: {len(ops)} ops recorded")
    bench_checks.EXPECTED_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
