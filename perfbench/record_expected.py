#!/usr/bin/env python3
"""Write ``expected.json``: every call's exit code and output fingerprint.

Usage (from the root of a checkout): python3 perfbench/record_expected.py

Inputs are generated with seed 0 (canonical element order).  The benchmark
checks every seed against these records, so run this only when the program's
results are meant to change, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import CALLS, calls, input_ids


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from inputs import write_inputs
    scratch = run.OUT / "record-inputs"
    ids = set().union(*(input_ids(w) for w in CALLS))
    try:
        expected = record(write_inputs(run.ROOT, scratch, 0, ids))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if expected is None:
        return 1
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


def record(paths: dict[str, str]) -> dict | None:
    expected = {}
    for workload in CALLS:
        expected[workload] = {}
        for call_id, argv in calls(workload, paths):
            status, result = run.in_child(
                lambda: run.run_call(call_id, argv, False, None))
            if result is None:
                print(f"error: {call_id} died (wait status {status})", file=sys.stderr)
                return None
            if str(result["fingerprint"]).startswith(run.UNREADABLE):
                print(f"error: {call_id}: {result['fingerprint']}", file=sys.stderr)
                return None
            expected[workload][call_id] = {"exit_code": result["exit_code"],
                                           "fingerprint": result["fingerprint"]}
            print(f"{workload} {call_id}: exit {result['exit_code']}, "
                  f"{result['wall_s']:.2f} s")
    return expected


if __name__ == "__main__":
    sys.exit(main())
