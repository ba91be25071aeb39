#!/usr/bin/env python3
"""Benchmark of the tgw command line on three fixed workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain --seed 0 --seconds 36 --trace 0

Each call of the workload's list runs ``tgw.cli.main(argv)`` in a child
forked from this process after it has imported ``tgw``, one child at a time,
so no cache survives from one call to the next and import cost is paid once,
in set-up.  Passes over the call list repeat while one more fits in
``--seconds``.  Every call's exit code and output fingerprint are checked
against ``expected.json``.  Times are in reference-speed seconds (see
``probe.py``).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from traced passes, which alternate with
untraced passes that give the tracing overhead.  The last line of standard
output is one JSON object; a run record and the spans of the last traced pass
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import CALLS, input_ids

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH_DIR / "expected.json"

# Set-up is timed in this many fresh children that have not imported tgw,
# plus once in this process, and reported as the median.
SETUP_CHILDREN = 10

# Prefix of the fingerprint recorded for output that cannot be summarised.
UNREADABLE = "unreadable output"


class ChildFailed(Exception):
    pass


def in_child(fn):
    """Run ``fn()`` in a forked child; return (wait status, result).

    The child sends ``fn()``'s JSON-able result through a pipe; the result is
    None when the child died or raised.  The parent waits for the child.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            data = json.dumps(fn()).encode("utf-8")
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(data) if status == 0 and data else None
    return status, result


def setup(workload: str, seed: int, scratch: Path):
    """Import tgw, write the workload's inputs and load the expectations."""
    import tgw.cli  # noqa: F401  (the import is part of what set-up costs)
    from inputs import write_inputs
    paths = write_inputs(ROOT, scratch, seed, input_ids(workload))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    return paths, expected


def timed_setup(workload: str, seed: int, scratch: Path):
    """Set-up in fresh children, then in this process; tgw must not be imported yet.

    Returns the paths, the expectations and every set-up time, each as
    ``{"seconds": reference-speed seconds, "wall_s": raw wall seconds}``.
    """
    from probe import SpeedProbe

    def child(k: int) -> dict:
        with SpeedProbe() as probe:
            setup(workload, seed, scratch / f"setup{k}")
        return {"seconds": probe.seconds, "wall_s": probe.wall_s}

    samples = []
    for k in range(SETUP_CHILDREN):
        status, sample = in_child(lambda: child(k))
        if sample is None:
            raise ChildFailed(f"set-up child exited with status {status}")
        samples.append(sample)
    with SpeedProbe() as probe:
        paths, expected = setup(workload, seed, scratch / "run")
    samples.append({"seconds": probe.seconds, "wall_s": probe.wall_s})
    return paths, expected, samples


def run_call(call_id: str, argv: list[str], traced: bool, spans_path: Path | None):
    """Child body: one CLI call with stdout captured, timed around cli.main."""
    from probe import SpeedProbe
    from tgw import cli
    from workloads import fingerprint
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with SpeedProbe() as probe:
            code = cli.main(argv)
    # Peak RSS is read before the output is copied and parsed for checking.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"exit_code": code, "seconds": probe.seconds, "wall_s": probe.wall_s,
              "maxrss_kb": maxrss_kb}
    try:
        result["fingerprint"] = fingerprint(call_id, out.getvalue())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        result["fingerprint"] = f"{UNREADABLE}: {exc!r}"
    if tracer is not None:
        # Probe chunks ran inside whatever span was open; scaling every span
        # by the call's reference/wall ratio spreads their removal evenly.
        result["trace"] = tracer.summary(probe.wall_s, probe.seconds / probe.wall_s)
        if spans_path is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"call": call_id, "columns": ["name", "start", "end", "parent"],
                           "spans": tracer.span_rows()}, fh)
    return result


def run_pass(calls, expected, traced: bool, spans_dir: Path | None) -> list[dict]:
    rows = []
    for call_id, argv in calls:
        spans_path = None if spans_dir is None else spans_dir / f"{call_id}.json"
        start = time.perf_counter()
        status, result = in_child(
            lambda: run_call(call_id, argv, traced, spans_path))
        outer = time.perf_counter() - start
        want = expected[call_id]
        ok = (result is not None and result["exit_code"] == want["exit_code"]
              and result["fingerprint"] == want["fingerprint"])
        if not ok:
            got = None if result is None else {k: result[k] for k in ("exit_code", "fingerprint")}
            print(f"mismatch in {call_id}: wait status {status}, got "
                  f"{json.dumps(got)[:300]}", file=sys.stderr)
        rows.append({"call": call_id, "ok": ok,
                     "seconds": outer if result is None else result["seconds"],
                     "wall_s": outer if result is None else result["wall_s"],
                     "maxrss_kb": 0 if result is None else result["maxrss_kb"],
                     "trace": None if result is None else result.get("trace")})
    return rows



def measure(calls, expected, seconds: float, traced: bool, spans_dir: Path):
    """Repeat passes (untraced, or untraced+traced pairs) while one more fits."""
    untraced, traced_passes = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(calls, expected, False, None))
        if traced:
            traced_passes.append(run_pass(calls, expected, True, spans_dir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) > seconds:
            return untraced, traced_passes


def end_to_end(passes, setup_samples, key: str = "seconds") -> dict:
    """The end-to-end metrics; ``key="wall_s"`` gives their raw-wall form."""
    return {
        "wall_s": (statistics.median(sum(r[key] for r in p) for p in passes), "s"),
        "max_call_s": (max(statistics.median(p[i][key] for p in passes)
                           for i in range(len(passes[0]))), "s"),
        "setup_s": (statistics.median(s[key] for s in setup_samples), "s"),
        "peak_rss_mb": (statistics.median(max(r["maxrss_kb"] for r in p) / 1024
                                          for p in passes), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(CALLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tgw" / "cli.py").is_file() or not EXPECTED.is_file():
        print(f"error: {SRC / 'tgw'} or {EXPECTED} is missing; run from the root "
              f"of a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = OUT / f"inputs-{os.getpid()}"
    try:
        paths, expected, setup_samples = timed_setup(args.workload, args.seed, scratch)
        from layers import layer_metrics, run_record
        from workloads import calls as workload_calls
        calls = workload_calls(args.workload, paths)
        spans_dir = OUT / f"spans-{args.workload}-seed{args.seed}"
        if args.trace:
            spans_dir.mkdir(parents=True, exist_ok=True)
        untraced, traced = measure(calls, expected, args.seconds, bool(args.trace),
                                   spans_dir)
        metrics = (layer_metrics(untraced, traced) if args.trace
                   else end_to_end(untraced, setup_samples))
        # The record reads work sizes from the inputs, so it is made before
        # they are removed.
        raw = end_to_end(untraced, setup_samples, "wall_s")
        record = run_record(args, calls, untraced, traced, setup_samples, metrics, raw)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    all_rows = [r for p in untraced + traced for r in p]
    failed = sum(not r["ok"] for r in all_rows)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: medians over {len(untraced)} "
          f"untraced and {len(traced)} traced pass(es) of {len(calls)} call(s) and "
          f"{len(setup_samples)} set-ups; times in reference-speed seconds "
          f"(raw wall: " + ", ".join(f"{name} {raw[name][0]:.3f} s" for name in
                                     ("wall_s", "max_call_s", "setup_s"))
          + f"); record in {record_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  calls_failed = {failed} of {len(all_rows)} calls")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_rows),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
