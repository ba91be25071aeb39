"""Per-layer metrics from traced passes, and the run record.

The layers are the modules of ``src/tgw``.  Which end-to-end metric and
workload each layer metric should move is tabled in ``README.md``.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

from spans import LAYERS, bell
from workloads import CALLS

SELF_TIMED = (
    "core.check_axioms", "core.load_structure",
    "ideals.localize", "ideals.ideal_closure", "ideals.enumerate_ideals",
    "ideals.spectrum", "ideals.zariski_report", "ideals.is_prime",
    "modules.enumerate_module_congruences", "modules.submodule_closure",
    "modules.hom_set", "modules.cyclic_module_catalog", "modules.density_check",
    "modules.check_module_axioms", "modules.load_module",
    "homology.tensor", "homology.tensor_induced_map", "homology.free_resolution",
    "homology.ext1", "homology.tor1", "homology.adjunction_check",
    "homology.hom_module", "homology.find_presentation_isomorphism",
    "geometry.embed", "geometry.metric_matrix", "geometry.jacobi_eigh",
    "geometry.export_graph",
)
COUNTED = (
    "core.check_axioms", "ideals.localize", "ideals.ideal_closure",
    "modules.enumerate_module_congruences", "modules.submodule_closure",
    "modules.hom_set", "modules.hom_violation", "modules.find_isomorphism",
    "homology.tensor",
)
ALL_CALL_IDS = tuple(call_id for workload in CALLS for call_id, _ in CALLS[workload])


def _pass_totals(rows) -> dict[str, float]:
    """Layer and function totals of one traced pass."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    cli_self = found = 0.0
    swept = congruences = 0
    for row in rows:
        trace = row["trace"] or {"self_s": {}, "calls": {}, "cli_self_s": row["seconds"],
                                 "congruence_sweeps": [], "isomorphisms_found": 0}
        for name, value in trace["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in trace["calls"].items():
            calls[name] = calls.get(name, 0) + value
        cli_self += trace["cli_self_s"]
        found += trace["isomorphisms_found"]
        for sweep in trace["congruence_sweeps"]:
            swept += sweep["bell"]
            congruences += sweep["congruences"]
    totals = {f"{layer}.self_s": sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
              for layer in LAYERS}
    totals["cli.self_s"] = cli_self
    for name in SELF_TIMED:
        totals[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNTED:
        totals[f"{name}.calls"] = calls.get(name, 0)
    totals["modules.congruence.hit_ratio"] = congruences / swept if swept else 0.0
    iso_calls = calls.get("modules.find_isomorphism", 0)
    totals["modules.find_isomorphism.hit_ratio"] = found / iso_calls if iso_calls else 0.0
    return totals


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "s"


def layer_metrics(untraced, traced) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: medians over traced passes, per-call walls
    and the tracing overhead from the untraced passes of the same run."""
    totals = [_pass_totals(p) for p in traced]
    metrics = {name: (statistics.median(t[name] for t in totals), _unit(name))
               for name in totals[0]}
    for call_id in ALL_CALL_IDS:
        walls = [r["seconds"] for p in untraced for r in p if r["call"] == call_id]
        metrics[f"cli.{call_id}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    untraced_wall = statistics.median(sum(r["seconds"] for r in p) for p in untraced)
    traced_wall = statistics.median(sum(r["seconds"] for r in p) for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _work_sizes(workload: str, calls) -> dict:
    """Law instances n^5 g^4 and Bell(n) of each structure the calls load."""
    from tgw import fixtures
    from tgw.core import load_structure
    structures = {}
    if workload == "report":
        for name in fixtures.STRUCTURE_NAMES:
            structures[name] = fixtures.bundled_structure(name)
    for _, argv in calls:
        path = Path(argv[1]) if len(argv) > 1 else None
        if path is not None and path.is_file():
            S = load_structure(path.read_text(encoding="utf-8"))
            structures[S.name] = S
    return {name: {"n": S.n, "g": S.g,
                   "computed_law_instances_n5g4": S.n ** 5 * S.g ** 4,
                   "computed_bell_n": bell(S.n)}
            for name, S in structures.items()}


def run_record(args, calls, untraced, traced, setup_samples, metrics, raw) -> dict:
    import numpy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version, "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "calls": [[call_id, argv] for call_id, argv in calls],
        "computed_work_sizes": _work_sizes(args.workload, calls),
        "setup_s_samples": setup_samples,
        "untraced_passes": [[{k: r[k] for k in ("call", "ok", "seconds", "wall_s", "maxrss_kb")}
                             for r in p] for p in untraced],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "raw_wall_metrics": {name: {"value": value, "unit": unit}
                             for name, (value, unit) in raw.items()
                             if name != "peak_rss_mb"},
    }
    if traced:
        last = traced[-1]
        record["traced_passes"] = [[{k: r[k] for k in ("call", "ok", "seconds", "wall_s")}
                                    for r in p] for p in traced]
        record["last_traced_pass"] = {
            r["call"]: None if r["trace"] is None else {
                "self_s": r["trace"]["self_s"], "calls": r["trace"]["calls"],
                "span_count": r["trace"]["span_count"],
                "computed_congruence_sweeps": r["trace"]["congruence_sweeps"],
                "computed_tensor_generators": r["trace"]["tensor_generators"]}
            for r in last}
    return record
