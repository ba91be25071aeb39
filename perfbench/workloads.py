"""Workload call lists and the seed-invariant fingerprint of each call's output.

A call is ``(call_id, argv)``.  ``call_id`` is ``<command>.<fixture id>`` and
names the per-call wall metric ``cli.<call_id>.wall_s``; the bundled report
is called twice, so its JSON form is ``report_json.bundled``.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

# Arguments in braces name an input written by ``inputs.write_inputs``.
_JSON = ("--format", "json")
CALLS = {
    "report": [("report.bundled", ("report",)),
               ("report_json.bundled", ("report", *_JSON))],
    "chain": [("simples.C8", ("simples", "{C8}", *_JSON)),
              ("adjunction.C8", ("adjunction", "{C8}", *_JSON)),
              ("localize.C12", ("localize", "{C12}", *_JSON)),
              ("embed.C12", ("embed", "{C12}", "--valuation", "{C12-valuation}")),
              ("ext.C8", ("ext", "{C8}", *_JSON))],
    "boolean-power": [("check.B2p4", ("check", "{B2p4}", *_JSON)),
                      ("check.Zsum8", ("check", "{Zsum8}", "--lenient", *_JSON)),
                      ("modules.B2p3", ("modules", "{B2p3}", "--module", "{B2p3-T2n}",
                                        *_JSON)),
                      ("spec.B2p3", ("spec", "{B2p3}", *_JSON)),
                      ("gelfand.B2p3", ("gelfand", "{B2p3}", *_JSON))],
}


def input_ids(workload: str) -> set[str]:
    """The inputs the workload's calls name."""
    return {a[1:-1] for _, argv in CALLS[workload] for a in argv if a.startswith("{")}


def calls(workload: str, paths: dict[str, str]) -> list[tuple[str, list[str]]]:
    """The workload's calls with input names replaced by their paths."""
    return [(call_id, [paths[a[1:-1]] if a.startswith("{") else a for a in argv])
            for call_id, argv in CALLS[workload]]


def _law_counts(entries: list[dict]) -> list[dict]:
    return [{kind: dict(sorted(Counter(v["law"] for v in entry[kind]).items()))
             for kind in ("violations", "warnings")}
            for entry in entries]


def fingerprint(call_id: str, stdout: str):
    """A JSON-able summary of one call's output that no seed can change."""
    command = call_id.split(".", 1)[0]
    if command in ("report", "report_json"):
        return hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if command == "embed":
        graph = json.loads(stdout)
        return sorted(f"{round(v, 9) + 0.0:.9f}" for v in graph["eigenvalues"])
    result = json.loads(stdout)["result"]
    if command in ("check", "modules"):
        return _law_counts(result)
    if command == "simples":
        return [sorted([e["size"], e["simple"], e["congruence_simple"]]
                       for e in entry["catalog"]) for entry in result]
    if command == "localize":
        return sorted([len(loc["classes"]), loc["well_defined"]] for loc in result)
    if command == "adjunction":
        return [[r["lhs_size"], r["rhs_size"], r["holds"]] for r in result]
    if command == "ext":
        return [[r["ext1"]["structure_tag"], len(r["ext1"]["classes"]), r["hom_size"]]
                for r in result]
    if command == "spec":
        return [[len(r["spectrum"]["points"]), len(r["spectrum"]["ideals"]),
                 r["zariski"]["passed"]] for r in result]
    if command == "gelfand":
        return [r["injective"] for r in result]
    raise ValueError(f"no fingerprint for {call_id!r}")
