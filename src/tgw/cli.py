"""Batch command-line entry point.

Exit codes: 0 = all checks passed, 1 = a verified-false finding (axiom
violation, density failure, non-bijective adjunction, ...), 2 = input or
configuration error, 141 = stdout was closed before the output was written
(128 + SIGPIPE).  With --lenient, base-axiom failures downgrade to printed
warnings.  Output is deterministic: identical invocations produce
byte-identical text, and JSON output is exactly `json.dumps(..., indent=2)`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import fixtures
from .core import BUDGETS, FixtureError, WorkbenchError, _dump, check_axioms
from .geometry import embed, export_graph, valuation_from_dict
from .homology import (adjunction_check, ext1, homological_semisimplicity,
                       tor1)
from .ideals import (enumerate_ideals, gelfand_injectivity, localize,
                     spectrum, zariski_report)
from .modules import (check_module_axioms, cyclic_module_catalog,
                      density_check, jacobson_radical, regular_module)

MAX_PRINTED_VIOLATIONS = 10


def _violation_lines(violations, S, kind="violation"):
    lines = []
    shown = violations[:MAX_PRINTED_VIOLATIONS]
    for v in shown:
        witness = ",".join(str(w) for w in v.witness)
        lines.append(f"  {kind}: {v.law} at witness ({witness}): "
                     f"{v.left} != {v.right}")
    if len(violations) > len(shown):
        lines.append(f"  ... {len(violations) - len(shown)} more "
                     f"(use --format json for the full list)")
    return lines


def _anchor_for(S, args):
    if args.anchor is not None:
        label = args.anchor
        if label not in S.elements:
            raise WorkbenchError(f"anchor {label!r} is not an element of {S.name}")
        return S.elements.index(label)
    if S.unit is not None:
        return S.unit
    return S.zero


def _structure_gate(S, args, out) -> bool:
    """Shared axiom preamble: prints violations, applies the lenient policy.

    Returns True when this fixture is blocked (violations without --lenient),
    which is a finding.
    """
    report = check_axioms(S)
    if not report.violations:
        return False
    if args.lenient:
        out.append(f"warning: {S.name} fails {len(report.violations)} axiom "
                   f"instance(s); continuing leniently")
        out.extend(_violation_lines(report.violations, S, kind="warning"))
        return False
    out.append(f"{S.name}: {len(report.violations)} axiom violation(s)")
    out.extend(_violation_lines(report.violations, S))
    return True


def _per_structure(body, gate=True):
    """Command running `body(S, args, out, payload) -> finding` on each fixture.

    Each fixture argument is resolved and, unless `gate` is False, passed
    through the axiom gate first (a blocked fixture is a finding and is
    skipped).  The command exits 1 when any fixture produced a finding.
    """
    def run(args, out):
        payload = []
        found = False
        for arg in args.fixtures:
            S = fixtures.resolve_structure(arg)
            if gate and _structure_gate(S, args, out):
                found = True
            elif body(S, args, out, payload):
                found = True
        return (1 if found else 0), payload
    return run


def cmd_check(S, args, out, payload):
    report = check_axioms(S)
    payload.append({"structure": S.name, **report.to_dict(),
                    "lenient": args.lenient})
    if report.passed:
        out.append(f"{S.name}: all axioms hold "
                   f"(|T|={S.n}, |Gamma|={S.g})")
    elif args.lenient:
        out.append(f"{S.name}: {len(report.violations)} axiom violation(s) "
                   f"downgraded to warnings (lenient)")
        out.extend(_violation_lines(report.violations, S, kind="warning"))
    else:
        return _structure_gate(S, args, out)


def cmd_ideals(S, args, out, payload):
    ideals = enumerate_ideals(S, lenient=args.lenient)
    out.append(f"{S.name}: {len(ideals)} ideal(s)")
    for ideal in ideals:
        out.append("  {" + ",".join(ideal.labels(S)) + "}")
    payload.append({"structure": S.name, "lenient": args.lenient,
                    "ideals": [i.to_dict(S) for i in ideals]})


def cmd_spec(S, args, out, payload):
    spc = spectrum(S, lenient=args.lenient)
    zar = zariski_report(S, spc)
    out.append(f"{S.name}: {len(spc.points)} prime point(s)")
    for label in spc.point_labels(S):
        out.append(f"  {label}")
    out.append(f"  closed-set identity V(I)∩V(J)=V(I+J): "
               f"{'holds' if zar.intersection_ok else 'FAILS'}")
    out.append(f"  T0 separation: {'holds' if zar.t0_ok else 'FAILS'}")
    payload.append({"structure": S.name, "spectrum": spc.to_dict(S),
                    "zariski": zar.to_dict()})
    return not zar.passed


def cmd_modules(S, args, out, payload):
    mods = fixtures.modules_for(S.name) if S.name in fixtures.STRUCTURE_NAMES else []
    for spec_arg in args.module or []:
        mods.append(fixtures.resolve_module(spec_arg, S))
    found = False
    for M in mods or [regular_module(S)]:
        report = check_module_axioms(M)
        status = "passes" if report.passed else (
            f"fails {len(report.violations)} law instance(s)")
        out.append(f"{M.name} over {S.name}: {status}; "
                   f"base warnings: {len(report.warnings)}")
        if not report.passed:
            out.extend(_violation_lines(report.violations, S))
            found = found or not args.lenient
        payload.append({"module": M.name, "structure": S.name,
                        **report.to_dict()})
    return found


def cmd_simples(S, args, out, payload):
    catalog = cyclic_module_catalog(S, lenient=args.lenient)
    simple_count = sum(1 for e in catalog if e.simple)
    out.append(f"{S.name}: catalog of {len(catalog)} cyclic module(s), "
               f"{simple_count} simple")
    for entry in catalog:
        flag = "simple" if entry.simple else "not simple"
        out.append(f"  {entry.module.name} (|M|={entry.module.size}): {flag}"
                   f" (congruence-simple: {entry.congruence_simple})")
    payload.append({"structure": S.name,
                    "catalog": [{"module": e.module.name,
                                 "size": e.module.size,
                                 "simple": e.simple,
                                 "congruence_simple": e.congruence_simple}
                                for e in catalog]})


def cmd_density(S, args, out, payload):
    anchor = _anchor_for(S, args)
    if args.module:
        targets = [fixtures.resolve_module(m, S) for m in args.module]
    else:
        targets = [e.module for e in cyclic_module_catalog(S, lenient=args.lenient)
                   if e.simple]
    found = False
    for M in targets:
        rep = density_check(M, anchor=anchor, rank2=args.rank2,
                            lenient=args.lenient)
        verdict = "Yes" if rep.ok else "No"
        out.append(f"{M.name}: density {verdict} "
                   f"(anchor {S.elements[anchor]}, "
                   f"{len(rep.witnesses)} witnessed pair(s))")
        if not rep.ok:
            found = True
            for mm, nn in rep.unsolvable[:5]:
                out.append(f"  unsolvable pair: m={M.carrier[mm]}, "
                           f"n={M.carrier[nn]}")
        payload.append(rep.to_dict())
    return found


def _pick_modules(args, S, count):
    mods = [fixtures.resolve_module(m, S) for m in (args.module or [])]
    while len(mods) < count:
        mods.append(regular_module(S))
    return mods[:count]


def cmd_ext(S, args, out, payload):
    M, N = _pick_modules(args, S, 2)
    result = ext1(S, M, N, lenient=args.lenient)
    out.append(f"Ext1({M.name},{N.name}) = {result.ext1.structure_tag} "
               f"({result.ext1.size} class(es)); "
               f"Ext0 size {result.ext0_size} vs |Hom| {result.hom_size}")
    if not result.ext0_matches_hom:
        out.append("  finding: Ext0 does not match the hom count")
    payload.append({"structure": S.name, "ext1": result.ext1.to_dict(),
                    "ext0_size": result.ext0_size,
                    "hom_size": result.hom_size,
                    "ext0_matches_hom": result.ext0_matches_hom,
                    "notes": list(result.notes)})
    return not result.ext0_matches_hom


def cmd_tor(S, args, out, payload):
    M, N = _pick_modules(args, S, 2)
    result = tor1(S, M, N, lenient=args.lenient)
    out.append(f"Tor1({M.name},{N.name}) = {result.tor1.structure_tag} "
               f"({result.tor1.size} class(es)); Tor0 matches tensor: "
               f"{result.tor0_matches_tensor}")
    payload.append({"structure": S.name, "tor1": result.tor1.to_dict(),
                    "tor0": result.tor0.to_dict(),
                    "tor0_matches_tensor": result.tor0_matches_tensor,
                    "notes": list(result.notes)})
    return not result.tor0_matches_tensor


def cmd_adjunction(S, args, out, payload):
    M, N, P = _pick_modules(args, S, 3)
    rep = adjunction_check(M, N, P, lenient=args.lenient)
    out.append(f"|Hom({M.name}(x){N.name},{P.name})| = {rep.lhs_size}, "
               f"|Hom({M.name},Hom({N.name},{P.name}))| = {rep.rhs_size}, "
               f"bijection: {'Yes' if rep.holds else 'No'}")
    payload.append({"structure": S.name, **rep.to_dict()})
    return not rep.holds


def cmd_radical(S, args, out, payload):
    rep = jacobson_radical(S, lenient=args.lenient)
    out.append(f"J({S.name}) = {{{','.join(rep.ideal.labels(S))}}} "
               f"[{rep.note}, from {len(rep.simples_used)} simple(s)]")
    payload.append({"structure": S.name, **rep.to_dict(S)})


def cmd_localize(S, args, out, payload):
    spc = spectrum(S, lenient=args.lenient)
    found = False
    for P in spc.points:
        loc = localize(S, P, lenient=args.lenient)
        out.append(f"{S.name} at {{{','.join(P.labels(S))}}}: "
                   f"{len(loc.classes)} class(es), well-defined: "
                   f"{loc.well_defined}, maximal ideal classes: "
                   f"{sorted(loc.maximal_ideal)}")
        if not loc.well_defined:
            found = True
            for f in loc.failures[:5]:
                out.append(f"  failure: {f}")
        payload.append(loc.to_dict(S))
    return found


def cmd_gelfand(S, args, out, payload):
    spc = spectrum(S, lenient=args.lenient)
    rep = gelfand_injectivity(S, spc, lenient=args.lenient)
    out.append(f"{S.name}: evaluation map injective: {rep.injective}"
               + (" (vacuous)" if rep.vacuous else ""))
    if not rep.injective:
        a, b = rep.witness
        out.append(f"  witness: {S.elements[a]} and {S.elements[b]} "
                   f"are not separated")
    payload.append({"structure": S.name, **rep.to_dict()})
    return not rep.injective


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FixtureError(f"parse error: {path}: {exc}") from None


def cmd_embed(S, args, out, payload):
    spc = spectrum(S, lenient=args.lenient)
    valuation = None
    if args.valuation:
        valuation = valuation_from_dict(S, _read_json(args.valuation))
    weight_table = None
    if args.weights and args.weights != "default":
        data = _read_json(args.weights)
        weights = data.get("weights") if isinstance(data, dict) else None
        # JSON true and false are not numbers here.
        if not isinstance(weights, list) or not all(
                type(w) in (int, float) for w in weights):
            raise FixtureError("shape error: weights must be a list of numbers")
        weight_table = tuple(weights)
    graph = embed(S, spc, k=args.k, valuation=valuation,
                  weight_table=weight_table)
    text = export_graph(graph, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append(f"{S.name}: wrote {args.format} graph to {args.out}")
    else:
        out.append(text.rstrip("\n"))
    payload.append(graph.to_dict())


def _report_battery():
    """Full battery over the bundled fixtures, rendered as three tables."""
    lines = []
    findings = []
    payload = {"density_table": [], "ext_tor_table": [], "adjunction_table": [],
               "warnings": [], "notes": []}
    remarks = {"B2": "Boolean", "Z3": "mod-3 (lenient)",
               "B2xB2": "Boolean product"}

    density_rows = []
    ext_rows = []
    adj_rows = []
    for name in fixtures.STRUCTURE_NAMES:
        S = fixtures.bundled_structure(name)
        axioms = check_axioms(S)
        if axioms.violations:
            first = axioms.violations[0]
            payload["warnings"].append(
                f"{name}: {len(axioms.violations)} axiom violation(s), e.g. "
                f"{first.law} at witness {tuple(first.witness)}; analyses ran "
                f"in lenient mode")
        catalog = cyclic_module_catalog(S, lenient=True)
        simples = [e for e in catalog if e.simple]
        anchor = S.unit if S.unit is not None else S.zero
        density_ok = all(density_check(e.module, anchor=anchor, lenient=True).ok
                         for e in simples)
        if not density_ok:
            findings.append(f"{name}: density failed")
        density_rows.append((S.n, S.g, len(simples),
                             "Yes" if density_ok else "No", remarks[name]))

        if S.unit is None:
            ext_rows.append((S.n, S.g, "n/a (no unit)", "n/a (no unit)", "n/a"))
        else:
            reg = regular_module(S)
            ext_result = ext1(S, reg, reg, lenient=True)
            tor_result = tor1(S, reg, reg, lenient=True)
            hs = homological_semisimplicity(S, catalog, lenient=True)
            interp = "semisimple" if hs.ok and hs.radical_zero else "not semisimple"
            if not hs.consistent:
                findings.append(f"{name}: radical and Ext disagree")
                interp = "inconsistent"
            if not ext_result.ext0_matches_hom:
                findings.append(f"{name}: Ext0 mismatch")
            ext_rows.append((S.n, S.g, ext_result.ext1.structure_tag,
                             tor_result.tor1.structure_tag, interp))

        try:
            reg = regular_module(S)
            adj = adjunction_check(reg, reg, reg, lenient=True)
            equality = "Yes" if adj.holds else "No"
            if not adj.holds:
                findings.append(f"{name}: adjunction not bijective")
            adj_rows.append((S.n, S.g, adj.lhs_size, adj.rhs_size, equality))
        except WorkbenchError as exc:
            adj_rows.append((S.n, S.g, "n/a", "n/a", f"n/a ({exc})"))

        spc = spectrum(S, lenient=True)
        if spc.points:
            zar = zariski_report(S, spc)
            if not zar.passed:
                findings.append(f"{name}: closed-set identities failed")

    lines.append("Density confirmation")
    lines.append("|T|, |Gamma|, #simple modules, Density verified, Remarks")
    for row in density_rows:
        lines.append(", ".join(str(v) for v in row))
        payload["density_table"].append(list(row))
    lines.append("")
    lines.append("Ext and Tor for the regular module")
    lines.append("|T|, |Gamma|, Ext1(M,M), Tor1(M,M), Interpretation")
    for row in ext_rows:
        lines.append(", ".join(str(v) for v in row))
        payload["ext_tor_table"].append(list(row))
    lines.append("")
    lines.append("Tensor-Hom adjunction")
    lines.append("|T|, |Gamma|, |Hom(MxN,P)|, |Hom(M,Hom(N,P))|, Equality")
    for row in adj_rows:
        lines.append(", ".join(str(v) for v in row))
        payload["adjunction_table"].append(list(row))
    lines.append("")
    lines.append("note: the Gamma column counts declared parameters of each fixture")
    payload["notes"].append("gamma column counts declared parameters")
    for warning in payload["warnings"]:
        lines.append(f"warning: {warning}")
    return lines, payload, findings


def cmd_report(args, out):
    lines, payload, findings = _report_battery()
    out.extend(lines)
    return (1 if findings else 0), payload


_COMMANDS = {
    "check": _per_structure(cmd_check, gate=False),
    "ideals": _per_structure(cmd_ideals),
    "spec": _per_structure(cmd_spec),
    "modules": _per_structure(cmd_modules, gate=False),
    "simples": _per_structure(cmd_simples),
    "density": _per_structure(cmd_density),
    "ext": _per_structure(cmd_ext),
    "tor": _per_structure(cmd_tor),
    "adjunction": _per_structure(cmd_adjunction),
    "radical": _per_structure(cmd_radical),
    "localize": _per_structure(cmd_localize),
    "gelfand": _per_structure(cmd_gelfand),
    "embed": _per_structure(cmd_embed),
    "report": cmd_report,
}


# The commands that read each option besides --format.  Every command accepts
# every option; one it ignores has no default, so it is in the parsed
# namespace only when given, and `main` notes it on stderr.
_READERS = {
    "module": ("modules", "density", "ext", "tor", "adjunction"),
    "lenient": tuple(name for name in _COMMANDS if name != "report"),
    "anchor": ("density",),
    "rank2": ("density",),
    "k": ("embed",),
    "valuation": ("embed",),
    "weights": ("embed",),
    "out": ("embed",),
}


def _add_option(parser, command: str, flag: str, **kwargs) -> None:
    if command not in _READERS[flag]:
        kwargs["default"] = argparse.SUPPRESS
    parser.add_argument(f"--{flag}", **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgw",
        description="Workbench for finite commutative ternary gamma-semirings "
                    "given as operation tables")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        option = functools.partial(_add_option, p, name)
        if name != "report":
            p.add_argument("fixtures", nargs="+",
                           help="bundled fixture names or fixture file paths")
        option("module", action="append",
               help="bundled module name or module fixture path (repeatable)")
        option("lenient", action="store_true",
               help="downgrade base-axiom failures to warnings")
        if name == "embed":
            p.add_argument("--format", choices=("json", "dot", "csv"),
                           default="json", help="graph export format")
        else:
            p.add_argument("--format", choices=("table", "json"),
                           default="table")
        option("anchor", help="anchor element label for density")
        option("rank2", action="store_true",
               help="also report the simultaneous two-pair density census")
        option("k", type=int, default=2, help="embedding dimension (embed)")
        option("valuation", help="valuation table JSON file (embed)")
        option("weights", default="default",
               help="'default' or a weight table JSON file (embed)")
        option("out", help="output file path (embed)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for flag, readers in _READERS.items():
        if args.command not in readers and hasattr(args, flag):
            print(f"note: --{flag} is ignored by {args.command}", file=sys.stderr)
    out: list[str] = []
    saved = dict(BUDGETS)
    try:
        raw = os.environ.get("TGW_BUDGET")
        if raw is not None:
            try:
                BUDGETS["enum"] = BUDGETS["hom"] = int(raw)
            except ValueError:
                raise WorkbenchError(f"TGW_BUDGET must be an integer, "
                                     f"got {raw!r}") from None
        code, payload = _COMMANDS[args.command](args, out)
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        BUDGETS.update(saved)
    # embed's lines are its export text, in the chosen graph format.
    if args.command != "embed" and args.format == "json":
        out = [_dump({"command": args.command, "exit_code": code,
                      "result": payload})]
    try:
        for line in out:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point fd 1 at devnull, so that the flush at
        # interpreter exit does not report the unwritten rest on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
