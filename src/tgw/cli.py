"""Batch command-line entry point.

Exit codes: 0 = all checks passed, 1 = a verified-false finding (axiom
violation, density failure, non-bijective adjunction, ...), 2 = input or
configuration error, 141 = stdout was closed before the output was written
(128 + SIGPIPE).  With --lenient, base-axiom failures downgrade to printed
warnings.  Output is deterministic: identical invocations produce
byte-identical text, and JSON output is exactly `json.dumps(..., indent=2)`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from types import SimpleNamespace

from . import fixtures
from .core import BUDGETS, FixtureError, WorkbenchError, _write, check_axioms
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
    payload.append({"structure": S.name, **report.fields(),
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
    mods = [M for M in fixtures.modules_for(S.name) if M.base == S]
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
                        **report.fields()})
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
    rhs = "n/a" if rep.rhs_size is None else rep.rhs_size
    out.append(f"|Hom({M.name}(x){N.name},{P.name})| = {rep.lhs_size}, "
               f"|Hom({M.name},Hom({N.name},{P.name}))| = {rhs}, "
               f"bijection: {'Yes' if rep.holds else 'No'}")
    if rep.rhs_size is None:
        out.append(f"  finding: {rep.notes[-1]}")
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
        payload["density_table"].append([S.n, S.g, len(simples),
                                         "Yes" if density_ok else "No", remarks[name]])

        if S.unit is None:
            payload["ext_tor_table"].append([S.n, S.g, "n/a (no unit)", "n/a (no unit)",
                                             "n/a"])
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
            payload["ext_tor_table"].append([S.n, S.g, ext_result.ext1.structure_tag,
                                             tor_result.tor1.structure_tag, interp])

        try:
            reg = regular_module(S)
            adj = adjunction_check(reg, reg, reg, lenient=True)
            if adj.rhs_size is None:
                # Hom(M, M) carries no module structure: no side to compare.
                row = ["n/a", "n/a", f"n/a ({adj.notes[-1]})"]
            else:
                if not adj.holds:
                    findings.append(f"{name}: adjunction not bijective")
                row = [adj.lhs_size, adj.rhs_size, "Yes" if adj.holds else "No"]
        except WorkbenchError as exc:
            row = ["n/a", "n/a", f"n/a ({exc})"]
        payload["adjunction_table"].append([S.n, S.g, *row])

        spc = spectrum(S, lenient=True)
        if spc.points:
            zar = zariski_report(S, spc)
            if not zar.passed:
                findings.append(f"{name}: closed-set identities failed")

    for key, title, header in (
            ("density_table", "Density confirmation",
             "|T|, |Gamma|, #simple modules, Density verified, Remarks"),
            ("ext_tor_table", "Ext and Tor for the regular module",
             "|T|, |Gamma|, Ext1(M,M), Tor1(M,M), Interpretation"),
            ("adjunction_table", "Tensor-Hom adjunction",
             "|T|, |Gamma|, |Hom(MxN,P)|, |Hom(M,Hom(N,P))|, Equality")):
        lines += [title, header, *(", ".join(map(str, row)) for row in payload[key]), ""]
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


# The commands that read each option, and its argparse keywords, which
# `build_parser` and `_parse_plain` both follow.  An option a command ignores
# has no default there, so it is in the parsed namespace only when given, and
# `main` notes it on stderr.
_OPTIONS = {
    "module": (("modules", "density", "ext", "tor", "adjunction"),
               {"action": "append",
                "help": "bundled module name or module fixture path (repeatable)"}),
    "lenient": (tuple(name for name in _COMMANDS if name != "report"),
                {"action": "store_true", "default": False,
                 "help": "downgrade base-axiom failures to warnings"}),
    "format": (tuple(_COMMANDS), {"choices": ("table", "json"), "default": "table"}),
    "anchor": (("density",), {"help": "anchor element label for density"}),
    "rank2": (("density",), {"action": "store_true", "default": False,
                             "help": "also report the simultaneous two-pair density census"}),
    "k": (("embed",), {"type": int, "default": 2, "help": "embedding dimension (embed)"}),
    "valuation": (("embed",), {"help": "valuation table JSON file (embed)"}),
    "weights": (("embed",), {"default": "default",
                             "help": "'default' or a weight table JSON file (embed)"}),
    "out": (("embed",), {"help": "output file path (embed)"}),
}


def _keywords(command: str, flag: str) -> dict:
    """The argparse keywords of --flag, which embed's --format has of its own."""
    if command == "embed" and flag == "format":
        return {"choices": ("json", "dot", "csv"), "default": "json",
                "help": "graph export format"}
    return _OPTIONS[flag][1]


@functools.cache
def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names one, under the metavar
    that every command gives; else every command, without arguments."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tgw",
        description="Workbench for finite commutative ternary gamma-semirings "
                    "given as operation tables")
    named = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(_COMMANDS) if named else None)
    for name in (command,) if named else _COMMANDS:
        p = sub.add_parser(name)
        if name != command:
            continue
        if name != "report":
            p.add_argument("fixtures", nargs="+",
                           help="bundled fixture names or fixture file paths")
        for flag, (readers, _) in _OPTIONS.items():
            kwargs = _keywords(name, flag)
            if name not in readers:
                kwargs = {**kwargs, "default": argparse.SUPPRESS}
            p.add_argument(f"--{flag}", **kwargs)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser` parses from a plain command line: a command, one
    run of fixtures (none for report) and exact --flags, each followed by a
    value that does not start with "-" when it takes one.  None for any other
    command line, which is argparse's to parse or reject."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens, fixtures, closed = argv[0], iter(argv[1:]), [], False
    args = {"command": command, **{flag: _keywords(command, flag).get("default")
                                   for flag, (readers, _) in _OPTIONS.items()
                                   if command in readers}}
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            fixtures.append(token)
            continue
        closed, flag = bool(fixtures), token[2:]
        if not token.startswith("--") or flag not in _OPTIONS:
            return None
        kwargs = _keywords(command, flag)
        if kwargs.get("action") == "store_true":
            args[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        append = kwargs.get("action") == "append"
        args[flag] = [*(args.get(flag) or ()), value] if append else value
    if (command == "report") != (not fixtures):
        return None
    if fixtures:
        args["fixtures"] = fixtures
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        # argparse takes the first argument that is no option as the command.
        parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    for flag, (readers, _) in _OPTIONS.items():
        if args.command not in readers and hasattr(args, flag):
            print(f"note: --{flag} is ignored by {args.command}", file=sys.stderr)
    out: list[str] = []
    saved = dict(BUDGETS)
    try:
        raw = os.environ.get("TGW_BUDGET")
        if raw is not None:
            try:
                limit = int(raw)
            except ValueError:
                limit = -1
            if limit < 0:
                raise WorkbenchError(f"TGW_BUDGET must be a non-negative integer, "
                                     f"got {raw!r}")
            BUDGETS["enum"] = BUDGETS["hom"] = limit
        code, payload = _COMMANDS[args.command](args, out)
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        BUDGETS.update(saved)
    pieces = (line + "\n" for line in out)
    # embed's lines are its export text, in the chosen graph format.
    if args.command != "embed" and args.format == "json":
        pieces = itertools.chain(_write({"command": args.command, "exit_code": code,
                                         "result": payload}), ["\n"])
    try:
        for piece in pieces:
            sys.stdout.write(piece)
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
