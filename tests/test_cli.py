"""Command-line behavior: rendering, JSON mode, exit-code contract."""

from __future__ import annotations

import hashlib
import json

from tgw.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_pass(capsys):
    code, out = run(capsys, "check", "B2")
    assert code == 0
    assert "all axioms hold" in out


def test_check_z3_finding(capsys):
    code, out = run(capsys, "check", "Z3")
    assert code == 1
    assert "violation" in out


def test_check_z3_lenient_warns(capsys):
    code, out = run(capsys, "check", "Z3", "--lenient")
    assert code == 0
    assert "warning" in out


def test_check_json_round_trips(capsys):
    code, out = run(capsys, "check", "Z3", "--lenient", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["result"][0]["passed"] is False
    assert json.loads(json.dumps(payload)) == payload


def test_ideals_and_spec(capsys):
    code, out = run(capsys, "ideals", "B2xB2")
    assert code == 0 and "4 ideal(s)" in out
    code, out = run(capsys, "spec", "B2xB2")
    assert code == 0 and "2 prime point(s)" in out and "holds" in out


def test_simples_density_radical(capsys):
    code, out = run(capsys, "simples", "B2")
    assert code == 0 and "1 simple" in out
    code, out = run(capsys, "density", "B2")
    assert code == 0 and "density Yes" in out
    code, out = run(capsys, "radical", "B2")
    assert code == 0 and "J(B2) = {0}" in out


def test_density_z3_with_anchor(capsys):
    code, out = run(capsys, "density", "Z3", "--lenient", "--anchor", "0")
    assert code == 0 and "density Yes" in out


def test_ext_tor_adjunction(capsys):
    code, out = run(capsys, "ext", "B2")
    assert code == 0 and "trivial" in out
    code, out = run(capsys, "tor", "B2")
    assert code == 0 and "trivial" in out
    code, out = run(capsys, "adjunction", "B2")
    assert code == 0 and "bijection: Yes" in out


def test_localize_gelfand(capsys):
    code, out = run(capsys, "localize", "B2xB2")
    assert code == 0 and "well-defined: True" in out
    code, out = run(capsys, "gelfand", "B2xB2")
    assert code == 0 and "injective: True" in out


def test_modules_command(capsys):
    code, out = run(capsys, "modules", "B2")
    assert code == 0
    assert "B2-regular over B2: passes" in out
    assert "B2-T2 over B2: passes" in out


def test_embed_stdout_and_file(capsys, tmp_path):
    code, out = run(capsys, "embed", "B2xB2", "--format", "dot")
    assert code == 0 and '[label="0.250000"]' in out
    code, out = run(capsys, "embed", "B2xB2", "--format", "json")
    assert json.loads(out)["structure"] == "B2xB2"
    target = tmp_path / "graph.csv"
    code, out = run(capsys, "embed", "B2xB2", "--format", "csv",
                    "--out", str(target))
    assert code == 0 and target.exists()
    assert len(target.read_text().strip().splitlines()) == 3


def test_embed_with_valuation_and_weight_files(capsys, tmp_path):
    valuation = tmp_path / "valuation.json"
    valuation.write_text(json.dumps({"g0": [0, 1, 5, 9], "g1": [0, 1, 5, 9]}))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"weights": [1.0, 0.25]}))
    code, out = run(capsys, "embed", "B2xB2", "--format", "csv",
                    "--valuation", str(valuation), "--weights", str(weights))
    assert code == 0
    import csv as csvmod
    rows = list(csvmod.reader(out.strip().splitlines()))
    assert rows[1][1] == "1"  # first point weight from the file
    assert rows[2][1] == "0.25"


def test_report_contents_and_exit(capsys):
    code, out = run(capsys, "report")
    assert code == 0
    assert "2, 2, 1, Yes, Boolean" in out
    assert "|T|, |Gamma|, Ext1(M,M), Tor1(M,M), Interpretation" in out
    assert "2, 2, 2, 2, Yes" in out
    assert "warning: Z3" in out


GOLDEN_SHA256 = {
    ("report",):
        "c090c3f5d6f9afee59b8f841ddd62fb35e72e21eb5b0e8040176f0694659a629",
    ("report", "--format", "json"):
        "61c848ec9a9bd576d6a04c8ef5940029db72efe4029a51b59af15902dd1ed9b4",
    ("tor", "B2", "--format", "json"):
        "d0c66c5b3779f5d0aca049afe9a41365f4ef68cc3d8fbfe0c11022750bbac102",
    ("tor", "B2xB2", "--format", "json"):
        "c6c880dd201a52063e9787cc3adabddfd268b5ee30e88e670dd2e3c77afe8a27",
    ("tor", "B2", "--module", "B2-T2", "--format", "json"):
        "f10ee9b278e584e9367b48ae7f7db4e0df5f801044c0b2fc00f9094022805561",
    ("ext", "B2", "--format", "json"):
        "817be98c31f07314d429e20fe2d7b334ff22c210b603ff219eec86d39c552649",
    ("ext", "B2xB2", "--format", "json"):
        "19e0bcd109d2cb5944566f1f2501754a09166945ba1a92f156436a986ab53434",
    ("ext", "B2", "--module", "B2-T2", "--format", "json"):
        "7cc4a6c059d39801b26972fab7283e85b4ce45baa67617cc1101957a0467830b",
    ("adjunction", "B2", "--format", "json"):
        "142e4495f6e6df6ea805970112f027b3dda0c0c2127281127a48901d4c35222d",
    ("adjunction", "B2xB2", "--format", "json"):
        "9d482adde0c97bc7768987121e7afded8a6d51d870b299d7953d15503b99a604",
    ("adjunction", "B2", "--module", "B2-T2", "--format", "json"):
        "3b786c9080036e455575315ff210e9c380019bcc517baa912a809faa24c7c3ee",
}


def test_report_deterministic(capsys):
    _, first = run(capsys, "report")
    _, second = run(capsys, "report")
    assert first == second
    # Golden stdout of every tensor-backed command: any byte change fails.
    for argv, digest in GOLDEN_SHA256.items():
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_exit_2_on_bad_inputs(capsys, tmp_path):
    assert main(["check", "/nonexistent/path.json"]) == 2
    assert main(["nosuchcommand", "B2"]) == 2
    assert main(["embed"]) == 2  # missing fixture argument
    capsys.readouterr()
    # Malformed embed side files: one error line, no traceback.
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    shape = tmp_path / "weights.json"
    shape.write_text(json.dumps({"weights": "x"}), encoding="utf-8")
    for flag, path, kind in (("--valuation", bad, "parse error"),
                             ("--weights", bad, "parse error"),
                             ("--weights", shape, "shape error")):
        assert main(["embed", "B2", flag, str(path)]) == 2, flag
        err = capsys.readouterr().err
        assert kind in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def test_exit_2_on_budget(capsys, monkeypatch):
    monkeypatch.setenv("TGW_BUDGET", "1")
    assert main(["ideals", "B2xB2"]) == 2
    monkeypatch.setenv("TGW_BUDGET", "notanint")
    assert main(["ideals", "B2"]) == 2


def test_json_mode_all_commands(capsys):
    for argv in (["ideals", "B2"], ["spec", "B2"], ["simples", "B2"],
                 ["density", "B2"], ["ext", "B2"], ["tor", "B2"],
                 ["adjunction", "B2"], ["radical", "B2"], ["localize", "B2"],
                 ["gelfand", "B2"], ["report"]):
        code = main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["exit_code"] == code == 0, argv
