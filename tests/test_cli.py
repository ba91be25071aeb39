"""Command-line behavior: rendering, JSON mode, exit-code contract."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, zsum
from tgw import cli, fixtures, geometry
from tgw.cli import main
from tgw.core import (BUDGETS, _dump, product_structure, serialize_structure,
                      structure_to_dict)
from tgw.ideals import spectrum
from tgw.modules import module_to_dict, serialize_module


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


def test_ignored_options_are_noted(capsys):
    """An option the command does not read leaves stdout and the exit code
    as they are and adds one note per option on stderr."""
    cases = [
        (["ideals", "B2"], ["--module", "B2-regular", "--k", "2", "--lenient"],
         ["module", "k"]),
        (["report"], ["--lenient"], ["lenient"]),
        (["embed", "B2"], ["--anchor", "1", "--rank2"], ["anchor", "rank2"]),
        (["density", "B2"], ["--module", "B2-regular", "--anchor", "1", "--rank2",
                             "--out", "x"], ["out"]),
        (["localize", "B2"], ["--valuation", "v.json", "--weights", "default"],
         ["valuation", "weights"]),
    ]
    for argv, options, ignored in cases:
        code = main(argv)
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(argv + options) == code
        noted = capsys.readouterr()
        assert noted.out == plain.out, argv
        assert noted.err.splitlines() == [f"note: --{flag} is ignored by {argv[0]}"
                                          for flag in ignored], argv
    # Options the command reads are not noted.
    assert main(["tor", "B2", "--module", "B2-T2", "--lenient"]) == 0
    assert capsys.readouterr().err == ""


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


# Exit code and sha256 of stdout for every command on B2, B2xB2 and Z3, strict
# and --lenient, in each output format, plus the --module B2-T2 pairs; keys
# are the argv joined by spaces.  Any byte change in any command fails here.
GOLDEN_SHA256 = {
    "report":
        (0, "c090c3f5d6f9afee59b8f841ddd62fb35e72e21eb5b0e8040176f0694659a629"),
    "report --format json":
        (0, "61c848ec9a9bd576d6a04c8ef5940029db72efe4029a51b59af15902dd1ed9b4"),
    "check B2":
        (0, "e408a14deb598d598ac1cdbbde2b69675148ddbd13a158b0fdf2bfe439c48854"),
    "check B2 --format json":
        (0, "7b84457ba212eb570b74712d8a40660c7c57856393c26c21458bdb1ac5d9a376"),
    "check B2 --lenient":
        (0, "e408a14deb598d598ac1cdbbde2b69675148ddbd13a158b0fdf2bfe439c48854"),
    "check B2 --lenient --format json":
        (0, "2248a463ef2f28ec5ebf5f0270789a6dac67f8f15a1172c8ac625ce17085b779"),
    "check B2xB2":
        (0, "8dba35870c68eb257f50178334c8f22b68df8b7e47e45a0d1f72e1acc905e047"),
    "check B2xB2 --format json":
        (0, "50be4a87e43fbc806bb6b017adf6d3d67c7ff4321d6b5719a49a091170c9de37"),
    "check B2xB2 --lenient":
        (0, "8dba35870c68eb257f50178334c8f22b68df8b7e47e45a0d1f72e1acc905e047"),
    "check B2xB2 --lenient --format json":
        (0, "ece8c6b4edb167fc1531f0171b50b404c9cf822a34c83f3d30d89321ac8bc3b9"),
    "check Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "check Z3 --format json":
        (1, "c0d232294690d1a79605f0c4ddf4f5397869fd94b596f3342ebc77ca5c4ae149"),
    "check Z3 --lenient":
        (0, "7043bf3a230bb71cb656c172365440f297c2c1e1ee4a274baa35d22aded736b9"),
    "check Z3 --lenient --format json":
        (0, "62e593044000eae06a7b7fbbf30e0a70c81eead4304601034ee75ce135399d1d"),
    "ideals B2":
        (0, "281962207f70d841ff437c64b0358c18442a0e84a0a34d65cc8375d87caebe36"),
    "ideals B2 --format json":
        (0, "0a5345cc246ae570722cc4df8e3c75bc502925a976d52be4e44330556c7a29ba"),
    "ideals B2 --lenient":
        (0, "281962207f70d841ff437c64b0358c18442a0e84a0a34d65cc8375d87caebe36"),
    "ideals B2 --lenient --format json":
        (0, "5a882245dd7287e152304a84e87ace2e3303aa44c4b22e48fe7c784d648137f7"),
    "ideals B2xB2":
        (0, "55562d5dbf85004048941538c93277b17e5b2a6d6d58db26e9fe389e979c084e"),
    "ideals B2xB2 --format json":
        (0, "1516170870364e807c39df30a4f151b6dfc5f3ec3093e58e50ea579931826a76"),
    "ideals B2xB2 --lenient":
        (0, "55562d5dbf85004048941538c93277b17e5b2a6d6d58db26e9fe389e979c084e"),
    "ideals B2xB2 --lenient --format json":
        (0, "3923a08688c6d82cae0727fb559d376095884d405f2b4f4116e3804bd21618ca"),
    "ideals Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "ideals Z3 --format json":
        (1, "65860076ec4410f26d0136b94d6c1487d2b14d8dd9e0b5a8e86e3798893168b8"),
    "ideals Z3 --lenient":
        (0, "559865261701dcdcafda72210a417e6e701f2cd0da7577e0581eabb0da11dc69"),
    "ideals Z3 --lenient --format json":
        (0, "34e661c8711a3a802aa127979e77b2e7759a8191ed671beb0220cac017d26000"),
    "spec B2":
        (0, "7d8de3d4783ae18f9e2cd429fe7a48916a559a51d8f5020101d474562b05a77f"),
    "spec B2 --format json":
        (0, "8fdd33b93886899d13e16d693dfec245091620983610168ce289884662487672"),
    "spec B2 --lenient":
        (0, "7d8de3d4783ae18f9e2cd429fe7a48916a559a51d8f5020101d474562b05a77f"),
    "spec B2 --lenient --format json":
        (0, "8fdd33b93886899d13e16d693dfec245091620983610168ce289884662487672"),
    "spec B2xB2":
        (0, "758ba79e22b832b9776dedf4b09462a93680622d1e9719997df852f2741f901e"),
    "spec B2xB2 --format json":
        (0, "fa1f604ec244c915b92c842d075bf8e239679de95c34b585ae52db5e1acc7638"),
    "spec B2xB2 --lenient":
        (0, "758ba79e22b832b9776dedf4b09462a93680622d1e9719997df852f2741f901e"),
    "spec B2xB2 --lenient --format json":
        (0, "fa1f604ec244c915b92c842d075bf8e239679de95c34b585ae52db5e1acc7638"),
    "spec Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "spec Z3 --format json":
        (1, "4050f52938c871e8966add95f96a3d07c64994c46f2c400d91d83ab016922212"),
    "spec Z3 --lenient":
        (0, "e1c87c6b75457abaf42a1d17a030cadfa6f0ebd0eb7e7b9a0ae2dde1600ca47b"),
    "spec Z3 --lenient --format json":
        (0, "310e16ff7f037ebe4b0b544cf6e1e8b7a4253fc8dd98af3a03921772b5f4811f"),
    "modules B2":
        (0, "e44019b54a0e466f7fa44302b0d94b203bc9220238267e2933e78ad8f1608140"),
    "modules B2 --format json":
        (0, "e6342fdbf06aad7f62e880f8253ff791bebfcb96ad92a7bc38e37f8204c194aa"),
    "modules B2 --lenient":
        (0, "e44019b54a0e466f7fa44302b0d94b203bc9220238267e2933e78ad8f1608140"),
    "modules B2 --lenient --format json":
        (0, "e6342fdbf06aad7f62e880f8253ff791bebfcb96ad92a7bc38e37f8204c194aa"),
    "modules B2xB2":
        (0, "49c66b2db8aad33dedb2025444c1b679b6c9b20652e18ffaf8c05a3dd97ca6de"),
    "modules B2xB2 --format json":
        (0, "a73a1d5f31e31692cf99ee7021cd4813912eb28739f416765017193dd34aae16"),
    "modules B2xB2 --lenient":
        (0, "49c66b2db8aad33dedb2025444c1b679b6c9b20652e18ffaf8c05a3dd97ca6de"),
    "modules B2xB2 --lenient --format json":
        (0, "a73a1d5f31e31692cf99ee7021cd4813912eb28739f416765017193dd34aae16"),
    "modules Z3":
        (1, "5791ef9da231bb3a8f34511aefc1333d70da4fa188c107bfe78705d79d4295a5"),
    "modules Z3 --format json":
        (1, "be3c25f9eb67a2eed826f7299a8683d79e052cf4d8e1e4d5e007af9b9eed2141"),
    "modules Z3 --lenient":
        (0, "5791ef9da231bb3a8f34511aefc1333d70da4fa188c107bfe78705d79d4295a5"),
    "modules Z3 --lenient --format json":
        (0, "55ade5907edfb4826f9ccb8a098b934284553c463095656f5e40cc2c34bf9a9f"),
    "simples B2":
        (0, "f0d23419cd59fb9b5bef1c91ca1e1a43c0838ee13888c4fe509c33fe2ecab77d"),
    "simples B2 --format json":
        (0, "0e95728d06b4eccc184bed038c000445d8cd53d366e7c6c1bdd1a44923b2fefb"),
    "simples B2 --lenient":
        (0, "f0d23419cd59fb9b5bef1c91ca1e1a43c0838ee13888c4fe509c33fe2ecab77d"),
    "simples B2 --lenient --format json":
        (0, "0e95728d06b4eccc184bed038c000445d8cd53d366e7c6c1bdd1a44923b2fefb"),
    "simples B2xB2":
        (0, "a1850797debd7fe4d5fce1be3634a4d8f43134e2880c8973509443e1f560db03"),
    "simples B2xB2 --format json":
        (0, "b7c003865c31fa0f5af7b9bfba3b16f401b43a61abc59956ca5778f64fef442f"),
    "simples B2xB2 --lenient":
        (0, "a1850797debd7fe4d5fce1be3634a4d8f43134e2880c8973509443e1f560db03"),
    "simples B2xB2 --lenient --format json":
        (0, "b7c003865c31fa0f5af7b9bfba3b16f401b43a61abc59956ca5778f64fef442f"),
    "simples Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "simples Z3 --format json":
        (1, "8924c7325e2021fbe3fef257dfdf6dd6b18bf6a2cf296ffefcd99c396535d6df"),
    "simples Z3 --lenient":
        (0, "c1730a22073e080dd713fffd81b6e9cee2892d58407f9753c1008cb1eee09f6a"),
    "simples Z3 --lenient --format json":
        (0, "48a024401a79b5aac486888c68496e232b9a49d66201cbb4032b4361ca7a0e46"),
    "density B2":
        (0, "073ba5f75cf1fe184aa9f538daa8298ba20a2d51f05b9eb83c91880117406ff3"),
    "density B2 --format json":
        (0, "d3ee4b7b4daa254f6cbb5ecf9201ba39594860c4641b761a8d14106c4bd683be"),
    "density B2 --lenient":
        (0, "073ba5f75cf1fe184aa9f538daa8298ba20a2d51f05b9eb83c91880117406ff3"),
    "density B2 --lenient --format json":
        (0, "d3ee4b7b4daa254f6cbb5ecf9201ba39594860c4641b761a8d14106c4bd683be"),
    "density B2xB2":
        (0, "9dad09c6ba6d2704a1667ff3c92fe95a94b8677dfbe19a206d2782fcd2e185dc"),
    "density B2xB2 --format json":
        (0, "2c5d29cd15bba1d2497d8951dfb826e0246f08e927618f7db0b7da1f67a2bdf7"),
    "density B2xB2 --lenient":
        (0, "9dad09c6ba6d2704a1667ff3c92fe95a94b8677dfbe19a206d2782fcd2e185dc"),
    "density B2xB2 --lenient --format json":
        (0, "2c5d29cd15bba1d2497d8951dfb826e0246f08e927618f7db0b7da1f67a2bdf7"),
    "density Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "density Z3 --format json":
        (1, "a72adcc7e58c66c727584ad811eb7e478993ba0b8ed5ec61f7eb2ff012b950d6"),
    "density Z3 --lenient":
        (0, "d3c27c369bcc602639b1aebd125750f7b15d8566df516985b8b001294f22b33f"),
    "density Z3 --lenient --format json":
        (0, "339647d33e60b599f79277644dcdcc23e9b5a100181ba576252f2630e7ae3206"),
    "ext B2":
        (0, "1bb53eb652665434a174904e61e76671a80bc94f2f526a09c792e910e834d030"),
    "ext B2 --format json":
        (0, "817be98c31f07314d429e20fe2d7b334ff22c210b603ff219eec86d39c552649"),
    "ext B2 --lenient":
        (0, "1bb53eb652665434a174904e61e76671a80bc94f2f526a09c792e910e834d030"),
    "ext B2 --lenient --format json":
        (0, "817be98c31f07314d429e20fe2d7b334ff22c210b603ff219eec86d39c552649"),
    "ext B2xB2":
        (0, "cae0b58e151872537955ef0c35844746cfb6df30406b2dc631e51027fcbbbb4b"),
    "ext B2xB2 --format json":
        (0, "19e0bcd109d2cb5944566f1f2501754a09166945ba1a92f156436a986ab53434"),
    "ext B2xB2 --lenient":
        (0, "cae0b58e151872537955ef0c35844746cfb6df30406b2dc631e51027fcbbbb4b"),
    "ext B2xB2 --lenient --format json":
        (0, "19e0bcd109d2cb5944566f1f2501754a09166945ba1a92f156436a986ab53434"),
    "ext Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "ext Z3 --format json":
        (1, "cc8a0943b3882fad1b23038ac6c1e17a2445784c1458463c780c5636afdc62c1"),
    "ext Z3 --lenient":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ext Z3 --lenient --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tor B2":
        (0, "09bc22ef946f8baa2605b49a18f8124cb12a74b66172b15a7fa6a4d2efddb8fd"),
    "tor B2 --format json":
        (0, "d0c66c5b3779f5d0aca049afe9a41365f4ef68cc3d8fbfe0c11022750bbac102"),
    "tor B2 --lenient":
        (0, "09bc22ef946f8baa2605b49a18f8124cb12a74b66172b15a7fa6a4d2efddb8fd"),
    "tor B2 --lenient --format json":
        (0, "d0c66c5b3779f5d0aca049afe9a41365f4ef68cc3d8fbfe0c11022750bbac102"),
    "tor B2xB2":
        (0, "37624d1bde6f9d6466eb8b15e600c7b2c6bd8e44fa5fc578d7ff0cc91069860e"),
    "tor B2xB2 --format json":
        (0, "c6c880dd201a52063e9787cc3adabddfd268b5ee30e88e670dd2e3c77afe8a27"),
    "tor B2xB2 --lenient":
        (0, "37624d1bde6f9d6466eb8b15e600c7b2c6bd8e44fa5fc578d7ff0cc91069860e"),
    "tor B2xB2 --lenient --format json":
        (0, "c6c880dd201a52063e9787cc3adabddfd268b5ee30e88e670dd2e3c77afe8a27"),
    "tor Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "tor Z3 --format json":
        (1, "9c45094be4bef00c19c991320b3b6837a18ee478391476e8cfdec4524a558842"),
    "tor Z3 --lenient":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tor Z3 --lenient --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "adjunction B2":
        (0, "9ca132b3d35a7814387b3bc250e4ce585069e28987fc0e26439e900fba459f0a"),
    "adjunction B2 --format json":
        (0, "142e4495f6e6df6ea805970112f027b3dda0c0c2127281127a48901d4c35222d"),
    "adjunction B2 --lenient":
        (0, "9ca132b3d35a7814387b3bc250e4ce585069e28987fc0e26439e900fba459f0a"),
    "adjunction B2 --lenient --format json":
        (0, "142e4495f6e6df6ea805970112f027b3dda0c0c2127281127a48901d4c35222d"),
    "adjunction B2xB2":
        (0, "5502f8e4ab71cfdd94460357592c2d5d872363cbd6e24cf9d26154af77b45873"),
    "adjunction B2xB2 --format json":
        (0, "9d482adde0c97bc7768987121e7afded8a6d51d870b299d7953d15503b99a604"),
    "adjunction B2xB2 --lenient":
        (0, "5502f8e4ab71cfdd94460357592c2d5d872363cbd6e24cf9d26154af77b45873"),
    "adjunction B2xB2 --lenient --format json":
        (0, "9d482adde0c97bc7768987121e7afded8a6d51d870b299d7953d15503b99a604"),
    "adjunction Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "adjunction Z3 --format json":
        (1, "3aa6a0e6066379802de2bf8199d94a23ae69c4554ce341f1077c0f794c7398df"),
    "adjunction Z3 --lenient":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "adjunction Z3 --lenient --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "radical B2":
        (0, "eb7e3835e344d528b2d4ad71bbdc4cbbed5416d3d5ada3f069dd14d67e1462da"),
    "radical B2 --format json":
        (0, "665f5d2b10d425cd3452f7fbcf3515035478e583fdd500ca1938983c700f2fc8"),
    "radical B2 --lenient":
        (0, "eb7e3835e344d528b2d4ad71bbdc4cbbed5416d3d5ada3f069dd14d67e1462da"),
    "radical B2 --lenient --format json":
        (0, "665f5d2b10d425cd3452f7fbcf3515035478e583fdd500ca1938983c700f2fc8"),
    "radical B2xB2":
        (0, "27bd8acf2e50a0348808ea8d24d366b90b4cb9e443e71699c8e6bcb3f978e827"),
    "radical B2xB2 --format json":
        (0, "5dfcbd80a69bca4ffa7005d44b07d51706fb3b6738ca890d71a3573e3017ac76"),
    "radical B2xB2 --lenient":
        (0, "27bd8acf2e50a0348808ea8d24d366b90b4cb9e443e71699c8e6bcb3f978e827"),
    "radical B2xB2 --lenient --format json":
        (0, "5dfcbd80a69bca4ffa7005d44b07d51706fb3b6738ca890d71a3573e3017ac76"),
    "radical Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "radical Z3 --format json":
        (1, "09907195d9a81510e0837bb236e8fd499d0cddb1dd95f9d936eb6b70a5f74c94"),
    "radical Z3 --lenient":
        (0, "4083dd6e7b8ef0ff2111eff363595251aa2e8a2cf57ff19bffa740d9ef6fe7c1"),
    "radical Z3 --lenient --format json":
        (0, "4ca145d4e47ab790c60dbea3566a8097d3b2cfae5f477aec4a21d316d21e397d"),
    "localize B2":
        (0, "f508a964ca481adaecfe6b618190379d214dc8487bee33d16120f1d8b96cdd85"),
    "localize B2 --format json":
        (0, "a34ad26a99b917f8f6f48707caf7df2c37c9bf8e0384535a7757254432f3026b"),
    "localize B2 --lenient":
        (0, "f508a964ca481adaecfe6b618190379d214dc8487bee33d16120f1d8b96cdd85"),
    "localize B2 --lenient --format json":
        (0, "a34ad26a99b917f8f6f48707caf7df2c37c9bf8e0384535a7757254432f3026b"),
    "localize B2xB2":
        (0, "3e6b9bb7ffc51d190744b91ae43c0152ea90e164f47bd9b7d9b00f6c562f4730"),
    "localize B2xB2 --format json":
        (0, "609bda7ba88f1388e243b13514b7820fd3f8f24ad86494d0fe10eb2ef15c79af"),
    "localize B2xB2 --lenient":
        (0, "3e6b9bb7ffc51d190744b91ae43c0152ea90e164f47bd9b7d9b00f6c562f4730"),
    "localize B2xB2 --lenient --format json":
        (0, "609bda7ba88f1388e243b13514b7820fd3f8f24ad86494d0fe10eb2ef15c79af"),
    "localize Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "localize Z3 --format json":
        (1, "a61d9b8b2acc95db4d5c3797d7e995f8da000f0096eab1a936291f7a9319e03e"),
    "localize Z3 --lenient":
        (0, "ed86042b1daf2009d211eea2cb65abba8153c2d19f0a00407edc040ddf567247"),
    "localize Z3 --lenient --format json":
        (0, "fc87da1e75c7a35e6ca21937e19a88743f2fa7037b13b15de35b25239cbdc934"),
    "gelfand B2":
        (0, "f1cb51725b89e6425700bbd30919c8b2ab0d8fc970b6ae82119f3b8c5faf102d"),
    "gelfand B2 --format json":
        (0, "189d4cf429b0a2b532d298b6bd3aecbea9dc80d4d717131ecdb8ffeeec494831"),
    "gelfand B2 --lenient":
        (0, "f1cb51725b89e6425700bbd30919c8b2ab0d8fc970b6ae82119f3b8c5faf102d"),
    "gelfand B2 --lenient --format json":
        (0, "189d4cf429b0a2b532d298b6bd3aecbea9dc80d4d717131ecdb8ffeeec494831"),
    "gelfand B2xB2":
        (0, "58d243f4937f24df18937d274f449d1ee2fc6356de73cbdac5f429413f928ead"),
    "gelfand B2xB2 --format json":
        (0, "071d6fb0fc6ddab6bd1f38b60d5aa690045df077965cd91fde6e4017c0038f32"),
    "gelfand B2xB2 --lenient":
        (0, "58d243f4937f24df18937d274f449d1ee2fc6356de73cbdac5f429413f928ead"),
    "gelfand B2xB2 --lenient --format json":
        (0, "071d6fb0fc6ddab6bd1f38b60d5aa690045df077965cd91fde6e4017c0038f32"),
    "gelfand Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "gelfand Z3 --format json":
        (1, "ed082591ae819a2a22143f5f6c5a3a60218cec5259b8fed0cf183447700dbe8c"),
    "gelfand Z3 --lenient":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gelfand Z3 --lenient --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "embed B2 --format json":
        (0, "d04fbb55c1f1c5bf7b729c33cd4221b2f7bdb4f2e995d8a775a9a9d07c41872e"),
    "embed B2 --format dot":
        (0, "1524070ad5124648df6e13b78a5e9780517f3f5cdfb32cc8a42010116054bead"),
    "embed B2 --format csv":
        (0, "3f2961cd8b7f217d07edcf3cc5a06440f30ba44d2facd8646e5a76dea678d5bc"),
    "embed B2 --lenient --format json":
        (0, "d04fbb55c1f1c5bf7b729c33cd4221b2f7bdb4f2e995d8a775a9a9d07c41872e"),
    "embed B2 --lenient --format dot":
        (0, "1524070ad5124648df6e13b78a5e9780517f3f5cdfb32cc8a42010116054bead"),
    "embed B2 --lenient --format csv":
        (0, "3f2961cd8b7f217d07edcf3cc5a06440f30ba44d2facd8646e5a76dea678d5bc"),
    "embed B2xB2 --format json":
        (0, "cce9d21b5f937717d8c1163414c5ef88031e696731c55306538a4775b2af235b"),
    "embed B2xB2 --format dot":
        (0, "990f9d626d9d252d820a2cae4062648570044dbf2eb75f7626f4a2bee9b5642e"),
    "embed B2xB2 --format csv":
        (0, "e1a26e30dde06fdb3727f81284aa160b1dffaa57efe24fe73d18babd5d640315"),
    "embed B2xB2 --lenient --format json":
        (0, "cce9d21b5f937717d8c1163414c5ef88031e696731c55306538a4775b2af235b"),
    "embed B2xB2 --lenient --format dot":
        (0, "990f9d626d9d252d820a2cae4062648570044dbf2eb75f7626f4a2bee9b5642e"),
    "embed B2xB2 --lenient --format csv":
        (0, "e1a26e30dde06fdb3727f81284aa160b1dffaa57efe24fe73d18babd5d640315"),
    "embed Z3 --format json":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "embed Z3 --format dot":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "embed Z3 --format csv":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "embed Z3 --lenient --format json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "embed Z3 --lenient --format dot":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "embed Z3 --lenient --format csv":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tor B2 --module B2-T2 --format json":
        (0, "f10ee9b278e584e9367b48ae7f7db4e0df5f801044c0b2fc00f9094022805561"),
    "ext B2 --module B2-T2 --format json":
        (0, "7cc4a6c059d39801b26972fab7283e85b4ce45baa67617cc1101957a0467830b"),
    "adjunction B2 --module B2-T2 --format json":
        (0, "3b786c9080036e455575315ff210e9c380019bcc517baa912a809faa24c7c3ee"),
}


def test_report_deterministic(capsys):
    _, first = run(capsys, "report")
    _, second = run(capsys, "report")
    assert first == second
    for argv, (exit_code, digest) in GOLDEN_SHA256.items():
        code, out = run(capsys, *argv.split())
        assert code == exit_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_json_writer_matches_json_dumps(capsys, monkeypatch):
    # Every object the commands hand to the JSON writer, rendered both ways.
    dumped = []

    def spy(obj):
        dumped.append(obj)
        return _dump(obj)
    monkeypatch.setattr(cli, "_dump", spy)
    monkeypatch.setattr(geometry, "_dump", spy)
    for argv in GOLDEN_SHA256:
        main(argv.split())
    capsys.readouterr()
    # A command that fails writes no JSON; embed exports only a graph it built.
    assert len(dumped) == sum(
        "--format json" in argv and code != 2 and not (argv.startswith("embed") and code)
        for argv, (code, _) in GOLDEN_SHA256.items())
    for obj in dumped:
        assert _dump(obj) == json.dumps(obj, indent=2)
    for name in fixtures.STRUCTURE_NAMES:
        S = fixtures.bundled_structure(name)
        assert serialize_structure(S) == json.dumps(structure_to_dict(S), indent=2) + "\n"
    for name in fixtures.MODULE_NAMES:
        M = fixtures.bundled_module(name)
        assert serialize_module(M) == json.dumps(module_to_dict(M), indent=2) + "\n"


# Exit code and stdout sha256 of `check <Zsum8> --lenient`: 43,599 axiom
# violations downgraded to warnings, the first ten of them in the table and
# every one, with its witness and both sides, in the JSON.
ZSUM8_SHA256 = {
    "--lenient":
        (0, "3ac2b2b474416d52dd93f7667591c007eaab81a7cf20dbc4838c23b8b4218e73"),
    "--lenient --format json":
        (0, "eecbe8bfcdae1a9dcfe130c2b01e5cad7ed78bef312c8d8a8e8795503361fc02"),
}


@pytest.fixture(scope="module")
def zsum8_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("zsum") / "Zsum8.json"
    path.write_text(serialize_structure(zsum(8)), encoding="utf-8")
    return path


def test_zsum8_check_pinned(capsys, zsum8_path):
    got = {}
    for options in ZSUM8_SHA256:
        code, out = run(capsys, "check", str(zsum8_path), *options.split())
        got[options] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == ZSUM8_SHA256


def test_closed_stdout_exits_141_quietly(zsum8_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "tgw.cli", "check", str(zsum8_path), "--lenient",
         "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


# Exit code and stdout sha256 of the catalog commands on C8 and B2^3, whose
# regular modules have 128 and 8 congruences.  The `<name>-cyclic-q<k>` names
# number the congruences in restricted-growth order, so every byte depends on
# the order in which `enumerate_module_congruences` returns them.
CATALOG_SHA256 = {
    "B2^3": {
        "simples":
            (0, "ef7404f056d1033c03c38fd0b51c78708a490a2e2e30e815a5b18d5cbfe32aa4"),
        "simples --format json":
            (0, "fe05ed80838bb9d355651c19dac89a675447513496fceb32b168c81a812e3539"),
        "density":
            (0, "a2ef762fa31d265a622f2ee2c3758729f36954a3285d3e85c91acd64d91c617b"),
        "density --format json":
            (0, "7659c899ed13bc8d52e4242dcb570dd54fca268ed40e3f7bf597f49874347001"),
    },
    "C8": {
        "simples":
            (0, "42a129e11eca51af6c70a3203a2abe89be786bcadb1efc15769d7ebe29391fb3"),
        "simples --format json":
            (0, "cb4fe5f0e58ad5eb454372635ad8778dadcdd6562662ad47c0bb0cd141fe0345"),
        "density":
            (0, "42bb638b8017bdcc88aa1037ac5c014d6776904b581e5523b478220389d9eadd"),
        "density --format json":
            (0, "7d6d5bdf793707c9f2c3af78e58b126784764cc9b20d359300434e6412a70f7d"),
    },
}


def _catalog_structure(name):
    if name == "C8":
        return chain(8)
    b2 = fixtures.bundled_structure("B2")
    return product_structure(fixtures.bundled_structure("B2xB2"), b2, name)


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_commands_pinned(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(structure_to_dict(_catalog_structure(name))))
    got = {}
    for argv in CATALOG_SHA256[name]:
        command, *options = argv.split()
        code, out = run(capsys, command, str(path), *options)
        got[argv] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == CATALOG_SHA256[name]


def test_exit_2_on_bad_inputs(capsys, tmp_path):
    assert main(["check", "/nonexistent/path.json"]) == 2
    assert main(["nosuchcommand", "B2"]) == 2
    assert main(["embed"]) == 2  # missing fixture argument
    capsys.readouterr()
    # Malformed fixture, module and embed side files: one error line, no
    # traceback.
    b2 = structure_to_dict(fixtures.bundled_structure("B2"))
    t2 = module_to_dict(fixtures.bundled_module("B2-T2"))
    check = ["check"]
    module = ["modules", "B2", "--module"]
    valuation = ["embed", "B2", "--valuation"]
    weights = ["embed", "B2", "--weights"]
    cases = [
        (valuation, "{not json", "parse error"),
        (weights, "{not json", "parse error"),
        (weights, {"weights": "x"}, "shape error"),
        (weights, {"weights": [True]}, "shape error"),
        (check, {**b2, "elements": [["0"], ["1"]]}, "shape error"),
        (check, {**b2, "elements": "01"}, "shape error"),
        (check, {**b2, "gamma": 5}, "shape error"),
        (check, {**b2, "add": 5}, "shape error"),
        (check, {**b2, "add": ["01", "11"]}, "shape error"),
        (check, {**b2, "commutative": "false"}, "shape error"),
        (check, {**b2, "commutative": 0}, "shape error"),
        (module, 5, "parse error"),
        (module, {**t2, "carrier": [["a"], ["b"], ["c"], ["d"]]}, "shape error"),
        (module, {**t2, "madd": 5}, "shape error"),
        (module, {**t2, "act": 5}, "shape error"),
        (valuation, 5, "shape error"),
        (valuation, {"g0": 3}, "shape error"),
        (valuation, '{"g0": [NaN, 1], "g1": [0, 1]}', "shape error"),
        (valuation, '{"g0": [0, 1], "g1": [0, -Infinity]}', "shape error"),
        (valuation, {"g0": [True, 1], "g1": [0, 1]}, "shape error"),
    ]
    for k, (argv, content, kind) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        text = content if isinstance(content, str) else json.dumps(content)
        path.write_text(text, encoding="utf-8")
        assert main([*argv, str(path)]) == 2, (argv, content)
        err = capsys.readouterr().err
        assert kind in err and "Traceback" not in err, (argv, content)
        assert len(err.strip().splitlines()) == 1


def _nodes(tree, path=()):
    """(path, node) for every node of a parsed JSON document, root first."""
    yield path, tree
    children = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _mutate(tree, path, how):
    """`tree` with the node at `path` dropped, shortened or replaced."""
    tree = json.loads(json.dumps(tree))
    *parent_path, key = path
    parent = tree
    for k in parent_path:
        parent = parent[k]
    if how == "drop":
        del parent[key]
    elif how == "shorten":
        parent[key] = parent[key][:-1]
    else:
        parent[key] = how
    return tree


# Leaf replacements besides the declared element labels: null, booleans,
# NaN, a negative and an out-of-range index, an unknown label and an empty
# list.
_LEAVES = (None, True, False, math.nan, -1, 99, "no-such-label", [])


def _check_mutated_file(tree, labels, data, runs):
    """Run each of `runs` (argv, with FILE for the file) on `tree` with one
    node dropped, shortened or replaced: the run exits 0, 1 or 2, and exit 2
    prints exactly one error line and no traceback."""
    nodes = [(path, node) for path, node in _nodes(tree) if path]
    path, node = data.draw(st.sampled_from(nodes))
    kinds = ["shorten"] if isinstance(node, list) and node else []
    if len(path) == 1:
        kinds.append("drop")
    if not isinstance(node, (dict, list)):
        kinds.extend([*_LEAVES, *labels])
    mutated = _mutate(tree, path, data.draw(st.sampled_from(kinds)))
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "mutated.json"
        fixture.write_text(json.dumps(mutated), encoding="utf-8")
        for argv in runs:
            argv = [str(fixture) if arg == "FILE" else arg for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, mutated)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
                assert "Traceback" not in err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(("b2.json", "b2xb2.json")), st.data())
def test_malformed_structures_exit_cleanly(filename, data):
    """Mutated structure files exit 0, 1 or 2, and exit 2 with exactly one
    error line and no traceback.  A leaf replaced by another element label
    leaves a well-formed file whose laws may fail, which the lenient
    commands analyse to the end."""
    tree = json.loads(fixtures._data_text(filename))
    _check_mutated_file(tree, tree["elements"], data,
                        (["check", "FILE"], ["spec", "FILE", "--lenient"],
                         ["localize", "FILE", "--lenient"]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(("b2_t2.json", "b2xb2_regular.json", "b2_regular.json")),
       st.data())
def test_malformed_modules_exit_cleanly(filename, data):
    """The same for module files, loaded over their bundled base by the
    module reader and by the lenient density analysis, whose witness search
    runs on the mutants of the simple B2-regular that stay simple."""
    tree = json.loads(fixtures._data_text(filename))
    base = tree["base"]
    _check_mutated_file(tree, tree["carrier"], data,
                        (["modules", base, "--module", "FILE"],
                         ["density", base, "--lenient", "--module", "FILE"]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(("valuation", "weights")), st.data())
def test_malformed_embed_files_exit_cleanly(option, data):
    """The same for the valuation and weight files of `embed`; besides the
    usual leaves, an entry may become a fraction or the largest float."""
    tree = {"valuation": {"g0": [0, 1, 2, 3], "g1": [3, 1, 2, 0]},
            "weights": {"weights": [0.5, 1]}}[option]
    _check_mutated_file(tree, (0.25, sys.float_info.max), data,
                        (["embed", "B2xB2", f"--{option}", "FILE"],))


def test_exit_2_on_budget(capsys, monkeypatch):
    monkeypatch.setenv("TGW_BUDGET", "1")
    assert main(["ideals", "B2xB2"]) == 2
    monkeypatch.setenv("TGW_BUDGET", "notanint")
    assert main(["ideals", "B2"]) == 2


def test_budget_applies_to_every_command_for_one_call(capsys, monkeypatch):
    """TGW_BUDGET sets the enum and hom limits for the whole command, also
    where the search sits below the catalog, and the limits are restored
    when the command ends."""
    defaults = dict(BUDGETS)
    monkeypatch.setenv("TGW_BUDGET", "1")
    assert main(["simples", "B2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "enum limit 1" in err[0]
    assert BUDGETS == defaults
    monkeypatch.delenv("TGW_BUDGET")
    assert main(["simples", "B2"]) == 0


def test_json_mode_all_commands(capsys):
    for argv in (["ideals", "B2"], ["spec", "B2"], ["simples", "B2"],
                 ["density", "B2"], ["ext", "B2"], ["tor", "B2"],
                 ["adjunction", "B2"], ["radical", "B2"], ["localize", "B2"],
                 ["gelfand", "B2"], ["report"]):
        code = main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["exit_code"] == code == 0, argv


def test_run_battery_script(capsys, tmp_path):
    """scripts/run_battery.py returns the exit code of `tgw report` and
    writes every export of each bundled spectrum that has points."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_battery.py"
    spec = importlib.util.spec_from_file_location("run_battery", path)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    expected = main(["report"])
    capsys.readouterr()
    assert battery.run(tmp_path / "out") == expected
    out = capsys.readouterr().out
    written = set()
    for name in fixtures.STRUCTURE_NAMES:
        if not spectrum(fixtures.bundled_structure(name), lenient=True).points:
            assert f"{name}: empty spectrum" in out
            continue
        for fmt in ("json", "dot", "csv"):
            export = tmp_path / "out" / f"{name.lower()}_spectrum.{fmt}"
            assert export.read_text(encoding="utf-8").strip(), export
            written.add(export.name)
    assert written and {p.name for p in (tmp_path / "out").iterdir()} == written
