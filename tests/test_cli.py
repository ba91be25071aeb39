"""Command-line behavior: rendering, JSON mode, exit-code contract."""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (act_patched_at_every_pair, brute_force_check_axioms,
                      brute_force_check_module_axioms, chain, collapsed_b2_cubed,
                      integers_mod, swapping_module, tri_patched_at_every_pair, truncated_naturals,
                      zero_action_chain, zsum)
from tgw import cli, core, fixtures, geometry, modules
from tgw.cli import main
from tgw.core import (BUDGETS, PreconditionError, Violations, _dump, _write, check_axioms,
                      product_structure, require_axioms, serialize_structure,
                      structure_to_dict)
from tgw.ideals import spectrum
from tgw.modules import (check_module_axioms, module_to_dict, regular_module,
                         require_module_axioms, serialize_module)


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


def test_hom_set_open_under_the_action_is_a_finding(capsys, tmp_path):
    # B2-swaps is lawful, but moving a hom by one swap leaves Hom(N, P): the
    # adjunction fails with a witness (exit 1), as tor and ext on it do.
    path = tmp_path / "swaps.json"
    path.write_text(serialize_module(swapping_module(fixtures.bundled_structure("B2"))))
    modules = ["--module", str(path)] * 3
    assert run(capsys, "modules", "B2", "--module", str(path))[0] == 0
    code, out = run(capsys, "adjunction", "B2", *modules)
    assert code == 1
    assert "|Hom(B2-swaps,Hom(B2-swaps,B2-swaps))| = n/a, bijection: No" in out
    assert "finding: Hom(B2-swaps,B2-swaps) is not closed under the induced action" in out
    assert "(a, x, y, b) = (" in out and "is not a hom" in out
    code, out = run(capsys, "adjunction", "B2", *modules, "--format", "json")
    result = json.loads(out)["result"][0]
    assert code == 1 and result["rhs_size"] is None and not result["holds"]
    assert "is not closed under the induced action" in result["notes"][-1]
    for command in ("tor", "ext"):
        assert run(capsys, command, "B2", *modules)[0] == 1


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


def test_modules_lists_bundled_modules_only_over_their_own_base(capsys, tmp_path):
    """A structure file that takes a bundled structure's name, but not its
    tables, gets none of that structure's bundled modules: Z3's tables named
    B2 list their own regular module alone, which fails the module laws."""
    path = tmp_path / "z3-named-b2.json"
    z3_named_b2 = dataclasses.replace(fixtures.bundled_structure("Z3"), name="B2")
    path.write_text(serialize_structure(z3_named_b2), encoding="utf-8")
    code, out = run(capsys, "modules", str(path), "--lenient", "--format", "json")
    payload = json.loads(out)["result"]
    assert code == 0 and len(payload) == 1
    assert payload[0]["module"] == "B2-regular" and payload[0]["violations"]
    assert run(capsys, "modules", str(path))[0] == 1


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
        (0, "89d9e3989bbe747abb2b49830d6a46f86fbbf1bb73d8785d3497ed683cacdf54"),
    "adjunction B2xB2 --lenient":
        (0, "5502f8e4ab71cfdd94460357592c2d5d872363cbd6e24cf9d26154af77b45873"),
    "adjunction B2xB2 --lenient --format json":
        (0, "89d9e3989bbe747abb2b49830d6a46f86fbbf1bb73d8785d3497ed683cacdf54"),
    "adjunction Z3":
        (1, "c05ff2d480ce90c76bf9dd9cbe5e908fe409349496dfa5154a15a24512e0417f"),
    "adjunction Z3 --format json":
        (1, "3aa6a0e6066379802de2bf8199d94a23ae69c4554ce341f1077c0f794c7398df"),
    "adjunction Z3 --lenient":
        (1, "1d72425df428f6b382f15a36954c184f002f4db7c31c21c0954266ca6f826767"),
    "adjunction Z3 --lenient --format json":
        (1, "8139f514dde602b62d3ff4ae20aaa51105dd55e778464412d326965c1babe001"),
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


def _violation_dicts(violations: Violations) -> list[dict]:
    """json.dumps' view of a violation sequence: each record's `to_dict()`."""
    return [v.to_dict() for v in violations]


def test_json_writer_matches_json_dumps(capsys, monkeypatch):
    # Every object that main writes as JSON or that embed exports, rendered both ways.
    dumped = []

    def spy(writer):
        def record(obj):
            dumped.append(obj)
            return writer(obj)
        return record
    monkeypatch.setattr(cli, "_write", spy(_write))
    monkeypatch.setattr(geometry, "_dump", spy(_dump))
    for argv in GOLDEN_SHA256:
        main(argv.split())
    capsys.readouterr()
    # A command that fails writes no JSON; embed exports only a graph it built.
    assert len(dumped) == sum(
        "--format json" in argv and code != 2 and not (argv.startswith("embed") and code)
        for argv, (code, _) in GOLDEN_SHA256.items())
    for obj in dumped:
        assert _dump(obj) == json.dumps(obj, indent=2, default=_violation_dicts)
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


# Exit code and stdout sha256 of lenient JSON checks on inputs whose two
# parameters every table reads alike and that still fail laws: B2^3 and B2xB2
# with one tri entry changed at every parameter pair, and B2-T2 with one
# action entry changed the same way.  Every violation is listed at both
# parameters, in the order of the full grid.
COLLAPSED_SHA256 = {
    "check B2^3-tri(3,5,6)=7":
        (0, "3fbf7ee26983191760f107937a6e24cfd5c73175aa606ffe16fbbbaad6b9fbf7"),
    "check B2xB2-tri(1,1,2)=3":
        (0, "5855e65318402b3f9eb2e1762e231c11f9f1ba2338789ae7b4659ba57b69772c"),
    "modules B2-T2-act(1,3,1)=1":
        (0, "c7d5717dcd76614a6ea48f444e01e8b799e818d16cbf6cfd5354c91cfa0e04d5"),
}


def _collapsed_inputs():
    b2xb2 = fixtures.bundled_structure("B2xB2")
    return {"check": [collapsed_b2_cubed(), tri_patched_at_every_pair(b2xb2, 1, 1, 2, 3)],
            "modules": [act_patched_at_every_pair(fixtures.bundled_module("B2-T2"), 1, 3, 1, 1)]}


def test_collapsed_parameters_pinned(capsys, tmp_path):
    got = {}
    for command, inputs in _collapsed_inputs().items():
        for X in inputs:
            path = tmp_path / f"{X.name}.json"
            if command == "check":
                path.write_text(serialize_structure(X), encoding="utf-8")
                argv = ["check", str(path)]
            else:
                path.write_text(serialize_module(X), encoding="utf-8")
                argv = ["modules", X.base.name, "--module", str(path)]
            code, out = run(capsys, *argv, "--lenient", "--format", "json")
            got[f"{command} {X.name}"] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == COLLAPSED_SHA256


def test_first_violations_read_the_columns(monkeypatch):
    # The gates and the violation lines read the first violation, or the first
    # MAX_PRINTED_VIOLATIONS, from the columns: they give the text that the
    # oracle's tuple gives, and build no other Violation.
    check_axioms.cache_clear()
    check_module_axioms.cache_clear()
    S = zsum(5)
    M = regular_module(S)
    z3 = fixtures.bundled_structure("Z3")
    oracles = {S: brute_force_check_axioms(S), z3: brute_force_check_axioms(z3),
               M: brute_force_check_module_axioms(M)}
    reports = [check_axioms(S), check_module_axioms(M), check_axioms(z3)]

    def texts():
        out = []
        for gate, X in ((require_axioms, S), (require_module_axioms, M)):
            with pytest.raises(PreconditionError) as error:
                gate(X, False, "op")
            out.append(str(error.value))
        for lenient in (False, True):
            cli._structure_gate(S, argparse.Namespace(lenient=lenient), out)
        for kind in ("violation", "warning"):
            out += cli._violation_lines(cli.check_axioms(S).violations, S, kind)
        return out + cli._report_battery()[1]["warnings"]
    got = texts()
    assert any(line.startswith("Z3: 699 axiom violation(s), e.g.") for line in got)
    assert not any("_tuple" in vars(r.violations) for r in reports)
    for module, name, check in ((core, "check_axioms", check_axioms),
                                (cli, "check_axioms", check_axioms),
                                (modules, "check_module_axioms", check_module_axioms)):
        monkeypatch.setattr(module, name, lambda X, check=check: oracles.get(X) or check(X))
    assert texts() == got


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


def test_lenient_localize_leaves_numpy_ma_unimported(tmp_path):
    """The classes that make a product ill defined are listed through a sort:
    the first np.unique call imports numpy.ma, which takes most of such a
    call's time in a fresh process.  (NumPy 1.x imports numpy.ma with numpy,
    and then the call cannot import it again.)"""
    data = structure_to_dict(chain(4))
    data["tri"][0][0][0][0][2] = "1"
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(data))
    script = ("import sys, numpy\n"
              "before = 'numpy.ma' in sys.modules\n"
              "from tgw.cli import main\n"
              f"code = main(['localize', {str(path)!r}, '--lenient'])\n"
              "print(code, before, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    *lines, last = proc.stdout.splitlines()
    assert "  failure: tri: (0,0,2) at (0,0) depends on representatives ([0, 1])" in lines
    code, before, after = last.split()
    assert (code, after) == ("1", before)


# Exit code and stdout sha256 of the catalog commands on C8, C10, C12 and
# B2^3, whose regular modules have 128, 512, 2,048 and 8 congruences.  C10
# and C12 lie past the default partition and enum limits, which the test
# raises for them alone: C8 and B2^3 run at the defaults.
# The `<name>-cyclic-q<k>` names number the congruences in restricted-growth
# order, so every byte depends on the order in which
# `enumerate_module_congruences` returns them.
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
        "radical":
            (0, "1a692379124fe9fa7892d3ca780d8f00eade5c2dad7bfbaad76be5afde428014"),
        "radical --format json":
            (0, "ef2776ded638e9f5cd6be53341b0c053710cf458f7b615170546fbedd20a0d31"),
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
        "radical":
            (0, "e00d6ba69f241470f79468cc45c4ade5babffaeefdd1020b58522a973aff3838"),
        "radical --format json":
            (0, "388335dffaf14ac1333c10e72fe799d1a96ab574869434061043efb7eef95595"),
    },
    "C10": {
        "simples":
            (0, "06afe7b8b80c1e204e3560d0f6f9ea1fe24800d1c0085e74b2c74f8449eb128e"),
        "simples --format json":
            (0, "8ff8da8a8aceb663598753fa35327e168abee6d9a4205c6393ef0a86e115e580"),
        "density":
            (0, "6958a849222db365e3d0eb6ec531e51036d2d65961078cf5a3e1a1ca8719c077"),
        "density --format json":
            (0, "f6da8e8c4425e7f9e7fde77a86df5eeaadf65963b05be7d6ffa93329b8b7befa"),
        "radical":
            (0, "d3d6a7de30e19cb10f23f7ea7b716543263ff87d6f6d927d8b64fc2008323df8"),
        "radical --format json":
            (0, "e243cca74075bac63aa4198f2fe0521695f7d3b72ddcd07c28a55733e84e5c7d"),
    },
    "C12": {
        "simples":
            (0, "9d546e9331460d99997c649772ca4551f4f1c45386a6b6742d40188c10b975bd"),
        "simples --format json":
            (0, "7ab55522a48778e9814c268dbf588c6435262280e0abe8fee415fb29e0362359"),
        "density":
            (0, "a7d2ac43a1428558abd19a83ee5c9f8f57ba7b1f675b08a6775204a65e3c24f1"),
        "density --format json":
            (0, "2dde605781d2c88359386ca5e66ef071779fbfe365a4871ed4df8e74d8d2a44f"),
        "radical":
            (0, "3363a3fa19454eaf04b1c77061ee7dd30192e1ddb7839ab3c1f48b852bedeffd"),
        "radical --format json":
            (0, "30aec799d7bbd8debe655cdfa485307b6b508b0afca7c96c30eb5e0b63b2e355"),
    },
}


def _catalog_structure(name):
    if name.startswith("C"):
        return chain(int(name[1:]))
    if name.startswith("N"):
        return truncated_naturals(int(name[1:]))
    if name.startswith("Z"):
        return integers_mod(int(name[1:]))
    k = int(name[3:]) if name.startswith("B2^") else 0
    if k < 3:
        raise ValueError(f"no catalog structure is named {name!r}")
    b2 = fixtures.bundled_structure("B2")
    power = product_structure(fixtures.bundled_structure("B2xB2"), b2, "B2^3")
    for i in range(4, k + 1):
        power = product_structure(power, b2, f"B2^{i}")
    return power


def test_catalog_structure_reads_the_exponent():
    assert [_catalog_structure(f"B2^{k}").n for k in (3, 4, 5)] == [8, 16, 32]
    assert _catalog_structure("B2^5").name == "B2^5"
    for name in ("B2^2", "B2xB2", "B2^x", "Q8"):
        with pytest.raises(ValueError):
            _catalog_structure(name)


RAISED_LIMITS = {"C10", "C12"}


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_commands_pinned(capsys, tmp_path, monkeypatch, name):
    if name in RAISED_LIMITS:
        monkeypatch.setitem(BUDGETS, "partition", 16)
        monkeypatch.setitem(BUDGETS, "enum", 40)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(structure_to_dict(_catalog_structure(name))))
    got = {}
    for argv in CATALOG_SHA256[name]:
        command, *options = argv.split()
        code, out = run(capsys, command, str(path), *options)
        got[argv] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == CATALOG_SHA256[name]


# Exit code and stdout sha256 of `spec --format json` on B2^5, whose 1,024
# ideal closures read the action of its ideal module (enum limit raised), and
# of `modules --format json` on B2^3 with B2^3-T2n, the module that
# `perfbench/inputs.write_inputs` writes: the module loader and the law tables.
MODULE_SHA256 = {
    "spec B2^5": (0, "c61d78d3d5a1967d8c112283b1a12efc1da1209366ac3001595f935c950ec8c7"),
    "modules B2^3-T2n": (0, "e9a87b21adeaedeb8aff284f87d29006a6966dca6eba2b5b13c7970b408db8f3"),
}


def test_spectrum_of_b2_to_the_fifth_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.setitem(BUDGETS, "enum", 40)
    path = tmp_path / "B2^5.json"
    path.write_text(json.dumps(structure_to_dict(_catalog_structure("B2^5"))))
    code, out = run(capsys, "spec", str(path), "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MODULE_SHA256["spec B2^5"]


def test_modules_of_the_benchmark_module_pinned(capsys, tmp_path):
    root = Path(__file__).resolve().parents[1]
    paths = _load("perfbench", "inputs.py").write_inputs(root, tmp_path, 0, ["B2p3", "B2p3-T2n"])
    code, out = run(capsys, "modules", paths["B2p3"], "--module", paths["B2p3-T2n"],
                    "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MODULE_SHA256["modules B2^3-T2n"]


# Exit code and stdout sha256 of `tor`, `ext` and `adjunction --format json`
# on C16 and B2^4.  Their resolutions tensor presentations of 256 generators,
# far past the sizes the idempotent tensor oracle reaches, and dualize into
# hom sets of the same free modules.  N5 and N6 (truncated naturals, 6 and 7
# elements) take the exact tensor numbering in `tor` and `adjunction`, past
# the reach of the full-state oracles in test_homology.py; N6's pins were
# recorded from the full-state quotient over 2,097,152 states, with the
# state limit raised.
# Z4, Z5, Z6 and Z8 (`conftest.integers_mod`) take the group backend, whose
# diagonalization follows the relation order, in `tor` and `adjunction`.
HOMOLOGY_SHA256 = {
    "tor": {
        "B2^4": (0, "e8fed59f025ad4d01c999ed06e77c5600df149cf0dc034bc5cfd9d3a0b4d717c"),
        "C16": (0, "4fadac3b703eb112ce65e233253599e3377044da4df6787fc7efd67cd0136b62"),
        "N5": (0, "eb7ee939f4bd953289cf238ed3834307faa9fde91dcd7d6909b35b07ffa3a844"),
        "N6": (0, "05460527ce5a1a52d08562cdb1104bc58cf505562baeaa4ad9f38a3be872e0b4"),
        "Z4": (0, "d8cce347e48d31a3dda044ad2573f3c77e89e7722353535e6ff7d11fd489262d"),
        "Z5": (0, "3745fc749a72274098037100f2522b17f81ea21731f0bd5eabbc2d4db1c91c46"),
        "Z6": (0, "6be358d6e8ae3df317899b3e7c193580bac337cc8adb97c268c8043d9bb7288a"),
        "Z8": (0, "895888c905c4f96ffc4ef3a45a98ab3d4f4c6d01e0d6baef03e1546739ea620e"),
    },
    "ext": {
        "B2^4": (0, "e120b327af423c2bd28555fe8d3c9950fba7544c3ac80d2b8c24cdc79d4a430c"),
        "C16": (0, "c5984975b7f5d50f0f6cb420e313f40c8004bc44bbfae5538711a5c38c93e674"),
        "N5": (0, "3073c54646ca3441364f66764dbbf197f2e3a12f4c60b7466c6d1a3257f88410"),
    },
    "adjunction": {
        "B2^4": (0, "ea0770c59104870bc377e2e78f7439569b7b9bf28e36924a985e0c1a0465d84d"),
        "C16": (0, "f1ca1a6e4956942a9f4c53af1e85f478cd0b3ee83c81f1b2495c8785c6d0a330"),
        "N5": (0, "6c93c59c194be811afdc2763d205e97463b226ebc1a6c375bca3d7deb557f793"),
        "N6": (0, "bdee2328c465376cd51fd0026ebf032be8fa4971f53a09c6f52d1ffb70d47b0f"),
        "Z4": (0, "efc6d9e3a2f7bd0e60e9f03913634f920f0f9014510f9abe4fb463388a6d302f"),
        "Z5": (0, "572a606133deed3b354d5aa9081164e9fc4651cd13d3cbff553a50ecd3362677"),
        "Z6": (0, "0b33f429f8bbca037854ad84fe95ffd47b7ddc75103d19aaf1190c60688f71bc"),
        "Z8": (0, "007a1f61dd66610025324be56b538358969998731955e3cc1935be2fe0051d83"),
    },
}


def assert_homology_pinned(capsys, tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(structure_to_dict(_catalog_structure(name))))
    code, out = run(capsys, command, str(path), "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == HOMOLOGY_SHA256[command][name]


@pytest.mark.parametrize("name", sorted(HOMOLOGY_SHA256["tor"]))
def test_tor_pinned(capsys, tmp_path, name):
    assert_homology_pinned(capsys, tmp_path, "tor", name)


@pytest.mark.parametrize("name", sorted(HOMOLOGY_SHA256["ext"]))
def test_ext_pinned(capsys, tmp_path, name):
    assert_homology_pinned(capsys, tmp_path, "ext", name)


@pytest.mark.parametrize("name", sorted(HOMOLOGY_SHA256["adjunction"]))
def test_adjunction_pinned(capsys, tmp_path, name):
    assert_homology_pinned(capsys, tmp_path, "adjunction", name)


# Exit code and stdout sha256 of `tor B2 --module chain7.json --module
# chain7.json --format json`, chain7 the zero-action 7-chain
# (`conftest.zero_action_chain`): the widest idempotent pair pinned, 6 kept
# columns and 8^6 = 262,144 reduced states; 924 classes.  Recorded when pairs
# past 200,000 reduced states took the Horn closure.
WIDE_TOR_SHA256 = (1, "77b1016b8d6e27039247ddcd15060825449247e2cfac49c05e2d816e23800741")


def test_tor_of_the_zero_action_seven_chain_pinned(capsys, tmp_path):
    path = tmp_path / "chain7.json"
    path.write_text(serialize_module(zero_action_chain(fixtures.bundled_structure("B2"), 7)))
    code, out = run(capsys, "tor", "B2", "--module", str(path), "--module", str(path),
                    "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == WIDE_TOR_SHA256


# Exit code and stdout sha256 of `localize --format json` and `gelfand
# --format json` on chains and B2^3: localization at every prime of C8
# (7 primes), C12 (11) and B2^3 (3, with two parameters), and at the maximal
# primes that the Gelfand map reads.
LOCALIZATION_SHA256 = {
    "localize": {
        "B2^3": (0, "cb93d16f31767f0b48b4b5e9719386e08dddcb366e217e847d8aa6708a806009"),
        "C8": (0, "292c13cce588ebddc1982a07a122cdd79b12d7852a89f066dc7a424a99387ab4"),
        "C12": (0, "5fcf1c02b52f5903da0ace14ff7f13a1183f955b1c708a964d5cc814feb64430"),
    },
    "gelfand": {
        "B2^3": (0, "8d16bf76ad7c24df73ccb39df2dd3008d6f9ba31b299e7b4217fe983462016e9"),
        "C12": (0, "0ae00f35c8b9ee29a779b912673fe2f5b5036c1b9183fb7c03f0d635e198afe5"),
    },
}


@pytest.mark.parametrize("command, name", [(c, n) for c in LOCALIZATION_SHA256
                                           for n in sorted(LOCALIZATION_SHA256[c])])
def test_localization_pinned(capsys, tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(structure_to_dict(_catalog_structure(name))))
    code, out = run(capsys, command, str(path), "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == LOCALIZATION_SHA256[command][name]


# Exit code and sha256 of stdout and stderr of the top-level help, each
# command's help and two usage errors, at a terminal width of 80 columns.
HELP_SHA256 = {
    "--help": (0, "788b0f51a65c7846641448d7cf8741b0df9f571962fcde0755ae9fe8eaa7bda0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --help": (0, "102c905da069e8ab7e2c0488a22ae0e2ead579844fef0482dea2d8e4ffb668e9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ideals --help": (0, "7bc3fcc998edd634cd290e826e7992559fce6c1e6facc05651dcf0a888e823ba",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "spec --help": (0, "30f68a0884d2ba2ef684724029fd9ad5fdee92b1fd6edc425e504bd91046d36f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "modules --help": (0, "633197ebf9c6f9c98e9a1b82b61fe3db53770d3ec0a5f93d90cd635072e2daf8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "simples --help": (0, "1c54e1845591eaca1b847d13962c72e551a0d819db01462e4c9b5a396b4c01ae",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "density --help": (0, "4ae203039b51ece50a384ecc7ea1ba591915a97580b35f7ec47b80775b12e999",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ext --help": (0, "087958f36d4f3a4a834b7c4b1054a8a907776a1e4230d34e2c507324cdb8b460",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tor --help": (0, "e7ef75df68203083e61a2570235600e66614283d912fc40c98fdfb369f4b8669",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "adjunction --help": (0, "10ec1c42935f3c382ba2bfde1ef4714b4a5f3250f09004c19a1e905ae51bab89",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "radical --help": (0, "13beab7910f5c1294599c25a0792413d91dce456368a5a6b1f4aff4b6638cb7f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "localize --help": (0, "2bdd23721021dc8158a7b22018992a74ec359478df843ff9c493726f8d93e94e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gelfand --help": (0, "b0a60fe49c814dfc5c67112cdc3453bd592df881e27a823b7febfa63fb45fdbc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "embed --help": (0, "508d05b619f55b67aaf0f2b4ee9c3e00c32fc31117a0e6986048116a83e71a4c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "report --help": (0, "0675e4774ec056956a9163b1c201aeebd7d1454633ed52bc6f15dc0f268e410b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "chek x": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "75bcc276f5950797c150fbf102f4c552ebf42acc5edcad7291407a60b4423f24"),
    "check": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "453ea1341c5f007fb24983aab9760e20c3360f303170ba33c2f8c41e4f385cf7"),
}


@pytest.mark.parametrize("argv", ["--help", *(f"{name} --help" for name in cli._COMMANDS),
                                  "chek x", "check"])
def test_help_and_usage_errors_pinned(capsys, monkeypatch, argv):
    """argparse wraps help text to the terminal width, read from COLUMNS."""
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode()).hexdigest(),
           hashlib.sha256(captured.err.encode()).hexdigest())
    assert got == HELP_SHA256[argv]


# Tokens of drawn command lines: fixture-like words, option values good and
# bad, and every flag with exact, abbreviated, joined and unknown forms.
_WORDS = ["B2", "Z3", "", "C8.json", "x y", "check", "default", "-1"]
_VALUES = ["json", "table", "dot", "csv", "2", "07", " 3", "x", "", "-1"]
_FLAGS = [f"--{flag}" for flag in cli._OPTIONS] + [
    "--form", "--format=json", "-h", "--help", "--", "-1", "--nosuch"]


def _load(*parts):
    """The module of the file at `parts` from the root of the checkout."""
    path = Path(__file__).resolve().parents[1].joinpath(*parts)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argparse_vars(argv):
    try:
        return vars(cli.build_parser(argv[0]).parse_args(argv))
    except SystemExit:
        return None


def test_plain_parse_matches_argparse(capsys):
    """Whenever the parse without argparse accepts a command line, it gives
    argparse's namespace; it accepts the golden and benchmark command lines,
    and leaves help, abbreviations, joined values and `--` to argparse."""
    rng = random.Random(5)
    accepted = 0
    for _ in range(20000):
        argv = [rng.choice([*cli._COMMANDS, "chek"])]
        for _ in range(rng.randrange(6)):
            if rng.random() < 0.5:
                argv.append(rng.choice(_WORDS))
                continue
            argv.append(rng.choice(_FLAGS))
            if rng.random() < 0.7:
                argv.append(rng.choice(_VALUES))
        plain = cli._parse_plain(argv)
        if plain is not None:
            accepted += 1
            assert vars(plain) == _argparse_vars(argv), argv
    assert accepted > 2000
    calls = _load("perfbench", "workloads.py").CALLS.values()
    for argv in [a.split() for a in GOLDEN_SHA256] + [list(a) for c in calls for _, a in c]:
        plain = cli._parse_plain(argv)
        assert plain is not None and vars(plain) == _argparse_vars(argv), argv
    for option in ("--form", "--format=json", "-h", "--help", "--", "--k -1"):
        assert cli._parse_plain(["embed", "B2", *option.split()]) is None, option
    capsys.readouterr()


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


def test_reference_errors_name_the_first_bad_label(capsys, tmp_path):
    """A table with two unknown labels names the first in C order; a list or
    an int where a label belongs is named as JSON decoded it."""
    b2 = structure_to_dict(fixtures.bundled_structure("B2"))
    t2 = module_to_dict(fixtures.bundled_module("B2-T2"))
    check, module = ["check"], ["modules", "B2", "--module"]
    cases = [
        (check, b2, {("tri", 1, 0, 0, 0, 0): "q", ("tri", 0, 0, 1, 0, 1): "p"},
         "label 'p' in tri is not declared"),
        (check, b2, {("tri", 0, 0, 1, 0, 1): ["1"]}, "label ['1'] in tri is not declared"),
        (check, b2, {("tri", 1, 0, 1, 0, 1): "q", ("tri", 0, 0, 1, 0, 1): 7},
         "label 7 in tri is not declared"),
        (check, b2, {("zero",): 0}, "label 0 in zero is not declared"),
        (module, t2, {("act", 1, 0, 3, 0, 0): "q", ("act", 0, 0, 2, 0, 1): "p"},
         "label 'p' in act is not in the carrier"),
        (module, t2, {("act", 1, 0, 3, 0, 0): [["x"]]},
         "label [['x']] in act is not in the carrier"),
        (module, t2, {("madd", 1, 2): 3}, "label 3 in madd is not in the carrier"),
    ]
    for k, (argv, data, edits, message) in enumerate(cases):
        data = json.loads(json.dumps(data))
        for (*path, last), label in edits.items():
            node = data
            for key in path:
                node = node[key]
            node[last] = label
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([*argv, str(path)]) == 2, message
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: reference error: {message}\n")


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


def test_ext_without_a_zero_hom_exits_cleanly(tmp_path):
    """B2-T2 with act(1, g0, (0,0), g0, 0) = (1,1) fails act-zero-module.  Taken
    leniently, the zero map P1 -> N of its resolution is no hom, so Ext¹ has no
    cycle monoid: exit 2 with one error line naming the zero map."""
    data = module_to_dict(fixtures.bundled_module("B2-T2"))
    data["act"][1][0][0][0][0] = "(1,1)"
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ext", "B2", "--module", str(path), "--module", str(path), "--lenient"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == ("error: ext1: the zero map P1 -> N is not a "
                              "homomorphism\n")


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
    capsys.readouterr()
    for raw in ("notanint", "-3"):
        monkeypatch.setenv("TGW_BUDGET", raw)
        assert main(["ideals", "B2"]) == 2
        assert main(["check", "B2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: TGW_BUDGET must be a non-negative integer, got {raw!r}\n" * 2


def test_tor_on_c10_runs_at_default_limits(capsys, tmp_path, monkeypatch):
    """The check Tor0 = M (x) N on C10 runs at default limits: its isomorphism
    search is charged per search node, not for each of the 9! zero-fixing
    bijections of 10 classes."""
    monkeypatch.delenv("TGW_BUDGET", raising=False)
    path = tmp_path / "C10.json"
    path.write_text(serialize_structure(chain(10)), encoding="utf-8")
    assert main(["tor", str(path)]) == 0
    assert capsys.readouterr().err == ""


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


def test_every_package_definition_is_reached_outside_the_tests():
    """Each top-level function and class of `src/tgw` is named somewhere in
    the package, its scripts or perfbench (a name, an attribute or an
    import, so the exports of `tgw/__init__.py` count): code that only the
    tests reach belongs in `tests/conftest.py`."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "tgw").glob("*.py"))
    referenced = set()
    for path in [*package, *(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update({node.name, node.asname} - {None})
    unreached = [f"{path.stem}.{node.name}" for path in package
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in referenced]
    assert unreached == []


def test_run_battery_script(capsys, tmp_path):
    """scripts/run_battery.py returns the exit code of `tgw report` and
    writes every export of each bundled spectrum that has points."""
    battery = _load("scripts", "run_battery.py")
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
