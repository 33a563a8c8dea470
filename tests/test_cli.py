import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothldc
from child import package_env, run_capped
from oracles import (
    coordinate_symmetric_edits,
    decoding_set_edits,
    generator_bit_flips,
    permuted_symbols,
    subgroup_codes,
    symmetric_edits,
    translated_set_codes,
)
from smoothldc import cli, entropy, pir, verify
from smoothldc.capacity import CodeParams
from smoothldc.codespec import (
    CodeSpecError,
    DecodingSuperset,
    LinearCodeSpec,
    content_hash,
    dump_document,
    load_document,
    to_document,
)
from smoothldc.construct import build_sldc, load_fixture, random_message
from smoothldc.gf2 import BitVector
from test_construct import JSON_VALUES, json_paths


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # a usage error argparse itself reports
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacityCommand:
    def test_output(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--n", "2", "--k", "3")
        assert code == 0
        assert "C*        = 8/7" in out
        assert "M*        = 8" in out
        assert "upload    = 2 bits/db" in out
        assert "PIR rate  = 4/7" in out

    def test_single_database(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--n", "1", "--k", "4")
        assert code == 2  # upload cost undefined for one database

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("capacity", "--n", "2", "--k", "63"), "N^K = 2^63 exceeds the supported range of 2^62 symbols"),
            (("capacity", "--n", "10", "--k", "5000"), "N^K = 10^5000 exceeds the supported range of 2^62 symbols"),
            (("build", "--n", "10", "--k", "5000", "--out", "unused.json"),
             "N^K = 10^5000 exceeds the size budget of 4096 symbols"),
        ],
        ids=["capacity-63", "capacity-5000", "build-5000"],
    )
    def test_n_to_the_k_out_of_range_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n, k, bits", [(2, 11, 94443143168), (2, 12, 824432394240), (3, 6, 4642668576)])
    def test_build_refuses_generators_past_the_bit_budget(self, tmp_path, n, k, bits):
        """Within the symbol budget, but the rows would take gigabytes: a
        child capped at 1 GiB is refused before any row is made."""
        out = tmp_path / "unused.json"
        result = run_capped("build", "--n", str(n), "--k", str(k), "--out", str(out), cap=1 << 30, timeout=20)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            f"error: N^K = {n}^{k} needs {bits} generator bits, more than the budget of 536870912\n"
        )
        assert not out.exists()


class TestBuildVerify:
    def test_build_then_verify_passes(self, capsys, tmp_path):
        out_file = tmp_path / "c33.json"
        code, out, _ = run_cli(capsys, "build", "--n", "3", "--k", "3", "--out", str(out_file))
        assert code == 0
        assert "M=27" in out
        code, out, _ = run_cli(capsys, "verify", str(out_file))
        assert code == 0
        assert out.count("PASS") == 10
        assert "FAIL" not in out

    def test_nonsmooth_fixture_fails_smoothness(self, capsys, tmp_path):
        out_file = tmp_path / "intro.json"
        assert run_cli(capsys, "fixture", "--name", "intro_nonsmooth", "--out", str(out_file))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(out_file))
        assert code == 1
        assert "smoothness: FAIL" in out

    def test_a_lost_source_fails_min_distance_at_distance_zero(self, capsys, tmp_path):
        """K = 1, two symbols each holding one all-zero row: even with every
        symbol present W_1 is lost, so min-distance fails at distance 0."""
        spec = LinearCodeSpec(CodeParams(N=2, K=1, M=2, Lw=1, Lx=0), [[0], [0]],
                              [DecodingSuperset(1, ((0, 1),))], groups=[0, 1])
        doc = tmp_path / "lx0.json"
        doc.write_bytes(dump_document(to_document(spec)))
        code, out, _ = run_cli(capsys, "verify", str(doc), "--checks", "correctness,min-distance")
        assert code == 1
        assert out.splitlines() == [
            'correctness: FAIL  witness: {"k": 1, "residual_bits": 1, "set": ["X1", "X2"], "set_index": 0}',
            'min-distance: FAIL  witness: {"bound": "M/N = 2/2", "distance": 0}',
        ]

    def test_check_subset_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(out_file))
        code, out, _ = run_cli(
            capsys, "verify", str(out_file), "--checks", "correctness,min-distance,corruption",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == ["correctness", "min-distance", "corruption"]

    def test_unknown_check_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(out_file))
        code, _, err = run_cli(capsys, "verify", str(out_file), "--checks", "bogus")
        assert code == 2
        assert "bogus" in err

    def test_empty_check_list_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(out_file))
        assert run_cli(capsys, "verify", str(out_file), "--checks", ",")[0] == 2

    def test_unknown_format_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(out_file))
        code, out, err = run_cli(capsys, "verify", str(out_file), "--format", "xml")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith("argument --format: invalid choice: 'xml' (choose from 'text', 'json')")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--format", "yaml"), "argument --format: invalid choice: 'yaml'"),
            (("verify", "--checks", "properties,tree,converse,bogus"), "unknown check 'bogus'"),
            (("pir-audit", "--format", "yaml"), "argument --format: invalid choice: 'yaml'"),
            (("verify", "--samples", "5"), "unrecognized arguments: --samples 5"),
            (("verify", "--tree-budget", "-1"), "tree budget must be at least 0, got -1"),
            (("verify", "--delta", "3/2"), "delta must lie in [0, 1], got 3/2"),
            (("verify", "--delta=-1/3"), "delta must lie in [0, 1], got -1/3"),
            (("verify", "--delta", "1e-4300"), "argument --delta: numerator or denominator of more than"),
            (("verify", "--delta", "1e-1000000"), "argument --delta: numerator or denominator of more than"),
        ],
    )
    def test_usage_errors_come_before_any_work(self, capsys, tmp_path, monkeypatch, argv, message):
        out_file = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(out_file))
        ran = []
        for owner, name in ((cli, "_run_checks"), (cli, "_load_code"), (pir, "privacy_audit")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: ran.append(name))
        code, out, err = run_cli(capsys, argv[0], str(out_file), *argv[1:])
        assert (code, out, ran) == (2, "", [])
        # "error: ..." from main, "smoothldc verify: error: ..." from argparse
        assert err.splitlines()[-1].partition("error: ")[2].startswith(message)

    @pytest.mark.parametrize("delta, shown", [("1e-4200", "1/1" + "0" * 4200), ("0e-1000000", "0"), ("25e-2", "1/4")])
    def test_every_printable_delta_is_read_exactly(self, capsys, tmp_path, delta, shown):
        out_file = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(out_file))
        code, out, _ = run_cli(
            capsys, "verify", str(out_file), "--checks", "corruption", "--delta", delta, "--format", "json"
        )
        assert code == 0 and json.loads(out)["checks"][0]["details"]["delta"] == shown

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        assert run_cli(capsys, "verify", str(tmp_path / "absent.json"))[0] == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["capacity", "--n", "2", "--k", "3", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_defaults_are_the_default_battery(self, capsys, tmp_path, fmt):
        out_file = tmp_path / "c23.json"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(out_file))
        implicit = run_cli(capsys, "verify", str(out_file), "--format", fmt)
        explicit = run_cli(
            capsys, "verify", str(out_file), "--format", fmt,
            "--checks", ",".join(verify.DEFAULT_CHECKS), "--tree-budget", str(verify.DEFAULT_TREE_BUDGET),
        )
        assert implicit == explicit and implicit[0] == 0

    @pytest.mark.parametrize("command", ["verify", "serve"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: smoothldc {command}")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(f1))
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()
        _, out1, _ = run_cli(capsys, "verify", str(f1))
        _, out2, _ = run_cli(capsys, "verify", str(f2))
        assert out1 == out2

    # a passing code needs no tree: the walk decides the leaves and sigma
    # the converse; a non-universal code is refused from its decoding sets
    @pytest.mark.parametrize(
        "source, exit_code, status, enumerations",
        [
            (("fixture", "eq28"), 0, "PASS", 0),
            (("fixture", "fig1"), 1, "FAIL", 1),
            (("fixture", "fig1", "non-universal"), 1, "FAIL", 0),
        ],
        ids=["eq28", "fig1", "fig1-non-universal"],
    )
    def test_tree_and_converse_share_one_tree_enumeration(
        self, capsys, tmp_path, monkeypatch, source, exit_code, status, enumerations
    ):
        calls = []
        enumerate_once = verify.enumerate_trees

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_once(*args, **kwargs)

        monkeypatch.setattr(verify, "enumerate_trees", counting)
        out_file = write_code(capsys, tmp_path, source)
        code, out, _ = run_cli(capsys, "verify", str(out_file))
        assert code == exit_code
        assert f"tree-leaf-distinctness: {status}" in out and f"converse-tightness: {status}" in out
        assert len(calls) == enumerations


ALL_CHECKS = ",".join(verify.ALL_CHECKS)
# SHA-256 of the stdout of `verify DOC --checks ... --format json`, recorded
# before the rank oracle gained its raw-key cache. (3,3) leaves corruption
# out, as it did when an over-budget corruption check printed no report;
# that check now fails with an error witness (see
# test_corruption_over_budget_keeps_the_report). The (3,3) digest was
# re-recorded when its min-distance error stopped advising a sampled
# corruption mode that no longer exists; no other line of it changed.
REPORT_DIGESTS = {
    ("build", "2", "3"): (ALL_CHECKS, 0, "a4b627a4d2895ed3cc7f53eba0bc9210db98cbf6183efafda611744330f1f11d"),
    ("build", "3", "3"): (
        ALL_CHECKS.replace(",corruption", ""), 1,
        "469340a1ab580eaf6a3d46ad36c15766dbe42d8dd927d8a89ef384ad2fe067d2",
    ),
    ("fixture", "fig1"): (ALL_CHECKS, 1, "907d1e7eed4876fec76743924a94f543bd00085f41665db9ffe4a2c1e5e7c42e"),
    ("fixture", "fig2"): (ALL_CHECKS, 1, "5569314f4a017ff2f5632c168edc25bda8d5cf9cd410337c2146a3a2c0af74a3"),
    ("fixture", "intro_nonsmooth"): (
        ALL_CHECKS, 1, "ce5e21349ba22b829dcfef174ca6b1414e106fadeb5dc57496dfcf0cbc249d04",
    ),
    ("fixture", "eq28"): (ALL_CHECKS, 0, "1f079a51eeb9128301703275dade3aed8a06c8cb09187a7051ac8549013c1114"),
    ("fixture", "fig4"): (ALL_CHECKS, 0, "88cd210f4705032864d52c43e87d6316d97993834aa2e3bbd6e11348065b3e5d"),
}


def write_code(capsys, tmp_path, source) -> Path:
    """("build", n, k) or ("fixture", name), optionally with "non-universal"
    appended: the code with X2 taken out of every decoding set of W_2."""
    out_file = tmp_path / "code.json"
    if source[0] == "build":
        argv = ["build", "--n", source[1], "--k", source[2], "--out", str(out_file)]
    else:
        argv = ["fixture", "--name", source[1], "--out", str(out_file)]
    assert run_cli(capsys, *argv)[0] == 0
    if source[-1] == "non-universal":
        body = json.loads(out_file.read_text())
        for symbol in body["symbols"]:
            symbol["group"] = None
        body["supersets"][1] = [[0, 3], [0, 4], [3, 4]]  # X2 is in no set of W_2
        del body["content_hash"]
        out_file.write_text(json.dumps(body))
    return out_file


class TestVerifyReports:
    @pytest.mark.parametrize("source", list(REPORT_DIGESTS), ids="-".join)
    def test_json_report_pinned(self, capsys, tmp_path, source):
        checks, exit_code, digest = REPORT_DIGESTS[source]
        doc = write_code(capsys, tmp_path, source)
        code, out, _ = run_cli(capsys, "verify", str(doc), "--checks", checks, "--format", "json")
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def battery_calls(capsys, tmp_path, monkeypatch, n, k) -> dict:
        """Calls a default verify of the built (n,k) code makes."""
        counts = {"entropy": 0, "rank_words": 0, "trees_for_audit": 0, "tree_audit": 0}

        def counting(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        doc = write_code(capsys, tmp_path, ("build", n, k))
        counting(entropy.RankOracle, "entropy", "entropy")
        counting(entropy, "rank_words", "rank_words")
        counting(verify, "trees_for_audit", "trees_for_audit")
        counting(verify, "_tree_audit", "tree_audit")
        assert run_cli(capsys, "verify", str(doc))[0] == 0
        return counts

    # the traced benchmark pins the (2,3) counts in smoke mode and times
    # (3,3); tier-1 sees a drift at either size first. A battery runs one
    # tree audit, which walks the trees without making one, so
    # trees_for_audit is not called.
    def test_call_pattern_of_a_2_3_battery(self, capsys, tmp_path, monkeypatch):
        counts = self.battery_calls(capsys, tmp_path, monkeypatch, "2", "3")
        assert counts == {"entropy": 33, "rank_words": 13, "trees_for_audit": 0, "tree_audit": 1}

    # a built code's coordinate swaps are checked, so correctness, p2 and
    # sigma read W_1's line through symbol 0 alone, and p2 its pairs {0, d}
    # for d = 1..N//2 with H(X_d | W_J) read as H(X_0 | W_J)
    def test_call_pattern_of_a_3_3_battery(self, capsys, tmp_path, monkeypatch):
        counts = self.battery_calls(capsys, tmp_path, monkeypatch, "3", "3")
        assert counts == {"entropy": 41, "rank_words": 14, "trees_for_audit": 0, "tree_audit": 1}

    def test_call_pattern_of_a_4_3_battery(self, capsys, tmp_path, monkeypatch):
        counts = self.battery_calls(capsys, tmp_path, monkeypatch, "4", "3")
        assert counts == {"entropy": 61, "rank_words": 18, "trees_for_audit": 0, "tree_audit": 1}

    # past the tree budget: the converse check reads only H(X_0 | W_J)
    # for every J
    def test_call_pattern_of_a_3_4_battery(self, capsys, tmp_path, monkeypatch):
        counts = self.battery_calls(capsys, tmp_path, monkeypatch, "3", "4")
        assert counts == {"entropy": 69, "rank_words": 23, "trees_for_audit": 0, "tree_audit": 1}

    def test_file_bytes_are_freed_before_the_code_is_parsed(self, capsys, tmp_path, monkeypatch):
        doc = write_code(capsys, tmp_path, ("build", "2", "3"))
        size = doc.stat().st_size
        holders = []
        parse = cli.from_document

        def parsing(document):
            frame = sys._getframe(1)
            while frame is not None:
                names = [name for name, value in frame.f_locals.items() if type(value) is bytes and len(value) == size]
                holders.extend((frame.f_code.co_name, name) for name in names)
                frame = frame.f_back
            return parse(document)

        monkeypatch.setattr(cli, "from_document", parsing)
        assert run_cli(capsys, "verify", str(doc))[0] == 0
        assert holders == []

    def test_loading_a_file_holds_under_three_times_its_size(self, capsys, tmp_path):
        doc = write_code(capsys, tmp_path, ("build", "4", "3"))
        tracemalloc.start()
        try:
            cli._load_code(str(doc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * doc.stat().st_size

    def test_non_universal_code_reports_tree_failures(self, capsys, tmp_path):
        doc = write_code(capsys, tmp_path, ("fixture", "fig1", "non-universal"))
        code, out, err = run_cli(capsys, "verify", str(doc))
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert len(lines) == 10 and lines[2] == "universality: FAIL"
        stuck = '  witness: {"error": "no decoding set of source symbol 2 contains X2"}'
        assert lines[-2:] == ["tree-leaf-distinctness: FAIL" + stuck, "converse-tightness: FAIL" + stuck]
        code, out, _ = run_cli(capsys, "verify", str(doc), "--checks", "converse", "--format", "json")
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["passed"] is False and check["witnesses"][0]["error"].startswith("no decoding set")

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("budget", ["0", "5", "512"])
    def test_non_universal_witness_is_the_first_missing_symbol(self, capsys, tmp_path, budget, seed):
        # X2, X3 and X6 are in no set of W_2: the first of them is named,
        # whatever the budget and seed
        doc = write_code(capsys, tmp_path, ("fixture", "fig1", "non-universal"))
        code, out, _ = run_cli(capsys, "verify", str(doc), "--tree-budget", budget, "--seed", seed)
        assert code == 1
        stuck = '  witness: {"error": "no decoding set of source symbol 2 contains X2"}'
        assert out.splitlines()[-2:] == ["tree-leaf-distinctness: FAIL" + stuck, "converse-tightness: FAIL" + stuck]

    # draws of generator_bit_flips(build_sldc(5, 3), seed=7) with converse
    # slack in 10 of the 750 trees, which the 100 trees once sampled past
    # the tree budget missed at --seed 0 (1, 17, 39, 62), 1 (35, 47) or
    # 2 (1, 25, 39, 62); each is incorrect, so some sigma is below 0
    MISSED_BY_SAMPLING = (1, 17, 25, 35, 39, 47, 62)

    def test_converse_fails_past_the_budget_at_every_seed(self, capsys, tmp_path):
        mutants = list(generator_bit_flips(build_sldc(5, 3), seed=7))
        error = "a sigma below 0 (an incorrect code) leaves converse slack to all 750 trees"
        for i in self.MISSED_BY_SAMPLING:
            doc = tmp_path / f"flip-{i}.json"
            doc.write_bytes(dump_document(to_document(mutants[i])))
            outs = {run_cli(capsys, "verify", str(doc), "--checks", "converse", "--seed", seed) for seed in "012"}
            assert outs == {(1, f'converse-tightness: FAIL  witness: {{"error": "{error}"}}\n', "")}, i

    @pytest.mark.parametrize("source", [("fixture", "fig1"), ("build", "2", "3")], ids="-".join)
    def test_library_battery_is_the_cli_report(self, capsys, tmp_path, source):
        from smoothldc.codespec import from_document, load_document

        doc = write_code(capsys, tmp_path, source)
        code, out, _ = run_cli(capsys, "verify", str(doc), "--checks", ALL_CHECKS, "--format", "json")
        spec = from_document(load_document(doc.read_bytes()))
        rows = verify.run_checks(spec, verify.ALL_CHECKS)
        assert [row.as_dict() for row in rows] == json.loads(out)["checks"]
        assert code == (0 if all(row.passed for row in rows) else 1)
        # a misspelt check must not silently pass
        with pytest.raises(ValueError, match="unknown check 'tre'"):
            verify.run_checks(spec, ["correctness", "tre"])


    def test_corruption_over_budget_keeps_the_report(self, capsys, tmp_path):
        doc = write_code(capsys, tmp_path, ("build", "3", "3"))
        code, out, err = run_cli(capsys, "verify", str(doc), "--checks", ALL_CHECKS)
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert len(lines) == 12 and all(": PASS" in line for line in lines[:10])
        assert lines[10].startswith("min-distance: FAIL  witness: {\"error\": ")
        assert lines[11] == (
            'corruption: FAIL  witness: {"error": "exact corruption enumeration needs M <= 24, got 27"}'
        )


class TestMalformedDocuments:
    @staticmethod
    def mutated(capsys, tmp_path, mutate):
        doc = write_code(capsys, tmp_path, ("fixture", "fig1"))
        body = json.loads(doc.read_text())
        del body["content_hash"]
        doc.write_text(json.dumps(mutate(body)))
        return doc

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: {**d, "params": {**d["params"], "N": "2"}}, "params.N"),
            (lambda d: {**d, "supersets": [[["0", 3]]] + d["supersets"][1:]}, "superset 1"),
            (lambda d: {**d, "supersets": [[[0.0, 3]]] + d["supersets"][1:]}, "superset 1"),
            (lambda d: [d], "JSON object"),
            (lambda d: {**d, "symbols": [{**d["symbols"][0], "rows": "80"}] + d["symbols"][1:]}, "rows"),
            (lambda d: {**d, "symbols": [{**d["symbols"][0], "rows": ["zz"]}] + d["symbols"][1:]}, "row"),
            (lambda d: {**d, "symbols": [{**d["symbols"][0], "rows": [128]}] + d["symbols"][1:]}, "row"),
            (lambda d: {**d, "params": {**d["params"], "M": 1}}, "params"),
            (lambda d: {**d, "symbols": [{**s, "rows": []} for s in d["symbols"]]}, "no generator rows"),
            (lambda d: {**d, "supersets": [[[0, 6]] + d["supersets"][0][1:]] + d["supersets"][1:]},
             "decoding set (0, 6) for k=1 must be sorted and within [0, 6)"),
            (lambda d: {**d, "symbols": d["symbols"][:3] + [{**d["symbols"][3], "group": 0}] + d["symbols"][4:]},
             "decoding set (0, 3) is not a group transversal (groups [0, 0])"),
        ],
    )
    def test_exit_2_without_traceback(self, capsys, tmp_path, mutate, message):
        doc = self.mutated(capsys, tmp_path, mutate)
        code, out, err = run_cli(capsys, "verify", str(doc))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_repeated_digit_vector_exits_2(self, capsys, tmp_path):
        doc = write_code(capsys, tmp_path, ("build", "2", "2"))
        body = json.loads(doc.read_text())
        body["symbols"][1]["digits"] = body["symbols"][0]["digits"]
        del body["content_hash"]
        doc.write_text(json.dumps(body))
        code, out, err = run_cli(capsys, "verify", str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "symbol 1 digits [0, 0]: repeat those of symbol 0" in err

    @pytest.mark.parametrize(
        "head, line",
        [
            (b"\xe9", "error: 'utf-8' codec can't decode byte 0xe9 in position 0: invalid continuation byte\n"),
            (b"\xef\xbb\xbf", "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
        ],
        ids=["not-utf-8", "utf-8-bom"],
    )
    def test_undecodable_file_exits_2(self, capsys, tmp_path, head, line):
        doc = write_code(capsys, tmp_path, ("fixture", "fig1"))
        doc.write_bytes(head + doc.read_bytes())
        assert run_cli(capsys, "verify", str(doc)) == (2, "", line)

    def test_deeply_nested_json(self, capsys, tmp_path):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run_cli(capsys, "verify", str(doc))
        assert code == 2 and "nests too deeply" in err

    def test_deep_field_that_loads_exits_2(self, capsys, tmp_path):
        # an "extra" field nested just shallower than load_document refuses:
        # it parses, so the content-hash step must serialise it
        head = json.dumps(smoothldc.to_document(smoothldc.build_sldc(2, 2)))[:-1] + ', "extra": '

        def nested(depth):
            return (head + "[" * depth + "0" + "]" * depth + "}").encode()

        def loads(depth):
            try:
                load_document(nested(depth))
            except CodeSpecError:
                return False
            return True

        deepest = next(d for d in range(sys.getrecursionlimit(), 0, -1) if loads(d))
        doc = tmp_path / "deep.json"
        for depth in range(deepest - 40, deepest + 1):
            doc.write_bytes(nested(depth))
            code, out, err = run_cli(capsys, "verify", str(doc))
            assert (code, out) == (2, ""), depth
            assert err.startswith("error: ") and "Traceback" not in err


class TestHostileDocuments:
    """verify with every check, and pir-audit, on any mutation of a valid
    document whose content hash is stamped again: exit 0, 1 or 2, never a
    traceback."""

    BASE = [to_document(load_fixture("fig1")), to_document(load_fixture("eq28")), to_document(build_sldc(2, 3))]
    # small ints keep many mutants loadable, so the checks past the loader run
    VALUES = JSON_VALUES | st.integers(-1, 9)

    @settings(max_examples=150)
    @given(st.data())
    def test_commands_exit_0_1_or_2(self, tmp_path_factory, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(self.BASE)))
        paths = [path for path in json_paths(doc) if path and path[0] != "content_hash"]
        for _ in range(data.draw(st.integers(1, 3))):
            *steps, last = data.draw(st.sampled_from(paths))
            action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
            try:
                parent = doc
                for step in steps:
                    parent = parent[step]
                if action == "replace":
                    parent[last] = data.draw(self.VALUES)
                elif action == "delete":
                    del parent[last]
                elif isinstance(parent, list):
                    parent.insert(last, copy.deepcopy(parent[last]))
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation removed or replaced this path
        # a replaced dict may have taken an int key; stamp the document as the file holds it
        doc = json.loads(json.dumps(doc))
        doc["content_hash"] = content_hash(doc)
        path = tmp_path_factory.getbasetemp() / "hostile.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path), "--checks", ALL_CHECKS], ["pir-audit", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, doc)


@st.composite
def wide_codes(draw):
    """Small but wide codes: N in 1..3, K up to 64, M up to 8, Lw and Lx up
    to 4, then up to two set edits.

    Half are correct and universal: blocks of N symbols, one symbol of each
    group, each block storing every message bit and being a decoding set of
    every source. That needs K*Lw <= N*Lx, so the wider half has random rows
    and one symbol of each group per set, and is rarely correct. Some drop
    their groups, and then no scheme is lifted from them."""
    n, lx = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        lw = draw(st.integers(1, min(4, n * lx)))
        k = draw(st.integers(1, n * lx // lw))
        m, width = n * draw(st.integers(1, 8 // n)), k * lw
        # symbol j of each block stores columns j*Lx.. of the message
        # (column c is bit width-1-c), topped up with column 0
        units = [1 << width - 1 - c for c in range(width)]
        stored = [units[j * lx:(j + 1) * lx] for j in range(n)]
        gens = [stored[s % n] + units[:1] * (lx - len(stored[s % n])) for s in range(m)]
        sets = [tuple(range(b, b + n)) for b in range(0, m, n)]
        supersets = [list(sets) for _ in range(k)]
    else:
        lw, k, m = draw(st.integers(1, 4)), draw(st.integers(1, 64)), draw(st.integers(n, 8))
        width = k * lw
        gens = [draw(st.lists(st.integers(1, (1 << width) - 1), min_size=lx, max_size=lx)) for _ in range(m)]
        supersets = [
            sorted({tuple(sorted(draw(st.sampled_from(range(g, m, n))) for g in range(n)))
                    for _ in range(draw(st.integers(1, 3)))})
            for _ in range(k)
        ]
    for _ in range(draw(st.integers(0, 2))):  # drop a set, or add one of any N symbols
        sets = supersets[draw(st.integers(0, k - 1))]
        if len(sets) > 1 and draw(st.booleans()):
            sets.remove(draw(st.sampled_from(sets)))
        else:
            sets.append(tuple(sorted(draw(st.permutations(range(m)))[:n])))
    transversal = all(len({s % n for s in members}) == n for sets in supersets for members in sets)
    gens = [gen + [0] if draw(st.booleans()) else gen for gen in gens]  # a zero row, as built codes have
    return LinearCodeSpec(
        CodeParams(N=n, K=k, M=m, Lw=lw, Lx=lx),
        gens,
        [DecodingSuperset(j + 1, tuple(sorted(set(sets)))) for j, sets in enumerate(supersets)],
        groups=[s % n for s in range(m)] if transversal and draw(st.booleans()) else None,
    )


class TestWideDocuments:
    """Documents with many sources and few symbols: small files whose tree
    walk would take K! permutations, each refused before any is listed."""

    @settings(max_examples=20)
    @given(code=wide_codes())
    def test_every_check_ends_in_a_verdict(self, tmp_path_factory, code):
        """verify with all eight checks, and pir-audit, each in a child
        capped at 512 MiB: exit 0 or 1 with no traceback, and pir-audit exit
        2 exactly when no scheme is lifted from the code."""
        doc = tmp_path_factory.mktemp("wide") / "code.json"
        doc.write_bytes(dump_document(to_document(code)))
        result = run_capped("verify", str(doc), "--checks", ALL_CHECKS, timeout=30)
        assert result.returncode in (0, 1) and "Traceback" not in result.stderr, result.stderr
        try:
            pir.scheme_from_sldc(code)
            lifted = True
        except pir.SchemeError:
            lifted = False
        result = run_capped("pir-audit", str(doc), timeout=30)
        assert result.returncode in ((0, 1) if lifted else (2,)), result.stderr
        assert "Traceback" not in result.stderr, result.stderr

    @staticmethod
    def every_bit_twice(k):
        """N = 2, M = 2, Lw = 1: both symbols store every source bit, and
        {0, 1} is the one decoding set of each source."""
        rows = [1 << (k - 1 - r) for r in range(k)]
        supersets = [DecodingSuperset(j, ((0, 1),)) for j in range(1, k + 1)]
        return LinearCodeSpec(CodeParams(N=2, K=k, M=2, Lw=1, Lx=k), [rows, rows], supersets, groups=[0, 1])

    def test_tree_walk_refused_under_a_memory_cap(self, tmp_path):
        doc = tmp_path / "k12.json"
        doc.write_bytes(dump_document(to_document(self.every_bit_twice(12))))
        assert doc.stat().st_size < 2048
        result = run_capped("verify", str(doc))
        refusal = '{"error": "walking the trees takes 2604122690 states, more than 262144"}'
        rows = [line for line in result.stdout.splitlines() if line.startswith(("tree-", "converse-"))]
        assert rows == [f"tree-leaf-distinctness: FAIL  witness: {refusal}",
                        f"converse-tightness: FAIL  witness: {refusal}"]
        assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr

    @staticmethod
    def all_ones(k, lw=1):
        """N = 2, M = 2, Lx = 1: both symbols hold the all-ones row, and
        {0, 1} is the one decoding set of each source."""
        row = (1 << k * lw) - 1
        supersets = [DecodingSuperset(j, ((0, 1),)) for j in range(1, k + 1)]
        return LinearCodeSpec(CodeParams(N=2, K=k, M=2, Lw=lw, Lx=1), [[row], [row]], supersets, groups=[0, 1])

    @pytest.mark.parametrize("k", [1600, 6000])
    def test_tree_walk_refusal_prints_at_any_k(self, tmp_path, k):
        """The walk's states are counted only up to a ceiling: past about
        K = 1558 the full count has more digits than an int may print."""
        doc = tmp_path / f"k{k}.json"
        doc.write_bytes(dump_document(to_document(self.all_ones(k))))
        result = run_capped("verify", str(doc), "--checks", "tree,converse", timeout=20)
        refusal = '{"error": "walking the trees takes over 1000000000000000000 states, more than 262144"}'
        assert result.stdout.splitlines() == [f"tree-leaf-distinctness: FAIL  witness: {refusal}",
                                              f"converse-tightness: FAIL  witness: {refusal}"]
        assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr

    def test_properties_refused_on_a_wide_document(self, tmp_path):
        """The default battery on K = 1600: p2 would read its one pair
        given each of 1601 conditions, so the properties row is refused
        before any entropy is read (the full read took 6.6 s)."""
        doc = tmp_path / "k1600.json"
        doc.write_bytes(dump_document(to_document(self.all_ones(1600))))
        result = run_capped("verify", str(doc), timeout=20)
        refusal = '{"error": "checking the properties takes 2564800 entropy reads, more than 262144"}'
        assert f"properties: FAIL  witness: {refusal}" in result.stdout.splitlines()
        assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr

    def test_correctness_row_is_linear_in_k(self, tmp_path):
        """Each entropy query masks out only its conditioned sources, so the
        correctness row of K = 6000 (12000 queries) ends within 5 s; walking
        all K sources per query took about 9 s."""
        doc = tmp_path / "k6000.json"
        doc.write_bytes(dump_document(to_document(self.all_ones(6000))))
        result = run_capped("verify", str(doc), "--checks", "correctness", timeout=5)
        assert result.stdout.splitlines() == [
            'correctness: FAIL  witness: {"k": 1, "residual_bits": 1, "set": ["X1", "X2"], "set_index": 0}'
        ]
        assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr

    @staticmethod
    def one_wide_set(n):
        """N = M = n, K = 1, Lw = Lx = 1: every symbol stores the source bit,
        and one decoding set holds all n symbols."""
        supersets = [DecodingSuperset(1, (tuple(range(n)),))]
        return LinearCodeSpec(CodeParams(N=n, K=1, M=n, Lw=1, Lx=1), [[1]] * n, supersets)

    def test_one_wide_set_ends_in_a_verdict(self, tmp_path):
        """The default battery on one set of 8000 symbols: the tree walk
        reads the set once, not once per member, and no set is copied per
        member (that ended in MemoryError)."""
        doc = tmp_path / "n8000.json"
        doc.write_bytes(dump_document(to_document(self.one_wide_set(8000))))
        result = run_capped("verify", str(doc), timeout=10)
        assert 'tree-leaf-distinctness: PASS  {"exhaustive": true, "trees": 8000}' in result.stdout.splitlines()
        assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr

    def test_capacity_witness_prints_at_any_k(self, tmp_path):
        """Rate 1 is above the capacity 2^14999/(2^15000-1), whose
        denominator has more digits than an int may print."""
        doc = tmp_path / "k15000.json"
        doc.write_bytes(dump_document(to_document(self.all_ones(15000, lw=2))))
        result = run_capped("pir-audit", str(doc), timeout=20)
        assert result.stdout.splitlines()[-1] == (
            'costs: FAIL  witness: {"capacity": "2^14999/(2^15000-1)", "rate": "1"}'
        )
        assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr


def _first_eight(corpus):
    """A corpus of tests/oracles.py as (code, seed) -> its first 8 codes."""
    return lambda code, seed: list(itertools.islice(corpus(code, seed), 8))


class TestCodesWithDigits:
    """Built codes with N^K <= 27 and their seeded edits, which keep digits
    (and often the translations), so verify reads them through the orbit
    view and the one-permutation walk: verify and pir-audit in a capped
    child end in a verdict, and pir-audit exits 2 exactly when no scheme
    is lifted."""

    SIZES = [(n, k) for n in range(2, 28) for k in range(1, 4) if n**k <= 27]
    # name -> (smallest N, smallest K, (code, seed) -> codes)
    CORPORA = {
        "permuted_symbols": (2, 1, lambda code, seed: [permuted_symbols(code, seed)]),
        "symmetric_edits": (2, 1, _first_eight(symmetric_edits)),
        "coordinate_symmetric_edits": (2, 1, _first_eight(coordinate_symmetric_edits)),
        "subgroup_codes": (2, 1, _first_eight(subgroup_codes)),
        # K >= 2: at K = 1 a superset's one set is all of Z_N, a subgroup,
        # and there is no second set to edit
        "translated_set_codes": (3, 2, _first_eight(translated_set_codes)),
        "generator_bit_flips": (2, 1, _first_eight(generator_bit_flips)),
        "decoding_set_edits": (2, 2, _first_eight(decoding_set_edits)),
    }

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_check_ends_in_a_verdict(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(self.CORPORA)))
        least_n, least_k, corpus = self.CORPORA[name]
        n, k = data.draw(st.sampled_from([(n, k) for n, k in self.SIZES if n >= least_n and k >= least_k]))
        built = build_sldc(n, k)
        code = data.draw(st.sampled_from(corpus(built, data.draw(st.integers(0, 2**16))) or [built]))
        doc = tmp_path_factory.mktemp("digits") / "code.json"
        doc.write_bytes(dump_document(to_document(code)))
        checks = ["--checks", ALL_CHECKS] if code.params.M <= 9 else []
        result = run_capped("verify", str(doc), *checks, timeout=30)
        assert result.returncode in (0, 1) and "Traceback" not in result.stderr, result.stderr
        try:
            pir.scheme_from_sldc(code)
            lifted = True
        except pir.SchemeError:
            lifted = False
        result = run_capped("pir-audit", str(doc), timeout=30)
        assert result.returncode in ((0, 1) if lifted else (2,)), result.stderr
        assert "Traceback" not in result.stderr, result.stderr


class TestPirAudit:
    def test_built_scheme_passes(self, capsys, tmp_path):
        out_file = tmp_path / "c23.json"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(out_file))
        code, out, _ = run_cli(capsys, "pir-audit", str(out_file))
        assert code == 0
        assert "privacy: PASS" in out
        assert "deniability: PASS" in out
        assert '"rate": "4/7"' in out

    def test_rate_above_capacity_fails_costs(self, capsys, tmp_path):
        # fig4 with one row dropped from every symbol claims rate 8/(2*6)
        doc = write_code(capsys, tmp_path, ("fixture", "fig4"))
        body = json.loads(doc.read_text())
        body["params"]["Lx"] = 6
        for symbol in body["symbols"]:
            symbol["rows"].pop()
        del body["content_hash"]
        doc.write_text(json.dumps(body))
        code, out, _ = run_cli(capsys, "pir-audit", str(doc))
        assert code == 1
        assert out.splitlines() == [
            "privacy: PASS  {\"uniform\": true}",
            "deniability: PASS",
            "costs: FAIL  witness: {\"capacity\": \"4/7\", \"rate\": \"2/3\"}",
        ]

    @pytest.mark.parametrize(
        "source",
        [("fixture", name) for name in ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4")]
        + [("build", *nk) for nk in ("21", "22", "23", "32", "33", "42", "24", "53", "34")],
        ids="-".join,
    )
    def test_every_accepted_code_meets_the_capacity_claims(self, capsys, tmp_path, source):
        code, out, err = run_cli(capsys, "pir-audit", str(write_code(capsys, tmp_path, source)))
        if "no group metadata" in err:  # fig2 and intro_nonsmooth
            assert code == 2
        else:
            assert code == 0 and "costs: PASS" in out

    def test_zero_bit_answers_are_refused(self, tmp_path):
        """K = 1, two symbols each holding one all-zero row: Lx = 0, so no
        scheme is lifted. pir-audit, serve and retrieve exit 2 with one
        error line; verify fails the code's correctness."""
        code = LinearCodeSpec(CodeParams(N=2, K=1, M=2, Lw=1, Lx=0), [[0], [0]],
                              [DecodingSuperset(1, ((0, 1),))], groups=[0, 1])
        doc, messages = tmp_path / "lx0.json", tmp_path / "w.bin"
        doc.write_bytes(dump_document(to_document(code)))
        messages.write_bytes(b"\x80")
        for argv in (["pir-audit", str(doc)],
                     ["serve", str(doc), "--db", "1", "--messages", str(messages)],
                     ["retrieve", str(doc), "--theta", "1", "--endpoints", "127.0.0.1:1,127.0.0.1:2"]):
            result = run_capped(*argv, timeout=30)
            assert (result.returncode, result.stdout) == (2, ""), (argv, result.stderr)
            assert result.stderr == "error: Lx = 0: every answer would be 0 bits long\n", argv
        result = run_capped("verify", str(doc), timeout=30)
        assert result.returncode == 1 and "correctness: FAIL" in result.stdout, result.stderr

    def test_ungroupable_code_is_error(self, capsys, tmp_path):
        out_file = tmp_path / "fig2.json"
        run_cli(capsys, "fixture", "--name", "fig2", "--out", str(out_file))
        code, _, err = run_cli(capsys, "pir-audit", str(out_file))
        assert code == 2
        assert "group" in err


class TestServeRetrieve:
    @pytest.mark.parametrize("size", [20, 22, 25])
    def test_messages_file_of_wrong_size_is_usage_error(self, capsys, tmp_path, size):
        spec = tmp_path / "c33.json"
        messages = tmp_path / "messages.bin"
        run_cli(capsys, "build", "--n", "3", "--k", "3", "--out", str(spec))
        messages.write_bytes(b"\x5a" * size)  # K*Lw = 162 bits need 21 bytes
        # a subprocess, so a server that wrongly starts fails by timeout
        result = subprocess.run(
            [sys.executable, "-m", "smoothldc", "serve", str(spec), "--db", "1",
             "--messages", str(messages)],
            capture_output=True, text=True, timeout=60, env=package_env(),
        )
        assert result.returncode == 2
        assert "21 bytes" in result.stderr and f"got {size}" in result.stderr

    @pytest.mark.parametrize("db", ["0", "3"])
    def test_database_index_out_of_range_is_usage_error(self, capsys, tmp_path, db):
        spec = tmp_path / "c23.json"
        messages = tmp_path / "messages.bin"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(spec))
        messages.write_bytes(b"\x5a" * 3)  # K*Lw = 24 bits
        # a subprocess, so a server that wrongly starts fails by timeout
        result = subprocess.run(
            [sys.executable, "-m", "smoothldc", "serve", str(spec), "--db", db,
             "--messages", str(messages)],
            capture_output=True, text=True, timeout=60, env=package_env(),
        )
        assert result.returncode == 2
        assert "database index must be in [1, 2]" in result.stderr
        assert "listening on" not in result.stdout + result.stderr

    def test_end_to_end_subprocesses(self, tmp_path):
        spec = tmp_path / "c22.json"
        messages = tmp_path / "messages.bin"
        assert cli.main(["build", "--n", "2", "--k", "2", "--out", str(spec)]) == 0

        from smoothldc.codespec import from_document, load_document

        code = from_document(load_document(spec.read_bytes()))
        msg = random_message(code, random.Random(99))
        messages.write_bytes(msg.to_bytes())

        servers = []
        try:
            endpoints = []
            for db in ("1", "2"):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "smoothldc", "serve", str(spec),
                     "--db", db, "--messages", str(messages)],
                    stdout=subprocess.PIPE,
                    text=True,
                    env=package_env(),
                )
                servers.append(proc)
                line = proc.stdout.readline()
                assert "listening on" in line
                endpoints.append(line.strip().rsplit(" ", 1)[-1])

            result = subprocess.run(
                [sys.executable, "-m", "smoothldc", "retrieve", str(spec),
                 "--theta", "2", "--endpoints", ",".join(endpoints), "--seed", "5"],
                capture_output=True,
                text=True,
                timeout=60,
                env=package_env(),
            )
            assert result.returncode == 0, result.stderr
            expected = BitVector.from_bits(msg.to_bits()[4:8])
            assert f"W_2 = {expected.to_hex()}" in result.stdout
        finally:
            for proc in servers:
                proc.terminate()
                proc.wait(timeout=10)
                proc.stdout.close()

    def test_retrieve_unreachable_database(self, capsys, tmp_path):
        spec = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(spec))
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, _, err = run_cli(
            capsys, "retrieve", str(spec), "--theta", "1",
            "--endpoints", f"127.0.0.1:{port},127.0.0.1:{port}",
        )
        assert code == 1
        assert "retrieval failed" in err

    def test_port_out_of_range_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "c22.json"
        messages = tmp_path / "messages.bin"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(spec))
        messages.write_bytes(b"\0")  # K*Lw = 4 bits
        code, _, err = run_cli(
            capsys, "serve", str(spec), "--db", "1", "--messages", str(messages),
            "--listen", "127.0.0.1:99999",
        )
        assert code == 2
        assert "99999" in err

    def test_malformed_endpoint_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "c22.json"
        run_cli(capsys, "build", "--n", "2", "--k", "2", "--out", str(spec))
        code, _, err = run_cli(
            capsys, "retrieve", str(spec), "--theta", "1", "--endpoints", "nope,127.0.0.1:1",
        )
        assert code == 2
        assert "nope" in err and "retrieval failed" not in err


# Every case parses alike with one command's parser and with all of them:
# help, no command, an unknown one, and missing, extra and bad-typed
# arguments, each with the usage line and error argparse prints for it.
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "verify"],
    *([name, "-h"] for name in ("capacity", "build", "fixture", "verify", "pir-audit", "serve", "retrieve")),
    ["capacity", "--n", "2"],
    ["capacity", "--n", "2", "--k", "3", "extra"],
    ["capacity", "--n", "x", "--k", "3"],
    ["capacity", "--n", "2", "--k", "3"],
    ["build", "--n", "2", "--k", "3"],
    ["fixture", "--name", "nope", "--out", "{out}"],
    ["verify"],
    ["verify", "{doc}", "--samples", "5"],
    ["verify", "{doc}", "--tree-budget", "x"],
    ["verify", "{doc}"],
    ["verify", "{doc}", "--format", "json"],
    ["pir-audit", "{doc}", "--format", "yaml"],
    ["serve", "{doc}", "--db", "1"],
    ["retrieve", "{doc}", "--theta", "1"],
]


def parse_with_every_command(monkeypatch):
    """Make cli.main parse with the full parser whatever the command."""
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())


class TestOneCommandParser:
    @pytest.fixture
    def doc(self, capsys, tmp_path):
        doc = tmp_path / "c23.json"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(doc))
        return doc

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, tmp_path, doc, argv):
        argv = [a.format(doc=doc, out=tmp_path / "out.json") for a in argv]
        monkeypatch.setenv("COLUMNS", "80")
        one = run_cli(capsys, *argv)
        parse_with_every_command(monkeypatch)
        assert one == run_cli(capsys, *argv)

    def test_verify_builds_one_subparser(self, monkeypatch, doc):
        made = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            made.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        assert cli.main(["verify", str(doc)]) == 0
        assert made == ["verify"]

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=" ".join)
    def test_module_reads_its_own_arguments(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        parse_with_every_command(monkeypatch)
        expected = run_cli(capsys, *argv)
        result = subprocess.run(
            [sys.executable, "-m", "smoothldc", *argv], capture_output=True, text=True, timeout=120,
            env=dict(package_env(), COLUMNS="80"),
        )
        assert (result.returncode, result.stdout, result.stderr) == expected


class TestImportBoundary:
    """A command imports construct, entropy, verify, netsim and pir only if
    it runs them, and no command loads dataclasses or inspect."""

    LAZY = ("smoothldc.construct", "smoothldc.entropy", "smoothldc.netsim", "smoothldc.pir", "smoothldc.verify")
    NEVER = ("dataclasses", "inspect")

    @pytest.mark.parametrize(
        "argv, exit_code, loaded, err",
        [
            (None, None, [], ""),
            # a messages file one byte short: serve exits before it listens
            (["serve", "{doc}", "--db", "1", "--messages", "{short}"], 2,
             ["smoothldc.construct", "smoothldc.netsim", "smoothldc.pir"], "got 2"),
            (["verify", "{doc}"], 0, ["smoothldc.entropy", "smoothldc.verify"], ""),
            (["pir-audit", "{doc}"], 0,
             ["smoothldc.construct", "smoothldc.entropy", "smoothldc.pir", "smoothldc.verify"], ""),
            (["build", "--n", "2", "--k", "3", "--out", "{out}"], 0, ["smoothldc.construct"], ""),
            (["capacity", "--n", "2", "--k", "3"], 0, [], ""),
        ],
        ids=["import", "serve", "verify", "pir-audit", "build", "capacity"],
    )
    def test_command_imports_only_what_it_runs(self, capsys, tmp_path, argv, exit_code, loaded, err):
        doc, short = tmp_path / "c23.json", tmp_path / "short.bin"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(doc))
        short.write_bytes(b"\x5a" * 2)  # K*Lw = 24 bits need 3 bytes
        if argv is not None:
            argv = [a.format(doc=doc, short=short, out=tmp_path / "out.json") for a in argv]
        script = textwrap.dedent(
            f"""
            import json, sys
            from smoothldc import cli

            rc = None if {argv!r} is None else cli.main({argv!r})
            print(json.dumps([rc, sorted(m for m in {self.LAZY!r} if m in sys.modules),
                              [m for m in {self.NEVER!r} if m in sys.modules]]))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=package_env(),
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [exit_code, loaded, []]
        assert err in result.stderr


class TestWithoutNumpy:
    def test_verify_and_round_trip_without_numpy(self, capsys, tmp_path):
        doc = tmp_path / "eq28.json"  # passes every default check
        run_cli(capsys, "fixture", "--name", "eq28", "--out", str(doc))
        script = textwrap.dedent(
            f"""
            import random, sys
            sys.modules["numpy"] = None  # any numpy import now raises ImportError
            from smoothldc import cli
            from smoothldc.construct import build_sldc, decode, encode, random_message

            assert cli.main(["verify", {str(doc)!r}]) == 0
            code = build_sldc(2, 3)
            msg = random_message(code, random.Random(3))
            values = encode(code, msg)
            bits, lw = msg.to_bits(), code.params.Lw
            for k, sup in enumerate(code.supersets, start=1):
                for i, members in enumerate(sup.sets):
                    got = decode(code, k, i, [values[m] for m in members])
                    assert got.to_bits() == bits[(k - 1) * lw : k * lw]
            print("round trip ok")
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=package_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "round trip ok" in result.stdout
