import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import smoothldc
from smoothldc import cli, verify
from smoothldc.construct import random_message
from smoothldc.gf2 import BitVector


def package_env():
    """Environment for a child interpreter that imports this smoothldc."""
    src = str(Path(smoothldc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
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
        assert run_cli(capsys, "verify", str(out_file), "--format", "xml")[0] == 2

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        assert run_cli(capsys, "verify", str(tmp_path / "absent.json"))[0] == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["capacity", "--n", "2", "--k", "3", "--frobnicate"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(f1))
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()
        _, out1, _ = run_cli(capsys, "verify", str(f1))
        _, out2, _ = run_cli(capsys, "verify", str(f2))
        assert out1 == out2

    def test_tree_and_converse_share_one_tree_enumeration(self, capsys, tmp_path, monkeypatch):
        calls = []
        enumerate_once = verify.trees_for_audit

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_once(*args, **kwargs)

        monkeypatch.setattr(verify, "trees_for_audit", counting)
        out_file = tmp_path / "eq28.json"
        run_cli(capsys, "fixture", "--name", "eq28", "--out", str(out_file))
        code, out, _ = run_cli(capsys, "verify", str(out_file))
        assert code == 0
        assert "tree-leaf-distinctness: PASS" in out and "converse-tightness: PASS" in out
        assert len(calls) == 1


class TestPirAudit:
    def test_built_scheme_passes(self, capsys, tmp_path):
        out_file = tmp_path / "c23.json"
        run_cli(capsys, "build", "--n", "2", "--k", "3", "--out", str(out_file))
        code, out, _ = run_cli(capsys, "pir-audit", str(out_file))
        assert code == 0
        assert "privacy: PASS" in out
        assert "deniability: PASS" in out
        assert '"rate": "4/7"' in out

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
            )
            assert result.returncode == 0, result.stderr
            expected = BitVector.from_bits(msg.to_bits()[4:8])
            assert f"W_2 = {expected.to_hex()}" in result.stdout
        finally:
            for proc in servers:
                proc.terminate()
                proc.wait(timeout=10)

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
