"""Tests of the benchmark itself, on tiny sizes (``--smoke``).

    python -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
the exact traced work counts fixed beforehand, that the benchmark refuses
to run without the package sources or with an instrument missing, and how
samples are scaled to the nominal host speed.
"""

from __future__ import annotations

import json
import shutil
import time
import types
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import MissingTarget, Tracer  # noqa: E402
from workloads import bit_slice  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.fixture(scope="module", params=["verify", "retrieve", "provision"])
def runs(request):
    return request.param, smoke(request.param, 0), smoke(request.param, 1)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == ["verify", "retrieve", "provision"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in layers.PER_LAYER
    ] + [layers.OVERHEAD]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


def test_every_metric_emitted_with_its_unit(runs):
    workload, (plain, untraced), (traced_proc, traced) = runs
    for proc, result, spec in ((plain, untraced, SPEC["end_to_end"]), (traced_proc, traced, SPEC["per_layer"])):
        assert proc.returncode == 0, proc.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert "env {" in proc.stdout and "error_rate = 0" in proc.stdout
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    for alias, unit, _, _ in run.ALIASES[workload]:
        assert f"  {alias} = " in plain.stdout


def test_exact_traced_counts(runs):
    workload, _, (_, traced) = runs
    value = {name: m["value"] for name, m in traced["metrics"].items()}
    if workload == "verify":  # (N,K) = (2,3) in smoke mode
        assert value["gf2.rank_calls"] == 172
        assert value["entropy.queries"] == 1716
        assert value["entropy.distinct"] == 172
        assert value["verify.trees_for_audit_calls"] == 2
        assert value["netsim.connections_per_retrieval"] == 0
    else:
        assert value["gf2.rank_calls"] == 0
        assert value["entropy.queries"] == 0
    if workload == "retrieve":
        assert value["netsim.connections_per_retrieval"] == 2
        assert value["netsim.scheme_hash_calls"] == 1
        assert value["construct.build_s"] == 0
    if workload == "provision":  # (N,K) = (2,3): 8 symbols, 1 build, 2 servers
        assert value["construct.encode_symbol_calls"] == 8
        assert value["netsim.scheme_hash_calls"] == 2
        assert value["netsim.connections_per_retrieval"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = smoke("verify", 0, cwd=tmp_path)
    assert proc.returncode == 2 and result is None


def test_bit_slice_is_msb_first():
    data = bytes([0b10110011, 0b01010101])
    assert bit_slice(data, 0, 8) == bytes([0b10110011])
    assert bit_slice(data, 4, 8) == bytes([0b00110101])
    assert bit_slice(data, 2, 3) == bytes([0b11000000])


def test_self_time_subtracts_children_once():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    inner = tracer.wrap("inner", lambda: None)
    with tracer.request():
        outer()
    tracer.wrap("ignored", lambda: None)()  # outside any request
    (rid, row), = tracer.per_request().items()
    assert rid == 1 and row["outer.calls"] == 1 and row["inner.calls"] == 2
    assert row["outer.self_s"] == pytest.approx(row["outer.s"] - row["inner.s"])


def test_missing_instrument_is_an_error():
    tracer = Tracer()
    module = types.ModuleType("smoothldc.gone")
    module.kept = lambda: None
    original = module.kept
    with pytest.raises(MissingTarget, match="smoothldc.gone.renamed"):
        with tracer.installed(lambda t: (t.patch(module, "kept", "kept"), t.patch(module, "renamed", "x"))):
            pass
    assert module.kept is original


def test_samples_scaled_by_the_reference_runs_around_them(monkeypatch):
    runs = iter([0.05, 0.15])  # reference runs before and after the sample
    monkeypatch.setattr(calibrate, "reference_job", lambda: time.sleep(next(runs)))
    monkeypatch.setattr(calibrate, "REFERENCE_S", 0.2)
    clock, samples = calibrate.Calibrated(), []
    clock.add(samples, 0.3)
    assert samples == [] and len(clock.references) == 1  # below GAP_S: waits
    clock.add(samples, 0.3)
    assert samples == pytest.approx([0.6, 0.6], rel=0.1)  # x 0.2 / mean(0.05, 0.15)
