"""The benchmark's instruments still find every package function they wrap.

perfbench/layers.py patches package functions by name and the tracer
refuses to run when one is gone, so a rename in src/ breaks the traced
benchmark. Loading both files by path keeps that visible in this suite.
"""

import importlib.util
import socket
from pathlib import Path

from smoothldc import cli, entropy, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_install_and_restore_every_target():
    tracer, layers = load("tracer"), load("layers")
    originals = {
        (cli, "_run_checks"): cli._run_checks,
        (verify, "trees_for_audit"): verify.trees_for_audit,
        (entropy, "rank_words"): entropy.rank_words,
        (entropy.RankOracle, "entropy"): entropy.RankOracle.entropy,
        (socket, "create_connection"): socket.create_connection,
    }
    with tracer.Tracer().installed(layers.install):
        assert cli._run_checks is not originals[cli, "_run_checks"]
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name


def test_verify_still_accepts_the_seed_the_benchmark_passes():
    # perfbench/workloads.py runs `verify <doc> --seed N`; the option
    # changes nothing, but dropping it would fail every benchmark battery
    args = cli.build_parser().parse_args(["verify", "code.json", "--seed", "7"])
    assert (args.func, args.seed) == (cli.cmd_verify, 7)
