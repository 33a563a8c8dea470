#!/usr/bin/env python3
"""smoothldc benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload verify|retrieve|provision \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` and from nowhere else, so a tree without it exits 2.
Inputs (messages, theta sequences, query choices) come from ``--seed``. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The lines before it repeat every
metric by name with its unit and sample count, and stamp the environment.
Work files, the result and the span dump go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from calibrate import REFERENCE_S, Calibrated
from tracer import MissingTarget, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SMOKE_OPS = 4
RSS_OPS = 3  # peak RSS is read after set-up, the warm-up and this many operations

# name, unit, better, bound: the share of the parent's median by which the
# metric may worsen before a change counts as a regression. Times are wall
# times scaled to a nominal host speed (calibrate.py). The tail metric is
# p75: on a shared 2-vCPU host, retrieve's p90 moved by a fifth between
# runs of the same code (scheduling hiccups). Throughput is printed but not
# gated: with one operation in flight it is 1 / mean latency.
END_TO_END = (
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p75_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# The names the workloads' users know, as (name, unit, metric, factor),
# printed next to the metrics they are read from.
ALIASES = {
    "verify": (("verify_s", "s", "latency_p50_ms", 1e-3),),
    "retrieve": (
        ("retrieve_ms_p50", "ms", "latency_p50_ms", 1.0),
        ("retrieve_ms_p90", "ms", "latency_p90_ms", 1.0),
        ("retrieve_per_s", "1/s", "throughput_per_s", 1.0),
    ),
    "provision": (("provision_s", "s", "latency_p50_ms", 1e-3),),
}


def import_package():
    """Import smoothldc from ROOT/src, or exit 2: a benchmark must never
    measure some other copy of the package."""
    src = ROOT / "src"
    if not (src / "smoothldc" / "__init__.py").is_file():
        print(f"perfbench: no smoothldc sources under {src}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import smoothldc

    if src.resolve() not in Path(smoothldc.__file__).resolve().parents:
        print(f"perfbench: imported smoothldc from {smoothldc.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy

    try:
        from smoothldc import _kernels

        backend = _kernels.BACKEND
    except ImportError:
        backend = "none"
    try:
        import cpuinfo

        cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
    except ImportError:
        cpu = platform.processor() or "unknown"
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "gf2_backend": backend,
    }


@contextlib.contextmanager
def timed(samples: list, tracer=None):
    """Time the block into samples; with a tracer, trace it as one request.
    Patching happens before the clock starts."""
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(layers.install))
            stack.enter_context(tracer.request())
        start = time.perf_counter()
        yield
        samples.append(time.perf_counter() - start)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Run:
    """The samples of one benchmark run: wall times, and the same times
    scaled to the nominal host speed (setups, plain)."""

    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.tracer = Tracer() if trace else None
        self.clock = Calibrated()
        self.setups, self.plain = [], []
        self.wall = {"setups": [], "plain": [], "traced": []}
        self.attempted = self.failed = 0
        self.rss_kb = None

    def set_up(self, reps: int) -> None:
        for rep in range(reps):
            seconds = self.workload.setup()
            self.wall["setups"].append(seconds)
            self.clock.add(self.setups, seconds)
            self.clock.flush()  # a set-up is short: scale each by the reference runs next to it
            if rep < reps - 1:
                self.workload.undo_setup()

    def _op(self, kind: str, tracer=None) -> None:
        """One operation; its time joins the samples of its kind only if its
        output checks."""
        self.attempted += 1
        timing = []
        try:
            self.workload.op(lambda: timed(timing, tracer))
        except Exception:  # noqa: BLE001 - every failure is counted and shown
            self.failed += 1
            if self.failed <= 3:
                print(f"perfbench: a {self.workload.op_name} failed:", file=sys.stderr)
                traceback.print_exc()
        else:
            if kind in self.wall:
                self.wall[kind].extend(timing)
            if kind == "plain":
                self.clock.add(self.plain, timing[0])
        if self.attempted == 1 + RSS_OPS:
            self.rss_kb = peak_rss_kb()

    def measure(self, seconds: float, min_ops: int) -> None:
        """Closed loop: one warm-up operation, checked but not timed, then
        operations until the time is up; with a tracer, every other one is
        traced."""
        self._op("warm-up")
        deadline = time.perf_counter() + seconds
        while self.attempted <= min_ops or time.perf_counter() < deadline:
            traced = self.tracer is not None and self.attempted % 2 == 1
            self._op("traced" if traced else "plain", self.tracer if traced else None)
        self.clock.flush()
        if self.rss_kb is None:
            self.rss_kb = peak_rss_kb()


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "retrieve", "provision"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and a few operations")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
    workload = workloads.WORKLOADS[args.workload](ROOT, WORK, args.seed, sizes[args.workload])
    run = Run(workload, args.trace == 1)
    if run.tracer is not None:
        try:  # every instrument must be in place before anything is measured
            with run.tracer.installed(layers.install):
                pass
        except MissingTarget as missing:
            sys.exit(f"perfbench: cannot trace, the package has no {missing}")
    try:
        run.set_up(1 if args.smoke else workload.setup_reps)
        run.measure(min(args.seconds, 0.5) if args.smoke else args.seconds,
                    SMOKE_OPS if args.smoke else 2)
    finally:
        killed = workload.close()
    # A helper that had to be killed is a failed operation: a hung server
    # fails its retrievals by timeout and then this.
    run.attempted += killed
    run.failed += killed
    if not run.plain:
        sys.exit(f"perfbench: no {workload.op_name} succeeded ({run.failed} of {run.attempted} failed)")

    plain, wall = run.plain, run.wall["plain"]
    summary = {
        "latency_p50_ms": statistics.median(plain) * 1e3,
        "latency_p75_ms": percentile(plain, 75) * 1e3,
        "latency_p90_ms": percentile(plain, 90) * 1e3,
        "throughput_per_s": len(plain) / sum(plain),
        "peak_rss_mb": (run.rss_kb + workload.child_peak_rss_kb()) / 1024,
        "setup_s": statistics.median(run.setups),
    }
    host_speed = REFERENCE_S / statistics.median(run.clock.references)
    end_to_end = {name: summary[name] for name, *_ in END_TO_END}
    env = environment()
    op = workload.op_name
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f"{' smoke' if args.smoke else ''} N,K={workload.n},{workload.k}",
        f"  {run.attempted} {op} attempted, {run.failed} failed:"
        f" error_rate = {run.failed / run.attempted:.6g}",
    ]
    units = dict({name: unit for name, unit, *_ in END_TO_END}, latency_p90_ms="ms", throughput_per_s="1/s")
    basis = {
        "setup_s": f"median of {len(run.setups)} set-ups",
        "peak_rss_mb": f"after set-up and {1 + RSS_OPS} {op}" + (", plus servers" if workload.child_peak_rss_kb() else ""),
    }
    for name, value in summary.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}  ({basis.get(name, f'{len(plain)} x {op}')})")
    for alias, unit, source, factor in ALIASES[args.workload]:
        lines.append(f"  {alias} = {summary[source] * factor:.6g} {unit}  (= {source})")
    lines.append(
        f"  host speed = {host_speed:.4g} x nominal (median of {len(run.clock.references)} reference runs);"
        f" unscaled: latency_p50_ms = {statistics.median(wall) * 1e3:.6g},"
        f" setup_s = {statistics.median(run.wall['setups']):.6g}")
    lines.append(f"  peak RSS at the end of the run: {peak_rss_kb() / 1024:.6g} MB (process only)")
    result = {"summary": summary, "setups": run.setups, "ops": plain, "wall": run.wall,
              "references": run.clock.references}

    if args.trace:
        tracer = run.tracer
        rows = list(tracer.per_request().values())
        per_layer = layers.layer_metrics(rows)
        traced = run.wall["traced"]
        overhead = (statistics.median(traced) / statistics.median(wall) - 1) * 100 if traced else 0.0
        per_layer[layers.OVERHEAD[0]] = overhead
        lines.append(f"  traced: {len(rows)} {op}, untraced: {len(plain)} {op}, interleaved;"
                     f" spans: {len(tracer.spans)}")
        for name, unit, _, _, moves in layers.PER_LAYER:
            lines.append(f"  layer {name} = {per_layer[name]:.6g} {unit}/{op}  -> {moves}")
        lines.append(f"  {layers.OVERHEAD[0]} = {overhead:.4g} %  (traced vs untraced {op} median)")
        layer_units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        layer_units[layers.OVERHEAD[0]] = layers.OVERHEAD[1]
        metrics = {name: {"value": value, "unit": layer_units[name]} for name, value in per_layer.items()}
        result["per_layer"] = per_layer
        trace_file = WORK / f"trace-{args.workload}.json"  # the latest only: it can be tens of MB
        trace_file.write_text(json.dumps(dict(tracer.dump(), env=env)))
        lines.append(f"  spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    result_file = WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    result_file.write_text(json.dumps(
        dict(result, env=env, attempted=run.attempted, failed=run.failed), indent=1))
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
