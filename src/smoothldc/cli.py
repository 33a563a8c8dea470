"""Command-line entry point.

Exit codes: 0 all requested checks passed / operation succeeded, 1 a check
or retrieval failed (verdict in output), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import capacity, construct, netsim, pir, verify
from .codespec import CodeSpecError, dump_document, from_document, load_document, to_document
from .gf2 import BitVector

DEFAULT_CHECKS = ("correctness", "smoothness", "universality", "properties", "tree", "converse")
ALL_CHECKS = DEFAULT_CHECKS + ("min-distance", "corruption")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


def _load_code(path: str):
    data = Path(path).read_bytes()
    return from_document(load_document(data))


def _write(path: str, doc: dict) -> None:
    Path(path).write_bytes(dump_document(doc))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def cmd_capacity(args) -> int:
    cap = capacity.capacity_uldc(args.n, args.k)
    lines = [
        f"C*        = {cap}",
        f"M*        = {capacity.min_length(args.n, args.k)}",
        f"upload    = {capacity.min_upload_bits(args.n, args.k):g} bits/db",
        f"PIR rate  = {capacity.pir_capacity(args.n, args.k)}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def cmd_build(args) -> int:
    code = construct.build_sldc(args.n, args.k)
    doc = to_document(code)
    _write(args.out, doc)
    p = code.params
    print(f"built N={p.N} K={p.K}: M={p.M}, Lw={p.Lw}, Lx={p.Lx}")
    print(f"content_hash {doc['content_hash']}")
    return EXIT_OK


def cmd_fixture(args) -> int:
    code = construct.load_fixture(args.name)
    doc = to_document(code)
    _write(args.out, doc)
    print(f"wrote fixture {args.name} ({doc['content_hash']})")
    return EXIT_OK


def _run_checks(code, names, args) -> list[verify.CheckResult]:
    results = []
    audit_trees = None  # shared by "tree" and "converse"
    for name in names:
        if name == "correctness":
            results.append(verify.check_correctness(code))
        elif name == "smoothness":
            results.append(verify.CheckResult("smoothness", verify.check_smoothness(code)))
        elif name == "universality":
            results.append(verify.CheckResult("universality", verify.check_universality(code)))
        elif name == "properties":
            report = verify.check_capacity_properties(code)
            for key in verify.PROPERTY_NAMES:
                res = report.results[key]
                results.append(verify.CheckResult(res.name, res.passed, res.witnesses))
        elif name in ("tree", "converse"):
            if audit_trees is None:
                audit_trees = verify.trees_for_audit(
                    code, budget=args.tree_budget, samples=args.samples, seed=args.seed
                )
            trees, exhaustive = audit_trees
            detail = {"trees": len(trees), "exhaustive": exhaustive}
            if name == "tree":
                witnesses = []
                for tree in trees:
                    ok, dup = verify.leaf_distinctness(tree)
                    if not ok:
                        witnesses.append(
                            {"permutation": list(tree.permutation), "root": code.label(tree.root),
                             "duplicate": code.label(dup)}
                        )
                results.append(
                    verify.CheckResult("tree-leaf-distinctness", not witnesses, witnesses, detail)
                )
            else:
                witnesses = []
                for tree in trees:
                    audit = verify.audit_converse_chain(code, tree)
                    if not audit.tight:
                        witnesses.append(
                            {"permutation": list(tree.permutation), "root": code.label(tree.root),
                             "total_slack_bits": audit.total_slack}
                        )
                results.append(
                    verify.CheckResult("converse-tightness", not witnesses, witnesses, detail)
                )
        elif name == "min-distance":
            try:
                result = verify.min_distance(code)
            except verify.BudgetError as exc:
                results.append(verify.CheckResult("min-distance", False, [{"error": str(exc)}]))
                continue
            m, n = code.params.M, code.params.N
            meets_bound = result.distance * n >= m
            results.append(
                verify.CheckResult(
                    "min-distance",
                    meets_bound,
                    [] if meets_bound else [{"distance": result.distance, "bound": f"M/N = {m}/{n}"}],
                    {
                        "distance": result.distance,
                        "witness": [code.label(i) for i in result.witness],
                        "witness_count": len(result.witnesses),
                    },
                )
            )
        elif name == "corruption":
            delta = args.delta
            if delta is None:
                # largest corruption budget below 1/N with an integral count
                t = -(-code.params.M // code.params.N) - 1
                delta = Fraction(max(t, 0), code.params.M)
            report = verify.corruption_trial(code, delta)
            target = 1 - delta * code.params.N
            passed = report.every_pattern_leaves_clean_set and report.min_success >= target
            results.append(
                verify.CheckResult(
                    "corruption",
                    passed,
                    [] if passed else [{"min_success": str(report.min_success), "target": str(target)}],
                    {"delta": str(report.delta), "corrupted": report.corrupted_count,
                     "min_success": str(report.min_success)},
                )
            )
        else:
            raise _UsageError(f"unknown check {name!r}; valid: {', '.join(ALL_CHECKS)}")
    return results


def render_report(results: list[verify.CheckResult], fmt: str) -> str:
    if fmt == "text":
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            suffix = ""
            if not r.passed and r.witnesses:
                suffix = f"  witness: {json.dumps(r.witnesses[0], sort_keys=True)}"
            elif r.details:
                suffix = f"  {json.dumps(r.details, sort_keys=True)}"
            lines.append(f"{r.name}: {status}{suffix}")
        return "\n".join(lines)
    if fmt == "json":
        doc = {
            "version": 1,
            "passed": all(r.passed for r in results),
            "checks": [r.as_dict() for r in results],
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    raise _UsageError(f"unknown format {fmt!r}; valid: text, json")


def cmd_verify(args) -> int:
    code = _load_code(args.file)
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise _UsageError("no checks requested")
    results = _run_checks(code, names, args)
    print(render_report(results, args.format))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_pir_audit(args) -> int:
    code = _load_code(args.file)
    scheme = pir.scheme_from_sldc(code)
    privacy = pir.privacy_audit(scheme)
    deniability = pir.deniability_audit(scheme)
    costs = pir.cost_metrics(scheme)
    results = [
        verify.CheckResult("privacy", privacy.passed, privacy.witnesses, {"uniform": privacy.uniform}),
        verify.CheckResult("deniability", deniability.passed, deniability.witnesses),
        verify.CheckResult("costs", True, [], costs.as_dict()),
    ]
    print(render_report(results, args.format))
    return EXIT_OK if privacy.passed and deniability.passed else EXIT_FAIL


def cmd_serve(args) -> int:
    code = _load_code(args.file)
    scheme = pir.scheme_from_sldc(code)
    width = code.params.K * code.params.Lw
    messages = BitVector.from_bytes(Path(args.messages).read_bytes(), width)
    server = netsim.serve_database(scheme, args.db, messages, args.listen)
    print(f"database {args.db} listening on {server.endpoint}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        server.close()
    return EXIT_OK


def cmd_retrieve(args) -> int:
    code = _load_code(args.file)
    scheme = pir.scheme_from_sldc(code)
    endpoints = [e.strip() for e in args.endpoints.split(",") if e.strip()]
    try:
        value, transcript = netsim.retrieve(scheme, args.theta, endpoints, args.seed)
    except (netsim.RetrievalError, construct.DecodeFailure) as exc:
        print(f"retrieval failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"W_{args.theta} = {value.to_hex()} ({value.length} bits)")
    for rec in transcript.records:
        print(
            f"  db {rec.database} {rec.endpoint}: q={rec.query}"
            f" upload {rec.upload_bits_wire}b wire ({rec.upload_bits_info:.4g}b info),"
            f" download {rec.download_bits}b"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothldc",
        description="Build, verify, and privately retrieve from perfectly smooth"
        " locally decodable codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="closed-form capacity, length, and upload quantities")
    p.add_argument("--n", type=int, required=True, help="locality / number of databases")
    p.add_argument("--k", type=int, required=True, help="number of source symbols")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("build", help="construct the length-N^K capacity-achieving code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output code-spec file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fixture", help="write a transcribed reference code")
    p.add_argument("--name", required=True, choices=sorted(construct.FIXTURES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("verify", help="run the verification battery on a code-spec file")
    p.add_argument("file")
    p.add_argument("--checks", default=",".join(DEFAULT_CHECKS),
                   help=f"comma-separated subset of: {', '.join(ALL_CHECKS)}")
    p.add_argument("--format", default="text")
    p.add_argument("--tree-budget", type=int, default=verify.DEFAULT_TREE_BUDGET)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=_fraction, default=None,
                   help="corruption fraction for the corruption check (default: largest"
                        " integral fraction below 1/N)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pir-audit", help="privacy/deniability audits and cost metrics")
    p.add_argument("file")
    p.add_argument("--format", default="text")
    p.set_defaults(func=cmd_pir_audit)

    p = sub.add_parser("serve", help="serve one database of a scheme over TCP")
    p.add_argument("file")
    p.add_argument("--db", type=int, required=True, help="database index, 1-based")
    p.add_argument("--messages", required=True,
                   help="raw K*Lw-bit message file, MSB-first packing")
    p.add_argument("--listen", default="127.0.0.1:0")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("retrieve", help="privately retrieve one source symbol")
    p.add_argument("file")
    p.add_argument("--theta", type=int, required=True, help="desired source symbol, 1-based")
    p.add_argument("--endpoints", required=True, help="comma-separated host:port per database")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_retrieve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, CodeSpecError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
