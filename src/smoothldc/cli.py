"""Command-line entry point.

Exit codes: 0 all requested checks passed / operation succeeded, 1 a check
or retrieval failed (verdict in output), 2 usage or I/O error.

Each command imports verify, netsim and pir only if it runs them, so a
database server compiles no check and verify loads no network code, and
``main`` builds the argument parser of that command alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import capacity, construct
from .codespec import dump_document, from_document, load_document, to_document
from .gf2 import BitVector

if TYPE_CHECKING:
    from . import verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_code(path: str):
    # no name here holds the file's bytes, and load_document drops its own
    # once they are decoded, so they are freed before json.loads builds the dict
    return from_document(load_document(Path(path).read_bytes()))


def _write(path: str, doc: dict) -> None:
    Path(path).write_bytes(dump_document(doc))


def _fraction(text: str) -> Fraction:
    """*text* read as Fraction reads it, refused when its numerator or
    denominator has more digits than an int may print (the limit of
    sys.get_int_max_str_digits). An exponent is applied last, and not at
    all when it alone passes that limit: building 10**10000000 for
    1e-10000000 takes seconds."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    mantissa = text if exponent is None else text[: exponent.start()] + "e0"
    try:
        value, power = Fraction(mantissa), 0 if exponent is None else int(exponent[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before Python 3.10.7
    too_long = argparse.ArgumentTypeError(f"numerator or denominator of more than {limit} digits: {text!r}")
    # the mantissa's numerator and denominator are below 10**len(mantissa),
    # so past this power the value's numerator or denominator is not
    if limit and value and abs(power) > limit + len(mantissa):
        raise too_long
    if value:
        value *= Fraction(10) ** power
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise too_long
    return value


def cmd_capacity(args) -> int:
    length = capacity.min_length(args.n, args.k)  # bounds N^K before anything computes it
    lines = [
        f"C*        = {capacity.capacity_uldc(args.n, args.k)}",
        f"M*        = {length}",
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
    from . import verify

    return verify.run_checks(code, names, args.tree_budget, args.delta)


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
    doc = {
        "version": 1,
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def cmd_verify(args) -> int:
    from . import verify

    names = verify.DEFAULT_CHECKS
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if args.tree_budget is None:
        args.tree_budget = verify.DEFAULT_TREE_BUDGET
    verify.check_options(names, args.tree_budget, args.delta)
    code = _load_code(args.file)
    results = _run_checks(code, names, args)
    print(render_report(results, args.format))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_pir_audit(args) -> int:
    from . import pir, verify

    code = _load_code(args.file)
    scheme = pir.scheme_from_sldc(code)
    privacy = pir.privacy_audit(scheme)
    deniability = pir.deniability_audit(scheme)
    costs = pir.cost_metrics(scheme)
    witnesses = pir.cost_witnesses(scheme, costs)
    results = [
        verify.CheckResult("privacy", privacy.passed, privacy.witnesses, {"uniform": privacy.uniform}),
        verify.CheckResult("deniability", deniability.passed, deniability.witnesses),
        verify.CheckResult("costs", not witnesses, witnesses, costs.as_dict()),
    ]
    print(render_report(results, args.format))
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def cmd_serve(args) -> int:
    from . import netsim, pir

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
    from . import netsim, pir

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


def _capacity_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="locality / number of databases")
    p.add_argument("--k", type=int, required=True, help="number of source symbols")


def _build_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output code-spec file")


def _fixture_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True, choices=sorted(construct.FIXTURES))
    p.add_argument("--out", required=True)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    # defaults resolved in cmd_verify, so that parsing imports no verify
    p.add_argument("--checks", default=None,
                   help="comma-separated check names (default: the default battery)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--tree-budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored: every row is exact")
    p.add_argument("--delta", type=_fraction, default=None,
                   help="corruption fraction for the corruption check (default: largest"
                        " integral fraction below 1/N)")


def _pir_audit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _serve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--db", type=int, required=True, help="database index, 1-based")
    p.add_argument("--messages", required=True,
                   help="raw K*Lw-bit message file, MSB-first packing")
    p.add_argument("--listen", default="127.0.0.1:0")


def _retrieve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--theta", type=int, required=True, help="desired source symbol, 1-based")
    p.add_argument("--endpoints", required=True, help="comma-separated host:port per database")
    p.add_argument("--seed", type=int, default=None)


# name, help, argument adder, handler: one row per command, in usage order
COMMANDS = (
    ("capacity", "closed-form capacity, length, and upload quantities", _capacity_arguments, cmd_capacity),
    ("build", "construct the length-N^K capacity-achieving code", _build_arguments, cmd_build),
    ("fixture", "write a transcribed reference code", _fixture_arguments, cmd_fixture),
    ("verify", "run the verification battery on a code-spec file", _verify_arguments, cmd_verify),
    ("pir-audit", "privacy/deniability audits and cost metrics", _pir_audit_arguments, cmd_pir_audit),
    ("serve", "serve one database of a scheme over TCP", _serve_arguments, cmd_serve),
    ("retrieve", "privately retrieve one source symbol", _retrieve_arguments, cmd_retrieve),
)
COMMAND_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named one alone.

    A one-command parser parses that command's arguments as the full one
    does and prints the same usage lines, its own listing every command.
    """
    parser = argparse.ArgumentParser(
        prog="smoothldc",
        description="Build, verify, and privately retrieve from perfectly smooth"
        " locally decodable codes.",
    )
    # the full parser keeps no metavar, so an unknown command still reads
    # "argument command: invalid choice"
    listing = None if command is None else "{" + ",".join(COMMAND_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listing)
    for name, help_text, add_arguments, handler in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only a known command first gets a one-command parser: help, no
    # command and an unknown name need the full parser's listing and errors
    command = argv[0] if argv and argv[0] in COMMAND_NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, OverflowError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
