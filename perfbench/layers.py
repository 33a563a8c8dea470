"""Per-layer instrumentation: which package functions get a span, which work
counts are taken at those boundaries, and how a traced operation's spans
become the per-layer metrics, each tagged with the end-to-end metric and
workload it is predicted to move.

PER_LAYER is the one record of those predictions. A ``*_s`` layer is
inclusive: time in a nested layer counts in every layer around it, so
netsim.scheme_hash_s contains codespec.to_document_s. Self time (the
``self_s`` layers) is a span's time minus its children's.
"""

from __future__ import annotations

import socket
import statistics

# The end-to-end metrics each group of layers should move. On any other
# workload a layer is absent, or too small to move them: from_document,
# with its one content_hash, is about 1% of a verify battery.
VERIFY = "latency_p50_ms, latency_p75_ms on verify"
RETRIEVE = "latency_p50_ms, latency_p75_ms on retrieve"
PROVISION = "latency_p50_ms, latency_p75_ms on provision; setup_s on retrieve"
# scheme_hash serializes and hashes the code on every retrieval and at every
# server start: about half of a provision cycle.
DOCUMENT = "latency_p50_ms, latency_p75_ms on retrieve and provision; setup_s on retrieve"


def _span(name, field="s"):
    return lambda row: row.get(f"{name}.{field}", 0)


def _counter(name):
    return lambda row: row.get(name, 0)


def _hit_ratio(row):
    queries = row.get("entropy.query.calls", 0)
    return 1 - row.get("entropy.distinct", 0) / queries if queries else 0.0


# name, unit, better, value per traced operation, predicted effect
PER_LAYER = (
    ("verify.correctness_s", "s", "lower", _span("verify.correctness"), VERIFY),
    ("verify.properties_s", "s", "lower", _span("verify.properties"), VERIFY),
    ("verify.tree_s", "s", "lower", _span("verify.tree"), VERIFY),
    ("verify.converse_s", "s", "lower", _span("verify.converse"), VERIFY),
    ("verify.trees_for_audit_calls", "count", "lower", _span("verify.trees_for_audit", "calls"), VERIFY),
    ("cli.self_s", "s", "lower", _span("cli.main", "self_s"), VERIFY),
    ("entropy.queries", "count", "lower", _span("entropy.query", "calls"), VERIFY),
    ("entropy.distinct", "count", "lower", _counter("entropy.distinct"), VERIFY),
    ("entropy.hit_ratio", "ratio", "higher", _hit_ratio, VERIFY),
    ("entropy.self_s", "s", "lower", _span("entropy.query", "self_s"), VERIFY),
    ("gf2.rank_calls", "count", "lower", _span("gf2.rank", "calls"), VERIFY),
    ("gf2.rank_s", "s", "lower", _span("gf2.rank"), VERIFY),
    ("gf2.rank_rows_in", "count", "lower", _counter("gf2.rank_rows_in"), VERIFY),
    ("netsim.scheme_hash_calls", "count", "lower", _span("netsim.scheme_hash", "calls"), DOCUMENT),
    ("netsim.scheme_hash_s", "s", "lower", _span("netsim.scheme_hash"), DOCUMENT),
    ("netsim.connections_per_retrieval", "count", "lower", _span("netsim.connect", "calls"), RETRIEVE),
    ("netsim.retrieve_self_s", "s", "lower", _span("netsim.retrieve", "self_s"), RETRIEVE),
    ("pir.gen_query_s", "s", "lower", _span("pir.gen_query"), RETRIEVE),
    ("pir.reconstruct_s", "s", "lower", _span("pir.reconstruct"), RETRIEVE),
    ("construct.decode_s", "s", "lower", _span("construct.decode"), RETRIEVE),
    ("construct.build_s", "s", "lower", _span("construct.build_sldc"), PROVISION),
    ("construct.encode_symbol_calls", "count", "lower", _span("construct.encode_symbol", "calls"), PROVISION),
    ("construct.encode_symbol_s", "s", "lower", _span("construct.encode_symbol"), PROVISION),
    ("codespec.to_document_s", "s", "lower", _span("codespec.to_document"), DOCUMENT),
    ("codespec.from_document_s", "s", "lower", _span("codespec.from_document"), PROVISION),
    ("codespec.doc_bytes", "bytes", "lower", _counter("codespec.doc_bytes"), PROVISION),
    ("codespec.content_hash_calls", "count", "lower", _span("codespec.content_hash", "calls"), DOCUMENT),
    ("pir.scheme_from_sldc_s", "s", "lower", _span("pir.scheme_from_sldc"), PROVISION),
    ("netsim.server_start_s", "s", "lower", _span("netsim.serve_database"), PROVISION),
)

# Reported by the traced run next to the layers: how much slower a traced
# operation is than an untraced one interleaved with it.
OVERHEAD = ("trace.overhead_pct", "%", "lower")


def install(tracer) -> None:
    """Wrap the package functions each layer is entered through."""
    from smoothldc import cli, codespec, construct, entropy, netsim, pir, verify

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "_run_checks", "cli._run_checks", adapt=lambda run: _per_check(tracer, run))
    tracer.patch(verify, "trees_for_audit", "verify.trees_for_audit")
    tracer.patch(entropy.RankOracle, "entropy", "entropy.query", adapt=lambda fn: _distinct(tracer, fn))
    tracer.patch(entropy, "rank_words", "gf2.rank",
                 counter=lambda args, _: {"gf2.rank_rows_in": len(args[0])})
    for module, attr in (
        (codespec, "to_document"),
        (codespec, "from_document"),
        (codespec, "content_hash"),
        (construct, "build_sldc"),
        (construct, "encode_symbol"),
        (construct, "decode"),
        (pir, "scheme_from_sldc"),
        (pir, "gen_query"),
        (pir, "reconstruct"),
        (netsim, "scheme_hash"),
        (netsim, "retrieve"),
        (netsim, "serve_database"),
    ):
        tracer.patch(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
    tracer.patch(codespec, "dump_document", "codespec.dump_document",
                 counter=lambda _, data: {"codespec.doc_bytes": len(data)})
    # netsim connects on pool threads: these spans have no parent, so their
    # time also stays in netsim.retrieve's self time.
    tracer.patch(socket, "create_connection", "netsim.connect")


def _per_check(tracer, run_checks):
    """cli._run_checks, one check at a time, so each check gets a span; the
    checks are independent, so results are identical."""

    def run_each(code, names, args):
        results = []
        for name in names:
            results.extend(tracer.wrap(f"verify.{name}", run_checks)(code, [name], args))
        return results

    return run_each


def _distinct(tracer, entropy_fn):
    """RankOracle.entropy, also counting distinct (symbols, given) queries
    per oracle: the work left after a perfect cache. Installed afresh for
    each traced operation."""
    seen = set()

    def query(oracle, symbols, given_messages=()):
        symbols, given = tuple(symbols), tuple(given_messages)
        key = (id(oracle), frozenset(symbols), frozenset(given))
        if key not in seen:
            seen.add(key)
            tracer.count("entropy.distinct")
        return entropy_fn(oracle, symbols, given)

    return query


def layer_metrics(rows: list[dict]) -> dict[str, float]:
    """Median over traced operations of each per-layer metric."""
    return {
        name: statistics.median(value(row) for row in rows) if rows else 0.0
        for name, _, _, value, _ in PER_LAYER
    }
