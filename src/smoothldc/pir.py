"""Private retrieval over an N-partite smooth code.

Group n of the code becomes the answer set of database n+1; the query to a
database is the index of the requested symbol within that database's answer
list. Retrieval of source symbol theta picks one of its decoding sets
uniformly at random, which touches exactly one answer per database.

The privacy and deniability audits are exact: they enumerate the decoding
sets with their rational probabilities rather than sampling.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from . import construct
from .capacity import pir_capacity
from .codespec import LinearCodeSpec, group_layout, scheme_digest
from .gf2 import BitVector


class SchemeError(ValueError):
    """The code cannot be operated as a multi-database scheme."""


class PirScheme(
    NamedTuple("PirScheme", [("code", LinearCodeSpec), ("databases", tuple[tuple[int, ...], ...]),
                             ("query_sets", tuple[tuple[tuple[int, tuple[int, ...]], ...], ...])])
):
    """A code together with its database view.

    databases[n] lists the symbol indices served by database n+1;
    query_sets[k-1] lists, in a published order, (set index, queries)
    entries: the per-database query tuple (q_1..q_N) that realizes decoding
    set code.supersets[k-1].sets[set index]. The client picks one entry
    uniformly. With no __slots__, each scheme keeps its cached_property
    values in its own __dict__.
    """

    @property
    def n_databases(self) -> int:
        return len(self.databases)

    def query_space(self, n: int) -> int:
        """Number of possible queries for database n (1-based)."""
        return len(self.databases[n - 1])

    def served_symbols(self, queries: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.databases[n][q] for n, q in enumerate(queries))

    @cached_property
    def member_order(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """For the queries of every published entry, the databases (0-based)
        in ascending order of the symbols they serve: the order of the
        decoding set's members, worked out once per scheme."""
        return {
            queries: tuple(sorted(range(len(queries)), key=self.served_symbols(queries).__getitem__))
            for entries in self.query_sets
            for _, queries in entries
        }

    @cached_property
    def digest(self) -> bytes:
        """The 32 bytes a client and its servers agree on before any query:
        codespec.scheme_digest of the code and its database layout."""
        return scheme_digest(self.code, self.databases)


def scheme_from_sldc(code: LinearCodeSpec) -> PirScheme:
    """Lift an N-partite code into a retrieval scheme, one database per
    group. Fails when the code carries no transversal group structure, or
    when Lx = 0 and an answer would carry no bits."""
    if code.params.Lx == 0:
        raise SchemeError("Lx = 0: every answer would be 0 bits long")
    if code.groups is None:
        raise SchemeError(
            "code has no group metadata: no partition of its symbols makes every"
            " decoding set take one symbol per database"
        )
    n = code.params.N
    databases = group_layout(code.groups, n)
    if databases is None:
        raise SchemeError(f"group ids must be exactly 0..{n - 1}")
    positions = {
        symbol: (db, q) for db, answers in enumerate(databases) for q, symbol in enumerate(answers)
    }
    query_sets = []
    for sup in code.supersets:
        entries = []
        for set_index, members in enumerate(sup.sets):
            queries = [0] * n
            for symbol in members:
                db, q = positions[symbol]
                queries[db] = q
            entries.append((set_index, tuple(queries)))
        query_sets.append(tuple(entries))
    # transversality of every decoding set is enforced by the code spec
    return PirScheme(code=code, databases=databases, query_sets=tuple(query_sets))


def replicated_scheme(code: LinearCodeSpec) -> PirScheme:
    """The trivial lift of a code onto N databases that each store every
    coded symbol: a decoding set is realized by every assignment of its
    members to databases. Expands the total answer count by a factor of N;
    repudiative (deniable) whenever the code is universal, but private only
    if the query distributions happen to coincide."""
    n = code.params.N
    everything = tuple(range(code.params.M))
    query_sets = []
    for sup in code.supersets:
        entries = []
        for set_index, members in enumerate(sup.sets):
            entries.extend((set_index, queries) for queries in itertools.permutations(members))
        query_sets.append(tuple(entries))
    return PirScheme(
        code=code, databases=(everything,) * n, query_sets=tuple(query_sets)
    )


class QueryBundle(NamedTuple):
    theta: int  # desired source symbol, client-side only
    set_index: int
    members: tuple[int, ...]
    queries: tuple[int, ...]  # q_n per database, database order


def gen_query(scheme: PirScheme, theta: int, rng: random.Random | int | None = None) -> QueryBundle:
    """Pick one of theta's published (set index, queries) entries uniformly
    at random. Deterministic given the rng seed."""
    if not 1 <= theta <= scheme.code.params.K:
        raise IndexError(f"theta must be in [1, {scheme.code.params.K}]")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    entries = scheme.query_sets[theta - 1]
    set_index, queries = entries[rng.randrange(len(entries))]
    members = scheme.code.supersets[theta - 1].sets[set_index]
    return QueryBundle(theta=theta, set_index=set_index, members=members, queries=queries)


def answer(scheme: PirScheme, n: int, q: int, messages: BitVector) -> BitVector:
    """The Lx-bit answer of database n (1-based) to query q."""
    if not 1 <= n <= scheme.n_databases:
        raise IndexError(f"database index must be in [1, {scheme.n_databases}]")
    if not 0 <= q < scheme.query_space(n):
        raise IndexError(f"query {q} out of range [0, {scheme.query_space(n)})")
    return construct.encode_symbol(scheme.code, scheme.databases[n - 1][q], messages)


def reconstruct(scheme: PirScheme, bundle: QueryBundle, answers: Sequence[BitVector]) -> BitVector:
    """Recover W_theta from the per-database answers (database order)."""
    if len(answers) != scheme.n_databases:
        raise ValueError(f"expected {scheme.n_databases} answers")
    ordered = [answers[n] for n in scheme.member_order[bundle.queries]]
    return construct.decode(scheme.code, bundle.theta, bundle.set_index, ordered)


class AuditResult(NamedTuple):
    passed: bool
    # (database 1-based, theta) -> query distribution as exact rationals
    table: dict[tuple[int, int], tuple[Fraction, ...]]
    witnesses: list[dict]
    uniform: bool = False


def query_distributions(scheme: PirScheme) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """Exact conditional distribution of each database's query given the
    desired message, from the uniform choice over published entries."""
    table = {}
    for k, entries in enumerate(scheme.query_sets, start=1):
        weight = Fraction(1, len(entries))
        per_db = {n: [Fraction(0)] * scheme.query_space(n) for n in range(1, scheme.n_databases + 1)}
        for _, queries in entries:
            for n, q in enumerate(queries, start=1):
                per_db[n][q] += weight
        for n, dist in per_db.items():
            table[(n, k)] = tuple(dist)
    return table


def privacy_audit(scheme: PirScheme) -> AuditResult:
    """Perfect privacy: the query distribution of every database must not
    depend on the desired message."""
    table = query_distributions(scheme)
    k_all = range(1, scheme.code.params.K + 1)
    witnesses = []
    for n in range(1, scheme.n_databases + 1):
        baseline = table[(n, 1)]
        for k in k_all:
            dist = table[(n, k)]
            for q in range(scheme.query_space(n)):
                if dist[q] != baseline[q]:
                    witnesses.append(
                        {"n": n, "q": q, "k": 1, "k_prime": k,
                         "p_k": str(baseline[q]), "p_k_prime": str(dist[q])}
                    )
    uniform = all(
        p == Fraction(1, scheme.query_space(n))
        for (n, _), dist in table.items()
        for p in dist
    )
    return AuditResult(passed=not witnesses, table=table, witnesses=witnesses, uniform=uniform)


def deniability_audit(scheme: PirScheme) -> AuditResult:
    """Repudiation: every possible answer of every database must occur in at
    least one decoding set of every message (weaker than privacy)."""
    table = query_distributions(scheme)
    witnesses = []
    for (n, k), dist in sorted(table.items()):
        for q, p in enumerate(dist):
            if p == 0:
                witnesses.append({"n": n, "q": q, "k": k})
    return AuditResult(passed=not witnesses, table=table, witnesses=witnesses)


class CostMetrics(NamedTuple):
    upload_bits_per_db: tuple[float, ...]
    upload_bits: float  # maximum over databases
    download_bits: int  # answer size, the maximum-download metric
    rate: Fraction

    def as_dict(self) -> dict:
        return self._asdict() | {"upload_bits_per_db": list(self.upload_bits_per_db), "rate": str(self.rate)}


def cost_metrics(scheme: PirScheme) -> CostMetrics:
    p = scheme.code.params
    uploads = tuple(math.log2(scheme.query_space(n)) for n in range(1, scheme.n_databases + 1))
    return CostMetrics(
        upload_bits_per_db=uploads,
        upload_bits=max(uploads),
        download_bits=p.Lx,
        rate=Fraction(p.Lw, p.N * p.Lx),
    )


def cost_witnesses(scheme: PirScheme, costs: CostMetrics) -> list[dict]:
    """What contradicts the capacity claims under the maximum-download
    metric: a rate above pir_capacity(N, K), or, at that rate, a database
    with fewer than N^(K-1) possible queries, less than the (K-1) log2 N
    bits of upload a capacity-achieving scheme needs. Empty if none. A
    capacity with more digits than an int prints is written in closed form,
    (N-1)*N^(K-1)/(N^K-1), with a factor 1 left out."""
    p = scheme.code.params
    bound = pir_capacity(p.N, p.K)
    if costs.rate > bound:
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before Python 3.10.7
        printable = not limit or bound.denominator < 10**limit  # bound <= 1: the denominator is the longer
        capacity = str(bound) if printable else f"{p.N - 1}*" * (p.N > 2) + f"{p.N}^{p.K - 1}/({p.N}^{p.K}-1)"
        return [{"rate": str(costs.rate), "capacity": capacity}]
    if costs.rate < bound:
        return []
    least = p.N ** (p.K - 1)
    return [
        {"database": n, "query_space": scheme.query_space(n), "at_least": least}
        for n in range(1, scheme.n_databases + 1)
        if scheme.query_space(n) < least
    ]
