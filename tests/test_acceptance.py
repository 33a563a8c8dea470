"""Acceptance battery: one test per release criterion, each printing a
single pass/fail line. Tolerances are pinned here, not deferred."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from oracles import brute_force_conditional_entropy, message_slice
from smoothldc import capacity, cli, netsim, pir
from smoothldc.codespec import content_hash, to_document
from smoothldc.construct import build_sldc, load_fixture, random_message
from smoothldc.entropy import conditional_entropy
from smoothldc.verify import (
    audit_converse_chain,
    build_nary_tree,
    check_capacity_properties,
    check_correctness,
    check_smoothness,
    check_universality,
    corruption_trial,
    enumerate_trees,
    leaf_distinctness,
    min_distance,
)

GRID = ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2))


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:02d}: PASS — {text}")


def test_criterion_01_capacity_formulas():
    assert capacity.capacity_uldc(2, 2) == Fraction(4, 3)
    assert capacity.capacity_uldc(3, 3) == Fraction(27, 13)
    assert capacity.pir_capacity(2, 3) == Fraction(4, 7)
    assert capacity.min_length(2, 3) == 8
    assert capacity.min_upload_bits(2, 3) == 2.0
    report(1, "closed forms match their reference values exactly")


def test_criterion_02_construction_battery():
    for n, k in GRID:
        start = time.monotonic()
        code = build_sldc(n, k)
        assert check_correctness(code).passed, (n, k)
        assert check_smoothness(code), (n, k)
        assert check_universality(code), (n, k)
        rate, _ = capacity.symbol_and_code_rate(code.params)
        assert rate == capacity.capacity_uldc(n, k), (n, k)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"({n},{k}) took {elapsed:.2f}s"
    report(2, f"built and verified {len(GRID)} codes, each under 5 s")


def test_criterion_03_converse_tightness():
    for n, k in GRID:
        code = build_sldc(n, k)
        trees = list(enumerate_trees(code))
        assert trees
        for tree in trees:
            audit = audit_converse_chain(code, tree)
            assert audit.tight, (n, k, tree.permutation, tree.root)
            assert all(level.slack == 0 for level in audit.levels)
    fig1 = load_fixture("fig1")
    fig1_trees = list(enumerate_trees(fig1))
    assert fig1_trees
    for tree in fig1_trees:
        assert audit_converse_chain(fig1, tree).total_slack == 1
    report(3, "zero slack at every level on the grid; 1 bit total on the replicated code")


def test_criterion_04_leaf_distinctness_mechanism():
    for n, k in ((2, 2), (2, 3)):
        code = build_sldc(n, k)
        trees = list(enumerate_trees(code))
        assert trees
        for tree in trees:
            ok, _ = leaf_distinctness(tree)
            assert ok, (n, k, tree.permutation, tree.root)
    intro = load_fixture("intro_nonsmooth")
    tree = build_nary_tree(intro, (1, 2, 3), 0, chooser=[0, 0, 1, 0, 1, 2, 1])
    assert tree.leaves == (0, 2, 1, 2, 1, 3, 2, 1)
    ok, witness = leaf_distinctness(tree)
    assert not ok and intro.label(witness) == "X2"
    report(4, "all built trees have distinct leaves; walkthrough duplicates X2")


def test_criterion_05_property_battery():
    assert check_capacity_properties(build_sldc(2, 2)).all_pass()

    fig1 = load_fixture("fig1")
    p2a = check_capacity_properties(fig1).results["p2a"]
    assert not p2a.passed
    witness = p2a.witnesses[0]
    assert {witness["i1"], witness["i2"]} == {"X1", "X4"} and witness["k_prime"] == 2

    assert not check_capacity_properties(load_fixture("intro_nonsmooth")).all_pass()

    from smoothldc.entropy import same_information

    for name in ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4"):
        code = load_fixture(name)
        m, kk = code.params.M, code.params.K
        ksets = [
            frozenset(c)
            for r in range(1, kk + 1)
            for c in itertools.combinations(range(1, kk + 1), r)
        ]
        for kset in ksets:
            related = {
                (i1, i2)
                for i1 in range(m)
                for i2 in range(m)
                if same_information(code, i1, i2, kset)
            }
            for (i1, i2), (j2, i3) in itertools.product(related, related):
                if i2 == j2:
                    assert (i1, i3) in related, (name, kset, i1, i2, i3)
    report(5, "property battery and same-information transitivity hold exactly")


def test_criterion_06_entropy_oracle_equivalence():
    small = [load_fixture(n) for n in ("fig1", "intro_nonsmooth", "eq28", "fig2")]
    small.append(build_sldc(2, 2))
    for code in small:
        p = code.params
        assert p.K * p.Lw <= 12
        rng = random.Random(p.M * 1000 + p.K)
        for _ in range(200):
            a = rng.sample(range(p.M), rng.randint(0, p.M))
            j = rng.sample(range(1, p.K + 1), rng.randint(0, p.K))
            exact = conditional_entropy(code, a, j)
            brute = brute_force_conditional_entropy(code, a, j)
            assert abs(brute - exact) < 1e-9 and round(brute) == exact
    report(6, "rank oracle equals joint-distribution entropy on 200 queries per code")


def test_criterion_07_privacy_and_costs():
    for n, k in GRID:
        scheme = pir.scheme_from_sldc(build_sldc(n, k))
        audit = pir.privacy_audit(scheme)
        assert audit.passed and audit.uniform, (n, k)
        expected = Fraction(1, n ** (k - 1))
        assert all(p == expected for dist in audit.table.values() for p in dist)
        assert pir.deniability_audit(scheme).passed
        costs = pir.cost_metrics(scheme)
        assert abs(costs.upload_bits - capacity.min_upload_bits(n, k)) < 1e-12
        assert costs.rate == capacity.pir_capacity(n, k)
    report(7, "uniform query distributions, deniability, and optimal costs on the grid")


def test_criterion_08_corruption_and_distance():
    fig1 = load_fixture("fig1")
    trial = corruption_trial(fig1, Fraction(1, 3))
    assert trial.corrupted_count == 2
    assert trial.every_pattern_leaves_clean_set
    assert trial.min_success >= Fraction(1, 3)
    distance = min_distance(fig1)
    assert distance.distance == 3
    assert (0, 4, 5) in distance.witnesses  # the X1, X5, X6 erasure
    report(8, "every 2-symbol corruption survives; distance 3 with the expected witness")


@pytest.mark.parametrize("nk,retrievals", [((2, 3), 1000), ((3, 2), 1000)])
def test_criterion_09_network_end_to_end(nk, retrievals):
    n, k = nk
    start = time.monotonic()
    scheme = pir.scheme_from_sldc(build_sldc(n, k))
    rng = random.Random(512 + n)
    msg = random_message(scheme.code, rng)
    servers = [netsim.serve_database(scheme, db, msg) for db in range(1, n + 1)]
    endpoints = [s.endpoint for s in servers]
    try:
        uploads_by_theta = {}
        for i in range(retrievals):
            theta = (i % k) + 1
            value, transcript = netsim.retrieve(scheme, theta, endpoints, rng)
            assert list(value.to_bits()) == message_slice(scheme.code, msg, theta)
            uploads_by_theta.setdefault(
                theta, tuple(r.upload_bits_wire for r in transcript.records)
            )
            assert uploads_by_theta[theta] == tuple(
                r.upload_bits_wire for r in transcript.records
            )
        assert len(set(uploads_by_theta.values())) == 1
    finally:
        for server in servers:
            server.close()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"{retrievals} retrievals took {elapsed:.1f}s"
    report(9, f"{retrievals} retrievals on {n} databases, zero failures, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["build", "--n", "2", "--k", "3", "--out", str(first)]) == 0
    assert cli.main(["build", "--n", "2", "--k", "3", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    assert cli.main(["verify", str(first)]) == 0
    out1 = capsys.readouterr().out
    assert cli.main(["verify", str(second)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

    # the hash is a pure function of the canonical serialization
    doc = to_document(build_sldc(2, 2))
    assert doc["content_hash"] == content_hash(doc)
    assert doc["content_hash"] == "3dd0b7f7a8da03238693a054620cc0f93a20be2ba90317b20d21a085bab3d22e"
    report(10, "byte-identical builds and reports; stable content hash")
