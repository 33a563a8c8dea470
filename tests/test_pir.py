import hashlib
import math
import random
from fractions import Fraction

import pytest

from oracles import message_slice
from smoothldc.capacity import min_upload_bits, pir_capacity
from smoothldc.codespec import DecodingSuperset, LinearCodeSpec
from smoothldc.construct import DecodeFailure, random_message
from smoothldc.gf2 import BitVector
from smoothldc.pir import (
    SchemeError,
    answer,
    cost_metrics,
    deniability_audit,
    gen_query,
    privacy_audit,
    query_distributions,
    reconstruct,
    replicated_scheme,
    scheme_from_sldc,
)

AUDIT_GRID = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
FIXTURE_NAMES = ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4")

# SHA-256 over repr(gen_query(scheme, theta, seed)) for theta = 1..K and
# seeds 0..49 of every scheme in all_schemes, in that order; recorded when
# gen_query still worked the set index back out of the drawn queries.
BUNDLES_DIGEST = "d94e8525e00ef750595d467cb5020b89927eb1e28fea542fbd3b4503e47ad2c5"


def with_supersets(code, supersets):
    return LinearCodeSpec(
        params=code.params,
        symbol_gens=code.symbol_gens,
        supersets=supersets,
        groups=code.groups,
        digits=code.digits,
        labels=code.labels,
        column_order=code.column_order,
    )


@pytest.fixture(scope="module")
def grid_schemes():
    from smoothldc.construct import build_sldc

    return {nk: scheme_from_sldc(build_sldc(*nk)) for nk in AUDIT_GRID}


def all_schemes(codes):
    """scheme_from_sldc of every code that has groups (the build grid,
    fig1, eq28 and fig4), then replicated_scheme of every fixture."""
    lifted = [scheme_from_sldc(code) for code in codes.values() if code.groups is not None]
    return lifted + [replicated_scheme(codes[name]) for name in FIXTURE_NAMES]


class TestSchemeFromCode:
    def test_2_3_layout(self, codes):
        scheme = scheme_from_sldc(codes[(2, 3)])
        assert scheme.n_databases == 2
        assert all(scheme.query_space(n) == 4 for n in (1, 2))

    def test_2_2_layout(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        assert scheme.n_databases == 2
        assert scheme.databases == ((0, 3), (1, 2))

    def test_every_entry_serves_its_set(self, codes):
        for scheme in all_schemes(codes):
            for sup, entries in zip(scheme.code.supersets, scheme.query_sets, strict=True):
                for set_index, queries in entries:
                    assert 0 <= set_index < len(sup.sets)
                    assert tuple(sorted(scheme.served_symbols(queries))) == sup.sets[set_index]

    def test_ungroupable_code_rejected(self, codes):
        with pytest.raises(SchemeError, match="group"):
            scheme_from_sldc(codes["fig2"])

    def test_replicated_fixture_becomes_two_databases(self, codes):
        scheme = scheme_from_sldc(codes["fig1"])
        assert scheme.databases == ((0, 1, 2), (3, 4, 5))


class TestGenQuery:
    def test_deterministic_given_seed(self, codes):
        scheme = scheme_from_sldc(codes[(2, 3)])
        assert gen_query(scheme, 2, 9) == gen_query(scheme, 2, 9)

    def test_queries_consistent_with_set(self, codes):
        scheme = scheme_from_sldc(codes[(3, 2)])
        rng = random.Random(0)
        for _ in range(50):
            bundle = gen_query(scheme, rng.randint(1, 2), rng)
            served = {scheme.databases[n][q] for n, q in enumerate(bundle.queries)}
            assert served == set(bundle.members)

    def test_single_message_is_fixed(self, codes):
        scheme = scheme_from_sldc(codes[(2, 1)])
        bundle = gen_query(scheme, 1, 5)
        assert bundle.set_index == 0
        assert bundle.queries == (0, 0)

    def test_set_choice_uniform_within_binomial_tolerance(self, codes):
        scheme = scheme_from_sldc(codes[(2, 3)])
        rng = random.Random(31337)
        draws = 4096
        counts = [0, 0, 0, 0]
        for _ in range(draws):
            counts[gen_query(scheme, 1, rng).set_index] += 1
        expected = draws / 4
        sigma = math.sqrt(draws * 0.25 * 0.75)
        for c in counts:
            assert abs(c - expected) < 5 * sigma

    def test_bundles_pinned(self, codes):
        schemes = all_schemes(codes)
        assert len(schemes) == 14
        digest = hashlib.sha256()
        for scheme in schemes:
            for theta in range(1, scheme.code.params.K + 1):
                for seed in range(50):
                    digest.update(repr(gen_query(scheme, theta, seed)).encode())
        assert digest.hexdigest() == BUNDLES_DIGEST

    def test_repeated_set_drawn_as_often_as_the_others(self, codes):
        # superset 1 lists set 0 twice: each listing is its own entry
        code = codes["fig1"]
        first = code.supersets[0]
        doubled = DecodingSuperset(k=1, sets=first.sets + first.sets[:1])
        scheme = scheme_from_sldc(with_supersets(code, [doubled, *code.supersets[1:]]))
        rng = random.Random(2024)
        draws = 4000
        counts = [0] * len(doubled.sets)
        for _ in range(draws):
            counts[gen_query(scheme, 1, rng).set_index] += 1
        expected = draws / len(counts)
        sigma = math.sqrt(draws * (1 / len(counts)) * (1 - 1 / len(counts)))
        for c in counts:
            assert abs(c - expected) < 5 * sigma, counts

    def test_theta_validated(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        with pytest.raises(IndexError):
            gen_query(scheme, 3, 0)


class TestAnswer:
    def test_zero_messages(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        zeros = BitVector.zeros(8)
        assert not answer(scheme, 1, 0, zeros).any()

    def test_answer_length_is_lx(self, codes):
        scheme = scheme_from_sldc(codes[(2, 3)])
        msg = BitVector.zeros(24)
        assert answer(scheme, 2, 3, msg).length == 7

    def test_matches_table_evaluation(self, codes):
        scheme = scheme_from_sldc(codes["eq28"])
        msg = BitVector.from_bits([1, 0, 0, 0, 0, 0, 0, 0])
        assert scheme.databases == ((0, 2), (1, 3))
        assert answer(scheme, 1, 1, msg).to_bits() == [1, 0, 0]  # X3
        assert answer(scheme, 2, 0, msg).to_bits() == [1, 0, 0]  # X2

    def test_out_of_range_query(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        with pytest.raises(IndexError):
            answer(scheme, 1, 2, BitVector.zeros(8))


class TestReconstruct:
    @pytest.mark.parametrize("nk", [(2, 2), (2, 3), (3, 2)])
    def test_end_to_end(self, codes, nk, grid_schemes):
        scheme = grid_schemes[nk]
        code = scheme.code
        rng = random.Random(hash(nk) & 0xFFFF)
        msg = random_message(code, rng)
        for theta in range(1, code.params.K + 1):
            bundle = gen_query(scheme, theta, rng)
            answers = [
                answer(scheme, n, bundle.queries[n - 1], msg)
                for n in range(1, scheme.n_databases + 1)
            ]
            got = reconstruct(scheme, bundle, answers)
            assert list(got.to_bits()) == message_slice(code, msg, theta)
            assert got.length == code.params.Lw

    def test_retrieved_message_is_lw_bits(self, grid_schemes):
        scheme = grid_schemes[(2, 3)]
        msg = BitVector.zeros(24)
        bundle = gen_query(scheme, 1, 0)
        answers = [answer(scheme, n, bundle.queries[n - 1], msg) for n in (1, 2)]
        assert reconstruct(scheme, bundle, answers).length == 8

    def test_tampered_answer_detected_or_wrong(self, codes):
        scheme = scheme_from_sldc(codes[(2, 3)])
        code = scheme.code
        rng = random.Random(6)
        msg = random_message(code, rng)
        bundle = gen_query(scheme, 1, rng)
        answers = [answer(scheme, n, bundle.queries[n - 1], msg) for n in (1, 2)]
        flip = BitVector.from_bits([1, 0, 0, 0, 0, 0, 0])
        answers[0] = answers[0] ^ flip
        try:
            got = reconstruct(scheme, bundle, answers)
        except DecodeFailure:
            return
        assert list(got.to_bits()) != message_slice(code, msg, 1)


class TestPrivacyAudit:
    def test_grid_uniform_and_private(self, grid_schemes):
        for (n, k), scheme in grid_schemes.items():
            result = privacy_audit(scheme)
            assert result.passed, (n, k)
            assert result.uniform
            expected = Fraction(1, n ** (k - 1))
            assert all(p == expected for dist in result.table.values() for p in dist)

    def test_replicated_fixture_uniform_thirds(self, codes):
        result = privacy_audit(scheme_from_sldc(codes["fig1"]))
        assert result.passed
        assert all(p == Fraction(1, 3) for dist in result.table.values() for p in dist)

    def test_deleting_a_set_breaks_privacy(self, codes):
        code = codes[(2, 2)]
        bad = with_supersets(
            code,
            [
                DecodingSuperset(k=1, sets=(code.supersets[0].sets[0],)),
                code.supersets[1],
            ],
        )
        result = privacy_audit(scheme_from_sldc(bad))
        assert not result.passed
        witness = result.witnesses[0]
        assert set(witness) >= {"n", "q", "k", "k_prime", "p_k", "p_k_prime"}

    def test_marginals_sum_to_one(self, grid_schemes):
        scheme = grid_schemes[(3, 3)]
        for dist in query_distributions(scheme).values():
            assert sum(dist) == 1


class TestDeniabilityAudit:
    def test_privacy_implies_deniability(self, grid_schemes):
        for scheme in grid_schemes.values():
            if privacy_audit(scheme).passed:
                assert deniability_audit(scheme).passed

    def test_missing_answer_support_detected(self, codes):
        code = codes[(2, 2)]
        # second superset loses the only set serving database 1's answer 0
        bad = with_supersets(
            code,
            [
                code.supersets[0],
                DecodingSuperset(k=2, sets=(code.supersets[1].sets[1],)),
            ],
        )
        result = deniability_audit(scheme_from_sldc(bad))
        assert not result.passed
        assert {"n": 1, "q": 0, "k": 2} in result.witnesses


class TestReplicatedScheme:
    def test_deniable_but_not_private(self, codes):
        # storing every symbol on both databases makes any universal code
        # repudiative, at an N-fold answer expansion
        scheme = replicated_scheme(codes["intro_nonsmooth"])
        assert scheme.databases == ((0, 1, 2, 3), (0, 1, 2, 3))
        assert deniability_audit(scheme).passed
        assert not privacy_audit(scheme).passed

    def test_retrieval_still_works(self, codes):
        scheme = replicated_scheme(codes["intro_nonsmooth"])
        code = scheme.code
        rng = random.Random(17)
        msg = random_message(code, rng)
        for theta in (1, 2, 3):
            for _ in range(10):
                bundle = gen_query(scheme, theta, rng)
                answers = [
                    answer(scheme, n, bundle.queries[n - 1], msg)
                    for n in range(1, scheme.n_databases + 1)
                ]
                got = reconstruct(scheme, bundle, answers)
                assert list(got.to_bits()) == message_slice(code, msg, theta)

    def test_expansion_factor(self, codes):
        scheme = replicated_scheme(codes["fig2"])
        total_answers = sum(scheme.query_space(n) for n in (1, 2))
        assert total_answers == scheme.code.params.N * scheme.code.params.M
        assert deniability_audit(scheme).passed


class TestCostMetrics:
    def test_2_3(self, grid_schemes):
        costs = cost_metrics(grid_schemes[(2, 3)])
        assert costs.upload_bits == pytest.approx(2.0, abs=1e-12)
        assert costs.download_bits == 7
        assert costs.rate == Fraction(4, 7)

    def test_3_3(self, grid_schemes):
        costs = cost_metrics(grid_schemes[(3, 3)])
        assert costs.upload_bits == pytest.approx(math.log2(9), abs=1e-12)
        assert costs.rate == Fraction(9, 13)

    def test_single_message(self, grid_schemes):
        costs = cost_metrics(grid_schemes[(2, 1)])
        assert costs.upload_bits == 0.0
        assert costs.rate == 1

    def test_grid_matches_closed_forms(self, grid_schemes):
        for (n, k), scheme in grid_schemes.items():
            costs = cost_metrics(scheme)
            assert costs.rate == pir_capacity(n, k)
            assert costs.upload_bits == pytest.approx(min_upload_bits(n, k), abs=1e-12)

    def test_scheme_level_smoothness(self, grid_schemes):
        # each answer is served by the same number of sets for every message
        for scheme in grid_schemes.values():
            position = {
                symbol: (n, q)
                for n, answers in enumerate(scheme.databases, start=1)
                for q, symbol in enumerate(answers)
            }
            per_k = {}
            for sup in scheme.code.supersets:
                counts = {}
                for members in sup.sets:
                    for symbol in members:
                        counts[position[symbol]] = counts.get(position[symbol], 0) + 1
                per_k[sup.k] = counts
            baseline = per_k[1]
            assert all(counts == baseline for counts in per_k.values())
