import gc
import itertools
import random
import weakref

import pytest

from oracles import brute_force_conditional_entropy
from smoothldc import build_sldc, entropy
from smoothldc.entropy import (
    conditional_entropy,
    distinct_information,
    oracle_for,
    same_information,
)
from smoothldc.gf2 import column_mask

SMALL_FIXTURES = ("fig1", "intro_nonsmooth", "eq28", "fig2")  # <= 12 message bits
FIXTURE_NAMES = SMALL_FIXTURES + ("fig4",)


class TestConditionalEntropy:
    def test_systematic_symbol_given_its_source(self, codes):
        assert conditional_entropy(codes["fig1"], [0], [1]) == 0

    def test_two_independent_symbols(self, codes):
        assert conditional_entropy(codes["fig1"], [0, 3]) == 2

    def test_built_symbol_entropy(self, codes):
        code = codes[(2, 2)]
        for m in range(code.params.M):
            assert conditional_entropy(code, [m]) == 3

    def test_empty_set(self, codes):
        assert conditional_entropy(codes["fig1"], []) == 0

    def test_index_validation(self, codes):
        with pytest.raises(IndexError):
            conditional_entropy(codes["fig1"], [6])
        with pytest.raises(IndexError):
            conditional_entropy(codes["fig1"], [0], [4])

    def test_monotone_in_conditioning(self, codes):
        rng = random.Random(77)
        for name in SMALL_FIXTURES:
            code = codes[name]
            p = code.params
            for _ in range(50):
                a = rng.sample(range(p.M), rng.randint(0, p.M))
                j = set(rng.sample(range(1, p.K + 1), rng.randint(0, p.K)))
                j_sub = set(x for x in j if rng.random() < 0.5)
                assert conditional_entropy(code, a, j) <= conditional_entropy(code, a, j_sub)

    def test_subadditive(self, codes):
        rng = random.Random(78)
        for name in SMALL_FIXTURES:
            code = codes[name]
            p = code.params
            for _ in range(30):
                a = rng.sample(range(p.M), rng.randint(1, p.M))
                total = sum(conditional_entropy(code, [i]) for i in a)
                assert conditional_entropy(code, a) <= total


class TestOracleLifetime:
    def test_deleted_codes_free_their_oracles(self):
        gc.collect()
        before = len(entropy._oracles)
        codes = [build_sldc(2, k) for k in (1, 2, 3)]
        for code in codes:
            assert conditional_entropy(code, [0, 1]) > 0
        assert len(entropy._oracles) == before + 3
        refs = [weakref.ref(code) for code in codes]
        del code, codes
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(entropy._oracles) == before


class TestConditioningMasks:
    @pytest.mark.parametrize("name", [(2, 3), (3, 3), (2, 4), (4, 3), *FIXTURE_NAMES], ids=str)
    def test_block_masks_equal_column_masks(self, codes, name):
        code = codes[name] if name in codes else build_sldc(*name)
        p = code.params
        ora = entropy.RankOracle(code)
        for size in range(p.K + 1):
            for given in itertools.combinations(range(1, p.K + 1), size):
                kept = [c for k in range(1, p.K + 1) if k not in given for c in code.message_columns(k)]
                assert ora._mask_without(frozenset(given)) == column_mask(p.K * p.Lw, kept)


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("name", SMALL_FIXTURES + ((2, 2),))
    def test_matches_joint_distribution_entropy(self, codes, name):
        code = codes[name]
        p = code.params
        assert p.K * p.Lw <= 12
        rng = random.Random(hash(str(name)) & 0xFFFF)
        for _ in range(200):
            a = rng.sample(range(p.M), rng.randint(0, p.M))
            j = rng.sample(range(1, p.K + 1), rng.randint(0, p.K))
            exact = conditional_entropy(code, a, j)
            brute = brute_force_conditional_entropy(code, a, j)
            assert abs(brute - exact) < 1e-9
            assert round(brute) == exact


class TestSameInformation:
    def test_reflexive(self, codes):
        for name in ("fig1", "intro_nonsmooth"):
            code = codes[name]
            for i in range(code.params.M):
                assert same_information(code, i, i, (1,))

    def test_mutual_determination(self, codes):
        # given W_2, the symbols W_3 and W_2+W_3 determine each other
        assert same_information(codes["intro_nonsmooth"], 2, 3, (3,))

    def test_not_same(self, codes):
        assert not same_information(codes["intro_nonsmooth"], 0, 1, (1,))

    def test_transitive_over_all_fixtures(self, codes):
        # exhaustively over triples and conditioning sets
        import itertools

        for name in ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4"):
            code = codes[name]
            p = code.params
            ksets = [
                frozenset(c)
                for r in range(1, p.K + 1)
                for c in itertools.combinations(range(1, p.K + 1), r)
            ]
            for kset in ksets:
                related = {
                    (i1, i2)
                    for i1 in range(p.M)
                    for i2 in range(p.M)
                    if same_information(code, i1, i2, kset)
                }
                for i1, i2 in related:
                    for i3 in range(p.M):
                        if (i2, i3) in related:
                            assert (i1, i3) in related, (name, kset, i1, i2, i3)


class TestDistinctInformation:
    def test_decoding_pair_is_distinct(self, codes):
        code = codes["fig1"]
        ora = oracle_for(code)
        assert distinct_information(code, 0, 3, 1)
        # both sides of the defining equality are 1 bit here
        assert ora.entropy((0,), (2, 3)) == 1
        assert ora.entropy((0, 3), (2, 3)) - ora.entropy((3,), (2, 3)) == 1

    def test_self_is_not_distinct_when_informative(self, codes):
        code = codes["fig1"]
        for i in range(code.params.M):
            for k in range(1, 4):
                ora = oracle_for(code)
                others = frozenset(range(1, 4)) - {k}
                if ora.entropy((i,), others) > 0:
                    assert not distinct_information(code, i, i, k)

    def test_built_decoding_pairs(self, codes):
        code = codes[(2, 2)]
        for sup in code.supersets:
            for members in sup.sets:
                i1, i2 = members
                assert distinct_information(code, i1, i2, sup.k)
                assert distinct_information(code, i2, i1, sup.k)


class TestRawKeyPath:
    """Every form of the same query gives the brute-force answer and is
    cached once, under one key, and a bad query always raises."""

    @staticmethod
    def forms(a, j):
        rng = random.Random(len(a) * 31 + len(j))
        shuffled_a, shuffled_j = list(a), list(j)
        rng.shuffle(shuffled_a)
        rng.shuffle(shuffled_j)
        return [
            (tuple(a), tuple(j)),
            (tuple(shuffled_a), tuple(shuffled_j)),
            (tuple(shuffled_a), frozenset(j)),
            (tuple(shuffled_a + shuffled_a[:1]), frozenset(j)),
            (list(shuffled_a), list(shuffled_j)),
            ((i for i in shuffled_a), (k for k in shuffled_j)),
            (tuple(a), (k for k in shuffled_j)),
            (list(a), frozenset(j)),
        ]

    @pytest.mark.parametrize("name", SMALL_FIXTURES + ((2, 2),))
    def test_every_argument_form_matches_brute_force(self, codes, name):
        code = codes[name]
        p = code.params
        ora = oracle_for(code)
        rng = random.Random(str(name))
        for _ in range(40):
            a = rng.sample(range(p.M), rng.randint(0, p.M))
            j = rng.sample(range(1, p.K + 1), rng.randint(0, p.K))
            expected = round(brute_force_conditional_entropy(code, a, j))
            for symbols, given in self.forms(a, j):
                assert ora.entropy(symbols, given) == expected
            assert ora.message_entropy_given(1, tuple(a), frozenset(j)) == ora.message_entropy_given(
                1, list(a), list(j)
            )

    def test_every_argument_form_shares_one_cache_entry(self):
        ora = entropy.RankOracle(build_sldc(2, 2))
        for symbols, given in self.forms([3, 0, 2], [2]):
            ora.entropy(symbols, given)
        assert len(ora._cache) == 1

    def test_bad_queries_raise_after_valid_ones_are_cached(self):
        code = build_sldc(2, 2)
        ora = oracle_for(code)
        for symbols, given in [((0, 1), (1,)), ((3,), frozenset({2})), ((), ())]:
            ora.entropy(symbols, given)
        bad = [
            ((4,), ()),
            ((-1,), ()),
            ((0, 4), (1,)),
            ((0,), (0,)),
            ((0,), (3,)),
            ((0,), frozenset({1, 3})),
            ((), (3,)),
            ([4], []),
            ((0,), [3]),
        ]
        for _ in range(3):
            for symbols, given in bad:
                with pytest.raises(IndexError):
                    ora.entropy(symbols, given)
        for _ in range(3):
            with pytest.raises(TypeError):
                ora.entropy(([0],), ())
            with pytest.raises(TypeError):
                ora.entropy((0,), ([1],))
            with pytest.raises(TypeError):
                ora.entropy((0, "a"), ())

    def test_one_rank_per_distinct_query(self, monkeypatch):
        code = build_sldc(2, 2)
        ranks = []
        real = entropy.rank_words
        monkeypatch.setattr(entropy, "rank_words", lambda rows: ranks.append(rows) or real(rows))
        ora = entropy.RankOracle(code)
        for symbols, given in [((0, 1), (1,)), ((1, 0), frozenset({1})), ([1, 0, 1], [1]),
                               ((1, 0), (1,)), ((2,), ()), ((2,), frozenset())]:
            ora.entropy(symbols, given)
        assert len(ranks) == 2
