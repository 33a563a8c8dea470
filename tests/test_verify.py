import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import generator_bit_flips, reference_converse, reference_corruption, reference_properties
from smoothldc import verify
from smoothldc.codespec import DecodingSuperset, LinearCodeSpec
from smoothldc.construct import build_sldc, load_fixture
from smoothldc.entropy import RankOracle, oracle_for
from smoothldc.verify import (
    ALL_CHECKS,
    PROPERTY_NAMES,
    BudgetError,
    TreeConstructionError,
    audit_converse_chain,
    build_nary_tree,
    check_capacity_properties,
    check_correctness,
    check_smoothness,
    check_universality,
    converse_witnesses,
    corruption_trial,
    enumerate_trees,
    leaf_distinctness,
    min_distance,
    sample_trees,
    trees_for_audit,
)

FIXTURE_NAMES = ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4")

# the published tree walkthrough on the non-smooth length-4 code:
# identity permutation, root X1, and these qualifying-set picks per node
WALKTHROUGH_CHOICES = [0, 0, 1, 0, 1, 2, 1]
WALKTHROUGH_LEAVES = (0, 2, 1, 2, 1, 3, 2, 1)  # X1 X3 X2 X3 X2 X4 X3 X2


def with_rows(code, rows):
    """code with symbol m's generator rows replaced by rows[m]."""
    return LinearCodeSpec(
        params=code.params,
        symbol_gens=rows,
        supersets=code.supersets,
        groups=code.groups,
        digits=code.digits,
        labels=code.labels,
        column_order=code.column_order,
    )


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


class TestStructureChecks:
    def test_fixtures_are_correct(self, codes):
        for name in ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4"):
            assert check_correctness(codes[name]).passed, name

    def test_built_codes_are_correct_smooth_universal(self, codes):
        for nk in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            code = codes[nk]
            assert check_correctness(code).passed
            assert check_smoothness(code)
            assert check_universality(code)

    def test_broken_decoding_set_reported_with_witness(self, codes):
        code = codes["fig1"]
        # swap X4 out of the first set of the first superset for X2
        bad = with_supersets(
            code,
            [
                DecodingSuperset(k=1, sets=((1, 3), (1, 4), (2, 5))),
                code.supersets[1],
                code.supersets[2],
            ],
        )
        result = check_correctness(bad)
        assert not result.passed
        assert result.witnesses[0]["k"] == 1
        assert result.witnesses[0]["set_index"] == 0
        assert result.witnesses[0]["residual_bits"] == 1

    def test_smoothness_negative(self, codes):
        assert not check_smoothness(codes["intro_nonsmooth"])

    def test_universality_negative(self, codes):
        code = codes["intro_nonsmooth"]
        # drop every set of the second superset that contains X1
        bad = with_supersets(
            code,
            [
                code.supersets[0],
                DecodingSuperset(k=2, sets=((1, 2), (2, 3))),
                code.supersets[2],
            ],
        )
        assert not check_universality(bad)
        assert check_universality(code)


class TestCapacityProperties:
    def test_built_2_2_passes_all(self, codes):
        report = check_capacity_properties(codes[(2, 2)])
        assert report.all_pass()
        assert report.failed() == []

    def test_built_2_3_passes_all(self, codes):
        assert check_capacity_properties(codes[(2, 3)]).all_pass()

    def test_replicated_code_fails_same_interference(self, codes):
        report = check_capacity_properties(codes["fig1"])
        p2a = report.results["p2a"]
        assert not p2a.passed
        first = p2a.witnesses[0]
        assert (first["k"], first["set_index"]) == (1, 0)
        assert {first["i1"], first["i2"]} == {"X1", "X4"}
        assert first["k_prime"] == 2
        assert first["h_i2_given_i1"] == 1

    def test_nonsmooth_code_fails_something(self, codes):
        report = check_capacity_properties(codes["intro_nonsmooth"])
        assert not report.all_pass()
        assert "p1" in report.failed()

    def test_incompat_holds_when_p1_passes(self, codes):
        # fig2 satisfies the nonzero-entropy property, so no pair may be
        # simultaneously same and distinct
        report = check_capacity_properties(codes["fig2"])
        assert report.results["p1"].passed
        assert report.results["p3"].passed


def same_battery(code):
    """check_capacity_properties agrees with the pair-loop reference on
    every flag and every witness list."""
    got, want = check_capacity_properties(code), reference_properties(code)
    assert got.universal == want.universal
    for key in PROPERTY_NAMES:
        assert got.results[key].name == want.results[key].name
        assert got.results[key].passed == want.results[key].passed, key
        assert got.results[key].witnesses == want.results[key].witnesses, key
    return got


# random generator rows on two transcribed codes' decoding sets
TEMPLATES = {name: load_fixture(name) for name in ("fig1", "eq28")}


@st.composite
def random_linear_codes(draw):
    template = TEMPLATES[draw(st.sampled_from(sorted(TEMPLATES)))]
    top = (1 << template.params.K * template.params.Lw) - 1
    # a zero row of the template stays zero, so each symbol keeps Lx stored bits
    rows = [[draw(st.integers(1, top)) if row else 0 for row in gen] for gen in template.symbol_gens]
    return with_rows(template, rows)


# every fig1 symbol stores W_1: p2b fails on W_1's sets, p3 on W_2's and W_3's
ALL_W1 = with_rows(TEMPLATES["fig1"], [[0b100]] * 6)


class TestPropertiesMatchReference:
    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), *FIXTURE_NAMES], ids=str)
    def test_built_codes_and_fixtures(self, codes, name):
        same_battery(codes[name] if name in codes else build_sldc(*name))

    @pytest.mark.parametrize("name, count", [("fig1", 27), ("intro_nonsmooth", 17)])
    def test_p3_witnesses_include_diagonal_pairs(self, codes, name, count):
        p3 = same_battery(codes[name]).results["p3"]
        assert len(p3.witnesses) == count
        assert any(w["i1"] == w["i2"] for w in p3.witnesses)

    @given(random_linear_codes())
    def test_random_linear_codes(self, code):
        same_battery(code)

    def test_p2b_and_p3_failures(self):
        report = same_battery(ALL_W1)
        assert report.failed() == ["p1", "p2b", "p2c", "p3"]


class TestTreeConstruction:
    def test_walkthrough_leaves(self, codes):
        tree = build_nary_tree(codes["intro_nonsmooth"], (1, 2, 3), 0, WALKTHROUGH_CHOICES)
        assert tree.leaves == WALKTHROUGH_LEAVES

    def test_parent_is_leftmost_child(self, codes):
        tree = build_nary_tree(codes[(2, 3)], (1, 2, 3), 5)
        parents = [tree.root]
        for level in tree.sets_by_depth:
            next_parents = []
            for parent, (_, members) in zip(parents, level):
                assert members[0] == parent
                next_parents.extend(members)
            parents = next_parents

    def test_single_source_symbol(self, codes):
        code = codes[(2, 1)]
        tree = build_nary_tree(code, (1,), 0)
        assert len(tree.leaves) == 2

    def test_leaf_count(self, codes):
        tree = build_nary_tree(codes[(2, 3)], (3, 1, 2), 2)
        assert len(tree.leaves) == 8

    def test_explicit_chooser_validated(self, codes):
        # set 1 of the first superset does not contain the root X2
        with pytest.raises(ValueError, match="does not contain"):
            build_nary_tree(codes["intro_nonsmooth"], (1, 2, 3), 1, [1])
        with pytest.raises(ValueError, match="ran out"):
            build_nary_tree(codes["intro_nonsmooth"], (1, 2, 3), 0, [0])
        with pytest.raises(ValueError, match="left 3 of its 10 set ids unused"):
            build_nary_tree(codes["intro_nonsmooth"], (1, 2, 3), 0, WALKTHROUGH_CHOICES + [5, 5, 5])
        with pytest.raises(TypeError, match="chooser"):
            build_nary_tree(codes["intro_nonsmooth"], (1, 2, 3), 0, chooser=42)

    def test_stuck_node_raises(self, codes):
        code = codes["intro_nonsmooth"]
        bad = with_supersets(
            code,
            [
                code.supersets[0],
                DecodingSuperset(k=2, sets=((1, 2), (2, 3))),
                code.supersets[2],
            ],
        )
        with pytest.raises(TreeConstructionError, match="X1"):
            build_nary_tree(bad, (2, 1, 3), 0)

    def test_enumeration_counts(self, codes):
        assert len(list(enumerate_trees(codes[(2, 2)]))) == 8
        assert len(list(enumerate_trees(codes[(2, 3)]))) == 48
        assert len(list(enumerate_trees(codes["fig1"]))) == 36

    def test_sampling_deterministic(self, codes):
        a = sample_trees(codes["intro_nonsmooth"], 10, seed=3)
        b = sample_trees(codes["intro_nonsmooth"], 10, seed=3)
        assert a == b

    def test_trees_for_audit_falls_back_to_sampling(self, codes):
        trees, exhaustive = trees_for_audit(codes["intro_nonsmooth"], budget=10, samples=17)
        assert not exhaustive
        assert len(trees) == 17

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -3}, {"budget": -1}], ids=str)
    def test_audit_of_no_trees_is_value_error(self, codes, kwargs):
        # at budget 5 the (2,3) code's 48 trees would be sampled
        with pytest.raises(ValueError, match="at least"):
            trees_for_audit(codes[(2, 3)], **{"budget": 5, "samples": 40, **kwargs})

    def test_negative_sample_count_is_value_error(self, codes):
        with pytest.raises(ValueError, match="at least 0"):
            sample_trees(codes[(2, 3)], -2)
        assert sample_trees(codes[(2, 3)], 0) == []


def tree_digest(trees):
    body = repr([(t.permutation, t.root, t.sets_by_depth) for t in trees])
    return hashlib.sha256(body.encode()).hexdigest()


# tree_digest of trees_for_audit(code, budget, samples, seed), all sampled,
# recorded while trees_for_audit still built budget + 1 trees first
SAMPLED_TREE_DIGESTS = {
    ((5, 3), 512, 100, 0): "58d46437cfaa0c402e04e6479a35746c4b7a86657f263456b38f6f02be91fb3c",
    ((5, 3), 5, 40, 9): "4a5492e6daa0aa4694793019d7edfa31e992031f819d29408ed426b35215d2e5",
    ((3, 3), 5, 40, 9): "c89dde64ca7ccd92aa386ef23ab815ce8498d6b7cccf72ab172f49265011b5a9",
    ((2, 3), 5, 40, 9): "daa03469ed51bcfe8fddc67158c22912037de72238c9b1b4fbe9b59393466382",
    ("intro_nonsmooth", 5, 40, 9): "dccb9cf52f5a53790f3dc04cf2e340ec2cc1186098fcbe243ad355051d95afaf",
}


class TestTreeCounting:
    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), *FIXTURE_NAMES], ids=str)
    def test_count_equals_enumeration(self, codes, name):
        code = codes[name] if name in codes else build_sldc(*name)
        assert sum(verify._trees_per_permutation(code)) == len(list(enumerate_trees(code)))

    @pytest.mark.parametrize("key", list(SAMPLED_TREE_DIGESTS), ids=str)
    def test_sampled_trees_unchanged(self, key):
        name, budget, samples, seed = key
        code = load_fixture(name) if isinstance(name, str) else build_sldc(*name)
        trees, exhaustive = trees_for_audit(code, budget=budget, samples=samples, seed=seed)
        assert (len(trees), exhaustive) == (samples, False)
        assert tree_digest(trees) == SAMPLED_TREE_DIGESTS[key]

    @pytest.mark.parametrize("key", list(SAMPLED_TREE_DIGESTS), ids=str)
    def test_each_sampled_tree_equals_build_nary_tree(self, key):
        name, budget, samples, seed = key
        code = load_fixture(name) if isinstance(name, str) else build_sldc(*name)
        for tree in trees_for_audit(code, budget=budget, samples=samples, seed=seed)[0]:
            assert tree == build_nary_tree(code, tree.permutation, tree.root, list(tree.choices))

    def test_over_budget_builds_no_tree_to_count(self, monkeypatch):
        code = build_sldc(5, 3)  # 750 trees
        monkeypatch.setattr(verify, "enumerate_trees", None)  # any call raises TypeError
        trees, exhaustive = trees_for_audit(code)
        assert (len(trees), exhaustive) == (100, False)
        with pytest.raises(TypeError):
            trees_for_audit(code, budget=750)

    def test_within_budget_is_exhaustive(self, codes):
        code = codes[(3, 3)]  # 162 trees
        trees, exhaustive = trees_for_audit(code, budget=162)
        assert exhaustive and trees == list(enumerate_trees(code))
        assert not trees_for_audit(code, budget=161)[1]


# SHA-256 of repr([(permutation, root, sets_by_depth), ...]) over
# enumerate_trees, recorded before enumerate_trees stopped calling
# build_nary_tree for every tree
TREE_SEQUENCE_DIGESTS = {
    (2, 3): (48, "754a8ccbcce216a63e141dbc4ad221371878b9d6059f66cd63665161390b3b21"),
    (3, 2): (18, "13b5f6610e2c44e4a1ad8166ca3724ae32cd4bb6474d6537b6303e63580f4cd0"),
    "fig1": (36, "a408096f94a6b2187c1557e23da8b43b64fb6c33289505338f09ba22bc68fc5b"),
    "fig2": (24, "6c11f08fb77f01381771a137dd0163a3b0f7b0986165435eb2e9162898dfb4cb"),
    "intro_nonsmooth": (248, "6e5729b1ecff9b7721a5f727f9057e0d8b5d4f415040322f001a3dbb7d32e0b1"),
    "eq28": (8, "2f60f8f6da77a53c98f22791ff7193f811c5e233c0af73a99ea7435441f245c1"),
    "fig4": (48, "316ef6d379494924a7f9f9841c029733fd2ad338ed8a5b5b2252fd7e890a2dc9"),
}


class TestEnumerationEquivalence:
    @pytest.mark.parametrize("name", list(TREE_SEQUENCE_DIGESTS), ids=str)
    def test_each_tree_equals_build_nary_tree(self, codes, name):
        code = codes[name]
        for tree in enumerate_trees(code):
            rebuilt = build_nary_tree(code, tree.permutation, tree.root, list(tree.choices))
            assert tree == rebuilt

    @pytest.mark.parametrize("name", list(TREE_SEQUENCE_DIGESTS), ids=str)
    def test_sequence_unchanged(self, codes, name):
        trees = list(enumerate_trees(codes[name]))
        body = repr([(t.permutation, t.root, t.sets_by_depth) for t in trees])
        assert (len(trees), hashlib.sha256(body.encode()).hexdigest()) == TREE_SEQUENCE_DIGESTS[name]

    @pytest.mark.parametrize("root", [8, 100])
    def test_out_of_range_root_is_index_error(self, codes, root):
        with pytest.raises(IndexError):
            build_nary_tree(codes[(2, 3)], (1, 2, 3), root)

    @pytest.mark.parametrize("perm", [(1, 1, 2), (0, 1, 2), (1, 2, 3, 1), (1, 2, 4), (1, 2)])
    def test_bad_permutation_is_value_error(self, codes, perm):
        with pytest.raises(ValueError, match="permutation"):
            build_nary_tree(codes[(2, 3)], perm, 0)

    def test_stuck_node_raises_during_enumeration(self, codes):
        code = codes["intro_nonsmooth"]
        bad = with_supersets(
            code,
            [code.supersets[0], DecodingSuperset(k=2, sets=((1, 2), (2, 3))), code.supersets[2]],
        )
        with pytest.raises(TreeConstructionError, match="X1"):
            list(enumerate_trees(bad))


class TestLeafDistinctness:
    def test_walkthrough_duplicate(self, codes):
        tree = build_nary_tree(codes["intro_nonsmooth"], (1, 2, 3), 0, WALKTHROUGH_CHOICES)
        ok, witness = leaf_distinctness(tree)
        assert not ok
        assert codes["intro_nonsmooth"].label(witness) == "X2"

    @pytest.mark.parametrize("nk", [(2, 2), (2, 3)])
    def test_built_codes_all_distinct(self, codes, nk):
        for tree in enumerate_trees(codes[nk]):
            ok, _ = leaf_distinctness(tree)
            assert ok

    def test_short_codes_always_collide(self, codes):
        # with fewer symbols than leaves the pigeonhole forces duplicates
        for name in ("fig1", "fig2"):
            code = codes[name]
            assert code.params.M < code.params.N ** code.params.K
            for tree in enumerate_trees(code):
                assert not leaf_distinctness(tree)[0]
        for tree in itertools.islice(enumerate_trees(codes["intro_nonsmooth"]), 100):
            assert not leaf_distinctness(tree)[0]


class TestConverseAudit:
    def test_built_2_2_tight(self, codes):
        code = codes[(2, 2)]
        for tree in enumerate_trees(code):
            audit = audit_converse_chain(code, tree)
            assert audit.total_bits == 12
            assert audit.bound_bits == 12
            assert audit.tight
            assert all(level.slack == 0 for level in audit.levels)

    def test_replicated_code_one_bit_slack(self, codes):
        code = codes["fig1"]
        for tree in enumerate_trees(code):
            audit = audit_converse_chain(code, tree)
            assert audit.total_bits == 8
            assert audit.bound_bits == 7
            assert audit.total_slack == 1

    def test_single_source_trivial_tree(self, codes):
        single = codes[(2, 1)]
        tree = build_nary_tree(single, (1,), 1)
        audit = audit_converse_chain(single, tree)
        assert audit.total_slack == 0

    def test_slack_never_negative(self, codes):
        for name in ("fig1", "fig2", "intro_nonsmooth", "eq28", "fig4", (2, 2), (3, 2)):
            code = codes[name]
            trees = sample_trees(code, 20, seed=11)
            for tree in trees:
                audit = audit_converse_chain(code, tree)
                assert audit.total_slack >= 0
                assert all(level.slack >= 0 for level in audit.levels)

    def test_level_sums_telescope(self, codes):
        code = codes[(3, 3)]
        tree = build_nary_tree(code, (2, 3, 1), 13)
        audit = audit_converse_chain(code, tree)
        assert audit.total_slack == sum(level.slack for level in audit.levels)


def sigma(code, k, given, members, x):
    """sigma(k, J, S, x) = sum over m in S of H(X_m | W_J), less Lw and
    H(X_x | W_{J+k})."""
    ora = oracle_for(code)
    j = frozenset(given)
    return sum(ora.entropy((m,), j) for m in members) - code.params.Lw - ora.entropy((x,), j | {k})


def same_converse(code, trees, exhaustive):
    """converse_witnesses agrees with the label-by-label reference."""
    got = converse_witnesses(code, trees, exhaustive)
    assert got == reference_converse(code, trees)
    return got


class TestConverseWitnesses:
    @pytest.mark.parametrize("nk", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 3)], ids=str)
    def test_built_codes_exhaustive(self, codes, nk):
        code = codes[nk] if nk in codes else build_sldc(*nk)
        trees, exhaustive = trees_for_audit(code)
        assert exhaustive
        assert same_converse(code, trees, exhaustive) == []

    @pytest.mark.parametrize("nk", [(5, 3), (3, 4)], ids=str)
    def test_built_codes_sampled(self, nk):
        code = build_sldc(*nk)
        trees, exhaustive = trees_for_audit(code)
        assert not exhaustive
        assert same_converse(code, trees, exhaustive) == []

    @pytest.mark.parametrize("name", [(2, 3), (3, 3), *FIXTURE_NAMES], ids=str)
    def test_small_budget(self, codes, name):
        trees, exhaustive = trees_for_audit(codes[name], budget=5, samples=40, seed=9)
        same_converse(codes[name], trees, exhaustive)

    @pytest.mark.parametrize(
        "name, count", [("fig1", 36), ("fig2", 24), ("intro_nonsmooth", 248), ("eq28", 0), ("fig4", 0)]
    )
    def test_fixtures(self, codes, name, count):
        trees, exhaustive = trees_for_audit(codes[name])
        assert exhaustive
        assert len(same_converse(codes[name], trees, exhaustive)) == count

    @given(random_linear_codes(), st.sampled_from([verify.DEFAULT_TREE_BUDGET, 5]))
    def test_random_linear_codes(self, code, budget):
        trees, exhaustive = trees_for_audit(code, budget=budget, samples=40, seed=9)
        same_converse(code, trees, exhaustive)

    def test_tight_exhaustive_audit_reads_no_tree(self, codes):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("a tree was read")

        assert converse_witnesses(codes[(3, 3)], Unread(), True) == []
        with pytest.raises(AssertionError, match="read"):
            converse_witnesses(codes[(3, 3)], Unread(), False)

    @pytest.mark.parametrize("name", ["fig1", "fig2", "intro_nonsmooth", (2, 3)], ids=str)
    def test_audit_converse_chain_agrees(self, codes, name):
        code = codes[name]
        trees = list(enumerate_trees(code))
        witnesses = []
        for tree in trees:
            audit = audit_converse_chain(code, tree)
            if not audit.tight:
                witnesses.append(
                    {"permutation": list(tree.permutation), "root": code.label(tree.root),
                     "total_slack_bits": audit.total_slack}
                )
        assert witnesses == reference_converse(code, trees)


class TestSigma:
    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (3, 3), *FIXTURE_NAMES], ids=str)
    def test_level_slack_is_the_sum_of_its_sets_sigma(self, codes, name):
        code = codes[name]
        for tree in enumerate_trees(code):
            perm = tree.permutation
            for level in audit_converse_chain(code, tree).levels:
                depth = level.depth
                parents = tree.labels_at_depth(depth - 1)
                sets = tree.sets_by_depth[depth - 1]
                assert level.slack == sum(
                    sigma(code, perm[depth - 1], perm[depth:], members, x)
                    for x, (_, members) in zip(parents, sets)
                )

    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), *FIXTURE_NAMES], ids=str)
    def test_sigma_never_negative_on_a_correct_code(self, codes, name):
        code = codes[name]
        assert check_correctness(code).passed
        for sup in code.supersets:
            rest = [j for j in range(1, code.params.K + 1) if j != sup.k]
            for given in itertools.chain.from_iterable(
                itertools.combinations(rest, size) for size in range(len(rest) + 1)
            ):
                for members in sup.sets:
                    for x in members:
                        assert sigma(code, sup.k, given, members, x) >= 0


class TestMinDistance:
    def test_replicated_code(self, codes):
        result = min_distance(codes["fig1"])
        assert result.distance == 3
        assert (0, 4, 5) in result.witnesses  # X1, X5, X6
        assert result.witness == (0, 1, 2)  # lexicographically smallest wins

    def test_smooth_codes_meet_bound(self, codes):
        for name in ("fig1", "eq28", (2, 2), (2, 3)):
            code = codes[name]
            p = code.params
            assert min_distance(code).distance >= p.M / p.N

    def test_systematic_code_distance_one(self, codes):
        result = min_distance(codes["intro_nonsmooth"])
        assert result.distance == 1
        assert result.witness == (0,)

    def test_budget(self, codes):
        with pytest.raises(BudgetError, match="exceeds the budget of 24$"):
            min_distance(codes[(3, 3)])


class TestCorruption:
    def test_replicated_code_third(self, codes):
        report = corruption_trial(codes["fig1"], Fraction(1, 3))
        assert report.corrupted_count == 2
        assert report.every_pattern_leaves_clean_set
        assert report.min_success >= Fraction(1, 3)
        assert not report.guarantee_void

    def test_no_corruption(self, codes):
        report = corruption_trial(codes["eq28"], 0)
        assert report.min_success == 1

    def test_built_2_2_single_corruption(self, codes):
        report = corruption_trial(codes[(2, 2)], Fraction(1, 4))
        assert report.min_success == Fraction(1, 2)

    def test_fraction_of_symbols_floored(self, codes):
        report = corruption_trial(codes["fig1"], Fraction(1, 4))
        assert report.corrupted_count == 1

    def test_guarantee_void_flag(self, codes):
        report = corruption_trial(codes["fig1"], Fraction(1, 2))
        assert report.guarantee_void

    def test_float_delta_normalized(self, codes):
        report = corruption_trial(codes["fig1"], 1 / 3)
        assert report.delta == Fraction(1, 3)
        assert report.corrupted_count == 2

    # intro_nonsmooth's decoding sets overlap; every other code's are disjoint
    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), *FIXTURE_NAMES], ids=str)
    def test_one_pass_matches_the_pattern_list(self, codes, name):
        code = codes[name] if name in codes else build_sldc(*name)
        p = code.params
        default = Fraction(max(-(-p.M // p.N) - 1, 0), p.M)
        for delta in (Fraction(0), default, Fraction(1, p.N), Fraction(1)):
            assert repr(corruption_trial(code, delta)) == repr(reference_corruption(code, delta))

    def test_exact_trial_keeps_no_pattern_list(self):
        code = build_sldc(2, 4)  # M = 16: C(16, 7) = 11440 patterns at the default delta
        tracemalloc.start()
        try:
            corruption_trial(code, Fraction(7, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestBatteryOptions:
    @pytest.mark.parametrize(
        "names, options, message",
        [
            (["correctness", "properties", "corruption"], {"delta": Fraction(3, 2)}, "delta must lie in"),
            (["properties", "tree"], {"samples": 0}, "samples must be at least 1"),
            (["properties", "tree"], {"tree_budget": -1}, "tree budget must be at least 0"),
        ],
        ids=["delta", "samples", "tree-budget"],
    )
    def test_bad_option_fails_before_any_entropy_query(self, codes, monkeypatch, names, options, message):
        calls = []
        entropy = RankOracle.entropy
        monkeypatch.setattr(RankOracle, "entropy", lambda self, *args: calls.append(args) or entropy(self, *args))
        with pytest.raises(ValueError, match=message):
            verify.run_checks(codes["fig1"], names, **options)
        assert calls == []


# One digest per built code over every verify row of all its seed-7
# one-bit generator mutants (44, 57 and 53 of them; 15, 2 and 19 pass
# every row), recorded before any shortcut replaced an enumeration.
MUTANT_REPORT_DIGESTS = {
    (2, 2): "238436d78f6b9154f5bd0e452e9d6be64b9483ce7847c3195922f9756c48b45f",
    (2, 3): "b68a8dc489445825d69c41166153888c52c1daa5c8302aaadf44ba60dd6a15f2",
    (3, 2): "5e0d08ff124853247f16a9ad3eac2595d4f750ed1fb9c1972be1af45d37806bd",
}


class TestMutantCorpus:
    @pytest.mark.parametrize("nk", list(MUTANT_REPORT_DIGESTS), ids=str)
    def test_every_row_of_every_bit_flip_pinned(self, codes, nk):
        reports = [
            [row.as_dict() for row in verify.run_checks(mutant, ALL_CHECKS)]
            for mutant in generator_bit_flips(codes[nk], seed=7)
        ]
        body = json.dumps(reports, sort_keys=True, default=str).encode()
        assert hashlib.sha256(body).hexdigest() == MUTANT_REPORT_DIGESTS[nk]

    def test_flips_keep_lx_nonzero_rows_and_change_one_bit(self, codes):
        code = codes[(2, 3)]
        for mutant in generator_bit_flips(code, seed=7):
            changed = [
                old ^ new
                for old_gen, new_gen in zip(code.symbol_gens, mutant.symbol_gens)
                for old, new in zip(old_gen, new_gen)
                if old != new
            ]
            assert len(changed) == 1 and changed[0].bit_count() == 1
