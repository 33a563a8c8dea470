import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    brute_force_conditional_entropy,
    coordinate_swaps_by_every_symbol,
    coordinate_symmetric_edits,
    decoding_set_edits,
    generator_bit_flips,
    pair_orbits_by_enumeration,
    permuted_symbols,
    reference_converse,
    reference_corruption,
    reference_properties,
    subgroup_codes,
    symmetric_edits,
    translated_set_codes,
    translations_by_every_generator,
)
from smoothldc import cli, verify
from smoothldc.capacity import CodeParams
from smoothldc.codespec import (
    COLUMN_ORDER_CANONICAL,
    COLUMN_ORDER_TRANSCRIBED,
    DecodingSuperset,
    LinearCodeSpec,
)
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
    membership_counts,
    min_distance,
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

    def test_reads_past_the_budget_are_refused_before_any_entropy_query(self, monkeypatch):
        # N = 2, M = 2, K = 511: both symbols hold the all-ones row and {0, 1}
        # is the one set of each source, so p1 reads 2*511 and p2 511*512
        k, reads = 511, 2 * 511 + 511 * 512
        code = LinearCodeSpec(CodeParams(N=2, K=k, M=2, Lw=1, Lx=1), [[(1 << k) - 1]] * 2,
                              [DecodingSuperset(j, ((0, 1),)) for j in range(1, k + 1)])
        monkeypatch.setattr(RankOracle, "entropy", None)  # any query raises TypeError
        with pytest.raises(BudgetError, match=f"takes {reads} entropy reads, more than {verify.PROPERTY_READS}$"):
            check_capacity_properties(code)
        assert 2 * 510 + 510 * 511 <= verify.PROPERTY_READS  # K = 510 is read

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

    def test_trees_for_audit_refuses_past_the_budget(self, codes):
        with pytest.raises(BudgetError, match="^248 trees exceed the tree budget of 10$"):
            trees_for_audit(codes["intro_nonsmooth"], budget=10)

    @pytest.mark.parametrize("kwargs", [{"budget": -1}], ids=str)
    def test_audit_of_no_trees_is_value_error(self, codes, kwargs):
        with pytest.raises(ValueError, match="at least"):
            trees_for_audit(codes[(2, 3)], **kwargs)


def same_walk(code):
    """The tree audit's walk counts the enumerated trees and decides their
    leaves as the full leaf row does, on the code and on its copy without
    digits. Returns whether every tree has distinct leaves."""
    trees = list(enumerate_trees(code))
    count, distinct = len(trees), all(leaf_distinctness(tree)[0] for tree in trees)
    for copy in (code, without_digits(code)):
        assert verify._tree_audit(copy, 0)[:2] == (count, distinct)
    return distinct


def doubled_supersets(code, seed):
    """Copies of a built code whose superset of W_k also holds the lines of
    W_k2, for each ordered pair k != k2 (the seed is unused): every
    translation keeps them, but no superset of theirs is a partition."""
    for k, k2 in itertools.permutations(range(1, code.params.K + 1), 2):
        supersets = list(code.supersets)
        sets = sorted(code.supersets[k - 1].sets + code.supersets[k2 - 1].sets)
        supersets[k - 1] = DecodingSuperset(k=k, sets=tuple(sets))
        yield with_supersets(code, supersets)


# every corpus of edits that tier-1 enumerates, by built size
EDITS = {"bit-flips": generator_bit_flips, "symmetric": symmetric_edits, "set-trades": decoding_set_edits,
         "subgroups": subgroup_codes, "doubled": doubled_supersets}


class TestTreeCounting:
    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), *FIXTURE_NAMES], ids=str)
    def test_count_equals_enumeration(self, codes, name):
        code = codes[name] if name in codes else build_sldc(*name)
        assert same_walk(code) == (name not in ("fig1", "fig2", "intro_nonsmooth"))

    # a doubled (3,3) superset offers 2^9 set choices at the last depth,
    # too many trees to enumerate
    @pytest.mark.parametrize(
        "corpus, nk",
        [(corpus, nk) for corpus in EDITS for nk in [(2, 2), (2, 3), (3, 2), (3, 3)] if (corpus, nk) != ("doubled", (3, 3))],
        ids=str,
    )
    def test_walk_equals_enumeration_on_edits(self, codes, corpus, nk):
        failing = 0
        for mutant in EDITS[corpus](codes[nk], seed=7):
            if check_universality(mutant):  # set copies are refused before any walk
                failing += not same_walk(mutant)
        # bit flips keep the built sets; the other corpora fail the leaf row
        assert (failing > 0) == (corpus != "bit-flips")

    def test_over_budget_builds_no_tree_to_count(self, monkeypatch):
        code = build_sldc(5, 3)  # 750 trees
        monkeypatch.setattr(verify, "enumerate_trees", None)  # any call raises TypeError
        rows = verify.run_checks(code, ["tree", "converse"])
        assert [(row.passed, row.details) for row in rows] == [(True, {"trees": 750, "exhaustive": True})] * 2
        with pytest.raises(TypeError):
            trees_for_audit(code, budget=750)

    def test_within_budget_is_exhaustive(self, codes):
        code = codes[(3, 3)]  # 162 trees
        assert trees_for_audit(code, budget=162) == list(enumerate_trees(code))
        with pytest.raises(BudgetError, match="^162 trees exceed the tree budget of 161$"):
            trees_for_audit(code, budget=161)

    @pytest.mark.parametrize("name", ["fig1", "eq28", "intro_nonsmooth", (3, 3), (3, 4)], ids=str)
    def test_a_battery_counts_its_trees_once(self, codes, monkeypatch, name):
        code = codes[name] if name in codes else build_sldc(*name)
        calls = []
        audit = verify._tree_audit
        monkeypatch.setattr(verify, "_tree_audit", lambda *args: calls.append(args) or audit(*args))
        verify.run_checks(code, verify.DEFAULT_CHECKS)
        assert len(calls) == 1

    # only root 0 of the orbit view is walked, in one order of the sources
    @pytest.mark.parametrize(
        "nk, count", [((5, 3), 750), ((3, 4), 1944), ((6, 3), 1296), ((2, 6), 46080), ((4, 4), 6144),
                      ((2, 8), 10321920)], ids=str,
    )
    def test_built_codes_have_k_factorial_times_m_trees(self, nk, count):
        code = build_sldc(*nk)
        assert verify._tree_audit(code, 0)[:2] == (count, True)
        assert count == math.factorial(code.params.K) * code.params.M

    def test_walk_states_are_capped(self, codes, monkeypatch):
        monkeypatch.setattr(verify, "WALK_STATES", 20)
        rows = verify.run_checks(without_digits(codes[(2, 3)]), ["tree", "converse"])
        error = "walking the trees takes 128 states, more than 20"  # (1 + 3 + 6 + 6) suffixes, 8 nodes
        assert [row.witnesses for row in rows] == [[{"error": error}]] * 2


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
            for tree in enumerate_trees(code):
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


def same_converse(code, trees):
    """converse_witnesses agrees with the label-by-label reference."""
    got = converse_witnesses(code, trees)
    assert got == reference_converse(code, trees)
    return got


def same_rows_past_the_budget(code):
    """Each tree row of code at tree budget 0 is the row within the budget
    with its witnesses cut to the first, or, for the converse of a code
    that fails correctness (a sigma below 0), an error. Returns the rows."""
    names = ["correctness", "tree", "converse"]
    within = verify.run_checks(code, names, tree_budget=10**6)
    past = verify.run_checks(code, names, tree_budget=0)
    assert past[0] == within[0]
    for full, cut in zip(within[1:], past[1:]):
        if cut.witnesses and "error" in cut.witnesses[0]:
            assert cut.name == "converse-tightness" and not within[0].passed, cut.witnesses
            assert cut.witnesses[0]["error"].startswith("a sigma below 0 (an incorrect code) ")
        else:
            assert cut.as_dict() == dict(full.as_dict(), witnesses=full.witnesses[:1])
    return within


class TestConverseWitnesses:
    @pytest.mark.parametrize("nk", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 3)], ids=str)
    def test_built_codes_exhaustive(self, codes, nk):
        code = codes[nk] if nk in codes else build_sldc(*nk)
        assert same_converse(code, trees_for_audit(code)) == []

    @pytest.mark.parametrize("nk", [(5, 3), (3, 4)], ids=str)
    def test_built_codes_past_the_budget(self, nk):
        code = build_sldc(*nk)
        count = {(5, 3): 750, (3, 4): 1944}[nk]
        rows = verify.run_checks(code, ["tree", "converse"])
        assert [(row.passed, row.details) for row in rows] == [(True, {"trees": count, "exhaustive": True})] * 2
        with pytest.raises(BudgetError):
            trees_for_audit(code)

    @pytest.mark.parametrize("name", [(2, 3), (3, 3), *FIXTURE_NAMES], ids=str)
    def test_small_budget(self, codes, name):
        same_rows_past_the_budget(codes[name])

    @pytest.mark.parametrize(
        "name, count", [("fig1", 36), ("fig2", 24), ("intro_nonsmooth", 248), ("eq28", 0), ("fig4", 0)]
    )
    def test_fixtures(self, codes, name, count):
        assert len(same_converse(codes[name], trees_for_audit(codes[name]))) == count

    @given(random_linear_codes())
    def test_random_linear_codes(self, code):
        same_converse(code, trees_for_audit(code))
        same_rows_past_the_budget(code)

    @pytest.mark.parametrize("nk", [(2, 2), (2, 3), (3, 2)], ids=str)
    @pytest.mark.parametrize("corpus", list(EDITS))
    def test_failing_rows_past_the_budget_list_the_first_witness(self, codes, corpus, nk):
        failing = 0
        for mutant in EDITS[corpus](codes[nk], seed=7):
            if check_universality(mutant):
                failing += not all(row.passed for row in same_rows_past_the_budget(mutant)[1:])
        assert failing

    @pytest.mark.parametrize(
        "options, details",
        [({}, {"trees": 162, "exhaustive": True}), ({"tree_budget": 5}, {"trees": 162, "exhaustive": True})],
        ids=["exhaustive", "past-budget"],
    )
    def test_tight_battery_builds_no_tree(self, codes, monkeypatch, options, details):
        # every sigma is 0, so the converse row needs no tree at any budget;
        # without digits no translation is checked and every set is read
        def no_tree(*args, **kwargs):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(verify, "NaryTree", no_tree)
        rows = verify.run_checks(without_digits(codes[(3, 3)]), ["converse"], **options)
        assert [row.as_dict() for row in rows] == [
            {"name": "converse-tightness", "passed": True, "witnesses": [], "details": details}
        ]

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
            (["properties", "tree"], {"tree_budget": -1}, "tree budget must be at least 0"),
            # every option is checked, whichever checks are named
            (["correctness", "properties"], {"delta": -0.5}, r"delta must lie in \[0, 1\], got -1/2"),
            (["correctness", "properties"], {"tree_budget": -1}, "tree budget must be at least 0, got -1"),
            ([], {}, "no checks requested"),
        ],
        ids=["delta", "tree-budget", "delta-unnamed", "tree-budget-unnamed", "no-checks"],
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


# One digest per built code over every verify row of its seed-7 symmetric
# edits: 20, 27, 29 and 32 translated bit flips (18, 22, 24 and 32 of them
# fail some default row), then K source drops (each failing correctness,
# p1 to p3 and converse-tightness), then K(K-1) superset swaps (each
# failing correctness, p2a, p2b and tree-leaf-distinctness). All checks up
# to M = 9, the default checks at (3,3). Recorded before verify read
# translation orbits.
SYMMETRIC_EDIT_DIGESTS = {
    (2, 2): "44b4cc8be436998eee2e3b2f2eee7d105617a38314f401b373ed772ad3ee8e57",
    (2, 3): "6e3d01b55414d8ecf698918daf3d12a7f1736d53604e94c5a799f94d854fdbc0",
    (3, 2): "6263ae094afbbce4145b8d21236f93219be6986b14bcccfa689a5bcc5093fd05",
    (3, 3): "db5db9e502c25b60a75818b67f2779851fcb155993ed9dacb5a06ccd7f8b960a",
}


class TestSymmetricEdits:
    @pytest.mark.parametrize("nk", list(SYMMETRIC_EDIT_DIGESTS), ids=str)
    def test_every_row_of_every_symmetric_edit_pinned(self, codes, nk):
        code = codes[nk]
        checks = ALL_CHECKS if code.params.M <= 9 else verify.DEFAULT_CHECKS
        reports = [
            [row.as_dict() for row in verify.run_checks(mutant, checks)]
            for mutant in symmetric_edits(code, seed=7)
        ]
        body = json.dumps(reports, sort_keys=True, default=str).encode()
        assert hashlib.sha256(body).hexdigest() == SYMMETRIC_EDIT_DIGESTS[nk]


# One digest per built code over every verify row of its seed-7 decoding
# set edits: 14, 17, 18 and 14 trades (each universal, each failing some
# default row), then 18, 15, 14 and 18 copies (each non-universal), in draw
# order. All checks up to M = 9, the default checks at (3,3). Recorded
# before the tree audit refused a non-universal code from its sets alone.
SET_EDIT_DIGESTS = {
    (2, 2): "5a479a0c1dffa0affcf919c194ae9bb535dee26b4f4a1e8d87d2aea82f2c88c1",
    (2, 3): "dd55103e078d4d815ccae52f11c6cadf9c42abddeb2183ecd1c210b94e496432",
    (3, 2): "3f5b999e7cefc10015a7c55b5200dd2933ec4c404611cac0334302e890abce70",
    (3, 3): "6ee778652a2e0e2b72a1641f4994cb10fbfa3a75a1f8861d838ec50065ec3c10",
}


class TestDecodingSetEdits:
    @pytest.mark.parametrize("nk", list(SET_EDIT_DIGESTS), ids=str)
    def test_every_row_of_every_set_edit_pinned(self, codes, nk):
        code = codes[nk]
        checks = ALL_CHECKS if code.params.M <= 9 else verify.DEFAULT_CHECKS
        reports = [
            [row.as_dict() for row in verify.run_checks(mutant, checks)]
            for mutant in decoding_set_edits(code, seed=7)
        ]
        body = json.dumps(reports, sort_keys=True, default=str).encode()
        assert hashlib.sha256(body).hexdigest() == SET_EDIT_DIGESTS[nk]

    @pytest.mark.parametrize("nk", list(SET_EDIT_DIGESTS), ids=str)
    def test_trades_stay_universal_and_fail_a_row(self, codes, nk):
        code = codes[nk]
        sources = range(1, code.params.K + 1)
        for mutant in decoding_set_edits(code, seed=7):
            traded = all(membership_counts(mutant, k) == membership_counts(code, k) for k in sources)
            assert check_universality(mutant) == traded
            if traded:
                rows = verify.run_checks(mutant, verify.DEFAULT_CHECKS)
                assert not all(row.passed for row in rows)

    @pytest.mark.parametrize("budget, seed", [(0, 0), (0, 1), (5, 1), (512, 0)], ids=str)
    def test_refusal_names_the_first_source_then_the_first_symbol(self, codes, monkeypatch, budget, seed):
        # copies leave X_101 and X_111 out of W_2's sets, X_000 and X_001 out
        # of W_3's; the code is refused from its sets, before any tree, on
        # the CLI's path, where --seed is accepted and changes nothing
        code = codes[(2, 3)]
        w2, w3 = list(code.supersets[1].sets), list(code.supersets[2].sets)
        w2[3], w3[0] = w2[2], w3[1]
        edited = [code.supersets[0], DecodingSuperset(k=2, sets=tuple(w2)), DecodingSuperset(k=3, sets=tuple(w3))]
        bad = with_supersets(code, edited)

        def no_tree(*args, **kwargs):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(verify, "NaryTree", no_tree)
        error = "no decoding set of source symbol 2 contains X_101"
        args = cli.build_parser().parse_args(["verify", "-", "--tree-budget", str(budget), "--seed", str(seed)])
        rows = cli._run_checks(bad, ["tree", "converse"], args)
        assert [row.witnesses for row in rows] == [[{"error": error}]] * 2
        with pytest.raises(TreeConstructionError, match=error):
            trees_for_audit(bad, budget=budget)


# One digest per built code over the default verify rows of its 16 seed-7
# subgroup codes (6, 7, 3, 7 and 8 of them fail tree-leaf-distinctness),
# recorded before the tree walk replaced tree counting and sampling.
SUBGROUP_REPORT_DIGESTS = {
    (2, 2): "d1d2fa2f8dab99248b110fa947d2b4b8197959deae8947aa56c5b11e37038a92",
    (2, 3): "642edac5fd2cd1620b431e69b7b2394445ff3c6fbbad4868627db69d630fc665",
    (3, 2): "54d888abf4c16ed91cc0633f0f0ad549bdeedb3b22382738d65486b71c763e25",
    (3, 3): "9d4c145156e1920d9820ca124892b3fcdfb986dd2a46b5b61d443ee3dc3f7044",
    (2, 4): "047f47763f55f98915811a710a6f11c35edf087a378c489d2c39ea384e90f3af",
}


class TestSubgroupCodes:
    @pytest.mark.parametrize("nk", list(SUBGROUP_REPORT_DIGESTS), ids=str)
    def test_default_rows_pinned(self, codes, nk):
        reports = [
            [row.as_dict() for row in verify.run_checks(mutant, verify.DEFAULT_CHECKS)]
            for mutant in subgroup_codes(built(codes, nk), seed=7)
        ]
        body = json.dumps(reports, sort_keys=True, default=str).encode()
        assert hashlib.sha256(body).hexdigest() == SUBGROUP_REPORT_DIGESTS[nk]

    # (4,2) and (5,2) have N//2 = 2 pairs per line, one of each pair orbit;
    # a coordinate-symmetric edit's one draw may be dropped
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)]),
        st.sampled_from([subgroup_codes, coordinate_symmetric_edits]),
        st.integers(0, 2**32),
    )
    def test_orbit_view_is_the_full_view(self, codes, nk, corpus, seed):
        for code in corpus(built(codes, nk), seed, draws=1):
            assert verify._unit_translations(code) is not None
            same_reports(code)


# built codes of at most 27 symbols
ORBIT_SIZES = [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]


def built(codes, nk):
    return codes[nk] if nk in codes else build_sldc(*nk)


def without_digits(code):
    """code with no digit vectors and its labels kept, so no translation
    is checked and verify enumerates as it does for any loaded code."""
    return LinearCodeSpec(
        params=code.params,
        symbol_gens=code.symbol_gens,
        supersets=code.supersets,
        groups=code.groups,
        labels=[code.label(m) for m in range(code.params.M)],
        column_order=code.column_order,
    )


def small_queries(code):
    """Every (A, J) with 1 <= |A| <= 2 and J any set of sources."""
    p = code.params
    sources = range(1, p.K + 1)
    for a in itertools.chain(itertools.combinations(range(p.M), 1), itertools.combinations(range(p.M), 2)):
        for size in range(p.K + 1):
            for j in itertools.combinations(sources, size):
                yield a, j


def same_reports(code):
    """run_checks on code equals run_checks on its copy without digits,
    row by row, with the default tree budget and past it."""
    checks = ALL_CHECKS if code.params.M <= 9 else verify.DEFAULT_CHECKS
    plain = without_digits(code)
    for options in ({}, {"tree_budget": 0}):
        got = [row.as_dict() for row in verify.run_checks(code, checks, **options)]
        assert got == [row.as_dict() for row in verify.run_checks(plain, checks, **options)]


def sigma_views(code):
    """Whether every sigma is 0 on the code's reduced view, and on every
    set with each symbol standing for itself."""
    every = list(verify._every_set(code))
    view = verify._symmetry(code)
    return (
        not any(verify._sigmas(code, view.sets, view.orbit_of)),
        not any(verify._sigmas(code, every, range(code.params.M))),
    )


class TestTranslationOrbits:
    @pytest.mark.parametrize("nk", ORBIT_SIZES, ids=str)
    def test_translations_keep_every_small_entropy(self, codes, nk):
        code = built(codes, nk)
        maps = verify._unit_translations(code)
        assert maps is not None and len(maps) == code.params.K
        ora = oracle_for(code)
        for a, j in small_queries(code):
            h = ora.entropy(a, j)
            assert all(ora.entropy([t[m] for m in a], j) == h for t in maps), (a, j)

    @pytest.mark.parametrize("nk", [(2, 1), (2, 2)], ids=str)
    def test_rank_entropies_are_the_brute_force_ones(self, codes, nk):
        code = codes[nk]
        ora = oracle_for(code)
        maps = verify._unit_translations(code)
        for a, j in small_queries(code):
            h = brute_force_conditional_entropy(code, a, j)
            assert ora.entropy(a, j) == h
            assert all(brute_force_conditional_entropy(code, [t[m] for m in a], j) == h for t in maps)

    def test_unit_translations_add_e_j(self, codes):
        code = codes[(3, 2)]
        maps = verify._unit_translations(code)
        for j, translate in enumerate(maps):
            for m, d in enumerate(code.digits):
                step = tuple(int(i == j) for i in range(len(d)))
                assert code.digits[translate[m]] == tuple((x + e) % 3 for x, e in zip(d, step))

    @pytest.mark.parametrize("nk", ORBIT_SIZES, ids=str)
    def test_reports_equal_the_enumerated_ones(self, codes, nk):
        same_reports(built(codes, nk))

    @pytest.mark.parametrize("nk", list(SYMMETRIC_EDIT_DIGESTS), ids=str)
    def test_symmetric_edits_keep_the_symmetry_and_the_reports(self, codes, nk):
        for mutant in symmetric_edits(codes[nk], seed=7):
            assert verify._unit_translations(mutant) is not None
            same_reports(mutant)

    def test_a_failing_converse_row_enumerates_its_trees_once(self, monkeypatch):
        mutant = next(itertools.islice(symmetric_edits(build_sldc(2, 3), seed=7), 1, None))
        expected = verify.run_checks(without_digits(mutant), ["converse"])[0].as_dict()
        calls = []
        real = verify.enumerate_trees
        monkeypatch.setattr(verify, "enumerate_trees", lambda code: calls.append(code) or real(code))
        [row] = verify.run_checks(mutant, ["converse"])
        assert not row.passed and row.as_dict() == expected
        assert calls == [mutant]

    def test_digit_lists_read_as_digit_tuples(self, codes):
        code = codes[(2, 2)]
        listed = LinearCodeSpec(
            params=code.params,
            symbol_gens=code.symbol_gens,
            supersets=code.supersets,
            groups=code.groups,
            digits=[list(d) for d in code.digits],
            column_order=code.column_order,
        )
        assert verify._unit_translations(listed) == verify._unit_translations(code)
        got = [row.as_dict() for row in verify.run_checks(listed, ALL_CHECKS)]
        assert got == [row.as_dict() for row in verify.run_checks(code, ALL_CHECKS)]

    @pytest.mark.parametrize("nk", ORBIT_SIZES, ids=str)
    def test_sigma_on_representatives_is_the_full_sigma(self, codes, nk):
        code = built(codes, nk)
        assert sigma_views(code) == (True, True)

    @pytest.mark.parametrize("nk", list(SYMMETRIC_EDIT_DIGESTS), ids=str)
    def test_sigma_on_representatives_of_symmetric_edits(self, codes, nk):
        mutants = list(symmetric_edits(codes[nk], seed=7))
        views = [sigma_views(mutant) for mutant in mutants]
        assert all(reduced == full for reduced, full in views)
        k = nk[1]
        # the K source drops come before the K(K-1) superset swaps
        drops = views[len(views) - k * k : len(views) - k * (k - 1)]
        assert drops == [(False, False)] * k

    def test_no_translations_without_a_checked_symmetry(self, codes):
        for name in FIXTURE_NAMES:
            assert verify._unit_translations(codes[name]) is None, name
        for nk in MUTANT_REPORT_DIGESTS:
            for mutant in generator_bit_flips(codes[nk], seed=7):
                assert verify._unit_translations(mutant) is None
        code = codes[(2, 3)]
        sets = [list(members) for members in code.supersets[0].sets]
        sets[0][0], sets[1][1] = sets[1][1], sets[0][0]  # X_000 and X_101, both of group 0, trade sets
        edited = [DecodingSuperset(k=1, sets=tuple(tuple(sorted(s)) for s in sets)), *code.supersets[1:]]
        assert verify._unit_translations(with_supersets(code, edited)) is None
        transcribed = LinearCodeSpec(
            params=code.params,
            symbol_gens=code.symbol_gens,
            supersets=code.supersets,
            groups=code.groups,
            digits=code.digits,
            column_order=COLUMN_ORDER_TRANSCRIBED,
        )
        assert verify._unit_translations(transcribed) is None
        assert verify._unit_translations(without_digits(code)) is None
        # six distinct digit vectors in canonical column order, but M = 6 != 2^3
        fig1 = codes["fig1"]
        shaped = LinearCodeSpec(
            params=fig1.params,
            symbol_gens=fig1.symbol_gens,
            supersets=fig1.supersets,
            groups=fig1.groups,
            digits=list(itertools.product(range(2), repeat=3))[:6],
            column_order=COLUMN_ORDER_CANONICAL,
        )
        assert verify._unit_translations(shaped) is None


# built codes of at most 27 symbols, and two more with N//2 = 2 pairs per line
PAIR_ORBIT_SIZES = ORBIT_SIZES + [(4, 3), (5, 2)]


def one_pair_per_pair_orbit(code):
    """Assert that, per superset, the code's reduced view reads a set of
    every orbit of its decoding sets, and as p2's pairs exactly one pair
    of each orbit of all its sets' pairs, each a pair of the set it names,
    by pair_orbits_by_enumeration."""
    p = code.params
    view = verify._symmetry(code)
    orbits = pair_orbits_by_enumeration(code)
    index = {d: m for m, d in enumerate(code.digits)}
    translations = [[index[tuple((x + y) % p.N for x, y in zip(d, t))] for d in code.digits] for t in code.digits]
    for sup in code.supersets:
        read = {members for k, _, members in view.sets if k == sup.k}
        for members in sup.sets:
            assert any(tuple(sorted(t[m] for m in members)) in read for t in translations), (sup.k, members)
        pairs = []
        for k, set_index, pair in view.pairs:
            if k == sup.k:
                assert len(pair) == 2 and set(pair) <= set(sup.sets[set_index])
                pairs.append(frozenset(pair))
        every = set().union(*(orbits[(sup.k, set_index)] for set_index in range(len(sup.sets))))
        found = [orbit for pair in pairs for orbit in every if pair in orbit]
        assert len(found) == len(pairs) == len(every) and set(found) == every, sup.k


# the codes whose correctness and properties rows are compared with their
# copies without digits; translated sets make M sets per superset, so the
# largest size leaves them out
VIEW_CORPORA = [
    *((corpus, nk) for corpus in (symmetric_edits, subgroup_codes) for nk in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]),
    *((translated_set_codes, nk) for nk in [(3, 2), (3, 3), (4, 2), (5, 2)]),
]


class TestPairOrbits:
    @pytest.mark.parametrize("nk", PAIR_ORBIT_SIZES, ids=str)
    def test_one_pair_per_pair_orbit(self, codes, nk):
        code = built(codes, nk)
        one_pair_per_pair_orbit(code)
        # a line of N symbols reads N//2 pairs, one per difference d ~ -d
        assert len(verify._symmetry(code).pairs) == code.params.K * (code.params.N // 2)

    @pytest.mark.parametrize("nk", [(3, 2), (4, 2), (3, 3)], ids=str)
    @pytest.mark.parametrize("corpus", [subgroup_codes, translated_set_codes], ids=lambda c: c.__name__)
    def test_one_pair_per_pair_orbit_of_other_sets(self, codes, corpus, nk):
        for mutant in corpus(built(codes, nk), seed=7, draws=4):
            assert verify._unit_translations(mutant) is not None
            one_pair_per_pair_orbit(mutant)

    @pytest.mark.parametrize("nk", [(2, 3), (3, 2), (4, 2), (3, 3), (4, 3), (5, 2)], ids=str)
    def test_permuted_symbols_are_read_through_symbol_0(self, codes, nk):
        code = built(codes, nk)
        # every superset partitions the symbols: one set through 0 each
        assert len(verify._symmetry(code).sets) == code.params.K
        for seed in range(3):
            listed = permuted_symbols(code, seed)
            assert listed.digits[0] != code.digits[0] and len(verify._symmetry(listed).sets) == code.params.K
            one_pair_per_pair_orbit(listed)
            same_reports(listed)

    @pytest.mark.parametrize("nk", PAIR_ORBIT_SIZES, ids=str)
    def test_every_pair_of_an_orbit_has_its_representatives_entropies(self, codes, nk):
        code = built(codes, nk)
        ora = oracle_for(code)
        sources = frozenset(range(1, code.params.K + 1))
        # W_-k' for every k' (p2a and p2b), and nothing (p2c)
        givens = [sources - {k} for k in sorted(sources)] + [frozenset()]

        def entropies(pair):
            a, b = sorted(pair)
            return [(ora.entropy((a, b), j), sorted([ora.entropy((a,), j), ora.entropy((b,), j)])) for j in givens]

        orbits = pair_orbits_by_enumeration(code)
        for k, set_index, pair in verify._symmetry(code).pairs:
            [orbit] = [orbit for orbit in orbits[(k, set_index)] if frozenset(pair) in orbit]
            expected = entropies(pair)
            assert all(entropies(other) == expected for other in orbit), (k, set_index, pair)

    @pytest.mark.parametrize("corpus, nk", VIEW_CORPORA, ids=lambda case: getattr(case, "__name__", str(case)))
    def test_correctness_and_properties_rows_are_the_full_views(self, codes, corpus, nk):
        checks = ["correctness", "properties"]
        for mutant in corpus(built(codes, nk), seed=11, draws=8):
            assert verify._unit_translations(mutant) is not None
            got = [row.as_dict() for row in verify.run_checks(mutant, checks)]
            assert got == [row.as_dict() for row in verify.run_checks(without_digits(mutant), checks)]


CORPORA = (generator_bit_flips, symmetric_edits, decoding_set_edits, subgroup_codes)


def same_translations(code):
    """_unit_translations(code) equals the reference that checks every
    unit translation on every symbol, and is returned."""
    maps = verify._unit_translations(code)
    assert maps == translations_by_every_generator(code)
    return maps


def flip_one_bit(code, m):
    """code with one zero bit of symbol m's first nonzero row set, so only
    m's rows change and m keeps Lx nonzero rows."""
    gens = list(code.symbol_gens)
    r, row = next((r, row) for r, row in enumerate(gens[m]) if row)
    bit = next(b for b in range(row.bit_length() + 1) if not row >> b & 1)
    gens[m] = gens[m][:r] + (row | 1 << bit,) + gens[m][r + 1 :]
    return with_rows(code, gens)


class TestSpanningTreeSymmetry:
    @pytest.mark.parametrize("nk", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)], ids=str)
    def test_equal_to_every_generator_on_every_corpus(self, codes, nk):
        code = built(codes, nk)
        assert same_translations(code) is not None
        for corpus in CORPORA:
            for mutant in corpus(code, seed=7):
                same_translations(mutant)

    @given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.sampled_from(CORPORA), st.integers(0, 2**32))
    def test_equal_to_every_generator_on_any_seed(self, codes, nk, corpus, seed):
        for mutant in corpus(codes[nk], seed, draws=8):
            same_translations(mutant)

    @pytest.mark.parametrize("nk", [(2, 3), (3, 2)], ids=str)
    def test_every_symbol_is_on_the_tree(self, codes, nk):
        code = codes[nk]
        maps = verify._unit_translations(code)
        for m in range(code.params.M):
            assert same_translations(flip_one_bit(code, m)) is None, m
            gens = list(code.symbol_gens)
            gens[m] = gens[m][::-1]
            assert same_translations(with_rows(code, gens)) == maps, m

    @pytest.mark.parametrize("nk", [(2, 3), (3, 2)], ids=str)
    def test_repeated_sets_are_compared_as_a_multiset(self, codes, nk):
        # every set of W_1 twice is still symmetric; only its first set twice is not
        code = codes[nk]
        first = code.supersets[0]
        for sets, symmetric in ((first.sets * 2, True), (first.sets[:1] + first.sets, False)):
            supersets = (DecodingSuperset(k=1, sets=sets), *code.supersets[1:])
            mutant = LinearCodeSpec(
                code.params, code.symbol_gens, supersets, code.groups, code.digits, code.labels, code.column_order
            )
            assert (same_translations(mutant) is not None) == symmetric

    @pytest.mark.parametrize("nk", ORBIT_SIZES, ids=str)
    def test_one_shuffled_symbol_per_tree_edge(self, codes, nk, monkeypatch):
        code = built(codes, nk)
        calls = []
        real = verify._shuffled
        monkeypatch.setattr(verify, "_shuffled", lambda rows, shuffle: calls.append(rows) or real(rows, shuffle))
        assert verify._unit_translations(code) is not None
        assert len(calls) == code.params.M - 1

    @pytest.mark.parametrize("nk", ORBIT_SIZES, ids=str)
    def test_shuffles_commute_and_have_order_n(self, codes, nk):
        code = built(codes, nk)
        p = code.params
        shuffles = verify._column_shuffles(p)
        assert len(shuffles) == p.K

        def shuffle(row, s):
            return verify._shuffled([row], s)[0]

        for row in {row for gen in code.symbol_gens for row in gen}:
            for a, b in itertools.combinations(shuffles, 2):
                assert shuffle(shuffle(row, a), b) == shuffle(shuffle(row, b), a)
            for s in shuffles:
                image = row
                for _ in range(p.N):
                    image = shuffle(image, s)
                assert image == row


# One digest per built code over every verify row of its seed-7
# coordinate-symmetric edits: 13, 13, 16, 15 and 16 kept of 16 draws (11,
# 11, 15, 12 and 13 of them fail some row). All checks up to M = 9, the
# default checks from M = 16. Recorded before verify read one superset
# for all K.
COORDINATE_EDIT_DIGESTS = {
    (2, 3): "c3337344b8c05da7bf4cb280fee53460a040422d83d6b525aaf021122e46121d",
    (3, 2): "4df56303997430fd1d8fa8dc2ef2bb527361fca5ee3164c26caec820e2c5c418",
    (3, 3): "1f5cc4a8c6caa9b3db5f7ccc90a16692a789d8164b3bb5a6c32cf726aee581d2",
    (4, 2): "ddfb7369eb7a36e2900d071da872cdbae4b4f31df7dd3bc608df0564f173f330",
    (2, 4): "bb3e239bcf713ee6a707ed239e47a5feccdf45fdbeb13c6f6c094f4f2f275c0d",
}

SWAP_SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]


def same_swaps(code):
    """On a code whose translations are checked, _coordinate_swaps equals
    the reference that checks every symbol and every set; the reference's
    verdict is returned."""
    expected = coordinate_swaps_by_every_symbol(code)
    if verify._unit_translations(code) is not None:
        assert verify._coordinate_swaps(code) == expected
    return expected


def adjacent_swaps(k):
    """For each a < k-1, the coordinate order with a and a+1 swapped."""
    for a in range(k - 1):
        tau = list(range(k))
        tau[a], tau[a + 1] = a + 1, a
        yield tau


class TestCoordinateSwaps:
    @pytest.mark.parametrize("nk", list(COORDINATE_EDIT_DIGESTS), ids=str)
    def test_every_row_of_every_coordinate_edit_pinned(self, codes, nk):
        code = built(codes, nk)
        checks = ALL_CHECKS if code.params.M <= 9 else verify.DEFAULT_CHECKS
        reports = [
            [row.as_dict() for row in verify.run_checks(mutant, checks)]
            for mutant in coordinate_symmetric_edits(code, seed=7)
        ]
        body = json.dumps(reports, sort_keys=True, default=str).encode()
        assert hashlib.sha256(body).hexdigest() == COORDINATE_EDIT_DIGESTS[nk]

    @pytest.mark.parametrize("nk", SWAP_SIZES, ids=str)
    def test_equal_to_every_symbol_on_every_corpus(self, codes, nk):
        code = built(codes, nk)
        assert same_swaps(code) is True
        for corpus in (*CORPORA, coordinate_symmetric_edits):
            for mutant in corpus(code, seed=7):
                same_swaps(mutant)
        for seed in range(3):
            assert same_swaps(permuted_symbols(code, seed)) is True

    @pytest.mark.parametrize("nk", SWAP_SIZES, ids=str)
    def test_edits_keep_both_symmetries_and_the_reports(self, codes, nk):
        mutants = list(coordinate_symmetric_edits(built(codes, nk), seed=11, draws=6))
        assert mutants
        for mutant in mutants:
            assert same_swaps(mutant) is True
            same_reports(mutant)

    # the superset half alone: the rows stay the built ones
    @pytest.mark.parametrize("nk", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=str)
    def test_supersets_that_do_not_swap_are_refused(self, codes, nk):
        code = built(codes, nk)
        swapped = [mutant for mutant in symmetric_edits(code, seed=7) if mutant.symbol_gens == code.symbol_gens]
        assert swapped and all(same_swaps(mutant) is False for mutant in swapped)

    @pytest.mark.parametrize("nk", ORBIT_SIZES, ids=str)
    def test_swaps_conjugate_each_shuffle(self, codes, nk):
        code = built(codes, nk)
        p = code.params
        swaps, shuffles = verify._column_swaps(p), verify._column_shuffles(p)
        assert len(swaps) == p.K - 1

        def swapped(row, swap):
            return verify._swapped([row], swap)[0]

        def shuffled(row, shuffle):
            return verify._shuffled([row], shuffle)[0]

        for swap, tau in zip(swaps, adjacent_swaps(p.K)):
            for row in {row for gen in code.symbol_gens for row in gen}:
                assert swapped(swapped(row, swap), swap) == row
                for j, shuffle in enumerate(shuffles):
                    assert swapped(shuffled(swapped(row, swap), shuffle), swap) == shuffled(row, shuffles[tau[j]])

    @pytest.mark.parametrize("nk", [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3)], ids=str)
    def test_swaps_keep_every_small_entropy(self, codes, nk):
        code = built(codes, nk)
        index = {d: m for m, d in enumerate(code.digits)}
        ora = oracle_for(code)
        for tau in adjacent_swaps(code.params.K):
            phi = [index[tuple(d[i] for i in tau)] for d in code.digits]
            for a, j in small_queries(code):
                assert ora.entropy([phi[m] for m in a], [tau[k - 1] + 1 for k in j]) == ora.entropy(a, j), (a, j)

    @pytest.mark.parametrize("nk", [(2, 1), *SWAP_SIZES, (4, 3)], ids=str)
    def test_a_swap_symmetric_code_is_read_through_superset_1(self, codes, nk):
        code = built(codes, nk)
        for listed in (code, permuted_symbols(code, 1)):
            view, first = verify._symmetry(listed), verify._first_view(listed)
            assert first.sets == [triple for triple in view.sets if triple[0] == 1] and len(first.sets) == 1
            assert first.pairs == [triple for triple in view.pairs if triple[0] == 1]
            assert len(first.pairs) == code.params.N // 2
            assert (first.symbols, first.orbit_of) == (view.symbols, view.orbit_of)
        for mutant in subgroup_codes(code, seed=7, draws=4):
            if not same_swaps(mutant):
                assert verify._first_view(mutant) == verify._symmetry(mutant)

    # one set through symbol 0 in each superset read: one order of the
    # sources stands for all K!, and no walk state is counted
    @pytest.mark.parametrize("nk", SWAP_SIZES, ids=str)
    def test_one_order_of_the_sources(self, codes, nk, monkeypatch):
        code = built(codes, nk)
        monkeypatch.setattr(verify, "WALK_STATES", 0)
        count = math.factorial(code.params.K) * code.params.M
        for mutant in (code, *itertools.islice(coordinate_symmetric_edits(code, seed=7), 3)):
            rows = verify.run_checks(mutant, ["tree"])
            assert [(row.passed, row.details) for row in rows] == [(True, {"trees": count, "exhaustive": True})]
