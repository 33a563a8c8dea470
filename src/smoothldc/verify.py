"""Verification battery for locally decodable codes.

Checks the structural definitions (correctness, perfect smoothness,
universality), the distilled properties of capacity-achieving codes, the
full N-ary decoding-set tree together with the converse inequality chain it
drives (so tightness of the rate bound can be audited level by level), the
exhaustive-erasure minimum distance, and the corruption-survival guarantee.

Every check is exact: entropies come from the rank oracle, probabilities
are rationals, and all enumeration orders are fixed so witnesses are
deterministic (the lexicographically smallest witness is reported first).

``check_options`` holds every option rule of a battery (check names, tree
budget, corruption fraction); ``run_checks`` applies it before any check
runs. The tree and converse rows share one tree audit, exact at any size:
a memoized walk counts the trees of a universal code and decides their
leaves without building one, and sigma decides the converse. A failing
row lists every failing tree within the tree budget, the first past it;
a non-universal code is refused from its decoding sets, before any tree.

A built code is symmetric under the translations of Z_N^K: moving every
digit vector by t maps X_p's generator rows onto X_{p+t}'s under a column
permutation that keeps every source block, so H(X_A | W_J) is constant on
translation orbits (symmetry reduction, as in Emerson & Sistla, "Symmetry
and Model Checking", 1996). ``run_checks`` checks that symmetry on the
rows and decoding sets themselves (``_unit_translations``), along a
spanning tree of Z_N^K: each symbol m != 0 must have as rows those of
m - e_j, for j its last nonzero digit, under the column shuffle of e_j.
The shuffles commute and each is the identity N times over, so by
induction each symbol's rows, shuffled by any e_j, are its translate's.
Correctness, properties, tree and converse come from one row function over
a view of the code (_View): p1's symbols, p2's pairs, the decoding sets
correctness and sigma read, and for each symbol a symbol with the same
entropies. A code with the symmetry is first read through symbol 0: the
sets that hold symbol 0, one pair {0, d} per pair orbit of each
superset, and symbol 0 standing for every symbol (see _reduced_view),
as each translation orbit passes through symbol 0. Any other code is
read on the full view, every pair of every set with each symbol for
itself: the full enumeration. A tree or converse verdict holds on every
view, and a failing row lists its trees from every root; a correctness
or properties row the reduced view fails is read again on the full view.
So each report is the one the full enumeration writes.

A built code is also symmetric under permuting the K coordinates together
with the K sources: the decoding sets of W_k are the lines along e_k.
With its translations checked, ``_coordinate_swaps`` checks this on the
symbol with digits 0 alone, for each swap of adjacent coordinates (they
generate every permutation): its rows under the column swap, and the
sets through it of each superset. Then the reduced view keeps only
superset 1's sets and pairs (see _first_view), while p1, p2a's k' and
sigma's J still take every value.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import weakref
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .codespec import COLUMN_ORDER_CANONICAL, LinearCodeSpec
from .entropy import oracle_for

DISTANCE_BUDGET = 24
DEFAULT_TREE_BUDGET = 512
WALK_STATES = 1 << 18  # (suffix, node) states a tree walk may hold (see _tree_audit)
WALK_COUNT_CEILING = 10**18  # past it, a refused walk's states are not counted to the end
PROPERTY_READS = 1 << 18  # p1 and p2 entropy reads a properties row may take (see check_capacity_properties)

DEFAULT_CHECKS = ("correctness", "smoothness", "universality", "properties", "tree", "converse")
ALL_CHECKS = DEFAULT_CHECKS + ("min-distance", "corruption")


class TreeConstructionError(ValueError):
    """No qualifying decoding set exists for some node (non-universal code)."""


class BudgetError(ValueError):
    """Exhaustive enumeration would exceed the configured budget."""


class CheckResult(
    NamedTuple("CheckResult", [("name", str), ("passed", bool), ("witnesses", list[dict]), ("details", dict)])
):
    """One report row; a row built without witnesses or details gets its
    own empty list and dict."""

    __slots__ = ()

    def __new__(cls, name: str, passed: bool, witnesses: list[dict] | None = None, details: dict | None = None):
        return super().__new__(cls, name, passed, [] if witnesses is None else witnesses,
                               {} if details is None else details)

    def as_dict(self) -> dict:
        return self._asdict()


def _every_set(code: LinearCodeSpec) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(k, set index, members) of every decoding set, superset by superset."""
    for sup in code.supersets:
        for set_index, members in enumerate(sup.sets):
            yield sup.k, set_index, members


def check_correctness(code: LinearCodeSpec, sets=None) -> CheckResult:
    """Every decoding set must determine its source symbol exactly. *sets*
    lists the (k, set index, members) to check, by default every set."""
    ora = oracle_for(code)
    witnesses = []
    for k, set_index, members in _every_set(code) if sets is None else sets:
        residual = ora.message_entropy_given(k, members)
        if residual != 0:
            witnesses.append(
                {
                    "k": k,
                    "set_index": set_index,
                    "set": [code.label(m) for m in members],
                    "residual_bits": residual,
                }
            )
    return CheckResult("correctness", not witnesses, witnesses)


def membership_counts(code: LinearCodeSpec, k: int) -> list[int]:
    counts = [0] * code.params.M
    for members in code.supersets[k - 1].sets:
        for m in members:
            counts[m] += 1
    return counts


def check_smoothness(code: LinearCodeSpec) -> bool:
    """Perfect smoothness: per superset, all symbols appear equally often."""
    for k in range(1, code.params.K + 1):
        counts = membership_counts(code, k)
        if len(set(counts)) != 1:
            return False
    return True


def check_universality(code: LinearCodeSpec) -> bool:
    """Universality: every symbol appears at least once in every superset."""
    return _uncovered(code) is None


def _uncovered(code: LinearCodeSpec) -> tuple[int, int] | None:
    """(k, m) for the first source symbol k, then the first symbol m, that
    no decoding set of k holds; None for a universal code."""
    for k in range(1, code.params.K + 1):
        counts = membership_counts(code, k)
        if 0 in counts:
            return k, counts.index(0)
    return None


# --- properties of capacity-achieving codes --------------------------------

PROPERTY_NAMES = ("p1", "p2a", "p2b", "p2c", "p3")


class PropertyReport(NamedTuple):
    """Outcome of the five-property battery; failures carry witnesses."""

    results: dict[str, CheckResult]
    universal: bool

    def all_pass(self) -> bool:
        return self.universal and all(r.passed for r in self.results.values())

    def failed(self) -> list[str]:
        return [name for name, r in self.results.items() if not r.passed]


def check_capacity_properties(code: LinearCodeSpec, symbols=None, sets=None, orbit_of=None) -> PropertyReport:
    """p1 over *symbols* and p2a-p2c over the pairs of *sets*, (k, set
    index, members) triples; by default every symbol and every set. A
    triple whose members are one pair (i1, i2) reads just that pair, as
    the reduced view's pairs do (see _reduced_view). p2 reads each
    H(X_i | W_J) as H(X_orbit_of[i] | W_J), by default i's own.

    p1 reads each symbol given each W_-k, and p2 each pair given each
    W_-k' and given nothing: past PROPERTY_READS of those, BudgetError
    is raised before any entropy is read."""
    p = code.params
    symbols = range(p.M) if symbols is None else symbols
    sets = list(_every_set(code)) if sets is None else sets
    reads = len(symbols) * p.K + sum(math.comb(len(members), 2) for _, _, members in sets) * (p.K + 1)
    if reads > PROPERTY_READS:
        raise BudgetError(f"checking the properties takes {reads} entropy reads, more than {PROPERTY_READS}")
    ora = oracle_for(code)
    orbit_of = range(p.M) if orbit_of is None else orbit_of
    all_k = range(1, p.K + 1)
    universal = check_universality(code)
    # others[k]: every source symbol but k, the conditioning set of p1-p3
    others = {k: frozenset(all_k) - {k} for k in all_k}

    p1 = []
    # zeros[k]: symbols with H(X_i | W_-k) = 0, ascending
    zeros: dict[int, list[int]] = {k: [] for k in all_k}
    for i in symbols:
        for k in all_k:
            if ora.entropy((i,), others[k]) == 0:
                p1.append({"i": code.label(i), "k": k})
                zeros[k].append(i)

    p2a, p2b, p2c = [], [], []
    # each pair reads (H1, H2, H12) once given each W_-k' (p2a for k' != k,
    # p2b for k' = k) and once given nothing (p2c, k' = None)
    givens = [(k_prime, others[k_prime]) for k_prime in all_k] + [(None, frozenset())]
    for k, set_index, members in sets:
        for i1, i2 in itertools.combinations(members, 2):
            pair = {"k": k, "set_index": set_index, "i1": code.label(i1), "i2": code.label(i2)}
            for k_prime, j in givens:
                h1, h2 = ora.entropy((orbit_of[i1],), j), ora.entropy((orbit_of[i2],), j)
                h12 = ora.entropy((i1, i2), j)
                if k_prime is None:
                    if h12 != h1 + h2:
                        p2c.append({**pair, "joint": h12, "sum": h1 + h2})
                elif k_prime == k:
                    if h12 != h1 + h2:
                        p2b.append(pair)
                elif not h12 == h1 == h2:
                    p2a.append(
                        {**pair, "k_prime": k_prime, "h_i1_given_i2": h12 - h2, "h_i2_given_i1": h12 - h1}
                    )

    # A pair is both "same" (H12 = H1 = H2) and "distinct" (H12 = H1 + H2)
    # given W_-k exactly when H1 = H2 = 0, so p3's witnesses are the ordered
    # pairs, diagonal included, of each k's zero-entropy symbols from p1.
    p3 = []
    for k in all_k:
        for i1 in zeros[k]:
            for i2 in zeros[k]:
                p3.append({"i1": code.label(i1), "i2": code.label(i2), "k": k})

    rows = {"p1": ("p1-nonzero-entropy", p1), "p2a": ("p2a-same-interference", p2a),
            "p2b": ("p2b-distinct-desired", p2b), "p2c": ("p2c-independence", p2c), "p3": ("p3-incompatibility", p3)}
    return PropertyReport(
        results={key: CheckResult(name, not found, found) for key, (name, found) in rows.items()},
        universal=universal,
    )


# --- the full N-ary decoding tree ------------------------------------------


class NaryTree(NamedTuple):
    """Depth-K tree of nested decoding sets.

    permutation: order in which source symbols are consumed, depth 1..K;
    sets_by_depth[d-1]: the N^(d-1) sets at depth d as (set id within the
    superset of the depth-d source symbol, members ordered parent-first).
    """

    permutation: tuple[int, ...]
    root: int
    sets_by_depth: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    def labels_at_depth(self, depth: int) -> tuple[int, ...]:
        if depth == 0:
            return (self.root,)
        return tuple(
            label for _, members in self.sets_by_depth[depth - 1] for label in members
        )

    @property
    def leaves(self) -> tuple[int, ...]:
        return self.labels_at_depth(len(self.permutation))

    @property
    def choices(self) -> tuple[int, ...]:
        return tuple(set_id for level in self.sets_by_depth for set_id, _ in level)


def _sets_containing(code: LinearCodeSpec) -> list[dict[int, dict[int, tuple[int, ...]]]]:
    """Per source symbol k: each symbol's decoding sets of k, as set id ->
    members with that symbol first and the rest ascending, in set id order."""
    index = []
    for sup in code.supersets:
        by_node: dict[int, dict[int, tuple[int, ...]]] = {}
        for set_id, members in enumerate(sup.sets):
            for node in members:
                ordered = (node,) + tuple(m for m in members if m != node)
                by_node.setdefault(node, {})[set_id] = ordered
        index.append(by_node)
    return index


def _grow(code: LinearCodeSpec, index, permutation: tuple[int, ...], root: int, pick, levels=()):
    """Every tree from (permutation, root) that extends *levels*, the sets
    chosen so far, in lexicographic order of choices. Each node of the next
    depth's frontier, breadth-first, takes one of the (set id, members)
    pairs pick(node, options) returns from its _sets_containing options."""
    depth = len(levels)
    if depth == len(permutation):
        yield NaryTree(permutation=permutation, root=root, sets_by_depth=levels)
        return
    k = permutation[depth]
    frontier = [m for _, ordered in levels[-1] for m in ordered] if levels else [root]
    picks = []
    for node in frontier:
        options = index[k - 1].get(node)
        if not options:
            raise TreeConstructionError(
                f"no decoding set of source symbol {k} contains {code.label(node)}"
            )
        picks.append(pick(node, options))
    for level in itertools.product(*picks):
        yield from _grow(code, index, permutation, root, pick, levels + (level,))


def build_nary_tree(
    code: LinearCodeSpec,
    permutation: Sequence[int],
    root: int,
    chooser: Sequence[int] | None = None,
) -> NaryTree:
    """Construct one tree realization. Each node takes its first qualifying
    set, or with an explicit chooser list the next set id of the list, which
    must contain the node; the list must name exactly one set per node.

    Nodes are processed breadth-first; within a set the parent label comes
    first, remaining members in ascending index order.
    """
    p = code.params
    permutation = tuple(permutation)
    if sorted(permutation) != list(range(1, p.K + 1)):
        raise ValueError(f"permutation must rearrange [1..{p.K}]")
    if not 0 <= root < p.M:
        raise IndexError(f"root symbol {root} out of range")
    if chooser is None:
        pick = lambda node, options: (next(iter(options.items())),)
    elif isinstance(chooser, (list, tuple)):
        explicit = iter(chooser)

        def pick(node, options):
            try:
                set_id = next(explicit)
            except StopIteration:
                raise ValueError("explicit chooser ran out of set indices") from None
            if set_id not in options:
                raise ValueError(f"explicit set {set_id} does not contain node {node} (valid: {list(options)})")
            return ((set_id, options[set_id]),)
    else:
        raise TypeError("chooser must be None or an explicit list of set ids")
    tree = next(_grow(code, _sets_containing(code), permutation, root, pick))
    if chooser is not None:
        unused = sum(1 for _ in explicit)
        if unused:
            raise ValueError(f"explicit chooser left {unused} of its {len(chooser)} set ids unused")
    return tree


def enumerate_trees(code: LinearCodeSpec) -> Iterator[NaryTree]:
    """All tree realizations: every permutation, root, and qualifying-set
    choice, in lexicographic order, built one at a time. There may be
    millions; _tree_audit counts them without building one.

    Each tree equals build_nary_tree(code, perm, root, list(tree.choices)).
    """
    index = _sets_containing(code)
    for perm in itertools.permutations(range(1, code.params.K + 1)):
        for root in range(code.params.M):
            yield from _grow(code, index, perm, root, lambda node, options: options.items())


def trees_for_audit(code: LinearCodeSpec, budget: int = DEFAULT_TREE_BUDGET) -> list[NaryTree]:
    """Every tree realization, in enumeration order, when there are at most
    *budget* of them, and a BudgetError past it."""
    check_options(["tree"], budget)
    count, _, trees, limit = _tree_audit(code, budget)
    if limit:
        raise BudgetError(f"{count} trees exceed the tree budget of {budget}")
    return trees()


def leaf_distinctness(tree: NaryTree) -> tuple[bool, int | None]:
    """Whether all leaf labels are distinct; if not, the smallest repeated
    symbol index (lexicographically smallest witness wins)."""
    repeated = [label for label, times in collections.Counter(tree.leaves).items() if times > 1]
    return (False, min(repeated)) if repeated else (True, None)


class LevelAudit(NamedTuple):
    depth: int
    message: int  # source symbol consumed at this depth
    lhs_bits: int
    rhs_bits: int

    @property
    def slack(self) -> int:
        return self.lhs_bits - self.rhs_bits


class ConverseAudit(NamedTuple):
    """Per-level accounting of the rate-bound inequality chain.

    Descending the tree, the symbol entropies at depth d (conditioned on
    all later sources) must exceed N^(d-1)*Lw plus the depth-(d-1) total;
    a capacity-achieving code is tight (zero slack) at every level."""

    levels: tuple[LevelAudit, ...]
    total_bits: int
    bound_bits: int

    @property
    def total_slack(self) -> int:
        return self.total_bits - self.bound_bits

    @property
    def tight(self) -> bool:
        return all(level.slack == 0 for level in self.levels)


def audit_converse_chain(code: LinearCodeSpec, tree: NaryTree) -> ConverseAudit:
    p = code.params
    totals = _level_totals(oracle_for(code), tree)
    levels = tuple(
        LevelAudit(depth=depth, message=tree.permutation[depth - 1], lhs_bits=totals[depth],
                   rhs_bits=p.N ** (depth - 1) * p.Lw + totals[depth - 1])
        for depth in range(1, p.K + 1)
    )
    bound = sum(p.N**d for d in range(p.K)) * p.Lw + totals[0]
    return ConverseAudit(levels=levels, total_bits=totals[p.K], bound_bits=bound)


def _level_totals(ora, tree: NaryTree) -> list[int]:
    """Per depth d = 0..K, the sum of H(X_label | W_perm[d:]) over the
    tree's depth-d labels."""
    perm = tree.permutation
    totals = []
    for depth in range(len(perm) + 1):
        given = frozenset(perm[depth:])
        totals.append(sum(ora.entropy((m,), given) for m in tree.labels_at_depth(depth)))
    return totals


def _sigmas(code: LinearCodeSpec, sets, orbit_of: Sequence[int]) -> Iterator[int]:
    """sigma(k, J, S, x) = sum over m in S of H(X_m | W_J), less Lw and
    H(X_x | W_{J+k}), for every (k, set index, S) of *sets*, every J of the
    sources other than k and every x in S, in that order, where
    H(X_m | W_J) is read as H(X_orbit_of[m] | W_J).

    A tree's level-d slack is the sum of sigma over its depth-d sets, with
    k = perm[d-1] and J = perm[d:]: the level totals telescope into one
    sigma per set and its parent node. So when every sigma is 0 every tree
    is tight. If S decodes W_k, the sum is at least H(X_S | W_J) =
    Lw + H(X_S | W_{J+k}), so sigma >= 0, and in a correct code a tree has
    slack exactly when one of its sets has sigma > 0. Each such set is in
    a tree: the one from root x that consumes the sources outside J+k
    first (x stays first in each set it takes), then S at k's depth."""
    p = code.params
    ora = oracle_for(code)
    for k, _, members in sets:
        rest = [j for j in range(1, p.K + 1) if j != k]
        for size in range(len(rest) + 1):
            for given in itertools.combinations(rest, size):
                without_k = frozenset(given)
                with_k = without_k | {k}
                target = sum(ora.entropy((orbit_of[m],), without_k) for m in members) - p.Lw
                for x in members:
                    yield target - ora.entropy((orbit_of[x],), with_k)


def converse_witnesses(code: LinearCodeSpec, trees: Iterable[NaryTree]) -> list[dict]:
    """The trees, in order, whose converse chain has slack at some level,
    each with its total slack: the converse-tightness check's witnesses."""
    return [
        {"permutation": list(tree.permutation), "root": code.label(tree.root), "total_slack_bits": audit.total_slack}
        for tree in trees
        if not (audit := audit_converse_chain(code, tree)).tight
    ]


# --- erasures and corruption ------------------------------------------------


class DistanceResult(NamedTuple):
    distance: int
    witnesses: tuple[tuple[int, ...], ...]  # all minimal failing erasures, lex order

    @property
    def witness(self) -> tuple[int, ...]:
        return self.witnesses[0]


def min_distance(code: LinearCodeSpec) -> DistanceResult:
    """Smallest number of erased symbols that makes some source symbol
    unrecoverable from the remaining ones, by exhaustive search over codes
    of at most DISTANCE_BUDGET symbols."""
    p = code.params
    if p.M > DISTANCE_BUDGET:
        raise BudgetError(
            f"exhaustive erasure search over M = {p.M} symbols exceeds the budget of {DISTANCE_BUDGET}"
        )
    ora = oracle_for(code)
    all_k = range(1, p.K + 1)
    for erased_count in range(1, p.M + 1):
        failing = []
        for erased in itertools.combinations(range(p.M), erased_count):
            remaining = [m for m in range(p.M) if m not in erased]
            if any(ora.message_entropy_given(k, remaining) > 0 for k in all_k):
                failing.append(erased)
        if failing:
            return DistanceResult(distance=erased_count, witnesses=tuple(failing))
    raise AssertionError("erasing every symbol must lose data")


class CorruptionReport(NamedTuple):
    delta: Fraction
    corrupted_count: int
    per_message_min: dict[int, Fraction]
    min_success: Fraction
    every_pattern_leaves_clean_set: bool
    guarantee_void: bool  # delta >= 1/N, the survival bound does not apply


def corruption_trial(code: LinearCodeSpec, delta) -> CorruptionReport:
    """Success probability of a uniformly random decoding-set choice when a
    delta fraction of symbols is corrupted.

    Every pattern of floor(delta*M) corrupted symbols of a code with at most
    DISTANCE_BUDGET symbols is enumerated and visited once. Success for a
    (message, pattern) pair is the fraction of decoding sets untouched by
    the pattern; the report carries the minimum over patterns per message.
    """
    p = code.params
    delta = check_options(["corruption"], delta=delta)
    if p.M > DISTANCE_BUDGET:
        raise BudgetError(f"exact corruption enumeration needs M <= {DISTANCE_BUDGET}, got {p.M}")
    corrupted = int(delta * p.M)

    # fewest[i]: the fewest clean decoding sets of superset i under any pattern so far
    fewest = [len(sup.sets) for sup in code.supersets]
    for pattern in itertools.combinations(range(p.M), corrupted):
        hit = set(pattern)
        for i, sup in enumerate(code.supersets):
            fewest[i] = min(fewest[i], sum(map(hit.isdisjoint, sup.sets)))
    per_message_min = {sup.k: Fraction(f, len(sup.sets)) for sup, f in zip(code.supersets, fewest)}
    return CorruptionReport(
        delta=delta,
        corrupted_count=corrupted,
        per_message_min=per_message_min,
        min_success=min(per_message_min.values()),
        every_pattern_leaves_clean_set=min(fewest) > 0,
        guarantee_void=delta >= Fraction(1, p.N),
    )


# --- translation orbits -----------------------------------------------------

class _View(NamedTuple):
    """What the view-reading checks read of a code (see _check_rows):
    symbols, the symbols p1 reads; pairs, (k, set index, members) triples
    whose pairs of members p2a-p2c read, a triple of two members for one
    pair; sets, the (k, set index, members) that correctness and sigma
    read; and orbit_of[m], a symbol with the same entropies as m."""

    symbols: Sequence[int]
    pairs: list[tuple[int, int, tuple[int, ...]]]
    sets: list[tuple[int, int, tuple[int, ...]]]
    orbit_of: Sequence[int]


# code -> the view of it that _check_rows reads first, or None; no value
# refers to its code
_first_views: "weakref.WeakKeyDictionary[LinearCodeSpec, _View | None]" = weakref.WeakKeyDictionary()


def _first_view(code: LinearCodeSpec) -> _View | None:
    """The view that correctness, properties, tree and converse read first,
    worked out once per code: None unless _unit_translations holds, then
    the view through symbol 0 (_symmetry), and of it only superset 1's sets
    and pairs when _coordinate_swaps holds too.

    Then superset 1 stands for all K. A permutation pi of the coordinates,
    with the sources, carries superset k onto superset pi(k), fixes the
    symbol with digits 0 and keeps H(X_A | W_J) = H(X_piA | W_piJ) (see
    _coordinate_swaps). So for pi(1) = k, each set of superset k is the
    image under pi and a translation of a set of superset 1 through symbol
    0, and each of its pairs that of a pair the view reads, up to order.
    The image has the set's correctness residual, sigma given J as the
    set's given pi(J), and p2 entropies given W_-k' as the pair's given
    W_-pi(k'). So p1 and p2a's k' and sigma's J still take every value.
    p2 reads each H(X_d | W_J) as H(X_0 | W_J), by orbit_of."""
    if code not in _first_views:
        view = _symmetry(code)
        if view and _coordinate_swaps(code):
            pairs, sets = ([triple for triple in part if triple[0] == 1] for part in (view.pairs, view.sets))
            view = view._replace(pairs=pairs, sets=sets)
        _first_views[code] = view
    return _first_views[code]


def _symmetry(code: LinearCodeSpec) -> _View | None:
    """The view through symbol 0 (_reduced_view) of a code whose
    _unit_translations are not None, every superset read, and otherwise
    None; _first_view keeps superset 1's part of it when the coordinate
    swaps are checked too."""
    return None if _unit_translations(code) is None else _reduced_view(code)


def _reduced_view(code: LinearCodeSpec) -> _View:
    """The view of a code whose translations are checked, read through
    symbol 0: in _every_set order, the decoding sets whose first (smallest)
    member is 0, and per superset one pair (0, d) of those sets for each
    step of d up to sign, symbol 0 standing for every symbol. A symbol's
    step is its digits less symbol 0's, mod N: a loaded code may list its
    symbols in any order, so symbol 0 need not have digits 0.

    A superset that every translation maps onto itself holds S - s for
    each s in each of its sets S. So every orbit of its sets holds a set
    through 0, and every orbit of its pairs {a, b} holds {0, c}, for the c
    whose step is digits[b] - digits[a]. Two pairs {0, c} and {0, c'}
    share an orbit exactly when the steps of c and c' agree up to sign, as
    {0, c} moved by -c is {-c, 0}. The translations keep every
    H(X_A | W_J), carry symbol 0 to every symbol, and the trees from root 0
    onto those from every other root, node by node; p2a-p2c are symmetric
    in (i1, i2). On a built code the one set of W_k through 0 is a line,
    which reads the N//2 pairs {0, d e_k}, d = 1..N//2, of its C(N, 2);
    its checked coordinate swaps leave W_1's line alone (_first_view)."""
    p = code.params
    origin = code.digits[0]
    sets = [(k, set_index, members) for k, set_index, members in _every_set(code) if members[0] == 0]
    pairs = []
    seen = set()  # (k, step) of each pair read, and of its negative
    for k, set_index, members in sets:
        for d in members[1:]:
            step = tuple((y - x) % p.N for x, y in zip(origin, code.digits[d]))
            if (k, step) not in seen:
                seen.update(((k, step), (k, tuple(-x % p.N for x in step))))
                pairs.append((k, set_index, (0, d)))
    return _View((0,), pairs, sets, (0,) * p.M)


def _unit_translations(code: LinearCodeSpec) -> tuple[tuple[int, ...], ...] | None:
    """For each coordinate j, the map of symbol indices m -> the symbol
    whose digits are m's plus e_j mod N, or None unless the code is checked
    to be symmetric under these translations.

    They are the unit translations of a code whose digit vectors are all of
    Z_N^K (they are distinct, so M = N^K makes them a bijection) and whose
    columns are in the canonical order with Lw = M(N-1), provided that
    every superset's sets map onto its own sets under each translation, and
    that each symbol m != 0 has as rows its parent's rows under shuffle_j
    (see _column_shuffles), both as multisets. Here j is the last nonzero
    digit of m and the parent is m - e_j: the parents make a spanning tree
    of Z_N^K rooted at 0, so each generator row is shuffled once.

    That is the condition on every symbol and every e_j: the shuffles
    commute and shuffle_j N times is the identity, so by induction along
    the tree the rows of m are the rows of 0 shuffled m_i times by each
    shuffle_i, and shuffle_j of them are the rows of m + e_j. A shuffle
    keeps every source block, so then each translation keeps every
    H(X_A | W_J) and carries decoding sets to decoding sets."""
    p = code.params
    if code.digits is None or code.column_order != COLUMN_ORDER_CANONICAL:
        return None
    if p.M != p.N**p.K or p.Lw != p.M * (p.N - 1):
        return None
    index = {d: m for m, d in enumerate(code.digits)}
    sets = [sorted(sup.sets) for sup in code.supersets]
    maps = []
    for j in range(p.K):
        translate = tuple(index[d[:j] + ((d[j] + 1) % p.N,) + d[j + 1 :]] for d in code.digits)
        image = translate.__getitem__
        for sup, own in zip(code.supersets, sets):
            if sorted(tuple(sorted(map(image, s))) for s in sup.sets) != own:
                return None
        maps.append(translate)
    shuffles = _column_shuffles(p)
    for m, d in enumerate(code.digits):
        j = next((j for j in reversed(range(p.K)) if d[j]), None)
        if j is None:
            continue  # the root, 0
        parent = index[d[:j] + (d[j] - 1,) + d[j + 1 :]]
        if _shuffled(code.symbol_gens[parent], shuffles[j]) != sorted(code.symbol_gens[m]):
            return None
    return tuple(maps)


def _column_shuffles(p) -> list[tuple[int, int, int, int]]:
    """For each coordinate j, shuffle_j: the column shuffle of a code in
    the canonical order that moves each source's sub-symbol gamma + e_j to
    gamma, as (moved, up, wraps, down). A row r goes to
    (r & moved) << up | (r & wraps) >> down."""
    sub = (1 << (p.N - 1)) - 1  # the N-1 columns of one sub-symbol
    shuffles = []
    for j in range(p.K):
        step = p.N ** (p.K - 1 - j)  # gamma index distance of one unit of digit j
        # within a block, sub-symbol gamma sits (M-1-gamma)*(N-1) bits up
        block = sum(sub << ((p.M - 1 - gamma) * (p.N - 1)) for gamma in range(p.M) if gamma // step % p.N)
        moved = sum(block << (k * p.Lw) for k in range(p.K))  # digit j is not 0: to gamma - e_j
        wraps = ((1 << (p.K * p.Lw)) - 1) ^ moved  # digit j is 0: to gamma + (N-1)e_j
        shuffles.append((moved, step * (p.N - 1), wraps, step * (p.N - 1) ** 2))
    return shuffles


def _shuffled(rows, shuffle) -> list[int]:
    """*rows* under one shuffle of _column_shuffles, sorted."""
    moved, up, wraps, down = shuffle
    return sorted([(r & moved) << up | (r & wraps) >> down for r in rows])


def _coordinate_swaps(code: LinearCodeSpec) -> bool:
    """Whether a code whose _unit_translations hold is also symmetric under
    each swap tau of adjacent coordinates a, a+1 of Z_N^K together with
    sources a+1 and a+2, checked on z, the symbol with digits 0: z's rows
    under P_tau (see _column_swaps) must be z's rows, and phi_tau, which
    swaps each symbol's digits a and a+1, must map the sets of superset k
    that hold z onto those of superset tau(k), both as multisets. Adjacent
    swaps generate every permutation of the coordinates.

    That is the symmetry on every symbol and every set. P_tau shuffle_j
    P_tau^-1 = shuffle_tau(j), for the shuffles of _column_shuffles: each
    moves sub-symbols within every block, and P_tau swaps gamma's digits
    as it swaps the blocks. With the translations checked, the rows of m
    are z's rows under the product of shuffle_j^(m_j), so P_tau of them
    are z's rows under the product of shuffle_tau(j)^(m_j), the rows of
    phi_tau(m). A translated superset is every translate of its sets
    through z, and phi_tau commutes with translation (it is linear), so
    superset k maps onto superset tau(k). P_tau sends source block j to
    tau(j), so H(X_A | W_J) = H(X_phiA | W_tauJ)."""
    p = code.params
    index = {d: m for m, d in enumerate(code.digits)}
    z = index[(0,) * p.K]
    rows = sorted(code.symbol_gens[z])
    through = [sorted(s for s in sup.sets if z in s) for sup in code.supersets]
    for a, swap in enumerate(_column_swaps(p)):
        if _swapped(rows, swap) != rows:
            return False
        phi = {}
        for m in {m for sets in through for s in sets for m in s}:
            d = code.digits[m]
            phi[m] = index[d[:a] + (d[a + 1], d[a]) + d[a + 2 :]]
        for k, sets in enumerate(through):
            tau_k = a + 1 if k == a else a if k == a + 1 else k
            if sorted(tuple(sorted(map(phi.__getitem__, s))) for s in sets) != through[tau_k]:
                return False
    return True


def _column_swaps(p) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]], int]]:
    """For each coordinate a < K-1, P_tau for tau the swap of a and a+1:
    the column permutation of a code in the canonical order that moves
    each source's sub-symbol gamma to gamma with digits a and a+1 swapped,
    keeping its N-1 bits in place, and swaps source blocks a and a+1. As
    (ups, downs, high): a row r first goes to the OR of (r & mask) << s
    over ups and (r & mask) >> s over downs, then its block a (high) and
    block a+1 trade places."""
    sub = (1 << (p.N - 1)) - 1  # the N-1 columns of one sub-symbol
    swaps = []
    for a in range(p.K - 1):
        high, low = p.N ** (p.K - 1 - a), p.N ** (p.K - 2 - a)  # gamma index distance of digits a, a+1
        # one mask per difference gamma_a - gamma_a+1, repeated across every
        # block: swapping the digits moves sub-symbol gamma up by
        # low*(N-1)^2 bits per unit of that difference
        masks = collections.defaultdict(int)
        for gamma in range(p.M):
            masks[gamma // high % p.N - gamma // low % p.N] |= sub << ((p.M - 1 - gamma) * (p.N - 1))
        unit = low * (p.N - 1) ** 2
        moves = {diff: sum(mask << (k * p.Lw) for k in range(p.K)) for diff, mask in masks.items()}
        ups = [(mask, diff * unit) for diff, mask in moves.items() if diff >= 0]
        downs = [(mask, -diff * unit) for diff, mask in moves.items() if diff < 0]
        swaps.append((ups, downs, ((1 << p.Lw) - 1) << ((p.K - 1 - a) * p.Lw)))
    return swaps


def _swapped(rows, swap) -> list[int]:
    """*rows* under one P_tau of _column_swaps, sorted."""
    ups, downs, high = swap
    lw = high.bit_count()  # block a's Lw columns
    low = high >> lw  # block a+1
    out = []
    for r in rows:
        r = sum([(r & mask) << s for mask, s in ups]) | sum([(r & mask) >> s for mask, s in downs])
        out.append(r & ~(high | low) | (r & high) >> lw | (r & low) << lw)
    return sorted(out)


def _tree_audit(code: LinearCodeSpec, budget: int) -> tuple:
    """A battery's tree audit as (count, distinct, trees, limit): how many
    trees the code has, whether each has distinct leaves, trees() for
    every tree in enumeration order, and how many failing trees a failing
    row lists: all (None) within *budget*, one past it.

    A memoized walk decides count and leaves without building a tree:
    walk(sources, y) is (the number of subtrees of node y with the tuple
    *sources* left to consume, the bitset of their leaves, whether each
    has distinct leaves). They do exactly when, for each set of sources[0]
    holding y, each member's do and the members' leaves are disjoint: a
    repeat parts below two members of some set, and a leaf two members
    reach ends two independent subtrees. The walk starts from every
    permutation and each root of the code's first view (see _first_view),
    counted once per symbol it stands for. From every root it visits every
    (suffix, node), so past WALK_STATES of those it is refused unstarted.

    One permutation stands for all K! when the code's translations are
    checked and each superset partitions the symbols. Under the checked
    translations each symbol lies in as many sets of k as symbol 0 does,
    and under checked coordinate swaps superset k holds as many sets
    through 0 as superset 1. So that is when the first view holds one set
    through 0 per superset it reads (the code is universal by then). Read
    each symbol as its step from symbol 0; then the one set of k holding y
    is y + H_k, for H_k the set holding 0 (a translation carries H_k
    there), and H_k is a subgroup (h + H_k holds h, so it is H_k). So y
    has one subtree, with leaves y + h_1 +
    ... + h_r, h_i in the H of sources[i-1]: that sumset, and whether it
    is direct, ignore order.

    A non-universal code has no tree: TreeConstructionError names the first
    source k, then the first symbol, that no set of k holds (_uncovered)."""
    p = code.params
    missing = _uncovered(code)
    if missing:
        k, m = missing
        raise TreeConstructionError(f"no decoding set of source symbol {k} contains {code.label(m)}")
    index = _sets_containing(code)
    view = _first_view(code)
    if view and len(view.sets) == len({k for k, _, _ in view.sets}):
        perms = [tuple(range(1, p.K + 1))]
    else:
        states, suffixes = 0, p.M  # suffixes: M * perm(K, d), the states of the d-source suffixes
        for d in range(p.K + 1):
            states, suffixes = states + suffixes, suffixes * (p.K - d)
            if states > WALK_COUNT_CEILING:
                break
        if states > WALK_STATES:  # refused before the K! permutations are listed
            count = states if states <= WALK_COUNT_CEILING else f"over {WALK_COUNT_CEILING}"
            raise BudgetError(f"walking the trees takes {count} states, more than {WALK_STATES}")
        perms = list(itertools.permutations(range(1, p.K + 1)))

    @functools.cache
    def walk(sources, y):
        if not sources:
            return 1, 1 << y, True
        count, leaves, distinct = 0, 0, True
        for members in index[sources[0] - 1][y].values():
            below = [walk(sources[1:], m) for m in members]
            count += math.prod(trees for trees, _, _ in below)
            reach = 0
            for _, bits, ok in below:
                distinct = distinct and ok and not reach & bits
                reach |= bits
            leaves |= reach
        return count, leaves, distinct

    roots = collections.Counter(view.orbit_of if view else range(p.M))
    count, distinct = 0, True
    for perm in perms:
        for root, times in roots.items():
            trees, _, ok = walk(perm, root)
            count, distinct = count + trees * times, distinct and ok
    count *= math.factorial(p.K) // len(perms)
    if count > budget:
        return count, distinct, lambda: enumerate_trees(code), 1
    return count, distinct, functools.cache(lambda: list(enumerate_trees(code))), None


# --- the battery ------------------------------------------------------------

# report row names of the checks whose row is not named after the check
_ROW_NAMES = {"tree": "tree-leaf-distinctness", "converse": "converse-tightness"}
# the checks that read a view of the code (see _check_rows); sigma, like
# the tree row's verdict, holds on every view, so a failing converse row is
# read once and lists its trees from every root
_ORBIT_CHECKS = ("correctness", "properties", "converse")


def check_options(names: Sequence[str], tree_budget: int = DEFAULT_TREE_BUDGET, delta=None) -> Fraction | None:
    """Raise ValueError for the first bad option of a battery: no check
    named, a name not in ALL_CHECKS, a negative tree budget, or a delta
    outside [0, 1]. Returns delta as the exact fraction a corruption trial
    uses, or None when it is None."""
    if not names:
        raise ValueError("no checks requested")
    for name in names:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r}; valid: {', '.join(ALL_CHECKS)}")
    if tree_budget < 0:
        raise ValueError(f"tree budget must be at least 0, got {tree_budget}")
    if delta is None:
        return None
    delta = delta if isinstance(delta, Fraction) else Fraction(delta).limit_denominator(10**6)
    if not 0 <= delta <= 1:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return delta


def run_checks(
    code: LinearCodeSpec,
    names: Sequence[str],
    tree_budget: int = DEFAULT_TREE_BUDGET,
    delta=None,
) -> list[CheckResult]:
    """The report rows of the named checks, in order: one per check, and
    five (p1 to p3) for "properties". "tree" and "converse" share one tree
    audit (see _tree_audit), exact at any size, whose failing rows list
    every failing tree up to *tree_budget* trees, the first one past it. A
    check that cannot run on this code (a non-universal tree, more than
    WALK_STATES walk states, properties past PROPERTY_READS reads of the
    view they read, an incorrect code's converse past the tree budget,
    min-distance or corruption past DISTANCE_BUDGET symbols) fails with
    an {"error": ...} witness. *delta* is the corruption fraction, by
    default the largest below 1/N with an integral count. Bad options (see
    check_options) raise ValueError before any check runs."""
    delta = check_options(names, tree_budget, delta)
    p = code.params
    if delta is None:
        delta = Fraction(max(-(-p.M // p.N) - 1, 0), p.M)
    tree_audit = functools.cache(functools.partial(_tree_audit, code, tree_budget))
    sets = list(_every_set(code))
    every = _View(range(p.M), sets, sets, range(p.M))  # the full view: every pair of every set
    results = []
    for name in names:
        try:
            # an orbit check of a code with checked translations reads its
            # reduced view first; failing correctness or properties rows are
            # read again on the full view, as a passing row is the same on both
            view = _first_view(code) if name in _ORBIT_CHECKS else None
            rows = _check_rows(code, name, tree_audit, delta, view or every)
            if view and name != "converse" and not all(row.passed for row in rows):
                rows = _check_rows(code, name, tree_audit, delta, every)
            results.extend(rows)
        except (TreeConstructionError, BudgetError) as exc:
            results.append(CheckResult(_ROW_NAMES.get(name, name), False, [{"error": str(exc)}]))
    return results


def _check_rows(code: LinearCodeSpec, name: str, tree_audit, delta, view: _View) -> list[CheckResult]:
    """The report rows of one known check, given delta and the battery's
    tree audit, called when a row first needs it. Correctness, properties,
    tree and converse read *view*; a failing tree or converse row lists the
    trees from every root."""
    p = code.params
    if name == "correctness":
        return [check_correctness(code, view.sets)]
    if name == "smoothness":
        return [CheckResult(name, check_smoothness(code))]
    if name == "universality":
        return [CheckResult(name, check_universality(code))]
    if name == "properties":
        return list(check_capacity_properties(code, view.symbols, view.pairs, view.orbit_of).results.values())
    if name == "min-distance":
        result = min_distance(code)
        passed = result.distance * p.N >= p.M
        witnesses = [{"distance": result.distance, "bound": f"M/N = {p.M}/{p.N}"}]
        details = {"distance": result.distance, "witness": [code.label(i) for i in result.witness],
                   "witness_count": len(result.witnesses)}
    elif name == "corruption":
        report = corruption_trial(code, delta)
        target = 1 - report.delta * p.N
        passed = report.every_pattern_leaves_clean_set and report.min_success >= target
        witnesses = [{"min_success": str(report.min_success), "target": str(target)}]
        details = {"delta": str(report.delta), "corrupted": report.corrupted_count,
                   "min_success": str(report.min_success)}
    else:
        count, distinct, trees, limit = tree_audit()
        if name == "tree":
            failing, row = not distinct, _leaf_witnesses
        else:
            sigmas = _sigmas(code, view.sets, view.orbit_of)
            failing, row = next(filter(None, sigmas), 0), converse_witnesses
            # a sigma below 0 (an incorrect code) names no slack tree: only all trees can
            if failing and limit and min(failing, *sigmas) < 0:
                raise BudgetError(f"a sigma below 0 (an incorrect code) leaves converse slack to all {count} trees")
        found = (w for tree in trees() for w in row(code, [tree])) if failing else ()
        witnesses = list(itertools.islice(found, limit))
        passed = not witnesses
        details = {"trees": count, "exhaustive": True}
        name = _ROW_NAMES[name]
    return [CheckResult(name, passed, [] if passed else witnesses, details)]


def _leaf_witnesses(code: LinearCodeSpec, trees: Iterable[NaryTree]) -> list[dict]:
    """The trees, in order, with a repeated leaf, each with its smallest
    repeated symbol: the tree-leaf-distinctness check's witnesses."""
    return [
        {"permutation": list(tree.permutation), "root": code.label(tree.root), "duplicate": code.label(dup)}
        for tree in trees
        for ok, dup in [leaf_distinctness(tree)]
        if not ok
    ]
