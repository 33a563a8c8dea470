"""Independent reference oracles used by the tests.

The conditional-entropy oracle here never touches rank computations: it
enumerates the full joint distribution of symbol values over every message
realization and computes Shannon entropy from the histogram. Only feasible
for codes with few total message bits, which is exactly what it is for.
The column restriction deletes columns from the bit table, the reference
for the package's column masks, and the exhaustive decoder is the reference
for ``construct.decode``. The pair-loop property battery is the reference
for ``verify.check_capacity_properties``, and the label-by-label converse
chain the reference for ``verify.converse_witnesses``. The corruption
trial that lists every pattern and scans it once per superset is the
reference for ``verify.corruption_trial``. One column_mask per generator
row is the reference for ``construct.build_sldc``, and ``json.dumps`` with
sorted keys the reference for the document writer in ``codespec``.
The seeded mutants at the end are inputs that every verify row must
answer as it does today.
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import log2

import numpy as np

from smoothldc.entropy import _distinct, _same, oracle_for
from smoothldc.codespec import LinearCodeSpec
from smoothldc.gf2 import BitVector, column_mask
from smoothldc.verify import CheckResult, CorruptionReport, PropertyReport, check_universality

MAX_MESSAGE_BITS = 16


def all_messages(width: int) -> np.ndarray:
    """Every message realization as rows of a (2^width, width) bit array."""
    assert width <= MAX_MESSAGE_BITS
    count = 1 << width
    values = np.arange(count, dtype=np.uint32)
    return (values[:, None] >> np.arange(width - 1, -1, -1)[None, :]) & 1


def _histogram_entropy(counter: Counter, total: int) -> float:
    return -sum((c / total) * log2(c / total) for c in counter.values())


def brute_force_conditional_entropy(code, symbols, given_messages=()) -> float:
    """H(X_A | W_J) from the exhaustive joint distribution."""
    p = code.params
    width = p.K * p.Lw
    msgs = all_messages(width)
    total = msgs.shape[0]

    symbols = sorted(set(symbols))
    if symbols:
        stacked = np.array([bits for m in symbols for bits in generator_bits(code, m)])
        symbol_values = (msgs @ stacked.T.astype(np.uint32)) % 2
    else:
        symbol_values = np.zeros((total, 0), dtype=np.uint32)

    j_columns = []
    for k in sorted(set(given_messages)):
        j_columns.extend(range((k - 1) * p.Lw, k * p.Lw))
    given_values = msgs[:, j_columns]

    joint = Counter()
    marginal = Counter()
    for row in range(total):
        a = symbol_values[row].tobytes()
        j = given_values[row].tobytes()
        joint[(a, j)] += 1
        marginal[j] += 1
    return _histogram_entropy(joint, total) - _histogram_entropy(marginal, total)


def message_slice(code, msg, k):
    """The bits of source symbol k inside a message block."""
    lw = code.params.Lw
    return list(msg.to_bits()[(k - 1) * lw : k * lw])


def generator_bits(code, m):
    """Symbol m's generator rows as lists of K*Lw bits."""
    width = code.params.K * code.params.Lw
    return [BitVector(width, row).to_bits() for row in code.symbol_gens[m]]


def restrict_columns(rows, width, keep):
    """Delete the columns outside *keep* from the int rows of a width-column
    matrix, preserving column order; the result has len(keep) columns."""
    keep = sorted(set(keep))
    if keep and (keep[0] < 0 or keep[-1] >= width):
        raise IndexError(f"column index out of range [0, {width})")
    bits = (BitVector(width, row).to_bits() for row in rows)
    return [BitVector.from_bits(row[j] for j in keep).value for row in bits]


def reference_generator_rows(n, k):
    """build_sldc(n, k)'s generator rows, symbol by symbol, from the
    construction's formula with one column_mask per row: row gamma of
    symbol p has a one in column kk*Lw + gamma*(N-1) + bit-1 for each
    0-based source kk whose bit (p_kk + gamma_kk) mod N is not the
    constant zero."""
    m = n**k
    lw = m * (n - 1)
    digits = list(itertools.product(range(n), repeat=k))
    for p in digits:
        yield [
            column_mask(k * lw, [
                kk * lw + gamma * (n - 1) + (p[kk] + g[kk]) % n - 1
                for kk in range(k)
                if (p[kk] + g[kk]) % n
            ])
            for gamma, g in enumerate(digits)
        ]


def brute_force_decode(code, k, set_index, values):
    """W_k as a list of bits when the values of decoding set *set_index* of
    source symbol k fix it, found by encoding every message: "inconsistent"
    when no message gives these values, "undetermined" when messages that
    do give them disagree on W_k."""
    p = code.params
    msgs = all_messages(p.K * p.Lw)
    members = code.supersets[k - 1].sets[set_index]
    stored = np.array(
        [row for m in members for row in generator_bits(code, m) if any(row)], dtype=np.uint32
    )
    target = np.array([bit for value in values for bit in value.to_bits()], dtype=np.uint32)
    matching = msgs[((msgs @ stored.T) % 2 == target).all(axis=1)]
    if not len(matching):
        return "inconsistent"
    slices = {tuple(row) for row in matching[:, (k - 1) * p.Lw : k * p.Lw].tolist()}
    if len(slices) > 1:
        return "undetermined"
    return list(slices.pop())


def reference_properties(code):
    """The property battery as a plain double loop: p3 over all K*M^2
    ordered symbol pairs through _same and _distinct, and p2b testing
    _distinct in both directions. The reference for
    verify.check_capacity_properties."""
    ora = oracle_for(code)
    p = code.params
    all_k = range(1, p.K + 1)
    universal = check_universality(code)
    # others[k]: every source symbol but k, the conditioning set of p1-p3
    others = {k: frozenset(all_k) - {k} for k in all_k}

    p1 = CheckResult("p1-nonzero-entropy", True)
    for i in range(p.M):
        for k in all_k:
            if ora.entropy((i,), others[k]) == 0:
                p1.witnesses.append({"i": code.label(i), "k": k})
    p1.passed = not p1.witnesses

    p2a = CheckResult("p2a-same-interference", True)
    p2b = CheckResult("p2b-distinct-desired", True)
    p2c = CheckResult("p2c-independence", True)
    for sup in code.supersets:
        k = sup.k
        for set_index, members in enumerate(sup.sets):
            for i1, i2 in itertools.combinations(members, 2):
                for k_prime in all_k:
                    if k_prime == k:
                        continue
                    j = others[k_prime]
                    if not _same(ora, i1, i2, j):
                        h12 = ora.entropy((i1, i2), j)
                        p2a.witnesses.append(
                            {
                                "k": k,
                                "set_index": set_index,
                                "i1": code.label(i1),
                                "i2": code.label(i2),
                                "k_prime": k_prime,
                                "h_i1_given_i2": h12 - ora.entropy((i2,), j),
                                "h_i2_given_i1": h12 - ora.entropy((i1,), j),
                            }
                        )
                if not (_distinct(ora, i1, i2, others[k]) and _distinct(ora, i2, i1, others[k])):
                    p2b.witnesses.append(
                        {"k": k, "set_index": set_index, "i1": code.label(i1), "i2": code.label(i2)}
                    )
                h1 = ora.entropy((i1,))
                h2 = ora.entropy((i2,))
                h12 = ora.entropy((i1, i2))
                if h12 != h1 + h2:
                    p2c.witnesses.append(
                        {
                            "k": k,
                            "set_index": set_index,
                            "i1": code.label(i1),
                            "i2": code.label(i2),
                            "joint": h12,
                            "sum": h1 + h2,
                        }
                    )
    p2a.passed = not p2a.witnesses
    p2b.passed = not p2b.witnesses
    p2c.passed = not p2c.witnesses

    p3 = CheckResult("p3-incompatibility", True)
    for k in all_k:
        j = others[k]
        for i1 in range(p.M):
            for i2 in range(p.M):
                if _same(ora, i1, i2, j) and _distinct(ora, i1, i2, j):
                    p3.witnesses.append({"i1": code.label(i1), "i2": code.label(i2), "k": k})
    p3.passed = not p3.witnesses

    return PropertyReport(
        results={"p1": p1, "p2a": p2a, "p2b": p2b, "p2c": p2c, "p3": p3},
        universal=universal,
    )


def reference_converse(code, trees):
    """The converse-tightness witnesses as a loop over every tree, summing
    H(X_label | W_perm[d:]) label by label at every depth: each tree with
    slack at some level, in order, with its total slack. The reference for
    verify.converse_witnesses."""
    ora = oracle_for(code)
    p = code.params
    witnesses = []
    for tree in trees:
        perm = tree.permutation
        totals = [
            sum(ora.entropy((label,), perm[depth:]) for label in tree.labels_at_depth(depth))
            for depth in range(p.K + 1)
        ]
        rhs = [p.N ** (depth - 1) * p.Lw + totals[depth - 1] for depth in range(1, p.K + 1)]
        if totals[1:] != rhs:
            bound = sum(p.N**d for d in range(p.K)) * p.Lw + totals[0]
            witnesses.append(
                {"permutation": list(perm), "root": code.label(tree.root), "total_slack_bits": totals[p.K] - bound}
            )
    return witnesses


def reference_corruption(code, delta):
    """The corruption trial as a list of every pattern, scanned once per
    superset with a Fraction per (pattern, superset): the reference for
    verify.corruption_trial on valid arguments."""
    p = code.params
    delta = Fraction(delta).limit_denominator(10**6) if not isinstance(delta, Fraction) else delta
    corrupted = int(delta * p.M)
    patterns = list(itertools.combinations(range(p.M), corrupted))
    per_message_min = {}
    every_clean = True
    for sup in code.supersets:
        worst = Fraction(1)
        for pattern in patterns:
            hit = set(pattern)
            clean = sum(1 for members in sup.sets if hit.isdisjoint(members))
            if clean == 0:
                every_clean = False
            worst = min(worst, Fraction(clean, len(sup.sets)))
        per_message_min[sup.k] = worst
    return CorruptionReport(
        delta=delta,
        corrupted_count=corrupted,
        per_message_min=per_message_min,
        min_success=min(per_message_min.values()),
        every_pattern_leaves_clean_set=every_clean,
        guarantee_void=delta >= Fraction(1, p.N),
    )


def reference_json(value, indent=None) -> bytes:
    """The JSON text of value with sorted keys: compact, or indented by indent."""
    if indent is None:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return json.dumps(value, sort_keys=True, indent=indent).encode("utf-8")


def generator_bit_flips(code, seed, draws=64):
    """Yield the codes made by flipping one generator bit of code. Each of
    *draws* seeded draws picks a symbol, then one of its rows, then a
    column; a flip is kept, in draw order, when the symbol still has
    exactly Lx nonzero rows (so neither a zero row nor a one-bit row)."""
    p = code.params
    width = p.K * p.Lw
    rng = random.Random(seed)
    for _ in range(draws):
        m = rng.randrange(p.M)
        r = rng.randrange(len(code.symbol_gens[m]))
        c = rng.randrange(width)
        row = code.symbol_gens[m][r]
        flipped = row ^ (1 << (width - 1 - c))
        if not (row and flipped):
            continue
        gens = list(code.symbol_gens)
        gens[m] = gens[m][:r] + (flipped,) + gens[m][r + 1 :]
        yield LinearCodeSpec(
            params=p,
            symbol_gens=gens,
            supersets=code.supersets,
            groups=code.groups,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )
