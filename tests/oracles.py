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
reference for ``verify.corruption_trial``. Shuffling every symbol's rows
by every unit translation is the reference for the spanning-tree check
``verify._unit_translations``, and closing each decoding set's pairs under
every translation the reference for the pairs ``verify._reduced_view``
reads; moving every symbol's rows under every swap of adjacent
coordinates is the reference for ``verify._coordinate_swaps``. One
column_mask per generator row is the reference for
``construct.build_sldc``, and ``json.dumps`` with sorted keys the
reference for the document writer in ``codespec``, and
``reference_replies``, read straight off the wire protocol, the reference
for a database server's replies.
The seeded mutants at the end are inputs that every verify row must
answer as it does today; the symmetric edits among them keep every
translation symmetry of a built code, so a check that reads one
representative per translation orbit has to meet their failures itself,
and the decoding-set edits leave some codes non-universal. The subgroup
codes keep that symmetry too, with decoding sets that need not be lines,
and the translated-set codes with decoding sets that are not cosets of a
subgroup at all. The permuted-symbol codes are built codes whose symbols
are listed in another order, so symbol 0 need not have digits 0. The
coordinate-symmetric edits also keep every permutation of the
coordinates, so a check that reads superset 1 for all K has to meet
their failures itself.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import log2

import numpy as np

from smoothldc.entropy import _distinct, _same, oracle_for
from smoothldc.codespec import COLUMN_ORDER_CANONICAL, DecodingSuperset, LinearCodeSpec
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

    p1 = []
    for i in range(p.M):
        for k in all_k:
            if ora.entropy((i,), others[k]) == 0:
                p1.append({"i": code.label(i), "k": k})

    p2a, p2b, p2c = [], [], []
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
                        p2a.append(
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
                    p2b.append(
                        {"k": k, "set_index": set_index, "i1": code.label(i1), "i2": code.label(i2)}
                    )
                h1 = ora.entropy((i1,))
                h2 = ora.entropy((i2,))
                h12 = ora.entropy((i1, i2))
                if h12 != h1 + h2:
                    p2c.append(
                        {
                            "k": k,
                            "set_index": set_index,
                            "i1": code.label(i1),
                            "i2": code.label(i2),
                            "joint": h12,
                            "sum": h1 + h2,
                        }
                    )

    p3 = []
    for k in all_k:
        j = others[k]
        for i1 in range(p.M):
            for i2 in range(p.M):
                if _same(ora, i1, i2, j) and _distinct(ora, i1, i2, j):
                    p3.append({"i1": code.label(i1), "i2": code.label(i2), "k": k})

    rows = {"p1": ("p1-nonzero-entropy", p1), "p2a": ("p2a-same-interference", p2a),
            "p2b": ("p2b-distinct-desired", p2b), "p2c": ("p2c-independence", p2c), "p3": ("p3-incompatibility", p3)}
    return PropertyReport(
        results={key: CheckResult(name, not found, found) for key, (name, found) in rows.items()},
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


def _wire_frame(frame_type: int, payload: bytes = b"") -> bytes:
    return (len(payload) + 1).to_bytes(4, "big") + bytes([frame_type]) + payload


def reference_replies(stream: bytes, hash: bytes, answers) -> bytes:
    """The bytes a database server sends back to a client that sends
    *stream* and then half-closes; answers[q] is the ANSWER payload of query
    q. Frames are answered in order. The first gets HELLO-ACK (0x11) for a
    HELLO (0x10) of *hash*, HASH-MISMATCH (0x12) for another 32-byte HELLO;
    each later QUERY (0x20) its ANSWER (0x21), or ERROR 0x01 past the
    answers. Any other type or payload size, a length outside [1, 2^20] and
    EOF inside a frame body get ERROR 0x02; these and HASH-MISMATCH end the
    replies. EOF between frames or inside a header ends them quietly."""
    malformed = _wire_frame(0x7F, b"\x02")
    replies, pos, greeted = b"", 0, False
    while len(stream) - pos >= 4:
        length = int.from_bytes(stream[pos : pos + 4], "big")
        if not 1 <= length <= 1 << 20 or len(stream) - pos - 4 < length:
            return replies + malformed
        frame_type, payload = stream[pos + 4], stream[pos + 5 : pos + 4 + length]
        pos += 4 + length
        if not greeted:
            if frame_type != 0x10 or len(payload) != 32:
                return replies + malformed
            if payload != hash:
                return replies + _wire_frame(0x12)
            replies += _wire_frame(0x11)
            greeted = True
        elif frame_type != 0x20 or len(payload) != 4:
            return replies + malformed
        else:
            q = int.from_bytes(payload, "big")
            replies += _wire_frame(0x21, answers[q]) if q < len(answers) else _wire_frame(0x7F, b"\x01")
    return replies


def translations_by_every_generator(code):
    """verify._unit_translations, checked by every unit translation: for
    each coordinate j, the map of symbol indices m -> the symbol whose
    digits are m's plus e_j mod N, or None. A code in the canonical column
    order with M = N^K digit vectors and Lw = M(N-1) gets its maps when,
    for each e_j, every symbol's rows, under the column shuffle moving each
    source's sub-symbol gamma + e_j to gamma, are its translate's rows, and
    every superset's sets map onto its own sets, both as multisets: K*M
    shuffled symbols, where the spanning-tree check shuffles M-1."""
    p = code.params
    if code.digits is None or code.column_order != COLUMN_ORDER_CANONICAL:
        return None
    if p.M != p.N**p.K or p.Lw != p.M * (p.N - 1):
        return None
    index = {d: m for m, d in enumerate(code.digits)}
    rows = [sorted(gen) for gen in code.symbol_gens]
    sets = [sorted(sup.sets) for sup in code.supersets]
    sub = (1 << (p.N - 1)) - 1  # the N-1 columns of one sub-symbol
    maps = []
    for j in range(p.K):
        step = p.N ** (p.K - 1 - j)  # gamma index distance of one unit of digit j
        up, down = step * (p.N - 1), step * (p.N - 1) ** 2
        # within a block, sub-symbol gamma sits (M-1-gamma)*(N-1) bits up
        block = sum(sub << ((p.M - 1 - gamma) * (p.N - 1)) for gamma in range(p.M) if gamma // step % p.N)
        moved = sum(block << (k * p.Lw) for k in range(p.K))  # digit j is not 0: to gamma - e_j
        wraps = ((1 << (p.K * p.Lw)) - 1) ^ moved  # digit j is 0: to gamma + (N-1)e_j
        translate = tuple(index[d[:j] + ((d[j] + 1) % p.N,) + d[j + 1 :]] for d in code.digits)
        for gen, target in zip(code.symbol_gens, translate):
            if sorted([(r & moved) << up | (r & wraps) >> down for r in gen]) != rows[target]:
                return None
        for sup, own in zip(code.supersets, sets):
            if sorted(tuple(sorted(translate[m] for m in s)) for s in sup.sets) != own:
                return None
        maps.append(translate)
    return tuple(maps)


def pair_orbits_by_enumeration(code):
    """{(k, set index): the orbits of the set's pairs} for every decoding
    set of a code with digit vectors, by brute force: each orbit is the
    frozenset of the pairs {a + t, b + t}, for all M translations t of
    Z_N^K, of one pair {a, b} of the set. Pairs are frozensets of two
    symbols, so swapping i1 and i2 keeps each orbit. The reference for
    the pairs verify._reduced_view gives p2a-p2c."""
    p = code.params
    index = {d: m for m, d in enumerate(code.digits)}
    translations = [
        [index[tuple((x + y) % p.N for x, y in zip(d, t))] for d in code.digits] for t in code.digits
    ]
    return {
        (sup.k, set_index): {
            frozenset(frozenset((t[a], t[b])) for t in translations) for a, b in itertools.combinations(members, 2)
        }
        for sup in code.supersets
        for set_index, members in enumerate(sup.sets)
    }


def coordinate_swaps_by_every_symbol(code):
    """Whether a code is symmetric under swapping each pair of adjacent
    coordinates a, a+1 of Z_N^K together with sources a+1 and a+2, checked
    on every symbol with no translation assumed; None for a code without
    digit vectors, the canonical column order, M = N^K and Lw = M(N-1).

    The column swap P sends column (k, gamma, b), bit b of sub-symbol
    gamma in source block k, to (tau(k), tau(gamma), b), where tau swaps
    a and a+1 (of sources and of gamma's digits); it is built as one dict
    entry per column. Every symbol's rows under P must be the rows of the
    symbol with its digits swapped, and the sets of each superset k, their
    members' digits swapped, those of superset tau(k), both as multisets.
    The reference for verify._coordinate_swaps, which checks the symbol
    with digits 0 and the sets through it."""
    p = code.params
    if code.digits is None or code.column_order != COLUMN_ORDER_CANONICAL:
        return None
    if p.M != p.N**p.K or p.Lw != p.M * (p.N - 1):
        return None
    width = p.K * p.Lw
    index = {d: m for m, d in enumerate(code.digits)}
    gammas = list(itertools.product(range(p.N), repeat=p.K))  # sub-symbols in column order
    position = {g: i for i, g in enumerate(gammas)}
    for a in range(p.K - 1):
        tau = list(range(p.K))
        tau[a], tau[a + 1] = a + 1, a

        def swap(d):
            return tuple(d[i] for i in tau)

        column = {
            k * p.Lw + position[g] * (p.N - 1) + b: tau[k] * p.Lw + position[swap(g)] * (p.N - 1) + b
            for k in range(p.K)
            for g in gammas
            for b in range(p.N - 1)
        }

        def moved(row):
            return sum(1 << (width - 1 - column[c]) for c in range(width) if row >> (width - 1 - c) & 1)

        for d, gen in zip(code.digits, code.symbol_gens):
            if sorted(map(moved, gen)) != sorted(code.symbol_gens[index[swap(d)]]):
                return False
        for sup in code.supersets:
            image = sorted(tuple(sorted(index[swap(code.digits[m])] for m in s)) for s in sup.sets)
            if image != sorted(code.supersets[tau[sup.k - 1]].sets):
                return False
    return True


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


def symmetric_edits(code, seed, draws=32):
    """Yield edits of a built code that every translation of Z_N^K keeps.

    First, one generator bit flipped in every translate: each of *draws*
    seeded draws picks a row gamma0 and a column (k, g, b) of the symbol
    with digits 0, and the symbol with digits d gets the same flip at row
    gamma0 - d and column (k, g - d, b). A draw is kept, in draw order,
    when every symbol still has exactly Lx nonzero rows. Then, for each
    source k of a code with K >= 2, the code with k's columns cleared in
    every row; a row that this would leave zero takes the first bit of its
    own sub-symbol in the next source instead. Then, for every ordered pair
    of sources k != k2, the code whose superset of W_k holds the sets of
    W_k2, the lines along coordinate k2."""
    p = code.params
    width = p.K * p.Lw
    index = {d: m for m, d in enumerate(code.digits)}

    def minus(a, b):
        return index[tuple((x - y) % p.N for x, y in zip(a, b))]

    rng = random.Random(seed)
    for _ in range(draws):
        gamma0 = code.digits[rng.randrange(p.M)]
        c = rng.randrange(width)
        kk, g, b = c // p.Lw, code.digits[c % p.Lw // (p.N - 1)], c % (p.N - 1)
        gens = []
        for d, gen in zip(code.digits, code.symbol_gens):
            r = minus(gamma0, d)
            col = kk * p.Lw + minus(g, d) * (p.N - 1) + b
            flipped = gen[r] ^ (1 << (width - 1 - col))
            gens.append(gen[:r] + (flipped,) + gen[r + 1 :])
        if any(sum(map(bool, gen)) != p.Lx for gen in gens):
            continue
        yield LinearCodeSpec(
            params=p,
            symbol_gens=gens,
            supersets=code.supersets,
            groups=code.groups,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )
    for k in range(p.K if p.K >= 2 else 0):
        block = ((1 << p.Lw) - 1) << ((p.K - 1 - k) * p.Lw)
        # row gamma's first bit of sub-symbol gamma in the next source
        spare = [1 << (width - 1 - (k + 1) % p.K * p.Lw - gamma * (p.N - 1)) for gamma in range(p.M)]
        gens = [
            tuple(r & ~block or (r and spare[gamma]) for gamma, r in enumerate(gen)) for gen in code.symbol_gens
        ]
        yield LinearCodeSpec(
            params=p,
            symbol_gens=gens,
            supersets=code.supersets,
            groups=code.groups,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )
    for k, k2 in itertools.permutations(range(1, p.K + 1), 2):
        supersets = list(code.supersets)
        supersets[k - 1] = DecodingSuperset(k=k, sets=code.supersets[k2 - 1].sets)
        yield LinearCodeSpec(
            params=p,
            symbol_gens=code.symbol_gens,
            supersets=supersets,
            groups=code.groups,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )


def coordinate_symmetric_edits(code, seed, draws=16):
    """Yield edits of a built code that every translation of Z_N^K and
    every permutation of its coordinates, with the sources, keep.

    Each of *draws* seeded draws picks a row gamma0 and a column (k, g, b)
    of the symbol with digits 0, as symmetric_edits does. The flip is made
    at row pi(gamma0) and column (pi(k), pi(g), b) for every permutation
    pi of the K coordinates, those positions taken as a set, and each of
    them is translated to every symbol as symmetric_edits translates its
    one flip. A draw is kept, in draw order, when every symbol still has
    exactly Lx nonzero rows."""
    p = code.params
    width = p.K * p.Lw
    index = {d: m for m, d in enumerate(code.digits)}

    def minus(a, b):
        return index[tuple((x - y) % p.N for x, y in zip(a, b))]

    rng = random.Random(seed)
    for _ in range(draws):
        gamma0 = code.digits[rng.randrange(p.M)]
        c = rng.randrange(width)
        kk, g, b = c // p.Lw, code.digits[c % p.Lw // (p.N - 1)], c % (p.N - 1)
        # order moves coordinate order[i] to i, so k to order.index(k)
        flips = {
            (tuple(gamma0[i] for i in order), order.index(kk), tuple(g[i] for i in order))
            for order in itertools.permutations(range(p.K))
        }
        gens = []
        for d, gen in zip(code.digits, code.symbol_gens):
            gen = list(gen)
            for row, k, sub in flips:
                gen[minus(row, d)] ^= 1 << (width - 1 - (k * p.Lw + minus(sub, d) * (p.N - 1) + b))
            gens.append(tuple(gen))
        if any(sum(map(bool, gen)) != p.Lx for gen in gens):
            continue
        yield LinearCodeSpec(
            params=p,
            symbol_gens=gens,
            supersets=code.supersets,
            groups=code.groups,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )


def decoding_set_edits(code, seed, draws=32):
    """Yield the codes made by one seeded edit of one superset's decoding
    sets. Each of *draws* draws picks a source k, two sets A and B of its
    superset, and an edit, kept in draw order:

    - a trade: a member x of A outside B and a member y of B outside A of
      x's group swap sets. Every symbol stays in as many sets, so the code
      stays universal. A draw with no such y is skipped.
    - a copy: A is replaced with a copy of B, so A's members outside B are
      in no set of k and the code is no longer universal."""
    p = code.params
    rng = random.Random(seed)
    for _ in range(draws):
        k = rng.randrange(1, p.K + 1)
        sets = list(code.supersets[k - 1].sets)
        a, b = rng.sample(range(len(sets)), 2)
        if rng.random() < 0.5:
            x = rng.choice([m for m in sets[a] if m not in sets[b]])
            partners = [m for m in sets[b] if m not in sets[a] and code.groups[m] == code.groups[x]]
            if not partners:
                continue
            y = rng.choice(partners)
            sets[a] = tuple(sorted(y if m == x else m for m in sets[a]))
            sets[b] = tuple(sorted(x if m == y else m for m in sets[b]))
        else:
            sets[a] = sets[b]
        supersets = list(code.supersets)
        supersets[k - 1] = DecodingSuperset(k=k, sets=tuple(sets))
        yield LinearCodeSpec(
            params=p,
            symbol_gens=code.symbol_gens,
            supersets=supersets,
            groups=code.groups,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )


def subgroup_codes(code, seed, draws=16):
    """Yield copies of a built code whose decoding sets are the cosets of
    other subgroups of order N. Each of *draws* seeded draws picks, for
    every source k, an element g_k of Z_N^K of order N, and W_k's superset
    becomes the cosets of <g_k>, ascending. The rows stay the built ones,
    so every translation of Z_N^K keeps the code. The groups are kept when
    every sum(g_k) is a unit mod N, which makes each coset a transversal of
    them, and dropped otherwise."""
    p = code.params
    index = {d: m for m, d in enumerate(code.digits)}
    generators = [d for d in code.digits if math.gcd(p.N, *d) == 1]
    rng = random.Random(seed)
    for _ in range(draws):
        supersets, transversal = [], True
        for k in range(1, p.K + 1):
            g = rng.choice(generators)
            cosets = {
                tuple(sorted(index[tuple((x + j * y) % p.N for x, y in zip(d, g))] for j in range(p.N)))
                for d in code.digits
            }
            supersets.append(DecodingSuperset(k=k, sets=tuple(sorted(cosets))))
            transversal = transversal and math.gcd(sum(g), p.N) == 1
        yield LinearCodeSpec(
            params=p,
            symbol_gens=code.symbol_gens,
            supersets=supersets,
            groups=code.groups if transversal else None,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )


def translated_set_codes(code, seed, draws=8):
    """Yield copies of a built code with N >= 3 whose superset of one
    source k is every translate of one seeded set S of N symbols: S holds
    the symbol with digits 0 and is not a subgroup of Z_N^K, so no decoding
    set of k is a coset of one. Each of *draws* seeded draws picks k and S.
    The rows stay the built ones, so every translation of Z_N^K keeps the
    code; the groups are dropped."""
    p = code.params
    assert p.N >= 3, "every 2-set {0, d} of Z_2^K is a subgroup"
    index = {d: m for m, d in enumerate(code.digits)}
    zero = (0,) * p.K
    rng = random.Random(seed)
    drawn = 0
    while drawn < draws:
        k = rng.randrange(1, p.K + 1)
        chosen = [zero] + rng.sample([d for d in code.digits if d != zero], p.N - 1)
        if all(tuple((x + y) % p.N for x, y in zip(a, b)) in chosen for a in chosen for b in chosen):
            continue  # a subgroup
        drawn += 1
        translates = {
            tuple(sorted(index[tuple((x + y) % p.N for x, y in zip(d, t))] for d in chosen)) for t in code.digits
        }
        supersets = list(code.supersets)
        supersets[k - 1] = DecodingSuperset(k=k, sets=tuple(sorted(translates)))
        yield LinearCodeSpec(
            params=p,
            symbol_gens=code.symbol_gens,
            supersets=supersets,
            digits=code.digits,
            labels=code.labels,
            column_order=code.column_order,
        )


def permuted_symbols(code, seed):
    """A copy of a built code with its symbols listed in a seeded order:
    symbol i of the copy is symbol order[i] of the code, with its rows,
    digits, group and label, and every decoding set is mapped along (and
    sorted), each set keeping its index. Symbol 0 of the copy need not have
    digits 0, so a view read through symbol 0 must take each pair's step
    from symbol 0's digits."""
    p = code.params
    order = list(range(p.M))
    random.Random(seed).shuffle(order)
    position = {m: i for i, m in enumerate(order)}

    def listed(values):
        return None if values is None else [values[m] for m in order]

    supersets = [
        DecodingSuperset(k=sup.k, sets=tuple(tuple(sorted(position[m] for m in s)) for s in sup.sets))
        for sup in code.supersets
    ]
    return LinearCodeSpec(
        params=p,
        symbol_gens=listed(code.symbol_gens),
        supersets=supersets,
        groups=listed(code.groups),
        digits=listed(code.digits),
        labels=listed(code.labels),
        column_order=code.column_order,
    )
