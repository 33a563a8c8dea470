"""Construction of capacity-achieving perfectly smooth LDCs, plus encoding,
decoding, and transcribed reference codes.

Canonical index orders, fixed once so every artifact is reproducible:

* coded symbols are indexed by their digit vector p = (p_1..p_K), each digit
  in [0, N), in lexicographic order with p_1 most significant;
* sub-coded-symbols of one symbol are indexed by gamma = (g_1..g_K) in the
  same lexicographic order;
* message columns: source symbol k ascending, then gamma lexicographic, then
  bit index 1..N-1. Bit index 0 of every sub-source-symbol is the constant
  zero and occupies no column.

Each coded symbol of the constructed code has one constantly-zero
sub-coded-symbol (at gamma = -p mod N); it is kept as an all-zero generator
row for bookkeeping but dropped from the stored/transmitted bit layout,
leaving exactly Lx = N^K - 1 bits per symbol.
"""

from __future__ import annotations

import random
from typing import Sequence

from .capacity import CodeParams
from .codespec import (
    COLUMN_ORDER_CANONICAL,
    COLUMN_ORDER_TRANSCRIBED,
    CodeSpecError,
    DecodingSuperset,
    LinearCodeSpec,
)
from .gf2 import BitVector, column_mask, row_parities, solve_columns

MAX_SYMBOLS = 4096
MAX_GENERATOR_BITS = 1 << 29  # in M * Lx rows of K * Lw; (16,2), the largest tested, has 501350400


class BudgetExceeded(ValueError):
    """Requested construction is beyond the configured size budget."""


class DecodeFailure(ValueError):
    """Answer values are inconsistent with the code or do not determine the
    requested source symbol."""


def index_to_digits(index: int, n: int, k: int) -> tuple[int, ...]:
    return tuple((index // n**pos) % n for pos in range(k - 1, -1, -1))


def digits_to_index(digits: Sequence[int], n: int) -> int:
    index = 0
    for d in digits:
        index = index * n + d
    return index


def enumerate_supersets(n: int, k: int) -> list[DecodingSuperset]:
    """Decoding supersets of the constructed code: for source symbol k, one
    set per assignment of the other digits (lexicographic), holding the N
    symbols whose k-th digit ranges over [0, N)."""
    if n < 2 or k < 1:
        raise ValueError("need N >= 2 and K >= 1")
    supersets = []
    for kk in range(1, k + 1):
        sets = []
        for rest_index in range(n ** (k - 1)):
            rest = index_to_digits(rest_index, n, k - 1)
            members = []
            for digit in range(n):
                p = rest[: kk - 1] + (digit,) + rest[kk - 1 :]
                members.append(digits_to_index(p, n))
            sets.append(tuple(sorted(members)))
        supersets.append(DecodingSuperset(k=kk, sets=tuple(sets)))
    return supersets


def build_sldc(n: int, k: int) -> LinearCodeSpec:
    """Build the length-N^K capacity-achieving SLDC within MAX_SYMBOLS and MAX_GENERATOR_BITS.

    Sub-coded-symbol gamma of symbol p is the GF(2) sum over source symbols
    of bit (p_k + g_k) mod N of sub-source-symbol gamma; symbol p belongs to
    group sum(p) mod N. So every row is one of M patterns, shifted: row
    (p, gamma) is pattern[p + gamma mod N] >> gamma*(N-1), where pattern[b]
    is sub-symbol 0's row when it reads bit b_k of each source.
    """
    if n < 2 or k < 1:
        raise ValueError("need N >= 2 and K >= 1")
    # 2^K is past the budget from K = 13, so N^K is not computed for such K
    if k >= MAX_SYMBOLS.bit_length() or n**k > MAX_SYMBOLS:
        raise BudgetExceeded(f"N^K = {n}^{k} exceeds the size budget of {MAX_SYMBOLS} symbols")
    m = n**k
    lw = m * (n - 1)
    lx = m - 1
    width = k * lw
    if m * lx * width > MAX_GENERATOR_BITS:  # refused before any row is made
        raise BudgetExceeded(f"N^K = {n}^{k} needs {m * lx * width} generator bits,"
                             f" more than the budget of {MAX_GENERATOR_BITS}")
    all_digits = [index_to_digits(i, n, k) for i in range(m)]
    # pattern[b], b in index order: sub-symbol 0's row reading bit b_kk of
    # each source kk, a one in column kk*Lw + b_kk-1; bit 0 has no column
    pattern = [0]
    for kk in range(k):
        units = (0,) + tuple(1 << (width - 1 - kk * lw - b) for b in range(n - 1))
        pattern = [row | unit for row in pattern for unit in units]
    shifts = [gamma * (n - 1) for gamma in range(m)]

    gens = []
    for p in all_digits:
        at = [0]  # at[gamma]: the index of p + gamma mod N, one digit at a time
        for d in p:
            digit = [(d + g) % n for g in range(n)]
            at = [i * n + e for i in at for e in digit]
        gens.append([pattern[i] >> shift for i, shift in zip(at, shifts)])

    groups = [sum(p) % n for p in all_digits]
    params = CodeParams(N=n, K=k, M=m, Lw=lw, Lx=lx)
    return LinearCodeSpec(
        params=params,
        symbol_gens=gens,
        supersets=enumerate_supersets(n, k),
        groups=groups,
        digits=all_digits,
        column_order=COLUMN_ORDER_CANONICAL,
    )


def encode_symbol(code: LinearCodeSpec, m: int, msg: BitVector) -> BitVector:
    """The Lx stored bits of coded symbol m for a given message block."""
    p = code.params
    if msg.length != p.K * p.Lw:
        raise ValueError(f"message must have K*Lw = {p.K * p.Lw} bits, got {msg.length}")
    return BitVector(p.Lx, row_parities(filter(None, code.symbol_gens[m]), msg.value))


def encode(code: LinearCodeSpec, msg: BitVector) -> list[BitVector]:
    """Encode a full message block; one Lx-bit value per coded symbol."""
    return [encode_symbol(code, m, msg) for m in range(code.params.M)]


def _decoder_table(code: LinearCodeSpec) -> dict:
    """(k, set_index) -> _decoder's map, kept on the code."""
    return {}


def _decoder(code: LinearCodeSpec, k: int, set_index: int) -> tuple[list[int], list[int] | None]:
    """The fixed linear map of one decoding set over its N*Lx stacked answer
    bits y, worked out on first use: two lists of N*Lx-bit int rows, with y
    in the code's image iff every checks row has even parity against y, and
    then bit t of W_k the parity of recovery row t against y. recovery is
    None when the set does not determine W_k."""
    per_code = code.derived(_decoder_table)
    dec = per_code.get((k, set_index))
    if dec is None:
        members = code.supersets[k - 1].sets[set_index]
        rows = [row for m in members for row in code.symbol_gens[m] if row]
        width = code.params.K * code.params.Lw
        checks, solutions = solve_columns(rows, width, code.message_columns(k))
        recovery = None if None in solutions else solutions
        dec = per_code[(k, set_index)] = (checks, recovery)
    return dec


def decode(
    code: LinearCodeSpec, k: int, set_index: int, symbol_values: Sequence[BitVector]
) -> BitVector:
    """Recover source symbol k from the values of one of its decoding sets.

    symbol_values follow the set's canonical order (ascending symbol index).
    Raises IndexError when k or set_index names no decoding set, and
    DecodeFailure when the values are not consistent with the code's image
    or leave some bit of W_k undetermined.
    """
    p = code.params
    if not 1 <= k <= p.K:
        raise IndexError(f"source symbol {k} out of range [1, {p.K}]")
    sets = code.supersets[k - 1].sets
    if not 0 <= set_index < len(sets):
        raise IndexError(f"decoding set {set_index} of source symbol {k} out of range [0, {len(sets)})")
    members = sets[set_index]
    if len(symbol_values) != p.N:
        raise ValueError(f"expected {p.N} symbol values, got {len(symbol_values)}")
    y = 0
    for m, value in zip(members, symbol_values):
        if value.length != p.Lx:
            raise ValueError(f"symbol value for {code.label(m)} must have Lx = {p.Lx} bits")
        y = (y << p.Lx) | value.value
    checks, recovery = _decoder(code, k, set_index)
    if row_parities(checks, y):
        raise DecodeFailure("symbol values are not in the code's image")
    if recovery is None:
        raise DecodeFailure(f"decoding set {members} does not determine source symbol {k}")
    return BitVector(p.Lw, row_parities(recovery, y))


def random_message(code: LinearCodeSpec, rng: random.Random) -> BitVector:
    width = code.params.K * code.params.Lw
    return BitVector.from_bits([rng.randrange(2) for _ in range(width)])


# --- transcribed reference codes ------------------------------------------
#
# Terms are (source symbol k, bit index within it), both 1-based; a row is
# the XOR of its distinct terms and an empty row is a constantly-zero
# sub-symbol. a(i), b(i) and c(i) are bit i of sources 1, 2 and 3.


def a(i):
    return (1, i)


def b(i):
    return (2, i)


def c(i):
    return (3, i)


def _transcribed(
    n: int,
    k: int,
    lw: int,
    lx: int,
    symbols: list[list[list[tuple[int, int]]]],
    supersets: list[list[tuple[int, ...]]],
    groups: list[int] | None,
) -> LinearCodeSpec:
    width = k * lw
    gens = []
    for rows in symbols:
        columns = [[(kk - 1) * lw + (bit - 1) for kk, bit in terms] for terms in rows]
        gens.append([column_mask(width, cols) for cols in columns])
    params = CodeParams(N=n, K=k, M=len(symbols), Lw=lw, Lx=lx)
    return LinearCodeSpec(
        params=params,
        symbol_gens=gens,
        supersets=[
            DecodingSuperset(k=i + 1, sets=tuple(tuple(sorted(s)) for s in sets))
            for i, sets in enumerate(supersets)
        ],
        groups=groups,
        labels=[f"X{i + 1}" for i in range(len(symbols))],
        column_order=COLUMN_ORDER_TRANSCRIBED,
    )


def _fixture_fig1() -> LinearCodeSpec:
    # Six one-bit symbols over three one-bit sources; two replication halves.
    w1, w2, w3 = (1, 1), (2, 1), (3, 1)
    symbols = [[[w1]], [[w2]], [[w3]], [[w2, w3]], [[w1, w2]], [[w3, w1]]]
    supersets = [
        [(0, 3), (1, 4), (2, 5)],
        [(0, 4), (1, 5), (2, 3)],
        [(0, 5), (1, 3), (2, 4)],
    ]
    return _transcribed(2, 3, 1, 1, symbols, supersets, groups=[0, 0, 0, 1, 1, 1])


def _fixture_intro_nonsmooth() -> LinearCodeSpec:
    # Universal but not perfectly smooth; no transversal grouping exists.
    w1, w2, w3 = (1, 1), (2, 1), (3, 1)
    symbols = [[[w1]], [[w2]], [[w3]], [[w2, w3]]]
    supersets = [
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 2), (1, 2), (1, 3)],
    ]
    return _transcribed(2, 3, 1, 1, symbols, supersets, groups=None)


def _fixture_eq28() -> LinearCodeSpec:
    # The published length-4 table for N=K=2; empty rows are the stored-free
    # zero sub-symbols.
    symbols = [
        [[], [a(2)], [b(3)], [a(4), b(4)]],
        [[a(1)], [], [a(3), b(3)], [b(4)]],
        [[a(1), b(1)], [b(2)], [a(3)], []],
        [[b(1)], [a(2), b(2)], [], [a(4)]],
    ]
    supersets = [
        [(0, 1), (2, 3)],
        [(0, 3), (1, 2)],
    ]
    return _transcribed(2, 2, 4, 3, symbols, supersets, groups=[0, 1, 0, 1])


def _fixture_fig2() -> LinearCodeSpec:
    # Replication-flavored SLDC that admits no group partition: turning it
    # into per-database answer sets forces duplication.
    symbols = [
        [[a(1)], [a(2)], [b(1)], [b(2)], [c(1)], [c(2)]],
        [[a(3)], [a(4)], [b(1)], [b(3)], [c(1)], [c(3)]],
        [[a(1)], [a(3)], [b(3)], [b(4)], [c(2)], [c(4)]],
        [[a(2)], [a(4)], [b(2)], [b(4)], [c(3)], [c(4)]],
    ]
    supersets = [
        [(0, 1), (2, 3)],
        [(0, 2), (1, 3)],
        [(0, 3), (1, 2)],
    ]
    return _transcribed(2, 3, 4, 6, symbols, supersets, groups=None)


def _fixture_fig4() -> LinearCodeSpec:
    # Length-8 code behind the two-database retrieval scheme; left column of
    # the figure is group 0, right column group 1.
    symbols = [
        [[a(1)], [b(1)], [c(1)], [a(2), b(2)], [a(3), c(2)], [b(3), c(3)], [a(4), b(4), c(4)]],
        [[a(6)], [b(6)], [c(4)], [a(5), b(5)], [a(8), c(3)], [b(8), c(2)], [a(7), b(7), c(1)]],
        [[a(7)], [b(4)], [c(6)], [a(8), b(3)], [a(5), c(5)], [b(2), c(8)], [a(6), b(1), c(7)]],
        [[a(4)], [b(7)], [c(7)], [a(3), b(8)], [a(2), c(8)], [b(5), c(5)], [a(1), b(6), c(6)]],
        [[a(5)], [b(2)], [c(2)], [a(6), b(1)], [a(7), c(1)], [b(4), c(4)], [a(8), b(3), c(3)]],
        [[a(2)], [b(5)], [c(3)], [a(1), b(6)], [a(4), c(4)], [b(7), c(1)], [a(3), b(8), c(2)]],
        [[a(3)], [b(3)], [c(5)], [a(4), b(4)], [a(1), c(6)], [b(1), c(7)], [a(2), b(2), c(8)]],
        [[a(8)], [b(8)], [c(8)], [a(7), b(7)], [a(6), c(7)], [b(6), c(6)], [a(5), b(5), c(5)]],
    ]
    supersets = [
        [(0, 4), (1, 5), (2, 6), (3, 7)],
        [(0, 5), (1, 4), (2, 7), (3, 6)],
        [(0, 6), (1, 7), (2, 4), (3, 5)],
    ]
    return _transcribed(2, 3, 8, 7, symbols, supersets, groups=[0, 0, 0, 0, 1, 1, 1, 1])


FIXTURES = {
    "fig1": _fixture_fig1,
    "fig2": _fixture_fig2,
    "intro_nonsmooth": _fixture_intro_nonsmooth,
    "eq28": _fixture_eq28,
    "fig4": _fixture_fig4,
}


def load_fixture(name: str) -> LinearCodeSpec:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise CodeSpecError(
            f"unknown fixture {name!r}; valid names: {', '.join(sorted(FIXTURES))}"
        ) from None
    return builder()
