"""Exact entropy oracle for linear codes over GF(2).

With i.i.d. uniform message bits, the entropy of any collection of linear
functions of the message equals its GF(2) rank, so every conditional
entropy used by the verification battery reduces to integer rank queries:

    H(X_A | W_J) = rank of the stacked generator rows of A with the columns
    of the symbols in J zeroed out.

All results are exact bit counts; no floating point is involved.
"""

from __future__ import annotations

from typing import Iterable

from .codespec import LinearCodeSpec
from .gf2 import rank_words


class RankOracle:
    """Caching rank-based entropy oracle for one code, kept on the code by
    oracle_for. It holds the code's int generator rows and shape, not the
    code. A miss masks the rows by clearing the conditioned sources' blocks
    from an all-ones mask, so its cost does not grow with K."""

    def __init__(self, code: LinearCodeSpec):
        p = code.params
        self.K, self.Lw, self.M = p.K, p.Lw, p.M
        self.width = p.K * p.Lw
        self._symbol_rows = code.symbol_gens
        # (sorted symbols, frozenset of sources) -> bits, valid queries only
        self._cache: dict[tuple, int] = {}

    def _mask_without(self, conditioned: frozenset[int]) -> int:
        # source k owns columns (k-1)*Lw to k*Lw - 1: one block of Lw bits
        block = (1 << self.Lw) - 1
        mask = (1 << self.width) - 1
        for k in conditioned:
            mask ^= block << (self.width - k * self.Lw)
        return mask

    def entropy(self, symbols: Iterable[int], given_messages: Iterable[int] = ()) -> int:
        """H(X_A | W_J) in bits.

        Every query is looked up as (sorted symbols, frozenset of sources),
        whatever form it is asked in. A miss is validated before its rank is
        computed and stored, so an invalid query is never stored and always
        raises.
        """
        key = (tuple(sorted(set(symbols))), frozenset(given_messages))
        value = self._cache.get(key)
        if value is None:
            a, j = key
            if a and (a[0] < 0 or a[-1] >= self.M):
                raise IndexError(f"symbol index out of range [0, {self.M})")
            if any(not 1 <= k <= self.K for k in j):
                raise IndexError(f"source symbol index out of range [1, {self.K}]")
            if a:
                mask = self._mask_without(j)
                value = rank_words([row & mask for i in a for row in self._symbol_rows[i]])
            else:
                value = 0
            self._cache[key] = value
        return value

    def message_entropy_given(self, k: int, symbols: Iterable[int], given_messages: Iterable[int] = ()) -> int:
        """H(W_k | X_A, W_J) in bits."""
        j = frozenset(given_messages)
        if k in j:
            return 0
        return self.Lw + self.entropy(symbols, j | {k}) - self.entropy(symbols, j)


def oracle_for(code: LinearCodeSpec) -> RankOracle:
    return code.derived(RankOracle)


def conditional_entropy(code: LinearCodeSpec, symbols: Iterable[int], given_messages: Iterable[int] = ()) -> int:
    """H(X_A | W_J) for symbol index set A and source symbol set J (1-based)."""
    return oracle_for(code).entropy(symbols, given_messages)


def _same(ora: RankOracle, i1: int, i2: int, j: frozenset[int]) -> bool:
    """same_information with the oracle and the conditioning set given."""
    h_pair = ora.entropy((i1, i2), j)
    return h_pair == ora.entropy((i1,), j) == ora.entropy((i2,), j)


def _distinct(ora: RankOracle, i1: int, i2: int, j: frozenset[int]) -> bool:
    """distinct_information with the oracle and the conditioning set given."""
    return ora.entropy((i1, i2), j) - ora.entropy((i2,), j) == ora.entropy((i1,), j)


def _complement(code: LinearCodeSpec, kset: Iterable[int]) -> frozenset[int]:
    return frozenset(range(1, code.params.K + 1)) - frozenset(kset)


def same_information(code: LinearCodeSpec, i1: int, i2: int, kset: Iterable[int]) -> bool:
    """Whether symbols i1 and i2 carry the same information about W_kset:
    each determines the other once all sources outside kset are known."""
    return _same(oracle_for(code), i1, i2, _complement(code, kset))


def distinct_information(code: LinearCodeSpec, i1: int, i2: int, k: int) -> bool:
    """Whether conditioning i1 on i2 leaves its residual entropy about source
    symbol k unchanged."""
    return _distinct(oracle_for(code), i1, i2, _complement(code, (k,)))
