"""Closed-form capacity, length, and upload-cost quantities.

Everything that admits an exact answer is kept exact: capacities and rates
are ``fractions.Fraction``, never floats. Only the upload cost (a log) is a
float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

# Lengths up to 2^_MAX_LENGTH_BITS; past that, packed-index arithmetic would misbehave downstream.
_MAX_LENGTH_BITS = 62


class CodeParams(NamedTuple("CodeParams", [("N", int), ("K", int), ("M", int), ("Lw", int), ("Lx", int)])):
    """Parameters of a locally decodable code.

    N: locality (= number of databases on the retrieval side)
    K: number of source symbols
    M: code length (number of coded symbols)
    Lw: bits per source symbol
    Lx: bits per coded symbol
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__ too

    def __new__(cls, N: int, K: int, M: int, Lw: int, Lx: int):
        if N < 1 or K < 1:
            raise ValueError("N and K must be >= 1")
        if not N <= M:
            raise ValueError("locality cannot exceed code length")
        if Lw < 1 or Lx < 0:
            raise ValueError("Lw must be >= 1 and Lx >= 0")
        return super().__new__(cls, N, K, M, Lw, Lx)


def _check_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"N and K must be >= 1, got N={n}, K={k}")


def capacity_uldc(n: int, k: int) -> Fraction:
    """Maximum symbol rate of a universal (equivalently, perfectly smooth)
    locally decodable code with locality n and k source symbols, over all
    code lengths: N^K (N-1) / (N^K - 1)."""
    _check_nk(n, k)
    if n == 1:
        # The closed form degenerates to 0/0; with a single-symbol decoding
        # set every coded symbol must determine all k sources.
        return Fraction(1, k)
    return Fraction(n**k * (n - 1), n**k - 1)


def pir_capacity(n: int, k: int) -> Fraction:
    """Capacity of private retrieval with n databases and k messages under
    the maximum-download metric: (1 + 1/n + ... + 1/n^(k-1))^-1."""
    return capacity_uldc(n, k) / n


def min_length(n: int, k: int) -> int:
    """Shortest code length at which the capacity is attainable: n^k."""
    _check_nk(n, k)
    # 2^k alone is past the range for larger k, so n^k is not computed there
    if n > 1 and k > _MAX_LENGTH_BITS or (m := n**k) > 1 << _MAX_LENGTH_BITS:
        raise OverflowError(f"N^K = {n}^{k} exceeds the supported range of 2^{_MAX_LENGTH_BITS} symbols")
    return m


def min_upload_bits(n: int, k: int) -> float:
    """Minimum upload of a capacity-achieving retrieval scheme, in bits per
    database: (k-1) * log2(n)."""
    if n < 2:
        raise ValueError("upload cost needs at least 2 databases")
    if k < 1:
        raise ValueError("K must be >= 1")
    return (k - 1) * math.log2(n)


def symbol_and_code_rate(params: CodeParams) -> tuple[Fraction, Fraction]:
    """(symbol rate Lw/Lx, code rate K*Lw / (M*Lx))."""
    if params.Lx == 0:
        raise ZeroDivisionError("Lx must be positive to form a rate")
    return (
        Fraction(params.Lw, params.Lx),
        Fraction(params.K * params.Lw, params.M * params.Lx),
    )
