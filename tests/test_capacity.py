import math
from fractions import Fraction

import pytest

from smoothldc.capacity import (
    CodeParams,
    capacity_uldc,
    min_length,
    min_upload_bits,
    pir_capacity,
    symbol_and_code_rate,
)

GRID = [(n, k) for n in range(1, 9) for k in range(1, 9)]


class TestCapacity:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (2, 2, Fraction(4, 3)),
            (3, 3, Fraction(27, 13)),
            (2, 3, Fraction(8, 7)),
            (5, 1, Fraction(5)),
            (1, 4, Fraction(1, 4)),
        ],
    )
    def test_values(self, n, k, expected):
        assert capacity_uldc(n, k) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            capacity_uldc(0, 3)
        with pytest.raises(ValueError):
            capacity_uldc(2, 0)

    def test_matches_geometric_series_form(self):
        for n, k in GRID:
            if n == 1:
                continue
            series = sum(Fraction(1, n**i) for i in range(k))
            assert capacity_uldc(n, k) == n / series

    def test_equals_n_times_pir_capacity(self):
        for n, k in GRID:
            assert capacity_uldc(n, k) == n * pir_capacity(n, k)

    def test_monotone_in_n_and_k(self):
        for n, k in GRID:
            if k < 8:
                assert capacity_uldc(n, k + 1) < capacity_uldc(n, k)
            if n < 8:
                assert capacity_uldc(n + 1, k) > capacity_uldc(n, k)

    def test_bounds(self):
        for n, k in GRID:
            c = capacity_uldc(n, k)
            assert n - 1 < c <= n


class TestMinLength:
    @pytest.mark.parametrize("n,k,expected", [(2, 3, 8), (3, 3, 27), (7, 1, 7)])
    def test_values(self, n, k, expected):
        assert min_length(n, k) == expected

    def test_recurrence(self):
        for n, k in GRID:
            assert min_length(n, k + 1) == n * min_length(n, k)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            min_length(2, 80)

    @pytest.mark.parametrize("n, k", [(2, 63), (10, 5000)])
    def test_overflow_names_n_and_k(self, n, k):
        with pytest.raises(OverflowError, match=rf"N\^K = {n}\^{k} exceeds the supported range"):
            min_length(n, k)


class TestUpload:
    @pytest.mark.parametrize(
        "n,k,expected", [(2, 3, 2.0), (5, 1, 0.0), (4, 3, 4.0)]
    )
    def test_values(self, n, k, expected):
        assert min_upload_bits(n, k) == pytest.approx(expected, abs=1e-12)

    def test_single_database_rejected(self):
        with pytest.raises(ValueError):
            min_upload_bits(1, 3)

    def test_matches_log_of_query_space(self):
        for n, k in GRID:
            if n >= 2:
                assert min_upload_bits(n, k) == pytest.approx(math.log2(n ** (k - 1)))


class TestPirCapacity:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 3, Fraction(4, 7)), (6, 1, Fraction(1)), (1, 5, Fraction(1, 5))],
    )
    def test_values(self, n, k, expected):
        assert pir_capacity(n, k) == expected


class TestRates:
    def test_replicated_single_bit_code(self):
        params = CodeParams(N=2, K=3, M=6, Lw=1, Lx=1)
        assert symbol_and_code_rate(params) == (Fraction(1), Fraction(1, 2))

    def test_length_four_code(self):
        params = CodeParams(N=2, K=2, M=4, Lw=4, Lx=3)
        assert symbol_and_code_rate(params) == (Fraction(4, 3), Fraction(2, 3))

    def test_uncoded(self):
        params = CodeParams(N=3, K=3, M=3, Lw=5, Lx=5)
        assert symbol_and_code_rate(params) == (Fraction(1), Fraction(1))

    def test_zero_symbol_size_rejected(self):
        params = CodeParams(N=2, K=2, M=4, Lw=4, Lx=0)
        with pytest.raises(ZeroDivisionError):
            symbol_and_code_rate(params)


class TestCodeParams:
    def test_locality_bounded_by_length(self):
        with pytest.raises(ValueError):
            CodeParams(N=5, K=2, M=4, Lw=1, Lx=1)
