import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothldc.gf2 import (
    BitVector,
    column_mask,
    hex_as_written,
    rank_words,
    row_parities,
    rows_from_bytes,
    rows_from_hex,
    rows_to_hex,
    solve_columns,
)
from oracles import restrict_columns

bit_rows = st.integers(min_value=0, max_value=7)
bit_cols = st.integers(min_value=1, max_value=130)


def random_matrix(draw, rows=None, cols=None):
    """(int rows, width) of a random matrix: 0-7 rows of 1-130 columns."""
    r = draw(bit_rows) if rows is None else rows
    c = draw(bit_cols) if cols is None else cols
    return draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r)), c


def from_bits(bits):
    """The int rows of a table of 0/1 rows, first column leftmost."""
    return [BitVector.from_bits(row).value for row in bits]


def identity(n):
    return [1 << (n - 1 - i) for i in range(n)]


class TestRank:
    def test_identity(self):
        assert rank_words(identity(3)) == 3

    # (rows, columns); a zero row is 0 at any width
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (0, 4), (4, 0)])
    def test_zero_matrix(self, shape):
        rows, _ = shape
        assert rank_words([0] * rows) == 0

    def test_dependent_rows(self):
        # third row is the sum of the first two
        assert rank_words(from_bits([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2

    def test_wide_matrix_crossing_word_boundary(self):
        bits = [[0] * 100 for _ in range(2)]
        bits[0][63] = 1
        bits[1][64] = 1
        assert rank_words(from_bits(bits)) == 2

    @given(st.data())
    def test_invariant_under_row_permutation_and_xor(self, data):
        m, _ = random_matrix(data.draw)
        n = len(m)
        if n < 2:
            return
        perm = data.draw(st.permutations(range(n)))
        assert rank_words([m[i] for i in perm]) == rank_words(m)
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if i != j:
            xored = list(m)
            xored[i] ^= xored[j]
            assert rank_words(xored) == rank_words(m)

    @given(st.data())
    def test_subadditive_under_stacking(self, data):
        cols = data.draw(bit_cols)
        a, _ = random_matrix(data.draw, cols=cols)
        b, _ = random_matrix(data.draw, cols=cols)
        assert rank_words(a + b) <= rank_words(a) + rank_words(b)


class TestRestrictColumns:
    def test_keep_all_is_identity(self):
        m = from_bits([[1, 0, 1], [0, 1, 1]])
        assert restrict_columns(m, 3, range(3)) == m

    def test_keep_none(self):
        out = restrict_columns(from_bits([[1, 0, 1], [0, 1, 1]]), 3, ())
        assert out == [0, 0]
        assert rank_words(out) == 0

    def test_projection(self):
        m = from_bits([[1, 0, 1], [0, 1, 1]])
        assert restrict_columns(m, 3, {0, 2}) == from_bits([[1, 1], [0, 1]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            restrict_columns(from_bits([[1, 0, 1]]), 3, {3})

    @given(st.data())
    def test_keeping_all_preserves_rank(self, data):
        m, cols = random_matrix(data.draw)
        assert rank_words(restrict_columns(m, cols, range(cols))) == rank_words(m)

    @given(st.data())
    def test_masking_matches_physical_restriction(self, data):
        m, cols = random_matrix(data.draw)
        keep = data.draw(st.sets(st.integers(0, cols - 1)))
        mask = column_mask(cols, keep)
        assert rank_words([row & mask for row in m]) == rank_words(restrict_columns(m, cols, keep))


class TestMatVec:
    """row_parities, the matrix-vector product on int rows."""

    def test_identity(self):
        v = BitVector.from_bits([1, 0, 1, 1])
        assert row_parities(identity(4), v.value) == v.value

    def test_zero_vector(self):
        assert row_parities(from_bits([[1, 1, 0], [0, 1, 1]]), 0) == 0

    def test_small_product(self):
        m = from_bits([[1, 1, 0], [0, 1, 1]])
        v = BitVector.from_bits([1, 0, 1])
        assert BitVector(2, row_parities(m, v.value)) == BitVector.from_bits([1, 1])

    @given(st.data())
    def test_linearity(self, data):
        m, cols = random_matrix(data.draw)
        u, v = (data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(2))
        assert row_parities(m, u ^ v) == row_parities(m, u) ^ row_parities(m, v)


class TestBitPacking:
    def test_msb_first_bytes(self):
        v = BitVector.from_bits([1, 0, 0, 0, 0, 0, 0, 1, 1])
        assert v.to_bytes() == bytes([0b10000001, 0b10000000])
        assert v.to_hex() == "8180"

    def test_trailing_pad_bits_zeroed(self):
        v = BitVector.from_bytes(b"\xff\xff", 9)
        assert v.to_bytes() == bytes([0xFF, 0x80])

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_roundtrip_bits_bytes_hex(self, bits):
        v = BitVector.from_bits(bits)
        assert list(v.to_bits()) == bits
        assert BitVector.from_bytes(v.to_bytes(), len(bits)) == v
        assert BitVector.from_hex(v.to_hex(), len(bits)) == v

    @pytest.mark.parametrize("size", [1, 3])
    def test_from_bytes_needs_exact_byte_count(self, size):
        with pytest.raises(ValueError, match=f"exactly 2 bytes for 9 bits, got {size}"):
            BitVector.from_bytes(b"\xff" * size, 9)

    def test_indexing_and_xor(self):
        v = BitVector.from_bits([1, 0, 1])
        assert (v[0], v[1], v[2]) == (1, 0, 1)
        assert v ^ v == BitVector.zeros(3)
        with pytest.raises(IndexError):
            v[3]

    def test_values_that_do_not_fit_are_masked(self):
        assert BitVector(4, 0x1F).value == 0xF
        assert BitVector(4, -1).value == 0xF
        assert BitVector(4, 0x9).value == 0x9

    # a wide shape must cost no width-bit mask for a value that already fits
    @pytest.mark.parametrize("make", [lambda width: BitVector(width, 1)], ids=["BitVector"])
    def test_wide_shape_builds_no_mask(self, make):
        tracemalloc.start()
        try:
            made = make(1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
        assert made.value == 1


@st.composite
def width_and_rows(draw):
    width = draw(st.integers(1, 700))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1), max_size=4))


def _outcome(parse):
    try:
        return parse()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestRowCodec:
    """The list-level row codec against one BitVector per row."""

    @given(width_and_rows())
    def test_matches_bit_vector(self, case):
        width, rows = case
        texts = rows_to_hex(rows, width)
        assert texts == [BitVector(width, row).to_hex() for row in rows]
        assert rows_from_hex(texts, width) == rows
        assert rows_from_bytes([BitVector(width, row).to_bytes() for row in rows], width) == rows

    @given(width_and_rows(), st.data())
    def test_hex_as_written_is_a_round_trip(self, case, data):
        """hex_as_written holds exactly when rows_to_hex writes the rows
        rows_from_hex reads back: not after an uppercase digit, a space
        between bytes, or a pad bit."""
        width, rows = case
        texts = rows_to_hex(rows, width)
        if texts:
            r = data.draw(st.integers(0, len(texts) - 1))
            last = int(texts[r][-2:], 16) | data.draw(st.integers(0, 255))  # data bits, pad bits, both or none
            text = texts[r][:-2] + f"{last:02x}"
            texts[r] = data.draw(st.sampled_from([text, text.upper(), text[:2] + " " + text[2:]]))
        assert hex_as_written(texts, width) == (rows_to_hex(rows_from_hex(texts, width), width) == texts)

    @pytest.mark.parametrize("row", [None, 0, 9, 19], ids=["as-written", "first", "second-join", "last"])
    def test_hex_as_written_reads_every_join(self, row):
        """Rows of 2^19 - 5 columns are joined 8 at a time: an edit in any
        join is seen."""
        width = (1 << 19) - 5
        texts = rows_to_hex([(1 << width) - 1 - r for r in range(20)], width)
        if row is not None:
            texts[row] = texts[row][:-1] + "9"  # the last hex digit holds only pad bits
        assert hex_as_written(texts, width) == (row is None)

    # int(text, 16) would also take "0x80", "+80", "8_0" and " 80"; the
    # codec takes what bytes.fromhex takes, whitespace between bytes
    # included. Outcomes as BitVector.from_hex gave them before it shared
    # the codec.
    @pytest.mark.parametrize(
        "text, width, outcome",
        [
            ("8", 8, (ValueError, "non-hexadecimal number found in fromhex() arg at position 1")),
            ("808", 12, (ValueError, "non-hexadecimal number found in fromhex() arg at position 3")),
            ("zz", 8, (ValueError, "non-hexadecimal number found in fromhex() arg at position 0")),
            ("8000", 8, (ValueError, "need exactly 1 bytes for 8 bits, got 2")),
            ("", 8, (ValueError, "need exactly 1 bytes for 8 bits, got 0")),
            ("80", 9, (ValueError, "need exactly 2 bytes for 9 bits, got 1")),
            ("0x80", 8, (ValueError, "non-hexadecimal number found in fromhex() arg at position 1")),
            ("+80", 8, (ValueError, "non-hexadecimal number found in fromhex() arg at position 0")),
            ("8_0", 8, (ValueError, "non-hexadecimal number found in fromhex() arg at position 1")),
            (" 80", 8, 0x80),
            ("80 00", 16, 0x8000),
            ("80 00", 8, (ValueError, "need exactly 1 bytes for 8 bits, got 2")),
            ("FF80", 9, 0x1FF),
            ("fF", 8, 0xFF),
            (128, 8, (TypeError, "fromhex() argument must be str, not int")),
            (None, 8, (TypeError, "fromhex() argument must be str, not None")),
            (b"80", 8, (TypeError, "fromhex() argument must be str, not bytes")),
        ],
    )
    def test_malformed_corpus_agrees_with_bit_vector(self, text, width, outcome):
        assert _outcome(lambda: BitVector.from_hex(text, width).value) == outcome
        assert _outcome(lambda: rows_from_hex([text], width)[0]) == outcome
        assert _outcome(lambda: rows_from_hex(["00" * -(-width // 8), text], width)[1]) == outcome


def _consistent(m, width, rhs):
    """Whether m·x = rhs has a solution: every parity check of m's rows
    annihilates rhs."""
    checks, _ = solve_columns(m, width, ())
    return not row_parities(checks, rhs.value)


class TestSolveColumns:
    def test_consistent_solve(self):
        m = from_bits([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        rhs = BitVector.from_bits([1, 1, 0])
        assert _consistent(m, 3, rhs)

    def test_inconsistent_detected(self):
        m = from_bits([[1, 1, 0], [1, 1, 0]])
        rhs = BitVector.from_bits([1, 0])
        assert not _consistent(m, 3, rhs)

    def test_unit_row_solutions(self):
        # rows span e0 and e1 but not e2
        m = from_bits([[1, 1, 0], [0, 1, 0]])
        rhs = BitVector.from_bits([1, 1])
        _, solutions = solve_columns(m, 3, range(3))
        assert solutions == [0b11, 0b01, None]  # e0 = row0 + row1, e1 = row1
        bits = [None if r is None else (r & rhs.value).bit_count() & 1 for r in solutions]
        assert bits == [0, 1, None]  # e0 value 1^1, e1 value 1

    @given(st.data())
    def test_matches_every_row_combination(self, data):
        """Against all 2^n combinations of m's n rows, enumerated with numpy:
        the checks annihilate m, are independent and number n - rank(m), and
        each solution r gives r·m = e_j, None exactly when no combination
        does."""
        rows, width = random_matrix(data.draw, data.draw(st.integers(0, 8)), data.draw(st.integers(1, 10)))
        n = len(rows)
        m = np.array([[row >> (width - 1 - c) & 1 for c in range(width)] for row in rows], dtype=np.int64)
        masks = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1  # mask r -> its bits, row 0 first
        products = masks @ m.reshape(n, width) % 2  # row r: r·m
        kernel = int((~products.any(axis=1)).sum())
        checks, solutions = solve_columns(rows, width, range(width))
        assert not products[checks].any()
        assert 1 << len(checks) == kernel  # n - rank(m) of them
        combos = np.arange(1, 1 << len(checks))[:, None] >> np.arange(len(checks) - 1, -1, -1) & 1
        assert (combos @ masks[checks] % 2).any(axis=1).all()  # no nonempty sum of checks is 0
        for unit, r in zip(np.eye(width, dtype=np.int64), solutions):
            if r is None:
                assert not (products == unit).all(axis=1).any()
            else:
                assert (products[r] == unit).all()
