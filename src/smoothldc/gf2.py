"""Linear algebra over GF(2) on Python-int rows.

A row of width W is an int below 2**W, MSB-first: column j is int bit
W-1-j. Serialized, a row is ceil(W/8) big-endian bytes with the columns in
the leading bits and zero pad bits after them, so column 0 is the most
significant bit of the first byte. A matrix is a sequence of such rows with
its width passed alongside; a ``BitVector`` is one row that carries its
length. ``BitVector`` is immutable after construction and every operation
here is a pure function.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence


def _layout(width: int) -> tuple[int, int]:
    """(bytes, trailing pad bits) of a serialized row of *width* bits."""
    need = -(-width // 8)
    return need, 8 * need - width


def rows_to_hex(rows: Iterable[int], width: int) -> list[str]:
    need, pad = _layout(width)
    return [(row << pad).to_bytes(need, "big").hex() for row in rows]


def _wrong_length(need: int, width: int, got: int) -> ValueError:
    return ValueError(f"need exactly {need} bytes for {width} bits, got {got}")


def rows_from_bytes(blobs: Iterable[bytes], width: int) -> list[int]:
    """Parse serialized rows of *width* bits, each exactly ceil(width/8)
    bytes, ignoring pad bits; ValueError naming the first other length."""
    need, pad = _layout(width)
    blobs = list(blobs)
    if set(map(len, blobs)) - {need}:
        raise _wrong_length(need, width, next(size for size in map(len, blobs) if size != need))
    rows = list(map(int.from_bytes, blobs, repeat("big")))
    return [row >> pad for row in rows] if pad else rows


def rows_from_hex(texts: Iterable[str], width: int) -> list[int]:
    """Parse hex rows of *width* bits, ignoring pad bits; TypeError or
    ValueError for the first row, in order, that is not hex or not of
    ceil(width/8) bytes."""
    blobs: list[bytes] = []
    try:
        blobs.extend(map(bytes.fromhex, texts))  # keeps the rows before a text that is not hex
    except (TypeError, ValueError):
        rows_from_bytes(blobs, width)  # a wrong length among them comes first
        raise
    return rows_from_bytes(blobs, width)


# the hex digits with none of a nibble's bits set, by nibble
_CLEAR_DIGITS = ["".join(f"{digit:x}" for digit in range(16) if not digit & nibble) for nibble in range(16)]


def hex_as_written(texts: Sequence[str], width: int) -> bool:
    """Whether hex rows that rows_from_hex reads at *width* are exactly
    what rows_to_hex writes for them: lowercase, no whitespace, and zero
    pad bits, the low bits of each row's last byte. The rows are joined
    about 1 MiB of text at a time."""
    need, pad = _layout(width)
    step = 2 * need
    per_join = max(1, (1 << 20) // step)
    for start in range(0, len(texts), per_join):
        rows = texts[start : start + per_join]
        text = "".join(rows)
        if len(text) != step * len(rows) or any(letter in text for letter in "ABCDEF"):
            return False
        for place in (1, 2):
            nibble = ((1 << pad) - 1 >> 4 * (place - 1)) & 0xF
            digits = text[step - place :: step]  # each row's last hex digit, then the one before it
            if nibble and sum(map(digits.count, _CLEAR_DIGITS[nibble])) != len(digits):
                return False
    return True


class BitVector:
    """Immutable sequence of bits: ``length`` and an int ``value``."""

    __slots__ = ("length", "value")

    def __init__(self, length: int, value: int = 0):
        if length < 0:
            raise ValueError("length must be >= 0")
        self.length = length
        # the low *length* bits; a value that already fits is kept as it is,
        # so no length-bit mask is built for it
        if value < 0 or value.bit_length() > length:
            value &= (1 << length) - 1
        self.value = value

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """The bits of a sequence of 0/1 values, first value leftmost."""
        value = length = 0
        for b in bits:
            value = (value << 1) | (1 if b else 0)
            length += 1
        return cls(length, value)

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(length)

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitVector":
        """Parse exactly ceil(length/8) bytes; pad bits are ignored."""
        need, pad = _layout(length)
        if len(data) != need:
            raise _wrong_length(need, length, len(data))
        return cls(length, int.from_bytes(data, "big") >> pad)

    @classmethod
    def from_hex(cls, text: str, length: int) -> "BitVector":
        return cls.from_bytes(bytes.fromhex(text), length)

    def to_bits(self) -> list[int]:
        return [(self.value >> (self.length - 1 - j)) & 1 for j in range(self.length)]

    def to_bytes(self) -> bytes:
        need, pad = _layout(self.length)
        return (self.value << pad).to_bytes(need, "big")

    def to_hex(self) -> str:
        return rows_to_hex((self.value,), self.length)[0]

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(j)
        return (self.value >> (self.length - 1 - j)) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.value ^ other.value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.length, self.value))

    def any(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        shown = "".join(str(b) for b in self.to_bits()[:64])
        return f"BitVector({shown}{'...' if self.length > 64 else ''})"


def rank_words(rows: Iterable[int]) -> int:
    """GF(2) rank of int rows: each row is reduced against an XOR basis
    keyed by leading bit (``int.bit_length``) until it is zero or brings a
    new leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return len(basis)


def row_parities(rows: Iterable[int], value: int) -> int:
    """The GF(2) inner products <row, value>, first row as the leading bit."""
    out = 0
    for row in rows:
        out = (out << 1) | ((row & value).bit_count() & 1)
    return out


def column_mask(cols: int, keep: Iterable[int]) -> int:
    """Mask keeping only the given columns; AND-ing rows with it zeroes the
    rest, which leaves ranks equal to those of the physically restricted
    matrix."""
    mask = 0
    for j in set(keep):
        if not 0 <= j < cols:
            raise IndexError(f"column index {j} out of range [0, {cols})")
        mask |= 1 << (cols - 1 - j)
    return mask


def solve_columns(
    rows: Sequence[int], width: int, columns: Iterable[int]
) -> tuple[list[int], list[int | None]]:
    """Eliminate the int rows of a matrix m with *width* columns once and
    return ``(checks, solutions)``.

    Row combinations are n-bit masks over m's n rows, row i being bit
    n-1-i. Each row carries its own mask as n extra low bits, so a row that
    reduces to zero leaves a parity check c with c·m = 0; the checks span
    every such combination. ``solutions[t]`` is a mask r with
    r·m = e_{columns[t]}, or None when that unit row is not in m's row space.
    """
    n = len(rows)
    basis: dict[int, int] = {}
    checks = []
    for i, row in enumerate(rows):
        row = (row << n) | (1 << (n - 1 - i))
        while row >> n:
            lead = row.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
        else:
            checks.append(row)
    solutions: list[int | None] = []
    for j in columns:
        residual = 1 << (width - 1 - j + n)
        while residual >> n and (pivot := basis.get(residual.bit_length())) is not None:
            residual ^= pivot
        solutions.append(None if residual >> n else residual)
    return checks, solutions
