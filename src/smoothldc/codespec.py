"""Linear code specifications and their on-disk document format.

A ``LinearCodeSpec`` is a complete description of a binary linear locally
decodable code: parameters, one generator per coded symbol (a tuple of int
rows, the symbol's bit equations over the K*Lw message-bit columns), the
decoding supersets, and an optional group id per symbol for N-partite codes.

The document format is self-describing JSON:

    version, params {N,K,M,Lw,Lx}, column_order, symbols = [{digits, group,
    zero_row, rows: [hex MSB-first, ...]}, ...], supersets = [[sorted symbol
    index lists], ...] per source symbol, optional databases section,
    content_hash = SHA-256 over the canonical serialization.

The canonical serialization (sorted keys, no whitespace) makes the hash and
the written bytes platform-stable. Both it and the indented file form come
from one writer whose output equals ``json.dumps(value, sort_keys=True, ...)``
for every value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from .capacity import CodeParams
from .gf2 import rows_from_hex, rows_to_hex

DOCUMENT_VERSION = 1

# Column layout descriptors. Constructed codes order message columns as:
# message k ascending, then sub-source-symbol gamma in lexicographic order
# (gamma_1 most significant), then bit index 1..N-1. Transcribed codes keep
# their published per-message bit order.
COLUMN_ORDER_CANONICAL = "msg-major/gamma-lex/bit-asc"
COLUMN_ORDER_TRANSCRIBED = "msg-major/bit-asc"


class CodeSpecError(ValueError):
    """Structurally invalid code specification or document."""


@dataclass(frozen=True)
class DecodingSuperset:
    """The family of decoding sets for one source symbol.

    Sets are stored as sorted tuples of coded-symbol indices in a stable
    enumeration order; every set has exactly N members.
    """

    k: int  # 1-based source-symbol index
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.sets:
            raise CodeSpecError(f"superset for source symbol {self.k} is empty")

    def __len__(self) -> int:
        return len(self.sets)


class LinearCodeSpec:
    """Immutable description of a linear LDC over GF(2).

    symbol_gens[m] is symbol m's generator: a tuple of int rows, each below
    2**(K*Lw) (see ``gf2``). It may contain all-zero rows (sub-symbols that
    are constant zero and never transmitted); the number of nonzero rows
    must equal Lx, so every symbol carries exactly Lx stored bits.
    """

    def __init__(
        self,
        params: CodeParams,
        symbol_gens: Sequence[Sequence[int]],
        supersets: Sequence[DecodingSuperset],
        groups: Sequence[int] | None = None,
        digits: Sequence[tuple[int, ...]] | None = None,
        labels: Sequence[str] | None = None,
        column_order: str = COLUMN_ORDER_TRANSCRIBED,
    ):
        self.params = params
        self.symbol_gens = tuple(map(tuple, symbol_gens))
        self.supersets = tuple(supersets)
        self.groups = tuple(groups) if groups is not None else None
        self.digits = tuple(digits) if digits is not None else None
        self.labels = tuple(labels) if labels is not None else None
        self.column_order = column_order
        self._validate()

    def _validate(self) -> None:
        p = self.params
        if len(self.symbol_gens) != p.M:
            raise CodeSpecError(f"expected {p.M} symbol generators, got {len(self.symbol_gens)}")
        width = p.K * p.Lw
        for m, gen in enumerate(self.symbol_gens):
            nonzero = 0
            for r, row in enumerate(gen):
                if type(row) is not int:
                    raise CodeSpecError(f"symbol {m} row {r}: must be an int, not {type(row).__name__}")
                if row:
                    if row < 0 or row.bit_length() > width:
                        raise CodeSpecError(f"symbol {m} row {r}: does not fit K*Lw = {width} columns")
                    nonzero += 1
            if nonzero != p.Lx:
                raise CodeSpecError(f"symbol {m}: {nonzero} nonzero rows, expected Lx = {p.Lx}")
        if len(self.supersets) != p.K:
            raise CodeSpecError(f"expected {p.K} decoding supersets, got {len(self.supersets)}")
        for idx, sup in enumerate(self.supersets, start=1):
            if sup.k != idx:
                raise CodeSpecError(f"superset {idx} is labeled k={sup.k}")
            for s in sup.sets:
                if len(s) != p.N or len(set(s)) != p.N:
                    raise CodeSpecError(f"decoding set {s} for k={idx} must have {p.N} distinct members")
                if s != tuple(sorted(s)) or s[0] < 0 or s[-1] >= p.M:
                    raise CodeSpecError(f"decoding set {s} for k={idx} must be sorted and within [0, {p.M})")
        if self.groups is not None:
            if len(self.groups) != p.M:
                raise CodeSpecError("groups must assign one id per coded symbol")
            for sup in self.supersets:
                for s in sup.sets:
                    seen = [self.groups[i] for i in s]
                    if len(set(seen)) != p.N:
                        raise CodeSpecError(
                            f"decoding set {s} is not a group transversal (groups {seen})"
                        )
        if self.labels is not None and len(self.labels) != p.M:
            raise CodeSpecError(f"labels must name all {p.M} coded symbols, got {len(self.labels)}")
        if self.digits is not None:
            if len(self.digits) != p.M:
                raise CodeSpecError(f"digits must give all {p.M} coded symbols a vector, got {len(self.digits)}")
            for m, d in enumerate(self.digits):
                if len(d) != p.K or not all(type(x) is int and 0 <= x < p.N for x in d):
                    raise CodeSpecError(f"symbol {m} digits {list(d)}: must be K = {p.K} digits in [0, {p.N})")

    # transcribed codes keep their X1..XM labels so reports read naturally
    def label(self, m: int) -> str:
        if self.labels is not None:
            return self.labels[m]
        if self.digits is not None:
            return "X_" + "".join(str(d) for d in self.digits[m])
        return f"X{m + 1}"

    def zero_row(self, m: int) -> int | None:
        return next((r for r, row in enumerate(self.symbol_gens[m]) if not row), None)

    def message_columns(self, k: int) -> range:
        """Column range of source symbol k (1-based) in the message layout."""
        if not 1 <= k <= self.params.K:
            raise IndexError(f"source symbol index {k} out of [1, {self.params.K}]")
        return range((k - 1) * self.params.Lw, k * self.params.Lw)


def _emit(value, out: list[str], newline: str, step: int) -> None:
    """Append the JSON text of value to out as json.dumps(sort_keys=True)
    writes it: compact when newline is "", else indented by step spaces per
    level, newline being the line break plus the current level's pad.

    Str-keyed dicts and lists recurse, and a list of exact ints or of strs
    that need no escaping (hex rows) is joined in one call. Anything else,
    a dict with a non-str key included, goes to json.dumps itself.
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif (kind is list or kind is dict and all(type(key) is str for key in value)) and value:
        inner = newline and newline + " " * step
        sep = "," + inner
        out.append(("[" if kind is list else "{") + inner)
        if kind is dict:
            colon = ": " if newline else ":"
            for key in sorted(value):
                out.append(_encode_str(key) + colon)
                _emit(value[key], out, inner, step)
                out.append(sep)
            out.pop()
        elif type(value[0]) is str and _plain_strs(value):
            out.append('"' + f'"{sep}"'.join(value) + '"')
        elif all(type(item) is int for item in value):
            out.append(sep.join(map(int.__repr__, value)))
        else:
            for item in value:
                _emit(item, out, inner, step)
                out.append(sep)
            out.pop()
        out.append(newline + ("]" if kind is list else "}"))
    elif newline:  # json.dumps escapes a newline inside a string, so each one is a line break
        out.append(json.dumps(value, sort_keys=True, indent=step).replace("\n", newline))
    else:
        out.append(json.dumps(value, sort_keys=True, separators=(",", ":")))


def _plain_strs(items: list) -> bool:
    """True when the items are strs of ASCII letters and digits, not all empty."""
    try:
        text = "".join(items)
    except TypeError:  # an item that is not a str
        return False
    return text.isascii() and text.encode().isalnum()


def _json(value, indent: int | None = None) -> bytes:
    """json.dumps(value, sort_keys=True) as bytes: compact, or with indent."""
    out: list[str] = []
    _emit(value, out, "" if indent is None else "\n", indent or 0)
    return "".join(out).encode("utf-8")


def content_hash(doc: dict) -> str:
    body = {key: value for key, value in doc.items() if key != "content_hash"}
    return hashlib.sha256(_json(body)).hexdigest()


def to_document(code: LinearCodeSpec, databases: Sequence[Sequence[int]] | None = None) -> dict:
    """Serialize a code (plus optional per-database answer lists) to a
    hash-stamped JSON-ready dict."""
    p = code.params
    width = p.K * p.Lw
    symbols = []
    for m, gen in enumerate(code.symbol_gens):
        symbols.append(
            {
                "digits": list(code.digits[m]) if code.digits is not None else None,
                "group": code.groups[m] if code.groups is not None else None,
                "label": code.label(m),
                "zero_row": code.zero_row(m),
                "rows": rows_to_hex(gen, width),
            }
        )
    doc = {
        "version": DOCUMENT_VERSION,
        "params": {"N": p.N, "K": p.K, "M": p.M, "Lw": p.Lw, "Lx": p.Lx},
        "column_order": code.column_order,
        "symbols": symbols,
        "supersets": [[list(s) for s in sup.sets] for sup in code.supersets],
    }
    if databases is not None:
        doc["databases"] = [list(db) for db in databases]
    doc["content_hash"] = content_hash(doc)
    return doc


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise CodeSpecError(message)


def _int(value, what: str) -> int:
    _need(type(value) is int, f"{what} must be an integer, not {type(value).__name__}")
    return value


def _seq(value, what: str) -> list | tuple:
    _need(isinstance(value, (list, tuple)), f"{what} must be a list, not {type(value).__name__}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    return tuple(_int(x, f"{what} entry") for x in _seq(value, what))


def _optional(value, kind: type, what: str):
    _need(value is None or type(value) is kind, f"{what} must be {kind.__name__} or null")
    return value


def _rows(texts, width: int, what: str) -> list[int]:
    texts = _seq(texts, what)
    try:
        return rows_from_hex(texts, width)
    except (TypeError, ValueError) as exc:  # not a str, bad hex, or the wrong length
        raise CodeSpecError(f"{what}: {exc}") from exc


def from_document(doc: dict) -> LinearCodeSpec:
    """Reconstruct a code from a document, verifying its content hash.

    A document of the wrong shape or with values of the wrong type raises
    CodeSpecError; the checks are linear in the document's size.
    """
    _need(isinstance(doc, dict), f"document must be a JSON object, not {type(doc).__name__}")
    try:
        version = _int(doc["version"], "version")
        _need(version == DOCUMENT_VERSION, f"unsupported document version {version}")
        stated = doc.get("content_hash")
        try:
            computed = None if stated is None else content_hash(doc)
        except (TypeError, ValueError, RecursionError) as exc:  # keys that do not sort, a cycle, deep nesting
            raise CodeSpecError(f"document has no canonical serialization: {exc}") from exc
        _need(stated == computed, "content_hash does not match document body")
        pd = doc["params"]
        _need(isinstance(pd, dict), "params must be an object")
        values = {name: _int(pd[name], f"params.{name}") for name in ("N", "K", "M", "Lw", "Lx")}
        try:
            params = CodeParams(**values)
        except ValueError as exc:
            raise CodeSpecError(f"params: {exc}") from exc
        width = params.K * params.Lw
        rows, groups, digits, labels = [], [], [], []
        for m, sym in enumerate(_seq(doc["symbols"], "symbols")):
            _need(isinstance(sym, dict), f"symbol {m} must be an object")
            rows.append(_rows(sym["rows"], width, f"symbol {m} rows"))
            groups.append(_optional(sym.get("group"), int, f"symbol {m} group"))
            d = sym.get("digits")
            digits.append(None if d is None else _ints(d, f"symbol {m} digits"))
            labels.append(_optional(sym.get("label"), str, f"symbol {m} label"))
        # every row was checked against the width, so no row is wider than
        # the document; with no rows at all nothing would bound it
        _need(any(rows), "document has no generator rows")
        supersets = tuple(
            DecodingSuperset(
                k=i + 1,
                sets=tuple(
                    tuple(sorted(_ints(s, f"superset {i + 1} set")))
                    for s in _seq(sets, f"superset {i + 1}")
                ),
            )
            for i, sets in enumerate(_seq(doc["supersets"], "supersets"))
        )
        column_order = _optional(doc.get("column_order", COLUMN_ORDER_TRANSCRIBED), str, "column_order")
    except KeyError as exc:
        raise CodeSpecError(f"document is missing field {exc}") from exc
    has_groups = all(g is not None for g in groups)
    has_digits = all(d is not None for d in digits)
    has_labels = all(lb is not None for lb in labels)
    return LinearCodeSpec(
        params=params,
        symbol_gens=rows,
        supersets=supersets,
        groups=groups if has_groups else None,
        digits=digits if has_digits else None,
        labels=labels if has_labels else None,
        column_order=column_order,
    )


def dump_document(doc: dict) -> bytes:
    """Stable, human-readable rendering for files; hash covers the canonical
    form, not this indented one."""
    return _json(doc, indent=2) + b"\n"


def load_document(data: bytes) -> dict:
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError as exc:
        raise CodeSpecError("document nests too deeply to parse") from exc
