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
for every value. The hash never holds that whole text: the writer feeds it
to SHA-256 one symbol at a time. ``load_document`` frees a file's bytes once
they are decoded, before the text is parsed.

A scheme document, whose SHA-256 ``scheme_digest`` gives as the HELLO
digest of ``pir``, is a code document plus a ``databases`` section. The
walk ``from_document`` makes to check a content hash also feeds a second
SHA-256 state, which alone reads that section for the code's group layout.
A code read from the text ``to_document`` writes for it carries that digest
as ``layout_digest``, and no scheme document is written for it.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple, Sequence

from .capacity import CodeParams
from .gf2 import hex_as_written, rows_from_hex, rows_to_hex

DOCUMENT_VERSION = 1

# Column layout descriptors. Constructed codes order message columns as:
# message k ascending, then sub-source-symbol gamma in lexicographic order
# (gamma_1 most significant), then bit index 1..N-1. Transcribed codes keep
# their published per-message bit order.
COLUMN_ORDER_CANONICAL = "msg-major/gamma-lex/bit-asc"
COLUMN_ORDER_TRANSCRIBED = "msg-major/bit-asc"

# The keys of the dict to_document writes, content_hash aside.
_CODE_KEYS = frozenset({"version", "params", "column_order", "symbols", "supersets"})


class CodeSpecError(ValueError):
    """Structurally invalid code specification or document."""


class DecodingSuperset(
    NamedTuple("DecodingSuperset", [("k", int), ("sets", tuple[tuple[int, ...], ...])])
):
    """The family of decoding sets for one source symbol.

    k is the 1-based source-symbol index. Sets are stored as sorted tuples
    of coded-symbol indices in a stable enumeration order; every set has
    exactly N members.
    """

    __slots__ = ()

    def __new__(cls, k: int, sets: tuple[tuple[int, ...], ...]):
        if not sets:
            raise CodeSpecError(f"superset for source symbol {k} is empty")
        return super().__new__(cls, k, sets)


def _reject_first_bad_row(m: int, gen: Sequence, width: int) -> None:
    """Raise CodeSpecError for the first row of symbol m that is not an
    int or does not fit *width* columns."""
    for r, row in enumerate(gen):
        if type(row) is not int:
            raise CodeSpecError(f"symbol {m} row {r}: must be an int, not {type(row).__name__}")
        if row < 0 or row.bit_length() > width:
            raise CodeSpecError(f"symbol {m} row {r}: does not fit K*Lw = {width} columns")


class LinearCodeSpec:
    """Immutable description of a linear LDC over GF(2).

    symbol_gens[m] is symbol m's generator: a tuple of int rows, each below
    2**(K*Lw) (see ``gf2``). It may contain all-zero rows (sub-symbols that
    are constant zero and never transmitted); the number of nonzero rows
    must equal Lx, so every symbol carries exactly Lx stored bits.
    """

    # (databases, scheme_digest(self, databases)) when from_document read
    # the code from the text to_document writes for it
    layout_digest: tuple[tuple[tuple[int, ...], ...], bytes] | None = None

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
        self.digits = tuple(map(tuple, digits)) if digits is not None else None
        self.labels = tuple(labels) if labels is not None else None
        self.column_order = column_order
        self._validate()

    def _validate(self) -> None:
        p = self.params
        if len(self.symbol_gens) != p.M:
            raise CodeSpecError(f"expected {p.M} symbol generators, got {len(self.symbol_gens)}")
        width = p.K * p.Lw
        for m, gen in enumerate(self.symbol_gens):
            if gen and (set(map(type, gen)) != {int} or min(gen) < 0 or max(gen).bit_length() > width):
                _reject_first_bad_row(m, gen, width)
            nonzero = len(gen) - gen.count(0)
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
            first: dict[tuple[int, ...], int] = {}
            for m, d in enumerate(self.digits):
                if len(d) != p.K or not all(type(x) is int and 0 <= x < p.N for x in d):
                    raise CodeSpecError(f"symbol {m} digits {list(d)}: must be K = {p.K} digits in [0, {p.N})")
                if first.setdefault(d, m) != m:
                    raise CodeSpecError(f"symbol {m} digits {list(d)}: repeat those of symbol {first[d]}")

    # transcribed codes keep their X1..XM labels so reports read naturally
    def label(self, m: int) -> str:
        if self.labels is not None:
            return self.labels[m]
        if self.digits is not None:
            return "X_" + "".join(str(d) for d in self.digits[m])
        return f"X{m + 1}"

    def zero_row(self, m: int) -> int | None:
        gen = self.symbol_gens[m]
        return gen.index(0) if 0 in gen else None

    def message_columns(self, k: int) -> range:
        """Column range of source symbol k (1-based) in the message layout."""
        if not 1 <= k <= self.params.K:
            raise IndexError(f"source symbol index {k} out of [1, {self.params.K}]")
        return range((k - 1) * self.params.Lw, k * self.params.Lw)


def _emit(value, out: list[str], newline: str, step: int, flush=None) -> None:
    """Append the JSON text of value to out as json.dumps(sort_keys=True)
    writes it: compact when newline is "", else indented by step spaces per
    level, newline being the line break plus the current level's pad.

    Str-keyed dicts and lists recurse, and a list of exact ints or of strs
    that need no escaping (hex rows) is joined in one call. Anything else,
    a dict with a non-str key included, goes to json.dumps itself. When
    flush is given it is called after each dict item of a list (each symbol
    of a document), before the separator that the list's last item pops.
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
                _emit(value[key], out, inner, step, flush)
                out.append(sep)
            out.pop()
        elif type(value[0]) is str and _plain_strs(value):
            out.append('"' + f'"{sep}"'.join(value) + '"')
        elif all(type(item) is int for item in value):
            out.append(sep.join(map(int.__repr__, value)))
        else:
            for item in value:
                _emit(item, out, inner, step, flush)
                if flush and type(item) is dict:
                    flush()
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


def _json(value, indent: int | None = None, end: str = "") -> bytes:
    """json.dumps(value, sort_keys=True) as bytes, compact or with indent,
    followed by end."""
    out: list[str] = []
    _emit(value, out, "" if indent is None else "\n", indent or 0)
    out.append(end)
    return "".join(out).encode("utf-8")


def content_hash(doc: dict) -> str:
    """SHA-256 of the compact text of doc without its content_hash field.

    The writer's text is fed to SHA-256 one symbol at a time, so the whole
    text is never held: at (4,3) the hash peaks at tens of KB.
    """
    return _hashes(doc)[0]


def _hashes(doc: dict, databases: Sequence[Sequence[int]] | None = None) -> tuple[str, bytes | None]:
    """content_hash(doc) and, given databases, the SHA-256 of doc's compact
    text with that databases section added, from one walk. Give databases
    only for a doc with the keys _CODE_KEYS (and content_hash) and a str
    column_order: the section sorts next, so the second state takes it at
    the first flush, after the ASCII text '{"column_order":"…",'."""
    body = {key: value for key, value in doc.items() if key != "content_hash"}
    code_state, scheme_state = hashlib.sha256(), None if databases is None else hashlib.sha256()
    at = 0 if databases is None else len('{"column_order":,') + len(_encode_str(body["column_order"]))
    out: list[str] = []

    def flush() -> None:
        nonlocal at
        data = "".join(out).encode("utf-8")
        out.clear()
        code_state.update(data)
        if at:
            scheme_state.update(data[:at] + b'"databases":' + _json([list(db) for db in databases]) + b",")
            data, at = memoryview(data)[at:], 0
        if scheme_state is not None:
            scheme_state.update(data)

    try:
        _emit(body, out, "", 0, flush)
    except RecursionError:
        # a document that contains itself: raise ValueError, as json.dumps does
        json.dumps(body, sort_keys=True)
        raise
    flush()
    return code_state.hexdigest(), None if scheme_state is None else scheme_state.digest()


def _written(code: LinearCodeSpec, rows) -> dict:
    """The dict to_document writes for code, content_hash aside, with
    rows(m) as the rows of symbol m."""
    p = code.params
    symbols = [
        {
            "digits": list(code.digits[m]) if code.digits is not None else None,
            "group": code.groups[m] if code.groups is not None else None,
            "label": code.label(m),
            "zero_row": code.zero_row(m),
            "rows": rows(m),
        }
        for m in range(p.M)
    ]
    return {
        "version": DOCUMENT_VERSION,
        "params": {"N": p.N, "K": p.K, "M": p.M, "Lw": p.Lw, "Lx": p.Lx},
        "column_order": code.column_order,
        "symbols": symbols,
        "supersets": [[list(s) for s in sup.sets] for sup in code.supersets],
    }


def to_document(code: LinearCodeSpec) -> dict:
    """Serialize a code to a hash-stamped JSON-ready dict."""
    width = code.params.K * code.params.Lw
    doc = _written(code, lambda m: rows_to_hex(code.symbol_gens[m], width))
    doc["content_hash"] = content_hash(doc)
    return doc


def scheme_digest(code: LinearCodeSpec, databases: Sequence[Sequence[int]]) -> bytes:
    """The HELLO digest of code served as databases: SHA-256 of the compact
    text of the scheme document, to_document's dict with a databases key.
    A code read from the text to_document writes carries it for its group
    layout (layout_digest); for any other code or layout it is written."""
    memo = code.layout_digest
    if memo is not None and memo[0] == databases:
        return memo[1]
    doc = to_document(code)
    doc["databases"] = [list(db) for db in databases]
    return bytes.fromhex(content_hash(doc))


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise CodeSpecError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _seq(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise CodeSpecError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    value = _seq(value, what)
    if not {int}.issuperset(map(type, value)):
        for x in value:
            _int(x, f"{what} entry")
    return tuple(value)


def _optional(value, kind: type, what: str):
    if value is not None and type(value) is not kind:
        raise CodeSpecError(f"{what} must be {kind.__name__} or null")
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
    CodeSpecError; the checks are linear in the document's size. The walk
    that checks the hash also hashes the scheme document of the groups'
    layout, kept as layout_digest when doc is the text to_document writes.
    """
    if not isinstance(doc, dict):
        raise CodeSpecError(f"document must be a JSON object, not {type(doc).__name__}")
    try:
        version = _int(doc["version"], "version")
        if version != DOCUMENT_VERSION:
            raise CodeSpecError(f"unsupported document version {version}")
        stated = doc.get("content_hash")
        databases = _document_layout(doc)
        try:
            computed, digest = (None, None) if stated is None else _hashes(doc, databases)
        except (TypeError, ValueError, RecursionError) as exc:  # keys that do not sort, a cycle, deep nesting
            raise CodeSpecError(f"document has no canonical serialization: {exc}") from exc
        if stated != computed:
            raise CodeSpecError("content_hash does not match document body")
        pd = doc["params"]
        if not isinstance(pd, dict):
            raise CodeSpecError("params must be an object")
        values = {name: _int(pd[name], f"params.{name}") for name in ("N", "K", "M", "Lw", "Lx")}
        try:
            params = CodeParams(**values)
        except ValueError as exc:
            raise CodeSpecError(f"params: {exc}") from exc
        width = params.K * params.Lw
        rows, groups, digits, labels = [], [], [], []
        for m, sym in enumerate(_seq(doc["symbols"], "symbols")):
            if not isinstance(sym, dict):
                raise CodeSpecError(f"symbol {m} must be an object")
            rows.append(_rows(sym["rows"], width, f"symbol {m} rows"))
            groups.append(_optional(sym.get("group"), int, f"symbol {m} group"))
            d = sym.get("digits")
            digits.append(None if d is None else _ints(d, f"symbol {m} digits"))
            labels.append(_optional(sym.get("label"), str, f"symbol {m} label"))
        # every row was checked against the width, so no row is wider than
        # the document; with no rows at all nothing would bound it
        if not any(rows):
            raise CodeSpecError("document has no generator rows")
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
    code = LinearCodeSpec(
        params=params,
        symbol_gens=rows,
        supersets=supersets,
        groups=groups if has_groups else None,
        digits=digits if has_digits else None,
        labels=labels if has_labels else None,
        column_order=column_order,
    )
    if digest is not None and _as_written(doc, code):
        code.layout_digest = (databases, digest)
    return code


def group_layout(groups: Sequence, n: int) -> tuple[tuple[int, ...], ...] | None:
    """The database layout of an N-partite code: databases[g] lists, in
    ascending order, the symbols whose group is g. None unless the group
    ids are exactly 0..n-1."""
    ids = set(groups)
    if len(ids) != n or ids != set(range(n)):  # range(n) only once n == len(ids) <= M
        return None
    databases: dict = {g: [] for g in range(n)}
    for m, g in enumerate(groups):
        databases[g].append(m)
    return tuple(tuple(databases[g]) for g in range(n))


def _document_layout(doc: dict) -> tuple[tuple[int, ...], ...] | None:
    """group_layout of a document's int groups and params.N, when its keys
    are those to_document writes and its column_order is a str (see
    _hashes); else None. Reads no more than each symbol's group and never
    raises."""
    if doc.keys() - {"content_hash"} != _CODE_KEYS or type(doc["column_order"]) is not str:
        return None
    params, symbols = doc["params"], doc["symbols"]
    if type(params) is not dict or type(symbols) is not list or type(params.get("N")) is not int:
        return None
    groups = [sym.get("group") if type(sym) is dict else None for sym in symbols]
    if not all(type(g) is int for g in groups):
        return None
    return group_layout(groups, params["N"])


def _as_written(doc: dict, code: LinearCodeSpec) -> bool:
    """Whether doc, which from_document read into code, holds the text
    to_document(code) writes: rows aside, it equals the dict to_document
    writes, its rows are hex as rows_to_hex writes it, and its zero rows
    are ints or null (the parse checks no zero_row, and JSON true == 1)."""
    symbols = doc["symbols"]
    return (
        doc == dict(_written(code, lambda m: symbols[m]["rows"]), content_hash=doc["content_hash"])
        and {int, type(None)}.issuperset(type(sym["zero_row"]) for sym in symbols)
        and hex_as_written(list(chain.from_iterable(sym["rows"] for sym in symbols)),
                           code.params.K * code.params.Lw)
    )


def dump_document(doc: dict) -> bytes:
    """Stable, human-readable rendering for files; hash covers the canonical
    form, not this indented one."""
    return _json(doc, indent=2, end="\n")


def load_document(data: bytes) -> dict:
    """The dict of a document file's bytes. The bytes are freed before the
    text is parsed when the caller holds no other reference to them."""
    text = data.decode("utf-8")
    del data
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise CodeSpecError("document nests too deeply to parse") from exc
