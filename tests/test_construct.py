import copy
import gc
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_decode, message_slice, reference_generator_rows, reference_json
import smoothldc
from smoothldc import capacity, construct
from smoothldc.codespec import (
    CodeSpecError,
    DecodingSuperset,
    LinearCodeSpec,
    _json,
    content_hash,
    dump_document,
    from_document,
    load_document,
    to_document,
)
from smoothldc.construct import (
    BudgetExceeded,
    DecodeFailure,
    build_sldc,
    decode,
    digits_to_index,
    encode,
    encode_symbol,
    enumerate_supersets,
    index_to_digits,
    load_fixture,
    random_message,
)
from smoothldc.gf2 import BitVector, rank_words
from smoothldc.verify import check_correctness, check_smoothness, check_universality


class TestIndexing:
    def test_digit_roundtrip(self):
        for n, k in [(2, 3), (3, 2), (4, 3)]:
            for idx in range(n**k):
                assert digits_to_index(index_to_digits(idx, n, k), n) == idx

    def test_lexicographic(self):
        assert index_to_digits(0, 3, 3) == (0, 0, 0)
        assert index_to_digits(5, 3, 3) == (0, 1, 2)
        assert index_to_digits(26, 3, 3) == (2, 2, 2)


class TestBuild:
    def test_2_2_shape(self):
        code = build_sldc(2, 2)
        p = code.params
        assert (p.M, p.Lw, p.Lx) == (4, 4, 3)
        # groups by digit sum parity: {00, 11} vs {01, 10}
        assert code.groups == (0, 1, 1, 0)

    def test_2_3_shape(self):
        code = build_sldc(2, 3)
        p = code.params
        assert (p.M, p.Lw, p.Lx) == (8, 8, 7)
        assert all(len(sup.sets) == 4 for sup in code.supersets)

    def test_3_3_shape(self):
        code = build_sldc(3, 3)
        p = code.params
        assert (p.M, p.Lw, p.Lx) == (27, 54, 26)
        assert all(len(sup.sets) == 9 for sup in code.supersets)

    def test_exactly_one_zero_row_per_symbol(self, codes):
        for n, k in [(2, 2), (2, 3), (3, 2)]:
            code = codes[(n, k)]
            for m in range(code.params.M):
                gen = code.symbol_gens[m]
                zero_rows = [r for r, row in enumerate(gen) if not row]
                assert len(zero_rows) == 1
                # the zero row sits where every digit of gamma cancels p
                p_digits = code.digits[m]
                expected = digits_to_index([(-d) % n for d in p_digits], n)
                assert zero_rows == [expected]
                assert rank_words(gen) == code.params.Lx

    # every N^K <= 256, but (N,1) only up to N = 16: the generator of
    # (256,1) alone is 65536 rows of 65280 bits
    @pytest.mark.parametrize(
        "n, k", [(n, k) for k in range(1, 9) for n in range(2, 17) if n**k <= 256], ids=str
    )
    def test_rows_match_one_column_mask_per_row(self, n, k):
        code = build_sldc(n, k)
        for gen, rows in zip(code.symbol_gens, reference_generator_rows(n, k), strict=True):
            assert gen == tuple(rows)

    def test_symbol_rate_is_capacity(self, codes):
        for n, k in [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            code = codes[(n, k)]
            rate, _ = capacity.symbol_and_code_rate(code.params)
            assert rate == capacity.capacity_uldc(n, k)

    def test_size_budget(self):
        with pytest.raises(BudgetExceeded, match="4096"):
            build_sldc(2, 13)

    @pytest.mark.parametrize("n, k", [(2, 63), (10, 5000)])
    def test_size_budget_names_n_and_k(self, n, k):
        with pytest.raises(BudgetExceeded, match=rf"N\^K = {n}\^{k} exceeds the size budget of 4096 symbols"):
            build_sldc(n, k)

    def test_rejects_single_database(self):
        with pytest.raises(ValueError):
            build_sldc(1, 3)


class TestSupersets:
    def test_2_2_first_message(self):
        sups = enumerate_supersets(2, 2)
        assert sups[0].sets == ((0, 2), (1, 3))
        assert sups[1].sets == ((0, 1), (2, 3))

    def test_partition_property(self):
        # every symbol appears exactly once per superset
        for n, k in [(2, 3), (3, 2), (3, 3)]:
            for sup in enumerate_supersets(n, k):
                seen = [m for s in sup.sets for m in s]
                assert sorted(seen) == list(range(n**k))

    def test_single_source_symbol(self):
        sups = enumerate_supersets(5, 1)
        assert len(sups) == 1
        assert sups[0].sets == ((0, 1, 2, 3, 4),)

    def test_transversal_of_groups(self, codes):
        code = codes[(3, 3)]
        for sup in code.supersets:
            for members in sup.sets:
                assert sorted(code.groups[m] for m in members) == [0, 1, 2]


class TestEncode:
    def test_zero_message_gives_zero_symbols(self, codes):
        code = codes[(2, 3)]
        msg = BitVector.zeros(code.params.K * code.params.Lw)
        for value in encode(code, msg):
            assert not value.any()
            assert value.length == 7

    def test_length_four_table_evaluation(self, codes):
        # first source symbol = 1000..., second all zero
        code = codes["eq28"]
        msg = BitVector.from_bits([1, 0, 0, 0, 0, 0, 0, 0])
        values = [v.to_bits() for v in encode(code, msg)]
        assert values == [[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0]]

    def test_message_length_checked(self, codes):
        with pytest.raises(ValueError):
            encode(codes[(2, 2)], BitVector.zeros(7))

    def test_answers_pinned(self):
        # every (4,3) answer under one seeded message: these are the
        # bytes a server sends, so no rewrite of encode_symbol may move them
        code = build_sldc(4, 3)
        msg = random_message(code, random.Random(12))
        answers = b"".join(encode_symbol(code, m, msg).to_bytes() for m in range(code.params.M))
        assert hashlib.sha256(answers).hexdigest() == "5201de948098c19a26a328101b23e6fe34d3a2a9f6f939c9804774b39613db78"


class TestDecode:
    def test_roundtrip_grid(self):
        rng = random.Random(20240)
        for n in (2, 3):
            for k in (1, 2, 3):
                code = build_sldc(n, k)
                msg = random_message(code, rng)
                coded = encode(code, msg)
                for kk in range(1, k + 1):
                    for si, members in enumerate(code.supersets[kk - 1].sets):
                        got = decode(code, kk, si, [coded[m] for m in members])
                        assert list(got.to_bits()) == message_slice(code, msg, kk)

    def test_zero_symbols_give_zero_message(self, codes):
        code = codes[(2, 2)]
        zeros = [BitVector.zeros(3)] * 2
        assert not decode(code, 1, 0, zeros).any()

    def test_replicated_code_pairwise_xor(self, codes):
        # W_1 from the pair (X2, X5) is their XOR
        code = codes["fig1"]
        rng = random.Random(5)
        msg = random_message(code, rng)
        coded = encode(code, msg)
        set_index = code.supersets[0].sets.index((1, 4))
        got = decode(code, 1, set_index, [coded[1], coded[4]])
        assert got == coded[1] ^ coded[4]
        assert list(got.to_bits()) == message_slice(code, msg, 1)

    def test_inconsistent_values_detected(self, codes):
        # shared rows across the two symbols make single-bit tampering visible
        code = codes["fig2"]
        msg = random_message(code, rng := random.Random(9))
        coded = encode(code, msg)
        members = code.supersets[0].sets[0]
        values = [coded[m] for m in members]
        flip = BitVector.from_bits([0, 0, 1, 0, 0, 0])
        values[1] = values[1] ^ flip
        with pytest.raises(DecodeFailure):
            decode(code, 1, 0, values)


def _undetermined_variant(code):
    """intro_nonsmooth with W_1's sets replaced: X2 = w2 with X3 = w3, or
    with X4 = w2 + w3, leaves w1 free; X1 with X2 still decodes."""
    sets = DecodingSuperset(k=1, sets=((1, 2), (1, 3), (0, 1)))
    return LinearCodeSpec(code.params, code.symbol_gens, (sets,) + code.supersets[1:], labels=code.labels)


def _decode_outcome(code, k, set_index, values):
    """construct.decode in the oracle's terms; each failure message is pinned."""
    try:
        return decode(code, k, set_index, values).to_bits()
    except DecodeFailure as exc:
        members = code.supersets[k - 1].sets[set_index]
        if str(exc) == "symbol values are not in the code's image":
            return "inconsistent"
        assert str(exc) == f"decoding set {members} does not determine source symbol {k}"
        return "undetermined"


class TestDecodeOracle:
    @pytest.mark.parametrize("name", [(2, 2), "fig1", "intro_nonsmooth", "eq28", "fig2", "undetermined"])
    def test_agrees_with_exhaustive_decoder(self, codes, name):
        if name == "undetermined":
            code = _undetermined_variant(codes["intro_nonsmooth"])
        else:
            code = codes[name]
        p = code.params
        rng = random.Random(str(name))
        outcomes = set()
        for k in range(1, p.K + 1):
            for set_index, members in enumerate(code.supersets[k - 1].sets):
                cases = []
                for _ in range(3):
                    coded = encode(code, random_message(code, rng))
                    values = [coded[m] for m in members]
                    cases.append(values)
                    for i in range(p.N):
                        for bit in range(p.Lx):
                            flipped = list(values)
                            flipped[i] = values[i] ^ BitVector(p.Lx, 1 << bit)
                            cases.append(flipped)
                cases += [[BitVector(p.Lx, rng.getrandbits(p.Lx)) for _ in members] for _ in range(20)]
                for values in cases:
                    expected = brute_force_decode(code, k, set_index, values)
                    assert _decode_outcome(code, k, set_index, values) == expected
                    outcomes.add(expected if isinstance(expected, str) else "decoded")
        assert "decoded" in outcomes
        if name == "fig2":  # the only one whose sets repeat a stored bit
            assert "inconsistent" in outcomes
        if name == "undetermined":
            assert "undetermined" in outcomes


class TestDecoderCache:
    def test_one_elimination_per_set(self, monkeypatch):
        calls = []
        real = construct.solve_columns

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(construct, "solve_columns", counting)
        code = build_sldc(2, 2)
        coded = encode(code, random_message(code, random.Random(3)))
        members = code.supersets[0].sets[1]
        for _ in range(100):
            decode(code, 1, 1, [coded[m] for m in members])
        assert len(calls) == 1
        members = code.supersets[1].sets[0]
        decode(code, 2, 0, [coded[m] for m in members])
        assert len(calls) == 2

    def test_deleted_codes_free_their_decoders(self):
        gc.collect()
        before = len(construct._decoders)
        codes = [build_sldc(2, k) for k in (1, 2, 3)]
        for code in codes:
            coded = encode(code, BitVector.zeros(code.params.K * code.params.Lw))
            decode(code, 1, 0, [coded[m] for m in code.supersets[0].sets[0]])
        assert len(construct._decoders) == before + 3
        refs = [weakref.ref(code) for code in codes]
        del code, codes
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(construct._decoders) == before

    @pytest.mark.parametrize("k, set_index", [(1, -1), (1, 2), (0, 0), (3, 0), (-1, 0)])
    def test_out_of_range_index_is_index_error(self, k, set_index):
        code = build_sldc(2, 2)  # two source symbols, two decoding sets each
        coded = encode(code, random_message(code, random.Random(5)))
        values = [coded[m] for m in code.supersets[0].sets[1]]
        with pytest.raises(IndexError, match="out of range"):
            decode(code, k, set_index, values)
        assert code not in construct._decoders


class TestFixtures:
    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(CodeSpecError, match="fig1"):
            load_fixture("nope")

    def test_fixture_battery(self, codes):
        from fractions import Fraction

        assert check_smoothness(codes["fig1"])
        assert check_universality(codes["intro_nonsmooth"])
        assert not check_smoothness(codes["intro_nonsmooth"])
        assert capacity.symbol_and_code_rate(codes["fig2"].params)[0] == Fraction(4, 6)

    def test_structural_equivalence_of_table_and_construction(self, codes):
        # the published length-4 table matches the canonical build up to
        # sub-symbol relabeling: same parameters, same structure profile
        table = codes["eq28"]
        built = codes[(2, 2)]
        assert table.params == built.params
        for code in (table, built):
            assert check_correctness(code).passed
            assert check_smoothness(code)
            assert check_universality(code)
        assert [rank_words(g) for g in table.symbol_gens] == [rank_words(g) for g in built.symbol_gens]
        assert sorted(table.groups) == sorted(built.groups)
        assert [len(s.sets) for s in table.supersets] == [len(s.sets) for s in built.supersets]

    def test_fig4_matches_two_database_layout(self, codes):
        code = codes["fig4"]
        assert code.params.Lw == 8 and code.params.Lx == 7
        assert code.groups == (0, 0, 0, 0, 1, 1, 1, 1)
        assert check_correctness(code).passed


# SHA-256 of each written document. The content hash covers these bytes,
# so no change to the build or the row codec may move one.
DOCUMENT_DIGESTS = {
    (2, 2): "7fb2e82da9e115553d1a47b640e0fd15022f9edaeeee76d428074cbcef0c9138",
    (2, 3): "bb7eb81caef5e7406474d960d718c91b3f2739e8149a665738fbbdaba4ecfeaf",
    (3, 2): "9e501fb434e85a7b48168802caa035f95ef21a0bdae88a225de0d2f497c23121",
    (4, 2): "be64b2769d5312a9341b434225fa2995ee8abfdc9bb5dba94a2e8bfea3d21101",
    (2, 4): "b541150f4d7af8ce17be8266a9dcb0a70fe3f4c2fb2947f02b1c1853a59a1264",
    (3, 3): "8cbcd740419e997f4e5fb205f3db13a74d20c519f2c0fa2b45c7eeb1756b9ce0",
    (4, 3): "d533a291a7dd387cb22187ccd9cbe9838889f187a4bbe0e07ddaec7ca1ade2f8",
    (2, 6): "d8521f7530358d27151436e1968be540df933a256b15e0c851291aa5725ae4e7",
    "fig1": "6180b62397a485216061e4e2b38d55bc6d093f403758768f949f54ad1bdb3889",
    "fig2": "e53a972c382e62ac6e2d4d257f5463b2dc07e602201d86fcd082230a5a03eaed",
    "intro_nonsmooth": "20e790ce571d12fec28e7c9da0ad8f975011b634fe59a2366211d5f9a16ab2ec",
    "eq28": "5dffe0297253959610b7000793301a43c0cceef5ed29261da2195d3bc550c2cc",
    "fig4": "c260c126be9745b15d22719d81d375010b19b5c92bd1b9c2ba85741f43f8097c",
}


class TestDocuments:
    def test_roundtrip(self, codes, tmp_path):
        code = codes[(2, 2)]
        doc = to_document(code)
        data = dump_document(doc)
        (tmp_path / "code.json").write_bytes(data)
        loaded = from_document(load_document((tmp_path / "code.json").read_bytes()))
        assert loaded.params == code.params
        assert loaded.groups == code.groups
        assert loaded.digits == code.digits
        assert [s.sets for s in loaded.supersets] == [s.sets for s in code.supersets]
        assert all(
            loaded.symbol_gens[m] == code.symbol_gens[m] for m in range(code.params.M)
        )

    def test_hash_covers_body(self, codes):
        doc = to_document(codes[(2, 2)])
        assert doc["content_hash"] == content_hash(doc)
        tampered = dict(doc)
        tampered["params"] = dict(doc["params"], Lx=2)
        assert content_hash(tampered) != doc["content_hash"]

    def test_tampered_document_rejected(self, codes):
        doc = to_document(codes[(2, 2)])
        doc["supersets"] = [list(reversed(s)) for s in doc["supersets"]]
        with pytest.raises(CodeSpecError, match="content_hash"):
            from_document(doc)

    def test_dump_deterministic(self, codes):
        code = codes[(2, 3)]
        assert dump_document(to_document(code)) == dump_document(to_document(code))

    def test_rebuild_gives_identical_document(self):
        assert to_document(build_sldc(3, 2)) == to_document(build_sldc(3, 2))

    @pytest.mark.parametrize("key", list(DOCUMENT_DIGESTS), ids=str)
    def test_written_document_pinned(self, key):
        code = build_sldc(*key) if isinstance(key, tuple) else load_fixture(key)
        assert hashlib.sha256(dump_document(to_document(code))).hexdigest() == DOCUMENT_DIGESTS[key]


class TestSpecValidation:
    """A generator row is an int of K*Lw bits; fig1 has K*Lw = 3."""

    @pytest.mark.parametrize("row", [-1, -0b100, 0b1000, 1 << 64], ids=hex)
    def test_row_that_does_not_fit_names_its_symbol(self, codes, row):
        code = codes["fig1"]
        gens = list(code.symbol_gens)
        gens[2] = (row,)
        with pytest.raises(CodeSpecError, match=r"^symbol 2 row 0: does not fit K\*Lw = 3 columns$"):
            LinearCodeSpec(code.params, gens, code.supersets)

    @pytest.mark.parametrize("row", [1.0, "1", True, 0.0, None], ids=repr)
    def test_row_that_is_not_an_int_names_its_symbol(self, codes, row):
        code = codes["fig1"]
        gens = list(code.symbol_gens)
        gens[2] = (*gens[2], row)
        message = rf"^symbol 2 row {len(gens[2]) - 1}: must be an int, not {type(row).__name__}$"
        with pytest.raises(CodeSpecError, match=message):
            LinearCodeSpec(code.params, gens, code.supersets)

    @pytest.mark.parametrize("labels", [["X1"], ["X1", "X2", "X3", "X4", "X5"]], ids=len)
    def test_labels_name_every_symbol(self, codes, labels):
        code = codes["eq28"]
        with pytest.raises(CodeSpecError, match=r"^labels must name all 4 coded symbols, got \d$"):
            LinearCodeSpec(code.params, code.symbol_gens, code.supersets, labels=labels)

    @pytest.mark.parametrize(
        "digits, message",
        [
            ([(0, 0)] * 3, r"^digits must give all 4 coded symbols a vector, got 3$"),
            ([(0, 0), (0, 1), (1, 0), (1,)], r"^symbol 3 digits \[1\]: must be K = 2 digits in \[0, 2\)$"),
            ([(0, 0), (0, 2), (1, 0), (1, 1)], r"^symbol 1 digits \[0, 2\]: must be K = 2 digits in \[0, 2\)$"),
            ([(0, -1), (0, 1), (1, 0), (1, 1)], r"^symbol 0 digits \[0, -1\]"),
            ([(0, True), (0, 1), (1, 0), (1, 1)], r"^symbol 0 digits \[0, True\]"),
        ],
        ids=["count", "short", "too-big", "negative", "bool"],
    )
    def test_digits_are_k_digits_below_n(self, codes, digits, message):
        code = codes["eq28"]
        with pytest.raises(CodeSpecError, match=message):
            LinearCodeSpec(code.params, code.symbol_gens, code.supersets, digits=digits)

    def test_widest_row_fits(self, codes):
        code = codes["fig1"]
        gens = list(code.symbol_gens)
        gens[2] = [0b111]
        assert LinearCodeSpec(code.params, gens, code.supersets).symbol_gens[2] == (0b111,)


# characters other than ASCII letters and digits: json.dumps escapes some,
# and "é" and "\u0663" (a digit) are letters and digits to str.isalnum
SPECIAL = '"\\/ \x00\x1f\x7f\x80\xe9\u0663\u2028\ud800\U0001f600'
TRICKY_TEXT = st.text(st.sampled_from("aZ09" + SPECIAL), max_size=5)
PLAIN_TEXT = st.text("0123456789abcdefXYZ", max_size=4)
ONE_SPECIAL = st.tuples(PLAIN_TEXT, st.sampled_from(SPECIAL), PLAIN_TEXT).map("".join)
ANY_KEY = st.none() | st.booleans() | st.integers() | st.floats() | TRICKY_TEXT
WRITER_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=1 << 64).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | TRICKY_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(PLAIN_TEXT, max_size=4)
    | st.tuples(st.lists(PLAIN_TEXT, max_size=3), ONE_SPECIAL, st.lists(PLAIN_TEXT, max_size=3)).map(
        lambda parts: [*parts[0], parts[1], *parts[2]]
    )
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(TRICKY_TEXT, inner, max_size=4)
    | st.dictionaries(ANY_KEY, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=500)
@given(WRITER_VALUES)
def test_writer_equals_json_dumps(value):
    for indent in (None, 2):
        try:
            expected = reference_json(value, indent)
        except Exception as exc:  # keys that do not sort
            with pytest.raises(type(exc)):
                _json(value, indent)
        else:
            assert _json(value, indent) == expected


def test_public_names_resolve():
    assert [name for name in smoothldc.__all__ if not hasattr(smoothldc, name)] == []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def json_paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from json_paths(item, prefix + (index,))


class TestMalformedDocuments:
    """Any mutation of a valid document loads or raises CodeSpecError."""

    BASE = {name: to_document(load_fixture(name)) for name in ("fig1", "eq28")}

    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_document_loads_or_raises_code_spec_error(self, data):
        doc = copy.deepcopy(self.BASE[data.draw(st.sampled_from(sorted(self.BASE)))])
        paths = list(json_paths(doc))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(paths))
            action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
            if not path:
                doc = data.draw(JSON_VALUES) if action == "replace" else doc
                continue
            try:
                parent = doc
                for step in path[:-1]:
                    parent = parent[step]
                if action == "replace":
                    parent[path[-1]] = data.draw(JSON_VALUES)
                elif action == "delete":
                    del parent[path[-1]]
                elif isinstance(parent, list):
                    parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation removed or replaced this path
        doc = json.loads(json.dumps(doc))
        if isinstance(doc, dict):
            body = {key: value for key, value in doc.items() if key != "content_hash"}
            assert content_hash(doc) == hashlib.sha256(reference_json(body)).hexdigest()
        if isinstance(doc, dict) and data.draw(st.booleans()):
            doc["content_hash"] = content_hash(doc)  # reach the checks past the hash
        try:
            code = from_document(doc)
        except CodeSpecError:
            return
        assert code.params.M == len(code.symbol_gens)

    def test_keys_that_do_not_sort_are_code_spec_error(self, codes):
        # a set replaced by {"": None}, then its index 0 set: an int key
        # beside a str key has no canonical serialization to hash
        doc = to_document(codes["fig1"])
        doc["supersets"][0][0] = {"": None}
        doc["supersets"][0][0][0] = None
        with pytest.raises(CodeSpecError, match="no canonical serialization"):
            from_document(doc)

    def test_document_that_contains_itself_is_code_spec_error(self, codes):
        doc = to_document(codes["fig1"])
        doc["extra"] = doc
        with pytest.raises(CodeSpecError, match="no canonical serialization"):
            from_document(doc)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_int(self, codes, version):
        doc = to_document(codes["fig1"])
        doc["version"] = version
        doc["content_hash"] = content_hash(doc)
        with pytest.raises(CodeSpecError, match=f"version must be an integer, not {type(version).__name__}"):
            from_document(doc)

    def test_digit_vector_out_of_range_is_code_spec_error(self, codes):
        doc = to_document(codes[(2, 2)])
        doc["symbols"][0]["digits"] = [9, 9, 9]
        doc["content_hash"] = content_hash(doc)
        with pytest.raises(CodeSpecError, match=r"^symbol 0 digits \[9, 9, 9\]: must be K = 2 digits in \[0, 2\)$"):
            from_document(doc)

    def test_overlong_and_bad_hex(self, codes):
        for bad_row in ("zz", "8000", "8"):
            doc = to_document(codes["fig1"])
            doc["symbols"][0]["rows"][0] = bad_row
            doc["content_hash"] = content_hash(doc)
            with pytest.raises(CodeSpecError, match="symbol 0 row"):
                from_document(doc)
