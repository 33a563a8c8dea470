import contextlib
import hashlib
import itertools
import json
import os
import random
import socket
import struct
import subprocess
import sys
import textwrap
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothldc
from oracles import message_slice, reference_replies
from smoothldc import codespec, pir
from smoothldc.codespec import content_hash, dump_document, from_document, load_document, to_document
from smoothldc.construct import build_sldc, random_message
from smoothldc.netsim import (
    ERR_MALFORMED,
    ERR_QUERY_RANGE,
    FRAME_ANSWER,
    FRAME_ERROR,
    FRAME_HASH_MISMATCH,
    FRAME_HELLO,
    FRAME_HELLO_ACK,
    FRAME_QUERY,
    MAX_FRAME,
    ProtocolError,
    RetrievalError,
    RetrievalTranscript,
    WireRecord,
    parse_endpoint,
    recv_frame,
    retrieve,
    scheme_hash,
    send_frame,
    serve_database,
    transcript_audit,
)
from smoothldc.pir import answer, gen_query, scheme_from_sldc


@pytest.fixture(scope="module")
def live(codes):
    """A (2,3) scheme with both databases serving a fixed random message."""
    scheme = scheme_from_sldc(codes[(2, 3)])
    msg = random_message(scheme.code, random.Random(123))
    servers = [serve_database(scheme, n, msg) for n in (1, 2)]
    yield scheme, msg, [s.endpoint for s in servers]
    for s in servers:
        s.close()


def connect(endpoint):
    return socket.create_connection(parse_endpoint(endpoint), timeout=5)


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, FRAME_QUERY, struct.pack(">I", 7))
            assert recv_frame(b) == (FRAME_QUERY, struct.pack(">I", 7))
            send_frame(b, FRAME_HELLO_ACK)
            assert recv_frame(a) == (FRAME_HELLO_ACK, b"")

    def test_eof_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError):
                recv_frame(b)

    def test_truncated_frame_rejected(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 10) + b"\x20ab")
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)

    def test_endpoint_parsing(self):
        assert parse_endpoint("127.0.0.1:88") == ("127.0.0.1", 88)
        assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)
        for bad in ("no-port", "127.0.0.1:65536", "127.0.0.1:99999", "127.0.0.1:-1"):
            with pytest.raises(ValueError):
                parse_endpoint(bad)
        # str.isdigit and int() also take non-ASCII digits
        for bad in ("127.0.0.1:\u0668\u0660", "127.0.0.1:\u00b2"):
            with pytest.raises(ValueError, match="^endpoint must be host:port, got "):
                parse_endpoint(bad)


class TestServer:
    def test_answer_size_and_value(self, live):
        scheme, msg, endpoints = live
        with connect(endpoints[0]) as sock:
            send_frame(sock, FRAME_HELLO, scheme_hash(scheme))
            assert recv_frame(sock) == (FRAME_HELLO_ACK, b"")
            send_frame(sock, FRAME_QUERY, struct.pack(">I", 2))
            ftype, payload = recv_frame(sock)
            assert ftype == FRAME_ANSWER
            assert len(payload) == 1  # ceil(7 / 8)
            from smoothldc.pir import answer

            assert payload == answer(scheme, 1, 2, msg).to_bytes()

    def test_query_out_of_range(self, live):
        scheme, _, endpoints = live
        with connect(endpoints[0]) as sock:
            send_frame(sock, FRAME_HELLO, scheme_hash(scheme))
            recv_frame(sock)
            send_frame(sock, FRAME_QUERY, struct.pack(">I", 4))
            assert recv_frame(sock) == (FRAME_ERROR, bytes([ERR_QUERY_RANGE]))
            # connection stays usable after a range error
            send_frame(sock, FRAME_QUERY, struct.pack(">I", 0))
            assert recv_frame(sock)[0] == FRAME_ANSWER

    def test_wrong_hash_refused(self, live):
        _, _, endpoints = live
        with connect(endpoints[0]) as sock:
            send_frame(sock, FRAME_HELLO, b"\x00" * 32)
            assert recv_frame(sock) == (FRAME_HASH_MISMATCH, b"")
            assert recv_frame(sock) is None  # no answers served

    def test_malformed_frame_errors_and_closes(self, live):
        scheme, _, endpoints = live
        with connect(endpoints[0]) as sock:
            send_frame(sock, FRAME_HELLO, scheme_hash(scheme))
            recv_frame(sock)
            send_frame(sock, 0x55, b"junk")
            assert recv_frame(sock) == (FRAME_ERROR, bytes([ERR_MALFORMED]))
            assert recv_frame(sock) is None

    def test_two_servers_are_byte_identical(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        msg = random_message(scheme.code, random.Random(55))
        with serve_database(scheme, 1, msg) as s1, serve_database(scheme, 1, msg) as s2:
            frames = []
            for endpoint in (s1.endpoint, s2.endpoint):
                with connect(endpoint) as sock:
                    send_frame(sock, FRAME_HELLO, scheme_hash(scheme))
                    recv_frame(sock)
                    send_frame(sock, FRAME_QUERY, struct.pack(">I", 1))
                    frames.append(recv_frame(sock))
            assert frames[0] == frames[1]

    def test_pipelined_queries_answered_in_order(self, live):
        scheme, msg, endpoints = live
        with connect(endpoints[1]) as sock:
            send_frame(sock, FRAME_HELLO, scheme_hash(scheme))
            assert recv_frame(sock) == (FRAME_HELLO_ACK, b"")
            sock.sendall(b"".join(
                struct.pack(">I", 5) + bytes([FRAME_QUERY]) + struct.pack(">I", q) for q in (3, 0, 9, 1)
            ))
            assert recv_frame(sock) == (FRAME_ANSWER, answer(scheme, 2, 3, msg).to_bytes())
            assert recv_frame(sock) == (FRAME_ANSWER, answer(scheme, 2, 0, msg).to_bytes())
            assert recv_frame(sock) == (FRAME_ERROR, bytes([ERR_QUERY_RANGE]))
            assert recv_frame(sock) == (FRAME_ANSWER, answer(scheme, 2, 1, msg).to_bytes())

    @pytest.mark.parametrize(
        "sent",
        [
            struct.pack(">I", 0),
            struct.pack(">I", MAX_FRAME + 1),
            struct.pack(">IBI", 5, FRAME_QUERY, 0),
            struct.pack(">IB", 32, FRAME_HELLO) + b"\0" * 31,
        ],
        ids=["zero-length", "oversized", "query-before-hello", "31-byte-hello"],
    )
    def test_bad_first_frame_gets_malformed_error_then_close(self, live, sent):
        _, _, endpoints = live
        with connect(endpoints[0]) as sock:
            sock.sendall(sent)
            replies = b""
            while chunk := sock.recv(64):
                replies += chunk
        assert replies == bytes([0, 0, 0, 2, FRAME_ERROR, ERR_MALFORMED])

    def test_peer_that_reads_late_gets_every_answer_in_order(self, codes, monkeypatch):
        """A peer with a small receive buffer pipelines queries from a second
        thread and reads nothing until they are all sent. The listener's
        send buffer is made small too (accepted sockets inherit it), so the
        server must wait for the socket to drain instead of buffering every
        reply in the kernel."""
        scheme = scheme_from_sldc(codes[(2, 3)])
        msg = random_message(scheme.code, random.Random(5))
        create_server = socket.create_server

        def small_send_buffer(*args, **kwargs):
            listener = create_server(*args, **kwargs)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            return listener

        monkeypatch.setattr(socket, "create_server", small_send_buffer)
        queries = [q % 5 for q in range(20_000)]  # 4 is out of range
        replies = [_answer_frame(scheme, 2, q, msg) for q in range(4)]
        replies.append(bytes([0, 0, 0, 2, FRAME_ERROR, ERR_QUERY_RANGE]))
        expected = b"".join(replies[q] for q in queries)
        with serve_database(scheme, 2, msg) as server, socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect(parse_endpoint(server.endpoint))
            send_frame(sock, FRAME_HELLO, scheme_hash(scheme))
            assert recv_frame(sock) == (FRAME_HELLO_ACK, b"")
            sender = threading.Thread(
                target=sock.sendall, args=(b"".join(struct.pack(">IBI", 5, FRAME_QUERY, q) for q in queries),)
            )
            sender.start()
            sender.join(timeout=0.1)  # the server's replies fill both buffers meanwhile
            got = bytearray()
            while len(got) < len(expected) and (chunk := sock.recv(1 << 16)):
                got += chunk
            sender.join(timeout=10)
            assert not sender.is_alive()
        assert got == expected

    def test_idle_and_stalled_peers_do_not_block_or_add_threads(self, live):
        scheme, msg, endpoints = live
        threads = threading.active_count()
        peers = []
        try:
            for endpoint in endpoints:
                idle = connect(endpoint)
                peers.append(idle)
                send_frame(idle, FRAME_HELLO, scheme_hash(scheme))
                assert recv_frame(idle) == (FRAME_HELLO_ACK, b"")
                stalled = connect(endpoint)  # announces a 1 MiB frame, then silence
                peers.append(stalled)
                stalled.sendall(struct.pack(">I", MAX_FRAME) + bytes([FRAME_QUERY]) + b"\0" * 100)
                peers.append(connect(endpoint))  # never says anything
            value, _ = retrieve(scheme, 2, endpoints, 11)
            assert list(value.to_bits()) == message_slice(scheme.code, msg, 2)
            assert threading.active_count() == threads
        finally:
            for peer in peers:
                peer.close()


def client_streams(digest: bytes):
    """Byte streams a client may send: well-formed and malformed frames,
    bad lengths and stray bytes, most of them after a good HELLO."""
    frame = lambda frame_type, payload: struct.pack(">IB", len(payload) + 1, frame_type) + payload
    query = st.integers(0, 5).map(lambda q: frame(FRAME_QUERY, struct.pack(">I", q)))  # 4 and 5 are out of range
    hello = st.sampled_from([digest, b"\0" * 32, digest[:31]]).map(lambda h: frame(FRAME_HELLO, h))
    other = st.builds(frame, st.integers(0, 255), st.binary(max_size=6))
    bad_length = st.sampled_from([0, MAX_FRAME + 1, 0xFFFFFFFF]).map(lambda n: struct.pack(">I", n))
    piece = st.one_of(query, query, hello, other, bad_length, st.binary(min_size=1, max_size=6))
    return st.builds(
        lambda greet, pieces: (frame(FRAME_HELLO, digest) if greet else b"") + b"".join(pieces),
        st.booleans() | st.just(True),
        st.lists(piece, max_size=8),
    )


def exchange(endpoint: str, stream: bytes, sizes) -> bytes:
    """Send stream in chunks of the given sizes, in turn, then half-close
    and read every reply until the server closes."""
    replies = bytearray()
    with connect(endpoint) as sock:
        try:
            pos = 0
            for size in itertools.cycle(sizes):
                if pos >= len(stream):
                    break
                sock.sendall(stream[pos : pos + size])
                pos += size
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server closed after an error: its replies are sent
            pass
        try:
            while chunk := sock.recv(1 << 16):
                replies += chunk
        except ConnectionResetError:
            pass
    return bytes(replies)


class TestByteStream:
    @settings(max_examples=200)
    @given(data=st.data(), sizes=st.lists(st.integers(1, 8), min_size=1, max_size=16))
    def test_replies_equal_the_reference(self, live, data, sizes):
        scheme, msg, endpoints = live
        digest = scheme_hash(scheme)
        stream = data.draw(client_streams(digest))
        answers = [answer(scheme, 1, q, msg).to_bytes() for q in range(scheme.query_space(1))]
        threads = threading.active_count()
        assert exchange(endpoints[0], stream, sizes) == reference_replies(stream, digest, answers)
        assert threading.active_count() == threads


class TestServerLifecycle:
    @pytest.fixture
    def server(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        with serve_database(scheme, 1, random_message(scheme.code, random.Random(8))) as server:
            yield server

    def test_close_is_idempotent_and_refuses_connections(self, server):
        endpoint = server.endpoint
        assert not server.wait(timeout=0.01)
        server.close()
        server.close()
        assert server.wait(timeout=0)
        assert server.endpoint == endpoint
        with pytest.raises(ConnectionRefusedError):
            connect(endpoint).close()

    def test_close_drops_open_connections(self, server, codes):
        with connect(server.endpoint) as sock:
            send_frame(sock, FRAME_HELLO, scheme_hash(scheme_from_sldc(codes[(2, 2)])))
            assert recv_frame(sock) == (FRAME_HELLO_ACK, b"")
            server.close()
            assert recv_frame(sock) is None

    def test_one_thread_per_server(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        msg = random_message(scheme.code, random.Random(9))
        threads = threading.active_count()
        with serve_database(scheme, 1, msg) as s1, serve_database(scheme, 2, msg) as s2:
            assert threading.active_count() == threads + 2
            retrieve(scheme, 1, [s1.endpoint, s2.endpoint], 0)
            assert threading.active_count() == threads + 2
        assert threading.active_count() == threads


def run_child(*parts):
    """Run the parts, each dedented, as one script in a fresh interpreter
    that imports this smoothldc."""
    src = str(Path(smoothldc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", "".join(map(textwrap.dedent, parts))],
        capture_output=True, text=True, timeout=60, env=env,
    )


# A child interpreter lowers only its own soft descriptor limit to 64, brings
# a server to it, measures the process CPU over one second and then
# retrieves once the descriptors are free.
LIMIT_PROLOGUE = """
    import random, resource, socket, time
    from smoothldc.construct import build_sldc, random_message
    from smoothldc.netsim import (FRAME_HELLO, FRAME_HELLO_ACK, parse_endpoint, recv_frame,
                                  retrieve, scheme_hash, send_frame, serve_database)
    from smoothldc.pir import scheme_from_sldc

    scheme = scheme_from_sldc(build_sldc(2, 2))
    msg = random_message(scheme.code, random.Random(1))
    servers = [serve_database(scheme, n, msg) for n in (1, 2)]
    address = parse_endpoint(servers[0].endpoint)
    resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))

    def cpu_over_one_second():
        time.sleep(0.2)  # the server reaches the limit
        start = time.process_time()
        time.sleep(1.0)
        return time.process_time() - start
"""
LIMIT_EPILOGUE = """
    value, _ = retrieve(scheme, 2, [s.endpoint for s in servers], 0)
    assert list(value.to_bits()) == list(msg.to_bits()[4:8])
    for server in servers:
        server.close()
    print(f"cpu {used:.3f}")
"""


class TestDescriptorLimit:
    def test_server_idles_while_its_clients_hold_every_descriptor(self):
        result = run_child(LIMIT_PROLOGUE, """
            clients = [socket.socket() for _ in range(48)]  # taken before the server accepts
            for client in clients:
                client.settimeout(5)
                client.connect(address)
            used = cpu_over_one_second()
            for client in clients:
                client.close()
        """, LIMIT_EPILOGUE)
        assert result.returncode == 0 and result.stderr == "", result.stderr
        assert float(result.stdout.split()[-1]) < 0.2

    def test_server_accepts_again_once_descriptors_are_freed_elsewhere(self):
        result = run_child(LIMIT_PROLOGUE, """
            held = []
            try:
                for _ in range(64):
                    held.append(socket.socket())
            except OSError:
                pass
            assert len(held) < 64
            held.pop().close()
            with socket.create_connection(address, timeout=5) as client:  # the last descriptor
                send_frame(client, FRAME_HELLO, scheme_hash(scheme))
                used = cpu_over_one_second()
                for sock in held:
                    sock.close()
                assert recv_frame(client) == (FRAME_HELLO_ACK, b"")
        """, LIMIT_EPILOGUE)
        assert result.returncode == 0 and result.stderr == "", result.stderr
        assert float(result.stdout.split()[-1]) < 0.2


class TestSchemeHash:
    @pytest.mark.parametrize(
        "name, digest",
        [
            ((2, 3), "70eaa0a43ace7bc4f9b9165f3ad81f460544930aa4379f2e45426cde45d44c91"),
            ((3, 3), "0d001928628c027590956348ffa764e1a60b41ba54277842e7b461f33949fa23"),
            ((2, 4), "37459baea10b53a93ad47b7e3728cee0113b052b980de99faff9a060f8624ac1"),
            ("fig1", "dc22b974ba7d8d0b6b791ef20b73f5de265befffe07e17f0cc1d0002d8051589"),
            ("eq28", "9b8c59bae747808570bfd7bf87e8171a827a8c91623555ba7ac6d9fe687d08be"),
            ("fig4", "0d51fe63cec3a9b1e535c64839c590b94362eea399388f14acd370eecfc57d45"),
            ((2, 2), "2abba108c6fbb541d4a406ec616fc99eeecab172428cf631bbf6cfb5599c8905"),
            ((3, 2), "0bdd18a9a59382ac8a0247310851cf27ceb3327ed3e91d1665138823241b26e5"),
            ((4, 2), "9a1bba6dd87f1911a4a01ad48a0aa0c5db16bd499c7355d92b7d73c58985fe82"),
            ((4, 3), "d051ae3da4c10637486becee163b54c1bff1e0d9c0695738164775a54c7a489e"),
            ((2, 6), "31ec1a644a1f00adf22fe61f4ded85234e16bbd6f77559600e8cc5fed91f5065"),
        ],
    )
    def test_hello_hash_pinned(self, codes, name, digest):
        code = codes[name] if name in codes else build_sldc(*name)
        scheme = scheme_from_sldc(code)
        assert scheme_hash(scheme).hex() == digest
        assert scheme_hash(scheme) == bytes.fromhex(
            content_hash({**to_document(code), "databases": [list(db) for db in scheme.databases]}))

    def test_document_serialized_once_per_scheme(self, codes, monkeypatch):
        calls = []
        original = codespec.to_document
        monkeypatch.setattr(codespec, "to_document", lambda *a, **kw: calls.append(1) or original(*a, **kw))
        scheme = scheme_from_sldc(codes[(2, 3)])
        msg = random_message(scheme.code, random.Random(4))
        first = scheme_hash(scheme)
        with serve_database(scheme, 1, msg) as s1, serve_database(scheme, 2, msg) as s2:
            for theta in (1, 2, 3):
                retrieve(scheme, theta, [s1.endpoint, s2.endpoint], theta)
        assert scheme_hash(scheme) == first
        assert len(calls) == 1


# the HELLO digests test_hello_hash_pinned pins, by code name
HELLO_DIGESTS = dict(TestSchemeHash.test_hello_hash_pinned.pytestmark[0].args[1])


def reload(doc):
    """The code a client or server reads from doc's file, its content hash
    stamped again."""
    doc = json.loads(json.dumps(doc))
    doc["content_hash"] = content_hash(doc)
    return from_document(load_document(dump_document(doc)))


def general_digest(scheme):
    """The HELLO digest written out in full, with no memo."""
    return bytes.fromhex(content_hash({**to_document(scheme.code), "databases": [list(db) for db in scheme.databases]}))


def edit_row(doc, change):
    rows = doc["symbols"][0]["rows"]
    rows[1] = change(rows[1])  # row 0 is symbol 0's zero row


def reverse_keys(doc):
    for key in reversed(list(doc)):
        doc[key] = doc.pop(key)


class TestLoadedSchemeHash:
    """A code read from the document to_document wrote carries the HELLO
    digest of its group layout from the walk that checked its content hash.
    That digest, or the one written out in full when no memo fits, must
    equal the pinned one."""

    @pytest.mark.parametrize("name", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 3), "fig1", "eq28", "fig4"],
                             ids=str)
    def test_loaded_code_gives_the_pinned_digest(self, codes, name):
        code = codes[name] if name in codes else build_sldc(*name)
        loaded = from_document(load_document(dump_document(to_document(code))))
        scheme = scheme_from_sldc(loaded)
        assert loaded.layout_digest == (scheme.databases, scheme_hash(scheme))
        assert scheme_hash(scheme).hex() == HELLO_DIGESTS[name]
        assert scheme_hash(scheme) == general_digest(scheme)

    @pytest.mark.parametrize(
        "edit, memo",
        [
            (reverse_keys, True),
            (lambda d: d["symbols"][0].update(label="renamed"), True),
            (lambda d: d.pop("column_order"), False),
            (lambda d: d.update(databases=[[0, 1, 2], [3, 4, 5]]), False),
            (lambda d: d.update(note=1), False),
            (lambda d: d["params"].update(note=1), False),
            (lambda d: d["symbols"][0].update(note=1), False),
            (lambda d: d["symbols"][0].pop("label"), False),
            (lambda d: d["symbols"][0].update(digits=None), False),
            (lambda d: d["symbols"][2].update(zero_row=True), False),  # symbol 2's zero row is row 1
            (lambda d: d["symbols"][0].update(zero_row=5), False),
            (lambda d: edit_row(d, lambda row: "A" + row[1:]), False),
            (lambda d: edit_row(d, lambda row: row[:2] + " " + row[2:]), False),
            (lambda d: edit_row(d, lambda row: row[:-1] + format(int(row[-1], 16) | 1, "x")), False),
            (lambda d: d["supersets"][0][0].reverse(), False),
        ],
        ids=["shuffled-keys", "renamed-label", "no-column-order", "databases-present", "extra-key",
             "extra-param", "extra-symbol-key", "one-label-missing", "one-digits-missing", "zero-row-true",
             "zero-row-wrong", "uppercase-row", "spaced-row", "pad-bit-set", "unsorted-set"],
    )
    def test_other_text_of_the_code_gives_the_general_digest(self, codes, edit, memo):
        doc = to_document(codes[(3, 3)])  # 162 columns: each row ends in 6 pad bits
        edit(doc)
        loaded = reload(doc)
        scheme = scheme_from_sldc(loaded)
        assert (loaded.layout_digest is not None) == memo
        assert scheme_hash(scheme) == general_digest(scheme)

    def test_escaped_column_order_keeps_the_memo(self, codes):
        """The databases section is spliced in after column_order's text,
        here with escapes for a quote and a non-ASCII letter."""
        doc = to_document(codes[(3, 3)])
        doc["column_order"] = 'msg-major/"gamma"/\u00e9t\u00e9'
        loaded = reload(doc)
        scheme = scheme_from_sldc(loaded)
        assert loaded.layout_digest == (scheme.databases, scheme_hash(scheme))
        assert scheme_hash(scheme) == general_digest(scheme)

    def test_groups_without_a_layout_carry_no_memo(self, codes):
        doc = to_document(codes[(2, 3)])
        for sym in doc["symbols"]:
            sym["group"] += 1  # ids 1 and 2: still one per decoding set
        loaded = reload(doc)
        assert loaded.layout_digest is None
        with pytest.raises(pir.SchemeError, match="group ids must be exactly 0..1"):
            scheme_from_sldc(loaded)

    def test_other_layouts_are_written_out(self, codes):
        loaded = reload(to_document(codes[(2, 3)]))
        lifted = scheme_from_sldc(loaded)
        for scheme in (pir.replicated_scheme(loaded), lifted._replace(databases=lifted.databases[::-1])):
            assert scheme_hash(scheme) == general_digest(scheme) != scheme_hash(lifted)


class TestProvisionWalks:
    @pytest.mark.parametrize("n, k", [(2, 3), (4, 3)])
    def test_a_provision_cycle_hexes_each_symbol_once(self, monkeypatch, n, k):
        """Build, write, read, lift and serve: rows are hexed only by the
        first to_document, and no scheme document is written."""
        hexed, written = [], []
        real_hex, real_document = codespec.rows_to_hex, codespec.to_document
        monkeypatch.setattr(codespec, "rows_to_hex", lambda *a: hexed.append(1) or real_hex(*a))
        monkeypatch.setattr(codespec, "to_document", lambda *a, **kw: written.append(1) or real_document(*a, **kw))
        code = build_sldc(n, k)
        data = dump_document(to_document(code))
        scheme = scheme_from_sldc(from_document(load_document(data)))
        msg = random_message(scheme.code, random.Random(5))
        with contextlib.ExitStack() as servers:
            for db in range(1, n + 1):
                servers.enter_context(serve_database(scheme, db, msg))
        assert len(hexed) == code.params.M and written == []
        assert scheme_hash(scheme).hex() == HELLO_DIGESTS[(n, k)]


class TestRetrieve:
    def test_all_messages_roundtrip(self, live):
        scheme, msg, endpoints = live
        rng = random.Random(777)
        for theta in (1, 2, 3):
            value, transcript = retrieve(scheme, theta, endpoints, rng)
            assert list(value.to_bits()) == message_slice(scheme.code, msg, theta)
            assert transcript.theta == theta
            assert [r.download_bits for r in transcript.records] == [7, 7]
            assert [r.upload_bits_wire for r in transcript.records] == [2, 2]

    def test_upload_constant_across_theta(self, live):
        scheme, _, endpoints = live
        uploads = set()
        for theta in (1, 2, 3):
            _, transcript = retrieve(scheme, theta, endpoints, random.Random(theta))
            uploads.add(tuple(r.upload_bits_wire for r in transcript.records))
        assert len(uploads) == 1

    def test_query_indices_all_observed(self, live):
        scheme, _, endpoints = live
        seen = set()
        for seed in range(40):
            _, transcript = retrieve(scheme, 1, endpoints, seed)
            seen.add(transcript.records[0].query)
        assert seen == {0, 1, 2, 3}

    def test_down_database_is_named(self, live):
        scheme, _, endpoints = live
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        with pytest.raises(RetrievalError, match="database 2"):
            retrieve(scheme, 1, [endpoints[0], dead], 0)

    def test_endpoint_count_checked(self, live):
        scheme, _, endpoints = live
        with pytest.raises(ValueError):
            retrieve(scheme, 1, endpoints[:1], 0)

    def test_malformed_endpoint_rejected_before_connecting(self, live):
        scheme, _, _ = live
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.2)
            first = "127.0.0.1:%d" % listener.getsockname()[1]
            with pytest.raises(ValueError, match="nope"):
                retrieve(scheme, 1, [first, "nope"], 0)
            with pytest.raises(socket.timeout):
                listener.accept()[0].close()

    @pytest.mark.parametrize(
        "replies, reason",
        [
            ({FRAME_HELLO: bytes([0, 0, 0, 1, FRAME_HASH_MISMATCH])}, "handshake rejected"),
            ({FRAME_HELLO: bytes([0, 0, 0, 1, FRAME_HELLO_ACK]),
              FRAME_QUERY: bytes([0, 0, 0, 2, FRAME_ERROR, ERR_QUERY_RANGE])}, "server error 0x01"),
            ({FRAME_HELLO: bytes([0, 0, 0, 1, FRAME_HELLO_ACK]),
              FRAME_QUERY: bytes([0, 0, 0, 1, FRAME_ANSWER])}, "answer of 0 bytes"),
            ({FRAME_HELLO: bytes([0, 0, 0, 1, FRAME_HELLO_ACK]), FRAME_QUERY: b""},
             "connection closed before answer"),
            ({FRAME_HELLO: bytes([0, 0, 0, 1, FRAME_HELLO_ACK]),
              FRAME_QUERY: bytes([0, 0, 0, 1, FRAME_HELLO_ACK])}, "unexpected frame 0x11"),
        ],
        ids=["hash-mismatch", "error", "short-answer", "closed-after-hello-ack", "hello-ack-for-answer"],
    )
    def test_misbehaving_database_is_named(self, live, replies, reason):
        scheme, _, endpoints = live
        with fake_database(replies) as (endpoint, received):
            with pytest.raises(RetrievalError, match=f"database 2 at {endpoint}: {reason}"):
                retrieve(scheme, 1, [endpoints[0], endpoint], 0)
        assert received == list(replies)  # after a mismatch, no QUERY


def _answer_frame(scheme, n, q, msg):
    payload = answer(scheme, n, q, msg).to_bytes()
    return struct.pack(">IB", len(payload) + 1, FRAME_ANSWER) + payload


@contextmanager
def fake_database(replies):
    """A one-connection server that answers each frame type in replies with
    the given bytes and records the types of the frames it receives; an
    empty reply closes the connection instead."""
    received = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def serve():
            sock, _ = listener.accept()
            with sock:
                sock.settimeout(5)
                while (got := recv_frame(sock)) is not None:
                    received.append(got[0])
                    if replies.get(got[0]) == b"":
                        break
                    if got[0] in replies:
                        sock.sendall(replies[got[0]])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            yield "127.0.0.1:%d" % listener.getsockname()[1], received
        finally:
            thread.join(timeout=10)
    assert not thread.is_alive()


def pinned_transcripts(n, k, constant_query=None):
    """300 synthetic transcripts per theta of the built (n, k) scheme."""
    scheme = scheme_from_sldc(build_sldc(n, k))
    return synth_transcripts(scheme, range(1, k + 1), 300, n * 10 + k, constant_query)


def hostile_transcripts(transcripts):
    """The transcripts plus a theta with none, and with database 1 dropped
    from every transcript of theta 1."""
    k = max(transcripts)
    return {**transcripts, k + 1: [],
            1: [tr._replace(records=tr.records[1:]) for tr in transcripts[1]]}


def synth_transcripts(scheme, thetas, count, seed, constant_query=None):
    """Transcripts fabricated from the query generator alone (no sockets).

    constant_query simulates a broken client that sends the same query
    everywhere regardless of the desired message.
    """
    rng = random.Random(seed)
    out = {}
    for theta in thetas:
        rows = []
        for _ in range(count):
            if constant_query is None:
                queries = gen_query(scheme, theta, rng).queries
            else:
                queries = (constant_query,) * scheme.n_databases
            rows.append(
                RetrievalTranscript(
                    theta=theta,
                    set_index=0,
                    records=tuple(
                        WireRecord(
                            database=n + 1,
                            endpoint="synthetic",
                            query=queries[n],
                            query_space=scheme.query_space(n + 1),
                            upload_bits_wire=0,
                            upload_bits_info=0.0,
                            download_bits=scheme.code.params.Lx,
                        )
                        for n in range(scheme.n_databases)
                    ),
                )
            )
        out[theta] = rows
    return out


class TestTranscriptAudit:
    def test_honest_client_low_tv(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        transcripts = synth_transcripts(scheme, (1, 2), 10_000, seed=2024)
        audit = transcript_audit(transcripts)
        assert audit.max_tv_distance < 0.05
        assert not audit.low_power
        assert not audit.flagged

    def test_degenerate_single_message(self, codes):
        scheme = scheme_from_sldc(codes[(2, 1)])
        transcripts = synth_transcripts(scheme, (1,), 200, seed=1)
        audit = transcript_audit(transcripts)
        assert audit.max_tv_distance == 0.0

    def test_biased_client_flagged_despite_zero_tv(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        transcripts = synth_transcripts(scheme, (1, 2), 500, seed=9, constant_query=0)
        audit = transcript_audit(transcripts)
        assert audit.max_tv_distance == 0.0
        assert audit.flagged

    # SHA-256 of repr(audit) of the plain transcripts, so every float is
    # pinned; every (database, theta) cell has queries, so these digests
    # are the same with or without empty cells in the TV pairs
    @pytest.mark.parametrize(
        "n, k, constant_query, digest",
        [
            (2, 3, None, "577e223ff4c6153db0640fd067293919e65d9957683b55e0bd8031548c7976d3"),
            (3, 2, None, "65db3b22ca724c6dca1fb23884852823851e2d6dd4b38937eb685ff94cfeda79"),
            (2, 4, None, "2881c592682d90d6f751edca837fcd2a112faf365a0971eb3030e0a28640024f"),
            (2, 4, 0, "e0995fe2c9f449dff548bfa099f006bae54ddd2fb45975771d3ade0323c81a54"),
        ],
    )
    def test_plain_results_pinned(self, n, k, constant_query, digest):
        transcripts = pinned_transcripts(n, k, constant_query)
        assert hashlib.sha256(repr(transcript_audit(transcripts)).encode()).hexdigest() == digest

    # SHA-256 of repr((hostile, hostile with other thresholds)), recorded
    # when (database, theta) cells with no queries left the TV pairs
    @pytest.mark.parametrize(
        "n, k, constant_query, digest",
        [
            (2, 3, None, "b4310a5657638259a1cf9584c302d5e5cac495cca81d4ce5aa159c6094fae801"),
            (3, 2, None, "e1f5df9de251effff2decaaded1fda558a997f563b5d1487870be9d6df3b6326"),
            (2, 4, None, "05bb90c7a1aa2d4c0c72a266084444e4a18b1df6afaee4946f5e5ae90593d414"),
            (2, 4, 0, "4cd610082508673984264c04e8969bfbec906f33ebc92da2b41b7018a7798b17"),
        ],
    )
    def test_hostile_results_pinned(self, n, k, constant_query, digest):
        transcripts = hostile_transcripts(pinned_transcripts(n, k, constant_query))
        audits = (transcript_audit(transcripts), transcript_audit(transcripts, 5, 1.5))
        assert hashlib.sha256(repr(audits).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 2), (2, 4)])
    def test_missing_cells_read_low_power_not_leak(self, n, k):
        audit = transcript_audit(hostile_transcripts(pinned_transcripts(n, k)))
        assert audit.low_power
        assert all(d.max_tv_distance < 0.5 for d in audit.per_database)

    def test_database_missing_for_one_theta_is_low_power(self):
        # every theta keeps its 300 transcripts; only database 1's cell of theta 1 is empty
        transcripts = pinned_transcripts(2, 3)
        assert not transcript_audit(transcripts, min_samples=300).low_power
        transcripts[1] = [tr._replace(records=tr.records[1:]) for tr in transcripts[1]]
        audit = transcript_audit(transcripts, min_samples=300)
        assert audit.low_power and audit.max_tv_distance < 0.5

    def test_low_power_flag(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        transcripts = synth_transcripts(scheme, (1, 2), 5, seed=3)
        assert transcript_audit(transcripts, min_samples=100).low_power
