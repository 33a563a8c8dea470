import random
import socket
import struct
import threading
from contextlib import contextmanager

import pytest

from oracles import message_slice
from smoothldc import pir
from smoothldc.codespec import content_hash, to_document
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
        ],
    )
    def test_hello_hash_pinned(self, codes, name, digest):
        code = codes[name] if name in codes else build_sldc(*name)
        scheme = scheme_from_sldc(code)
        assert scheme_hash(scheme).hex() == digest
        assert scheme_hash(scheme) == bytes.fromhex(content_hash(to_document(code, databases=scheme.databases)))

    def test_document_serialized_once_per_scheme(self, codes, monkeypatch):
        calls = []
        original = pir.to_document
        monkeypatch.setattr(pir, "to_document", lambda *a, **kw: calls.append(1) or original(*a, **kw))
        scheme = scheme_from_sldc(codes[(2, 3)])
        msg = random_message(scheme.code, random.Random(4))
        first = scheme_hash(scheme)
        with serve_database(scheme, 1, msg) as s1, serve_database(scheme, 2, msg) as s2:
            for theta in (1, 2, 3):
                retrieve(scheme, theta, [s1.endpoint, s2.endpoint], theta)
        assert scheme_hash(scheme) == first
        assert len(calls) == 1


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
        ],
        ids=["hash-mismatch", "error", "short-answer"],
    )
    def test_misbehaving_database_is_named(self, live, replies, reason):
        scheme, _, endpoints = live
        with fake_database(replies) as (endpoint, received):
            with pytest.raises(RetrievalError, match=f"database 2 at {endpoint}: {reason}"):
                retrieve(scheme, 1, [endpoints[0], endpoint], 0)
        assert received == list(replies)  # after a mismatch, no QUERY


@contextmanager
def fake_database(replies):
    """A one-connection server that answers each frame type in replies with
    the given bytes and records the types of the frames it receives."""
    received = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def serve():
            sock, _ = listener.accept()
            with sock:
                sock.settimeout(5)
                while (got := recv_frame(sock)) is not None:
                    received.append(got[0])
                    if got[0] in replies:
                        sock.sendall(replies[got[0]])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            yield "127.0.0.1:%d" % listener.getsockname()[1], received
        finally:
            thread.join(timeout=10)
    assert not thread.is_alive()


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

    def test_low_power_flag(self, codes):
        scheme = scheme_from_sldc(codes[(2, 2)])
        transcripts = synth_transcripts(scheme, (1, 2), 5, seed=3)
        assert transcript_audit(transcripts, min_samples=100).low_power
