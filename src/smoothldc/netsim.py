"""One server per database over real sockets; a client that retrieves
privately by querying all of them.

Wire protocol v1, bit-exact:

    frame    = length (4B big-endian, = payload size + 1) || type (1B) || payload
    0x10 HELLO          32-byte code content hash
    0x11 HELLO-ACK      empty
    0x12 HASH-MISMATCH  empty; connection is closed, no answers served
    0x20 QUERY          4B big-endian query index
    0x21 ANSWER         ceil(Lx/8) bytes, MSB-first bit packing
    0x7F ERROR          1B code: 0x01 query out of range, 0x02 malformed frame

Frames larger than 1 MiB are rejected as malformed. Servers are stateless
across queries; answers are a pure function of (code, messages, q), so two
servers with the same inputs emit byte-identical ANSWER frames.

Each database server is one thread running one ``selectors`` loop over
non-blocking sockets. Every ANSWER frame is framed once at start-up, and a
connection is not read while it still has replies to send, so a peer that
never reads holds at most one ``recv`` worth of them.

The client drives all N databases from the calling thread, in phases:
connect to each, send every HELLO, then read each HELLO-ACK and only then
send that database its QUERY, then read every ANSWER. A server that
rejects the hash never sees a query index.
"""

from __future__ import annotations

import errno
import itertools
import selectors
import socket
import struct
import threading
from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass
from math import ceil, log2
from typing import Sequence

from . import pir
from .gf2 import BitVector

FRAME_HELLO = 0x10
FRAME_HELLO_ACK = 0x11
FRAME_HASH_MISMATCH = 0x12
FRAME_QUERY = 0x20
FRAME_ANSWER = 0x21
FRAME_ERROR = 0x7F

ERR_QUERY_RANGE = 0x01
ERR_MALFORMED = 0x02

MAX_FRAME = 1 << 20

CLIENT_TIMEOUT_S = 10  # per connect, and per read or write on each connection
ACCEPT_RETRY_S = 1.0  # a paused listener is tried again after the next event or this long
RECV_BYTES = 1 << 16


class ProtocolError(RuntimeError):
    pass


class RetrievalError(RuntimeError):
    pass


def _frame(frame_type: int, payload: bytes = b"") -> bytes:
    if len(payload) + 1 > MAX_FRAME:
        raise ProtocolError("frame too large")
    return struct.pack(">I", len(payload) + 1) + bytes([frame_type]) + payload


def send_frame(sock: socket.socket, frame_type: int, payload: bytes = b"") -> None:
    sock.sendall(_frame(frame_type, payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    got = 0
    while got < n:
        data = sock.recv(n - got)
        if not data:
            return None
        chunks.append(data)
        got += len(data)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Next frame, or None on orderly EOF. Raises ProtocolError on truncated
    or oversized frames."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"invalid frame length {length}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return body[0], body[1:]


def scheme_hash(scheme: pir.PirScheme) -> bytes:
    """32-byte digest negotiated in HELLO; binds client and servers to the
    same code and database layout. Computed once per scheme."""
    return scheme.digest


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, _, port = endpoint.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()):
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    if int(port) > 0xFFFF:
        raise ValueError(f"port must be in [0, 65535], got {endpoint!r}")
    return host, int(port)


_HELLO_ACK = _frame(FRAME_HELLO_ACK)
_HASH_MISMATCH = _frame(FRAME_HASH_MISMATCH)
_ERROR_RANGE = _frame(FRAME_ERROR, bytes([ERR_QUERY_RANGE]))
_ERROR_MALFORMED = _frame(FRAME_ERROR, bytes([ERR_MALFORMED]))


class _Connection:
    """One accepted socket, its unparsed input and unsent output."""

    __slots__ = ("sock", "inbuf", "outbuf", "greeted", "closing")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.greeted = False  # HELLO accepted: QUERY frames are answered
        self.closing = False  # close once outbuf is sent; read nothing more


class DatabaseServer:
    """A running database: one thread, one selectors loop over the listening
    socket and every connection. A context manager closing it on exit."""

    def __init__(self, scheme: pir.PirScheme, n: int, messages: BitVector, listen: str = "127.0.0.1:0"):
        if not 1 <= n <= scheme.n_databases:
            raise IndexError(f"database index must be in [1, {scheme.n_databases}]")
        address = parse_endpoint(listen)
        # All answers precomputed: the store is immutable for the server's life.
        self._answers = [
            _frame(FRAME_ANSWER, pir.answer(scheme, n, q, messages).to_bytes())
            for q in range(scheme.query_space(n))
        ]
        self._hash = scheme_hash(scheme)
        self.database = n
        self._listener = socket.create_server(address)
        host, port = self._listener.getsockname()[:2]
        self.endpoint = f"{host}:{port}"
        self._listener.setblocking(False)
        # close() shuts the write end; EOF on the read end stops the loop.
        self._wake, self._wake_writer = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._paused = False  # _accept unregistered the listener
        self._thread = threading.Thread(target=self._serve, name=f"database-{n}", daemon=True)
        self._thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has closed, or timeout seconds have
        passed; True if it has closed."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def close(self) -> None:
        """Stop serving, close every socket, and return once the loop has
        exited. Safe to call more than once."""
        self._wake_writer.close()
        self._thread.join()

    def __enter__(self) -> "DatabaseServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _serve(self) -> None:
        try:
            while True:
                paused = self._paused
                for key, _ in self._selector.select(ACCEPT_RETRY_S if paused else None):
                    if key.fileobj is self._wake:
                        return
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.data.outbuf:
                        self._send(key.data)
                    else:
                        self._receive(key.data)
                if paused:
                    self._selector.register(self._listener, selectors.EVENT_READ)
                    self._paused = False
        finally:
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._listener.close()  # also while paused
            self._selector.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError as exc:  # the peer gave up before accept, or no resources left
            # the unaccepted peer keeps the listener readable: pause it rather than spin
            if exc.errno in (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM):
                self._selector.unregister(self._listener)
                self._paused = True
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        if data:
            conn.inbuf += data
            self._reply(conn)
        else:
            # EOF between frames or inside a header closes quietly; inside
            # a frame body it is a truncated, so malformed, frame.
            if len(conn.inbuf) >= 4:
                conn.outbuf += _ERROR_MALFORMED
            conn.closing = True
        self._send(conn)

    def _reply(self, conn: _Connection) -> None:
        """Answer every complete frame in conn.inbuf, in order."""
        buf, pos = conn.inbuf, 0
        while not conn.closing and len(buf) - pos >= 4:
            (length,) = struct.unpack_from(">I", buf, pos)
            if not 1 <= length <= MAX_FRAME:
                conn.outbuf += _ERROR_MALFORMED
                conn.closing = True
                break
            end = pos + 4 + length
            if len(buf) < end:
                break
            ftype, payload = buf[pos + 4], bytes(buf[pos + 5 : end])
            pos = end
            if not conn.greeted:
                if ftype != FRAME_HELLO or len(payload) != 32:
                    conn.outbuf += _ERROR_MALFORMED
                    conn.closing = True
                elif payload != self._hash:
                    conn.outbuf += _HASH_MISMATCH
                    conn.closing = True
                else:
                    conn.outbuf += _HELLO_ACK
                    conn.greeted = True
            elif ftype != FRAME_QUERY or len(payload) != 4:
                conn.outbuf += _ERROR_MALFORMED
                conn.closing = True
            else:
                (q,) = struct.unpack(">I", payload)
                conn.outbuf += self._answers[q] if q < len(self._answers) else _ERROR_RANGE
        del buf[:pos]

    def _send(self, conn: _Connection) -> None:
        """Send what the socket takes; wait to write the rest, or go back
        to reading once all is sent."""
        try:
            if conn.outbuf:
                del conn.outbuf[: conn.sock.send(conn.outbuf)]
        except BlockingIOError:
            pass
        except OSError:
            self._drop(conn)
            return
        if conn.outbuf:
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
        elif conn.closing:
            self._drop(conn)
        else:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        # FIN before close, so unread input does not turn into a reset that
        # could discard the last reply before the peer reads it.
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.sock.close()


def serve_database(
    scheme: pir.PirScheme, n: int, messages: BitVector, listen: str = "127.0.0.1:0"
) -> DatabaseServer:
    """Start database n (1-based) of the scheme on a loopback endpoint."""
    return DatabaseServer(scheme, n, messages, listen)


@dataclass(frozen=True)
class WireRecord:
    database: int
    endpoint: str
    query: int
    query_space: int
    upload_bits_wire: int  # query information at wire bit granularity
    upload_bits_info: float  # exact log2 of the query space
    download_bits: int


@dataclass(frozen=True)
class RetrievalTranscript:
    theta: int
    set_index: int
    records: tuple[WireRecord, ...]


def _send_query(sock: socket.socket, q: int) -> None:
    """Wait for HELLO-ACK, then send the query: a server that did not accept
    the hash never receives a query index."""
    reply = recv_frame(sock)
    if reply is None or reply[0] != FRAME_HELLO_ACK:
        got = "EOF" if reply is None else f"frame 0x{reply[0]:02x}"
        raise ProtocolError(f"handshake rejected ({got})")
    sock.sendall(_frame(FRAME_QUERY, struct.pack(">I", q)))


def _recv_answer(sock: socket.socket, answer_bytes: int) -> bytes:
    reply = recv_frame(sock)
    if reply is None:
        raise ProtocolError("connection closed before answer")
    ftype, payload = reply
    if ftype == FRAME_ERROR:
        raise ProtocolError(f"server error 0x{payload[0]:02x}" if payload else "server error")
    if ftype != FRAME_ANSWER:
        raise ProtocolError(f"unexpected frame 0x{ftype:02x}")
    if len(payload) != answer_bytes:
        raise ProtocolError(f"answer of {len(payload)} bytes, expected {answer_bytes}")
    return payload


def retrieve(
    scheme: pir.PirScheme,
    theta: int,
    endpoints: Sequence[str],
    rng=None,
) -> tuple[BitVector, RetrievalTranscript]:
    """Privately retrieve W_theta from live servers, one query per database.

    Every endpoint is parsed (ValueError if one is malformed) before any
    connection opens. All databases are driven from the calling thread in
    phases, so their round trips overlap. Raises RetrievalError naming the
    database on any failure; no partial-answer decode is attempted."""
    if len(endpoints) != scheme.n_databases:
        raise ValueError(f"expected {scheme.n_databases} endpoints")
    addresses = [parse_endpoint(e) for e in endpoints]
    bundle = pir.gen_query(scheme, theta, rng)
    hello = _frame(FRAME_HELLO, scheme_hash(scheme))
    lx = scheme.code.params.Lx
    answer_bytes = ceil(lx / 8)

    def phase(step) -> list:
        """step(i) for each database in turn; a failure names the database."""
        out = []
        for i, endpoint in enumerate(endpoints):
            try:
                out.append(step(i))
            except (OSError, ProtocolError) as exc:
                raise RetrievalError(f"database {i + 1} at {endpoint}: {exc}") from exc
        return out

    with ExitStack() as sockets:
        socks = phase(
            lambda i: sockets.enter_context(socket.create_connection(addresses[i], timeout=CLIENT_TIMEOUT_S))
        )
        phase(lambda i: socks[i].sendall(hello))
        phase(lambda i: _send_query(socks[i], bundle.queries[i]))
        raw = phase(lambda i: _recv_answer(socks[i], answer_bytes))

    ns = range(1, scheme.n_databases + 1)
    answers = [BitVector.from_bytes(data, lx) for data in raw]
    value = pir.reconstruct(scheme, bundle, answers)
    records = tuple(
        WireRecord(
            database=n,
            endpoint=endpoints[n - 1],
            query=bundle.queries[n - 1],
            query_space=scheme.query_space(n),
            upload_bits_wire=ceil(log2(scheme.query_space(n))) if scheme.query_space(n) > 1 else 0,
            upload_bits_info=log2(scheme.query_space(n)),
            download_bits=lx,
        )
        for n in ns
    )
    return value, RetrievalTranscript(theta=theta, set_index=bundle.set_index, records=records)


@dataclass
class DatabaseAudit:
    database: int
    query_space: int
    samples: int
    max_tv_distance: float
    marginal_deviation: float
    biased: bool


@dataclass
class TranscriptAudit:
    """Empirical shadow of the exact privacy audit; advisory only."""

    per_database: list[DatabaseAudit]
    max_tv_distance: float
    low_power: bool
    flagged: bool


def transcript_audit(
    transcripts_by_theta: dict[int, Sequence[RetrievalTranscript]],
    min_samples: int = 100,
    bias_sigmas: float = 4.0,
) -> TranscriptAudit:
    """Compare empirical per-database query distributions across desired
    messages (total-variation distance) and flag non-uniform pooled
    marginals, which the TV comparison alone cannot see. A database with no
    queries for some theta has no distribution there to compare: that cell
    is left out of the TV pairs and makes the audit low-power."""
    if not transcripts_by_theta:
        raise ValueError("no transcripts to audit")
    thetas = sorted(transcripts_by_theta)
    low_power = any(len(transcripts_by_theta[t]) < min_samples for t in thetas)
    # one pass: per database, a query count per theta and the largest query space
    counts: dict[int, dict[int, Counter]] = defaultdict(lambda: {t: Counter() for t in thetas})
    spaces: dict[int, int] = {}
    for t in thetas:
        for tr in transcripts_by_theta[t]:
            for rec in tr.records:
                counts[rec.database][t][rec.query] += 1
                spaces[rec.database] = max(spaces.get(rec.database, rec.query_space), rec.query_space)
    per_db = []
    for n in sorted(counts):
        space = spaces[n]
        dists = {}
        for t, seen in counts[n].items():
            total = seen.total()
            if total:
                dists[t] = [seen[q] / total for q in range(space)]
        low_power = low_power or len(dists) < len(thetas)
        max_tv = 0.0
        for a, b in itertools.combinations(dists, 2):
            max_tv = max(max_tv, sum(abs(x - y) for x, y in zip(dists[a], dists[b])) / 2)
        pooled = sum(counts[n].values(), Counter())
        total = max(1, pooled.total())
        uniform = 1.0 / space
        deviation = max(abs(pooled[q] / total - uniform) for q in range(space))
        threshold = bias_sigmas * (uniform * (1 - uniform) / total) ** 0.5
        per_db.append(
            DatabaseAudit(
                database=n,
                query_space=space,
                samples=total,
                max_tv_distance=max_tv,
                marginal_deviation=deviation,
                biased=space > 1 and deviation > threshold,
            )
        )
    return TranscriptAudit(
        per_database=per_db,
        max_tv_distance=max((d.max_tv_distance for d in per_db), default=0.0),
        low_power=low_power,
        flagged=any(d.biased for d in per_db),
    )
