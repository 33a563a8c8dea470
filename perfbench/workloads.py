"""The three benchmark workloads.

Each workload makes its inputs from the seed, sets itself up (timed by the
workload itself, so set-up time means what the workload says it means),
then runs closed-loop operations. An operation puts exactly the part a user
waits for inside ``timed()`` and checks the program's output outside it;
a failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import queue
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from smoothldc import cli, codespec, construct, netsim, pir
from smoothldc.gf2 import BitVector

READY_TIMEOUT_S = 30.0  # a server must print its "listening on" line by then
STOP_TIMEOUT_S = 5.0  # after SIGTERM, before SIGKILL
VERIFY_CHECKS = 10  # PASS lines of the default battery


class CheckFailed(RuntimeError):
    """The program ran but its output is wrong."""


class ServerError(RuntimeError):
    """A database server did not start, or did not stop between set-ups."""


def child_env(root: Path) -> dict:
    """Environment for a child interpreter that imports the package from
    the checkout's src/."""
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def seeded(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{purpose}")


def message_bytes(seed: int, bits: int) -> bytes:
    return seeded(seed, "messages").randbytes(-(-bits // 8))


def bit_slice(data: bytes, start: int, length: int) -> bytes:
    """Bits [start, start+length) of data, MSB-first, zero-padded to bytes:
    the expected W_theta, computed without the package."""
    value = int.from_bytes(data, "big") >> (len(data) * 8 - start - length)
    value &= (1 << length) - 1
    return (value << (-length % 8)).to_bytes(-(-length // 8), "big")


class Workload:
    name = ""
    op_name = ""
    setup_reps = 7

    def __init__(self, root: Path, work: Path, seed: int, size: tuple[int, int]):
        self.root, self.work, self.seed = root, work, seed
        self.n, self.k = size

    def setup(self) -> float:
        """One set-up; returns its duration in seconds. The last of
        setup_reps set-ups stays in place for the operations."""
        raise NotImplementedError

    def undo_setup(self) -> None:
        """Release what a set-up holds before the next one."""

    def op(self, timed) -> None:
        raise NotImplementedError

    def close(self) -> int:
        """Release everything; safe to call after a failed set-up. Returns
        how many helper processes had to be killed."""
        return 0

    def child_peak_rss_kb(self) -> int:
        return 0


class Verify(Workload):
    """`smoothldc verify <doc>` in process, default checks. Each battery
    re-reads the document, so the rank cache starts cold as on every CLI
    call."""

    name = "verify"
    op_name = "battery"
    setup_reps = 20

    def setup(self) -> float:
        self.doc = self.work / f"verify-{self.n}{self.k}.json"
        start = time.perf_counter()
        code = construct.build_sldc(self.n, self.k)
        self.doc.write_bytes(codespec.dump_document(codespec.to_document(code)))
        elapsed = time.perf_counter() - start
        self.argv = ["verify", str(self.doc), "--seed", str(self.seed)]
        self.digest = None
        return elapsed

    def op(self, timed) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), timed():
            rc = cli.main(self.argv)
        report = out.getvalue()
        if rc != 0:
            raise CheckFailed(f"verify exited {rc}:\n{report}")
        lines = report.splitlines()
        passed = [line for line in lines if re.match(r"^[\w-]+: PASS\b", line)]
        if len(lines) != VERIFY_CHECKS or len(passed) != VERIFY_CHECKS:
            raise CheckFailed(f"expected {VERIFY_CHECKS} PASS lines, got:\n{report}")
        digest = hashlib.sha256(report.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("verify report differs from the first battery's")


class Retrieve(Workload):
    """One `smoothldc serve` subprocess per database on ephemeral loopback
    ports, and a closed-loop client with one retrieval in flight."""

    name = "retrieve"
    op_name = "retrieval"

    def __init__(self, *args):
        super().__init__(*args)
        self.servers: list[subprocess.Popen] = []
        self.servers_rss_kb = 0

    def setup(self) -> float:
        doc = self.work / f"retrieve-{self.n}{self.k}.json"
        msgs = self.work / f"retrieve-{self.n}{self.k}-{self.seed}.bin"
        start = time.perf_counter()
        code = construct.build_sldc(self.n, self.k)
        doc.write_bytes(codespec.dump_document(codespec.to_document(code)))
        p = code.params
        self.messages = message_bytes(self.seed, p.K * p.Lw)
        msgs.write_bytes(self.messages)
        for db in range(1, p.N + 1):
            self.servers.append(self._spawn(db, doc, msgs))
        self.endpoints = [self._ready(proc) for proc in self.servers]
        client_code = codespec.from_document(codespec.load_document(doc.read_bytes()))
        self.scheme = pir.scheme_from_sldc(client_code)
        elapsed = time.perf_counter() - start
        self.lw = p.Lw
        self.thetas = seeded(self.seed, "theta")
        self.query_rng = seeded(self.seed, "queries")
        return elapsed

    def _spawn(self, db: int, doc: Path, msgs: Path) -> subprocess.Popen:
        with open(self.work / f"serve-{db}.log", "wb") as log:
            return subprocess.Popen(
                [sys.executable, "-m", "smoothldc", "serve", str(doc), "--db", str(db),
                 "--messages", str(msgs), "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
                cwd=self.root, env=child_env(self.root),
            )

    @staticmethod
    def _ready(proc: subprocess.Popen) -> str:
        lines: queue.Queue = queue.Queue()
        threading.Thread(target=lambda: lines.put(proc.stdout.readline()), daemon=True).start()
        try:
            line = lines.get(timeout=READY_TIMEOUT_S).decode(errors="replace")
        except queue.Empty:
            raise ServerError(f"server {proc.pid} not listening after {READY_TIMEOUT_S:g} s") from None
        match = re.search(r"listening on (\S+:\d+)\s*$", line)
        if not match:
            raise ServerError(f"server {proc.pid} did not start: {line!r}")
        return match.group(1)

    def op(self, timed) -> None:
        theta = self.thetas.randint(1, self.scheme.code.params.K)
        with timed():
            value, _ = netsim.retrieve(self.scheme, theta, self.endpoints, self.query_rng)
        expected = bit_slice(self.messages, (theta - 1) * self.lw, self.lw)
        if value.length != self.lw or value.to_bytes() != expected:
            raise CheckFailed(f"W_{theta} = {value.to_hex()}, expected {expected.hex()}")

    def undo_setup(self) -> None:
        if self.close():
            raise ServerError("a server ignored SIGTERM between set-ups")

    def close(self) -> int:
        servers, self.servers = self.servers, []
        for proc in servers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGTERM)
        self.servers_rss_kb = killed = 0
        for proc in servers:
            rss_kb = _reap(proc)
            if rss_kb is None:
                killed += 1
            else:
                self.servers_rss_kb += rss_kb
        return killed

    def child_peak_rss_kb(self) -> int:
        """Peak resident sets of the servers closed last, summed."""
        return self.servers_rss_kb


def _reap(proc: subprocess.Popen) -> int | None:
    """Wait for a signalled child and return its peak RSS in KiB; SIGKILL it
    if it lingers, and then return None."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not killed:
            os.kill(proc.pid, signal.SIGKILL)
            killed = True
            deadline = float("inf")
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if killed:
        print(f"perfbench: server {proc.pid} ignored SIGTERM for {STOP_TIMEOUT_S:g} s; killed",
              file=sys.stderr)
        return None
    return usage.ru_maxrss


class Provision(Workload):
    """One provision cycle: build, serialize, parse, lift to a scheme, and
    start every database server in process. The cycle ends when the last
    server listens; closing them runs outside the timed region."""

    name = "provision"
    op_name = "cycle"
    setup_reps = 11

    def setup(self) -> float:
        """Import time of the package in a fresh interpreter."""
        probe = (
            "import time; t = time.perf_counter(); import smoothldc.cli;"
            " print(repr(time.perf_counter() - t))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(self.root), cwd=self.root,
                             capture_output=True, text=True, timeout=60, check=True)
        self.first = None
        return float(out.stdout.strip().splitlines()[-1])

    def op(self, timed) -> None:
        width = self.k * self.n**self.k * (self.n - 1)  # K * Lw
        messages = BitVector.from_bytes(message_bytes(self.seed, width), width)
        servers = []
        try:
            with timed():
                code = construct.build_sldc(self.n, self.k)
                doc = codespec.to_document(code)
                data = codespec.dump_document(doc)
                loaded = codespec.from_document(codespec.load_document(data))
                scheme = pir.scheme_from_sldc(loaded)
                for db in range(1, scheme.n_databases + 1):
                    servers.append(netsim.serve_database(scheme, db, messages))
            ports = [server.endpoint.rsplit(":", 1)[1] for server in servers]
        finally:
            _close_all(servers)
        if len(ports) != self.n or not all(port.isdigit() and port != "0" for port in ports):
            raise CheckFailed(f"database servers not all listening: {ports}")
        if self.first is None:
            if codespec.dump_document(codespec.to_document(loaded)) != data:
                raise CheckFailed("document bytes do not round-trip")
            self.first = (data, doc["content_hash"])
        elif (data, doc["content_hash"]) != self.first:
            raise CheckFailed("document bytes or content_hash changed between cycles")


def _close_all(servers) -> None:
    """Close every server at once. close() waits until serve_forever next
    wakes from its 0.5 s select; a connection to the listening socket wakes
    it at once, so each server is poked until its close() has returned."""
    threads = {server: threading.Thread(target=server.close) for server in servers}
    for thread in threads.values():
        thread.start()
    while threads:
        for server, thread in list(threads.items()):
            if thread.is_alive():
                with contextlib.suppress(OSError):
                    socket.create_connection(netsim.parse_endpoint(server.endpoint), timeout=1).close()
                thread.join(0.002)
            else:
                del threads[server]


WORKLOADS = {cls.name: cls for cls in (Verify, Retrieve, Provision)}
SIZES = {"verify": (3, 3), "retrieve": (2, 4), "provision": (4, 3)}
SMOKE_SIZES = {"verify": (2, 3), "retrieve": (2, 4), "provision": (2, 3)}
