"""Single-process HTTP/1.1 load generator over at most two keep-alive sockets.

One thread drives every connection through a selector, so the
generator's own CPU cost stays small and is measured.  Requests are
encoded before a phase starts.

* :func:`closed_loop` sends a connection's next request only when its
  previous answer is complete.
* :func:`open_loop` sends each request at its due time on its lane's
  connection, pipelining behind requests still in flight; latency is
  counted from the due time, so a stall is charged to every request
  that waited behind it.
"""

from __future__ import annotations

import gc
import http.client
import json
import selectors
import socket
import time
from dataclasses import dataclass, field

_STALL_S = 60.0  # no answer for this long on any connection ends the phase


def encode(method: str, path: str, payload=None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


@dataclass
class Sample:
    """One answered request: its index in the stream, kind, timings, reply."""

    index: int
    kind: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes | None

    @property
    def latency(self) -> float:
        return self.done - self.due


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.inflight: list[tuple] = []  # FIFO of (index, kind, due, sent, keep)

    def send(self, data: bytes) -> None:
        self.sock.setblocking(True)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def read_responses(self) -> list[tuple[int, bytes]]:
        """Drain the socket; return every complete ``(status, body)``."""
        while True:
            try:
                chunk = self.sock.recv(1 << 18)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
            if len(chunk) < (1 << 18):
                break
        out = []
        while True:
            end = self.buf.find(b"\r\n\r\n")
            if end < 0:
                break
            head = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split()[1])
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(self.buf) < end + 4 + length:
                break
            out.append((status, bytes(self.buf[end + 4:end + 4 + length])))
            del self.buf[:end + 4 + length]
        return out

    def close(self) -> None:
        self.sock.close()


@dataclass
class Request:
    kind: str
    data: bytes
    lane: int = 0          # connection index (open loop)
    due: float = 0.0       # seconds after the phase start (open loop)
    keep: bool = False     # keep the response body for the oracle


@dataclass
class PhaseResult:
    samples: list[Sample] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    client_cpu_s: float = 0.0
    late: list[float] = field(default_factory=list)  # open loop send lateness
    #: ``(time, probe())`` at the start, every ``tick_s`` and at the end
    ticks: list[tuple[float, tuple]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start


class _SelectorLoop:
    """The selector loop both phase kinds share: connections, the stall
    timeout, answer bookkeeping and the probe, taken at the first answer
    ``tick_s`` or more after the previous probe -- so every window ends on
    a completed request."""

    def __init__(self, host: str, port: int, n_conns: int, probe, tick_s: float,
                 cpu_clock) -> None:
        self.conns = [_Conn(host, port) for _ in range(n_conns)]
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            c.sock.setblocking(False)
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.probe, self.tick_s, self.cpu_clock = probe, tick_s, cpu_clock
        self.result = PhaseResult()
        self.last_answer = 0.0

    def __enter__(self) -> "_SelectorLoop":
        # a collection pass over the growing sample list would stall the
        # generator for milliseconds; the phase creates no garbage cycles
        self.gc_was_enabled = gc.isenabled()
        gc.disable()
        self.cpu0 = self.cpu_clock()
        self.result.start = self.last_answer = time.perf_counter()
        self.next_tick = self.result.start + self.tick_s
        self.result.ticks.append((self.result.start, self.probe()))
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.result.end = time.perf_counter()
            self.result.ticks.append((self.result.end, self.probe()))
            self.result.client_cpu_s = self.cpu_clock() - self.cpu0
        self.sel.close()
        for c in self.conns:
            c.close()
        if self.gc_was_enabled:
            gc.enable()

    def busy(self) -> bool:
        return any(c.inflight for c in self.conns)

    def poll(self, timeout: float) -> list[_Conn]:
        """Wait up to ``timeout`` for answers; the connections that got one."""
        done = []
        for key, _ in self.sel.select(timeout=timeout):
            c = key.data
            now = time.perf_counter()
            n = 0
            for status, body in c.read_responses():
                index, kind, due, sent, keep = c.inflight.pop(0)
                self.result.samples.append(Sample(
                    index, kind, due, sent, now, status,
                    body if (keep or status != 200) else None))
                n += 1
            if n:
                self.last_answer = now
                done.append(c)
        now = time.perf_counter()
        if done and now >= self.next_tick:
            self.result.ticks.append((now, self.probe()))
            self.next_tick = now + self.tick_s
        if self.busy() and now - self.last_answer > _STALL_S:
            raise TimeoutError(f"no answer for {_STALL_S:.0f} s")
        return done


def closed_loop(host: str, port: int, requests, n_conns: int, seconds: float,
                cpu_clock, probe=tuple, tick_s: float = 1.0) -> PhaseResult:
    """Keep ``n_conns`` requests in flight until ``seconds`` have passed or
    the ``requests`` iterator of :class:`Request` runs out; each connection
    takes the next request as soon as its previous answer is complete."""
    counter = 0

    def send_next(c: _Conn) -> None:
        nonlocal counter
        req = next(requests, None)
        if req is not None:
            now = time.perf_counter()
            c.inflight.append((counter, req.kind, now, now, req.keep))
            c.send(req.data)
            counter += 1

    with _SelectorLoop(host, port, n_conns, probe, tick_s, cpu_clock) as d:
        stop_at = d.result.start + seconds
        for c in d.conns:
            send_next(c)
        while d.busy():
            for c in d.poll(_STALL_S):
                if time.perf_counter() < stop_at:
                    send_next(c)
    return d.result


def open_loop(host: str, port: int, requests: list[Request], n_conns: int,
              cpu_clock, probe=tuple, tick_s: float = 1.0) -> PhaseResult:
    """Send every request at its due time; wait for every answer."""
    schedule = sorted(enumerate(requests), key=lambda ir: ir[1].due)
    nxt = 0
    with _SelectorLoop(host, port, n_conns, probe, tick_s, cpu_clock) as d:
        start = d.result.start
        while nxt < len(schedule) or d.busy():
            now = time.perf_counter()
            while nxt < len(schedule) and start + schedule[nxt][1].due <= now:
                index, req = schedule[nxt]
                due = start + req.due
                d.conns[req.lane].inflight.append((index, req.kind, due, now, req.keep))
                d.conns[req.lane].send(req.data)
                d.result.late.append(now - due)
                nxt += 1
                now = time.perf_counter()
            d.poll(start + schedule[nxt][1].due - now if nxt < len(schedule) else _STALL_S)
    return d.result


def call(host: str, port: int, method: str, path: str, payload=None) -> tuple[int, dict]:
    """One request on a fresh connection (set-up, health and oracle calls)."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()
