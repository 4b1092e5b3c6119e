"""A closed-loop load generator: one process, one thread.

Each keep-alive connection carries one request at a time; when its
response is complete the connection sends the next request of the
stream.  Request bytes are encoded by the caller before the clock
starts, and responses are kept as raw bytes and parsed by the caller
after it stops, so the generator's own cost per request is a socket
send, a few ``recv`` calls and a header search for ``Content-Length``.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass


def encode_post(path: str, body: bytes) -> bytes:
    """The complete HTTP/1.1 request bytes of one keep-alive POST."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Replay:
    """What one closed-loop replay observed.

    ``raw[i]`` is the complete response to request ``i`` (``None`` if it
    was never sent, or its connection failed), ``latency_ns[i]`` the
    time from its send to the last byte of its response.  ``order``
    lists the completed requests in completion order, and ``marks`` the
    block boundaries: ``(time ns, completions so far, sample())``.
    """

    raw: list
    latency_ns: list
    order: list
    marks: list
    sent: int
    cpu_s: float


def _line_end(buf: bytearray) -> int:
    """Length of the first complete JSON line in ``buf``, or 0."""
    return buf.find(b"\n") + 1


def _http_end(buf: bytearray) -> int:
    """Length of the first complete HTTP response in ``buf``, or 0."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return 0
    at = buf.find(b"Content-Length:", 0, head_end)
    if at < 0:
        return head_end + 4
    eol = buf.find(b"\r\n", at)
    length = int(buf[at + 15:eol])
    total = head_end + 4 + length
    return total if len(buf) >= total else 0


def replay(
    addresses: list,
    requests: list,
    *,
    seconds: float | None = None,
    lines: bool = False,
    blocks: int = 1,
    sample=lambda: 0.0,
    on_response=None,
) -> Replay:
    """Send ``requests`` in order over one keep-alive socket per
    ``(host, port)`` in ``addresses``.

    Responses are HTTP, or with ``lines`` one JSON object per line (the
    fleet's worker protocol).  Stops issuing when the stream is
    exhausted or, with ``seconds``, once that much time has passed;
    requests already in flight then complete and count.  The phase is
    cut into ``blocks`` equal spans of time (with ``seconds``) or of
    requests, and ``sample()`` is read at each boundary.
    ``on_response(i)``, if given, runs after request ``i`` completes and
    before its connection sends the next one.
    """
    response_end = _line_end if lines else _http_end
    n = len(requests)
    raw: list = [None] * n
    latency_ns = [0] * n
    sel = selectors.DefaultSelector()
    socks = []
    for address in addresses:
        sock = socket.create_connection(address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(sock)
    state = {s: [bytearray(), -1, 0] for s in socks}  # buf, index, t0
    order: list[int] = []
    marks: list[tuple] = []
    next_i = 0
    sent = 0
    in_flight = 0
    clock = time.perf_counter_ns
    cpu0 = time.process_time()
    start = clock()
    deadline = None if seconds is None else start + int(seconds * 1e9)
    if seconds is None:
        step_n, step_ns = max(1, -(-n // blocks)), None
    else:
        step_n, step_ns = None, int(seconds * 1e9 / blocks)
    marks.append((start, 0, sample()))
    next_mark = 1

    def send_next(sock) -> bool:
        nonlocal next_i, sent, in_flight
        if next_i >= n or (deadline is not None and clock() >= deadline):
            return False
        st = state[sock]
        st[1] = next_i
        st[2] = clock()
        sock.sendall(requests[next_i])
        next_i += 1
        sent += 1
        in_flight += 1
        return True

    try:
        for sock in socks:
            if send_next(sock):
                sel.register(sock, selectors.EVENT_READ)
        while in_flight:
            for key, _ in sel.select():
                sock = key.fileobj
                st = state[sock]
                chunk = sock.recv(262144)
                if not chunk:
                    # The peer closed mid-response: the request failed.
                    in_flight -= 1
                    sel.unregister(sock)
                    continue
                buf = st[0]
                buf += chunk
                end = response_end(buf)
                if not end:
                    continue
                now = clock()
                raw[st[1]] = bytes(buf[:end])
                latency_ns[st[1]] = now - st[2]
                order.append(st[1])
                del buf[:end]
                in_flight -= 1
                if next_mark < blocks and (
                    len(order) >= next_mark * step_n if step_ns is None
                    else now - start >= next_mark * step_ns
                ):
                    marks.append((now, len(order), sample()))
                    next_mark += 1
                if on_response is not None:
                    on_response(st[1])
                if not send_next(sock):
                    sel.unregister(sock)
        marks.append((clock(), len(order), sample()))
        cpu_s = time.process_time() - cpu0
    finally:
        sel.close()
        for sock in socks:
            sock.close()
    return Replay(
        raw=raw[:next_i],
        latency_ns=latency_ns[:next_i],
        order=order,
        marks=marks,
        sent=sent,
        cpu_s=cpu_s,
    )


def split_response(raw: bytes) -> tuple[int, bytes]:
    """``(status, body)`` of one raw HTTP response."""
    head_end = raw.find(b"\r\n\r\n")
    status = int(raw[9:12])
    return status, raw[head_end + 4:]
