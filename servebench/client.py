"""Socket client for `clpp-serve --listen`: the frame protocol, a closed-loop
generator and an open-loop (scheduled) generator, all from one process.

A frame is an 8-byte little-endian header (u32 payload length, u32 deadline
in ms, 0 = none) followed by a JSON payload. Replies carry the request's
"id", so replies are matched by id, not by order.
"""

import json
import selectors
import socket
import struct
import threading
import time

HEADER = struct.Struct("<II")


def encode(payload):
    """One frame, with no deadline."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    return HEADER.pack(len(body), 0) + body


class Conn:
    """One keep-alive connection with an incremental frame decoder."""

    def __init__(self, port, timeout=30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self):
        self.sock.close()

    def send(self, payload):
        self.sock.sendall(encode(payload))

    def frames(self):
        """Decodes every complete frame buffered so far."""
        out = []
        while len(self.buf) >= HEADER.size:
            length, _ = HEADER.unpack_from(self.buf)
            if len(self.buf) < HEADER.size + length:
                break
            out.append(json.loads(self.buf[HEADER.size:HEADER.size + length]))
            self.buf = self.buf[HEADER.size + length:]
        return out

    def fill(self):
        """One recv into the buffer; raises ConnectionError on EOF."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def call(self, payload):
        """Blocking request/reply (closed loop)."""
        self.send(payload)
        while True:
            got = self.frames()
            if got:
                return got[0]
            self.fill()

    def stats(self):
        return self.call({"id": -7, "cmd": "stats"})["stats"]


def closed_loop(conn, codes, seconds, first_id, on_reply):
    """Sends codes[i] one at a time until `seconds` pass or codes run out.

    on_reply(index, sent_s, recv_s, reply) is called per request; returns
    (requests sent, elapsed seconds)."""
    t_end = time.perf_counter() + seconds
    start = time.perf_counter()
    n = 0
    while n < len(codes):
        sent = time.perf_counter()
        if sent >= t_end:
            break
        reply = conn.call({"id": first_id + n, "code": codes[n]})
        on_reply(n, sent, time.perf_counter(), reply)
        n += 1
    return n, time.perf_counter() - start


def open_loop(conns, schedule, codes, first_id, drain_s, give_up_s=None):
    """Sends codes[i] at start + schedule[i] (seconds), round-robin over
    `conns`, and collects replies until every sent request is answered or
    `drain_s` passes after the last send.

    A sender thread paces the sends with time.sleep, which keeps to the
    schedule within a fraction of a millisecond where a poll timeout would
    round up to whole milliseconds; this thread receives and timestamps
    replies.

    When `give_up_s` is set, sending stops early once a request has waited
    that long for its reply (the probe has failed; more load would only
    deepen the backlog). Requests already sent are still collected.

    Returns (sent, replies, lateness, start, gave_up): replies maps index ->
    (recv_s, reply); lateness lists send time minus due time per request."""
    n = len(schedule)
    lateness = []
    stop = threading.Event()
    start = time.perf_counter() + 0.005
    failure = []

    def send_all():
        try:
            for i in range(n):
                if stop.is_set():
                    return
                due = start + schedule[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                conns[i % len(conns)].send({"id": first_id + i, "code": codes[i]})
                lateness.append(time.perf_counter() - due)
        except OSError as e:
            failure.append(e)

    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    replies = {}
    lo = 0  # oldest request without a reply
    deadline = None
    gave_up = False
    sender = threading.Thread(target=send_all)
    sender.start()
    try:
        while True:
            for key, _ in sel.select(timeout=0.01):
                c = key.data
                c.fill()
                t = time.perf_counter()
                for reply in c.frames():
                    k = reply.get("id", -1) - first_id
                    if 0 <= k < n and k not in replies:
                        replies[k] = (t, reply)
            now = time.perf_counter()
            sent = len(lateness)
            while lo < sent and lo in replies:
                lo += 1
            if give_up_s is not None and not gave_up and lo < sent and \
                    now - (start + schedule[lo]) > give_up_s:
                gave_up = True
                stop.set()
            if not sender.is_alive():
                sent = len(lateness)
                if deadline is None:
                    deadline = now + drain_s
                if lo == sent or now >= deadline:
                    break
    finally:
        stop.set()
        sender.join()
        sel.close()
    if failure:
        raise failure[0]
    return len(lateness), replies, lateness, start, gave_up
