"""The door's connections: keep-alive, request framing, ``close()``.

The server speaks HTTP/1.1 and gives a connection one handler thread
for as long as it lives, so what used to be per-request properties
(one reply, then the socket closes) are now promises about a *sequence*
of requests: the second one on a connection is parsed from whatever the
first one left unread, a reply written in two pieces stalls on the
client's delayed ACK, and ``close()`` has handler threads to end.  Raw
sockets where the client library would paper over the behaviour under
test; every socket has a 5 s timeout, so a hang is a failure, not a
stuck suite.

Same skip contract as ``test_http.py``.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.serve import TelemetryHTTPServer
from repro.serve.http import MAX_BODY_BYTES
from repro.obs.metrics import MetricsRegistry

pytestmark = [pytest.mark.http,
              pytest.mark.usefixtures("require_loopback_bind")]

TIMEOUT_S = 5.0
GOOD_BODY = b'{"sparql": "x"}'


@pytest.fixture()
def server():
    """A server whose query endpoint reports the thread that served it."""
    def query(payload):
        return 200, {}, {"thread": threading.get_ident(),
                         "pad": "x" * payload.get("pad", 0)}

    with TelemetryHTTPServer(snapshot_fn=MetricsRegistry().snapshot,
                             query_fn=query) as server:
        yield server


def handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if "process_request_thread" in t.name]


def post_bytes(path: str = "/v1/query", body: bytes = GOOD_BODY,
               version: str = "HTTP/1.1", length=len(GOOD_BODY),
               extra: str = "") -> bytes:
    """One raw POST; ``length=None`` leaves Content-Length out."""
    head = f"POST {path} {version}\r\nHost: test\r\n{extra}"
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    return head.encode() + b"\r\n" + body


class RawClient:
    """A socket and the one buffered reader every reply is parsed from
    (two replies can arrive in one segment)."""

    def __init__(self, server):
        self.sock = socket.create_connection((server.host, server.port),
                                             timeout=TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")

    def __enter__(self) -> "RawClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.rfile.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self):
        """The next framed reply: ``(status, headers, json body)``."""
        status_line = self.rfile.readline().split()
        assert status_line[0] == b"HTTP/1.1", status_line
        headers = http.client.parse_headers(self.rfile)
        body = self.rfile.read(int(headers["Content-Length"]))
        return int(status_line[1]), headers, json.loads(body)

    def at_eof(self) -> bool:
        """The server closed its side, having sent nothing more."""
        return self.rfile.read(1) == b""


def timed_posts(conn, count: int = 50):
    """``count`` sequential POSTs: ``(seconds each, json bodies)``."""
    laps, bodies = [], []
    for _ in range(count):
        started = time.perf_counter()
        conn.request("POST", "/v1/query", GOOD_BODY)
        response = conn.getresponse()
        bodies.append(json.loads(response.read()))
        laps.append(time.perf_counter() - started)
        assert response.status == 200 and response.version == 11
    return laps, bodies


class TestKeepAlive:
    def test_fifty_posts_ride_one_connection(self, server):
        """One accept, one handler thread, one client port — and no
        reply waits out a delayed ACK (40 ms on Linux; this p50 is
        ~44 ms once the reply is two writes on a socket with Nagle on).
        The two guards are pinned one each: TCP_NODELAY here, the
        one-write reply by the next test."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.connect()
            port = conn.sock.getsockname()[1]
            laps, bodies = timed_posts(conn)
            assert conn.sock.getsockname()[1] == port  # never reconnected
            assert len(handler_threads()) == 1
            (accepted,) = server._connections
            assert accepted.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        finally:
            conn.close()
        # one accept, whose thread served all fifty
        assert len({body["thread"] for body in bodies}) == 1
        assert statistics.median(laps) < 0.020

    def test_a_reply_is_one_write(self, server):
        """With Nagle switched back on for this connection the replies
        still do not stall, because each leaves as one piece: nothing
        small is in flight for a second piece to wait behind."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=TIMEOUT_S)
        try:
            timed_posts(conn, count=1)  # the handler has set the socket up
            (accepted,) = server._connections
            accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 0)
            laps, _ = timed_posts(conn)
        finally:
            conn.close()
        assert statistics.median(laps) < 0.020

    @pytest.mark.parametrize("request_bytes", [
        post_bytes(extra="Connection: close\r\n"),
        post_bytes(version="HTTP/1.0"),
    ], ids=["connection-close", "http-1.0"])
    def test_a_client_that_wants_one_reply_gets_one(self, server,
                                                    request_bytes):
        with RawClient(server) as client:
            client.send(request_bytes)
            status, headers, _ = client.reply()
            assert status == 200
            assert headers["Connection"] == "close"
            assert client.at_eof()

    def test_get_and_post_share_a_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            sock = conn.sock
            conn.request("POST", "/v1/query", GOOD_BODY)
            assert conn.getresponse().status == 200
            assert conn.sock is sock
        finally:
            conn.close()


class TestFraming:
    """Every refusal leaves the connection parseable or closed."""

    @pytest.mark.parametrize("length, status", [
        (-1, 400), (MAX_BODY_BYTES + 1, 413), (None, 411), ("ten", 411),
    ])
    def test_a_body_that_cannot_be_delimited_ends_the_connection(
            self, server, length, status):
        """``Content-Length: -1`` used to reach ``rfile.read(-1)`` and
        pin the handler until the client left; now it is answered and
        the connection — whose next bytes nobody can locate — ends."""
        with RawClient(server) as client:
            client.send(post_bytes(length=length))
            got, headers, body = client.reply()
            assert got == status
            assert body["error"]
            assert headers["Connection"] == "close"
            try:  # a request sent anyway gets no reply, and no hang
                client.send(post_bytes())
                assert client.at_eof()
            except (ConnectionResetError, BrokenPipeError):
                pass  # closed over the unread body: a reset, still closed

    def test_a_body_at_the_cap_is_read(self, server):
        body = b'{"pad": 0, "filler": "' \
            + b"y" * (MAX_BODY_BYTES - 25) + b'"}'
        assert len(body) <= MAX_BODY_BYTES
        with RawClient(server) as client:
            client.send(post_bytes(body=body, length=len(body)))
            assert client.reply()[0] == 200

    def test_unknown_path_skips_its_body(self, server):
        """A 404 whose body stayed unread would have the next request
        parsed from ``{"sparql": "x"}POST /v1/query ...``."""
        with RawClient(server) as client:
            client.send(post_bytes(path="/nope") + post_bytes())
            first = client.reply()
            second = client.reply()
        assert first[0] == 404 and "/nope" in first[2]["error"]
        assert second[0] == 200

    def test_unknown_path_with_a_bad_length_ends_the_connection(
            self, server):
        with RawClient(server) as client:
            client.send(post_bytes(path="/nope", length=-1))
            status, headers, _ = client.reply()
            assert status == 404
            assert headers["Connection"] == "close"

    def test_no_gateway_mounted_skips_its_body(self, server):
        server.set_query_fn(None)
        with RawClient(server) as client:
            client.send(post_bytes() + b"GET /healthz HTTP/1.1\r\n"
                                       b"Host: test\r\n\r\n")
            first = client.reply()
            second = client.reply()
        assert first[0] == 404 and "gateway" in first[2]["error"]
        assert second[0] == 200 and second[2]["ok"] is True

    def test_malformed_json_keeps_the_connection(self, server):
        """The body was read in full, so the framing is intact."""
        with RawClient(server) as client:
            client.send(post_bytes(body=b"{nope", length=5) + post_bytes())
            assert client.reply()[0] == 400
            assert client.reply()[0] == 200


class TestMethods:
    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_unsupported_method_is_405_json(self, server, method):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request(method, "/v1/query", GOOD_BODY)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        assert response.status == 405
        assert response.headers["Allow"] == "GET, POST"
        assert response.headers["Content-Type"] == "application/json"
        assert int(response.headers["Content-Length"]) == len(raw)
        assert method in json.loads(raw)["error"]


class TestClose:
    def test_close_ends_idle_and_busy_connections(self):
        """One connection idle between requests, one waiting for its
        answer: ``close()`` returns promptly, the waiting client still
        gets its whole reply, both then read EOF, and no handler thread
        is left."""
        entered, release = threading.Event(), threading.Event()

        def query(payload):
            if payload.get("block"):
                entered.set()
                assert release.wait(TIMEOUT_S)
            return 200, {}, {"done": True}

        server = TelemetryHTTPServer(
            snapshot_fn=MetricsRegistry().snapshot, query_fn=query)
        try:
            with RawClient(server) as idle, RawClient(server) as busy:
                idle.send(post_bytes())
                assert idle.reply()[0] == 200  # established, now idle
                blocking = b'{"block": 1}'
                busy.send(post_bytes(body=blocking, length=len(blocking)))
                assert entered.wait(TIMEOUT_S)
                assert len(handler_threads()) == 2
                threading.Timer(0.3, release.set).start()
                started = time.monotonic()
                server.close()
                assert time.monotonic() - started < 2.0
                status, headers, body = busy.reply()
                assert (status, body) == (200, {"done": True})
                assert headers["Connection"] == "close"
                assert busy.at_eof()
                assert idle.at_eof()
                assert handler_threads() == []
        finally:
            release.set()
            server.close()
