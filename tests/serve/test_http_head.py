"""The door's request-head parser: the stdlib's answers, without ``email``.

``repro.serve.http`` parses request heads itself instead of through
``http.client.parse_headers`` (which builds an ``email`` message per
request).  These tests pin that it answers as the stdlib does on every
well-formed head, that it refuses two disagreeing ``Content-Length``
fields, and — over raw sockets — that every malformed head gets an
``HTTP/1.1`` status line and a JSON ``{"error": ...}`` body, never a
5xx, a hang, or a connection that answers the next request wrongly.

Same skip contract as ``test_http.py`` for the socket tests.
"""

import email.utils
import http.client
import io
import json
import socket
import time
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.serve import TelemetryHTTPServer
from repro.serve.http import _RequestHandler

TIMEOUT_S = 5.0
GOOD_BODY = b'{"sparql": "x"}'
GOOD_POST = (b"POST /v1/query HTTP/1.1\r\nHost: test\r\nContent-Length: "
             + str(len(GOOD_BODY)).encode() + b"\r\n\r\n" + GOOD_BODY)


class _Quiet:
    """Parse in memory: no socket, no stderr."""

    client_address = ("127.0.0.1", 0)

    def log_message(self, *args):
        pass


class StdlibHead(_Quiet, BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"


class OurHead(_Quiet, _RequestHandler):
    pass


def parse(cls, raw: bytes) -> dict:
    """What ``cls.parse_request`` makes of ``raw`` (request line first)."""
    handler = cls.__new__(cls)
    stream = io.BytesIO(raw)
    handler.raw_requestline = stream.readline(65537)
    handler.rfile = stream
    handler.wfile = io.BytesIO()
    ok = handler.parse_request()
    headers = getattr(handler, "headers", None) if ok else None
    return {
        "ok": ok, "command": handler.command,
        "path": getattr(handler, "path", None),
        "version": handler.request_version,
        "close": handler.close_connection,
        "length": None if headers is None
        else headers.get("Content-Length"),
        "expect": None if headers is None else headers.get("Expect"),
        "host": None if headers is None else headers.get("host"),
        # the status line of whatever went out: an error or 100 Continue
        "wrote": handler.wfile.getvalue().split(b"\r\n", 1)[0],
        "unread": stream.read(),
    }


def _cased(name: str):
    """``name`` with each letter's case drawn independently."""
    return st.lists(st.booleans(), min_size=len(name),
                    max_size=len(name)).map(
        lambda flips: "".join(c.upper() if f else c.lower()
                              for c, f in zip(name, flips)))


_OWS = st.sampled_from(["", " ", "  ", "\t", " \t"])
_VALUES = {
    "Connection": st.sampled_from(["close", "Close", "keep-alive",
                                   "Keep-Alive", "upgrade", "close ",
                                   "keep-alive, Upgrade", ""]),
    "Expect": st.sampled_from(["100-continue", "100-Continue", "",
                               "200-ok", "100-continue "]),
    "Content-Length": st.sampled_from(["0", "15", "007"]),
    "Host": st.sampled_from(["test", "example.org:8080", ""]),
    "X-Pad": st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e),
                     max_size=20),
}


@st.composite
def field_lines(draw):
    name = draw(st.sampled_from(sorted(_VALUES)))
    value = draw(_VALUES[name])
    return f"{draw(_cased(name))}:{draw(_OWS)}{value}"


@st.composite
def heads(draw) -> bytes:
    """A well-formed request head — duplicate fields allowed, but every
    ``Content-Length`` of one head says the same number."""
    method = draw(st.sampled_from(["GET", "POST", "HEAD", "PUT"]))
    path = draw(st.sampled_from(["/v1/query", "/metrics?x=1", "//a//b",
                                 "/", "/debug/flight?n=3"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/01.01",
                                    "HTTP/1.2", ""]))
    if not version:
        method = "GET"  # the HTTP/0.9 form: GET only
    lines = draw(st.lists(field_lines(), max_size=8))
    lengths = [line for line in lines
               if line.lower().startswith("content-length")]
    if lengths:
        number = lengths[0].split(":", 1)[1].strip()
        lines = [f"Content-Length: {number}" if line in lengths else line
                 for line in lines]
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    request_line = f"{method} {path} {version}".rstrip()
    text = eol.join([request_line, *lines]) + eol + eol
    return text.encode("iso-8859-1") + b"BODY"


@settings(max_examples=300, deadline=None)
@given(heads())
def test_well_formed_heads_parse_as_the_stdlib_parses_them(raw):
    """Command, path, version, keep-alive, ``Content-Length``,
    ``Expect`` (and whether a 100 Continue went out), and where the
    body starts — the same answers as ``BaseHTTPRequestHandler``."""
    assert parse(OurHead, raw) == parse(StdlibHead, raw)


@pytest.mark.parametrize("raw", [
    b"GET / HTTP/2.0\r\n\r\n",            # 505
    b"GET / HTTP/1.1.1\r\n\r\n",          # 400, bad version
    b"GET / HTTP/1\xb2.1\r\n\r\n",        # a digit int() cannot read
    b"GET / HTTP/12345678901.1\r\n\r\n",  # a part longer than ten digits
    b"GET / x HTTP/1.1\r\n\r\n",          # four words
    b"POST /\r\n\r\n",                    # HTTP/0.9 is GET only
    b"\r\n",                              # blank: no reply, closed
    b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 99 + b"\r\n",  # at the limit
    b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n",  # one past: 431
    b"GET / HTTP/1.1\r\nX: " + b"y" * 65540 + b"\r\n\r\n",  # 431
], ids=["http2", "three-part-version", "superscript-digit", "long-part",
        "four-words", "http09-post", "blank", "99-fields", "100-fields",
        "long-line"])
def test_request_line_and_limits_follow_the_stdlib(raw):
    assert parse(OurHead, raw) == parse(StdlibHead, raw)


@pytest.mark.parametrize("line", [
    b"Content-Length : 5",  # whitespace between name and colon
    b"no colon here",
    b" folded continuation",
    b": no name",
    b"X-Bare: a\rb",
], ids=["space-before-colon", "no-colon", "obs-fold", "empty-name",
        "bare-cr"])
def test_a_line_that_is_not_a_field_is_400(line):
    got = parse(OurHead, b"GET / HTTP/1.1\r\nHost: t\r\n" + line
                + b"\r\n\r\n")
    assert not got["ok"] and got["close"]
    assert got["wrote"].startswith(b"HTTP/1.1 400")


def test_conflicting_content_lengths_are_400_and_close():
    raw = (b"POST /v1/query HTTP/1.1\r\nContent-Length: 5\r\n"
           b"content-length: 50\r\n\r\n")
    got = parse(OurHead, raw)
    assert not got["ok"] and got["close"]
    assert got["wrote"].startswith(b"HTTP/1.1 400")
    # the same number twice is one length (RFC 9112 §6.3)
    same = parse(OurHead, raw.replace(b"50", b"5"))
    assert same["ok"] and same["length"] == "5"


def test_the_date_is_the_stdlib_string_of_this_second():
    handler = OurHead.__new__(OurHead)
    for _ in range(3):  # the cached string of a second, or a fresh one
        before = int(time.time())
        text = handler.date_time_string()
        after = int(time.time())
        assert text in {email.utils.formatdate(second, usegmt=True)
                        for second in range(before, after + 1)}
    assert handler.date_time_string(0) == \
        email.utils.formatdate(0, usegmt=True)


# ----------------------------------------------------------------------
# over sockets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    def query(payload):
        return 200, {}, {"echo": payload}

    with TelemetryHTTPServer(snapshot_fn=MetricsRegistry().snapshot,
                             query_fn=query) as server:
        yield server


def read_reply(rfile):
    """``(status, headers, body bytes)`` of the next reply, or None when
    the server closed without one.  Every reply starts with an
    ``HTTP/1.1`` status line."""
    status_line = rfile.readline()
    if not status_line:
        return None
    assert status_line.startswith(b"HTTP/1.1 "), status_line[:80]
    headers = http.client.parse_headers(rfile)
    body = rfile.read(int(headers.get("Content-Length", 0)))
    return int(status_line.split()[1]), headers, body


def assert_json_refusal(headers, body):
    """A refusal in the server's one format: ``{"error": text}``."""
    assert headers["Content-Type"] == "application/json"
    error = json.loads(body)
    assert list(error) == ["error"] and isinstance(error["error"], str)


def exchange(server, data: bytes, half_close: bool = False):
    """Send ``data`` on a fresh connection; return its socket, reader and
    the first reply (None on a close without one)."""
    sock = socket.create_connection((server.host, server.port),
                                    timeout=TIMEOUT_S)
    rfile = sock.makefile("rb")
    try:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return sock, rfile, read_reply(rfile)
    except BaseException:
        rfile.close()
        sock.close()
        raise


@pytest.mark.http
@pytest.mark.usefixtures("require_loopback_bind")
def test_conflicting_lengths_end_the_connection(server):
    """The parent took the first length, so the rest of the body was
    parsed as the next request on a kept connection."""
    body = GOOD_BODY + GOOD_POST
    raw = (b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: "
           + str(len(GOOD_BODY)).encode() + b"\r\nContent-Length: "
           + str(len(body)).encode() + b"\r\n\r\n" + body)
    sock, rfile, reply = exchange(server, raw)
    try:
        status, headers, body = reply
        assert status == 400
        assert headers["Connection"] == "close"
        assert_json_refusal(headers, body)
        assert read_reply(rfile) is None  # the smuggled POST got nothing
    finally:
        rfile.close()
        sock.close()


@pytest.mark.http
@pytest.mark.usefixtures("require_loopback_bind")
@pytest.mark.parametrize("raw, status", [
    (b"GET /healthz HTTP/1.1.1\r\n\r\n", 400),   # unreadable version
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    (b"POST /healthz\r\n\r\n", 400),              # HTTP/0.9 is GET only
    (b"GET /" + b"a" * 65540 + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n", 431),
], ids=["bad-version", "http2", "http09-post", "long-request-line",
        "100-fields"])
def test_a_refused_head_gets_a_status_line_and_a_json_body(server, raw,
                                                          status):
    """The stdlib's refusals are HTML pages, and one behind a version
    it cannot read has no status line at all; here each is the server's
    JSON error behind ``HTTP/1.1 <code>``, and the connection ends."""
    sock, rfile, reply = exchange(server, raw)
    try:
        assert reply is not None
        got, headers, body = reply
        assert got == status
        assert headers["Connection"] == "close"
        assert_json_refusal(headers, body)
        assert read_reply(rfile) is None
    finally:
        rfile.close()
        sock.close()


_JUNK = st.text(st.characters(min_codepoint=0, max_codepoint=0xff),
                min_size=1, max_size=12)


@st.composite
def malformed(draw):
    """``(kind, head bytes, complete)``: one defect in an otherwise good
    GET or body-less POST.  A complete head ends in a blank line; the
    others stop after their last field and the client half-closes."""
    method = draw(st.sampled_from(["GET", "POST"]))
    request_line = f"{method} /healthz HTTP/1.1"
    fields = ["Host: test"]
    kind = draw(st.sampled_from([
        "version", "words", "http09", "no_colon", "space_name", "fold",
        "empty_name", "bare_cr", "lengths", "bad_length", "many",
        "long_line", "long_request_line", "junk_path", "junk_method"]))
    junk = draw(_JUNK).replace("\r", "").replace("\n", "")
    if kind == "version":
        request_line = f"{method} /healthz " + draw(st.sampled_from(
            ["HTTP/1", "HTTP/x.1", "HTTP/1.1.1", "HTTPS/1.1", "HTTP/-1.1",
             "http/1.1", "HTTP/1.1;" + junk]))
    elif kind == "words":
        request_line = f"{method} /healthz HTTP/1.1 HTTP/1.1"
    elif kind == "http09":
        request_line = "POST /healthz"
    elif kind == "no_colon":
        fields.append("X-Broken" + junk.replace(":", ""))
    elif kind == "space_name":
        fields.append("X-Broken : value")
    elif kind == "fold":
        fields.append(" folded")
    elif kind == "empty_name":
        fields.append(": value")
    elif kind == "bare_cr":
        fields.append("X-A: a\rX-B: b")
    elif kind == "lengths":
        request_line = "POST /v1/query HTTP/1.1"
        fields += ["Content-Length: 0", "Content-Length: 99"]
    elif kind == "bad_length":
        request_line = "POST /v1/query HTTP/1.1"
        fields.append("Content-Length: " + draw(st.sampled_from(
            ["-1", "ten", "1e3", "", "0x10", str(1 << 40)])))
    elif kind == "many":
        fields += ["X-Many: 1"] * 100
    elif kind == "long_line":
        fields.append("X-Long: " + "y" * 65540)
    elif kind == "long_request_line":
        request_line = f"GET /{'a' * 65540} HTTP/1.1"
    elif kind == "junk_path":
        request_line = f"GET /x-{junk.replace(' ', '')} HTTP/1.1"
    elif kind == "junk_method":
        request_line = f"X{junk.replace(' ', '')} /healthz HTTP/1.1"
    head = ("\r\n".join([request_line, *fields]) + "\r\n") \
        .encode("iso-8859-1")
    complete = draw(st.booleans())
    return kind, (head + b"\r\n" if complete else head), complete


@pytest.mark.http
@pytest.mark.usefixtures("require_loopback_bind")
@settings(max_examples=80, deadline=None)
@given(malformed())
def test_a_malformed_head_gets_a_4xx_and_leaves_the_connection_sound(
        server, case):
    """A status line and a JSON error, never a 5xx, never a hang past
    the client's timeout, and a connection the server keeps answers the
    next request correctly; one it ends reads EOF."""
    _kind, raw, complete = case
    sock, rfile, reply = exchange(server, raw, half_close=not complete)
    try:
        assert reply is not None, raw[:80]
        status, headers, body = reply
        assert 400 <= status < 500, (status, raw[:80])
        assert_json_refusal(headers, body)
        if not complete:
            return
        if headers.get("Connection", "").lower() == "close":
            assert read_reply(rfile) is None
            return
        sock.sendall(GOOD_POST)
        status, _, body = read_reply(rfile)
        assert status == 200
        assert json.loads(body) == {"echo": json.loads(GOOD_BODY)}
    finally:
        rfile.close()
        sock.close()
