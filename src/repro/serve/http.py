"""HTTP exposition of serving telemetry: ``/metrics``, ``/healthz``,
``/statusz`` — and, when a gateway is mounted, the ``/v1/query`` door.

A tiny stdlib-only (:mod:`http.server`) endpoint the serving runtime
mounts when ``ServeConfig.http_port`` is set, so an external scraper —
Prometheus, a load balancer's health probe, ``curl`` — can observe the
process from outside:

* ``GET /metrics``  — the current :class:`~repro.obs.StatsSnapshot`
  rendered in the Prometheus text exposition format (v0.0.4): counters
  as ``*_total``, gauges verbatim, histograms as quantile summaries,
  span stages as ``repro_stage_seconds``.  Labelled metrics
  (``rank_requests{shard=3}``) render with proper quoting/escaping.
* ``GET /healthz``  — 200 with a JSON body while healthy, 503 when not
  (runtime closed, model missing, or a shard worker process dead —
  detected via the pool's per-worker liveness).
* ``GET /statusz``  — the full JSON snapshot (model version, shard
  liveness, cache hit rates, stage timings); ``cli get stats
  host:port`` pretty-prints it.
* ``POST /v1/query`` — present when a :class:`repro.gateway.Gateway`
  registered itself via :meth:`TelemetryHTTPServer.set_query_fn`.  The
  JSON body names the query (``sparql``), tenant, priority, ``top_k``
  and ``deadline_ms``; shed requests come back as **429** with a
  ``Retry-After`` header, so standard client back-off loops work
  unmodified.  Without a gateway the path is 404 like any other.

With a :class:`repro.obs.Diagnostics` handle mounted (``diag=``), three
debug endpoints join them:

* ``GET /debug/flight?n=100&tenant=…&min_ms=…&request_id=…`` — the
  newest matching flight-recorder entries (``cli get flight host:port``
  renders a table).
* ``GET /debug/slo`` — per-objective burn rates over every alert
  window, alert verdicts, and p99-bucket latency exemplars.
* ``GET /debug/trace/<request_id>`` — the tail-sampled span tree of one
  request as Chrome trace-event JSON (load in ``chrome://tracing`` /
  Perfetto); 404 when the request was not retained.

The continuous-profiling endpoints (``prof_fn``/``mem_fn``, mounted by
the runtime when ``ServeConfig.profiling`` is on) are independent of
``diag``:

* ``GET /debug/prof?seconds=N&role=&format=json|folded|speedscope`` —
  the merged cross-process profile (``cli get prof host:port`` renders
  it);
  ``seconds`` blocks for an N-second sampling window, ``folded`` is
  flamegraph.pl input, ``speedscope`` loads in https://speedscope.app.
* ``GET /debug/mem`` — per-process RSS, cache residency bytes, and the
  shared-memory shard-slab inventory (``cli get mem host:port``).

Errors are machine-readable: unknown paths, bad methods (405 with an
``Allow`` header) and malformed bodies all return a JSON object
(``{"error": ...}``) with correct ``Content-Type``/``Content-Length``
headers — a load balancer or SDK never has to scrape free-text from
this server.

The server speaks HTTP/1.1 with persistent connections: a
:class:`ThreadingHTTPServer` gives every *connection* one daemon handler
thread, and a request stays on that thread from the socket through the
gateway to the reply (DESIGN.md §9, "Connection lifetime").  A client
that sends ``Connection: close`` or an HTTP/1.0 request line gets one
reply and a closed connection, so ``urllib`` callers work unchanged.  A
connection that sends nothing for :data:`IDLE_TIMEOUT_S` is closed, a
declared body above :data:`MAX_BODY_BYTES` is refused with 413, and
:meth:`TelemetryHTTPServer.close` half-closes every open connection so
no handler thread outlives it.  Scrapes never sit on the query path;
each takes one registry snapshot (a short lock per metric, no
stop-the-world).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..obs.metrics import (StatsSnapshot, parse_metric_key,
                           snapshot_to_json)

__all__ = ["TelemetryHTTPServer", "render_prometheus"]

#: seconds a connection may sit between requests — and the read timeout
#: of its socket, so a client that declares more body than it sends
#: cannot pin its handler thread for longer.  A constant, not an option:
#: the only callers with a preference are keep-alive clients that pause
#: (a tracing client idles for seconds between rounds), and a
#: server-side close under them surfaces as a failed request.
IDLE_TIMEOUT_S = 120.0

#: largest ``POST /v1/query`` body read; a SPARQL query is a few hundred
#: bytes, so anything near this is not a query
MAX_BODY_BYTES = 1 << 20

#: longest ``close()`` waits for handler threads to write their replies
_CLOSE_WAIT_S = 5.0

#: longest header line and most head lines (the blank one included) a
#: request may send before 431 — ``http.client``'s limits
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100
#: a field name as ``email.parser`` reads one: printable ASCII but ``:``
_FIELD_NAME = re.compile(r"[!-9;-~]+")

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str = "repro_") -> str:
    """Prometheus-legal metric name (dots and dashes become ``_``)."""
    name = prefix + name
    if not _NAME_OK.match(name):
        name = _NAME_FIX.sub("_", name)
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_LABEL_FIX.sub("_", k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN guard; snapshots should never carry one
        return "NaN"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: StatsSnapshot) -> str:
    """Prometheus text-format (v0.0.4) rendering of one snapshot.

    Every series of one base metric shares a single ``# TYPE`` header;
    histograms render as summaries (quantile label + ``_sum`` /
    ``_count``), with the window mean exposed as the sum of the samples
    the window currently holds.
    """
    lines: list[str] = []

    def header(name: str, kind: str) -> None:
        lines.append(f"# TYPE {name} {kind}")

    by_base: dict[str, list[tuple[dict, int]]] = {}
    for key, value in sorted(snapshot.counters.items()):
        base, labels = parse_metric_key(key)
        by_base.setdefault(base, []).append((labels, value))
    for base, series in by_base.items():
        name = _metric_name(base) + "_total"
        header(name, "counter")
        for labels, value in series:
            lines.append(f"{name}{_labels_text(labels)} {_fmt(value)}")

    by_base_g: dict[str, list[tuple[dict, float]]] = {}
    for key, value in sorted(snapshot.gauges.items()):
        base, labels = parse_metric_key(key)
        by_base_g.setdefault(base, []).append((labels, value))
    for base, series in by_base_g.items():
        name = _metric_name(base)
        header(name, "gauge")
        for labels, value in series:
            lines.append(f"{name}{_labels_text(labels)} {_fmt(value)}")

    by_base_h: dict[str, list[tuple[dict, object]]] = {}
    for key, stats in sorted(snapshot.histograms.items()):
        base, labels = parse_metric_key(key)
        by_base_h.setdefault(base, []).append((labels, stats))
    for base, series in by_base_h.items():
        name = _metric_name(base)
        header(name, "summary")
        for labels, stats in series:
            for quantile, value in (("0.5", stats.p50), ("0.95", stats.p95),
                                    ("0.99", stats.p99)):
                q_labels = dict(labels, quantile=quantile)
                lines.append(f"{name}{_labels_text(q_labels)} "
                             f"{_fmt(value)}")
            lines.append(f"{name}_sum{_labels_text(labels)} "
                         f"{_fmt(stats.mean * stats.count)}")
            lines.append(f"{name}_count{_labels_text(labels)} "
                         f"{_fmt(stats.count)}")

    if snapshot.stages:
        sum_name = _metric_name("stage_seconds_sum")
        count_name = _metric_name("stage_seconds_count")
        header(sum_name, "counter")
        for stage in sorted(snapshot.stages):
            s = snapshot.stages[stage]
            labels = _labels_text({"stage": stage})
            lines.append(f"{sum_name}{labels} {_fmt(s.total_ms / 1000.0)}")
        header(count_name, "counter")
        for stage in sorted(snapshot.stages):
            s = snapshot.stages[stage]
            labels = _labels_text({"stage": stage})
            lines.append(f"{count_name}{labels} {_fmt(s.count)}")

    return "\n".join(lines) + "\n"


class _Head(dict):
    """A request's header fields: lower-cased name → its first value,
    the answer ``email.message.Message.get`` gives for the same head."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class _RequestHandler(BaseHTTPRequestHandler):
    """The stdlib handler with a request head parsed in plain Python.

    The stdlib hands every head to ``http.client.parse_headers``, which
    builds an ``email`` message for a handful of fields — most of what a
    small request costs before the gateway sees it.  :meth:`parse_request`
    keeps the stdlib's request-line rules as they are (version parsing,
    400/505, HTTP/0.9 ``GET``, ``//`` folding, ``Connection`` and
    ``Expect: 100-continue``) and its limits (431 past 65536 bytes a line
    or 100 lines a head), and reads the fields into a :class:`_Head`.
    Two rules are stricter than ``email.parser``, which would read the
    rest of such a head as a body or split a line at a bare CR: a line
    that is not ``name: value`` (no colon, whitespace in the name, an
    obs-fold continuation, a bare CR) is a 400, and so are two
    ``Content-Length`` fields that disagree (RFC 9112 §6.3) — either way
    the connection closes, since nobody can say where the next request
    starts.
    """

    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # A reply sent in two pieces (stdlib's send_response / end_headers,
    # then the body) stalls on a persistent connection: Nagle holds the
    # second until the client's delayed ACK, ~40 ms per request.
    # TelemetryHTTPServer._reply sends one piece; this is the guard for
    # whatever does not.
    disable_nagle_algorithm = True
    #: ``(whole second, Date string)`` of the last reply
    _date = (None, "")

    def log_message(self, *args):  # no stderr chatter per scrape
        pass

    def parse_request(self) -> bool:
        """Request line and head → ``command``/``path``/``headers``;
        False once an error reply went out (the stdlib contract)."""
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1") \
            .rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version "
                                     f"({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type "
                                     f"({command!r})")
                return False
        self.command = command
        # gh-87389: a path starting with '//' reads as a scheme-less
        # absolute URI to clients (an open redirect); reduce it to one /
        self.path = "/" + path.lstrip("/") if path.startswith("//") \
            else path

        self.headers = head = _Head()
        lengths = set()
        count = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long", "header line")
                return False
            count += 1
            if count > _MAX_HEAD_LINES:
                self.send_error(431, "Too many headers",
                                f"got more than {_MAX_HEAD_LINES} headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            value = value.lstrip(" \t").rstrip("\r\n")
            if not colon or not _FIELD_NAME.fullmatch(name) \
                    or "\r" in value:
                self.send_error(400, f"Bad header line ({line[:64]!r})")
                return False
            name = name.lower()
            if name == "content-length":
                lengths.add(value.strip())
            if name not in head:
                head[name] = value
        if len(lengths) > 1:
            self.send_error(400, "Conflicting Content-Length values")
            return False

        conntype = head.get("connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive" \
                and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if head.get("expect", "").lower() == "100-continue" \
                and self.protocol_version >= "HTTP/1.1" \
                and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def date_time_string(self, timestamp=None) -> str:
        """The ``Date`` field value, formatted once per whole second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        second = int(time.time())
        cached_second, text = self._date
        if cached_second != second:
            year, month, day, hour, minute, sec, weekday, *_ = \
                time.gmtime(second)
            text = (f"{self.weekdayname[weekday]}, {day:02d} "
                    f"{self.monthname[month]} {year:04d} "
                    f"{hour:02d}:{minute:02d}:{sec:02d} GMT")
            # per server (each has its own Handler class), one tuple
            # swapped whole: a racing thread reads either
            type(self)._date = (second, text)
        return text


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/x.y`` → ``(x, y)`` under the stdlib's rules (RFC 2145
    §3.1: one dot, digits only, leading zeros ignored, at most ten
    digits a part); None when malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
            part.isascii() and part.isdigit() and len(part) <= 10
            for part in parts):
        return None
    return int(parts[0]), int(parts[1])


class TelemetryHTTPServer:
    """Threaded HTTP server exposing one runtime's telemetry.

    Parameters
    ----------
    snapshot_fn:
        Zero-arg callable returning the current :class:`StatsSnapshot`
        (``ServeRuntime.stats``).
    health_fn:
        Optional zero-arg callable returning ``(ok, detail_dict)``
        (``ServeRuntime.health``); without one, ``/healthz`` is always
        200.
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port, available as
        :attr:`port` after construction (tests rely on this).
    query_fn:
        Optional ``dict -> (status, headers, body_dict)`` handling
        ``POST /v1/query`` submissions (a gateway's
        :meth:`~repro.gateway.Gateway.handle_http`); also attachable
        later via :meth:`set_query_fn`.
    diag:
        Optional :class:`repro.obs.Diagnostics` handle mounting the
        ``/debug/flight`` / ``/debug/slo`` / ``/debug/trace/<id>``
        endpoints (``ServeRuntime`` passes its own).
    prof_fn:
        Optional ``(seconds, role) -> payload dict`` mounting
        ``GET /debug/prof`` (``ServeRuntime.prof_payload``).
    mem_fn:
        Optional zero-arg callable mounting ``GET /debug/mem``
        (``ServeRuntime.mem_payload``).
    """

    def __init__(self, snapshot_fn: Callable[[], StatsSnapshot],
                 health_fn=None, host: str = "127.0.0.1", port: int = 0,
                 query_fn=None, diag=None, prof_fn=None, mem_fn=None):
        outer = self

        class Handler(_RequestHandler):
            def setup(self):
                super().setup()
                outer._opened(self.connection)

            def finish(self):
                with outer._connections_lock:
                    del outer._connections[self.connection]
                super().finish()

            def do_GET(self):  # noqa: N802 (stdlib handler contract)
                try:
                    outer._route(self)
                except ConnectionError:  # client went away mid-reply
                    self.close_connection = True

            def do_POST(self):  # noqa: N802 (stdlib handler contract)
                try:
                    outer._route_post(self)
                except ConnectionError:
                    self.close_connection = True

            def __getattr__(self, name):
                # stdlib dispatches on do_<METHOD> and answers a missing
                # one with an HTML 501; every other method gets this
                # server's own error format instead
                if name.startswith("do_"):
                    return lambda: outer._method_not_allowed(self)
                raise AttributeError(name)

            def send_error(self, code, message=None, explain=None):
                # a head that failed to parse (400, 414, 431, 505) gets
                # this server's JSON error behind an HTTP/1.1 status
                # line; the stdlib writes an HTML page, and none at all
                # behind an unreadable version.  Nobody knows where the
                # next request would start, so the connection ends.
                self.close_connection = True
                outer._json_error(self, code,
                                  message or self.responses[code][0])

        self._snapshot_fn = snapshot_fn
        self._health_fn = health_fn
        self._query_fn = query_fn
        self._diag = diag
        self._prof_fn = prof_fn
        self._mem_fn = mem_fn
        #: open connection -> its handler thread, for close()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._closed = False
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.host = self._server.server_address[0]
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="serve-http")
        self._thread.start()

    # ------------------------------------------------------------------
    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self._snapshot_fn())
            self._reply(handler, 200, body,
                        "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            ok, detail = (True, {}) if self._health_fn is None \
                else self._health_fn()
            body = json.dumps({"ok": ok, **detail}, default=str) + "\n"
            self._reply(handler, 200 if ok else 503, body,
                        "application/json")
        elif path == "/statusz":
            snapshot = self._snapshot_fn()
            payload = snapshot_to_json(snapshot)
            payload["model_version"] = snapshot.model_version
            # top-level so a dashboard need not dig through the gauges;
            # each histogram entry carries its "window" so a windowed
            # p99 is never mistaken for a lifetime percentile
            payload["uptime_seconds"] = \
                snapshot.gauges.get("uptime_seconds", 0.0)
            payload["hit_rates"] = {
                cache: snapshot.hit_rate(cache)
                for cache in ("answer_cache", "embedding_cache")}
            if self._health_fn is not None:
                ok, detail = self._health_fn()
                payload["health"] = {"ok": ok, **detail}
            body = json.dumps(payload, default=str) + "\n"
            self._reply(handler, 200, body, "application/json")
        elif path.startswith("/debug/"):
            self._route_debug(handler, path)
        else:
            self._json_error(handler, 404, f"no such path: {path}")

    def _route_debug(self, handler: BaseHTTPRequestHandler,
                     path: str) -> None:
        query = parse_qs(urlsplit(handler.path).query)

        def param(name, cast, default=None):
            values = query.get(name)
            if not values:
                return default
            try:
                return cast(values[-1])
            except (TypeError, ValueError):
                raise ValueError(f"bad query parameter {name}="
                                 f"{values[-1]!r}")

        def count(text: str) -> int:
            value = int(text)
            if value < 1:
                raise ValueError(text)
            return value

        # the profiling endpoints do not depend on the diag handle —
        # route them before the diagnostics gate below
        if path == "/debug/prof":
            if self._prof_fn is None:
                self._json_error(handler, 404,
                                 "profiling disabled on this server")
                return
            try:
                seconds = param("seconds", float, 0.0)
                role = param("role", str)
                fmt = param("format", str, "json")
                if fmt not in ("json", "folded", "speedscope"):
                    raise ValueError(f"bad query parameter format="
                                     f"{fmt!r} (json|folded|speedscope)")
            except ValueError as exc:
                self._json_error(handler, 400, str(exc))
                return
            payload = self._prof_fn(seconds, role)
            if fmt == "folded":
                self._reply(handler, 200, payload["folded"] + "\n",
                            "text/plain; charset=utf-8")
            elif fmt == "speedscope":
                self._reply(handler, 200,
                            json.dumps(payload["speedscope"]) + "\n",
                            "application/json")
            else:
                self._reply(handler, 200, json.dumps(payload) + "\n",
                            "application/json")
            return
        if path == "/debug/mem":
            if self._mem_fn is None:
                self._json_error(handler, 404,
                                 "memory inventory unavailable on this "
                                 "server")
                return
            self._reply(handler, 200, json.dumps(self._mem_fn()) + "\n",
                        "application/json")
            return
        if self._diag is None:
            self._json_error(handler, 404,
                             "diagnostics disabled on this server")
            return
        if path == "/debug/flight":
            try:
                payload = self._diag.flight_payload(
                    n=param("n", count, 100),
                    tenant=param("tenant", str),
                    min_ms=param("min_ms", float),
                    request_id=param("request_id", str))
            except ValueError as exc:
                self._json_error(handler, 400, str(exc))
                return
            self._reply(handler, 200, json.dumps(payload) + "\n",
                        "application/json")
        elif path == "/debug/slo":
            self._reply(handler, 200,
                        json.dumps(self._diag.slo_payload()) + "\n",
                        "application/json")
        elif path.startswith("/debug/trace/"):
            request_id = path[len("/debug/trace/"):]
            spans = self._diag.trace(request_id)
            if not spans:
                self._json_error(
                    handler, 404,
                    f"no retained trace for {request_id!r} (not "
                    f"tail-sampled, shed at the door, or evicted)")
                return
            from ..obs.export import chrome_trace_events
            body = json.dumps({"traceEvents":
                               chrome_trace_events(spans)}) + "\n"
            self._reply(handler, 200, body, "application/json")
        else:
            self._json_error(handler, 404, f"no such path: {path}")

    def _route_post(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        try:
            length = int(handler.headers.get("Content-Length", ""))
        except ValueError:
            length = None
        framing = None  # why the body cannot, or will not, be read
        if length is None:
            framing = 411, "Content-Length header required"
        elif length < 0:
            framing = 400, f"negative Content-Length: {length}"
        elif length > MAX_BODY_BYTES:
            framing = 413, (f"body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit")
        if path != "/v1/query":
            refusal = 404, f"no such path: {path}"
        elif self._query_fn is None:
            refusal = 404, "no gateway mounted (start with --gateway)"
        else:
            refusal = framing
        if refusal is not None:
            # the next request on this connection is parsed from
            # whatever follows these headers: skip a body that can be
            # delimited, end the connection over one that cannot
            if framing is None:
                handler.rfile.read(length)
            else:
                handler.close_connection = True
            self._json_error(handler, *refusal)
            return
        raw = handler.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._json_error(handler, 400,
                            f"body is not valid JSON: {exc}")
            return
        try:
            status, headers, body = self._query_fn(payload)
        except Exception as exc:  # a handler bug must not kill the thread
            self._json_error(handler, 500, f"internal error: {exc}")
            return
        self._reply(handler, status, json.dumps(body) + "\n",
                    "application/json", headers=headers)

    def _method_not_allowed(self, handler: BaseHTTPRequestHandler) -> None:
        # whether a body follows these headers is the method's business
        # (HEAD even forbids one in the reply), so the connection ends
        handler.close_connection = True
        self._json_error(handler, 405,
                         f"method {handler.command} not allowed",
                         headers={"Allow": "GET, POST"})

    def set_query_fn(self, query_fn) -> None:
        """Mount (or unmount with None) the ``POST /v1/query`` handler."""
        self._query_fn = query_fn

    def _json_error(self, handler, status: int, message: str,
                    headers: dict | None = None) -> None:
        self._reply(handler, status, json.dumps({"error": message}) + "\n",
                    "application/json", headers=headers)

    def _reply(self, handler, status: int, body: str, content_type: str,
               headers: dict | None = None) -> None:
        """Status line, headers and body as one write — one ``send``,
        one segment for anything below the MSS (the Handler's comment
        has the reason)."""
        encoded = body.encode("utf-8")
        if self._closed:  # close() ran meanwhile: this reply is the last
            handler.close_connection = True
        head = [f"HTTP/1.1 {status} {handler.responses[status][0]}",
                f"Server: {handler.version_string()}",
                f"Date: {handler.date_time_string()}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(encoded)}"]
        if handler.close_connection:  # the client's wish, or a refusal's
            head.append("Connection: close")
        head += [f"{name}: {value}"
                 for name, value in (headers or {}).items()]
        handler.wfile.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + encoded)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _opened(self, connection: socket.socket) -> None:
        """Register a handler thread's connection for :meth:`close`."""
        with self._connections_lock:
            self._connections[connection] = threading.current_thread()
            closed = self._closed
        if closed:  # accepted while close() swept: ends the same way
            self._half_close(connection)

    @staticmethod
    def _half_close(connection: socket.socket) -> None:
        """No more requests from this connection: an idle handler reads
        EOF and returns, one in the middle of a request still writes its
        reply first."""
        try:
            connection.shutdown(socket.SHUT_RD)
        except OSError:  # the peer reset it first
            pass

    def close(self) -> None:
        """Stop accepting, end every open connection (see
        :meth:`_half_close`) and join the threads; idempotent.

        The whole wait is bounded: a reply that takes longer than
        :data:`_CLOSE_WAIT_S` leaves its daemon thread to finish alone.
        The server keeps the payload functions it was given no longer
        than that: the runtime (and gateway) they belong to is then
        freed without a cyclic collection.
        """
        with self._connections_lock:
            if self._closed:
                return
            self._closed = True
        deadline = time.monotonic() + _CLOSE_WAIT_S
        self._server.shutdown()
        self._server.server_close()
        with self._connections_lock:
            handlers = list(self._connections.items())
        for connection, _ in handlers:
            self._half_close(connection)
        for thread in (self._thread, *(thread for _, thread in handlers)):
            thread.join(max(0.0, deadline - time.monotonic()))
        if not any(thread.is_alive() for _, thread in handlers):
            self._snapshot_fn = self._health_fn = self._query_fn = None
            self._prof_fn = self._mem_fn = self._diag = None

    def __enter__(self) -> "TelemetryHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
