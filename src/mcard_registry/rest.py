"""Stateless HTTP/1.1 frontend over the registry, signposting included.

Request heads are read by ``JsonHandler.parse_request``, not the stdlib's
``email`` parser: ``METHOD SP target SP HTTP/1.x`` and at most
``MAX_FIELDS`` field lines of at most ``LINE_LIMIT`` bytes; a head that
breaks these rules gets a JSON 400, 414, 431, 501 or 505 and a closed
connection. Every handler reply is written by ``JsonHandler._reply``, and
every response head (the 503 past the cap and ``100 Continue`` included)
is formatted by ``_head``. Every response is UTF-8 JSON except the linkset
document (its own media type) and HEAD (headers only). Bodies over 1 MiB go
out chunked so multi-megabyte cards stream on keep-alive connections.
Connections run on reused worker threads, at most ``CONNECTION_CAP`` at
once (past it a new connection gets a 503), and a connection that sends
nothing for ``SOCKET_TIMEOUT_S`` is closed. Writes are buffered, so headers
and a small body leave in one send. Card URLs in ``Location`` and ``Link``
carry the card id percent-encoded (``cards.card_url``). A bearer token is
compared as raw octets in constant time. The MCP frontend runs on the same
HTTP core: the worker pool, ``JsonHandler`` (head parser, reply writer, JSON
replies, and request bodies capped at ``MAX_BODY_BYTES``) and
``HttpService`` (start and stop).
"""

from __future__ import annotations

import hmac
import queue
import re
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from . import wire
from .cards import (
    LINKSET_MEDIA_TYPE,
    LinkEntry,
    LinkSet,
    _loads,
    build_linkset_from_fields,
    card_url,
    linkset_to_jsonable,
    parse_deployment,
    parse_model_card,
    serialize_link_header,
)
from .errors import ApiError, EmptyQueryError, MalformedJsonError, SchemaViolationError
from .registry import Registry

CHUNK_THRESHOLD = 1024 * 1024
CHUNK_SIZE = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024
# open connections per server: at least two per MCP session (stream and
# POSTs) at the default session cap of 256, plus headroom
CONNECTION_CAP = 1024
SOCKET_TIMEOUT_S = 120  # longest wait for a request's bytes, or for one send
POLL_INTERVAL_S = 0.02  # how often the accept loop checks for stop()
LINE_LIMIT = 64 * 1024  # bytes in the request line, and in each field line
MAX_FIELDS = 100  # field lines in one request head

_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")  # a field name (RFC 9110 section 5.1)
_LATER_HTTP = re.compile(r"HTTP/[2-9](?:\.[0-9])?")
_HEAD_END = (b"\r\n", b"\n", b"")  # the blank line, or the client closed


def _head(status: int, fields) -> bytes:
    """A response head: the status line, one line per (name, value), and the
    blank line."""
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"]
    lines += [f"{name}: {value}" for name, value in fields]
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


class _Fields(dict):
    """A request's header fields: lowercased name -> its values in arrival
    order. ``get`` (the first value) and ``get_all`` take a name in any case."""

    def get(self, name: str, default=None):
        values = dict.get(self, name.lower())
        return values[0] if values else default

    def get_all(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class HeadError(ValueError):
    """A head that breaks ``_read_fields``'s rules; its args are the status a
    server answers it with, and the detail."""


def _read_fields(rfile) -> _Fields:
    """Read a head's field lines up to its blank line or the end of the
    stream (RFC 9112 section 5): at most ``MAX_FIELDS`` ``name: value`` lines
    of at most ``LINE_LIMIT`` bytes each, else a HeadError (431 or 400)."""
    fields = _Fields()
    count = 0
    while (line := rfile.readline(LINE_LIMIT + 1)) not in _HEAD_END:
        count += 1
        if len(line) > LINE_LIMIT:
            raise HeadError(431, f"a field line is over {LINE_LIMIT} bytes")
        if count > MAX_FIELDS:
            raise HeadError(431, f"more than {MAX_FIELDS} field lines")
        name, colon, value = line.decode("latin-1").rstrip("\r\n").partition(":")
        # no folded lines, no space before the colon, no CR or NUL in a value
        if not colon or not _TOKEN.fullmatch(name) or "\r" in value or "\0" in value:
            raise HeadError(400, "field line must be name: value")
        fields.setdefault(name.lower(), []).append(value.strip(" \t"))
    return fields


class QuietThreadingHTTPServer(HTTPServer):
    """HTTP server whose connections run on reused worker threads.

    An accepted socket goes to an idle worker, or to a new one when none is
    idle; a worker that finishes a connection waits for the next. With
    ``CONNECTION_CAP`` workers busy, a new connection gets a 503 and is
    closed. ``server_close`` ends the idle workers and leaves busy ones to
    finish their connection. A client that drops mid-response (normal when
    benchmarking with fresh connections) is not reported on stderr."""

    def __init__(self, server_address, handler_class):
        super().__init__(server_address, handler_class)
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        self._pool_lock = threading.Lock()
        self._workers = 0  # started; a worker exits only once the server closes
        self._idle = 0  # workers waiting for a connection no one has claimed
        self._closing = False

    def process_request(self, request, client_address):
        with self._pool_lock:
            start = refuse = False
            if self._idle:
                self._idle -= 1
            elif self._workers < CONNECTION_CAP:
                self._workers += 1
                start = True
            else:
                refuse = True
        if refuse:
            self._refuse(request)
            return
        self._connections.put((request, client_address))
        if start:
            threading.Thread(target=self._work, daemon=True).start()

    def _work(self) -> None:
        while (job := self._connections.get()) is not None:
            request, client_address = job
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._pool_lock:
                if self._closing:
                    return
                self._idle += 1

    def _refuse(self, request) -> None:
        body = wire.dump_bytes({"error": "TOO_MANY_CONNECTIONS",
                                "detail": f"cap is {CONNECTION_CAP}"})
        head = _head(503, [("Content-Type", "application/json"),
                           ("Content-Length", len(body)), ("Connection", "close")])
        try:
            request.setblocking(False)  # the accept loop never waits on a client
            request.sendall(head + body)
        except OSError:
            pass
        self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._pool_lock:
            self._closing = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._connections.put(None)

    def handle_error(self, request, client_address):
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError, TimeoutError)):
            return
        super().handle_error(request, client_address)


@dataclass
class RestConfig:
    host: str = "127.0.0.1"
    port: int = 0
    base_url: str | None = None  # derived from the bound address when unset
    bearer_token: str | None = None


class JsonHandler(BaseHTTPRequestHandler):
    """What both frontends' request handlers share: an HTTP/1.1 head parser
    and head writer, keep-alive without Nagle, buffered writes, no stderr
    log, JSON replies and Content-Length framing of request bodies.

    The stdlib runs the connection loop; it calls ``parse_request`` for each
    request line, and ``send_error`` for a request line over ``LINE_LIMIT``
    (414) and for a method with no ``do_*`` handler (501)."""

    disable_nagle_algorithm = True
    wbufsize = CHUNK_SIZE  # headers and a body up to this size leave in one send

    def log_message(self, fmt, *args):  # default stderr noise off
        pass

    def parse_request(self) -> bool:
        """Read one request head (RFC 9112 sections 3 and 5).

        Takes exactly ``METHOD SP target SP HTTP/1.0`` or ``HTTP/1.1``, then
        the field lines ``_read_fields`` takes; sets ``command``, ``path``,
        ``url`` (the split target) and ``headers``. Anything else gets a JSON
        error (400; 431 from ``_read_fields``; 505 for HTTP/2 and later), the
        connection is closed, and False is returned.
        """
        self.close_connection = True
        self.command = None  # as in the stdlib: a rejected head has no method
        parts = self.raw_requestline.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not all(parts):
            return self._reject(400, "request line must be METHOD SP target SP HTTP/1.x")
        method, target, version = parts
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            if _LATER_HTTP.fullmatch(version):
                return self._reject(505, f"{version} is not served; use HTTP/1.1")
            return self._reject(400, "version must be HTTP/1.0 or HTTP/1.1")
        if target.startswith("//"):  # "//path" would read as a host
            target = "/" + target.lstrip("/")
        try:
            url = urlsplit(target)
        except ValueError:
            return self._reject(400, "malformed request target")
        try:
            fields = _read_fields(self.rfile)
        except HeadError as exc:
            return self._reject(*exc.args)
        self.command, self.path, self.url, self.headers = method, target, url, fields
        connection = fields.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" or version == "HTTP/1.1":
            self.close_connection = False
        if version == "HTTP/1.1" and fields.get("expect", "").lower() == "100-continue":
            self.wfile.write(_head(100, ()))
            self.wfile.flush()
        return True

    def _reject(self, status: int, detail: str) -> bool:
        self.send_error(status, detail)
        return False

    def send_error(self, code: int, message: str | None = None, explain=None) -> None:
        """Answer a request head that cannot be served with a JSON error and
        close the connection."""
        status = HTTPStatus(code)
        self.close_connection = True
        JsonHandler._reply(self, code, wire.dump_bytes({"error": status.name,
                                                        "detail": message or status.description}),
                           "application/json")

    def _reply(self, status: int, body: bytes, content_type: str | None,
               extra_headers: list[tuple[str, str]] | None = None,
               head_only: bool = False) -> None:
        """The one reply writer: the head (with ``Connection: close`` when
        the connection closes after this reply) and then the body, framed by
        Content-Length or, past ``CHUNK_THRESHOLD``, chunked. The reply to
        a HEAD request, and one with ``head_only`` (an event stream), is the
        head alone, without framing or body."""
        fields = [("Server", self.server_version), ("Date", _http_date(int(time.time())))]
        if content_type:
            fields.append(("Content-Type", content_type))
        fields += extra_headers or ()
        if self.close_connection:
            fields.append(("Connection", "close"))
        if head_only or self.command == "HEAD":
            self.wfile.write(_head(status, fields))
        elif len(body) > CHUNK_THRESHOLD:
            fields.append(("Transfer-Encoding", "chunked"))
            self.wfile.write(_head(status, fields))
            for i in range(0, len(body), CHUNK_SIZE):
                chunk = body[i:i + CHUNK_SIZE]
                self.wfile.write(b"%x\r\n%b\r\n" % (len(chunk), chunk))
            self.wfile.write(b"0\r\n\r\n")
        else:
            fields.append(("Content-Length", len(body)))
            self.wfile.write(_head(status, fields))
            if body:
                self.wfile.write(body)

    def _reply_json(self, status: int, obj, extra_headers=None):
        self._reply(status, wire.dump_bytes(obj), "application/json", extra_headers)

    def _read_body(self) -> bytes | None:
        """Read a request body framed by Content-Length (RFC 9112 section 6.3).

        A missing, non-numeric, negative or conflicting (repeated with
        different values) length gets a 400 reply, and a length over
        ``MAX_BODY_BYTES`` a 413; None means such a reply went out. The
        connection is then closed, because the unread body would otherwise be
        parsed as the next request. Read before any other reply, so
        keep-alive framing survives early error responses.
        """
        values = {v.strip() for v in self.headers.get_all("Content-Length", ())}
        raw = values.pop() if len(values) == 1 else ""
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            self._reply_json(400, {"error": "BAD_CONTENT_LENGTH",
                                   "detail": "request body needs one non-negative "
                                             "decimal Content-Length"})
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._reply_json(413, {"error": "BODY_TOO_LARGE",
                                   "detail": f"limit is {MAX_BODY_BYTES} bytes"})
            return None
        return self.rfile.read(length)


class HttpService:
    """One server on its own accept thread; ``stop()`` returns within
    ``POLL_INTERVAL_S`` and leaves busy workers to finish their connection."""

    def __init__(self, host: str, port: int, handler_class):
        self._httpd = QuietThreadingHTTPServer((host, port), handler_class)
        self._started = False

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self):
        self._started = True
        threading.Thread(target=self._httpd.serve_forever, args=(POLL_INTERVAL_S,),
                         daemon=True).start()
        return self

    def stop(self) -> None:
        if self._started:  # shutdown() waits for a serve_forever loop to end
            self._httpd.shutdown()
        self._httpd.server_close()


class RestServer(HttpService):
    def __init__(self, registry: Registry, config: RestConfig | None = None):
        self.registry = registry
        self.config = config or RestConfig()
        super().__init__(self.config.host, self.config.port, _make_handler(self))

    @property
    def base_url(self) -> str:
        if self.config.base_url:
            return self.config.base_url.rstrip("/")
        return f"http://{self.config.host}:{self.port}"


def _make_handler(server: RestServer):
    registry = server.registry
    token = server.config.bearer_token
    expected = None if token is None else f"Bearer {token}".encode("utf-8")

    class Handler(JsonHandler):
        server_version = "mcard-rest/0.1"
        timeout = SOCKET_TIMEOUT_S

        def _authorized(self, path: str) -> bool:
            if expected is None or path == "/health":
                return True
            # the octets as received: parse_request decoded them as latin-1
            supplied = self.headers.get("Authorization", "").encode("latin-1")
            if hmac.compare_digest(supplied, expected):
                return True
            self._reply_json(401, {"error": "UNAUTHORIZED", "detail": "bearer token required"})
            return False

        # --- dispatch ---

        def do_GET(self):
            self._route("GET")

        def do_HEAD(self):
            self._route("HEAD")

        def do_POST(self):
            self._route("POST")

        def do_DELETE(self):
            self._route("DELETE")

        def _route(self, method: str):
            try:
                path = unquote(self.url.path)
                # split before decoding: an encoded "/" stays inside its
                # segment (RFC 3986 section 2.2)
                parts = [unquote(p) for p in self.url.path.split("/") if p]
                query = parse_qs(self.url.query, keep_blank_values=True)
                if method == "POST":
                    self._body = self._read_body()
                    if self._body is None:
                        return
                if not self._authorized(path):
                    return
                if path == "/health" and method == "GET":
                    return self._health()
                if path == "/search" and method == "GET":
                    return self._search(query)
                if path == "/modelcard" and method == "POST":
                    return self._ingest()
                if path == "/edge" and method == "POST":
                    return self._create_edge()
                if path == "/experiment" and method == "POST":
                    return self._experiment()
                if len(parts) == 2 and parts[0] == "modelcard" and method in ("GET", "HEAD"):
                    return self._card(parts[1])
                if len(parts) == 3 and parts[0] == "modelcard" and parts[2] == "linkset" \
                        and method == "GET":
                    return self._linkset(parts[1])
                if len(parts) == 3 and parts[0] == "modelcard" and parts[2] == "deployment" \
                        and method == "POST":
                    return self._deployment(parts[1])
                self._reply_json(404, {"error": "NOT_FOUND", "detail": f"no route {method} {path}"})
            except ApiError as exc:
                self._reply_json(exc.status, exc.to_body())
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True
            except Exception as exc:  # pragma: no cover - defensive
                try:
                    self._reply_json(500, {"error": "INTERNAL", "detail": str(exc)})
                except Exception:
                    self.close_connection = True

        # --- endpoints ---

        def _health(self):
            nodes, edges = registry.counts()
            self._reply_json(200, {"status": "ok", "node_count": nodes, "edge_count": edges})

        def _card(self, mc_id: str):
            if self.command == "HEAD":
                # lightweight: existence probe plus signposting headers only
                linkset = registry.get_linkset(mc_id, server.base_url)
                self._reply(200, b"", "application/json", [_link_header(linkset)])
                return
            agg = registry.retrieve_model_card(mc_id)
            linkset = build_linkset_from_fields(mc_id, agg.ai_model, server.base_url)
            total = sum(ms for _, ms in agg.query_timings)
            headers = [_link_header(linkset), ("X-DB-Time-Ms", f"{total:.2f}")]
            self._reply_json(200, wire.aggregated_to_jsonable(agg), headers)

        def _linkset(self, mc_id: str):
            linkset = registry.get_linkset(mc_id, server.base_url)
            self._reply(200, wire.dump_bytes(linkset_to_jsonable(linkset)), LINKSET_MEDIA_TYPE)

        def _search(self, query: dict):
            if "q" not in query:  # a blank q is the registry's to judge
                raise EmptyQueryError("query parameter q is required")
            raw_limit = query.get("limit", [""])[0] or "10"
            try:
                limit = int(raw_limit)
            except ValueError:
                raise SchemaViolationError("limit", "must be an integer") from None
            hits = registry.search_model_cards(query["q"][0], limit)
            self._reply_json(200, wire.search_hits_to_jsonable(hits))

        def _ingest(self):
            doc = parse_model_card(self._body)
            mc_id = registry.ingest_model_card(doc)
            self._reply_json(201, {"mc_id": mc_id},
                             [("Location", card_url(server.base_url, mc_id))])

        def _create_edge(self):
            payload = _json_object(self._body)
            for key in ("source_id", "target_id"):
                if not isinstance(payload.get(key), str):
                    raise SchemaViolationError(key, "required string field")
            created = registry.create_edge(payload["source_id"], payload["target_id"])
            self._reply_json(201, wire.edge_created_to_jsonable(created))

        def _deployment(self, mc_id: str):
            payload = _json_object(self._body)
            dep = parse_deployment(payload, where="deployment.")
            element = registry.record_deployment(mc_id, dep)
            self._reply_json(201, {"element_id": str(element)})

        def _experiment(self):
            payload = _json_object(self._body)
            if not isinstance(payload.get("experiment_id"), str):
                raise SchemaViolationError("experiment_id", "required string field")
            deployment_ids = payload.get("deployment_element_ids", [])
            if not isinstance(deployment_ids, list) or not all(
                isinstance(d, str) for d in deployment_ids
            ):
                raise SchemaViolationError("deployment_element_ids", "must be a list of ids")
            element = registry.record_experiment(payload["experiment_id"], deployment_ids)
            self._reply_json(201, {"experiment_id": payload["experiment_id"],
                                   "element_id": str(element)})

    return Handler


def _link_header(linkset: LinkSet) -> tuple[str, str]:
    pointer = LinkEntry(f"{linkset.anchor}/linkset", "linkset", LINKSET_MEDIA_TYPE)
    return "Link", serialize_link_header(linkset, extra=(pointer,))


def _json_object(body: bytes) -> dict:
    try:
        payload = _loads(body)
    except ValueError as exc:
        raise MalformedJsonError(f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedJsonError("body must be a JSON object")
    return payload
