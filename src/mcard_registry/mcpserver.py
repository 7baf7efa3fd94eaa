"""MCP frontend: JSON-RPC 2.0 over an SSE transport with persistent sessions.

Transport shape: ``GET /sse`` opens the event stream and announces
``event: endpoint`` with the session's message path; clients POST JSON-RPC
messages to ``/messages?session_id=...`` and receive every response as an
``event: message`` on their stream, correlated by request id. The thread
that handles a POST processes it, answers 202, then writes the reply onto
the stream itself; one session's messages are processed one at a time, so
replies arrive in request order. A comment heartbeat keeps idle streams
alive. A stream write that fails, or waits ``SOCKET_TIMEOUT_S`` on a client
that stops reading, closes the session; ``DELETE /messages?session_id=...``
closes one explicitly. The HTTP core is the REST frontend's: its worker
pool, cap, idle timeout, head parser and limits, request-body limit, reply
writer (the stream head, 202 and 204 included) and start/stop.

Two backends expose the same surface (one resource, two tools): ``native``
calls the registry in-process; ``layered`` forwards each call to a REST
server and wraps the REST body verbatim, which is exactly the double
serialization an adapter architecture pays. Each server has one backend,
shared by all its sessions. Both return REST's ``(status, body)``, errors
included: a tool result sets ``isError`` for a status of 400 or more; a
resource read answers 404 with -32010 and other failures with -32603 and
REST's error body. Any exception while handling a message (REST unreachable,
say) is answered with -32603 too, so every request with an id gets a reply.
"""

from __future__ import annotations

import re
import secrets
import socket
import threading
from dataclasses import dataclass
from urllib.parse import parse_qs, quote, unquote, urlsplit

from . import wire
from .cards import _loads
from .errors import ApiError
from .registry import Registry
from .rest import LINE_LIMIT, SOCKET_TIMEOUT_S, HttpService, JsonHandler, _read_fields

PROTOCOL_VERSION = "2024-11-05"
SERVER_INFO = {"name": "mcard-mcp", "version": "0.1.0"}

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
NOT_INITIALIZED = -32002
RESOURCE_NOT_FOUND = -32010

# a REST reply's status line, and a chunk size line (RFC 9112 sections 4 and 7.1)
_STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([1-9][0-9][0-9])(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE_LINE = re.compile(rb"([0-9A-Fa-f]{1,16})(?:;[^\r\n]*)?\r?\n")

RESOURCE_DESCRIPTOR = {
    "uri_template": "modelcard://{mc_id}",
    "description": "Aggregated model card for a registry identifier",
    "media_type": "application/json",
}

TOOL_DESCRIPTORS = [
    {
        "name": "create_edge",
        "description": "Create a directed, schema-validated relationship between two graph elements",
        "input_schema": {
            "type": "object",
            "properties": {
                "source_id": {"type": "string"},
                "target_id": {"type": "string"},
            },
            "required": ["source_id", "target_id"],
        },
    },
    {
        "name": "search_model_cards",
        "description": "Rank model cards against a text query",
        "input_schema": {
            "type": "object",
            "properties": {
                "query": {"type": "string"},
                "limit": {"type": "integer"},
            },
            "required": ["query"],
        },
    },
]


@dataclass
class McpConfig:
    host: str = "127.0.0.1"
    port: int = 0
    backend: str = "native"  # "native" | "layered"
    rest_base_url: str | None = None  # layered only
    session_cap: int = 256
    heartbeat_seconds: float = 15.0

    def __post_init__(self):
        if self.backend not in ("native", "layered"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "layered" and not self.rest_base_url:
            raise ValueError("layered backend needs rest_base_url")


def _answer(status: int, encode, call, *args) -> tuple[int, str]:
    """REST's ``(status, body)`` for one in-process registry call: ``status``
    and the encoded result, or the ApiError's status and error body."""
    try:
        return status, wire.dumps(encode(call(*args)))
    except ApiError as exc:
        return exc.status, wire.dumps(exc.to_body())


class NativeBackend:
    """In-process backend: each operation returns what REST would answer."""

    def __init__(self, registry: Registry):
        self.registry = registry

    def read_card(self, mc_id: str, auth: str | None) -> tuple[int, str]:
        return _answer(200, wire.aggregated_to_jsonable, self.registry.retrieve_model_card, mc_id)

    def create_edge(self, source_id: str, target_id: str, auth: str | None) -> tuple[int, str]:
        return _answer(201, wire.edge_created_to_jsonable, self.registry.create_edge,
                       source_id, target_id)

    def search(self, query: str, limit: int, auth: str | None) -> tuple[int, str]:
        return _answer(200, wire.search_hits_to_jsonable, self.registry.search_model_cards,
                       query, limit)

    def close(self):
        pass


class _RestConnection:
    """One kept-alive connection to REST, without Nagle, read through one buffer."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """The reply's status and body, and whether the connection stays open."""
        self.sock.sendall(request)
        line = self.rfile.readline(LINE_LIMIT + 1)
        if not line:
            raise ConnectionResetError("REST closed the connection before replying")
        status = _STATUS_LINE.fullmatch(line)
        if status is None:
            raise ValueError(f"malformed status line from REST: {line[:80]!r}")
        fields = _read_fields(self.rfile)
        length = fields.get("content-length", "")
        if fields.get("transfer-encoding", "").lower() == "chunked":
            body = self._read_chunked()
        elif length.isascii() and length.isdigit():
            body = self.rfile.read(int(length))
            if len(body) != int(length):
                raise EOFError("REST closed the connection before the end of the body")
        else:
            raise ValueError("REST reply has neither Content-Length nor chunked framing")
        return int(status[1]), body, fields.get("connection", "").lower() != "close"

    def _read_chunked(self) -> bytes:
        chunks = []
        while True:
            match = _CHUNK_SIZE_LINE.fullmatch(self.rfile.readline(LINE_LIMIT + 1))
            if match is None:
                raise ValueError("malformed chunk size line from REST")
            if not (size := int(match[1], 16)):
                _read_fields(self.rfile)  # the trailer section and its blank line
                return b"".join(chunks)
            chunks.append(self.rfile.read(size))
            # a chunk cut short by the end of the stream fails here too
            if self.rfile.readline(3) not in (b"\r\n", b"\n"):
                raise ValueError("chunk data from REST not followed by CRLF")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class LayeredBackend:
    """Adapter backend: one REST request per operation, its (status, body) returned verbatim.

    The hop is this module's own HTTP/1.1 client; the servers use no
    ``http.client``. A request leaves in one send; a reply is a status line
    and field lines within REST's own head limits (``rest._read_fields``),
    then a body framed by Content-Length or chunked. All sessions share a
    lock-guarded stack of idle connections: a request takes the newest one,
    or dials when none is idle, and puts it back once its reply is read,
    unless the reply says ``Connection: close``. One that REST has dropped
    (no status line, a broken pipe, a reset) is redialled once; one that
    raises or sends a malformed reply is closed, never put back."""

    def __init__(self, rest_base_url: str):
        split = urlsplit(rest_base_url)
        if split.scheme != "http" or not split.netloc:
            raise ValueError(f"rest_base_url must be http://host:port, got {rest_base_url!r}")
        self._address = (split.hostname, split.port or 80)
        self._host_line = f"Host: {split.netloc}\r\n".encode("ascii")
        self._idle: list[_RestConnection] = []
        self._lock = threading.Lock()

    def _request(self, method: str, target: str, body: bytes | None, auth: str | None):
        head = [f"{method} {target} HTTP/1.1\r\n".encode("ascii"), self._host_line]
        if auth:  # the octets as received: the MCP head parser decoded them as latin-1
            head.append(f"Authorization: {auth}\r\n".encode("latin-1"))
        if body is not None:
            head.append(b"Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body))
        request = b"".join(head) + b"\r\n" + (body or b"")
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        for attempt in (0, 1):
            if conn is None:
                conn = _RestConnection(self._address)
            try:
                status, payload, reusable = conn.exchange(request)
                break
            except (BrokenPipeError, ConnectionResetError):
                # stale keep-alive connection: REST never saw the request
                conn.close()
                conn = None
                if attempt:
                    raise
            except BaseException:
                conn.close()
                raise
        if reusable:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, payload.decode("utf-8")

    def read_card(self, mc_id: str, auth: str | None) -> tuple[int, str]:
        return self._request("GET", f"/modelcard/{quote(mc_id)}", None, auth)

    def create_edge(self, source_id: str, target_id: str, auth: str | None) -> tuple[int, str]:
        body = wire.dump_bytes({"source_id": source_id, "target_id": target_id})
        return self._request("POST", "/edge", body, auth)

    def search(self, query: str, limit: int, auth: str | None) -> tuple[int, str]:
        return self._request("GET", f"/search?q={quote(query)}&limit={limit}", None, auth)

    def close(self):
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class McpSession:
    """One client's session. Replies go onto its SSE stream from the thread
    that handled the request, one write at a time under ``write_lock``."""

    def __init__(self, session_id: str, write_event):
        self.session_id = session_id
        self.state = "connected"  # -> initialized -> closed
        self.lock = threading.Lock()  # serializes request processing
        self.write_lock = threading.Lock()
        self.ended = threading.Event()  # closed, or its stream failed
        self._write_event = write_event  # the stream handler's event writer

    def emit(self, message: dict) -> None:
        self.write(self._write_event, "message", wire.dumps(message))

    def write(self, fn, *args) -> None:
        """Run one write onto the stream; one that fails or times out ends
        the session, and later writes are dropped."""
        with self.write_lock:
            if self.ended.is_set():
                return
            try:
                fn(*args)
            except OSError:
                self.ended.set()


class McpServer(HttpService):
    def __init__(self, config: McpConfig, registry: Registry | None = None):
        self.config = config
        if config.backend == "native":
            if registry is None:
                raise ValueError("native backend needs a registry")
            self.backend = NativeBackend(registry)
        else:
            self.backend = LayeredBackend(config.rest_base_url)
        self.sessions: dict[str, McpSession] = {}
        self._sessions_lock = threading.Lock()
        super().__init__(config.host, config.port, _make_handler(self))

    def stop(self) -> None:
        for session_id in list(self.sessions):
            self.close_session(session_id)
        super().stop()
        self.backend.close()

    # --- session management ---

    def open_session(self, write_event) -> McpSession | None:
        with self._sessions_lock:
            if len(self.sessions) >= self.config.session_cap:
                return None
            session = McpSession(secrets.token_hex(16), write_event)
            self.sessions[session.session_id] = session
            return session

    def get_session(self, session_id: str) -> McpSession | None:
        with self._sessions_lock:
            return self.sessions.get(session_id)

    def close_session(self, session_id: str) -> None:
        with self._sessions_lock:
            session = self.sessions.pop(session_id, None)
        if session is None:
            return
        session.state = "closed"
        session.ended.set()  # ends the stream

    # --- JSON-RPC dispatch ---

    def handle_post_body(self, session: McpSession, raw: bytes, auth: str | None,
                         accept) -> None:
        """Process one POSTed message and write its reply onto the stream.

        ``accept`` sends the POST's 202. It goes after processing, so a
        message POSTed after that 202 is processed after this one, and
        before the reply: a client may wait for its 202 before it reads the
        stream, and a reply larger than the socket buffers would never drain.
        """
        with session.lock:
            response = self._respond(session, raw, auth)
            try:
                accept()
            finally:  # a POST connection that broke does not lose the stream its reply
                if response is not None:
                    session.emit(response)

    def _respond(self, session: McpSession, raw: bytes, auth: str | None) -> dict | None:
        try:
            message = _loads(raw)
        except ValueError as exc:
            return _error_response(None, PARSE_ERROR, f"parse error: {exc}")
        if not isinstance(message, dict) or message.get("jsonrpc") != "2.0" \
                or not isinstance(message.get("method"), str):
            msg_id = message.get("id") if isinstance(message, dict) else None
            return _error_response(msg_id, INVALID_REQUEST, "invalid request")
        msg_id = message.get("id")
        if msg_id is None:
            return None  # notification: processed silently, never answered
        params = message.get("params")
        try:
            return self._dispatch(session, msg_id, message["method"],
                                  {} if params is None else params, auth)
        except Exception as exc:  # as REST's 500: the request still gets its reply
            return _error_response(msg_id, INTERNAL_ERROR, f"{type(exc).__name__}: {exc}")

    def _dispatch(self, session: McpSession, msg_id, method: str, params, auth) -> dict:
        if not isinstance(params, dict):
            return _error_response(msg_id, INVALID_REQUEST, "params must be an object")
        if method == "initialize":
            if session.state != "connected":
                return _error_response(msg_id, INVALID_REQUEST, "session already initialized")
            session.state = "initialized"
            return _result_response(msg_id, {
                "protocolVersion": PROTOCOL_VERSION,
                "serverInfo": dict(SERVER_INFO),
                "capabilities": {"tools": {}, "resources": {}},
            })
        if session.state != "initialized":
            return _error_response(msg_id, NOT_INITIALIZED, "session not initialized")
        if method == "resources/list":
            return _result_response(msg_id, {"resources": [dict(RESOURCE_DESCRIPTOR)]})
        if method == "resources/read":
            return self._resources_read(msg_id, params, auth)
        if method == "tools/list":
            return _result_response(msg_id, {"tools": [dict(t) for t in TOOL_DESCRIPTORS]})
        if method == "tools/call":
            return self._tools_call(msg_id, params, auth)
        return _error_response(msg_id, METHOD_NOT_FOUND, f"unknown method {method!r}")

    def _resources_read(self, msg_id, params, auth) -> dict:
        uri = params.get("uri")
        if not isinstance(uri, str) or not uri.startswith("modelcard://"):
            return _error_response(msg_id, INVALID_PARAMS, "uri must match modelcard://{mc_id}")
        # the id is percent-encoded, as in REST's Location (RFC 3986 section 2.1)
        mc_id = unquote(uri[len("modelcard://"):])
        if not mc_id or "/" in mc_id:
            return _error_response(msg_id, INVALID_PARAMS, "uri must carry one path segment")
        status, text = self.backend.read_card(mc_id, auth)
        if status == 404:
            return _error_response(msg_id, RESOURCE_NOT_FOUND, "NOT_FOUND")
        if status != 200:
            return _error_response(msg_id, INTERNAL_ERROR, text)
        return _result_response(msg_id, {
            "contents": [{"uri": uri, "mimeType": "application/json", "text": text}],
        })

    def _tools_call(self, msg_id, params, auth) -> dict:
        name = params.get("name")
        arguments = params.get("arguments")
        if arguments is None:
            arguments = {}
        if not isinstance(name, str):
            return _error_response(msg_id, INVALID_PARAMS, "tool name required")
        if not isinstance(arguments, dict):
            return _error_response(msg_id, INVALID_PARAMS, "arguments must be an object")
        if name == "create_edge":
            source = arguments.get("source_id")
            target = arguments.get("target_id")
            if not isinstance(source, str) or not isinstance(target, str):
                return _error_response(
                    msg_id, INVALID_PARAMS, "source_id and target_id must be strings"
                )
            status, text = self.backend.create_edge(source, target, auth)
        elif name == "search_model_cards":
            query = arguments.get("query")
            limit = arguments.get("limit", 10)
            if not isinstance(query, str):
                return _error_response(msg_id, INVALID_PARAMS, "query must be a string")
            if isinstance(limit, bool) or not isinstance(limit, int):
                return _error_response(msg_id, INVALID_PARAMS, "limit must be an integer")
            status, text = self.backend.search(query, limit, auth)
        else:
            return _error_response(msg_id, METHOD_NOT_FOUND, f"unknown tool {name!r}")
        return _result_response(msg_id, {
            "content": [{"type": "text", "text": text}],
            "isError": status >= 400,
        })


def _result_response(msg_id, result: dict) -> dict:
    return {"jsonrpc": "2.0", "id": msg_id, "result": result}


def _error_response(msg_id, code: int, message: str) -> dict:
    return {"jsonrpc": "2.0", "id": msg_id, "error": {"code": code, "message": message}}


def _make_handler(server: McpServer):
    config = server.config

    class Handler(JsonHandler):
        server_version = "mcard-mcp/0.1"
        timeout = SOCKET_TIMEOUT_S  # idle read, and each send onto a stream

        def do_GET(self):
            if self.url.path != "/sse":
                self._reply_json(404, {"error": "NOT_FOUND", "detail": "no such endpoint"})
                return
            session = server.open_session(self._write_event)
            if session is None:
                self._reply_json(503, {"error": "SESSION_TABLE_FULL",
                                       "detail": f"cap is {config.session_cap}"})
                return
            try:
                self._stream(session)
            finally:
                server.close_session(session.session_id)

        def _stream(self, session: McpSession) -> None:
            self.close_connection = True
            self._reply(200, b"", "text/event-stream", [("Cache-Control", "no-cache")],
                        head_only=True)
            session.write(self._write_event, "endpoint",
                          f"/messages?session_id={session.session_id}")
            while not session.ended.wait(config.heartbeat_seconds):
                session.write(self._ping)
            # a failed write can leave bytes in wfile: shut the socket so the
            # final flush fails at once instead of waiting out the timeout
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

        def _ping(self) -> None:
            self.wfile.write(b": ping\n\n")
            self.wfile.flush()

        def _write_event(self, name: str, data: str) -> None:
            # written in parts into the buffered wfile: a small event leaves
            # in one send, and a many-MB one is not copied again to join it
            self.wfile.write(f"event: {name}\ndata: ".encode("utf-8"))
            self.wfile.write(data.encode("utf-8"))
            self.wfile.write(b"\n\n")
            self.wfile.flush()

        def do_POST(self):
            raw = self._read_body()
            if raw is None:
                return
            if self.url.path != "/messages":
                self._reply_json(404, {"error": "NOT_FOUND", "detail": "no such endpoint"})
                return
            session_id = parse_qs(self.url.query).get("session_id", [""])[0]
            session = server.get_session(session_id)
            if session is None or session.state == "closed":
                self._reply_json(404, {"error": "NOT_FOUND", "detail": "unknown session"})
                return
            server.handle_post_body(session, raw, self.headers.get("Authorization"),
                                    self._accept)

        def _accept(self) -> None:
            self._reply_json(202, {"status": "accepted"})
            self.wfile.flush()

        def do_DELETE(self):
            if self.url.path != "/messages":
                self._reply_json(404, {"error": "NOT_FOUND", "detail": "no such endpoint"})
                return
            session_id = parse_qs(self.url.query).get("session_id", [""])[0]
            server.close_session(session_id)
            self._reply(204, b"", None)

    return Handler
