"""The HTTP/1.1 request-head parser and reply writer that the REST and MCP
servers share: every malformed head gets a JSON error with a status line and
``Connection: close``, and no head gets a 500 or goes unanswered."""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcard_registry.mcpserver import McpConfig, McpServer
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer

from conftest import raw_request


@pytest.fixture(scope="module", params=["rest", "mcp"])
def server(request):
    """One server per frontend for the whole module; a short heartbeat ends
    an event stream soon after its client goes."""
    if request.param == "rest":
        srv = RestServer(Registry(), RestConfig()).start()
    else:
        srv = McpServer(McpConfig(heartbeat_seconds=0.05), Registry()).start()
    yield srv
    srv.stop()


# a head, and the status and error code it must get
MALFORMED_HEADS = [
    pytest.param(b"POST /edge HTTP/1.1\r\nbad line\r\nContent-Length: 2\r\n\r\n{}",
                 400, "BAD_REQUEST", id="field-without-colon"),
    pytest.param(b"GET /health HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
                 400, "BAD_REQUEST", id="obs-fold"),
    pytest.param(b"GET /health HTTP/1.1\r\nHost : x\r\n\r\n",
                 400, "BAD_REQUEST", id="space-before-colon"),
    pytest.param(b"GET /health HTTP/1.1\r\nX: a\rb\r\n\r\n",
                 400, "BAD_REQUEST", id="bare-cr-in-value"),
    pytest.param(b"GET /health HTTP/1.1\r\n" + b"X-Field: 1\r\n" * 101 + b"\r\n",
                 431, "REQUEST_HEADER_FIELDS_TOO_LARGE", id="101-fields"),
    pytest.param(b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
                 431, "REQUEST_HEADER_FIELDS_TOO_LARGE", id="70KB-field"),
    pytest.param(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                 414, "REQUEST_URI_TOO_LONG", id="70KB-target"),
    pytest.param(b"GET /health HTTP/2.0\r\n\r\n",
                 505, "HTTP_VERSION_NOT_SUPPORTED", id="HTTP/2.0"),
    pytest.param(b"GET /health HTTP/1.2\r\n\r\n", 400, "BAD_REQUEST", id="HTTP/1.2"),
    pytest.param(b"GET /health\r\n\r\n", 400, "BAD_REQUEST", id="no-version"),
    pytest.param(b"GET  /health HTTP/1.1\r\n\r\n", 400, "BAD_REQUEST", id="double-space"),
    pytest.param(b"\r\n", 400, "BAD_REQUEST", id="empty-request-line"),
    pytest.param(b"GET http://[x/ HTTP/1.1\r\n\r\n", 400, "BAD_REQUEST", id="bad-target"),
    pytest.param(b"FOO /health HTTP/1.1\r\n\r\n", 501, "NOT_IMPLEMENTED", id="unknown-method"),
]


@pytest.mark.parametrize("head,status,error", MALFORMED_HEADS)
def test_malformed_head_gets_json_error_and_close(server, head, status, error):
    got, fields, body = raw_request(server.port, head)
    assert (got, json.loads(body)["error"]) == (status, error)
    assert set(json.loads(body)) == {"error", "detail"}
    assert fields["content-type"] == "application/json"
    assert fields["connection"] == "close"


def test_http_1_0_without_keep_alive_closes_after_the_reply(server):
    # raw_request reads until the server closes, so a kept-open socket times out
    status, fields, _ = raw_request(server.port, b"GET /health HTTP/1.0\r\n\r\n")
    assert status in (200, 404)
    assert fields["connection"] == "close"


def test_field_names_and_connection_value_are_case_insensitive(server):
    # a POST that only gets past body framing if the mixed-case length is read
    path, status, error = {RestServer: ("/edge", 400, "SCHEMA_VIOLATION"),
                           McpServer: ("/messages?session_id=none", 404, "NOT_FOUND")}[
        type(server)]
    head = f"POST {path} HTTP/1.1\r\ncOnNeCtIoN: CLOSE\r\ncontent-LENGTH: 2\r\n\r\n{{}}"
    got, _, body = raw_request(server.port, head.encode("ascii"))
    assert (got, json.loads(body)["error"]) == (status, error)


def test_expect_100_continue_gets_the_interim_reply_before_the_body(server):
    path = "/edge" if isinstance(server, RestServer) else "/messages?session_id=none"
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(f"POST {path} HTTP/1.1\r\nExpect: 100-continue\r\n"
                     "Content-Length: 2\r\nConnection: close\r\n\r\n".encode("ascii"))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):  # times out unless it is flushed
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(b"{}")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.split(b" ", 2)[1] in (b"400", b"404")


def test_pipelined_requests_are_answered_in_turn_until_close(server):
    keep = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
    close = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(keep + keep + close)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    heads = [part.partition(b"\r\n\r\n")[0] for part in reply.split(b"HTTP/1.1 ")[1:]]
    assert [b"Connection: close" in head for head in heads] == [False, False, True]


# --- fuzzing ---

ALPHABET = b"\r\n:\t /?=%-aZ09\x00\x7f\x80\xc3\xff"
TEXT = st.lists(st.sampled_from(ALPHABET), max_size=2048).map(bytes)
METHODS = st.sampled_from([b"GET", b"POST", b"HEAD", b"DELETE", b"FOO"]) | TEXT
TARGETS = st.sampled_from([b"/health", b"/sse", b"/messages", b"/edge", b"/search?q=a",
                           b"/modelcard/x"]) | TEXT.map(lambda t: b"/" + t) | TEXT
VERSIONS = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1.2"]) | TEXT
REQUEST_LINES = st.builds(lambda m, t, v: b" ".join((m, t, v)), METHODS, TARGETS, VERSIONS) \
    | TEXT
NAMES = st.sampled_from([b"Content-Length", b"Connection", b"Expect", b"Authorization",
                         b"Transfer-Encoding", b"Host"]) | TEXT
FIELD_LINES = st.builds(lambda n, v: n + b": " + v, NAMES, TEXT) | TEXT
HEADS = st.builds(lambda line, fields: b"".join(x + b"\r\n" for x in (line, *fields, b"")),
                  REQUEST_LINES, st.lists(FIELD_LINES, max_size=8))


def _final_status(sock: socket.socket) -> int:
    """The first non-1xx status the server sends (the socket times out
    after 5 s)."""
    buf = b""
    while True:
        while buf.startswith(b"HTTP/1.1 1") and b"\r\n\r\n" in buf:
            buf = buf.partition(b"\r\n\r\n")[2]  # an interim head
        if b"\r\n" in buf and not buf.startswith(b"HTTP/1.1 1"):
            return int(buf.split(b" ", 2)[1])
        chunk = sock.recv(65536)
        assert chunk, f"closed without a status line after {buf!r}"
        buf += chunk


@settings(max_examples=150, deadline=None)
@given(head=HEADS)
def test_any_head_gets_a_status_line_and_never_a_500(server, head):
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)  # a body the head promises ends here
        status = _final_status(sock)
    assert 200 <= status < 300 or 400 <= status < 500 or status in (501, 505), head
