import json
import random
import socket
import threading
import time

import pytest
import requests

from mcard_registry.bench.clients import ClientError, McpClient
from mcard_registry.mcpserver import McpConfig, McpServer
from mcard_registry.registry import Registry
from mcard_registry.rest import CHUNK_THRESHOLD, LINE_LIMIT, RestConfig, RestServer

from conftest import (
    HOSTILE_CONTENT_LENGTHS,
    UNDECODABLE_JSON,
    card_dict,
    deployment_dict,
    ingest_dict,
    raw_json_post,
    raw_post,
    record_replies,
)


@pytest.fixture
def native():
    registry = Registry()
    server = McpServer(McpConfig(heartbeat_seconds=0.2), registry).start()
    try:
        yield server, registry
    finally:
        server.stop()


def _client(server) -> McpClient:
    client = McpClient(f"127.0.0.1:{server.port}")
    client.connect()
    return client


def _open(server) -> McpClient:
    client = _client(server)
    client.handshake()
    return client


def _seed(registry):
    mc_id = ingest_dict(registry, card_dict(deployments=[deployment_dict(0)]))
    dep_element = registry.retrieve_model_card(mc_id).deployments[0]["element_id"]
    exp_element = str(registry.record_experiment("exp-1"))
    return mc_id, exp_element, dep_element


# --- session / transport ---

def test_endpoint_event_and_distinct_session_ids(native):
    server, _ = native
    a, b = _client(server), _client(server)
    try:
        a.handshake()
        b.handshake()
        assert a.session_id != b.session_id
        assert len(a.session_id) == 32  # 128-bit hex
    finally:
        a.close()
        b.close()


def test_session_cap_returns_503():
    registry = Registry()
    server = McpServer(McpConfig(session_cap=2, heartbeat_seconds=0.2), registry).start()
    clients = []
    try:
        for _ in range(2):
            client = _client(server)
            client.handshake()
            clients.append(client)
        overflow = _client(server)
        with pytest.raises(ClientError, match="503"):
            overflow.handshake()
        overflow.close()
        # closing one frees a slot
        clients.pop().close()
        time.sleep(0.05)
        replacement = _client(server)
        replacement.handshake()
        clients.append(replacement)
    finally:
        for client in clients:
            client.close()
        server.stop()


def test_config_refuses_a_session_cap_that_is_not_an_integer():
    # the CLI's bad values are in test_cli.py; its --session-cap parses ints only
    with pytest.raises(ValueError, match="session_cap must be an integer"):
        McpConfig(session_cap=2.5)


def test_post_to_unknown_session_is_404(native):
    server, _ = native
    client = _open(server)
    try:
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("POST", "/messages?session_id=deadbeef", body=b"{}",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 404
        conn.close()
    finally:
        client.close()


def test_close_session_then_post_is_404(native):
    server, _ = native
    client = _open(server)
    session_path = client._session_path
    client.close()
    time.sleep(0.05)
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    conn.request("POST", session_path, body=b"{}")
    resp = conn.getresponse()
    assert resp.status == 404
    resp.read()
    conn.request("DELETE", session_path)  # close is idempotent
    resp = conn.getresponse()
    assert resp.status == 204
    resp.read()
    conn.close()


@pytest.mark.parametrize("status,content_lengths", HOSTILE_CONTENT_LENGTHS)
def test_hostile_content_length_rejected_and_closed(native, status, content_lengths):
    server, _ = native
    client = _open(server)
    try:
        got, fields, body = raw_post(server.port, f"/messages?session_id={client.session_id}",
                                     content_lengths)
        assert (got, body["error"]) == \
            (status, "BAD_CONTENT_LENGTH" if status == 400 else "BODY_TOO_LARGE")
        assert fields["connection"] == "close"
        assert client.request("tools/list")["result"]["tools"]
    finally:
        client.close()


def test_heartbeat_comment_on_idle_stream(native):
    server, _ = native
    client = _client(server)
    try:
        client._sock.sendall(
            f"GET /sse HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n".encode()
        )
        from mcard_registry.bench.clients import SseStream
        stream = SseStream(client._sock)
        status, headers = stream.read_headers()
        assert status == 200
        assert headers["content-type"] == "text/event-stream"
        stream.next_event()  # endpoint
        raw = client._sock.recv(64)  # next bytes are the heartbeat comment
        assert raw.startswith(b": ping")
    finally:
        client.close()


# --- initialize / capabilities ---

def test_initialize_capabilities_without_prompts(native):
    server, _ = native
    client = _client(server)
    try:
        response = client.handshake()
        result = response["result"]
        assert set(result["capabilities"]) == {"tools", "resources"}
        assert "prompts" not in json.dumps(result)
        assert result["protocolVersion"]
        assert response["id"] == 1
    finally:
        client.close()


def test_second_initialize_rejected(native):
    server, _ = native
    client = _open(server)
    try:
        response = client.request("initialize", {})
        assert response["error"]["code"] == -32600
    finally:
        client.close()


def test_methods_before_initialize_rejected(native):
    server, _ = native
    client = _client(server)
    try:
        client.connect = lambda: None  # already connected
        request = (
            f"GET /sse HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n"
        ).encode()
        client._sock.sendall(request)
        from mcard_registry.bench.clients import SseStream
        client._stream = SseStream(client._sock)
        client._stream.read_headers()
        _, endpoint = client._stream.next_event()
        client._session_path = endpoint
        import http.client
        client._post = http.client.HTTPConnection("127.0.0.1", server.port)
        for method in ("tools/list", "resources/list", "tools/call", "made/up"):
            response = client.request(method, {})
            assert response["error"]["code"] == -32002, method
    finally:
        client.close()


def test_malformed_json_gives_parse_error_on_stream(native):
    server, _ = native
    client = _open(server)
    try:
        status = None
        body = b"{broken"
        client._post.request(
            "POST", client._session_path, body=body,
            headers={"Host": "x", "Content-Type": "application/json"})
        status = client._post.getresponse()
        status.read()
        message = client.next_message()
        assert message["error"]["code"] == -32700
        assert message["id"] is None
    finally:
        client.close()


@pytest.mark.parametrize("body", UNDECODABLE_JSON)
def test_undecodable_json_gives_parse_error_on_stream(native, body):
    server, _ = native
    client = _open(server)
    try:
        status, reply = raw_json_post(
            server.port, f"/messages?session_id={client.session_id}", body)
        assert (status, reply) == (202, {"status": "accepted"})
        message = client.next_message()
        assert (message["id"], message["error"]["code"]) == (None, -32700)
        assert client.request("tools/list")["result"]["tools"]
    finally:
        client.close()


# Each message echoes its lone surrogate back in a reply (the id, the method
# name, a tool argument): decoded, it would kill the SSE writer at encode.
@pytest.mark.parametrize("message", [
    {"jsonrpc": "2.0", "id": "\ud800", "method": "tools/list"},
    {"jsonrpc": "2.0", "id": 7, "method": "tools/\udc01"},
    {"jsonrpc": "2.0", "id": 8, "method": "tools/call",
     "params": {"name": "create_edge",
                "arguments": {"source_id": "n:\udbff", "target_id": "n:1"}}},
], ids=["id", "method", "argument"])
def test_lone_surrogate_gives_parse_error_on_stream(native, message):
    server, _ = native
    client = _open(server)
    try:
        status, reply = raw_json_post(
            server.port, f"/messages?session_id={client.session_id}",
            json.dumps(message).encode())
        assert (status, reply) == (202, {"status": "accepted"})
        parsed = client.next_message()
        assert (parsed["id"], parsed["error"]["code"]) == (None, -32700)
        assert client.request("tools/list")["result"]["tools"]
    finally:
        client.close()


def test_invalid_request_shape(native):
    server, _ = native
    client = _open(server)
    try:
        client.post_raw({"jsonrpc": "1.0", "id": 5, "method": "tools/list"})
        message = client.next_message()
        assert message["error"]["code"] == -32600
    finally:
        client.close()


def test_unknown_method_after_initialize(native):
    server, _ = native
    client = _open(server)
    try:
        response = client.request("prompts/list", {})
        assert response["error"]["code"] == -32601
    finally:
        client.close()


def test_notifications_get_no_response(native):
    server, _ = native
    client = _open(server)
    try:
        client.post_raw({"jsonrpc": "2.0", "method": "notifications/initialized"})
        response = client.request("tools/list", {})  # next message is this response
        assert "result" in response
    finally:
        client.close()


# --- resources ---

def test_resources_list_single_descriptor(native):
    server, _ = native
    client = _open(server)
    try:
        first = client.request("resources/list", {})["result"]
        second = client.request("resources/list", {})["result"]
        assert first == second
        assert len(first["resources"]) == 1
        descriptor = first["resources"][0]
        assert descriptor["uri_template"] == "modelcard://{mc_id}"
        assert descriptor["media_type"] == "application/json"
    finally:
        client.close()


def test_resources_read_native(native):
    server, registry = native
    mc_id, _, _ = _seed(registry)
    client = _open(server)
    try:
        response, text = client.read_resource(mc_id)
        body = json.loads(text)
        assert body["model_card"]["external_id"] == mc_id
        assert [t["query"] for t in body["_timings"]] == [
            "model_card", "model", "bias_analysis", "xai_analysis", "deployments"]
        contents = response["result"]["contents"][0]
        assert contents["uri"] == f"modelcard://{mc_id}"
        assert contents["mimeType"] == "application/json"
    finally:
        client.close()


def test_resources_read_bad_scheme(native):
    server, _ = native
    client = _open(server)
    try:
        response = client.request("resources/read", {"uri": "card://x"})
        assert response["error"]["code"] == -32602
        for uri in ("modelcard://a/b", "modelcard://a%2Fb"):
            response = client.request("resources/read", {"uri": uri})
            assert response["error"]["code"] == -32602
    finally:
        client.close()


def test_resources_read_absent_card(native):
    server, _ = native
    client = _open(server)
    try:
        response = client.request("resources/read", {"uri": "modelcard://none-none-0"})
        assert response["error"]["code"] == -32010
        assert response["error"]["message"] == "NOT_FOUND"
    finally:
        client.close()


# --- tools ---

def test_tools_list_two_descriptors_stable_order(native):
    server, _ = native
    client = _open(server)
    try:
        result = client.request("tools/list", {})["result"]
        names = [t["name"] for t in result["tools"]]
        assert names == ["create_edge", "search_model_cards"]
        assert len(set(names)) == 2
        for tool in result["tools"]:
            assert tool["input_schema"]["required"]
        again = client.request("tools/list", {})["result"]
        assert again == result
    finally:
        client.close()


def test_tools_call_create_edge_success_and_duplicate(native):
    server, registry = native
    _, exp_element, dep_element = _seed(registry)
    client = _open(server)
    try:
        _, text, is_error = client.call_tool(
            "create_edge", {"source_id": exp_element, "target_id": dep_element})
        assert is_error is False
        assert json.loads(text)["rel_type"] == "INCLUDES"
        _, text, is_error = client.call_tool(
            "create_edge", {"source_id": exp_element, "target_id": dep_element})
        assert is_error is True
        assert json.loads(text)["error"] == "DUPLICATE_EDGE"
    finally:
        client.close()


def test_tools_call_unknown_tool(native):
    server, _ = native
    client = _open(server)
    try:
        response = client.request("tools/call", {"name": "frobnicate", "arguments": {}})
        assert response["error"]["code"] == -32601
    finally:
        client.close()


def test_tools_call_schema_violation(native):
    server, _ = native
    client = _open(server)
    try:
        response = client.request("tools/call",
                                  {"name": "create_edge", "arguments": {"source_id": 5}})
        assert response["error"]["code"] == -32602
        response = client.request("tools/call",
                                  {"name": "search_model_cards",
                                   "arguments": {"query": "x", "limit": "many"}})
        assert response["error"]["code"] == -32602
    finally:
        client.close()


def test_tools_call_search(native):
    server, registry = native
    _seed(registry)
    client = _open(server)
    try:
        _, text, is_error = client.call_tool(
            "search_model_cards", {"query": "camera classifier"})
        assert is_error is False
        hits = json.loads(text)
        assert hits[0]["mc_id"] == "jdoe-resnet-1.0"
    finally:
        client.close()


# --- ordering / correlation ---

def test_id_correlation_and_fifo_under_interleaving(native):
    server, registry = native
    _seed(registry)
    client = _open(server)
    try:
        rng = random.Random(5)
        issued = []
        for i in range(30):
            method = rng.choice(["tools/list", "resources/list"])
            msg_id = f"req-{i}"
            client.send_request(method, {}, msg_id=msg_id)
            issued.append(msg_id)
        received = [client.next_message() for _ in issued]
        assert [m["id"] for m in received] == issued  # FIFO for serial requests
        assert all("result" in m for m in received)
    finally:
        client.close()


# --- layered backend ---

@pytest.fixture
def layered_stack():
    registry = Registry()
    rest = RestServer(registry, RestConfig()).start()
    mcp = McpServer(
        McpConfig(backend="layered", rest_base_url=rest.base_url, heartbeat_seconds=0.2)
    ).start()
    try:
        yield mcp, rest, registry
    finally:
        mcp.stop()
        rest.stop()


def test_layered_read_wraps_rest_body_verbatim(layered_stack):
    mcp, rest, registry = layered_stack
    mc_id, _, _ = _seed(registry)
    client = _open(mcp)
    try:
        replies = record_replies(rest)
        _, text = client.read_resource(mc_id)
        assert len(replies) == 1  # exactly one REST request per resources/read
        assert text.encode("utf-8") == replies[0][3]
    finally:
        client.close()


def test_layered_read_of_a_chunked_rest_body_is_byte_equal(layered_stack):
    mcp, rest, registry = layered_stack
    mc_id = ingest_dict(registry, card_dict(full_description="wildlife " * 150_000))
    client = _open(mcp)
    try:
        replies = record_replies(rest)
        _, text = client.read_resource(mc_id)
        assert len(replies[0][3]) > CHUNK_THRESHOLD  # REST sent it chunked
        assert text.encode("utf-8") == replies[0][3]
    finally:
        client.close()


def test_layered_tools_proxy_one_rest_call_each(layered_stack):
    mcp, rest, registry = layered_stack
    _, exp_element, dep_element = _seed(registry)
    client = _open(mcp)
    try:
        replies = record_replies(rest)
        _, text, is_error = client.call_tool(
            "create_edge", {"source_id": exp_element, "target_id": dep_element})
        assert is_error is False
        assert json.loads(text)["rel_type"] == "INCLUDES"
        _, _, dup_error = client.call_tool(
            "create_edge", {"source_id": exp_element, "target_id": dep_element})
        assert dup_error is True
        _, search_text, _ = client.call_tool("search_model_cards", {"query": "classifier"})
        assert json.loads(search_text)
        assert [(method, status) for method, _, status, _ in replies] == \
            [("POST", 201), ("POST", 409), ("GET", 200)]
    finally:
        client.close()


def test_card_with_reserved_characters_reads_alike_on_every_frontend(layered_stack):
    layered, rest, registry = layered_stack
    created = requests.post(f"{rest.base_url}/modelcard", json=card_dict(name="b?c#d%e"))
    mc_id = created.json()["mc_id"]
    rest_body = requests.get(created.headers["Location"]).json()
    del rest_body["_timings"]
    # the resource URI carries the id percent-encoded, as REST's Location does
    uri = "modelcard://" + created.headers["Location"].rsplit("/", 1)[1]
    assert uri == "modelcard://jdoe-b%3Fc%23d%25e-1.0"
    native = McpServer(McpConfig(heartbeat_seconds=0.2), registry).start()
    clients = []
    try:
        for server in (native, layered):
            clients.append(_open(server))
            _, text = clients[-1].read_resource(mc_id)
            response = clients[-1].request("resources/read", {"uri": uri})
            for text in (text, response["result"]["contents"][0]["text"]):
                body = json.loads(text)
                del body["_timings"]
                assert body == rest_body
            response = clients[-1].request("resources/read", {"uri": "modelcard://a%2Fb"})
            assert response["error"]["code"] == -32602
    finally:
        for client in clients:
            client.close()
        native.stop()


def test_layered_read_absent_card_maps_to_not_found(layered_stack):
    mcp, _, _ = layered_stack
    client = _open(mcp)
    try:
        response = client.request("resources/read", {"uri": "modelcard://none-none-0"})
        assert response["error"]["code"] == -32010
    finally:
        client.close()


def test_server_shutdown_closes_sessions():
    registry = Registry()
    server = McpServer(McpConfig(heartbeat_seconds=0.2), registry).start()
    client = _open(server)
    session_id = client.session_id
    assert session_id in server.sessions
    server.stop()
    assert server.sessions == {}
    client.close()


def test_layered_redials_when_rest_drops_the_kept_alive_connection(layered_stack):
    mcp, rest, registry = layered_stack
    _seed(registry)
    # REST closes a kept-alive connection after 0.2 s without a request
    rest._httpd.RequestHandlerClass.timeout = 0.2
    client = _open(mcp)
    replies = record_replies(rest)
    try:
        for _ in range(3):
            before = len(replies)
            _, text, is_error = client.call_tool(
                "search_model_cards", {"query": "classifier"})
            assert is_error is False
            assert json.loads(text)
            # the attempt on the dropped connection never reached REST
            assert len(replies) - before == 1
            time.sleep(0.6)
    finally:
        client.close()


class FakeRest:
    """A socket server that answers each request head with the next scripted
    reply, ``(bytes, close after sending)``, and records for each request
    the number of the connection it came on (0 for the first one accepted)."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.connections: list[int] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.base_url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        number = 0
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:  # the listener was closed
                return
            threading.Thread(target=self._serve, args=(conn, number), daemon=True).start()
            number += 1

    def _serve(self, conn, number):
        with conn, conn.makefile("rb") as rfile:
            while True:
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    pass
                if not line:
                    return  # the client closed the connection
                self.connections.append(number)
                reply, close = self.replies.pop(0)
                try:
                    conn.sendall(reply)
                except OSError:
                    return
                if close:
                    return

    def close(self):
        self.listener.close()


GOOD_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", False)
REFUSAL = b'{"error": "TOO_MANY_CONNECTIONS"}'
# replies after which the connection must not be used again; the fake keeps
# it open unless the second item says otherwise
BAD_REPLIES = [
    pytest.param((b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\n"
                  b"Content-Length: %d\r\n\r\n%s" % (len(REFUSAL), REFUSAL), False),
                 id="connection-close"),
    pytest.param((b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * LINE_LIMIT
                  + b"\r\nContent-Length: 2\r\n\r\n{}", False), id="field-line-over-limit"),
    pytest.param((b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                  b"zz\r\n{}\r\n0\r\n\r\n", False), id="bad-chunk-size"),
    pytest.param((b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                  b"2\r\n{}}\r\n0\r\n\r\n", False), id="chunk-longer-than-its-size"),
    pytest.param((b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"partial\"", True),
                 id="close-mid-body"),
]


@pytest.mark.parametrize("bad_reply", BAD_REPLIES)
def test_layered_drops_the_connection_after_a_bad_rest_reply(bad_reply):
    # a good reply leaves connection 0 pooled; the bad reply comes on it
    fake = FakeRest([GOOD_REPLY, bad_reply, GOOD_REPLY])
    mcp = _layered_over(fake.base_url)
    client = _open(mcp)
    try:
        assert client.read_resource("a-b-1")[1] == "{}"
        response = client.request("resources/read", {"uri": "modelcard://a-b-1"})
        assert response["error"]["code"] == -32603
        # the next request dials afresh, and the bad reply was not retried
        assert client.read_resource("a-b-1")[1] == "{}"
        assert fake.connections == [0, 0, 1]
    finally:
        client.close()
        mcp.stop()
        fake.close()


def test_mcp_unknown_get_path_is_404(native):
    server, _ = native
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    conn.request("GET", "/nope")
    resp = conn.getresponse()
    assert resp.status == 404
    resp.read()
    conn.close()


# --- failures: one error path ---

@pytest.fixture(scope="module")
def twin_stack():
    """Native and layered MCP over one registry (layered through REST),
    seeded with a card, an experiment and the INCLUDES edge between them."""
    registry = Registry()
    _, exp_element, dep_element = _seed(registry)
    registry.create_edge(exp_element, dep_element)
    rest = RestServer(registry, RestConfig()).start()
    native = McpServer(McpConfig(heartbeat_seconds=0.2), registry).start()
    layered = McpServer(McpConfig(backend="layered", rest_base_url=rest.base_url,
                                  heartbeat_seconds=0.2)).start()
    try:
        yield native, layered, exp_element, dep_element
    finally:
        layered.stop()
        native.stop()
        rest.stop()


# (tool, arguments built from the experiment and deployment element ids)
FAILING_CALLS = [
    pytest.param("search_model_cards", lambda exp, dep: {"query": ""}, id="empty-query"),
    pytest.param("search_model_cards", lambda exp, dep: {"query": "  "}, id="blank-query"),
    pytest.param("search_model_cards", lambda exp, dep: {"query": "classifier", "limit": 0},
                 id="limit-0"),
    pytest.param("create_edge", lambda exp, dep: {"source_id": "n:999999", "target_id": dep},
                 id="unknown-id"),
    pytest.param("create_edge", lambda exp, dep: {"source_id": "bogus", "target_id": dep},
                 id="malformed-id"),
    pytest.param("create_edge", lambda exp, dep: {"source_id": exp, "target_id": dep},
                 id="duplicate-edge"),
]


@pytest.mark.parametrize("tool,arguments", FAILING_CALLS)
def test_native_and_layered_send_equal_error_text(twin_stack, tool, arguments):
    native, layered, exp_element, dep_element = twin_stack
    answers = []
    for server in (native, layered):
        client = _open(server)
        try:
            _, text, is_error = client.call_tool(tool, arguments(exp_element, dep_element))
        finally:
            client.close()
        answers.append((text, is_error))
    assert answers[0] == answers[1]
    assert answers[0][1] is True


@pytest.mark.parametrize("server", ["native", "layered"])
def test_params_must_be_an_object_when_present(twin_stack, server):
    client = _open(twin_stack[0] if server == "native" else twin_stack[1])
    try:
        for msg_id, params in enumerate((0, False, "", [], [1], "x", 1.5)):
            status = client.post_raw({"jsonrpc": "2.0", "id": msg_id, "method": "tools/list",
                                      "params": params})
            assert status == 202
            assert client.wait_response(msg_id)["error"] == {
                "code": -32600, "message": "params must be an object"}, params
        for message in ({"params": None}, {}):
            status = client.post_raw({"jsonrpc": "2.0", "id": "ok", "method": "tools/list",
                                      **message})
            assert status == 202
            assert len(client.wait_response("ok")["result"]["tools"]) == 2
    finally:
        client.close()


@pytest.mark.parametrize("server", ["native", "layered"])
def test_tool_arguments_must_be_an_object_when_present(twin_stack, server):
    client = _open(twin_stack[0] if server == "native" else twin_stack[1])
    try:
        for msg_id, arguments in enumerate((0, False, "", [], [1], "x", 1.5)):
            status = client.post_raw({"jsonrpc": "2.0", "id": msg_id, "method": "tools/call",
                                      "params": {"name": "search_model_cards",
                                                 "arguments": arguments}})
            assert status == 202
            assert client.wait_response(msg_id)["error"] == {
                "code": -32602, "message": "arguments must be an object"}, arguments
        for extra in ({"arguments": None}, {}):  # absent or null: no arguments
            status = client.post_raw({"jsonrpc": "2.0", "id": "ok", "method": "tools/call",
                                      "params": {"name": "search_model_cards", **extra}})
            assert status == 202
            assert client.wait_response("ok")["error"] == {
                "code": -32602, "message": "query must be a string"}
    finally:
        client.close()


def _layered_over(rest_base_url: str) -> McpServer:
    return McpServer(McpConfig(backend="layered", rest_base_url=rest_base_url,
                               heartbeat_seconds=0.2)).start()


def test_layered_read_refused_by_rest_gets_internal_error():
    registry = Registry()
    mc_id, _, _ = _seed(registry)
    rest = RestServer(registry, RestConfig(bearer_token="sesame")).start()
    mcp = _layered_over(rest.base_url)
    client = _open(mcp)
    try:
        status = client.post_raw({"jsonrpc": "2.0", "id": "read", "method": "resources/read",
                                  "params": {"uri": f"modelcard://{mc_id}"}})
        assert status == 202
        error = client.wait_response("read")["error"]
        assert error["code"] == -32603
        assert "UNAUTHORIZED" in error["message"]
    finally:
        client.close()
        mcp.stop()
        rest.stop()


def test_layered_with_rest_unreachable_answers_every_request():
    with socket.socket() as sock:  # a port no one listens on: connections are refused
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    mcp = _layered_over(f"http://127.0.0.1:{port}")
    client = _open(mcp)
    try:
        for msg_id, method, params in (
            ("read", "resources/read", {"uri": "modelcard://a-b-1"}),
            ("call", "tools/call", {"name": "search_model_cards",
                                    "arguments": {"query": "classifier"}}),
        ):
            status = client.post_raw({"jsonrpc": "2.0", "id": msg_id, "method": method,
                                      "params": params})
            assert status == 202
            assert client.wait_response(msg_id)["error"]["code"] == -32603
    finally:
        client.close()
        mcp.stop()
