"""Connection handling shared by the REST and MCP servers: reused worker
threads, the open-connection cap, idle and send timeouts, shutdown, and the
layered backend's shared pool of REST connections."""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from mcard_registry import mcpserver, rest
from mcard_registry.bench.clients import McpClient
from mcard_registry.mcpserver import McpConfig, McpServer
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer
from mcard_registry.wanproxy import WanProfile, WanProxy

from conftest import card_dict, deployment_dict, ingest_dict


def _rest_server(registry):
    return RestServer(registry, RestConfig())


def _mcp_server(registry):
    return McpServer(McpConfig(heartbeat_seconds=0.2), registry)


SERVERS = pytest.mark.parametrize("make_server", [_rest_server, _mcp_server],
                                  ids=["rest", "mcp"])


def _connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=5)


def _read_to_close(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@SERVERS
def test_connections_past_the_cap_get_503_and_start_no_thread(monkeypatch, make_server):
    cap = 3
    monkeypatch.setattr(rest, "CONNECTION_CAP", cap)
    before = threading.active_count()
    server = make_server(Registry()).start()
    held = []
    try:
        held = [_connect(server.port) for _ in range(cap)]  # each holds a worker
        with _connect(server.port) as extra:
            raw = _read_to_close(extra)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 503 ")
        assert json.loads(body) == {"error": "TOO_MANY_CONNECTIONS", "detail": f"cap is {cap}"}
        # the accept loop plus one worker per held connection
        assert threading.active_count() <= before + 1 + cap
        held.pop().close()

        def served():
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                conn.request("GET", "/health")
                return conn.getresponse().status != 503
            finally:
                conn.close()

        assert _wait_until(served, 2)  # a freed worker takes the next connection
    finally:
        for sock in held:
            sock.close()
        server.stop()


@SERVERS
def test_stop_before_start_returns(make_server):
    server = make_server(Registry())
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(2)
    assert not stopper.is_alive()


@SERVERS
def test_stop_leaves_no_worker_thread(make_server):
    before = threading.active_count()
    server = make_server(Registry()).start()
    for _ in range(20):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        conn.request("GET", "/health")
        conn.getresponse().read()
        conn.close()
    server.stop()
    assert _wait_until(lambda: threading.active_count() <= before, 2)


def test_stop_returns_promptly_with_connections_open():
    registry = Registry()
    mc_id = ingest_dict(registry, card_dict())
    rest_server = RestServer(registry, RestConfig()).start()
    native = McpServer(McpConfig(heartbeat_seconds=0.2), registry).start()
    layered = McpServer(McpConfig(backend="layered", rest_base_url=rest_server.base_url,
                                  heartbeat_seconds=0.2)).start()
    idle = http.client.HTTPConnection("127.0.0.1", rest_server.port, timeout=5)
    clients = [McpClient(f"127.0.0.1:{s.port}", timeout=5) for s in (native, layered)]
    servers = {"layered_mcp": layered, "native_mcp": native, "rest": rest_server}
    took = {}
    try:
        idle.request("GET", "/health")
        idle.getresponse().read()  # the connection stays open, idle
        for client in clients:  # each leaves its SSE stream open
            client.connect()
            client.handshake()
            client.read_resource(mc_id)  # layered: leaves a pooled REST connection idle
        for name, server in servers.items():
            start = time.perf_counter()
            server.stop()
            took[name] = time.perf_counter() - start
        assert all(seconds < 0.1 for seconds in took.values()), took
    finally:
        for client in clients:
            client.close()
        idle.close()
        for name in servers.keys() - took.keys():
            servers[name].stop()


def test_worker_pool_counts_survive_concurrent_fresh_connections():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the pool's bookkeeping often
    server = _rest_server(Registry()).start()
    statuses = []
    try:
        def client():
            for _ in range(25):
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
                conn.request("GET", "/health")
                statuses.append(conn.getresponse().status)
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == [200] * 200
        pool = server._httpd
        # a lost update would leave a worker counted busy (or idle twice)
        assert _wait_until(lambda: pool._idle == pool._workers, 2)
    finally:
        sys.setswitchinterval(switch)
        server.stop()


def test_mcp_closes_a_connection_that_sends_nothing(monkeypatch):
    monkeypatch.setattr(mcpserver, "SOCKET_TIMEOUT_S", 0.3)
    server = _mcp_server(Registry()).start()
    try:
        with _connect(server.port) as sock:
            start = time.monotonic()
            assert sock.recv(1) == b""  # closed by the server, not by our 5 s timeout
            assert time.monotonic() - start < 4
    finally:
        server.stop()


def test_stream_that_is_never_read_ends_its_session(monkeypatch):
    monkeypatch.setattr(mcpserver, "SOCKET_TIMEOUT_S", 0.5)
    registry = Registry()
    mc_id = ingest_dict(registry, card_dict(
        deployments=[deployment_dict(i) for i in range(3200)]))  # ~1 MB as JSON
    server = _mcp_server(registry).start()
    client = McpClient(f"127.0.0.1:{server.port}", timeout=10)
    try:
        client.connect()
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        client.handshake()
        request = {"jsonrpc": "2.0", "id": 1, "method": "resources/read",
                   "params": {"uri": f"modelcard://{mc_id}"}}
        deadline = time.monotonic() + 5
        statuses = []
        # the stream is never read again: once the socket buffers fill, a
        # reply's write times out, the POST still gets its 202 and the
        # session closes
        while client.session_id in server.sessions and time.monotonic() < deadline:
            statuses.append(client.post_raw(request))
        assert client.session_id not in server.sessions
        assert set(statuses) <= {202, 404}
    finally:
        client.close()
        server.stop()


def test_reply_larger_than_the_socket_buffers_reaches_a_sequential_client(monkeypatch):
    # McpClient reads each POST's 202 before it reads the stream; a reply
    # written before the 202 would fill the socket buffers and wait out the
    # send timeout
    monkeypatch.setattr(mcpserver, "SOCKET_TIMEOUT_S", 2)
    registry = Registry()
    mc_id = ingest_dict(registry, card_dict(deployments=[
        deployment_dict(i, location="x" * 4000) for i in range(2500)]))  # ~10 MB as JSON
    server = _mcp_server(registry).start()
    client = McpClient(f"127.0.0.1:{server.port}", timeout=10)
    try:
        client.connect()
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        client.handshake()
        _, text = client.read_resource(mc_id)
        assert len(json.loads(text)["deployments"]) == 2500
    finally:
        client.close()
        server.stop()


def test_layered_sessions_share_one_rest_connection():
    registry = Registry()
    mc_id = ingest_dict(registry, card_dict())
    rest_server = RestServer(registry, RestConfig()).start()
    proxy = WanProxy(("127.0.0.1", 0), ("127.0.0.1", rest_server.port), WanProfile(0.0)).start()
    mcp = McpServer(McpConfig(backend="layered", rest_base_url=f"http://127.0.0.1:{proxy.port}",
                              heartbeat_seconds=0.2)).start()
    try:
        for _ in range(10):
            client = McpClient(f"127.0.0.1:{mcp.port}", timeout=10)
            try:
                client.connect()
                client.handshake()
                _, text = client.read_resource(mc_id)
                assert json.loads(text)["model_card"]["external_id"] == mc_id
            finally:
                client.close()
        assert proxy.stats()["connections"] == 1
    finally:
        mcp.stop()
        proxy.stop()
        rest_server.stop()
