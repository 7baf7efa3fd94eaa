"""Benchmark-grade clients with explicit, separable timing boundaries.

Both clients expose the raw steps (connect, handshake, operation) so the
harness can time each interval contiguously: connection setup is the TCP
connect alone, the SSE handshake spans GET /sse through the initialize
response, and server processing spans one operation request through its
fully received response. A ``via`` address routes the TCP connection through
a proxy while the HTTP Host header still names the real endpoint.
"""

from __future__ import annotations

import http.client
import json
import socket
from urllib.parse import quote, urlsplit


class ClientError(Exception):
    pass


def split_endpoint(endpoint: str) -> tuple[str, int]:
    parsed = urlsplit(endpoint if "//" in endpoint else f"http://{endpoint}")
    if not parsed.hostname or not parsed.port:
        raise ClientError(f"endpoint must be host:port or http://host:port, got {endpoint!r}")
    return parsed.hostname, parsed.port


class RestClient:
    """One HTTP/1.1 connection with a hand-driven connect step."""

    def __init__(self, endpoint: str, via: str | None = None, timeout: float = 120.0):
        self.host, self.port = split_endpoint(endpoint)
        connect_host, connect_port = split_endpoint(via) if via else (self.host, self.port)
        self._conn = http.client.HTTPConnection(connect_host, connect_port, timeout=timeout)
        self._host_header = f"{self.host}:{self.port}"

    def connect(self) -> None:
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, dict, bytes]:
        all_headers = {"Host": self._host_header}
        if body is not None:
            all_headers["Content-Type"] = "application/json"
        all_headers.update(headers or {})
        self._conn.request(method, path, body=body, headers=all_headers)
        resp = self._conn.getresponse()
        payload = resp.read()
        return resp.status, dict(resp.getheaders()), payload

    def close(self) -> None:
        self._conn.close()


class SseStream:
    """Minimal SSE reader over a raw socket (read-until-close framing)."""

    def __init__(self, sock: socket.socket):
        # large buffer: event payloads can be many MB on one data line, and
        # the default 8 KB buffer makes readline a syscall storm
        self._file = sock.makefile("rb", buffering=1 << 20)

    def read_headers(self) -> tuple[int, dict]:
        status_line = self._file.readline()
        if not status_line:
            raise ClientError("server closed before the SSE status line")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers = {}
        while True:
            line = self._file.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    def next_event(self) -> tuple[str, str]:
        """Block until one complete event; comment lines are skipped."""
        name, data_lines = "message", []
        saw_field = False
        while True:
            line = self._file.readline()
            if not line:
                raise ClientError("SSE stream closed")
            line = line.rstrip(b"\r\n")
            if not line:
                if saw_field:
                    return name, "\n".join(data_lines)
                continue  # blank between comments
            if line.startswith(b":"):
                continue  # heartbeat comment
            saw_field = True
            field, _, value = line.decode("utf-8").partition(":")
            value = value[1:] if value.startswith(" ") else value
            if field == "event":
                name = value
            elif field == "data":
                data_lines.append(value)

    def close(self):
        try:
            self._file.close()
        except OSError:
            pass


class McpClient:
    """SSE-transport MCP client: one stream socket plus one POST connection."""

    def __init__(self, endpoint: str, via: str | None = None, timeout: float = 120.0):
        self.host, self.port = split_endpoint(endpoint)
        self.connect_host, self.connect_port = split_endpoint(via) if via else (self.host, self.port)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._stream: SseStream | None = None
        self._post: http.client.HTTPConnection | None = None
        self._session_path: str | None = None
        self._next_id = 0
        self._pending: dict = {}

    # --- lifecycle steps, timed individually by the harness ---

    def connect(self) -> None:
        self._sock = socket.create_connection(
            (self.connect_host, self.connect_port), timeout=self.timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handshake(self, initialize: bool = True) -> dict | None:
        """GET /sse, wait for the endpoint event, then initialize.

        initialize=False stops after the endpoint event (for conformance
        tests probing the pre-initialize state)."""
        request = (
            f"GET /sse HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            "Accept: text/event-stream\r\n\r\n"
        ).encode("ascii")
        self._sock.sendall(request)
        self._stream = SseStream(self._sock)
        status, _headers = self._stream.read_headers()
        if status != 200:
            raise ClientError(f"SSE open failed with status {status}")
        name, data = self._stream.next_event()
        if name != "endpoint":
            raise ClientError(f"expected endpoint event first, got {name!r}")
        self._session_path = data
        self._post = http.client.HTTPConnection(
            self.connect_host, self.connect_port, timeout=self.timeout
        )
        self._post.connect()
        self._post.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not initialize:
            return None
        return self.request("initialize", {"client_info": {"name": "bench", "version": "0.1"}})

    @property
    def session_id(self) -> str:
        return self._session_path.partition("session_id=")[2]

    def post_raw(self, message: dict) -> int:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        self._post.request(
            "POST", self._session_path, body=body,
            headers={"Host": f"{self.host}:{self.port}", "Content-Type": "application/json"},
        )
        resp = self._post.getresponse()
        resp.read()
        return resp.status

    def next_raw_event(self) -> tuple[str, str]:
        """One SSE event, unparsed: lets callers timestamp receipt before the
        (possibly multi-megabyte) JSON decode."""
        return self._stream.next_event()

    def next_message(self) -> dict:
        name, data = self.next_raw_event()
        if name != "message":
            raise ClientError(f"unexpected event {name!r}")
        return json.loads(data)

    def send_request(self, method: str, params: dict | None = None, msg_id=None) -> int | str:
        if msg_id is None:
            self._next_id += 1
            msg_id = self._next_id
        status = self.post_raw(
            {"jsonrpc": "2.0", "id": msg_id, "method": method, "params": params or {}}
        )
        if status != 202:
            raise ClientError(f"POST /messages returned {status}")
        return msg_id

    def wait_response(self, msg_id) -> dict:
        if msg_id in self._pending:
            return self._pending.pop(msg_id)
        while True:
            message = self.next_message()
            if message.get("id") == msg_id:
                return message
            self._pending[message.get("id")] = message

    def request(self, method: str, params: dict | None = None) -> dict:
        return self.wait_response(self.send_request(method, params))

    # --- operations used by the benchmark ---

    def read_resource(self, mc_id: str) -> tuple[dict, str]:
        response = self.request("resources/read", {"uri": f"modelcard://{quote(mc_id, safe='')}"})
        if "error" in response:
            raise ClientError(f"resources/read failed: {response['error']}")
        return response, response["result"]["contents"][0]["text"]

    def call_tool(self, name: str, arguments: dict) -> tuple[dict, str, bool]:
        response = self.request("tools/call", {"name": name, "arguments": arguments})
        if "error" in response:
            raise ClientError(f"tools/call failed: {response['error']}")
        result = response["result"]
        return response, result["content"][0]["text"], result["isError"]

    def close(self) -> None:
        if self._post is not None and self._session_path:
            try:
                self._post.request("DELETE", self._session_path,
                                   headers={"Host": f"{self.host}:{self.port}"})
                self._post.getresponse().read()
            except (OSError, http.client.HTTPException):
                pass
        for closer in (self._post, self._stream, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._post = self._stream = self._sock = None


def rest_retrieve_path(mc_id: str) -> str:
    return f"/modelcard/{quote(mc_id)}"


def rest_search_path(query: str, limit: int = 10) -> str:
    return f"/search?q={quote(query)}&limit={limit}"
