import gc
import hashlib
import random
import socket
import sys
import threading
import time

import pytest

from mcard_registry import wanproxy
from mcard_registry.wanproxy import BindFailedError, WanProfile, WanProxy


class EchoServer:
    """Echoes every received chunk back; counts bytes."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.received = 0
        self._threads = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            t = threading.Thread(target=self._echo, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _echo(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                data = conn.recv(65536)
            except OSError:
                return
            if not data:
                conn.close()
                return
            self.received += len(data)
            conn.sendall(data)

    def close(self):
        self.sock.close()


@pytest.fixture
def echo():
    server = EchoServer()
    yield server
    server.close()


def _proxied(echo, profile):
    return WanProxy(("127.0.0.1", 0), ("127.0.0.1", echo.port), profile).start()


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _exchange(sock, payload: bytes) -> bytes:
    sock.sendall(payload)
    got = b""
    while len(got) < len(payload):
        chunk = sock.recv(65536)
        if not chunk:
            break
        got += chunk
    return got


def _median_rtt_ms(sock, rounds=10) -> float:
    _exchange(sock, b"warmup")  # absorbs connection/thread spin-up
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        _exchange(sock, b"x" * 128)
        times.append((time.perf_counter() - t0) * 1000)
    return sorted(times)[len(times) // 2]


def test_zero_delay_rtt_close_to_direct(echo):
    proxy = _proxied(echo, WanProfile(0.0))
    try:
        direct = _connect(echo.port)
        direct_ms = _median_rtt_ms(direct)
        direct.close()
        via = _connect(proxy.port)
        proxied_ms = _median_rtt_ms(via)
        via.close()
        assert proxied_ms <= direct_ms + 2.0
    finally:
        proxy.stop()


def test_delay_25ms_costs_two_round_trips_for_connect_plus_exchange(echo):
    proxy = _proxied(echo, WanProfile(25.0))
    try:
        t0 = time.perf_counter()
        sock = _connect(proxy.port)
        reply = _exchange(sock, b"ping")
        elapsed_ms = (time.perf_counter() - t0) * 1000
        sock.close()
        assert reply == b"ping"
        # connect (2 x 25) + request/response (2 x 25)
        assert elapsed_ms >= 100.0
    finally:
        proxy.stop()


def test_per_chunk_delay_floor_in_steady_state(echo):
    delay_ms = 20.0
    proxy = _proxied(echo, WanProfile(delay_ms))
    try:
        sock = _connect(proxy.port)
        _exchange(sock, b"warmup")  # absorbs the handshake charge
        for i in range(5):
            t0 = time.perf_counter()
            reply = _exchange(sock, f"ping-{i}".encode())
            elapsed_ms = (time.perf_counter() - t0) * 1000
            assert reply == f"ping-{i}".encode()
            assert elapsed_ms >= 2 * delay_ms  # one delay each way
        sock.close()
    finally:
        proxy.stop()


def test_payload_transparency_hashes(echo):
    rng = random.Random(42)
    proxy = _proxied(echo, WanProfile(2.0))
    try:
        sock = _connect(proxy.port)
        for _ in range(5):
            payload = rng.randbytes(rng.randint(1, 300_000))
            reply = _exchange(sock, payload)
            assert hashlib.sha256(reply).hexdigest() == hashlib.sha256(payload).hexdigest()
        sock.close()
    finally:
        proxy.stop()


def test_large_transfer_is_pipelined_not_serialized(echo):
    """The delay is latency, not throughput: a 4 MB transfer through a 30 ms
    proxy must take far less than the 2s a chunk-by-chunk sleep would cost."""
    proxy = _proxied(echo, WanProfile(30.0))
    try:
        sock = _connect(proxy.port)
        payload = b"z" * (4 * 1024 * 1024)
        t0 = time.perf_counter()
        got = _exchange(sock, payload)
        elapsed = time.perf_counter() - t0
        assert len(got) == len(payload)
        assert elapsed < 1.5
        sock.close()
    finally:
        proxy.stop()


def test_bandwidth_cap_floor(echo):
    rate = 100_000  # bytes/s
    payload = b"y" * 300_000
    proxy = _proxied(echo, WanProfile(0.0, bandwidth_bytes_per_s=rate))
    try:
        sock = _connect(proxy.port)
        t0 = time.perf_counter()
        sock.sendall(payload)
        while echo.received < len(payload):
            time.sleep(0.01)
        elapsed = time.perf_counter() - t0
        assert elapsed >= len(payload) / rate  # bucket starts empty: >= 3 s
        sock.close()
    finally:
        proxy.stop()


def test_round_trip_counter(echo):
    proxy = _proxied(echo, WanProfile(5.0))
    try:
        sock = _connect(proxy.port)
        for i in range(3):
            _exchange(sock, f"m{i}".encode())
        sock.close()
        time.sleep(0.1)
        stats = proxy.stats()
        assert stats["connections"] == 1
        assert stats["round_trips"] == 1 + 3  # handshake + three exchanges
    finally:
        proxy.stop()


def test_stop_refuses_new_connections(echo):
    proxy = _proxied(echo, WanProfile(0.0))
    port = proxy.port
    proxy.stop()
    proxy.stop()  # idempotent
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1)


def test_stop_aborts_in_flight_connection(echo):
    proxy = _proxied(echo, WanProfile(0.0))
    sock = _connect(proxy.port)
    _exchange(sock, b"hello")
    proxy.stop()
    with pytest.raises(OSError):
        for _ in range(50):  # the reset may take a moment to surface
            sock.sendall(b"more")
            time.sleep(0.02)
    sock.close()


def test_upstream_unreachable_resets_client():
    # no listener on this port
    probe = socket.create_server(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    proxy = WanProxy(("127.0.0.1", 0), ("127.0.0.1", dead_port), WanProfile(0.0)).start()
    try:
        try:
            sock = _connect(proxy.port)
        except ConnectionResetError:
            return  # the reset arrived before connect returned
        with sock, pytest.raises(OSError):
            for _ in range(100):
                sock.sendall(b"x")
                time.sleep(0.02)
    finally:
        proxy.stop()


def test_bind_failed():
    taken = socket.create_server(("127.0.0.1", 0))
    port = taken.getsockname()[1]
    try:
        with pytest.raises(BindFailedError):
            WanProxy(("127.0.0.1", port), ("127.0.0.1", 1)).start()
    finally:
        taken.close()


def test_teardown_propagates_to_upstream(echo):
    proxy = _proxied(echo, WanProfile(1.0))
    try:
        sock = _connect(proxy.port)
        _exchange(sock, b"bye")
        sock.close()
        deadline = time.time() + 2
        while proxy.stats()["connections"] and time.time() < deadline:
            time.sleep(0.02)
        # the proxy notices the close and tears the pair down (stats keep history)
        assert proxy._connections == []
    finally:
        proxy.stop()


def test_stats_are_running_totals_that_keep_no_closed_connection(echo):
    proxy = _proxied(echo, WanProfile(0.0))
    try:
        for _ in range(200):
            with _connect(proxy.port) as sock:
                assert _exchange(sock, b"ping") == b"ping"
        assert proxy.stats() == {"connections": 200, "round_trips": 400}
        deadline = time.time() + 5
        while True:  # the last connection's pumps may still be winding down
            gc.collect()
            alive = sum(isinstance(o, wanproxy._Exchange) and o._proxy is proxy
                        for o in gc.get_objects())
            if not alive or time.time() > deadline:
                break
            time.sleep(0.05)
        assert alive == 0
    finally:
        proxy.stop()


def test_stats_lose_no_update_under_concurrent_connections(echo):
    proxy = _proxied(echo, WanProfile(0.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def client():
        for _ in range(25):
            with _connect(proxy.port) as sock:
                _exchange(sock, b"ping")

    try:
        clients = [threading.Thread(target=client) for _ in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in clients)
        assert proxy.stats() == {"connections": 200, "round_trips": 400}
    finally:
        sys.setswitchinterval(interval)
        proxy.stop()
