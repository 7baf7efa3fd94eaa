"""Transparent TCP proxy that injects one-way delay and an optional
bandwidth cap between a benchmark client and a server.

Delay model: chunks are stamped on ingress and released no earlier than
ingress + one_way_delay, independently per direction, so pipelined transfers
keep full throughput while every byte pays the configured latency. The TCP
handshake of a local proxy costs nothing, so the emulated connection
handshake is charged explicitly: relaying starts 2 x one_way_delay after
accept (the upstream dial happens between the two legs). Without that charge
a desk-scale setup could never reproduce wide-area connection-setup costs.

Bandwidth cap: token bucket per direction, capacity one second of budget,
starting empty.

Round-trip accounting (read by the benchmark): every connection counts 1 for
its handshake plus 1 each time upstream data follows fresh client data - an
application-level request/response alternation.
"""

from __future__ import annotations

import argparse
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

from .errors import ApiError

CHUNK = 64 * 1024


class BindFailedError(ApiError):
    code = "BIND_FAILED"


@dataclass(frozen=True)
class WanProfile:
    one_way_delay_ms: float = 0.0
    bandwidth_bytes_per_s: int | None = None

    def __post_init__(self):
        if self.one_way_delay_ms < 0:
            raise ValueError("one_way_delay_ms must be >= 0")
        if self.bandwidth_bytes_per_s is not None and self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be > 0")


class _TokenBucket:
    """Capacity = one second of budget; starts empty."""

    def __init__(self, rate_bytes_per_s: int):
        self._rate = rate_bytes_per_s
        self._tokens = 0.0
        self._last = time.perf_counter()

    def consume(self, n: int) -> None:
        while True:
            now = time.perf_counter()
            self._tokens = min(float(self._rate), self._tokens + (now - self._last) * self._rate)
            self._last = now
            if self._tokens >= n:
                self._tokens -= n
                return
            time.sleep((n - self._tokens) / self._rate)


class _Exchange:
    """Round-trip bookkeeping of one connection, counted into its proxy's total."""

    def __init__(self, proxy: "WanProxy"):
        self._proxy = proxy
        self.inbound_pending = False

    def on_client_data(self):
        with self._proxy._lock:
            self.inbound_pending = True

    def on_upstream_data(self):
        with self._proxy._lock:
            if self.inbound_pending:
                self._proxy._round_trips += 1
                self.inbound_pending = False


class _Pump:
    """One direction: a reader stamps chunks, a writer releases them after
    the delay (and under the bandwidth budget), preserving order."""

    def __init__(self, source: socket.socket, sink: socket.socket, delay_s: float,
                 bucket: _TokenBucket | None, on_data, name: str):
        self._source = source
        self._sink = sink
        self._delay = delay_s
        self._bucket = bucket
        self._on_data = on_data
        self._backlog: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read_loop, daemon=True, name=f"{name}-r")
        self._writer = threading.Thread(target=self._write_loop, daemon=True, name=f"{name}-w")

    def start(self):
        self._reader.start()
        self._writer.start()

    def join(self, timeout=None):
        self._writer.join(timeout)

    def _read_loop(self):
        while True:
            try:
                data = self._source.recv(CHUNK)
            except OSError:
                data = b""
            if data:
                self._on_data()
            self._backlog.put((time.perf_counter(), data))
            if not data:  # EOF or error: propagate teardown after the backlog drains
                return

    def _write_loop(self):
        while True:
            ingress, data = self._backlog.get()
            release_at = ingress + self._delay
            pause = release_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            if not data:
                try:
                    self._sink.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                return
            if self._bucket is not None:
                self._bucket.consume(len(data))
            try:
                self._sink.sendall(data)
            except OSError:
                return


class WanProxy:
    def __init__(self, listen_addr: tuple[str, int], upstream_addr: tuple[str, int],
                 profile: WanProfile | None = None):
        self.profile = profile or WanProfile()
        self.upstream_addr = upstream_addr
        self._lock = threading.Lock()
        self._connections: list[tuple[socket.socket, socket.socket]] = []
        self._connection_count = 0
        self._round_trips = 0
        self._stopped = False
        try:
            self._listener = socket.create_server(listen_addr, backlog=64, reuse_port=False)
        except OSError as exc:
            raise BindFailedError(f"cannot bind {listen_addr}: {exc}") from exc
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> "WanProxy":
        self._accept_thread.start()
        return self

    def stats(self) -> dict:
        with self._lock:
            return {"connections": self._connection_count, "round_trips": self._round_trips}

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            connections = list(self._connections)
        try:
            # wake the blocked accept() so the kernel listener really dies
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for client, upstream in connections:
            for sock in (client, upstream):
                try:
                    # wake the pumps blocked in recv(), which close() alone does not
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()

    def _accept_loop(self):
        while True:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve, args=(client,), daemon=True).start()

    def _serve(self, client: socket.socket):
        delay_s = self.profile.one_way_delay_ms / 1000.0
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # emulated handshake: one leg out, dial upstream, one leg back
        if delay_s:
            time.sleep(delay_s)
        try:
            upstream = socket.create_connection(self.upstream_addr, timeout=30)
        except OSError:
            # UPSTREAM_UNREACHABLE: reset the client instead of silent FIN
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
            return
        upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if delay_s:
            time.sleep(delay_s)
        exchange = _Exchange(self)
        with self._lock:
            if self._stopped:
                client.close()
                upstream.close()
                return
            self._connections.append((client, upstream))
            self._connection_count += 1
            self._round_trips += 1  # the connection handshake
        rate = self.profile.bandwidth_bytes_per_s
        c2s = _Pump(client, upstream, delay_s,
                    _TokenBucket(rate) if rate else None, exchange.on_client_data, "c2s")
        s2c = _Pump(upstream, client, delay_s,
                    _TokenBucket(rate) if rate else None, exchange.on_upstream_data, "s2c")
        c2s.start()
        s2c.start()
        c2s.join()
        s2c.join()
        for sock in (client, upstream):
            try:
                sock.close()
            except OSError:
                pass
        with self._lock:
            if (client, upstream) in self._connections:
                self._connections.remove((client, upstream))


def parse_addr(text: str) -> tuple[str, int]:
    """``host:port`` as an address; an empty host means 127.0.0.1."""
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wanproxy",
        description="TCP proxy adding one-way delay and an optional bandwidth cap",
    )
    parser.add_argument("--listen", required=True, help="host:port to listen on")
    parser.add_argument("--upstream", required=True, help="host:port to forward to")
    parser.add_argument("--delay-ms", type=float, required=True, help="one-way delay in ms")
    parser.add_argument("--bandwidth-bps", type=int, default=None,
                        help="per-direction bandwidth cap in bytes/s")
    args = parser.parse_args(argv)
    profile = WanProfile(args.delay_ms, args.bandwidth_bps)
    proxy = WanProxy(parse_addr(args.listen), parse_addr(args.upstream), profile).start()
    print(f"wanproxy: {args.listen} -> {args.upstream} "
          f"delay {args.delay_ms} ms bandwidth {args.bandwidth_bps or 'unlimited'}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        stats = proxy.stats()
        proxy.stop()
        print(f"wanproxy: {stats['connections']} connections, "
              f"{stats['round_trips']} round trips")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
