"""mcard-server CLI: run the REST frontend, either MCP variant, or all three
at once for benchmarking.

With ``--snapshot FILE`` the store is loaded from FILE at startup (when it
exists) and saved back to it, atomically, once the servers have stopped on
SIGINT or SIGTERM. A bad setting (an address, a REST base URL, a snapshot
that cannot be read) is one line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

from .errors import ApiError, FileIoError
from .graphstore import GraphStore
from .mcpserver import McpConfig, McpServer
from .registry import Registry
from .rest import RestConfig, RestServer
from .wanproxy import parse_addr


def _registry(args) -> Registry:
    if args.snapshot and os.path.exists(args.snapshot):
        store = GraphStore.snapshot_load(args.snapshot)
        print(f"loaded snapshot {args.snapshot}: "
              f"{store.node_count()} nodes, {store.edge_count()} edges")
    else:
        store = GraphStore()
    return Registry(store)


def _cmd_rest(args) -> int:
    host, port = parse_addr(args.bind)
    registry = _registry(args)
    server = RestServer(registry, RestConfig(
        host=host, port=port, base_url=args.base_url, bearer_token=args.bearer_token,
    )).start()
    print(f"REST server on {server.base_url}")
    return _wait(server.stop, registry, args.snapshot)


def _cmd_mcp(args) -> int:
    host, port = parse_addr(args.bind)
    config = McpConfig(
        host=host, port=port, backend=args.backend, rest_base_url=args.rest_base,
        session_cap=args.session_cap, heartbeat_seconds=args.heartbeat_seconds,
    )
    registry = _registry(args) if args.backend == "native" else None
    server = McpServer(config, registry).start()
    print(f"{args.backend} MCP server on http://{host}:{server.port} (SSE at /sse)")
    return _wait(server.stop, registry, args.snapshot)


def _cmd_all(args) -> int:
    registry = _registry(args)
    rest = RestServer(registry, RestConfig(host=args.host, port=args.rest_port)).start()
    native = McpServer(McpConfig(host=args.host, port=args.native_port,
                                 backend="native"), registry).start()
    layered = McpServer(McpConfig(host=args.host, port=args.layered_port,
                                  backend="layered", rest_base_url=rest.base_url)).start()
    print(f"REST:        {rest.base_url}")
    print(f"native MCP:  http://{args.host}:{native.port}")
    print(f"layered MCP: http://{args.host}:{layered.port}")

    def stop():
        layered.stop()
        native.stop()
        rest.stop()

    return _wait(stop, registry, args.snapshot)


def _wait(stop, registry: Registry | None, snapshot: str | None) -> int:
    """Serve until SIGINT or SIGTERM, stop the servers, then save the store."""
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        stop()
    if registry is not None and snapshot:
        try:
            registry.store.snapshot_save(snapshot)
        except FileIoError as exc:
            print(f"snapshot not saved: {exc.detail}", file=sys.stderr)
            return 1
        print(f"saved snapshot {snapshot}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcard-server",
                                     description="Model-card registry servers")
    sub = parser.add_subparsers(dest="command", required=True)

    rest = sub.add_parser("rest", help="REST frontend")
    rest.add_argument("--bind", default=os.environ.get("BIND_ADDR", "127.0.0.1:8080"))
    rest.add_argument("--base-url", default=os.environ.get("BASE_URL"))
    rest.add_argument("--bearer-token", default=os.environ.get("BEARER_TOKEN"))
    rest.add_argument("--snapshot", help="graph snapshot to load at startup and save on exit")
    rest.set_defaults(func=_cmd_rest)

    mcp = sub.add_parser("mcp", help="MCP frontend (native or layered)")
    mcp.add_argument("--bind", default="127.0.0.1:8081")
    mcp.add_argument("--backend", choices=("native", "layered"), default="native")
    mcp.add_argument("--rest-base", help="REST base URL (layered backend)")
    mcp.add_argument("--session-cap", type=int, default=256)
    mcp.add_argument("--heartbeat-seconds", type=float, default=15.0)
    mcp.add_argument("--snapshot")
    mcp.set_defaults(func=_cmd_mcp)

    both = sub.add_parser("all", help="REST + native MCP + layered MCP on one store")
    both.add_argument("--host", default="127.0.0.1")
    both.add_argument("--rest-port", type=int, default=8080)
    both.add_argument("--native-port", type=int, default=8081)
    both.add_argument("--layered-port", type=int, default=8082)
    both.add_argument("--snapshot")
    both.set_defaults(func=_cmd_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ApiError, ValueError) as exc:
        print(f"mcard-server: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
