"""Server process for the benchmark: REST, native MCP and layered MCP on one
registry, the same wiring as ``mcard-server all`` but on ephemeral ports.

Usage: python3 launcher.py --src SRC_DIR [--trace]

With --trace the span recorders in ``tracing.py`` are installed before any
server object exists. The process prints one JSON line with the three
ports, then serves until its stdin closes. Each ``spans`` line read from
stdin is answered with one JSON line of span aggregates since the previous
one; each ``cpu`` line with the CPU seconds this process has used; ``quit``
stops the servers and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    from mcard_registry.graphstore import GraphStore
    from mcard_registry.mcpserver import McpConfig, McpServer
    from mcard_registry.registry import Registry
    from mcard_registry.rest import RestConfig, RestServer

    registry = Registry(GraphStore())
    rest = RestServer(registry, RestConfig(host="127.0.0.1", port=0)).start()
    native = McpServer(McpConfig(host="127.0.0.1", port=0, backend="native"), registry).start()
    layered = McpServer(McpConfig(host="127.0.0.1", port=0, backend="layered",
                                  rest_base_url=rest.base_url)).start()
    print(json.dumps({"rest": rest.port, "native_mcp": native.port,
                      "layered_mcp": layered.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "spans":
                print(json.dumps(tracer.snapshot() if tracer else {}), flush=True)
            elif command == "cpu":
                print(json.dumps(time.process_time()), flush=True)
            elif command == "quit":
                break
    finally:
        layered.stop()
        native.stop()
        rest.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
