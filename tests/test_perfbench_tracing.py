"""Smoke test of the benchmark's per-layer tracing: the benchmark's server
process (perfbench/launcher.py --trace) wraps the program's functions by
name, so a renamed or deleted hook point shows up here as a missing span."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import requests

from mcard_registry.bench.clients import McpClient

from conftest import card_dict

ROOT = Path(__file__).resolve().parent.parent
REQUIRED_SPANS = (
    "rest.request",
    "registry.Registry.retrieve_model_card",
    "graphstore.copy_record",
    "graphstore.GraphStore.neighbors",
    "graphstore.GraphStore.find_nodes",
    "graphstore.read_lock_wait",
    "mcpserver.sse_write",
    "mcpserver.LayeredBackend.read_card",
)


def _send(proc, command: str) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()


def test_traced_launcher_records_every_layer():
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "launcher.py"),
         "--src", str(ROOT / "src"), "--trace"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(60, proc.kill)  # a hung launcher fails, not hangs
    watchdog.start()
    try:
        ports = json.loads(proc.stdout.readline())
        base = f"http://127.0.0.1:{ports['rest']}"
        card = card_dict()
        mc_id = card["external_id"]
        assert requests.post(f"{base}/modelcard", json=card, timeout=10).status_code == 201
        assert requests.get(f"{base}/modelcard/{mc_id}", timeout=10).status_code == 200
        for frontend in ("native_mcp", "layered_mcp"):
            client = McpClient(f"127.0.0.1:{ports[frontend]}", timeout=10)
            try:
                client.connect()
                client.handshake()
                _, text = client.read_resource(mc_id)
                assert json.loads(text)["model_card"]["external_id"] == mc_id
            finally:
                client.close()

        _send(proc, "spans")
        spans = json.loads(proc.stdout.readline())
        assert [name for name in REQUIRED_SPANS if not spans.get(name, {}).get("calls")] == []

        _send(proc, "quit")
        assert proc.wait(timeout=10) == 0
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
