import json
import random
import socket
import socketserver
import sys
from datetime import datetime, timedelta, timezone

import pytest

from mcard_registry.cards import parse_model_card
from mcard_registry.registry import Registry

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)

WORDS = (
    "camera trap wildlife classifier detection speech transcription model "
    "edge inference latency accuracy field sensor image audio stream drift "
    "resnet yolo transformer embedding monitor habitat species night thermal"
).split()


def iso(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def deployment_dict(i: int = 0, device: str = "dev-1", **overrides) -> dict:
    base = {
        "deployment_id": f"dep-{i:04d}",
        "device_id": device,
        "start_time": iso(EPOCH + timedelta(hours=i)),
        "end_time": iso(EPOCH + timedelta(hours=i + 1)),
        "location": "field-site-a",
        "mean_latency_ms": 42.0 + i,
        "mean_accuracy": 0.9,
        "requests_served": 100 + i,
        "cpu_utilization": 0.5,
        "gpu_utilization": 0.25,
        "energy_joules": 12.5,
    }
    base.update(overrides)
    return base


def card_dict(author="jdoe", name="resnet", version="1.0", **overrides) -> dict:
    base = {
        "external_id": f"{author}-{name}-{version}",
        "name": name,
        "version": version,
        "author": author,
        "short_description": "camera trap classifier",
        "full_description": "A wildlife image classifier tuned for edge devices.",
        "keywords": ["wildlife", "classifier"],
        "input_type": "image",
        "output_type": "label",
        "ai_model": {
            "name": name,
            "version": version,
            "owner": author,
            "artifact_location": f"https://models.example.org/{author}/{name}-{version}.pt",
            "license": "apache-2.0",
            "framework": "pytorch",
            "model_type": "cnn",
            "test_accuracy": 0.91,
            "lifecycle_stage": "model_image",
        },
        "deployments": [],
        "documentation_format_version": "1.0",
    }
    base.update(overrides)
    return base


def random_card_dict(rng: random.Random, idx: int) -> dict:
    author = f"user{rng.randint(0, 999)}"
    name = f"{rng.choice(WORDS)}_{rng.choice(WORDS)}_{idx}"
    version = f"{rng.randint(0, 3)}.{rng.randint(0, 9)}"
    n_deps = rng.randint(0, 20)
    deployments = [
        deployment_dict(
            i,
            device=f"dev-{rng.randint(1, 5)}",
            mean_latency_ms=round(rng.uniform(1, 500), 3),
            mean_accuracy=round(rng.uniform(0.3, 1.0), 4),
        )
        for i in range(n_deps)
    ]
    card = card_dict(
        author=author,
        name=name,
        version=version,
        short_description=" ".join(rng.sample(WORDS, 4)),
        full_description=" ".join(rng.choices(WORDS, k=30)),
        keywords=rng.sample(WORDS, 3),
        deployments=deployments,
    )
    card["ai_model"]["test_accuracy"] = round(rng.uniform(0.2, 1.0), 4)
    if rng.random() < 0.5:
        card["bias_analysis"] = {
            "demographic_parity": round(rng.uniform(0, 1), 3),
            "equal_odds": round(rng.uniform(0, 1), 3),
            "notes": "synthetic",
        }
    if rng.random() < 0.5:
        card["xai_analysis"] = {
            "method": "shap",
            "top_features": [
                {"name": rng.choice(WORDS), "importance": round(rng.random(), 4)}
                for _ in range(rng.randint(0, 4))
            ],
            "notes": "",
        }
    if rng.random() < 0.3:
        card["ai_model"]["container_image_location"] = (
            f"https://images.example.org/{author}/{name}:{version}"
        )
    return card


def ingest_dict(registry: Registry, card: dict) -> str:
    return registry.ingest_model_card(parse_model_card(json.dumps(card)))


def create_node(store, label, properties):
    """One node committed in its own transaction."""
    return store.atomic_write(lambda tx: tx.create_node(label, properties))


def create_edge(store, src, dst, rel_type, properties=None):
    """One edge committed in its own transaction."""
    return store.atomic_write(lambda tx: tx.create_edge(src, dst, rel_type, properties))


def nodes_labelled(store, label) -> list:
    """Every node of ``label`` in ordinal order: a scan over ``iter_nodes``."""
    return [rec for rec in store.iter_nodes() if rec.label == label]


def record_replies(server) -> list[tuple[str, str, int, bytes]]:
    """From now on, record (method, path, status, body) for every reply the
    RestServer ``server`` sends, before the reply's first byte goes out: a
    client that has the reply finds it recorded."""
    replies = []
    handler = server._httpd.RequestHandlerClass  # one class per server
    reply = handler._reply

    def recording(self, status, body, *args, **kwargs):
        replies.append((self.command, self.path, status, body))
        reply(self, status, body, *args, **kwargs)

    handler._reply = recording
    return replies


# Content-Length values no server may trust (RFC 9112 section 6.3): the
# expected status, then the header lines sent (None sends no Content-Length)
HOSTILE_CONTENT_LENGTHS = [
    pytest.param(400, None, id="missing"),
    pytest.param(400, ["abc"], id="non-numeric"),
    pytest.param(400, ["-1"], id="negative"),
    pytest.param(400, ["5", "7"], id="conflicting"),
    pytest.param(413, [str(64 * 1024 * 1024 + 1)], id="over-64MiB"),
    pytest.param(413, ["99999999999"], id="huge"),
]


def raw_request(port: int, data: bytes) -> tuple[int, dict, bytes]:
    """Send ``data`` over a raw socket and read until the server closes the
    connection, so a server that keeps it open fails on the timeout. Returns
    the first reply's status, its header fields (names lowercased) and the
    bytes after its head."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        try:
            sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before reading everything
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head, "connection closed without a reply"
    status_line, *lines = head.decode("latin-1").split("\r\n")
    fields = {}
    for line in lines:
        name, _, value = line.partition(":")
        fields[name.lower()] = value.strip()
    return int(status_line.split(" ", 2)[1]), fields, body


def raw_post(port: int, path: str, content_lengths: list[str] | None) -> tuple[int, dict, dict]:
    """POST with the given Content-Length lines and a small body; returns
    (status, header fields, JSON body)."""
    head = f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    head += "".join(f"Content-Length: {value}\r\n" for value in content_lengths or ())
    status, fields, body = raw_request(port, head.encode("ascii") + b"\r\n" + b"{}")
    return status, fields, json.loads(body)


# JSON bodies whose decoding fails outside JSONDecodeError: an integer literal
# over the interpreter's 4,300-digit limit (ValueError) and nesting past the
# recursion limit (RecursionError)
UNDECODABLE_JSON = [
    pytest.param(b"1" * 5000, id="5000-digit-int"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="200k-deep"),
]


def raw_json_post(port: int, path: str, body: bytes) -> tuple[int, dict]:
    """POST ``body`` and read the reply until the server closes; a server
    that drops the connection unanswered fails here."""
    head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    status, _, payload = raw_request(port, head.encode("ascii") + body)
    return status, json.loads(payload)


@pytest.fixture
def registry() -> Registry:
    return Registry()


@pytest.fixture(autouse=True)
def no_server_tracebacks(monkeypatch):
    """Fail the test during which an exception reached a server's
    ``handle_error`` (the "Exception occurred during processing of request"
    traceback): the request it was serving got no reply."""
    caught = []
    handle_error = socketserver.BaseServer.handle_error

    def recording(self, request, client_address):
        caught.append(repr(sys.exc_info()[1]))
        handle_error(self, request, client_address)

    monkeypatch.setattr(socketserver.BaseServer, "handle_error", recording)
    yield
    assert not caught, f"a server thread raised while serving a request: {caught}"


# detail strings recorded by the acceptance tests, printed by the hook below
acceptance_details: dict = {}


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion, outside stdout capture
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        detail = acceptance_details.get(name)
        suffix = f" ({detail})" if detail and report.passed else ""
        print(f"\n[acceptance] {name}: {verdict}{suffix}", flush=True)
