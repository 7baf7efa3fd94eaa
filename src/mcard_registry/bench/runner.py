"""Per-request latency measurement across the three server variants.

One request is in flight at a time. Components are timed as contiguous
monotonic-clock intervals, so their sum equals the measured total to float
precision: connection setup is the TCP connect; the SSE handshake (MCP only)
spans the GET /sse request through the initialize response; server
processing spans the operation request through its fully received response.
By default every sample opens fresh connections so connection costs show up
in each one; --reuse-session keeps one session and charges setup and
handshake to the first sample only.
"""

from __future__ import annotations

import json
import time

from .clients import ClientError, McpClient, RestClient, rest_retrieve_path, rest_search_path
from .samples import LatencySample, RunResult

_MS = 1e-6  # perf_counter_ns to milliseconds


class WorkPlan:
    """Deterministic per-sample operation arguments drawn from a manifest."""

    def __init__(self, operation: str, manifest: dict, index_offset: int = 0):
        self.operation = operation
        self.index_offset = index_offset
        self.mc_ids = manifest.get("mc_ids", [])
        self.search_terms = manifest.get("search_terms", [])
        self.experiments = manifest.get("experiment_element_ids", [])
        self.deployments = manifest.get("deployment_element_ids", [])
        if operation == "retrieve" and not self.mc_ids:
            raise ValueError("retrieve benchmark needs mc_ids in the manifest")
        if operation == "search" and not self.search_terms:
            raise ValueError("search benchmark needs search_terms in the manifest")
        if operation == "create_edge" and (not self.experiments or not self.deployments):
            raise ValueError("create_edge benchmark needs experiment and deployment ids")

    def max_edge_samples(self) -> int:
        return len(self.experiments) * len(self.deployments)

    def args(self, i: int):
        i += self.index_offset
        if self.operation == "retrieve":
            return self.mc_ids[i % len(self.mc_ids)]
        if self.operation == "search":
            return self.search_terms[i % len(self.search_terms)]
        # unique (experiment, deployment) pair per sample index
        if i >= self.max_edge_samples():
            raise ValueError("ran out of unique edge pairs for this corpus")
        return (self.experiments[i % len(self.experiments)],
                self.deployments[i // len(self.experiments)])


def _db_time_from_payload(payload: bytes) -> float | None:
    try:
        timings = json.loads(payload).get("_timings")
        return sum(t["ms"] for t in timings) if timings else None
    except (ValueError, TypeError, KeyError):
        return None


def _rest_sample(endpoint, via, plan, i, conn: RestClient | None):
    fresh = conn is None
    t0 = time.perf_counter_ns()
    if fresh:
        client = RestClient(endpoint, via)
        client.connect()
        t1 = time.perf_counter_ns()
    else:
        client = conn
        t1 = t0
    if plan.operation == "retrieve":
        status, headers, body = client.request("GET", rest_retrieve_path(plan.args(i)))
        db_time = float(headers["X-DB-Time-Ms"]) if "X-DB-Time-Ms" in headers else None
    elif plan.operation == "search":
        status, headers, body = client.request("GET", rest_search_path(plan.args(i)))
        db_time = None
    else:
        src, dst = plan.args(i)
        payload = json.dumps({"source_id": src, "target_id": dst}).encode()
        status, headers, body = client.request("POST", "/edge", payload)
        db_time = None
    t2 = time.perf_counter_ns()
    if fresh:
        client.close()
    if status >= 400:
        raise ClientError(f"status {status}: {body[:200]!r}")
    return LatencySample(
        target="rest", operation=plan.operation, sample_idx=i,
        connection_setup_ms=(t1 - t0) * _MS, sse_handshake_ms=0.0,
        server_processing_ms=(t2 - t1) * _MS, total_ms=(t2 - t0) * _MS,
        db_time_ms=db_time, payload_bytes=len(body),
    )


def _mcp_request_args(plan, i):
    if plan.operation == "retrieve":
        return "resources/read", {"uri": f"modelcard://{plan.args(i)}"}
    if plan.operation == "search":
        return "tools/call", {"name": "search_model_cards",
                              "arguments": {"query": plan.args(i), "limit": 10}}
    src, dst = plan.args(i)
    return "tools/call", {"name": "create_edge",
                          "arguments": {"source_id": src, "target_id": dst}}


def _mcp_extract(plan, message) -> tuple[str, float | None]:
    """Pull the payload text out of a parsed response; raise on failures."""
    if "error" in message:
        raise ClientError(f"{plan.operation} failed: {message['error']}")
    result = message["result"]
    if plan.operation == "retrieve":
        text = result["contents"][0]["text"]
        return text, _db_time_from_payload(text.encode("utf-8"))
    if result.get("isError"):
        raise ClientError(f"{plan.operation} failed: {result['content'][0]['text'][:200]}")
    return result["content"][0]["text"], None


def _mcp_sample(target, endpoint, via, plan, i, session: McpClient | None):
    fresh = session is None
    if fresh:
        client = McpClient(endpoint, via)
        t0 = time.perf_counter_ns()
        client.connect()
        t1 = time.perf_counter_ns()
        client.handshake()
        t2 = time.perf_counter_ns()
    else:
        client = session
        t0 = t1 = t2 = time.perf_counter_ns()
    try:
        method, params = _mcp_request_args(plan, i)
        msg_id = client.send_request(method, params)
        name, data = client.next_raw_event()
        t3 = time.perf_counter_ns()  # full response received; parse comes after
        if name != "message":
            raise ClientError(f"unexpected event {name!r}")
        message = json.loads(data)
        if message.get("id") != msg_id:
            raise ClientError(f"response id {message.get('id')!r} != request id {msg_id!r}")
        text, db_time = _mcp_extract(plan, message)
    finally:
        if fresh:
            client.close()
    return LatencySample(
        target=target, operation=plan.operation, sample_idx=i,
        connection_setup_ms=(t1 - t0) * _MS, sse_handshake_ms=(t2 - t1) * _MS,
        server_processing_ms=(t3 - t2) * _MS, total_ms=(t3 - t0) * _MS,
        db_time_ms=db_time, payload_bytes=len(text.encode("utf-8")),
    )


def run_bench(target: str, operation: str, n: int, endpoint: str, manifest: dict,
              via_proxy: str | None = None, reuse_session: bool = False,
              sample_offset: int = 0, warmup: int = 0) -> RunResult:
    """n sequential samples against one server variant.

    sample_offset shifts the work-plan index so separate create_edge runs
    against one store draw disjoint (experiment, deployment) pairs. warmup
    runs that many unrecorded requests first, absorbing first-touch
    allocation costs on large payloads.
    """
    if target not in ("rest", "native_mcp", "layered_mcp"):
        raise ValueError(f"unknown target {target!r}")
    plan = WorkPlan(operation, manifest, index_offset=sample_offset)
    if warmup and plan.operation != "create_edge":
        for w in range(warmup):
            try:
                if target == "rest":
                    _rest_sample(endpoint, via_proxy, plan, w, None)
                else:
                    _mcp_sample(target, endpoint, via_proxy, plan, w, None)
            except (ClientError, OSError):
                pass
    samples: list[LatencySample] = []
    errors: list[dict] = []
    rest_conn: RestClient | None = None
    mcp_session: McpClient | None = None
    try:
        if reuse_session:
            if target == "rest":
                rest_conn = RestClient(endpoint, via_proxy)
                t0 = time.perf_counter_ns()
                rest_conn.connect()
                first_setup = (time.perf_counter_ns() - t0) * _MS
            else:
                mcp_session = McpClient(endpoint, via_proxy)
                t0 = time.perf_counter_ns()
                mcp_session.connect()
                t1 = time.perf_counter_ns()
                mcp_session.handshake()
                first_setup = (t1 - t0) * _MS
                first_handshake = (time.perf_counter_ns() - t1) * _MS
        for i in range(n):
            try:
                if target == "rest":
                    sample = _rest_sample(endpoint, via_proxy, plan, i, rest_conn)
                else:
                    sample = _mcp_sample(target, endpoint, via_proxy, plan, i, mcp_session)
            except (ClientError, OSError) as exc:
                errors.append({"sample_idx": i, "error": str(exc)})
                continue
            if reuse_session and i == 0:
                sample.connection_setup_ms = first_setup
                if target != "rest":
                    sample.sse_handshake_ms = first_handshake
                sample.total_ms = (sample.connection_setup_ms + sample.sse_handshake_ms
                                   + sample.server_processing_ms)
            samples.append(sample)
    finally:
        if rest_conn is not None:
            rest_conn.close()
        if mcp_session is not None:
            mcp_session.close()
    config = {
        "target": target,
        "operation": operation,
        "n": n,
        "endpoint": endpoint,
        "via_proxy": via_proxy,
        "reuse_session": reuse_session,
        "preset": manifest.get("preset"),
        "seed": manifest.get("seed"),
        "card_size_class": _size_class(manifest),
    }
    return RunResult(config=config, samples=samples, errors=errors)


def _size_class(manifest: dict) -> str:
    sizes = manifest.get("card_sizes") or [0]
    return "large" if max(sizes) >= 1_000_000 else "micro"
