"""Per-request latency measurement across the three server variants.

One request is in flight at a time, and every sample, warm-up included,
takes one path. Components are contiguous monotonic-clock intervals, so
their sum equals the measured total to float precision: connection setup is
the TCP connect; the SSE handshake (MCP only) spans the GET /sse request
through the initialize response; server processing spans the operation
request through its fully received reply, which is checked after the clock
stops.

A sample opens a client only when it holds none. By default each sample
opens and closes its own, so connection costs show up in each one;
--reuse-session keeps it open, so the sample that opened it carries its
setup and handshake, and the others read exactly 0.0 for both. A failed
sample closes its client, which is never reused: the next sample opens a
new one and carries that setup.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import quote

from .clients import ClientError, McpClient, RestClient, rest_retrieve_path, rest_search_path
from .samples import LatencySample, RunResult

_MS = 1e-6  # perf_counter_ns to milliseconds
# last key of every retrieve body; an unescaped '"' cannot sit inside a JSON string
_TIMINGS_KEY = ',"_timings":'
# a failed reply: recorded in the run's errors, and its client is closed
_FAILURES = (ClientError, OSError, http.client.HTTPException, ValueError)


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


def _rest_send(client: RestClient, plan: WorkPlan, i: int):
    if plan.operation == "retrieve":
        return client.request("GET", rest_retrieve_path(plan.args(i)))
    if plan.operation == "search":
        return client.request("GET", rest_search_path(plan.args(i)))
    src, dst = plan.args(i)
    body = json.dumps({"source_id": src, "target_id": dst}).encode()
    return client.request("POST", "/edge", body)


def _rest_read(plan: WorkPlan, reply) -> tuple[int, float | None]:
    status, headers, body = reply
    if status >= 400:
        raise ClientError(f"status {status}: {body[:200]!r}")
    db_time = float(headers["X-DB-Time-Ms"]) if "X-DB-Time-Ms" in headers else None
    return len(body), db_time


def _mcp_send(client: McpClient, plan: WorkPlan, i: int):
    if plan.operation == "retrieve":
        method, params = "resources/read", {"uri": f"modelcard://{quote(plan.args(i), safe='')}"}
    elif plan.operation == "search":
        method, params = "tools/call", {"name": "search_model_cards",
                                        "arguments": {"query": plan.args(i), "limit": 10}}
    else:
        src, dst = plan.args(i)
        method, params = "tools/call", {"name": "create_edge",
                                        "arguments": {"source_id": src, "target_id": dst}}
    return client.send_request(method, params), client.next_raw_event()


def _mcp_read(plan: WorkPlan, reply) -> tuple[int, float | None]:
    msg_id, (name, data) = reply
    if name != "message":
        raise ClientError(f"unexpected event {name!r}")
    message = json.loads(data)
    if message.get("id") != msg_id:
        raise ClientError(f"response id {message.get('id')!r} != request id {msg_id!r}")
    if "error" in message:
        raise ClientError(f"{plan.operation} failed: {message['error']}")
    result = message["result"]
    if plan.operation == "retrieve":
        text = result["contents"][0]["text"]
        return len(text.encode("utf-8")), _db_time(text)
    if result.get("isError"):
        raise ClientError(f"{plan.operation} failed: {result['content'][0]['text'][:200]}")
    return len(result["content"][0]["text"].encode("utf-8")), None


def _db_time(text: str) -> float | None:
    """Sum of a retrieve body's ``_timings``, decoded from the tail alone."""
    cut = text.rfind(_TIMINGS_KEY)
    if cut < 0:
        return None
    try:
        timings, _ = json.JSONDecoder().raw_decode(text, cut + len(_TIMINGS_KEY))
        return sum(t["ms"] for t in timings) if timings else None
    except (ValueError, TypeError, KeyError):
        return None


# target -> (client class, send one operation, check and measure its reply)
_PROTOCOLS = {
    "rest": (RestClient, _rest_send, _rest_read),
    "native_mcp": (McpClient, _mcp_send, _mcp_read),
    "layered_mcp": (McpClient, _mcp_send, _mcp_read),
}


def _sample(target: str, client, opening: bool, plan: WorkPlan, i: int) -> LatencySample:
    _, send, read = _PROTOCOLS[target]
    t0 = t1 = t2 = time.perf_counter_ns()
    if opening:
        client.connect()
        t1 = t2 = time.perf_counter_ns()
        if isinstance(client, McpClient):
            client.handshake()
            t2 = time.perf_counter_ns()
    reply = send(client, plan, i)
    t3 = time.perf_counter_ns()  # full reply received; checks come after
    payload_bytes, db_time = read(plan, reply)
    return LatencySample(
        target=target, operation=plan.operation, sample_idx=i,
        connection_setup_ms=(t1 - t0) * _MS, sse_handshake_ms=(t2 - t1) * _MS,
        server_processing_ms=(t3 - t2) * _MS, total_ms=(t3 - t0) * _MS,
        db_time_ms=db_time, payload_bytes=payload_bytes,
    )


def run_bench(target: str, operation: str, n: int, endpoint: str, manifest: dict,
              via_proxy: str | None = None, reuse_session: bool = False,
              sample_offset: int = 0, warmup: int = 0) -> RunResult:
    """n sequential samples against one server variant.

    sample_offset shifts the work-plan index so separate create_edge runs
    against one store draw disjoint (experiment, deployment) pairs. warmup
    runs that many unrecorded requests first, on fresh connections,
    absorbing first-touch allocation costs on large payloads.
    """
    if target not in _PROTOCOLS:
        raise ValueError(f"unknown target {target!r}")
    client_cls = _PROTOCOLS[target][0]
    plan = WorkPlan(operation, manifest, index_offset=sample_offset)

    def _run(indices, reuse: bool) -> tuple[list[LatencySample], list[dict]]:
        samples, errors, client = [], [], None
        try:
            for i in indices:
                opening, keep = client is None, reuse
                try:
                    if opening:
                        client = client_cls(endpoint, via_proxy)
                    samples.append(_sample(target, client, opening, plan, i))
                except _FAILURES as exc:
                    errors.append({"sample_idx": i, "error": str(exc)})
                    keep = False
                if not keep and client is not None:
                    client.close()
                    client = None
        finally:
            if client is not None:
                client.close()
        return samples, errors

    if plan.operation != "create_edge":  # a warm-up edge would use up a pair
        _run(range(warmup), reuse=False)
    samples, errors = _run(range(n), reuse_session)
    config = {
        "target": target,
        "operation": operation,
        "n": n,
        "endpoint": endpoint,
        "via_proxy": via_proxy,
        "reuse_session": reuse_session,
        "preset": manifest.get("preset"),
        "seed": manifest.get("seed"),
        "card_size_class": ("large" if max(manifest.get("card_sizes") or [0]) >= 1_000_000
                            else "micro"),
    }
    return RunResult(config=config, samples=samples, errors=errors)
