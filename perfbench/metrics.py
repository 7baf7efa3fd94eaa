"""Metrics from a run: end-to-end figures from the untraced run, per-layer
figures from the traced one, and the printed report.

On a shared virtual machine the hypervisor at times runs other guests on
this one's CPU (the "steal" column of /proc/stat); a request that waits for
a stolen CPU can take several times as long. So end-to-end latencies are
medians over the steady ops only: those that completed in an interval
between two steal samples of the benchmark's CPU (``loadgen.Sampler``,
every 50 ms) in which no jiffy was stolen. Ops are chosen by the steal counter alone, never by their
latency. Where a metric has fewer than ``MIN_SAMPLES`` steady ops, the
intervals with the least steal are added, earliest first, until it has.
Throughput is the ops completed in those intervals over their total length. A tail percentile is printed only where at least ten
samples lie beyond it (p90 from 100 samples, p99 from 1,000), and is never
gated. Per-layer ``ms/op``
values are span totals divided by the number of timed ops of the whole
workload; ``ms/card`` values are set-up spans divided by the cards ingested.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field

from mcard_registry.bench.samples import nearest_rank

from workloads import FRONTENDS, OP_PAIRS, READ_KINDS, WRITE_KINDS


@dataclass
class Run:
    results: list            # (op, sample or None) per timed op, in the order taken
    wall_s: float
    ends: list               # completion seconds from the start, per timed op
    cpu_samples: list        # loadgen.Sampler samples over the timed phase
    setup_s: list
    rss_mib: float
    runner: object
    checker: object
    cpu_s: tuple = (0.0, 0.0)  # CPU seconds of the server and of this process, timed phase
    setup_spans: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    proxy_counts: dict = field(default_factory=dict)

    def samples(self, frontend=None, kinds=None):
        return [s for op, s in self.results if s is not None
                and (frontend is None or op.frontend == frontend)
                and (kinds is None or op.kind in kinds)]


def op_counts(run: Run) -> dict:
    counts = Counter(f"{op.frontend}.{op.kind}" for op, _ in run.results)
    return dict(sorted(counts.items()))


def _median(samples, attr="total_ms") -> float:
    return statistics.median(getattr(s, attr) for s in samples)


MIN_SAMPLES = 30


def stolen_share(run: Run) -> float:
    """Share of the benchmark CPU's time the hypervisor stole in the timed phase."""
    (_, stolen0, total0), (_, stolen1, total1) = run.cpu_samples[0], run.cpu_samples[-1]
    return (stolen1 - stolen0) / (total1 - total0) if total1 > total0 else 0.0


def _intervals(run: Run) -> tuple[list[int], list[float], list[int]]:
    """Stolen jiffies and length in seconds of each interval between two
    samples, and the interval each timed op completed in (one past the last
    if after it)."""
    s = run.cpu_samples
    stolen = [after[1] - before[1] for before, after in zip(s, s[1:])]
    lengths = [after[0] - before[0] for before, after in zip(s, s[1:])]
    ends = [sample[0] for sample in s[1:]]
    return stolen, lengths, [bisect.bisect_left(ends, end) for end in run.ends]


def _steady(stolen: list[int], members: list[list]) -> list[int]:
    """The intervals with no stolen jiffy, topped up from the least-stolen
    ones, earliest first, until they hold MIN_SAMPLES members."""
    chosen, held = [], 0
    for slot in sorted(range(len(stolen)), key=lambda i: (stolen[i], i)):
        if stolen[slot] and held >= MIN_SAMPLES:
            break
        chosen.append(slot)
        held += len(members[slot])
    return chosen


def steady_latencies(run: Run, frontend=None, kinds=None) -> list[float]:
    """Latencies of the matching ops in the steady intervals."""
    stolen, _, slots = _intervals(run)
    members: list[list[float]] = [[] for _ in stolen]
    for (op, sample), slot in zip(run.results, slots):
        if sample is not None and slot < len(stolen) \
                and (frontend is None or op.frontend == frontend) \
                and (kinds is None or op.kind in kinds):
            members[slot].append(sample.total_ms)
    chosen = [x for slot in _steady(stolen, members) for x in members[slot]]
    if not chosen:
        raise SystemExit(f"no {frontend or ''} {'/'.join(kinds or ())} op completed; "
                         "a longer --seconds is needed")
    return chosen


def steady_throughput(run: Run) -> float:
    """Ops/s completed over the steady intervals."""
    stolen, lengths, slots = _intervals(run)
    members: list[list] = [[] for _ in stolen]
    for (_, sample), slot in zip(run.results, slots):
        if sample is not None and slot < len(stolen):
            members[slot].append(sample)
    chosen = _steady(stolen, members)
    return sum(len(members[slot]) for slot in chosen) / sum(lengths[slot] for slot in chosen)


def steady_ops(run: Run) -> int:
    """Ops that completed in an interval with no stolen jiffy."""
    stolen, _, slots = _intervals(run)
    return sum(1 for (_, sample), slot in zip(run.results, slots)
               if sample is not None and slot < len(stolen) and not stolen[slot])


def end_to_end(run: Run) -> dict:
    values = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "server_rss_mb": (run.rss_mib, "MiB"),
        "throughput_ops_s": (steady_throughput(run), "ops/s"),
    }
    for frontend in FRONTENDS:
        values[f"{frontend}.p50_ms"] = (
            statistics.median(steady_latencies(run, frontend, READ_KINDS)), "ms")
    values["write.p50_ms"] = (statistics.median(steady_latencies(run, kinds=WRITE_KINDS)), "ms")
    return values


def _total(spans: dict, *names: str) -> float:
    return sum(spans.get(n, {}).get("total_ms", 0.0) for n in names)


def _calls(spans: dict, *names: str) -> int:
    return sum(spans.get(n, {}).get("calls", 0) for n in names)


NATIVE_OPS = tuple(f"mcpserver.NativeBackend.{m}" for m in ("read_card", "create_edge", "search"))
LAYERED_OPS = tuple(f"mcpserver.LayeredBackend.{m}" for m in ("read_card", "create_edge", "search"))


def per_layer(traced: Run, plain: Run, cards: int) -> dict:
    s, n = traced.spans, len(traced.results)
    per_frontend = Counter(op.frontend for op, _ in traced.results)
    values = {}
    for frontend in FRONTENDS:
        mine = traced.samples(frontend)
        values[f"bench.{frontend}.connect_ms"] = (
            statistics.fmean(x.connection_setup_ms for x in mine), "ms/op")
        if frontend != "rest":
            values[f"bench.{frontend}.sse_handshake_ms"] = (
                statistics.fmean(x.sse_handshake_ms for x in mine), "ms/op")
        values[f"bench.{frontend}.exchange_ms"] = (
            statistics.fmean(x.server_processing_ms for x in mine), "ms/op")
    for frontend, kind in OP_PAIRS:
        mine = traced.samples(frontend, (kind,))
        if not mine:
            raise SystemExit(f"no {frontend} {kind} op completed in the traced run; "
                             "a longer --seconds is needed")
        values[f"bench.{frontend}.{kind}.p50_ms"] = (_median(mine), "ms")
        values[f"bench.{frontend}.{kind}.response_bytes"] = (
            statistics.fmean(x.payload_bytes for x in mine), "bytes/op")

    def per_op(name, *spans):
        values[name] = (_total(s, *spans) / n, "ms/op")

    # CPU the untraced server process used per op, every thread and layer
    values["server.cpu_ms_per_op"] = (1e3 * plain.cpu_s[0] / len(plain.results), "ms/op")
    values["rest.request_self_ms"] = (s.get("rest.request", {}).get("self_ms", 0.0) / n, "ms/op")
    per_op("mcpserver.handle_post_body_ms", "mcpserver.McpServer.handle_post_body")
    per_op("mcpserver.native_backend_ms", *NATIVE_OPS)
    per_op("mcpserver.layered_backend_ms", *LAYERED_OPS)
    per_op("mcpserver.envelope_encode_ms", "mcpserver.envelope_encode")
    per_op("mcpserver.event_queue_wait_ms", "mcpserver.event_queue_wait")
    per_op("mcpserver.sse_write_ms", "mcpserver.sse_write")
    mcp_ops = per_frontend["native_mcp"] + per_frontend["layered_mcp"]
    values["mcpserver.sessions_opened_per_op"] = (
        _calls(s, "mcpserver.McpServer.open_session") / mcp_ops, "1/op")
    values["mcpserver.layered_rest_hops_per_op"] = (
        _calls(s, *LAYERED_OPS) / per_frontend["layered_mcp"], "1/op")
    for method in ("retrieve_model_card", "search_model_cards", "create_edge",
                   "record_deployment"):
        per_op(f"registry.{method}_ms", f"registry.Registry.{method}")
    for query in ("model_card", "model", "bias_analysis", "xai_analysis", "deployments"):
        per_op(f"registry.query.{query}_ms", f"registry.query.{query}")
    per_op("graphstore.find_nodes_ms", "graphstore.GraphStore.find_nodes")
    values["graphstore.find_nodes_calls_per_op"] = (
        _calls(s, "graphstore.GraphStore.find_nodes") / n, "1/op")
    per_op("graphstore.neighbors_ms", "graphstore.GraphStore.neighbors")
    values["graphstore.records_copied_per_op"] = (_calls(s, "graphstore.copy_record") / n, "1/op")
    per_op("graphstore.read_lock_wait_ms", "graphstore.read_lock_wait")
    per_op("graphstore.write_lock_wait_ms", "graphstore.write_lock_wait")
    per_op("graphstore.write_hold_ms", "graphstore.write_hold")
    per_op("fulltext.query_ms", "fulltext.FullTextIndex.query")
    per_op("cards.parse_deployment_ms", "cards.parse_deployment")
    per_op("wire.project_node_ms", "wire.project_node")
    values["wire.project_node_calls_per_op"] = (_calls(s, "wire.project_node") / n, "1/op")
    per_op("wire.dumps_ms", "wire.dumps")
    values["wire.bytes_encoded_per_op"] = (
        s.get("wire.dumps.chars", {}).get("size", 0) / n, "bytes/op")

    setup = traced.setup_spans
    for name, span in (("registry.ingest_model_card_ms", "registry.Registry.ingest_model_card"),
                       ("cards.parse_model_card_ms", "cards.parse_model_card"),
                       ("fulltext.add_document_ms", "fulltext.FullTextIndex.add_document")):
        values[name] = (_total(setup, span) / cards, "ms/card")
    # label scans of the whole set-up: ingest duplicate checks, device and
    # experiment lookups
    values["setup.graphstore.find_nodes_ms"] = (
        _total(setup, "graphstore.GraphStore.find_nodes"), "ms")

    for frontend, counts in traced.proxy_counts.items():
        values[f"wanproxy.{frontend}.round_trips_per_op"] = (
            counts["round_trips"] / counts["ops"], "1/op")
        values[f"wanproxy.{frontend}.connections_per_op"] = (
            counts["connections"] / counts["ops"], "1/op")

    for frontend in FRONTENDS:
        base = _median(plain.samples(frontend, READ_KINDS))
        values[f"trace.{frontend}.p50_overhead_pct"] = (
            100.0 * (_median(traced.samples(frontend, READ_KINDS)) / base - 1.0), "%")
    return values


def _tail(samples) -> str:
    ordered = sorted(x.total_ms for x in samples)
    parts = [f"n={len(ordered)}"]
    for pct, needed in ((90, 100), (99, 1000)):
        if len(ordered) >= needed:
            parts.append(f"p{pct}={nearest_rank(ordered, pct):.3f}ms")
    return " ".join(parts)


def print_report(context: dict, runs: list, values: dict, attempted: int,
                 failures: list) -> None:
    """Human-readable report; diagnostics here are printed, never gated."""
    print(f"# context {json.dumps(context, sort_keys=True)}")
    run = runs[0]
    print(f"# error_ratio {len(failures) / attempted:.6f} "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures[:10]:
        print(f"# failure: {failure}")
    print(f"# equality checks: {run.checker.compared} MCP retrieves equal to REST, "
          f"{run.checker.uncomparable} not comparable (an append overlapped)")
    for frontend in FRONTENDS:
        mine = run.samples(frontend, READ_KINDS)
        print(f"# {frontend} reads: pooled p50={_median(mine):.3f}ms {_tail(mine)}")
    writes = run.samples(kinds=WRITE_KINDS)
    print(f"# write: pooled p50={_median(writes):.3f}ms {_tail(writes)}")
    done = len(run.samples())
    steady = steady_ops(run)
    print(f"# throughput over the whole {run.wall_s:.1f} s timed phase: "
          f"{done / run.wall_s:.2f} ops/s")
    print(f"# stolen CPU: {100 * stolen_share(run):.1f}% of the timed phase; {steady} of "
          f"{done} ops completed in an interval with none; steady samples used: "
          + " ".join(f"{f}={len(steady_latencies(run, f, READ_KINDS))}" for f in FRONTENDS)
          + f" write={len(steady_latencies(run, kinds=WRITE_KINDS))}")
    print(f"# cpu per op: server {1e3 * run.cpu_s[0] / done:.4f} ms, "
          f"client {1e3 * run.cpu_s[1] / done:.4f} ms")
    for frontend, kind in OP_PAIRS:
        mine = run.samples(frontend, (kind,))
        if mine:
            print(f"# {frontend}.{kind}: p50={_median(mine):.3f}ms {_tail(mine)} "
                  f"bytes={statistics.fmean(x.payload_bytes for x in mine):.0f}")
    p50 = {f: _median(run.samples(f, READ_KINDS)) for f in FRONTENDS}
    print(f"# ratios (ungated): native/rest={p50['native_mcp'] / p50['rest']:.3f} "
          f"layered/native={p50['layered_mcp'] / p50['native_mcp']:.3f}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
