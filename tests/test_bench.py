import json
import random
import socket
import threading

import pytest

from mcard_registry.bench.generator import ingest_corpus, make_spec
from mcard_registry.bench.runner import WorkPlan, run_bench
from mcard_registry.bench.samples import (
    CSV_COLUMNS,
    LatencySample,
    RunResult,
    build_report,
    compare_reports,
    describe,
    nearest_rank,
    ratio_with_ci,
    samples_to_csv,
)
from mcard_registry.mcpserver import McpConfig, McpServer
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer


def _sample(i, total=10.0, target="rest", op="retrieve", **kw):
    setup = kw.pop("setup", 1.0)
    handshake = kw.pop("handshake", 0.0)
    return LatencySample(
        target=target, operation=op, sample_idx=i,
        connection_setup_ms=setup, sse_handshake_ms=handshake,
        server_processing_ms=total - setup - handshake, total_ms=total, **kw)


# --- statistics ---

def test_nearest_rank_definition():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert nearest_rank(sorted(values), 95) == 95.0
    assert nearest_rank(sorted(values), 50) == 50.0
    assert nearest_rank([5.0], 95) == 5.0


def test_describe_constant_series():
    stats = describe([4.2] * 10)
    assert stats["mean"] == pytest.approx(4.2)
    assert stats["std"] == pytest.approx(0.0, abs=1e-12)
    assert stats["p50"] == stats["p95"] == stats["min"] == stats["max"] == 4.2


def test_describe_single_sample_std_zero():
    assert describe([7.0])["std"] == 0.0


def test_report_shape_and_error_count():
    result = RunResult(
        config={"target": "rest", "operation": "retrieve", "n": 3},
        samples=[_sample(i, total=10.0 + i) for i in range(3)],
        errors=[{"sample_idx": 9, "error": "boom"}],
    )
    report = build_report(result)
    assert report["n"] == 3
    assert report["error_count"] == 1
    assert set(report["components"]) == {
        "connection_setup_ms", "sse_handshake_ms", "server_processing_ms", "total_ms"}
    for stats in report["components"].values():
        assert set(stats) == {"mean", "std", "mean_ci95_half_width", "p50", "p95", "min", "max"}


def test_csv_columns_and_row_count():
    samples = [_sample(i) for i in range(1000)]
    text = samples_to_csv(samples)
    lines = text.strip().split("\n")
    assert len(lines) == 1001  # header + rows
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("target,operation,sample_idx,connection_setup_ms,sse_handshake_ms,"
                        "server_processing_ms,total_ms,db_time_ms,payload_bytes")
    assert lines[1].startswith("rest,retrieve,0,")


def test_csv_null_db_time_is_empty_cell():
    text = samples_to_csv([_sample(0, db_time_ms=None)])
    row = text.strip().split("\n")[1].split(",")
    assert row[CSV_COLUMNS.index("db_time_ms")] == ""


def test_compare_identical_reports_ratio_one():
    result = RunResult(config={"target": "rest"}, samples=[_sample(i) for i in range(50)])
    report = build_report(result)
    rows = compare_reports([("a", report), ("b", report)])
    assert len(rows) == 1
    assert rows[0]["pair"] == "b/a"
    assert rows[0]["ratio"] == pytest.approx(1.0)


def test_compare_doubled_totals_ratio_two():
    base = build_report(RunResult(config={}, samples=[_sample(i, total=10.0) for i in range(20)]))
    double = build_report(RunResult(config={}, samples=[_sample(i, total=20.0) for i in range(20)]))
    rows = compare_reports([("base", base), ("double", double)])
    assert rows[0]["ratio"] == pytest.approx(2.0)
    assert rows[0]["ci95_low"] == pytest.approx(2.0)  # zero variance


def test_ci_half_width_shrinks_like_inverse_sqrt_n():
    rng = random.Random(11)

    def noisy_report(n):
        values = [10.0 + rng.gauss(0, 1.0) for _ in range(n)]
        result = RunResult(config={}, samples=[_sample(i, total=v) for i, v in enumerate(values)])
        return build_report(result)

    small = ratio_with_ci(noisy_report(100), noisy_report(100))
    large = ratio_with_ci(noisy_report(6400), noisy_report(6400))
    width_small = small["ci95_high"] - small["ci95_low"]
    width_large = large["ci95_high"] - large["ci95_low"]
    # 64x the samples should shrink the width about 8x; allow generous slack
    assert width_large < width_small / 4


def test_three_report_pairs():
    report = build_report(RunResult(config={}, samples=[_sample(i) for i in range(5)]))
    rows = compare_reports([("rest", report), ("native", report), ("layered", report)])
    assert [r["pair"] for r in rows] == ["native/rest", "layered/rest", "layered/native"]


# --- work plan ---

def test_work_plan_unique_edge_pairs():
    manifest = {
        "experiment_element_ids": [f"n:{i}" for i in range(3)],
        "deployment_element_ids": [f"n:{100 + i}" for i in range(4)],
    }
    plan = WorkPlan("create_edge", manifest)
    pairs = [plan.args(i) for i in range(plan.max_edge_samples())]
    assert len(set(pairs)) == 12
    with pytest.raises(ValueError):
        plan.args(12)


def test_work_plan_needs_manifest_entries():
    with pytest.raises(ValueError):
        WorkPlan("retrieve", {})
    with pytest.raises(ValueError):
        WorkPlan("create_edge", {"experiment_element_ids": ["n:1"]})


# --- end-to-end over a live loopback stack ---

@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    registry = Registry()
    rest = RestServer(registry, RestConfig()).start()
    native = McpServer(McpConfig(backend="native"), registry).start()
    layered = McpServer(
        McpConfig(backend="layered", rest_base_url=rest.base_url)).start()
    corpus = tmp_path_factory.mktemp("corpus")
    manifest = ingest_corpus(make_spec("micro", seed=21, cards=4, experiments=30),
                             str(corpus), rest.base_url)
    yield {
        "rest": f"127.0.0.1:{rest.port}",
        "native_mcp": f"127.0.0.1:{native.port}",
        "layered_mcp": f"127.0.0.1:{layered.port}",
        "manifest": manifest,
    }
    layered.stop()
    native.stop()
    rest.stop()


def test_rest_retrieve_samples(stack):
    result = run_bench("rest", "retrieve", 3, stack["rest"], stack["manifest"])
    assert len(result.samples) == 3
    assert result.errors == []
    for s in result.samples:
        assert s.sse_handshake_ms == 0.0
        assert s.connection_setup_ms > 0
        assert s.db_time_ms is not None and s.db_time_ms > 0
        assert s.payload_bytes > 1000


def test_native_mcp_retrieve_samples(stack):
    result = run_bench("native_mcp", "retrieve", 3, stack["native_mcp"], stack["manifest"])
    assert len(result.samples) == 3
    for s in result.samples:
        assert s.sse_handshake_ms > 0  # handshake required on every fresh session
        assert s.db_time_ms is not None and s.db_time_ms > 0


def test_component_sums_equal_totals(stack):
    for target in ("rest", "native_mcp", "layered_mcp"):
        result = run_bench(target, "retrieve", 3, stack[target], stack["manifest"])
        for s in result.samples:
            parts = s.connection_setup_ms + s.sse_handshake_ms + s.server_processing_ms
            assert abs(parts - s.total_ms) < 1.0, (target, s)


def test_search_and_create_edge_ops(stack):
    search = run_bench("rest", "search", 3, stack["rest"], stack["manifest"])
    assert all(s.payload_bytes > 2 for s in search.samples)
    edges = run_bench("native_mcp", "create_edge", 3, stack["native_mcp"], stack["manifest"])
    assert len(edges.samples) == 3
    assert edges.errors == []


def test_reuse_session_mode(stack):
    result = run_bench("native_mcp", "retrieve", 3, stack["native_mcp"], stack["manifest"],
                       reuse_session=True)
    assert result.samples[0].sse_handshake_ms > 0
    for s in result.samples[1:]:
        assert s.connection_setup_ms == 0.0
        assert s.sse_handshake_ms == 0.0
        assert s.server_processing_ms > 0


@pytest.mark.parametrize("target", ["rest", "native_mcp"])
def test_reuse_session_reopens_after_a_failed_sample(stack, target):
    manifest = dict(stack["manifest"])
    manifest["mc_ids"] = ["ghost-card-0", stack["manifest"]["mc_ids"][0]]
    result = run_bench(target, "retrieve", 4, stack[target], manifest, reuse_session=True)
    assert [e["sample_idx"] for e in result.errors] == [0, 2]
    assert [s.sample_idx for s in result.samples] == [1, 3]
    for s in result.samples:  # a failed sample's session is closed, so each reopens
        assert s.connection_setup_ms > 0
        if target == "rest":
            assert s.sse_handshake_ms == 0.0
        else:
            assert s.sse_handshake_ms > 0


def test_unparsable_rest_reply_is_recorded():
    n = 3
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def answer_garbage():
            for _ in range(n):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"garbage\r\n\r\n")

        server = threading.Thread(target=answer_garbage, daemon=True)
        server.start()
        result = run_bench("rest", "retrieve", n, f"127.0.0.1:{listener.getsockname()[1]}",
                           {"mc_ids": ["any-card"]})
        server.join(timeout=10)
    assert not server.is_alive()
    assert result.samples == []
    assert [e["sample_idx"] for e in result.errors] == list(range(n))


def test_errors_recorded_and_excluded(stack):
    manifest = dict(stack["manifest"])
    manifest["mc_ids"] = ["ghost-card-0"]
    result = run_bench("rest", "retrieve", 2, stack["rest"], manifest)
    assert result.samples == []
    assert len(result.errors) == 2
    assert result.errors[0]["sample_idx"] == 0


def test_run_result_round_trips_through_json(stack):
    result = run_bench("rest", "retrieve", 2, stack["rest"], stack["manifest"])
    loaded = RunResult.from_jsonable(json.loads(json.dumps(result.to_jsonable())))
    assert loaded.samples == result.samples
    assert loaded.config == result.config
