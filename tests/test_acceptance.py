"""Acceptance suite: one test per shipping criterion, each printing a PASS
line with its measured numbers when it holds.

The slow protocol tests (1,000-sample loopback ordering, 100-sample
large-payload WAN runs) dominate the runtime; the whole module finishes in
roughly ten minutes on a workstation.
"""

import json
import random

import inspect

import pytest
import requests
import requests.utils

from mcard_registry.bench.clients import McpClient
from mcard_registry.bench.generator import generate_documents, ingest_corpus, make_spec, write_corpus
from mcard_registry.bench.runner import run_bench
from mcard_registry.cards import SCHEMA_ADJACENCY
from mcard_registry.errors import (
    DuplicateCardError,
    DuplicateEdgeError,
    NodeNotFoundError,
    SchemaViolationError,
)
from mcard_registry.mcpserver import McpConfig, McpServer
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer
from mcard_registry.wanproxy import WanProfile, WanProxy

import conftest
from conftest import (
    card_dict,
    deployment_dict,
    ingest_dict,
    nodes_labelled,
    random_card_dict,
    record_replies,
)
from test_registry import aggregated_as_plain, traversal_oracle


def _announce(name: str, detail: str) -> None:
    """Record the measured numbers; the conftest hook prints the PASS line."""
    test_name = inspect.stack()[1].function
    conftest.acceptance_details[test_name] = f"{name}: {detail}"


class Stack:
    def __init__(self, registry, rest, native, layered, manifest):
        self.registry = registry
        self.rest = rest
        self.native = native
        self.layered = layered
        self.manifest = manifest

    def endpoint(self, target: str) -> str:
        server = {"rest": self.rest, "native_mcp": self.native,
                  "layered_mcp": self.layered}[target]
        return f"127.0.0.1:{server.port}"

    def stop(self):
        self.layered.stop()
        self.native.stop()
        self.rest.stop()


def _build_stack(preset: str, seed: int, corpus_dir) -> Stack:
    registry = Registry()
    rest = RestServer(registry, RestConfig()).start()
    native = McpServer(McpConfig(backend="native"), registry).start()
    layered = McpServer(
        McpConfig(backend="layered", rest_base_url=rest.base_url)).start()
    manifest = ingest_corpus(make_spec(preset, seed), str(corpus_dir), rest.base_url)
    return Stack(registry, rest, native, layered, manifest)


@pytest.fixture(scope="module")
def micro_stack(tmp_path_factory):
    stack = _build_stack("micro", 42, tmp_path_factory.mktemp("micro_corpus"))
    yield stack
    stack.stop()


@pytest.fixture(scope="module")
def realworld_stack(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("realworld_corpus")
    stack = _build_stack("realworld", 42, corpus)
    proxies = {
        target: WanProxy(("127.0.0.1", 0),
                         ("127.0.0.1", int(stack.endpoint(target).split(":")[1])),
                         WanProfile(one_way_delay_ms=30.0)).start()
        for target in ("rest", "native_mcp", "layered_mcp")
    }
    yield stack, proxies, corpus
    for proxy in proxies.values():
        proxy.stop()
    stack.stop()


# 1. Retrieval-plan reproduction: five named query timings, each positive,
#    and the header time equals their sum within 0.01 ms.

def test_01_retrieval_plan_reproduction(micro_stack):
    base = micro_stack.rest.base_url
    for mc_id in micro_stack.manifest["mc_ids"]:
        resp = requests.get(f"{base}/modelcard/{mc_id}")
        assert resp.status_code == 200
        timings = resp.json()["_timings"]
        assert [t["query"] for t in timings] == [
            "model_card", "model", "bias_analysis", "xai_analysis", "deployments"]
        assert all(t["ms"] > 0 for t in timings)
        header = float(resp.headers["X-DB-Time-Ms"])
        assert abs(header - sum(t["ms"] for t in timings)) <= 0.01
    _announce("1 retrieval-plan reproduction",
              f"{len(micro_stack.manifest['mc_ids'])} cards, 5 named timings each, "
              "header == sum within 0.01 ms")


# 2. Oracle equivalence: 50 seeded random cards, aggregation equals the
#    whole-graph traversal reconstruction for every one.

def test_02_oracle_equivalence():
    rng = random.Random(20240601)
    registry = Registry()
    mc_ids = []
    while len(mc_ids) < 50:
        card = random_card_dict(rng, len(mc_ids))
        try:
            mc_ids.append(ingest_dict(registry, card))
        except DuplicateCardError:
            continue
    for mc_id in mc_ids:
        agg = aggregated_as_plain(registry.retrieve_model_card(mc_id))
        assert agg == traversal_oracle(registry.store, mc_id), mc_id
    _announce("2 oracle equivalence", "50 random cards, aggregation == full-scan oracle")


# 3. Edge-pipeline property suite: 1,000 randomized attempts.

def test_03_edge_pipeline_properties():
    rng = random.Random(777)
    registry = Registry()
    for idx in range(3):
        ingest_dict(registry, random_card_dict(rng, idx))
    for i in range(6):
        registry.record_experiment(f"exp-{i}")
    label_by_id = {str(n.id): n.label for n in registry.store.iter_nodes()}
    candidates = list(label_by_id) + ["n:40404", "e:1", "not-an-id"]
    successes = failures = 0
    for _ in range(1000):
        src, dst = rng.choice(candidates), rng.choice(candidates)
        before = registry.store.snapshot_bytes()
        try:
            created = registry.create_edge(src, dst)
        except (NodeNotFoundError, SchemaViolationError, DuplicateEdgeError):
            failures += 1
            assert registry.store.snapshot_bytes() == before
            continue
        successes += 1
        assert created.rel_type == SCHEMA_ADJACENCY[(label_by_id[src], label_by_id[dst])]
        with pytest.raises(DuplicateEdgeError):
            registry.create_edge(src, dst)
    assert successes > 0 and failures > 0
    _announce("3 edge-pipeline properties",
              f"1000 attempts: {successes} commits (schema-checked, repeat=DUPLICATE_EDGE), "
              f"{failures} failures each leaving a byte-identical snapshot")


# 4. Protocol ordering on loopback with micro cards, n = 1000, fresh
#    connections: rest < native < layered; native/rest >= 1.3,
#    layered/native >= 1.05.

def test_04_protocol_ordering_microbenchmark(micro_stack):
    n = 1000
    targets = ("rest", "native_mcp", "layered_mcp")
    # interleaved rounds, rotating which frontend goes first, so a slow
    # stretch of the machine lands on every frontend alike
    rounds, per_round = 10, n // 10
    samples = {target: [] for target in targets}
    for r in range(rounds):
        for target in targets[r % 3:] + targets[:r % 3]:
            result = run_bench(target, "retrieve", per_round, micro_stack.endpoint(target),
                               micro_stack.manifest, sample_offset=r * per_round)
            assert len(result.samples) == per_round, result.errors[:3]
            samples[target].extend(result.samples)
    means = {}
    for target in targets:
        assert len(samples[target]) == n
        means[target] = sum(s.total_ms for s in samples[target]) / n
        if target == "rest":
            assert all(s.sse_handshake_ms == 0 for s in samples[target])
        else:
            assert all(s.sse_handshake_ms > 0 for s in samples[target])
    assert means["rest"] < means["native_mcp"] < means["layered_mcp"]
    native_ratio = means["native_mcp"] / means["rest"]
    layered_ratio = means["layered_mcp"] / means["native_mcp"]
    assert native_ratio >= 1.3
    assert layered_ratio >= 1.05
    _announce("4 protocol ordering (micro, n=1000)",
              f"rest {means['rest']:.2f} < native {means['native_mcp']:.2f} "
              f"< layered {means['layered_mcp']:.2f} ms; "
              f"native/rest {native_ratio:.2f} >= 1.3, layered/native {layered_ratio:.2f} >= 1.05")


# 5. Large-payload convergence: realworld card through 30 ms one-way delay,
#    n = 100 per variant, max/min of the mean totals <= 2.0.

def test_05_large_payload_convergence(realworld_stack):
    stack, proxies, _corpus = realworld_stack
    sizes = stack.manifest["card_sizes"]
    assert len(sizes) == 1
    assert 12_950_000 <= sizes[0] <= 14_310_000  # 13.63 MB +/- 5%
    n = 100
    targets = ("rest", "native_mcp", "layered_mcp")
    # interleaved rounds, rotating which frontend goes first, as in test 04:
    # a slow stretch of the machine lands on every frontend alike
    rounds, per_round = 10, n // 10
    totals = {target: [] for target in targets}
    for r in range(rounds):
        for target in targets[r % 3:] + targets[:r % 3]:
            result = run_bench(target, "retrieve", per_round, stack.endpoint(target),
                               stack.manifest, via_proxy=f"127.0.0.1:{proxies[target].port}",
                               warmup=1 if r == 0 else 0)
            assert len(result.samples) == per_round, result.errors[:3]
            totals[target].extend(s.total_ms for s in result.samples)
    means = {}
    for target in targets:
        assert len(totals[target]) == n
        means[target] = sum(totals[target]) / n
    spread = max(means.values()) / min(means.values())
    assert spread <= 2.0
    _announce("5 large-payload convergence (13.63MB, 30ms, n=100)",
              f"means rest {means['rest']:.0f} / native {means['native_mcp']:.0f} / "
              f"layered {means['layered_mcp']:.0f} ms; max/min {spread:.2f} <= 2.0")


# 6. Small-payload WAN penalty mechanism: create_edge through the 30 ms
#    proxy; native MCP needs at least two more application round trips than
#    REST and at least twice the mean total.

def test_06_wan_round_trip_penalty(realworld_stack):
    stack, proxies, _corpus = realworld_stack
    n = 100
    stats = {}
    for offset, target in ((0, "rest"), (20_000, "native_mcp")):
        before = proxies[target].stats()["round_trips"]
        result = run_bench(target, "create_edge", n, stack.endpoint(target),
                           stack.manifest, via_proxy=f"127.0.0.1:{proxies[target].port}",
                           sample_offset=offset)
        assert len(result.samples) == n, result.errors[:3]
        after = proxies[target].stats()["round_trips"]
        stats[target] = {
            "mean": sum(s.total_ms for s in result.samples) / n,
            "round_trips": (after - before) / n,
        }
    assert stats["native_mcp"]["round_trips"] >= stats["rest"]["round_trips"] + 2
    ratio = stats["native_mcp"]["mean"] / stats["rest"]["mean"]
    assert ratio >= 2.0
    _announce("6 WAN round-trip penalty (create_edge, 30ms)",
              f"RT/sample rest {stats['rest']['round_trips']:.2f}, "
              f"native {stats['native_mcp']['round_trips']:.2f} (>= rest+2); "
              f"mean ratio {ratio:.2f} >= 2.0")


# 7. Cross-frontend equivalence over identical stores: layered payloads are
#    byte-identical to the REST bodies they proxied; native payloads are
#    deep-JSON-equal to REST bodies once _timings is dropped.

def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: v for k, v in obj.items() if k != "_timings"}
    return obj


def test_07_cross_frontend_equivalence():
    rng = random.Random(31)
    cards = []
    while len(cards) < 20:
        card = random_card_dict(rng, len(cards))
        if card["external_id"] in {c["external_id"] for c in cards}:
            continue
        if not card.get("deployments"):
            card["deployments"] = [deployment_dict(900 + len(cards))]
        cards.append(card)

    registries = [Registry() for _ in range(3)]
    for registry in registries:
        for card in cards:
            ingest_dict(registry, card)
        for i in range(30):
            registry.record_experiment(f"exp-{i}")
    rest_a = RestServer(registries[0], RestConfig()).start()
    native = McpServer(McpConfig(backend="native"), registries[1]).start()
    rest_c = RestServer(registries[2], RestConfig()).start()
    rest_c_replies = record_replies(rest_c)
    layered = McpServer(
        McpConfig(backend="layered", rest_base_url=rest_c.base_url)).start()
    native_client = McpClient(f"127.0.0.1:{native.port}")
    layered_client = McpClient(f"127.0.0.1:{layered.port}")
    try:
        native_client.connect()
        native_client.handshake()
        layered_client.connect()
        layered_client.handshake()

        def check_layered_wrap(text: str):
            assert text.encode("utf-8") == rest_c_replies[-1][3]

        mc_ids = [c["external_id"] for c in cards]
        for mc_id in rng.sample(mc_ids, 20):
            rest_body = requests.get(f"{rest_a.base_url}/modelcard/{mc_id}").json()
            _, native_text = native_client.read_resource(mc_id)
            _, layered_text = layered_client.read_resource(mc_id)
            check_layered_wrap(layered_text)
            assert _strip_timings(json.loads(native_text)) == _strip_timings(rest_body)
            assert _strip_timings(json.loads(layered_text)) == _strip_timings(rest_body)

        exp_ids = [str(n.id) for n in nodes_labelled(registries[0].store, "Experiment")]
        dep_ids = [str(n.id) for n in nodes_labelled(registries[0].store, "Deployment")]
        checked = 0
        for k in range(20):
            kind = rng.choice(["edge", "edge", "edge", "search"])
            if kind == "search":
                term = rng.choice(["classifier", "camera", "speech", "wildlife"])
                rest_resp = requests.get(f"{rest_a.base_url}/search", params={"q": term})
                _, native_text, native_err = native_client.call_tool(
                    "search_model_cards", {"query": term, "limit": 10})
                _, layered_text, layered_err = layered_client.call_tool(
                    "search_model_cards", {"query": term, "limit": 10})
                check_layered_wrap(layered_text)
                assert native_err is layered_err is False
                assert json.loads(native_text) == rest_resp.json() == json.loads(layered_text)
            else:
                # random pairs: repeats naturally exercise the duplicate path
                pair = {"source_id": rng.choice(exp_ids), "target_id": rng.choice(dep_ids)}
                rest_resp = requests.post(f"{rest_a.base_url}/edge", json=pair)
                _, native_text, native_err = native_client.call_tool("create_edge", pair)
                _, layered_text, layered_err = layered_client.call_tool("create_edge", pair)
                check_layered_wrap(layered_text)
                assert native_err == layered_err == (rest_resp.status_code >= 400)
                assert json.loads(native_text) == rest_resp.json() == json.loads(layered_text)
            checked += 1
        assert checked == 20
    finally:
        native_client.close()
        layered_client.close()
        layered.stop()
        rest_c.stop()
        native.stop()
        rest_a.stop()
    _announce("7 cross-frontend equivalence",
              "20 retrievals + 20 tool calls: layered bytes == proxied REST bytes, "
              "native deep-equal to REST minus _timings")


# 8. Signposting conformance for every generated card.

def test_08_signposting_conformance(micro_stack):
    base = micro_stack.rest.base_url
    cards, _ = generate_documents(make_spec("micro", 42))
    no_image = card_dict(author="plain", name="noimage", version="1",
                         external_id="plain-noimage-1")
    requests.post(f"{base}/modelcard", json=no_image).raise_for_status()
    expected = {c["external_id"]: 4 for c in cards}  # generator cards carry an image URL
    expected["plain-noimage-1"] = 3
    for mc_id, count in expected.items():
        head = requests.head(f"{base}/modelcard/{mc_id}")
        assert head.status_code == 200
        links = requests.utils.parse_header_links(head.headers["Link"])
        linkset_links = [l for l in links if l.get("rel") == "linkset"]
        assert len(linkset_links) == 1
        assert linkset_links[0]["type"] == "application/linkset+json"
        resp = requests.get(f"{base}/modelcard/{mc_id}/linkset")
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "application/linkset+json"
        context = resp.json()["linkset"][0]
        assert sum(len(v) for k, v in context.items() if k != "anchor") == count
    _announce("8 signposting conformance",
              f"{len(expected)} cards: HEAD Link parses with rel=linkset, "
              "linkset JSON counts follow the 3-or-4 omission rule")


# 9. JSON-RPC and session conformance on one session.

def test_09_jsonrpc_session_conformance(micro_stack):
    endpoint = micro_stack.endpoint("native_mcp")

    pre = McpClient(endpoint)
    pre.connect()
    pre.handshake(initialize=False)
    try:
        for method in ("tools/list", "resources/list", "nonsense/method"):
            response = pre.request(method, {})
            assert response["error"]["code"] == -32002
    finally:
        pre.close()

    client = McpClient(endpoint)
    client.connect()
    client.handshake()
    try:
        assert client.request("prompts/list", {})["error"]["code"] == -32601
        rng = random.Random(4)
        issued = []
        for i in range(40):
            method = rng.choice(["tools/list", "resources/list", "unknown/method"])
            msg_id = rng.choice([i, f"id-{i}"])
            client.send_request(method, {}, msg_id=msg_id)
            issued.append((msg_id, method))
        responses = [client.next_message() for _ in issued]
        for (msg_id, method), response in zip(issued, responses):
            assert response["id"] == msg_id
            if method == "unknown/method":
                assert response["error"]["code"] == -32601
            else:
                assert "result" in response
    finally:
        client.close()
    _announce("9 JSON-RPC session conformance",
              "pre-init rejected (-32002), unknown -32601, 40 interleaved "
              "requests answered in order with matching ids")


# 10. Generator fidelity: exact realworld node counts and byte determinism.

def test_10_generator_fidelity(realworld_stack, tmp_path):
    stack, _proxies, corpus = realworld_stack
    store = stack.registry.store
    assert len(nodes_labelled(store, "Deployment")) == 10_000
    assert len(nodes_labelled(store, "Experiment")) == 1_000
    assert len(nodes_labelled(store, "Device")) == 100
    spec = make_spec("realworld", 42)
    write_corpus(spec, str(tmp_path / "again"))
    regenerated = sorted((tmp_path / "again").rglob("*.json"))
    original = sorted(p for p in corpus.rglob("*.json") if p.name != "manifest.json")
    assert [p.name for p in regenerated] == [p.name for p in original]
    for new, old in zip(regenerated, original):
        assert new.read_bytes() == old.read_bytes(), new.name
    _announce("10 generator fidelity",
              "10,000 Deployment / 1,000 Experiment / 100 Device nodes; "
              "regeneration byte-identical per seed")
