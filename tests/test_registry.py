import json
import random
from datetime import datetime

import pytest

from mcard_registry.cards import SCHEMA_ADJACENCY, parse_model_card
from mcard_registry.errors import (
    DuplicateCardError,
    DuplicateEdgeError,
    DuplicateExperimentError,
    EmptyQueryError,
    NodeNotFoundError,
    NotFoundError,
    SchemaViolationError,
)
from mcard_registry.graphstore import GraphStore
from mcard_registry.registry import RETRIEVAL_QUERY_NAMES, Registry
from mcard_registry.wire import aggregated_to_jsonable, dumps

from conftest import card_dict, deployment_dict, ingest_dict, nodes_labelled, random_card_dict


# --- whole-graph traversal oracle, independent of the five-query plan ---

def _plain(props: dict, element_id) -> dict:
    return {"element_id": str(element_id), **props}


def _instant(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def traversal_oracle(store, mc_id: str) -> dict:
    """Reconstruct the aggregated card by scanning every node and edge."""
    nodes = {n.id: n for n in store.iter_nodes()}
    edges = list(store.iter_edges())
    card = next(
        n for n in nodes.values()
        if n.label == "ModelCard" and n.properties.get("external_id") == mc_id
    )

    def follow(src, rel):
        return [nodes[e.dst] for e in edges if e.src == src.id and e.rel_type == rel]

    model = follow(card, "HAS_MODEL")[0]
    bias = follow(card, "HAS_BIAS_ANALYSIS")
    xai = follow(card, "HAS_XAI_ANALYSIS")
    deployments = follow(model, "HAS_DEPLOYMENT")
    deployments.sort(
        key=lambda n: (_instant(n.properties["start_time"]), n.properties["deployment_id"]))
    result = {
        "model_card": _plain(card.properties, card.id),
        "ai_model": _plain(model.properties, model.id),
        "deployments": [_plain(d.properties, d.id) for d in deployments],
    }
    if bias:
        result["bias_analysis"] = _plain(bias[0].properties, bias[0].id)
    if xai:
        result["xai_analysis"] = _plain(xai[0].properties, xai[0].id)
    return result


def aggregated_as_plain(agg) -> dict:
    out = {
        "model_card": agg.model_card,
        "ai_model": agg.ai_model,
        "deployments": agg.deployments,
    }
    if agg.bias_analysis is not None:
        out["bias_analysis"] = agg.bias_analysis
    if agg.xai_analysis is not None:
        out["xai_analysis"] = agg.xai_analysis
    return out


# --- ingest ---

def test_ingest_minimal_card_counts(registry):
    ingest_dict(registry, card_dict())
    assert registry.counts() == (2, 1)


def test_ingest_full_card_counts(registry):
    card = card_dict(
        bias_analysis={"demographic_parity": 0.8, "equal_odds": 0.7, "notes": ""},
        xai_analysis={"method": "shap", "top_features": [], "notes": ""},
        deployments=[deployment_dict(0, device="dev-a"), deployment_dict(1, device="dev-b")],
    )
    ingest_dict(registry, card)
    # card, model, bias, xai, 2 deployments, 2 devices / has_model, bias, xai,
    # 2 has_deployment, 2 runs_on
    assert registry.counts() == (8, 7)


def test_ingest_duplicate_rejected_store_unchanged(registry):
    ingest_dict(registry, card_dict())
    before = registry.store.snapshot_bytes()
    with pytest.raises(DuplicateCardError):
        ingest_dict(registry, card_dict())
    assert registry.store.snapshot_bytes() == before


def test_ingest_reuses_existing_device(registry):
    ingest_dict(registry, card_dict(deployments=[deployment_dict(0, device="shared")]))
    ingest_dict(
        registry,
        card_dict(name="resnet2", external_id="jdoe-resnet2-1.0",
                  deployments=[deployment_dict(1, device="shared")]),
    )
    assert len(nodes_labelled(registry.store, "Device")) == 1


# --- retrieval ---

def test_retrieve_matches_oracle_simple(registry):
    mc_id = ingest_dict(
        registry,
        card_dict(
            bias_analysis={"demographic_parity": 0.8, "equal_odds": 0.7, "notes": "n"},
            deployments=[deployment_dict(1), deployment_dict(0)],
        ),
    )
    agg = registry.retrieve_model_card(mc_id)
    assert aggregated_as_plain(agg) == traversal_oracle(registry.store, mc_id)


def test_retrieve_unknown_card(registry):
    with pytest.raises(NotFoundError):
        registry.retrieve_model_card("nobody-nothing-0")


def test_retrieve_timing_plan_is_fixed(registry):
    mc_id = ingest_dict(registry, card_dict())
    agg = registry.retrieve_model_card(mc_id)
    assert [name for name, _ in agg.query_timings] == list(RETRIEVAL_QUERY_NAMES)
    assert all(ms > 0 for _, ms in agg.query_timings)
    assert agg.bias_analysis is None
    assert agg.xai_analysis is None


def test_retrieve_oracle_equivalence_over_seeded_corpus():
    rng = random.Random(99)
    registry = Registry()
    mc_ids = []
    for idx in range(50):
        card = random_card_dict(rng, idx)
        try:
            mc_ids.append(ingest_dict(registry, card))
        except DuplicateCardError:
            continue
    assert len(mc_ids) >= 45
    for mc_id in mc_ids:
        agg = registry.retrieve_model_card(mc_id)
        assert aggregated_as_plain(agg) == traversal_oracle(registry.store, mc_id), mc_id


def test_deployments_ordered_by_start_time_then_id(registry):
    deps = [
        deployment_dict(2, start_time="2024-06-01T00:00:00Z", end_time=None),
        deployment_dict(0, start_time="2024-06-01T00:00:00Z", end_time=None),
        deployment_dict(1, start_time="2024-01-01T00:00:00Z", end_time=None),
    ]
    mc_id = ingest_dict(registry, card_dict(deployments=deps))
    agg = registry.retrieve_model_card(mc_id)
    assert [d["deployment_id"] for d in agg.deployments] == ["dep-0001", "dep-0000", "dep-0002"]


def test_deployments_ordered_by_instant_across_fractions_and_offsets(registry):
    deps = [
        deployment_dict(0, start_time="2024-06-01T00:00:00.5Z", end_time=None),
        deployment_dict(1, start_time="2024-06-01T00:00:00Z", end_time=None),
        deployment_dict(2, start_time="2024-06-01T00:00:00.25Z", end_time=None),
        deployment_dict(3, start_time="2024-06-01T02:00:00+02:00", end_time=None),
    ]
    mc_id = ingest_dict(registry, card_dict(deployments=deps))
    agg = registry.retrieve_model_card(mc_id)
    assert [(d["start_time"], d["deployment_id"]) for d in agg.deployments] == [
        ("2024-06-01T00:00:00Z", "dep-0001"),
        ("2024-06-01T00:00:00Z", "dep-0003"),
        ("2024-06-01T00:00:00.250000Z", "dep-0002"),
        ("2024-06-01T00:00:00.500000Z", "dep-0000"),
    ]


# The snapshot of card_dict() with two deployments, as a store that kept
# timestamps as datetimes wrote it: each one tagged {"$ts": canonical text}.
LEGACY_SNAPSHOT = "\n".join([
    '{"format": "mcgraph-snapshot", "next_edge_ordinal": 6, "next_node_ordinal": 6, "version": 1}',
    '{"id": "n:1", "labels": ["ModelCard"], "properties": {"author": "jdoe", '
    '"documentation_format_version": "1.0", "external_id": "jdoe-resnet-1.0", '
    '"full_description": "A wildlife image classifier tuned for edge devices.", '
    '"input_type": "image", "keywords": ["wildlife", "classifier"], "name": "resnet", '
    '"output_type": "label", "short_description": "camera trap classifier", "version": "1.0"}}',
    '{"id": "n:2", "labels": ["Model"], "properties": {"artifact_location": '
    '"https://models.example.org/jdoe/resnet-1.0.pt", "framework": "pytorch", '
    '"license": "apache-2.0", "lifecycle_stage": "model_image", "model_type": "cnn", '
    '"name": "resnet", "owner": "jdoe", "test_accuracy": 0.91, "version": "1.0"}}',
    '{"id": "n:3", "labels": ["Deployment"], "properties": {"cpu_utilization": 0.5, '
    '"deployment_id": "dep-0001", "device_id": "dev-1", '
    '"end_time": {"$ts": "2024-01-01T01:00:00Z"}, "energy_joules": 12.5, '
    '"gpu_utilization": 0.25, "location": "field-site-a", "mean_accuracy": 0.9, '
    '"mean_latency_ms": 43.0, "requests_served": 101, '
    '"start_time": {"$ts": "2024-01-01T00:00:00.500000Z"}}}',
    '{"id": "n:4", "labels": ["Device"], "properties": {"device_id": "dev-1"}}',
    '{"id": "n:5", "labels": ["Deployment"], "properties": {"cpu_utilization": 0.5, '
    '"deployment_id": "dep-0000", "device_id": "dev-1", "energy_joules": 12.5, '
    '"gpu_utilization": 0.25, "location": "field-site-a", "mean_accuracy": 0.9, '
    '"mean_latency_ms": 42.0, "requests_served": 100, '
    '"start_time": {"$ts": "2024-01-01T00:00:00Z"}}}',
    '{"dst": "n:2", "id": "e:1", "properties": {}, "rel_type": "HAS_MODEL", "src": "n:1"}',
    '{"dst": "n:3", "id": "e:2", "properties": {}, "rel_type": "HAS_DEPLOYMENT", "src": "n:2"}',
    '{"dst": "n:4", "id": "e:3", "properties": {}, "rel_type": "RUNS_ON", "src": "n:3"}',
    '{"dst": "n:5", "id": "e:4", "properties": {}, "rel_type": "HAS_DEPLOYMENT", "src": "n:2"}',
    '{"dst": "n:4", "id": "e:5", "properties": {}, "rel_type": "RUNS_ON", "src": "n:5"}',
    "",
]).encode("utf-8")


def _retrieve_body(registry, mc_id: str) -> str:
    body = aggregated_to_jsonable(registry.retrieve_model_card(mc_id))
    del body["_timings"]
    return dumps(body)


def test_legacy_tagged_timestamps_load_as_text(registry):
    ingest_dict(registry, card_dict(deployments=[
        deployment_dict(1, start_time="2024-01-01T02:00:00.5+02:00",
                        end_time="2024-01-01T01:00:00Z"),
        deployment_dict(0, end_time=None),
    ]))
    loaded = Registry(GraphStore.from_snapshot_bytes(LEGACY_SNAPSHOT))
    assert _retrieve_body(loaded, "jdoe-resnet-1.0") == _retrieve_body(registry, "jdoe-resnet-1.0")
    saved = loaded.store.snapshot_bytes()
    assert b"$ts" not in saved
    assert saved == registry.store.snapshot_bytes()
    assert GraphStore.from_snapshot_bytes(saved).snapshot_bytes() == saved


# --- search ---

def _search_corpus(registry):
    ingest_dict(registry, card_dict(
        author="ann", name="trapnet", version="1.0",
        external_id="ann-trapnet-1.0",
        short_description="camera-trap classification",
    ))
    ingest_dict(registry, card_dict(
        author="bob", name="speechy", version="1.0",
        external_id="bob-speechy-1.0",
        short_description="speech transcription",
    ))


def test_search_ranks_exact_match_first(registry):
    _search_corpus(registry)
    hits = registry.search_model_cards("camera-trap classification")
    assert hits[0].mc_id == "ann-trapnet-1.0"
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_search_no_match(registry):
    _search_corpus(registry)
    assert registry.search_model_cards("zzzz") == []


def test_search_empty_query(registry):
    _search_corpus(registry)
    with pytest.raises(EmptyQueryError):
        registry.search_model_cards("")


def test_search_limit_truncates(registry):
    _search_corpus(registry)
    all_hits = registry.search_model_cards("classifier")
    assert len(all_hits) == 2
    top = registry.search_model_cards("classifier", limit=1)
    assert len(top) == 1
    assert top[0] == all_hits[0]


def test_search_limit_validation(registry):
    _search_corpus(registry)
    with pytest.raises(SchemaViolationError):
        registry.search_model_cards("classifier", limit=0)


# --- edge pipeline ---

def _pipeline_store(registry):
    mc_id = ingest_dict(registry, card_dict(deployments=[deployment_dict(0)]))
    agg = registry.retrieve_model_card(mc_id)
    dep_id = agg.deployments[0]["element_id"]
    exp_id = str(registry.record_experiment("exp-1"))
    return exp_id, dep_id


def test_create_edge_includes(registry):
    exp_id, dep_id = _pipeline_store(registry)
    created = registry.create_edge(exp_id, dep_id)
    assert created.rel_type == "INCLUDES"
    # oracle: the edge is really present with the inferred type
    edge = next(e for e in registry.store.iter_edges() if e.id == created.edge_id)
    assert (str(edge.src), str(edge.dst), edge.rel_type) == (exp_id, dep_id, "INCLUDES")


def test_create_edge_unknown_src(registry):
    _, dep_id = _pipeline_store(registry)
    with pytest.raises(NodeNotFoundError) as excinfo:
        registry.create_edge("n:9999", dep_id)
    assert excinfo.value.which == "src"


def test_create_edge_unknown_dst(registry):
    exp_id, _ = _pipeline_store(registry)
    with pytest.raises(NodeNotFoundError) as excinfo:
        registry.create_edge(exp_id, "n:9999")
    assert excinfo.value.which == "dst"


def test_create_edge_malformed_id(registry):
    exp_id, dep_id = _pipeline_store(registry)
    with pytest.raises(NodeNotFoundError):
        registry.create_edge("banana", dep_id)


def test_create_edge_duplicate(registry):
    exp_id, dep_id = _pipeline_store(registry)
    registry.create_edge(exp_id, dep_id)
    edges_before = registry.store.edge_count()
    with pytest.raises(DuplicateEdgeError):
        registry.create_edge(exp_id, dep_id)
    assert registry.store.edge_count() == edges_before


def test_create_edge_schema_violation_leaves_store(registry):
    exp_id, dep_id = _pipeline_store(registry)
    before = registry.store.snapshot_bytes()
    with pytest.raises(SchemaViolationError):
        registry.create_edge(dep_id, exp_id)  # reversed pair is not in the table
    assert registry.store.snapshot_bytes() == before


def test_edge_pipeline_randomized_property(registry):
    """1,000 random attempts: successes carry the schema rel_type; failures
    leave a byte-identical snapshot; success-then-repeat is DUPLICATE_EDGE."""
    rng = random.Random(7)
    for idx in range(3):
        ingest_dict(registry, random_card_dict(rng, idx))
    for i in range(5):
        registry.record_experiment(f"exp-{i}")
    node_ids = [str(n.id) for n in registry.store.iter_nodes()]
    candidates = node_ids + ["n:40404", "e:1", "bogus"]
    label_by_id = {str(n.id): n.label for n in registry.store.iter_nodes()}
    successes = 0
    for _ in range(1000):
        src, dst = rng.choice(candidates), rng.choice(candidates)
        before = registry.store.snapshot_bytes()
        edge_count = registry.store.edge_count()
        try:
            created = registry.create_edge(src, dst)
        except (NodeNotFoundError, SchemaViolationError, DuplicateEdgeError) as exc:
            assert registry.store.snapshot_bytes() == before, type(exc)
            continue
        successes += 1
        assert registry.store.edge_count() == edge_count + 1
        assert created.rel_type == SCHEMA_ADJACENCY[(label_by_id[src], label_by_id[dst])]
        with pytest.raises(DuplicateEdgeError):
            registry.create_edge(src, dst)
    assert successes > 0


def test_edge_pipeline_fault_injection(registry, monkeypatch):
    """Forced failures at each stage leave the serialized elements unchanged."""
    exp_id, dep_id = _pipeline_store(registry)
    before = registry.store.snapshot_bytes()

    # stage 1: label fetch blows up
    original_label = registry.store.node_label
    monkeypatch.setattr(
        registry.store, "node_label", lambda _id: (_ for _ in ()).throw(RuntimeError("s1"))
    )
    with pytest.raises(RuntimeError):
        registry.create_edge(exp_id, dep_id)
    monkeypatch.setattr(registry.store, "node_label", original_label)
    assert registry.store.snapshot_bytes() == before

    # stage 2: schema inference fails (reversed pair)
    with pytest.raises(SchemaViolationError):
        registry.create_edge(dep_id, exp_id)
    assert registry.store.snapshot_bytes() == before

    # stage 3: duplicate probe blows up
    original_exists = registry.store.edge_exists
    monkeypatch.setattr(
        registry.store, "edge_exists", lambda *a: (_ for _ in ()).throw(RuntimeError("s3"))
    )
    with pytest.raises(RuntimeError):
        registry.create_edge(exp_id, dep_id)
    monkeypatch.setattr(registry.store, "edge_exists", original_exists)
    assert registry.store.snapshot_bytes() == before

    # stage 4: the commit itself fails
    def exploding_write(work):
        raise RuntimeError("s4")

    monkeypatch.setattr(registry.store, "atomic_write", exploding_write)
    with pytest.raises(RuntimeError):
        registry.create_edge(exp_id, dep_id)
    monkeypatch.undo()
    assert registry.store.snapshot_bytes() == before


# --- deployment events ---

def test_record_deployment_appends(registry):
    mc_id = ingest_dict(registry, card_dict())
    assert len(registry.retrieve_model_card(mc_id).deployments) == 0
    dep = parse_model_card(json.dumps(card_dict(deployments=[deployment_dict(5)]))).deployments[0]
    registry.record_deployment(mc_id, dep)
    agg = registry.retrieve_model_card(mc_id)
    assert len(agg.deployments) == 1
    assert agg.deployments[0]["deployment_id"] == "dep-0005"


def test_record_deployment_unknown_card(registry):
    dep = parse_model_card(json.dumps(card_dict(deployments=[deployment_dict(0)]))).deployments[0]
    with pytest.raises(NotFoundError):
        registry.record_deployment("nobody-none-0", dep)


def test_record_many_deployments_all_retrievable(registry):
    mc_id = ingest_dict(registry, card_dict())
    parsed = parse_model_card(
        json.dumps(card_dict(deployments=[deployment_dict(i) for i in range(40)]))
    )
    sizes = []
    for dep in parsed.deployments:
        registry.record_deployment(mc_id, dep)
        agg = registry.retrieve_model_card(mc_id)
        sizes.append(len(json.dumps(aggregated_as_plain(agg))))
    assert len(registry.retrieve_model_card(mc_id).deployments) == 40
    assert sizes == sorted(sizes)  # the card JSON grows monotonically
    oracle = traversal_oracle(registry.store, mc_id)
    assert len(oracle["deployments"]) == 40


# --- experiments ---

def test_record_experiment_with_links(registry):
    mc_id = ingest_dict(registry, card_dict(deployments=[deployment_dict(0)]))
    dep_element = registry.retrieve_model_card(mc_id).deployments[0]["element_id"]
    exp_node = registry.record_experiment("exp-9", [dep_element])
    assert registry.store.edge_exists(
        exp_node, type(exp_node).parse(dep_element), "INCLUDES"
    )


def test_record_experiment_duplicate(registry):
    registry.record_experiment("exp-1")
    with pytest.raises(DuplicateExperimentError):
        registry.record_experiment("exp-1")


def test_record_experiment_empty_id(registry):
    with pytest.raises(SchemaViolationError):
        registry.record_experiment("  ")


# --- linkset ---

def test_get_linkset(registry):
    card = card_dict()
    card["ai_model"]["container_image_location"] = "https://images.example.org/x:1"
    mc_id = ingest_dict(registry, card)
    linkset = registry.get_linkset(mc_id, "http://srv:1234")
    assert len(linkset.links) == 4
    assert linkset.anchor == f"http://srv:1234/modelcard/{mc_id}"


def test_get_linkset_unknown(registry):
    with pytest.raises(NotFoundError):
        registry.get_linkset("no-card-0", "http://srv:1234")


def test_search_limit_caps_at_100(registry):
    _search_corpus(registry)
    hits = registry.search_model_cards("classifier", limit=100000)
    assert len(hits) == 2  # capped, not rejected
