import json

import pytest

from mcard_registry.bench.generator import (
    GeneratorSpec,
    TargetUnreachableError,
    generate_documents,
    ingest_corpus,
    make_spec,
    write_corpus,
)
from mcard_registry.cards import parse_model_card
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer
from mcard_registry import wire

from conftest import nodes_labelled


def _dir_bytes(root):
    out = {}
    for path in sorted(root.rglob("*.json")):
        out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_micro_preset_defaults():
    spec = make_spec("micro", seed=7)
    assert (spec.cards, spec.deployments_per_card, spec.experiments, spec.devices) == \
        (20, 5, 200, 5)
    assert spec.target_card_bytes is None


def test_realworld_preset_defaults():
    spec = make_spec("realworld", seed=7)
    assert (spec.cards, spec.deployments_per_card, spec.experiments, spec.devices) == \
        (1, 10_000, 1_000, 100)
    assert spec.target_card_bytes == 13_630_000


def test_micro_determinism_byte_identical(tmp_path):
    spec = make_spec("micro", seed=7)
    write_corpus(spec, str(tmp_path / "a"))
    write_corpus(spec, str(tmp_path / "b"))
    a = _dir_bytes(tmp_path / "a")
    b = _dir_bytes(tmp_path / "b")
    assert a == b
    assert len([k for k in a if k.startswith("cards/")]) == 20


def test_micro_seeds_differ(tmp_path):
    write_corpus(make_spec("micro", seed=7), str(tmp_path / "a"))
    write_corpus(make_spec("micro", seed=8), str(tmp_path / "b"))
    assert _dir_bytes(tmp_path / "a") != _dir_bytes(tmp_path / "b")


def test_micro_card_sizes_in_window():
    cards, _ = generate_documents(make_spec("micro", seed=3))
    for card in cards:
        size = len(wire.dump_bytes(card))
        assert 2048 <= size <= 8192, card["external_id"]


def test_micro_cards_are_valid_documents():
    cards, _ = generate_documents(make_spec("micro", seed=11))
    for card in cards:
        doc = parse_model_card(wire.dump_bytes(card))
        assert len(doc.deployments) == 5


def test_scaled_realworld_size_tuning():
    # realworld geometry scaled down 50x so the test stays fast
    spec = make_spec("realworld", seed=5, deployments_per_card=200, experiments=20,
                     devices=10, target_card_bytes=272_600)
    cards, experiments = generate_documents(spec)
    assert len(cards) == 1
    size = len(wire.dump_bytes(cards[0]))
    assert abs(size - spec.target_card_bytes) / spec.target_card_bytes <= 0.05
    assert len(experiments) == 20
    doc = parse_model_card(wire.dump_bytes(cards[0]))
    assert len(doc.deployments) == 200
    assert len({d.device_id for d in doc.deployments}) == 10


def test_target_unreachable():
    spec = GeneratorSpec(preset="realworld", cards=1, deployments_per_card=0,
                         experiments=0, devices=1, seed=1, target_card_bytes=10_000_000)
    with pytest.raises(TargetUnreachableError):
        generate_documents(spec)


def test_ingest_corpus_builds_manifest(tmp_path):
    registry = Registry()
    server = RestServer(registry, RestConfig()).start()
    try:
        spec = make_spec("micro", seed=7, cards=3, experiments=5)
        manifest = ingest_corpus(spec, str(tmp_path), server.base_url)
        assert len(manifest["mc_ids"]) == 3
        assert len(manifest["experiment_element_ids"]) == 5
        assert len(manifest["deployment_element_ids"]) == 15
        assert manifest["search_terms"]
        assert len(nodes_labelled(registry.store, "ModelCard")) == 3
        assert len(nodes_labelled(registry.store, "Experiment")) == 5
        assert len(nodes_labelled(registry.store, "Deployment")) == 15
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
    finally:
        server.stop()


def test_generated_experiments_carry_no_edges(tmp_path):
    registry = Registry()
    server = RestServer(registry, RestConfig()).start()
    try:
        spec = make_spec("micro", seed=7, cards=2, experiments=4)
        ingest_corpus(spec, str(tmp_path), server.base_url)
        for exp in nodes_labelled(registry.store, "Experiment"):
            assert registry.store.neighbors(exp.id, "INCLUDES") == []
    finally:
        server.stop()
