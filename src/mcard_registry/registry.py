"""Protocol-independent registry logic over the graph store.

Card ingest builds the whole card subgraph in one transaction; retrieval runs
a fixed five-query aggregation plan (base card fetch plus model, bias, xai
and deployment traversals) and records per-query wall time including result
materialization; edge creation runs a four-stage validate-and-commit
pipeline. Deployment events append to the graph, which is what makes a card
"dynamic".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from . import cards, wire
from .cards import (
    DeploymentRecord,
    ModelCardDocument,
    infer_relationship_type,
)
from .errors import (
    DuplicateCardError,
    DuplicateEdgeError,
    DuplicateExperimentError,
    NodeNotFoundError,
    NotFoundError,
    SchemaViolationError,
)
from .graphstore import ElementId, GraphStore, NodeRecord, WriteTransaction

SEARCH_LIMIT_CAP = 100
RETRIEVAL_QUERY_NAMES = ("model_card", "model", "bias_analysis", "xai_analysis", "deployments")


@dataclass
class AggregatedCard:
    model_card: dict
    ai_model: dict
    bias_analysis: dict | None
    xai_analysis: dict | None
    deployments: list[dict]
    query_timings: list[tuple[str, float]] = field(default_factory=list)


@dataclass(frozen=True)
class EdgeCreated:
    edge_id: ElementId
    rel_type: str
    src: ElementId
    dst: ElementId


@dataclass(frozen=True)
class SearchHit:
    mc_id: str
    score: float
    name: str
    short_description: str


def _properties(record) -> dict[str, Any]:
    """A record's node properties: its non-None stored fields, in wire order."""
    return {
        name: value
        for name in cards.PROPERTY_FIELDS[type(record)]
        if (value := getattr(record, name)) is not None
    }


class Registry:
    def __init__(self, store: GraphStore | None = None):
        self.store = store if store is not None else GraphStore()

    # --- ingest ---

    def ingest_model_card(self, doc: ModelCardDocument) -> str:
        mc_id = doc.external_id

        def work(tx: WriteTransaction) -> None:
            if self.store.find_nodes("ModelCard", mc_id):
                raise DuplicateCardError(f"card {mc_id} already ingested")
            card_node = tx.create_node("ModelCard", _properties(doc))
            model_node = tx.create_node("Model", _properties(doc.ai_model))
            tx.create_edge(card_node, model_node, "HAS_MODEL")
            if doc.bias_analysis is not None:
                bias_node = tx.create_node("BiasAnalysis", _properties(doc.bias_analysis))
                tx.create_edge(card_node, bias_node, "HAS_BIAS_ANALYSIS")
            xai = doc.xai_analysis
            if xai is not None:
                xai_node = tx.create_node(
                    "XAIAnalysis",
                    {
                        "method": xai.method,
                        "feature_names": [f.name for f in xai.top_features],
                        "feature_importances": [f.importance for f in xai.top_features],
                        "notes": xai.notes,
                    },
                )
                tx.create_edge(card_node, xai_node, "HAS_XAI_ANALYSIS")
            pending_devices: dict[str, ElementId] = {}
            for dep in doc.deployments:
                self._append_deployment(tx, model_node, dep, pending_devices)

        self.store.atomic_write(work)
        return mc_id

    def _append_deployment(
        self,
        tx: WriteTransaction,
        model_node: ElementId,
        dep: DeploymentRecord,
        pending_devices: dict[str, ElementId],
    ) -> ElementId:
        dep_node = tx.create_node("Deployment", _properties(dep))
        tx.create_edge(model_node, dep_node, "HAS_DEPLOYMENT")
        device_node = pending_devices.get(dep.device_id)
        if device_node is None:
            existing = self.store.find_nodes("Device", dep.device_id)
            if existing:
                device_node = existing[0].id
            else:
                device_node = tx.create_node("Device", {"device_id": dep.device_id})
                pending_devices[dep.device_id] = device_node
        tx.create_edge(dep_node, device_node, "RUNS_ON")
        return dep_node

    # --- retrieval ---

    def _card(self, mc_id: str) -> NodeRecord:
        """The ModelCard node of card ``mc_id``; NotFoundError if there is none."""
        found = self.store.find_nodes("ModelCard", mc_id)
        if not found:
            raise NotFoundError(f"no model card {mc_id!r}")
        return found[0]

    def _model(self, card_id: ElementId, mc_id: str) -> NodeRecord:
        """The Model node of the card at ``card_id``; NotFoundError if none."""
        found = self.store.neighbors(card_id, "HAS_MODEL")
        if not found:
            raise NotFoundError(f"card {mc_id!r} has no model node")
        return found[0]

    def retrieve_model_card(self, mc_id: str) -> AggregatedCard:
        """Five-query aggregation under one read session, so the five queries
        see one state of the store; per-query wall time covers the query plus
        result materialization, never serialization."""
        with self.store.read_session():
            timings: list[tuple[str, float]] = []

            def timed(name, fn):
                start = time.perf_counter_ns()
                value = fn()
                timings.append((name, (time.perf_counter_ns() - start) / 1e6))
                return value

            def base_query():
                card = self._card(mc_id)
                return wire.project_node(card, wire.MODEL_CARD_FIELDS), card.id

            card_map, card_id = timed("model_card", base_query)

            def model_query():
                model = self._model(card_id, mc_id)
                return wire.project_node(model, wire.MODEL_FIELDS), model.id

            model_map, model_id = timed("model", model_query)

            def analysis_query(rel_type: str, order: tuple[str, ...]):
                found = self.store.neighbors(card_id, rel_type)
                return wire.project_node(found[0], order) if found else None

            bias_map = timed(
                "bias_analysis", lambda: analysis_query("HAS_BIAS_ANALYSIS", wire.BIAS_FIELDS)
            )
            xai_map = timed(
                "xai_analysis", lambda: analysis_query("HAS_XAI_ANALYSIS", wire.XAI_FIELDS)
            )

            def deployments_query():
                records = sorted(
                    self.store.neighbors(model_id, "HAS_DEPLOYMENT"),
                    key=lambda r: (cards.timestamp_order(r.properties["start_time"]),
                                   r.properties["deployment_id"]),
                )
                return [wire.project_node(rec, wire.DEPLOYMENT_FIELDS) for rec in records]

            deployments = timed("deployments", deployments_query)
            return AggregatedCard(
                model_card=card_map,
                ai_model=model_map,
                bias_analysis=bias_map,
                xai_analysis=xai_map,
                deployments=deployments,
                query_timings=timings,
            )

    # --- search ---

    def search_model_cards(self, query_text: str, limit: int = 10) -> list[SearchHit]:
        if not isinstance(limit, int) or limit < 1:
            raise SchemaViolationError("limit", "must be an integer >= 1")
        limit = min(limit, SEARCH_LIMIT_CAP)
        return [
            SearchHit(mc_id=mc_id, score=score, name=name, short_description=description)
            for score, (mc_id, name, description) in self.store._ranked_values(
                query_text, limit, "ModelCard", ("external_id", "name", "short_description"))
        ]

    # --- edge pipeline ---

    def _node(self, which: str, raw: str) -> tuple[ElementId, str]:
        """The node an element id names, and its label."""
        try:
            element_id = ElementId.parse(raw)
        except ValueError:
            raise NodeNotFoundError(which, f"{which} id {raw!r} names no node") from None
        label = self.store.node_label(element_id)
        if label is None:
            raise NodeNotFoundError(which, f"{which} node {raw} not found")
        return element_id, label

    def create_edge(self, src_element_id: str, dst_element_id: str) -> EdgeCreated:
        # stage 1: both nodes exist, labels fetched
        src, src_label = self._node("src", src_element_id)
        dst, dst_label = self._node("dst", dst_element_id)
        # stage 2: relationship inferred from the label pair and validated
        rel_type = infer_relationship_type(src_label, dst_label)
        # stage 3: duplicate check
        if self.store.edge_exists(src, dst, rel_type):
            raise DuplicateEdgeError(f"{rel_type} edge {src} -> {dst} already exists")
        # stage 4: committed in one atomic write (re-checks uniqueness under
        # the writer lock so concurrent duplicates cannot slip through)
        edge = self.store.atomic_write(
            lambda tx: tx.create_edge(src, dst, rel_type, ensure_unique=True)
        )
        return EdgeCreated(edge_id=edge, rel_type=rel_type, src=src, dst=dst)

    # --- dynamic-card events ---

    def record_deployment(self, mc_id: str, dep: DeploymentRecord) -> ElementId:
        model_id = self._model(self._card(mc_id).id, mc_id).id
        return self.store.atomic_write(
            lambda tx: self._append_deployment(tx, model_id, dep, {})
        )

    def record_experiment(
        self, experiment_id: str, deployment_element_ids: list[str] | None = None
    ) -> ElementId:
        if not experiment_id or not experiment_id.strip():
            raise SchemaViolationError("experiment_id", "must be non-empty")
        targets: dict[ElementId, str] = {}
        for raw in deployment_element_ids or []:
            element_id, label = self._node("deployment", raw)
            if element_id in targets:
                raise SchemaViolationError("deployment_element_ids", f"repeats {raw}")
            targets[element_id] = infer_relationship_type("Experiment", label)

        def work(tx: WriteTransaction) -> ElementId:
            if self.store.find_nodes("Experiment", experiment_id):
                raise DuplicateExperimentError(f"experiment {experiment_id} already recorded")
            exp_node = tx.create_node("Experiment", {"experiment_id": experiment_id})
            for dep_node, rel_type in targets.items():
                tx.create_edge(exp_node, dep_node, rel_type)
            return exp_node

        return self.store.atomic_write(work)

    # --- signposting ---

    def get_linkset(self, mc_id: str, base_url: str) -> cards.LinkSet:
        model = self._model(self._card(mc_id).id, mc_id)
        return cards.build_linkset_from_fields(mc_id, model.properties, base_url)

    # --- plumbing for the frontends ---

    def counts(self) -> tuple[int, int]:
        return self.store.node_count(), self.store.edge_count()
