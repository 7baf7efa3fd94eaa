"""Wire-level JSON projections shared by the REST and MCP frontends.

Key order is fixed here (element_id first, then the record's fields in the
order its ``cards`` dataclass declares them, then any leftovers sorted) so
the two frontends emit byte-identical JSON for the same store state.
"""

from __future__ import annotations

import json
from typing import Any

from . import cards
from .graphstore import NodeRecord

MODEL_CARD_FIELDS = cards.PROPERTY_FIELDS[cards.ModelCardDocument]
MODEL_FIELDS = cards.PROPERTY_FIELDS[cards.AIModelInfo]
BIAS_FIELDS = cards.PROPERTY_FIELDS[cards.BiasAnalysis]
# the one node whose stored shape differs from its document shape: the
# document's top_features pairs are stored as two parallel lists
XAI_FIELDS = ("method", "feature_names", "feature_importances", "notes")
DEPLOYMENT_FIELDS = cards.PROPERTY_FIELDS[cards.DeploymentRecord]


def project_node(record: NodeRecord, field_order: tuple[str, ...]) -> dict:
    out: dict = {"element_id": str(record.id)}
    props = record.properties
    for key in field_order:
        if key in props:
            out[key] = props[key]
    for key in sorted(props):
        if key not in out:
            out[key] = props[key]
    return out


def dumps(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def dump_bytes(obj: Any) -> bytes:
    return dumps(obj).encode("utf-8")


def aggregated_to_jsonable(agg) -> dict:
    out: dict = {"model_card": agg.model_card, "ai_model": agg.ai_model}
    if agg.bias_analysis is not None:
        out["bias_analysis"] = agg.bias_analysis
    if agg.xai_analysis is not None:
        out["xai_analysis"] = agg.xai_analysis
    out["deployments"] = agg.deployments
    out["_timings"] = [{"query": name, "ms": ms} for name, ms in agg.query_timings]
    return out


def search_hits_to_jsonable(hits) -> list[dict]:
    return [
        {
            "mc_id": hit.mc_id,
            "score": hit.score,
            "name": hit.name,
            "short_description": hit.short_description,
        }
        for hit in hits
    ]


def edge_created_to_jsonable(created) -> dict:
    return {
        "edge_id": str(created.edge_id),
        "rel_type": created.rel_type,
        "src": str(created.src),
        "dst": str(created.dst),
    }
