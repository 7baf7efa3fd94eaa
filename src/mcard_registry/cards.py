"""Model-card domain: document schema, identifier composition, the directed
label-pair relationship dictionary, and signposting linkset construction.

Everything here is pure values and pure functions; nothing touches the store.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from urllib.parse import quote, urlparse

from .errors import EmptyComponentError, IdMismatchError, MalformedJsonError, SchemaViolationError

DOC_FORMAT_VERSION = "1.0"

LIFECYCLE_STAGES = (
    "program_object",
    "serialized_object",
    "model_image",
    "inference_execution_instance",
)

# Directed (source label, target label) -> relationship type. Lookups outside
# this table are schema violations; reversed pairs are not implied.
SCHEMA_ADJACENCY: dict[tuple[str, str], str] = {
    ("ModelCard", "Model"): "HAS_MODEL",
    ("ModelCard", "BiasAnalysis"): "HAS_BIAS_ANALYSIS",
    ("ModelCard", "XAIAnalysis"): "HAS_XAI_ANALYSIS",
    ("Model", "Deployment"): "HAS_DEPLOYMENT",
    ("Deployment", "Device"): "RUNS_ON",
    ("Experiment", "Deployment"): "INCLUDES",
}

LINKSET_MEDIA_TYPE = "application/linkset+json"

_WS_RUN = re.compile(r"\s+")


@dataclass(frozen=True)
class ModelCardId:
    author: str
    model_name: str
    version: str

    @property
    def rendered(self) -> str:
        return f"{self.author}-{self.model_name}-{self.version}"


def _sanitize(component: str) -> str:
    return _WS_RUN.sub("_", component.strip()).lower()


def compose_mc_id(author: str, model_name: str, version: str) -> ModelCardId:
    parts = {}
    for name, raw in (("author", author), ("model_name", model_name), ("version", version)):
        clean = _sanitize(raw)
        if not clean:
            raise EmptyComponentError(f"id component {name} is empty after trimming")
        if "/" in clean:  # an id is one URL path segment
            raise SchemaViolationError(name, "id component must not contain '/'")
        parts[name] = clean
    return ModelCardId(parts["author"], parts["model_name"], parts["version"])


# --- the card schema ---
#
# Each record below is the schema's single field table. Fields are declared
# in wire order (the order the store's projections emit them), and each
# field carries in its metadata the check that validates and converts the
# JSON value found at its path. A field with
# ``kw_only=True, default=None`` may be absent or null, which leaves it None,
# without moving it from its wire position. A field with any other default
# may be absent, which gives the default, but a null there fails its check.

def _text(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolationError(path, "expected str")
    return value


def _name(value, path: str) -> str:
    if not _text(value, path).strip():
        raise SchemaViolationError(path, "must be non-empty")
    return value


def is_absolute_url(text: str) -> bool:
    parsed = urlparse(text)
    return bool(parsed.scheme) and bool(parsed.netloc)


def _url(value, path: str) -> str:
    if not isinstance(value, str) or not is_absolute_url(value):
        raise SchemaViolationError(path, "must be an absolute URL")
    return value


def _artifact_url(value, path: str) -> str:
    return _url(_name(value, path), path)


def _finite(value: int | float, path: str) -> float:
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaViolationError(path, "must be finite")
    return number


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolationError(path, "expected a number")
    return _finite(value, path)


def _non_negative(value, path: str) -> float:
    number = _number(value, path)
    if number < 0:
        raise SchemaViolationError(path, "must be non-negative")
    return number


def _accuracy(value, path: str) -> float:
    number = _number(value, path)
    if not 0.0 <= number <= 1.0:
        raise SchemaViolationError(path, "out of range [0, 1]")
    return number


def _count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolationError(path, "expected an integer")
    if _finite(value, path) < 0:
        raise SchemaViolationError(path, "must be non-negative")
    return value


def _stage(value, path: str) -> str:
    if _name(value, path) not in LIFECYCLE_STAGES:
        raise SchemaViolationError(path, f"unknown stage {value!r}")
    return value


def _timestamp(value, path: str) -> str:
    """An ISO-8601 timestamp with a ``Z`` or an explicit offset, as its
    canonical UTC text ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``: the form the store
    keeps and the wire carries."""
    text = _name(value, path)
    try:
        parsed = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
        if parsed.tzinfo is not None:
            # an offset that moves year 1 or 9999 out of range raises OverflowError
            return parsed.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
    except (ValueError, OverflowError):
        pass
    raise SchemaViolationError(path, "not an ISO-8601 UTC timestamp")


def timestamp_order(text: str) -> str:
    """The sort key of a canonical timestamp: its text without the final
    ``Z``. Plain text order is wrong, as ``Z`` sorts after ``.``: the
    whole-second ``...:00Z`` would follow ``...:00.500000Z``. Without the
    ``Z`` it is right: every field has a fixed width and the fraction is
    absent or exactly six digits, so when the first 19 characters match, the
    whole-second text is a prefix of the other and sorts first."""
    return text[:-1]


def _keywords(value, path: str) -> list[str]:
    if not isinstance(value, list):
        raise SchemaViolationError(path, "expected list")
    if not all(isinstance(k, str) for k in value):
        raise SchemaViolationError(path, "must be a list of strings")
    return list(value)


def _features(value, path: str) -> list["Feature"]:
    if not isinstance(value, list):
        raise SchemaViolationError(path, "must be a list")
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict) or "name" not in entry or "importance" not in entry:
            raise SchemaViolationError(f"{path}[{i}]", "expected {name, importance}")
        out.append(_record(Feature, entry, f"{path}[{i}]."))
    return out


def _deployments(value, path: str) -> list["DeploymentRecord"]:
    if not isinstance(value, list):
        raise SchemaViolationError(path, "must be a list")
    return [parse_deployment(entry, f"{path}[{i}].") for i, entry in enumerate(value)]


def _field(check, **kwargs):
    return field(metadata={"check": check}, **kwargs)


def _nested(check, **kwargs):
    """A field holding sub-records: stored as nodes of their own, never as a
    property of this record's node."""
    return field(metadata={"check": check, "nested": True}, **kwargs)


def _one(cls):
    return lambda value, path: _record(cls, value, path + ".")


@dataclass
class Feature:
    """One ``xai_analysis.top_features`` entry."""

    name: str = _field(_text)
    importance: float = _field(_number)


@dataclass
class AIModelInfo:
    name: str = _field(_name)
    version: str = _field(_name)
    owner: str = _field(_name)
    artifact_location: str = _field(_artifact_url)
    container_image_location: str | None = _field(_url, default=None, kw_only=True)
    license: str = _field(_name)
    framework: str = _field(_name)
    model_type: str = _field(_name)
    test_accuracy: float = _field(_accuracy)
    lifecycle_stage: str = _field(_stage)


@dataclass
class BiasAnalysis:
    demographic_parity: float = _field(_number)
    equal_odds: float = _field(_number)
    notes: str = _field(_text, default="")


@dataclass
class XAIAnalysis:
    method: str = _field(_name)
    top_features: list[Feature] = _field(_features, default_factory=list)
    notes: str = _field(_text, default="")


@dataclass
class DeploymentRecord:
    deployment_id: str = _field(_name)
    device_id: str = _field(_name)
    start_time: str = _field(_timestamp)
    end_time: str | None = _field(_timestamp, default=None, kw_only=True)
    location: str = _field(_text)
    mean_latency_ms: float = _field(_non_negative)
    mean_accuracy: float = _field(_non_negative)
    requests_served: int = _field(_count)
    cpu_utilization: float = _field(_non_negative)
    gpu_utilization: float = _field(_non_negative)
    energy_joules: float = _field(_non_negative)
    notes: str | None = _field(_text, default=None, kw_only=True)


@dataclass
class ModelCardDocument:
    external_id: str = _field(_name)
    name: str = _field(_name)
    version: str = _field(_name)
    author: str = _field(_name)
    short_description: str = _field(_text)
    full_description: str = _field(_text)
    keywords: list[str] = _field(_keywords)
    input_type: str = _field(_text)
    output_type: str = _field(_text)
    ai_model: AIModelInfo = _nested(_one(AIModelInfo))
    bias_analysis: BiasAnalysis | None = _nested(_one(BiasAnalysis), default=None, kw_only=True)
    xai_analysis: XAIAnalysis | None = _nested(_one(XAIAnalysis), default=None, kw_only=True)
    deployments: list[DeploymentRecord] = _nested(_deployments, default_factory=list)
    documentation_format_version: str = _field(_text, default=DOC_FORMAT_VERSION)


# record class -> one (name, check, required, optional) per field, in wire
# order; a required field must be present, an optional one may be null
_TABLES = {
    cls: tuple(
        (f.name, f.metadata["check"],
         f.default is MISSING and f.default_factory is MISSING, f.default is None)
        for f in fields(cls)
    )
    for cls in (Feature, AIModelInfo, BiasAnalysis, XAIAnalysis, DeploymentRecord,
                ModelCardDocument)
}

# record class -> the fields its node stores as properties, in wire order
PROPERTY_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if not f.metadata.get("nested"))
    for cls in _TABLES
}


def _record(cls, obj, where: str):
    """Parse one record from its field table; ``where`` prefixes error paths."""
    if not isinstance(obj, dict):
        raise SchemaViolationError(where.rstrip("."), "must be an object")
    values = {}
    for name, check, required, optional in _TABLES[cls]:
        if name not in obj or (optional and obj[name] is None):
            if required:
                raise SchemaViolationError(where + name, "missing required field")
            continue  # the dataclass default applies
        values[name] = check(obj[name], where + name)
    return cls(**values)


def _loads(data: bytes | str):
    """``json.loads`` for text from outside the program. Every way that text
    can fail to decode raises ValueError: bad UTF-8 (UnicodeDecodeError), bad
    syntax (JSONDecodeError), an integer literal over the interpreter's digit
    limit, nesting deeper than the recursion limit, or a string holding a lone
    UTF-16 surrogate escape such as ``"\\ud800"`` (it could never be encoded
    back out as UTF-8)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    # UTF-8 cannot carry a surrogate: only a \uD800-\uDFFF escape yields one
    if "\\ud" in data or "\\uD" in data:
        _reject_lone_surrogates(obj)
    return obj


def _reject_lone_surrogates(obj) -> None:
    stack = [obj]
    while stack:  # iterative: the document may nest up to the recursion limit
        item = stack.pop()
        if isinstance(item, str):
            try:
                item.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError("string holds a lone UTF-16 surrogate") from None
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)


def parse_deployment(obj, where: str = "deployment.") -> DeploymentRecord:
    dep = _record(DeploymentRecord, obj, where)
    if dep.end_time is not None and \
            timestamp_order(dep.end_time) < timestamp_order(dep.start_time):
        raise SchemaViolationError(where + "end_time", "precedes start_time")
    return dep


def parse_model_card(data: bytes | str) -> ModelCardDocument:
    """Validate an external card document and build the typed form.
    Unknown top-level keys are ignored."""
    try:
        obj = _loads(data)
    except UnicodeDecodeError as exc:
        raise MalformedJsonError(f"not UTF-8: {exc}") from exc
    except ValueError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaViolationError("<root>", "card document must be a JSON object")
    doc = _record(ModelCardDocument, obj, "")
    expected = compose_mc_id(doc.author, doc.name, doc.version).rendered
    if doc.external_id != expected:
        raise IdMismatchError(
            f"external_id {doc.external_id!r} does not match composed id {expected!r}"
        )
    return doc


# --- relationship inference ---

def infer_relationship_type(src_label: str, dst_label: str) -> str:
    try:
        return SCHEMA_ADJACENCY[(src_label, dst_label)]
    except KeyError:
        raise SchemaViolationError(
            "label pair", f"({src_label}, {dst_label}) has no relationship in the schema"
        ) from None


# --- signposting ---

@dataclass(frozen=True)
class LinkEntry:
    target: str
    rel: str
    media_type: str | None = None


@dataclass(frozen=True)
class LinkSet:
    anchor: str
    links: tuple[LinkEntry, ...]


def card_url(base_url: str, mc_id: str) -> str:
    """Card ``mc_id``'s URL under ``base_url``, the id percent-encoded."""
    return f"{base_url.rstrip('/')}/modelcard/{quote(mc_id, safe='')}"


def build_linkset_from_fields(mc_id: str, model: dict, base_url: str) -> LinkSet:
    """Card ``mc_id``'s linkset from its model's field mapping."""
    if not is_absolute_url(base_url):
        raise ValueError(f"base_url must be absolute, got {base_url!r}")
    anchor = card_url(base_url, mc_id)
    links = [
        LinkEntry(anchor, "cite-as"),
        LinkEntry(anchor, "describedby", "application/json"),
        LinkEntry(model["artifact_location"], "item"),
    ]
    if model.get("container_image_location"):
        links.append(LinkEntry(model["container_image_location"], "item"))
    return LinkSet(anchor=anchor, links=tuple(links))


def linkset_to_jsonable(linkset: LinkSet) -> dict:
    """Linkset document shape: one context object keyed by link relation."""
    context: dict = {"anchor": linkset.anchor}
    for entry in linkset.links:
        target: dict = {"href": entry.target}
        if entry.media_type:
            target["type"] = entry.media_type
        context.setdefault(entry.rel, []).append(target)
    return {"linkset": [context]}


def serialize_link_header(linkset: LinkSet, extra: tuple[LinkEntry, ...] = ()) -> str:
    """Web-linking header value for the linkset plus any extra entries."""
    parts = []
    for entry in tuple(linkset.links) + tuple(extra):
        segment = f'<{entry.target}>; rel="{entry.rel}"'
        if entry.media_type:
            segment += f'; type="{entry.media_type}"'
        parts.append(segment)
    return ", ".join(parts)
