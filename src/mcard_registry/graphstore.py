"""Embedded, transactional property-graph engine.

Storage is in-memory maps (id -> node, id -> edge, node -> outgoing edges)
guarded by a single-writer / multi-reader lock. Persistence is a whole-store
snapshot in line-delimited JSON; there is no write-ahead log. Each node
carries exactly one label. Property values are JSON scalars or lists of them
(a timestamp is its UTC text), so a snapshot writes them as they are.
Element ordinals are allocated once per store lifetime and never reused,
including after a rollback. A node is found by its label's identifying
property (``KEY_FIELDS``) through an equality index, so looking a card,
device or experiment up by its id costs the same at any store size; other
nodes are reached along edges. Commits append in ordinal order and a
snapshot load rejects an element out of it, so every map and index list is
kept in ordinal order as it is written, and no read sorts.

Records handed to callers are immutable copies: mutating them cannot affect
the store, and they are safe to pass between threads.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import threading
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from .errors import (
    ApiError,
    CorruptSnapshotError,
    EmptyLabelsError,
    DuplicateEdgeError,
    InvalidPropertyError,
    FileIoError,
    WorkFailedError,
)
from .fulltext import FullTextIndex

SNAPSHOT_FORMAT = "mcgraph-snapshot"
SNAPSHOT_VERSION = 1

# Fields indexed for ranked search, per indexed label.
DEFAULT_INDEXED_FIELDS: dict[str, tuple[str, ...]] = {
    "ModelCard": ("name", "short_description", "full_description", "keywords", "author"),
}

# Identifying property per label: find_nodes looks a node up by its value in
# an equality index. It must be a scalar.
KEY_FIELDS: dict[str, str] = {
    "ModelCard": "external_id",
    "Device": "device_id",
    "Experiment": "experiment_id",
}

_SCALAR_TYPES = (str, int, float, bool)


@dataclass(frozen=True, slots=True)
class ElementId:
    kind: str  # "node" or "edge"
    ordinal: int

    def __str__(self) -> str:
        return f"{'n' if self.kind == 'node' else 'e'}:{self.ordinal}"

    @classmethod
    def parse(cls, text: str) -> "ElementId":
        prefix, _, rest = text.partition(":")
        if prefix not in ("n", "e") or not rest.isdigit():
            raise ValueError(f"not an element id: {text!r}")
        return cls("node" if prefix == "n" else "edge", int(rest))


def node_id(ordinal: int) -> ElementId:
    return ElementId("node", ordinal)


def edge_id(ordinal: int) -> ElementId:
    return ElementId("edge", ordinal)


@dataclass(frozen=True, slots=True)
class NodeRecord:
    id: ElementId
    label: str
    properties: dict[str, Any]


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    id: ElementId
    src: ElementId
    dst: ElementId
    rel_type: str
    properties: dict[str, Any]


def _validate_properties(properties: Mapping[str, Any]) -> dict[str, Any]:
    """Check the property contract: each value is a str, an int, a finite
    float, a bool, or a list of those, so it is already JSON (a timestamp is
    its UTC text, made by the card parser). Returns a defensive copy."""
    out: dict[str, Any] = {}
    for key, value in properties.items():
        if not isinstance(key, str) or not key:
            raise InvalidPropertyError(f"property key must be a non-empty string, got {key!r}")
        if isinstance(value, bool) or isinstance(value, (str, int)):
            out[key] = value
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise InvalidPropertyError(f"property {key} is a non-finite float")
            out[key] = value
        elif isinstance(value, (list, tuple)):
            items = list(value)
            for item in items:
                if not isinstance(item, _SCALAR_TYPES):
                    raise InvalidPropertyError(
                        f"property {key} list may only hold scalars, got {type(item).__name__}"
                    )
                if isinstance(item, float) and not math.isfinite(item):
                    raise InvalidPropertyError(f"property {key} list holds a non-finite float")
            out[key] = items
        else:
            raise InvalidPropertyError(
                f"property {key} has unsupported type {type(value).__name__}"
            )
    return out


def _checked_node(label: str, properties: Mapping[str, Any]) -> dict[str, Any]:
    """A node's properties as a commit or a snapshot load admits them, with
    its label: one non-empty string label, valid properties, and a scalar
    under the label's key."""
    if not isinstance(label, str) or not label:
        raise EmptyLabelsError(f"a node needs one non-empty string label, got {label!r}")
    props = _validate_properties(properties)
    if isinstance(props.get(KEY_FIELDS.get(label)), list):
        raise InvalidPropertyError(f"{label} key {KEY_FIELDS[label]} must be a scalar")
    return props


def _copy_props(props: dict[str, Any]) -> dict[str, Any]:
    return {k: (list(v) if isinstance(v, list) else v) for k, v in props.items()}


class _RWLock:
    """Single-writer / multi-reader lock with re-entrant reads.

    A thread holding the write lock may take read locks freely; nested read
    acquisitions by one thread are counted, not re-acquired.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None
        self._pending_writers = 0
        self._local = threading.local()

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def acquire_read(self) -> None:
        me = threading.get_ident()
        if self._writer == me or self._depth() > 0:
            self._local.depth = self._depth() + 1
            return
        with self._cond:
            while self._writer is not None or self._pending_writers > 0:
                self._cond.wait()
            self._readers += 1
        self._local.depth = 1

    def release_read(self) -> None:
        depth = self._depth()
        if depth <= 0:
            raise RuntimeError("release_read without acquire_read")
        self._local.depth = depth - 1
        if depth == 1 and self._writer != threading.get_ident():
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        if self._writer == me:
            raise RuntimeError("write lock is not re-entrant")
        if self._depth() > 0:
            raise RuntimeError("cannot upgrade a read lock to a write lock")
        with self._cond:
            self._pending_writers += 1
            try:
                while self._writer is not None or self._readers > 0:
                    self._cond.wait()
                self._writer = me
            finally:
                self._pending_writers -= 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by non-owner")
            self._writer = None
            self._cond.notify_all()


class _ReadSession:
    def __init__(self, lock: _RWLock):
        self._lock = lock

    def __enter__(self):
        self._lock.acquire_read()
        return self

    def __exit__(self, *exc):
        self._lock.release_read()
        return False


class WriteTransaction:
    """Mutation buffer handed to ``atomic_write`` closures.

    Ordinals are allocated eagerly, so a rolled-back transaction burns them;
    that is what keeps ids unique over the store's whole lifetime.
    """

    def __init__(self, store: "GraphStore"):
        self._store = store
        self.state = "open"
        self.pending_nodes: list[NodeRecord] = []
        self.pending_edges: list[tuple[EdgeRecord, bool]] = []

    def create_node(self, label: str, properties: Mapping[str, Any]) -> ElementId:
        self._check_open()
        props = _checked_node(label, properties)
        nid = node_id(self._store._next_node_ordinal)
        self._store._next_node_ordinal += 1
        self.pending_nodes.append(NodeRecord(nid, label, props))
        return nid

    def create_edge(
        self,
        src: ElementId,
        dst: ElementId,
        rel_type: str,
        properties: Mapping[str, Any] | None = None,
        ensure_unique: bool = False,
    ) -> ElementId:
        self._check_open()
        props = _validate_properties(properties or {})
        eid = edge_id(self._store._next_edge_ordinal)
        self._store._next_edge_ordinal += 1
        self.pending_edges.append((EdgeRecord(eid, src, dst, rel_type, props), ensure_unique))
        return eid

    def _check_open(self):
        if self.state != "open":
            raise RuntimeError(f"transaction already {self.state}")


class GraphStore:
    def __init__(self):
        self._lock = _RWLock()
        self._nodes: dict[int, NodeRecord] = {}
        self._edges: dict[int, EdgeRecord] = {}
        self._out: dict[int, list[int]] = {}
        self._next_node_ordinal = 1
        self._next_edge_ordinal = 1
        self._index = FullTextIndex()
        # label -> key value -> node ordinals, for the labels in KEY_FIELDS
        self._by_key: dict[str, dict[Any, list[int]]] = {label: {} for label in KEY_FIELDS}

    # --- transactions ---

    def atomic_write(self, work: Callable[[WriteTransaction], Any]) -> Any:
        """Run ``work(tx)`` and commit its staged mutations atomically.

        On any failure (the closure raising, or commit-time validation such
        as a dangling edge) the store is left exactly as before. An ApiError
        is re-raised as itself; any other exception is raised as a
        WorkFailedError carrying it as ``cause``.
        """
        self._lock.acquire_write()
        tx = WriteTransaction(self)
        try:
            result = work(tx)
            self._commit(tx)
            tx.state = "committed"
            return result
        except BaseException as exc:
            tx.state = "rolled-back"
            if isinstance(exc, ApiError):
                raise
            raise WorkFailedError(f"mutation closure failed: {exc}", cause=exc) from exc
        finally:
            self._lock.release_write()

    def _commit(self, tx: WriteTransaction) -> None:
        staged = {rec.id.ordinal for rec in tx.pending_nodes}
        for edge, ensure_unique in tx.pending_edges:
            self._check_edge(edge, staged)
            if ensure_unique and self._edge_exists_unlocked(edge.src, edge.dst, edge.rel_type):
                raise DuplicateEdgeError(
                    f"{edge.rel_type} edge {edge.src} -> {edge.dst} already exists"
                )
        for rec in tx.pending_nodes:
            self._add_node(rec)
        for edge, _ in tx.pending_edges:
            self._add_edge(edge)

    def _check_edge(self, edge: EdgeRecord, staged: set[int]) -> None:
        """An edge as a commit or a snapshot load admits it: a non-empty
        string rel type, and two ends that are stored or ``staged`` nodes."""
        if not isinstance(edge.rel_type, str) or not edge.rel_type:
            raise InvalidPropertyError(f"edge {edge.id} rel_type must be a non-empty string")
        for endpoint, name in ((edge.src, "src"), (edge.dst, "dst")):
            if endpoint.kind != "node" or (
                endpoint.ordinal not in self._nodes and endpoint.ordinal not in staged
            ):
                raise InvalidPropertyError(
                    f"edge {edge.id} {name} {endpoint} does not reference an existing node"
                )

    def _add_node(self, rec: NodeRecord) -> None:
        ordinal = rec.id.ordinal
        self._nodes[ordinal] = rec
        key = KEY_FIELDS.get(rec.label)
        if key in rec.properties:
            self._by_key[rec.label].setdefault(rec.properties[key], []).append(ordinal)
        self._maybe_index(rec)

    def _add_edge(self, rec: EdgeRecord) -> None:
        ordinal = rec.id.ordinal
        self._edges[ordinal] = rec
        self._out.setdefault(rec.src.ordinal, []).append(ordinal)

    def _maybe_index(self, rec: NodeRecord) -> None:
        fields: dict[str, str] = {}
        for fname in DEFAULT_INDEXED_FIELDS.get(rec.label, ()):
            value = rec.properties.get(fname)
            if value is None:
                continue
            if isinstance(value, list):
                fields[fname] = " ".join(str(v) for v in value)
            else:
                fields[fname] = str(value)
        if fields:
            self._index.add_document(rec.id.ordinal, fields)

    # --- reads ---

    def read_session(self) -> _ReadSession:
        """Hold the read lock across several queries (one-session retrieval)."""
        return _ReadSession(self._lock)

    def node_label(self, element_id: ElementId) -> str | None:
        with self.read_session():
            if element_id.kind != "node":
                return None
            rec = self._nodes.get(element_id.ordinal)
            return rec.label if rec else None

    def find_nodes(self, label: str, key: Any) -> list[NodeRecord]:
        """The ``label`` nodes whose ``KEY_FIELDS[label]`` property equals
        ``key``, in ordinal order, from the equality index."""
        with self.read_session():
            ordinals = self._by_key[label].get(key, ())
            return [self._copy_node(self._nodes[ordinal]) for ordinal in ordinals]

    def edge_exists(self, src: ElementId, dst: ElementId, rel_type: str) -> bool:
        with self.read_session():
            return self._edge_exists_unlocked(src, dst, rel_type)

    def _edge_exists_unlocked(self, src: ElementId, dst: ElementId, rel_type: str) -> bool:
        for eord in self._out.get(src.ordinal, ()):
            edge = self._edges[eord]
            if edge.dst.ordinal == dst.ordinal and edge.rel_type == rel_type:
                return True
        return False

    def neighbors(self, node: ElementId, rel_type: str) -> list[NodeRecord]:
        """The targets of ``node``'s outgoing ``rel_type`` edges, in edge
        ordinal order."""
        with self.read_session():
            edges = (self._edges[eord] for eord in self._out.get(node.ordinal, ()))
            return [self._copy_node(self._nodes[edge.dst.ordinal]) for edge in edges
                    if edge.rel_type == rel_type]

    def _ranked_values(
        self, text: str, limit: int, label: str, keys: tuple[str, ...]
    ) -> list[tuple[float, tuple[Any, ...]]]:
        """Ranked search hits that carry ``label``, as (score, the values of
        ``keys``, ``""`` for a missing one), all read under one read lock.
        No record is copied: only scalar values leave the store."""
        with self.read_session():
            hits = []
            for ordinal, score in self._index.query(text, limit):
                rec = self._nodes.get(ordinal)
                if rec is not None and rec.label == label:
                    hits.append((score, tuple(rec.properties.get(k, "") for k in keys)))
            return hits

    def node_count(self) -> int:
        with self.read_session():
            return len(self._nodes)

    def edge_count(self) -> int:
        with self.read_session():
            return len(self._edges)

    def iter_nodes(self) -> Iterator[NodeRecord]:
        with self.read_session():
            records = [self._copy_node(rec) for rec in self._nodes.values()]
        return iter(records)

    def iter_edges(self) -> Iterator[EdgeRecord]:
        with self.read_session():
            records = [self._copy_edge(rec) for rec in self._edges.values()]
        return iter(records)

    def _copy_node(self, rec: NodeRecord) -> NodeRecord:
        return NodeRecord(rec.id, rec.label, _copy_props(rec.properties))

    def _copy_edge(self, rec: EdgeRecord) -> EdgeRecord:
        return EdgeRecord(rec.id, rec.src, rec.dst, rec.rel_type, _copy_props(rec.properties))

    # --- snapshots ---

    def snapshot_save(self, path: str) -> None:
        """Replace the file at ``path`` with a snapshot, atomically: the bytes
        go to a temporary file in the same directory, reach the disk, and only
        then take the target's name, so a crash or a failure at any point
        leaves either the previous file or the new one, never a torn one."""
        data = self.snapshot_bytes()
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=os.path.dirname(path) or ".")
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            raise FileIoError(f"cannot write snapshot to {path}: {exc}") from exc
        finally:
            if tmp is not None and os.path.exists(tmp):  # not replaced: a failure
                os.unlink(tmp)

    def snapshot_bytes(self) -> bytes:
        """Deterministic serialization; equal stores yield equal bytes."""
        with self.read_session():
            header = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
                      "next_node_ordinal": self._next_node_ordinal,
                      "next_edge_ordinal": self._next_edge_ordinal}
            lines = [json.dumps(header, sort_keys=True)]
            for rec in (*self._nodes.values(), *self._edges.values()):
                obj = {"id": str(rec.id), "properties": rec.properties}
                if isinstance(rec, NodeRecord):
                    obj["labels"] = [rec.label]
                else:
                    obj.update(src=str(rec.src), dst=str(rec.dst), rel_type=rec.rel_type)
                lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def snapshot_load(cls, path: str) -> "GraphStore":
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise FileIoError(f"cannot read snapshot from {path}: {exc}") from exc
        try:
            return cls.from_snapshot_bytes(data)
        except CorruptSnapshotError as exc:
            raise CorruptSnapshotError(f"snapshot {path}: {exc.detail}") from exc

    @classmethod
    def from_snapshot_bytes(cls, data: bytes) -> "GraphStore":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptSnapshotError(f"not UTF-8: {exc}") from exc
        # records end at "\n" only: U+2028 and friends may sit raw in a string
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        if not lines:
            raise CorruptSnapshotError("empty snapshot")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CorruptSnapshotError(f"unreadable header: {exc}") from exc
        if (
            not isinstance(header, dict)
            or header.get("format") != SNAPSHOT_FORMAT
            or header.get("version") != SNAPSHOT_VERSION
        ):
            raise CorruptSnapshotError("not a mcgraph snapshot or unsupported version")
        store = cls()
        try:
            store._next_node_ordinal = int(header["next_node_ordinal"])
            store._next_edge_ordinal = int(header["next_edge_ordinal"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError("header missing ordinal counters") from exc
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                raise CorruptSnapshotError(f"blank line {lineno} inside snapshot")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptSnapshotError(f"unreadable line {lineno}: {exc}") from exc
            try:
                store._load_element(obj)
            except (ApiError, AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CorruptSnapshotError(f"malformed element at line {lineno}: {exc}") from exc
        return store

    def _load_element(self, obj: dict) -> None:
        eid = ElementId.parse(obj["id"])
        props = {key: _legacy_value(value) for key, value in obj["properties"].items()}
        if eid.kind == "node":
            if not next(reversed(self._nodes), -1) < eid.ordinal < self._next_node_ordinal:
                raise ValueError(f"node ordinal {eid.ordinal} out of order or out of range")
            labels = obj["labels"]
            if not isinstance(labels, list) or len(labels) != 1:
                raise ValueError(f"labels must be a list of one label, got {labels!r}")
            # interned: every node of a label shares one string, as after ingest
            label = sys.intern(labels[0])
            self._add_node(NodeRecord(eid, label, _checked_node(label, props)))
        else:
            if not next(reversed(self._edges), -1) < eid.ordinal < self._next_edge_ordinal:
                raise ValueError(f"edge ordinal {eid.ordinal} out of order or out of range")
            rec = EdgeRecord(eid, ElementId.parse(obj["src"]), ElementId.parse(obj["dst"]),
                             obj["rel_type"], _validate_properties(props))
            self._check_edge(rec, set())
            self._add_edge(rec)


def _legacy_value(value: Any) -> Any:
    """A snapshot property value as the store keeps it. Older snapshots wrote
    a timestamp as ``{"$ts": text}``, its text already canonical UTC; any
    other object fails ``_validate_properties``."""
    if isinstance(value, dict) and value.keys() == {"$ts"} and isinstance(value["$ts"], str):
        return value["$ts"]
    return value
