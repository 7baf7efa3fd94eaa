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

Each element is kept as one flat tuple: a node as ``(id, label, shape,
values)``, an edge as ``(src ordinal, rel_type, dst ordinal, (names, values)
or None)``. A shape maps property names to positions in ``values`` and is
shared by every node with the same names; a list value is kept as a tuple.
``NodeRecord`` and ``EdgeRecord`` are built only on the way out, each with a
fresh dict and fresh lists, so mutating one cannot affect the store, and it is
safe to pass between threads.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping
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


def _validate_properties(properties: Mapping[str, Any]) -> tuple[tuple[str, ...], tuple]:
    """Check the property contract: each value is a str, an int, a finite
    float, a bool, or a list of those, so it is already JSON (a timestamp is
    its UTC text, made by the card parser). Returns the names and the values,
    each list value as a tuple."""
    keys, values = [], []
    for key, value in properties.items():
        if not isinstance(key, str) or not key:
            raise InvalidPropertyError(f"property key must be a non-empty string, got {key!r}")
        if isinstance(value, float):
            if not math.isfinite(value):
                raise InvalidPropertyError(f"property {key} is a non-finite float")
        elif isinstance(value, (list, tuple)):
            value = tuple(value)
            for item in value:
                if not isinstance(item, _SCALAR_TYPES):
                    raise InvalidPropertyError(
                        f"property {key} list may only hold scalars, got {type(item).__name__}"
                    )
                if isinstance(item, float) and not math.isfinite(item):
                    raise InvalidPropertyError(f"property {key} list holds a non-finite float")
        elif not isinstance(value, (str, int)):  # a bool is an int
            raise InvalidPropertyError(
                f"property {key} has unsupported type {type(value).__name__}"
            )
        keys.append(key)
        values.append(value)
    return tuple(keys), tuple(values)


def _checked_node(label: str, properties: Mapping[str, Any]) -> tuple[tuple[str, ...], tuple]:
    """A node's properties as a commit or a snapshot load admits them, with
    its label: one non-empty string label, valid properties, and a scalar
    under the label's key."""
    if not isinstance(label, str) or not label:
        raise EmptyLabelsError(f"a node needs one non-empty string label, got {label!r}")
    keys, values = _validate_properties(properties)
    key = KEY_FIELDS.get(label)
    if key in keys and isinstance(values[keys.index(key)], tuple):
        raise InvalidPropertyError(f"{label} key {key} must be a scalar")
    return keys, values


def _record_props(names: Iterable[str], values: tuple) -> dict[str, Any]:
    """A stored element's properties as a fresh dict, each tuple a fresh list."""
    return {k: (list(v) if type(v) is tuple else v) for k, v in zip(names, values)}


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
        # (id, label, names, values) and (id, src, dst, rel_type, properties, ensure_unique)
        self.pending_nodes: list[tuple] = []
        self.pending_edges: list[tuple] = []

    def create_node(self, label: str, properties: Mapping[str, Any]) -> ElementId:
        self._check_open()
        keys, values = _checked_node(label, properties)
        nid = node_id(self._store._next_node_ordinal)
        self._store._next_node_ordinal += 1
        self.pending_nodes.append((nid, label, keys, values))
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
        props = _validate_properties(properties) if properties else None
        eid = edge_id(self._store._next_edge_ordinal)
        self._store._next_edge_ordinal += 1
        self.pending_edges.append((eid, src, dst, rel_type, props, ensure_unique))
        return eid

    def _check_open(self):
        if self.state != "open":
            raise RuntimeError(f"transaction already {self.state}")


class GraphStore:
    def __init__(self):
        self._lock = _RWLock()
        self._nodes: dict[int, tuple] = {}  # ordinal -> (id, label, shape, values)
        # ordinal -> (src, rel_type, dst, (names, values) or None)
        self._edges: dict[int, tuple] = {}
        self._out: dict[int, list[int]] = {}
        self._shapes: dict[tuple[str, ...], dict[str, int]] = {}  # names -> name -> position
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
        staged = {node[0].ordinal for node in tx.pending_nodes}
        for eid, src, dst, rel_type, _, ensure_unique in tx.pending_edges:
            self._check_edge(eid, src, dst, rel_type, staged)
            if ensure_unique and self._edge_exists_unlocked(src, dst, rel_type):
                raise DuplicateEdgeError(f"{rel_type} edge {src} -> {dst} already exists")
        for node in tx.pending_nodes:
            self._add_node(*node)
        for eid, src, dst, rel_type, props, _ in tx.pending_edges:
            self._add_edge(eid.ordinal, src.ordinal, rel_type, dst.ordinal, props)

    def _check_edge(self, eid: ElementId, src: ElementId, dst: ElementId, rel_type: str,
                    staged: set[int]) -> None:
        """An edge as a commit or a snapshot load admits it: a non-empty
        string rel type, and two ends that are stored or ``staged`` nodes."""
        if not isinstance(rel_type, str) or not rel_type:
            raise InvalidPropertyError(f"edge {eid} rel_type must be a non-empty string")
        for endpoint, name in ((src, "src"), (dst, "dst")):
            if endpoint.kind != "node" or (
                endpoint.ordinal not in self._nodes and endpoint.ordinal not in staged
            ):
                raise InvalidPropertyError(
                    f"edge {eid} {name} {endpoint} does not reference an existing node"
                )

    def _add_node(self, nid: ElementId, label: str, keys: tuple[str, ...],
                  values: tuple) -> None:
        shape = self._shapes.get(keys)
        if shape is None:  # shared by every node with these property names
            shape = self._shapes[keys] = {key: i for i, key in enumerate(keys)}
        self._nodes[nid.ordinal] = (nid, label, shape, values)
        key = KEY_FIELDS.get(label)
        if key in shape:
            self._by_key[label].setdefault(values[shape[key]], []).append(nid.ordinal)
        self._maybe_index(nid.ordinal, label, shape, values)

    def _add_edge(self, ordinal: int, src: int, rel_type: str, dst: int,
                  props: tuple | None) -> None:
        self._edges[ordinal] = (src, rel_type, dst, props)
        self._out.setdefault(src, []).append(ordinal)

    def _maybe_index(self, ordinal: int, label: str, shape: dict[str, int],
                     values: tuple) -> None:
        fields: dict[str, str] = {}
        for fname in DEFAULT_INDEXED_FIELDS.get(label, ()):
            if fname not in shape:
                continue
            value = values[shape[fname]]
            fields[fname] = " ".join(map(str, value)) if type(value) is tuple else str(value)
        if fields:
            self._index.add_document(ordinal, fields)

    # --- reads ---

    def read_session(self) -> _ReadSession:
        """Hold the read lock across several queries (one-session retrieval)."""
        return _ReadSession(self._lock)

    def node_label(self, element_id: ElementId) -> str | None:
        with self.read_session():
            if element_id.kind != "node":
                return None
            node = self._nodes.get(element_id.ordinal)
            return node[1] if node else None

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
        edges, target = self._edges, dst.ordinal
        for eord in self._out.get(src.ordinal, ()):
            _, rel, end, _ = edges[eord]
            if end == target and rel == rel_type:
                return True
        return False

    def neighbors(self, node: ElementId, rel_type: str) -> list[NodeRecord]:
        """The targets of ``node``'s outgoing ``rel_type`` edges, in edge
        ordinal order."""
        with self.read_session():
            nodes, edges = self._nodes, self._edges
            return [self._copy_node(nodes[edge[2]])
                    for edge in map(edges.__getitem__, self._out.get(node.ordinal, ()))
                    if edge[1] == rel_type]

    def _ranked_values(
        self, text: str, limit: int, label: str, keys: tuple[str, ...]
    ) -> list[tuple[float, tuple[Any, ...]]]:
        """Ranked search hits that carry ``label``, as (score, the values of
        ``keys``, ``""`` for a missing one), all read under one read lock.
        No record is built: only scalar values leave the store."""
        with self.read_session():
            hits = []
            for ordinal, score in self._index.query(text, limit):
                node = self._nodes.get(ordinal)
                if node is not None and node[1] == label:
                    _, _, shape, values = node
                    hits.append((score, tuple([values[shape[k]] if k in shape else ""
                                               for k in keys])))
            return hits

    def node_count(self) -> int:
        with self.read_session():
            return len(self._nodes)

    def edge_count(self) -> int:
        with self.read_session():
            return len(self._edges)

    def iter_nodes(self) -> Iterator[NodeRecord]:
        with self.read_session():
            records = [self._copy_node(node) for node in self._nodes.values()]
        return iter(records)

    def iter_edges(self) -> Iterator[EdgeRecord]:
        with self.read_session():
            records = [self._copy_edge(ordinal, edge) for ordinal, edge in self._edges.items()]
        return iter(records)

    def _copy_node(self, node: tuple) -> NodeRecord:
        nid, label, shape, values = node
        return NodeRecord(nid, label, _record_props(shape, values))

    def _copy_edge(self, ordinal: int, edge: tuple) -> EdgeRecord:
        src, rel_type, dst, props = edge
        return EdgeRecord(ElementId("edge", ordinal), ElementId("node", src),
                          ElementId("node", dst), rel_type,
                          _record_props(*props) if props else {})

    # --- snapshots ---

    def snapshot_save(self, path: str) -> None:
        """Replace the file at ``path`` with a snapshot, atomically: the bytes
        go to a temporary file in the same directory, reach the disk, and only
        then take the target's name, and the directory reaches the disk after
        the rename, so a crash or a failure at any point leaves either the
        previous file or the new one, never a torn one, and a save that
        returned is not undone by a crash."""
        data = self.snapshot_bytes()
        directory = os.path.dirname(path) or "."
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
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
            for nid, label, shape, values in self._nodes.values():
                obj = {"id": str(nid), "labels": [label], "properties": dict(zip(shape, values))}
                lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False))
            for ordinal, (src, rel_type, dst, props) in self._edges.items():
                obj = {"id": f"e:{ordinal}", "src": f"n:{src}", "dst": f"n:{dst}",
                       "rel_type": rel_type, "properties": dict(zip(*props)) if props else {}}
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
            self._add_node(eid, label, *_checked_node(label, props))
        else:
            if not next(reversed(self._edges), -1) < eid.ordinal < self._next_edge_ordinal:
                raise ValueError(f"edge ordinal {eid.ordinal} out of order or out of range")
            src, dst = ElementId.parse(obj["src"]), ElementId.parse(obj["dst"])
            rel_type = obj["rel_type"]
            self._check_edge(eid, src, dst, rel_type, set())
            self._add_edge(eid.ordinal, src.ordinal, rel_type, dst.ordinal,
                           _validate_properties(props) if props else None)


def _legacy_value(value: Any) -> Any:
    """A snapshot property value as the store keeps it. Older snapshots wrote
    a timestamp as ``{"$ts": text}``, its text already canonical UTC; any
    other object fails ``_validate_properties``."""
    if isinstance(value, dict) and value.keys() == {"$ts"} and isinstance(value["$ts"], str):
        return value["$ts"]
    return value
