import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from mcard_registry.errors import (
    CorruptSnapshotError,
    DuplicateCardError,
    DuplicateExperimentError,
    EmptyLabelsError,
    FileIoError,
    InvalidPropertyError,
    WorkFailedError,
)
from mcard_registry.fulltext import tokenize
from mcard_registry.graphstore import KEY_FIELDS, ElementId, GraphStore, node_id
from mcard_registry.registry import Registry

from conftest import (
    card_dict,
    create_edge,
    create_node,
    deployment_dict,
    ingest_dict,
    nodes_labelled,
)


def test_create_node_first_allocation():
    store = GraphStore()
    nid = create_node(store, "ModelCard", {"external_id": "jdoe-resnet-1.0"})
    assert str(nid) == "n:1"


def test_create_node_empty_labels_rejected():
    store = GraphStore()
    with pytest.raises(EmptyLabelsError):
        create_node(store, set(), {"x": 1})


def test_sequential_creates_get_distinct_ids():
    store = GraphStore()
    first = create_node(store, "A", {})
    second = create_node(store, "A", {})
    assert (str(first), str(second)) == ("n:1", "n:2")


def test_atomic_write_rollback_on_failure():
    store = GraphStore()

    def work(tx):
        tx.create_node("A", {})
        tx.create_node("A", {})
        raise RuntimeError("boom")

    with pytest.raises(WorkFailedError):
        store.atomic_write(work)
    assert store.node_count() == 0


def test_atomic_write_success_returns_result():
    store = GraphStore()
    nid = store.atomic_write(lambda tx: tx.create_node("A", {"k": "v"}))
    assert store.node_count() == 1
    assert [(n.id, n.properties) for n in store.iter_nodes()] == [(nid, {"k": "v"})]


def test_atomic_write_dangling_edge_rejected():
    store = GraphStore()

    def work(tx):
        a = tx.create_node("A", {})
        tx.create_edge(a, node_id(999), "REL")

    with pytest.raises(InvalidPropertyError):
        store.atomic_write(work)
    assert store.node_count() == 0
    assert store.edge_count() == 0


def test_node_labels():
    store = GraphStore()
    single = create_node(store, "ModelCard", {})
    assert store.node_label(single) == "ModelCard"
    assert store.node_label(node_id(404)) is None


def test_edge_exists_is_directed_and_typed():
    store = GraphStore()
    a = create_node(store, "ModelCard", {})
    b = create_node(store, "Model", {})
    create_edge(store, a, b, "HAS_MODEL")
    assert store.edge_exists(a, b, "HAS_MODEL") is True
    assert store.edge_exists(b, a, "HAS_MODEL") is False
    assert store.edge_exists(a, b, "OTHER") is False


def test_neighbors_ordering_and_filters():
    store = GraphStore()
    model = create_node(store, "Model", {})
    deployments = [create_node(store, "Deployment", {"i": i}) for i in range(3)]
    # edges in the reverse of node order: the result follows the edges
    for d in reversed(deployments):
        create_edge(store, model, d, "HAS_DEPLOYMENT")
    create_edge(store, model, deployments[0], "AUDITS")
    out = store.neighbors(model, "HAS_DEPLOYMENT")
    assert [n.id for n in out] == deployments[::-1]
    assert [n.properties["i"] for n in out] == [2, 1, 0]
    assert [n.id for n in store.neighbors(model, "AUDITS")] == deployments[:1]
    assert store.neighbors(model, "NO_SUCH_REL") == []
    assert store.neighbors(deployments[0], "HAS_DEPLOYMENT") == []


def test_records_are_copies():
    store = GraphStore()
    create_node(store, "Device", {"device_id": "d", "tags": ["x"]})
    rec, = store.find_nodes("Device", "d")
    rec.properties["tags"].append("y")
    assert store.find_nodes("Device", "d")[0].properties["tags"] == ["x"]


# --- snapshots ---

def _populated_store():
    store = GraphStore()
    card = create_node(
        store, "ModelCard",
        {"external_id": "a-b-1", "name": "camera trap classifier", "score": 0.5,
         "keywords": ["edge", "wildlife"]},
    )
    model = create_node(store, "Model", {"name": "b"})
    create_edge(store, card, model, "HAS_MODEL", {"weight": 1})
    return store


def test_snapshot_round_trip_preserves_everything(tmp_path):
    store = _populated_store()
    path = tmp_path / "snap.jsonl"
    store.snapshot_save(str(path))
    loaded = GraphStore.snapshot_load(str(path))
    assert loaded.node_count() == store.node_count()
    assert loaded.edge_count() == store.edge_count()
    assert [str(n.id) for n in loaded.iter_nodes()] == [str(n.id) for n in store.iter_nodes()]
    assert loaded._index.query("camera", 10) == store._index.query("camera", 10)
    # next-id counters restored: new allocations continue, never reuse
    fresh = create_node(loaded, "A", {})
    assert fresh.ordinal == 3


def test_snapshot_save_load_save_is_byte_identical(tmp_path):
    store = _populated_store()
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    store.snapshot_save(str(first))
    GraphStore.snapshot_load(str(first)).snapshot_save(str(second))
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_header_line_shape(tmp_path):
    store = _populated_store()
    path = tmp_path / "snap.jsonl"
    store.snapshot_save(str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "format": "mcgraph-snapshot",
        "version": 1,
        "next_node_ordinal": 3,
        "next_edge_ordinal": 2,
    }
    # nodes first, then edges, in ordinal order
    kinds = ["edge" if "src" in json.loads(l) else "node" for l in lines[1:]]
    assert kinds == sorted(kinds, key=lambda k: k == "edge")


def test_snapshot_truncated_file_is_corrupt(tmp_path):
    store = _populated_store()
    path = tmp_path / "snap.jsonl"
    store.snapshot_save(str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 15])
    with pytest.raises(CorruptSnapshotError):
        GraphStore.snapshot_load(str(path))


def test_snapshot_unwritable_path_is_io_error(tmp_path):
    store = _populated_store()
    with pytest.raises(FileIoError):
        store.snapshot_save(str(tmp_path / "no" / "such" / "dir" / "x.jsonl"))


def _fail_encode(store, monkeypatch):
    monkeypatch.setattr(store, "snapshot_bytes", lambda: 1 / 0)
    return ZeroDivisionError


def _fail_fsync(store, monkeypatch):
    def fsync(fd):
        raise OSError(5, "simulated disk failure")
    monkeypatch.setattr("os.fsync", fsync)
    return FileIoError


@pytest.mark.parametrize("inject", [_fail_encode, _fail_fsync])
def test_failed_snapshot_save_keeps_previous_file(tmp_path, monkeypatch, inject):
    store = _populated_store()
    path = tmp_path / "snap.jsonl"
    store.snapshot_save(str(path))
    before = path.read_bytes()
    create_node(store, "Extra", {"k": 1})
    with pytest.raises(inject(store, monkeypatch)):
        store.snapshot_save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snap.jsonl"]


def test_snapshot_load_missing_file_is_io_error(tmp_path):
    with pytest.raises(FileIoError):
        GraphStore.snapshot_load(str(tmp_path / "absent.jsonl"))


def test_snapshot_wrong_format_is_corrupt(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(CorruptSnapshotError):
        GraphStore.snapshot_load(str(path))


# --- invariants ---

def test_referential_integrity_full_scan():
    store = _populated_store()
    node_ids = {n.id for n in store.iter_nodes()}
    for edge in store.iter_edges():
        assert edge.src in node_ids
        assert edge.dst in node_ids


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12))
def test_id_monotonicity_across_rollbacks(plan):
    """Ordinals strictly increase in allocation order; rollback burns them."""
    store = GraphStore()
    seen: list[int] = []
    for n_nodes in plan:
        fail = n_nodes % 2 == 1  # odd steps roll back

        def work(tx, n=n_nodes, fail=fail):
            allocated = [tx.create_node("A", {}) for _ in range(n)]
            if fail:
                raise RuntimeError("injected")
            return allocated

        try:
            ids = store.atomic_write(work)
        except WorkFailedError:
            continue
        seen.extend(i.ordinal for i in ids)
    assert seen == sorted(set(seen))
    committed = [n.id.ordinal for n in store.iter_nodes()]
    assert committed == seen


def _content_lines(snapshot: bytes) -> list[str]:
    # Everything below the header line: the serialized nodes and edges.
    return snapshot.decode("utf-8").splitlines()[1:]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4))
def test_failure_atomicity_snapshot_equality(n_setup, fail_at):
    """A failed mutation sequence leaves every serialized element unchanged.

    The snapshot header's ordinal counters may advance (ids allocated inside
    the rolled-back closure are burned, never reused), so equality is judged
    on the element lines.
    """
    store = GraphStore()
    for i in range(n_setup):
        create_node(store, "Seed", {"i": i})
    before = store.snapshot_bytes()

    def work(tx):
        for step in range(5):
            if step == fail_at:
                raise RuntimeError("injected")
            tx.create_node("X", {"step": step})

    with pytest.raises(WorkFailedError):
        store.atomic_write(work)
    after = store.snapshot_bytes()
    assert _content_lines(after) == _content_lines(before)
    if fail_at == 0:
        # nothing was allocated before the failure, so even the header matches
        assert after == before


def test_index_graph_consistency():
    """Every tokenized term of an indexed field retrieves its node."""
    store = GraphStore()
    texts = [
        ("alpha-one", "night thermal camera"),
        ("beta-two", "speech transcription pipeline"),
        ("gamma-three", "wildlife habitat monitor"),
    ]
    ids = {}
    for ext, desc in texts:
        nid = create_node(
            store, "ModelCard",
            {"external_id": ext, "name": ext, "short_description": desc,
             "full_description": "", "keywords": [], "author": "someone"},
        )
        ids[ext] = nid
    for ext, desc in texts:
        for term in tokenize(desc):
            hits = store._index.query(term, store.node_count())
            assert ids[ext].ordinal in [ordinal for ordinal, _ in hits], (term, ext)


def test_transaction_handle_states():
    store = GraphStore()
    states = {}

    def ok(tx):
        states["during"] = tx.state
        tx.create_node("A", {})

    store.atomic_write(ok)
    assert states["during"] == "open"

    def bad(tx):
        raise RuntimeError("x")

    with pytest.raises(WorkFailedError):
        store.atomic_write(bad)


def test_concurrent_readers_with_writer():
    store = GraphStore()
    create_node(store, "Device", {"device_id": "d", "i": 0})
    stop = threading.Event()
    errors: list[Exception] = []

    def reader():
        while not stop.is_set():
            try:
                for rec in store.find_nodes("Device", "d"):
                    assert "i" in rec.properties
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i in range(1, 50):
        create_node(store, "Device", {"device_id": "d", "i": i})
    stop.set()
    for t in threads:
        t.join(timeout=5)
    assert not errors
    assert store.node_count() == 50


def test_element_id_parse_round_trip():
    for text in ("n:1", "e:42", "n:999999"):
        assert str(ElementId.parse(text)) == text
    for bad in ("x:1", "n:", "n:abc", "nope"):
        with pytest.raises(ValueError):
            ElementId.parse(bad)


def test_node_labels_with_edge_id_is_absent():
    store = GraphStore()
    a = create_node(store, "A", {})
    b = create_node(store, "B", {})
    eid = create_edge(store, a, b, "REL")
    assert store.node_label(eid) is None


def test_blank_label_rejected():
    store = GraphStore()
    with pytest.raises(EmptyLabelsError):
        create_node(store, "", {})


def test_string_label_set_rejected():
    """A node carries one label string; a set of labels is refused."""
    store = GraphStore()
    with pytest.raises(EmptyLabelsError):
        create_node(store, {"Model"}, {})
    assert store.node_count() == 0


# --- identifying-property index ---

KEYED_LABELS = sorted(KEY_FIELDS.items())


def _scanned(store, label, key, value):
    """Brute-force reference: a scan over every node of the store."""
    return [rec for rec in nodes_labelled(store, label) if rec.properties.get(key) == value]


def _keyed_store():
    store = GraphStore()
    for label, key in KEYED_LABELS:
        for i in range(3):
            create_node(store, label, {key: f"{label}-{i}", "i": i})
        # the store does not enforce uniqueness: a repeated value finds both
        create_node(store, label, {key: f"{label}-1", "i": 9})
        create_node(store, label, {"i": 404})  # no key: found by no lookup
    return store


def _assert_index_matches_scan(store, label, key):
    for value in (f"{label}-0", f"{label}-1", f"{label}-404"):
        assert store.find_nodes(label, value) == _scanned(store, label, key, value), value


@pytest.mark.parametrize("label,key", KEYED_LABELS)
def test_key_index_matches_label_scan(label, key):
    store = _keyed_store()
    _assert_index_matches_scan(store, label, key)
    hits = store.find_nodes(label, f"{label}-1")
    assert [rec.properties["i"] for rec in hits] == [1, 9]  # ascending ordinals
    assert store.find_nodes(label, f"{label}-404") == []


@pytest.mark.parametrize("label,key", KEYED_LABELS)
@pytest.mark.parametrize("failure", ["closure raises", "dangling edge at commit"])
def test_key_index_drops_rolled_back_nodes(label, key, failure):
    store = _keyed_store()

    def work(tx):
        staged = tx.create_node(label, {key: f"{label}-1"})
        tx.create_node(label, {key: "staged-only"})
        if failure == "closure raises":
            raise RuntimeError("boom")
        tx.create_edge(staged, node_id(404), "REL")

    expected = WorkFailedError if failure == "closure raises" else InvalidPropertyError
    with pytest.raises(expected):
        store.atomic_write(work)
    assert store.find_nodes(label, "staged-only") == []
    _assert_index_matches_scan(store, label, key)


def test_key_index_rebuilt_by_snapshot_load(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _keyed_store().snapshot_save(str(first))
    loaded = GraphStore.snapshot_load(str(first))
    for label, key in KEYED_LABELS:
        _assert_index_matches_scan(loaded, label, key)
    loaded.snapshot_save(str(second))
    assert first.read_bytes() == second.read_bytes()


def test_registry_on_loaded_snapshot_rejects_duplicates():
    registry = Registry()
    card = card_dict(deployments=[deployment_dict(0, device="shared")])
    ingest_dict(registry, card)
    registry.record_experiment("exp-1")
    loaded = Registry(GraphStore.from_snapshot_bytes(registry.store.snapshot_bytes()))
    with pytest.raises(DuplicateCardError):
        ingest_dict(loaded, card)
    with pytest.raises(DuplicateExperimentError):
        loaded.record_experiment("exp-1")
    ingest_dict(loaded, card_dict(name="other", deployments=[deployment_dict(1, device="shared")]))
    assert len(loaded.store.find_nodes("Device", "shared")) == 1


# --- snapshot line splitting and ordinal order ---

def test_snapshot_survives_unicode_line_separators(tmp_path):
    registry = Registry()
    text = "line\u2028separator, paragraph\u2029separator, next\u0085line"
    mc_id = ingest_dict(registry, card_dict(full_description=text, short_description=text))
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    registry.store.snapshot_save(str(first))
    assert "\u2028".encode() in first.read_bytes()  # written raw, not escaped
    loaded = GraphStore.snapshot_load(str(first))
    loaded.snapshot_save(str(second))
    assert first.read_bytes() == second.read_bytes()
    assert Registry(loaded).retrieve_model_card(mc_id).model_card["full_description"] == text


def test_snapshot_that_is_not_utf8_is_corrupt(tmp_path):
    path = tmp_path / "snap.jsonl"
    path.write_bytes(b"\xff\xfe" + _populated_store().snapshot_bytes())
    with pytest.raises(CorruptSnapshotError):
        GraphStore.snapshot_load(str(path))


def test_snapshot_blank_line_inside_is_corrupt():
    lines = _populated_store().snapshot_bytes().split(b"\n")
    lines.insert(2, b"")
    with pytest.raises(CorruptSnapshotError, match="blank line 3"):
        GraphStore.from_snapshot_bytes(b"\n".join(lines))


@pytest.mark.parametrize("kind,field,value", [
    ("e", "src", "e:1"),  # an edge id where a node id belongs
    ("n", "labels", [""]),
    ("n", "labels", "Device"),
    ("e", "rel_type", 5),
    ("n", "properties", {"p": [{"a": 1}]}),  # a list may hold only scalars
    ("n", "properties", 5),
    ("n", "labels", []),  # a node has exactly one non-empty label
    ("n", "labels", ["A", "B"]),
    ("n", "labels", [1]),
    ("n", "labels", None),
])
def test_snapshot_element_a_commit_would_reject_is_corrupt(kind, field, value):
    store = GraphStore()
    a, b = create_node(store, "A", {}), create_node(store, "A", {})
    create_edge(store, a, b, "R")
    lines = store.snapshot_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines[1:-1], start=1)
              if json.loads(line)["id"].startswith(kind + ":"))
    element = json.loads(lines[at])
    element[field] = value
    lines[at] = json.dumps(element).encode()
    with pytest.raises(CorruptSnapshotError, match=f"malformed element at line {at + 1}"):
        GraphStore.from_snapshot_bytes(b"\n".join(lines))


# A snapshot as the store wrote it when a node held a set of labels: each
# node's "labels" is the sorted list of its one label.
LABEL_SET_SNAPSHOT = "\n".join([
    '{"format": "mcgraph-snapshot", "next_edge_ordinal": 2, "next_node_ordinal": 4, "version": 1}',
    '{"id": "n:1", "labels": ["ModelCard"], "properties": {"external_id": "a-b-1", '
    '"keywords": ["edge", "wildlife"], "name": "camera trap", "score": 0.5}}',
    '{"id": "n:2", "labels": ["Device"], "properties": {"device_id": "dev-1"}}',
    '{"id": "n:3", "labels": ["Model"], "properties": {"name": "b"}}',
    '{"dst": "n:3", "id": "e:1", "properties": {"weight": 1}, "rel_type": "HAS_MODEL", '
    '"src": "n:1"}',
]) + "\n"


def test_label_set_snapshot_loads_and_resaves_byte_equal():
    store = GraphStore.from_snapshot_bytes(LABEL_SET_SNAPSHOT.encode())
    assert [(str(n.id), n.label) for n in store.iter_nodes()] == [
        ("n:1", "ModelCard"), ("n:2", "Device"), ("n:3", "Model")]
    assert [str(n.id) for n in store.find_nodes("Device", "dev-1")] == ["n:2"]
    assert store.snapshot_bytes() == LABEL_SET_SNAPSHOT.encode()


@pytest.mark.parametrize("label,key", KEYED_LABELS)
def test_list_under_a_key_property_is_refused(label, key):
    store = _keyed_store()
    before = store.snapshot_bytes()
    with pytest.raises(InvalidPropertyError):
        create_node(store, label, {key: ["a"]})
    assert _content_lines(store.snapshot_bytes()) == _content_lines(before)
    lines = before.decode().split("\n")
    at = next(i for i, line in enumerate(lines[1:-1], start=1)
              if json.loads(line)["labels"] == [label] and key in json.loads(line)["properties"])
    element = json.loads(lines[at])
    element["properties"][key] = [element["properties"][key]]
    lines[at] = json.dumps(element)
    with pytest.raises(CorruptSnapshotError, match=f"malformed element at line {at + 1}"):
        GraphStore.from_snapshot_bytes("\n".join(lines).encode())


@pytest.mark.parametrize("kind", ["n", "e"])
def test_snapshot_out_of_order_element_is_corrupt(kind):
    store = GraphStore()
    a, b, c = (create_node(store, "A", {"i": i}) for i in range(3))
    create_edge(store, a, b, "R")
    create_edge(store, b, c, "R")
    lines = store.snapshot_bytes().split(b"\n")
    first, second = [i for i, line in enumerate(lines[1:-1], start=1)
                     if json.loads(line)["id"].startswith(kind + ":")][:2]
    lines[first], lines[second] = lines[second], lines[first]
    with pytest.raises(CorruptSnapshotError, match="out of order"):
        GraphStore.from_snapshot_bytes(b"\n".join(lines))


ORDER_LABELS = ("ModelCard", "Device", "Model")
ORDER_RELS = ("HAS_MODEL", "RUNS_ON")
ORDER_VALUES = ("a", "b")

_node_spec = st.tuples(
    st.sampled_from(ORDER_LABELS),
    st.fixed_dictionaries({}, optional={
        key: st.sampled_from(ORDER_VALUES) for key in ("external_id", "device_id", "k")
    }),
)
_edge_spec = st.tuples(st.integers(0, 63), st.integers(0, 63), st.sampled_from(ORDER_RELS))
_tx_spec = st.tuples(
    st.booleans(), st.lists(_node_spec, max_size=3), st.lists(_edge_spec, max_size=3)
)


def _assert_reads_follow(store, nodes, edges):
    """Every read of ``store`` against the reference: ``nodes`` maps each
    committed node id to (label, properties) in creation order, ``edges``
    lists (id, src, dst, rel_type) in creation order."""
    ids = list(nodes)
    assert [(n.id, n.label, n.properties) for n in store.iter_nodes()] == [
        (i, *nodes[i]) for i in ids
    ]
    assert [(e.id, e.src, e.dst, e.rel_type) for e in store.iter_edges()] == edges
    for label, key in KEY_FIELDS.items():  # the key index against a scan
        for value in ORDER_VALUES:
            expected = [n.id for n in nodes_labelled(store, label)
                        if n.properties.get(key) == value]
            assert [n.id for n in store.find_nodes(label, value)] == expected
    for i in ids:
        for rel in ORDER_RELS:
            out = [dst for _, src, dst, r in edges if src == i and r == rel]
            assert [n.id for n in store.neighbors(i, rel)] == out


@settings(max_examples=40, deadline=None)
@given(st.lists(_tx_spec, min_size=1, max_size=8), st.integers(0, 7))
def test_reads_follow_creation_order_across_rollbacks_and_reload(steps, reload_at):
    store = GraphStore()
    nodes: dict[ElementId, tuple[str, dict]] = {}
    edges: list[tuple[ElementId, ElementId, ElementId, str]] = []
    for step, (commit, node_specs, edge_specs) in enumerate(steps):
        if step == reload_at % len(steps):
            store = GraphStore.from_snapshot_bytes(store.snapshot_bytes())
        staged_nodes: dict[ElementId, tuple[str, dict]] = {}
        staged_edges: list[tuple[ElementId, ElementId, ElementId, str]] = []

        def work(tx):
            for label, props in node_specs:
                staged_nodes[tx.create_node(label, props)] = (label, props)
            ends = [*nodes, *staged_nodes]
            for src, dst, rel in edge_specs if ends else ():
                src, dst = ends[src % len(ends)], ends[dst % len(ends)]
                staged_edges.append((tx.create_edge(src, dst, rel), src, dst, rel))
            if not commit:
                raise RuntimeError("roll back")

        if commit:
            store.atomic_write(work)
            nodes.update(staged_nodes)
            edges.extend(staged_edges)
        else:
            with pytest.raises(WorkFailedError):
                store.atomic_write(work)
        _assert_reads_follow(store, nodes, edges)
