import json
from datetime import datetime, timedelta, timezone

import pytest
import requests.utils
from hypothesis import given, settings, strategies as st

from mcard_registry.cards import (
    LIFECYCLE_STAGES,
    SCHEMA_ADJACENCY,
    build_linkset_from_fields,
    compose_mc_id,
    infer_relationship_type,
    linkset_to_jsonable,
    parse_deployment,
    parse_model_card,
    serialize_link_header,
    timestamp_order,
)
from mcard_registry.errors import (
    ApiError,
    EmptyComponentError,
    IdMismatchError,
    MalformedJsonError,
    SchemaViolationError,
)

from conftest import card_dict, deployment_dict


# --- id composition ---

def test_compose_direct():
    assert compose_mc_id("jdoe", "resnet", "1.0").rendered == "jdoe-resnet-1.0"


def test_compose_sanitizes_whitespace_and_case():
    assert compose_mc_id("J Doe", "My Model", "2").rendered == "j_doe-my_model-2"
    assert compose_mc_id("  a\t b ", "x", "1").rendered == "a_b-x-1"


def test_compose_empty_component():
    with pytest.raises(EmptyComponentError):
        compose_mc_id("", "x", "1")
    with pytest.raises(EmptyComponentError):
        compose_mc_id("a", "   ", "1")


def test_compose_refuses_a_slash():
    with pytest.raises(SchemaViolationError) as info:
        compose_mc_id("a", "b/linkset", "1")
    assert info.value.field == "model_name"


_component = st.text(
    alphabet=st.sampled_from("abcdefgxyz0123456789_ ."), min_size=1, max_size=8
).filter(lambda s: s.strip())


@settings(max_examples=200)
@given(_component, _component, _component, _component, _component, _component)
def test_compose_injective_over_sanitized_triples(a1, m1, v1, a2, m2, v2):
    one = compose_mc_id(a1, m1, v1)
    two = compose_mc_id(a2, m2, v2)
    if (one.author, one.model_name, one.version) != (two.author, two.model_name, two.version):
        assert one.rendered != two.rendered
    else:
        assert one.rendered == two.rendered
    assert " " not in one.rendered


# --- document parsing ---

def test_parse_minimal_card():
    doc = parse_model_card(json.dumps(card_dict()))
    assert doc.external_id == "jdoe-resnet-1.0"
    assert doc.deployments == []
    assert doc.bias_analysis is None
    assert doc.xai_analysis is None
    assert doc.ai_model.test_accuracy == 0.91


def test_parse_accepts_bytes():
    doc = parse_model_card(json.dumps(card_dict()).encode("utf-8"))
    assert doc.name == "resnet"


def test_parse_accuracy_out_of_range():
    card = card_dict()
    card["ai_model"]["test_accuracy"] = 1.3
    with pytest.raises(SchemaViolationError) as excinfo:
        parse_model_card(json.dumps(card))
    assert excinfo.value.field == "ai_model.test_accuracy"


def test_parse_malformed_json():
    with pytest.raises(MalformedJsonError):
        parse_model_card(b"{not json")


def test_parse_id_mismatch():
    card = card_dict()
    card["external_id"] = "someone-else-9.9"
    with pytest.raises(IdMismatchError):
        parse_model_card(json.dumps(card))


def test_parse_relative_artifact_url_rejected():
    card = card_dict()
    card["ai_model"]["artifact_location"] = "models/resnet.pt"
    with pytest.raises(SchemaViolationError):
        parse_model_card(json.dumps(card))


def test_parse_bad_lifecycle_stage():
    card = card_dict()
    card["ai_model"]["lifecycle_stage"] = "retired"
    with pytest.raises(SchemaViolationError):
        parse_model_card(json.dumps(card))
    assert set(LIFECYCLE_STAGES) == {
        "program_object", "serialized_object", "model_image", "inference_execution_instance"
    }


def test_parse_deployment_end_before_start():
    dep = deployment_dict(0)
    dep["end_time"] = "2023-01-01T00:00:00Z"
    card = card_dict(deployments=[dep])
    with pytest.raises(SchemaViolationError):
        parse_model_card(json.dumps(card))


@pytest.mark.parametrize("text,canonical", [
    ("2024-01-01T00:00:00Z", "2024-01-01T00:00:00Z"),
    ("2024-01-01T02:00:00+02:00", "2024-01-01T00:00:00Z"),
    ("2024-01-01T00:00:00.5Z", "2024-01-01T00:00:00.500000Z"),
    ("2024-01-01T00:00:00.000000-00:30", "2024-01-01T00:30:00Z"),
])
def test_timestamps_parse_to_canonical_utc_text(text, canonical):
    assert parse_deployment(deployment_dict(0, start_time=text, end_time=None)).start_time \
        == canonical


def test_end_time_half_a_second_before_start_time_is_rejected():
    # as plain text "...:00Z" sorts after "...:00.500000Z"
    dep = deployment_dict(0, start_time="2024-01-01T00:00:00.5Z",
                          end_time="2024-01-01T00:00:00Z")
    assert _outcome(parse_deployment, dep) == _sv("deployment.end_time", "precedes start_time")


_offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes)))
_instants = st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                         timezones=_offsets)


def _canonical(moment: datetime, timespec: str) -> str:
    text = moment.isoformat(timespec=timespec)
    return parse_deployment(deployment_dict(0, start_time=text, end_time=None)).start_time


@st.composite
def _instant_pairs(draw):
    """Two instants: unrelated, or within a second or two of each other (the
    pairs whose text shares its first 19 characters), at any offsets."""
    a = draw(_instants)
    if draw(st.booleans()):
        return a, draw(_instants)
    b = a.replace(microsecond=draw(st.sampled_from([0, a.microsecond]) | st.integers(0, 999_999)))
    b += timedelta(seconds=draw(st.integers(-1, 1)))
    return a, b.astimezone(draw(_offsets))


@settings(max_examples=300)
@given(_instant_pairs(), st.sampled_from(["auto", "microseconds"]))
def test_timestamp_order_agrees_with_instant_order(pair, timespec):
    a, b = pair
    text_a, text_b = _canonical(a, timespec), _canonical(b, timespec)
    assert datetime.fromisoformat(text_a.replace("Z", "+00:00")) == a
    assert (timestamp_order(text_a) < timestamp_order(text_b)) == (a < b)
    assert (timestamp_order(text_a) == timestamp_order(text_b)) == (a == b)


_timestamp_like = (
    st.from_regex(r"\A[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]{1,7})?"
                  r"(Z|[+-][0-9]{2}:[0-9]{2})?\Z")
    # at the ends of the datetime range, where an offset can overflow it
    | st.from_regex(r"\A(0001-01-01T00|9999-12-31T23):[0-9]{2}:[0-9]{2}"
                    r"(Z|[+-][0-9]{2}:[0-9]{2})\Z")
)


@settings(max_examples=300)
@given(st.sampled_from(["start_time", "end_time"]), st.one_of(st.text(), _timestamp_like))
def test_any_timestamp_text_parses_or_is_a_schema_violation(key, text):
    try:
        parse_deployment(deployment_dict(0, **{key: text}))
    except SchemaViolationError:
        pass


def test_parse_negative_metric_rejected():
    dep = deployment_dict(0, mean_latency_ms=-1.0)
    card = card_dict(deployments=[dep])
    with pytest.raises(SchemaViolationError):
        parse_model_card(json.dumps(card))


def test_unknown_top_level_keys_are_ignored():
    card = card_dict()
    annotated = dict(card, custom_annotation={"anything": [1, 2, 3]})
    assert parse_model_card(json.dumps(annotated)) == parse_model_card(json.dumps(card))


# --- field-by-field characterisation ---
#
# One row per (field, fault): the JSON value put at the field's path (DELETE
# removes the key) and the exact (code, detail) the parser answers, or None
# when the card is accepted. Rows marked NEW are inputs that used to escape
# as TypeError / OverflowError (a 500 over HTTP) and now get a schema error;
# rows marked CHANGED are non-list top_features that used to be iterated
# (a string per character, an object per key) and are now rejected whole.
# Rows commented "accepted" pin string fields that used to take any JSON
# value (as str(value), or "" for analysis notes) and now want a string;
# they keep their ids so the suite names the same tests before and after.

DELETE = object()
BIG = 10 ** 400  # an integer no float can hold


def _full_card() -> dict:
    """A card with every optional field present, so each can be faulted."""
    card = card_dict(deployments=[deployment_dict(0, notes="calm")])
    card["ai_model"]["container_image_location"] = "https://images.example.org/resnet:1.0"
    card["bias_analysis"] = {"demographic_parity": 0.8, "equal_odds": 0.7, "notes": "n"}
    card["xai_analysis"] = {
        "method": "shap",
        "top_features": [{"name": "ear_shape", "importance": 0.4}],
        "notes": "x",
    }
    return card


def _sv(path: str, reason: str) -> tuple[str, str]:
    return ("SCHEMA_VIOLATION", f"{path}: {reason}")


def _name_faults(path):  # required non-blank string
    return [("missing", DELETE, _sv(path, "missing required field")),
            ("wrong-type", 5, _sv(path, "expected str")),
            ("blank", "  ", _sv(path, "must be non-empty"))]


def _text_faults(path):  # required string, blank allowed
    return [("missing", DELETE, _sv(path, "missing required field")),
            ("wrong-type", 5, _sv(path, "expected str")),
            ("blank", "", None)]


def _number_faults(path):  # required finite number
    return [("missing", DELETE, _sv(path, "missing required field")),
            ("wrong-type", "0.5", _sv(path, "expected a number")),
            ("bool", True, _sv(path, "expected a number")),
            ("nan", float("nan"), _sv(path, "must be finite")),
            ("NEW-too-big", BIG, _sv(path, "must be finite"))]


def _non_negative_faults(path):
    return _number_faults(path) + [
        ("infinite", float("inf"), _sv(path, "must be finite")),
        ("negative", -1.0, _sv(path, "must be non-negative")),
        ("int", 3, None)]


def _timestamp_faults(path):
    return [("wrong-type", 5, _sv(path, "expected str")),
            ("not-a-timestamp", "yesterday", _sv(path, "not an ISO-8601 UTC timestamp")),
            ("no-timezone", "2024-01-01T00:00:00",
             _sv(path, "not an ISO-8601 UTC timestamp")),
            # valid text whose UTC instant falls before year 1 or after 9999
            ("NEW-before-year-1", "0001-01-01T00:00:00+01:00",
             _sv(path, "not an ISO-8601 UTC timestamp")),
            ("NEW-after-year-9999", "9999-12-31T23:30:00-01:00",
             _sv(path, "not an ISO-8601 UTC timestamp"))]


def _deployment_faults(prefix):
    rows = []
    for key in ("deployment_id", "device_id"):
        rows += [(key, *row) for row in _name_faults(prefix + key)]
    rows += [("start_time", "missing", DELETE, _sv(prefix + "start_time", "missing required field")),
             ("start_time", "blank", " ", _sv(prefix + "start_time", "must be non-empty"))]
    rows += [("start_time", *row) for row in _timestamp_faults(prefix + "start_time")]
    rows += [("end_time", "missing", DELETE, None),
             ("end_time", "null", None, None),
             ("end_time", "blank", "", _sv(prefix + "end_time", "must be non-empty")),
             ("end_time", "before-start", "2023-01-01T00:00:00Z",
              _sv(prefix + "end_time", "precedes start_time"))]
    rows += [("end_time", *row) for row in _timestamp_faults(prefix + "end_time")]
    rows += [("location", *row) for row in _text_faults(prefix + "location")]
    for key in ("mean_latency_ms", "mean_accuracy", "cpu_utilization",
                "gpu_utilization", "energy_joules"):
        rows += [(key, *row) for row in _non_negative_faults(prefix + key)]
    key = "requests_served"
    rows += [(key, "missing", DELETE, _sv(prefix + key, "missing required field")),
             (key, "wrong-type", 1.5, _sv(prefix + key, "expected an integer")),
             (key, "bool", True, _sv(prefix + key, "expected an integer")),
             (key, "negative", -1, _sv(prefix + key, "must be non-negative")),
             (key, "NEW-too-big", BIG, _sv(prefix + key, "must be finite"))]
    rows += [("notes", "missing", DELETE, None),
             ("notes", "null", None, None),
             ("notes", "wrong-type", 5, _sv(prefix + "notes", "expected str"))]
    return rows


def _card_rows():
    rows = []  # (path tuple, fault name, value, expected)
    for key in ("external_id", "name", "version", "author"):
        rows += [((key,), *row) for row in _name_faults(key)]
    rows += [(("name",), "id-mismatch", "other", (
        "ID_MISMATCH", "external_id 'jdoe-resnet-1.0' does not match composed id "
                       "'jdoe-other-1.0'"))]
    for key in ("short_description", "full_description", "input_type", "output_type"):
        rows += [((key,), *row) for row in _text_faults(key)]
    rows += [(("keywords",), "missing", DELETE, _sv("keywords", "missing required field")),
             (("keywords",), "wrong-type", "wildlife", _sv("keywords", "expected list")),
             (("keywords",), "not-strings", ["a", 1], _sv("keywords", "must be a list of strings")),
             (("keywords",), "blank", [], None)]
    path = "documentation_format_version"
    rows += [((path,), "missing", DELETE, None),
             ((path,), "number", 2, _sv(path, "expected str")),  # was accepted as "2"
             ((path,), "null", None, _sv(path, "expected str"))]
    rows += [(("ai_model",), "missing", DELETE, _sv("ai_model", "missing required field")),
             (("ai_model",), "wrong-type", "x", _sv("ai_model", "must be an object")),
             (("ai_model",), "null", None, _sv("ai_model", "must be an object"))]
    for key in ("name", "version", "owner", "license", "framework", "model_type"):
        rows += [(("ai_model", key), *row) for row in _name_faults("ai_model." + key)]
    path = "ai_model.artifact_location"
    rows += [(("ai_model", "artifact_location"), *row) for row in _name_faults(path)]
    rows += [(("ai_model", "artifact_location"), "not-a-url", "models/x.pt",
              _sv(path, "must be an absolute URL"))]
    path = "ai_model.container_image_location"
    rows += [(("ai_model", "container_image_location"), fault, value, expected)
             for fault, value, expected in [
                 ("missing", DELETE, None),
                 ("null", None, None),
                 ("wrong-type", 5, _sv(path, "must be an absolute URL")),
                 ("blank", "", _sv(path, "must be an absolute URL")),
                 ("not-a-url", "images/x", _sv(path, "must be an absolute URL"))]]
    path = "ai_model.test_accuracy"
    rows += [(("ai_model", "test_accuracy"), *row) for row in _number_faults(path)]
    rows += [(("ai_model", "test_accuracy"), "above-range", 1.3, _sv(path, "out of range [0, 1]")),
             (("ai_model", "test_accuracy"), "below-range", -0.1, _sv(path, "out of range [0, 1]")),
             (("ai_model", "test_accuracy"), "int", 1, None)]
    path = "ai_model.lifecycle_stage"
    rows += [(("ai_model", "lifecycle_stage"), *row) for row in _name_faults(path)]
    rows += [(("ai_model", "lifecycle_stage"), "unknown-stage", "retired",
              _sv(path, "unknown stage 'retired'"))]
    rows += [(("bias_analysis",), "missing", DELETE, None),
             (("bias_analysis",), "null", None, None),
             (("bias_analysis",), "wrong-type", 5, _sv("bias_analysis", "must be an object"))]
    for key in ("demographic_parity", "equal_odds"):
        rows += [(("bias_analysis", key), *row) for row in _number_faults("bias_analysis." + key)]
    rows += [(("bias_analysis", "demographic_parity"), "negative", -5, None)]
    for parent in ("bias_analysis", "xai_analysis"):
        path = parent + ".notes"
        rows += [((parent, "notes"), "missing", DELETE, None),
                 # both were accepted as ""
                 ((parent, "notes"), "null", None, _sv(path, "expected str")),
                 ((parent, "notes"), "wrong-type", 5, _sv(path, "expected str"))]
    rows += [(("xai_analysis",), "missing", DELETE, None),
             (("xai_analysis",), "wrong-type", [], _sv("xai_analysis", "must be an object"))]
    rows += [(("xai_analysis", "method"), *row) for row in _name_faults("xai_analysis.method")]
    path = "xai_analysis.top_features"
    rows += [(("xai_analysis", "top_features"), "missing", DELETE, None),
             (("xai_analysis", "top_features"), "blank", [], None),
             (("xai_analysis", "top_features"), "NEW-null", None, _sv(path, "must be a list")),
             (("xai_analysis", "top_features"), "NEW-number", 5, _sv(path, "must be a list")),
             (("xai_analysis", "top_features"), "NEW-bool", True, _sv(path, "must be a list")),
             (("xai_analysis", "top_features"), "CHANGED-string", "ab", _sv(path, "must be a list")),
             (("xai_analysis", "top_features"), "CHANGED-object", {}, _sv(path, "must be a list")),
             (("xai_analysis", "top_features"), "entry-wrong-type", [5],
              _sv(path + "[0]", "expected {name, importance}")),
             (("xai_analysis", "top_features"), "entry-missing-importance", [{"name": "a"}],
              _sv(path + "[0]", "expected {name, importance}"))]
    path += "[0].importance"
    rows += [(("xai_analysis", "top_features", 0, "importance"), fault, value, expected)
             for fault, value, expected in [
                 ("wrong-type", "x", _sv(path, "expected a number")),
                 ("bool", False, _sv(path, "expected a number")),
                 ("nan", float("nan"), _sv(path, "must be finite")),
                 ("NEW-too-big", BIG, _sv(path, "must be finite"))]]
    path = "xai_analysis.top_features[0].name"
    rows += [(("xai_analysis", "top_features", 0, "name"), "number", 7,
              _sv(path, "expected str")),  # was accepted as "7"
             (("xai_analysis", "top_features", 0, "name"), "null", None, _sv(path, "expected str"))]
    rows += [(("deployments",), "missing", DELETE, None),
             (("deployments",), "wrong-type", "x", _sv("deployments", "must be a list")),
             (("deployments",), "null", None, _sv("deployments", "must be a list")),
             (("deployments", 0), "wrong-type", 5, _sv("deployments[0]", "must be an object"))]
    rows += [(("deployments", 0, key), fault, value, expected)
             for key, fault, value, expected in _deployment_faults("deployments[0].")]
    return rows


def _with(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for step in path[:-1]:
        target = target[step]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return obj


def _outcome(parse, obj):
    try:
        parse(obj)
    except ApiError as exc:
        return exc.code, exc.detail
    return None


CARD_ROWS = _card_rows()


@pytest.mark.parametrize(
    "path,value,expected",
    [pytest.param(path, value, expected, id=".".join(map(str, path)) + ":" + fault)
     for path, fault, value, expected in CARD_ROWS])
def test_card_field_fault(path, value, expected):
    card = _with(_full_card(), path, value)
    assert _outcome(lambda c: parse_model_card(json.dumps(c)), card) == expected


@pytest.mark.parametrize(
    "key,value,expected",
    [pytest.param(key, value, expected, id=f"{key}:{fault}")
     for key, fault, value, expected in _deployment_faults("deployment.")])
def test_deployment_field_fault(key, value, expected):
    dep = _with(deployment_dict(0, notes="calm"), (key,), value)
    assert _outcome(parse_deployment, dep) == expected


def test_non_object_payloads():
    assert _outcome(parse_model_card, "[]") == (
        "SCHEMA_VIOLATION", "<root>: card document must be a JSON object")
    assert _outcome(parse_deployment, 5) == _sv("deployment", "must be an object")


def test_fault_table_covers_every_field():
    covered = {path for path, *_ in CARD_ROWS}
    card = _full_card()
    expected = {(k,) for k in card}
    for parent in ("ai_model", "bias_analysis", "xai_analysis"):
        expected |= {(parent, k) for k in card[parent]}
    expected |= {("deployments", 0, k) for k in card["deployments"][0]}
    assert expected <= covered


def test_accepted_faults_parse_to_the_documented_value():
    card = _with(_full_card(), ("documentation_format_version",), DELETE)
    assert parse_model_card(json.dumps(card)).documentation_format_version == "1.0"
    card = _with(_full_card(), ("bias_analysis", "notes"), DELETE)
    assert parse_model_card(json.dumps(card)).bias_analysis.notes == ""
    card = _with(_full_card(), ("deployments", 0, "notes"), None)
    assert parse_model_card(json.dumps(card)).deployments[0].notes is None


# --- relationship inference ---

def test_full_declared_table():
    expected = {
        ("ModelCard", "Model"): "HAS_MODEL",
        ("ModelCard", "BiasAnalysis"): "HAS_BIAS_ANALYSIS",
        ("ModelCard", "XAIAnalysis"): "HAS_XAI_ANALYSIS",
        ("Model", "Deployment"): "HAS_DEPLOYMENT",
        ("Deployment", "Device"): "RUNS_ON",
        ("Experiment", "Deployment"): "INCLUDES",
    }
    assert SCHEMA_ADJACENCY == expected
    for (src, dst), rel in expected.items():
        assert infer_relationship_type(src, dst) == rel


def test_reversed_pairs_are_schema_violations():
    for src, dst in SCHEMA_ADJACENCY:
        if (dst, src) in SCHEMA_ADJACENCY:
            continue
        with pytest.raises(SchemaViolationError):
            infer_relationship_type(dst, src)


def test_unrelated_pair_is_schema_violation():
    with pytest.raises(SchemaViolationError):
        infer_relationship_type("Device", "Experiment")


def test_no_schema_label():
    """A label outside the table is one more pair the schema does not hold."""
    with pytest.raises(SchemaViolationError):
        infer_relationship_type("Banana", "Model")
    with pytest.raises(SchemaViolationError):
        infer_relationship_type("", "Model")


# --- signposting ---

def _linkset(with_image: bool):
    model = card_dict()["ai_model"]
    if with_image:
        model["container_image_location"] = "https://images.example.org/resnet:1.0"
    return build_linkset_from_fields("jdoe-resnet-1.0", model, "http://srv.example:8080")


def test_linkset_with_image_has_four_links():
    linkset = _linkset(True)
    assert linkset.anchor == "http://srv.example:8080/modelcard/jdoe-resnet-1.0"
    assert len(linkset.links) == 4
    rels = sorted(l.rel for l in linkset.links)
    assert rels == ["cite-as", "describedby", "item", "item"]


def test_linkset_without_image_has_three_links():
    linkset = _linkset(False)
    assert len(linkset.links) == 3


def test_linkset_rel_vocabulary_and_absolute_targets():
    linkset = _linkset(True)
    for entry in linkset.links:
        assert entry.rel in {"cite-as", "describedby", "item", "collection", "type"}
        assert "://" in entry.target


def test_linkset_jsonable_shape():
    body = linkset_to_jsonable(_linkset(True))
    assert set(body) == {"linkset"}
    context = body["linkset"][0]
    assert context["anchor"].endswith("/modelcard/jdoe-resnet-1.0")
    total = sum(len(v) for k, v in context.items() if k != "anchor")
    assert total == 4


def test_link_header_parses_with_independent_parser():
    linkset = _linkset(True)
    header = serialize_link_header(linkset)
    parsed = requests.utils.parse_header_links(header)
    assert len(parsed) == 4
    by_rel = {}
    for link in parsed:
        by_rel.setdefault(link["rel"], []).append(link["url"])
    assert by_rel["cite-as"] == ["http://srv.example:8080/modelcard/jdoe-resnet-1.0"]
    assert by_rel["describedby"] == ["http://srv.example:8080/modelcard/jdoe-resnet-1.0"]
    assert len(by_rel["item"]) == 2
