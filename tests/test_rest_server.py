import importlib
import json
import pkgutil

import pytest
import requests
import requests.utils

import mcard_registry
from mcard_registry.errors import ApiError
from mcard_registry.registry import Registry
from mcard_registry.rest import RestConfig, RestServer

from conftest import (
    HOSTILE_CONTENT_LENGTHS,
    UNDECODABLE_JSON,
    card_dict,
    deployment_dict,
    ingest_dict,
    raw_json_post,
    raw_post,
    raw_request,
)


@pytest.fixture
def server():
    registry = Registry()
    srv = RestServer(registry, RestConfig()).start()
    try:
        yield srv
    finally:
        srv.stop()


@pytest.fixture
def url(server):
    return server.base_url


def _seed_card(server, **overrides):
    card = card_dict(**overrides)
    mc_id = ingest_dict(server.registry, card)
    return mc_id


# --- GET /modelcard/{id} ---

def test_get_card_body_and_db_time_header(server, url):
    mc_id = _seed_card(server, deployments=[deployment_dict(0)])
    resp = requests.get(f"{url}/modelcard/{mc_id}")
    assert resp.status_code == 200
    body = resp.json()
    assert set(body) == {"model_card", "ai_model", "deployments", "_timings"}
    names = [t["query"] for t in body["_timings"]]
    assert names == ["model_card", "model", "bias_analysis", "xai_analysis", "deployments"]
    total = sum(t["ms"] for t in body["_timings"])
    assert float(resp.headers["X-DB-Time-Ms"]) == pytest.approx(total, abs=0.01)
    assert body["model_card"]["external_id"] == mc_id
    assert body["deployments"][0]["deployment_id"] == "dep-0000"


def test_get_card_absent(server, url):
    resp = requests.get(f"{url}/modelcard/nobody-nothing-9")
    assert resp.status_code == 404
    assert resp.json()["error"] == "NOT_FOUND"


def test_get_card_malformed_id_chars(server, url):
    _seed_card(server)
    resp = requests.get(f"{url}/modelcard/%7Bweird%20id%7D")
    assert resp.status_code == 404


# --- HEAD ---

def test_head_returns_link_header_and_no_body(server, url):
    mc_id = _seed_card(server)
    resp = requests.head(f"{url}/modelcard/{mc_id}")
    assert resp.status_code == 200
    assert resp.content == b""
    links = requests.utils.parse_header_links(resp.headers["Link"])
    rels = {l["rel"] for l in links}
    assert "linkset" in rels
    linkset_link = next(l for l in links if l["rel"] == "linkset")
    assert linkset_link["url"].endswith(f"/modelcard/{mc_id}/linkset")
    assert linkset_link["type"] == "application/linkset+json"


def test_head_absent_card(server, url):
    resp = requests.head(f"{url}/modelcard/none-none-0")
    assert resp.status_code == 404
    assert "Link" not in resp.headers


def test_failed_head_sends_no_body_on_kept_alive_connection(server):
    """A HEAD reply is its head alone, even for an error: a body after it
    would be read as the start of the next reply on the connection."""
    status, _, rest = raw_request(server.port,
                                  b"HEAD /modelcard/missing HTTP/1.1\r\nHost: x\r\n\r\n"
                                  b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert status == 404
    second_head, _, body = rest.partition(b"\r\n\r\n")
    assert second_head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)["status"] == "ok"


def test_head_rejected_after_a_head_request_keeps_its_error_body(server):
    status, _, rest = raw_request(server.port, b"HEAD /health HTTP/1.1\r\nHost: x\r\n\r\n"
                                               b"GET /health HTTP/1.2\r\n\r\n")
    assert status == 404
    second_head, _, body = rest.partition(b"\r\n\r\n")
    assert second_head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "BAD_REQUEST"


def test_head_get_header_parity(server, url):
    mc_id = _seed_card(server)
    head = requests.head(f"{url}/modelcard/{mc_id}")
    get = requests.get(f"{url}/modelcard/{mc_id}")
    skip = {"content-length", "x-db-time-ms", "date", "transfer-encoding"}
    head_items = {k.lower(): v for k, v in head.headers.items() if k.lower() not in skip}
    get_items = {k.lower(): v for k, v in get.headers.items() if k.lower() not in skip}
    assert head_items == get_items


def test_card_read_looks_the_card_up_once(server, url, monkeypatch):
    with_image = card_dict()
    with_image["ai_model"]["container_image_location"] = "https://images.example.org/a:1"
    mc_id = ingest_dict(server.registry, with_image)
    store = server.registry.store
    calls = []
    find_nodes = store.find_nodes

    def counted(*args, **kwargs):
        calls.append(args)
        return find_nodes(*args, **kwargs)

    monkeypatch.setattr(store, "find_nodes", counted)
    get = requests.get(f"{url}/modelcard/{mc_id}")
    assert get.status_code == 200 and len(calls) == 1
    head = requests.head(f"{url}/modelcard/{mc_id}")
    assert head.status_code == 200 and len(calls) == 2
    assert get.headers["Link"] == head.headers["Link"]
    assert 'rel="item"' in get.headers["Link"] and "images.example.org" in get.headers["Link"]


# --- linkset ---

def test_linkset_media_type_and_counts(server, url):
    with_image = card_dict()
    with_image["ai_model"]["container_image_location"] = "https://images.example.org/a:1"
    ingest_dict(server.registry, with_image)
    resp = requests.get(f"{url}/modelcard/jdoe-resnet-1.0/linkset")
    assert resp.status_code == 200
    assert resp.headers["Content-Type"] == "application/linkset+json"
    context = resp.json()["linkset"][0]
    assert sum(len(v) for k, v in context.items() if k != "anchor") == 4

    without = card_dict(author="b", name="plain", version="1", external_id="b-plain-1")
    ingest_dict(server.registry, without)
    context = requests.get(f"{url}/modelcard/b-plain-1/linkset").json()["linkset"][0]
    assert sum(len(v) for k, v in context.items() if k != "anchor") == 3


def test_linkset_absent(server, url):
    assert requests.get(f"{url}/modelcard/zz-zz-0/linkset").status_code == 404


# --- search ---

def test_search_scores_descending(server, url):
    _seed_card(server, author="ann", name="trapnet", version="1",
               external_id="ann-trapnet-1", short_description="camera trap classifier")
    _seed_card(server, author="bob", name="speechy", version="1",
               external_id="bob-speechy-1", short_description="speech model classifier")
    resp = requests.get(f"{url}/search", params={"q": "camera classifier"})
    assert resp.status_code == 200
    hits = resp.json()
    assert [h["mc_id"] for h in hits][0] == "ann-trapnet-1"
    scores = [h["score"] for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_search_missing_q(server, url):
    resp = requests.get(f"{url}/search")
    assert resp.status_code == 400
    assert resp.json()["error"] == "EMPTY_QUERY"


def test_search_blank_q_reaches_the_registry(server, url):
    _seed_card(server)
    for query in ("q=", "q=%20%20"):
        resp = requests.get(f"{url}/search?{query}")
        assert (resp.status_code, resp.json()) == (400, {
            "error": "EMPTY_QUERY", "detail": "query contains no indexable terms"})
    resp = requests.get(f"{url}/search?q=classifier&limit=")
    assert resp.status_code == 200
    assert [hit["mc_id"] for hit in resp.json()] == ["jdoe-resnet-1.0"]


def test_search_limit_zero(server, url):
    _seed_card(server)
    resp = requests.get(f"{url}/search", params={"q": "classifier", "limit": "0"})
    assert resp.status_code == 400


def test_search_limit_not_an_integer(server, url):
    _seed_card(server)
    resp = requests.get(f"{url}/search", params={"q": "classifier", "limit": "lots"})
    assert resp.status_code == 400


# --- ingest ---

def test_post_card_created_with_location(server, url):
    resp = requests.post(f"{url}/modelcard", json=card_dict())
    assert resp.status_code == 201
    assert resp.json() == {"mc_id": "jdoe-resnet-1.0"}
    assert resp.headers["Location"] == f"{url}/modelcard/jdoe-resnet-1.0"


def test_card_with_reserved_characters_is_found_at_its_urls(server, url):
    resp = requests.post(f"{url}/modelcard", json=card_dict(name="b?c#d%e"))
    assert (resp.status_code, resp.json()) == (201, {"mc_id": "jdoe-b?c#d%e-1.0"})
    location = resp.headers["Location"]
    assert location == f"{url}/modelcard/jdoe-b%3Fc%23d%25e-1.0"
    card = requests.get(location)
    assert card.status_code == 200
    assert card.json()["model_card"]["external_id"] == "jdoe-b?c#d%e-1.0"
    links = requests.utils.parse_header_links(card.headers["Link"])
    local = [link for link in links if link["rel"] != "item"]
    assert [link["rel"] for link in local] == ["cite-as", "describedby", "linkset"]
    for link in local:
        assert requests.get(link["url"]).status_code == 200, link
    linkset = requests.get(f"{location}/linkset").json()["linkset"][0]
    assert linkset["anchor"] == location


def test_card_with_slash_in_its_id_is_refused(server, url):
    before = requests.get(f"{url}/health").json()
    resp = requests.post(f"{url}/modelcard", json=card_dict(name="b/linkset"))
    assert resp.status_code == 400
    assert resp.json() == {"error": "SCHEMA_VIOLATION",
                           "detail": "model_name: id component must not contain '/'"}
    assert requests.get(f"{url}/health").json() == before


def test_encoded_slash_stays_inside_its_path_segment(server, url):
    """``%2F`` is data, not a separator (RFC 3986 section 2.2): these URLs
    name the one-segment card ids ``<id>/linkset`` and ``<id>/deployment``."""
    mc_id = _seed_card(server)
    before = requests.get(f"{url}/health").json()
    assert requests.get(f"{url}/modelcard/{mc_id}%2Flinkset").status_code == 404
    resp = requests.post(f"{url}/modelcard/{mc_id}%2Fdeployment", json=deployment_dict(3))
    assert resp.status_code == 404
    assert requests.get(f"{url}/health").json() == before
    # other encoded octets decode within their segment as before
    assert requests.get(f"{url}/modelcard/{mc_id.replace('-', '%2D')}").status_code == 200
    assert requests.get(f"{url}/%6Dodelcard/{mc_id}/linkset").status_code == 200


def test_post_card_duplicate(server, url):
    requests.post(f"{url}/modelcard", json=card_dict())
    resp = requests.post(f"{url}/modelcard", json=card_dict())
    assert resp.status_code == 409
    assert resp.json()["error"] == "DUPLICATE_CARD"


def test_post_card_bad_json(server, url):
    resp = requests.post(f"{url}/modelcard", data=b"{nope",
                         headers={"Content-Type": "application/json"})
    assert resp.status_code == 400
    assert resp.json()["error"] == "MALFORMED_JSON"


def test_post_card_schema_violation_detail(server, url):
    card = card_dict()
    card["ai_model"]["test_accuracy"] = 2.5
    resp = requests.post(f"{url}/modelcard", json=card)
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "SCHEMA_VIOLATION"
    assert "test_accuracy" in body["detail"]


# --- edges ---

def _edge_fixture(server, url):
    mc_id = _seed_card(server, deployments=[deployment_dict(0)])
    dep_element = requests.get(f"{url}/modelcard/{mc_id}").json()["deployments"][0]["element_id"]
    exp_element = requests.post(
        f"{url}/experiment", json={"experiment_id": "exp-1"}
    ).json()["element_id"]
    return exp_element, dep_element


def test_post_edge_created(server, url):
    exp_element, dep_element = _edge_fixture(server, url)
    resp = requests.post(f"{url}/edge",
                         json={"source_id": exp_element, "target_id": dep_element})
    assert resp.status_code == 201
    body = resp.json()
    assert body["rel_type"] == "INCLUDES"
    assert body["src"] == exp_element
    assert body["dst"] == dep_element
    assert body["edge_id"].startswith("e:")


def test_post_edge_duplicate(server, url):
    exp_element, dep_element = _edge_fixture(server, url)
    payload = {"source_id": exp_element, "target_id": dep_element}
    requests.post(f"{url}/edge", json=payload)
    resp = requests.post(f"{url}/edge", json=payload)
    assert resp.status_code == 409
    assert resp.json()["error"] == "DUPLICATE_EDGE"


def test_post_edge_schema_invalid_pair(server, url):
    exp_element, dep_element = _edge_fixture(server, url)
    resp = requests.post(f"{url}/edge",
                         json={"source_id": dep_element, "target_id": exp_element})
    assert resp.status_code == 400
    assert resp.json()["error"] == "SCHEMA_VIOLATION"


def test_post_edge_unknown_node(server, url):
    exp_element, _ = _edge_fixture(server, url)
    resp = requests.post(f"{url}/edge",
                         json={"source_id": exp_element, "target_id": "n:5555"})
    assert resp.status_code == 404
    assert resp.json()["error"] == "NODE_NOT_FOUND"


def test_post_edge_missing_field(server, url):
    resp = requests.post(f"{url}/edge", json={"source_id": "n:1"})
    assert resp.status_code == 400


@pytest.mark.parametrize("case", ["card id", "repeated id"])
def test_post_experiment_takes_only_distinct_deployments(server, url, case):
    mc_id = _seed_card(server, deployments=[deployment_dict(0)])
    card = requests.get(f"{url}/modelcard/{mc_id}").json()
    dep_element = card["deployments"][0]["element_id"]
    first = card["model_card"]["element_id"] if case == "card id" else dep_element
    before = server.registry.counts()
    resp = requests.post(f"{url}/experiment", json={
        "experiment_id": "exp-1", "deployment_element_ids": [first, dep_element]})
    assert resp.status_code == 400
    body = resp.json()
    assert body["error"] == "SCHEMA_VIOLATION"
    if case == "repeated id":
        assert body["detail"] == f"deployment_element_ids: repeats {dep_element}"
    assert server.registry.counts() == before


# --- deployments ---

def test_post_deployment(server, url):
    mc_id = _seed_card(server)
    resp = requests.post(f"{url}/modelcard/{mc_id}/deployment", json=deployment_dict(3))
    assert resp.status_code == 201
    assert resp.json()["element_id"].startswith("n:")
    body = requests.get(f"{url}/modelcard/{mc_id}").json()
    assert len(body["deployments"]) == 1


def test_post_deployment_absent_card(server, url):
    resp = requests.post(f"{url}/modelcard/none-none-0/deployment", json=deployment_dict(0))
    assert resp.status_code == 404


def test_post_deployment_negative_latency(server, url):
    mc_id = _seed_card(server)
    resp = requests.post(f"{url}/modelcard/{mc_id}/deployment",
                         json=deployment_dict(0, mean_latency_ms=-5.0))
    assert resp.status_code == 400


# --- health ---

def test_health_counts(server, url):
    resp = requests.get(f"{url}/health")
    assert resp.status_code == 200
    assert resp.json() == {"status": "ok", "node_count": 0, "edge_count": 0}
    _seed_card(server)
    assert requests.get(f"{url}/health").json() == {
        "status": "ok", "node_count": 2, "edge_count": 1
    }


def test_unknown_route(server, url):
    resp = requests.get(f"{url}/nope")
    assert resp.status_code == 404
    body = resp.json()
    assert set(body) == {"error", "detail"}


# --- statelessness ---

def _normalized(body):
    if isinstance(body, dict):
        return {k: v for k, v in body.items() if k != "_timings"}
    return body


def test_statelessness_keep_alive_vs_fresh_connections(server, url):
    mc_id = _seed_card(server, deployments=[deployment_dict(0)])
    paths = [f"/modelcard/{mc_id}", "/health", f"/modelcard/{mc_id}/linkset",
             "/search?q=classifier"]
    with requests.Session() as session:
        keep_alive = [session.get(url + p) for p in paths]
    fresh = [requests.get(url + p) for p in paths]
    for a, b in zip(keep_alive, fresh):
        assert a.status_code == b.status_code
        assert {k.lower() for k in a.headers} == {k.lower() for k in b.headers}
        if a.headers.get("Content-Type", "").endswith("json"):
            assert _normalized(a.json()) == _normalized(b.json())


# --- large bodies ---

def test_large_card_streams_chunked(server, url):
    big = card_dict(full_description="wildlife " * 200_000)  # ~1.8 MB
    ingest_dict(server.registry, big)
    resp = requests.get(f"{url}/modelcard/jdoe-resnet-1.0", stream=True)
    assert resp.status_code == 200
    assert resp.headers.get("Transfer-Encoding") == "chunked"
    assert "Content-Length" not in resp.headers
    body = json.loads(resp.content)
    assert len(body["model_card"]["full_description"]) >= 1_800_000


@pytest.mark.parametrize("status,content_lengths", HOSTILE_CONTENT_LENGTHS)
def test_hostile_content_length_rejected_and_closed(server, url, status, content_lengths):
    got, fields, body = raw_post(server.port, "/edge", content_lengths)
    assert (got, body["error"]) == \
        (status, "BAD_CONTENT_LENGTH" if status == 400 else "BODY_TOO_LARGE")
    assert fields["connection"] == "close"
    assert requests.get(f"{url}/health").status_code == 200


@pytest.mark.parametrize("body", UNDECODABLE_JSON)
@pytest.mark.parametrize("path", ["/modelcard", "/edge", "/experiment",
                                  "/modelcard/jdoe-resnet-1.0/deployment"])
def test_undecodable_json_is_400(server, url, path, body):
    _seed_card(server)
    status, reply = raw_json_post(server.port, path, body)
    assert (status, reply["error"]) == (400, "MALFORMED_JSON")
    assert requests.get(f"{url}/health").status_code == 200


def _huge_accuracy(card):
    card["ai_model"]["test_accuracy"] = 10 ** 400


def _null_features(card):
    card["xai_analysis"] = {"method": "shap", "top_features": None}


def _huge_requests(card):
    card["deployments"] = [deployment_dict(0, requests_served=10 ** 400)]


def _start_before_year_1(card):
    card["deployments"] = [deployment_dict(0, start_time="0001-01-01T00:00:00+01:00")]


@pytest.mark.parametrize("fault,detail", [
    (_huge_accuracy, "ai_model.test_accuracy: must be finite"),
    (_null_features, "xai_analysis.top_features: must be a list"),
    (_huge_requests, "deployments[0].requests_served: must be finite"),
    (_start_before_year_1, "deployments[0].start_time: not an ISO-8601 UTC timestamp"),
])
def test_hostile_card_field_is_400(server, fault, detail):
    card = card_dict()
    fault(card)
    status, reply = raw_json_post(server.port, "/modelcard", json.dumps(card).encode())
    assert (status, reply) == (400, {"error": "SCHEMA_VIOLATION", "detail": detail})


# A lone UTF-16 surrogate escape decodes to a string that can never be
# encoded back out as UTF-8; stored, it would fail every later reply that
# carries it. Each POST route gets one in a field it reads.
_LONE_SURROGATE_BODIES = [
    pytest.param("/modelcard", card_dict(short_description="camera \ud800 trap"), id="card"),
    pytest.param("/edge", {"source_id": "n:1\udc00", "target_id": "n:2"}, id="edge"),
    pytest.param("/experiment", {"experiment_id": "exp-\udfff"}, id="experiment"),
    pytest.param("/modelcard/jdoe-resnet-1.0/deployment",
                 deployment_dict(0, location="site \ud83d"), id="deployment"),
]


@pytest.mark.parametrize("path,payload", _LONE_SURROGATE_BODIES)
def test_lone_surrogate_is_400_and_stores_nothing(server, url, path, payload):
    _seed_card(server)
    before = server.registry.store.snapshot_bytes()
    status, reply = raw_json_post(server.port, path, json.dumps(payload).encode())
    assert (status, reply["error"]) == (400, "MALFORMED_JSON")
    assert server.registry.store.snapshot_bytes() == before
    assert requests.get(f"{url}/search", params={"q": "camera trap"}).status_code == 200


def test_surrogate_pair_escape_is_accepted(server, url):
    card = card_dict(short_description="camera trap \U0001f600 classifier")
    body = json.dumps(card).encode()  # the emoji goes out as two escapes
    assert b"\\ud83d\\ude00" in body
    status, reply = raw_json_post(server.port, "/modelcard", body)
    assert status == 201, reply
    hits = requests.get(f"{url}/search", params={"q": "camera"}).json()
    assert hits[0]["short_description"] == card["short_description"]
    retrieved = requests.get(f"{url}/modelcard/{reply['mc_id']}").json()
    assert retrieved["model_card"]["short_description"] == card["short_description"]


# --- auth ---

def test_bearer_token_enforced():
    registry = Registry()
    srv = RestServer(registry, RestConfig(bearer_token="sesame")).start()
    try:
        base = srv.base_url
        assert requests.get(f"{base}/health").status_code == 200
        resp = requests.get(f"{base}/search", params={"q": "x"})
        assert resp.status_code == 401
        assert resp.json()["error"] == "UNAUTHORIZED"
        wrong = requests.get(f"{base}/search", params={"q": "x"},
                             headers={"Authorization": "Bearer nope"})
        assert wrong.status_code == 401
        # passes with a plain == too; kept because hmac.compare_digest on
        # str raises TypeError for non-ASCII text, which would answer 500
        non_ascii = requests.get(f"{base}/search", params={"q": "x"},
                                 headers={"Authorization": "Bearer sésame".encode("utf-8")})
        assert non_ascii.status_code == 401
        ok = requests.post(f"{base}/modelcard", json=card_dict(),
                           headers={"Authorization": "Bearer sesame"})
        assert ok.status_code == 201
    finally:
        srv.stop()


def test_non_ascii_bearer_token_sent_as_utf8_is_accepted():
    srv = RestServer(Registry(), RestConfig(bearer_token="sésame")).start()
    try:
        statuses = [requests.get(f"{srv.base_url}/search", params={"q": "camera"},
                                 headers={"Authorization": f"Bearer {token}".encode("utf-8")}
                                 ).status_code for token in ("sésame", "sesame")]
    finally:
        srv.stop()
    assert statuses == [200, 401]


# --- error statuses ---

# The status REST answered each error code with before every error class
# carried its own: these codes, and 500 for any other.
STATUS_BY_CODE = {
    "NOT_FOUND": 404,
    "NODE_NOT_FOUND": 404,
    "DUPLICATE_CARD": 409,
    "DUPLICATE_EDGE": 409,
    "DUPLICATE_EXPERIMENT": 409,
    "SCHEMA_VIOLATION": 400,
    "MALFORMED_JSON": 400,
    "ID_MISMATCH": 400,
    "EMPTY_QUERY": 400,
    "EMPTY_COMPONENT": 400,
    "INVALID_PROPERTY": 400,
}


def _error_classes() -> list[type]:
    """ApiError and every subclass of it, in any module of the package."""
    for module in pkgutil.walk_packages(mcard_registry.__path__, "mcard_registry."):
        importlib.import_module(module.name)
    found, stack = [], [ApiError]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


ERROR_CLASSES = _error_classes()


def test_error_classes_include_those_outside_errors_module():
    names = {cls.__name__ for cls in ERROR_CLASSES}
    assert {"BindFailedError", "TargetUnreachableError", "WorkFailedError"} <= names
    assert {cls.code for cls in ERROR_CLASSES} >= set(STATUS_BY_CODE)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_carries_its_rest_status(cls):
    assert cls.status == STATUS_BY_CODE.get(cls.code, 500)
