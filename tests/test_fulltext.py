import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from mcard_registry.bench.generator import generate_documents, make_spec
from mcard_registry.cards import parse_model_card
from mcard_registry.errors import EmptyQueryError
from mcard_registry.fulltext import B, K1, FullTextIndex, tokenize
from mcard_registry.graphstore import GraphStore
from mcard_registry.registry import Registry

from conftest import card_dict, create_node, ingest_dict


def test_tokenizer_rules():
    assert tokenize("Camera-Trap_Classifier v2!") == ["camera", "trap", "classifier", "v2"]
    assert tokenize("a b c") == []  # single-char tokens dropped
    assert tokenize("  ") == []
    assert tokenize("model,model;MODEL") == ["model", "model", "model"]


# Independent oracle: straight-line BM25 over raw token lists, written
# without reference to the index internals.

def _oracle_tokens(text):
    return [t for t in re.split(r"[^0-9a-zA-Z]+", text.lower()) if len(t) >= 2]


def bm25_oracle(docs: dict[int, str], query: str) -> dict[int, float]:
    tokenized = {doc_id: _oracle_tokens(text) for doc_id, text in docs.items()}
    n = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n
    scores: dict[int, float] = {}
    for term in set(_oracle_tokens(query)):
        df = sum(1 for toks in tokenized.values() if term in toks)
        if df == 0:
            continue
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        for doc_id, toks in tokenized.items():
            tf = toks.count(term)
            if tf == 0:
                continue
            denom = tf + K1 * (1 - B + B * len(toks) / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (K1 + 1) / denom
    return scores


def _index_of(docs: dict[int, str]) -> FullTextIndex:
    index = FullTextIndex()
    for doc_id, text in docs.items():
        index.add_document(doc_id, {"body": text})
    return index


def test_single_term_selects_matching_doc_only():
    docs = {1: "camera trap classifier", 2: "speech model"}
    index = _index_of(docs)
    hits = index.query("camera", limit=10)
    assert [doc for doc, _ in hits] == [1]
    oracle = bm25_oracle(docs, "camera")
    assert hits[0][1] == pytest.approx(oracle[1])


def test_shared_term_ranks_both_descending():
    docs = {1: "camera trap classifier model", 2: "speech model"}
    index = _index_of(docs)
    hits = index.query("model", limit=10)
    assert {doc for doc, _ in hits} == {1, 2}
    scores = [score for _, score in hits]
    assert scores == sorted(scores, reverse=True)
    oracle = bm25_oracle(docs, "model")
    for doc, score in hits:
        assert score == pytest.approx(oracle[doc])
    # doc 2 is shorter, so its tf-normalized score for "model" is higher
    assert hits[0][0] == 2


def test_empty_query_rejected():
    index = _index_of({1: "something"})
    with pytest.raises(EmptyQueryError):
        index.query("", limit=5)
    with pytest.raises(EmptyQueryError):
        index.query("! ? .", limit=5)
    with pytest.raises(EmptyQueryError):
        index.query("a", limit=5)  # all tokens under length 2


def test_ties_break_by_ascending_ordinal():
    docs = {7: "alpha beta", 3: "alpha beta", 5: "alpha beta"}
    index = _index_of(docs)
    hits = index.query("alpha", limit=10)
    assert [doc for doc, _ in hits] == [3, 5, 7]
    assert len({score for _, score in hits}) == 1


def test_limit_truncates_after_ranking():
    docs = {1: "alpha", 2: "alpha alpha", 3: "beta"}
    index = _index_of(docs)
    hits = index.query("alpha", limit=1)
    assert len(hits) == 1
    full = index.query("alpha", limit=10)
    assert hits[0] == full[0]


def test_multi_field_frequencies_pool_per_node():
    index = FullTextIndex()
    index.add_document(1, {"name": "camera", "description": "camera camera"})
    index.add_document(2, {"name": "camera", "description": "speech things"})
    hits = index.query("camera", limit=10)
    oracle = bm25_oracle({1: "camera camera camera", 2: "camera speech things"}, "camera")
    for doc, score in hits:
        assert score == pytest.approx(oracle[doc])


_doc_text = st.lists(
    st.sampled_from("camera trap wildlife model speech edge sensor audio night".split()),
    min_size=1,
    max_size=12,
).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(_doc_text, min_size=1, max_size=8),
    query=_doc_text,
)
def test_index_matches_oracle_on_random_corpora(docs, query):
    corpus = {i + 1: text for i, text in enumerate(docs)}
    index = _index_of(corpus)
    hits = dict(index.query(query, limit=len(corpus)))
    oracle = bm25_oracle(corpus, query)
    assert set(hits) == set(oracle)
    for doc, score in hits.items():
        assert score == pytest.approx(oracle[doc])


_SEEDED_QUERIES = """
import random, sys
from mcard_registry.fulltext import FullTextIndex
rng = random.Random(7)
words = [f"w{i:03d}" for i in range(300)]
index = FullTextIndex()
for ordinal in range(1, 1001):
    index.add_document(ordinal, {"text": " ".join(rng.choices(words, k=40))})
for _ in range(100):
    for ordinal, score in index.query(" ".join(rng.sample(words, 3)), 10):
        print(ordinal, score.hex())
"""


def test_scores_are_identical_across_hash_seeds():
    """A multi-term query sums one float per term; the sum must not depend on
    the string-hash seed of the process that runs it."""
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _SEEDED_QUERIES], env=env, check=True,
            capture_output=True, text=True, timeout=60).stdout)
    assert outputs[0].count("\n") == 1000
    assert outputs[0] == outputs[1]


# Exact reference: every posting scored the straightforward way, with the
# same float operations in the same order (terms in first-occurrence order,
# each node's sum starting from 0.0), then fully sorted. The index must
# return these ids and these score bits, whatever shortcut it takes.

def exact_reference(docs: dict[int, str], query: str, limit: int) -> list[tuple[int, str]]:
    tokenized = {doc_id: _oracle_tokens(text) for doc_id, text in docs.items()}
    n = len(docs)
    avgdl = sum(len(t) for t in tokenized.values()) / n
    scores: dict[int, float] = {}
    for term in dict.fromkeys(_oracle_tokens(query)):
        df = sum(1 for toks in tokenized.values() if term in toks)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id, toks in tokenized.items():
            tf = toks.count(term)
            if tf:
                norm = K1 * (1.0 - B + B * len(toks) / avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (K1 + 1.0) / (tf + norm)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [(doc_id, score.hex()) for doc_id, score in ranked[:max(limit, 0)]]


def _exact(hits: list[tuple[int, float]]) -> list[tuple[int, str]]:
    return [(doc_id, score.hex()) for doc_id, score in hits]


_WORDS = "camera trap wildlife model speech".split()


@st.composite
def _tied_corpora(draw):
    """A few distinct documents, each repeated, under scattered ordinals: many
    nodes share a score exactly, so ties fall on every rank cut."""
    distinct = draw(st.lists(st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join),
                             min_size=1, max_size=5))
    texts = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    ordinals = draw(st.lists(st.integers(1, 10_000), min_size=len(texts),
                             max_size=len(texts), unique=True))
    return dict(zip(ordinals, texts))


@settings(max_examples=300, deadline=None)
@given(
    docs=_tied_corpora(),
    terms=st.lists(st.sampled_from(_WORDS + ["zebra", "unknown"]), min_size=1, max_size=4),
    k=st.integers(1, 30),
)
def test_query_is_bit_identical_to_exhaustive_scoring(docs, terms, k):
    index = _index_of(docs)
    query = " ".join(terms)
    for limit in (0, 1, k, len(docs) + 1):
        assert _exact(index.query(query, limit)) == exact_reference(docs, query, limit)


def test_early_stop_waits_for_an_unseen_node_tied_with_the_bound():
    """Every document has length 3 and both terms occur in 4 of them, so both
    terms share one idf and x = "aa aa bb" and u = "aa bb bb" score the same
    sum. After rank 1 the bound equals that sum while u (ordinal 5, the
    winner of the tie) is still unseen behind equal contributions in both
    lists: only a strict stop reaches it."""
    docs = {9: "aa aa bb", 1: "aa cc cc", 2: "bb bb cc", 3: "bb bb cc",
            4: "aa cc cc", 5: "aa bb bb"}
    index = _index_of(docs)
    assert _exact(index.query("aa bb", 1)) == exact_reference(docs, "aa bb", 1)
    assert index.query("aa bb", 1)[0][0] == 5


def test_ranked_cache_follows_new_documents():
    """A query's cached ranking must not outlive the next add_document: after
    every insert the index answers like one freshly built over the same
    documents."""
    rng = random.Random(3)
    docs: dict[int, str] = {}
    index = FullTextIndex()
    queries = ["camera", "trap speech", "model model wildlife", "speech zebra camera trap"]
    for ordinal in range(1, 121):
        docs[ordinal] = " ".join(rng.choices(_WORDS, k=rng.randint(1, 6)))
        for query in queries:
            index.query(query, 5)  # fill the cache before the insert
        index.add_document(ordinal, {"body": docs[ordinal]})
        fresh = _index_of(docs)
        for query in queries:
            for limit in (1, 5, len(docs)):
                assert _exact(index.query(query, limit)) == _exact(fresh.query(query, limit))
                assert _exact(index.query(query, limit)) == exact_reference(docs, query, limit)


def test_ranked_cache_follows_new_documents_across_snapshot_load(tmp_path):
    store = GraphStore()
    for text in ("camera trap", "trap trap", "speech model", "camera"):
        create_node(store, "ModelCard", {"name": text})
    queries = ["camera", "trap camera", "model speech trap"]
    before = {q: store._index.query(q, 10) for q in queries}
    path = str(tmp_path / "snap.jsonl")
    store.snapshot_save(path)
    loaded = GraphStore.snapshot_load(path)
    assert {q: loaded._index.query(q, 10) for q in queries} == before
    for text in ("camera camera", "wildlife trap", "model"):
        create_node(loaded, "ModelCard", {"name": text})
        fresh = GraphStore.from_snapshot_bytes(loaded.snapshot_bytes())
        for q in queries:
            assert _exact(loaded._index.query(q, 10)) == _exact(fresh._index.query(q, 10))


def test_readers_query_while_cards_are_ingested():
    registry = Registry()
    for i in range(40):
        ingest_dict(registry, card_dict(name=f"seed{i}", version=f"1.{i}"))
    queries = ["classifier", "camera trap", "edge model classifier", "zebra classifier"]
    done = threading.Event()
    errors: list[Exception] = []

    def reader(offset: int) -> None:
        i = offset
        while not done.is_set():
            try:
                for hit in registry.search_model_cards(queries[i % len(queries)], 5):
                    assert hit.mc_id
            except Exception as exc:  # reported below
                errors.append(exc)
                return
            i += 1

    threads = [threading.Thread(target=reader, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-query included
    try:
        for thread in threads:
            thread.start()
        for i in range(200):
            ingest_dict(registry, card_dict(name=f"live{i}", version=f"2.{i}"))
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    fresh = Registry(GraphStore.from_snapshot_bytes(registry.store.snapshot_bytes()))
    for query in queries:
        for limit in (1, 10, 500):
            got = [(h.mc_id, h.score.hex()) for h in registry.search_model_cards(query, limit)]
            want = [(h.mc_id, h.score.hex()) for h in fresh.search_model_cards(query, limit)]
            assert got == want


# 300 two-term searches over the 2,000-card benchmark corpus: the digest of
# every hit's ordinal and score bits, as the exhaustive scorer (which scored
# every posting of every query term) produced it on CPython 3.11 / x86-64.
SEARCH_DIGEST_2K = "b7b28c5d62f90cf200f611ff7f6be3cb30b54f1c55a94109ce7f4936df4d19c4"


def test_search_digest_at_2000_cards_matches_exhaustive_scorer():
    cards, _ = generate_documents(make_spec("micro", 1, cards=2000, experiments=200))
    registry = Registry()
    for card in cards:
        registry.ingest_model_card(parse_model_card(json.dumps(card)))
    vocabulary = sorted({kw for card in cards for kw in card["keywords"]})
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(300):
        query = " ".join(rng.sample(vocabulary, 2))
        for ordinal, score in registry.store._index.query(query, 10):
            digest.update(f"{ordinal} {score.hex()}\n".encode())
    assert digest.hexdigest() == SEARCH_DIGEST_2K
