import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mcard_registry.errors import EmptyQueryError
from mcard_registry.fulltext import B, K1, FullTextIndex, tokenize


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
