"""Ranked full-text index over node fields.

Scoring is BM25 with k1 = 1.2, b = 0.75 and the non-negative idf variant
``ln(1 + (N - df + 0.5) / (df + 0.5))``. The tokenizer lowercases, splits on
any non-alphanumeric character (underscore included), and drops tokens
shorter than 2 characters. No stemming, no stopwords, so rankings are
reproducible bit-for-bit across runs.

A "document" is one node: all of its indexed fields are tokenized and pooled,
and the postings keep each term's frequency summed over the node's fields,
which is the frequency scoring uses.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter

from .errors import EmptyQueryError

K1 = 1.2
B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


class FullTextIndex:
    """Inverted index: token -> {node ordinal -> term frequency}."""

    def __init__(self):
        self._postings: dict[str, dict[int, int]] = {}
        self._doc_len: dict[int, int] = {}
        self._total_len = 0

    @property
    def doc_count(self) -> int:
        return len(self._doc_len)

    def add_document(self, ordinal: int, fields: dict[str, str]) -> None:
        """Index one node. ``fields`` maps field name to its flattened text."""
        if ordinal in self._doc_len:
            raise ValueError(f"node ordinal {ordinal} already indexed")
        counts: Counter[str] = Counter()
        for text in fields.values():
            counts.update(tokenize(text))
        for token, tf in counts.items():
            self._postings.setdefault(token, {})[ordinal] = tf
        length = counts.total()
        self._doc_len[ordinal] = length
        self._total_len += length

    def query(self, text: str, limit: int) -> list[tuple[int, float]]:
        """Rank indexed nodes containing at least one query term.

        Returns (ordinal, score) pairs, score descending, ties broken by
        ascending ordinal, truncated to ``limit``.
        """
        terms = tokenize(text)
        if not terms:
            raise EmptyQueryError("query contains no indexable terms")
        if not self._doc_len:
            return []
        n_docs = len(self._doc_len)
        avgdl = self._total_len / n_docs
        scores: dict[int, float] = {}
        # first-occurrence order, not set order: the float sum must not depend
        # on the per-process string-hash seed
        for term in dict.fromkeys(terms):
            by_node = self._postings.get(term)
            if not by_node:
                continue
            idf = math.log(1.0 + (n_docs - len(by_node) + 0.5) / (len(by_node) + 0.5))
            for ordinal, tf in by_node.items():
                dl = self._doc_len[ordinal]
                norm = K1 * (1.0 - B + B * dl / avgdl) if avgdl > 0 else K1
                scores[ordinal] = scores.get(ordinal, 0.0) + idf * tf * (K1 + 1.0) / (tf + norm)
        return heapq.nsmallest(max(limit, 0), scores.items(),
                               key=lambda item: (-item[1], item[0]))
