"""Ranked full-text index over node fields.

Scoring is BM25 with k1 = 1.2, b = 0.75 and the non-negative idf variant
``ln(1 + (N - df + 0.5) / (df + 0.5))``. The tokenizer lowercases, splits on
any non-alphanumeric character (underscore included), and drops tokens
shorter than 2 characters. No stemming, no stopwords, so rankings are
reproducible bit-for-bit across runs.

A "document" is one node: all of its indexed fields are tokenized and pooled,
and the postings keep each term's frequency summed over the node's fields,
which is the frequency scoring uses.

A query does not score every posting. Each queried term's postings are
ranked best first (highest BM25 contribution) on the term's first query and
cached until the next ``add_document``, which changes idf and the average
document length and so clears the whole cache. The query walks its terms'
ranked lists in lockstep and scores each newly seen node exactly (Fagin,
Lotem & Naor's threshold algorithm); it stops once it holds ``limit`` nodes
and the worst of them scores strictly above the sum of the contributions at
the current rank, which bounds every node not yet seen. Scores are summed in
the query's first-occurrence term order from 0.0, the same float operations
as scoring every posting, so the results match that bit for bit, ties
included.
"""

from __future__ import annotations

import heapq
import math
import re
from array import array
from collections import Counter

from .errors import EmptyQueryError

K1 = 1.2
B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


class FullTextIndex:
    """Inverted index: token -> {node ordinal -> term frequency}.

    Not thread-safe on its own: ``add_document`` must not overlap a query.
    Concurrent queries are safe; they may fill the ranked-postings cache
    together, and an entry comes out the same whichever of them builds it.
    """

    def __init__(self):
        self._postings: dict[str, dict[int, int]] = {}
        self._doc_len: dict[int, int] = {}
        self._total_len = 0
        # token -> (its postings, idf, ordinals best first, their contributions)
        self._ranked: dict[str, tuple[dict[int, int], float, list[int], array]] = {}

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
        self._ranked.clear()  # every idf and the average length moved

    def query(self, text: str, limit: int) -> list[tuple[int, float]]:
        """Rank indexed nodes containing at least one query term.

        Returns (ordinal, score) pairs, score descending, ties broken by
        ascending ordinal, truncated to ``limit``.
        """
        terms = tokenize(text)
        if not terms:
            raise EmptyQueryError("query contains no indexable terms")
        if not self._doc_len or limit <= 0:
            return []
        avgdl = self._total_len / len(self._doc_len)
        # first-occurrence order, not set order: the float sum must not depend
        # on the per-process string-hash seed
        lists = [self._ranked_postings(term, avgdl)
                 for term in dict.fromkeys(terms) if term in self._postings]
        doc_len = self._doc_len
        seen: set[int] = set()
        worst_first: list[tuple[float, int]] = []  # (score, -ordinal), min-heap
        for rank in range(max((len(ordinals) for _, _, ordinals, _ in lists), default=0)):
            bound = 0.0
            for _, _, ordinals, contributions in lists:
                if rank >= len(ordinals):
                    continue
                bound += contributions[rank]
                ordinal = ordinals[rank]
                if ordinal in seen:
                    continue
                seen.add(ordinal)
                dl = doc_len[ordinal]
                score = 0.0
                for by_node, idf, _, _ in lists:
                    tf = by_node.get(ordinal)
                    if tf is not None:
                        score += _contribution(idf, tf, dl, avgdl)
                entry = (score, -ordinal)
                if len(worst_first) < limit:
                    heapq.heappush(worst_first, entry)
                elif entry > worst_first[0]:
                    heapq.heapreplace(worst_first, entry)
            # strict: an unseen node scoring exactly the bound could still win
            # a tie on a smaller ordinal
            if len(worst_first) == limit and worst_first[0][0] > bound:
                break
        return [(-neg, score) for score, neg in sorted(worst_first, reverse=True)]

    def _ranked_postings(
        self, term: str, avgdl: float
    ) -> tuple[dict[int, int], float, list[int], array]:
        """``term``'s postings, its idf, and its postings ordered by
        contribution, highest first (ties by ascending ordinal), built on
        first use."""
        entry = self._ranked.get(term)
        if entry is None:
            by_node = self._postings[term]
            n_docs = len(self._doc_len)
            idf = math.log(1.0 + (n_docs - len(by_node) + 0.5) / (len(by_node) + 0.5))
            ranked = sorted((-_contribution(idf, tf, self._doc_len[ordinal], avgdl), ordinal)
                            for ordinal, tf in by_node.items())
            entry = (by_node, idf, [ordinal for _, ordinal in ranked],
                     array("d", [-neg for neg, _ in ranked]))
            self._ranked[term] = entry
        return entry


def _contribution(idf: float, tf: int, dl: int, avgdl: float) -> float:
    """One term's BM25 contribution to one node's score."""
    norm = K1 * (1.0 - B + B * dl / avgdl) if avgdl > 0 else K1
    return idf * tf * (K1 + 1.0) / (tf + norm)
