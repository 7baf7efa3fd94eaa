"""Memory guard for the graph store: the bytes a fresh registry keeps per
ingested micro card and per appended deployment, as ``tracemalloc`` traces
them. Every recorded deployment stays in memory for its model's lifetime,
so bytes that carry no data add up with every event a card records.

The bounds are set about 15% above what this code measured on Python
3.11.7 (other versions lay objects out differently).
"""

import gc
import json
import tracemalloc

from mcard_registry.bench.generator import generate_documents, make_spec
from mcard_registry.cards import parse_deployment, parse_model_card
from mcard_registry.registry import Registry

from conftest import deployment_dict

CARDS, APPENDS = 300, 2000
# measured 14,070 B per card and 1,194 B per appended deployment; the store
# that kept a property dict per node and an EdgeRecord per edge read 17,595
# and 1,738 here
CARD_BOUND = 16_200
APPEND_BOUND = 1_375


def _traced_growth(work) -> int:
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    work()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


def test_store_bytes_per_card_and_per_appended_deployment():
    cards, _ = generate_documents(make_spec("micro", 1, cards=CARDS))
    card_texts = [json.dumps(card) for card in cards]
    # the corpus's own devices, so an append adds no Device node
    deployment_texts = [json.dumps(deployment_dict(i, device=f"device-{i % 5:03d}"))
                        for i in range(APPENDS)]
    registry = Registry()

    def ingest():
        for text in card_texts:
            registry.ingest_model_card(parse_model_card(text))

    def append():
        for i, text in enumerate(deployment_texts):
            registry.record_deployment(cards[i % CARDS]["external_id"],
                                       parse_deployment(json.loads(text)))

    tracemalloc.start()
    try:
        per_card = _traced_growth(ingest) / CARDS
        per_append = _traced_growth(append) / APPENDS
    finally:
        tracemalloc.stop()
    print(f"{per_card:,.0f} B per card (bound {CARD_BOUND:,}), "
          f"{per_append:,.0f} B per appended deployment (bound {APPEND_BOUND:,})")
    assert per_card < CARD_BOUND
    assert per_append < APPEND_BOUND
