"""The three workloads and the seeded operation sequences they run.

Every run draws its operations, in order, from one endless sequence fixed by
``--seed``: a fixed number of warm-up ops (run, checked, not timed), then
the timed phase, which takes ops from the sequence for ``--seconds``
seconds, then a short tail that the traced run sends through zero-delay
proxies to count round trips. A faster server gets further along the same
sequence. The gated workloads are built so that the cost of an op does not
depend on how far along it is: ``micro_fresh`` appends only to cards it
never reads, and ``mixed_2k`` spreads its appends over 2,000 cards.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

FRONTENDS = ("rest", "native_mcp", "layered_mcp")
READ_KINDS = ("retrieve", "search")
WRITE_KINDS = ("create_edge", "append")
# every (frontend, kind) pair a workload runs; deployment append is REST only
OP_PAIRS = tuple((f, k) for f in FRONTENDS for k in ("retrieve", "search", "create_edge")) \
    + (("rest", "append"),)

_LOCATIONS = ("ridge-a", "valley-b", "coast-c", "forest-d", "station-e")


@dataclass(frozen=True)
class Op:
    frontend: str
    kind: str
    card: int = -1            # retrieve / append target (index into the corpus)
    query: str = ""           # search text
    edge: tuple = ()          # (experiment index, edge-pool deployment index)
    deployment: dict | None = None  # append body


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    overrides: dict
    fresh_connections: bool   # new TCP connection (and MCP session) per op
    clients: int              # closed-loop client threads
    warmup_ops: int
    edge_pool_cards: int      # cards whose deployment ids the id pass fetches
    search_terms: int
    append_cards: int = 0     # if set, appends go only to this many cards, never read


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="micro_fresh",
            why="20 small cards, a fresh connection and MCP session per request: transport "
                "and session set-up dominate, as in the paper's protocol test; appends go "
                "to cards never read",
            preset="micro", overrides={}, fresh_connections=True, clients=1,
            warmup_ops=40, edge_pool_cards=20, search_terms=1,
            append_cards=2,
        ),
        Workload(
            name="large_card",
            why="one 13.6 MB card with 10,000 deployments: store copies, projection, "
                "JSON encode and the MCP envelope dominate; appends make caches pay",
            preset="realworld", overrides={}, fresh_connections=True, clients=1,
            warmup_ops=4, edge_pool_cards=1, search_terms=1,
        ),
        Workload(
            name="mixed_2k",
            why="2,000 cards, two closed-loop clients on kept-alive connections: label "
                "scans, BM25 and the reader/writer lock under a mixed read/write load",
            preset="micro", overrides={"cards": 2000, "experiments": 200},
            fresh_connections=False, clients=2,
            warmup_ops=60, edge_pool_cards=20, search_terms=2,
        ),
    )
}


class OpSource:
    """Draws operation arguments from one seeded RNG."""

    def __init__(self, workload: Workload, seed: int, corpus, devices: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.n_cards = len(corpus.cards)
        self.vocabulary = corpus.vocabulary
        self.experiments = len(corpus.experiments)
        self.devices = devices
        self.edge_cards = sorted(self.rng.sample(range(self.n_cards), workload.edge_pool_cards))
        self.edge_pool_size = sum(len(corpus.cards[c]["deployments"]) for c in self.edge_cards)
        self._used_pairs: set[tuple[int, int]] = set()
        self._appends = 0
        # Zipf (s=1) popularity over a seeded permutation of the cards
        self._by_rank = list(range(self.n_cards))
        self.rng.shuffle(self._by_rank)
        self._zipf_cum = list(itertools.accumulate(1.0 / r for r in range(1, self.n_cards + 1)))
        # a workload with append cards keeps the cards it reads unchanged, so
        # every op costs the same at the end of the run as at its start
        self.append_targets = self._by_rank[:workload.append_cards] or range(self.n_cards)
        self.read_targets = self._by_rank[workload.append_cards:]

    def _query(self) -> str:
        return " ".join(self.rng.sample(self.vocabulary, self.workload.search_terms))

    def _pair(self) -> tuple[int, int]:
        if len(self._used_pairs) * 2 > self.experiments * self.edge_pool_size:
            raise RuntimeError("half of the (experiment, deployment) pairs are used; "
                               "the workload needs a larger edge pool")
        while True:
            pair = (self.rng.randrange(self.experiments), self.rng.randrange(self.edge_pool_size))
            if pair not in self._used_pairs:
                self._used_pairs.add(pair)
                return pair

    def _deployment(self) -> dict:
        rng = self.rng
        self._appends += 1
        day, hour, minute = rng.randrange(300), rng.randrange(23), rng.randrange(60)
        start = f"2025-{1 + day // 28:02d}-{1 + day % 28:02d}T{hour:02d}:{minute:02d}:00Z"
        end = f"2025-{1 + day // 28:02d}-{1 + day % 28:02d}T{hour + 1:02d}:{minute:02d}:00Z"
        return {
            "deployment_id": f"dep-appended-{self._appends:06d}",
            "device_id": f"device-{rng.randrange(self.devices):03d}",
            "start_time": start,
            "end_time": end,
            "location": rng.choice(_LOCATIONS),
            "mean_latency_ms": round(rng.uniform(5, 400), 3),
            "mean_accuracy": round(rng.uniform(0.4, 0.999), 4),
            "requests_served": rng.randint(10, 100_000),
            "cpu_utilization": round(rng.uniform(0.05, 0.95), 4),
            "gpu_utilization": round(rng.uniform(0.0, 0.9), 4),
            "energy_joules": round(rng.uniform(1, 5000), 2),
            "notes": "",
        }

    def op(self, frontend: str, kind: str, card: int | None = None) -> Op:
        if kind == "retrieve":
            return Op(frontend, kind, card=self.rng.choice(self.read_targets) if card is None
                      else card)
        if kind == "search":
            return Op(frontend, kind, query=self._query())
        if kind == "create_edge":
            return Op(frontend, kind, edge=self._pair())
        return Op("rest", "append", card=self.rng.choice(self.append_targets) if card is None
                  else card, deployment=self._deployment())

    def zipf_card(self) -> int:
        rank = self.rng.choices(range(self.n_cards), cum_weights=self._zipf_cum)[0]
        return self._by_rank[rank]


def _micro_fresh(b: OpSource):
    # round-robin over frontend x {retrieve, search, create_edge}, plus one
    # REST deployment append every fourth cycle so every write path runs.
    # Retrieves come twice per cycle: with equal shares of two op kinds of
    # different cost, a median falls in the gap between them and tracks
    # their tails. For the same reason appends stay rare: the writes' median
    # then falls inside the native create_edge group
    for cycle in itertools.count():
        for frontend in FRONTENDS:
            for kind in ("retrieve", "search", "retrieve", "create_edge"):
                yield b.op(frontend, kind)
        if cycle % 4 == 3:
            yield b.op("rest", "append")


def _large_card(b: OpSource):
    # three reads (rotating which frontend goes first), then one write that
    # alternates between create_edge through the frontend just read and a
    # REST append to the big card; every third block adds one search
    for block in itertools.count():
        order = FRONTENDS[block % 3:] + FRONTENDS[:block % 3]
        for frontend in order:
            yield b.op(frontend, "retrieve", card=0)
        if block % 2 == 0:
            yield b.op(order[-1], "create_edge")
        else:
            yield b.op("rest", "append", card=0)
        if block % 3 == 2:
            yield b.op(FRONTENDS[block // 3 % 3], "search")


def _mixed_2k(b: OpSource):
    # every twenty ops hold 12 retrieves (Zipf popularity), 4 searches,
    # 1 create_edge and 3 REST deployment appends, shuffled; reads and edges
    # take their frontend from a shuffled deck, so each gets a third. An
    # append (a label scan over 2,000 cards) costs ten times a create_edge:
    # with one of each, the writes' median would fall in the gap between
    # them and track their tails, so appends make three quarters of writes
    frontends: list[str] = []
    while True:
        kinds = ["retrieve"] * 12 + ["search"] * 4 + ["create_edge"] + ["append"] * 3
        b.rng.shuffle(kinds)
        for kind in kinds:
            if kind == "append":
                yield b.op("rest", kind)
                continue
            if not frontends:
                frontends = list(FRONTENDS)
                b.rng.shuffle(frontends)
            frontend = frontends.pop()
            yield b.op(frontend, kind, card=b.zipf_card() if kind == "retrieve" else None)


_SHAPES = {"micro_fresh": _micro_fresh, "large_card": _large_card, "mixed_2k": _mixed_2k}


def tail_ops(b: OpSource) -> list[Op]:
    """One op of each (frontend, kind) pair, for the proxy round-trip pass."""
    return [b.op(frontend, kind, card=0 if kind in ("retrieve", "append") else None)
            for frontend, kind in OP_PAIRS]


def build_sequence(workload: Workload, b: OpSource):
    """(warm-up ops, the endless rest of the sequence) for one run."""
    ops = _SHAPES[workload.name](b)
    return list(itertools.islice(ops, workload.warmup_ops)), ops
