"""Client side of the benchmark: server process control, ingest, timed
operations and the checks on every response.

Latency is measured from connect (or from the send, on a kept-alive
connection) through the last response byte, split the way
``mcard_registry.bench.runner`` splits it: TCP connect, SSE handshake
(GET /sse through the initialize response, MCP only) and the exchange.
Parsing and checking happen after the clock stops.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import quote

from mcard_registry import wire
from mcard_registry.bench.clients import (
    ClientError,
    McpClient,
    RestClient,
    rest_retrieve_path,
    rest_search_path,
)
from mcard_registry.bench.samples import LatencySample
from mcard_registry.wanproxy import WanProxy

from workloads import FRONTENDS, Op

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
CLIENT_TIMEOUT_S = 60.0
_MS = 1e-6
_TIMINGS_KEY = b',"_timings":'


class CheckFailed(Exception):
    pass


def _body_digest(body: bytes) -> bytes:
    """Digest of a retrieve body with its trailing ``_timings`` dropped."""
    cut = body.rfind(_TIMINGS_KEY)
    return hashlib.sha256(body[:cut] if cut >= 0 else body).digest()


# --- the server process ---

class Server:
    """One launcher process serving all three frontends."""

    def __init__(self, src: Path, trace: bool):
        cmd = [sys.executable, str(HERE / "launcher.py"), "--src", str(src)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=str(HERE))
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server process exited before announcing its ports")
        self.ports = json.loads(line)

    def endpoint(self, frontend: str) -> str:
        return f"{HOST}:{self.ports[frontend]}"

    def spans(self) -> dict:
        self.proc.stdin.write("spans\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def cpu_seconds(self) -> float:
        """CPU seconds the server process has used, all threads."""
        self.proc.stdin.write("cpu\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Corpus:
    """Generated documents plus what the checks need to know about them."""

    def __init__(self, cards: list[dict], experiments: list[dict]):
        self.cards = cards
        self.experiments = experiments
        self.bodies = [wire.dump_bytes(card) for card in cards]
        self.ids = [card["external_id"] for card in cards]
        self.id_set = frozenset(self.ids)
        self.vocabulary = sorted({kw for card in cards for kw in card["keywords"]})

    def shape(self) -> dict:
        sizes = [len(body) for body in self.bodies]
        return {"cards": len(self.cards),
                "deployments": sum(len(c["deployments"]) for c in self.cards),
                "experiments": len(self.experiments),
                "min_card_bytes": min(sizes), "max_card_bytes": max(sizes)}


def start_server(src: Path, corpus: Corpus, trace: bool) -> tuple[Server, float, list[str]]:
    """Launch and fill one server; returns it, its set-up seconds (launch
    until every card and experiment is in and each frontend answered once)
    and the experiment element ids."""
    start = time.perf_counter()
    server = Server(src, trace)
    try:
        rest = RestClient(server.endpoint("rest"), timeout=CLIENT_TIMEOUT_S)
        rest.connect()
        try:
            for body in corpus.bodies:
                status, _, reply = rest.request("POST", "/modelcard", body)
                if status != 201:
                    raise RuntimeError(f"ingest failed: {status} {reply[:200]!r}")
            experiment_ids = []
            for experiment in corpus.experiments:
                status, _, reply = rest.request("POST", "/experiment", wire.dump_bytes(experiment))
                if status != 201:
                    raise RuntimeError(f"experiment ingest failed: {status} {reply[:200]!r}")
                experiment_ids.append(json.loads(reply)["element_id"])
            status, _, reply = rest.request("GET", "/health")
            if status != 200:
                raise RuntimeError(f"health check failed: {status}")
        finally:
            rest.close()
        for frontend in ("native_mcp", "layered_mcp"):
            mcp = McpClient(server.endpoint(frontend), timeout=CLIENT_TIMEOUT_S)
            try:
                mcp.connect()
                mcp.handshake()
                _, _, is_error = mcp.call_tool(
                    "search_model_cards", {"query": corpus.vocabulary[0], "limit": 1})
                if is_error:
                    raise RuntimeError(f"{frontend} did not answer its first call")
            finally:
                mcp.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, experiment_ids


def collect_edge_ids(server: Server, corpus: Corpus, edge_cards: list[int]) -> list[str]:
    """Deployment element ids of the edge-pool cards only (outside set-up)."""
    rest = RestClient(server.endpoint("rest"), timeout=CLIENT_TIMEOUT_S)
    rest.connect()
    try:
        ids = []
        for card in edge_cards:
            status, _, body = rest.request("GET", rest_retrieve_path(corpus.ids[card]))
            if status != 200:
                raise RuntimeError(f"id collection failed: {status}")
            ids.extend(d["element_id"] for d in json.loads(body)["deployments"])
        return ids
    finally:
        rest.close()


# --- checks ---

class Checker:
    """Response checks, including cross-frontend equality of retrieves.

    A retrieve's expected deployment count is the generated count plus the
    appends to that card; with concurrent clients it is a range (appends
    done before the request .. appends started before the reply). When no
    append to the card overlapped the request, the card's state is known,
    and native/layered bodies (``_timings`` dropped) must equal the REST body
    of that state. Without a REST body of that state at hand, a sequential
    run fetches one untimed; a concurrent run defers the comparison to the
    end of the run, where it is still possible if the card did not change.
    """

    def __init__(self, corpus: Corpus, sequential: bool):
        self.corpus = corpus
        self.sequential = sequential
        self.lock = threading.Lock()
        self.started = [0] * len(corpus.cards)
        self.done = [0] * len(corpus.cards)
        self.generated = [len(c["deployments"]) for c in corpus.cards]
        self.verified: dict[bytes, tuple[str, int]] = {}
        self.rest_refs: dict[tuple[int, int], bytes] = {}
        self.deferred: list[tuple[int, int, bytes, str]] = []
        self.compared = 0
        self.uncomparable = 0

    def versions(self, card: int) -> tuple[int, int]:
        with self.lock:
            return self.started[card], self.done[card]

    def append_started(self, card: int) -> None:
        with self.lock:
            self.started[card] += 1

    def append_done(self, card: int) -> None:
        with self.lock:
            self.done[card] += 1

    def _identity(self, digest: bytes, body: bytes) -> tuple[str, int]:
        """(external_id, deployment count) of a body; parsed once per digest."""
        with self.lock:
            known = self.verified.get(digest)
        if known is None:
            doc = json.loads(body)
            known = (doc["model_card"]["external_id"], len(doc["deployments"]))
            with self.lock:
                self.verified[digest] = known
        return known

    def retrieve(self, op: Op, body: bytes, before: tuple[int, int],
                 after: tuple[int, int], fetch_rest_ref) -> None:
        digest = _body_digest(body)
        external_id, count = self._identity(digest, body)
        expected_id = self.corpus.ids[op.card]
        if external_id != expected_id:
            raise CheckFailed(f"retrieve returned {external_id!r}, wanted {expected_id!r}")
        low, high = self.generated[op.card] + before[1], self.generated[op.card] + after[0]
        if not low <= count <= high:
            raise CheckFailed(f"card {expected_id!r} has {count} deployments, "
                              f"wanted {low}..{high}")
        if not before[0] == before[1] == after[0] == after[1]:
            with self.lock:
                self.uncomparable += op.frontend != "rest"
            return  # an append overlapped the request: state not pinned down
        key = (op.card, before[1])
        with self.lock:
            ref = self.rest_refs.get(key)
            if op.frontend == "rest":
                self.rest_refs.setdefault(key, digest)
        if op.frontend == "rest":
            if ref is not None and ref != digest:
                raise CheckFailed(f"two REST retrieves of one state of {expected_id!r} differ")
            return
        if ref is None and self.sequential:
            ref = _body_digest(fetch_rest_ref(op.card))
            with self.lock:
                self.rest_refs[key] = ref
        if ref is None:
            with self.lock:
                self.deferred.append((op.card, before[1], digest, op.frontend))
            return
        self._compare(ref, digest, op.frontend, expected_id)

    def _compare(self, ref: bytes, digest: bytes, frontend: str, mc_id: str) -> None:
        with self.lock:
            self.compared += 1
        if ref != digest:
            raise CheckFailed(f"{frontend} retrieve of {mc_id!r} differs from REST "
                              "for the same state")

    def finish_deferred(self, fetch_rest_ref) -> list[str]:
        """Compare deferred retrieves whose card is still in the same state."""
        failures = []
        refs: dict[int, bytes] = {}
        for card, version, digest, frontend in self.deferred:
            if self.started[card] != version or self.done[card] != version:
                self.uncomparable += 1
                continue
            if card not in refs:
                refs[card] = _body_digest(fetch_rest_ref(card))
            try:
                self._compare(refs[card], digest, frontend, self.corpus.ids[card])
            except CheckFailed as exc:
                failures.append(str(exc))
        self.deferred.clear()
        return failures

    def search(self, body: bytes | str) -> None:
        hits = json.loads(body)
        if not isinstance(hits, list):
            raise CheckFailed("search did not return a list")
        strangers = [h.get("mc_id") for h in hits if h.get("mc_id") not in self.corpus.id_set]
        if strangers:
            raise CheckFailed(f"search returned ids outside the corpus: {strangers[:3]}")

    @staticmethod
    def edge(body: bytes | str, source: str, target: str) -> None:
        created = json.loads(body)
        if created.get("rel_type") != "INCLUDES" or created.get("src") != source \
                or created.get("dst") != target:
            raise CheckFailed(f"unexpected create_edge result {created!r}")


# --- operations ---

class Connections:
    """One client's connections: fresh per op, or opened lazily and kept."""

    def __init__(self, server: Server, fresh: bool, via: dict | None = None):
        self.server = server
        self.fresh = fresh
        self.via = via or {}
        self.kept: dict[str, RestClient | McpClient] = {}

    def _new(self, frontend: str):
        cls = RestClient if frontend == "rest" else McpClient
        return cls(self.server.endpoint(frontend), self.via.get(frontend),
                   timeout=CLIENT_TIMEOUT_S)

    def get(self, frontend: str) -> tuple[object, bool]:
        """(client, needs_open)."""
        if self.fresh:
            return self._new(frontend), True
        client = self.kept.get(frontend)
        if client is None:
            client = self.kept[frontend] = self._new(frontend)
            return client, True
        return client, False

    def release(self, client) -> None:
        if self.fresh:
            client.close()

    def close(self) -> None:
        for client in self.kept.values():
            client.close()
        self.kept.clear()


class Runner:
    """Executes ops against one server and checks every response."""

    def __init__(self, server: Server, corpus: Corpus, checker: Checker,
                 experiment_ids: list[str], edge_ids: list[str]):
        self.server = server
        self.corpus = corpus
        self.checker = checker
        self.experiment_ids = experiment_ids
        self.edge_ids = edge_ids
        self.failures: list[str] = []
        self.attempted = 0
        self._lock = threading.Lock()

    def fetch_rest_ref(self, card: int) -> bytes:
        client = RestClient(self.server.endpoint("rest"), timeout=CLIENT_TIMEOUT_S)
        client.connect()
        try:
            status, _, body = client.request("GET", rest_retrieve_path(self.corpus.ids[card]))
        finally:
            client.close()
        if status != 200:
            raise CheckFailed(f"reference retrieve failed with {status}")
        return body

    def run(self, op: Op, conns: Connections) -> LatencySample | None:
        """One checked op; None if it failed (the failure is recorded)."""
        with self._lock:
            self.attempted += 1
        try:
            return self._run(op, conns)
        except (CheckFailed, ClientError, OSError, http.client.HTTPException, ValueError,
                KeyError, TypeError) as exc:
            with self._lock:
                self.failures.append(f"{op.frontend} {op.kind}: {type(exc).__name__}: {exc}")
            broken = conns.kept.pop(op.frontend, None)  # never reuse a failed connection
            if broken is not None:
                broken.close()
            return None

    def _run(self, op: Op, conns: Connections) -> LatencySample:
        checker = self.checker
        if op.kind == "append":
            checker.append_started(op.card)
        before = checker.versions(op.card) if op.kind == "retrieve" else None
        client, needs_open = conns.get(op.frontend)
        try:
            if op.frontend == "rest":
                timing, body = self._rest(op, client, needs_open)
            else:
                timing, body = self._mcp(op, client, needs_open)
        finally:
            conns.release(client)
        if op.kind == "append":
            if not json.loads(body).get("element_id"):
                raise CheckFailed(f"append returned no element_id: {body[:200]!r}")
            checker.append_done(op.card)
        elif op.kind == "retrieve":
            checker.retrieve(op, body, before, checker.versions(op.card), self.fetch_rest_ref)
        elif op.kind == "search":
            checker.search(body)
        else:
            checker.edge(body, *self._edge_ends(op))
        connect_ms, handshake_ms, exchange_ms = timing
        return LatencySample(
            target=op.frontend, operation=op.kind, sample_idx=0,
            connection_setup_ms=connect_ms, sse_handshake_ms=handshake_ms,
            server_processing_ms=exchange_ms,
            total_ms=connect_ms + handshake_ms + exchange_ms, payload_bytes=len(body),
        )

    def _edge_ends(self, op: Op) -> tuple[str, str]:
        experiment, deployment = op.edge
        return self.experiment_ids[experiment], self.edge_ids[deployment]

    def _rest(self, op: Op, client: RestClient, needs_open: bool):
        if op.kind == "retrieve":
            method, path, payload = "GET", rest_retrieve_path(self.corpus.ids[op.card]), None
        elif op.kind == "search":
            method, path, payload = "GET", rest_search_path(op.query), None
        elif op.kind == "create_edge":
            source, target = self._edge_ends(op)
            method, path = "POST", "/edge"
            payload = wire.dump_bytes({"source_id": source, "target_id": target})
        else:
            method = "POST"
            path = f"/modelcard/{quote(self.corpus.ids[op.card])}/deployment"
            payload = wire.dump_bytes(op.deployment)
        t0 = time.perf_counter_ns()
        if needs_open:
            client.connect()
        t1 = time.perf_counter_ns()
        status, _, body = client.request(method, path, payload)
        t2 = time.perf_counter_ns()
        wanted = 201 if op.kind in ("create_edge", "append") else 200
        if status != wanted:
            raise CheckFailed(f"status {status}, wanted {wanted}: {body[:200]!r}")
        return ((t1 - t0) * _MS, 0.0, (t2 - t1) * _MS), body

    def _mcp(self, op: Op, client: McpClient, needs_open: bool):
        if op.kind == "retrieve":
            method = "resources/read"
            params = {"uri": f"modelcard://{self.corpus.ids[op.card]}"}
        elif op.kind == "search":
            method = "tools/call"
            params = {"name": "search_model_cards",
                      "arguments": {"query": op.query, "limit": 10}}
        else:
            source, target = self._edge_ends(op)
            method = "tools/call"
            params = {"name": "create_edge",
                      "arguments": {"source_id": source, "target_id": target}}
        t0 = time.perf_counter_ns()
        if needs_open:
            client.connect()
        t1 = time.perf_counter_ns()
        if needs_open:
            client.handshake()
        t2 = time.perf_counter_ns()
        msg_id = client.send_request(method, params)
        name, data = client.next_raw_event()
        t3 = time.perf_counter_ns()
        if name != "message":
            raise CheckFailed(f"unexpected SSE event {name!r}")
        message = json.loads(data)
        if message.get("id") != msg_id:
            raise CheckFailed(f"response id {message.get('id')!r} != request id {msg_id!r}")
        if "error" in message:
            raise CheckFailed(f"JSON-RPC error {message['error']}")
        result = message["result"]
        if op.kind == "retrieve":
            text = result["contents"][0]["text"]
        else:
            if result.get("isError") is not False:
                raise CheckFailed(f"isError set: {result['content'][0]['text'][:200]}")
            text = result["content"][0]["text"]
        return ((t1 - t0) * _MS, (t2 - t1) * _MS, (t3 - t2) * _MS), text.encode("utf-8")


class Sampler:
    """Samples one CPU's time counters on its own thread while ops run.

    Each sample is (seconds from the start, jiffies the hypervisor stole,
    all jiffies), counted since boot on that CPU. Stolen jiffies between two
    samples mean that in that interval the virtual CPU had work to do but
    was not running.
    """

    PERIOD_S = 0.05

    def __init__(self, cpu: int):
        self._line = f"cpu{cpu} "
        self.samples: list[tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self, origin: float) -> None:
        with open("/proc/stat", encoding="ascii") as stat:
            line = next(line for line in stat if line.startswith(self._line))
        # user nice system idle iowait irq softirq steal
        jiffies = [int(x) for x in line.split()[1:9]]
        self.samples.append((time.perf_counter() - origin, jiffies[7], sum(jiffies)))

    def start(self, origin: float) -> None:
        def loop():
            while True:
                self._sample(origin)
                if self._stop.wait(self.PERIOD_S):
                    self._sample(origin)
                    return
        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def run_ops(runner: Runner, ops, fresh: bool, clients: int = 1, via: dict | None = None,
            seconds: float | None = None, sampler: Sampler | None = None):
    """Closed loop: ``clients`` threads, each taking the next op from ``ops``
    when its last one is answered, until ``ops`` ends or, with ``seconds``,
    until that many seconds have passed (no op starts later). Returns
    (op, sample or None) pairs in the order the ops were taken, the wall
    seconds they took, and each op's completion time in seconds from the
    start."""
    results: list = []
    ends: list = []
    source = iter(ops)
    source_lock = threading.Lock()

    def client_loop():
        conns = Connections(runner.server, fresh, via)
        try:
            while True:
                with source_lock:
                    if seconds is not None and time.perf_counter() - start >= seconds:
                        return
                    op = next(source, None)
                    if op is None:
                        return
                    index = len(results)
                    results.append((op, None))
                    ends.append(0.0)
                results[index] = (op, runner.run(op, conns))
                ends[index] = time.perf_counter() - start
        finally:
            conns.close()

    start = time.perf_counter()
    if sampler is not None:
        sampler.start(start)
    try:
        if clients == 1:
            client_loop()
        else:
            threads = [threading.Thread(target=client_loop) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        if sampler is not None:
            sampler.stop()
    return results, time.perf_counter() - start, ends


def proxy_pass(runner: Runner, ops: list[Op]) -> dict:
    """Run ``ops`` over fresh connections through zero-delay proxies and
    return per-frontend {ops, connections, round_trips} from the proxies."""
    proxies = {f: WanProxy((HOST, 0), (HOST, runner.server.ports[f])).start()
               for f in FRONTENDS}
    try:
        via = {f: f"{HOST}:{proxy.port}" for f, proxy in proxies.items()}
        run_ops(runner, ops, fresh=True, via=via)
        counts = {}
        for frontend, proxy in proxies.items():
            stats = proxy.stats()
            counts[frontend] = {"ops": sum(op.frontend == frontend for op in ops),
                                "connections": stats["connections"],
                                "round_trips": stats["round_trips"]}
        return counts
    finally:
        for proxy in proxies.values():
            proxy.stop()
