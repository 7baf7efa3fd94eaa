"""Span recorders wrapped around the registry's modules from outside.

``install`` replaces every public function and public method of the traced
modules with a wrapper that times the call, so the program's own source is
never edited. Spans nest per thread: each span records its duration and its
self time (duration minus the direct child spans inside it). A few
boundaries that are not public callables get named spans too: the REST
request handler, the MCP SSE stream and its writes, the graph store's
reader/writer lock, and the record copies the store makes on every read.

Aggregates are kept in memory, one row per span name:
``[calls, total_ns, self_ns, size]`` where ``size`` counts characters
encoded by ``wire.dumps``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

TRACED_MODULES = ("cards", "registry", "graphstore", "fulltext", "wire",
                  "mcpserver", "rest", "wanproxy")

# name of the span that marks "inside an SSE stream writer"; a wire.dumps
# under it is the JSON-RPC envelope encode
SSE_STREAM = "mcpserver.sse_stream"


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rows: dict[str, list] = {}
        self._emitted: dict[int, int] = {}  # id(message) -> emit time, until encoded

    # --- recording ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, duration_ns: int, self_ns: int | None = None, size: int = 0):
        with self._lock:
            row = self._rows.get(name)
            if row is None:
                row = self._rows[name] = [0, 0, 0, 0]
            row[0] += 1
            row[1] += duration_ns
            row[2] += duration_ns if self_ns is None else self_ns
            row[3] += size

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, result, start_ns, parent)``
        may record extra rows once the call returns."""
        stack_of = self._stack
        add = self.add
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                add(name, duration, duration - frame[1])
            if after is not None:
                after(args, result, start, parent)
            return result

        return traced

    def snapshot(self) -> dict:
        """Aggregates since the previous snapshot."""
        with self._lock:
            rows, self._rows = self._rows, {}
        return {name: {"calls": r[0], "total_ms": r[1] / 1e6, "self_ms": r[2] / 1e6,
                       "size": r[3]} for name, r in rows.items()}

    # --- hooks for boundaries that need more than a duration ---

    def note_emit(self, message) -> None:
        with self._lock:
            self._emitted[id(message)] = time.perf_counter_ns()

    def after_dumps(self, args, result, start_ns: int, parent: str | None) -> None:
        self.add("wire.dumps.chars", 0, 0, len(result))
        if parent != SSE_STREAM:
            return
        self.add("mcpserver.envelope_encode", time.perf_counter_ns() - start_ns)
        with self._lock:
            emitted = self._emitted.pop(id(args[0]), None)
        if emitted is not None:
            self.add("mcpserver.event_queue_wait", start_ns - emitted)


def _public_functions(module):
    for name, value in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == module.__name__:
            yield name, value


def _public_classes(module):
    for name, value in vars(module).items():
        if not name.startswith("_") and inspect.isclass(value) \
                and value.__module__ == module.__name__:
            yield name, value


def _wrap_method(tracer: Tracer, cls, attr: str, span: str, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(span, raw.__func__, after)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, after)))
    elif inspect.isfunction(raw):
        setattr(cls, attr, tracer.wrap(span, raw, after))


def install(tracer: Tracer, package: str = "mcard_registry") -> None:
    """Wrap the public callables of every traced module, then rebind names
    that other modules imported with ``from module import name``."""
    modules = {name: importlib.import_module(f"{package}.{name}") for name in TRACED_MODULES}
    hooks = _after_hooks(tracer)
    replaced: dict[int, object] = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module):
            span = f"{short}.{name}"
            wrapper = tracer.wrap(span, fn, hooks.get(span))
            setattr(module, name, wrapper)
            replaced[id(fn)] = wrapper
        for _name, cls in _public_classes(module):
            for attr, raw in list(vars(cls).items()):
                if not attr.startswith("_") and (
                        isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw)):
                    span = f"{short}.{cls.__name__}.{attr}"
                    _wrap_method(tracer, cls, attr, span, hooks.get(span))
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, name, replaced[id(value)])
    _install_boundaries(tracer, modules)


def _after_hooks(tracer: Tracer) -> dict:
    def after_retrieve(args, agg, start, parent):
        for query, ms in agg.query_timings:
            tracer.add(f"registry.query.{query}", int(ms * 1e6))

    return {
        "wire.dumps": tracer.after_dumps,
        "registry.Registry.retrieve_model_card": after_retrieve,
    }


def _install_boundaries(tracer: Tracer, modules: dict) -> None:
    rest, mcpserver, graphstore = modules["rest"], modules["mcpserver"], modules["graphstore"]

    # request handler classes are built per server inside _make_handler
    make_rest_handler = rest._make_handler

    def rest_handler(server):
        cls = make_rest_handler(server)
        cls._route = tracer.wrap("rest.request", cls._route)
        return cls

    rest._make_handler = rest_handler

    make_mcp_handler = mcpserver._make_handler

    def mcp_handler(server):
        cls = make_mcp_handler(server)
        cls._stream = tracer.wrap(SSE_STREAM, cls._stream)
        cls._write_event = tracer.wrap("mcpserver.sse_write", cls._write_event)
        return cls

    mcpserver._make_handler = mcp_handler

    emit = mcpserver.McpSession.emit

    def traced_emit(self, message):
        tracer.note_emit(message)
        return emit(self, message)

    mcpserver.McpSession.emit = traced_emit

    lock = graphstore._RWLock
    lock.acquire_read = tracer.wrap("graphstore.read_lock_wait", lock.acquire_read)
    acquire_write, release_write = lock.acquire_write, lock.release_write
    held = threading.local()

    def traced_acquire_write(self):
        start = time.perf_counter_ns()
        acquire_write(self)
        held.since = time.perf_counter_ns()
        tracer.add("graphstore.write_lock_wait", held.since - start)

    def traced_release_write(self):
        release_write(self)
        tracer.add("graphstore.write_hold", time.perf_counter_ns() - held.since)

    lock.acquire_write = traced_acquire_write
    lock.release_write = traced_release_write

    store = graphstore.GraphStore
    store._copy_node = tracer.wrap("graphstore.copy_record", store._copy_node)
    store._copy_edge = tracer.wrap("graphstore.copy_record", store._copy_edge)
