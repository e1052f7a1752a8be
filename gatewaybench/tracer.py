"""Spans around the calls into each layer, recorded from the benchmark's side.

Nothing under ``src/`` changes: :class:`Tracer` replaces public functions
and methods of the layers with timing wrappers for the length of a traced
run.  Each span records ``(name, request id, span id, parent span id,
start ns, end ns)`` into an in-memory list; the current span travels in a
context variable, so spans of one request share its id across ``await``
points.  The gateway's executor hop does not copy context by itself, so
:meth:`Tracer.carry_context` makes the executor run each submitted call in
a copy of the submitting task's context.

The request id is the ``X-Request-Id`` header the load generator sends;
it lets the analysis join a request's gateway span with its end-to-end
latency measured in the load generator's process.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[str, Optional[int], int, int, int, int]
_MISSING = object()


class Tracer:
    """In-memory span recorder with reversible wrappers (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> ``(end ns, value)`` that ``on_result`` took from each call's result
        self.values: Dict[str, List[Tuple[int, Any]]] = {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "gatewaybench_span", default=None)
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Any], Any]] = None,
             root: Optional[Callable[[tuple], Optional[int]]] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording a ``name`` span.

        ``root`` makes every call a root span whose request id it extracts
        from the call's arguments; other spans inherit the current span's
        request id.
        """
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        current, ids, spans, clock = self._current, self._ids, self.spans, time.perf_counter_ns
        values = self.values.setdefault(name, []) if on_result else None

        def enter(args: tuple) -> Tuple[int, Optional[int], int, Any]:
            parent = None if root else current.get()
            sid = next(ids)
            if parent is not None:
                rid, parent_sid = parent[1], parent[0]
            else:
                rid, parent_sid = (root(args) if root else None), 0
            return sid, rid, parent_sid, current.set((sid, rid))

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid, rid, parent_sid, token = enter(args)
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append((name, rid, sid, parent_sid, start, end))
                if values is not None:
                    values.append((end, on_result(result)))
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid, rid, parent_sid, token = enter(args)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append((name, rid, sid, parent_sid, start, end))
                if values is not None:
                    values.append((end, on_result(result)))
                return result
        setattr(owner, attr, wrapper)

    def carry_context(self, executor: Any) -> None:
        """Run every call submitted to ``executor`` in the submitter's context."""
        submit = executor.submit

        def submit_in_context(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            return submit(contextvars.copy_context().run, fn, *args, **kwargs)

        self._undo.append((executor, "submit", _MISSING))
        executor.submit = submit_in_context

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------------
    def window(self, start_ns: int, end_ns: int) -> List[Span]:
        """The spans that started inside ``[start_ns, end_ns]``."""
        return [s for s in self.spans if start_ns <= s[4] <= end_ns]

    def window_values(self, name: str, start_ns: int, end_ns: int) -> List[Any]:
        """The ``on_result`` values of ``name`` calls that ended inside the window."""
        return [v for t, v in self.values.get(name, ()) if start_ns <= t <= end_ns]


def install_layers(tracer: Tracer, codec: Any) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from repro.backends.hybrid import HybridBackend
    from repro.backends.process import ProcessBackend
    from repro.core.async_api import AsyncReservedProxy
    from repro.core.client import Client
    from repro.queues.socket_queue import AsyncFrameStream, FrameStream
    from repro.serve import app, gateway
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import ReadCache
    from repro.serve.router import Router
    from repro.shard.group import ShardedGroup

    def request_id(args: tuple) -> Optional[int]:
        value = args[1].headers.get("x-request-id")
        return int(value) if value is not None else None

    wrap = tracer.wrap
    wrap(gateway.Gateway, "_respond", "gateway.server", root=request_id)
    wrap(gateway, "json_response", "http.respond")
    wrap(Router, "resolve", "router.resolve")
    wrap(ReadCache, "lookup", "cache.lookup")
    wrap(ReadCache, "begin_read", "cache.begin_read")
    wrap(ReadCache, "store", "cache.store", on_result=bool)
    wrap(ReadCache, "invalidate", "cache.invalidate")
    wrap(AdmissionController, "admit", "admission.admit")
    wrap(AdmissionController, "release", "admission.release")
    # the route table is built from these module globals by serve_cases
    for handler in ("get_case", "put_case", "get_allegations", "post_allegation"):
        wrap(app, handler, "app.handler")
    wrap(ShardedGroup, "ref_for", "shard.ref_for")
    wrap(Client, "reserve", "core.reserve")
    wrap(Client, "release", "core.release")
    wrap(Client, "query", "core.query")
    wrap(AsyncReservedProxy, "ask", "core.query")
    wrap(codec, "encode", "codec.encode", on_result=len)
    wrap(codec, "decode", "codec.decode")
    wrap(FrameStream, "flush", "wire.flush", on_result=int)
    wrap(AsyncFrameStream, "flush", "wire.flush", on_result=int)
    wrap(ProcessBackend, "execute_synced_query", "backend.roundtrip")
    wrap(HybridBackend, "execute_synced_query_async", "backend.roundtrip")


def covered_ns(span: Span, children: Dict[int, List[Span]],
               transparent: Iterable[str] = ()) -> int:
    """Nanoseconds of ``span`` covered by its children, overlaps counted once.

    Children named in ``transparent`` are looked through: their own
    children count instead of them.  Children are clipped to the span, so
    a child recorded under a span that had already ended counts nothing.
    """
    transparent = frozenset(transparent)
    start, end = span[4], span[5]
    intervals = []
    stack = list(children.get(span[2], ()))
    while stack:
        child = stack.pop()
        if child[0] in transparent:
            stack.extend(children.get(child[2], ()))
            continue
        lo, hi = max(start, child[4]), min(end, child[5])
        if hi > lo:
            intervals.append((lo, hi))
    intervals.sort()
    total, reach = 0, start
    for lo, hi in intervals:
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def children_index(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span[3]:
            index.setdefault(span[3], []).append(span)
    return index
