"""Client-side request machinery: reservations, calls, queries, sync elision.

Every thread that wants to talk to handlers owns a :class:`Client` (the
runtime hands them out per-thread).  The client implements the code the
SCOOP/Qs *compiler* would emit around a separate block (Figs. 8–11 in the
paper):

* ``reserve`` / ``release``  — enqueue a private queue into each reserved
  handler's queue-of-queues and append the END marker when the block closes
  (rule *separate*).  Multi-handler reservations take the per-handler
  spinlocks so the insertions are atomic (Section 3.3).  When the
  queue-of-queues optimization is disabled the client instead holds each
  handler's reservation lock for the whole block (the original protocol).
* ``call``   — package an asynchronous call and append it to the private
  queue (rule *call*, Fig. 9).
* ``query``  — either ship a packaged query and wait for its result (the
  original rule) or, with the client-executed-query optimization, send a
  SYNC marker, wait for the release and run the query body locally
  (Fig. 10b).  Dynamic sync coalescing (Section 3.4.1) skips the marker when
  the handler is already parked on this client's queue.  A private queue
  whose handler lives in another process ships the body anyway, so there
  the sync travels with it: one round trip per query, not two.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import ExecutionBackend
from repro.backends.threaded import ThreadedBackend
from repro.config import QsConfig
from repro.core.expanded import prepare_arguments
from repro.core.handler import Handler
from repro.core.region import SeparateRef
from repro.errors import NotReservedError, ReservationError, ScoopError
from repro.queues.private_queue import CallRequest, PrivateQueue, ResultBox, SyncRequest
from repro.util.counters import Counters
from repro.util.tracing import NullTracer, Tracer


def _payload_size(args: tuple, kwargs: dict) -> int:
    """Rough payload size estimate used for bytes-copied accounting.

    Intentionally conservative and allocation free: it recognises numpy
    arrays, byte strings and plain containers and charges a word for
    anything else (references, separate refs, small scalars).
    """
    if not args and not kwargs:
        return 0
    total = 0
    for value in list(args) + list(kwargs.values()):
        nbytes = type(value).__dict__.get("nbytes")  # avoid arbitrary __getattr__
        if nbytes is None and hasattr(type(value), "nbytes") and type(value).__module__.startswith("numpy"):
            total += int(value.nbytes)
        elif isinstance(value, (bytes, bytearray, str)):
            total += len(value)
        elif isinstance(value, (list, tuple)):
            total += 8 * len(value)
        elif isinstance(value, dict):
            total += 16 * len(value)
        else:
            total += 8
    return total


@dataclass
class Reservation:
    """One client's live reservation of one handler."""

    handler: Handler
    private_queue: PrivateQueue
    #: True when the non-QoQ protocol acquired the handler's reservation lock
    holds_lock: bool = False


class PendingQuery:
    """A query that has been *issued* but whose wait is still the caller's.

    This is the issue/wait client split made first-class: scatter-gather
    (:mod:`repro.shard`) issues one query per shard up front, then collects
    the results — blocking (:meth:`wait`) or awaited (:meth:`wait_async`) —
    so the per-shard handler work overlaps instead of serialising.  Under
    the unoptimized protocol the pending state is the packaged query's
    result box; under client-executed queries it is the in-flight SYNC
    round trip (``None`` when dynamic coalescing elided it), after which the
    query body runs on the waiting side via the backend's
    ``execute_synced_query`` placement hook.  A queue that ships query
    bodies (``ships_query_bodies``) sends the body's ``invoke`` frame at
    issue time instead, so the pending state is that frame's reply.

    At most one query may be pending per handler, and each result may be
    waited for once — waiting is what restores the client's synchronous
    control, so issuing anything else to the same handler first (or waiting
    twice) would invalidate the pending state.  Both misuses raise
    :class:`~repro.errors.ScoopError` instead of corrupting the protocol;
    a pending query abandoned when its separate block closes is simply
    dropped with the block.
    """

    __slots__ = ("_client", "_ref", "_fn", "_args", "_kwargs", "_feature", "_box", "_sync",
                 "_invoke", "_consumed")

    def __init__(self, client: "Client", ref: SeparateRef, fn: Callable[[Any], Any],
                 args: tuple, kwargs: dict, feature: str,
                 box: Optional[ResultBox] = None,
                 sync_request: Optional[SyncRequest] = None,
                 invoke: Optional[Tuple[Any, Any]] = None) -> None:
        self._client = client
        self._ref = ref
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self._feature = feature
        self._box = box
        self._sync = sync_request
        #: ``(queue, token)`` of a body shipped at issue time
        self._invoke = invoke
        self._consumed = False

    def _consume(self) -> None:
        if self._consumed:
            raise ScoopError(
                f"the result of pending query {self._feature!r} on handler "
                f"{self._ref.handler.name!r} has already been consumed")
        self._consumed = True
        if self._box is None:
            self._client._pending_queries.pop(self._ref.handler, None)

    def _abandon(self) -> None:
        """The block closes before the wait: the shipped body's reply is unwanted."""
        if self._invoke is not None:
            queue, token = self._invoke
            queue.abandon_invoke(token)

    def wait(self) -> Any:
        """Block for (and return) the query's result."""
        self._consume()
        if self._box is not None:
            return self._box.wait()
        if self._invoke is not None:
            queue, token = self._invoke
            result = queue.wait_invoke(token)
            self._client._record_exec(self._ref, self._feature)
            return result
        if self._sync is not None:
            self._sync.release.wait()
            self._client._finish_sync(self._ref)
        return self._client._execute_client_query(
            self._ref, self._fn, self._args, self._kwargs, feature=self._feature)

    async def wait_async(self) -> Any:
        """Awaitable twin of :meth:`wait` (asyncio-capable backends only)."""
        self._consume()
        if self._box is not None:
            return await self._box.wait_async()
        if self._invoke is not None:
            queue, token = self._invoke
            result = await queue.wait_invoke_async(token)
            self._client._record_exec(self._ref, self._feature)
            return result
        if self._sync is not None:
            await self._sync.release.wait_async()
            self._client._finish_sync(self._ref)
        return await self._client._execute_client_query_async(
            self._ref, self._fn, self._args, self._kwargs, feature=self._feature)


class Client:
    """Per-thread client state: reservation stacks, queue cache, request ops."""

    def __init__(
        self,
        config: QsConfig,
        counters: Optional[Counters] = None,
        name: Optional[str] = None,
        tracer: "Tracer | NullTracer | None" = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.config = config
        self.counters = counters or Counters()
        self.name = name or threading.current_thread().name
        # explicit None check: an empty Tracer has len() == 0 and must not be
        # mistaken for "no tracer"
        self.tracer = tracer if tracer is not None else NullTracer()
        #: execution backend supplying wait events and wake-up notifications
        self.backend = backend if backend is not None else ThreadedBackend()
        #: stack of live reservations per handler (innermost last), so nested
        #: separate blocks on the same handler behave like the formal model
        #: (lookup uses the *last* occurrence).
        self._reservations: Dict[Handler, List[Reservation]] = {}
        #: cache of private queues per handler (Section 3.2)
        self._pq_cache: Dict[Handler, List[PrivateQueue]] = {}
        #: queries issued (sync sent) but not yet waited for, per handler —
        #: logging anything else to such a handler would corrupt the
        #: client-executed-query protocol, so the request ops reject it
        self._pending_queries: Dict[Handler, "PendingQuery"] = {}

    # ------------------------------------------------------------------
    # reservations
    # ------------------------------------------------------------------
    def reserve(self, handlers: Sequence[Handler]) -> List[Reservation]:
        """Reserve ``handlers`` (a single separate block, possibly multi)."""
        if not handlers:
            raise ReservationError("a separate block must reserve at least one handler")
        unique: List[Handler] = []
        for handler in handlers:
            if handler in unique:
                raise ReservationError(f"handler {handler.name!r} reserved twice in one block")
            unique.append(handler)

        reservations: List[Reservation] = []
        if not self.config.use_qoq:
            # Original SCOOP: take the handler locks for the whole block.
            # Locks are acquired in a canonical (creation) order so the
            # runtime itself never deadlocks on a *single* multi-reservation;
            # nested blocks can of course still deadlock, which is the
            # behaviour the paper discusses in Section 2.5 (see the
            # semantics explorer).
            for handler in sorted(unique, key=lambda h: h.seq):
                acquired = handler.reservation_lock.acquire(blocking=False)
                if not acquired:
                    self.counters.bump("lock_waits")
                    handler.reservation_lock.acquire()
                self.counters.bump("lock_acquisitions")

        queues = [self._obtain_private_queue(handler) for handler in unique]

        if len(unique) > 1:
            self.counters.bump("multi_reservations")
            # Section 3.3: insert every private queue atomically with respect
            # to other multi-reservations by holding each handler's spinlock.
            ordered = sorted(range(len(unique)), key=lambda i: unique[i].seq)
            for i in ordered:
                unique[i].spinlock.acquire()
            try:
                for handler, queue in zip(unique, queues):
                    handler.qoq.enqueue(queue)
            finally:
                for i in reversed(ordered):
                    unique[i].spinlock.release()
        else:
            unique[0].qoq.enqueue(queues[0])
        for handler in unique:
            self.backend.notify_handler(handler)

        for handler, queue in zip(unique, queues):
            reservation = Reservation(handler, queue, holds_lock=not self.config.use_qoq)
            self._reservations.setdefault(handler, []).append(reservation)
            reservations.append(reservation)
            self.tracer.record("reserve", handler.name, client=self.name, block=queue.block_id)
        return reservations

    def release(self, reservations: Sequence[Reservation]) -> None:
        """Close a separate block: append END markers and undo bookkeeping."""
        for reservation in reservations:
            handler = reservation.handler
            stack = self._reservations.get(handler, [])
            if not stack or stack[-1] is not reservation:
                raise ReservationError(
                    f"separate blocks must be released innermost-first (handler {handler.name!r})"
                )
            # a pending issued query dies with its block (the handler fired
            # the sync and will resume past it at the END marker)
            pending = self._pending_queries.pop(handler, None)
            if pending is not None:
                pending._abandon()
            reservation.private_queue.enqueue_end()
            self.backend.notify_handler(handler)
            self.tracer.record("release", handler.name, client=self.name,
                               block=reservation.private_queue.block_id)
            handler.owner.revoke_sync_access(threading.current_thread())
            stack.pop()
            if not stack:
                del self._reservations[handler]
            if self.config.private_queue_cache:
                self._pq_cache.setdefault(handler, []).append(reservation.private_queue)
        if not self.config.use_qoq:
            for reservation in sorted(reservations, key=lambda r: r.handler.seq, reverse=True):
                if reservation.holds_lock:
                    reservation.handler.reservation_lock.release()

    def _obtain_private_queue(self, handler: Handler) -> PrivateQueue:
        if self.config.private_queue_cache:
            cache = self._pq_cache.get(handler)
            if cache:
                queue = cache.pop()
                queue.reset_for_reuse()
                queue.block_id = self.tracer.next_block_id()
                return queue
        queue = self.backend.create_private_queue(handler, self.counters)
        queue.client_name = self.name
        queue.block_id = self.tracer.next_block_id()
        return queue

    def queue_for(self, handler: Handler) -> PrivateQueue:
        """The private queue of the innermost live reservation of ``handler``."""
        stack = self._reservations.get(handler)
        if not stack:
            raise NotReservedError(
                f"handler {handler.name!r} is not reserved by client {self.name!r}; "
                "wrap the calls in a separate block"
            )
        return stack[-1].private_queue

    def reserved(self, handler: Handler) -> bool:
        return bool(self._reservations.get(handler))

    def _check_no_pending_query(self, handler: Handler) -> None:
        if handler in self._pending_queries:
            raise ScoopError(
                f"a query issued on handler {handler.name!r} is still pending; wait for "
                "its result (PendingQuery.wait / await wait_async) before logging further "
                "requests to that handler")

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def call(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> None:
        """Log an asynchronous call of ``method`` on the separate object."""
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        args, kwargs = prepare_arguments(args, kwargs, self.counters)
        request = CallRequest(
            fn=operator.methodcaller(method, *args, **kwargs),
            args=(ref._raw(),),
            payload_bytes=_payload_size(args, kwargs),
            feature=method,
            block=queue.block_id,
            call_args=args,
            call_kwargs=dict(kwargs),
        )
        # logging an asynchronous call invalidates any synchronous control we
        # held over the handler (the handler will become busy again)
        handler.owner.revoke_sync_access(threading.current_thread())
        self.tracer.record("log-call", handler.name, client=self.name,
                           feature=method, block=queue.block_id)
        queue.enqueue_call(request)
        self.backend.notify_handler(handler)

    def call_function(self, ref: SeparateRef, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Asynchronously apply ``fn(raw_object, *args, **kwargs)`` on the handler."""
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        args, kwargs = prepare_arguments(args, kwargs, self.counters)
        feature = getattr(fn, "__name__", "<callable>")
        request = CallRequest(fn=fn, args=(ref._raw(), *args), kwargs=dict(kwargs),
                              payload_bytes=_payload_size(args, kwargs), feature=feature,
                              block=queue.block_id)
        handler.owner.revoke_sync_access(threading.current_thread())
        self.tracer.record("log-call", handler.name, client=self.name,
                           feature=feature, block=queue.block_id)
        queue.enqueue_call(request)
        self.backend.notify_handler(handler)

    def query(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> Any:
        """Issue a synchronous query and return its result."""
        fn = operator.methodcaller(method, *args, **kwargs)
        box = self._start_query(ref, fn, args, dict(kwargs), feature=method, described=True)
        if box is not None:
            return box.wait()
        self._sync(ref, fold=True)
        return self._execute_client_query(ref, fn, args, dict(kwargs), feature=method)

    def issue_query(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> PendingQuery:
        """Issue a synchronous query without waiting for its result.

        Returns a :class:`PendingQuery` whose ``wait()`` (or awaited
        ``wait_async()``) produces the result.  Issuing several queries to
        *different* handlers before waiting is how scatter-gather overlaps
        per-shard work; at most one query may be pending per handler.
        """
        fn = operator.methodcaller(method, *args, **kwargs)
        box = self._start_query(ref, fn, args, dict(kwargs), feature=method, described=True)
        if box is not None:
            # packaged query: the request is on the queue, FIFO keeps it
            # ordered against anything logged later — nothing to guard
            return PendingQuery(self, ref, fn, args, dict(kwargs), method, box=box)
        request = self._begin_sync(ref, fold=True)
        queue = self.queue_for(ref.handler)
        invoke = None
        if queue.ships_query_bodies:
            # the body leaves now, so a scatter-gather overlaps the bodies
            # themselves; only the reply wait is left to PendingQuery
            invoke = (queue, queue.issue_invoke(ref._raw(), method, args, dict(kwargs)))
        pending = PendingQuery(self, ref, fn, args, dict(kwargs), method,
                               sync_request=request, invoke=invoke)
        # client-executed query: between the SYNC (or the shipped body) and
        # the wait the handler must stay parked on this queue, so further
        # requests are rejected until the result is consumed (see
        # _check_no_pending_query)
        self._pending_queries[ref.handler] = pending
        return pending

    def query_function(self, ref: SeparateRef, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Synchronous query applying ``fn(raw_object, *args, **kwargs)``."""
        feature = getattr(fn, "__name__", "<callable>")
        def wrapped(obj):
            return fn(obj, *args, **kwargs)
        box = self._start_query(ref, wrapped, args, dict(kwargs), feature=feature, raw_fn=fn)
        if box is not None:
            return box.wait()
        self._sync(ref, fold=True)
        return self._execute_client_query(ref, wrapped, args, dict(kwargs),
                                          feature=feature, raw_fn=fn)

    def _start_query(self, ref: SeparateRef, fn: Callable[[Any], Any], args: tuple, kwargs: dict,
                     feature: str, described: bool = False,
                     raw_fn: Optional[Callable[..., Any]] = None) -> Optional[ResultBox]:
        """Common query entry shared with the awaitable client.

        Records the query and, under the *unoptimized* protocol, ships it
        packaged — returning the box the caller waits on (blocking or
        awaited).  Returns ``None`` under the client-executed protocol: the
        caller must sync (again in its own wait style, with ``fold=True``)
        and then run :meth:`_execute_client_query`.
        """
        self._check_no_pending_query(ref.handler)
        self.counters.bump("queries")
        self.tracer.record("log-query", ref.handler.name, client=self.name,
                           feature=feature, block=self.queue_for(ref.handler).block_id)
        if self.config.client_executed_queries:
            return None
        return self._start_remote_query(ref, fn, args, kwargs, feature=feature,
                                        described=described, raw_fn=raw_fn)

    def _execute_client_query(self, ref: SeparateRef, fn: Callable[[Any], Any], args: tuple,
                              kwargs: dict, feature: str,
                              raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        """Run a synced query body on the client (Section 3.2) and trace it."""
        result = self.backend.execute_synced_query(
            self, ref, fn, feature=feature if raw_fn is None else None,
            args=args, kwargs=kwargs, raw_fn=raw_fn)
        self._record_exec(ref, feature)
        return result

    async def _execute_client_query_async(self, ref: SeparateRef, fn: Callable[[Any], Any],
                                          args: tuple, kwargs: dict, feature: str,
                                          raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        """Awaitable twin of :meth:`_execute_client_query`.

        Coroutine clients land here (via :class:`PendingQuery.wait_async`
        and the :class:`~repro.core.async_api.AsyncClient` query paths) so
        a backend whose query bodies cross a socket can await the round
        trip; in-memory backends run the body inline either way.
        """
        result = await self.backend.execute_synced_query_async(
            self, ref, fn, feature=feature if raw_fn is None else None,
            args=args, kwargs=kwargs, raw_fn=raw_fn)
        self._record_exec(ref, feature)
        return result

    def _record_exec(self, ref: SeparateRef, feature: str) -> None:
        self.tracer.record("exec-client", ref.handler.name, client=self.name,
                           feature=feature, block=self.queue_for(ref.handler).block_id)

    # -- pieces ----------------------------------------------------------
    def sync(self, ref: SeparateRef) -> bool:
        """Ensure the handler is parked on this client's private queue.

        Returns ``True`` if a sync round-trip was actually performed and
        ``False`` if it was elided by dynamic sync coalescing.
        """
        return self._sync(ref)

    def _sync(self, ref: SeparateRef, fold: bool = False) -> bool:
        request = self._begin_sync(ref, fold)
        if request is None:
            return False
        request.release.wait()
        self._finish_sync(ref)
        return True

    def _begin_sync(self, ref: SeparateRef, fold: bool = False) -> Optional[SyncRequest]:
        """Send the SYNC marker (or elide it); the wait is left to the caller.

        The issue/wait split exists so the blocking client and the awaitable
        :class:`~repro.core.async_api.AsyncClient` share every protocol step
        — only *how* the release event is waited on differs.  Returns
        ``None`` when dynamic sync coalescing elided the round trip.

        ``fold`` marks the sync before a client-executed query body.  On a
        queue that ships query bodies across a socket it costs no frame:
        the worker drains each block in FIFO order, inside ticket order, so
        the body's ``invoke`` runs after every earlier request of the block
        — exactly the state the round trip would wait for.  The sync is
        counted as usual and the queue is marked synced (the body follows
        at once on this same queue); ``None`` is returned.  Explicit syncs
        never fold: their caller may be waiting for effects outside the
        handler's objects.
        """
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        if self.config.dynamic_sync_coalescing and queue.synced:
            self.counters.bump("syncs_elided")
            self.tracer.record("sync-elided", handler.name, client=self.name, block=queue.block_id)
            return None
        if fold and queue.ships_query_bodies:
            queue.fold_sync()
            self._finish_sync(ref)
            return None
        request = queue.enqueue_sync(SyncRequest(release=self.backend.create_event()))
        self.backend.notify_handler(handler)
        return request

    def _finish_sync(self, ref: SeparateRef) -> None:
        """Bookkeeping once the sync release has been observed."""
        handler = ref.handler
        queue = self.queue_for(handler)
        queue.synced = True
        handler.owner.grant_sync_access(threading.current_thread())
        self.tracer.record("sync", handler.name, client=self.name, block=queue.block_id)

    def presynced_query(self, ref: SeparateRef, fn: Callable[..., Any]) -> Any:
        """Run a query whose sync was removed by the *static* pass.

        The caller (generated code / :mod:`repro.core.transfer`) is asserting
        that the handler is already synced at this program point, so neither a
        sync message nor a dynamic check is issued.
        """
        self.counters.bump("queries")
        result = self.backend.execute_synced_query(self, ref, fn)
        if self.tracer.enabled:
            queue = self.queue_for(ref.handler)
            self.tracer.record("exec-client", ref.handler.name, client=self.name,
                               feature=getattr(fn, "__name__", "<callable>"), block=queue.block_id)
        return result

    def _remote_query(self, ref: SeparateRef, fn: Callable[[Any], Any], args: tuple, kwargs: dict,
                      feature: str = "", described: bool = False,
                      raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        return self._start_remote_query(ref, fn, args, kwargs, feature=feature,
                                        described=described, raw_fn=raw_fn).wait()

    def _start_remote_query(self, ref: SeparateRef, fn: Callable[[Any], Any], args: tuple,
                            kwargs: dict, feature: str = "", described: bool = False,
                            raw_fn: Optional[Callable[..., Any]] = None) -> ResultBox:
        """Ship a packaged query; return its result box without waiting.

        ``described`` means the request literally is ``getattr(obj,
        feature)(*args, **kwargs)``; ``raw_fn`` means it is ``raw_fn(obj,
        *args, **kwargs)`` — both forms a socket transport can ship
        without pickling the wrapper closure in ``fn``.  The issue/wait
        split lets the awaitable client ``await`` the box instead of
        blocking on it.
        """
        handler = ref.handler
        queue = self.queue_for(handler)
        request = CallRequest(fn=fn, args=(ref._raw(),), payload_bytes=_payload_size(args, kwargs),
                              feature=feature, block=queue.block_id,
                              result=ResultBox(event=self.backend.create_event()),
                              call_args=args if (described or raw_fn is not None) else None,
                              call_kwargs=dict(kwargs) if (described or raw_fn is not None) else None,
                              raw_fn=raw_fn)
        box = queue.enqueue_query(request)
        self.backend.notify_handler(handler)
        return box

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Client({self.name!r}, reservations={sum(len(v) for v in self._reservations.values())})"
