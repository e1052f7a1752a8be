"""The hybrid ``process+async`` backend: coroutine fan-in on real cores.

The process backend gives handlers true multi-core parallelism but models
every client as an OS thread; the async backend runs ten thousand coroutine
clients but executes every handler body under the parent's GIL.  This
backend composes the two halves that matter:

* **handlers live in worker processes** — exactly the
  :class:`~repro.backends.process.ProcessBackend` machinery: framed-socket
  private queues, parent-assigned tickets, journal-before-feed, failover
  replay, counter piggybacking.  Nothing is reimplemented; this class *is*
  a ``ProcessBackend`` for everything handler-side.
* **clients run as coroutine tasks** on a
  :class:`~repro.backends.async_.LoopPool` (``nloops`` event loops, each a
  daemon thread).  A coroutine client's private queue is an
  :class:`AsyncProcessPrivateQueue`: the same wire protocol over an
  :class:`~repro.queues.socket_queue.AsyncFrameStream`, with every reply
  wait turned into a future resolved by a per-queue reader task instead of
  a blocking ``recv`` — the event loop never blocks on the socket.

Blocking clients (``runtime.spawn_client``, the main thread) keep using the
inherited thread-side queues untouched, so both client kinds coexist with
identical counters — the backend-parity property the test suite checks.

Wire guarantees carry over unchanged because the transport core is shared
(:class:`~repro.queues.socket_queue.FrameBuffers`): frames coalesce at the
same threshold, ``wire_frames_coalesced`` counts the same bursts, and the
journal/replay failover of the process backend holds — when a worker dies
under coroutine clients, the queue's reader task observes the EOF, re-pins
the handler (off-loop, in an executor), and replays the in-flight block
over a fresh stream; regenerated replies are discarded as stale exactly
like the blocking path.

Select with ``QsRuntime(backend="process+async")``,
``REPRO_BACKEND=process+async[:nproc[:nloops[:codec]]]`` or
``repro --backend process+async:4:2``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.backends.async_ import AsyncClientHandle, AsyncEventHandle, LoopPool
from repro.backends.process import ProcessBackend, ProcessPrivateQueue, _WorkerProcess
from repro.errors import ScoopError
from repro.queues.private_queue import ResultBox, SyncRequest
from repro.queues.socket_queue import AsyncFrameStream, SocketQueueClosed


class AsyncProcessPrivateQueue(ProcessPrivateQueue):
    """A coroutine client's private queue to a process-hosted handler.

    Same wire protocol, journal accounting and counters as the blocking
    :class:`~repro.backends.process.ProcessPrivateQueue`, but no call ever
    blocks the event loop: sends buffer into an
    :class:`~repro.queues.socket_queue.AsyncFrameStream` (connected lazily
    by a reader task) and every reply wait is a continuation the reader
    resolves in arrival order — the wire stays a strict SPSC channel, so
    FIFO continuations *are* the demultiplexer.
    """

    def __init__(self, backend: "HybridBackend", handler: Any,
                 worker: _WorkerProcess, counters: Any) -> None:
        super().__init__(backend, handler, worker, counters)
        #: FIFO of reply continuations: ("sync", SyncRequest) fires the
        #: release, ("query", ResultBox) fills the box, ("invoke", Future)
        #: resolves the awaited client-executed body
        self._waiting: Deque[Tuple[str, Any]] = deque()
        self._failed: Optional[BaseException] = None
        self._failovers = 0

    # -- connection (reader-task owned) --------------------------------------
    def _ensure_stream(self) -> AsyncFrameStream:
        if self._failed is not None:
            raise self._failed
        if self._stream is None:
            self._stream = self._new_stream()
        return self._stream

    def _new_stream(self) -> AsyncFrameStream:
        """Build a stream whose outbox starts with the hello frame.

        The hello is flushed into the outbox on its own (mirroring the
        blocking queue's eager hello send) so it never inflates the
        ``wire_frames_coalesced`` count of the first data burst; the reader
        task connects and ships the outbox off-protocol.
        """
        stream = AsyncFrameStream(self.backend.codec)
        stream.send({"kind": "hello", "handler": self.handler.name,
                     "token": self.backend.token, "client": self.client_name})
        asyncio.get_running_loop().create_task(
            self._reader(stream, self.worker.data_addr),
            name=f"pq-reader:{self.handler.name}")
        return stream

    def _ensure_open(self) -> AsyncFrameStream:
        stream = self._ensure_stream()
        if self._pending_ticket is not None:
            ticket, self._pending_ticket = self._pending_ticket, None
            stream.feed({"kind": "open", "ticket": ticket, "block": self.block_id})
        return stream

    # -- wire (never blocks, never fails over inline) ------------------------
    def _feed(self, payload: Dict[str, Any]) -> None:
        # journal-before-feed as in the blocking queue; a frame written to a
        # dying transport is replayed by the reader task's failover, so no
        # inline delivery probe is needed (the reader *is* the probe)
        self.backend.journal_frame(self.handler.name, self._ticket, payload)
        self._note_coalesced(self._ensure_open().feed(payload))

    def _flush_wire(self) -> None:
        stream = self._stream
        if stream is None:
            return
        self._note_coalesced(stream.flush())

    # -- client-side surface (issue + continuation instead of issue + recv) --
    def enqueue_sync(self, request: Optional[SyncRequest] = None) -> SyncRequest:
        if request is None:  # pragma: no cover - callers always pass one
            request = SyncRequest()
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        self._send({"kind": "sync"})
        self._waiting.append(("sync", request))
        return request

    def enqueue_query(self, request: Any) -> ResultBox:
        if request.result is None:  # pragma: no cover - callers always pass one
            request.result = ResultBox()
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        self.synced = False
        self._send(self._call_payload("query", request))
        self._waiting.append(("query", request.result))
        return request.result

    def invoke(self, handle: Any, feature: Optional[str], args: tuple, kwargs: dict,
               fn: Optional[Callable[..., Any]] = None) -> Any:
        raise ScoopError(
            "a coroutine client's private queue cannot run a blocking invoke; "
            "client-executed query bodies go through invoke_async")

    async def invoke_async(self, handle: Any, feature: Optional[str], args: tuple,
                           kwargs: dict, fn: Optional[Callable[..., Any]] = None) -> Any:
        """Awaitable twin of the blocking queue's ``invoke``."""
        return await self.issue_invoke(handle, feature, args, kwargs, fn)

    def issue_invoke(self, handle: Any, feature: Optional[str], args: tuple, kwargs: dict,
                     fn: Optional[Callable[..., Any]] = None) -> "asyncio.Future[Any]":
        """Feed and flush the ``invoke``; the token is the future its reply resolves."""
        super().issue_invoke(handle, feature, args, kwargs, fn)
        fut = asyncio.get_running_loop().create_future()
        self._waiting.append(("invoke", fut))
        return fut

    async def wait_invoke_async(self, token: "asyncio.Future[Any]") -> Any:
        return await token

    def abandon_invoke(self, token: "asyncio.Future[Any]") -> None:
        # the reader still pops the continuation in order, and skips it
        token.cancel()

    # -- reply delivery (runs on the owning loop, from the reader task) ------
    def _deliver(self, reply: Dict[str, Any]) -> None:
        self._failovers = 0  # contact with a live worker resets the budget
        counters = reply.get("counters")
        if counters:
            self.backend.merge_worker_counters(self.handler, counters)
        if self._stale_replies > 0:
            self._stale_replies -= 1
            return
        if not self._waiting:  # pragma: no cover - defensive
            return
        self._replies_seen += 1
        kind, target = self._waiting.popleft()
        if kind == "sync":
            target.fire()
        elif kind == "query":
            if reply["kind"] == "error":
                target.set_error(self._reply_exception(reply))
            else:
                target.set(reply.get("value"))
        else:  # invoke
            if not target.done():
                if reply["kind"] == "error":
                    target.set_exception(self._reply_exception(reply))
                else:
                    target.set_result(reply.get("value"))

    def _fail_waiting(self, exc: BaseException) -> None:
        """Poison the queue: resolve every waiter, refuse further sends."""
        self._failed = exc
        while self._waiting:
            kind, target = self._waiting.popleft()
            if kind == "sync":
                # a sync has no error channel; release the waiter — the
                # block's next operation raises the recorded failure
                target.fire()
            elif kind == "query":
                target.set_error(exc)
            elif not target.done():
                target.set_exception(exc)

    async def _reader(self, stream: AsyncFrameStream, addr: Tuple[str, int]) -> None:
        """Connect, then pump replies into continuations until EOF."""
        try:
            try:
                await stream.connect(*addr)
            except (OSError, asyncio.TimeoutError):
                if self._stream is stream:
                    await self._reader_failover()
                return
            while True:
                try:
                    reply = await stream.recv()
                except (SocketQueueClosed, OSError):
                    if self._stream is stream:
                        await self._reader_failover()
                    return
                self._deliver(reply)
        finally:
            stream.close()

    async def _reader_failover(self) -> None:
        """Re-establish this queue on the dead worker's replacement.

        The asynchronous twin of the blocking queue's
        ``_failover_reconnect``: worker re-pinning runs in an executor (it
        may spawn a subprocess — far too slow for the loop), then the new
        stream is installed and the in-flight block replayed in ONE
        synchronous section, so a client ``_feed`` interleaved at the await
        points is either journaled before the replay snapshot or lands in
        the new stream's outbox — never both, never neither.
        """
        backend: "HybridBackend" = self.backend
        if backend._shutting_down or not backend.failover:
            self._fail_waiting(ScoopError(
                f"handler process for {self.handler.name!r} closed the "
                f"connection while a coroutine client was attached"))
            return
        self._failovers += 1
        if self._failovers > 2:  # the replacement itself kept dying
            self._fail_waiting(ScoopError(
                f"handler {self.handler.name!r} lost its worker process and "
                f"failover could not re-establish the block"))
            return
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, backend.worker_failed, self.worker)
            self.worker = await loop.run_in_executor(
                None, backend._worker_for, self.handler.name)
        except ScoopError as exc:
            self._fail_waiting(exc)
            return
        # ---- synchronous section: no awaits until the stream is swapped ----
        frames = backend.journal_for(self.handler.name, self._ticket)
        stream = AsyncFrameStream(backend.codec)
        stream.send({"kind": "hello", "handler": self.handler.name,
                     "token": backend.token, "client": self.client_name})
        if frames is not None:
            stream.send({"kind": "open", "ticket": self._ticket, "block": self.block_id})
            for frame in frames:
                stream.send(frame)
            self._pending_ticket = None
            # every reply this block already consumed is regenerated by the
            # replay; replies pending on the dead stream died with it
            self._stale_replies = self._replies_seen
        else:
            # the block was pre-filed by worker_failed's restore (it had
            # ended), so reconnect with a clean slate
            self._stale_replies = 0
        self._stream = stream
        loop.create_task(self._reader(stream, self.worker.data_addr),
                         name=f"pq-reader:{self.handler.name}")

    # -- blocking entry points that must never be reached --------------------
    def _connect(self):  # pragma: no cover - defensive
        raise ScoopError("AsyncProcessPrivateQueue connects from its reader task")

    def _recv_reply(self, what: str):  # pragma: no cover - defensive
        raise ScoopError("AsyncProcessPrivateQueue receives replies on its reader task")

    def _failover_reconnect(self):  # pragma: no cover - defensive
        raise ScoopError("AsyncProcessPrivateQueue fails over from its reader task")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"AsyncProcessPrivateQueue(handler={self.handler.name!r}, "
                f"synced={self.synced}, waiting={len(self._waiting)})")


class HybridBackend(ProcessBackend):
    """Handlers in a process worker pool, clients as coroutine tasks.

    Parameters
    ----------
    processes:
        Worker-process cap, exactly as in :class:`ProcessBackend` (``None``
        gives every handler its own process).
    loops:
        Number of client event loops (``nloops`` in the selection spec).
        Coroutine clients are spread round-robin across them, so reply
        decoding and continuation dispatch parallelise over real threads
        while the handler bodies run on worker cores.
    codec / reply_timeout / failover:
        As in :class:`ProcessBackend`.
    """

    name = "process+async"
    supports_async_clients = True

    def __init__(self, processes: Optional[int] = None, loops: int = 1,
                 codec: str = "pickle", reply_timeout: float = 300.0,
                 failover: bool = True) -> None:
        super().__init__(processes=processes, codec=codec,
                         reply_timeout=reply_timeout, failover=failover)
        self.nloops = loops
        self._pool = LoopPool(loops)
        self._shutting_down = False
        #: loop-affinity hints recorded for shard replicas (describe_placement)
        self._loop_hint: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, runtime: Any) -> None:
        self._pool.start()  # raises on re-attach, like the async backend
        super().attach(runtime)

    def shutdown(self, timeout: float = 10.0) -> None:
        # flag first: worker teardown closes the data connections, and the
        # reader tasks must read those EOFs as shutdown, not as failovers
        self._shutting_down = True
        super().shutdown(timeout)
        self._pool.stop(timeout)

    # ------------------------------------------------------------------
    # coroutine-client plumbing (the async half)
    # ------------------------------------------------------------------
    def spawn_task(self, factory: Callable[[], Any], name: str) -> AsyncClientHandle:
        if self._pool.finished:
            raise ScoopError("the hybrid backend has been shut down")
        return self._pool.spawn_task(factory, name)

    def create_event(self) -> AsyncEventHandle:
        # dual-protocol events, so thread clients block and coroutine
        # clients await on the very same sync/query machinery
        return AsyncEventHandle(self._pool)

    def create_private_queue(self, handler: Any, counters: Any) -> ProcessPrivateQueue:
        if self._pool.on_loop_thread():
            return AsyncProcessPrivateQueue(
                self, handler, self._worker_for(handler.name), counters)
        return super().create_private_queue(handler, counters)

    async def execute_synced_query_async(self, client: Any, ref: Any,
                                         fn: Callable[[Any], Any],
                                         feature: Optional[str] = None, args: tuple = (),
                                         kwargs: Optional[dict] = None,
                                         raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        queue = client.queue_for(ref.handler)
        if feature:
            return await queue.invoke_async(ref._raw(), feature, args, kwargs or {})
        if raw_fn is not None:
            return await queue.invoke_async(ref._raw(), None, args, kwargs or {}, fn=raw_fn)
        return await queue.invoke_async(ref._raw(), None, (), {}, fn=fn)

    # ------------------------------------------------------------------
    # placement: both halves are visible
    # ------------------------------------------------------------------
    def create_shard_handlers(self, runtime: Any, names: List[str]) -> List[Any]:
        """Pin replicas to distinct workers AND record a loop affinity.

        The worker pre-pin is the inherited multi-core placement; the loop
        hint (replica ``i`` → loop ``i % nloops``) records which client
        loop a replica's coroutine traffic ideally concentrates on, and is
        reported by :meth:`describe_placement`.
        """
        with self._lock:
            for i, name in enumerate(names):
                self._loop_hint[name] = i % self.nloops
        return super().create_shard_handlers(runtime, names)

    def describe_placement(self, names: List[str]) -> Dict[str, str]:
        """``worker:<pid>+loop:<i>`` — the process half and the client half.

        Handlers without a recorded loop affinity (anything outside a shard
        group) report ``loop:*``: their coroutine clients are spread
        round-robin over every loop.
        """
        placement = super().describe_placement(names)
        with self._lock:
            return {name: f"{placement[name]}+loop:{self._loop_hint.get(name, '*')}"
                    for name in names}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cap = self.processes if self.processes is not None else "per-handler"
        return (f"HybridBackend(processes={cap}, loops={self.nloops}, "
                f"codec={self.codec!r})")
