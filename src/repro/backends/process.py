"""The process execution backend: every handler in its own OS process.

This is the paper's Section 7 future work made real: the private queue is
transport-agnostic, so the queue-of-queues protocol can run over sockets —
and once it does, handlers can live in separate processes and execute with
true multi-core parallelism instead of time-slicing one GIL.

Division of labour:

* **clients stay threads of the parent process** and run completely
  unmodified client code: reservations, sync coalescing, wait conditions,
  the lock-based protocol variants — all of it is the shared machinery of
  :mod:`repro.core.client`.
* **each handler becomes a socket server in a worker process**
  (:mod:`repro.backends.process_worker`): one
  :class:`~repro.queues.socket_queue.FrameStream` connection per (client,
  handler) pair is that client's private queue, and a process-local
  queue-of-queues drain serves blocks strictly in *ticket* order.
* **tickets preserve the reasoning guarantees**: the parent assigns each
  reservation a per-handler sequence number at ``qoq.enqueue`` time — i.e.
  under the very spinlocks that make multi-handler reservations atomic
  (Section 3.3) — and the worker's drain admits blocks in ticket order, so
  the FIFO-of-private-queues service order is bit-identical to the
  shared-memory backends no matter how frames race on the wire.
* **counters aggregate across the process boundary**: every sync release /
  query result piggybacks the worker's counter snapshot, and the close
  report carries the final one; the parent folds the deltas into the
  runtime's :class:`~repro.util.counters.Counters`, so ``rt.stats()`` shows
  ``calls_executed`` et al. exactly as the in-memory backends do.

What travels is *described requests* (``feature``/``args``/``kwargs``), not
code — the codec decides fidelity: ``pickle`` (the default; both ends are
processes we spawned) round-trips tuples, sets, exceptions and importable
callables; ``json`` restricts arguments and results to JSON types but is
wire-portable.  Select with ``QsRuntime(backend="process")``,
``REPRO_BACKEND=process[:nproc][:codec]`` or ``repro --backend process``;
``nproc`` caps worker processes (handlers are assigned round-robin), the
default is one process per handler.

Known limits (documented in ``docs/backends.md``): handler objects cannot
hold backend-unaware references into the parent (no shipping the runtime or
live ``SeparateRef``s as call arguments), and handler-side trace events are
not recorded in the parent's tracer.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import secrets
import socket
import subprocess
import sys
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.backends.threaded import ThreadedBackend
from repro.errors import ScoopError
from repro.queues.codec import CODECS, get_codec
from repro.queues.private_queue import ResultBox, SyncRequest
from repro.queues.socket_queue import FrameStream, SocketQueueClosed

#: worker bootstrap, kept import-only so no parent state is assumed
_WORKER_CMD = "from repro.backends.process_worker import main; main()"


class RemoteHandlerError(ScoopError):
    """An asynchronous call raised inside a handler process.

    Carries the remote ``repr`` and traceback text (the exception object
    itself stayed in the worker, exactly like the in-memory backends keep
    failures on the handler until shutdown).
    """

    def __init__(self, description: str, remote_traceback: str = "") -> None:
        super().__init__(description)
        self.remote_traceback = remote_traceback


class RemoteCallError(ScoopError):
    """A remote call failed and the original exception could not travel.

    Raised when the worker's error reply only carried a ``repr`` (JSON
    codec, or an unpicklable exception); with the pickle codec the original
    exception is re-raised instead.
    """


class RemoteHandle:
    """Parent-side stand-in for an object hosted in a handler process.

    A :class:`~repro.core.region.SeparateRef` wraps this instead of the raw
    object.  ``_scoop_class`` advertises the hosted object's class so
    ``@command``/``@query`` markers still resolve on the client side.
    """

    __slots__ = ("handler_name", "oid", "_scoop_class")

    def __init__(self, handler_name: str, oid: int, cls: type) -> None:
        self.handler_name = handler_name
        self.oid = oid
        self._scoop_class = cls

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<RemoteHandle {self._scoop_class.__name__}#{self.oid} @ {self.handler_name}>"


class _WorkerProcess:
    """One spawned worker child: its control channel and data address."""

    def __init__(self, proc: subprocess.Popen, control: FrameStream,
                 data_addr: "tuple[str, int]") -> None:
        self.proc = proc
        self.control = control
        self.data_addr = data_addr
        self.handler_names: List[str] = []
        self._lock = threading.Lock()

    def request(self, op: Dict[str, Any], timeout: float = 60.0) -> Dict[str, Any]:
        """Send one control op and wait for its reply (strict req/rep)."""
        with self._lock:
            self.control.send(op)
            try:
                reply = self.control.recv(timeout=timeout)
            except SocketQueueClosed:
                reply = None
        if reply is None:
            raise ScoopError(
                f"worker process {self.proc.pid} did not answer control op "
                f"{op.get('op')!r} (it may have crashed)")
        if not reply.get("ok", False):
            raise ScoopError(
                f"worker process {self.proc.pid} rejected {op.get('op')!r}: "
                f"{reply.get('error')}\n{reply.get('traceback', '')}")
        return reply

    def stop(self, timeout: float) -> None:
        try:
            self.request({"op": "exit"}, timeout=min(timeout, 10.0))
        except ScoopError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        self.control.close()


class _RemoteQoQ:
    """Parent-side façade standing in for a remote handler's queue-of-queues.

    ``Client.reserve`` enqueues private queues into it exactly as it does
    with the in-memory :class:`~repro.queues.qoq.QueueOfQueues`; here the
    enqueue assigns the block's ticket (the FIFO position the worker's drain
    will honour) and triggers the ``open`` frame on the queue's connection.
    """

    def __init__(self, backend: "ProcessBackend", handler: Any, worker: _WorkerProcess) -> None:
        self.backend = backend
        self.handler = handler
        self.worker = worker
        self.counters = handler.counters
        self._lock = threading.Lock()
        self._tickets = 0
        self.closed = False
        #: the worker's drain report, filled in by :meth:`close`
        self.report: Optional[Dict[str, Any]] = None

    def enqueue(self, private_queue: "ProcessPrivateQueue") -> None:
        # Multi-handler reservations call this while holding every reserved
        # handler's spinlock (Section 3.3), so only the ticket assignment —
        # which fixes the block's FIFO position — happens here.  The open
        # frame (and a first-use connect) is deferred to the block's first
        # request, keeping socket I/O out of the critical section.
        with self._lock:
            ticket = self._tickets
            self._tickets += 1
        # same accounting as QueueOfQueues.enqueue
        self.counters.bump("qoq_enqueues")
        self.counters.bump("reservations")
        private_queue.open_block(ticket)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        op = {"op": "close", "handler": self.handler.name, "tickets": self._tickets}
        try:
            self.report = self.worker.request(op)
        except ScoopError:
            if not self.backend.failover or self.worker.proc.poll() is None:
                raise  # a rejection from a live worker is a real error
            # the worker died before (or while) draining: fail it over — the
            # replacement replays every journaled block — and re-ask there
            self.backend.worker_failed(self.worker)
            self.worker = self.backend._worker_for(self.handler.name)
            self.report = self.worker.request(op)

    def __len__(self) -> int:
        return 0


class ProcessPrivateQueue:
    """A client's private queue to a remote handler: one framed connection.

    Mirrors the client-side surface of
    :class:`~repro.queues.private_queue.PrivateQueue` (``enqueue_call`` /
    ``enqueue_sync`` / ``enqueue_query`` / ``enqueue_end``, the ``synced``
    flag, reuse across blocks) with identical counter accounting, but ships
    every request over the wire.  Sync and query replies are read
    synchronously by the owning client thread — an SPSC channel needs no
    demultiplexer.
    """

    #: a client-executed query body crosses the socket as an ``invoke``
    #: frame, so the client folds the query's sync into it (one round trip)
    ships_query_bodies = True

    def __init__(self, backend: "ProcessBackend", handler: Any,
                 worker: _WorkerProcess, counters: Any) -> None:
        self.backend = backend
        self.handler = handler
        self.worker = worker
        self.counters = counters
        self.synced = False
        self.client_name: Optional[str] = None
        self.closed_by_client = False
        self.block_id: Optional[int] = None
        self._stream: Optional[FrameStream] = None
        self._pending_ticket: Optional[int] = None
        #: the current block's ticket (kept past the deferred open for failover)
        self._ticket: Optional[int] = None
        #: genuine replies consumed in the current block
        self._replies_seen = 0
        #: replies to discard because a failover replay regenerates them
        self._stale_replies = 0

    # -- connection ----------------------------------------------------------
    def _connect(self) -> FrameStream:
        if self._stream is None:
            sock = socket.create_connection(self.worker.data_addr, timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            self._stream = FrameStream(sock, self.backend.codec)
            # hello stays an eager send: the worker's registration window is
            # bounded (10 s), and a connection is made once then reused
            # across blocks — only per-call frames are worth coalescing
            self._stream.send({"kind": "hello", "handler": self.handler.name,
                               "token": self.backend.token, "client": self.client_name})
            self.backend.register_stream(self._stream)
        return self._stream

    def open_block(self, ticket: int) -> None:
        """Record this block's FIFO position (called by the qoq façade).

        The actual ``open`` frame is sent lazily by :meth:`_ensure_open`,
        because ``open_block`` runs inside the reservation's spinlock
        critical section where blocking socket I/O must not happen.  The
        ticket, not frame arrival order, decides when the worker serves the
        block, so the deferral cannot reorder service.
        """
        self._pending_ticket = ticket
        self._ticket = ticket
        # NOT _stale_replies: stale replies belong to the *connection* (a
        # failover replay's regenerated replies can straddle a block change),
        # so that debt survives until drained or the stream is replaced.
        self._replies_seen = 0

    def _ensure_open(self) -> FrameStream:
        stream = self._connect()
        if self._pending_ticket is not None:
            ticket, self._pending_ticket = self._pending_ticket, None
            stream.feed({"kind": "open", "ticket": ticket, "block": self.block_id})
        return stream

    def _feed(self, payload: Dict[str, Any]) -> None:
        """Journal, then *buffer* one data frame; fail over on a dead worker.

        The journal write happens *before* the feed, so a frame lost with a
        crashing worker is replayed by :meth:`_failover_reconnect` (which
        re-sends the whole current block, this frame included — hence no
        retry here after a reconnect).  The frame goes out with the next
        :meth:`_flush_wire` — or immediately, once enough frames are pending
        that the stream flushes the burst itself (syscall coalescing: many
        asynchronous calls, one ``sendall``).
        """
        self.backend.journal_frame(self.handler.name, self._ticket, payload)
        try:
            stream = self._ensure_open()
            flushed = stream.feed(payload)
            self._check_delivery(stream, flushed)
        except (OSError, SocketQueueClosed):
            if not self.backend.failover:
                raise
            self._failover_reconnect()
            return
        self._note_coalesced(flushed)

    def _flush_wire(self) -> None:
        """Ship every buffered frame in one ``sendall`` (before any wait)."""
        stream = self._stream
        if stream is None:
            return
        try:
            flushed = stream.flush()
            self._check_delivery(stream, flushed)
        except (OSError, SocketQueueClosed):
            if not self.backend.failover:
                raise
            self._failover_reconnect()
            return
        self._note_coalesced(flushed)

    @staticmethod
    def _check_delivery(stream: FrameStream, flushed: int) -> None:
        """Raise if a just-flushed burst went to an already dead worker.

        A whole coalesced block can leave in *one* ``sendall``, and a
        sendall into a freshly killed worker's socket succeeds (the kernel
        buffers it before the RST lands).  A block that contains no reply
        wait would then complete without anyone noticing the loss — and
        its ticket becomes a gap that wedges the replacement worker's
        in-order drain forever.  The peer's FIN is already queued locally
        by then, so probing for it turns the silent loss into the normal
        failover path, which replays the journaled block.
        """
        if flushed and stream.peer_closed():
            raise SocketQueueClosed("worker closed while a burst was in flight")

    def _note_coalesced(self, flushed: int) -> None:
        # N frames in one sendall = N-1 syscalls saved; the counter is a
        # pure frame count, so it is identical across wire codecs
        if flushed > 1:
            self.counters.add("wire_frames_coalesced", flushed - 1)

    def _send(self, payload: Dict[str, Any]) -> None:
        """Journal, buffer and flush one frame (the synchronous-path send)."""
        self._feed(payload)
        self._flush_wire()

    def _failover_reconnect(self) -> None:
        """Re-establish the current block on the dead worker's replacement.

        Declares the worker failed (idempotent; first caller wins), connects
        to wherever the handler was re-pinned, and replays the current
        block's journal — open frame first, then every data frame already
        sent.  The worker re-executes the block from the restored snapshot,
        so every reply consumed before the crash is *regenerated*; those are
        marked stale and discarded by :meth:`_recv_reply`.
        """
        last_error: Optional[BaseException] = None
        for _ in range(2):  # the replacement itself may die mid-replay
            try:
                self.backend.worker_failed(self.worker)
                self.worker = self.backend._worker_for(self.handler.name)
                if self._stream is not None:
                    self._stream.close()
                    self._stream = None
                stream = self._connect()
                frames = self.backend.journal_for(self.handler.name, self._ticket)
                if frames is not None:
                    stream.send({"kind": "open", "ticket": self._ticket,
                                 "block": self.block_id})
                    for frame in frames:
                        stream.send(frame)
                # the replay itself is fire-and-forget: make sure it did not
                # just vanish into a replacement that died mid-replay
                self._check_delivery(stream, 1)
                self._pending_ticket = None
                # every reply this block already consumed comes again — unless
                # the restore pre-filed the block, whose replies go nowhere;
                # replies pending on the discarded stream died with it
                self._stale_replies = self._replies_seen if frames is not None else 0
                return
            except (OSError, SocketQueueClosed, ScoopError) as exc:
                last_error = exc
        raise ScoopError(
            f"handler {self.handler.name!r} lost its worker process and failover "
            f"could not re-establish the block") from last_error

    # -- client-side surface (same accounting as the in-memory queue) -------
    def enqueue_call(self, request: Any) -> None:
        self.counters.bump("pq_enqueues")
        self.counters.bump("async_calls")
        if request.payload_bytes:
            self.counters.add("bytes_copied", request.payload_bytes)
        self.synced = False
        # asynchronous calls only feed: the burst is flushed by the next
        # synchronous frame (sync/query/end) or the stream's own batch limit
        self._feed(self._call_payload("call", request))

    def enqueue_sync(self, request: Optional[SyncRequest] = None) -> SyncRequest:
        if request is None:
            request = SyncRequest()
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        self._send({"kind": "sync"})
        self._recv_reply("sync")  # blocks until the drain reaches the marker
        request.fire()
        return request

    def fold_sync(self) -> None:
        """Count a query's sync that travels with the body's ``invoke`` frame.

        Same accounting as :meth:`enqueue_sync`, but no frame and no wait:
        the FIFO drain runs the ``invoke`` only after every earlier request
        of the block (see ``Client._begin_sync``).
        """
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")

    def enqueue_query(self, request: Any) -> ResultBox:
        if request.result is None:
            request.result = ResultBox()
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        self.synced = False
        self._send(self._call_payload("query", request))
        reply = self._recv_reply("query")
        if reply["kind"] == "error":
            request.result.set_error(self._reply_exception(reply))
        else:
            request.result.set(reply.get("value"))
        return request.result

    def enqueue_end(self) -> None:
        self.counters.bump("pq_enqueues")
        self.closed_by_client = True
        self.synced = False
        self._send({"kind": "end"})

    def invoke(self, handle: Any, feature: Optional[str], args: tuple, kwargs: dict,
               fn: Optional[Callable[..., Any]] = None) -> Any:
        """Run a client-executed query body on the remote handler: one round trip."""
        return self.wait_invoke(self.issue_invoke(handle, feature, args, kwargs, fn))

    def issue_invoke(self, handle: Any, feature: Optional[str], args: tuple, kwargs: dict,
                     fn: Optional[Callable[..., Any]] = None) -> Any:
        """Feed and flush one ``invoke`` frame; returns the token to wait on.

        Everything the block logged before is fed ahead of it, so the one
        flush carries the whole burst (and any folded sync) to the worker.
        """
        payload: Dict[str, Any] = {"kind": "invoke", "oid": self._oid_of(handle),
                                   "args": list(args), "kwargs": kwargs or {}}
        if feature:
            payload["feature"] = feature
        else:
            self._require_pickle("ship a callable query body")
            payload["fn"] = fn
        self._send(payload)
        return None

    def wait_invoke(self, token: Any = None) -> Any:
        """Read the reply of an issued ``invoke``; re-raise a remote failure."""
        reply = self._recv_reply("invoke")
        if reply["kind"] == "error":
            raise self._reply_exception(reply)
        return reply.get("value")

    async def wait_invoke_async(self, token: Any = None) -> Any:
        # a thread client's queue: every wait on it blocks, this one too
        return self.wait_invoke(token)

    def abandon_invoke(self, token: Any = None) -> None:
        """Drop an issued ``invoke`` whose reply nobody will wait for.

        The reply still arrives on this connection, so it is discarded as
        stale; counting it as seen keeps a failover replay's regenerated
        copy discarded too.
        """
        self._replies_seen += 1
        self._stale_replies += 1

    # -- bookkeeping ---------------------------------------------------------
    def reset_for_reuse(self) -> None:
        self.synced = False
        self.closed_by_client = False
        self.block_id = None

    def __len__(self) -> int:
        return 0  # requests live on the wire / in the worker, never here

    # -- internals -----------------------------------------------------------
    def _oid_of(self, handle: Any) -> int:
        if not isinstance(handle, RemoteHandle):
            raise ScoopError(
                f"handler {self.handler.name!r} runs in a separate process, but the "
                f"target {handle!r} was not adopted through it")
        return handle.oid

    def _call_payload(self, kind: str, request: Any) -> Dict[str, Any]:
        oid = self._oid_of(request.args[0] if request.args else None)
        if request.raw_fn is not None:
            # fn is an unpicklable wrapper closure; ship the user's callable
            self._require_pickle(f"ship the callable {request.raw_fn!r}")
            return {"kind": kind, "oid": oid, "fn": request.raw_fn,
                    "args": list(request.call_args or ()), "kwargs": request.call_kwargs or {}}
        if request.call_args is not None:
            return {"kind": kind, "oid": oid, "feature": request.feature,
                    "args": list(request.call_args), "kwargs": request.call_kwargs or {}}
        # an arbitrary callable (apply/compute): only pickle can carry it
        self._require_pickle(f"ship the callable {request.feature or request.fn!r}")
        return {"kind": kind, "oid": oid, "fn": request.fn,
                "args": list(request.args[1:]), "kwargs": dict(request.kwargs or {})}

    def _require_pickle(self, what: str) -> None:
        """Reject codecs that cannot ship arbitrary objects (callables).

        Only the full-fidelity codecs qualify: 'pickle' outright, and 'bin'
        via its pickle fallback for non-native values.
        """
        if not CODECS[self.backend.codec].faithful:
            raise ScoopError(
                f"the {self.backend.codec!r} wire codec cannot {what}; "
                f"use a full-fidelity codec — 'pickle' or 'bin' "
                f"(e.g. backend='process:bin')")

    def _recv_reply(self, what: str) -> Dict[str, Any]:
        while True:
            assert self._stream is not None
            try:
                reply = self._stream.recv(timeout=self.backend.reply_timeout)
            except (SocketQueueClosed, OSError):
                if self.backend.failover:
                    # the worker died with our reply: fail over and let the
                    # replayed block regenerate it (minus the stale ones)
                    self._failover_reconnect()
                    continue
                raise ScoopError(
                    f"handler process for {self.handler.name!r} closed the connection "
                    f"while a {what} reply was pending") from None
            if reply is None:
                raise ScoopError(
                    f"no {what} reply from handler {self.handler.name!r} within "
                    f"{self.backend.reply_timeout}s")
            counters = reply.get("counters")
            if counters:
                # merge even from stale replies: the high-water merge makes it
                # safe, and the snapshot may be the freshest we ever see
                self.backend.merge_worker_counters(self.handler, counters)
            if self._stale_replies > 0:
                self._stale_replies -= 1
                continue
            self._replies_seen += 1
            return reply

    def _reply_exception(self, reply: Dict[str, Any]) -> BaseException:
        error = reply.get("error")
        if isinstance(error, BaseException):
            return error
        return RemoteCallError(reply.get("message", "remote call failed"))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ProcessPrivateQueue(handler={self.handler.name!r}, "
                f"synced={self.synced}, connected={self._stream is not None})")


class ProcessBackend(ThreadedBackend):
    """Execute each handler in its own OS process behind a socket server.

    Parameters
    ----------
    processes:
        Maximum number of worker processes (handlers are assigned
        round-robin).  ``None`` (default) gives every handler its own.
    codec:
        Wire codec for request/reply payloads: ``"pickle"`` (default; full
        argument fidelity between same-trust processes) or ``"json"``.
    reply_timeout:
        Upper bound on waiting for a sync/query reply before raising — the
        process-backend analogue of a hung handler.
    failover:
        When ``True`` (default), a worker process that dies mid-run is
        detected on its broken connections and its handlers are re-pinned
        onto surviving (or fresh) workers: hosted objects are restored from
        their adopt-time snapshots and every block replayed from the
        parent's frame journal in ticket order, so clients observe at most
        a stall — never a dropped or reordered request.  ``False`` restores
        the old fail-stop behaviour (a dead worker raises
        :class:`~repro.errors.ScoopError` at the first affected client).
    """

    name = "process"

    def __init__(self, processes: Optional[int] = None, codec: str = "pickle",
                 reply_timeout: float = 300.0, failover: bool = True) -> None:
        super().__init__()
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.codec = get_codec(codec).name
        self.reply_timeout = reply_timeout
        self.failover = failover
        self.token = secrets.token_hex(16)
        self._lock = threading.Lock()
        self._workers: List[_WorkerProcess] = []
        self._assignment: Dict[str, _WorkerProcess] = {}
        self._listener: Optional[socket.socket] = None
        self._streams: List[FrameStream] = []
        self._oid_seq = itertools.count(1)
        self._counters_seen: Dict[str, Dict[str, int]] = {}
        self._counters_lock = threading.Lock()
        # failover state: adopt-time object snapshots and the per-(handler,
        # ticket) frame journal that a replacement worker replays
        self._hosted: Dict[str, Dict[int, bytes]] = {}
        self._journal: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self._journal_lock = threading.Lock()

    # ------------------------------------------------------------------
    # worker management
    # ------------------------------------------------------------------
    def _ensure_listener(self) -> socket.socket:
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(16)
            self._listener = listener
        return self._listener

    def _spawn_worker(self) -> _WorkerProcess:
        if os.environ.get("REPRO_PROCESS_WORKER"):
            # we *are* a worker: the parent's __main__ was imported here to
            # make its classes unpicklable-compatible, and it tried to build
            # a runtime at import time.  Refusing breaks the fork bomb.
            raise ScoopError(
                "refusing to spawn worker processes from inside a worker process; "
                "guard your script's entry point with `if __name__ == '__main__':` "
                "(the process backend imports it, multiprocessing-style, so its "
                "classes can unpickle in the workers)")
        listener = self._ensure_listener()
        env = dict(os.environ)
        # the worker must import repro (and unpickle classes defined in the
        # caller's modules), so it inherits this interpreter's search path
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        # a plain-script parent (__main__ with a file, not `-m pkg`) gets the
        # multiprocessing-style fixup so its module-level classes unpickle
        main_module = sys.modules.get("__main__")
        main_path = None
        if main_module is not None and getattr(main_module, "__spec__", None) is None:
            main_path = getattr(main_module, "__file__", None)
        env["REPRO_PROCESS_WORKER"] = json.dumps({
            "host": "127.0.0.1", "port": listener.getsockname()[1],
            "token": self.token, "codec": self.codec, "main_path": main_path,
        })
        proc = subprocess.Popen([sys.executable, "-c", _WORKER_CMD], env=env)
        listener.settimeout(30.0)
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            proc.kill()
            raise ScoopError("worker process did not connect back in time") from None
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        control = FrameStream(conn, "pickle")
        ready = control.recv(timeout=30.0)
        if ready is None or ready.get("op") != "ready" or ready.get("token") != self.token:
            proc.kill()
            raise ScoopError("worker process handshake failed")
        worker = _WorkerProcess(proc, control, ("127.0.0.1", int(ready["port"])))
        self._workers.append(worker)
        return worker

    def _worker_for(self, handler_name: str) -> _WorkerProcess:
        with self._lock:
            worker = self._assignment.get(handler_name)
            if worker is not None:
                return worker
            if self.processes is not None and len(self._workers) >= self.processes:
                worker = self._workers[len(self._assignment) % self.processes]
            else:
                worker = self._spawn_worker()
            self._assignment[handler_name] = worker
            worker.handler_names.append(handler_name)
            return worker

    def register_stream(self, stream: FrameStream) -> None:
        with self._lock:
            self._streams.append(stream)

    # ------------------------------------------------------------------
    # failover: journal + re-pin + restore
    # ------------------------------------------------------------------
    def journal_frame(self, handler_name: str, ticket: Optional[int],
                      payload: Dict[str, Any]) -> None:
        """Record one data frame so a replacement worker can replay it."""
        if not self.failover or ticket is None:
            return
        with self._journal_lock:
            entry = self._journal.setdefault(handler_name, {}).setdefault(
                ticket, {"frames": [], "ended": False})
            entry["frames"].append(payload)
            if payload.get("kind") == "end":
                entry["ended"] = True

    def journal_for(self, handler_name: str,
                    ticket: Optional[int]) -> Optional[List[Dict[str, Any]]]:
        """The frames a reconnecting client replays for its block, in send order.

        ``None`` when there is nothing to replay: no block, or one a
        failover restore already pre-filed on the replacement worker (it
        had ended) — replaying it again would run it twice.
        """
        with self._journal_lock:
            entry = self._journal.get(handler_name, {}).get(ticket)
            if entry is None or entry.get("restored"):
                return None
            return list(entry["frames"])

    def worker_failed(self, dead: _WorkerProcess) -> None:
        """Re-pin a dead worker's handlers onto survivors (idempotent).

        Holds the backend lock across the whole re-pin + restore, so a
        client racing to reconnect (blocked in :meth:`_worker_for`) cannot
        hello a replacement before its handler server, hosted objects and
        journaled blocks are in place.  Capped pools spread orphans
        round-robin over the survivors; uncapped pools keep the
        one-process-per-handler shape by spawning a fresh worker per
        orphan.  Bumps ``shard_failovers`` once per re-pinned handler.
        """
        with self._lock:
            if dead not in self._workers:
                return  # someone else already failed this worker over
            if dead.proc.poll() is None:
                # connections broke but the process lingers (half-dead, e.g.
                # stuck after closing its sockets): finish the job so the
                # replacement is unambiguous
                dead.proc.kill()
                try:
                    dead.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    pass
            self._workers.remove(dead)
            try:
                dead.control.close()
            except OSError:  # pragma: no cover - defensive
                pass
            runtime = getattr(self, "runtime", None)
            for i, name in enumerate(sorted(dead.handler_names)):
                if self.processes is not None and self._workers:
                    target = self._workers[i % len(self._workers)]
                else:
                    target = self._spawn_worker()
                self._assignment[name] = target
                target.handler_names.append(name)
                self._restore_handler(target, name)
                if runtime is not None:
                    handler = runtime._handlers.get(name)
                    if handler is not None:
                        if isinstance(handler.qoq, _RemoteQoQ):
                            handler.qoq.worker = target
                        handler.counters.bump("shard_failovers")

    def _restore_handler(self, target: _WorkerProcess, name: str) -> None:
        """Rebuild one orphaned handler on ``target`` (caller holds _lock)."""
        target.request({"op": "handler", "name": name})
        with self._journal_lock:
            snapshots = sorted(self._hosted.get(name, {}).items())
            blocks = []
            for ticket, entry in sorted(self._journal.get(name, {}).items()):
                if entry["ended"]:
                    entry["restored"] = True  # its client must not replay it too
                    blocks.append((ticket, list(entry["frames"])))
        for oid, blob in snapshots:
            target.request({"op": "host", "handler": name, "oid": oid,
                            "obj": pickle.loads(blob)})
        # only *ended* blocks are pre-filed: an in-flight block is replayed
        # by its owning client over its reconnected queue, which alone knows
        # whether more frames are coming (journal_for tells it which is which)
        if blocks:
            target.request({"op": "restore", "handler": name, "blocks": blocks})

    def create_shard_handlers(self, runtime: Any, names: List[str]) -> List[Any]:
        """Place shard replicas so sharding means real cores.

        Without a worker cap the default placement (one fresh process per
        handler) is already ideal.  With a cap, pre-pin replica ``i`` to
        worker ``i % cap`` *before* the handlers start — deterministic
        round-robin across the whole pool, independent of how many handlers
        (and therefore assignments) the program created earlier, so a
        4-shard group on a 4-worker pool always lands on 4 distinct
        processes instead of wherever the global rotation happened to be.
        """
        if self.processes is not None:
            with self._lock:
                pool = max(1, min(self.processes, len(names)))
                while len(self._workers) < pool:
                    self._spawn_worker()
                for i, name in enumerate(names):
                    if name not in self._assignment:
                        worker = self._workers[i % pool]
                        self._assignment[name] = worker
                        worker.handler_names.append(name)
        return super().create_shard_handlers(runtime, names)

    # ------------------------------------------------------------------
    # handler plumbing
    # ------------------------------------------------------------------
    def _control_request(self, handler_name: str, op: Dict[str, Any]) -> _WorkerProcess:
        """Send a control op for ``handler_name``, failing over a dead worker.

        A control op can fail because the worker crashed (fail over, retry on
        the replacement) or because it rejected the op (a real error — the
        worker is alive, so re-raise).  Returns the worker that answered.
        """
        worker = self._worker_for(handler_name)
        try:
            worker.request(op)
        except ScoopError:
            if not self.failover or worker.proc.poll() is None:
                raise
            self.worker_failed(worker)
            worker = self._worker_for(handler_name)
            worker.request(op)
        return worker

    def start_handler(self, handler: Any) -> None:
        worker = self._control_request(handler.name, {"op": "handler", "name": handler.name})
        # from now on reservations of this handler go over the wire
        handler.qoq = _RemoteQoQ(self, handler, worker)

    def stop_handler(self, handler: Any, timeout: float = 5.0) -> None:
        facade = handler.qoq
        if not isinstance(facade, _RemoteQoQ):  # pragma: no cover - defensive
            return
        report = facade.report
        if report is None:
            facade.close()
            report = facade.report
        self.merge_worker_counters(handler, report.get("counters") or {})
        for description, remote_tb in report.get("failures") or ():
            handler.failures.append(RemoteHandlerError(description, remote_tb))

    # ------------------------------------------------------------------
    # placement hooks
    # ------------------------------------------------------------------
    def adopt_object(self, handler: Any, obj: Any) -> Any:
        oid = next(self._oid_seq)
        try:
            self._control_request(
                handler.name, {"op": "host", "handler": handler.name, "oid": oid, "obj": obj})
        except ScoopError:
            raise
        except Exception as exc:  # noqa: BLE001 - unpicklable object, most likely
            raise ScoopError(
                f"cannot host {type(obj).__name__} in handler process "
                f"{handler.name!r}: {exc!r} (objects must be picklable, with an "
                f"importable, module-level class)") from exc
        if self.failover:
            # adopt-time snapshot: the state a replacement worker restores
            # before replaying the journal (hosting just proved obj pickles)
            with self._journal_lock:
                self._hosted.setdefault(handler.name, {})[oid] = pickle.dumps(obj)
        return RemoteHandle(handler.name, oid, type(obj))

    def describe_placement(self, names: List[str]) -> Dict[str, str]:
        """The worker process each handler is pinned to (or ``unassigned``)."""
        with self._lock:
            placement = {}
            for name in names:
                worker = self._assignment.get(name)
                placement[name] = (f"worker:{worker.proc.pid}" if worker is not None
                                   else "unassigned")
            return placement

    def create_private_queue(self, handler: Any, counters: Any) -> ProcessPrivateQueue:
        return ProcessPrivateQueue(self, handler, self._worker_for(handler.name), counters)

    def execute_synced_query(self, client: Any, ref: Any, fn: Callable[[Any], Any],
                             feature: Optional[str] = None, args: tuple = (),
                             kwargs: Optional[dict] = None,
                             raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        queue = client.queue_for(ref.handler)
        if feature:
            return queue.invoke(ref._raw(), feature, args, kwargs or {})
        if raw_fn is not None:
            return queue.invoke(ref._raw(), None, args, kwargs or {}, fn=raw_fn)
        return queue.invoke(ref._raw(), None, (), {}, fn=fn)

    # ------------------------------------------------------------------
    # counters aggregation
    # ------------------------------------------------------------------
    def merge_worker_counters(self, handler: Any, values: Dict[str, int]) -> None:
        """Fold a worker counter snapshot into the runtime's counters.

        Worker counters are monotonic, so the parent applies only the delta
        against the last snapshot it saw for that handler — replies can
        carry snapshots as often as they like without double counting.
        """
        with self._counters_lock:
            seen = self._counters_seen.setdefault(handler.name, {})
            for key, value in values.items():
                delta = value - seen.get(key, 0)
                if delta > 0:
                    handler.counters.add(key, delta)
                    seen[key] = value

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        with self._lock:
            workers, self._workers = self._workers, []
            streams, self._streams = self._streams, []
            self._assignment.clear()
        with self._journal_lock:
            self._hosted.clear()
            self._journal.clear()
        for stream in streams:
            stream.close()
        for worker in workers:
            worker.stop(timeout)
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cap = self.processes if self.processes is not None else "per-handler"
        return f"ProcessBackend(processes={cap}, codec={self.codec!r})"
