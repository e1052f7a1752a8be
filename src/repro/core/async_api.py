"""The awaitable client surface of the asyncio execution backend.

A coroutine client cannot block, so it cannot use the thread-per-client
surface (``runtime.separate(...)`` + blocking queries).  This module is the
``await``-shaped twin of :mod:`repro.core.separate`:

.. code-block:: python

    async def client() -> None:
        async with rt.separate_async(account) as acc:
            await acc.deposit(42)          # command: logged, never waits
            print(await acc.current())     # query: awaits sync + runs body

    rt = QsRuntime("all", backend="async")
    rt.spawn_async_client(client)
    rt.join_clients()

Every protocol step — reservation, multi-handler atomicity, sync
coalescing, private-queue caching, counters, tracing — is the *shared*
:class:`~repro.core.client.Client` code; only the two waits (a sync
release, a packaged query result) are awaited on
:class:`~repro.backends.async_.AsyncEventHandle` futures instead of blocked
on.  A program therefore produces identical observable results and counters
whether its clients are threads or coroutines.

Reservation itself is the queue-of-queues protocol's completely
asynchronous enqueue, so ``__aenter__`` never waits; the lock-based
(non-QoQ) protocol would need to block the loop for a whole separate block
and is rejected with a pointer at thread clients.  SCOOP wait conditions
(``wait_until``) retry with backend sleeps and are likewise thread-only for
now.
"""

from __future__ import annotations

import contextvars
import operator
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.api import COMMAND, method_kind
from repro.core.client import Client, Reservation
from repro.core.region import SeparateRef
from repro.errors import ReservationError, ScoopError

#: the AsyncClient of the currently running client task (task-local: each
#: asyncio task carries its own contextvars.Context)
_current_async_client: "contextvars.ContextVar[AsyncClient | None]" = \
    contextvars.ContextVar("repro_async_client", default=None)


def current_async_client(runtime: Any) -> "AsyncClient":
    """The calling task's :class:`AsyncClient` (created on first use)."""
    client = _current_async_client.get()
    if client is None or client._runtime is not runtime:
        client = AsyncClient(runtime)
        _current_async_client.set(client)
    return client


class AsyncClient:
    """Awaitable request operations over the shared client protocol."""

    def __init__(self, runtime: Any, name: Optional[str] = None) -> None:
        backend = runtime.backend
        if not getattr(backend, "supports_async_clients", False):
            raise ScoopError(
                f"the {backend.name!r} backend cannot run coroutine clients; "
                "use an asyncio backend (QsRuntime(backend='async'), the hybrid "
                "'process+async', or the REPRO_BACKEND equivalents)")
        if not runtime.config.use_qoq:
            raise ScoopError(
                "the awaitable client API needs the queue-of-queues protocol; "
                "the lock-based (non-QoQ) configurations hold a handler lock "
                "for a whole separate block, which would block the event loop "
                "— use thread clients (runtime.spawn_client) for those levels")
        self._runtime = runtime
        #: the shared protocol engine; everything non-blocking goes through it
        self._client = Client(runtime.config, runtime.counters,
                              name=name or "async-client",
                              tracer=runtime.tracer, backend=backend)

    @property
    def name(self) -> str:
        return self._client.name

    # ------------------------------------------------------------------
    # separate blocks
    # ------------------------------------------------------------------
    def separate(self, *refs: SeparateRef) -> "AsyncSeparateBlock":
        """Open an awaitable separate block reserving the handlers of ``refs``."""
        return AsyncSeparateBlock(self, refs)

    # ------------------------------------------------------------------
    # requests (the awaitable twins of Client.call/query/sync)
    # ------------------------------------------------------------------
    async def call(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> None:
        """Log an asynchronous call (rule *call*; completes without waiting)."""
        self._client.call(ref, method, *args, **kwargs)

    async def call_function(self, ref: SeparateRef, fn: Callable[..., Any],
                            *args: Any, **kwargs: Any) -> None:
        self._client.call_function(ref, fn, *args, **kwargs)

    async def sync(self, ref: SeparateRef) -> bool:
        """Awaitable sync round trip; ``False`` when coalescing elided it."""
        return await self._sync(ref)

    async def _sync(self, ref: SeparateRef, fold: bool = False) -> bool:
        request = self._client._begin_sync(ref, fold)
        if request is None:
            return False
        await request.release.wait_async()
        self._client._finish_sync(ref)
        return True

    async def query(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> Any:
        """Awaitable synchronous query returning the method's result.

        Mirrors :meth:`Client.query` through the shared issue/wait split:
        everything but the two ``await`` points lives in the blocking
        client, so the protocols cannot drift apart.
        """
        client = self._client
        fn = operator.methodcaller(method, *args, **kwargs)
        box = client._start_query(ref, fn, args, dict(kwargs), feature=method, described=True)
        if box is not None:
            return await box.wait_async()
        await self._sync(ref, fold=True)
        return await client._execute_client_query_async(ref, fn, args, dict(kwargs),
                                                        feature=method)

    def issue_query(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any):
        """Issue a query without awaiting it; ``await pending.wait_async()`` later.

        The awaitable half of the issue/wait split
        (:meth:`~repro.core.client.Client.issue_query`): scatter-gather
        (:class:`~repro.shard.proxy.AsyncShardedProxy`) issues one query
        per shard up front so the shard-side bodies overlap, then awaits
        the :class:`~repro.core.client.PendingQuery` results in shard
        order.  Issuing never blocks the loop — the QoQ protocol's enqueue
        is asynchronous and the waits live entirely in ``wait_async``.
        """
        return self._client.issue_query(ref, method, *args, **kwargs)

    async def query_function(self, ref: SeparateRef, fn: Callable[..., Any],
                             *args: Any, **kwargs: Any) -> Any:
        client = self._client
        feature = getattr(fn, "__name__", "<callable>")

        def wrapped(obj):
            return fn(obj, *args, **kwargs)

        box = client._start_query(ref, wrapped, args, dict(kwargs), feature=feature, raw_fn=fn)
        if box is not None:
            return await box.wait_async()
        await self._sync(ref, fold=True)
        return await client._execute_client_query_async(ref, wrapped, args, dict(kwargs),
                                                        feature=feature, raw_fn=fn)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AsyncClient({self.name!r})"


class AsyncReservedProxy:
    """A separate object reserved by the enclosing ``async with`` block.

    Attribute access mirrors :class:`~repro.core.separate.ReservedProxy`,
    but every method is a coroutine: ``await c.increment()`` logs the
    command (completing immediately), ``await c.read()`` performs the full
    awaitable query protocol.
    """

    __slots__ = ("_ref", "_client")

    def __init__(self, ref: SeparateRef, client: AsyncClient) -> None:
        object.__setattr__(self, "_ref", ref)
        object.__setattr__(self, "_client", client)

    # -- explicit API -------------------------------------------------------
    @property
    def ref(self) -> SeparateRef:
        return self._ref

    @property
    def handler(self):
        return self._ref.handler

    async def send(self, method: str, *args: Any, **kwargs: Any) -> None:
        await self._client.call(self._ref, method, *args, **kwargs)

    async def ask(self, method: str, *args: Any, **kwargs: Any) -> Any:
        return await self._client.query(self._ref, method, *args, **kwargs)

    async def apply(self, fn, *args: Any, **kwargs: Any) -> None:
        await self._client.call_function(self._ref, fn, *args, **kwargs)

    async def compute(self, fn, *args: Any, **kwargs: Any) -> Any:
        return await self._client.query_function(self._ref, fn, *args, **kwargs)

    async def sync_(self) -> bool:
        return await self._client.sync(self._ref)

    # -- attribute sugar ------------------------------------------------------
    def __getattr__(self, name: str):
        ref = object.__getattribute__(self, "_ref")
        client = object.__getattribute__(self, "_client")
        raw = ref._raw()
        kind = method_kind(getattr(raw, "_scoop_class", None) or type(raw), name)

        if kind == COMMAND:
            async def _command(*args: Any, **kwargs: Any) -> None:
                await client.call(ref, name, *args, **kwargs)
            _command.__name__ = name
            return _command

        async def _query(*args: Any, **kwargs: Any) -> Any:
            return await client.query(ref, name, *args, **kwargs)
        _query.__name__ = name
        return _query

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "attributes of a separate object cannot be assigned directly; "
            "log a command that performs the assignment on the handler"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<AsyncReservedProxy of {self._ref!r}>"


class AsyncSeparateBlock:
    """``async with`` context manager implementing (multi-)handler reservation.

    Entering enqueues this client's private queues (atomically for
    multi-handler blocks, Section 3.3) — the completely asynchronous
    reservation of the QoQ protocol, so ``__aenter__`` returns without
    waiting for any handler.  Exiting appends the END markers.
    """

    def __init__(self, client: AsyncClient, refs: Sequence[SeparateRef]) -> None:
        if not refs:
            raise ReservationError("separate_async() needs at least one separate object")
        for ref in refs:
            if not isinstance(ref, SeparateRef):
                raise ReservationError(
                    f"separate_async() expects SeparateRef arguments, got {type(ref).__name__}; "
                    "create objects with handler.create(...) or handler.adopt(...)"
                )
        self._client = client
        self._refs = list(refs)
        self._reservations: List[Reservation] = []

    def _build_proxies(self) -> Tuple[AsyncReservedProxy, ...]:
        return tuple(AsyncReservedProxy(ref, self._client) for ref in self._refs)

    async def __aenter__(self):
        handlers = []
        for ref in self._refs:
            if ref.handler not in handlers:
                handlers.append(ref.handler)
        self._reservations = self._client._client.reserve(handlers)
        proxies = self._build_proxies()
        return proxies[0] if len(proxies) == 1 else proxies

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self._client._client.release(self._reservations)
        self._reservations = []


def bind_async_client(client: AsyncClient) -> None:
    """Make ``client`` the current task's client (used by spawn wrappers)."""
    _current_async_client.set(client)
