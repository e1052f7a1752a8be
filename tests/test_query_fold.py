"""One wire round trip per client-executed query on the socket backends.

On ``process`` and ``process+async`` a client-executed query body crosses
the socket anyway (an ``invoke`` frame), so the query's sync travels with
it instead of round-tripping first: the worker drains each block in FIFO
order, inside ticket order, so the ``invoke`` runs after every earlier
request of the block — the state a ``sync`` → ``release`` round trip would
have waited for.  These tests pin what crosses the wire, that the counters
still count the folded sync, and that issued (scatter-gather) queries ship
their bodies before the first reply is read.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.queues.socket_queue import FrameBuffers

BACKENDS = ("process:1", "process+async:1:1")


class Tally(SeparateObject):
    def __init__(self) -> None:
        self.value = 0

    @command
    def add(self, amount: int) -> None:
        self.value += amount

    @query
    def read(self) -> int:
        return self.value


class WireLog:
    """Every data frame the parent puts on the wire or reads off it, in order.

    Frames are recorded when they leave the framing core (``take_burst``,
    i.e. the flush that ships them), not when they are buffered; replies
    when they are decoded.  Control-channel traffic carries no ``kind`` and
    is ignored, as is the connection's ``hello``.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.events: List[Tuple[str, str]] = []
        self._buffered: Dict[int, List[str]] = {}
        add, take, pop = FrameBuffers.add_frame, FrameBuffers.take_burst, FrameBuffers.pop_frame

        def add_frame(core: FrameBuffers, payload: Dict[str, Any]) -> int:
            kind = payload.get("kind")
            if kind not in (None, "hello"):
                self._buffered.setdefault(id(core), []).append(kind)
            return add(core, payload)

        def take_burst(core: FrameBuffers) -> Tuple[bytes, int]:
            burst = take(core)
            self.events.extend(("out", kind) for kind in self._buffered.pop(id(core), ()))
            return burst

        def pop_frame(core: FrameBuffers) -> Optional[Dict[str, Any]]:
            frame = pop(core)
            if frame is not None and "kind" in frame:
                self.events.append(("in", frame["kind"]))
            return frame

        monkeypatch.setattr(FrameBuffers, "add_frame", add_frame)
        monkeypatch.setattr(FrameBuffers, "take_burst", take_burst)
        monkeypatch.setattr(FrameBuffers, "pop_frame", pop_frame)

    def clear(self) -> None:
        self.events.clear()

    @property
    def sent(self) -> List[str]:
        return [kind for direction, kind in self.events if direction == "out"]

    @property
    def replies(self) -> int:
        return sum(1 for direction, _ in self.events if direction == "in")


def run_blocks(backend: str, blocks, log: WireLog) -> Tuple[List[list], Dict[str, int]]:
    """Run each block (a list of ops) on one handler; log only the last one.

    An op is ``("add", n)`` or ``("read",)``.  The first block connects the
    private queue (so its ``hello`` and first-use costs stay out of the
    measured one); blocks run on a thread client for ``process`` and on a
    coroutine client for ``process+async``, so each backend's own
    private-queue copy is the one measured.  Returns every block's query
    results and the counter deltas of the last block.
    """
    names = ("pq_enqueues", "sync_roundtrips", "syncs_elided", "queries", "async_calls")
    with QsRuntime("all", backend=backend) as rt:
        ref = rt.new_handler("tally").create(Tally)
        results: List[list] = []
        deltas: Dict[str, int] = {}

        def before_last() -> Dict[str, int]:
            log.clear()
            return {name: rt.stats()[name] for name in names}

        def after_last(start: Dict[str, int]) -> None:
            deltas.update({name: rt.stats()[name] - start[name] for name in names})

        if rt.backend.supports_async_clients:
            async def client() -> None:
                start: Dict[str, int] = {}
                for i, ops in enumerate(blocks):
                    if i == len(blocks) - 1:
                        start = before_last()
                    got = []
                    async with rt.aclient().separate(ref) as tally:
                        for op in ops:
                            if op[0] == "add":
                                await tally.add(op[1])
                            else:
                                got.append(await tally.read())
                    results.append(got)
                after_last(start)

            rt.aclient(client)
            rt.join_clients()
        else:
            start: Dict[str, int] = {}
            for i, ops in enumerate(blocks):
                if i == len(blocks) - 1:
                    start = before_last()
                got = []
                with rt.separate(ref) as tally:
                    for op in ops:
                        if op[0] == "add":
                            tally.add(op[1])
                        else:
                            got.append(tally.read())
                results.append(got)
            after_last(start)
    return results, deltas


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneRoundTripPerQuery:
    def test_a_lone_query_block_is_open_invoke_end_with_one_reply(self, backend, monkeypatch):
        log = WireLog(monkeypatch)
        results, deltas = run_blocks(backend, [[("add", 5)], [("read",)]], log)
        assert results == [[], [5]]
        assert log.sent == ["open", "invoke", "end"]
        assert log.replies == 1
        # the folded sync is still counted as a sync round trip
        assert deltas == {"pq_enqueues": 2, "sync_roundtrips": 1, "syncs_elided": 0,
                          "queries": 1, "async_calls": 0}

    def test_calls_then_query_ship_in_one_burst(self, backend, monkeypatch):
        log = WireLog(monkeypatch)
        results, deltas = run_blocks(
            backend, [[("add", 1)], [("add", 2), ("add", 3), ("read",)]], log)
        assert results == [[], [6]]
        assert log.sent == ["open", "call", "call", "invoke", "end"]
        assert log.replies == 1
        assert deltas == {"pq_enqueues": 4, "sync_roundtrips": 1, "syncs_elided": 0,
                          "queries": 1, "async_calls": 2}

    def test_a_second_query_whose_sync_is_elided_behaves_as_before(self, backend, monkeypatch):
        log = WireLog(monkeypatch)
        results, deltas = run_blocks(
            backend, [[("add", 1)], [("read",), ("read",), ("add", 1), ("read",)]], log)
        assert results == [[], [1, 1, 2]]
        # the second read is elided (still synced), the call un-syncs, the
        # third read folds its sync again
        assert log.sent == ["open", "invoke", "invoke", "call", "invoke", "end"]
        assert log.replies == 3
        assert deltas == {"pq_enqueues": 4, "sync_roundtrips": 2, "syncs_elided": 1,
                          "queries": 3, "async_calls": 1}

    def test_explicit_sync_keeps_its_round_trip(self, backend, monkeypatch):
        log = WireLog(monkeypatch)
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("tally").create(Tally)
            with rt.separate(ref) as tally:
                tally.add(1)
            log.clear()
            with rt.separate(ref) as tally:
                tally.add(2)
                assert tally.sync_() is True
                assert tally.read() == 3  # synced: elided, the body still ships
        assert log.sent == ["open", "call", "sync", "invoke", "end"]
        assert log.replies == 2


class Ledger(SeparateObject):
    def __init__(self) -> None:
        self.entries = []

    @command
    def record(self, value: Any) -> None:
        self.entries.append(value)

    @query
    def dump(self) -> list:
        return list(self.entries)


class TestIssuedQueriesShipAtIssue:
    def test_scatter_gather_puts_every_invoke_on_the_wire_before_the_first_read(
            self, monkeypatch):
        log = WireLog(monkeypatch)
        with QsRuntime("all", backend="process:2") as rt:
            group = rt.sharded("ledgers", shards=4).create(Ledger)
            with group.separate() as g:
                g.broadcast("record", "warm")
            log.clear()
            with group.separate() as g:
                assert g.gather("dump") == [["warm"]] * 4
        first_read = next(i for i, (direction, _) in enumerate(log.events) if direction == "in")
        assert [kind for _, kind in log.events[:first_read]].count("invoke") == 4
        assert log.replies == 4

    def test_coroutine_scatter_gather_ships_every_body_before_awaiting(self, monkeypatch):
        log = WireLog(monkeypatch)
        with QsRuntime("all", backend="process+async:2:1") as rt:
            group = rt.sharded("ledgers", shards=4).create(Ledger)
            gathered = []

            async def client() -> None:
                async with group.separate_async() as g:
                    await g.broadcast("record", "warm")
                log.clear()
                async with group.separate_async() as g:
                    gathered.append(await g.gather("dump"))

            rt.aclient(client)
            rt.join_clients()
        assert gathered == [[["warm"]] * 4]
        first_read = next(i for i, (direction, _) in enumerate(log.events) if direction == "in")
        assert [kind for _, kind in log.events[:first_read]].count("invoke") == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_abandoned_issued_query_does_not_leak_its_reply(self, backend):
        """A block may close before its issued query is waited for; the
        shipped body's reply must not be read as the next query's result."""
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("tally").create(Tally)
            reads = []
            if rt.backend.supports_async_clients:
                async def client() -> None:
                    aclient = rt.aclient()
                    async with aclient.separate(ref) as tally:
                        await tally.add(1)
                        aclient.issue_query(tally.ref, "read")  # never awaited
                    async with aclient.separate(ref) as tally:
                        await tally.add(10)
                        reads.append(await asyncio.wait_for(tally.read(), 30))

                rt.aclient(client)
                rt.join_clients()
            else:
                client = rt.client()
                with rt.separate(ref) as tally:
                    tally.add(1)
                    client.issue_query(tally.ref, "read")  # never waited
                with rt.separate(ref) as tally:
                    tally.add(10)
                    reads.append(tally.read())
            assert reads == [11]
