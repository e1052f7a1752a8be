"""Backend parity: the same programs, observations and counters either way.

The point of the backend seam is that *nothing observable about a program*
depends on whether it runs on OS threads, on the virtual-time simulator or
across OS processes.  These tests run the paper's flagship scenarios — bank
transfers with an auditor (Fig. 5), dining philosophers (Section 2.4), a
sync-coalescing block — under all three backends and assert identical
results and identical schedule-independent counters; plus the sim-only
guarantees: bitwise reproducibility and deadlock detection.
"""

from __future__ import annotations

import random

import pytest

from repro import DeadlockError, QsRuntime, SeparateObject, command, query
from repro.backends import (AsyncBackend, BackendSpec, HybridBackend, ProcessBackend, SimBackend,
                            ThreadedBackend, create_backend)
from repro.config import QsConfig
from repro.workloads.concurrent.runner import run_concurrent
from repro.workloads.params import ConcurrentSizes

BACKENDS = ("threads", "sim", "process", "async", "process+async:2:2")

#: counters whose values are schedule-independent for the workloads below
#: (retry-style counters like lock_waits or wait_condition_retries are not)
PARITY_COUNTERS = (
    "async_calls",
    "queries",
    "sync_roundtrips",
    "syncs_elided",
    "reservations",
    "multi_reservations",
    "qoq_enqueues",
    "calls_executed",
)


class Account(SeparateObject):
    def __init__(self, balance: int) -> None:
        self.balance = balance

    @command
    def credit(self, amount: int) -> None:
        self.balance += amount

    @command
    def debit(self, amount: int) -> None:
        self.balance -= amount

    @query
    def read(self) -> int:
        return self.balance


class Fork(SeparateObject):
    def __init__(self) -> None:
        self.uses = 0

    @command
    def use(self) -> None:
        self.uses += 1

    @query
    def total_uses(self) -> int:
        return self.uses


class Counter(SeparateObject):
    def __init__(self) -> None:
        self.value = 0

    @command
    def increment(self) -> None:
        self.value += 1

    @query
    def read(self) -> int:
        return self.value


# ----------------------------------------------------------------------------
# workload drivers (shared by the parity assertions)
# ----------------------------------------------------------------------------
def bank_workload(backend: str) -> dict:
    observed = []
    with QsRuntime("all", backend=backend) as rt:
        alice = rt.new_handler("alice").create(Account, 1_000)
        bob = rt.new_handler("bob").create(Account, 1_000)

        def transferrer(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(15):
                amount = rng.randint(1, 20)
                with rt.separate(alice, bob) as (a, b):
                    a.debit(amount)
                    b.credit(amount)

        def auditor() -> None:
            for _ in range(8):
                with rt.separate(alice, bob) as (a, b):
                    observed.append(a.read() + b.read())

        for i in range(3):
            rt.spawn_client(transferrer, i, name=f"transfer-{i}")
        rt.spawn_client(auditor, name="auditor")
        rt.join_clients()
        with rt.separate(alice, bob) as (a, b):
            final = (a.read(), b.read())
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    return {"final": final, "observed": observed, "counters": counters}


def philosophers_workload(backend: str) -> dict:
    n, rounds = 5, 6
    with QsRuntime("all", backend=backend) as rt:
        forks = [rt.new_handler(f"fork-{i}").create(Fork) for i in range(n)]
        meals = [0] * n

        def philosopher(i: int) -> None:
            left, right = forks[i], forks[(i + 1) % n]
            for _ in range(rounds):
                with rt.separate(left, right) as (fl, fr):
                    fl.use()
                    fr.use()
                    meals[i] += 1

        for i in range(n):
            rt.spawn_client(philosopher, i, name=f"philosopher-{i}")
        rt.join_clients()
        with rt.separate(*forks) as proxies:
            uses = [proxy.total_uses() for proxy in proxies]
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    return {"meals": meals, "uses": uses, "counters": counters}


def coalescing_workload(backend: str) -> dict:
    """Back-to-back queries in one block: one sync, the rest elided."""
    with QsRuntime("all", backend=backend) as rt:
        ref = rt.new_handler("counter").create(Counter)
        values = []
        for _ in range(4):
            with rt.separate(ref) as c:
                c.increment()
                values.append((c.read(), c.read(), c.read()))
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    return {"values": values, "counters": counters}


def calls_then_query_workload(backend: str,
                              counters: tuple = PARITY_COUNTERS + ("pq_enqueues",)) -> dict:
    """Calls, then queries, in one block.

    On the socket backends this is the shape whose query sync travels with
    the body: ``open``, the calls and the ``invoke`` leave in one burst.
    The folded sync must still count exactly like a real one.  Backends
    with coroutine clients run the same program as a coroutine, so the
    hybrid's coroutine private queue is the copy measured.
    """
    with QsRuntime("all", backend=backend) as rt:
        ref = rt.new_handler("counter").create(Counter)
        values = []
        if rt.backend.supports_async_clients:
            async def client() -> None:
                for n in range(1, 4):
                    async with rt.aclient().separate(ref) as c:
                        for _ in range(n):
                            await c.increment()
                        values.append((await c.read(), await c.read()))
                        await c.increment()
                        values.append(await c.read())

            rt.aclient(client)
            rt.join_clients()
        else:
            for n in range(1, 4):
                with rt.separate(ref) as c:
                    for _ in range(n):
                        c.increment()
                    values.append((c.read(), c.read()))
                    c.increment()
                    values.append(c.read())
        counted = {name: rt.stats()[name] for name in counters}
    return {"values": values, "counters": counted}


# ----------------------------------------------------------------------------
# per-backend correctness
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestEachBackend:
    def test_bank_conserves_money(self, backend):
        result = bank_workload(backend)
        assert sum(result["final"]) == 2_000
        assert all(total == 2_000 for total in result["observed"])

    def test_philosophers_all_eat(self, backend):
        result = philosophers_workload(backend)
        assert result["meals"] == [6] * 5
        assert sum(result["uses"]) == 2 * sum(result["meals"])

    def test_sync_coalescing_counts(self, backend):
        result = coalescing_workload(backend)
        assert result["values"] == [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]
        # per block: the first read syncs, the two repeats are elided
        assert result["counters"]["sync_roundtrips"] == 4
        assert result["counters"]["syncs_elided"] == 8

    def test_workloads_runner_unmodified(self, backend, monkeypatch):
        # this test selects the backend through the *config*, which the
        # documented resolution order lets REPRO_BACKEND override
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        sizes = ConcurrentSizes(n=2, m=5, nt=20, ring_size=4, nc=10)
        config = QsConfig.all().with_(backend=backend)
        assert run_concurrent("mutex", config, sizes).value == 10
        if backend.startswith("process"):
            # threadring wires the runtime and SeparateRefs *into* handler
            # state so handlers act as clients of each other — inherently a
            # shared-memory workload (see docs/backends.md, process limits);
            # the hybrid composite hosts handlers the same way
            pytest.skip("threadring requires shared-memory handler state")
        if backend == "async":
            # threadring's handlers issue blocking queries from inside
            # request bodies; on the shared event loop that would stall
            # every handler (see docs/backends.md, async limits)
            pytest.skip("threadring blocks inside handler bodies")
        assert run_concurrent("threadring", config, sizes).value["passes"] == 21


# ----------------------------------------------------------------------------
# cross-backend parity
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("workload", [bank_workload, philosophers_workload,
                                      coalescing_workload, calls_then_query_workload],
                         ids=["bank", "philosophers", "coalescing", "calls-then-query"])
def test_backends_agree(workload):
    results = {backend: workload(backend) for backend in BACKENDS}
    reference = results["threads"]
    for backend in BACKENDS[1:]:
        assert results[backend] == reference, (
            f"observable results and counters must not depend on the backend "
            f"({backend} vs threads)")


def test_calls_then_query_wire_counters_match_across_socket_backends():
    # who drives the socket (a blocking client thread or a coroutine and
    # its reader task) must not change what crosses the wire
    counters = PARITY_COUNTERS + ("pq_enqueues", "wire_frames_coalesced")
    process = calls_then_query_workload("process:2", counters)
    hybrid = calls_then_query_workload("process+async:2:2", counters)
    assert hybrid == process
    # per block of n calls: open, the calls and the first invoke share one
    # sendall (n + 1 saved), then the last call and invoke another (1 saved)
    assert process["counters"]["wire_frames_coalesced"] == sum(n + 2 for n in (1, 2, 3))


#: backend spec variants that must stay observationally identical to their
#: base backend: every wire codec, and every async loop count
SPEC_VARIANTS = ("process:2:json", "process:2:pickle", "process:2:bin",
                 "async:2", "async:3",
                 "process+async:2:2:json", "process+async:2:2:bin",
                 "process+async:2:1", "process+async:1:2")


@pytest.mark.parametrize("spec", SPEC_VARIANTS)
def test_codec_and_loop_variants_agree(spec):
    """Parity across wire codecs and loop counts, not just backend names.

    The bin codec and frame coalescing must not change a single parity
    counter relative to json/pickle (the coalescing threshold is a pure
    frame count for exactly this reason), and handlers spread over N event
    loops must behave like handlers sharing one.
    """
    reference = bank_workload("threads")
    result = bank_workload(spec)
    assert result == reference, (
        f"observable results and counters must not depend on the wire codec "
        f"or loop count ({spec} vs threads)")


# ----------------------------------------------------------------------------
# sim-only guarantees
# ----------------------------------------------------------------------------
class TestSimDeterminism:
    def _run(self):
        with QsRuntime("all", backend="sim") as rt:
            result = bank_workload_inline(rt)
            virtual = rt.backend.now()
            fingerprint = rt.backend.schedule_trace()
            counters = rt.stats().as_dict()
        return result, virtual, fingerprint, counters

    def test_identical_runs(self):
        first = self._run()
        second = self._run()
        assert first == second

    def test_virtual_time_advances(self):
        _, virtual, _, _ = self._run()
        assert virtual > 0


def bank_workload_inline(rt) -> tuple:
    alice = rt.new_handler("alice").create(Account, 500)
    bob = rt.new_handler("bob").create(Account, 500)

    def transferrer(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(10):
            with rt.separate(alice, bob) as (a, b):
                amount = rng.randint(1, 9)
                a.debit(amount)
                b.credit(amount)

    for i in range(3):
        rt.spawn_client(transferrer, i, name=f"t-{i}")
    rt.join_clients()
    with rt.separate(alice, bob) as (a, b):
        return (a.read(), b.read())


class TestSimDeadlockDetection:
    def test_circular_wait_is_reported(self):
        """A hang under threads becomes an immediate DeadlockError under sim."""
        with pytest.raises(DeadlockError):
            with QsRuntime("all", backend="sim") as rt:
                r1 = rt.new_handler("h1").create(Counter)
                r2 = rt.new_handler("h2").create(Counter)
                ea, eb = rt.event(), rt.event()

                def a() -> None:
                    with rt.separate(r1):
                        ea.set()
                        eb.wait()
                        with rt.separate(r2) as y:
                            y.read()

                def b() -> None:
                    with rt.separate(r2):
                        eb.set()
                        ea.wait()
                        with rt.separate(r1) as y:
                            y.read()

                rt.spawn_client(a, name="A")
                rt.spawn_client(b, name="B")
                rt.join_clients()

    def test_deadlock_free_program_is_clean(self):
        # the multi-reservation variant of the same program cannot deadlock
        with QsRuntime("all", backend="sim") as rt:
            r1 = rt.new_handler("h1").create(Counter)
            r2 = rt.new_handler("h2").create(Counter)

            def worker() -> None:
                with rt.separate(r1, r2) as (x, y):
                    x.increment()
                    y.increment()

            rt.spawn_client(worker, name="A")
            rt.spawn_client(worker, name="B")
            rt.join_clients()
            with rt.separate(r1, r2) as (x, y):
                assert (x.read(), y.read()) == (2, 2)


# ----------------------------------------------------------------------------
# selection plumbing
# ----------------------------------------------------------------------------
class TestBackendSelection:
    def test_create_backend_names(self):
        assert isinstance(create_backend("threads"), ThreadedBackend)
        assert isinstance(create_backend("threaded"), ThreadedBackend)
        assert isinstance(create_backend("sim"), SimBackend)
        assert isinstance(create_backend("process"), ProcessBackend)
        assert isinstance(create_backend("async"), AsyncBackend)
        assert isinstance(create_backend("asyncio"), AsyncBackend)
        instance = ThreadedBackend()
        assert create_backend(instance) is instance

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="invalid backend spec 'quantum'"):
            create_backend("quantum")

    def test_process_spec_components(self):
        backend = create_backend("process:2:json")
        assert backend.processes == 2 and backend.codec == "json"
        backend = create_backend("process:pickle")
        assert backend.processes is None and backend.codec == "pickle"
        backend = create_backend("process:4")
        assert backend.processes == 4 and backend.codec == "pickle"
        backend = create_backend("process:2:bin")
        assert backend.processes == 2 and backend.codec == "bin"

    def test_async_spec_loop_count(self):
        assert create_backend("async").nloops == 1
        assert create_backend("async:1").nloops == 1
        assert create_backend("async:4").nloops == 4

    # every malformed spec — wrong name, wrong component, stray component,
    # empty component — must raise ONE consistent error quoting the grammar
    @pytest.mark.parametrize("spec", [
        "quantum",
        "sim:bogus",             # unknown scheduling policy
        "sim:random:x",          # non-integer seed
        "process:msgpack",       # neither count nor codec
        "process:2:3",           # two counts
        "process:json:pickle",   # two codecs
        "process:abc:",          # invalid then empty component
        "process::json",         # empty component
        "threads:2",             # threads takes no components
        "async:fast",            # loop count must be a positive integer
        "async:0",
        "async:2:2",
        "process+async:fast",    # composite: neither a count nor a codec
        "process+async:2:2:2",   # composite: more than two counts
        "process+async:2:0",     # composite: loop count must be positive
        "process+async::2",      # composite: empty component
        "process+async:json:bin",  # composite: two codecs
    ])
    def test_malformed_specs_all_quote_the_grammar(self, spec):
        with pytest.raises(ValueError) as excinfo:
            create_backend(spec)
        message = str(excinfo.value)
        assert message.startswith(f"invalid backend spec {spec.lower()!r}: ")
        assert ("threads | sim[:policy[:seed]] | process[:nproc][:codec] "
                "| async[:nloops]") in message

    def test_spec_error_reasons_are_actionable(self):
        with pytest.raises(ValueError, match="unknown scheduling policy 'bogus'"):
            create_backend("sim:bogus")
        with pytest.raises(ValueError, match="invalid component 'msgpack'"):
            create_backend("process:msgpack")
        with pytest.raises(ValueError, match="two process counts"):
            create_backend("process:2:3")
        with pytest.raises(ValueError, match="takes no spec components"):
            create_backend("threads:4")
        with pytest.raises(ValueError, match="invalid event-loop count 'fast'"):
            create_backend("async:fast")
        with pytest.raises(ValueError, match="invalid event-loop count '0'"):
            create_backend("async:0")
        with pytest.raises(ValueError, match="more than a process count and a loop count"):
            create_backend("process+async:2:2:2")
        with pytest.raises(ValueError, match="invalid event-loop count 0"):
            create_backend("process+async:2:0")
        with pytest.raises(ValueError, match="invalid component 'fast'"):
            create_backend("process+async:fast")

    def test_backend_spec_parse_and_round_trip(self):
        spec = BackendSpec.parse("process:4:pickle")
        assert spec == BackendSpec(name="process", processes=4, codec="pickle")
        assert spec.to_spec() == "process:4:pickle"
        assert str(spec) == "process:4:pickle"
        # round trip: parse(to_spec()) is the identity
        for text in ("threads", "sim", "sim:random", "sim:random:7",
                     "process", "process:2", "process:json", "process:2:json",
                     "process:2:bin", "async", "async:2", "async:8",
                     "process+async", "process+async:4", "process+async:4:2",
                     "process+async:4:2:bin", "process+async:json"):
            parsed = BackendSpec.parse(text)
            assert BackendSpec.parse(parsed.to_spec()) == parsed
        # aliases canonicalise, case-insensitively
        assert BackendSpec.parse("PROCESS").name == "process"
        assert BackendSpec.parse("Threaded").name == "threads"
        assert BackendSpec.parse("virtual").name == "sim"
        assert BackendSpec.parse("asyncio").name == "async"
        assert BackendSpec.parse("hybrid").name == "process+async"
        # the composite parses positionally: nproc, then nloops, then codec
        spec = BackendSpec.parse("process+async:4:2:bin")
        assert spec == BackendSpec(name="process+async", processes=4,
                                   loops=2, codec="bin")
        assert spec.to_spec() == "process+async:4:2:bin"
        # instances pass through parse unchanged
        assert BackendSpec.parse(spec) is spec

    def test_backend_spec_create_builds_the_right_backend(self):
        backend = BackendSpec.parse("process:3:json").create()
        assert isinstance(backend, ProcessBackend)
        assert backend.processes == 3 and backend.codec == "json"
        hybrid = BackendSpec.parse("process+async:3:2:json").create()
        assert isinstance(hybrid, HybridBackend)
        assert hybrid.processes == 3 and hybrid.nloops == 2 and hybrid.codec == "json"
        assert BackendSpec.parse("process+async").create().nloops == 1
        sim = BackendSpec.parse("sim:random:9").create()
        assert isinstance(sim, SimBackend)
        assert isinstance(BackendSpec.parse("threads").create(), ThreadedBackend)

    def test_backend_spec_errors_match_string_specs(self):
        # BackendSpec.parse and create_backend raise the identical message
        for bad in ("quantum", "sim:bogus", "process:2:3", "threads:4"):
            with pytest.raises(ValueError) as via_spec:
                BackendSpec.parse(bad)
            with pytest.raises(ValueError) as via_create:
                create_backend(bad)
            assert str(via_spec.value) == str(via_create.value)

    def test_runtime_and_config_accept_backend_spec(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with QsRuntime("all", backend=BackendSpec.parse("sim")) as rt:
            assert rt.backend.name == "sim"
        config = QsConfig.all().with_(backend=BackendSpec(name="sim"))
        with QsRuntime(config) as rt:
            assert rt.backend.name == "sim"
        assert "backend=sim" in config.describe()

    def test_env_var_spec_errors_match_direct_ones(self, monkeypatch):
        # REPRO_BACKEND goes through the same parser, so a typo in the
        # environment produces the same actionable message
        monkeypatch.setenv("REPRO_BACKEND", "sim:bogus")
        with pytest.raises(ValueError, match="invalid backend spec 'sim:bogus'"):
            QsRuntime("all")

    def test_config_carries_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = QsConfig.all().with_(backend="sim")
        with QsRuntime(config) as rt:
            assert rt.backend.name == "sim"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sim")
        with QsRuntime("all") as rt:
            assert rt.backend.name == "sim"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sim")
        with QsRuntime("all", backend="threads") as rt:
            assert rt.backend.name == "threads"

    def test_sim_backend_cannot_be_reattached(self):
        backend = SimBackend()
        with QsRuntime("all", backend=backend):
            pass
        with pytest.raises(Exception, match="cannot be attached twice"):
            QsRuntime("all", backend=backend)

    def test_runtime_event_matches_backend(self):
        with QsRuntime("all") as rt:
            event = rt.event()
            event.set()
            assert event.is_set()
        with QsRuntime("all", backend="sim") as rt:
            event = rt.event()
            event.set()
            assert event.is_set()
