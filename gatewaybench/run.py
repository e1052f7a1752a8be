#!/usr/bin/env python3
"""Gateway capacity benchmark: open-loop load in, per-layer budget out.

Usage, from the root of a checkout::

    python3 gatewaybench/run.py --workload read_hot --seed 1 --seconds 36 --trace 0

Each runtime is fresh: a new ``QsRuntime`` and ``serve_cases`` gateway in
this process, driven by ``loadgen.py`` in a process of its own (two
pipelined keep-alive connections, seeded Poisson arrivals) through timed
segments, each drained before the next starts and the first one an
unmeasured warm-up.  An unmeasured warm-up runtime comes first.
``--trace 0`` measures the end-to-end metrics on a
few runtimes, each running cycles of a light segment, a heavy segment and
knee probes; the probes of all runtimes form one up-down staircase
(``stats.Staircase``).  ``--trace 1`` runs the heavy rate on two runtimes,
untraced and then with spans around every layer (``tracer.py``), and
reports the per-layer metrics.  The last line of standard output is one
JSON object; everything above it is diagnostics.
The command exits non-zero when any correctness check fails.  Workload
parameters, frozen rates and run metadata live in ``config.json``; the
design and its limits are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from stats import Staircase, percentile, tail_quantile  # noqa: E402

_TICK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (0.0 once it has gone)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MiB (``VmHWM``)."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def steal_s() -> float:
    """CPU seconds the hypervisor took from this machine, all CPUs (``/proc/stat``)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / _TICK


def child_pids() -> List[int]:
    pids = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open("/proc/self/task/%s/children" % tid) as f:
                pids.extend(int(p) for p in f.read().split())
        except OSError:
            continue
    return pids


# ----------------------------------------------------------------------
# one runtime + gateway, and the load generator driving it
# ----------------------------------------------------------------------
class Fixture:
    """A fresh runtime and gateway, prefilled; closed by :meth:`close`."""

    def __init__(self, cfg: Dict[str, Any], workload: Dict[str, Any],
                 tracer: Any = None) -> None:
        from repro import QsRuntime
        from repro.serve import serve_cases

        start = time.perf_counter()
        self.cfg = cfg
        self.workload = workload
        self.runtime = QsRuntime(backend=workload["backend"])
        self.gateway = None
        try:
            if tracer is not None:
                from repro.queues.codec import get_codec
                from tracer import install_layers

                install_layers(tracer, get_codec(self.runtime.backend.codec))
            self.gateway = serve_cases(self.runtime)
            # executor-mode gateways hop to a thread pool that does not copy
            # context; the traced run carries the request's span across it
            if tracer is not None and self.gateway._executor is not None:
                tracer.carry_context(self.gateway._executor)
            self._prefill()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _prefill(self) -> None:
        """``read_hot``: every case with a document and its allegations."""
        wl = self.workload
        if wl["kind"] != "read_hot":
            return
        group = self.gateway.group
        for case in hot_cases(wl):
            with self.runtime.separate(group.ref_for(case)) as store:
                store.ask("put_case", case, {"title": "case %s" % case})
                for i in range(wl["allegations"]):
                    store.ask("add_allegation", case,
                              {"token": "%s-pre%d" % (case, i), "text": "prefill %d" % i})

    def sample(self, loadgen_pid: int) -> Dict[str, Any]:
        workers = [p for p in child_pids() if p != loadgen_pid]
        return {"t": time.perf_counter(), "ns": time.perf_counter_ns(),
                "gateway": time.process_time(),
                "workers": sum(proc_cpu_s(p) for p in workers),
                "loadgen": proc_cpu_s(loadgen_pid),
                "rss_mb": sum(proc_hwm_mb(p) for p in [os.getpid()] + workers),
                "steal": steal_s(),
                "counters": self.runtime.counters.snapshot()}

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
        self.runtime.shutdown()


class LoadProcess:
    """``loadgen.py`` driving one fixture's gateway, one segment at a time.

    Each :meth:`segment` returns that segment's figures, with the CPU of
    the gateway, the workers and the generator sampled as it started and
    once it had drained.  :meth:`finish` ends the job and returns the
    checks' outcome; :meth:`stop` reaps the process on every path out.
    """

    def __init__(self, fx: Fixture, tag: str, seed: int, record: bool = False) -> None:
        wl = fx.workload
        host, port = fx.gateway.address
        self.fx, self.tag = fx, tag
        self.segments: List[Dict[str, Any]] = []
        self.broken = False
        job = {"host": host, "port": port, "seed": seed, "tag": tag, "kind": wl["kind"],
               "cases": hot_cases(wl) if wl["kind"] == "read_hot" else [],
               "allegations": wl.get("allegations", 0),
               "write_fraction": wl["write_fraction"],
               "drain_timeout": fx.cfg["drain_timeout_s"], "record": record}
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "loadgen.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._send(job)
        self._expect("ready")

    def _send(self, obj: Dict[str, Any]) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def _expect(self, token: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != token:
            raise RuntimeError("load generator said %r, expected %r" % (line[:200], token))

    def segment(self, name: str, rate: float, seconds: float,
                cases: List[str]) -> Dict[str, Any]:
        self._send({"rate": rate, "duration": seconds, "cases": cases})
        self._expect("mark")
        start = self.fx.sample(self.proc.pid)
        self._expect("done")
        end = self.fx.sample(self.proc.pid)
        line = self.proc.stdout.readline()
        seg = json.loads(line) if line.startswith("{") else {}
        if "attempted" not in seg:
            # the generator gave up on the segment (it failed to drain) and
            # went on to its final report; that report carries the error
            self.broken = True
            self.final = seg
            raise RunFailed(name)
        if seg["check_errors"]:
            # the generator stops after a segment whose responses failed a
            # check; its final report names them
            raise RunFailed(name)
        wall = end["t"] - start["t"]
        cpu = end["gateway"] - start["gateway"] + end["workers"] - start["workers"]
        seg.update({
            "name": name, "rate": rate, "duration": seconds, "wall_s": wall,
            "window_ns": (start["ns"], end["ns"]),
            "gateway_cpu_s": end["gateway"] - start["gateway"],
            "workers_cpu_s": end["workers"] - start["workers"],
            "loadgen_cpu_s": end["loadgen"] - start["loadgen"],
            "cpu_s": cpu, "rss_mb": end["rss_mb"],
            "steal_share": (end["steal"] - start["steal"]) / (wall * (os.cpu_count() or 1)),
            "cpu_us_per_req": cpu / seg["succeeded"] * 1e6 if seg["succeeded"] else 0.0,
            "counters": end["counters"].diff(start["counters"]),
        })
        self.segments.append(seg)
        return seg

    def finish(self) -> Dict[str, Any]:
        """End the job: the final sweep and the checks' outcome."""
        if not self.broken:
            try:
                self._send({"end": True})
                self.proc.stdin.close()
            except OSError:
                pass
            lines = self.proc.stdout.read().strip().splitlines()
            self.final = json.loads(lines[-1]) if lines else {}
        self.stop()
        if self.proc.returncode or "error_count" not in self.final:
            raise RuntimeError("load generator exited with %d" % self.proc.returncode)
        return dict(self.final, tag=self.tag, setup_s=self.fx.setup_s,
                    segments=self.segments)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


class RunFailed(Exception):
    """A segment failed a correctness check; the run ends there."""


def hot_cases(workload: Dict[str, Any]) -> List[str]:
    return ["hot-%d" % i for i in range(workload["cases"])]


def cycle_cases(workload: Dict[str, Any], tag: str, cycle: Any) -> List[str]:
    """The cases a cycle's requests go to.

    ``read_hot`` always uses its prefilled hot cases.  ``write_cold`` takes
    a fresh set every cycle, so no allegation list grows past what one
    cycle appends and the run stays stationary.
    """
    if workload["kind"] == "read_hot":
        return hot_cases(workload)
    return ["%s-%s-%d" % (tag, cycle, i) for i in range(workload["cases"])]


def knee_passes(knee: Dict[str, Any], seg: Dict[str, Any]) -> bool:
    """The three knee conditions: no failures, the rate achieved, no backlog."""
    return (seg["failed"] == 0
            and seg["achieved_rps"] >= knee["min_achieved"] * seg["offered_rps"]
            and max(seg["p50_ms"], seg["last_quarter_p50_ms"]) <= knee["p50_ceiling_ms"]
            and seg["p99_ms"] <= knee["p99_ceiling_ms"])


class Runtime:
    """A fixture and its load generator, both closed on every path out."""

    def __init__(self, cfg: Dict[str, Any], wl: Dict[str, Any], tag: str, seed: int,
                 runs: List[Dict[str, Any]], tracer: Any = None) -> None:
        self.cfg, self.wl, self.tag, self.seed = cfg, wl, tag, seed
        self.runs, self.tracer = runs, tracer

    def __enter__(self) -> LoadProcess:
        self.fx = Fixture(self.cfg, self.wl, self.tracer)
        try:
            self.load = LoadProcess(self.fx, self.tag, self.seed,
                                    record=self.tracer is not None)
        except BaseException:
            self.fx.close()
            raise
        return self.load

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None or exc_type is RunFailed:
                self.runs.append(self.load.finish())
            else:
                self.load.stop()
        finally:
            self.fx.close()


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def calm(cfg: Dict[str, Any], segments: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The segments the hypervisor left alone, or else the ``min_calm`` calmest.

    A segment during which more than ``max_steal`` of the machine's CPU time
    went to other guests measures the host, not the program.
    """
    kept = [s for s in segments if s["steal_share"] <= cfg["max_steal"]]
    if len(kept) >= cfg["min_calm"]:
        return kept
    return sorted(segments, key=lambda s: s["steal_share"])[:cfg["min_calm"]]


def warm_up(cfg: Dict[str, Any], wl: Dict[str, Any], seed: int,
            runs: List[Dict[str, Any]]) -> None:
    """A runtime no metric reads, under ``warmup_run_s`` of the heavy rate.

    The first runtime of an invocation ran slower than the ones after it:
    knee probes there failed at 0.74-0.92 of the knee the later runtimes
    found.  This one absorbs that; its answers are checked all the same.
    """
    with Runtime(cfg, wl, "warm", seed, runs) as load:
        load.segment("warmup", wl["heavy_rps"], cfg["warmup_run_s"],
                     cycle_cases(wl, "warm", 0))


def run_end_to_end(cfg: Dict[str, Any], wl: Dict[str, Any], seed: int, seconds: float,
                   runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Cycles of light, heavy and knee-probe segments on a few fresh runtimes.

    ``seconds`` of load are cut into cycles of a light segment, a heavy
    segment and ``knee.per_cycle`` probes, spread over ``runtimes`` fresh
    runtimes, each opened by an unmeasured warm-up segment.  The light and
    heavy figures are medians over their segments (the calm ones, see
    :func:`calm`), so they are sampled at many points of the run, and a
    stall of the machine moves one segment, not the figure.  The probes
    feed one :class:`Staircase` across all runtimes.

    A segment during which the hypervisor stole more than ``max_steal`` of
    the machine measures the host: a light or heavy one is run again once,
    and a failing probe is probed again at the same rate, up to
    ``knee.retries`` times, before its verdict stands (a pass stands at
    once).  Runtime ``r`` of ``n`` starts no new segment later than
    ``(r + 1) / n`` of ``max_run_s`` after the first one starts,
    so a run on a busy host keeps to its time budget with fewer segments,
    spread over all its runtimes.
    """
    kc = cfg["knee"]
    cycle_s = cfg["light_s"] + cfg["heavy_s"] + kc["per_cycle"] * kc["probe_s"]
    nrt = cfg["runtimes"]
    cycles = max(nrt, int(round(seconds / cycle_s)))
    stair = Staircase(wl["seed_knee_rps"] * kc["start_fraction"], kc["factor"],
                      kc["min_factor"])
    verdicts: List[str] = []
    max_steal = cfg["max_steal"]
    start = time.monotonic()
    for r in range(nrt):
        deadline = start + cfg["max_run_s"] * (r + 1) / nrt

        def in_time() -> bool:
            return time.monotonic() < deadline

        tag = "r%d" % r
        with Runtime(cfg, wl, tag, seed, runs) as load:
            load.segment("warmup", wl["light_rps"], cfg["warmup_s"], cycle_cases(wl, tag, "w"))
            for c in range(cycles * r // nrt, cycles * (r + 1) // nrt):
                cases = cycle_cases(wl, tag, c)
                for name in ("light", "heavy"):
                    for _ in range(2):
                        if not in_time():
                            break
                        seg = load.segment(name, wl[name + "_rps"], cfg[name + "_s"], cases)
                        if seg["steal_share"] <= max_steal:
                            break
                for _ in range(kc["per_cycle"]):
                    for attempt in range(kc["retries"] + 1):
                        if not in_time():
                            break
                        rate = stair.next_rate()
                        probe = load.segment("knee", rate, kc["probe_s"], cases)
                        passed = probe["knee_pass"] = knee_passes(kc, probe)
                        if (passed or probe["steal_share"] <= max_steal
                                or attempt == kc["retries"]):
                            stair.record(rate, passed)
                            verdicts.append("%.0f%s" % (rate, "+" if passed else "-"))
                            break
                        verdicts.append("%.0f?" % rate)
            if not in_time():
                verdicts.append("(%s: time budget spent)" % tag)
    print("knee: %.1f req/s from %d probes, %d reversals: %s" % (
        stair.knee, len(stair.probes), stair.reversals, ", ".join(verdicts)))
    runs = [run for run in runs if run["tag"] != "warm"]
    segments = [s for run in runs for s in run["segments"]]
    picked = {}
    for name in ("light", "heavy"):
        every = [s for s in segments if s["name"] == name]
        picked[name] = calm(cfg, every)
        print("%s: %d of %d segments calm" % (name, len(picked[name]), len(every)))
    lights, heavies = picked["light"], picked["heavy"]
    ok = sum(h["succeeded"] for h in heavies)
    return {
        "setup_s": median([r["setup_s"] for r in runs]),
        "knee_rps": stair.knee,
        "light.p50_ms": median([s["p50_ms"] for s in lights]),
        "light.p90_ms": median([s["p90_ms"] for s in lights]),
        "heavy.p50_ms": median([s["p50_ms"] for s in heavies]),
        "heavy.p90_ms": median([s["p90_ms"] for s in heavies]),
        "heavy.cpu_us_per_req": sum(h["cpu_s"] for h in heavies) / ok * 1e6 if ok else 0.0,
        "rss_mb": median([h["rss_mb"] for h in heavies]),
    }


def run_traced(cfg: Dict[str, Any], wl: Dict[str, Any], seed: int, seconds: float,
               runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """The heavy rate untraced, then traced; the per-layer figures."""
    from tracer import Tracer

    heavy_s = seconds / 2.0
    with Runtime(cfg, wl, "plain", seed, runs) as load:
        load.segment("warmup", wl["light_rps"], cfg["warmup_s"], cycle_cases(wl, "plain", "w"))
        plain = load.segment("heavy", wl["heavy_rps"], heavy_s, cycle_cases(wl, "plain", 0))
    tracer = Tracer()
    try:
        with Runtime(cfg, wl, "traced", seed, runs, tracer) as load:
            load.segment("warmup", wl["light_rps"], cfg["warmup_s"],
                         cycle_cases(wl, "traced", "w"))
            traced = load.segment("heavy", wl["heavy_rps"], heavy_s,
                                  cycle_cases(wl, "traced", 0))
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, traced, runs[-1].get("records", ()))
    parse = parse_times_us(wl, seed, "traced", [
        {"rate": wl["light_rps"], "duration": cfg["warmup_s"],
         "cases": cycle_cases(wl, "traced", "w")},
        {"rate": wl["heavy_rps"], "duration": heavy_s, "cases": cycle_cases(wl, "traced", 0)}])
    metrics["http.parse.p50_us"] = percentile(parse, 0.50)
    metrics["http.parse.p99_us"] = percentile(parse, 0.99)
    wall = plain["wall_s"]
    metrics["gateway.cpu_share"] = plain["gateway_cpu_s"] / wall
    metrics["workers.cpu_share"] = plain["workers_cpu_s"] / wall
    metrics["loadgen.cpu_share"] = plain["loadgen_cpu_s"] / wall
    metrics["loadgen.late.p99_ms"] = plain["late_p99_ms"]
    metrics["tracing.overhead_ratio"] = (traced["cpu_us_per_req"] / plain["cpu_us_per_req"]
                                         if plain["cpu_us_per_req"] else 0.0)
    return metrics


def layer_metrics(tracer: Any, segment: Dict[str, Any],
                  records: Any) -> Dict[str, float]:
    """The per-layer figures of one traced segment (spans inside its window).

    ``records`` are the load generator's ``(request id, latency us)`` pairs.
    """
    from tracer import children_index, covered_ns

    by_name: Dict[str, List[Any]] = {}
    for span in tracer.window(*segment["window_ns"]):
        by_name.setdefault(span[0], []).append(span)
    segment["span_counts"] = {name: len(v) for name, v in sorted(by_name.items())}
    children = children_index(tracer.spans)

    def us(values: List[float]) -> List[float]:
        return sorted(v / 1e3 for v in values)

    def durations(name: str) -> List[float]:
        return us([s[5] - s[4] for s in by_name.get(name, ())])

    def self_times(name: str, transparent: Tuple[str, ...] = ()) -> List[float]:
        return us([s[5] - s[4] - covered_ns(s, children, transparent)
                   for s in by_name.get(name, ())])

    counters = segment["counters"]
    requests = counters["serve_requests"] or 1
    server = {s[1]: s[5] - s[4] for s in by_name.get("gateway.server", ())}
    queue = us([lat * 1e3 - server[rid] for rid, lat in records if rid in server])
    hits, misses = counters["cache_hits"], counters["cache_misses"]
    window = segment["window_ns"]
    stores = tracer.window_values("cache.store", *window)
    encoded = tracer.window_values("codec.encode", *window)
    flushed = [n for n in tracer.window_values("wire.flush", *window) if n]
    m: Dict[str, float] = {}
    for name in ("http.respond", "router.resolve", "cache.lookup", "cache.invalidate",
                 "admission.admit", "shard.ref_for", "core.reserve", "core.release",
                 "codec.encode", "codec.decode", "wire.flush"):
        m[name + ".p50_us"] = percentile(self_times(name), 0.50)
    for name in ("core.query", "backend.roundtrip"):
        values = self_times(name) if name == "core.query" else durations(name)
        m[name + ".p50_us"] = percentile(values, 0.50)
        m[name + ".p99_us"] = percentile(values, 0.99)
    handler = durations("app.handler")
    m.update({
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.store_accept_ratio": sum(stores) / len(stores) if stores else 0.0,
        "shard.routes_per_req": len(by_name.get("shard.ref_for", ())) / requests,
        "app.handler.p50_us": percentile(handler, 0.50),
        "app.handler.p99_us": percentile(handler, 0.99),
        "app.handler.calls_per_req": len(handler) / requests,
        "gateway.server.p50_us": percentile(durations("gateway.server"), 0.50),
        "gateway.server.p99_us": percentile(durations("gateway.server"), 0.99),
        "gateway.self.p50_us": percentile(self_times("gateway.server", ("app.handler",)), 0.50),
        "gateway.queue.p50_us": percentile(queue, 0.50),
        "core.reservations_per_req": counters["reservations"] / requests,
        "core.pq_enqueues_per_req": counters["pq_enqueues"] / requests,
        "codec.bytes_per_frame": sum(encoded) / len(encoded) if encoded else 0.0,
        "wire.frames_per_flush": sum(flushed) / len(flushed) if flushed else 0.0,
        "backend.remote.p50_us": percentile(self_times("backend.roundtrip"), 0.50),
        "worker.calls_executed_per_req": counters["calls_executed"] / requests,
        "worker.batch_size_mean": (counters["qoq_batch_size_sum"] / counters["qoq_batch_drains"]
                                   if counters["qoq_batch_drains"] else 0.0),
    })
    return m


def parse_times_us(wl: Dict[str, Any], seed: int, tag: str,
                   segments: List[Dict[str, Any]]) -> List[float]:
    """Time ``read_request`` over a traced run's own request bytes, pre-buffered.

    Rebuilds the run's requests from its seed (each write followed by its
    read-back GET) and parses them from a stream that already holds every
    byte, so waiting on the socket is excluded.
    """
    from loadgen import replay_requests
    from repro.serve.http import read_request

    job = {"seed": seed, "tag": tag, "kind": wl["kind"], "write_fraction": wl["write_fraction"]}
    requests = replay_requests(job, segments)

    async def parse() -> List[float]:
        reader = asyncio.StreamReader(limit=1 << 20)
        reader.feed_data(b"".join(requests))
        reader.feed_eof()
        clock = time.perf_counter_ns
        out = []
        for _ in requests:
            start = clock()
            await read_request(reader)
            out.append((clock() - start) / 1e3)
        return sorted(out)

    return asyncio.run(parse())


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_run(run: Dict[str, Any]) -> None:
    print("runtime %-6s setup %.3f s  writes acked %d" % (
        run["tag"], run["setup_s"], run.get("writes_acked", 0)))
    for p in run["segments"]:
        tail = tail_quantile(p["samples"])
        print("  %-7s rate %7.1f  attempted %6d ok %6d failed %d  achieved %7.1f/s  "
              "p50 %.2f p90 %.2f p99 %.2f max %.1f ms (n=%d, tail p%s)  late p99 %.2f ms  "
              "q1/q4 p50 %.2f/%.2f ms  resp %.0f B  cpu %.0f us/req  rss %.1f MB  steal %.0f%%%s" % (
                  p["name"], p["rate"], p["attempted"], p["succeeded"], p["failed"],
                  p["achieved_rps"], p["p50_ms"], p["p90_ms"], p["p99_ms"], p["max_ms"],
                  p["samples"], "%g" % (tail * 100) if tail else "-", p["late_p99_ms"],
                  p["first_quarter_p50_ms"], p["last_quarter_p50_ms"],
                  p["mean_response_bytes"], p["cpu_us_per_req"], p["rss_mb"],
                  p["steal_share"] * 100,
                  {True: "  knee:pass", False: "  knee:FAIL"}.get(p.get("knee_pass"), "")))
        if "span_counts" in p:
            print("    spans: %s" % ", ".join("%s=%d" % kv for kv in p["span_counts"].items()))
    for error in run.get("errors", ()):
        print("  check failed: %s" % error)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("gatewaybench: no program to measure at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cfg = _load(os.path.join(HERE, "config.json"))
    bench = _load(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    if args.workload not in cfg["workloads"]:
        print("gatewaybench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wl = cfg["workloads"][args.workload]

    runs: List[Dict[str, Any]] = []
    try:
        warm_up(cfg, wl, args.seed, runs)
        if args.trace:
            metrics = run_traced(cfg, wl, args.seed, args.seconds, runs)
        else:
            metrics = run_end_to_end(cfg, wl, args.seed, args.seconds, runs)
    except RunFailed as exc:
        for run in runs:
            print_run(run)
        print("gatewaybench: a correctness check failed in a %s segment" % exc,
              file=sys.stderr)
        return 1

    for run in runs:
        print_run(run)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print("%-32s %14.4f %s" % (name, metrics[name], unit))
    correct = all(run["error_count"] == 0 for run in runs)
    segments = [seg for run in runs for seg in run["segments"]]
    result = {
        "correct": correct,
        "attempted": sum(seg["attempted"] for seg in segments),
        "failed": sum(seg["failed"] for seg in segments),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _load(path: str) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main())
