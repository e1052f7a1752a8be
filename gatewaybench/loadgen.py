"""Open-loop HTTP load generator for the gateway benchmark (its own process).

Run by ``run.py`` as ``python3 loadgen.py`` with one JSON job on stdin.  It
opens two keep-alive HTTP/1.1 connections, pipelines requests on them at
the times of a seeded Poisson schedule (open loop: a request is sent when
it is due, whether or not earlier ones have been answered), matches the
responses of each connection to its requests in FIFO order and checks
them.  One thread, one asyncio loop, two sockets.

The first line on stdin is the job (where to connect, the seed, the
workload); each later line names one timed segment: a rate, a duration
and the cases to draw from.  Protocol on stdout, one line each: ``ready``
once connected, then for every segment ``mark`` as it starts, ``done``
once every request of it has been answered (the parent samples process
CPU at both), and one JSON object with the segment's figures.  A line
``{"end": true}`` ends the job: the final sweep runs and one JSON object
with the checks' outcome follows.  Segments are drained one by one, so a
segment that built a backlog leaves none to the next.

Checks made here (any failure sets ``correct`` to false):

* every response matches its request: same case id, the body shape of the
  route, the expected status (pipelined FIFO matching);
* read-your-writes: each acknowledged write triggers a GET of the same case
  sent next on the *other* connection, which must see the write;
* lossless: a sweep after the last segment finds every 201-acknowledged token
  exactly once (``write_cold``), or every case's version advanced by
  exactly its acknowledged PUTs with its allegation list untouched
  (``read_hot``).

Latency is measured from each request's scheduled send time, so a stall of
the generator or the server shows as latency of the requests behind it
(coordinated-omission guard); how late the sends ran is reported apart.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import socket
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from stats import percentile

#: request kinds; the index is what travels in a request record
GET_DOC, GET_LIST, PUT_DOC, POST_ITEM = range(4)
_KIND_ROUTE = ("/cases/%s", "/cases/%s/allegations", "/cases/%s", "/cases/%s/allegations")
_KIND_METHOD = ("GET", "GET", "PUT", "POST")
_KIND_STATUS = (200, 200, 200, 201)
#: the key only that route's response body carries (FIFO matching)
_KIND_BODY_KEY = ("data", "allegations", "version", "index")


class CheckFailed(Exception):
    """A response or the final state contradicts what was sent."""


def format_request(rid: int, kind: int, case: str, body: bytes = b"") -> bytes:
    """One HTTP/1.1 keep-alive request as the generator sends it."""
    head = "%s %s HTTP/1.1\r\nHost: bench\r\nX-Request-Id: %d\r\n" % (
        _KIND_METHOD[kind], _KIND_ROUTE[kind] % case, rid)
    if body:
        head += "Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body)
    return (head + "\r\n").encode("ascii") + body


def write_body(kind: int, case: str, token: str) -> bytes:
    if kind == PUT_DOC:
        return json.dumps({"title": "case %s" % case, "token": token}).encode()
    return json.dumps({"token": token, "text": "allegation %s on %s" % (token, case)}).encode()


def segment_schedule(job: Dict[str, Any], index: int,
                     segment: Dict[str, Any]) -> List[Tuple[float, int, str, str]]:
    """The seeded arrivals of one segment: ``(offset_s, kind, case, token)``.

    The offered rate counts the read-your-writes GET each write triggers,
    so arrivals are scheduled at ``rate / (1 + write_fraction)``.
    """
    rng = random.Random("%s/%s/%d" % (job["seed"], job["tag"], index))
    cases = segment["cases"]
    writes = job["write_fraction"]
    write_kind = POST_ITEM if job["kind"] == "write_cold" else PUT_DOC
    out: List[Tuple[float, int, str, str]] = []
    t = 0.0
    while True:
        t += rng.expovariate(segment["rate"] / (1.0 + writes))
        if t >= segment["duration"]:
            return out
        case = cases[rng.randrange(len(cases))]
        if rng.random() < writes:
            out.append((t, write_kind, case, "%s-%d-%d" % (job["tag"], index, len(out))))
        else:
            out.append((t, GET_DOC if rng.random() < 0.5 else GET_LIST, case, ""))


def replay_requests(job: Dict[str, Any], segments: List[Dict[str, Any]]) -> List[bytes]:
    """The bytes of a job's requests, each write followed by its check GET."""
    out = []
    for index, segment in enumerate(segments):
        for rid, (_t, kind, case, token) in enumerate(segment_schedule(job, index, segment)):
            out.append(format_request(rid, kind, case,
                                      write_body(kind, case, token) if token else b""))
            if token:
                out.append(format_request(rid, GET_LIST if kind == POST_ITEM else GET_DOC,
                                          case))
    return out


class ResponseParser:
    """Splits a keep-alive byte stream into ``(status, body)`` responses."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        buf = self._buf
        buf += data
        out = []
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return out
            lines = bytes(buf[:end]).split(b"\r\n")
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            total = end + 4 + length
            if len(buf) < total:
                return out
            out.append((int(lines[0].split(b" ", 2)[1]), bytes(buf[end + 4:total])))
            del buf[:total]


class Request:
    """One request in flight on a connection (records what to check)."""

    __slots__ = ("rid", "kind", "case", "token", "expect", "sched", "sent", "done",
                 "ok", "nbytes", "seg", "doc")

    def __init__(self, rid: int, kind: int, case: str, token: str, expect: Any,
                 sched: float, sent: float, seg: int) -> None:
        self.rid, self.kind, self.case, self.token = rid, kind, case, token
        #: index of the timed segment the request belongs to, -1 if untimed
        self.expect, self.sched, self.sent, self.seg = expect, sched, sent, seg
        self.done = 0.0
        self.ok = False
        self.nbytes = 0
        self.doc: Any = None


def _shape_ok(kind: int, doc: Dict[str, Any]) -> bool:
    """Does ``doc`` have the shape of this route's response body?"""
    if kind == GET_DOC:
        return "data" in doc and "version" in doc
    if kind == GET_LIST:
        return isinstance(doc.get("allegations"), list)
    if kind == PUT_DOC:
        return "version" in doc and "data" not in doc
    return "index" in doc


def check_response(req: Request, status: int, body: bytes) -> Dict[str, Any]:
    """Verify that ``(status, body)`` answers ``req``; returns the decoded body.

    Raises :class:`CheckFailed` on a wrong status, a body naming another
    case, or a body of another route's shape, so a pipelined response
    matched to the wrong request cannot pass.  Read-your-writes GETs
    (``req.expect``) must also show the write they follow.
    """
    what = "request %d (%s %s)" % (req.rid, _KIND_METHOD[req.kind], _KIND_ROUTE[req.kind] % req.case)
    if status != _KIND_STATUS[req.kind]:
        raise CheckFailed("%s: status %d" % (what, status))
    try:
        doc = json.loads(body)
    except ValueError:
        raise CheckFailed("%s: body is not JSON: %r" % (what, body[:120])) from None
    if not isinstance(doc, dict) or doc.get("id") != req.case or not _shape_ok(req.kind, doc):
        raise CheckFailed("%s got the response %r" % (what, body[:120]))
    if req.expect is not None:
        if req.kind == GET_DOC and doc["version"] < req.expect:
            raise CheckFailed("read-your-writes: %s at version %d after a PUT acked %d" % (
                req.case, doc["version"], req.expect))
        if req.kind == GET_LIST:
            index, token = req.expect
            items = doc["allegations"]
            if index >= len(items) or items[index].get("token") != token:
                raise CheckFailed("read-your-writes: %s lacks acked token %s at %d" % (
                    req.case, token, index))
    return doc


class Connection:
    """One keep-alive connection: FIFO of requests in flight, parser, out buffer."""

    def __init__(self, index: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.index = index
        self.reader = reader
        self.writer = writer
        self.fifo: Deque[Request] = deque()
        self.parser = ResponseParser()
        self.out = bytearray()

    def flush(self) -> None:
        if self.out:
            self.writer.write(bytes(self.out))
            self.out.clear()


class Generator:
    """Drives one job over two connections (see the module docstring)."""

    def __init__(self, job: Dict[str, Any]) -> None:
        self.job = job
        self.conns: List[Connection] = []
        self.errors: List[str] = []
        #: the requests of the segment running now, and of every segment
        #: so far when the job asks for records
        self.timed: List[Request] = []
        self.recorded: List[Request] = []
        self.rid = 0
        self.t0 = time.perf_counter()
        #: index and length of the segment running now (-1: none)
        self.seg = -1
        self.seg_end = 0.0
        #: case -> [(token, index or version)] of every acknowledged write
        self.acked: Dict[str, List[Tuple[str, int]]] = {}
        self.writes_sent: Dict[str, int] = {}
        self.idle = asyncio.Event()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    async def connect(self) -> None:
        for index in range(2):
            sock = socket.create_connection((self.job["host"], self.job["port"]))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=sock, limit=1 << 20)
            self.conns.append(Connection(index, reader, writer))

    def send(self, conn: Connection, kind: int, case: str, token: str = "",
             expect: Any = None, sched: Optional[float] = None,
             sweep: bool = False) -> Request:
        """Queue one request on ``conn`` (written out by the next flush).

        ``sched`` defaults to now.  A request is timed in the running
        segment if it is due before the segment ends and is not part of a
        ``sweep``; read-your-writes GETs issued while a segment drains are
        checked but not timed.
        """
        now = self.now()
        sched = now if sched is None else sched
        seg = -1 if sweep or sched >= self.seg_end else self.seg
        req = Request(self.rid, kind, case, token, expect, sched, now, seg)
        self.rid += 1
        if token:
            self.writes_sent[case] = self.writes_sent.get(case, 0) + 1
        if seg >= 0:
            self.timed.append(req)
        conn.fifo.append(req)
        conn.out += format_request(req.rid, kind, case,
                                   write_body(kind, case, token) if token else b"")
        return req

    async def read_loop(self, conn: Connection) -> None:
        other = self.conns[1 - conn.index]
        while True:
            data = await conn.reader.read(1 << 18)
            if not data:
                if conn.fifo:
                    self.errors.append("connection %d closed with %d requests unanswered"
                                       % (conn.index, len(conn.fifo)))
                return
            now = self.now()
            for status, body in conn.parser.feed(data):
                if not conn.fifo:
                    self.errors.append("connection %d: a response without a request"
                                       % conn.index)
                    continue
                req = conn.fifo.popleft()
                req.done = now
                req.nbytes = len(body)
                try:
                    req.doc = check_response(req, status, body)
                except CheckFailed as exc:
                    self.errors.append(str(exc))
                    continue
                req.ok = True
                if req.token:
                    self._acked(req, other)
            other.flush()
            if not conn.fifo and not other.fifo:
                self.idle.set()

    def _acked(self, req: Request, other: Connection) -> None:
        """A write was acknowledged: read it back next on the other connection."""
        if req.kind == POST_ITEM:
            index = req.doc["index"]
            self.acked.setdefault(req.case, []).append((req.token, index))
            self.send(other, GET_LIST, req.case, expect=(index, req.token))
        else:
            version = req.doc["version"]
            self.acked.setdefault(req.case, []).append((req.token, version))
            self.send(other, GET_DOC, req.case, expect=version)

    async def run_segment(self, index: int, segment: Dict[str, Any]) -> Dict[str, Any]:
        """Send the segment's arrivals when due, then drain; its figures.

        Says ``mark`` as the segment starts and ``done`` once drained.
        """
        schedule = segment_schedule(self.job, index, segment)
        self.timed = []
        self.seg, self.seg_end = index, segment["duration"]
        _say("mark")
        self.t0 = time.perf_counter()
        i, n = 0, len(schedule)
        while i < n:
            now = self.now()
            due = schedule[i][0]
            if due > now:
                await asyncio.sleep(due - now)
                continue
            while i < n and schedule[i][0] <= now:
                sched, kind, case, token = schedule[i]
                # round robin, so the assignment depends on the seed alone
                self.send(self.conns[i % 2], kind, case, token, sched=sched)
                i += 1
            for conn in self.conns:
                conn.flush()
        remaining = segment["duration"] - self.now()
        if remaining > 0:
            await asyncio.sleep(remaining)
        drained = await self.wait_idle(self.job["drain_timeout"])
        _say("done")
        self.seg = -1
        if not drained:
            raise CheckFailed("%d requests unanswered %.0f s after segment %d" % (
                sum(len(c.fifo) for c in self.conns), self.job["drain_timeout"], index))
        if self.job.get("record"):
            self.recorded.extend(self.timed)
        figures = summarize(self.timed, segment["duration"])
        figures["check_errors"] = len(self.errors)
        return figures

    async def wait_idle(self, timeout: float) -> bool:
        """Wait until every request sent so far has been answered."""
        deadline = time.perf_counter() + timeout
        while any(c.fifo for c in self.conns):
            self.idle.clear()
            left = deadline - time.perf_counter()
            if left <= 0:
                return False
            try:
                await asyncio.wait_for(self.idle.wait(), left)
            except asyncio.TimeoutError:
                return False
        return True

    async def sweep(self, kinds: Tuple[int, ...], cases: List[str]) -> List[Request]:
        """Untimed GETs of ``cases`` pipelined on both connections, awaited."""
        reqs = [self.send(self.conns[i % 2], kind, case, sweep=True)
                for i, case in enumerate(cases) for kind in kinds]
        for conn in self.conns:
            conn.flush()
        if not await self.wait_idle(30.0):
            raise CheckFailed("a sweep was not answered within 30 s")
        if not all(r.ok for r in reqs):
            raise CheckFailed("a sweep request failed")
        return reqs


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def lossless_errors(job: Dict[str, Any], gen: Generator, base: Dict[str, int],
                    final: List[Request]) -> List[str]:
    """Compare the end-of-run sweep with every acknowledged write."""
    errors = []
    if job["kind"] == "write_cold":
        seen: Dict[str, int] = {}
        for req in final:
            for item in req.doc["allegations"]:
                seen[item.get("token")] = seen.get(item.get("token"), 0) + 1
        for case, writes in gen.acked.items():
            for token, _index in writes:
                if seen.get(token, 0) != 1:
                    errors.append("lossless: acked token %s of %s seen %d times"
                                  % (token, case, seen.get(token, 0)))
        return errors
    for req in final:
        if req.kind == GET_LIST:
            if len(req.doc["allegations"]) != job["allegations"]:
                errors.append("%s: %d allegations, prefilled %d" % (
                    req.case, len(req.doc["allegations"]), job["allegations"]))
            continue
        moved = req.doc["version"] - base[req.case]
        acked = len(gen.acked.get(req.case, ()))
        if not acked <= moved <= gen.writes_sent.get(req.case, 0):
            errors.append("lossless: %s moved %d versions for %d acked PUTs" % (
                req.case, moved, acked))
    return errors


async def run_job(job: Dict[str, Any], commands: Any) -> Dict[str, Any]:
    """Connect, run each segment ``commands`` yields, then sweep and check."""
    gen = Generator(job)
    await gen.connect()
    readers = [asyncio.ensure_future(gen.read_loop(c)) for c in gen.conns]
    result: Dict[str, Any] = {}
    try:
        base = {}
        if job["kind"] == "read_hot":
            base = {r.case: r.doc["version"] for r in await gen.sweep((GET_DOC,), job["cases"])}
        _say("ready")
        # nothing is in flight between segments, so a blocking read of the
        # next command holds up no response
        for index, segment in enumerate(commands):
            _say(json.dumps(await gen.run_segment(index, segment)))
            if gen.errors:
                break
        if not gen.errors:
            if job["kind"] == "read_hot":
                final = await gen.sweep((GET_DOC, GET_LIST), job["cases"])
            else:
                final = await gen.sweep((GET_LIST,), sorted(gen.acked))
            gen.errors.extend(lossless_errors(job, gen, base, final))
        result["writes_acked"] = sum(len(w) for w in gen.acked.values())
        if job.get("record"):
            result["records"] = [(r.rid, round((r.done - r.sched) * 1e6, 1))
                                 for r in gen.recorded if r.ok]
    except CheckFailed as exc:
        gen.errors.append(str(exc))
    finally:
        for conn in gen.conns:
            conn.writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    result["errors"] = gen.errors[:20]
    result["error_count"] = len(gen.errors)
    return result


def read_commands() -> Any:
    """Segment commands from stdin, one JSON object a line, up to ``end``."""
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("end"):
            return
        yield command


def summarize(timed: List[Request], duration: float) -> Dict[str, Any]:
    """Latency, rate and drift figures of one segment's timed requests.

    A request that failed a check or was never answered counts as failed.
    """
    ok = [r for r in timed if r.ok]
    lat = sorted((r.done - r.sched) * 1e3 for r in ok)
    late = sorted((r.sent - r.sched) * 1e3 for r in timed)
    quarter = max(1, len(ok) // 4)
    by_time = sorted(ok, key=lambda r: r.sched)
    first = sorted((r.done - r.sched) * 1e3 for r in by_time[:quarter])
    last = sorted((r.done - r.sched) * 1e3 for r in by_time[-quarter:])
    return {
        "attempted": len(timed),
        "succeeded": len(ok),
        "failed": len(timed) - len(ok),
        "offered_rps": len(timed) / duration,
        "achieved_rps": sum(1 for r in ok if r.done <= duration + 0.05) / duration,
        "samples": len(lat),
        "p50_ms": percentile(lat, 0.50),
        "p90_ms": percentile(lat, 0.90),
        "p99_ms": percentile(lat, 0.99),
        "max_ms": lat[-1] if lat else 0.0,
        "late_p99_ms": percentile(late, 0.99),
        "first_quarter_p50_ms": percentile(first, 0.50),
        "last_quarter_p50_ms": percentile(last, 0.50),
        "mean_response_bytes": sum(r.nbytes for r in ok) / len(ok) if ok else 0.0,
        "drain_s": max(0.0, (max(r.done for r in ok) if ok else duration) - duration),
    }


def main() -> int:
    job = json.loads(sys.stdin.readline())
    # the generator keeps every request record until the end; they hold no
    # cycles, and a full collection mid-window would show as lateness
    gc.disable()
    result = asyncio.run(run_job(job, read_commands()))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
