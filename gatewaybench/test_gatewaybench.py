"""Self-tests of the benchmark's own logic (no gateway, no sockets).

Run from the root of a checkout with ``python3 -m pytest gatewaybench -q``.
"""

from __future__ import annotations

import math

import pytest
from loadgen import (
    GET_DOC,
    GET_LIST,
    POST_ITEM,
    PUT_DOC,
    CheckFailed,
    Request,
    ResponseParser,
    check_response,
    replay_requests,
    segment_schedule,
)
from run import calm
from stats import Staircase, percentile, tail_quantile
from tracer import children_index, covered_ns


def _response(status: int, body: bytes) -> bytes:
    return (b"HTTP/1.1 %d X\r\nContent-Length: %d\r\nConnection: keep-alive\r\n"
            b"Content-Type: application/json\r\n\r\n" % (status, len(body))) + body


def _request(rid: int, kind: int, case: str, expect=None) -> Request:
    return Request(rid, kind, case, "", expect, 0.0, 0.0, True)


# ----------------------------------------------------------------------
# pipelined response matching
# ----------------------------------------------------------------------
PIPELINE = [
    (_request(0, GET_DOC, "a"), 200, b'{"allegations":2,"data":{},"id":"a","version":3}'),
    (_request(1, GET_LIST, "b"), 200, b'{"allegations":[{"token":"t1"}],"id":"b"}'),
    (_request(2, PUT_DOC, "a"), 200, b'{"id":"a","version":4}'),
    (_request(3, POST_ITEM, "c"), 201, b'{"id":"c","index":0}'),
    (_request(4, GET_LIST, "d"), 200, b'{"allegations":[],"id":"d"}'),
]


def _stream() -> bytes:
    return b"".join(_response(status, body) for _req, status, body in PIPELINE)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64, 10_000])
def test_parser_splits_pipelined_responses_at_any_boundary(chunk):
    data = _stream()
    parser = ResponseParser()
    got = []
    for at in range(0, len(data), chunk):
        got.extend(parser.feed(data[at:at + chunk]))
    assert got == [(status, body) for _req, status, body in PIPELINE]


def test_fifo_matching_accepts_responses_in_request_order():
    parsed = ResponseParser().feed(_stream())
    for (req, _status, _body), (status, body) in zip(PIPELINE, parsed):
        assert check_response(req, status, body)["id"] == req.case


@pytest.mark.parametrize("shift", [1, 2, 3, 4])
def test_fifo_matching_rejects_every_misaligned_pairing(shift):
    # every request differs from the others in route or case; two requests
    # for the same route and case have interchangeable responses
    parsed = ResponseParser().feed(_stream())
    rejected = 0
    for i, (req, _status, _body) in enumerate(PIPELINE):
        status, body = parsed[(i + shift) % len(parsed)]
        try:
            check_response(req, status, body)
        except CheckFailed:
            rejected += 1
    assert rejected == len(PIPELINE)


def test_response_must_name_the_requested_case():
    with pytest.raises(CheckFailed):
        check_response(_request(0, PUT_DOC, "a"), 200, b'{"id":"b","version":1}')


def test_read_your_writes_expectations():
    post_check = _request(0, GET_LIST, "b", expect=(1, "t2"))
    with pytest.raises(CheckFailed):
        check_response(post_check, 200, b'{"allegations":[{"token":"t1"}],"id":"b"}')
    check_response(post_check, 200,
                   b'{"allegations":[{"token":"t1"},{"token":"t2"}],"id":"b"}')
    put_check = _request(1, GET_DOC, "a", expect=5)
    with pytest.raises(CheckFailed):
        check_response(put_check, 200, b'{"allegations":0,"data":{},"id":"a","version":4}')
    check_response(put_check, 200, b'{"allegations":0,"data":{},"id":"a","version":6}')


# ----------------------------------------------------------------------
# seeded segment schedules
# ----------------------------------------------------------------------
JOB = {"seed": 7, "tag": "r0", "kind": "write_cold", "write_fraction": 1.0}
SEGMENT = {"rate": 400.0, "duration": 2.0, "cases": ["c%d" % i for i in range(16)]}


def test_segment_schedule_depends_on_seed_tag_and_index_only():
    one = segment_schedule(JOB, 3, SEGMENT)
    assert one == segment_schedule(dict(JOB), 3, dict(SEGMENT))
    assert one != segment_schedule(JOB, 4, SEGMENT)
    assert one != segment_schedule(dict(JOB, seed=8), 3, SEGMENT)
    assert all(0 <= t < SEGMENT["duration"] for t, *_ in one)
    # every arrival is a write here; its read-back doubles the offered rate
    assert len(one) == pytest.approx(SEGMENT["rate"] / 2 * SEGMENT["duration"], rel=0.25)


def test_write_tokens_stay_unique_across_segments():
    tokens = [tok for i in range(3) for _t, _k, _c, tok in segment_schedule(JOB, i, SEGMENT)]
    assert len(tokens) == len(set(tokens))


def test_replay_follows_each_write_with_its_read_back():
    requests = replay_requests(JOB, [SEGMENT])
    assert len(requests) == 2 * len(segment_schedule(JOB, 0, SEGMENT))
    assert all(r.startswith(b"POST ") for r in requests[0::2])
    assert all(r.startswith(b"GET ") for r in requests[1::2])


# ----------------------------------------------------------------------
# percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.90) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0


@pytest.mark.parametrize("samples, quantile", [
    (10, None), (19, None), (20, 0.50), (99, 0.50), (100, 0.90),
    (999, 0.90), (1000, 0.99), (9999, 0.99), (10_000, 0.999),
])
def test_tail_quantile_keeps_ten_samples_beyond(samples, quantile):
    assert tail_quantile(samples) == quantile


# ----------------------------------------------------------------------
# the knee staircase on a synthetic latency model
# ----------------------------------------------------------------------
def _model_passes(rate: float, capacity: float, base_ms: float = 2.0,
                  ceiling_ms: float = 50.0) -> bool:
    """An M/M/1-shaped tail: p99 grows as 1 / (1 - utilisation)."""
    if rate >= capacity:
        return False
    return base_ms / (1.0 - rate / capacity) <= ceiling_ms


CAPACITY = 1200.0
TRUE_KNEE = CAPACITY * (1.0 - 2.0 / 50.0)          # 1152 req/s


def _run_staircase(guess: float, probes: int = 14, flip=()) -> Staircase:
    stair = Staircase(guess)
    for i in range(probes):
        rate = stair.next_rate()
        verdict = _model_passes(rate, CAPACITY)
        stair.record(rate, verdict != (i in flip))
    return stair


@pytest.mark.parametrize("guess", [600.0, 1000.0, 1150.0, 1400.0, 1800.0])
def test_staircase_settles_on_the_model_knee(guess):
    stair = _run_staircase(guess)
    assert stair.reversals >= 3
    assert stair.knee == pytest.approx(TRUE_KNEE, rel=0.03)


def test_staircase_is_finer_than_the_bound():
    # once settled, consecutive probes differ by the smallest step, 3%
    stair = _run_staircase(1000.0)
    last = [rate for rate, _ok in stair.probes[-4:]]
    for a, b in zip(last, last[1:]):
        assert max(a, b) / min(a, b) == pytest.approx(1.03)


@pytest.mark.parametrize("flipped", [3, 6, 9, 12])
def test_one_wrong_verdict_moves_the_knee_by_a_step_at_most(flipped):
    clean = _run_staircase(1000.0).knee
    noisy = _run_staircase(1000.0, flip=(flipped,)).knee
    assert abs(noisy / clean - 1.0) <= 0.031


def test_staircase_steps_then_shrinks_its_step_at_each_reversal():
    stair = Staircase(1000.0, factor=1.12, min_factor=1.03)
    stair.record(1000.0, True)
    assert stair.next_rate() == pytest.approx(1120.0)
    stair.record(1120.0, False)
    assert stair.next_rate() == pytest.approx(1120.0 / math.sqrt(1.12))
    assert stair.reversals == 1
    # the knee counts from the last probe before the first reversal on
    assert stair.knee == pytest.approx(math.sqrt(1000.0 * 1120.0))


def test_knee_is_the_boundary_fewest_probes_contradict():
    stair = Staircase(1000.0)
    probes = [(1206, True), (1351, True), (1513, True), (1694, True), (1898, False),
              (1793, True), (1847, False), (1793, True), (1847, False), (1793, False),
              (1741, True), (1793, True), (1847, True), (1902, True)]
    for rate, ok in probes:
        stair.record(rate, ok)
    # between 1793 and 1847 three probes disagree; every other boundary more
    assert stair.knee == pytest.approx(math.sqrt(1793 * 1847))
    shuffled = Staircase(1000.0)
    for rate, ok in reversed(probes):
        shuffled.record(rate, ok)
    assert shuffled.knee == stair.knee


def test_early_false_fails_do_not_hold_the_knee_down():
    # two hiccups failed low rates; the staircase then climbed past them
    stair = Staircase(1206.0)
    for rate, ok in [(1206, False), (1077, True), (1140, False)]:
        stair.record(rate, ok)
    while len(stair.probes) < 14:
        rate = stair.next_rate()
        stair.record(rate, rate < 1600.0)
    assert stair.knee == pytest.approx(1600.0, rel=0.04)


def test_staircase_without_a_reversal_reports_the_highest_pass():
    stair = Staircase(1000.0)
    for _ in range(3):
        stair.record(stair.next_rate(), True)
    assert stair.knee == pytest.approx(1000.0 * 1.12 ** 2)
    down = Staircase(1000.0)
    for _ in range(3):
        down.record(down.next_rate(), False)
    assert down.knee == 0.0


def test_staircase_rejects_a_bad_start():
    with pytest.raises(ValueError):
        Staircase(0.0)
    with pytest.raises(ValueError):
        Staircase(100.0, factor=1.02, min_factor=1.03)


# ----------------------------------------------------------------------
# leaving out segments the hypervisor took the CPU from
# ----------------------------------------------------------------------
def test_calm_keeps_low_steal_segments_or_else_the_calmest():
    cfg = {"max_steal": 0.03, "min_calm": 3}
    segs = [{"steal_share": x} for x in (0.0, 0.02, 0.3, 0.03, 0.5)]
    assert [s["steal_share"] for s in calm(cfg, segs)] == [0.0, 0.02, 0.03]
    busy = [{"steal_share": x} for x in (0.5, 0.3, 0.0, 0.4, 0.2)]
    assert [s["steal_share"] for s in calm(cfg, busy)] == [0.0, 0.2, 0.3]


# ----------------------------------------------------------------------
# self time from spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once_and_looks_through_transparent():
    spans = [
        ("gateway.server", 1, 1, 0, 0, 100),
        ("router.resolve", 1, 2, 1, 5, 10),
        ("app.handler", 1, 3, 1, 20, 90),
        ("core.query", 1, 4, 3, 30, 60),
        ("core.release", 1, 5, 3, 55, 70),      # overlaps core.query
        ("codec.decode", 7, 6, 1, 150, 160),   # outside its parent: counts 0
    ]
    children = children_index(spans)
    assert covered_ns(spans[0], children) == 5 + 70
    assert covered_ns(spans[0], children, ("app.handler",)) == 5 + 40
