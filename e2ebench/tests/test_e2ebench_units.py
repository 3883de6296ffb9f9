"""The benchmark's own checks: request generation, load generation, the
percentile rule, span arithmetic and the oracles."""

from __future__ import annotations

import http.client
import http.server
import itertools
import json
import os
import threading
import time

import pytest

import hostspeed
import loadgen
import metrics
import oracle
import workloads
from spans import Span, Tracer, ladder_summary, self_times


def _requests(name: str, seed: int, count: int) -> list[tuple]:
    plan = workloads.build(name, seed)
    head = [r.key() for r in itertools.islice(plan.stream, count)]
    datasets = sorted(
        (n, tuple(sorted(map(tuple, map(sorted, g.edges())))))
        for n, g in plan.datasets.items()
    )
    return [datasets, [r.key() for r in plan.warmup], head]


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_same_seed_same_requests(name):
    assert _requests(name, 7, 200) == _requests(name, 7, 200)


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_different_seed_different_requests(name):
    assert _requests(name, 7, 200) != _requests(name, 8, 200)


def test_update_mixed_is_one_write_in_four():
    plan = workloads.build("update-mixed", 3)
    head = list(itertools.islice(plan.stream, 400))
    assert sum(r.write for r in head) == 100


def test_update_mixed_writes_stay_valid_when_folded_in_order():
    plan = workloads.build("update-mixed", 4)
    edges = {name: workloads.edge_set(g) for name, g in plan.datasets.items()}
    base = {name: set(e) for name, e in edges.items()}
    last_touched = {}
    for index, request in enumerate(itertools.islice(plan.stream, 2000)):
        if request.write:
            present = edges[request.target]
            assert all(tuple(sorted(e)) not in present for e in request.add)
            assert all(tuple(sorted(e)) in present for e in request.remove)
            workloads.apply_write(present, request)
            # The base graph stays, with a few added edges on top.
            assert base[request.target] <= present
            assert len(present) - len(base[request.target]) <= 16
            for edge in request.add + request.remove:
                key = (request.target, tuple(sorted(edge)))
                assert index - last_touched.get(key, -workloads.SETTLED) >= workloads.SETTLED
                last_touched[key] = index


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 0.5) == 50
    assert loadgen.percentile(values, 0.9) == 90
    assert loadgen.percentile(values, 0.99) == 99
    assert loadgen.percentile([5.0], 0.9) == 5.0


def test_percentile_needs_ten_samples_beyond_it():
    assert not loadgen.reportable(0.99, 999)
    assert loadgen.reportable(0.99, 1000)
    assert not loadgen.reportable(0.90, 99)
    assert loadgen.reportable(0.90, 100)
    assert loadgen.reportable(0.50, 20)


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    stall_on: int | None = None
    seen = 0

    def do_POST(self):  # noqa: N802 - the http.server hook name
        type(self).seen += 1
        self.rfile.read(int(self.headers["Content-Length"]))
        if type(self).seen == type(self).stall_on:
            time.sleep(0.3)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def _open_loop_against(stall_on):
    _StallingHandler.stall_on, _StallingHandler.seen = stall_on, 0
    server = http.server.HTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]

    def send(_request):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("POST", "/", body=b"{}")
            return connection.getresponse().read()
        finally:
            connection.close()

    try:
        return loadgen.open_loop(send, itertools.count(), 200.0, 1.0, 2)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_stalled_server_grows_due_time_latency_and_lag():
    calm = _open_loop_against(stall_on=None)
    stalled = _open_loop_against(stall_on=20)
    assert len(calm) == len(stalled) == 200
    assert all(s.error is None for s in calm + stalled)
    calm_lag = loadgen.percentile([s.lag_ms for s in calm], 0.99)
    stalled_lag = loadgen.percentile([s.lag_ms for s in stalled], 0.99)
    # A single-threaded server stalled 300 ms holds back every request due
    # meanwhile: they are sent late, and their latency counts the wait.
    assert stalled_lag > 100.0 > calm_lag
    behind = [s for s in stalled if s.due > stalled[20].due][:10]
    assert min(s.latency_ms for s in behind) > 100.0
    # Timed from the send instead, the wait would vanish.
    assert min(s.lag_ms for s in behind) > 50.0


def test_metered_send_charges_server_and_sender_cpu():
    readings = iter([1_000_000, 3_500_000])  # the server ran 2.5 ms meanwhile
    sample = loadgen.Sample("req", "open", 0.0, 0.0, 0.0)
    loadgen.timed_send(lambda r: sum(range(20000)), "req", sample,
                       time.perf_counter, meter=lambda: next(readings))
    assert sample.error is None and sample.sent >= sample.due
    # The sender's own CPU for the sum comes on top, and is small.
    assert 2.5 < sample.cpu_ms < 2.5 + (sample.done - sample.sent) * 1000.0 + 1.0
    unmetered = loadgen.Sample("req", "closed", 0.0, 0.0, 0.0)
    loadgen.timed_send(lambda r: 1, "req", unmetered, time.perf_counter)
    assert unmetered.cpu_ms is None


def test_cpu_ns_counts_this_process_and_skips_gone_pids():
    from procs import cpu_ns

    start = cpu_ns([os.getpid()])
    sum(range(200000))
    assert cpu_ns([os.getpid()]) > start > 0
    assert cpu_ns([2**22 + 1]) == 0


def test_host_slowdown_is_the_mean_probe_over_the_reference():
    fast, slow = hostspeed.REFERENCE_MS, 1.5 * hostspeed.REFERENCE_MS
    assert hostspeed.slowdown([[fast, slow], [fast, slow]]) == pytest.approx(1.25)
    assert len(hostspeed.probe()) == hostspeed.REPEATS * len(os.sched_getaffinity(0))


def _span(name, trace, span_id, parent, start_ms, end_ms):
    return Span(name, trace, span_id, parent, start_ms / 1000.0, end_ms / 1000.0)


def test_self_time_is_duration_minus_children():
    spans = [
        _span("client", "t", 1, None, 0.0, 10.0),
        _span("http", "t", 2, 1, 10.0, 16.0),
        _span("service", "t", 3, 2, 16.0, 18.0),
        _span("api", "t", 4, 2, 18.0, 19.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 4.0, 2: 3.0, 3: 2.0, 4: 1.0})
    medians, residual = ladder_summary(spans)
    assert medians == pytest.approx({"client": 4.0, "http": 3.0, "service": 2.0, "api": 1.0})
    assert residual == pytest.approx(0.0)


def test_residual_shows_a_child_longer_than_its_parent():
    spans = [
        _span("client", "a", 1, None, 0.0, 10.0),
        _span("http", "a", 2, 1, 10.0, 22.0),   # replay slower than its parent
        _span("client", "b", 3, None, 0.0, 10.0),
        _span("http", "b", 4, 3, 10.0, 18.0),
    ]
    medians, residual = ladder_summary(spans)
    # Trace a: client self clipped from -2 to 0; 10 - (0 + 12) = -2 ms.
    # Trace b: fully attributed.  Median of (-0.2, 0.0).
    assert residual == pytest.approx(-0.1)
    assert medians["client"] == pytest.approx(1.0)


def test_tracer_disabled_records_nothing_and_writes_spans(tmp_path):
    tracer = Tracer(enabled=False)
    assert tracer.call("x", "t", lambda: 3) == (3, None)
    tracer.enabled = True
    value, span = tracer.call("x", "t", lambda: 4)
    assert value == 4 and span.parent_id is None
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    assert json.loads(path.read_text())["name"] == "x"


def test_walk_oracle_matches_brute_force():
    plan = workloads.build("update-mixed", 2)
    oracle.Oracle(plan).validate_walk_identity()


def test_versioned_check_accepts_reported_versions_and_rejects_others():
    plan = workloads.build("update-mixed", 5)
    edge = (0, 1) if not plan.datasets["small"].has_edge(0, 1) else (0, 2)
    write = workloads.Request("update", "toggle", "small", add=(edge,))
    read = workloads.Request("count", "P3", "small")
    check = oracle.Oracle(plan)
    vertices = plan.datasets["small"].vertices()
    base = workloads.edge_set(plan.datasets["small"])
    before = check.hom("P3", base, vertices)
    after = check.hom("P3", base | {edge}, vertices)
    assert before != after
    subscription = {
        "id": oracle.subscription_id("small", "star2"), "maintains": "answer-count",
        "version": 1, "value": check.answers("star2", base | {edge}, vertices),
    }
    w = loadgen.Sample(write, "open", 0.0, 0.0, 1.0,
                       response={"version": 1, "subscriptions": [subscription]})
    # Sent after the write was acknowledged: only version 1 is possible.
    late_ok = loadgen.Sample(read, "open", 2.0, 2.0, 3.0, response={"count": after})
    late_bad = loadgen.Sample(read, "open", 2.0, 2.0, 3.0, response={"count": before})
    # In flight together with the write: either version is right.
    racing = loadgen.Sample(read, "open", 0.5, 0.5, 0.6, response={"count": before})
    problems = oracle.check(plan, [w, late_ok, late_bad, racing])
    assert [w.correct, late_ok.correct, late_bad.correct, racing.correct] == [
        True, True, False, True,
    ]
    assert len(problems) == 1


def test_benchmark_json_lists_the_catalogue():
    path = os.path.join(os.path.dirname(os.path.dirname(metrics.__file__)), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("BENCHMARK.json is not beside the benchmark")
    with open(path) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in metrics.PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WHY[name] for name in workloads.REGISTERED
    }
