"""One benchmark run: set up a topology, drive a workload, check, measure."""

from __future__ import annotations

import itertools
import os
import shutil
import statistics
import tempfile
import time

from repro.service.client import ServiceClient

import calls
import hostspeed
import ladder
import loadgen
import oracle
import workloads
from procs import ServerProcess
from spans import Tracer

#: Set-ups per run; setup_s is the median of their CPU seconds.
SETUPS = 5
#: Closed-loop sender threads (and so connections): nproc, but never more
#: than two, so the load stays the same on larger hosts.  The open loop is
#: metered, so it runs on one.
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
#: The open loop takes this share of the measured seconds, in OPEN_CHUNKS
#: chunks, and the closed loop the rest, in CLOSED_SLICES slices (the traced
#: run traces every other one); the host's speed is probed between them.
OPEN_SHARE = 0.5
OPEN_CHUNKS = 16
CLOSED_SLICES = 16

CLOCK = time.perf_counter


class Topology:
    """A started server or cluster plus the state a run registered in it."""

    def __init__(self, plan, root: str, scratch: str) -> None:
        self.plan = plan
        self.data_dir = (
            tempfile.mkdtemp(prefix="data-", dir=scratch) if plan.data_dir else None
        )
        args = list(plan.topology)
        if self.data_dir:
            args += ["--data-dir", self.data_dir]
        self.process = ServerProcess(args, os.path.join(root, "src"), root)
        self.port: int | None = None
        self.warmup: list[loadgen.Sample] = []

    def start(self, patterns) -> tuple[float, float]:
        """Spawn, wait ready, register, subscribe and warm.

        Returns the CPU seconds that took, the server processes' and this
        thread's, and the wall-clock seconds.
        """
        start, client_cpu = CLOCK(), time.thread_time()
        self.port = self.process.start()
        client = ServiceClient(port=self.port)
        client.wait_ready(timeout=60.0)
        for name, graph in self.plan.datasets.items():
            client.register_graph(name, graph)
        for dataset, kind, subject in self.plan.subscriptions:
            sub_id = oracle.subscription_id(dataset, subject)
            if kind == "query":
                client.subscribe(dataset, query=workloads.query_text(subject),
                                 subscription_id=sub_id)
            else:
                client.subscribe(dataset, pattern=patterns[subject],
                                 subscription_id=sub_id)
        self.warmup = []
        for request in self.plan.warmup:
            sample = loadgen.Sample(request, "warmup", CLOCK(), 0.0, 0.0)
            loadgen.timed_send(lambda r: calls.send(client, r, patterns),
                               request, sample, CLOCK)
            self.warmup.append(sample)
        wall = CLOCK() - start
        return self.process.cpu_s() + time.thread_time() - client_cpu, wall

    def stop(self) -> None:
        self.process.stop()
        if self.data_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        out_dir: str) -> dict:
    """Run one workload; returns the result record (metrics, counts, notes)."""
    plan = workloads.build(name, seed)
    patterns = workloads.pattern_table()
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    topology = None
    try:
        setups = []
        for attempt in range(SETUPS):
            topology = Topology(plan, root, scratch)
            setups.append(topology.start(patterns))
            if attempt < SETUPS - 1:
                topology.stop()
                topology = None
        record = _measure(plan, topology, patterns, seconds, trace, scratch)
        # Set-up CPU is scaled to an uncontended host like the other CPU
        # figures (see _measure), by the run's mean probe.
        record["metrics"]["setup_s"] = (
            statistics.median(cpu for cpu, _ in setups) / record["extra"]["host_slowdown"]
        )
        record["extra"]["setup_wall_s"] = statistics.median(wall for _, wall in setups)
        record["setup_runs_s"] = setups
        return record
    finally:
        if topology is not None:
            topology.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(plan, topology, patterns, seconds, trace, scratch) -> dict:
    port = topology.port
    client = ServiceClient(port=port)

    def send(request):
        return calls.send(client, request, patterns)

    # The gated timings are CPU time scaled to an uncontended host, not wall
    # time.  On a shared host other guests take the CPU for seconds to
    # minutes at a time (the hypervisor's steal), which stretches every
    # wall-clock figure by however loaded the host is; the CPU time the
    # scheduler charges the benchmark's and the servers' threads leaves that
    # out.  Busy neighbours also slow the CPU itself (a shared hyperthread
    # core, cache and memory bandwidth), which even CPU time shows; a fixed
    # reference task, probed before and after every open-loop chunk and
    # closed-loop slice, measures that slowdown.  Each slice's server CPU
    # time is divided by the mean of its two probes; the per-request CPU
    # times are divided by the mean of all probes, as two probes are too few
    # to scale single requests by (their noise would smear the
    # distribution).  Wall-clock latency and throughput of the same requests
    # are reported beside them.
    meter = topology.process.cpu_meter()
    tracer = Tracer(enabled=trace)
    before = ladder.snapshot(port) if trace else None
    steal_before = stolen_cpu_s()
    probes = [hostspeed.probe()]
    # A fixed number of open-loop requests, so the memory checkpoint after
    # them sees the same work on every run.
    open_samples = []
    for _ in range(OPEN_CHUNKS):
        open_samples += loadgen.open_loop(
            _traced(send, tracer, "client.open"), plan.stream, plan.open_rate,
            OPEN_SHARE * seconds / OPEN_CHUNKS, 1, CLOCK, meter=meter,
        )
        probes.append(hostspeed.probe())
    rss_mb = topology.process.peak_rss_mb()
    slice_s = (1.0 - OPEN_SHARE) * seconds / CLOSED_SLICES
    windows, server_cpu_s, scaled_cpu_s = [], 0.0, 0.0
    for index in range(CLOSED_SLICES):
        # The traced run traces every other slice, for obs.trace_overhead.
        tracer.enabled = trace and index % 2 == 1
        cpu_before = meter()
        samples, start, end = loadgen.closed_loop(
            _traced(send, tracer, "client.closed"), plan.stream, slice_s,
            THREADS, CLOCK,
        )
        cpu_s = (meter() - cpu_before) / 1e9
        windows.append((tracer.enabled, samples, start, end))
        probes.append(hostspeed.probe())
        server_cpu_s += cpu_s
        scaled_cpu_s += cpu_s / hostspeed.slowdown(probes[-2:])
    tracer.enabled = trace
    stolen = stolen_cpu_s() - steal_before
    closed = [s for _, samples, _, _ in windows for s in samples]
    after = ladder.snapshot(port) if trace else None

    measured = open_samples + closed
    problems = oracle.check(plan, topology.warmup + measured)
    wrong = sum(1 for s in measured if not s.correct)
    warm_wrong = sum(1 for s in topology.warmup if not s.correct)

    writes = [s for s in measured if s.request.write]
    reads = [s for s in open_samples if not s.request.write]
    read_ms = [s.latency_ms for s in reads]
    write_ms = [s.latency_ms for s in open_samples if s.request.write]
    if not loadgen.reportable(0.90, len(read_ms)):
        problems.append(f"only {len(read_ms)} open-loop reads: too few for p90")
    completed = sum(1 for s in closed if s.correct)
    cpu_p50_ms = loadgen.percentile([s.cpu_ms for s in reads], 0.50)
    slowdown = hostspeed.slowdown(probes)
    metrics = {
        "request_cpu_p50_ms": cpu_p50_ms / slowdown,
        "capacity_rps": completed / scaled_cpu_s,
        "server_rss_mb": rss_mb,
    }
    extra = {
        "open_samples": len(read_ms),
        "closed_samples": len(closed),
        "error_rate": wrong / len(measured),
        "latency_p50_ms": loadgen.percentile(read_ms, 0.50),
        "latency_p90_ms": loadgen.percentile(read_ms, 0.90),
        "latency_p99_ms": (
            loadgen.percentile(read_ms, 0.99)
            if loadgen.reportable(0.99, len(read_ms)) else None
        ),
        "throughput_rps": (
            sum(loadgen.throughput(s, a, b) * (b - a) for _, s, a, b in windows)
            / sum(b - a for _, _, a, b in windows)
        ),
        "loadgen.lag_p99_ms": loadgen.percentile(
            [s.lag_ms for s in open_samples], 0.99,
        ),
        "write_samples": len(write_ms),
        "write_p50_ms": loadgen.percentile(write_ms, 0.50) if write_ms else None,
        "write_p90_ms": (
            loadgen.percentile(write_ms, 0.90)
            if loadgen.reportable(0.90, len(write_ms)) else None
        ),
        "server_cpu_s": server_cpu_s,
        "stolen_cpu_s": stolen,
        "host_slowdown": slowdown,
        "request_cpu_p50_unscaled_ms": cpu_p50_ms,
        "capacity_unscaled_rps": completed / server_cpu_s,
        "host_probes_ms": probes,
    }
    record = {
        "workload": plan.name,
        "seed": plan.seed,
        "trace": trace,
        "threads": THREADS,
        "open_rate": plan.open_rate,
        "attempted": len(measured),
        "failed": wrong,
        "warmup_failed": warm_wrong,
        "problems": problems[:20],
        "metrics": metrics,
        "extra": extra,
    }
    if trace:
        record["layers"] = ladder.layer_metrics(
            plan, topology, patterns, before, after, writes, extra, windows,
            tracer, scratch,
        )
        record["spans"] = tracer
    return record


def stolen_cpu_s() -> float:
    """CPU seconds the hypervisor has stolen from this guest (0 on bare metal)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _traced(send, tracer: Tracer, name: str):
    """Wrap ``send`` in a client span per request (no-op when disabled)."""
    counter = itertools.count()

    def wrapped(request):
        if not tracer.enabled:
            return send(request)
        return tracer.call(name, f"{name}-{next(counter)}", lambda: send(request))[0]

    return wrapped
