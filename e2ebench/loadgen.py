"""Open- and closed-loop load generation over a bounded set of threads.

Open loop: request ``i`` is due at ``start + i / rate`` whatever happened to
earlier ones, and its latency runs from that due time, so a stall also
charges the wait it imposes on every request behind it.  ``lag`` (send time
minus due time) says how late the generator itself ran.  Closed loop: each
thread sends its next request when the previous one returns, and
throughput is correct completions per second.

Each thread holds at most one connection at a time, so the thread count is
also the connection cap.

Given a ``meter`` (a function returning the server's CPU nanoseconds),
``timed_send`` also records the CPU time one request cost: the sending
thread's own plus the server's over the request.  That attribution holds
only while no other request is in flight, so the harness meters a
single-threaded open loop.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class Sample:
    request: object
    phase: str
    due: float
    sent: float
    done: float
    response: object = None
    error: str | None = None
    correct: bool | None = None
    cpu_ms: float | None = None

    @property
    def latency_ms(self) -> float:
        """From due time (open loop) or send time (closed loop) to done."""
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def reportable(q: float, n: int) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return n * (1.0 - q) >= 10 - 1e-9


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the data at
    or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class _Feed:
    """A lock-guarded request source shared by the sender threads."""

    def __init__(self, stream: Iterator) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self.taken = 0

    def take(self):
        with self._lock:
            index = self.taken
            self.taken += 1
            return index, next(self._stream)


def _run_threads(target: Callable[[], None], threads: int) -> None:
    workers = [threading.Thread(target=target, daemon=True) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=600.0)
        if worker.is_alive():
            raise RuntimeError("a load thread did not finish")


def timed_send(send: Callable, request, sample: Sample, clock,
               meter: Callable[[], int] | None = None) -> None:
    """Send one request, filling in the sample's send time, response or
    error, end, and (given a ``meter``) CPU time."""
    server = meter() if meter else 0
    client = time.thread_time_ns()
    sample.sent = clock()
    try:
        sample.response = send(request)
    except Exception as error:  # noqa: BLE001 - every failure is a sample
        sample.error = f"{type(error).__name__}: {error}"
    sample.done = clock()
    if meter:
        sample.cpu_ms = (time.thread_time_ns() - client + meter() - server) / 1e6


def open_loop(
    send: Callable,
    stream: Iterator,
    rate: float,
    seconds: float,
    threads: int,
    clock: Callable[[], float] = time.perf_counter,
    meter: Callable[[], int] | None = None,
) -> list[Sample]:
    """Issue ``rate * seconds`` requests on a fixed schedule."""
    total = max(1, int(rate * seconds))
    feed = _Feed(stream)
    samples: list[Sample] = []
    lock = threading.Lock()
    start = clock() + 0.01

    def worker() -> None:
        while True:
            with lock:
                if feed.taken >= total:
                    return
                index, request = feed.take()
            due = start + index / rate
            pause = due - clock()
            if pause > 0:
                time.sleep(pause)
            sample = Sample(request, "open", due, due, 0.0)
            timed_send(send, request, sample, clock, meter)
            with lock:
                samples.append(sample)

    _run_threads(worker, threads)
    samples.sort(key=lambda sample: sample.due)
    return samples


def closed_loop(
    send: Callable,
    stream: Iterator,
    seconds: float,
    threads: int,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Sample], float, float]:
    """Back-to-back requests per thread until ``seconds`` have passed.

    Returns the samples and the phase's ``(start, end)``; only samples done
    by ``end`` count toward throughput.
    """
    feed = _Feed(stream)
    samples: list[Sample] = []
    lock = threading.Lock()
    start = clock()
    end = start + seconds

    def worker() -> None:
        while clock() < end:
            _, request = feed.take()
            sample = Sample(request, "closed", clock(), 0.0, 0.0)
            timed_send(send, request, sample, clock)
            with lock:
                samples.append(sample)

    _run_threads(worker, threads)
    samples.sort(key=lambda sample: sample.sent)
    return samples, start, end


def throughput(samples: list[Sample], start: float, end: float) -> float:
    """Correct completions per second within ``[start, end]``."""
    done = sum(1 for s in samples if s.correct and s.done <= end)
    return done / (end - start)
