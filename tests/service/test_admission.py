"""One admission path: the per-verb counting routes are aliases of
``POST /task``.

Driven in-process through :meth:`CountingService.handle` on one event
loop, with ``Session.run`` held on a :class:`threading.Event`, so the
coalescing assertions are deterministic rather than timing-dependent.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.api import HomCountTask, KgAnswerCountTask
from repro.engine import set_default_engine
from repro.graphs import cycle_graph, random_graph
from repro.homs import count_homomorphisms_brute
from repro.kg import KnowledgeGraph, count_kg_answers_brute, kg_query_from_triples
from repro.service.server import CountingService
from repro.service.wire import task_to_wire


@pytest.fixture
def service():
    service = CountingService(workers=2)
    try:
        yield service
    finally:
        service.close()
        service.restore_default_engine()
        set_default_engine(None)


async def _until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        await asyncio.sleep(0.001)


def test_verb_routes_share_task_admission(service, monkeypatch):
    """``/count`` and ``/task`` for one spec coalesce onto one run and
    each answers its own shape; ``/count-answers`` with a ``kg_query``
    runs as ``kg-answer-count``."""
    release = threading.Event()
    kinds: list[str] = []
    run = service.session.run

    def held_run(task):
        kinds.append(task.kind)
        release.wait(timeout=10.0)
        return run(task)

    monkeypatch.setattr(service.session, "run", held_run)
    host = random_graph(9, 0.4, seed=5)
    service.registry.register_graph("hosts", host)
    pattern = cycle_graph(4)
    task_body = task_to_wire(HomCountTask(pattern, "hosts"))
    verb_body = {k: v for k, v in task_body.items() if k != "task"}
    kg = KnowledgeGraph(
        vertices={"a": "User", "b": "User", "c": "Item"},
        triples=[("a", "likes", "c"), ("b", "likes", "c")],
    )
    kg_query = kg_query_from_triples([("x", "likes", "y")], ["x"])
    kg_body = task_to_wire(KgAnswerCountTask(kg_query, kg))
    del kg_body["task"]  # the route, not the body, names the kind

    async def scenario():
        await service.scheduler.start()
        try:
            verb = asyncio.create_task(
                service.handle("POST", "/count", verb_body),
            )
            await _until(lambda: kinds)
            generic = asyncio.create_task(
                service.handle("POST", "/task", task_body),
            )
            await _until(lambda: service.scheduler.stats.coalesced >= 1)
            release.set()
            pair = await asyncio.gather(verb, generic)
            kg_response = await service.handle(
                "POST", "/count-answers", kg_body,
            )
            return pair, kg_response
        finally:
            release.set()
            await service.scheduler.stop()

    pair, kg_response = asyncio.run(scenario())
    (verb_status, verb_payload, _), (task_status, task_payload, _) = pair
    assert kinds == ["hom-count", "kg-answer-count"]
    assert service.scheduler.stats.coalesced == 1
    expected = count_homomorphisms_brute(pattern, host)
    assert verb_status == task_status == 200
    assert verb_payload["kind"] == "count"
    assert verb_payload["target"] == "hosts"
    assert verb_payload["count"] == expected
    assert task_payload["kind"] == "result"
    assert task_payload["task"] == "hom-count"
    assert task_payload["value"] == expected
    kg_status, kg_payload, _ = kg_response
    assert kg_status == 200
    assert kg_payload["kind"] == "count-answers"
    assert kg_payload["method"] == "kg-engine"
    assert kg_payload["count"] == count_kg_answers_brute(kg_query, kg)
