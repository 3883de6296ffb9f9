"""The router's pooled keep-alive link to its workers.

A pooled connection the worker closed while idle is replaced without
demoting the worker or counting a retry; a cancelled call (a hedge
loser) never returns its connection to the pool.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import HomCountTask
from repro.cluster import ClusterRouter
from repro.cluster.ring import HashRing
from repro.cluster.router import ConnectionPool, http_call
from repro.graphs import cycle_graph, path_graph
from repro.homs import count_homomorphisms_brute
from repro.service.http import format_head, read_http_head
from repro.service.server import CountingService, ServiceServer
from repro.service.wire import task_to_wire
from repro.utils import stable_key_digest

_BODY = task_to_wire(HomCountTask(path_graph(3), cycle_graph(5)))
_EXPECTED = count_homomorphisms_brute(path_graph(3), cycle_graph(5))


async def _fake_worker(answers: int, delay: float = 0.0):
    """A keep-alive HTTP endpoint that answers ``answers`` requests per
    connection (after ``delay`` seconds each), then closes the connection
    on the next request without answering it."""
    connections: list[asyncio.StreamWriter] = []

    async def handle(reader, writer):
        connections.append(writer)
        try:
            for served in range(answers + 1):
                _, _, length = await read_http_head(reader)
                await reader.readexactly(length)
                if served == answers:
                    break
                await asyncio.sleep(delay)
                data = json.dumps({"count": _EXPECTED}).encode("utf-8")
                writer.write(format_head("HTTP/1.1 200 OK", {
                    "Content-Type": "application/json",
                    "Content-Length": len(data),
                    "Connection": "keep-alive",
                }) + data)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], connections


class TestHttpCallPool:
    def test_stale_pooled_connection_is_retried_once_on_a_fresh_one(self):
        async def scenario():
            server, port, connections = await _fake_worker(answers=1)
            pool = ConnectionPool()
            try:
                first = await http_call("127.0.0.1", port, "POST", "/count",
                                        _BODY, pool=pool)
                # The pooled connection is open but answers no more.
                second = await http_call("127.0.0.1", port, "POST", "/count",
                                         _BODY, pool=pool)
                return first, second, len(connections)
            finally:
                pool.close()
                server.close()

        first, second, opened = asyncio.run(scenario())
        assert first == second == (200, {"count": _EXPECTED})
        assert opened == 2

    def test_fresh_connection_failure_raises(self):
        async def scenario():
            server, port, _ = await _fake_worker(answers=0)
            try:
                await http_call("127.0.0.1", port, "POST", "/count", _BODY,
                                pool=ConnectionPool())
            finally:
                server.close()

        with pytest.raises(ConnectionError):
            asyncio.run(scenario())


class TestRouterPool:
    def test_worker_closing_a_pooled_connection_is_not_a_failure(self):
        async def scenario():
            service = CountingService(workers=1, install_default_engine=False)
            worker = ServiceServer(service)
            await worker.start()
            router = ClusterRouter()
            try:
                assert await router.admit_worker("w0", "127.0.0.1", worker.port)
                first = await router.handle("POST", "/count", _BODY)
                assert router._pool._idle[("127.0.0.1", worker.port)]
                retries = router._retries_total.value
                for writer in list(worker._connections):
                    writer.close()  # the worker's side of the pooled link
                second = await router.handle("POST", "/count", _BODY)
                return (first, second, router.worker_ids,
                        router._retries_total.value - retries)
            finally:
                router.close()
                await worker.stop()

        first, second, members, retries = asyncio.run(scenario())
        assert first[0] == second[0] == 200
        assert first[1]["count"] == second[1]["count"] == _EXPECTED
        assert members == ["w0"]
        assert retries == 0

    def test_cancelled_hedge_loser_is_not_pooled(self):
        async def scenario():
            router = ClusterRouter(hedge_after=0.05)
            slow, slow_port, _ = await _fake_worker(answers=1, delay=1.0)
            fast, fast_port, _ = await _fake_worker(answers=1)
            try:
                key = stable_key_digest(("/count", _BODY))
                owner, backup = HashRing(
                    ["a", "b"], replicas=router.ring.replicas,
                ).nodes_for(key)
                await router.admit_worker(owner, "127.0.0.1", slow_port)
                await router.admit_worker(backup, "127.0.0.1", fast_port)
                hedges = router._hedges_total.value
                status, payload, _ = await router.handle("POST", "/count", _BODY)
                return (
                    status, payload, router._hedges_total.value - hedges,
                    list(router._pool._idle.get(("127.0.0.1", slow_port), [])),
                    list(router._pool._idle.get(("127.0.0.1", fast_port), [])),
                )
            finally:
                router.close()
                slow.close()
                fast.close()

        status, payload, hedges, slow_idle, fast_idle = asyncio.run(scenario())
        assert (status, payload["count"]) == (200, _EXPECTED)
        assert hedges == 1
        assert slow_idle == []
        assert len(fast_idle) == 1
