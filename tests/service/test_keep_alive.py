"""Opt-in keep-alive on the service transport.

A client that sends ``Connection: keep-alive`` (``ServiceClient`` does)
is served many requests over one connection; every other request is
answered ``Connection: close`` and then EOF, the contract bare clients
that read to EOF rely on.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.engine import set_default_engine
from repro.graphs import cycle_graph, path_graph, random_graph
from repro.homs.brute_force import count_homomorphisms_brute
from repro.service import BackgroundServer, ServiceClient
from repro.service.server import ServiceServer
from repro.service.wire import graph_to_spec

_P3_ON_C5 = {
    "pattern": graph_to_spec(path_graph(3)),
    "target": graph_to_spec(cycle_graph(5)),
}


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture
def accepted(monkeypatch):
    """Every connection the server accepts, as ``(server, writer)``."""
    connections: list[tuple[ServiceServer, object]] = []
    original = ServiceServer._handle_connection

    async def counting(self, reader, writer):
        connections.append((self, writer))
        await original(self, reader, writer)

    monkeypatch.setattr(ServiceServer, "_handle_connection", counting)
    return connections


@pytest.fixture
def server(accepted):
    with BackgroundServer(workers=2, max_queue=32) as running:
        ServiceClient(port=running.port).wait_ready()
        yield running


def _raw_exchange(sock: socket.socket, request: bytes) -> tuple[str, bytes]:
    """Send one request; read one response head and its body."""
    sock.sendall(request)
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before a response head"
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    text = head.decode("ascii")
    length = next(
        int(line.split(":", 1)[1]) for line in text.split("\r\n")[1:]
        if line.lower().startswith("content-length:")
    )
    while len(body) < length:
        body += sock.recv(65536)
    return text, body


def _post(path: str, body: dict, connection: str | None) -> bytes:
    data = json.dumps(body).encode("utf-8")
    header = f"Connection: {connection}\r\n" if connection else ""
    return (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        f"{header}\r\n"
    ).encode("ascii") + data


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, server, accepted):
        host = random_graph(8, 0.4, seed=5)
        ServiceClient(port=server.port).register_graph("hosts", host)
        before = len(accepted)
        client = ServiceClient(port=server.port)
        pattern = path_graph(3)
        expected = count_homomorphisms_brute(pattern, host)
        for _ in range(20):
            assert client.count(pattern, "hosts")["count"] == expected
        assert len(accepted) - before == 1

    def test_threads_sharing_a_client_get_their_own_connection(
        self, server, accepted,
    ):
        host = random_graph(9, 0.4, seed=7)
        client = ServiceClient(port=server.port)
        client.register_graph("hosts", host)
        patterns = [path_graph(2), path_graph(3), cycle_graph(4), cycle_graph(5)]
        expected = [count_homomorphisms_brute(p, host) for p in patterns]
        before = len(accepted)
        barrier = threading.Barrier(2)
        answers: dict[int, list[int]] = {}

        def sender(index: int) -> None:
            barrier.wait(timeout=10.0)
            answers[index] = [
                client.count(patterns[i % len(patterns)], "hosts")["count"]
                for i in range(12)
            ]

        threads = [threading.Thread(target=sender, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(accepted) - before == 2
        for index in range(2):
            assert answers[index] == [
                expected[i % len(patterns)] for i in range(12)
            ]

    def test_bare_request_gets_close_then_eof(self, server):
        # The e2ebench raw_post contract: no Connection header, read to EOF.
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            head, _ = _raw_exchange(sock, _post("/count", _P3_ON_C5, None))
            assert head.startswith("HTTP/1.1 200")
            assert "Connection: close" in head.split("\r\n")
            assert sock.recv(65536) == b""

    def test_keep_alive_request_keeps_the_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for _ in range(3):
                head, payload = _raw_exchange(
                    sock, _post("/count", _P3_ON_C5, "keep-alive"),
                )
                assert "Connection: keep-alive" in head.split("\r\n")
                assert json.loads(payload)["count"] == count_homomorphisms_brute(
                    path_graph(3), cycle_graph(5),
                )

    def test_malformed_body_closes_even_when_keep_alive(self, server):
        request = (
            b"POST /count HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: 3\r\nConnection: keep-alive\r\n\r\n{x}"
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            head, _ = _raw_exchange(sock, request)
            assert head.startswith("HTTP/1.1 400")
            assert "Connection: close" in head.split("\r\n")
            assert sock.recv(65536) == b""

    def test_client_hangup_leaves_no_connection_or_error(self, server, accepted):
        service = server.service
        errors_before = dict(service.error_counts)
        before = len(accepted)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            head, _ = _raw_exchange(sock, (
                b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Connection: keep-alive\r\n\r\n"
            ))
            assert "Connection: keep-alive" in head.split("\r\n")
        serving, writer = accepted[before]
        assert _wait_until(lambda: writer not in serving._connections)
        assert service.error_counts == errors_before

    def test_stop_is_prompt_with_an_idle_keep_alive_connection(self, accepted):
        running = BackgroundServer(workers=1, max_queue=8).start()
        try:
            client = ServiceClient(port=running.port)
            assert client.health()["kind"] == "health"
            serving, writer = accepted[-1]
            assert writer in serving._connections  # held open, idle
        finally:
            start = time.monotonic()
            running.stop()
            elapsed = time.monotonic() - start
        assert elapsed < 2.0
