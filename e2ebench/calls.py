"""How a generated request reaches the server.

``send`` goes through :class:`~repro.service.client.ServiceClient`, the
path users take.  ``wire`` gives the exact route and JSON body the client
would send, for the raw-socket and in-process rungs of the traced ladder.
"""

from __future__ import annotations

import json
import socket

from repro.api.tasks import AnalyzeTask, AnswerCountTask, HomCountTask, WlDimensionTask
from repro.service.wire import task_to_wire


def send(client, request, patterns: dict):
    op = request.op
    if op == "count":
        return client.count(patterns[request.name], request.target)
    if op == "task":
        return client.run_task(HomCountTask(patterns[request.name], request.target))
    if op == "answers":
        return client.count_answers(request.text, request.target)
    if op == "wl-dim":
        return client.wl_dim(request.text)
    if op == "analyze":
        return client.analyze(request.text)
    if op == "update":
        return client.target_update(
            request.target, add_edges=request.add, remove_edges=request.remove,
        )
    raise ValueError(f"unknown op {op!r}")


ROUTES = {
    "count": "/count", "task": "/task", "answers": "/count-answers",
    "wl-dim": "/wl-dim", "analyze": "/analyze", "update": "/target-update",
}


def wire(request, patterns: dict) -> tuple[str, dict]:
    """``(path, body)`` exactly as the client serialises the request."""
    op = request.op
    if op in ("count", "task"):
        body = task_to_wire(HomCountTask(patterns[request.name], request.target))
    elif op == "answers":
        body = task_to_wire(AnswerCountTask(request.text, request.target))
    elif op == "wl-dim":
        body = task_to_wire(WlDimensionTask(request.text))
    elif op == "analyze":
        body = task_to_wire(AnalyzeTask(request.text))
    else:
        body = {"target": request.target}
        if request.add:
            body["add_edges"] = [list(edge) for edge in request.add]
        if request.remove:
            body["remove_edges"] = [list(edge) for edge in request.remove]
    return ROUTES[op], body


def raw_post(port: int, path: str, body: dict, timeout: float = 60.0) -> tuple[int, bytes]:
    """One HTTP/1.1 POST over a bare socket: connect, write, read to EOF.

    The server answers ``Connection: close``, so EOF ends the response.
    """
    data = json.dumps(body).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head + data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    status = int(response.split(b" ", 2)[1])
    return status, response.split(b"\r\n\r\n", 1)[1]


def connect_ms(port: int, clock) -> float:
    """Time to open (and close) one TCP connection to the server."""
    start = clock()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0):
        elapsed = clock() - start
    return elapsed * 1000.0
