"""Shared parity tests: CLI ``--json``, server request handling, and
client calls all construct and consume the same canonical spec payloads.

Three assertions per verb:

1. the body the client actually POSTs is exactly ``task_to_wire(task)``;
2. the server decodes that body into an *equal* spec and re-encodes it
   byte-identically (request handling is canonical);
3. the CLI's ``--json`` stdout equals the HTTP response for the same
   inputs (response-side parity, via the shared Result rendering).
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    AnalyzeTask,
    AnswerCountTask,
    HomCountTask,
    KgAnswerCountTask,
    WlDimensionTask,
)
from repro.cli import main
from repro.engine import set_default_engine
from repro.graphs import cycle_graph, random_graph
from repro.graphs.io import to_graph6
from repro.kg import KnowledgeGraph, kg_query_from_triples
from repro.service import BackgroundServer, ServiceClient
from repro.service.client import ServiceClient as ClientClass
from repro.service.wire import (
    result_from_wire,
    result_to_payload,
    task_from_wire,
    task_to_wire,
)

TEXT = "q(x1, x2) :- E(x1, y), E(x2, y)"


@pytest.fixture(autouse=True)
def _restore_default_engine():
    yield
    set_default_engine(None)


@pytest.fixture
def recording_client(monkeypatch):
    """A client whose POST bodies are captured instead of sent."""
    client = ClientClass(port=1)
    bodies = []

    def fake_post(path, payload):
        bodies.append((path, payload))
        return {
            "dataset": {}, "subscription": {}, "kind": "result",
            "task": None, "value": None, "results": [],
        }

    monkeypatch.setattr(client, "_post", fake_post)
    return client, bodies


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestClientSendsCanonicalSpecs:
    def test_every_verb_posts_task_to_wire(self, recording_client):
        client, bodies = recording_client
        host = random_graph(7, 0.4, seed=3)
        kg = KnowledgeGraph(
            vertices={"a": "User", "b": "Item"}, triples=[("a", "likes", "b")],
        )
        kg_query = kg_query_from_triples([("x", "likes", "y")], ["x"])

        client.count(cycle_graph(4), host)
        client.count(cycle_graph(4), "hosts")
        client.count_answers(TEXT, host)
        client.count_kg_answers(kg_query, kg)
        client.wl_dim(TEXT)
        client.analyze(TEXT)
        client.run_task(WlDimensionTask(TEXT))

        expected = [
            ("/count", HomCountTask(cycle_graph(4), host)),
            ("/count", HomCountTask(cycle_graph(4), "hosts")),
            ("/count-answers", AnswerCountTask(TEXT, host)),
            ("/count-answers", KgAnswerCountTask(kg_query, kg)),
            ("/wl-dim", WlDimensionTask(TEXT)),
            ("/analyze", WlDimensionTask(TEXT)),
            ("/task", WlDimensionTask(TEXT)),
        ]
        assert len(bodies) == len(expected)
        for (path, body), (want_path, task) in zip(bodies, expected):
            assert path == want_path
            if path == "/analyze":  # same query field, different kind
                assert body["query"] == task.query
                continue
            assert canonical(body) == canonical(task_to_wire(task))

    def test_server_decode_is_canonical(self, recording_client):
        """Request handling consumes the exact payload the client sent:
        decoding and re-encoding the body is the identity."""
        client, bodies = recording_client
        host = random_graph(7, 0.4, seed=3)
        client.count(cycle_graph(4), host)
        client.count_answers(TEXT, "hosts")
        for _, body in bodies:
            decoded = task_from_wire(body)  # what the server route runs
            assert canonical(task_to_wire(decoded)) == canonical(body)
            assert decoded == task_from_wire(task_to_wire(decoded))


class TestCliServicePayloadParity:
    def test_wl_dim_and_analyze_parity(self, capsys):
        assert main(["wl-dim", TEXT, "--json"]) == 0
        cli_wl = json.loads(capsys.readouterr().out)
        assert main(["analyze", TEXT, "--json"]) == 0
        cli_analyze = json.loads(capsys.readouterr().out)
        try:
            with BackgroundServer(workers=1) as server:
                client = ServiceClient(port=server.port)
                client.wait_ready()
                assert client.wl_dim(TEXT) == cli_wl
                assert client.analyze(TEXT) == cli_analyze
        finally:
            set_default_engine(None)

    def test_count_parity_including_task_route(self, capsys):
        host = random_graph(7, 0.4, seed=3)
        assert main(["count", TEXT, "--graph6", to_graph6(host), "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        task = AnswerCountTask(TEXT, host)
        kg = KnowledgeGraph(
            vertices={"a": "User", "b": "Item"}, triples=[("a", "likes", "b")],
        )
        kg_query = kg_query_from_triples([("x", "likes", "y")], ["x"])
        # One input per VERB_ROUTES entry: (per-verb call, the same spec).
        cases = [
            (lambda c: c.count(cycle_graph(4), host),
             HomCountTask(cycle_graph(4), host)),
            (lambda c: c.count_answers(TEXT, host), task),
            (lambda c: c.count_kg_answers(kg_query, kg),
             KgAnswerCountTask(kg_query, kg)),
            (lambda c: c.wl_dim(TEXT), WlDimensionTask(TEXT)),
            (lambda c: c.analyze(TEXT), AnalyzeTask(TEXT)),
        ]
        try:
            with BackgroundServer(workers=1) as server:
                client = ServiceClient(port=server.port)
                client.wait_ready()
                verb_payload = client.count_answers(TEXT, host)
                task_payload = client.run_task(task)
                pairs = [
                    (verb(client), client.run_task(spec))
                    for verb, spec in cases
                ]
        finally:
            set_default_engine(None)
        # every per-verb response is /task's result in the legacy shape
        for verb_response, task_response in pairs:
            assert verb_response == result_to_payload(
                result_from_wire(task_response),
            )
        assert cli_payload == verb_payload
        # the generic route carries the same value and spec identity
        assert task_payload["kind"] == "result"
        assert task_payload["task"] == task.kind
        assert task_payload["value"] == verb_payload["count"]
        assert task_payload["backend"] == verb_payload["method"]
        assert task_payload["provenance"]["target"] == verb_payload["target"]
