"""The traced run's per-layer metrics.

Three sources, each measured from outside the program:

* ``/stats`` and ``/metrics`` deltas over the load phases (scheduler,
  engine cache, kernel tier, store, router counters), and the
  ``/target-update`` payloads the load phases received (dynamic layer);
* the ladder: a seeded sample of the workload's requests replayed one
  layer further down per rung — ``ServiceClient``, a raw socket, the
  router's owning worker (cluster only), ``CountingService.handle`` on an
  in-process replica of the server, ``Session.run``, then the queries or
  ``HomEngine.count`` call beneath it, then ``CountPlan.execute`` — each
  rung a span whose parent is the rung above;
* direct timings of single public functions on the same sampled requests
  (``task_from_wire``, ``result_to_wire``, ``compile_plan``,
  ``power_sum_vector``, ``count_answers_from_power_sums``,
  ``PersistentStore.save_count``, a TCP connect).

Requests with inline targets never repeat a key on the server, so each rung
replays them on an isomorphic copy of the target with its vertices
permuted: the same answer and the same work, under a key no earlier rung
has cached.  ``update-mixed`` reads are preceded on every rung by a version
bump (an edge added and removed again), as reads in the load phases mostly
follow a write.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics

from repro.cluster.ring import HashRing
from repro.engine.plans import compile_plan
from repro.graphs import Graph
from repro.queries.answers import (
    count_answers_by_interpolation,
    count_answers_from_power_sums,
    hom_count_of_ell_copy,
    power_sum_vector,
)
from repro.queries.extension import ell_copy
from repro.queries.parser import parse_query
from repro.service.client import ServiceClient
from repro.service.server import CountingService
from repro.service.store import PersistentStore
from repro.service.wire import (
    graph_to_spec,
    result_to_wire,
    task_from_wire,
    update_batch_from_spec,
)
from repro.utils import stable_key_digest

import calls
import loadgen
import metrics as catalogue
import oracle
import workloads
from spans import ladder_summary

#: Requests replayed down the ladder per traced run.
LADDER_SAMPLE = {"answers-cold": 30, "update-mixed": 48}
LADDER_DEFAULT = 60


def snapshot(port: int) -> dict:
    """``/stats`` of the entry point plus ``/metrics`` of every process."""
    client = ServiceClient(port=port)
    stats = client.stats()
    workers = stats.get("cluster", {}).get("workers", [])
    metrics = [client.metrics()]
    metrics += [ServiceClient(port=w["port"]).metrics() for w in workers if w.get("port")]
    return {"stats": stats, "metrics": metrics}


def _family(metrics: list[dict], name: str) -> dict[tuple, float]:
    totals: dict[tuple, float] = {}
    for snapshot_ in metrics:
        for sample in snapshot_.get(name, {}).get("samples", []):
            key = tuple(sorted(sample.get("labels", {}).items()))
            totals[key] = totals.get(key, 0.0) + sample["value"]
    return totals


def _delta(after: dict, before: dict, *path) -> float:
    def dig(record):
        for key in path:
            record = (record or {}).get(key)
        return record or 0

    return dig(after) - dig(before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _server_counters(before: dict, after: dict) -> dict:
    b, a = before["stats"], after["stats"]
    submitted = _delta(a, b, "scheduler", "submitted")
    backends_before = _family(before["metrics"], "repro_backend_selected_total")
    backends_after = _family(after["metrics"], "repro_backend_selected_total")
    selected = {
        key: backends_after.get(key, 0) - backends_before.get(key, 0)
        for key in backends_after
    }
    numpy = sum(v for key, v in selected.items() if ("backend", "numpy") in key)
    router = {
        name: sum(_family(after["metrics"], f"repro_router_{name}_total").values())
        - sum(_family(before["metrics"], f"repro_router_{name}_total").values())
        for name in ("retries", "hedges")
    }
    per_worker = {
        w["id"]: w.get("requests", 0) for w in a.get("cluster", {}).get("workers", [])
    }
    for w in b.get("cluster", {}).get("workers", []):
        per_worker[w["id"]] = per_worker.get(w["id"], 0) - w.get("requests", 0)
    balance = (
        max(per_worker.values()) / statistics.mean(per_worker.values())
        if per_worker and statistics.mean(per_worker.values()) > 0 else 0.0
    )
    return {
        "scheduler.coalesce_rate": _ratio(
            _delta(a, b, "scheduler", "coalesced"), submitted,
        ),
        "scheduler.max_queue_depth": a.get("scheduler", {}).get("max_queue_depth", 0),
        "scheduler.failed": _delta(a, b, "scheduler", "failed"),
        "engine.count_hit_rate": _ratio(
            _delta(a, b, "engine", "count_hits"),
            _delta(a, b, "engine", "count_requests"),
        ),
        "engine.plan_hit_rate": _ratio(
            _delta(a, b, "engine", "plan_hits"),
            _delta(a, b, "engine", "plan_requests"),
        ),
        "kernel.numpy_share": _ratio(numpy, sum(selected.values())),
        "store.appends": _delta(a, b, "persistent", "counts_stored"),
        "router.retries": router["retries"],
        "router.hedges": router["hedges"],
        "router.balance": balance,
    }


def _dynamic_ratios(writes) -> dict:
    """The dynamic layer's delta and patch ratios over the load phases."""
    first: dict[str, dict] = {}
    last: dict[str, dict] = {}
    for sample in sorted(
        (s for s in writes if s.error is None), key=lambda s: s.response["version"],
    ):
        name = sample.request.target
        first.setdefault(name, sample.response["dynamic"])
        last[name] = sample.response["dynamic"]

    def grew(field):
        return sum(last[n][field] - first[n][field] for n in last)

    deltas, fallbacks = grew("deltas_applied"), grew("delta_fallbacks")
    patches, recompiles = grew("index_patches"), grew("index_recompiles")
    return {
        "dynamic.delta_ratio": _ratio(deltas, deltas + fallbacks),
        "dynamic.patch_ratio": _ratio(patches, patches + recompiles),
    }


def _permuted(graph, rng: random.Random):
    vertices = graph.vertices()
    image = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    copy = Graph(vertices=vertices)
    for u, v in graph.edges():
        copy.add_edge(image[u], image[v])
    return copy


class _Replica:
    """An in-process ``CountingService`` holding the server's state."""

    def __init__(self, plan, patterns, final_edges, data_dir) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = CountingService(data_dir=data_dir)
        self.loop.run_until_complete(self.service.scheduler.start())
        for name, graph in plan.datasets.items():
            state = Graph(vertices=graph.vertices())
            for u, v in final_edges.get(name, graph.edges()):
                state.add_edge(u, v)
            self.handle("/register-dataset", {"name": name, "graph": graph_to_spec(state)})
        for dataset, kind, subject in plan.subscriptions:
            body = {"target": dataset, "id": oracle.subscription_id(dataset, subject)}
            if kind == "query":
                body["query"] = workloads.query_text(subject)
            else:
                body["pattern"] = graph_to_spec(patterns[subject])
            self.handle("/subscribe", body)
        for request in plan.warmup:
            self.handle(*calls.wire(request, patterns))

    def handle(self, path: str, body: dict):
        status, payload, _ = self.loop.run_until_complete(
            self.service.handle("POST", path, body),
        )
        if status != 200:
            raise RuntimeError(f"replica {path}: {status} {payload}")
        return payload

    def close(self) -> None:
        self.loop.run_until_complete(self.service.scheduler.stop())
        self.service.close()
        self.service.restore_default_engine()
        self.loop.close()


def layer_metrics(plan, topology, patterns, before, after, writes, extra,
                  windows, tracer, scratch) -> dict:
    """Every per-layer metric; 0 for a layer the workload does not use."""
    values = {name: 0.0 for name, *_ in catalogue.PER_LAYER}
    values.update(_server_counters(before, after))
    values.update(_dynamic_ratios(writes))
    for name in ("latency_p50_ms", "latency_p90_ms", "throughput_rps",
                 "write_p50_ms", "write_p90_ms", "loadgen.lag_p99_ms"):
        values[name] = extra[name] or 0.0
    off = [loadgen.throughput(s, a, b) for on, s, a, b in windows if not on]
    on = [loadgen.throughput(s, a, b) for on, s, a, b in windows if on]
    if off and on:
        values["obs.trace_overhead"] = statistics.median(off) / statistics.median(on)
    values.update(_replay(plan, topology, patterns, writes, tracer, scratch))
    return values


def _final_edges(plan, writes) -> dict:
    """Each dataset's edges once every acknowledged write is applied."""
    state = {name: workloads.edge_set(graph) for name, graph in plan.datasets.items()}
    for sample in sorted(
        (s for s in writes if s.error is None), key=lambda s: s.response["version"],
    ):
        workloads.apply_write(state[sample.request.target], sample.request)
    return state


def _replay(plan, topology, patterns, writes, tracer, scratch) -> dict:
    rng = random.Random(f"ladder:{plan.name}:{plan.seed}")
    count = LADDER_SAMPLE.get(plan.name, LADDER_DEFAULT)
    sample = [next(plan.stream) for _ in range(count)]
    final = _final_edges(plan, writes)
    data_dir = os.path.join(scratch, "replica") if plan.data_dir else None
    replica = _Replica(plan, patterns, final, data_dir)
    store = PersistentStore(os.path.join(scratch, "store")) if plan.data_dir else None
    ladder = _Ladder(plan, topology, patterns, replica, tracer, rng, final, sample)
    try:
        for index, request in enumerate(sample):
            ladder.replay(index, request, store)
    finally:
        replica.close()
        if store is not None:
            store.close()
    spans = [s for s in tracer.spans if s.trace_id.startswith("ladder-")]
    medians, residual = ladder_summary(spans)
    timings = {name: statistics.median(v) for name, v in ladder.timings.items() if v}
    result = {
        "client.self_ms": medians.get("client", 0.0),
        "http.self_ms": medians.get("http", 0.0),
        "router.hop_ms": medians.get("router", 0.0),
        "service.self_ms": medians.get("service", 0.0),
        "api.self_ms": medians.get("api", 0.0),
        "queries.self_ms": medians.get("queries", 0.0),
        "engine.self_ms": medians.get("engine", 0.0),
        "kernel.execute_ms": medians.get("kernel", 0.0),
        "dynamic.update_ms": medians.get("dynamic", 0.0),
        "ladder.residual_share": residual,
        "queries.ell_max": max(ladder.ells, default=0),
    }
    result.update(timings)
    if ladder.problems:
        raise RuntimeError("ladder answers disagree: " + "; ".join(ladder.problems[:5]))
    return result


class _Ladder:
    def __init__(self, plan, topology, patterns, replica, tracer, rng, final, sample):
        self.plan = plan
        self.patterns = patterns
        self.replica = replica
        self.tracer = tracer
        self.rng = rng
        self.clock = tracer.clock
        self.client = ServiceClient(port=topology.port)
        self.entry = topology.port
        self.routed = plan.topology[0] == "cluster"
        self.workers: dict[str, int] = {}
        if self.routed:
            workers = self.client.stats()["cluster"]["workers"]
            self.workers = {w["id"]: w["port"] for w in workers}
            self.ring = HashRing(self.workers)
        self.timings: dict[str, list[float]] = {
            name: [] for name in (
                "http.connect_ms", "wire.decode_ms", "wire.encode_ms",
                "engine.compile_ms", "engine.count_hit_ms", "engine.count_miss_ms",
                "queries.power_sums_ms", "queries.solve_ms", "store.save_ms",
            )
        }
        self.ells: list[int] = []
        self.problems: list[str] = []
        # The edge each update-mixed version bump toggles: one no sampled
        # write touches, so bumps and writes stay valid in any order.
        touched = {e for r in sample if r.write for e in r.add + r.remove}
        self.bump_edge = {}
        for name, graph in plan.datasets.items():
            vertices = graph.vertices()
            candidates = [
                (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
                if (u, v) not in touched
            ]
            edge = rng.choice(candidates)
            self.bump_edge[name] = (edge, edge in final[name])

    # ------------------------------------------------------------------
    def _timed(self, name: str, fn):
        start = self.clock()
        result = fn()
        self.timings[name].append((self.clock() - start) * 1000.0)
        return result

    def _variant(self, request):
        if request.target is None or isinstance(request.target, str):
            return request
        return workloads.Request(
            request.op, request.name, _permuted(request.target, self.rng),
            text=request.text,
        )

    def _bump(self, name, update):
        """Toggle ``name``'s bump edge twice through ``update`` (update-mixed)."""
        if self.plan.name != "update-mixed":
            return
        edge, present = self.bump_edge[name]
        first, second = ("remove_edges", "add_edges") if present else ("add_edges", "remove_edges")
        update(name, **{first: [edge]})
        update(name, **{second: [edge]})

    def _owner_port(self, path, body) -> int:
        return self.workers[self.ring.node_for(stable_key_digest((path, body)))]

    # ------------------------------------------------------------------
    def replay(self, index: int, request, store) -> None:
        self.timings["http.connect_ms"].append(calls.connect_ms(self.entry, self.clock))
        if request.write:
            self._replay_write(index, request)
        else:
            self._replay_read(index, request, store)

    def _replay_write(self, index, request) -> None:
        trace = f"ladder-{index}"
        tracer, name = self.tracer, request.target
        inverse = workloads.Request(
            "update", request.name, name, add=request.remove, remove=request.add,
        )
        _, top = tracer.call(
            "client", trace, lambda: calls.send(self.client, request, self.patterns),
        )
        path, body = calls.wire(inverse, self.patterns)
        _, http = tracer.call(
            "http", trace, lambda: calls.raw_post(self.entry, path, body), top,
        )
        path, body = calls.wire(request, self.patterns)
        self._timed("wire.decode_ms", lambda: update_batch_from_spec(body))
        _, service = tracer.call(
            "service", trace, lambda: self.replica.handle(path, body), http,
        )
        session = self.replica.service.session
        dataset = self.replica.service.registry.get(name)

        def update():
            session.update(name, add_edges=inverse.add, remove_edges=inverse.remove)
            return [handle.summary() for handle in dataset.subscriptions.values()]

        tracer.call("dynamic", trace, update, service)
        # The rungs alternate the write and its inverse, which leaves it
        # undone; apply it again (untimed), as the request stream assumes.
        calls.send(self.client, request, self.patterns)
        session.update(name, add_edges=request.add, remove_edges=request.remove)

    def _replay_read(self, index, request, store) -> None:
        trace = f"ladder-{index}"
        tracer, patterns, name = self.tracer, self.patterns, request.target
        expected = None

        def agree(value, rung):
            nonlocal expected
            if request.op == "analyze":
                value = oracle.normal_json(value)
            if expected is None:
                expected = value
            elif value != expected:
                self.problems.append(f"{request.op} {request.name}: {rung} gave {value!r}")

        self._bump(name, self.client.target_update)
        response, top = tracer.call(
            "client", trace, lambda: calls.send(self.client, request, patterns),
        )
        agree(oracle.response_value(request, response), "client")

        path, body = calls.wire(self._variant(request), patterns)
        self._bump(name, self.client.target_update)
        (status, raw), parent = tracer.call(
            "router" if self.routed else "http", trace,
            lambda: calls.raw_post(self.entry, path, body), top,
        )
        agree(oracle.response_value(request, json.loads(raw)), "raw socket")
        if self.routed:
            port = self._owner_port(path, body)
            (status, raw), parent = tracer.call(
                "http", trace, lambda: calls.raw_post(port, path, body), parent,
            )
            agree(oracle.response_value(request, json.loads(raw)), "worker")

        path, body = calls.wire(self._variant(request), patterns)
        self._bump(name, self.replica.service.session.update)
        payload, service = tracer.call(
            "service", trace, lambda: self.replica.handle(path, body), parent,
        )
        agree(oracle.response_value(request, payload), "handle")

        path, body = calls.wire(self._variant(request), patterns)
        task = self._timed("wire.decode_ms", lambda: task_from_wire(body))
        self._bump(name, self.replica.service.session.update)
        result, api = tracer.call(
            "api", trace, lambda: self.replica.service.session.run(task), service,
        )
        agree(result.value, "Session.run")
        self._timed("wire.encode_ms", lambda: json.dumps(result_to_wire(result)))

        if request.op in ("count", "task"):
            self._engine_rungs(trace, request, api, agree)
        elif request.op == "answers":
            self._queries_rungs(trace, request, api, agree)
        if store is not None:
            key = ("ladder", self.plan.seed, index)
            self._timed("store.save_ms", lambda: store.save_count(key, expected))

    def _engine_rungs(self, trace, request, parent, agree) -> None:
        engine = self.replica.service.engine
        pattern = self.patterns[request.name]
        variant = self._variant(request)
        self._bump(request.target, self.replica.service.session.update)
        if isinstance(variant.target, str):
            serving = self.replica.service.registry.get(variant.target).serving
            graph, target_id = serving.graph, serving.target_id
        else:
            graph, target_id = variant.target, None
        (value, cached), span = self.tracer.call(
            "engine", trace,
            lambda: engine.count_detailed(pattern, graph, target_id=target_id),
            parent,
        )
        agree(value, "HomEngine.count")
        if not cached:
            plan = engine.plan_for(pattern)
            value, _ = self.tracer.call("kernel", trace, lambda: plan.execute(graph), span)
            agree(value, "CountPlan.execute")
        self._timed("engine.compile_ms", lambda: compile_plan(pattern))
        fresh = _permuted(graph, self.rng)
        self._timed("engine.count_miss_ms", lambda: engine.count(pattern, fresh))
        self._timed("engine.count_hit_ms", lambda: engine.count(pattern, fresh))

    def _queries_rungs(self, trace, request, parent, agree) -> None:
        engine = self.replica.service.engine
        query = parse_query(request.text)
        target = self._variant(request).target
        value, span = self.tracer.call(
            "queries", trace, lambda: count_answers_by_interpolation(query, target),
            parent,
        )
        agree(value, "queries")
        power_sums: list[int] = []
        probe = self._variant(request).target

        def fetch(ell):
            power_sums.append(hom_count_of_ell_copy(query, probe, ell))
            return power_sums[-1]

        count_answers_from_power_sums(fetch)
        ell_max = len(power_sums)
        self.ells.append(ell_max)
        copies = [ell_copy(query, ell)[0] for ell in range(1, ell_max + 1)]
        plans = [engine.plan_for(copy) for copy in copies]

        def execute():
            return [p.execute(target) for p in plans]

        values, _ = self.tracer.call("kernel", trace, execute, span)
        agree(count_answers_from_power_sums(lambda ell: values[ell - 1]), "CountPlan.execute")
        self._timed("engine.compile_ms", lambda: [compile_plan(c) for c in copies])
        cold = self._variant(request).target
        self._timed("queries.power_sums_ms", lambda: power_sum_vector(query, cold, ell_max))
        self._timed(
            "queries.solve_ms",
            lambda: count_answers_from_power_sums(lambda ell: power_sums[ell - 1]),
        )
