"""Answer checks, run outside the timed path.

* Hom counts of paths and cycles come from walk counts of the adjacency
  matrix (``hom(C_k, G) = tr A^k``, ``hom(P_k, G) = 1ᵀ A^(k-1) 1``), an
  implementation that shares no code with the engine; the identity itself is
  checked against ``count_homomorphisms_brute`` on every base dataset.
  Every other pattern is counted by ``count_homomorphisms_brute``.
* CQ answer counts come from ``count_answers_direct`` (enumeration, not the
  Lemma-22 interpolation the server runs).
* ``/wl-dim`` and ``/analyze`` are recomputed in this process.
* ``update-mixed`` reads and subscription values are checked against a
  local copy of each dataset mutated to the version the server reports.
"""

from __future__ import annotations

import json

from repro.core.wl_dimension import analyse_query, wl_dimension
from repro.homs.brute_force import count_homomorphisms_brute
from repro.queries.answers import count_answers_direct
from repro.queries.parser import parse_query

from workloads import apply_write, edge_set, pattern_graph, query_text


def walk_count(name: str, edges: set, vertices: list) -> int:
    """``hom(P_k)`` or ``hom(C_k)`` by counting walks in exact integers.

    ``hom(P_k) = 1ᵀ A^(k-1) 1`` pushes all-ones walk counts along the edges
    ``k - 1`` times.  ``hom(C_k) = tr A^k`` sums, over every vertex ``i``,
    ``(A^a e_i) · (A^(k-a) e_i)`` with ``a = k // 2`` (``A`` is symmetric),
    carrying the walk counts from ``i`` as sparse dictionaries.
    """
    index = {v: i for i, v in enumerate(vertices)}
    neighbours: list[list[int]] = [[] for _ in vertices]
    for u, v in edges:
        neighbours[index[u]].append(index[v])
        neighbours[index[v]].append(index[u])

    def step(walks: dict) -> dict:
        longer: dict = {}
        for i, count in walks.items():
            for j in neighbours[i]:
                longer[j] = longer.get(j, 0) + count
        return longer

    k = int(name[1:])
    if name[0] == "P":
        walks = dict.fromkeys(range(len(vertices)), 1)
        for _ in range(k - 1):
            walks = step(walks)
        return sum(walks.values())
    total = 0
    for i in range(len(vertices)):
        half = {i: 1}
        for _ in range(k // 2):
            half = step(half)
        rest = step(half) if k % 2 else half
        total += sum(count * rest.get(j, 0) for j, count in half.items())
    return total


def _as_graph(edges: set, vertices: list):
    from repro.graphs import Graph

    graph = Graph(vertices=vertices)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def normal_json(value):
    """``value`` as it reads after a JSON round trip."""
    return json.loads(json.dumps(value, default=str))


class Oracle:
    """Expected values for one workload plan, memoised per distinct key."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self._memo: dict = {}

    def hom(self, pattern: str, edges: set, vertices: list) -> int:
        key = ("hom", pattern, frozenset(edges), len(vertices))
        if key not in self._memo:
            if pattern[0] in "PC":
                value = walk_count(pattern, edges, vertices)
            else:
                value = count_homomorphisms_brute(
                    pattern_graph(pattern), _as_graph(edges, vertices),
                    backend="python",
                )
            self._memo[key] = value
        return self._memo[key]

    def answers(self, query: str, edges: set, vertices: list) -> int:
        key = ("answers", query, frozenset(edges), len(vertices))
        if key not in self._memo:
            self._memo[key] = count_answers_direct(
                parse_query(query_text(query)), _as_graph(edges, vertices),
            )
        return self._memo[key]

    def validate_walk_identity(self) -> None:
        """The walk-count oracle agrees with brute force on every dataset."""
        for graph in self.plan.datasets.values():
            for pattern in ("P3", "P4", "C4", "C5"):
                walks = walk_count(pattern, edge_set(graph), graph.vertices())
                brute = count_homomorphisms_brute(
                    pattern_graph(pattern), graph, backend="python",
                )
                if walks != brute:
                    raise AssertionError(
                        f"walk oracle disagrees with brute force on {pattern}",
                    )

    # ------------------------------------------------------------------
    def expected(self, request, edges=None, vertices=None):
        """Expected value of a read, on the given graph state."""
        target = request.target
        if edges is None and target is not None:
            graph = self.plan.datasets[target] if isinstance(target, str) else target
            edges, vertices = edge_set(graph), graph.vertices()
        if request.op in ("count", "task"):
            return self.hom(request.name, edges, vertices)
        if request.op == "answers":
            return self.answers(request.name, edges, vertices)
        query = parse_query(request.text)
        if request.op == "wl-dim":
            return wl_dimension(query)
        return normal_json(analyse_query(query))


def subscription_id(dataset: str, subject: str) -> str:
    return f"{dataset}-{subject}"


def response_value(request, response):
    """The answer a response carries for ``request``."""
    if request.op in ("count", "answers"):
        return response["count"]
    if request.op == "task":
        return response["value"]
    if request.op == "wl-dim":
        return response["wl_dimension"]
    if request.op == "analyze":
        return normal_json(response["analysis"])
    return response["version"]


def check(plan, samples) -> list[str]:
    """Mark every sample correct or not; returns a description per wrong one."""
    oracle = Oracle(plan)
    if plan.datasets:
        oracle.validate_walk_identity()
    problems: list[str] = []
    if any(sample.request.write for sample in samples):
        _check_versioned(plan, oracle, samples, problems)
        return problems
    for sample in samples:
        if sample.error is not None:
            sample.correct = False
            problems.append(f"{sample.request.op} {sample.request.name}: {sample.error}")
            continue
        got = response_value(sample.request, sample.response)
        want = oracle.expected(sample.request)
        sample.correct = got == want
        if not sample.correct:
            problems.append(
                f"{sample.request.op} {sample.request.name}: got {got!r}, "
                f"expected {want!r}",
            )
    return problems


def _check_versioned(plan, oracle, samples, problems) -> None:
    """Reads and writes against local copies at the reported versions."""
    base = {name: edge_set(graph) for name, graph in plan.datasets.items()}
    vertices = {name: graph.vertices() for name, graph in plan.datasets.items()}
    # Version v of a dataset is the base plus the writes numbered 1..v.
    states: dict[str, list[set]] = {}
    broken: dict[str, int] = {}
    for name in plan.datasets:
        writes = sorted(
            (s for s in samples if s.request.write and s.request.target == name),
            key=lambda s: (s.error is not None, (s.response or {}).get("version", 0)),
        )
        state = set(base[name])
        states[name] = [set(state)]
        for number, sample in enumerate(writes, start=1):
            if sample.error is not None or sample.response.get("version") != number:
                # Version numbers must run 1..N with no gap; past a gap the
                # dataset's state is unknown and nothing more is verified.
                broken[name] = number
                break
            apply_write(state, sample.request)
            states[name].append(set(state))

    def value_at(name, version, kind, subject):
        edges = states[name][version]
        if kind == "answer-count":
            return oracle.answers(subject, edges, vertices[name])
        return oracle.hom(subject, edges, vertices[name])

    subscription_subject = {
        subscription_id(dataset, subject): (
            "answer-count" if kind == "query" else "hom-count", subject,
        )
        for dataset, kind, subject in plan.subscriptions
    }
    expected_ids = {
        dataset: sorted(
            subscription_id(dataset, subject)
            for d, _, subject in plan.subscriptions if d == dataset
        )
        for dataset in plan.datasets
    }
    writes = [s for s in samples if s.request.write]
    for sample in samples:
        request = sample.request
        name = request.target
        sample.correct = False
        if sample.error is not None:
            problems.append(f"{request.op} {name}: {sample.error}")
            continue
        if request.write:
            version = sample.response.get("version")
            if name in broken and version >= broken[name]:
                problems.append(f"write to {name}: version {version} unverifiable")
                continue
            subs = sample.response.get("subscriptions", [])
            ok = sorted(sub.get("id") for sub in subs) == expected_ids[name]
            for sub in subs if ok else ():
                kind, subject = subscription_subject[sub["id"]]
                sub_version = sub.get("version")
                if (
                    sub.get("maintains") != kind
                    or not isinstance(sub_version, int)
                    or not 0 <= sub_version < len(states[name])
                    or sub["value"] != value_at(name, sub_version, kind, subject)
                ):
                    ok = False
            sample.correct = ok
            if not ok:
                problems.append(f"write to {name} v{version}: wrong subscription values")
            continue
        # A read sees some version between the newest one acknowledged
        # before it was sent and the number of writes issued before it
        # returned.
        low = max(
            (w.response["version"] for w in writes
             if w.request.target == name and w.error is None and w.done < sample.sent),
            default=0,
        )
        high = sum(1 for w in writes if w.request.target == name and w.sent < sample.done)
        if high >= len(states[name]):
            problems.append(f"read {request.name} on {name}: version unverifiable")
            continue
        got = response_value(request, sample.response)
        candidates = {
            value_at(name, v, "hom-count", request.name) for v in range(low, high + 1)
        }
        sample.correct = got in candidates
        if not sample.correct:
            problems.append(
                f"read {request.name} on {name}: got {got}, expected one of "
                f"{sorted(candidates)} (versions {low}..{high})",
            )

