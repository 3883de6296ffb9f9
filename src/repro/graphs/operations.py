"""Graph operations used by the paper's constructions and corollaries.

* disjoint union — Observation 62 (products over components)
* tensor product ``A ⊗ B`` — Corollary 5's separation argument, with
  ``|Hom(H, A ⊗ B)| = |Hom(H, A)| · |Hom(H, B)|``
* self-loop-free complement — Corollary 68 (dominating sets)
* quotients — inclusion–exclusion over identifications of free variables
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex


def disjoint_union(first: Graph, second: Graph) -> Graph:
    """Disjoint union with vertices tagged ``(0, v)`` and ``(1, v)``."""
    result = Graph()
    for v in first.vertices():
        result.add_vertex((0, v))
    for v in second.vertices():
        result.add_vertex((1, v))
    for u, v in first.edges():
        result.add_edge((0, u), (0, v))
    for u, v in second.edges():
        result.add_edge((1, u), (1, v))
    return result


def disjoint_union_many(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union of arbitrarily many graphs, tagged ``(i, v)``."""
    result = Graph()
    for index, graph in enumerate(graphs):
        for v in graph.vertices():
            result.add_vertex((index, v))
        for u, v in graph.edges():
            result.add_edge((index, u), (index, v))
    return result


def tensor_product(first: Graph, second: Graph) -> Graph:
    """The categorical (tensor) product ``A ⊗ B``.

    ``(a1, b1) ~ (a2, b2)`` iff ``a1 ~ a2`` in ``A`` and ``b1 ~ b2`` in ``B``.
    Homomorphism counts multiply: ``|Hom(H, A⊗B)| = |Hom(H,A)|·|Hom(H,B)|``.
    """
    result = Graph(
        vertices=[(a, b) for a in first.vertices() for b in second.vertices()],
    )
    for a1, a2 in first.edges():
        for b1, b2 in second.edges():
            result.add_edge((a1, b1), (a2, b2))
            result.add_edge((a1, b2), (a2, b1))
    return result


def complement(graph: Graph) -> Graph:
    """The self-loop-free complement ``Ḡ`` (Section 5.4)."""
    vertices = graph.vertices()
    result = Graph(vertices=vertices)
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if not graph.has_edge(u, v):
                result.add_edge(u, v)
    return result


def quotient(graph: Graph, blocks: Iterable[Iterable[Vertex]]) -> Graph:
    """Identify each block of vertices to a single vertex.

    The blocks must partition ``V(graph)``.  Block vertices are labelled by
    the frozenset of their members.  Edges *inside* a block would become
    self-loops; since the paper's graphs are simple, such an identification
    is rejected with :class:`GraphError` — callers doing inclusion–exclusion
    (e.g. injective answers, Corollary 68) must skip those quotients or rely
    on the query-level quotient which drops the contribution.
    """
    block_of: dict[Vertex, frozenset] = {}
    for block in blocks:
        frozen = frozenset(block)
        for vertex in frozen:
            if vertex in block_of:
                raise GraphError(f"vertex {vertex!r} appears in two blocks")
            block_of[vertex] = frozen
    if set(block_of) != set(graph.vertices()):
        raise GraphError("blocks must partition the vertex set")

    result = Graph(vertices=set(block_of.values()))
    for u, v in graph.edges():
        bu, bv = block_of[u], block_of[v]
        if bu == bv:
            raise GraphError(
                "identification creates a self-loop; simple graphs only",
            )
        result.add_edge(bu, bv)
    return result


def quotient_by_map(graph: Graph, mapping: Mapping[Vertex, Hashable]) -> Graph:
    """Quotient where ``mapping`` sends each vertex to its block label.

    Unlike :func:`quotient` this keeps caller-chosen labels.  Self-loops are
    rejected as above.
    """
    result = Graph(vertices=set(mapping[v] for v in graph.vertices()))
    for u, v in graph.edges():
        lu, lv = mapping[u], mapping[v]
        if lu == lv:
            raise GraphError("identification creates a self-loop")
        result.add_edge(lu, lv)
    return result


def subdivide_edges(graph: Graph, times: int = 1) -> Graph:
    """Replace every edge by a path with ``times`` internal vertices.

    Internal vertices are labelled ``('sub', u, v, i)`` with ``(u, v)`` the
    original edge in a canonical order.
    """
    if times < 0:
        raise GraphError("times must be non-negative")
    if times == 0:
        return graph.copy()
    result = Graph(vertices=graph.vertices())
    for u, v in graph.edges():
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        previous: Vertex = u
        for i in range(times):
            internal = ("sub", key[0], key[1], i)
            result.add_edge(previous, internal)
            previous = internal
        result.add_edge(previous, v)
    return result


def add_apex(graph: Graph, apex_label: Vertex = "apex") -> Graph:
    """Add a universal vertex adjacent to every existing vertex."""
    result = graph.copy()
    if result.has_vertex(apex_label):
        raise GraphError(f"label {apex_label!r} already used")
    result.add_vertex(apex_label)
    for v in graph.vertices():
        result.add_edge(apex_label, v)
    return result
