"""The k-dimensional (folklore) Weisfeiler-Leman algorithm.

Definition 19 of the paper defines k-WL-equivalence through homomorphism
counts from graphs of treewidth at most k.  By Dvořák (2010) and
Dell–Grohe–Rattan (2018), that relation coincides with indistinguishability
under the *folklore* k-WL algorithm (equivalently, (k+1)-variable counting
logic).  This module implements folklore k-WL for k ≥ 2:

* state: a colouring of all ``k``-tuples of vertices;
* initialisation: the ordered atomic type of the tuple (equality pattern +
  adjacency pattern);
* refinement: ``c'(v⃗) = (c(v⃗), {{ (c(v⃗[1←w]), …, c(v⃗[k←w])) : w ∈ V }})``.

k-tuples are encoded as single integers in index space (mixed-radix over
the :class:`~repro.graphs.indexed.IndexedGraph` vertex indices), so a
colouring is a flat list of length ``n^k`` and the substitution
``v⃗[i←w]`` is one add/multiply — no label tuples are hashed in the inner
loop.  Signatures fed to the shared :class:`ColourInterner` are identical
to the seed's (atomic types and interned ints are label-free), so interned
ids remain comparable across graphs.

For k = 1 callers should use :mod:`repro.wl.refinement` (colour refinement),
which :func:`k_wl_equivalent` dispatches to automatically.
"""

from __future__ import annotations

from itertools import product

from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph
from repro.wl.refinement import ColourInterner, wl_1_equivalent

Tuple = tuple


def atomic_type(graph: Graph, vertices: Tuple) -> tuple:
    """The ordered isomorphism type of ``vertices`` in ``graph``.

    Encodes, for every index pair ``i < j``, whether the entries coincide
    and whether they are adjacent.  Two tuples have the same atomic type iff
    the map ``v_i ↦ u_i`` is a partial isomorphism.
    """
    k = len(vertices)
    bits = []
    for i in range(k):
        for j in range(i + 1, k):
            bits.append(
                (vertices[i] == vertices[j], graph.has_edge(vertices[i], vertices[j])),
            )
    return tuple(bits)


def _indexed_atomic_type(bitsets: tuple[int, ...], vertices: tuple[int, ...]) -> tuple:
    """:func:`atomic_type` over vertex indices and neighbourhood bitsets."""
    k = len(vertices)
    bits = []
    for i in range(k):
        v_i = vertices[i]
        row = bitsets[v_i]
        for j in range(i + 1, k):
            v_j = vertices[j]
            bits.append((v_i == v_j, bool((row >> v_j) & 1)))
    return tuple(bits)


class _TupleSpace:
    """All k-tuples of one indexed graph, as mixed-radix integer codes.

    Code arithmetic: tuples enumerate in ``itertools.product`` order
    (leftmost position slowest), so position ``i`` has stride
    ``n^(k-1-i)`` and the substitution ``v⃗[i←w]`` is
    ``code + (w - v⃗[i]) · stride[i]``.
    """

    __slots__ = ("n", "k", "tuples", "strides", "_bitsets")

    def __init__(self, graph: IndexedGraph, k: int) -> None:
        n = graph.n
        self.n = n
        self.k = k
        self.tuples = list(product(range(n), repeat=k))
        self.strides = [n ** (k - 1 - i) for i in range(k)]
        self._bitsets = graph.bitsets()

    def initial_colouring(self, interner: ColourInterner) -> list[int]:
        # Atomic signatures are consumed here and interned; nothing keeps
        # the n^k signature tuples alive through the refinement rounds.
        bitsets = self._bitsets
        return [
            interner.intern(("atomic", _indexed_atomic_type(bitsets, t)))
            for t in self.tuples
        ]

    def refine(self, colours: list[int], interner: ColourInterner) -> list[int]:
        """One folklore refinement round."""
        n, k, strides = self.n, self.k, self.strides
        updated = [0] * len(colours)
        for code, t in enumerate(self.tuples):
            base = [code - t[i] * strides[i] for i in range(k)]
            neighbourhood = sorted(
                tuple(colours[base[i] + w * strides[i]] for i in range(k))
                for w in range(n)
            )
            updated[code] = interner.intern(
                (colours[code], tuple(neighbourhood)),
            )
        return updated


def k_wl_colouring(
    graph: Graph,
    k: int,
    interner: ColourInterner | None = None,
    max_rounds: int | None = None,
) -> dict[Tuple, int]:
    """The stable folklore k-WL colouring of all k-tuples of ``graph``.

    A shared ``interner`` makes colour identifiers comparable across graphs.
    Keys of the returned mapping are label tuples (the boundary decodes).
    """
    if k < 2:
        raise ValueError("k_wl_colouring requires k >= 2; use colour_refinement")
    if interner is None:
        interner = ColourInterner()
    indexed = graph.to_indexed()
    space = _TupleSpace(indexed, k)
    colours = space.initial_colouring(interner)
    rounds = max_rounds if max_rounds is not None else max(len(colours), 1)
    for _ in range(rounds):
        num_classes = len(set(colours))
        colours = space.refine(colours, interner)
        if len(set(colours)) == num_classes:
            break
    labels = indexed.codec.labels
    return {
        tuple(labels[v] for v in t): colours[code]
        for code, t in enumerate(space.tuples)
    }


def tuple_colour_histogram(colours: dict[Tuple, int]) -> dict[int, int]:
    """Multiset of tuple colours."""
    histogram: dict[int, int] = {}
    for colour in colours.values():
        histogram[colour] = histogram.get(colour, 0) + 1
    return histogram


def _list_histogram(colours: list[int]) -> dict[int, int]:
    histogram: dict[int, int] = {}
    for colour in colours:
        histogram[colour] = histogram.get(colour, 0) + 1
    return histogram


def k_wl_equivalent(first: Graph, second: Graph, k: int) -> bool:
    """Are the two graphs k-WL-equivalent (``G ≅_k G'``, Definition 19)?

    Dispatches to colour refinement for k = 1 and to folklore k-WL for
    k ≥ 2.  Runs both graphs through a *shared* palette and compares the
    stable histograms round-by-round (simultaneous refinement), so an
    early divergence short-circuits.  All work happens on integer tuple
    codes; labels never enter the loop.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if first.num_vertices() != second.num_vertices():
        return False
    if first.num_edges() != second.num_edges():
        return False
    if k == 1:
        return wl_1_equivalent(first, second)

    interner = ColourInterner()
    space_a = _TupleSpace(first.to_indexed(), k)
    space_b = _TupleSpace(second.to_indexed(), k)
    colours_a = space_a.initial_colouring(interner)
    colours_b = space_b.initial_colouring(interner)

    if _list_histogram(colours_a) != _list_histogram(colours_b):
        return False

    for _ in range(max(len(colours_a), 1)):
        num_classes = len(set(colours_a) | set(colours_b))
        colours_a = space_a.refine(colours_a, interner)
        colours_b = space_b.refine(colours_b, interner)
        if _list_histogram(colours_a) != _list_histogram(colours_b):
            return False
        if len(set(colours_a) | set(colours_b)) == num_classes:
            break
    return True


def wl_distinguishing_dimension(
    first: Graph,
    second: Graph,
    max_k: int,
) -> int | None:
    """Smallest ``k ≤ max_k`` with ``G ≇_k G'``, or ``None`` if none found.

    By monotonicity of WL-equivalence, once level ``k`` distinguishes, all
    higher levels do too.
    """
    for k in range(1, max_k + 1):
        if not k_wl_equivalent(first, second, k):
            return k
    return None
