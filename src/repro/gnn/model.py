"""Order-k GNN simulation (Section 1.2, Proposition 3).

Morris et al. (AAAI 2019) showed that *fully refined* order-k GNNs induce
exactly the partition of k-tuples that the k-WL algorithm computes.  The
paper's GNN results (what such networks can and cannot count) therefore
depend only on that partition — not on weights, activation functions, or
feature dimensionality.  :class:`OrderKGNN` simulates a fully refined
order-k GNN by computing the stable k-WL partition, layer by layer, with
integer "feature" identifiers standing in for injectively hashed feature
vectors.
"""

from __future__ import annotations

from itertools import product

from repro.graphs.graph import Graph
from repro.wl.kwl import atomic_type
from repro.wl.refinement import ColourInterner, colour_histogram


class OrderKGNN:
    """A fully refined order-k GNN, simulated at the partition level.

    Parameters
    ----------
    order:
        ``k`` — features live on k-tuples of vertices (order 1 is a
        message-passing GNN, matching colour refinement).
    num_layers:
        Upper bound on refinement layers; ``None`` runs to stability
        ("fully refined").
    """

    def __init__(self, order: int, num_layers: int | None = None) -> None:
        if order < 1:
            raise ValueError("GNN order must be a positive integer")
        self.order = order
        self.num_layers = num_layers

    # ------------------------------------------------------------------
    def initial_features(self, graph: Graph, interner: ColourInterner) -> dict:
        """Layer-0 features ``f₀``: the atomic type of each tuple (for
        order 1: a constant — degree information arrives via message
        passing)."""
        if self.order == 1:
            return {
                (v,): interner.intern("node") for v in graph.vertices()
            }
        return {
            t: interner.intern(("atomic", atomic_type(graph, t)))
            for t in product(graph.vertices(), repeat=self.order)
        }

    def _layer(
        self,
        graph: Graph,
        features: dict,
        interner: ColourInterner,
    ) -> dict:
        """One message-passing layer (the aggregate/update of an order-k
        GNN, collapsed to its induced partition)."""
        vertices = graph.vertices()
        if self.order == 1:
            return {
                (v,): interner.intern(
                    (
                        features[(v,)],
                        tuple(sorted(features[(u,)] for u in graph.neighbours(v))),
                    ),
                )
                for v in vertices
            }
        updated = {}
        for t in features:
            messages = sorted(
                tuple(
                    features[t[:i] + (w,) + t[i + 1:]] for i in range(self.order)
                )
                for w in vertices
            )
            updated[t] = interner.intern((features[t], tuple(messages)))
        return updated

    def run(
        self,
        graph: Graph,
        interner: ColourInterner | None = None,
    ) -> dict:
        """The (stable, unless ``num_layers`` caps it) feature map
        ``f_t : V^k → feature ids`` — i.e. the partition ``P_N(G)``."""
        if interner is None:
            interner = ColourInterner()
        features = self.initial_features(graph, interner)
        max_layers = (
            self.num_layers
            if self.num_layers is not None
            else max(len(features), 1)
        )
        for _ in range(max_layers):
            num_classes = len(set(features.values()))
            features = self._layer(graph, features, interner)
            if len(set(features.values())) == num_classes:
                break
        return features

    # ------------------------------------------------------------------
    def readout_histogram(self, graph: Graph, interner: ColourInterner | None = None) -> dict:
        """The permutation-invariant readout: the multiset of tuple
        features.  Any graph-level function an order-k GNN computes factors
        through this histogram."""
        return colour_histogram(self.run(graph, interner))

    def distinguishes(self, first: Graph, second: Graph) -> bool:
        """Can *any* order-k GNN tell the graphs apart?  Equivalent to
        k-WL-distinguishability (Proposition 3).

        Both readouts are computed over one shared palette.  Feature ids
        encode a tuple's whole layer history, so equal final histograms
        are exactly the lockstep criterion (and force equal stopping
        layers).
        """
        if first.num_vertices() != second.num_vertices():
            return True
        interner = ColourInterner()
        return self.readout_histogram(first, interner) != (
            self.readout_histogram(second, interner)
        )
