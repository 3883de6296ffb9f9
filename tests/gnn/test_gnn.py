"""Unit tests for the GNN simulation and expressiveness corollaries."""

import pytest

from repro.errors import WitnessError
from repro.gnn import (
    OrderKGNN,
    demonstrate_inexpressiveness,
    gnn_can_count_answers,
    minimum_gnn_order,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    six_cycle,
    star_graph,
    two_triangles,
)
from repro.queries import full_query_from_graph, star_query
from repro.wl import k_wl_equivalent, wl_1_equivalent


class TestModel:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            OrderKGNN(0)

    def test_order1_matches_colour_refinement(self):
        """Proposition 3 at k = 1: order-1 GNN distinguishability =
        1-WL-distinguishability."""
        pairs = [
            (two_triangles(), six_cycle()),
            (path_graph(4), star_graph(3)),
            (cycle_graph(6), cycle_graph(6)),
        ]
        gnn = OrderKGNN(1)
        for first, second in pairs:
            assert gnn.distinguishes(first, second) == (
                not wl_1_equivalent(first, second)
            )

    def test_order2_matches_2wl(self):
        gnn = OrderKGNN(2)
        assert gnn.distinguishes(two_triangles(), six_cycle()) == (
            not k_wl_equivalent(two_triangles(), six_cycle(), 2)
        )

    def test_layer_cap_weakens(self):
        """A 0-layer GNN sees only initial features: cannot distinguish
        equal-size graphs at order 1."""
        shallow = OrderKGNN(1, num_layers=0)
        assert not shallow.distinguishes(path_graph(4), star_graph(3))

    def test_layer_cap_stops_the_shared_palette(self):
        """P6 and C3+P3 agree after one round of refinement and separate
        at round two, so only a cap of at least two layers tells them
        apart."""
        p6 = path_graph(6)
        c3_p3 = Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
        for layers in (0, 1):
            assert not OrderKGNN(1, num_layers=layers).distinguishes(p6, c3_p3)
        for layers in (2, None):
            assert OrderKGNN(1, num_layers=layers).distinguishes(p6, c3_p3)

    def test_readout_histogram_total(self):
        gnn = OrderKGNN(2)
        histogram = gnn.readout_histogram(cycle_graph(4))
        assert sum(histogram.values()) == 16


class TestExpressiveness:
    def test_minimum_order_is_sew(self):
        assert minimum_gnn_order(star_query(2)) == 2
        assert minimum_gnn_order(star_query(3)) == 3
        assert minimum_gnn_order(full_query_from_graph(complete_graph(3))) == 2

    def test_can_count_threshold(self):
        q = star_query(3)
        assert not gnn_can_count_answers(q, 2)
        assert gnn_can_count_answers(q, 3)
        assert gnn_can_count_answers(q, 5)

    def test_certificate_for_star2(self):
        """Order-1 GNNs cannot count 2-star answers: explicit pair."""
        certificate = demonstrate_inexpressiveness(star_query(2), order=1)
        assert certificate.is_valid
        assert certificate.count_first != certificate.count_second
        assert certificate.gnn_indistinguishable

    def test_certificate_rejects_sufficient_order(self):
        with pytest.raises(WitnessError):
            demonstrate_inexpressiveness(star_query(2), order=2)

    def test_certificate_rejects_order_zero(self):
        with pytest.raises(WitnessError):
            demonstrate_inexpressiveness(star_query(2), order=0)

    def test_certificate_default_order(self):
        certificate = demonstrate_inexpressiveness(star_query(2))
        assert certificate.order == 1
