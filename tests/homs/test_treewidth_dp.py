"""Unit tests for the treewidth-DP homomorphism counter — cross-checked
against brute force on randomised instances."""

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.homs import (
    count_homomorphisms_brute,
    count_homomorphisms_dp,
    prepared_pattern,
)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "pattern_factory",
        [
            lambda: path_graph(4),
            lambda: cycle_graph(4),
            lambda: cycle_graph(5),
            lambda: star_graph(3),
            lambda: complete_graph(3),
            lambda: grid_graph(2, 3),
        ],
        ids=["P4", "C4", "C5", "S3", "K3", "grid2x3"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, pattern_factory, seed):
        pattern = pattern_factory()
        target = random_graph(6, 0.5, seed=seed)
        assert count_homomorphisms_dp(pattern, target) == (
            count_homomorphisms_brute(pattern, target)
        )

    def test_disconnected_pattern(self):
        pattern = Graph(edges=[(0, 1), ("a", "b"), ("b", "c")])
        target = random_graph(5, 0.6, seed=3)
        assert count_homomorphisms_dp(pattern, target) == (
            count_homomorphisms_brute(pattern, target)
        )

    def test_pattern_with_isolated_vertex(self):
        pattern = path_graph(3)
        pattern.add_vertex("iso")
        target = random_graph(5, 0.5, seed=4)
        assert count_homomorphisms_dp(pattern, target) == (
            count_homomorphisms_brute(pattern, target)
        )


class TestEdgeCases:
    def test_empty_pattern(self):
        assert count_homomorphisms_dp(Graph(), cycle_graph(4)) == 1

    def test_empty_target(self):
        assert count_homomorphisms_dp(path_graph(2), Graph()) == 0

    def test_single_vertex(self):
        assert count_homomorphisms_dp(Graph(vertices=[0]), complete_graph(4)) == 4

    def test_allowed_restriction(self):
        pattern = path_graph(3)
        target = cycle_graph(5)
        allowed = {0: frozenset({0, 1}), 2: frozenset({2})}
        assert count_homomorphisms_dp(pattern, target, allowed=allowed) == (
            count_homomorphisms_brute(pattern, target, allowed=allowed)
        )

    def test_allowed_empty(self):
        pattern = path_graph(2)
        target = cycle_graph(4)
        assert count_homomorphisms_dp(
            pattern, target, allowed={0: frozenset()},
        ) == 0


class TestPreparedPattern:
    def test_reuse_across_targets(self):
        pattern = cycle_graph(5)
        root = prepared_pattern(pattern)
        for seed in range(3):
            target = random_graph(6, 0.5, seed=seed)
            assert count_homomorphisms_dp(pattern, target, root=root) == (
                count_homomorphisms_brute(pattern, target)
            )

    def test_plan_compiled_once_per_root_on_every_tier(self, monkeypatch):
        from repro import kernel
        from repro.engine import plans

        calls = []
        compile_dp_plan = plans.compile_dp_plan

        def counting_compile(pattern, root=None):
            calls.append(pattern)
            return compile_dp_plan(pattern, root)

        monkeypatch.setattr(plans, "compile_dp_plan", counting_compile)
        pattern = grid_graph(2, 3)
        root = prepared_pattern(pattern)
        targets = [random_graph(n, 0.4, seed=n) for n in (5, 8, 40)]
        tiers = ["python"] + (["numpy"] if kernel.numpy_available() else [])
        for tier in tiers:
            with kernel.force_backend(tier):
                for target in targets:
                    assert count_homomorphisms_dp(
                        pattern, target, root=root,
                    ) == count_homomorphisms_brute(pattern, target)
        assert calls == [pattern]

        # The memo is keyed on pattern identity: an equal but distinct
        # pattern object compiles afresh.
        twin = grid_graph(2, 3)
        target = targets[0]
        assert count_homomorphisms_dp(twin, target, root=root) == (
            count_homomorphisms_brute(twin, target)
        )
        assert len(calls) == 2 and calls[1] is twin

    def test_larger_pattern_feasible(self):
        """A 9-vertex treewidth-2 pattern against an 8-vertex target —
        infeasible regions for naive |V(G)|^|V(H)| enumeration shrink to
        |V(G)|^3 table rows for the DP."""
        pattern = grid_graph(2, 4)  # 8 vertices, tw 2
        target = random_graph(8, 0.5, seed=7)
        value = count_homomorphisms_dp(pattern, target)
        assert value >= 0
        # Spot-check against brute force (still feasible at this size).
        assert value == count_homomorphisms_brute(pattern, target)
