"""Homomorphism counting by dynamic programming over a nice tree
decomposition of the pattern.

Running time ``O(#nodes · |V(G)|^{tw(H)+1})`` — the classical algorithm that
makes Definition 19 usable: homomorphism counts from low-treewidth patterns
are polynomial-time computable, which is exactly why k-WL-equivalence is
decidable via them.

Supports the same ``allowed`` restriction as the brute-force counter, so
colour-prescribed homomorphism counts (Definitions 30/48) inherit the
treewidth-parameterised running time.

There is one DP evaluator: :func:`count_homomorphisms_dp` compiles the
engine's :class:`~repro.engine.plans.DPPlan` instruction tape and runs it,
without the engine's plan and count caches.  The independent reference is
the brute-force counter.
"""

from __future__ import annotations

from typing import Mapping

from repro.graphs.graph import Graph, Vertex
from repro.treewidth.exact import optimal_tree_decomposition
from repro.treewidth.nice import NiceNode, nice_tree_decomposition


def count_homomorphisms_dp(
    pattern: Graph,
    target: Graph,
    allowed: Mapping[Vertex, frozenset] | None = None,
    root: NiceNode | None = None,
) -> int:
    """``|Hom(pattern, target)|`` via tree-decomposition DP.

    ``root`` can supply a pre-computed nice decomposition of ``pattern``
    (useful when counting against many targets, e.g. the WL
    indistinguishability oracle); otherwise an optimal one is computed.
    The compiled plan is memoised on a supplied ``root``, so repeated
    calls pay the pattern-side compile once.
    """
    if pattern.num_vertices() == 0:
        return 1
    # Imported lazily: repro.engine pulls in the homs package.
    from repro.engine import plans

    if root is None:
        plan = plans.compile_dp_plan(pattern)
    else:
        plan = getattr(root, "_dp_plan", None)
        if plan is None or plan.pattern is not pattern:
            plan = plans.compile_dp_plan(pattern, root)
            root._dp_plan = plan
    return plan.execute(target, allowed)


def prepared_pattern(pattern: Graph) -> NiceNode:
    """Pre-compute a nice decomposition for repeated counting calls."""
    return nice_tree_decomposition(optimal_tree_decomposition(pattern))
