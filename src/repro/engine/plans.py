"""Compilation of patterns into executable counting plans.

Every homomorphism count in the library factors through a *plan*: a
pattern-only artefact that is expensive to build once and cheap to execute
against arbitrarily many targets.  Three plan families cover the cost
spectrum:

* :class:`MatrixPlan` — closed-form linear algebra for paths and cycles
  (``|Hom(P_k, G)| = 1ᵀA^{k-1}1``, ``|Hom(C_k, G)| = trace(A^k)``);
* :class:`DPPlan` — the treewidth DP with the nice tree decomposition
  *and* all per-node bag bookkeeping (vertex positions, neighbour
  positions) precompiled into a flat instruction tape;
* :class:`BrutePlan` — backtracking, still the right answer for tiny or
  dense patterns where decomposition buys nothing.

:func:`compile_plan` chooses between them with a treewidth-aware cost
model: the brute-force search explores ``O(n_G^{|V(H)|})`` states while the
DP explores ``O(n_G^{tw(H)+1})`` per node, so the greedy treewidth upper
bound (cheap, no branch-and-bound) decides which exponent is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

from repro.graphs.graph import Graph, Vertex
from repro.graphs.matrices import count_closed_walks, count_walks
from repro.homs.brute_force import count_homomorphisms_brute
from repro.treewidth.heuristics import heuristic_treewidth_upper_bound
from repro.treewidth.exact import optimal_tree_decomposition
from repro.treewidth.nice import NiceNode, nice_tree_decomposition

PlanKind = Literal["constant", "brute", "matrix", "dp"]

# Patterns at or below this size never benefit from a decomposition: the
# DP's table machinery costs more than exhausting the search space.
_TINY_PATTERN_LIMIT = 3


class CountPlan:
    """Base class: a compiled, reusable counter for one pattern."""

    kind: PlanKind = "constant"

    def execute(
        self,
        target: Graph,
        allowed: Mapping[Vertex, frozenset] | None = None,
    ) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable summary (CLI / benchmark reporting)."""
        return self.kind

    def describe_for(self, target: Graph) -> str:
        """:meth:`describe` plus the kernel tier the cost model would
        pick for ``target`` (``.../numpy`` or ``.../python``) — the
        string the task API surfaces as ``Result.backend``."""
        return self.describe()


@dataclass
class ConstantPlan(CountPlan):
    """The empty pattern: exactly one (empty) homomorphism into anything."""

    value: int = 1
    kind: PlanKind = "constant"

    def execute(self, target, allowed=None):
        return self.value


@dataclass
class BrutePlan(CountPlan):
    """Backtracking search — reference backend, kept for tiny/dense patterns."""

    pattern: Graph
    kind: PlanKind = "brute"

    def execute(self, target, allowed=None):
        return count_homomorphisms_brute(self.pattern, target, allowed=allowed)

    def describe(self) -> str:
        return f"brute(n={self.pattern.num_vertices()})"

    def describe_for(self, target: Graph) -> str:
        from repro import kernel

        tier = kernel.would_select("bitset", target.num_vertices())
        return f"{self.describe()}/{tier}"


@dataclass
class MatrixPlan(CountPlan):
    """Closed-form plan for paths/cycles via adjacency-matrix powers.

    ``shape='path'`` counts walks with ``length`` edges
    (``|Hom(P_{length+1}, G)|``); ``shape='cycle'`` counts closed walks of
    ``length`` edges (``|Hom(C_length, G)|``, ``length >= 3``).

    Colour restrictions (``allowed``) have no closed form, so the plan
    carries a combinatorial ``fallback`` used whenever they are present.
    """

    pattern: Graph
    shape: Literal["path", "cycle"]
    length: int
    fallback: CountPlan
    kind: PlanKind = "matrix"

    def execute(self, target, allowed=None):
        if allowed is not None:
            return self.fallback.execute(target, allowed=allowed)
        if self.shape == "path":
            return count_walks(target, self.length)
        return count_closed_walks(target, self.length)

    def describe(self) -> str:
        return f"matrix({self.shape}, length={self.length})"

    def describe_for(self, target: Graph) -> str:
        from repro import kernel

        tier = kernel.would_select("matrix", target.num_vertices())
        return f"{self.describe()}/{tier}"


# One instruction per nice-tree node, in postorder.  All pattern-side index
# arithmetic (`bag_order`, `.index(...)` calls) is resolved at compile time;
# execution only touches target vertex *indices*: the target is encoded
# once per graph value (``Graph.to_indexed`` caches), DP keys are int
# tuples, and candidate images come from neighbourhood-bitset
# intersections.  Bags are ordered by pattern codec index — a total order,
# unlike the seed's ``repr``-sort, which could collide.
_LEAF = 0
_INTRODUCE = 1
_FORGET = 2
_JOIN = 3


@dataclass
class DPPlan(CountPlan):
    """Treewidth DP with a precompiled instruction tape.

    Instructions operate on a stack of DP tables (postorder ≡ reverse
    Polish), so execution is a single loop with no tree traversal, no
    ``sorted`` calls, and no ``list.index`` lookups per target.
    """

    pattern: Graph
    width: int
    node_count: int
    instructions: Sequence[tuple] = field(repr=False)
    kind: PlanKind = "dp"

    def execute(self, target, allowed=None):
        """Count against ``target``.

        The kernel cost model picks the evaluation tier (numpy for
        large-enough targets when importable; pin one with
        :func:`repro.kernel.force_backend` or ``REPRO_KERNEL``).  The pure
        tape is the oracle; a numpy run that could leave int64 falls back
        to it — results are exact on every tier.
        """
        if target.num_vertices() == 0:
            return 0
        indexed_target = target.to_indexed()

        from repro import kernel

        tier = kernel.select("dp", indexed_target.n)
        if tier == "numpy" and kernel.dp_packable(indexed_target.n, self.width + 1):
            from repro.kernel import dp_numpy

            if allowed is None:
                masks = None
            else:
                encode_mask = indexed_target.codec.encode_mask
                masks = {
                    vertex: encode_mask(pool)
                    for vertex, pool in allowed.items()
                }
            try:
                return dp_numpy.execute_tape(
                    self.instructions, indexed_target, self.width + 1,
                    allowed_masks=masks,
                )
            except kernel.KernelUnsupported as exc:
                kernel.note_fallback("dp", exc.reason)
        elif tier == "numpy":
            kernel.note_fallback("dp", "overflow")
        return self._execute_python(indexed_target, allowed)

    def _execute_python(self, indexed_target, allowed):
        """The pure-Python instruction tape — the differential oracle."""
        target_bits = indexed_target.bitsets()
        full_pool = (1 << indexed_target.n) - 1
        stack: list[dict[tuple, int]] = []

        for instruction in self.instructions:
            op = instruction[0]
            if op == _LEAF:
                stack.append({(): 1})
            elif op == _INTRODUCE:
                _, vertex, position, neighbour_positions = instruction
                child = stack.pop()
                if allowed is not None and vertex in allowed:
                    base_pool = indexed_target.codec.encode_mask(
                        allowed[vertex],
                    )
                else:
                    base_pool = full_pool
                table: dict[tuple, int] = {}
                for key, count in child.items():
                    pool = base_pool
                    for pos in neighbour_positions:
                        pool &= target_bits[key[pos]]
                    while pool:
                        low_bit = pool & -pool
                        pool ^= low_bit
                        image = low_bit.bit_length() - 1
                        new_key = (
                            key[:position] + (image,) + key[position:]
                        )
                        table[new_key] = table.get(new_key, 0) + count
                stack.append(table)
            elif op == _FORGET:
                _, drop = instruction
                child = stack.pop()
                table = {}
                for key, count in child.items():
                    new_key = key[:drop] + key[drop + 1:]
                    table[new_key] = table.get(new_key, 0) + count
                stack.append(table)
            else:  # _JOIN
                left = stack.pop()
                right = stack.pop()
                if len(left) > len(right):
                    left, right = right, left
                table = {}
                for key, count in left.items():
                    other = right.get(key)
                    if other:
                        table[key] = count * other
                stack.append(table)

        (root_table,) = stack
        return root_table.get((), 0)

    def describe(self) -> str:
        return (
            f"dp(n={self.pattern.num_vertices()}, width={self.width}, "
            f"nodes={self.node_count})"
        )

    def describe_for(self, target: Graph) -> str:
        from repro import kernel

        tier = kernel.would_select("dp", target.num_vertices())
        if tier == "numpy" and not kernel.dp_packable(
            target.num_vertices(), self.width + 1,
        ):
            tier = "python"
        return f"{self.describe()}/{tier}"


def _compile_instructions(pattern: Graph, root: NiceNode) -> list[tuple]:
    indexed_pattern = pattern.to_indexed()
    encode = indexed_pattern.codec.encode
    pattern_adjacency = indexed_pattern.adjacency_lists()

    def bag_order(bag: frozenset) -> list[int]:
        return sorted(encode(v) for v in bag)

    instructions: list[tuple] = []
    for node in root.iter_postorder():
        if node.kind == "leaf":
            instructions.append((_LEAF,))
        elif node.kind == "introduce":
            child_order = bag_order(node.children[0].bag)
            vertex_index = encode(node.vertex)
            position = bag_order(node.bag).index(vertex_index)
            child_bag_indices = set(child_order)
            neighbour_positions = tuple(
                child_order.index(u)
                for u in pattern_adjacency[vertex_index]
                if u in child_bag_indices
            )
            # The label rides along for ``allowed`` lookups at execute
            # time; all positional arithmetic is already index-space.
            instructions.append(
                (_INTRODUCE, node.vertex, position, neighbour_positions),
            )
        elif node.kind == "forget":
            drop = bag_order(node.children[0].bag).index(encode(node.vertex))
            instructions.append((_FORGET, drop))
        elif node.kind == "join":
            instructions.append((_JOIN,))
        else:  # pragma: no cover - validate_nice rejects unknown kinds
            raise AssertionError(f"unknown node kind {node.kind!r}")
    return instructions


def compile_dp_plan(pattern: Graph, root: NiceNode | None = None) -> DPPlan:
    """Compile the treewidth-DP plan (flat tape) over ``root``, a nice
    decomposition of ``pattern``; an optimal one is computed if absent."""
    if root is None:
        root = nice_tree_decomposition(optimal_tree_decomposition(pattern))
    return DPPlan(
        pattern=pattern,
        width=root.width(),
        node_count=root.count_nodes(),
        instructions=_compile_instructions(pattern, root),
    )


def _path_or_cycle(pattern: Graph) -> Literal["path", "cycle"] | None:
    n = pattern.num_vertices()
    if n == 0 or not pattern.is_connected():
        return None
    degrees = [pattern.degree(v) for v in pattern.vertices()]
    m = pattern.num_edges()
    if m == n and all(d == 2 for d in degrees):
        return "cycle"
    if m == n - 1 and max(degrees, default=0) <= 2:
        return "path"
    return None


def select_backend(pattern: Graph) -> Literal["brute", "matrix", "dp"]:
    """The treewidth-aware ``method='auto'`` crossover.

    Brute force explores at most ``n_G^{n}`` assignments for an
    ``n``-vertex pattern; the DP costs ``n_G^{tw+1}`` per nice node plus a
    decomposition.  A cheap greedy upper bound on the treewidth therefore
    settles the choice: the DP wins exactly when it shaves at least one
    exponent level off the search (``tw + 2 <= n``), which routes dense
    small patterns (e.g. K5: tw+1 = n) to brute force and sparse large
    patterns (e.g. trees of any size: tw = 1) to the DP — the two cases a
    fixed vertex-count cutoff gets wrong.
    """
    if _path_or_cycle(pattern) is not None:
        return "matrix"
    n = pattern.num_vertices()
    if n <= _TINY_PATTERN_LIMIT:
        return "brute"
    width_bound, _ = heuristic_treewidth_upper_bound(pattern)
    if width_bound + 2 > n:
        return "brute"
    return "dp"


def compile_plan(pattern: Graph) -> CountPlan:
    """Compile ``pattern`` into the cheapest-to-execute plan."""
    if pattern.num_vertices() == 0:
        return ConstantPlan(1)
    shape = _path_or_cycle(pattern)
    if shape is not None:
        if pattern.num_vertices() <= _TINY_PATTERN_LIMIT + 1:
            fallback: CountPlan = BrutePlan(pattern)
        else:
            fallback = compile_dp_plan(pattern)
        length = (
            pattern.num_vertices()
            if shape == "cycle"
            else pattern.num_vertices() - 1
        )
        return MatrixPlan(
            pattern=pattern, shape=shape, length=length, fallback=fallback,
        )
    if select_backend(pattern) == "brute":
        return BrutePlan(pattern)
    return compile_dp_plan(pattern)
