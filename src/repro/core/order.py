"""Incremental topological ordering (Pearce–Kelly).

Section 4.5 of the paper: "The amount of computation is minimized when
done in a topological order with respect to the graph, and much research
has been directed at algorithms to compute this order in the presence of
graph changes" (citing Hudson, Hoover, and Alpern et al.).  We use the
Pearce–Kelly dynamic topological ordering algorithm, which provides the
same contract those systems rely on: after any edge insertion, every node
carries an integer ``order`` such that edges point from lower to higher
order, and the work done per insertion is bounded by the size of the
"affected region" between the edge's endpoints.

Cycles: Alphonse programs may create re-entrant dependencies (the paper
tolerates them by setting ``consistent := TRUE`` before executing a body).
When an edge insertion would create a cycle we leave the ordering
untouched and report it; propagation remains correct because quiescence
(value comparison) and the evaluation step limit bound the work — the
order is a scheduling heuristic, not a correctness requirement.
"""

from __future__ import annotations

import itertools
from typing import List

from .node import DepNode


class TopologicalOrder:
    """Maintains ``node.order`` under incremental edge insertion."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        #: Number of O(affected-region) reorderings performed, exposed so
        #: the runtime can account for bookkeeping cost (Section 9.2's
        #: "plus the bookkeeping cost of the quiescence propagation
        #: algorithm").
        self.shifts = 0
        self.cycles_detected = 0

    def register(self, node: DepNode) -> None:
        """Assign a fresh (maximal) order to a newly created node."""
        node.order = next(self._counter)

    def edge_added(self, src: DepNode, dst: DepNode) -> bool:
        """Restore the invariant after inserting edge ``src -> dst``.

        Returns True if the ordering is valid afterwards, False if the
        edge closed a cycle (ordering left unchanged).
        """
        if src.order < dst.order:
            return True  # invariant already holds; O(1) fast path

        # Affected region: nodes with order in [dst.order, src.order].
        forward: List[DepNode] = []
        if not self._dfs_forward(dst, src, forward):
            self.cycles_detected += 1
            return False
        backward: List[DepNode] = []
        self._dfs_backward(src, dst.order, backward)

        self._reorder(forward, backward)
        self.shifts += 1
        return True

    # ------------------------------------------------------------------
    # Pearce–Kelly internals.  Visited marks live in per-call id() sets,
    # so nodes need no hashability and no extra fields.
    # ------------------------------------------------------------------

    @staticmethod
    def _dfs_forward(start: DepNode, edge_src: DepNode, out: List[DepNode]) -> bool:
        """Collect nodes reachable from ``start`` with order <= edge_src.order.

        Returns False if ``edge_src`` itself is reached, meaning the new
        edge closes a cycle.
        """
        upper = edge_src.order
        stack = [start]
        seen = {id(start)}
        while stack:
            node = stack.pop()
            out.append(node)
            for succ in node.succ:
                if succ is edge_src:
                    return False
                if succ.order <= upper and id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append(succ)
        return True

    @staticmethod
    def _dfs_backward(start: DepNode, lower: int, out: List[DepNode]) -> None:
        """Collect nodes that reach ``start`` with order >= lower."""
        stack = [start]
        seen = {id(start)}
        while stack:
            node = stack.pop()
            out.append(node)
            for pred in node.pred:
                if pred.order >= lower and id(pred) not in seen:
                    seen.add(id(pred))
                    stack.append(pred)

    @staticmethod
    def _reorder(forward: List[DepNode], backward: List[DepNode]) -> None:
        """Permute the affected nodes' orders: backward set, then forward.

        The pool of order values already held by the affected nodes is
        redistributed, preserving relative order within each set — the
        classic Pearce–Kelly "allocate" step.
        """
        forward.sort(key=lambda n: n.order)
        backward.sort(key=lambda n: n.order)
        pool = sorted(n.order for n in itertools.chain(backward, forward))
        for node, value in zip(itertools.chain(backward, forward), pool):
            node.order = value


def verify_order(nodes: List[DepNode]) -> bool:
    """Check the invariant: every attached edge goes low order -> high.

    Used by tests and the debug module; O(V + E).
    """
    for node in nodes:
        for succ in node.succ:
            if not node.order < succ.order:
                return False
    return True
