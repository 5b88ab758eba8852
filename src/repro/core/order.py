"""Incremental topological ordering by dependency heights.

Section 4.5 of the paper: "The amount of computation is minimized when
done in a topological order with respect to the graph, and much research
has been directed at algorithms to compute this order in the presence of
graph changes" (citing Hudson, Hoover, and Alpern et al.).  We keep that
order as a height label on every node, ``node.order``, with the same
contract those systems rely on: while the graph has no cycle, every
edge points from a lower to a higher label after each insertion.

Labels are heights.  A storage node starts at 0 and a procedure node at
1.  An insertion ``src -> dst`` with ``src.order < dst.order`` costs one
comparison.  Otherwise ``dst`` rises to ``src.order + 1``, and so does,
transitively, each successor that now sits at or below a raised
predecessor — just far enough to restore the invariant.  Labels only
ever rise, and many nodes share one, which leaves slack: a fresh subtree
no taller than the one it replaces fits below an old node and moves
nothing downstream (a dense permutation such as Pearce–Kelly's would
renumber the old node's whole cone).  Equal labels are unordered; the
inconsistent set breaks those ties FIFO, by insertion sequence.

Cycles: Alphonse programs may create re-entrant dependencies (the paper
tolerates them by setting ``consistent := TRUE`` before executing a body).
When an edge insertion would create a cycle we leave every label
untouched and report it; propagation remains correct because quiescence
(value comparison) and the evaluation step limit bound the work — the
order is a scheduling heuristic, not a correctness requirement.  The
graph keeps such edges, so later insertions may walk into an older
cycle; each insertion raises a node at most once, which bounds the walk.
The price is that a node reached again after its label was settled is
not raised again, so an edge near an older cycle can be left pointing
downwards; the integrity audit checks labels only while no insertion
has closed a cycle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set

from .node import DepNode, NodeKind


class TopologicalOrder:
    """Maintains ``node.order`` under incremental edge insertion."""

    def __init__(self) -> None:
        #: Number of slow-path insertions (ones that raised a label),
        #: exposed so the runtime can account for bookkeeping cost
        #: (Section 9.2's "plus the bookkeeping cost of the quiescence
        #: propagation algorithm").
        self.shifts = 0
        self.cycles_detected = 0

    @staticmethod
    def register(node: DepNode) -> None:
        """Give a newly created node its initial height."""
        node.order = 0 if node.kind is NodeKind.STORAGE else 1

    def edge_added(self, src: DepNode, dst: DepNode) -> bool:
        """Restore the invariant after inserting edge ``src -> dst``.

        Returns True if the ordering is valid afterwards, False if the
        edge closed a cycle (every label left unchanged).
        """
        if src.order < dst.order:
            return True  # invariant already holds; O(1) fast path

        # Walk the raised region in ascending old label, so every raised
        # predecessor of a node is final before the node itself is.  New
        # labels collect in ``raised`` and are written only once the walk
        # has shown the edge closes no cycle.
        raised: Dict[DepNode, int] = {dst: src.order + 1}
        done: Set[DepNode] = set()
        heap = [(dst.order, dst.node_id, dst)]
        while heap:
            node = heapq.heappop(heap)[2]
            done.add(node)
            floor = raised[node]
            for succ in node.succ:
                if raised.get(succ, succ.order) > floor:
                    continue
                if succ is src:
                    self.cycles_detected += 1
                    return False
                if succ in done:
                    continue  # on an older cycle: raised once already
                if succ not in raised:
                    heapq.heappush(heap, (succ.order, succ.node_id, succ))
                raised[succ] = floor + 1
        for node, label in raised.items():
            node.order = label
        self.shifts += 1
        return True


def verify_order(nodes: List[DepNode]) -> bool:
    """Check the invariant: every attached edge goes low label -> high.

    Used by tests; O(V + E).  :func:`repro.core.integrity.audit` checks
    the same invariant and names the edges that break it.
    """
    for node in nodes:
        for succ in node.succ:
            if not node.order < succ.order:
                return False
    return True


def exact_height(node: DepNode, memo: Dict[int, int]) -> int:
    """Longest pred-path from storage to ``node``, iteratively (graphs
    are deep); ``memo`` maps ``id(node)`` to finished heights and may be
    shared across calls.

    Unlike a label, this is the exact height of the current graph.
    Nodes on the DFS stack (re-entrant dependency cycles) count 0,
    matching the paper's tolerance of cycles: the order is a heuristic,
    quiescence bounds the work.
    """
    if id(node) not in memo and node.kind is NodeKind.STORAGE:
        memo[id(node)] = 0
    on_stack = {id(node)}
    stack = [] if id(node) in memo else [(node, iter(list(node.pred)))]
    while stack:
        current, preds = stack[-1]
        for pred in preds:
            key = id(pred)
            if key in memo or key in on_stack:
                continue
            if pred.kind is NodeKind.STORAGE:
                memo[key] = 0
                continue
            on_stack.add(key)
            stack.append((pred, iter(list(pred.pred))))
            break
        else:
            stack.pop()
            on_stack.discard(id(current))
            memo[id(current)] = 1 + max(
                (memo.get(id(p), 0) for p in current.pred), default=0
            )
    return memo[id(node)]
