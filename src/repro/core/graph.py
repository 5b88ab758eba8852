"""The Alphonse dependency graph (paper Section 4.1, 4.3).

Ties together nodes, their adjacency maps, the incremental topological
order, and the union-find partitioning.  The runtime calls
:meth:`DependencyGraph.create_edge` at every tracked read and incremental
call (Algorithms 3 and 5) and :meth:`remove_pred_edges` before every
re-execution (Algorithm 5's ``RemovePredEdges``), so these paths are kept
small and allocation-light.

Edge representation (§9.2).  The paper's O(T) bound for dependence
analysis needs "the edge removal at procedure calls in Algorithm 5" to
be "constant time per edge", which it gets from a doubly linked list of
bidirectional edges.  Here an edge ``src -> dst`` is two entries of
insertion-ordered dicts, ``src.succ[dst]`` and ``dst.pred[src]``, the
representation miniAdapton uses.  Removing one is a hash deletion —
O(1) expected — so ``RemovePredEdges`` stays linear in the edges
removed, and an edge costs no object of its own.  Keying by neighbour
also makes edges unique: a repeated read of one location within an
execution finds ``src`` already in ``dst.pred`` and adds nothing.

Threading: a dict raises if it is resized while being iterated.  Under
``Runtime(parallel_drains=N)`` every insertion and removal here runs
under the partition manager's lock, and so does every walk that can
race with them (successor marking, :meth:`PartitionManager.mark_successors`;
the height-label walk, which runs inside :meth:`create_edge`).  The
serial path takes no lock and copies nothing.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .events import EventBus, EventKind
from .node import DepNode, NodeKind
from .order import TopologicalOrder
from .partition import PartitionManager
from .stats import RuntimeStats

# Kinds as module globals: cheaper to look up than Enum attributes.
_NODE_CREATED = EventKind.NODE_CREATED
_EDGE_ADDED = EventKind.EDGE_ADDED
_EDGE_REMOVED = EventKind.EDGE_REMOVED
_ORDER_SHIFTED = EventKind.ORDER_SHIFTED


class DependencyGraph:
    """Node factory plus edge bookkeeping for one runtime instance.

    Part of the storage/graph kernel: it knows nothing about scheduling.
    It counts its work into ``stats`` (node creation into the caller's
    thread's stats, when given) and announces it on the event bus.
    """

    def __init__(
        self,
        events: EventBus,
        order: TopologicalOrder,
        partitions: PartitionManager,
        keep_registry: bool = True,
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        self.events = events
        self.order = order
        self.partitions = partitions
        self.stats = stats if stats is not None else RuntimeStats()
        #: All nodes ever created, for diagnostics/debugging (the paper
        #: §9.1 space analysis counts these).  Disable for unbounded runs.
        self._registry: Optional[List[DepNode]] = [] if keep_registry else None

    # -- node creation ---------------------------------------------------

    def new_storage_node(
        self, label: str, ref: Any = None, stats: Optional[RuntimeStats] = None
    ) -> DepNode:
        """Node for an abstract storage location (first tracked read)."""
        node = self._register(DepNode(NodeKind.STORAGE, label=label, ref=ref))
        (stats or self.stats).storage_nodes_created += 1
        if _NODE_CREATED in self.events.observed:
            self.events.emit(_NODE_CREATED, node)
        return node

    def new_procedure_node(
        self,
        kind: NodeKind,
        label: str,
        ref: Any = None,
        stats: Optional[RuntimeStats] = None,
    ) -> DepNode:
        """Node for an incremental procedure instance (argument-table add)."""
        if kind is NodeKind.STORAGE:
            raise ValueError("procedure node kind must be DEMAND or EAGER")
        node = self._register(DepNode(kind, label=label, ref=ref))
        (stats or self.stats).procedure_nodes_created += 1
        if _NODE_CREATED in self.events.observed:
            self.events.emit(_NODE_CREATED, node)
        return node

    def _register(self, node: DepNode) -> DepNode:
        self.order.register(node)
        self.partitions.register(node)
        if self._registry is not None:
            self._registry.append(node)
        return node

    @property
    def nodes(self) -> List[DepNode]:
        """All nodes created so far (empty if the registry is disabled)."""
        return list(self._registry or [])

    # -- edges -------------------------------------------------------------

    def create_edge(self, src: DepNode, dst: DepNode) -> bool:
        """Record that ``dst``'s computation read ``src`` (CreateEdge).

        Returns True if an edge was added, False if ``dst`` already
        depends on ``src``.
        """
        if src in dst.pred:
            return False
        if self.partitions.locking:
            with self.partitions.guard():
                if src in dst.pred:  # another drain thread added it first
                    return False
                self._attach(src, dst)
            return True
        self._attach(src, dst)
        return True

    def _attach(self, src: DepNode, dst: DepNode) -> None:
        dst.pred[src] = None
        src.succ[dst] = None
        self.stats.edges_created += 1
        if _EDGE_ADDED in self.events.observed:
            self.events.emit(_EDGE_ADDED, src, data=dst)
        if src.order >= dst.order:  # else the labels already fit
            order = self.order
            before = order.shifts
            order.edge_added(src, dst)
            if order.shifts != before:
                self.stats.order_shifts += 1
                if _ORDER_SHIFTED in self.events.observed:
                    self.events.emit(_ORDER_SHIFTED, dst, amount=1)
        self.partitions.union(src, dst)

    def remove_pred_edges(self, node: DepNode) -> int:
        """Detach every in-edge of ``node`` (before re-execution).

        "If p has been executed previously, it has a set of dependent
        edges from Alphonse procedures and storage locations that were
        accessed during the previous execution.  These edges are removed
        before subsequent executions." (Section 4.3)
        """
        if not node.pred:
            return 0
        if self.partitions.locking:
            with self.partitions.guard():
                return self._unlink(node, incoming=True)
        return self._unlink(node, incoming=True)

    def remove_succ_edges(self, node: DepNode) -> int:
        """Detach every out-edge of ``node`` (used on cache eviction)."""
        if not node.succ:
            return 0
        if self.partitions.locking:
            with self.partitions.guard():
                return self._unlink(node, incoming=False)
        return self._unlink(node, incoming=False)

    def _unlink(self, node: DepNode, incoming: bool) -> int:
        """Empty one side of ``node`` and delete the mirror entry at each
        neighbour: one O(1) expected deletion per edge."""
        if incoming:
            side = node.pred
            for src in side:
                del src.succ[node]
        else:
            side = node.succ
            for dst in side:
                del dst.pred[node]
        removed = len(side)
        side.clear()
        if removed:
            self.stats.edges_removed += removed
            if _EDGE_REMOVED in self.events.observed:
                self.events.emit(_EDGE_REMOVED, node, amount=removed)
        return removed
