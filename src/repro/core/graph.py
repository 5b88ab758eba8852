"""The Alphonse dependency graph (paper Section 4.1, 4.3).

Ties together nodes, their adjacency maps, the incremental topological
order, and the union-find partitioning.  The runtime calls
:meth:`DependencyGraph.create_edge` at every tracked read and incremental
call (Algorithms 3 and 5), and :meth:`enter`/:meth:`leave` around every
body execution, so these paths are kept small and allocation-light.

Edge representation (§9.2).  The paper's O(T) bound for dependence
analysis needs "the edge removal at procedure calls in Algorithm 5" to
be "constant time per edge", which it gets from a doubly linked list of
bidirectional edges.  Here an edge ``src -> dst`` is two entries of
insertion-ordered dicts, ``src.succ[dst]`` and ``dst.pred[src]``, the
representation miniAdapton uses.  Removing one is a hash deletion —
O(1) expected — and an edge costs no object of its own.  Keying by
neighbour also makes edges unique: a repeated read of one location
within an execution finds ``src`` already in ``dst.pred`` and adds
nothing.

Re-link, don't rebuild (§6.2 at run time).  Instead of Algorithm 5's
``RemovePredEdges`` before a body runs again, :meth:`enter` moves
``pred`` aside into ``node.stash`` (each source keeps its ``succ``
entry), a re-read moves the source back in O(1) — no ``succ`` write,
label check, union or ``edges_created`` — and :meth:`leave` unlinks the
sources not read again, O(1) each.  The completed execution's edges are
Algorithm 5's.  Until its re-read, a stashed edge is not a dependency
(:meth:`DepNode.depends_on`; successor marking and eviction skip it),
and a re-entrant activation removes stash and ``pred`` as Algorithm 5 does.

Threading: a dict raises if it is resized while being iterated.  Under
``Runtime(parallel_drains=N)`` every insertion, re-link and removal
here runs under the partition manager's lock, and so does every walk
that can race with them (successor marking, :meth:`PartitionManager.mark_successors`;
the eviction check, ``ArgumentTable.evictable``; the height-label walk,
which runs inside :meth:`create_edge`), as do :meth:`enter`'s check,
stash, increment of ``executing`` and activation number.  The serial
path takes no lock and copies nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

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
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        self.events = events
        self.order = order
        self.partitions = partitions
        self.stats = stats if stats is not None else RuntimeStats()
        #: The live nodes in creation order, as dict keys: a node enters
        #: when it is created and leaves when :meth:`dispose` takes it
        #: out (the graph space the paper's §9.1 counts per live
        #: instance).  Checkpoints, the audit and inspection read it.
        self._live: Dict[DepNode, None] = {}

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
        self._live[node] = None
        return node

    @property
    def nodes(self) -> List[DepNode]:
        """The live nodes, in creation order."""
        return list(self._live)

    # -- edges -------------------------------------------------------------

    def create_edge(self, src: DepNode, dst: DepNode) -> bool:
        """Record that ``dst``'s computation read ``src`` (CreateEdge).

        Returns True if ``src`` was linked into ``dst.pred`` (a new edge,
        or a stashed one re-linked), False if it was already there.
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
        stash = dst.stash
        if stash is not None and src in stash:
            # Read again by the re-executing body: the edge never left
            # ``src.succ``, the labels already fit and both ends share
            # a partition, so only the pred entry moves back.
            del stash[src]
            dst.pred[src] = None
            return
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

    def enter(self, node: DepNode, frozen: bool) -> int:
        """Open an activation of ``node``'s body and return its number
        (``node.activation_seq``).  "These edges are removed before
        subsequent executions" (§4.3): an outermost activation stashes
        them instead, a re-entrant one removes them, stash included, and
        ``frozen`` (§6.2 static subgraph) keeps them.
        """
        if self.partitions.locking:
            with self.partitions.guard():
                return self._enter(node, frozen)
        return self._enter(node, frozen)

    def _enter(self, node: DepNode, frozen: bool) -> int:
        if not frozen:
            if node.executing:
                self._unlink_pred(node)
            elif node.pred:
                node.stash = node.pred
                node.pred = {}
        node.executing += 1
        node.activation_seq += 1
        return node.activation_seq

    def leave(self, node: DepNode) -> None:
        """Close an activation: unlink the stashed sources its body did
        not read again (whether it returned or raised)."""
        if self.partitions.locking:
            with self.partitions.guard():
                self._leave(node)
        else:
            self._leave(node)

    def _leave(self, node: DepNode) -> None:
        node.executing -= 1
        stash = node.stash
        if stash is not None:
            node.stash = None
            if stash:
                self._removed(node, self._detach(node, stash))

    def remove_pred_edges(self, node: DepNode) -> int:
        """Detach every in-edge of ``node``, stashed ones included (used
        on cache eviction)."""
        if not node.pred and node.stash is None:
            return 0
        if self.partitions.locking:
            with self.partitions.guard():
                return self._unlink_pred(node)
        return self._unlink_pred(node)

    def remove_succ_edges(self, node: DepNode) -> int:
        """Detach every out-edge of ``node`` (used on cache eviction)."""
        if not node.succ:
            return 0
        if self.partitions.locking:
            with self.partitions.guard():
                return self._unlink_succ(node)
        return self._unlink_succ(node)

    def dispose(self, node: DepNode) -> None:
        """Take ``node`` out of the graph for good: the per-node step of
        cache eviction and of :meth:`Runtime.teardown`.

        Removes it from the live set, unlinks its edges (stash
        included) and drops it from its partition's worklist, then cuts
        every reference through which it can sit on a cycle: its
        union-find item, its thunk (whose bound arguments hold the
        object it reads), ``marked_by``, and a storage node's ``ref`` ↔
        ``location._node`` pair.  Whatever still holds the node
        afterwards frees it by reference counting.  Idempotent.
        """
        try:
            del self._live[node]
        except KeyError:
            return  # disposed already
        self.remove_pred_edges(node)
        self.remove_succ_edges(node)
        self.partitions.release(node)
        node.thunk = None
        node.marked_by = None
        if node.kind is NodeKind.STORAGE:
            location = node.ref
            if location is not None and location._node is node:
                location._node = None
            node.ref = None

    def _unlink_pred(self, node: DepNode) -> int:
        """Empty ``node``'s pred map and stash, deleting the mirror entry
        at each source: one O(1) expected deletion per edge."""
        removed = self._detach(node, node.pred)
        node.pred.clear()
        stash = node.stash
        if stash is not None:
            node.stash = None
            removed += self._detach(node, stash)
        return self._removed(node, removed)

    def _unlink_succ(self, node: DepNode) -> int:
        """Empty ``node``'s succ map, deleting the mirror entry at each
        destination, where a running body may hold it in its stash."""
        succ = node.succ
        for dst in succ:
            del (dst.pred if node in dst.pred else dst.stash)[node]
        removed = len(succ)
        succ.clear()
        return self._removed(node, removed)

    @staticmethod
    def _detach(node: DepNode, sources: Dict[DepNode, None]) -> int:
        for src in sources:
            del src.succ[node]
        return len(sources)

    def _removed(self, node: DepNode, removed: int) -> int:
        if removed:
            self.stats.edges_removed += removed
            if _EDGE_REMOVED in self.events.observed:
                self.events.emit(_EDGE_REMOVED, node, amount=removed)
        return removed
