"""Debugging support built on the dependency information (paper §1, §10).

"the dependency information maintained by Alphonse programs enables a
host of other benefits including eager evaluation, sophisticated
debugging, and parallel execution."  This module delivers the debugging
part: inspect what a computation depends on, what depends on a storage
location, why a procedure re-executed, and dump the live graph.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Set

from .events import EventKind
from .node import DepNode
from .runtime import Runtime


def dependencies_of(node: DepNode) -> List[DepNode]:
    """Direct dependencies (predecessors) of a procedure instance node."""
    return list(node.pred)


def dependents_of(node: DepNode) -> List[DepNode]:
    """Direct dependents (successors) of a node."""
    return list(node.succ)


def transitive_dependencies(node: DepNode) -> List[DepNode]:
    """Everything ``node``'s cached value was computed from, DFS order."""
    out: List[DepNode] = []
    seen: Set[int] = {id(node)}
    stack = list(node.pred)
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        out.append(current)
        stack.extend(current.pred)
    return out


def affected_by(node: DepNode) -> List[DepNode]:
    """Every procedure instance a change to ``node`` could invalidate."""
    out: List[DepNode] = []
    seen: Set[int] = {id(node)}
    stack = list(node.succ)
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        out.append(current)
        stack.extend(current.succ)
    return out


def format_graph(runtime: Runtime, max_nodes: int = 200) -> str:
    """A human-readable dump of the live dependency graph."""
    lines: List[str] = []
    for node in runtime.graph.nodes[:max_nodes]:
        succs = ", ".join(s.label for s in node.succ) or "-"
        state = "ok" if node.consistent else "DIRTY"
        lines.append(f"[{node.order:>4}] {node.label} ({state}) -> {succs}")
    remaining = len(runtime.graph.nodes) - max_nodes
    if remaining > 0:
        lines.append(f"... and {remaining} more nodes")
    return "\n".join(lines)


def to_dot(runtime: Runtime, max_nodes: int = 500) -> str:
    """Graphviz DOT rendering of the dependency graph."""
    lines = ["digraph alphonse {", "  rankdir=LR;"]
    nodes = runtime.graph.nodes[:max_nodes]
    ids = {id(n): f"n{i}" for i, n in enumerate(nodes)}
    for node in nodes:
        shape = "box" if node.is_procedure else "ellipse"
        color = "black" if node.consistent else "red"
        lines.append(
            f'  {ids[id(node)]} [label="{node.label}", shape={shape}, '
            f"color={color}];"
        )
    for node in nodes:
        for succ in node.succ:
            if id(succ) in ids:
                lines.append(f"  {ids[id(node)]} -> {ids[id(succ)]};")
    lines.append("}")
    return "\n".join(lines)


@dataclass
class ExecutionEvent:
    """One recorded runtime event."""

    kind: str  # "execute" | "hit" | "change"
    label: str
    node: DepNode


@dataclass
class ExecutionLog:
    """Recorded sequence of runtime events within a :func:`record` block."""

    events: List[ExecutionEvent] = field(default_factory=list)

    def executions(self) -> List[str]:
        return [e.label for e in self.events if e.kind == "execute"]

    def hits(self) -> List[str]:
        return [e.label for e in self.events if e.kind == "hit"]

    def changes(self) -> List[str]:
        return [e.label for e in self.events if e.kind == "change"]

    def why_recomputed(self, label_fragment: str) -> Optional[str]:
        """Explain the first recorded execution matching the fragment.

        The explanation lists the changed storage locations recorded
        before the execution — the proximate causes quiescence
        propagation acted on.
        """
        causes: List[str] = []
        for event in self.events:
            if event.kind == "change":
                causes.append(event.label)
            elif event.kind == "execute" and label_fragment in event.label:
                if not causes:
                    return f"{event.label}: first execution (no prior change)"
                listed = ", ".join(causes[-5:])
                return f"{event.label}: recomputed after change(s) to {listed}"
        return None

    def __len__(self) -> int:
        return len(self.events)


#: Bus events the recorder translates into the log's legacy kind names.
_RECORDED_KINDS = {
    EventKind.EXECUTION: "execute",
    EventKind.CACHE_HIT: "hit",
    EventKind.CHANGE_DETECTED: "change",
}


@contextlib.contextmanager
def record(runtime: Runtime) -> Iterator[ExecutionLog]:
    """Record runtime events for the duration of the block.

    Subscribes to the runtime's event bus (any number of recorders and
    trace exporters coexist independently).  Counters need no recorder:
    the kernel increments ``rt.stats`` itself, exactly even under
    ``parallel_drains``, and emits only the kinds someone observes.

    Example::

        with record(rt) as log:
            tree.left = other
            tree.height()
        print(log.why_recomputed("height"))
    """
    log = ExecutionLog()

    def listener(kind: EventKind, node: DepNode, amount: int, data: Any) -> None:
        if kind is EventKind.EXECUTION and data is False:
            return  # superseded re-entrant activation: no cache commit
        log.events.append(
            ExecutionEvent(_RECORDED_KINDS[kind], node.label, node)
        )

    for kind in _RECORDED_KINDS:
        runtime.events.subscribe(kind, listener)
    try:
        yield log
    finally:
        for kind in _RECORDED_KINDS:
            runtime.events.unsubscribe(kind, listener)


def parallel_schedule(runtime: Runtime) -> List[List[DepNode]]:
    """Group the dependency graph into parallel-executable levels.

    The paper (§1, §10) notes the dependency information "can also be
    used for additional advantage, such as in debugging and scheduling
    parallel execution".  This computes that schedule: level k holds the
    procedure instances all of whose dependencies lie in levels < k, so
    every node within one level could re-execute concurrently.

    Nodes on cycles (re-entrant specifications) are collected into a
    final level, since no safe parallel order exists for them.
    """
    nodes = [n for n in runtime.graph.nodes if n.is_procedure]
    indegree: dict = {}
    for node in nodes:
        indegree[id(node)] = sum(
            1 for p in node.pred if p.is_procedure
        )
    levels: List[List[DepNode]] = []
    ready = [n for n in nodes if indegree[id(n)] == 0]
    placed = 0
    while ready:
        levels.append(ready)
        placed += len(ready)
        next_ready: List[DepNode] = []
        for node in ready:
            for succ in node.succ:
                if not succ.is_procedure or id(succ) not in indegree:
                    continue
                indegree[id(succ)] -= 1
                if indegree[id(succ)] == 0:
                    next_ready.append(succ)
        ready = next_ready
    if placed < len(nodes):
        leftovers = [n for n in nodes if indegree[id(n)] > 0]
        levels.append(leftovers)
    return levels


def max_parallelism(runtime: Runtime) -> int:
    """The widest level of :func:`parallel_schedule` (0 if no graph)."""
    schedule = parallel_schedule(runtime)
    return max((len(level) for level in schedule), default=0)


def consistency_report(runtime: Runtime) -> str:
    """Summarize graph health: node/edge counts, dirty nodes, partitions."""
    nodes = runtime.graph.nodes
    dirty = [n for n in nodes if n.is_procedure and not n.consistent]
    live_edges = runtime.stats.live_edges
    parts = runtime.partitions.all_sets(nodes) if nodes else []
    return (
        f"nodes={len(nodes)} live_edges={live_edges} "
        f"dirty_procedures={len(dirty)} partitions={len(parts)} "
        f"pending={runtime.pending_changes()}"
    )
