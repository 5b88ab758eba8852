"""Graph queries built on the dependency information (paper §1, §10).

"the dependency information maintained by Alphonse programs enables a
host of other benefits including eager evaluation, sophisticated
debugging, and parallel execution."  This module answers the structural
questions: what a computation depends on, what depends on a storage
location, and which instances could re-execute in parallel.  Why a
procedure re-executed is :func:`repro.obs.explain.explain`'s question
(``rt.explain``), and the graph dump is
:meth:`repro.obs.inspect.GraphSnapshot.to_dot` (``rt.inspect()``).
"""

from __future__ import annotations

from typing import List, Set

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
