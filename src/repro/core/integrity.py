"""Structural integrity auditing for the dependency graph.

Fault containment widens the set of states the engine can be left in —
drains abort, batches roll back, bodies poison — and every one of those
paths promises to leave the graph *structurally sound*.  This module is
the promise's enforcement arm: :func:`audit` (surfaced as
``Runtime.check_invariants()``) sweeps the runtime and reports any
violation of the invariants the rest of the engine assumes:

* **Edge symmetry** — every entry of a node's successor map has its
  mirror in the destination's predecessor map, and vice versa (the
  graph always writes both sides of an edge together, so asymmetry
  means corruption).
* **Label order** — every edge runs from a lower to a higher height
  label (:mod:`repro.core.order`).  Checked only while the runtime has
  never seen a cyclic insertion: edges on a cycle cannot all satisfy it.
* **Inconsistent-set/flag agreement** — a node's
  ``in_inconsistent_set`` flag is True iff its partition's set counts it
  as a member; the dirty-set registry covers every non-empty set.
* **Partition↔scheduler ownership bijection** — every union-find root
  owns exactly one live :class:`~repro.core.partition.PartitionScheduler`
  with a unique partition id, non-root items own none, and the dirty
  registry maps each pid to that partition's actual scheduler.
* **Quiescent execution state** — when no drain or body is running,
  every thread's call stack is empty, no node reports ``executing``,
  and no node holds a stash of in-edges awaiting a re-read
  (:mod:`repro.core.graph`).
* **Live neighbours** — every pred, succ and stash neighbour of a live
  node is itself live.  A node leaves the graph's live set only through
  :meth:`~repro.core.graph.DependencyGraph.dispose`, which unlinks it,
  so a link to a node outside the set means a torn-down node is still
  wired in.
* **Consistency/value sanity** — a consistent procedure node that is
  not mid-first-execution holds a value (possibly a Poisoned one).

The audit is read-only and O(nodes + edges) over the live nodes.

The chaos harness (:mod:`repro.testing.chaos`) calls this after every
injected fault; it is also cheap enough to call from tests at will.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .errors import IntegrityError
from .node import NodeKind

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = ["audit"]

#: Cap on reported violations: a corrupted graph tends to violate one
#: invariant thousands of times; the first few findings are what matter.
_MAX_VIOLATIONS = 25


def audit(rt: "Runtime", *, raise_on_violation: bool = True) -> List[str]:
    """Check every structural invariant; see the module docstring.

    Returns the violations found (empty list = sound).  Raises
    :class:`~repro.core.errors.IntegrityError` listing them when
    ``raise_on_violation`` is set and any were found.
    """
    violations: List[str] = []

    def report(message: str) -> bool:
        """Record one finding; returns False once the cap is hit."""
        if len(violations) < _MAX_VIOLATIONS:
            violations.append(message)
        return len(violations) < _MAX_VIOLATIONS

    _audit_execution_state(rt, report)
    nodes = rt.graph.nodes
    _audit_edges(nodes, report)
    if not rt.order.cycles_detected:
        _audit_labels(nodes, report)
    _audit_incset_membership(rt, nodes, report)
    _audit_partition_ownership(rt, nodes, report)
    _audit_values(nodes, report)

    if violations and raise_on_violation:
        raise IntegrityError(violations)
    return violations


def _audit_execution_state(rt: "Runtime", report) -> None:
    if rt.scheduler.active or rt.partitions.any_active():
        report("audit ran while a drain is active; results unreliable")
    # Every thread's context must be quiescent, not just the caller's:
    # a parallel drain leaves its workers' stacks registered here.
    for ctx in rt._contexts:
        if ctx.stack:
            labels = [frame.node.label for frame in ctx.stack]
            report(f"call stack not empty at quiescence: {labels}")


def _audit_edges(nodes, report) -> None:
    """Edge symmetry, and live neighbours (one pass over the edges)."""
    live = set(nodes)
    for node in nodes:
        for dst in node.succ:
            if node not in dst.pred:
                if not report(
                    f"edge {node.label!r} -> {dst.label!r} missing from "
                    f"the destination's pred map"
                ):
                    return
            if dst not in live:
                if not report(_not_live(node, "succ", dst)):
                    return
        for src in node.pred:
            if node not in src.succ:
                if not report(
                    f"edge {src.label!r} -> {node.label!r} missing from "
                    f"the source's succ map"
                ):
                    return
            if src not in live:
                if not report(_not_live(node, "pred", src)):
                    return
        for src in node.stash or ():
            if src not in live:
                if not report(_not_live(node, "stash", src)):
                    return


def _not_live(node, side: str, other) -> str:
    return (
        f"{node.label!r} is linked ({side}) to {other.label!r}, which is "
        f"not a live node"
    )


def _audit_labels(nodes, report) -> None:
    for node in nodes:
        for dst in node.succ:
            if node.order >= dst.order:
                if not report(
                    f"edge {node.label!r} -> {dst.label!r} runs from label "
                    f"{node.order} to {dst.order}, not upwards"
                ):
                    return


def _audit_incset_membership(rt: "Runtime", nodes, report) -> None:
    # Flag -> membership: every flagged node must be counted by the set
    # governing its partition, and that set must be registered dirty.
    for node in nodes:
        if node.executing:
            if not report(
                f"{node.label!r} reports executing={node.executing} at "
                f"quiescence"
            ):
                return
        if node.stash is not None:
            if not report(
                f"{node.label!r} holds {len(node.stash)} stashed in-edge(s) "
                f"at quiescence"
            ):
                return
        if not node.in_inconsistent_set:
            continue
        part = rt.partitions.sched_of(node)
        members = part.incset.members()
        if not any(member is node for member in members):
            if not report(
                f"{node.label!r} is flagged in_inconsistent_set but its "
                f"partition's set does not contain it"
            ):
                return
        if rt.partitions.dirty.get(part.pid) is not part:
            if not report(
                f"partition p{part.pid} holding {node.label!r} is missing "
                f"from the dirty registry (a flush would strand it)"
            ):
                return
    # Membership -> flag: set sizes must agree with the flags (a size
    # leak makes empty sets look pending forever, or hides members).
    for incset in rt.partitions.all_sets(nodes):
        members = incset.members()
        if len(incset) != len(members):
            report(
                f"inconsistent set size {len(incset)} disagrees with its "
                f"{len(members)} flagged member(s)"
            )


def _audit_partition_ownership(rt: "Runtime", nodes, report) -> None:
    """The partition↔scheduler bijection: one live scheduler per root,
    unique pids, no scheduler shared between roots, and a truthful
    dirty registry."""
    partitions = rt.partitions
    if not partitions.enabled:
        return
    roots = {}
    for node in nodes:
        item = node.partition_item
        if item is None:
            if not report(f"{node.label!r} has no partition item"):
                return
            continue
        if item.parent is not item and item.payload is not None:
            if not report(
                f"non-root partition item of {node.label!r} still owns "
                f"scheduler p{item.payload.pid}"
            ):
                return
        root = partitions._find(item)
        roots[id(root)] = root
    owners = {}
    by_pid = {}
    for root in roots.values():
        part = root.payload
        if part is None:
            if not report(
                f"partition root via {root.node.label!r} owns no scheduler"
            ):
                return
            continue
        prior = owners.get(id(part))
        if prior is not None and prior is not root:
            if not report(
                f"scheduler p{part.pid} is owned by two partition roots"
            ):
                return
        owners[id(part)] = root
        twin = by_pid.get(part.pid)
        if twin is not None and twin is not part:
            if not report(
                f"partition id p{part.pid} is used by two schedulers"
            ):
                return
        by_pid[part.pid] = part
        registered = partitions.dirty.get(part.pid)
        if registered is not None and registered is not part:
            if not report(
                f"dirty registry maps p{part.pid} to a scheduler that is "
                f"not the partition's live one"
            ):
                return
        if part.incset and registered is None and not part.active:
            if not report(
                f"partition p{part.pid} has {len(part.incset)} pending "
                f"member(s) but is not registered dirty"
            ):
                return
    for pid, part in partitions.dirty.items():
        if part.pid != pid:
            if not report(
                f"dirty registry key p{pid} holds scheduler p{part.pid}"
            ):
                return


def _audit_values(nodes, report) -> None:
    for node in nodes:
        if (
            node.kind is not NodeKind.STORAGE
            and node.consistent
            and not node.has_value()
            and not node.executing
        ):
            if not report(
                f"procedure node {node.label!r} is consistent but holds "
                f"no value outside any execution"
            ):
                return
