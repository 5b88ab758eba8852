"""Causal "explain" view: why did this recompute / why this value?

The paper's introduction promises that the maintained dependency
information "enables ... sophisticated debugging".  This module makes
that concrete: :func:`explain` reads the records of an event ring
(:class:`~repro.obs.flight.FlightRecorder` watching :data:`KINDS`)
about any node, tracked location, or label — it walks the recorded
events *plus* the live dependency graph and returns a typed causal
chain::

    write R2C2.func  →  change-detected  →  marked R2C2.value()
      →  marked total.value()  →  re-executed total.value()

Chain link kinds (the ``kind`` of each :class:`CausalLink`):

* ``write`` — the tracked write that triggered everything (MODIFY);
* ``change-detected`` — the write's new value differed from the cache;
* ``marked`` — a node entered its partition's inconsistent set, either
  directly (the written storage) or transitively during propagation;
* ``re-executed`` — a procedure body ran (the target's own execution is
  the chain's last such link);
* ``quiescence-cut`` — an eager re-execution reproduced the cached
  value, cutting propagation (reported when it is the reason the target
  did *not* recompute);
* ``poisoned`` — the body's failure was contained into the cached value.

The ring must watch these kinds *before* the actions of interest
(``rt.obs.enable()`` does this).  Without any records, :func:`explain`
degrades to a dependency-only explanation from the live graph.  Reading
never touches the runtime: partitions are compared by a read-only
union-find walk, so an explanation leaves every counter as it was.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.events import EventKind
from ..core.node import DepNode, Poisoned
from .inspect import _partition_root

__all__ = ["CausalLink", "Explanation", "KINDS", "explain"]


@dataclass
class CausalLink:
    """One step of a causal chain."""

    kind: str
    label: str
    seq: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        where = f"  (seq {self.seq})" if self.seq is not None else ""
        detail = f" — {self.detail}" if self.detail else ""
        return f"{self.kind:<16} {self.label}{detail}{where}"


@dataclass
class Explanation:
    """A typed causal chain answering "why?" about one node.

    ``verdict`` summarizes the outcome: ``recomputed``,
    ``first-execution``, ``cached``, ``quiescent``, ``poisoned``,
    ``quarantined`` (poisoned by an open circuit breaker without the
    body running — see :mod:`repro.resil`), ``pending``, or
    ``never-demanded``.
    """

    target: str
    verdict: str
    links: List[CausalLink] = field(default_factory=list)
    #: Direct dependencies of the target in the live graph, for the
    #: "why is this value what it is" half of the question.
    computed_from: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.target}: {self.verdict}"]
        for i, link in enumerate(self.links, 1):
            lines.append(f"  {i}. {link.render()}")
        if self.computed_from:
            lines.append("  computed from: " + ", ".join(self.computed_from))
        return "\n".join(lines)

    def kinds(self) -> List[str]:
        return [link.kind for link in self.links]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "verdict": self.verdict,
            "links": [
                {
                    "kind": link.kind,
                    "label": link.label,
                    "seq": link.seq,
                    "detail": link.detail,
                }
                for link in self.links
            ],
            "computed_from": list(self.computed_from),
        }

    def __str__(self) -> str:
        return self.render()


#: One recorded event: (seq, kind, node, data).
_Record = Tuple[int, EventKind, Any, Any]

#: The kinds a ring must watch for explain chains (also read by the
#: observability coverage test).
KINDS = frozenset(
    {
        EventKind.MODIFY,
        EventKind.CHANGE_DETECTED,
        EventKind.INCONSISTENT_MARKED,
        EventKind.EXECUTION,
        EventKind.EAGER_REEXECUTION,
        EventKind.QUIESCENCE_CUT,
        EventKind.CACHE_HIT,
        EventKind.FORCED_EVALUATION,
        EventKind.NODE_POISONED,
        EventKind.BATCH_COMMIT,
        EventKind.ROLLBACK,
    }
)


def resolve_target(runtime: Any, target: Any) -> Optional[DepNode]:
    """Map a node / tracked location / label fragment to a graph node."""
    if isinstance(target, DepNode):
        return target
    node = getattr(target, "_node", None)
    if node is not None:
        return node
    if isinstance(target, str):
        partial = None
        for node in runtime.graph.nodes:
            if node.label == target:
                return node
            if partial is None and target in node.label:
                partial = node
        return partial
    return None


def explain(
    runtime: Any,
    target: Any,
    ring: Any = None,
) -> Explanation:
    """Build the causal chain for ``target``; see the module docstring."""
    node = resolve_target(runtime, target)
    if node is None:
        wanted = target if isinstance(target, str) else repr(target)
        return Explanation(
            target=str(wanted),
            verdict="never-demanded",
            links=[
                CausalLink(
                    "unknown",
                    str(wanted),
                    detail="no dependency-graph node matches; the location "
                    "was never read (or the procedure never called) under "
                    "this runtime",
                )
            ],
        )
    records: List[_Record] = []
    if ring is not None:
        records = [
            (seq, kind, subject, data)
            for seq, (_, kind, subject, _, data, _, _) in ring.entries()
            if type(kind) is not str
        ]
    return _explain_node(node, records)


def _explain_node(node: DepNode, records: List[_Record]) -> Explanation:
    computed_from = sorted(p.label for p in node.pred)
    mine = [r for r in records if r[2] is node]

    links: List[CausalLink] = []
    verdict = "cached"

    # The most recent execution of the target, if any was recorded.
    last_exec = _last(mine, EventKind.EXECUTION)
    last_poison = _last(mine, EventKind.NODE_POISONED)
    last_cut = _last(mine, EventKind.QUIESCENCE_CUT)

    if last_exec is None and last_poison is None:
        # Never (re)ran inside the recorded window.
        if not node.is_procedure:
            return _explain_storage(node, mine, records)
        if last_cut is not None:
            verdict = "quiescent"
            links.extend(_upstream_chain(node, records, last_cut[0]))
            links.append(
                CausalLink(
                    "quiescence-cut",
                    node.label,
                    seq=last_cut[0],
                    detail="re-execution reproduced the cached value; "
                    "propagation stopped here",
                )
            )
        elif not node.consistent or node.in_inconsistent_set:
            verdict = "pending"
            links.append(
                CausalLink(
                    "marked",
                    node.label,
                    seq=_seq_of(_last(mine, EventKind.INCONSISTENT_MARKED)),
                    detail="invalidated but not yet re-demanded",
                )
            )
        elif not node.has_value():
            verdict = "never-demanded"
        else:
            hit = _last(mine, EventKind.CACHE_HIT)
            links.append(
                CausalLink(
                    "cache-hit" if hit is not None else "cached",
                    node.label,
                    seq=_seq_of(hit),
                    detail="no recorded change reached this node",
                )
            )
        if verdict == "cached" and type(node.value) is Poisoned:
            # Poisoned outside the recorded window (or with no recorder
            # running): the cached value itself is the evidence.
            verdict = "poisoned"
            if getattr(node.value.error, "quarantine", False):
                verdict = "quarantined"
        return Explanation(node.label, verdict, links, computed_from)

    # It ran.  Anchor on the later of execution / containment.
    anchor_seq = max(
        _seq_of(last_exec, -1), _seq_of(last_poison, -1)
    )
    first_run = (
        _last(mine, EventKind.INCONSISTENT_MARKED, before=anchor_seq) is None
        and _last(mine, EventKind.EXECUTION, before=anchor_seq) is None
    )
    if first_run:
        verdict = "first-execution"
    else:
        verdict = "recomputed"
        links.extend(_upstream_chain(node, records, anchor_seq))

    if last_exec is not None and _seq_of(last_exec) == anchor_seq:
        committed = last_exec[3]
        links.append(
            CausalLink(
                "re-executed" if not first_run else "executed",
                node.label,
                seq=anchor_seq,
                detail="" if committed is not False
                else "superseded re-entrant activation (result not cached)",
            )
        )
    if last_poison is not None and _seq_of(last_poison) >= _seq_of(
        last_exec, -1
    ):
        verdict = "poisoned"
        data = last_poison[3] or {}
        links.append(
            CausalLink(
                "poisoned",
                node.label,
                seq=last_poison[0],
                detail=(
                    f"{data.get('error', '?')} at {data.get('origin', '?')}"
                    if isinstance(data, dict)
                    else ""
                ),
            )
        )
    elif type(node.value) is Poisoned:
        verdict = "poisoned"
    if verdict == "poisoned" and type(node.value) is Poisoned:
        # Duck-typed so obs never imports the resil package: a poison
        # whose error carries the ``quarantine`` marker was applied by
        # an open circuit breaker — the body never ran.
        if getattr(node.value.error, "quarantine", False):
            verdict = "quarantined"
    if last_cut is not None and last_cut[0] > anchor_seq:
        links.append(
            CausalLink(
                "quiescence-cut",
                node.label,
                seq=last_cut[0],
                detail="the re-execution reproduced the cached value; "
                "dependents were not woken",
            )
        )
    return Explanation(node.label, verdict, links, computed_from)


def _explain_storage(
    node: DepNode, mine: List[_Record], records: List[_Record]
) -> Explanation:
    """Explain a storage node: last write, change, who it woke."""
    links: List[CausalLink] = []
    verdict = "cached"
    write = _last(mine, EventKind.MODIFY)
    if write is not None:
        links.append(CausalLink("write", node.label, seq=write[0]))
        change = _last(mine, EventKind.CHANGE_DETECTED)
        if change is not None and change[0] > write[0]:
            verdict = "recomputed"
            links.append(
                CausalLink("change-detected", node.label, seq=change[0])
            )
            woke = [
                r
                for r in records
                if r[1] is EventKind.INCONSISTENT_MARKED
                and r[0] > change[0]
                and r[2] is not node
            ][:5]
            for rec in woke:
                links.append(
                    CausalLink(
                        "marked",
                        rec[2].label,
                        seq=rec[0],
                        detail="invalidated by this change",
                    )
                )
        else:
            verdict = "quiescent"
            links.append(
                CausalLink(
                    "no-change",
                    node.label,
                    detail="the written value equalled the cached one",
                )
            )
    dependents = sorted(s.label for s in node.succ)
    return Explanation(node.label, verdict, links, dependents)


def _upstream_chain(
    node: DepNode, records: List[_Record], before: int
) -> List[CausalLink]:
    """The write → change → marked… prefix that led to ``node`` rerunning.

    Finds the latest recorded CHANGE_DETECTED before ``before`` whose
    node can reach ``node`` in the live graph, then lays out the path's
    recorded marks in propagation order.
    """
    links: List[CausalLink] = []
    cause: Optional[_Record] = None
    # A cause must live in the target's partition: causal chains never
    # cross partitions (disjoint components share no edges).  The
    # reachability check below already guarantees this; comparing
    # union-find roots is a cheap pre-filter that skips whole
    # foreign-partition drains.
    same_part = _partition_root(node)
    for rec in reversed(records):
        if rec[0] >= before:
            continue
        if rec[1] is not EventKind.CHANGE_DETECTED:
            continue
        if same_part is not None and _partition_root(rec[2]) is not same_part:
            continue
        if rec[2] is node or _reaches(rec[2], node):
            cause = rec
            break
    if cause is None:
        return links
    cause_node = cause[2]
    write = _last(
        [r for r in records if r[2] is cause_node],
        EventKind.MODIFY,
        before=cause[0] + 1,
    )
    if write is not None:
        links.append(CausalLink("write", cause_node.label, seq=write[0]))
    path = _path_between(cause_node, node)
    # Name the reader the change flowed through: a field label such as
    # ``SheetCell.func`` does not say whose field was written.
    links.append(
        CausalLink(
            "change-detected",
            cause_node.label,
            seq=cause[0],
            detail=f"read by {path[1].label}" if len(path) > 1 else "",
        )
    )
    for hop in path:
        hop_records = [
            r
            for r in records
            if r[2] is hop and cause[0] <= r[0] < before
        ]
        mark = _last(hop_records, EventKind.INCONSISTENT_MARKED)
        if mark is not None:
            links.append(CausalLink("marked", hop.label, seq=mark[0]))
        ran = _last(hop_records, EventKind.EXECUTION)
        if ran is not None and hop is not node:
            links.append(CausalLink("re-executed", hop.label, seq=ran[0]))
    return links


def _reaches(src: DepNode, dst: DepNode, limit: int = 100_000) -> bool:
    """True if ``dst`` is reachable from ``src`` along succ edges."""
    seen = {id(src)}
    stack = [src]
    while stack and len(seen) < limit:
        for succ in stack.pop().succ:
            if succ is dst:
                return True
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append(succ)
    return False


def _path_between(src: DepNode, dst: DepNode) -> List[DepNode]:
    """Shortest succ-path src → dst, endpoints included (BFS)."""
    if src is dst:
        return [src]
    parents: Dict[int, DepNode] = {}
    seen = {id(src)}
    queue: Deque[DepNode] = collections.deque([src])
    while queue:
        current = queue.popleft()
        for succ in current.succ:
            if id(succ) in seen:
                continue
            seen.add(id(succ))
            parents[id(succ)] = current
            if succ is dst:
                path = [dst]
                while path[-1] is not src:
                    path.append(parents[id(path[-1])])
                path.reverse()
                return path
            queue.append(succ)
    return [src, dst]  # disconnected now (edges rebuilt); keep endpoints


def _last(
    records: List[_Record],
    kind: EventKind,
    before: Optional[int] = None,
) -> Optional[_Record]:
    for rec in reversed(records):
        if before is not None and rec[0] >= before:
            continue
        if rec[1] is kind:
            return rec
    return None


def _seq_of(record: Optional[_Record], default: Optional[int] = None):
    return record[0] if record is not None else default
