"""Causal "explain" view: why did this recompute / why this value?

The paper's introduction promises that the maintained dependency
information "enables ... sophisticated debugging".  :func:`explain`
answers from that information alone: the live dependency graph and the
causal stamps the kernel writes on the nodes it already touches
(``DepNode.marked_by`` and the sequence numbers beside it), so nothing
has to be recording beforehand and a cause is found however long ago it
happened.  It returns a typed causal chain::

    write R2C2.func  →  change-detected  →  marked R2C2.value()
      →  marked total.value()  →  re-executed total.value()

The chain follows ``marked_by`` from the target back to the write: the
path propagation took, each hop the node whose change or re-execution
invalidated the next.

Chain link kinds (the ``kind`` of each :class:`CausalLink`):

* ``write`` — the tracked write that triggered everything;
* ``change-detected`` — the write's new value differed from the cache;
* ``marked`` — a node entered its partition's inconsistent set, either
  directly (the written storage) or transitively during propagation;
* ``re-executed`` — a procedure body ran (the target's own execution is
  the chain's last such link);
* ``quiescence-cut`` — an eager re-execution reproduced the cached
  value, cutting propagation;
* ``poisoned`` — the body's failure was contained into the cached value.

A node keeps only its latest stamp of each kind, so a chain shows the
latest write, mark and execution on its path.  Stamps older than
``since`` (``rt.obs.clear()`` moves it to now) are ignored, as if
forgotten.  Reading never touches the runtime: an explanation leaves
every counter as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.node import DepNode, Poisoned

__all__ = ["CausalLink", "Explanation", "explain"]


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
    ``first-execution``, ``cached``, ``quiescent`` (a write that changed
    nothing), ``poisoned``, ``quarantined`` (poisoned by an open circuit
    breaker without the body running — see :mod:`repro.resil`),
    ``pending`` (invalidated since it last ran), or ``never-demanded``.
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


def explain(runtime: Any, target: Any, since: int = 1) -> Explanation:
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
    if node.is_storage:
        return _explain_storage(node, since)
    return _explain_procedure(node, since)


def _explain_procedure(node: DepNode, since: int) -> Explanation:
    computed_from = sorted(p.label for p in node.pred)
    value = node.value
    poisoned = type(value) is Poisoned
    ran = abs(node.acted_at)
    if (not node.consistent or node.in_inconsistent_set) and (
        ran < since or node.marked_at > ran
    ):
        links = _chain(node, node.marked_at + 1, since) or [
            CausalLink("marked", node.label, seq=_seen(node.marked_at, since))
        ]
        links[-1].detail = "invalidated but not yet re-demanded"
        return Explanation(node.label, "pending", links, computed_from)
    if ran < since:
        # Not run since the horizon: the cached value is the evidence.
        if not node.has_value():
            return Explanation(node.label, "never-demanded", [], computed_from)
        hit = _seen(node.hit_at, since)
        link = CausalLink(
            "cache-hit" if hit else "cached",
            node.label,
            seq=hit,
            detail="no change reached this node",
        )
        verdict = _poison_verdict(value) if poisoned else "cached"
        return Explanation(node.label, verdict, [link], computed_from)

    links: List[CausalLink] = []
    first_run = not since <= node.marked_at < ran
    if first_run:
        verdict = "first-execution"
    else:
        verdict = "recomputed"
        links.extend(_chain(node, ran, since))
    if node.acted_at > 0 and poisoned:
        links.append(
            CausalLink(
                "poisoned",
                node.label,
                seq=ran,
                detail=f"{type(value.error).__name__} at {value.origin}",
            )
        )
    else:
        links.append(
            CausalLink(
                "executed" if first_run else "re-executed",
                node.label,
                seq=ran,
                detail="" if node.acted_at > 0
                else "superseded re-entrant activation (result not cached)",
            )
        )
    if poisoned:
        verdict = _poison_verdict(value)
    if node.cut_at > ran:
        links.append(
            CausalLink(
                "quiescence-cut",
                node.label,
                seq=node.cut_at,
                detail="the re-execution reproduced the cached value; "
                "dependents were not woken",
            )
        )
    return Explanation(node.label, verdict, links, computed_from)


def _explain_storage(node: DepNode, since: int) -> Explanation:
    """Explain a storage node: last write, change, whom it marked."""
    links: List[CausalLink] = []
    verdict = "cached"
    wrote = node.acted_at
    if wrote >= since:
        links.append(CausalLink("write", node.label, seq=wrote))
        changed = node.marked_at
        if changed >= wrote:
            verdict = "recomputed"
            links.append(CausalLink("change-detected", node.label, seq=changed))
            woke = sorted(
                (
                    succ
                    for succ in node.succ
                    if succ.marked_by is node and succ.marked_at > changed
                ),
                key=lambda succ: succ.marked_at,
            )
            for succ in woke[:5]:
                links.append(
                    CausalLink(
                        "marked",
                        succ.label,
                        seq=succ.marked_at,
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


def _chain(node: DepNode, before: int, since: int) -> List[CausalLink]:
    """The write → change-detected → marked… links that led to
    ``node``'s mark, or none when no write is found.

    Follows ``marked_by`` from ``node`` back to the storage node whose
    change started the propagation, through hops stamped inside
    ``[since, before)``.
    """
    path = [node]
    hop = node
    while hop.is_procedure:
        hop = hop.marked_by
        if hop is None or hop in path or not since <= path[-1].marked_at < before:
            return []
        path.append(hop)
    changed = hop.marked_at
    if not since <= changed < before:
        return []
    path.reverse()
    wrote = hop.acted_at
    links = [
        CausalLink(
            "write", hop.label, seq=wrote if since <= wrote <= changed else None
        ),
        # Name the reader the change flowed through: a field label such
        # as ``SheetCell.func`` does not say whose field was written.
        CausalLink(
            "change-detected",
            hop.label,
            seq=changed,
            detail=f"read by {path[1].label}",
        ),
    ]
    for hop in path:
        links.append(CausalLink("marked", hop.label, seq=hop.marked_at))
        if hop is not node and hop.is_procedure:
            ran = _executed_at(hop)
            if changed <= ran < before:
                links.append(CausalLink("re-executed", hop.label, seq=ran))
    return links


def _executed_at(node: DepNode) -> int:
    """A procedure's latest execution, 0 if its latest act poisoned it."""
    acted = node.acted_at
    if acted > 0 and type(node.value) is Poisoned:
        return 0
    return abs(acted)


def _poison_verdict(value: Poisoned) -> str:
    # Duck-typed so obs never imports the resil package: a poison whose
    # error carries the ``quarantine`` marker was applied by an open
    # circuit breaker — the body never ran.
    return "quarantined" if getattr(value.error, "quarantine", False) else "poisoned"


def _seen(seq: int, since: int) -> Optional[int]:
    """``seq`` if it is a stamp at or after the horizon, else None."""
    return seq if seq >= since else None
