"""Dependency-graph nodes.

Section 4.1: "Nodes of this graph are created to represent each
incremental procedure instance, as well as each global variable location
accessed by these procedure instances."  Each node carries the cached
``value`` and the boolean ``consistent`` field, exactly as the paper's
``value(u)`` and ``consistent(u)``.

Three kinds of node exist:

* ``STORAGE`` — an abstract storage location (a tracked cell, object
  field, or array slot).  Its ``value`` mirrors the storage contents as
  last seen by the incremental computation.
* ``DEMAND`` — an incremental procedure instance with lazy (demand)
  evaluation.  Propagation only flips its ``consistent`` flag; the body
  re-runs on the next call (Section 4.5).
* ``EAGER`` — an incremental procedure instance re-executed during
  propagation itself (Section 4.5).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, Optional, Tuple

_node_ids = itertools.count()

#: Sentinel for "this node has never held a value".  Distinct from None
#: because None is a legitimate cached value.
NO_VALUE = object()


class Poisoned:
    """A captured procedure-body failure, cached in place of a value.

    When fault containment is on (``Runtime(containment=True)``, the
    default) and an incremental procedure body raises a containable
    exception, the exception is recorded here instead of tearing down
    propagation: ``error`` is the original exception and ``origin`` the
    label of the node whose body raised it (poison read through a
    dependency chain keeps pointing at the root cause).  A poisoned node
    is *consistent* — its poison faithfully reflects its current inputs
    — and demand reads surface it as a typed
    :class:`~repro.core.errors.NodeExecutionError`.  A ``Poisoned``
    value equals nothing (see :func:`values_equal`), so healing writes
    always propagate past it.

    ``stale_value``/``stamp`` retain the last good value the poison
    overwrote (``NO_VALUE``/None when the node never produced one, and
    chained through successive poisonings), so degraded reads
    (``rt.read(..., staleness=ALLOW_STALE)``, :mod:`repro.resil`) can
    serve an old answer instead of an error.  ``stamp`` is a
    ``time.monotonic`` timestamp of when the value went stale; neither
    field survives persistence — a recovered poison has no history.
    """

    __slots__ = ("error", "origin", "stale_value", "stamp")

    def __init__(self, error: BaseException, origin: str) -> None:
        self.error = error
        self.origin = origin
        self.stale_value: Any = NO_VALUE
        self.stamp: Optional[float] = None

    def __repr__(self) -> str:
        return f"<poisoned by {type(self.error).__name__} at {self.origin!r}>"


def values_equal(a: Any, b: Any) -> bool:
    """Change-detection equality (§4.4) and quiescence equality (§4.5).

    Identity is checked *before* ``==`` so that (a) re-storing the very
    same object — including NaN, whose ``==`` is reflexively false — is
    never reported as a change, and (b) expensive ``__eq__``
    implementations are skipped on the common same-object write.  A
    raising or non-boolean ``__eq__`` (e.g. ambiguous array comparisons)
    conservatively reports "changed": over-propagation is correct,
    a corrupted inconsistent set is not.  ``NO_VALUE`` equals nothing,
    itself included — a node that never held a value has no basis for
    quiescence.  ``Poisoned`` likewise equals nothing, not even an
    identical poison: propagation must never quiesce on a failure, or
    healing writes could be cut off downstream of it.
    """
    if a is NO_VALUE or b is NO_VALUE:
        return False
    if type(a) is Poisoned or type(b) is Poisoned:
        return False
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


class NodeKind(enum.Enum):
    """What a dependency-graph node represents."""

    STORAGE = "storage"
    DEMAND = "demand"
    EAGER = "eager"


class DepNode:
    """One vertex of the Alphonse dependency graph.

    Attributes mirror the paper's fields: ``value`` is ``value(u)``,
    ``consistent`` is ``consistent(u)``, ``succ``/``pred`` are
    ``succ(u)``/``pred(u)``, and ``ref`` is ``ref(n)`` — a pointer back
    to the storage location or procedure instance the node represents.

    An edge ``u -> v`` is two map entries, ``u.succ[v]`` and
    ``v.pred[u]`` (values are None; the dicts are insertion-ordered
    sets keyed by the neighbour).  Only
    :class:`~repro.core.graph.DependencyGraph` mutates them, always both
    sides at once; everything else only reads them.
    """

    __slots__ = (
        "node_id",
        "kind",
        "value",
        "consistent",
        "succ",
        "pred",
        "stash",
        "ref",
        "label",
        "order",
        "partition_item",
        "thunk",
        "executing",
        "activation_seq",
        "in_inconsistent_set",
        "static_edges",
        "edges_frozen",
        "marked_by",
        "marked_at",
        "acted_at",
        "cut_at",
        "hit_at",
    )

    def __init__(
        self,
        kind: NodeKind,
        *,
        label: str = "",
        ref: Any = None,
        thunk: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.node_id: int = next(_node_ids)
        self.kind = kind
        self.value: Any = NO_VALUE
        #: Storage nodes are always "consistent" in the paper's sense
        #: (their value *is* the truth); procedure nodes start inconsistent
        #: so their first call executes the body (Algorithm 5's TableAdd
        #: path sets consistent(n) := FALSE).
        self.consistent: bool = kind is NodeKind.STORAGE
        self.succ: Dict[DepNode, None] = {}
        self.pred: Dict[DepNode, None] = {}
        #: The previous execution's in-edges not yet read again by the
        #: running body (their sources keep the ``succ`` entry); None
        #: outside a re-execution (see DependencyGraph.enter).
        self.stash: Optional[Dict[DepNode, None]] = None
        self.ref = ref
        self.label = label or f"{kind.value}#{self.node_id}"
        #: Height label maintained by repro.core.order: every edge runs
        #: from a lower to a higher label.
        self.order: int = 0
        #: Handle used by repro.core.partition's union-find.
        self.partition_item: Any = None
        #: For procedure nodes: a zero-argument callable that re-runs the
        #: procedure body with this node's bound arguments.  Installed by
        #: the runtime when the instance is first called; used by eager
        #: propagation to re-execute without a caller.
        self.thunk = thunk
        #: Re-entrancy depth: how many activations of this node's body are
        #: currently on the call stack.  Re-entrant execution is legal
        #: Alphonse (Algorithm 11's Balance recursion); see Runtime.
        self.executing: int = 0
        #: Monotonic id of the most recently *started* activation.  An
        #: activation only commits its result to ``value`` if no newer
        #: activation started while it ran (see Runtime.execute_node).
        self.activation_seq: int = 0
        #: Membership flag so set insertion in propagation is O(1) without
        #: hashing the node twice.
        self.in_inconsistent_set: bool = False
        #: §6.2 static graph construction: the procedure declared that its
        #: referenced-argument set never changes across executions, so the
        #: dependency subgraph built by the first execution is kept —
        #: re-executions skip RemovePredEdges and edge re-creation.
        self.static_edges: bool = False
        #: True once a static-edge node's first execution built its edges.
        self.edges_frozen: bool = False
        #: Causal stamps, read by :mod:`repro.obs.explain`: sequence
        #: numbers from the runtime's one counter, 0 for never.  A
        #: procedure's ``marked_by`` is the node whose change or
        #: re-execution put it in its inconsistent set (the first since
        #: it was last consistent) and ``marked_at`` when; a storage
        #: node's ``marked_at`` is its latest detected change.
        self.marked_by: Optional[DepNode] = None
        self.marked_at = 0
        #: A storage node's latest tracked write; a procedure's latest
        #: execution or poisoning, negated for an activation that was
        #: superseded and did not commit.
        self.acted_at = 0
        #: A procedure's latest quiescence cut and cache hit.
        self.cut_at = 0
        self.hit_at = 0

    @property
    def is_storage(self) -> bool:
        return self.kind is NodeKind.STORAGE

    @property
    def is_procedure(self) -> bool:
        return self.kind is not NodeKind.STORAGE

    @property
    def is_eager(self) -> bool:
        return self.kind is NodeKind.EAGER

    def has_value(self) -> bool:
        return self.value is not NO_VALUE

    def depends_on(self, src: "DepNode") -> bool:
        """Whether the edge ``src -> self`` is a dependency: it is not,
        under Algorithm 5, while this node's running body has it
        stashed and has not read ``src`` again."""
        stash = self.stash
        return stash is None or src not in stash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "ok" if self.consistent else "DIRTY"
        return f"<{self.label} {flag}>"


def procedure_instance_label(name: str, args: Tuple[Any, ...]) -> str:
    """Human-readable label for the node of ``name(*args)``.

    Used by debugging output (the paper lists "sophisticated debugging"
    as a benefit of the maintained dependency information).
    """
    if not args:
        return f"{name}()"
    rendered = ", ".join(_short(a) for a in args)
    return f"{name}({rendered})"


#: ``__repr__`` implementations that can stop early, mapped to their
#: renderer: ``render(value, length)`` returns ``repr(value)`` whole or
#: a prefix of it longer than ``length``, so a label cut from it equals
#: one cut from the full repr (:mod:`repro.core.cells` registers the
#: default ``TrackedObject.__repr__``, whose fields can be costly).
PREFIX_REPRS: Dict[Any, Callable[[Any, int], str]] = {}


def _short(value: Any, limit: int = 24) -> str:
    render = PREFIX_REPRS.get(type(value).__repr__)
    text = repr(value) if render is None else render(value, limit)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text
