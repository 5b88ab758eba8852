"""Exception hierarchy for the Alphonse incremental runtime.

The paper (Section 3.5) places three restrictions on Alphonse procedures:
DET (determinism), TOP (top-level data only), and OBS (eager side effects
must be unobservable).  The paper does not enforce these automatically;
neither do we, but the runtime raises the errors below when a violation is
detectable at run time (for example, a dependency cycle caused by a
non-deterministic procedure, or an unhashable argument vector that cannot
index an argument table).
"""

from __future__ import annotations


class AlphonseError(Exception):
    """Base class for all errors raised by the incremental runtime.

    ``containable`` governs fault containment (see ``Runtime.execute_node``
    and ``docs/robustness.md``): engine-control errors — cycles, budget
    violations, corrupted-state reports — must tear through propagation so
    the operator sees them, and therefore are *not* captured into
    :class:`~repro.core.node.Poisoned` values.  Ordinary exceptions raised
    by user procedure bodies default to containable; error types outside
    this hierarchy opt in implicitly (any plain :class:`Exception` is
    containable) and subclasses may opt back in by setting the flag.
    """

    containable = False


class CycleError(AlphonseError):
    """A maintained/cached procedure transitively called itself.

    The paper's Algorithm 5 sets ``consistent := TRUE`` before running the
    procedure body, so a re-entrant call silently returns the stale cached
    value.  In strict mode (``Runtime(strict_cycles=True)``) we raise this
    instead, because a genuine cycle nearly always indicates a DET or
    specification bug.
    """

    def __init__(self, node_description: str) -> None:
        super().__init__(
            f"cycle detected: {node_description} was called while it was "
            f"already executing; Alphonse procedures must not be "
            f"(transitively) self-recursive on the same argument vector"
        )


class UnhashableArgumentsError(AlphonseError):
    """Argument vectors index argument tables, so they must be hashable.

    Section 4.2: "calls to the given method or procedure are stored in a
    table known as the argument table ... indexed by this vector."
    """

    def __init__(self, proc_name: str, args: tuple) -> None:
        super().__init__(
            f"arguments to incremental procedure {proc_name!r} must be "
            f"hashable to index its argument table; got {args!r}"
        )


class NotTrackedError(AlphonseError):
    """An operation expected Alphonse-tracked storage but got plain data."""


class RuntimeStateError(AlphonseError):
    """The runtime was used in an unsupported way.

    Examples: nesting ``unchecked()`` regions incorrectly, or mutating
    tracked storage from inside an eager procedure in a way that violates
    the OBS restriction detectably.
    """


class TransformError(AlphonseError):
    """Raised by the Alphonse-L transformer for untransformable programs."""


class NodeExecutionError(AlphonseError):
    """A demand read reached a *poisoned* incremental procedure instance.

    When a procedure body raises a containable exception, the runtime
    captures it into a :class:`~repro.core.node.Poisoned` value on the
    instance's node and finishes propagation deterministically.  Reading
    that instance's result — directly or through any dependent — raises
    this error; the original exception is ``root`` (and the ``__cause__``
    chain), and ``origin`` names the instance whose body actually raised.
    The next write that re-marks the poisoned region inconsistent heals
    it: the body re-executes and, if it succeeds, the poison is replaced
    by the fresh value.

    This error is itself containable so that poison propagates through
    demand chains: a body that reads a poisoned input becomes poisoned
    in turn instead of aborting mid-propagation.
    """

    containable = True

    def __init__(self, node_label: str, poison: "object") -> None:
        root = getattr(poison, "error", poison)
        origin = getattr(poison, "origin", node_label)
        if origin == node_label:
            where = f"its body raised {type(root).__name__}: {root}"
        else:
            where = (
                f"its input {origin!r} raised {type(root).__name__}: {root}"
            )
        super().__init__(
            f"incremental procedure {node_label!r} is poisoned: {where}; "
            f"a write that re-marks the region inconsistent will heal it"
        )
        self.node_label = node_label
        self.origin = origin
        self.root = root
        #: The :class:`~repro.core.node.Poisoned` record behind this
        #: error; degraded reads (:mod:`repro.resil`) consult its
        #: retained last-known-good value.
        self.poison = poison


class PropagationBudgetError(AlphonseError):
    """A drain watchdog budget was exhausted (steps, wall time, or
    livelock).

    Carries a diagnostic of the hot region: ``kind`` is one of
    ``"steps"``, ``"wall-time"``, or ``"livelock"``, and ``hot_nodes``
    lists ``(label, times_processed)`` pairs for the most frequently
    re-processed nodes of the aborted drain — the usual suspects for a
    DET violation or an oscillating eager region.  When a resilience
    policy is attached, ``quarantined`` names the procedures whose
    circuit breakers were open at trip time — a hot node that is *also*
    quarantined points at a failure storm rather than a DET bug.
    """

    def __init__(
        self,
        kind: str,
        detail: str,
        hot_nodes: list,
        quarantined: list = None,
    ) -> None:
        region = ", ".join(
            f"{label} x{count}" for label, count in hot_nodes
        )
        suffix = f" (hot region: {region})" if region else ""
        if quarantined:
            suffix += f" (quarantined: {', '.join(quarantined)})"
        super().__init__(
            f"propagation watchdog tripped [{kind}]: {detail}{suffix}"
        )
        self.kind = kind
        self.hot_nodes = hot_nodes
        self.quarantined = list(quarantined) if quarantined else []


class IntegrityError(AlphonseError):
    """``Runtime.check_invariants`` found the dependency graph corrupted.

    The message lists every violated invariant; ``violations`` carries
    them as a list of strings for programmatic inspection.
    """

    def __init__(self, violations: list) -> None:
        lines = "\n  - ".join(violations)
        super().__init__(
            f"dependency-graph integrity violated "
            f"({len(violations)} finding(s)):\n  - {lines}"
        )
        self.violations = list(violations)
