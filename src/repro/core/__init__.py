"""Core incremental-computation runtime — the paper's primary contribution.

A layered engine (see ``docs/architecture.md``):

* **kernel** — tracked storage and the dependency graph
  (:class:`Cell`, :class:`TrackedObject`, :class:`DepNode`, edges,
  topological order, partitions);
* **scheduler** — the §4.5 drain loop (:class:`Scheduler`), popping
  each partition's inconsistent set in topological order;
* **transaction** — batched writes (:class:`Transaction`,
  ``with rt.batch():``);
* **events** — typed observability (:class:`EventBus`,
  :class:`EventKind`); counters
  (:class:`RuntimeStats`) are incremented by the kernel itself;
* **robustness** — fault containment (:class:`Poisoned`,
  :class:`NodeExecutionError`), transactional rollback
  (``rt.batch(rollback_on_error=True)``), drain budgets
  (:class:`Watchdog`), and the structural auditor
  (``rt.check_invariants()``); see ``docs/robustness.md``.

Public surface:

* :class:`Runtime` — one independent Alphonse universe tying the layers
  together.
* :func:`maintained`, :func:`cached`, :func:`unchecked` — the pragma
  equivalents.
* :class:`Cell`, :class:`TrackedObject`, :class:`TrackedArray`,
  :class:`TrackedDict` — tracked storage.
* :data:`DEMAND`, :data:`EAGER` — evaluation strategies.
* :class:`LRU`, :class:`FIFO`, :class:`Unbounded` — cache policies.
"""

from .cache import FIFO, LRU, ArgumentTable, CachePolicy, Unbounded
from .events import EventBus, EventKind
from .cells import (
    MISSING,
    Cell,
    TrackedArray,
    TrackedDict,
    TrackedList,
    TrackedObject,
    tracked_fields,
)
from .decorators import MaintainedMethod, cached, maintained, unchecked
from .errors import (
    AlphonseError,
    CycleError,
    IntegrityError,
    NodeExecutionError,
    NotTrackedError,
    PropagationBudgetError,
    RuntimeStateError,
    TransformError,
    UnhashableArgumentsError,
)
from .node import NO_VALUE, DepNode, NodeKind, Poisoned, values_equal
from .runtime import (
    IncrementalProcedure,
    Location,
    Runtime,
    get_runtime,
    reset_default_runtime,
)
from .scheduler import Scheduler
from .stats import RuntimeStats
from .strategy import DEMAND, EAGER, parse_strategy
from .transaction import Transaction
from .watchdog import Watchdog

__all__ = [
    "AlphonseError",
    "ArgumentTable",
    "CachePolicy",
    "Cell",
    "CycleError",
    "DEMAND",
    "DepNode",
    "EAGER",
    "EventBus",
    "EventKind",
    "FIFO",
    "IncrementalProcedure",
    "IntegrityError",
    "LRU",
    "Location",
    "MISSING",
    "MaintainedMethod",
    "NO_VALUE",
    "NodeExecutionError",
    "NodeKind",
    "NotTrackedError",
    "Poisoned",
    "PropagationBudgetError",
    "Runtime",
    "RuntimeStateError",
    "RuntimeStats",
    "Scheduler",
    "TrackedArray",
    "TrackedDict",
    "TrackedList",
    "TrackedObject",
    "Transaction",
    "TransformError",
    "Unbounded",
    "Watchdog",
    "UnhashableArgumentsError",
    "cached",
    "get_runtime",
    "maintained",
    "parse_strategy",
    "reset_default_runtime",
    "tracked_fields",
    "unchecked",
    "values_equal",
]
