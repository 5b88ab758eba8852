"""repro — a reproduction of Hoover's Alphonse (PLDI 1992).

Alphonse is a program-transformation system that turns simple exhaustive
imperative specifications into efficient incremental implementations via
dynamic dependency analysis, quiescence propagation, and function caching.

Subpackages
-----------
``repro.core``
    The incremental runtime: dependency graph, access/modify/call
    semantics, propagation, partitioning, cache policies, decorators.
``repro.lang``
    Alphonse-L: a Modula-3-like mini-language with the paper's pragmas,
    the Section 5 source-to-source transformation, and an interpreter.
``repro.trees``
    The paper's tree examples: maintained height (Algorithm 1) and
    self-balancing AVL trees (Algorithm 11), plus hand-written baselines.
``repro.ag``
    Attribute grammars as Alphonse data types (Section 7.1).
``repro.spreadsheet``
    The Section 7.2 spreadsheet built on the attribute-grammar substrate.
``repro.baselines``
    Exhaustive re-evaluation and traditional (combinator-only)
    memoization, for the benchmark comparisons.
``repro.resil``
    The resilience policy layer: retry with backoff, circuit breakers,
    execution deadlines, and degraded stale reads.
"""

from .core import (
    DEMAND,
    EAGER,
    FIFO,
    LRU,
    AlphonseError,
    Cell,
    CycleError,
    EventBus,
    EventKind,
    IntegrityError,
    NodeExecutionError,
    Poisoned,
    PropagationBudgetError,
    Runtime,
    RuntimeStats,
    Scheduler,
    TrackedArray,
    TrackedDict,
    TrackedList,
    TrackedObject,
    Transaction,
    Unbounded,
    Watchdog,
    cached,
    get_runtime,
    maintained,
    reset_default_runtime,
    unchecked,
)
from .obs import (
    Explanation,
    GraphSnapshot,
    MetricsRegistry,
    Observability,
    RuntimeMetrics,
    SpanTracer,
)
from .resil import (
    ALLOW_STALE,
    FRESH,
    BreakerPolicy,
    CircuitOpenError,
    DeadlineExceeded,
    ResiliencePolicy,
    RetryPolicy,
    StalenessInfo,
    TransientFault,
    check_deadline,
)

__version__ = "1.0.0"

__all__ = [
    "ALLOW_STALE",
    "AlphonseError",
    "BreakerPolicy",
    "Cell",
    "CircuitOpenError",
    "CycleError",
    "DEMAND",
    "DeadlineExceeded",
    "EAGER",
    "EventBus",
    "EventKind",
    "Explanation",
    "FIFO",
    "FRESH",
    "GraphSnapshot",
    "IntegrityError",
    "LRU",
    "MetricsRegistry",
    "NodeExecutionError",
    "Observability",
    "Poisoned",
    "PropagationBudgetError",
    "ResiliencePolicy",
    "RetryPolicy",
    "Runtime",
    "RuntimeMetrics",
    "RuntimeStats",
    "Scheduler",
    "SpanTracer",
    "StalenessInfo",
    "Transaction",
    "TrackedArray",
    "TrackedDict",
    "TrackedList",
    "TrackedObject",
    "TransientFault",
    "Unbounded",
    "Watchdog",
    "cached",
    "check_deadline",
    "get_runtime",
    "maintained",
    "reset_default_runtime",
    "unchecked",
    "__version__",
]
