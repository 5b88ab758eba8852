"""Argument tables and cache replacement policies (paper Sections 2, 3.3, 4.2).

Every incremental procedure (a ``(*CACHED*)`` procedure or a
``(*MAINTAINED*)`` method) has an *argument table*: "a table ... with an
entry for each different function call, indexed by the argument values"
(Section 2).  Entries are dependency-graph nodes; because all non-argument
state a procedure touches is edged into the graph, caching works even for
non-combinators (Section 4.2) — the paper's second stated contribution.

Section 3.3: "Additional pragma arguments allow the specification of the
caching technique, cache size, and the replacement algorithm."  We provide
unbounded, LRU, and FIFO policies.  A bounded policy only evicts entries
that nothing currently depends on (no successor edges): evicting a node
another computation points at would strand dangling dependencies, so such
entries are retained even when the table is over capacity.  This is a
reproduction decision documented in DESIGN.md.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .errors import UnhashableArgumentsError
from .node import DepNode

ArgKey = Tuple[Any, ...]


class CachePolicy:
    """Strategy object deciding which table entries survive."""

    #: None means unbounded.
    capacity: Optional[int] = None

    def on_hit(self, table: "ArgumentTable", key: ArgKey) -> None:
        """Called when ``key`` is looked up successfully."""

    def select_victims(self, table: "ArgumentTable") -> List[ArgKey]:
        """Keys to evict after an insertion pushed the table over capacity."""
        return []


class Unbounded(CachePolicy):
    """Keep every entry forever (the paper's default behaviour)."""


class _Bounded(CachePolicy):
    """Evict the evictable entries earliest in table order when over
    capacity; a subclass decides what table order means."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity

    def select_victims(self, table: "ArgumentTable") -> List[ArgKey]:
        victims: List[ArgKey] = []
        over = len(table) - self.capacity
        if over <= 0:
            return victims
        for key, node in table.items():
            if over <= 0:
                break
            if table.evictable(node):
                victims.append(key)
                over -= 1
        return victims


class FIFO(_Bounded):
    """Evict the oldest-inserted evictable entry when over capacity."""


class LRU(_Bounded):
    """Evict the least-recently-used evictable entry when over capacity:
    a hit moves its entry to the end of table order."""

    def on_hit(self, table: "ArgumentTable", key: ArgKey) -> None:
        table.touch(key)


class ArgumentTable:
    """argument-vector -> dependency-graph-node map for one procedure.

    Mirrors the paper's ``TableFind``/``TableAdd`` (Algorithm 5).  The
    caller supplies ``on_evict`` so the runtime can detach an evicted
    node's edges and drop it from pending worklists.
    """

    def __init__(
        self,
        proc_name: str,
        policy: Optional[CachePolicy] = None,
        on_evict: Optional[Callable[[DepNode], None]] = None,
    ) -> None:
        self.proc_name = proc_name
        self.policy = policy or Unbounded()
        self._entries: "OrderedDict[ArgKey, DepNode]" = OrderedDict()
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[ArgKey, DepNode]]:
        return iter(list(self._entries.items()))

    def find(self, args: ArgKey) -> Optional[DepNode]:
        """``TableFind``: the node for this argument vector, if any."""
        try:
            node = self._entries.get(args)
        except TypeError:
            raise UnhashableArgumentsError(self.proc_name, args) from None
        if node is not None:
            self.policy.on_hit(self, args)
        return node

    def add(self, args: ArgKey, node: DepNode) -> List[DepNode]:
        """``TableAdd``: insert and return any nodes evicted to make room.

        The entry being added is never evicted: its caller is about to
        run it, and a top-level call has no caller to pin it.
        """
        try:
            self._entries[args] = node
        except TypeError:
            raise UnhashableArgumentsError(self.proc_name, args) from None
        evicted: List[DepNode] = []
        for key in self.policy.select_victims(self):
            if key == args:
                continue
            victim = self._entries.pop(key)
            evicted.append(victim)
            if self._on_evict is not None:
                self._on_evict(victim)
        return evicted

    def touch(self, args: ArgKey) -> None:
        """Mark ``args`` as most recently used (LRU bookkeeping)."""
        self._entries.move_to_end(args)

    @staticmethod
    def evictable(node: DepNode) -> bool:
        """An entry is evictable only if nothing depends on it (a stashed
        in-edge does not count); parallel callers hold the partition lock."""
        return not node.executing and not any(
            dst.depends_on(node) for dst in node.succ
        )

    def clear(self) -> None:
        for node in list(self._entries.values()):
            if self._on_evict is not None:
                self._on_evict(node)
        self._entries.clear()
