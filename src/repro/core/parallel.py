"""Concurrent draining of disjoint partitions (the §6.3 payoff).

The paper maintains the dependency graph as unconnected components so
that "a change in one component never waits on another".  With the
partition as the engine's unit of scheduling (each union-find root owns
a :class:`~repro.core.partition.PartitionScheduler`), that independence
is finally exploitable at runtime: two partitions share no nodes, no
edges, and no worklist, so draining them on different threads is safe
by construction — the only shared mutable structures are the partition
manager's registries (guarded by its lock in this mode) and the event
bus (serialized per emit).

:class:`ParallelDrainExecutor` is installed by
``Runtime(parallel_drains=N)`` and takes over global flushes
(``rt.flush()``, multi-partition batch commits): it snapshots the
pending partitions, fans them out to a bounded thread pool, waits for
the wave to finish, and repeats until quiescent (a drain can dirty
*other* partitions via unions created by re-execution, hence the
fixpoint loop).  A single pending partition is drained inline — the
serial fast path stays pool-free.

Counts stay exact: a pool thread counts into its own execution
context's stats, which :meth:`ParallelDrainExecutor._drain_wave` adds
into ``rt.stats`` once every drain of the wave has returned or raised.

Fault containment composes: a partition whose drain raises aborts
alone (its in-flight node is re-marked by the drain's abort path); the
other partitions of the wave complete normally, and the first error is
re-raised to the caller afterwards — the same contract a serial flush
gives, minus the "later partitions never started" caveat.

What this buys under CPython: partition drains whose bodies hold the
GIL throughout still serialize instruction-by-instruction; the win is
for bodies that block or release the GIL (I/O, native kernels,
subprocess calls), where disjoint partitions overlap fully.  The
``bench_e9_partitioning`` parallel variant measures exactly that.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, List, Optional

from .partition import PartitionScheduler
from .stats import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = ["ParallelDrainExecutor"]


class ParallelDrainExecutor:
    """Drains disjoint pending partitions concurrently for one runtime."""

    def __init__(self, runtime: "Runtime", workers: int) -> None:
        if workers < 2:
            raise ValueError(
                f"parallel_drains must be >= 2, got {workers!r}"
            )
        self.runtime = runtime
        self.workers = workers
        #: Pool is lazy: a parallel-capable runtime that only ever sees
        #: single-partition flushes never starts a thread.
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="alphonse-drain",
            )
        return self._pool

    # -- the flush entry point -------------------------------------------

    def drain_pending(self) -> int:
        """Flush every pending partition, concurrently where possible.

        Returns total propagation steps.  Raises the first partition
        failure *after* the whole wave has settled, so sibling
        partitions are never torn down mid-drain by someone else's
        fault.
        """
        rt = self.runtime
        total = 0
        while True:
            parts = rt.partitions.pending_parts()
            if not parts:
                break
            if len(parts) == 1:
                # Single-partition fast path: no pool, no futures.
                steps = rt.scheduler.drain(parts[0])
                total += steps
                if not steps:
                    break
                continue
            steps, progressed = self._drain_wave(parts)
            total += steps
            if not progressed:
                break
        return total

    def drain_parts(self, parts: List[PartitionScheduler]) -> int:
        """Drain exactly these partitions (a multi-partition commit).

        Unlike :meth:`drain_pending` this never touches partitions
        outside ``parts`` — the transaction layer's partition-local
        contract — but it does loop until the given partitions are
        empty, since a drain can feed work back into a sibling via a
        union created by re-execution.
        """
        total = 0
        wave = [p for p in parts if p.incset]
        while wave:
            if len(wave) == 1:
                steps = self.runtime.scheduler.drain(wave[0])
                total += steps
                if not steps:
                    break
            else:
                steps, progressed = self._drain_wave(wave)
                total += steps
                if not progressed:
                    break
            wave = [p for p in wave if p.incset]
        return total

    def _drain_wave(
        self, parts: List[PartitionScheduler]
    ) -> "tuple[int, bool]":
        pool = self._ensure_pool()
        futures = [pool.submit(self._drain_one, part) for part in parts]
        steps = 0
        errors: List[BaseException] = []
        for future in futures:
            try:
                steps += future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        # No drain of the wave is running: fold in the pool's counts.
        stats = self.runtime.stats
        for ctx in self.runtime._contexts:
            if ctx.stats is not stats:
                stats.absorb(ctx.stats)
        if errors:
            # The failing drain already re-marked its in-flight node
            # (abort safety), so its remaining work is still pending —
            # exactly like a serial flush that stopped at the fault.
            raise errors[0]
        progressed = steps > 0 or any(not p.incset for p in parts)
        return steps, progressed

    def _drain_one(self, part: PartitionScheduler) -> int:
        rt = self.runtime
        ctx = rt._context
        if ctx.stats is rt.stats:
            # Count privately: a shared `+=` could lose updates.
            ctx.stats = RuntimeStats()
        # Worker threads need the runtime active so procedure bodies
        # resolving get_runtime() land on the right engine.
        with rt.active():
            return rt.scheduler.drain(part)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
