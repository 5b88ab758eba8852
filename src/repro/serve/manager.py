"""Session residency: LRU eviction to checkpoint, lazy resurrection.

The manager bounds how many tenant runtimes are live at once.  Opening
session N+1 when ``max_live_sessions`` are resident checkpoints the
least-recently-used *idle* session to disk and closes it; a later
request for that tenant resurrects it from its checkpoint (plus WAL
tail) transparently.  Sessions with in-flight requests are never
evicted — the live set transiently overflows instead, because blocking
admission on an unrelated tenant's recomputation would couple tenants
the whole design exists to decouple.

Concurrency discipline: every field of this class is read and mutated
**only on the asyncio loop thread**.  The blocking work — opening,
resurrecting, closing — is shipped to the session's pinned worker via
the :class:`~repro.serve.dispatch.WorkerPool`, and because close and
open of one sid land on the same worker queue, a resurrection can never
overtake the eviction that is still checkpointing the same directory.
In-progress opens are deduplicated through ``_opening`` futures so a
burst of requests for a cold session triggers exactly one load.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from .config import ServeConfig
from .dispatch import WorkerPool
from .metrics import ServeMetrics
from .protocol import SessionOpError
from .session import Session

__all__ = ["SessionManager"]


class SessionManager:
    """Loop-thread owner of the live-session table."""

    def __init__(
        self,
        config: ServeConfig,
        pool: WorkerPool,
        metrics: ServeMetrics,
    ) -> None:
        self.config = config
        self.pool = pool
        self.metrics = metrics
        #: Set by the server when replication is on; every session it
        #: opens (or resurrects) attaches to it and ships from then on.
        self.shipper: Any = None
        #: Live sessions, LRU order (oldest first).
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        #: In-flight request count per sid — admission control's mailbox
        #: depth, and the "is it idle?" test eviction relies on.
        self.inflight: Dict[str, int] = {}
        #: sid -> future resolving to the Session being opened.
        self._opening: Dict[str, "asyncio.Future[Session]"] = {}
        #: True while a shrink sweep is running (dedupes the sweeps the
        #: server schedules as requests complete).
        self._shrinking = False

    # -- introspection -------------------------------------------------

    @property
    def live(self) -> int:
        return len(self._sessions)

    def stats(self) -> List[Dict[str, Any]]:
        out = []
        for sid, session in self._sessions.items():
            entry = session.stats()
            entry["inflight"] = self.inflight.get(sid, 0)
            out.append(entry)
        return out

    def get(self, sid: str) -> Optional[Session]:
        return self._sessions.get(sid)

    def live_sessions(self) -> Dict[str, Session]:
        """A snapshot of the live-session table (loop thread only) —
        what the telemetry layer stitches Chrome traces from."""
        return dict(self._sessions)

    # -- acquisition ---------------------------------------------------

    async def acquire(self, sid: str) -> Session:
        """The live session for ``sid``, opening or resurrecting it if
        needed (and evicting to make room)."""
        session = self._sessions.get(sid)
        if session is not None:
            self._sessions.move_to_end(sid)
            return session
        pending = self._opening.get(sid)
        if pending is not None:
            return await asyncio.shield(pending)
        future: "asyncio.Future[Session]" = (
            asyncio.get_running_loop().create_future()
        )
        self._opening[sid] = future
        try:
            await self._evict_for_room()
            session = await asyncio.wrap_future(
                self.pool.submit(
                    sid,
                    lambda: Session.open(
                        sid,
                        self.config,
                        self.metrics.registry,
                        shipper=self.shipper,
                    ),
                )
            )
        except BaseException as exc:
            error = SessionOpError(f"opening session {sid!r} failed: {exc}")
            future.set_exception(error)
            # Nobody may be awaiting the duplicate-open future; don't
            # let its exception count as unretrieved.
            future.exception()
            if isinstance(exc, Exception):
                # The opener answers like its waiters (422 naming the
                # session); cancellation and exits pass through as-is.
                raise error from exc
            raise
        finally:
            self._opening.pop(sid, None)
        self._sessions[sid] = session
        if session.resurrected:
            self.metrics.resurrections.inc()
        else:
            self.metrics.sessions_created.inc()
        self.metrics.sessions_live.set(len(self._sessions))
        future.set_result(session)
        return session

    async def _evict_for_room(self) -> None:
        """Checkpoint-and-close idle LRU sessions until there is room."""
        await self._evict_down_to(self.config.max_live_sessions - 1)

    @property
    def over_limit(self) -> bool:
        """Did busy-session overflow leave more than ``max_live_sessions``
        resident?  The server schedules a :meth:`shrink` when so."""
        return len(self._sessions) > self.config.max_live_sessions

    async def shrink(self) -> None:
        """Evict overflow back down once sessions go idle.

        Opening never blocks on a busy victim — the live set transiently
        overflows instead — so the return path is this sweep, scheduled
        by the server as requests complete.  Deduplicated: one sweep at
        a time, later triggers piggyback on it.
        """
        if self._shrinking:
            return
        self._shrinking = True
        try:
            await self._evict_down_to(self.config.max_live_sessions)
        finally:
            self._shrinking = False

    async def _evict_down_to(self, target: int) -> None:
        while len(self._sessions) > target:
            victim_sid = None
            for sid in self._sessions:  # oldest first
                if self.inflight.get(sid, 0) == 0:
                    victim_sid = sid
                    break
            if victim_sid is None:
                return  # everyone is busy: overflow rather than block
            victim = self._sessions.pop(victim_sid)
            self.metrics.sessions_live.set(len(self._sessions))
            await asyncio.wrap_future(
                self.pool.submit(
                    victim_sid, lambda v=victim: v.close(reason="eviction")
                )
            )
            self.metrics.evictions.inc()

    # -- shutdown ------------------------------------------------------

    async def close_all(self) -> int:
        """Checkpoint and close every live session (graceful shutdown).

        Closes are submitted to each session's own worker, so they run
        after any still-draining operations of that session and
        concurrently across sessions.  Returns how many were closed.
        """
        victims = list(self._sessions.items())
        self._sessions.clear()
        self.metrics.sessions_live.set(0)
        futures = [
            asyncio.wrap_future(self.pool.submit(sid, session.close))
            for sid, session in victims
        ]
        if futures:
            await asyncio.gather(*futures)
        return len(victims)
