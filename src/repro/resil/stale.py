"""Degraded reads: serve the last-known-good value of a poisoned node.

Every poisoning retains the value it overwrote (see
``Poisoned.stale_value`` in :mod:`repro.core.node` — two slot writes,
always on, no policy required).  ``rt.read(target,
staleness=ALLOW_STALE)`` taps that retention: instead of surfacing a
``NodeExecutionError`` to the tenant, it returns the retained value
together with a typed :class:`StalenessInfo` saying *how* degraded the
answer is.  A node that poisoned before ever producing a value has
nothing to serve — the error is re-raised, because inventing a value
would be worse than failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core.errors import NodeExecutionError
from ..core.events import EventKind
from ..core.node import NO_VALUE

__all__ = ["ALLOW_STALE", "FRESH", "StalenessInfo", "read_with_info"]

#: ``staleness=`` modes for ``rt.read`` / ``rt.read_info``.
FRESH = "fresh"
ALLOW_STALE = "allow-stale"


@dataclass(frozen=True)
class StalenessInfo:
    """How trustworthy the value returned by a degraded read is.

    ``stale=False`` means the read was perfectly ordinary; the other
    fields are then ``None``.  ``stale=True`` means the node is
    currently poisoned and the value is its last known good one:
    ``origin`` names the node whose body failed, ``error`` is the
    original exception, and ``age_seconds`` is how long ago the value
    went stale (None if the poison predates this process).
    """

    stale: bool
    origin: Optional[str] = None
    error: Optional[BaseException] = None
    age_seconds: Optional[float] = None


_FRESH_INFO = StalenessInfo(False)


def read_with_info(runtime, target, *, staleness: str = FRESH):
    """``(value, StalenessInfo)`` for a Location or zero-arg callable.

    With ``staleness=ALLOW_STALE``, a poisoned target with retained
    history yields its last-known-good value and a ``stale=True`` info;
    the runtime emits a ``STALE_READ`` event so degraded serving is
    observable.  With no retained history (or ``FRESH``), the
    ``NodeExecutionError`` propagates unchanged.
    """
    if staleness not in (FRESH, ALLOW_STALE):
        raise ValueError(
            f"staleness must be FRESH ({FRESH!r}) or ALLOW_STALE "
            f"({ALLOW_STALE!r}), not {staleness!r}"
        )
    try:
        return _fetch(runtime, target), _FRESH_INFO
    except NodeExecutionError as exc:
        if staleness != ALLOW_STALE:
            raise
        poison = exc.poison
        stale_value = getattr(poison, "stale_value", NO_VALUE)
        if stale_value is NO_VALUE:
            raise  # never produced a good value: nothing to degrade to
        stamp = getattr(poison, "stamp", None)
        age = None if stamp is None else max(0.0, time.monotonic() - stamp)
        runtime._context.stats.stale_reads += 1
        runtime.events.emit(
            EventKind.STALE_READ,
            data={
                "label": exc.node_label,
                "origin": exc.origin,
                "age_seconds": age,
            },
        )
        return stale_value, StalenessInfo(True, exc.origin, exc.root, age)


def _fetch(runtime, target):
    # Local import: core must stay importable without the resil package
    # loaded, so this module depends on core and not the reverse.
    from ..core.runtime import Location

    if isinstance(target, Location):
        return runtime.on_read(target)
    if callable(target):
        return target()
    raise TypeError(
        f"rt.read() target must be a Location or a zero-argument "
        f"callable, not {type(target).__name__}"
    )
