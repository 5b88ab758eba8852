"""Exhaustive EventKind <-> observability mapping.

Every event the engine can emit must either announce a stats counter
(the kind→counter table in ``tests/counting.py``) or be consumed by at
least one observability layer — a view of the event ring (span trees,
the flight view) or the metrics collector — or be explicitly exempted
below with a reason.  Explain chains consume no event: they read the
causal stamps the kernel writes on nodes.  Adding an EventKind without
wiring it (or exempting it) fails this test: that is the point.
"""

from repro.core.events import EventKind
from repro.obs import FlightRecorder, RuntimeMetrics
from repro.obs.spans import KINDS as SPAN_KINDS

from ..counting import COUNTED_KINDS, SPAN_OPEN_KINDS

#: Kinds deliberately not consumed by any observability layer.
#: Every entry needs a reason; an empty dict means full coverage.
EXEMPT = {
    # (none — every kind is currently wired)
}


def test_every_event_kind_is_observed():
    covered = (
        COUNTED_KINDS
        | SPAN_KINDS
        | FlightRecorder.DEFAULT_KINDS
        | RuntimeMetrics.KINDS
        | frozenset(EXEMPT)
    )
    missing = sorted(k.name for k in EventKind if k not in covered)
    assert not missing, (
        f"EventKind(s) with no observability wiring: {missing}. "
        f"Count them (tests/counting.py), consume them in a view of the "
        f"ring (spans/flight) or in the metrics collector, or "
        f"add them to EXEMPT in {__file__} with a reason."
    )


def test_exemptions_are_real_kinds():
    for kind in EXEMPT:
        assert isinstance(kind, EventKind)
        assert EXEMPT[kind], f"exemption for {kind} needs a reason string"


def test_span_open_kinds_all_have_closers():
    """Every begin event the engine emits is closed by some end event the
    span fold knows, so spans cannot leak by construction."""
    from repro.obs.spans import _CLOSE_ROLES, _OPEN_ROLES

    assert frozenset(_OPEN_ROLES) == SPAN_OPEN_KINDS
    open_roles = set(_OPEN_ROLES.values())
    close_roles = set(_CLOSE_ROLES.values())
    assert open_roles == close_roles


def test_stats_covers_span_end_for_every_open_kind():
    """SPAN_OPEN_KINDS are begin markers: they carry no count of their
    own (the paired end event is counted), but the span fold must
    consume them — otherwise they'd be dead weight on the bus."""
    for kind in SPAN_OPEN_KINDS:
        assert kind in SPAN_KINDS
