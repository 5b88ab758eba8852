"""Shared benchmark fixtures."""

import sys
import time

import pytest

from repro import Runtime

from .tableio import note_timing

sys.setrecursionlimit(200_000)


@pytest.fixture(autouse=True)
def _record_wall_time(request):
    """Time every benchmark test and persist it for BENCH_core.json."""
    start = time.perf_counter()
    yield
    note_timing(request.node.nodeid, time.perf_counter() - start)


@pytest.fixture
def rt():
    runtime = Runtime()
    with runtime.active():
        yield runtime
