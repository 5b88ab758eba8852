"""Serve tests fail when asyncio logs an error.

A callback that raised (such as a connection handler cancelled while
parked in a read) or a task whose exception nobody retrieved is only
logged by asyncio, never raised, so a test would pass over it.
"""

import gc
import logging

import pytest


class _ErrorRecords(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def fail_on_asyncio_errors():
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        # A never-retrieved task exception is logged when the task is
        # collected, and a finished task is often part of a cycle.
        gc.collect()
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged errors:\n"
            + "\n".join(handler.format(record) for record in handler.records)
        )
