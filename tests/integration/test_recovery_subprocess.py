"""Recovery from a real process death: a child process is SIGKILLed in
the middle of an eager drain, and the parent recovers its durable state.

This is the end-to-end version of the in-process CrashPoint scenarios:
no simulated exception, an actual ``SIGKILL`` delivered from inside a
re-executing procedure body, so the WAL's flush-per-append durability
claim is exercised against genuine process death.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Cell, EAGER, Runtime, cached
from repro.persist.ids import fresh_id_space
from repro.persist.recover import recover

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="needs POSIX signals"
)

_SRC = Path(__file__).resolve().parents[2] / "src"

# The child: checkpoint at total == 3, commit one surviving write, then
# die — for real — inside the eager drain triggered by the second write.
_CHILD = """
import os, signal, sys

from repro import Cell, EAGER, Runtime, cached

path = sys.argv[1]
rt = Runtime()
with rt.active():
    a = Cell(1, label="a")
    b = Cell(2, label="b")

    @cached(strategy=EAGER)
    def total():
        value = a.get() + b.get()
        if value == 99:
            os.kill(os.getpid(), signal.SIGKILL)
        return value

    assert total() == 3
    manager = rt.persist_to(path)
    manager.checkpoint()
    a.set(10)
    rt.flush()
    assert total() == 12
    a.set(97)   # logged; the eager re-execution then kills the process
    rt.flush()
raise SystemExit("unreachable: the drain should have died")
"""


def test_sigkill_mid_drain_recovers_committed_state(tmp_path):
    path = str(tmp_path / "state")
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run(
        [sys.executable, str(script), path],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == -signal.SIGKILL, result.stderr

    fresh_id_space()
    rt, report = recover(path, restore_values=True)
    assert report.mode == "replayed"
    assert not report.dropped_tail  # both appends fully flushed pre-kill
    assert report.replayed == 2
    with rt.active():
        a = Cell(1, label="a")
        b = Cell(2, label="b")

        @cached(strategy=EAGER)
        def total():
            return a.get() + b.get()

        # Both committed writes (a=10, then a=97) survived the kill; the
        # recovered value is what the dying drain never got to produce.
        assert total() == 99
        assert a.peek() == 97
    assert rt.check_invariants(raise_on_violation=False) == []

    # Oracle: a fresh, never-crashed build of the final state agrees.
    fresh_id_space()
    oracle = Runtime()
    with oracle.active():
        a = Cell(97, label="a")
        b = Cell(2, label="b")

        @cached
        def total():
            return a.get() + b.get()

        assert total() == 99
