"""CI recovery smoke: SIGKILL a spreadsheet process mid-drain, recover.

Two phases in one script:

* ``--child <path>``: build a spreadsheet with persistence attached,
  checkpoint it, make post-checkpoint formula edits (they reach only
  the WAL), then die — an actual ``SIGKILL`` delivered from inside an
  eager observer re-executing during the drain.
* parent (default): run the child under ``subprocess``, verify it died
  by signal, recover via :meth:`Spreadsheet.load`, and assert the
  recovered grid matches a fresh, never-crashed build of the same
  formula script.  Writes a machine-readable summary (the
  :class:`RecoveryReport` plus the value comparison) to
  ``recovery_report.json`` for the CI artifact.

Exit status 0 means every assertion held.

Usage::

    PYTHONPATH=src python scripts/recovery_smoke.py [report.json]
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys


FORMULAS = [
    (0, 0, "5"),
    (0, 1, "7"),
    (1, 0, "R0C0 + R0C1"),
    (1, 1, "SUM(R0C0:R1C0)"),
]
# Applied after the checkpoint: durable only through the WAL.
TAIL_EDITS = [
    (0, 0, "11"),
    (2, 0, "R1C1 + 1"),
]
# The final edit drives the eager observer to the value that kills the
# child mid-drain; committed and logged, never fully propagated.
KILL_EDIT = (0, 1, "30")
KILL_VALUE = 11 + 30  # R1C0 after the kill edit


def build_sheet(sheet, edits):
    for row, col, formula in edits:
        sheet.set_formula(row, col, formula)


def child(path: str) -> None:
    from repro import Runtime, cached, EAGER

    from repro.spreadsheet import Spreadsheet

    rt = Runtime()
    with rt.active():
        sheet = Spreadsheet(3, 3)
        build_sheet(sheet, FORMULAS)
        sheet.values()

        @cached(strategy=EAGER)
        def observer():
            value = sheet.value(1, 0)
            if value == KILL_VALUE:
                os.kill(os.getpid(), signal.SIGKILL)
            return value

        observer()
        rt.persist_to(path)
        sheet.save(path)
        build_sheet(sheet, TAIL_EDITS)
        rt.flush()
        build_sheet(sheet, [KILL_EDIT])
        rt.flush()
    raise SystemExit("unreachable: the drain should have died")


def parent(report_path: str) -> int:
    import tempfile

    from repro import Runtime
    from repro.persist.ids import fresh_id_space
    from repro.spreadsheet import Spreadsheet

    workdir = tempfile.mkdtemp(prefix="recovery-smoke-")
    state = os.path.join(workdir, "sheet.ckpt")
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", state],
        capture_output=True,
        text=True,
        timeout=300,
    )
    checks = {"child_killed": result.returncode == -signal.SIGKILL}
    if not checks["child_killed"]:
        print(f"child exited {result.returncode}, expected SIGKILL",
              file=sys.stderr)
        print(result.stderr, file=sys.stderr)

    loaded, report = Spreadsheet.load(state)
    with loaded.runtime.active():
        recovered = loaded.values()

    fresh_id_space()
    oracle_rt = Runtime()
    with oracle_rt.active():
        oracle = Spreadsheet(3, 3)
        build_sheet(oracle, FORMULAS)
        build_sheet(oracle, TAIL_EDITS)
        build_sheet(oracle, [KILL_EDIT])
        expected = oracle.values()

    checks["mode_not_degraded"] = report.mode != "degraded"
    checks["values_match_fresh_build"] = recovered == expected
    checks["invariants_clean"] = (
        loaded.runtime.check_invariants(raise_on_violation=False) == []
    )

    summary = {
        "ok": all(checks.values()),
        "checks": checks,
        "child_returncode": result.returncode,
        "recovered_values": recovered,
        "expected_values": expected,
        "recovery_report": report.to_dict(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"recovery smoke: mode={report.mode} "
        f"replayed={report.replayed} "
        f"restored={report.restored_nodes} nodes -> "
        f"{'OK' if summary['ok'] else 'FAILED'} (report: {report_path})"
    )
    for name, passed in sorted(checks.items()):
        print(f"  {name}: {'pass' if passed else 'FAIL'}")
    return 0 if summary["ok"] else 1


def main(argv) -> int:
    if len(argv) >= 2 and argv[1] == "--child":
        child(argv[2])
        return 2  # unreachable
    report_path = argv[1] if len(argv) >= 2 else "recovery_report.json"
    return parent(report_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
