"""The correctness gate, run after the last repetition.

For every repetition:

* every set-up request succeeded;
* every served read equals the exhaustive :class:`SheetModel` value
  after the same tenant's earlier successful writes;
* each tenant's served ``dump`` equals the model's final grid and a
  serial replay of the tenant's served ``log`` on a fresh ``Runtime``;
* ``audit`` reports a sound graph for every tenant;
* ``shutdown`` drained and no thread the server started survived;
* on a replicated workload, the promoted standby's grids equal the
  primary's final grids.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .workloads import Plan, SheetModel

__all__ = ["compare_grids", "verify"]


def compare_grids(
    expected: Sequence[Sequence[Any]], actual: Sequence[Sequence[Any]], label: str
) -> List[str]:
    """Cell-by-cell differences between two grids, as messages."""
    if len(expected) != len(actual) or any(
        len(e) != len(a) for e, a in zip(expected, actual)
    ):
        return [f"{label}: grid shape differs"]
    return [
        f"{label} R{r}C{c}: expected {e!r}, got {a!r}"
        for r, (erow, arow) in enumerate(zip(expected, actual))
        for c, (e, a) in enumerate(zip(erow, arow))
        if e != a
    ]


def _result(text: str) -> Any:
    response = json.loads(text)
    return response.get("result") if response.get("ok") else None


def verify(plan: Plan, reps: List[Any]) -> List[str]:
    """Every correctness problem of a run (empty when it is correct)."""
    from repro.serve.loadgen import _replay_serially as replay

    w = plan.workload
    problems: List[str] = []
    # Repetitions replay one plan, so their logs are usually identical:
    # replay each distinct log once.
    replays: Dict[str, List[List[Any]]] = {}
    for index, rep in enumerate(reps):
        tag = f"rep {index}"
        problems += [
            f"{tag} set-up: {error}" for ok, error in rep.setup_outcomes if not ok
        ]
        models = {sid: SheetModel(w.rows, w.cols) for sid in plan.sids}
        stream = list(zip(plan.setup, rep.setup_outcomes))
        stream += list(zip(plan.closed + plan.open, rep.outcomes))
        for request, (ok, got) in stream:
            if not ok:
                continue
            model = models[request.sid]
            if request.op == "read":
                (row, col), = request.cells
                if got != model.value(row, col):
                    problems.append(
                        f"{tag} {request.sid} read R{row}C{col}: served {got!r}, "
                        f"exhaustive {model.value(row, col)!r}"
                    )
            else:
                for row, col, formula in request.cells:
                    model.set(row, col, formula)
        for sid in plan.sids:
            dump, log, audit = (_result(rep.dumps[sid]), _result(rep.logs[sid]),
                                _result(rep.audits[sid]))
            if dump is None or log is None or audit is None:
                problems.append(f"{tag} {sid}: verification requests failed")
                continue
            served = dump["values"]
            problems += compare_grids(models[sid].grid(), served, f"{tag} {sid} exhaustive")
            key = json.dumps(log["edits"])
            if key not in replays:
                replays[key] = replay(log["edits"], w.rows, w.cols)
            problems += compare_grids(replays[key], served, f"{tag} {sid} replay")
            if not audit["sound"]:
                problems.append(f"{tag} {sid}: audit {audit['violations'][:3]}")
            if rep.promoted is not None:
                promoted = json.loads(rep.promoted.get(sid, "[]"))
                problems += compare_grids(served, promoted, f"{tag} {sid} promoted")
        if not rep.shutdown.get("drained"):
            problems.append(f"{tag}: shutdown did not drain")
        if rep.leaked_threads:
            problems.append(f"{tag}: leaked threads {rep.leaked_threads}")
        if rep.promote_ok is False:
            problems.append(f"{tag}: promotion reported errors")
    return problems
