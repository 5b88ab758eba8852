"""The layered engine: batched writes and the event bus.

Two additions the layering makes first-class:

* ``with rt.batch():`` — a burst of writes is coalesced per location and
  served by a single propagation drain at commit, the paper's §3.4
  "changes to many pointers ... are batched" as an explicit API;
* ``rt.events`` — every engine action is a typed event; the event ring
  (``rt.obs.flight``) is a subscriber, and span trees and the JSONL
  trace are views of it.

Run:  python examples/batch_and_events.py
"""

from collections import Counter

from repro import EventKind, Runtime
from repro.obs import WIDE_CAPACITY, FlightRecorder
from repro.trees import Tree, TreeNil, build_balanced
from repro.trees.height import collect_nodes


def main() -> None:
    rt = Runtime()
    with rt.active():
        leaf = TreeNil()
        root = build_balanced(1023, leaf)
        print(f"height(root)        = {root.height()}")

        # pick 32 bottom-level nodes to relink
        bottoms = [
            node
            for node in collect_nodes(root)
            if isinstance(node.field_cell("left").peek(), TreeNil)
        ][:32]

        # -- sequential: every write propagates on the next query -------
        before = rt.stats.snapshot()
        for node in bottoms[:16]:
            node.left = Tree(key=-1, left=leaf, right=leaf)
            root.height()
        seq = rt.stats.delta(before)["executions"]
        print(f"16 sequential writes: {seq} re-executions")

        # -- batched: one drain serves the whole burst -------------------
        before = rt.stats.snapshot()
        with rt.batch():
            for node in bottoms[16:]:
                node.left = Tree(key=-1, left=leaf, right=leaf)
        root.height()
        delta = rt.stats.delta(before)
        print(
            f"16 batched writes:    {delta['executions']} re-executions, "
            f"{delta['drains']} drain(s)"
        )

        # -- A -> B -> A inside a batch: no change at all ----------------
        changes = []
        handler = rt.events.subscribe(
            EventKind.CHANGE_DETECTED,
            lambda k, n, a, d: changes.append(n.label),
        )
        # A ring whose own kinds are every kind records the whole trace.
        trace = FlightRecorder(WIDE_CAPACITY, kinds=frozenset(EventKind))
        node = bottoms[0]
        relinked = node.field_cell("left").peek()
        trace.attach(rt.events)
        with rt.batch():
            node.left = leaf  # undo the relink...
            node.left = relinked  # ...and redo it before commit
        root.height()
        trace.detach()
        rt.events.unsubscribe(EventKind.CHANGE_DETECTED, handler)
        counts = Counter(record["kind"] for record in trace.records())
        print(
            f"undo+redo in one batch: {len(changes)} changes detected, "
            f"{counts['execution']} re-executions"
        )
        print(f"trace captured {len(trace)} events")


if __name__ == "__main__":
    main()
