"""Graph inspector: snapshot the dependency graph, export, and diff.

Adapton-style systems treat the demanded-computation graph as the
natural unit of explanation; this module makes the Alphonse graph a
first-class inspectable artifact.  :meth:`GraphSnapshot.capture` records
every node's kind, consistency, cached-value state (poisoned / valued /
empty), dependency height, partition, and edges — *without* touching
the runtime (no events are emitted; the union-find is walked read-only,
so inspection never perturbs the operation counters it sits beside).

Exports: :meth:`~GraphSnapshot.to_json` (machine-readable),
:meth:`~GraphSnapshot.to_dot` (Graphviz; dirty nodes red, poisoned
purple, storage ellipses, procedures boxes).  :meth:`~GraphSnapshot.diff`
compares two snapshots of one runtime — what appeared, what vanished,
which nodes flipped consistency or got re-valued — the before/after
view of a propagation pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.node import DepNode, Poisoned
from ..core.order import exact_height

__all__ = ["GraphSnapshot", "SnapshotDiff"]


def _partition_root(node: DepNode) -> Optional[Any]:
    """The node's union-find root item, found without path compression
    or events (read-only: inspection must not perturb the counters)."""
    item = node.partition_item
    if item is None:
        return None
    while item.parent is not item:
        item = item.parent
    return item


class GraphSnapshot:
    """An immutable point-in-time view of one runtime's graph."""

    def __init__(
        self, nodes: List[Dict[str, Any]], edges: List[Tuple[int, int]]
    ) -> None:
        #: Node dicts keyed by the fields documented in :meth:`capture`.
        self.nodes = nodes
        #: ``(src_node_id, dst_node_id)`` pairs.
        self.edges = edges
        self._by_id = {n["id"]: n for n in nodes}

    @classmethod
    def capture(cls, runtime: Any) -> "GraphSnapshot":
        """Snapshot ``runtime``'s live graph.

        Each node dict has: ``id`` (stable ``node_id``), ``label``,
        ``kind`` (storage/demand/eager), ``consistent``, ``pending``
        (in its inconsistent set), ``height`` (longest pred-path from
        storage), ``partition`` (the engine's stable partition id —
        the same id tagged on drain events and spans — shared by
        connected nodes; None when partitioning is off), ``poisoned``,
        and ``has_value``.  A disposed node (cache eviction) is no
        longer live and is not listed.
        """
        live = runtime.graph.nodes
        heights: Dict[int, int] = {}
        for node in live:
            exact_height(node, heights)
        part_ids: Dict[int, int] = {}
        nodes: List[Dict[str, Any]] = []
        edges: List[Tuple[int, int]] = []
        for node in live:
            root = _partition_root(node)
            if root is None:
                part = None
            elif root.payload is not None:
                # The scheduler's pid: stable across snapshots of one
                # runtime, so diffs report real partition changes.
                part = root.payload.pid
            else:
                key = id(root)
                if key not in part_ids:
                    part_ids[key] = len(part_ids)
                part = part_ids[key]
            nodes.append(
                {
                    "id": node.node_id,
                    "label": node.label,
                    "kind": node.kind.value,
                    "consistent": node.consistent,
                    "pending": node.in_inconsistent_set,
                    "height": heights.get(id(node), 0),
                    "partition": part,
                    "poisoned": type(node.value) is Poisoned,
                    "has_value": node.has_value(),
                }
            )
            for succ in node.succ:
                edges.append((node.node_id, succ.node_id))
        edges.sort()
        return cls(nodes, edges)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Optional[Dict[str, Any]]:
        return self._by_id.get(node_id)

    def find(self, label_fragment: str) -> List[Dict[str, Any]]:
        """Nodes whose label contains ``label_fragment``."""
        return [n for n in self.nodes if label_fragment in n["label"]]

    # -- export ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": self.nodes,
                "edges": [list(edge) for edge in self.edges],
            },
            sort_keys=True,
        )

    def to_dot(self, max_nodes: int = 2000) -> str:
        """Graphviz DOT: procedures boxed, dirty red, poisoned purple;
        the label carries height and partition."""
        lines = ["digraph alphonse {", "  rankdir=LR;"]
        shown = self.nodes[:max_nodes]
        shown_ids = {n["id"] for n in shown}
        for n in shown:
            shape = "ellipse" if n["kind"] == "storage" else "box"
            if n["poisoned"]:
                color = "purple"
            elif not n["consistent"] or n["pending"]:
                color = "red"
            else:
                color = "black"
            part = (
                f" p{n['partition']}" if n["partition"] is not None else ""
            )
            label = f"{n['label']}\\nh={n['height']}{part}"
            lines.append(
                f'  n{n["id"]} [label="{label}", shape={shape}, '
                f"color={color}];"
            )
        for src, dst in self.edges:
            if src in shown_ids and dst in shown_ids:
                lines.append(f"  n{src} -> n{dst};")
        if len(self.nodes) > max_nodes:
            lines.append(
                f'  more [label="... {len(self.nodes) - max_nodes} more '
                f'nodes", shape=plaintext];'
            )
        lines.append("}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Write DOT or JSON depending on the path's extension."""
        text = self.to_json() if path.endswith(".json") else self.to_dot()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    # -- diffing ---------------------------------------------------------

    def diff(self, later: "GraphSnapshot") -> "SnapshotDiff":
        """What changed between this snapshot and ``later``."""
        added = [n for n in later.nodes if n["id"] not in self._by_id]
        removed = [n for n in self.nodes if n["id"] not in later._by_id]
        changed: List[Dict[str, Any]] = []
        for n in later.nodes:
            old = self._by_id.get(n["id"])
            if old is None:
                continue
            fields_changed = {
                key: (old[key], n[key])
                for key in (
                    "consistent",
                    "pending",
                    "poisoned",
                    "has_value",
                    "height",
                    "partition",
                )
                if old[key] != n[key]
            }
            if fields_changed:
                changed.append(
                    {"id": n["id"], "label": n["label"], **fields_changed}
                )
        old_edges = set(self.edges)
        new_edges = set(later.edges)
        return SnapshotDiff(
            added=added,
            removed=removed,
            changed=changed,
            edges_added=sorted(new_edges - old_edges),
            edges_removed=sorted(old_edges - new_edges),
        )


@dataclass
class SnapshotDiff:
    """Before/after comparison of two :class:`GraphSnapshot`\\ s."""

    added: List[Dict[str, Any]] = field(default_factory=list)
    removed: List[Dict[str, Any]] = field(default_factory=list)
    changed: List[Dict[str, Any]] = field(default_factory=list)
    edges_added: List[Tuple[int, int]] = field(default_factory=list)
    edges_removed: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.added
            or self.removed
            or self.changed
            or self.edges_added
            or self.edges_removed
        )

    def render(self) -> str:
        if self.empty:
            return "(no graph changes)"
        lines: List[str] = []
        for n in self.added:
            lines.append(f"+ node {n['label']} ({n['kind']})")
        for n in self.removed:
            lines.append(f"- node {n['label']} ({n['kind']})")
        for c in self.changed:
            details = ", ".join(
                f"{key}: {change[0]!r} -> {change[1]!r}"
                for key, change in c.items()
                if key not in ("id", "label")
            )
            lines.append(f"~ node {c['label']}: {details}")
        if self.edges_added:
            lines.append(f"+ {len(self.edges_added)} edge(s)")
        if self.edges_removed:
            lines.append(f"- {len(self.edges_removed)} edge(s)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
