"""Versioned, atomically-written checkpoint snapshots of the graph.

A checkpoint captures everything §4's dependency graph accumulates —
nodes, edges, cached values, consistency and pending flags, poison —
keyed by the stable ids of :mod:`repro.persist.ids`, so a restarted
process can adopt the graph instead of rebuilding it.

File format (version 1)::

    ALPHONSE-CKPT v1 <crc32:08x> <payload-bytes>\\n
    <canonical-JSON payload>

The header's CRC and byte count guard the payload; any mismatch raises
:class:`CheckpointCorrupt`, which ``recover()`` turns into degraded
mode — never a crash.  The file is written to a temp sibling, fsynced,
and atomically renamed into place, so readers only ever see a complete
old or a complete new checkpoint.

What is *not* persisted: thunks (procedure bodies are re-attached by
the reconstructed program at first call), live exception objects
(poison is stored as an ``{error, origin}`` marker), and any node whose
identity or value cannot be captured — such nodes are dropped together
with their transitive successors (successors are always procedure
nodes, so the reconstructed program simply recomputes them).  Dropping
is always sound; adoption is only ever an optimization.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import RuntimeStateError
from ..core.node import DepNode, NodeKind, Poisoned
from .codec import CODEC, CodecError
from .ids import fingerprint, instance_sid

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointCorrupt",
    "read_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_MAGIC = "ALPHONSE-CKPT"
CHECKPOINT_VERSION = 1


class CheckpointCorrupt(Exception):
    """A checkpoint file is missing, garbled, or fails its CRC.

    ``recover()`` catches this and degrades; it only escapes to callers
    using :func:`read_checkpoint` directly.
    """


def write_checkpoint(
    rt: Any,
    path: str,
    *,
    app_state: Any = None,
    crash_hook: Optional[Callable[[str], None]] = None,
) -> int:
    """Snapshot ``rt``'s dependency graph to ``path``; returns the
    number of nodes persisted.

    Requires quiescence (no executing procedure, no active drain —
    pending *marks* are fine, they are part of the state).  Persists
    the graph's live nodes in creation order.  ``app_state`` is an opaque
    JSON-able blob stored alongside the graph for application layers
    (the spreadsheet stores its dimensions and formula sources).

    ``crash_hook`` is a test seam: called with the temp-file path after
    the payload is durable but *before* the atomic rename, where a
    simulated crash must leave the previous checkpoint intact.
    """
    if any(ctx.stack for ctx in rt._contexts):
        raise RuntimeStateError(
            "cannot checkpoint while a procedure is executing"
        )
    if rt.scheduler.active or rt.partitions.any_active():
        raise RuntimeStateError("cannot checkpoint during a drain")
    nodes = rt.graph.nodes

    # Stable ids for procedure nodes come from the argument tables (the
    # node itself does not know its args).
    proc_sids: Dict[int, Optional[str]] = {}
    for table in rt._tables.values():
        for args, node in table.items():
            proc = node.ref
            name = getattr(proc, "name", None)
            proc_sids[id(node)] = instance_sid(name, args) if name else None

    records: Dict[int, Dict[str, Any]] = {}
    unkeepable: List[DepNode] = []
    holders: Dict[str, DepNode] = {}
    for node in nodes:
        record = _record_for(node, proc_sids)
        if record is None:
            unkeepable.append(node)
            continue
        prev = holders.get(record["sid"])
        if prev is not None:
            # One durable identity minted by two live structures: the
            # snapshot cannot tell which one a reconstruction would
            # recreate, so neither is adoptable.  Drop every holder
            # (plus dependents, below) — recomputed, never stale.
            unkeepable.append(node)
            unkeepable.append(prev)
            records.pop(id(prev), None)
            continue
        holders[record["sid"]] = node
        records[id(node)] = record

    # Transitive successor closure of every dropped node: a kept node
    # must never silently lose an input, or a later write to that input
    # would create a fresh storage node with no edge to it.
    dropped = {id(n) for n in unkeepable}
    queue = list(unkeepable)
    while queue:
        node = queue.pop()
        for succ in node.succ:
            if id(succ) not in dropped:
                dropped.add(id(succ))
                records.pop(id(succ), None)
                queue.append(succ)

    kept = [n for n in nodes if id(n) in records]
    index = {id(n): i for i, n in enumerate(kept)}
    edges: List[Tuple[int, int]] = []
    for node in kept:
        src = index[id(node)]
        for succ in node.succ:
            dst = index.get(id(succ))
            if dst is not None:
                edges.append((src, dst))

    payload = {
        "version": CHECKPOINT_VERSION,
        "codec": CODEC.name,
        "app_state": app_state,
        "nodes": [records[id(n)] for n in kept],
        "edges": sorted(edges),
    }
    _atomic_write(path, payload, crash_hook)
    return len(kept)


def _record_for(
    node: DepNode,
    proc_sids: Dict[int, Optional[str]],
) -> Optional[Dict[str, Any]]:
    """The node's snapshot record, or None if it cannot be kept."""
    value = node.value
    poison = None
    encoded = None
    has_value = node.has_value()
    if node.kind is NodeKind.STORAGE:
        location = node.ref
        sid = getattr(location, "_sid", None)
        if not isinstance(sid, str):
            return None
        # The location's stored value is the truth the graph mirrors.
        live = getattr(location, "_value", None)
        fp = fingerprint(live)
        try:
            encoded = CODEC.encode(live)
            has_value = True
        except CodecError:
            encoded = None
            has_value = False  # bind falls back to the fingerprint
    else:
        sid = proc_sids.get(id(node))
        if sid is None:
            return None
        fp = None
        if type(value) is Poisoned:
            poison = {
                "error": type(value.error).__name__,
                "origin": value.origin,
            }
        elif has_value:
            try:
                encoded = CODEC.encode(value)
            except CodecError:
                if node.consistent:
                    # A consistent procedure node must carry its value
                    # (callers would be answered from it); unencodable
                    # means the node cannot be kept.
                    return None
                has_value = False
    return {
        "sid": sid,
        "kind": node.kind.value,
        "label": node.label,
        "consistent": node.consistent,
        "pending": node.in_inconsistent_set,
        "has_value": has_value,
        "value": encoded,
        "poison": poison,
        "fp": fp,
        "static_edges": node.static_edges,
        "edges_frozen": node.edges_frozen,
    }


def _atomic_write(
    path: str, payload: Dict[str, Any], crash_hook: Optional[Callable[[str], None]]
) -> None:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    header = (
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} "
        f"{zlib.crc32(body) & 0xFFFFFFFF:08x} {len(body)}\n"
    ).encode("ascii")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    if crash_hook is not None:
        crash_hook(tmp)
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _fsync_dir(dirname: str) -> None:
    """Make the rename itself durable (best effort off POSIX)."""
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Parse and CRC-verify the checkpoint at ``path``.

    Raises :class:`CheckpointCorrupt` on a missing file, unknown
    format/version, byte-count mismatch, CRC mismatch, or garbled JSON.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise CheckpointCorrupt(f"unreadable checkpoint: {exc}") from exc
    parts = header.decode("ascii", "replace").split()
    if len(parts) != 4 or parts[0] != CHECKPOINT_MAGIC:
        raise CheckpointCorrupt("bad checkpoint header")
    if parts[1] != f"v{CHECKPOINT_VERSION}":
        raise CheckpointCorrupt(f"unsupported checkpoint version {parts[1]}")
    try:
        crc = int(parts[2], 16)
        length = int(parts[3])
    except ValueError:
        raise CheckpointCorrupt("bad checkpoint header") from None
    if len(body) != length:
        raise CheckpointCorrupt(
            f"checkpoint truncated: expected {length} payload bytes, "
            f"found {len(body)}"
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointCorrupt("checkpoint payload fails CRC")
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointCorrupt(f"checkpoint payload is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise CheckpointCorrupt("checkpoint payload malformed")
    return payload
