"""Durable incremental state: checkpoints, WAL, crash recovery.

``repro.persist`` gives the dependency graph a recoverable on-disk
representation:

* :mod:`repro.persist.ids` — stable identities for locations and
  procedure instances (the naming layer everything else builds on).
* :mod:`repro.persist.codec` — the value codec: JSON, accepting only
  values that decode back equal and of the same type.
* :mod:`repro.persist.snapshot` — versioned, atomically written
  checkpoint snapshots of the full graph.
* :mod:`repro.persist.wal` — CRC-guarded write-ahead log of committed
  writes plus the :class:`PersistenceManager` that ties WAL and
  checkpoints to a live Runtime via EventBus hooks.
* :mod:`repro.persist.recover` — ``recover(path)`` and the typed
  :class:`RecoveryReport` (clean / replayed / degraded).

Submodules are loaded lazily (PEP 562): ``core.runtime`` imports the
pure ``ids`` module at startup, while ``snapshot``/``wal``/``recover``
import core modules — eager imports here would be a cycle.
"""

from __future__ import annotations

_LAZY = {
    "fingerprint": "ids",
    "fresh_id_space": "ids",
    "instance_sid": "ids",
    "next_location_sid": "ids",
    "CodecError": "codec",
    "JsonCodec": "codec",
    "CheckpointCorrupt": "snapshot",
    "read_checkpoint": "snapshot",
    "write_checkpoint": "snapshot",
    "PersistenceManager": "wal",
    "WalScan": "wal",
    "WriteAheadLog": "wal",
    "RecoveryReport": "recover",
    "RestoredFault": "recover",
    "recover": "recover",
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{modname}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
