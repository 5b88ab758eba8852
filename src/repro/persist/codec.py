"""Value codecs for checkpoint snapshots and WAL records.

A codec turns a cached value into a text payload and back.  Two are
built in:

* :class:`PickleCodec` (name ``"pickle"``) — the default.  Handles
  arbitrary picklable Python values, but *refuses* to serialize live
  runtime objects (locations, tracked objects, dependency nodes,
  poison wrappers): persisting those by value would smuggle stale
  graph state past the stable-id layer.  Refusal raises
  :class:`CodecError`, which the snapshot/WAL layers treat as "value
  not persistable" (drop the node / fingerprint-only record) — never
  as a hard failure.

* :class:`JsonCodec` (name ``"json"``) — the JSON-safe subset used by
  the spreadsheet and lang layers, whose observable values are
  numbers/strings/None.  Caveat: JSON has no tuple, so tuples decode
  as lists; layers choosing this codec must not depend on tuple-ness
  of restored values.

Checkpoint files record the codec name in their header, so a reader
never guesses.
"""

from __future__ import annotations

import base64
import io
import json
import pickle
from typing import Any

__all__ = ["CodecError", "JsonCodec", "PickleCodec", "get_codec"]


class CodecError(Exception):
    """A value cannot be encoded (or decoded) by the chosen codec.

    Persistence layers treat this as "value not persistable", never as
    a fatal error.
    """


class _StrictPickler(pickle.Pickler):
    """Pickler that refuses live runtime objects.

    ``persistent_id`` is called for every object the pickler visits, so
    this vetoes runtime state anywhere inside a value, not just at the
    top level.
    """

    def persistent_id(self, obj: Any):
        from repro.core.cells import TrackedObject
        from repro.core.node import DepNode, Poisoned
        from repro.core.runtime import Location

        if isinstance(obj, (TrackedObject, Location, DepNode, Poisoned)):
            raise CodecError(
                f"refusing to pickle live runtime object {type(obj).__name__}; "
                "persist stable ids, not object graphs"
            )
        return None


class PickleCodec:
    name = "pickle"

    def encode(self, value: Any) -> str:
        buffer = io.BytesIO()
        try:
            _StrictPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"unpicklable value: {exc}") from exc
        return base64.b64encode(buffer.getvalue()).decode("ascii")

    def decode(self, text: str) -> Any:
        try:
            return pickle.loads(base64.b64decode(text.encode("ascii")))
        except Exception as exc:
            raise CodecError(f"undecodable pickle payload: {exc}") from exc


#: Built once: ``json.dumps`` with keyword arguments constructs a new
#: encoder on every call.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)


class JsonCodec:
    name = "json"

    def encode(self, value: Any) -> str:
        try:
            return _JSON_ENCODER.encode(value)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"value is not JSON-safe: {exc}") from exc

    def decode(self, text: str) -> Any:
        try:
            return json.loads(text)
        except ValueError as exc:
            raise CodecError(f"undecodable JSON payload: {exc}") from exc


_CODECS = {cls.name: cls for cls in (PickleCodec, JsonCodec)}


def get_codec(name: str):
    """Instantiate the codec registered under ``name``."""
    try:
        return _CODECS[name]()
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None
