"""The value codec for checkpoint snapshots and WAL records: JSON.

A codec turns a cached value into a text payload and back.  There is
one, :class:`JsonCodec` (name ``"json"``, recorded in every checkpoint
payload), and its round trip is strict: it encodes only values that
decode back equal and of the same type —

* ``None``, ``bool``, ``int``, ``str``, and ``float`` other than NaN,
  each of exactly that type (a subclass would decode as its base);
* ``list`` of such values;
* ``dict`` with ``str`` keys and such values.

Anything else — tuples and sets (JSON would hand back a list or
nothing), non-``str`` dict keys (they would come back as strings),
live runtime objects (locations, tracked objects, dependency nodes,
poison wrappers) — raises :class:`CodecError`, which the snapshot and
WAL layers treat as "value not persistable": drop the node, or write a
fingerprint-only record, so the value is recomputed rather than
restored in a different shape.  Decoding never runs code: a payload is
parsed as JSON and nothing else.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["CODEC", "CodecError", "JsonCodec"]


class CodecError(Exception):
    """A value cannot be encoded (or decoded) by the codec.

    Persistence layers treat this as "value not persistable", never as
    a fatal error.
    """


#: Built once: ``json.dumps`` with keyword arguments constructs a new
#: encoder on every call.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)

_SCALARS = frozenset((type(None), bool, int, str))


def _check(value: Any, depth: int = 0) -> None:
    """Raise :class:`CodecError` unless ``value`` round-trips exactly."""
    kind = type(value)
    if kind in _SCALARS:
        return
    if kind is float:
        if value != value:
            raise CodecError("NaN does not decode back equal")
        return
    if depth > 200:
        # Bounded so a value that contains itself raises CodecError,
        # which callers handle, rather than RecursionError.
        raise CodecError("value nests too deeply to encode")
    if kind is list:
        for item in value:
            _check(item, depth + 1)
        return
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise CodecError(
                    f"dict key {key!r} would decode as a string"
                )
            _check(item, depth + 1)
        return
    raise CodecError(f"{kind.__name__} value does not round-trip through JSON")


class JsonCodec:
    name = "json"

    def encode(self, value: Any) -> str:
        _check(value)
        try:
            return _JSON_ENCODER.encode(value)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"value is not JSON-safe: {exc}") from exc

    def decode(self, text: str) -> Any:
        try:
            return json.loads(text)
        except ValueError as exc:
            raise CodecError(f"undecodable JSON payload: {exc}") from exc


#: The instance the snapshot, WAL and recovery layers share; its name
#: is recorded in every checkpoint.
CODEC = JsonCodec()
