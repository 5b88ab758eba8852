"""Checkpoint/WAL value codecs (repro.persist.codec)."""

import json

import pytest

from repro import Cell, Runtime, TrackedObject
from repro.core.node import Poisoned
from repro.persist.codec import CodecError, JsonCodec, PickleCodec, get_codec


class TestPickleCodec:
    def test_roundtrip(self):
        codec = PickleCodec()
        for value in (None, 42, "text", (1, 2), {"k": [1.5, b"raw"]}):
            assert codec.decode(codec.encode(value)) == value

    def test_tuples_survive(self):
        codec = PickleCodec()
        assert codec.decode(codec.encode((1, (2, 3)))) == (1, (2, 3))

    def test_refuses_live_locations(self):
        with pytest.raises(CodecError):
            PickleCodec().encode(Cell(1))

    def test_refuses_runtime_state_anywhere_inside_a_value(self):
        with Runtime().active():

            class Box(TrackedObject):
                n = 0

            with pytest.raises(CodecError):
                PickleCodec().encode({"inner": [Box()]})
            with pytest.raises(CodecError):
                PickleCodec().encode(Poisoned(ValueError("x"), "f()"))

    def test_unpicklable_value_raises_codec_error(self):
        with pytest.raises(CodecError):
            PickleCodec().encode(lambda: None)

    def test_garbled_payload_raises_codec_error(self):
        with pytest.raises(CodecError):
            PickleCodec().decode("not-base64-pickle!")


class TestJsonCodec:
    def test_roundtrip(self):
        codec = JsonCodec()
        for value in (None, 42, 1.5, "text", [1, 2], {"k": [True, None]}):
            assert codec.decode(codec.encode(value)) == value

    def test_tuples_decode_as_lists(self):
        codec = JsonCodec()
        assert codec.decode(codec.encode((1, 2))) == [1, 2]

    def test_non_json_value_raises_codec_error(self):
        with pytest.raises(CodecError):
            JsonCodec().encode(object())
        with pytest.raises(CodecError):
            JsonCodec().encode({1, 2})

    def test_garbled_payload_raises_codec_error(self):
        with pytest.raises(CodecError):
            JsonCodec().decode("{truncated")

    def test_encoding_is_byte_identical_to_json_dumps(self):
        codec = JsonCodec()
        for value in (
            None, True, 7, -2.5, float("inf"), "plain", "caf\u00e9 \u2713",
            [3, "b", None], {"z": 1, "a": {"y": [1.5], "b": "x"}},
        ):
            assert codec.encode(value) == json.dumps(value, sort_keys=True)


class TestRegistry:
    def test_codecs_resolve_by_name(self):
        assert get_codec("pickle").name == "pickle"
        assert get_codec("json").name == "json"

    def test_unknown_codec_raises_codec_error(self):
        with pytest.raises(CodecError):
            get_codec("msgpack")
