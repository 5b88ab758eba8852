"""The checkpoint/WAL value codec (repro.persist.codec): JSON with a
strict round trip."""

import enum
import json

import pytest

from repro import Cell, Runtime, TrackedObject, cached
from repro.core.node import Poisoned
from repro.persist.codec import CodecError, JsonCodec
from repro.persist.ids import fresh_id_space


class _Level(enum.IntEnum):
    LOW = 1


class _Label(str):
    pass


class TestJsonCodec:
    def test_roundtrip(self):
        codec = JsonCodec()
        for value in (None, 42, 1.5, "text", [1, 2], {"k": [True, None]}):
            assert codec.decode(codec.encode(value)) == value

    def test_tuples_are_refused(self):
        """JSON has no tuple: ``(1, 2)`` would come back as ``[1, 2]``."""
        codec = JsonCodec()
        with pytest.raises(CodecError):
            codec.encode((1, 2))
        with pytest.raises(CodecError):
            codec.encode([1, {"pair": (2, 3)}])

    @pytest.mark.parametrize(
        "value",
        [
            {1: "a"},  # the key would come back as "1"
            _Level.LOW,  # decodes as a plain int
            _Label("x"),  # decodes as a plain str
            float("nan"),  # decodes unequal to itself
        ],
        ids=repr,
    )
    def test_refuses_values_that_would_not_read_back_as_they_were(self, value):
        with pytest.raises(CodecError):
            JsonCodec().encode(value)

    def test_non_json_value_raises_codec_error(self):
        with pytest.raises(CodecError):
            JsonCodec().encode(object())
        with pytest.raises(CodecError):
            JsonCodec().encode({1, 2})
        with pytest.raises(CodecError):
            JsonCodec().encode(lambda: None)

    def test_refuses_live_locations(self):
        with pytest.raises(CodecError):
            JsonCodec().encode(Cell(1))

    def test_refuses_runtime_state_anywhere_inside_a_value(self):
        with Runtime().active():

            class Box(TrackedObject):
                n = 0

            with pytest.raises(CodecError):
                JsonCodec().encode({"inner": [Box()]})
            with pytest.raises(CodecError):
                JsonCodec().encode(Poisoned(ValueError("x"), "f()"))

    def test_circular_value_raises_codec_error(self):
        loop = []
        loop.append(loop)
        with pytest.raises(CodecError):
            JsonCodec().encode(loop)

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


class TestValuesComeBackAsComputed:
    def test_cached_tuple_is_recomputed_not_restored_as_a_list(self, tmp_path):
        """A value JSON cannot carry is left out of the checkpoint, so
        the recovered program recomputes it (1 execution) instead of
        reading back ``[3, 4]`` from the cache (0 executions)."""
        path = str(tmp_path / "state")

        def program():
            x = Cell(3, label="x")

            @cached
            def pair():
                return (x.get(), 4)

            return pair

        fresh_id_space()
        rt = Runtime()
        with rt.active():
            assert program()() == (3, 4)
            rt.checkpoint(path)

        fresh_id_space()
        rt2 = Runtime.recover(path)
        assert rt2.last_recovery.mode == "clean"
        with rt2.active():
            value = program()()
        assert value == (3, 4)
        assert type(value) is tuple
        assert rt2.stats.executions == 1
        assert rt2.check_invariants(raise_on_violation=False) == []
