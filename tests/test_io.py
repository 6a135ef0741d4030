"""Unit tests for JSON serialization."""

import io as stdio
import json

import pytest

from repro.io import (
    SerializationError,
    complex_from_json,
    complex_to_json,
    decode_value,
    encode_value,
    load_task,
    save_task,
    task_from_json,
    task_to_json,
)
from repro.splitting import link_connected_form
from repro.splitting.deformation import SplitValue
from repro.tasks.canonical import canonicalize
from repro.topology.simplex import Simplex, Vertex
from repro.topology.subdivision import Barycenter


class TestValueRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            2.5,
            "text",
            Vertex(1, "x"),
            Simplex([Vertex(0, "a"), Vertex(1, "b")]),
            SplitValue("v", 2),
            SplitValue(SplitValue("v", 0), 1),
            ("a", 1, None),
            frozenset({"p", "q"}),
            Barycenter(Simplex(["a", "b"])),
            Vertex(0, ("in", "out")),
            Vertex(2, Simplex([Vertex(0, "nested")])),
        ],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_json_serializable(self):
        payload = encode_value(Vertex(0, Simplex([Vertex(1, ("deep", 3))])))
        assert json.loads(json.dumps(payload)) == payload

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            decode_value({"$": "martian"})


class TestComplexRoundtrip:
    def test_plain(self, disk):
        assert complex_from_json(complex_to_json(disk)) == disk

    def test_chromatic_class_preserved(self, triangle_complex):
        back = complex_from_json(complex_to_json(triangle_complex))
        assert back == triangle_complex
        from repro.topology.chromatic import ChromaticComplex

        assert isinstance(back, ChromaticComplex)

    def test_name_preserved(self, triangle_complex):
        back = complex_from_json(complex_to_json(triangle_complex))
        assert back.name == triangle_complex.name

    def test_bad_payload(self):
        with pytest.raises(SerializationError):
            complex_from_json({"$": "task"})


class TestTaskRoundtrip:
    @pytest.mark.parametrize(
        "fixture", ["hourglass", "pinwheel", "majority", "figure3", "identity3"]
    )
    def test_zoo_roundtrip(self, fixture, request):
        task = request.getfixturevalue(fixture)
        back = task_from_json(task_to_json(task))
        assert back == task

    def test_split_task_roundtrip(self, hourglass):
        split = link_connected_form(hourglass).task
        back = task_from_json(task_to_json(split))
        assert back == split

    def test_canonical_task_roundtrip(self, majority):
        star = canonicalize(majority).task
        back = task_from_json(task_to_json(star))
        assert back == star

    def test_file_roundtrip(self, hourglass, tmp_path):
        path = str(tmp_path / "task.json")
        save_task(hourglass, path)
        assert load_task(path) == hourglass

    def test_stream_roundtrip(self, pinwheel):
        buf = stdio.StringIO()
        save_task(pinwheel, buf)
        buf.seek(0)
        assert load_task(buf) == pinwheel

    def test_verdict_stable_after_roundtrip(self, hourglass):
        from repro.solvability import decide_solvability

        back = task_from_json(task_to_json(hourglass))
        assert decide_solvability(back).solvable is False
