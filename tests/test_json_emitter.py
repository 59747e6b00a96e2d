"""The package's one JSON writer against the standard library encoder:
every text it writes must equal ``json.dumps(obj, indent=2,
sort_keys=True)`` plus a newline, byte for byte."""

from __future__ import annotations

import dataclasses
import datetime
import enum
import io
import json
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightgroupoid as tg
from tightgroupoid import report

NINE_FIXTURES = ("I2", "B2", "Z2z", "E4", "In(3)", "In(4)", "Bn(8)", "Pow(5)",
                 "Cz(7)")


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


awkward_text = st.sampled_from(
    ["", "\x00", "\x1f", "\x7f", " ", "é", "\U0001f600", '"\\/', "\n\t\r"])
strings = st.one_of(st.text(max_size=8), awkward_text)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(), st.sampled_from([1e-7, -0.0, float("nan"), float("inf"),
                                  float("-inf"), 0.1, 1e300]),
    strings)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(strings, inner, max_size=4)),
    max_leaves=25)


@settings(deadline=None)
@given(payload=st.dictionaries(strings, values, max_size=5),
       timing=st.one_of(st.none(), st.dictionaries(strings, values, max_size=3)))
def test_emit_report_matches_indented_json_dumps(payload, timing):
    doc = dict(payload)
    if timing is not None:
        doc["timing"] = timing
    assert report.emit_report(doc) == reference(doc)


@settings(deadline=None)
@given(obj=values)
def test_json_text_matches_indented_json_dumps(obj):
    assert report.json_text(obj) == reference(obj)


def test_scalar_keys_are_written_as_the_encoder_writes_them():
    obj = {"b": 1, "a": {3: None, 1: [], 2: {}}, "c": {1.5: 0, 0.5: True}}
    assert report.json_text(obj) == reference(obj)
    for key in (False, None):
        assert report.json_text({key: 1}) == reference({key: 1})


def test_fixture_documents_match_indented_json_dumps():
    timings = (None, {"analyze_s": 0.012345}, {"analyze_s": 1e-7, "x": -0.0})
    for name in NINE_FIXTURES:
        analysis = tg.analyze(tg.build_fixture(name), name=name)
        for timing in timings:
            payload = report.build_document(analysis, name, timing)
            assert ("timing" in payload) == (timing is not None)
            assert payload.get("timing") == timing
            assert report.emit_report(payload) == reference(payload), (name, timing)
    payload = report.error_payload("tiny", "EmptySpectrum", "no filters é",
                                   elements=1, idempotents=1)
    assert report.emit_report(payload) == reference(payload)


def test_fallback_values_are_reindented_where_they_nest():
    # a tuple and an int-keyed dict two levels down inside a list, and a
    # float beside them: orjson refuses the int keys, so the whole value
    # goes to json.dumps
    obj = [1, {"a": [(1, "x", {"k": [2.5]}), {2: [True, None], 1: {"k": ()}}],
               "b": {}, "c": []}]
    assert report.json_text(obj) == reference(obj)


containers = st.one_of(st.lists(values, max_size=4),
                       st.dictionaries(strings, values, max_size=4))


@st.composite
def aliased_documents(draw):
    """A document holding one generated list or dict at several keys and
    depths: at fixed places, and wherever the tree draws it as a leaf."""
    shared = draw(containers)
    tree = draw(st.recursive(
        st.one_of(scalars, st.just(shared)),
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(strings, inner, max_size=4)),
        max_leaves=25))
    return {"a": shared, "b": [shared, {"c": shared, "d": [[shared]]}],
            "tree": tree, "z": shared}


@settings(deadline=None)
@given(doc=aliased_documents())
def test_shared_objects_are_written_at_each_depth(doc):
    assert report.json_text(doc) == reference(doc)


def test_corpus_payloads_freed_one_by_one_are_written_as_held():
    # each payload is dropped once written, so a later payload's lists
    # take the identities of an earlier one's; their texts must not carry
    # over from one payload to the next
    ids = []

    def payload(i):
        cover = [f"s{i}"] * (i % 3 + 1)
        pairs = [{"cover": f"s{i}", "via": f"s{i + 1}"}]
        doc = {"covers": {"a": cover, "b": cover, "c": [cover]},
               "pairs": {"x": pairs, "y": pairs}, "index": i}
        ids.extend((id(cover), id(pairs)))
        return doc

    fh = io.StringIO()
    report._write_corpus(fh, 3, 40, (payload(i) for i in range(40)))
    held = {"schema_version": report.SCHEMA_VERSION,
            "corpus": {"seed": 3, "count": 40},
            "instances": [payload(i) for i in range(40)]}
    assert len(set(ids[:80])) < 80           # identities were reused
    assert fh.getvalue() == report.json_text(held) == reference(held)


# ------------------------------------------- values orjson must not write

def assert_as_stdlib(obj):
    """The writer's text equals the standard library's, or both raise
    exceptions of one type."""
    try:
        want = reference(obj)
    except Exception as exc:
        with pytest.raises(type(exc)):
            report.json_text(obj)
    else:
        assert report.json_text(obj) == want


class Colour(enum.Enum):
    RED = 1


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


class Table(dict):
    pass


@dataclasses.dataclass
class Point:
    x: int


def witness_shaped(leaf):
    """A document shaped as a report's witnesses, `leaf` four levels down
    among plain names."""
    return {"witnesses": {"hausdorff": {"covers": {"a": ["0", "b"],
                                                   "b": ["0", leaf, "c"]}},
                          "minimal": {"conjugate_covers": {
                              "e=a f=b": [{"cover": "a", "via": leaf}]}}},
            "instance": {"name": "x", "elements": 3}}


def test_text_that_is_not_printable_ascii_is_escaped_as_the_stdlib_does():
    for text in ("é", "\x7f", "\U0001f600", "a b", "\x7fé\x00"):
        assert_as_stdlib({"a": [{"b": [text, "plain"]}], "c": "d"})
        assert_as_stdlib({"a": {"b": {text: [1, "plain"]}}})
    # keys on both sides of the BMP/astral border: orjson sorts by UTF-8
    # bytes, the standard library by code point, which is one order
    assert_as_stdlib({"\uffff": 1, "\U00010000": [2], "é": {"\x7f": 3},
                      "\x7f": "é", "": None, "z": "\U00010000"})


def test_ints_past_64_bits_are_written_as_the_stdlib_does():
    for big in (2 ** 64, -2 ** 63 - 1, 2 ** 200):
        assert_as_stdlib({"names": ["a", big, "b"], "n": 2 ** 63 - 1})


def test_floats_deep_in_a_witness_are_written_as_the_stdlib_does():
    # leaves on both sides of 1e-4 and of 1e16: between them orjson writes
    # every float as repr does, outside them not always
    for leaf in (1e-7, 0.5, -0.0, float("nan"), float("-inf"), float("inf"),
                 1e-4, 9.999e-5, 1e15, 1e16, 5e-324, 1.7976931348623157e308):
        assert_as_stdlib(witness_shaped(leaf))


@pytest.mark.parametrize("leaf", [
    Level.LOW, Name("a"), Table(b=1), Table({1: "x"}), Colour.RED,
    uuid.UUID(int=5), datetime.datetime(2014, 8, 21), Point(1),
    np.int64(3), np.float64(0.5)], ids=repr)
def test_subclasses_and_foreign_types_are_left_to_the_stdlib(leaf):
    assert_as_stdlib(witness_shaped(leaf))
    assert_as_stdlib([leaf])
    assert_as_stdlib(leaf)


def test_str_subclass_keys_are_written_as_the_stdlib_does():
    assert_as_stdlib({"a": {Name("k"): 1, "j": [2]}})


def test_cycles_raise_as_the_stdlib_does():
    loop = ["a"]
    loop.append(loop)
    ring = {"a": 1.5}
    ring["self"] = [ring]
    for obj in (loop, ring, {"doc": [{"x": loop}]}):
        with pytest.raises(ValueError):
            reference(obj)
        with pytest.raises(ValueError):
            report.json_text(obj)


@pytest.mark.parametrize("depth", [301, 600, 800, 900, 1500])
def test_nesting_past_orjsons_limit_is_written_as_the_stdlib_does(depth):
    nested, keyed = ["leaf"], {"k": "leaf"}
    for i in range(depth):
        nested, keyed = [nested, i], {"k": keyed, "i": [i]}
    assert_as_stdlib(nested)
    assert_as_stdlib(keyed)


def test_corpus_stream_with_a_non_plain_payload_is_written_as_held():
    payloads = [{"name": "a", "covers": {"x": ["0"]}},
                {"name": "é", "timing": {"analyze_s": 1e-7}, "big": [2 ** 70]},
                {"name": "c", "covers": {"y": [Name("0")]}},
                {"name": "d", "covers": {}}]
    fh = io.StringIO()
    report._write_corpus(fh, 7, 4, iter(payloads))
    held = {"schema_version": report.SCHEMA_VERSION,
            "corpus": {"seed": 7, "count": 4}, "instances": payloads}
    assert fh.getvalue() == report.json_text(held) == reference(held)
