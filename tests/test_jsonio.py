"""The report writer against `json.dumps`, its oracle: the same text on every
example report, on what every JSON-writing CLI verb writes, and on drawn JSON
values; and no float, Fraction or non-str key is written."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdeg import cli, pipelines
from tropdeg.jsonio import dumps
from tropdeg.pipelines import build_example


def oracle_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


EXAMPLES = [("kp1-2", k) for k in (1, 2, 3)] + [("quintic", i) for i in (1, 2, 3, 4)] + [("hypercube", k) for k in (1, 2, 3)]


@pytest.mark.parametrize("name, value", EXAMPLES, ids=[f"{n}-{v}" for n, v in EXAMPLES])
def test_dumps_matches_json_on_every_example_report(name, value):
    report = build_example(name, value).report()
    assert dumps(report) == oracle_dumps(report)


def test_dumps_matches_json_on_every_cli_verb(tmp_path, monkeypatch):
    written = []

    def recorded(obj):
        text = dumps(obj)
        written.append((obj, text))
        return text

    # the example verb writes through the build's report_json
    monkeypatch.setattr(cli, "dumps", recorded)
    monkeypatch.setattr(pipelines, "dumps", recorded)
    heights = tmp_path / "square.json"
    square = [[x, y] for x in (-1, 0, 1) for y in (-1, 0, 1)]
    heights.write_text(json.dumps({
        "support": {"ambient_dim": 2, "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
        "heights": [[p, abs(p[0]) + abs(p[1]) if p != [0, 0] else "-1/2"] for p in square],
    }))
    segments = tmp_path / "two-segments.json"
    segments.write_text(json.dumps({"cells": [[[0], [1]], [[1], [2]]]}))
    calls = [
        ["example", "--example", "kp1-2", "--k", "1"],
        ["tropicalize", "--input", str(heights)],
        ["tropicalize", "--hypersurface", "--coarse", "--input", str(heights)],
        ["check-simple", "--example", "kp1-2", "--k", "2"],
        ["embed-check", "--example", "quintic", "--i", "1"],
        ["lg-truncate", "--example", "quintic", "--i", "2"],
        ["ring", "--complex", str(segments), "--degree", "2"],
    ]
    for args in calls:
        out = tmp_path / "out.json"
        assert cli.main([*args, "--out", str(out)]) == 0, args
        obj, text = written[-1]
        assert out.read_text() == text + "\n" == oracle_dumps(obj) + "\n"
    assert len(written) == len(calls)


def _key_text():
    # escapes, control characters and characters outside ASCII
    return st.text(alphabet=st.sampled_from('ab"\\/\b\f\n\r\t\x00\x1f\x7f é€😀 '), max_size=6) | st.text(max_size=4)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**40), max_value=10**40) | _key_text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(_key_text(), children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_dumps_matches_json_on_drawn_values(obj):
    assert dumps(obj) == oracle_dumps(obj)


@st.composite
def _values_repeating_a_row(draw):
    """A JSON value in which one int row recurs, as a list and as a tuple, at several depths, beside other rows and bools."""
    row = draw(st.lists(st.integers(-3, 3), max_size=3))
    leaves = st.sampled_from([row, tuple(row), list(row)]) | st.lists(st.integers(-3, 3), max_size=3) | st.booleans() | st.integers(-3, 3)
    return draw(
        st.recursive(
            leaves,
            lambda children: st.lists(children, max_size=4) | st.dictionaries(st.sampled_from("abc"), children, max_size=3),
            max_leaves=20,
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_values_repeating_a_row())
def test_dumps_matches_json_on_values_repeating_a_row(obj):
    # a row written once at one depth must not be reused at another, nor
    # for a row of bools that compares equal to it
    assert dumps(obj) == oracle_dumps(obj)
    assert dumps([obj, [obj, [obj]], {"a": obj}]) == oracle_dumps([obj, [obj, [obj]], {"a": obj}])


def test_dumps_keeps_bools_apart_from_equal_ints():
    obj = [[1, 0], [True, False], {"a": [1, 0], "b": [[True, 0]]}]
    assert dumps(obj) == oracle_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [0.5, 2.0, Fraction(1, 2), {"a": [1, 2.5]}, [Fraction(3, 1)], {1: "a"}, {("a",): 1}, {"a": {2: 3}}, {None: 1}, {1.5, 2}],
    ids=["float", "whole-float", "fraction", "nested-float", "whole-fraction", "int-key", "tuple-key", "nested-int-key",
         "none-key", "set"],
)
def test_dumps_refuses_what_it_cannot_write_exactly(obj):
    with pytest.raises(TypeError):
        dumps(obj)
