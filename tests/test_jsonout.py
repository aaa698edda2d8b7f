"""The indented-JSON emitter against its oracle, ``json.dumps(obj, indent=2)``.

Random nested payloads of every supported type must come out byte for byte
as the stdlib writes them; every other type must raise ``TypeError``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms import _jsonout

# every code point, surrogates and control characters included
_TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | _TEXT
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=6).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_emitter_matches_json_dumps(obj):
    assert _jsonout.dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        (),
        [[]],
        {"": {}},
        [[], {}, ()],
        "𐏿\ud83d",
        "\x00\x1f\x7f\"\\/\n\t",
        "é ü ☃ 😀",
        {"ключ": ["значение", 1]},
        [True, False, None, 0, 1],
        [1, True, 2],
        [1, 2, [3, 4], -5],
        -(2**200),
        [2**64, -(2**64), 0],
        {"a": [[1, 0], [0, -1]], "b": [{"c": None}]},
    ],
)
def test_emitter_matches_json_dumps_on_edge_cases(obj):
    assert _jsonout.dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        {1, 2},
        b"bytes",
        object(),
        [1, 2, 0.5],
        {"a": [None, {"b": frozenset()}]},
        {1: "int key"},
        {None: "None key"},
        {(1, 2): "tuple key"},
    ],
)
def test_emitter_rejects_unsupported_types(obj):
    with pytest.raises(TypeError):
        _jsonout.dumps(obj)

