"""The indented-JSON emitter against its oracle, ``json.dumps(obj, indent=2)``.

Random nested payloads of every supported type must come out byte for byte
as the stdlib writes them, from ``dumps`` and from ``dump`` into a list;
every other type must raise ``TypeError``.
Payloads that repeat rows, by value or as one object, and rows that compare
equal to int rows but are not (``(True, False)``, ``(1.0, 0)``), hold the
per-call row memos to the same oracle.
"""

from __future__ import annotations

import copy
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms import _jsonout
from toricforms.classify import classify_projective
from toricforms.galois import FiniteFieldBackend

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
    assert _jsonout.dumps(obj) == _streamed(obj) == json.dumps(obj, indent=2)


def _streamed(obj) -> str:
    """The pieces that ``dump`` writes, joined."""
    pieces = []
    _jsonout.dump(obj, pieces.append)
    return "".join(pieces)


# objects built at run time, so that equal literals folded into one constant
# cannot stand in for them: each one is placed more than once on purpose
_ROW = tuple([1, 0, -1])
_INT_PAIR = tuple([1, 0])
_FLAGS = tuple([True, False])
_INT_LIST = [1, 0]
_FLOAT_LIST = [1.0, 0]
# items no other case writes: a memo kept from an earlier call could not
# stop this list from being shared, and would print it stale once edited
_EDITED = [5, -5, 2**64]


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
        # rows that hash equal to an int row met earlier or later
        [(1, 0), (True, False)],
        [(True, False), (1, 0)],
        # one row at two depths, and as a list and a tuple
        [(1, 2), [(1, 2)]],
        [[1, 0], (1, 0)],
        # one row object twice at one depth and once at another
        [_ROW, _ROW, [_ROW]],
        [[_ROW], _ROW, {"a": _ROW}, _ROW, [_ROW]],
        # one bool row object twice beside an equal int row, itself repeated
        [_INT_PAIR, _FLAGS, _INT_PAIR, _FLAGS],
        [_FLAGS, _FLAGS, [_INT_PAIR, _INT_PAIR, _FLAGS]],
        # one list twice, mutated below between two calls
        [_EDITED, _EDITED, [_EDITED]],
    ],
)
def test_emitter_matches_json_dumps_on_edge_cases(obj):
    obj = copy.deepcopy(obj)  # keeps which objects are shared
    assert _jsonout.dumps(obj) == _streamed(obj) == json.dumps(obj, indent=2)
    # the memo lives for one call: a list changed in place prints anew
    _append_to_lists(obj, set())
    assert _jsonout.dumps(obj) == _streamed(obj) == json.dumps(obj, indent=2)


def _append_to_lists(obj, seen: set) -> None:
    """Append 7 to every list in ``obj``, once per list object."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif isinstance(obj, list):
        obj.append(7)
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _append_to_lists(item, seen)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        {1, 2},
        b"bytes",
        object(),
        [1, 2, 0.5],
        [(1, 0), (1.0, 0)],
        {"a": [None, {"b": frozenset()}]},
        {1: "int key"},
        {None: "None key"},
        {(1, 2): "tuple key"},
        # one float list twice, after an int list met twice
        [_INT_LIST, _INT_LIST, _FLOAT_LIST, _FLOAT_LIST],
    ],
)
def test_emitter_rejects_unsupported_types(obj):
    with pytest.raises(TypeError):
        _jsonout.dumps(obj)


def _has_float(obj) -> bool:
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return any(map(_has_float, obj))
    return isinstance(obj, float)


def _repeating(rows):
    """Payloads that place each drawn child several times, at one depth and
    at several, so the row memo gets hits."""

    def extend(children):
        repeated = st.lists(children, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=6)
        )
        return repeated | repeated.map(tuple) | st.dictionaries(st.sampled_from("ab"), children)

    return st.recursive(rows, extend, max_leaves=30)


# few distinct rows, so that equal ones of different types meet often
_BOOL_ROWS = st.sampled_from([(1, 0), (True, False), (0,), (False,)])
_FLOAT_ROWS = st.sampled_from([(1, 0), (1.0, 0), (0,)])


@settings(max_examples=200, deadline=None)
@given(_repeating(_BOOL_ROWS | _BOOL_ROWS.map(list)))
def test_emitter_matches_json_dumps_on_repeated_bool_and_int_rows(obj):
    assert _jsonout.dumps(obj) == json.dumps(obj, indent=2)


@settings(max_examples=200, deadline=None)
@given(_repeating(_FLOAT_ROWS))
def test_emitter_rejects_float_rows_equal_to_int_rows(obj):
    if _has_float(obj):
        with pytest.raises(TypeError):
            _jsonout.dumps(obj)
    else:
        assert _jsonout.dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("n", [16, 24])
def test_report_json_peaks_below_twice_its_length(n):
    """The writer copies each byte once: no nested copy per container level
    (a phi row sits six levels deep).  Streamed to a writer that keeps
    nothing, it holds no whole text: its peak is its memo of row texts, a
    small share of the text's length (0.079 of it at n=16, 0.021 at n=24)."""
    report = classify_projective(n, FiniteFieldBackend(2, 12))
    tracemalloc.start()
    try:
        text = report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), (peak, len(text))
    payload = report.to_json_dict()
    tracemalloc.start()
    try:
        _jsonout.dump(payload, lambda piece: None)
        _, streamed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamed < 0.2 * len(text), (streamed, len(text))
