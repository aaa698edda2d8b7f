"""The one writer of indented JSON: exactly ``json.dumps(obj, indent=2)``.

``json.dumps`` takes the C encoder only when ``indent`` is None, so indented
output goes through the pure-Python encoder, one generator step per token.
``dump`` builds the same text from the C leaf primitives instead
(``encode_basestring_ascii`` for strings, ``int.__repr__`` for ints) and
hands its pieces, in order, to a ``write`` callable; no whole text is built.
``dumps`` joins the pieces once.  A sequence of plain ints is one piece,
built by one ``str.join``.

Payloads repeat such sequences heavily (a projective report's matrices
share their rows), so one ``dump`` call memoizes the text of each all-int
sequence, by identity first and by items second, each with its indent.  A
sequence looks each item up by identity before anything else, and a hit is
written with no type check, no hash and no recursive call: the payload
stays alive and unchanged for the call, so an object written once has the
same text.  An object enters the identity memo when it is met a second
time, so equal rows that are distinct objects (a symmetry group's) add no
entry per row.  Every object not yet in it takes the all-int type check
before its items are looked up: ``(True, False)`` and ``(1.0, 0)`` hash and
compare equal to ``(1, 0)``, so an items lookup first would print a bool row
as ``1``/``0`` and a float row instead of raising.  Both memos are locals
of the call, so a sequence edited between calls is written afresh.

It accepts exactly the types the library emits: dicts with str keys, lists,
tuples, str, int, bool and None.  Anything else raises ``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

_int_repr = int.__repr__
_INT_ONLY = {int}


def dump(obj: object, write: Callable[[str], object]) -> None:
    """Hand the pieces of ``json.dumps(obj, indent=2)`` to ``write``, in order."""
    _encode(obj, "\n", write, {}, {})


def dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2)`` for the library's payload types."""
    pieces: list[str] = []
    dump(obj, pieces.append)
    return "".join(pieces)


def _encode(obj: object, newline: str, write: Callable[[str], object], memo: dict, shared: dict) -> None:
    # `newline` is a line break plus the indent of the line `obj` starts on;
    # `memo` maps (int items, newline) to (the first sequence written with
    # them, their text); `shared` maps (id, newline) to the text of each
    # all-int sequence written twice so far
    if isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        # the type check must precede the items key: (True, False) == (1.0, 0) == (1, 0)
        if set(map(type, obj)) == _INT_ONLY:
            key = (tuple(obj), newline)
            hit = memo.get(key)
            if hit is None:
                text = "[" + inner + ("," + inner).join(map(_int_repr, obj)) + newline + "]"
                memo[key] = (obj, text)
            else:
                first, text = hit
                if first is obj:  # this very object, met again
                    shared[id(obj), newline] = text
            write(text)
            return
        lead, sep = "[" + inner, "," + inner
        for item in obj:
            write(lead)
            lead = sep
            # nothing is looked up by identity until some object repeats
            text = shared.get((id(item), inner)) if shared else None
            if text is None:
                _encode(item, inner, write, memo, shared)
            else:
                write(text)
        write(newline + "]")
    elif isinstance(obj, str):
        write(_quote(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(_int_repr(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        lead, sep = "{" + inner, "," + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(lead + _quote(key) + ": ")
            lead = sep
            _encode(value, inner, write, memo, shared)
        write(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
