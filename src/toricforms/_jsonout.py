"""The one writer of indented JSON: exactly ``json.dumps(obj, indent=2)``.

``json.dumps`` takes the C encoder only when ``indent`` is None, so indented
output goes through the pure-Python encoder, one generator step per token.
``dumps`` builds the same text from the C leaf primitives instead
(``encode_basestring_ascii`` for strings, ``int.__repr__`` for ints) with one
``str.join`` per container; a list of plain ints is joined in one call.

It accepts exactly the types the library emits: dicts with str keys, lists,
tuples, str, int, bool and None.  Anything else raises ``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_int_repr = int.__repr__
_INT_ONLY = {int}


def dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2)`` for the library's payload types."""
    return _encode(obj, "\n")


def _encode(obj: object, newline: str) -> str:
    # `newline` is a line break plus the indent of the line `obj` starts on
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _int_repr(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if set(map(type, obj)) == _INT_ONLY:
            items = map(_int_repr, obj)
        else:
            items = [_encode(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _encode(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
