"""Type checks for JSON documents read from files, and for the configs
built from them or directly."""

from __future__ import annotations

import json

_KINDS = {int: "an integer", str: "a string", list: "a list"}


def expect(value, kind: type, key: str, depth: int = 0):
    """Return ``value`` if it has the JSON type ``kind``, or, with
    ``depth`` > 0, if it is a list nested ``depth`` deep of such values.

    Raises ``ValueError`` naming ``key`` otherwise.  A bool is not an
    integer here, and neither is a number written with a fraction.
    """
    return _expect(value, kind, depth, f"key {key!r}", f"every entry of key {key!r}")


def _expect(value, kind: type, depth: int, what: str, entry: str):
    if depth:
        items = _expect(value, list, 0, what, entry)
        return [_expect(item, kind, depth - 1, entry, entry) for item in items]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = json.dumps(value, default=repr)
        if len(got) > 40:
            got = got[:37] + "..."
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {got}")
    return value
