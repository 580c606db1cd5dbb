"""Strict reading of the JSON input files, shared by all four formats: an
object holds exactly its listed fields, optional ones aside, and a boolean is
not an integer.  Each parser passes its own error class."""

from __future__ import annotations

import json


def load(text: str, error: type[ValueError], what: str):
    """Decode `text`, raising `error` if it cannot be decoded.  The tokens
    `NaN`, `Infinity` and `-Infinity` are not JSON, though `json` accepts
    them.  Past a syntax error, `json` fails on an integer of more digits
    than Python converts (a `ValueError`) and on nesting deeper than the
    recursion limit."""
    def reject(token):
        raise error(f"malformed {what} file: {token} is not a JSON number")

    try:
        return json.loads(text, parse_constant=reject)
    except error:
        raise
    except (ValueError, RecursionError) as e:
        raise error(f"malformed {what} file: {e}") from e


def record(data, error: type[ValueError], where: str, required, optional=()) -> dict:
    """Return `data` if it is a JSON object with every field in `required`
    and no field outside `required` and `optional`; raise `error` if not."""
    if not isinstance(data, dict):
        raise error(f"{where}: must be a JSON object")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise error(f"{where}: unknown fields {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise error(f"{where}: missing field {key!r}")
    return data


def is_int(x) -> bool:
    """A JSON integer: JSON `true` decodes to a bool, an int subclass."""
    return type(x) is int


def is_ints(x, length: int | None = None) -> bool:
    """A list of JSON integers, of `length` items if one is given."""
    return (isinstance(x, list) and (length is None or len(x) == length)
            and all(map(is_int, x)))
