"""Canonical JSON helpers: exact rationals as strings, deterministic dumps."""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii

from .exactlin import _ratio

_NUMBER = re.compile(r"[+-]?[0-9]+(?:/[+-]?[0-9]+)?")
_CONSTANTS = {None: "null", True: "true", False: "false"}


def num_json(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_num(x):
    """An int, or from a "p" or "p/q" string the number in normal form (`exactlin._ratio`).

    p and q are ASCII decimal integers, each with an optional sign.  Raises
    ValueError, naming the text, on any other string or a zero q, and on a
    bool or a non-integral float.
    """
    if isinstance(x, str):
        if not _NUMBER.fullmatch(x):
            raise ValueError(f"not a number of the form p or p/q: {x!r}")
        num, _, den = x.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return _ratio(int(num), den)
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"not an exact number: {x!r}")
    return int(x)


def key_json(key):
    """A cell key (sorted tuple of coordinate tuples) as nested JSON lists."""
    return [[num_json(x) for x in p] for p in key]


def point_json(p):
    return [num_json(x) for x in p]


def dumps(obj):
    """The text of json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1), written directly.

    (`indent` sends `json` to its pure-Python encoder.)  Anything but str,
    int, bool, None, lists, tuples and dicts with str keys, a float or a
    Fraction included, raises TypeError: no inexact number reaches a report.
    """
    out = []
    _write(obj, "\n", out.append, {})
    return "".join(out)


def _write(obj, newline, out, rows):
    """Append obj's text to out; newline starts each of its nested lines, one space deeper.

    A report repeats its integer rows (points, matrix rows), so rows maps
    each (row, depth) written in this call to its text, and each is
    written once.
    """
    inner = newline + " "
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and all(type(x) is int for x in obj):
        key = (tuple(obj), len(newline))
        text = rows.get(key)
        if text is None:
            text = rows[key] = "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]" if obj else "[]"
        out(text)
    elif isinstance(obj, (list, tuple)):
        for i, x in enumerate(obj):
            out(("," if i else "[") + inner)
            _write(x, inner, out, rows)
        out(newline + "]")
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        for i, k in enumerate(sorted(obj)):
            out(("," if i else "{") + inner + encode_basestring_ascii(k) + ": ")
            _write(obj[k], inner, out, rows)
        out(newline + "}" if obj else "{}")
    else:
        raise TypeError(f"{type(obj).__name__} is not written exactly, or a dict key is not a str")
