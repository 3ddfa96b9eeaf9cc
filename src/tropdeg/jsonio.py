"""Canonical JSON helpers: exact rationals as strings, deterministic dumps."""

from __future__ import annotations

import json

from .exactlin import _ratio


def num_json(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_num(x):
    """An int, or from a "p/q" string the number in normal form (`exactlin._ratio`).

    Raises ValueError on a zero q, a bool or a non-integral float.
    """
    if isinstance(x, str):
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
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
