"""Canonical JSON helpers: exact rationals as strings, deterministic dumps."""

from __future__ import annotations

import json
from fractions import Fraction


def num_json(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_num(x):
    """An int, or a Fraction from a "p/q" string; ValueError on a zero q."""
    if isinstance(x, str):
        num, _, den = x.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(int(num), den)
    return int(x)


def key_json(key):
    """A cell key (sorted tuple of coordinate tuples) as nested JSON lists."""
    return [[num_json(x) for x in p] for p in key]


def point_json(p):
    return [num_json(x) for x in p]


def dumps(obj):
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
