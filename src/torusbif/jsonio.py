"""Shared JSON conventions: exact rationals travel as {"num": p, "den": q}."""

from __future__ import annotations

import numbers
from fractions import Fraction


def frac_to_json(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def frac_from_json(data) -> Fraction:
    """Parse a rational from {"num","den"}, an integer, or a "p/q" string.
    Floats are rejected: exact outputs must not pick up binary drift."""
    if isinstance(data, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(data, int):
        return Fraction(data)
    try:
        if isinstance(data, dict):
            return Fraction(int_from_json(data["num"]), int_from_json(data["den"]))
        if isinstance(data, str):
            return Fraction(data)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {data!r}") from None
    raise ValueError(f"expected a rational (int, 'p/q', or {{num,den}}), got {data!r}")


def int_from_json(data) -> int:
    """Parse an integer.  Booleans, floats and strings are rejected rather
    than truncated, so a config never runs with a value it did not state."""
    if type(data) is int:  # the common case, ahead of the slower ABC check
        return data
    if isinstance(data, bool) or not isinstance(data, numbers.Integral):
        raise ValueError(f"expected an integer, got {data!r}")
    return int(data)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    import json

    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
