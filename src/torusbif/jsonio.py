"""Shared JSON conventions (exact rationals travel as {"num": p, "den": q})
and the one set of scalar input rules, for configs and library calls alike."""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import Fraction

# The largest decimal exponent a rational string may state: past it,
# Fraction would spend unbounded time building 10**exponent.  It equals
# Python's default limit on the digits of an int converted to or from text
# (sys.get_int_max_str_digits()), but "1e4300" is 10**4300, of 4301 digits,
# which Python refuses to print: ``_echo`` cuts such a number without its
# text, and ``cli.run_exact`` refuses an output that holds one.
MAX_EXPONENT = 4300

# The most characters of a refused value that an error message repeats.
ECHO_WIDTH = 60


def _echo(value, form=str) -> str:
    """``form(value)`` as an error message repeats it: whole up to ECHO_WIDTH
    characters, else its head and its length.  An int or Fraction whose text
    Python refuses to build, past ``sys.get_int_max_str_digits()`` digits, is
    cut the same way, from its digits counted without that text."""
    try:
        text = form(value)
        length = len(text)
    except ValueError:
        if isinstance(value, Fraction):
            n, d = value.numerator, value.denominator
            parts = ["Fraction(", n, ", ", d, ")"] if form is repr else [n] if d == 1 else [n, "/", d]
        elif isinstance(value, int):
            parts = [value]
        else:
            raise
        heads = [_int_head(p) if isinstance(p, int) else (p, len(p)) for p in parts]
        text, length = "".join(head for head, _ in heads), sum(size for _, size in heads)
    if length <= ECHO_WIDTH:
        return text
    return f"{text[:ECHO_WIDTH]}... ({length} characters)"


def _int_head(n: int) -> tuple[str, int]:
    """The first ECHO_WIDTH digits of ``str(n)``, with its sign, and the
    length of ``str(n)``, computed without building ``str(n)``."""
    a = abs(n)
    digits = max(1, int((a.bit_length() - 1) * math.log10(2)))  # at most the digit count
    while a >= 10**digits:
        digits += 1
    return "-" * (n < 0) + str(a // 10 ** max(0, digits - ECHO_WIDTH)), (n < 0) + digits


def _int_literal(text: str) -> int:
    """``json.load``'s ``parse_int``: ``int(text)``, refused in a line of its
    own past Python's limit on the digits of an int read from text."""
    try:
        return int(text)
    except ValueError:
        digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
        raise ValueError(f"an integer literal of {digits} digits, past Python's limit of {limit}") from None


def frac_to_json(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


# The grammar of a rational string, the same on every Python and stated in
# README's config rules; digits are [0-9], with single underscores between.
_DIGITS = "(?:[0-9]+(?:_[0-9]+)*)"
_RATIONAL = re.compile(rf"\s*([-+]?)(?=\.?[0-9])({_DIGITS}?)(?:/({_DIGITS})|(?:\.({_DIGITS}?))?(?:[eE]([-+]?)({_DIGITS}))?)\s*")


def _frac_from_text(text: str) -> Fraction:
    """The rational ``text`` states in the grammar of ``_RATIONAL``.  A decimal
    exponent past MAX_EXPONENT in magnitude is refused before the power of ten
    is built, and a run of digits past Python's limit on the digits of an int
    read from text in a line naming that limit."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {_echo(text, repr)}")
    sign, num, den, dec, exp_sign, exp = (group.replace("_", "") for group in match.groups(""))
    magnitude = exp.lstrip("0")
    if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or 0) > MAX_EXPONENT:
        raise ValueError(f"the decimal exponent of {_echo(text, repr)} exceeds {MAX_EXPONENT} in magnitude")
    longest, limit = max(map(len, (num, den, dec, exp))), sys.get_int_max_str_digits()
    if longest > limit > 0:
        raise ValueError(f"a rational literal with a run of {longest} digits, past Python's limit of {limit}")
    scale = 10 ** len(dec)
    value = Fraction(int(num or 0) * scale + int(dec or 0), int(den or 1) * scale) * Fraction(10) ** int(exp_sign + exp or 0)
    return -value if sign == "-" else value


def frac_from_json(data) -> Fraction:
    """Parse a rational from {"num","den"}, an integer, a ``Fraction`` or a
    "p/q" string: the one rule for every exact input, of a config or of the
    library.  Floats, ``Decimal`` and booleans are rejected: exact outputs
    must not pick up binary drift."""
    if isinstance(data, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(data, (int, Fraction)):
        return Fraction(data)
    try:
        if isinstance(data, dict):
            return Fraction(int_from_json(data["num"]), int_from_json(data["den"]))
        if isinstance(data, str):
            return _frac_from_text(data)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_echo(data, repr)}") from None
    raise ValueError(f"expected a rational (int, 'p/q', or {{num,den}}), got {_echo(data, repr)}")


def int_from_json(data) -> int:
    """Parse an integer.  Booleans, floats and strings are rejected rather
    than truncated, so a config never runs with a value it did not state."""
    if type(data) is int:  # the common case, ahead of the slower ABC check
        return data
    if isinstance(data, bool) or not isinstance(data, numbers.Integral):
        raise ValueError(f"expected an integer, got {_echo(data, repr)}")
    return int(data)


def _positive_real(name: str, x) -> float:
    try:
        ok = not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x) and x > 0
    except OverflowError:  # an int or Fraction past the largest float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive number, got {_echo(x, repr)}")
    return float(x)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text, sorted keys, two-space indent and a trailing
    newline: the bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\\n"``, emitted directly, because the
    standard library encodes an indented document in pure Python.

    It emits only what the documents hold: dicts with ``str`` keys, lists and
    tuples of values, and values of exactly the types str, int, bool, None and
    float.  Anything else raises ``TypeError``, and a NaN or infinite float
    ``ValueError``."""
    from json.encoder import encode_basestring_ascii as quote  # the C encoder

    parts: list[str] = []
    _emit(obj, "", parts.append, quote)
    parts.append("\n")
    return "".join(parts)


def _emit(x, pad: str, append, quote) -> None:
    """Append the text of x, indented from ``pad``, for ``canonical_dumps``.
    It is a module function, not a closure that names itself, so a dump
    leaves no reference cycle for the collector."""
    cls = type(x)
    if cls is dict or cls is list or cls is tuple:
        if not x:
            append("{}" if cls is dict else "[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        if cls is dict:
            head = "{\n" + inner
            for k in sorted(x):  # a key that is not a str raises TypeError here or in quote
                v = x[k]
                if type(v) is int:  # ints inline: most of the values of the documents
                    append(f"{head}{quote(k)}: {int.__repr__(v)}")
                else:
                    append(f"{head}{quote(k)}: ")
                    _emit(v, inner, append, quote)
                head = sep
            append(f"\n{pad}}}")
        else:
            head = "[\n" + inner
            for v in x:
                if type(v) is int:
                    append(head + int.__repr__(v))
                else:
                    append(head)
                    _emit(v, inner, append, quote)
                head = sep
            append(f"\n{pad}]")
    elif cls is int:
        append(int.__repr__(x))
    elif cls is str:
        append(quote(x))
    elif x is None or cls is bool:
        append("null" if x is None else "true" if x else "false")
    elif cls is float:
        text = float.__repr__(x)
        if text in ("nan", "inf", "-inf"):
            raise ValueError(f"out of range float value {text} is not JSON compliant")
        append(text)
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
