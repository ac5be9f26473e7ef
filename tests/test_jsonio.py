import gc
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusbif.jsonio import ECHO_WIDTH, MAX_EXPONENT, _echo, canonical_dumps, frac_from_json


def stdlib_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# -- the canonical emitter -----------------------------------------------------

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1])
    | st.text()  # unicode, surrogates and control characters included
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "  ", "\ud800", "café", "\U0001f600"])
)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_canonical_dumps_matches_the_standard_library(doc):
    assert canonical_dumps(doc) == stdlib_dumps(doc)


def test_canonical_dumps_on_empty_and_nested_containers():
    for doc in [{}, [], (), {"a": {}}, {"a": []}, [[]], [{}], {"b": [{}, []], "a": [[[]]]}, "", 0, None]:
        assert canonical_dumps(doc) == stdlib_dumps(doc)


def test_canonical_dumps_leaves_nothing_for_the_cycle_collector():
    doc = {"levels": [{"lambda": {"num": k, "den": 1}, "index": [[k, [0, 1]], [-k, [1, 0]]]} for k in range(50)]}
    gc.collect()
    gc.disable()
    try:
        text = canonical_dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == stdlib_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [{1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {True: 1}, {(1,): 1}, [{"ok": {3.5: 1}}]],
    ids=["int", "mixed", "none", "bool", "tuple", "nested-float"],
)
def test_canonical_dumps_refuses_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        canonical_dumps(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_dumps_refuses_non_finite_floats(value):
    for doc in (value, [value], {"a": value}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_dumps(doc)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, b"bytes", object(), 1j],
    ids=["Fraction(1, 2)", "{1, 2}", "b'bytes'", "object()", "1j"],
)
def test_canonical_dumps_refuses_unknown_types(value):
    for doc in (value, [value], {"a": value}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_dumps(doc)


# -- rationals with a decimal exponent -----------------------------------------


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "1E+4300", "-2.5e0004300", "1e4_300", "1e400"])
def test_an_exponent_up_to_the_limit_is_parsed(text):
    assert frac_from_json(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1E+4301", "1e1000000", "-3.1e-10000000", "1e4_301", "1e\u0664\u0663\u0660\u0661", "1e" + "9" * 5000])
def test_an_exponent_past_the_limit_is_refused_before_the_power_is_built(text):
    with pytest.raises(ValueError, match=f"exceeds {MAX_EXPONENT} in magnitude"):
        frac_from_json(text)


# -- echoed values ---------------------------------------------------------------


def test_echo_keeps_a_short_value_and_cuts_a_long_one():
    short = "x" * ECHO_WIDTH
    assert _echo(short) == short
    long = "7" * 400
    assert _echo(long) == "7" * ECHO_WIDTH + "... (400 characters)"


PAST_THE_PRINT_LIMIT = [
    10**4300,
    -(10**4301) + 1,
    10**4301 - 1,
    10**4301,
    7 * 10**5000 + 3,
    Fraction(1, 10**4300),
    Fraction(-(10**4400), 3),
    Fraction(3, 10**4300 + 1),
]


@pytest.mark.parametrize("form", [str, repr])
@pytest.mark.parametrize("value", PAST_THE_PRINT_LIMIT, ids=range(len(PAST_THE_PRINT_LIMIT)))
def test_a_number_past_the_print_limit_is_echoed_cut_from_its_digits(value, form):
    # Python refuses to print an int of more than 4300 digits (the default
    # limit); _echo counts the digits instead, and cuts the text it would have
    with pytest.raises(ValueError, match="Exceeds the limit"):
        form(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = form(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert _echo(value, form) == f"{text[:ECHO_WIDTH]}... ({len(text)} characters)"


def test_library_refusals_echo_a_number_past_the_print_limit():
    from torusbif import GenericTables, RestrictedWeight
    from torusbif.galerkin import _max_degree

    head = "1" + "0" * (ECHO_WIDTH - 1)
    with pytest.raises(ValueError) as info:
        _max_degree(10**5000)
    assert str(info.value) == f"max_degree must be at most MAX_DEGREE = 2048, got {head}... (5001 characters)"
    mu = RestrictedWeight((0,))
    with pytest.raises(ValueError) as info:
        GenericTables(((mu, ((mu, -(10**5000)),)),))
    cut = f"-{head[:-1]}... (5002 characters)"
    assert str(info.value) == f"weight tables need mult >= 1, got {cut} for mu (0) at alpha (0)"


def test_a_long_invalid_literal_is_echoed_cut():
    with pytest.raises(ValueError) as info:
        frac_from_json("x" * 1000)
    assert str(info.value) == "Invalid literal for Fraction: '" + "x" * (ECHO_WIDTH - 1) + "... (1002 characters)"
    with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: 'abc'$"):
        frac_from_json("abc")
