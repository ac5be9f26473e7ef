import pytest
from hypothesis import given, settings, strategies as st

from torusbif import UNIT, ZERO, EulerRingElement, RestrictedWeight, canonicalize, proportional

H10 = canonicalize(RestrictedWeight((1, 0)))
H01 = canonicalize(RestrictedWeight((0, 1)))
H11 = canonicalize(RestrictedWeight((1, 1)))
H1 = canonicalize(RestrictedWeight((1,)))
H2 = canonicalize(RestrictedWeight((2,)))


def el(unit, codim1=(), truncated=False):
    return EulerRingElement(unit, codim1, truncated)


# -- addition ----------------------------------------------------------------


def test_add_gives_additive_inverse():
    assert UNIT + (-UNIT) == ZERO


def test_add_componentwise():
    x = el(2, ((H10, 3),))
    y = el(0, ((H10, 1), (H01, -1)))
    assert x + y == el(2, ((H10, 4), (H01, -1)))


def test_add_zero_identity():
    x = el(-3, ((H11, 5),))
    assert ZERO + x == x
    assert x + ZERO == x


def test_normalization_drops_zero_coefficients():
    assert el(1, ((H10, 0),)) == UNIT
    assert el(0, ((H10, 2), (H10, -2))).is_zero()


# -- multiplication ----------------------------------------------------------


def test_unit_is_neutral():
    x = el(-4, ((H10, 2), (H01, -7)))
    assert UNIT * x == x
    assert x * UNIT == x


def test_codim1_product_vanishes_in_truncation():
    prod = EulerRingElement.generator(H10) * EulerRingElement.generator(H01)
    assert prod == ZERO
    assert prod.truncated  # a codimension-two class was discarded


def test_proportional_codim1_product_is_exactly_zero():
    prod = EulerRingElement.generator(H1) * EulerRingElement.generator(H2)
    assert prod == ZERO
    assert not prod.truncated  # dimension count drops, nothing was discarded


def test_square_of_sphere_class():
    x = el(-1, ((H1, 1),))
    assert x * x == el(1, ((H1, -2),))


def test_truncation_flag_is_absorbing():
    x = el(1, ((H10, 1),), truncated=True)
    y = el(2)
    assert (x + y).truncated
    assert (x * y).truncated
    assert (-x).truncated
    assert (x**3).truncated
    assert x.inverse().truncated


# -- powers and inverses -------------------------------------------------------


def chi(k0, mults):
    sign = -1 if k0 % 2 else 1
    return el(sign, tuple((h, -sign * m) for h, m in mults))


@pytest.mark.parametrize("k0", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_power_closed_form_for_sphere_classes(k0, n):
    x = chi(k0, ((H10, 2), (H01, 1)))
    sign = (-1) ** (k0 * n)
    expected = el(sign, ((H10, -sign * 2 * n), (H01, -sign * n)))
    assert x**n == expected


@pytest.mark.parametrize("k0", [0, 1])
def test_inverse_closed_form_for_sphere_classes(k0):
    x = chi(k0, ((H10, 2), (H01, 1)))
    sign = (-1) ** k0
    assert x**-1 == el(sign, ((H10, sign * 2), (H01, sign * 1)))


def test_power_zero_is_unit():
    x = el(7, ((H11, -3),), truncated=True)
    assert x**0 == UNIT


def test_negative_power_requires_unit_leading_coefficient():
    with pytest.raises(ValueError, match="not invertible in truncated ring"):
        el(2, ((H10, 1),)) ** -1


def test_affine_power_closed_form_matches_iterated_multiplication():
    # (a*I + b)^N = a^N I + N a^(N-1) b for b supported in codimension one
    for a in (-3, -1, 2):
        x = el(a, ((H10, 4), (H11, -2)))
        for n in range(1, 7):
            expected = el(a**n, ((H10, n * a ** (n - 1) * 4), (H11, n * a ** (n - 1) * -2)))
            assert x**n == expected


def test_product_of_different_ranks_is_rejected():
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        EulerRingElement.generator(H1) * EulerRingElement.generator(H10)
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        el(1, ((H1, 1), (H10, 1))) ** 2


# -- coefficient extraction -----------------------------------------------------


def test_coeff_at_lookup():
    x = el(3, ((H11, -2),))
    assert x.coeff_at(H11) == -2
    assert x.coeff_at(None) == 3
    assert ZERO.coeff_at(H11) == 0
    assert el(1, ((H1, -2),)).coeff_at(H2) == 0


# -- structural truncation soundness --------------------------------------------


def test_product_of_pure_codim1_elements_has_no_codim1_part():
    x = el(0, ((H10, 5), (H01, -2)))
    y = el(0, ((H10, 1), (H11, 3)))
    prod = x * y
    assert prod.unit == 0
    assert prod.codim1 == ()


# -- randomized ring laws -------------------------------------------------------

ids_pool = [
    canonicalize(RestrictedWeight(c))
    for c in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, 0), (3, -2)]
]

elements = st.builds(
    EulerRingElement,
    st.integers(-9, 9),
    st.lists(
        st.tuples(st.sampled_from(ids_pool), st.integers(-9, 9)), max_size=8
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(elements, elements, elements)
def test_ring_laws(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert UNIT * x == x
    assert x + (-x) == ZERO


@settings(max_examples=200, deadline=None)
@given(elements, st.sampled_from([1, -1]))
def test_inverse_law(x, unit):
    u = EulerRingElement(unit, x.codim1)
    assert u * u.inverse() == UNIT
    assert u.inverse() * u == UNIT


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    x = el(-2, ((H10, 3), (H01, -1)), truncated=True)
    data = x.to_json()
    assert data == {
        "unit": -2,
        "codim1": [{"H": [0, 1], "c": -1}, {"H": [1, 0], "c": 3}],
        "truncated": True,
    }
    back = EulerRingElement.from_json(data)
    assert back == x
    assert back.truncated == x.truncated


def test_json_without_flag_reads_untruncated():
    back = EulerRingElement.from_json({"unit": 1, "codim1": [{"H": [1, 0], "c": 2}]})
    assert back == el(1, ((H10, 2),))
    assert back.truncated is False


@pytest.mark.parametrize(
    "field, value",
    [("unit", 1.7), ("unit", "1"), ("unit", True), ("c", 2.9), ("c", None), ("truncated", "no"), ("truncated", 1)],
)
def test_json_reader_is_strict(field, value):
    data = {"unit": 1, "codim1": [{"H": [1, 0], "c": 2}], "truncated": False}
    if field == "c":
        data["codim1"][0]["c"] = value
    else:
        data[field] = value
    with pytest.raises(ValueError, match="expected an? (integer|boolean)"):
        EulerRingElement.from_json(data)


# -- differential check against a plain reference ----------------------------
#
# The reference keeps the textbook algorithms: a dict accumulation sorted by
# (rank, coords), a pairwise ``proportional`` scan for the truncation flag,
# and powers by iterated multiplication.  Elements are (unit, codim1,
# truncated) triples.


def _ref_normalize(pairs):
    acc = {}
    for h, c in pairs:
        acc[h] = acc.get(h, 0) + c
    return tuple(sorted(((h, c) for h, c in acc.items() if c != 0), key=lambda hc: (hc[0].rank, hc[0].canonical.coords)))


def _ref(x):
    return (x.unit, x.codim1, x.truncated)


def ref_add(x, y):
    return (x[0] + y[0], _ref_normalize(x[1] + y[1]), x[2] or y[2])


def ref_scaled(x, n):
    return (n * x[0], _ref_normalize((h, n * c) for h, c in x[1]), x[2])


def ref_mul(x, y):
    codim1 = _ref_normalize([(h, y[0] * c) for h, c in x[1]] + [(h, x[0] * c) for h, c in y[1]])
    dropped = x[2] or y[2]
    if not dropped:
        dropped = any(not proportional(h.canonical, g.canonical) for h, _ in x[1] for g, _ in y[1])
    return (x[0] * y[0], codim1, dropped)


def ref_inverse(x):
    if x[0] not in (1, -1):
        raise ValueError("not invertible in truncated ring")
    return (x[0], tuple((h, -c) for h, c in x[1]), x[2] or bool(x[1]))


def ref_pow(x, n):
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    out = (1, (), False)
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    unit, codim1, truncated = want
    assert repr(got) == f"EulerRingElement(unit={unit}, codim1={codim1!r}, truncated={truncated})"
    assert got.truncated is truncated
    assert got.codim1 == codim1  # same order, not just the same set


# pools of one rank each, with proportional pairs (distinct ids, one direction)
REF_POOLS = [
    [canonicalize(RestrictedWeight(c)) for c in [(1,), (2,), (3,)]],
    [canonicalize(RestrictedWeight(c)) for c in [(1, 0), (2, 0), (1, 1), (2, 2), (0, 1), (1, -1), (3, -2), (2, 1)]],
    [canonicalize(RestrictedWeight(c)) for c in [(1, 0, 0), (2, 0, 0), (0, 1, -1), (0, 2, -2), (1, 1, 1)]],
]


@st.composite
def same_rank_pairs(draw):
    pool = draw(st.sampled_from(REF_POOLS))

    def element():
        codim1 = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-4, 4)), max_size=6))
        return EulerRingElement(draw(st.integers(-3, 3)), tuple(codim1), draw(st.booleans()))

    return element(), element()


@settings(max_examples=500, deadline=None)
@given(same_rank_pairs(), st.integers(-3, 6), st.integers(-3, 3))
def test_ring_operations_match_reference(pair, n, k):
    x, y = pair
    rx, ry = _ref(x), _ref(y)
    _assert_same(x * y, ref_mul(rx, ry))
    _assert_same(x + y, ref_add(rx, ry))
    _assert_same(x - y, ref_add(rx, ref_scaled(ry, -1)))
    _assert_same(-x, ref_scaled(rx, -1))
    _assert_same(x.scaled(k), ref_scaled(rx, k))
    _assert_same(_outcome(EulerRingElement.inverse, x), _outcome(ref_inverse, rx))
    _assert_same(_outcome(pow, x, n), _outcome(ref_pow, rx, n))


@given(
    st.integers(1, 3).flatmap(
        lambda r: st.tuples(*[st.lists(st.integers(-6, 6), min_size=r, max_size=r).map(tuple)] * 2)
    ).filter(lambda uv: any(uv[0]) and any(uv[1]))
)
def test_proportional_iff_same_direction(uv):
    h, g = (canonicalize(RestrictedWeight(c)) for c in uv)
    assert proportional(h.canonical, g.canonical) == (h.direction == g.direction)
