import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from torusbif import UNIT, ZERO, EulerRingElement, RestrictedWeight, TorusRepDecomposition, canonicalize

H10 = canonicalize(RestrictedWeight((1, 0)))
H01 = canonicalize(RestrictedWeight((0, 1)))
H11 = canonicalize(RestrictedWeight((1, 1)))
H1 = canonicalize(RestrictedWeight((1,)))
H2 = canonicalize(RestrictedWeight((2,)))


def el(unit, codim1=()):
    return EulerRingElement(unit, codim1)


def power(x, n):
    """x^n from ``*`` and ``inverse``; a negative n inverts x first."""
    if n < 0:
        x, n = x.inverse(), -n
    out = UNIT
    for _ in range(n):
        out = out * x
    return out


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
    prod = el(0, ((H10, 1),)) * el(0, ((H01, 1),))
    assert prod == ZERO  # a codimension-two class was discarded


def test_proportional_codim1_product_is_exactly_zero():
    prod = el(0, ((H1, 1),)) * el(0, ((H2, 1),))
    assert prod == ZERO  # the dimension count drops


def test_square_of_sphere_class():
    x = el(-1, ((H1, 1),))
    assert x * x == el(1, ((H1, -2),))


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
    assert power(x, n) == expected


@pytest.mark.parametrize("k0", [0, 1])
def test_inverse_closed_form_for_sphere_classes(k0):
    x = chi(k0, ((H10, 2), (H01, 1)))
    sign = (-1) ** k0
    assert x.inverse() == el(sign, ((H10, sign * 2), (H01, sign * 1)))


def test_negative_power_requires_unit_leading_coefficient():
    with pytest.raises(ValueError, match="not invertible in truncated ring"):
        power(el(2, ((H10, 1),)), -1)


def test_affine_power_closed_form_matches_iterated_multiplication():
    # (a*I + b)^N = a^N I + N a^(N-1) b for b supported in codimension one
    for a in (-3, -1, 2):
        x = el(a, ((H10, 4), (H11, -2)))
        for n in range(1, 7):
            expected = el(a**n, ((H10, n * a ** (n - 1) * 4), (H11, n * a ** (n - 1) * -2)))
            assert power(x, n) == expected


def test_product_of_different_ranks_is_rejected():
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        el(0, ((H1, 1),)) * el(0, ((H10, 1),))
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        el(1, ((H10, 2),)) * el(-1, ((H1, 1),))


def test_sum_of_different_ranks_is_rejected():
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        el(0, ((H1, 1),)) + el(0, ((H10, 1),))
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        el(3, ((H01, 1),)) + (-el(0, ((H2, 1),)))
    assert UNIT + el(0, ((H1, 1),)) == el(1, ((H1, 1),))


UNITS = (0, 1, -1, 3)
RING_OPS = {"mul": lambda a, b: a * b, "add": lambda a, b: a + b}


@pytest.mark.parametrize("op", RING_OPS.values(), ids=RING_OPS.keys())
@pytest.mark.parametrize("s", UNITS)
@pytest.mark.parametrize("t", UNITS)
def test_rank_check_holds_for_every_unit_pattern(op, s, t):
    low, high = el(s, ((H1, 2),)), el(t, ((H10, -1), (H11, 4)))
    for a, b in ((low, high), (high, low)):
        with pytest.raises(ValueError, match=r"^rank mismatch: 1 vs 2$"):
            op(a, b)
        # an empty part has no rank to mismatch
        op(a, el(b.unit))
        op(el(a.unit), b)


@pytest.mark.parametrize(
    "codim1",
    [((H1, 1), (H10, 1)), ((H11, 2), (H2, -1), (H01, 1)), {H10: 1, H1: 1}],
    ids=["pair", "interleaved", "dict"],
)
def test_constructor_rejects_ids_of_two_ranks(codim1):
    with pytest.raises(ValueError, match="rank mismatch: 1 vs 2"):
        el(1, codim1)


@pytest.mark.parametrize(
    "mults",
    [((H1, 1), (H10, 2)), ((H11, 2), (H2, 1), (H01, 1)), ((H10, 1), (H1, 3))],
    ids=["pair", "interleaved", "high-first"],
)
def test_decomposition_rejects_ids_of_two_ranks(mults):
    with pytest.raises(ValueError, match=r"^rank mismatch: 1 vs 2$"):
        TorusRepDecomposition(1, mults)


def test_decomposition_sum_rejects_ids_of_two_ranks():
    low, high = TorusRepDecomposition(0, ((H1, 1),)), TorusRepDecomposition(0, ((H10, 1),))
    for a, b in ((low, high), (high, low)):
        with pytest.raises(ValueError, match=r"^rank mismatch: 1 vs 2$"):
            a + b
    # an empty part has no rank to mismatch
    assert (TorusRepDecomposition(2, ()) + low).mults == low.mults
    assert (high + TorusRepDecomposition(2, ())).mults == high.mults


# -- coefficient extraction -----------------------------------------------------


def test_coeff_at_lookup():
    x = el(3, ((H11, -2),))
    assert x.coeff_at(H11) == -2
    assert ZERO.coeff_at(H11) == 0
    assert el(1, ((H1, -2),)).coeff_at(H2) == 0
    # absent ids before, after and among the present ones, and one of another rank
    assert [el(-1, ((H10, 2), (H11, -3))).coeff_at(h) for h in (H1, H01, H10, H11)] == [0, 0, 2, -3]


# -- value semantics ------------------------------------------------------------

X = el(-1, ((H10, 2), (H11, -3)))
Y = el(3, ((H01, 1), (H11, 3)))

BUILT = {
    "constructor": lambda: el(2, {H11: 1, H10: -4}),
    "mul": lambda: X * Y,
    "add": lambda: X + Y,
    "sub": lambda: X + (-Y),
    "inverse": lambda: X.inverse(),
    "pow": lambda: power(X, 3),
    "looked-up": lambda: _looked_up(X * Y),
}


def _looked_up(x):
    x.coeff_at(H10)
    return x


@pytest.mark.parametrize(
    "round_trip",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
def test_elements_round_trip(build, round_trip):
    x = build()
    back = round_trip(x)
    assert back == x and hash(back) == hash(x) and repr(back) == repr(x)
    assert back.codim1 == x.codim1 and back.unit == x.unit
    assert all(back.coeff_at(h) == x.coeff_at(h) for h in (H10, H01, H11, H1))


@pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
@pytest.mark.parametrize("name", ["unit", "codim1"])
def test_elements_are_frozen(build, name):
    x = build()
    before = (x.unit, x.codim1)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(x, name, 0)
    assert (x.unit, x.codim1) == before
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(x, name)
    assert (x.unit, x.codim1) == before


def test_equal_elements_from_different_paths_are_one_key():
    paths = [
        el(-3, ((H11, -12), (H10, 6), (H01, -1))),
        el(-3, {H10: 6, H11: -12, H01: -1}),
        X * Y,
        Y * X,
        (-X) * (-Y),
        X.scaled(3) + el(0, ((H01, -1), (H11, -3))),
        X * Y * X.inverse() * X,
    ]
    assert repr(paths[0]) == (
        "EulerRingElement(unit=-3, codim1=((SubgroupId(canonical=RestrictedWeight(coords=(0, 1))), -1), "
        "(SubgroupId(canonical=RestrictedWeight(coords=(1, 0))), 6), "
        "(SubgroupId(canonical=RestrictedWeight(coords=(1, 1))), -12)))"
    )
    assert all(p == paths[0] and hash(p) == hash(paths[0]) for p in paths)
    assert hash(paths[0]) == hash((-3, ((H01, -1), (H10, 6), (H11, -12))))
    table = {p: i for i, p in enumerate(paths)}
    assert table == {paths[0]: len(paths) - 1}


def test_coeff_at_on_arithmetic_results():
    prod = X * Y  # -3 I - H01 + 6 H10 - 12 H11
    assert [prod.unit] + [prod.coeff_at(h) for h in (H10, H01, H11)] == [-3, 6, -1, -12]
    assert (X + Y).coeff_at(H11) == 0 and (X + (-Y)).coeff_at(H11) == -6
    assert (X * X).coeff_at(H10) == -4 and X.inverse().coeff_at(H11) == 3
    assert (-prod).coeff_at(H10) == -6 and prod.coeff_at(H10) == 6


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
    x = el(-2, ((H10, 3), (H01, -1)))
    data = x.to_json()
    assert data == {
        "unit": -2,
        "codim1": [{"H": [0, 1], "c": -1}, {"H": [1, 0], "c": 3}],
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: EulerRingElement(1.9),
        lambda: EulerRingElement(1, ((H1, 2.9),)),
        lambda: UNIT.scaled(2.7),
        lambda: RestrictedWeight((1.5, 2)),
        lambda: TorusRepDecomposition(1.5, ()),
        lambda: TorusRepDecomposition(1, ((H1, 2.5),)),
    ],
    ids=["unit", "coefficient", "scaled", "weight", "k0", "multiplicity"],
)
def test_library_constructors_reject_non_integers(build):
    with pytest.raises(ValueError, match="expected an integer"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EulerRingElement(0, [((1, 2), 3)]), "^codim1 keys must be SubgroupId, got tuple$"),
        (lambda: TorusRepDecomposition(0, [((1, 2), 3)]), "^mults keys must be SubgroupId, got tuple$"),
        (lambda: TorusRepDecomposition(0, [(None, 1)]), "^mults keys must be SubgroupId, got NoneType$"),
        (lambda: el(1, ((H1, 2),)) * 3, "unsupported operand"),
    ],
    ids=["codim1-tuple", "mults-tuple", "mults-none", "times-int"],
)
def test_library_records_reject_other_types(build, message):
    # a multiple is x.scaled(n); an element times an int is no product
    with pytest.raises(TypeError, match=message):
        build()


# -- differential check against a plain reference ----------------------------
#
# The reference keeps the textbook algorithms: a dict accumulation sorted by
# (rank, coords) and powers by iterated multiplication, as ``power`` builds
# them from the ring's ``*`` and ``inverse``.  Elements are
# (unit, codim1) pairs.


def _ref_normalize(pairs):
    acc = {}
    for h, c in pairs:
        acc[h] = acc.get(h, 0) + c
    return tuple(sorted(((h, c) for h, c in acc.items() if c != 0), key=lambda hc: (hc[0].canonical.rank, hc[0].canonical.coords)))


def _ref(x):
    return (x.unit, x.codim1)


def ref_add(x, y):
    return (x[0] + y[0], _ref_normalize(x[1] + y[1]))


def ref_scaled(x, n):
    return (n * x[0], _ref_normalize((h, n * c) for h, c in x[1]))


def ref_mul(x, y):
    # codimension-one classes multiply to nothing that survives truncation
    codim1 = _ref_normalize([(h, y[0] * c) for h, c in x[1]] + [(h, x[0] * c) for h, c in y[1]])
    return (x[0] * y[0], codim1)


def ref_inverse(x):
    if x[0] not in (1, -1):
        raise ValueError("not invertible in truncated ring")
    return (x[0], tuple((h, -c) for h, c in x[1]))


def ref_pow(x, n):
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    out = (1, ())
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
    unit, codim1 = want
    assert repr(got) == f"EulerRingElement(unit={unit}, codim1={codim1!r})"
    assert got == EulerRingElement(unit, codim1)
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
        return EulerRingElement(draw(st.integers(-3, 3)), tuple(codim1))

    return element(), element()


@settings(max_examples=500, deadline=None)
@given(same_rank_pairs(), st.integers(-3, 6), st.integers(-3, 3))
def test_ring_operations_match_reference(pair, n, k):
    x, y = pair
    rx, ry = _ref(x), _ref(y)
    _assert_same(x * y, ref_mul(rx, ry))
    _assert_same(x + y, ref_add(rx, ry))
    _assert_same(x + (-y), ref_add(rx, ref_scaled(ry, -1)))
    _assert_same(-x, ref_scaled(rx, -1))
    _assert_same(x.scaled(k), ref_scaled(rx, k))
    _assert_same(_outcome(EulerRingElement.inverse, x), _outcome(ref_inverse, rx))
    _assert_same(_outcome(power, x, n), _outcome(ref_pow, rx, n))

