import pytest
from hypothesis import given, strategies as st

from torusbif import RestrictedWeight, SubgroupId, canonicalize, proportional

W = RestrictedWeight


def test_canonicalize_sign_flip():
    assert canonicalize(W((0, -2, 1))).canonical == W((0, 2, -1))
    assert canonicalize(W((3, 0))).canonical == W((3, 0))
    assert canonicalize(W((-1, -1))).canonical == W((1, 1))


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError, match="zero weight has no codimension-one subgroup"):
        canonicalize(W((0, 0)))


def test_proportional_weights_get_distinct_ids():
    assert canonicalize(W((1, 0))) != canonicalize(W((2, 0)))
    assert proportional(W((1, 0)), W((2, 0)))
    assert not proportional(W((1, 0)), W((0, 1)))


coords_strategy = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(tuple)
nonzero_weights = coords_strategy.map(W).filter(lambda w: not w.is_zero())


@given(nonzero_weights)
def test_canonicalize_idempotent(mu):
    first = canonicalize(mu)
    assert canonicalize(first.canonical) == first


@given(nonzero_weights)
def test_canonicalize_identifies_opposites(mu):
    assert canonicalize(mu) == canonicalize(-mu)


def test_subgroup_id_requires_canonical_form():
    with pytest.raises(ValueError):
        SubgroupId(W((-1, 2)))
    with pytest.raises(ValueError):
        SubgroupId(W((0, 0)))


def test_json_round_trip():
    mu = W((1, -2, 0))
    assert RestrictedWeight.from_json(mu.to_json()) == mu
    h = canonicalize(W((0, -3)))
    assert h.to_json() == {"H": [0, 3]}
    assert SubgroupId.from_json(h.to_json()) == h
    assert SubgroupId.from_json([0, 3]) == h
