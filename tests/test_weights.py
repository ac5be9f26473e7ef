import copy
import dataclasses
import pickle

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


# -- SubgroupId semantics ---------------------------------------------------------


@given(nonzero_weights, nonzero_weights)
def test_subgroup_id_hash_consistent_with_eq(mu, nu):
    h, g = canonicalize(mu), canonicalize(nu)
    assert (h == g) == (h.canonical.coords == g.canonical.coords)
    if h == g:
        assert hash(h) == hash(g)
    assert canonicalize(mu) is not h and canonicalize(mu) == h
    assert hash(canonicalize(-mu)) == hash(h)


def test_proportional_ids_are_distinct_but_share_a_direction():
    h12, h24 = canonicalize(W((1, 2))), canonicalize(W((-2, -4)))
    assert h12 != h24
    assert len({h12, h24}) == 2
    assert h12.direction == h24.direction == (1, 2)
    assert canonicalize(W((0, -3))).direction == (0, 1)


def test_sort_key_orders_by_rank_then_coords():
    coords = [(2, -1), (1,), (0, 0, 1), (3,), (1, 0), (0, 1), (1, -1, 0), (2,)]
    ids = sorted((canonicalize(W(c)) for c in coords), key=lambda h: h.sort_key)
    assert [h.canonical.coords for h in ids] == [(1,), (2,), (3,), (0, 1), (1, 0), (2, -1), (0, 0, 1), (1, -1, 0)]
    assert all(h.sort_key == (h.rank, h.canonical.coords) for h in ids)


@pytest.mark.parametrize(
    "round_trip",
    [lambda h: pickle.loads(pickle.dumps(h)), copy.copy, copy.deepcopy, dataclasses.replace],
    ids=["pickle", "copy", "deepcopy", "replace"],
)
def test_subgroup_id_round_trips_keep_identity_data(round_trip):
    h = canonicalize(W((-2, 4)))
    back = round_trip(h)
    assert back == h and hash(back) == hash(h)
    assert back.direction == h.direction == (1, -2)
    assert back.sort_key == h.sort_key == (2, (2, -4))
    assert repr(back) == "SubgroupId(canonical=RestrictedWeight(coords=(2, -4)))"


def test_replace_recomputes_cached_data():
    h = dataclasses.replace(canonicalize(W((2, 4))), canonical=W((1, 3)))
    assert h == canonicalize(W((1, 3)))
    assert hash(h) == hash(canonicalize(W((1, 3))))
    assert h.direction == (1, 3) and h.sort_key == (2, (1, 3))
