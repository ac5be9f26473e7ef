import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from torusbif import RestrictedWeight, SubgroupId, canonicalize
from torusbif.weights import _merge_sorted

W = RestrictedWeight


def primitive(h: SubgroupId) -> tuple[int, ...]:
    """The canonical coords divided by their gcd: the line that h lies on."""
    g = math.gcd(*h.canonical.coords)
    return tuple(c // g for c in h.canonical.coords)


def test_canonicalize_sign_flip():
    assert canonicalize(W((0, -2, 1))).canonical == W((0, 2, -1))
    assert canonicalize(W((3, 0))).canonical == W((3, 0))
    assert canonicalize(W((-1, -1))).canonical == W((1, 1))


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError, match="zero weight has no codimension-one subgroup"):
        canonicalize(W((0, 0)))


def test_proportional_weights_get_distinct_ids():
    assert canonicalize(W((1, 0))) != canonicalize(W((2, 0)))


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
    assert RestrictedWeight(mu.to_json()) == mu
    h = canonicalize(W((0, -3)))
    assert h.canonical.to_json() == [0, 3]  # what every output writes under "H"


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
    assert primitive(h12) == primitive(h24) == (1, 2)
    assert primitive(canonicalize(W((0, -3)))) == (0, 1)


def test_sort_key_orders_by_rank_then_coords():
    coords = [(2, -1), (1,), (0, 0, 1), (3,), (1, 0), (0, 1), (1, -1, 0), (2,)]
    ids = sorted((canonicalize(W(c)) for c in coords), key=lambda h: h.sort_key)
    assert [h.canonical.coords for h in ids] == [(1,), (2,), (3,), (0, 1), (1, 0), (2, -1), (0, 0, 1), (1, -1, 0)]
    assert all(h.sort_key == (h.canonical.rank, h.canonical.coords) for h in ids)


# copy.replace (Python 3.13) calls a record's __replace__; older Pythons call it directly
replace = getattr(copy, "replace", lambda obj, **changes: obj.__replace__(**changes))


@pytest.mark.parametrize(
    "round_trip",
    [lambda h: pickle.loads(pickle.dumps(h)), copy.copy, copy.deepcopy, replace],
    ids=["pickle", "copy", "deepcopy", "replace"],
)
def test_subgroup_id_round_trips_keep_identity_data(round_trip):
    h = canonicalize(W((-2, 4)))
    back = round_trip(h)
    assert back == h and hash(back) == hash(h)
    assert back.sort_key == h.sort_key == (2, (2, -4))
    assert repr(back) == "SubgroupId(canonical=RestrictedWeight(coords=(2, -4)))"


def test_replace_recomputes_cached_data():
    h = replace(canonicalize(W((2, 4))), canonical=W((1, 3)))
    assert h == canonicalize(W((1, 3)))
    assert hash(h) == hash(canonicalize(W((1, 3))))
    assert h.sort_key == (2, (1, 3))
    with pytest.raises(ValueError, match="is not sign-canonical"):
        replace(h, canonical=W((-1, 3)))
    with pytest.raises(TypeError, match="has no field 'sort_key'"):
        replace(h, sort_key=(2, (2, 4)))


def test_round_trips_recompute_cached_data():
    # pickle, copy, deepcopy and replace rebuild an id through its constructor from
    # its canonical weight, so cached data that disagrees with that weight
    # does not survive a round trip; pickle and deepcopy rebuild the weight too
    h = canonicalize(W((1, 3)))
    assert h.__reduce__() == (SubgroupId, (h.canonical,))
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy, replace):
        stale = canonicalize(W((1, 3)))
        object.__setattr__(stale, "sort_key", (2, (2, 4)))
        object.__setattr__(stale, "_hash", hash(W((2, 4))))
        back = round_trip(stale)
        assert back == h and hash(back) == hash(h) == hash((1, 3))
        assert back.sort_key == (2, (1, 3))
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        stale = W((1, 3))
        object.__setattr__(stale, "_hash", hash((2, 4)))
        assert hash(round_trip(stale)) == hash((1, 3))


# -- the sorted merge behind ring sums and products and decomposition sums --------
#
# The reference accumulates in a dict, which keeps the first object of each id,
# and sorts by key.  Each side canonicalizes its own ids, so an id on both
# sides is two equal objects and the merge must keep the one from ``a``.

MERGE_POOLS = [
    [(1,), (2,), (3,), (5,)],
    [(1, 0), (2, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, -2)],
    [(1, 0, 0), (0, 1, -1), (0, 2, -2), (1, 1, 1), (2, -1, 0)],
]
SCALES = [-3, -2, -1, 0, 1, 2, 3]
COUNTS = [c for c in SCALES if c]  # a side holds nonzero counts only


def _ref_merge(a, s, b, t):
    # a side scaled by 0 adds nothing, not even the objects of its ids
    acc = {}
    for h, c in a if s else ():
        acc[h] = acc.get(h, 0) + s * c
    for h, c in b if t else ():
        acc[h] = acc.get(h, 0) + t * c
    return tuple(sorted(((h, c) for h, c in acc.items() if c), key=lambda hc: hc[0].sort_key))


def _side(coords, counts):
    ids = sorted((canonicalize(W(c)) for c in coords), key=lambda h: h.sort_key)
    return tuple(zip(ids, counts))


def _assert_merge_matches_reference(a, s, b, t):
    got, want = _merge_sorted(a, s, b, t), _ref_merge(a, s, b, t)
    assert type(got) is tuple and got == want
    assert all(g is h for (g, _), (h, _) in zip(got, want))


@st.composite
def merge_operands(draw):
    pool = draw(st.sampled_from(MERGE_POOLS))

    def side():
        coords = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        return _side(coords, draw(st.lists(st.sampled_from(COUNTS), min_size=len(coords), max_size=len(coords))))

    return side(), draw(st.sampled_from(SCALES)), side(), draw(st.sampled_from(SCALES))


@settings(max_examples=300, deadline=None)
@given(merge_operands())
def test_merge_sorted_matches_dict_reference(operands):
    _assert_merge_matches_reference(*operands)


@pytest.mark.parametrize("pool", MERGE_POOLS, ids=["rank1", "rank2", "rank3"])
@pytest.mark.parametrize("s", SCALES)
def test_merge_sorted_edge_cases(pool, s):
    a = _side(pool, [(-1) ** i * (i + 1) for i in range(len(pool))])
    _assert_merge_matches_reference(a, s, (), 1)
    _assert_merge_matches_reference((), 1, a, s)
    assert _merge_sorted((), s, (), 1) == ()
    twin = _side(pool, [c for _, c in a])  # equal ids, other objects
    assert _merge_sorted(a, s, twin, -s) == ()  # every count cancels
    both = _merge_sorted(a, s, twin, s)
    assert both == tuple((h, 2 * s * c) for h, c in a if s)
    assert all(g is h for (g, _), (h, _) in zip(both, a))
    # first ids of two ranks are refused whatever the scales, 0 included
    low, high = _side([(1,)], [1]), _side([(1, 0)], [1])
    for x, y in ((low, high), (high, low)):
        for u, v in ((s, 1), (1, s), (s, s)):
            with pytest.raises(ValueError, match=r"^rank mismatch: 1 vs 2$"):
                _merge_sorted(x, u, y, v)
