import collections
import functools
import itertools
import json
import math
import operator
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from torusbif import (
    UNIT,
    EulerRingElement,
    GenericTables,
    RestrictedWeight,
    SymmetricSpaceData,
    SystemSignature,
    TorusRepDecomposition,
    UnboundednessCertificate,
    bifurcation_levels,
    cancellation_impossible,
    canonicalize,
    certify_levels,
    load_space,
    spectrum_up_to,
    sphere_weight_multiplicity,
    witness_coefficient,
)
from torusbif import bifurcation
from torusbif.jsonio import frac_from_json, frac_to_json
from torusbif.spaces import SpectralLevel

W = RestrictedWeight
S2 = SymmetricSpaceData.sphere(2)
S3 = SymmetricSpaceData.sphere(3)
P22 = SymmetricSpaceData.product_of_spheres([2, 2])
P23 = SymmetricSpaceData.product_of_spheres([2, 3])
H1 = canonicalize(W((1,)))
H2 = canonicalize(W((2,)))
H3 = canonicalize(W((3,)))
RANK2_IDS = [canonicalize(W(c)) for c in ((1, 0), (2, 0), (0, 1), (1, -1))]
GOLDEN_CONFIGS = json.loads((Path(__file__).parent / "golden_cli.json").read_text())["configs"]


def sig(n_plus, n_minus):
    return SystemSignature.from_counts(n_plus, n_minus)


def decomp(k0, mults):
    return TorusRepDecomposition(k0, mults.items())


def index_at(space, s, level):
    """The index at one candidate level, read off the range up to |level|."""
    return {bl.level: bl.index for bl in bifurcation_levels(space, s, abs(level))}[Fraction(level)]


def cert_at(space, s, level):
    """The certificate (or the reason for none) at one candidate level."""
    return dict(certify_levels(space, s, abs(level)))[Fraction(level)]


def neg_identity_degree(decomp):
    """Degree of -Id on the unit ball of a torus representation, the factor
    of the ring path: (-1)^{k0} (I - sum_mu k_mu [T/H_mu]), truncated."""
    sign = -1 if decomp.k0 % 2 else 1
    return EulerRingElement(sign, tuple((h, -sign * m) for h, m in decomp.mults))


def power(x, n):
    """x^n from the ring's ``*`` and ``inverse``; a negative n inverts x first."""
    if n < 0:
        x, n = x.inverse(), -n
    out = UNIT
    for _ in range(n):
        out = out * x
    return out


# -- degree of the negative identity ------------------------------------------


def test_neg_identity_degree_trivial_line():
    assert neg_identity_degree(decomp(1, {})) == EulerRingElement(-1)


def test_neg_identity_degree_single_plane():
    got = neg_identity_degree(decomp(0, {H1: 1}))
    assert got == EulerRingElement(1, ((H1, -1),))


def test_neg_identity_degree_sphere_second_level():
    got = neg_identity_degree(decomp(1, {H1: 1, H2: 1}))
    assert got == EulerRingElement(-1, ((H1, 1), (H2, 1)))


# -- candidate level sets -------------------------------------------------------


def test_levels_negative_laplacians_only():
    got = [bl.level for bl in bifurcation_levels(S2, sig(0, 1), 6)]
    assert got == [0, 2, 6]


def test_levels_mixed_signs():
    got = [bl.level for bl in bifurcation_levels(S2, sig(1, 1), 6)]
    assert got == [-6, -2, 0, 2, 6]


def test_levels_positive_laplacians_only():
    got = [bl.level for bl in bifurcation_levels(S2, sig(1, 0), 6)]
    assert got == [-6, -2, 0]


def test_kernel_dimensions():
    levels = {bl.level: bl for bl in bifurcation_levels(S2, sig(0, 2), 6)}
    assert levels[Fraction(2)].kernel_dim == 2 * 3
    assert levels[Fraction(0)].kernel_dim == 2 * 1
    levels = {bl.level: bl for bl in bifurcation_levels(S2, sig(2, 1), 2)}
    assert levels[Fraction(-2)].kernel_dim == 2 * 3
    assert levels[Fraction(2)].kernel_dim == 1 * 3


# -- the index ---------------------------------------------------------------------


def test_index_first_level_single_negative_equation():
    got = index_at(S2, sig(0, 1), 2)
    assert got == EulerRingElement(2, ((H1, -1),))
    assert got.coeff_at(H1) == -1


def test_index_negative_level_single_positive_equation():
    got = index_at(S2, sig(1, 0), -2)
    # inverse of I - chi times (-2I + chi), truncated
    assert got == EulerRingElement(-2, ((H1, -1),))
    assert got.coeff_at(H1) == -1


def test_index_zero_level_values():
    assert index_at(S2, sig(2, 1), 0) == UNIT.scaled(-2)
    assert index_at(S2, sig(1, 2), 0) == UNIT.scaled(2)
    assert index_at(S2, sig(1, 1), 0).is_zero()


def test_index_nonvanishing_on_guaranteed_levels():
    for space in (S2, S3, P22):
        for n_plus in range(3):
            for n_minus in range(3):
                if n_plus + n_minus == 0:
                    continue
                s = sig(n_plus, n_minus)
                for bl in bifurcation_levels(space, s, 12):
                    if bl.level == 0 and s.p % 2 == 0:
                        continue
                    assert not bl.index.is_zero()


@st.composite
def decompositions(draw, ids):
    return decomp(draw(st.integers(0, 3)), draw(st.dictionaries(st.sampled_from(ids), st.integers(1, 4))))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([[H1, H2, H3], RANK2_IDS]).flatmap(lambda ids: st.tuples(decompositions(ids), decompositions(ids))),
    st.integers(0, 5),
    st.sampled_from([1, -1]),
    st.integers(0, 2),
)
def test_index_matches_ring_path(vw, n, s, other):
    # the expansion in _index against the products of degrees it replaces
    v, w = vw
    assume(n + other > 0)
    signature = sig(other, n) if s > 0 else sig(n, other)
    split = bifurcation._Split(SpectralLevel(Fraction(1), (), v), w, w + v)
    if s > 0:
        ring = power(neg_identity_degree(w), n) * (power(neg_identity_degree(v), n) + (-UNIT))
    else:
        ring = power(neg_identity_degree(w + v), -n) * (power(neg_identity_degree(v), n) + (-UNIT))
    assert bifurcation._index(signature, Fraction(s), split) == ring


def test_levels_and_certificates_form_no_ring_product(monkeypatch):
    # S^2 x S^2, S^2, S^2 x S^3 and the rank-2 generic space of the golden outputs
    runs = [(load_space(c["space"]), SystemSignature(c["a"]), frac_from_json(c["cutoff"])) for c in GOLDEN_CONFIGS.values()]
    expected = [(bifurcation_levels(*run), certify_levels(*run)) for run in runs]

    def no_product(*args):
        raise AssertionError("an Euler-ring product was formed")

    for name in ("__mul__", "inverse"):
        monkeypatch.setattr(EulerRingElement, name, no_product)
    assert [(bifurcation_levels(*run), certify_levels(*run)) for run in runs] == expected


# -- closed-form coefficients ---------------------------------------------------------


def test_witness_coefficient_closed_form():
    assert witness_coefficient(1, 0) == -1
    assert witness_coefficient(1, 1) == 1
    assert witness_coefficient(2, 1) == -2
    assert witness_coefficient(3, 1) == 3
    # d_W + d_V itself may be passed; only its parity matters
    assert witness_coefficient(3, 9) == witness_coefficient(3, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: witness_coefficient(True, 1),
        lambda: witness_coefficient(2.0, 1),
        lambda: witness_coefficient(2, "1"),
        lambda: cancellation_impossible("1", 1, 0),
        lambda: cancellation_impossible(1, 1.0, 0),
        lambda: cancellation_impossible(1, 1, False),
    ],
    ids=["bool-n", "float-n", "str-parity", "str-n-minus", "float-n-plus", "bool-parity"],
)
def test_the_closed_forms_parse_their_integers(call):
    with pytest.raises(ValueError, match="^expected an integer, got "):
        call()


def test_witness_coefficient_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^n must be nonnegative, got -2$"):
        witness_coefficient(-2, 1)
    assert type(witness_coefficient(2, 1)) is int


@pytest.mark.parametrize("counts", [(-2, 2), (2, -2), (-1, -1)])
def test_cancellation_impossible_refuses_a_negative_count(counts):
    # counts are nonnegative, and a negative exponent makes (-1) ** e a float
    shown = " and ".join(map(str, counts))
    with pytest.raises(ValueError, match=f"^n_minus and n_plus must be nonnegative, got {shown}$"):
        cancellation_impossible(*counts, 1)


def test_coeff_formula_first_level():
    # d_W + d_V = 1 + 3
    assert index_at(S2, sig(0, 1), 2).coeff_at(H1) == witness_coefficient(1, 4) == -1


def test_coeff_formula_second_level_two_negative_equations():
    closed = witness_coefficient(2, 4 + 5)
    assert closed == (-1) ** ((4 + 5) * 2 + 1) * 2 == -2
    assert index_at(S2, sig(0, 2), 6).coeff_at(H2) == closed


def test_coeff_formula_negative_side():
    assert index_at(S2, sig(1, 0), -2).coeff_at(H1) == witness_coefficient(1, 4) == -1


def test_lower_level_coefficient_vanishes():
    assert index_at(S2, sig(0, 1), 2).coeff_at(H2) == 0


def test_ledger_matches_closed_form_from_summed_dimensions():
    # ties the sweep's running parity of d_W + d_V to the level dimensions
    for space in (S2, S3, P22, P23):
        dims = {}
        total = 0
        for lv in spectrum_up_to(space, 30):
            total += lv.real_dim
            dims[lv.eigenvalue] = total
        for p in range(1, 4):
            for n_plus in range(p + 1):
                s = sig(n_plus, p - n_plus)
                for level, cert in certify_levels(space, s, 30):
                    if level == 0 and p % 2 == 0:
                        continue
                    for lv, coeff in cert.ledger:
                        if lv == 0:
                            continue
                        n = s.n_minus if lv > 0 else s.n_plus
                        assert coeff == witness_coefficient(n, dims[abs(lv)] % 2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.dictionaries(st.sampled_from([H1, H2]), st.integers(1, 4), max_size=2),
    st.dictionaries(st.sampled_from([H1, H2]), st.integers(1, 4), max_size=2),
    st.integers(1, 5),
    st.sampled_from([H1, H2]),
)
def test_degree_power_products_match_coefficient_identity(k0, l0, km, lm, n, h):
    # coefficient of a product deg(V)^N (deg(W)^N - I) against its expansion
    v = decomp(k0, km)
    w = decomp(l0, lm)
    k_mu = km.get(h, 0)
    l_mu = lm.get(h, 0)
    direct = power(neg_identity_degree(v), n) * (power(neg_identity_degree(w), n) + (-UNIT))
    expect = (-1) ** (k0 * n) * n * ((-1) ** (l0 * n + 1) * l_mu - ((-1) ** (l0 * n) - 1) * k_mu)
    assert direct.coeff_at(h) == expect
    inv = power(neg_identity_degree(v), -n) * (power(neg_identity_degree(w), n) + (-UNIT))
    expect_inv = (-1) ** (k0 * n) * n * ((-1) ** (l0 * n + 1) * l_mu + ((-1) ** (l0 * n) - 1) * k_mu)
    assert inv.coeff_at(h) == expect_inv


def test_parity_substitution_never_changes_signs():
    # (-1)^{k0} equals (-1)^{dim} on every enumerated level
    for space in (S2, S3, P22):
        for lv in spectrum_up_to(space, 30):
            dec = lv.torus_decomp
            assert (-1) ** dec.k0 == (-1) ** dec.total_dim


# -- certificates -----------------------------------------------------------------------


def test_certificate_single_negative_equation():
    cert = cert_at(S2, sig(0, 1), 2)
    assert cert.witness == H1
    assert cert.ledger == ((Fraction(2), -1),)
    assert cert.coefficient_sum() == -1
    assert "sum -1 != 0" in cert.conclusion
    assert cert.unbounded and cert.symmetry_breaking


def test_certificate_both_signs():
    cert = cert_at(S2, sig(1, 1), 2)
    assert cert.ledger == ((Fraction(-2), -1), (Fraction(2), -1))
    assert cert.coefficient_sum() == -2


def test_certificate_zero_level_odd_p():
    cert = cert_at(S2, sig(1, 2), 0)  # n_minus = 2, n_plus = 1
    assert cert.witness is None
    assert cert.ledger == ((Fraction(0), 2),)
    assert not cert.symmetry_breaking
    cert = cert_at(S2, sig(2, 1), 0)  # n_minus = 1, n_plus = 2
    assert cert.ledger == ((Fraction(0), -2),)


def test_certificate_refuses_even_p_at_zero():
    assert cert_at(S2, sig(1, 1), 0) == "no bifurcation guaranteed at this level: p is even"


def test_certificate_refuses_wrong_sign():
    # -2 needs an equation with a_i = +1, so no certificate is issued there
    assert [lv for lv, _ in certify_levels(S2, sig(0, 1), 2)] == [0, 2]


def test_certificate_on_product_space():
    cert = cert_at(P22, sig(0, 1), 2)
    assert cert.witness == canonicalize(W((0, 1)))
    assert cert.coefficient_sum() != 0


@pytest.mark.parametrize(
    "space, a, cutoff, n_sets",
    [(S2, (1, -1, -1), 30, 2047), (P22, (1, 1, -1), 8, 511), (S2, (1, 1, -1, -1), 20, 510)],
    ids=["S2-p3", "S2xS2-p3", "S2-p4"],
)
def test_no_return_set_has_zero_index_sum(space, a, cutoff, n_sets):
    # every candidate set whose members of largest |level| are all certified,
    # as a bounded continuum's return set would be: its indices never cancel
    s = SystemSignature(a)
    levels = bifurcation_levels(space, s, cutoff)
    certified = {lv for lv, c in certify_levels(space, s, cutoff) if isinstance(c, UnboundednessCertificate)}
    assert len(levels) <= 12
    checked = 0
    for mask in range(1, 2 ** len(levels)):
        members = [bl for i, bl in enumerate(levels) if mask >> i & 1]
        top = max(abs(bl.level) for bl in members)
        if all(bl.level in certified for bl in members if abs(bl.level) == top):
            total = functools.reduce(operator.add, (bl.index for bl in members))
            assert not total.is_zero(), [bl.level for bl in members]
            checked += 1
    assert checked == n_sets


def test_one_enumeration_per_range(monkeypatch):
    # bifurcation_levels enumerates through spectrum_up_to, certify_levels
    # directly; each range walks the lattice box once
    import torusbif.bifurcation as bif
    import torusbif.spaces as spaces

    calls = []
    real = spaces._eigenvalue_groups

    def counted(space, cutoff):
        calls.append(cutoff)
        return real(space, cutoff)

    indexed = []
    real_index = bif._index

    def counted_index(s, level, split):
        indexed.append(level)
        return real_index(s, level, split)

    expanded = []
    real_expansion = bif._expansion

    def counted_expansion(s, level, k0_x, k0_v):
        expanded.append(level)
        return real_expansion(s, level, k0_x, k0_v)

    monkeypatch.setattr(spaces, "_eigenvalue_groups", counted)
    monkeypatch.setattr(bif, "_eigenvalue_groups", counted)
    monkeypatch.setattr(bif, "_index", counted_index)
    monkeypatch.setattr(bif, "_expansion", counted_expansion)
    levels = bifurcation_levels(P22, sig(1, 2), 30)
    assert len(levels) > 10
    assert calls == [30]
    # one index per candidate level, and one expansion per nonzero one
    assert sorted(indexed) == [bl.level for bl in levels]
    nonzero = [bl.level for bl in levels if bl.level]
    assert sorted(expanded) == nonzero
    calls.clear()
    expanded.clear()
    certs = certify_levels(P22, sig(1, 2), 30)
    assert calls == [30]
    assert [lv for lv, _ in certs] == [bl.level for bl in levels]
    # certificates form each witness coefficient once per nonzero level
    assert sorted(expanded) == nonzero


@pytest.mark.parametrize("range_function", [bifurcation_levels])
def test_range_functions_hold_one_eigenvalue_at_a_time(monkeypatch, range_function):
    # every split's W is watched from the sweep; while any index is computed,
    # at most two of them (the current eigenvalue's and the previous one's)
    # live.  certify_levels builds no W at all (the test below).
    import torusbif.bifurcation as bif

    watched = []
    alive = []
    real_sweep, real_index = bif._sweep, bif._index

    def watched_sweep(space, cutoff):
        for split in real_sweep(space, cutoff):
            watched.append(weakref.ref(split.w))
            yield split

    def counted_index(s, level, split):
        alive.append(sum(ref() is not None for ref in watched))
        return real_index(s, level, split)

    monkeypatch.setattr(bif, "_sweep", watched_sweep)
    monkeypatch.setattr(bif, "_index", counted_index)
    range_function(P22, sig(1, 2), 30)
    assert len(watched) > 10
    assert 1 <= max(alive) <= 2


def test_certify_builds_no_torus_decomposition(monkeypatch):
    # a certificate reads d_V, k0 and the witness multiplicities from the
    # summands' weights; no decomposition is built or summed, through the
    # library or the CLI, for the sphere products and the generic tables of
    # the golden outputs
    from torusbif import cli

    built = []
    real_init, real_add = TorusRepDecomposition.__init__, TorusRepDecomposition.__add__

    def counted_init(self, *args):
        built.append("init")
        real_init(self, *args)

    def counted_add(self, other):
        built.append("add")
        return real_add(self, other)

    monkeypatch.setattr(TorusRepDecomposition, "__init__", counted_init)
    monkeypatch.setattr(TorusRepDecomposition, "__add__", counted_add)
    for config in GOLDEN_CONFIGS.values():
        run = (load_space(config["space"]), SystemSignature(config["a"]), frac_from_json(config["cutoff"]))
        assert certify_levels(*run)
        text, code = cli.run_exact("certify", config, None, "json")
        assert code == 0 and '"all_certified": true' in text
    assert built == []
    bifurcation_levels(P22, sig(1, 2), 6)  # the index still decomposes every level
    assert "init" in built and "add" in built


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 24),
)
def test_certificates_agree_with_the_indices(factors, n_plus, n_minus, cutoff):
    # each ledger coefficient, formed from multiplicities, is the witness
    # coefficient of the index that bifurcation_levels builds in the ring
    assume(n_plus + n_minus > 0)
    space, s = SymmetricSpaceData.product_of_spheres(factors), sig(n_plus, n_minus)
    indices = {bl.level: bl.index for bl in bifurcation_levels(space, s, cutoff)}
    certs = certify_levels(space, s, cutoff)
    assert [lv for lv, _ in certs] == sorted(indices)
    for level, cert in certs:
        if level == 0:
            continue
        assert isinstance(cert, UnboundednessCertificate), cert
        assert cert.ledger == tuple((lv, indices[lv].coeff_at(cert.witness)) for lv in sorted({level, -level} & set(indices)))


GENERIC = GOLDEN_CONFIGS["generic-rank2"]
# (space, cutoff): a sphere, a product and a weight-table space
PERMUTATION_RUNS = (
    (S2, Fraction(30)),
    (P22, Fraction(20)),
    (load_space(GENERIC["space"]), frac_from_json(GENERIC["cutoff"])),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(PERMUTATION_RUNS),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=4).flatmap(
        lambda a: st.tuples(st.just(a), st.permutations(a))
    ),
)
def test_reordering_the_signature_changes_no_index_or_certificate(run, signatures):
    # the system's equations have no order: every index and every
    # certificate is the same for any order of a's entries
    (space, cutoff), (a, reordered) = run, signatures
    assert bifurcation_levels(space, SystemSignature(a), cutoff) == bifurcation_levels(
        space, SystemSignature(reordered), cutoff
    )
    assert certify_levels(space, SystemSignature(a), cutoff) == certify_levels(space, SystemSignature(reordered), cutoff)


@pytest.mark.parametrize("space, cutoff", PERMUTATION_RUNS[1:], ids=["S2xS2", "tables"])
def test_each_summand_is_counted_once_per_range(monkeypatch, space, cutoff):
    # the group stream counts each alpha's dimension and trivial multiplicity
    # once, and every range function reads those counts from it
    import torusbif.spaces as spaces

    zero, s = (0,) * space.rank, sig(1, 2)
    levels = spectrum_up_to(space, cutoff)
    alphas = [alpha.coords for level in levels for alpha in level.alphas]
    counted, real = [], spaces._weight_count

    def counted_weight_count(space, alpha, mu=None):
        counted.append((alpha.coords, mu))
        return real(space, alpha, mu)

    monkeypatch.setattr(spaces, "_weight_count", counted_weight_count)
    for run in (
        lambda: spectrum_up_to(space, cutoff),
        lambda: spaces.summand_decompositions(space, cutoff),
        lambda: bifurcation_levels(space, s, cutoff),
        lambda: certify_levels(space, s, cutoff),
    ):
        counted.clear()
        run()
        assert collections.Counter(counted) == collections.Counter([(a, None) for a in alphas] + [(a, zero) for a in alphas])
    # each group's d_V and k0_V are its level's, and d_W and k0_W sum the lower levels'
    want, d_w, k0_w = [], 0, 0
    for level in levels:
        d_v, k0_v = level.real_dim, level.torus_decomp.k0
        want.append((level.eigenvalue, level.alphas, d_v, k0_v, d_w, k0_w))
        d_w, k0_w = d_w + d_v, k0_w + k0_v
    assert spaces._eigenvalue_groups(space, cutoff) == want


def _sphere_product_tables(factors, kmax):
    # the product of spheres as a weight-table space: one row per alpha in
    # the box [0, kmax]^r, its multiplicities from the sphere oracle
    sphere = SymmetricSpaceData.product_of_spheres(factors)
    rows = []
    for alpha in itertools.product(range(kmax + 1), repeat=len(factors)):
        weights = []
        for mu in itertools.product(*(range(-k, k + 1) for k in alpha)):
            mult = math.prod(sphere_weight_multiplicity(n, k, m) for n, k, m in zip(factors, alpha, mu))
            if mult:
                weights.append((W(mu), mult))
        rows.append((W(alpha), tuple(weights)))
    return SymmetricSpaceData(sphere.gram, sphere.rho, tables=GenericTables(tuple(rows)))


# (build, factors, cutoff): products of spheres with mixed n, of rank 2 and
# 3, and a rank-2 weight-table space whose tables end at degree 3
FACTOR_RUNS = (
    (SymmetricSpaceData.product_of_spheres, (2, 3), Fraction(30)),
    (SymmetricSpaceData.product_of_spheres, (2, 2, 3), Fraction(16)),
    (SymmetricSpaceData.product_of_spheres, (2, 3, 4), Fraction(20)),
    (functools.partial(_sphere_product_tables, kmax=3), (2, 3), Fraction(12)),
)


def _permuted(perm, coords):
    # coordinate i of the permuted space is coordinate perm[i] of the original
    return tuple(coords[i] for i in perm)


def _mapped(perm, pairs):
    # (id, count) pairs of the original space as a dict over the permuted ids
    return {canonicalize(W(_permuted(perm, h.canonical.coords))): c for h, c in pairs}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FACTOR_RUNS).flatmap(lambda run: st.tuples(st.just(run), st.permutations(range(len(run[1]))))),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3),
)
def test_permuting_the_factors_permutes_every_level(drawn, a):
    # a space written with its factors in another order is the same space:
    # eigenvalues and dimensions agree, and alphas, ids, multiplicities and
    # index coefficients agree after permuting coordinates
    (build, factors, cutoff), perm = drawn
    space, image, s = build(factors), build(_permuted(perm, factors)), SystemSignature(a)
    witnesses = {}
    for got, want in zip(spectrum_up_to(image, cutoff), spectrum_up_to(space, cutoff), strict=True):
        assert (got.eigenvalue, got.real_dim, got.torus_decomp.k0) == (want.eigenvalue, want.real_dim, want.torus_decomp.k0)
        assert {alpha.coords for alpha in got.alphas} == {_permuted(perm, alpha.coords) for alpha in want.alphas}
        assert dict(got.torus_decomp.mults) == _mapped(perm, want.torus_decomp.mults)
        witnesses[got.eigenvalue] = {canonicalize(alpha) for alpha in got.alphas if not alpha.is_zero()}
    for got, want in zip(bifurcation_levels(image, s, cutoff), bifurcation_levels(space, s, cutoff), strict=True):
        assert (got.level, got.kernel_dim, got.index.unit) == (want.level, want.kernel_dim, want.index.unit)
        assert dict(got.index.codim1) == _mapped(perm, want.index.codim1)
    # the witness is some alpha's id at the level, so it may be the image of
    # another alpha than the original's; the ledger must not depend on which
    for (level, got), (_, want) in zip(certify_levels(image, s, cutoff), certify_levels(space, s, cutoff), strict=True):
        if isinstance(want, str):
            assert got == want
        elif level == 0:
            assert got == want
        else:
            assert got.ledger == want.ledger and got.witness in witnesses[abs(level)]


# (space, largest cutoff): a sphere, a product of rank 2 and a weight-table
# space, whose tables end below its level 6
MONOTONE_RUNS = (
    (S2, Fraction(30)),
    (P23, Fraction(20)),
    (load_space(GENERIC["space"]), Fraction(23, 4)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MONOTONE_RUNS).flatmap(
        lambda run: st.tuples(
            st.just(run[0]),
            st.lists(st.fractions(0, run[1], max_denominator=4), min_size=2, max_size=2, unique=True).map(sorted),
        )
    ),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=3),
)
def test_raising_the_cutoff_only_appends_levels(run, a):
    # a run at L1 < L2 is the run at L2 cut at L1: the same spectral levels,
    # indices and certificates, compared whole
    (space, (low, high)), s = run, SystemSignature(a)
    spectrum = spectrum_up_to(space, high)
    assert spectrum_up_to(space, low) == tuple(lv for lv in spectrum if lv.eigenvalue <= low)
    levels = bifurcation_levels(space, s, high)
    assert bifurcation_levels(space, s, low) == tuple(bl for bl in levels if abs(bl.level) <= low)
    certs = certify_levels(space, s, high)
    assert certify_levels(space, s, low) == tuple(entry for entry in certs if abs(entry[0]) <= low)


# (factors, tables degree, cutoff L): sphere-oracle table spaces of rank 1 to 3
SCALING_RUNS = (((2,), 6, 30), ((2, 3), 3, 12), ((2, 2, 2), 2, 8))


@pytest.mark.parametrize("factors, kmax, cutoff", SCALING_RUNS, ids=["S2", "S2xS3", "S2xS2xS2"])
def test_scaling_the_gram_matrix_scales_every_level(factors, kmax, cutoff):
    # Gram c G with the same rho multiplies every eigenvalue by c, so cutoff
    # c L reproduces cutoff L level for level: the same alphas, dimensions,
    # decompositions and indices, and certificates whose levels are times c.
    # The scaled Gram is stated as a config states it, as "p/q" strings or
    # {"num", "den"} objects, and a float scale is refused.
    space = _sphere_product_tables(factors, kmax)
    for c, form in ((Fraction(1, 3), str), (Fraction(7, 2), frac_to_json)):
        scaled = SymmetricSpaceData([[form(c * x) for x in row] for row in space.gram], space.rho, tables=space.tables)
        assert scaled.gram == tuple(tuple(c * x for x in row) for row in space.gram)
        for got, want in zip(spectrum_up_to(scaled, c * cutoff), spectrum_up_to(space, cutoff), strict=True):
            assert got == SpectralLevel(c * want.eigenvalue, want.alphas, want.torus_decomp)
        for a in ((-1,), (1, -1), (1, 1, -1)):
            s = SystemSignature(a)
            levels = bifurcation_levels(space, s, cutoff)
            for got, want in zip(bifurcation_levels(scaled, s, c * cutoff), levels, strict=True):
                assert (got.level, got.kernel_dim, got.index) == (c * want.level, want.kernel_dim, want.index)
            certs = certify_levels(space, s, cutoff)
            for got, (level, want) in zip(certify_levels(scaled, s, c * cutoff), certs, strict=True):
                if not isinstance(want, str):
                    want = UnboundednessCertificate(c * level, want.witness, tuple((c * lv, k) for lv, k in want.ledger))
                assert got == (c * level, want)
    with pytest.raises(ValueError, match="expected a rational"):
        SymmetricSpaceData([[x / 3.0 for x in row] for row in space.gram], space.rho, tables=space.tables)


@pytest.mark.parametrize("counts", [(-1, 2), (2, -1), (True, 1), (1, True), (1, 1.0), (1.5, 1)])
def test_signature_counts_are_nonnegative_integers(counts):
    # a negative count gave a signature of the other sign, and True counted as 1
    with pytest.raises(ValueError, match="nonnegative|expected an integer"):
        SystemSignature.from_counts(*counts)
    assert SystemSignature.from_counts(2, 0).a == (1, 1)


def test_impossibility_identity():
    for nm in range(1, 7):
        for np_ in range(1, 7):
            for parity in (0, 1):
                assert cancellation_impossible(nm, np_, parity)


# -- certificate records -------------------------------------------------------------------


def test_bifurcation_level_json_round_trip():
    written = [bl.to_json() for bl in bifurcation_levels(S2, sig(1, 2), 6)]
    assert json.loads(json.dumps(written)) == written
    assert written[1] == {
        "level": {"num": -2, "den": 1},
        "kernel_dim": 3,
        "index": {"unit": -2, "codim1": [{"H": [1], "c": -1}], "truncated": True},
    }
    assert [bl["index"]["truncated"] for bl in written] == [True, True, False, True, True]


def test_certificate_json_round_trip():
    written = cert_at(S2, sig(1, 2), 2).to_json()
    assert json.loads(json.dumps(written)) == written
    assert {k: v for k, v in written.items() if k != "conclusion"} == {
        "level": {"num": 2, "den": 1},
        "witness": [1],
        "ledger": [{"level": {"num": -2, "den": 1}, "coeff": -1}, {"level": {"num": 2, "den": 1}, "coeff": -2}],
        "unbounded": True,
        "symmetry_breaking": True,
    }
    zero = cert_at(S2, sig(1, 2), 0)
    assert zero.to_json() == {
        "level": {"num": 0, "den": 1},
        "witness": None,
        "ledger": [{"level": {"num": 0, "den": 1}, "coeff": 2}],
        "conclusion": zero.conclusion,
        "unbounded": True,
        "symmetry_breaking": False,
    }


def test_certificate_stores_only_level_witness_and_ledger():
    fields = ("level", "witness", "ledger")
    assert UnboundednessCertificate._fields == UnboundednessCertificate.__slots__ == fields
    cert = UnboundednessCertificate(Fraction(-2), H1, ((Fraction(-2), -1), (Fraction(2), -1)))
    assert cert == cert_at(S2, sig(1, 1), -2)
    assert cert.unbounded and cert.symmetry_breaking
    assert cert.conclusion == (
        "sum -2 != 0 at witness H[1]: lower levels contribute 0 there, so no finite "
        "candidate set with max |level| = 2 lets the indices cancel"
    )
    zero = UnboundednessCertificate(Fraction(0), None, ((Fraction(0), 2),))
    assert zero.unbounded and not zero.symmetry_breaking
    assert zero.conclusion.startswith("index(0) = 2*I != 0, so 0 is a bifurcation level")


@pytest.mark.parametrize(
    "level, witness, ledger, message",
    [
        (2, None, [(2, -1)], "witness exactly when its level is nonzero"),
        (0, H1, [(0, 2)], "witness exactly when its level is nonzero"),
        (2, H1, [], "the ledger is empty"),
        (2, H1, [(2, -1), (-2, -1)], "strictly ascending"),
        (0, None, [(0, 2), (0, 2)], "strictly ascending"),
        (2, H1, [(6, -1)], r"every ledger level must be \+-2"),
        (0, None, [(0, 2), (2, -1)], r"every ledger level must be \+-0"),
        (-2, H1, [(-2, 1), (2, -1)], "witness coefficients cancel; certificate cannot be issued"),
    ],
    ids=[
        f"constructor-{case}"
        for case in ("no-witness", "witness-at-zero", "empty", "descending", "repeated", "off-level", "off-zero", "cancels")
    ],
)
def test_certificate_contradicting_its_level_is_refused(level, witness, ledger, message):
    with pytest.raises(ValueError, match=message):
        UnboundednessCertificate(Fraction(level), witness, tuple((Fraction(lv), c) for lv, c in ledger))
