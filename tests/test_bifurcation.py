from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusbif import (
    UNIT,
    BifurcationLevel,
    EulerRingElement,
    RestrictedWeight,
    SymmetricSpaceData,
    SystemSignature,
    TorusRepDecomposition,
    UnboundednessCertificate,
    bifurcation_index,
    bifurcation_levels,
    cancellation_impossible,
    canonicalize,
    certify_levels,
    certify_unbounded,
    coeff_formula_check,
    neg_identity_degree,
    spectrum_up_to,
    witness_coefficient,
)

W = RestrictedWeight
S2 = SymmetricSpaceData.sphere(2)
S3 = SymmetricSpaceData.sphere(3)
P22 = SymmetricSpaceData.product_of_spheres([2, 2])
H1 = canonicalize(W((1,)))
H2 = canonicalize(W((2,)))


def sig(n_plus, n_minus):
    return SystemSignature.from_counts(n_plus, n_minus)


def decomp(k0, mults):
    return TorusRepDecomposition.from_dict(k0, mults)


# -- degree of the negative identity ------------------------------------------


def test_neg_identity_degree_trivial_line():
    assert neg_identity_degree(decomp(1, {})) == EulerRingElement(-1)


def test_neg_identity_degree_single_plane():
    got = neg_identity_degree(decomp(0, {H1: 1}))
    assert got == EulerRingElement(1, ((H1, -1),))


def test_neg_identity_degree_sphere_second_level():
    got = neg_identity_degree(decomp(1, {H1: 1, H2: 1}))
    assert got == EulerRingElement(-1, ((H1, 1), (H2, 1)))
    assert got.truncated


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
    got = bifurcation_index(S2, sig(0, 1), 2)
    assert got == EulerRingElement(2, ((H1, -1),))
    assert got.coeff_at(H1) == -1


def test_index_negative_level_single_positive_equation():
    got = bifurcation_index(S2, sig(1, 0), -2)
    # inverse of I - chi times (-2I + chi), truncated
    assert got == EulerRingElement(-2, ((H1, -1),))
    assert got.coeff_at(H1) == -1


def test_index_zero_level_values():
    assert bifurcation_index(S2, sig(2, 1), 0) == UNIT.scaled(-2)
    assert bifurcation_index(S2, sig(1, 2), 0) == UNIT.scaled(2)
    assert bifurcation_index(S2, sig(1, 1), 0).is_zero()


def test_index_rejects_levels_outside_candidate_set():
    with pytest.raises(ValueError):
        bifurcation_index(S2, sig(1, 0), 2)  # positive level needs a_i = -1
    with pytest.raises(ValueError):
        bifurcation_index(S2, sig(0, 1), -2)
    with pytest.raises(ValueError):
        bifurcation_index(S2, sig(1, 1), 3)  # not an eigenvalue


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


# -- closed-form coefficients ---------------------------------------------------------


def test_witness_coefficient_closed_form():
    assert witness_coefficient(1, 0) == -1
    assert witness_coefficient(1, 1) == 1
    assert witness_coefficient(2, 1) == -2
    assert witness_coefficient(3, 1) == 3
    # d_W + d_V itself may be passed; only its parity matters
    assert witness_coefficient(3, 9) == witness_coefficient(3, 1)


def test_coeff_formula_first_level():
    assert coeff_formula_check(S2, sig(0, 1), W((1,))) == (-1, -1)


def test_coeff_formula_second_level_two_negative_equations():
    computed, closed = coeff_formula_check(S2, sig(0, 2), W((2,)))
    assert closed == (-1) ** ((4 + 5) * 2 + 1) * 2 == -2
    assert computed == closed


def test_coeff_formula_negative_side():
    computed, closed = coeff_formula_check(S2, sig(1, 0), W((1,)), sign=-1)
    assert (computed, closed) == (-1, -1)


def test_lower_level_coefficient_vanishes():
    index = bifurcation_index(S2, sig(0, 1), 2)
    assert index.coeff_at(H2) == 0


def test_coeff_formula_rejects_zero_weight():
    with pytest.raises(ValueError):
        coeff_formula_check(S2, sig(0, 1), W((0,)))


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
    direct = (neg_identity_degree(v) ** n) * (neg_identity_degree(w) ** n - UNIT)
    expect = (-1) ** (k0 * n) * n * ((-1) ** (l0 * n + 1) * l_mu - ((-1) ** (l0 * n) - 1) * k_mu)
    assert direct.coeff_at(h) == expect
    inv = (neg_identity_degree(v) ** -n) * (neg_identity_degree(w) ** n - UNIT)
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
    cert = certify_unbounded(S2, sig(0, 1), 2)
    assert cert.witness == H1
    assert cert.ledger == ((Fraction(2), -1),)
    assert cert.coefficient_sum() == -1
    assert "sum -1 != 0" in cert.conclusion
    assert cert.unbounded and cert.symmetry_breaking


def test_certificate_both_signs():
    cert = certify_unbounded(S2, sig(1, 1), 2)
    assert cert.ledger == ((Fraction(-2), -1), (Fraction(2), -1))
    assert cert.coefficient_sum() == -2


def test_certificate_zero_level_odd_p():
    cert = certify_unbounded(S2, sig(1, 2), 0)  # n_minus = 2, n_plus = 1
    assert cert.witness is None
    assert cert.ledger == ((Fraction(0), 2),)
    assert not cert.symmetry_breaking
    cert = certify_unbounded(S2, sig(2, 1), 0)  # n_minus = 1, n_plus = 2
    assert cert.ledger == ((Fraction(0), -2),)


def test_certificate_refuses_even_p_at_zero():
    with pytest.raises(ValueError, match="no bifurcation guaranteed"):
        certify_unbounded(S2, sig(1, 1), 0)


def test_certificate_refuses_wrong_sign():
    with pytest.raises(ValueError, match="no bifurcation guaranteed"):
        certify_unbounded(S2, sig(0, 1), -2)


def test_certificate_on_product_space():
    cert = certify_unbounded(P22, sig(0, 1), 2)
    assert cert.witness == canonicalize(W((0, 1)))
    assert cert.coefficient_sum() != 0


def test_certify_levels_matches_per_level_certificates():
    for space in (S2, P22):
        for s in (sig(0, 1), sig(1, 0), sig(1, 1), sig(1, 2)):
            got = certify_levels(space, s, 12)
            assert [lv for lv, _ in got] == [bl.level for bl in bifurcation_levels(space, s, 12)]
            for level, cert in got:
                try:
                    want = certify_unbounded(space, s, level)
                except ValueError as exc:
                    want = str(exc)
                assert cert == want


def test_levels_match_per_level_index():
    for space in (S2, P22):
        for s in (sig(0, 2), sig(2, 1), sig(1, 1)):
            for bl in bifurcation_levels(space, s, 12):
                assert bl.index == bifurcation_index(space, s, bl.level)


def test_one_enumeration_per_range(monkeypatch):
    import torusbif.bifurcation as bif

    calls = []
    real = bif.spectrum_up_to

    def counted(space, cutoff):
        calls.append(cutoff)
        return real(space, cutoff)

    monkeypatch.setattr(bif, "spectrum_up_to", counted)
    levels = bifurcation_levels(P22, sig(1, 2), 30)
    assert len(levels) > 10
    assert calls == [30]
    calls.clear()
    certify_levels(P22, sig(1, 2), 30)
    assert calls == [30]


def test_impossibility_identity():
    for nm in range(1, 7):
        for np_ in range(1, 7):
            for parity in (0, 1):
                assert cancellation_impossible(nm, np_, parity)


# -- serialization -------------------------------------------------------------------------


def test_bifurcation_level_json_round_trip():
    for bl in bifurcation_levels(S2, sig(1, 2), 6):
        assert BifurcationLevel.from_json(bl.to_json()) == bl


def test_certificate_json_round_trip():
    for level in (2, 0):
        cert = certify_unbounded(S2, sig(1, 2), level)
        back = UnboundednessCertificate.from_json(cert.to_json())
        assert back == cert


@pytest.mark.parametrize("value", ["3", 3.9, True, None])
def test_bifurcation_level_reader_is_strict(value):
    data = bifurcation_levels(S2, sig(1, 2), 6)[0].to_json()
    data["kernel_dim"] = value
    with pytest.raises(ValueError, match="expected an integer"):
        BifurcationLevel.from_json(data)


@pytest.mark.parametrize(
    "field, value",
    [("unbounded", "false"), ("symmetry_breaking", "false"), ("unbounded", 0), ("symmetry_breaking", None), ("coeff", 2.5)],
)
def test_certificate_reader_is_strict(field, value):
    data = certify_unbounded(S2, sig(1, 2), 2).to_json()
    if field == "coeff":
        data["ledger"][0]["coeff"] = value
    else:
        data[field] = value
    with pytest.raises(ValueError, match="expected an? (integer|boolean)"):
        UnboundednessCertificate.from_json(data)
