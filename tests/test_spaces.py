import dataclasses
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torusbif import (
    GenericTables,
    RestrictedWeight,
    SpectralLevel,
    SymmetricSpaceData,
    canonicalize,
    eigenvalue_of,
    harmonic_dim,
    load_space,
    spectrum_up_to,
    sphere_weight_multiplicity,
)
from torusbif.cli import run_exact
from torusbif.spaces import _coordinate_bound

W = RestrictedWeight
S2 = SymmetricSpaceData.sphere(2)
S3 = SymmetricSpaceData.sphere(3)
P22 = SymmetricSpaceData.product_of_spheres([2, 2])
P23 = SymmetricSpaceData.product_of_spheres([2, 3])


# -- eigenvalues ---------------------------------------------------------------


def test_sphere_eigenvalues():
    assert eigenvalue_of(S2, W((1,))) == 2
    assert eigenvalue_of(S2, W((2,))) == 6
    assert eigenvalue_of(S2, W((3,))) == 12
    assert eigenvalue_of(S2, W((0,))) == 0
    assert eigenvalue_of(P23, W((0, 0))) == 0


def test_product_eigenvalue():
    assert eigenvalue_of(P23, W((1, 1))) == 5


def test_eigenvalue_requires_dominant_weight():
    with pytest.raises(ValueError, match="alpha not dominant"):
        eigenvalue_of(S2, W((-1,)))


def test_eigenvalue_monotone_in_dominance_order():
    for space, rank in ((S2, 1), (P23, 2)):
        box = [W(c) for c in itertools.product(range(6), repeat=rank)]
        for a in box:
            for b in box:
                diff = [y - x for x, y in zip(a.coords, b.coords)]
                if all(d >= 0 for d in diff) and a != b:
                    assert eigenvalue_of(space, a) < eigenvalue_of(space, b)


# -- spectrum enumeration --------------------------------------------------------


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def positive_definite_grams(draw):
    # B^T B + c I with c > 0 is symmetric positive definite over the rationals
    r = draw(st.integers(2, 3))
    b = [[draw(small_fractions) for _ in range(r)] for _ in range(r)]
    c = draw(st.builds(Fraction, st.integers(2, 8), st.integers(1, 4)))
    return tuple(
        tuple(sum(b[k][i] * b[k][j] for k in range(r)) + (c if i == j else 0) for j in range(r))
        for i in range(r)
    )


@settings(max_examples=60, deadline=None)
@given(positive_definite_grams(), st.builds(Fraction, st.integers(0, 30), st.integers(1, 4)))
def test_coordinate_bound_is_exact_and_safe(gram, cutoff):
    bounds = _coordinate_bound(gram, cutoff)
    assert all(isinstance(b, int) and b >= 0 for b in bounds)
    for coords in itertools.product(*(range(b + 3) for b in bounds)):
        if all(x <= b for x, b in zip(coords, bounds)):
            continue
        norm = sum(coords[i] * gram[i][j] * coords[j] for i in range(len(gram)) for j in range(len(gram)))
        assert norm > cutoff


def test_coordinate_bound_on_identity_gram():
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert _coordinate_bound(identity, Fraction(80)) == (8, 8)
    assert _coordinate_bound(identity, Fraction(81)) == (9, 9)
    assert _coordinate_bound(identity, Fraction(0)) == (0, 0)


def test_sphere_spectrum_levels():
    levels = spectrum_up_to(S2, 12)
    assert [lv.eigenvalue for lv in levels] == [0, 2, 6, 12]
    assert all(len(lv.alphas) == 1 for lv in levels)


def test_cutoff_zero_gives_single_level():
    levels = spectrum_up_to(S2, 0)
    assert len(levels) == 1
    assert levels[0].eigenvalue == 0
    assert levels[0].real_dim == 1


def test_product_spectrum_grouping():
    levels = {lv.eigenvalue: lv for lv in spectrum_up_to(P22, 12)}
    assert {a.coords for a in levels[Fraction(2)].alphas} == {(1, 0), (0, 1)}
    assert {a.coords for a in levels[Fraction(4)].alphas} == {(1, 1)}
    assert {a.coords for a in levels[Fraction(12)].alphas} == {(3, 0), (0, 3), (2, 2)}
    assert levels[Fraction(12)].real_dim == 7 + 7 + 25


def test_rational_cutoff_is_exact():
    levels = spectrum_up_to(S2, Fraction(11, 2))
    assert [lv.eigenvalue for lv in levels] == [0, 2]


# -- harmonic counting oracle -----------------------------------------------------


def test_harmonic_dims():
    assert [harmonic_dim(2, k) for k in (0, 1, 2)] == [1, 3, 5]
    assert harmonic_dim(3, 1) == 4
    assert harmonic_dim(3, 2) == 9
    assert all(harmonic_dim(n, 0) == 1 for n in (2, 3, 4, 5))


def test_harmonic_dim_cross_checks():
    for k in range(11):
        assert harmonic_dim(2, k) == 2 * k + 1
    for n in (2, 3, 4):
        for k in range(8):
            total = sum(sphere_weight_multiplicity(n, k, m) for m in range(-k, k + 1))
            assert total == harmonic_dim(n, k)


def test_sphere_weight_multiplicities():
    assert [sphere_weight_multiplicity(2, 2, m) for m in range(-2, 3)] == [1, 1, 1, 1, 1]
    assert sphere_weight_multiplicity(2, 2, 3) == 0
    assert sphere_weight_multiplicity(3, 1, 0) == 2
    for n in (2, 3, 4):
        for k in range(1, 7):
            assert sphere_weight_multiplicity(n, k, k) == 1
            assert sphere_weight_multiplicity(n, k, m=-k) == 1


# -- torus decompositions -----------------------------------------------------------


def test_sphere_level_decomposition():
    levels = {lv.eigenvalue: lv for lv in spectrum_up_to(S2, 6)}
    dec = levels[Fraction(6)].torus_decomp
    assert dec.k0 == 1
    assert dict(dec.mults) == {canonicalize(W((1,))): 1, canonicalize(W((2,))): 1}
    dec0 = levels[Fraction(0)].torus_decomp
    assert dec0.k0 == 1 and dec0.mults == ()


def test_product_level_decomposition():
    levels = {lv.eigenvalue: lv for lv in spectrum_up_to(P22, 4)}
    dec = levels[Fraction(2)].torus_decomp
    assert dec.k0 == 2
    assert dict(dec.mults) == {canonicalize(W((1, 0))): 1, canonicalize(W((0, 1))): 1}


def test_dimension_consistency_and_parity():
    for space in (S2, S3, P22, P23):
        for lv in spectrum_up_to(space, 30):
            dec = lv.torus_decomp
            assert dec.total_dim == lv.real_dim
            assert (-1) ** dec.k0 == (-1) ** dec.total_dim


def test_first_appearance_of_each_plane():
    for space in (S2, S3, P22, P23):
        levels = spectrum_up_to(space, 30)
        for i, lv in enumerate(levels):
            for alpha in lv.alphas:
                if alpha.is_zero():
                    continue
                h = canonicalize(alpha)
                assert lv.torus_decomp.multiplicity(h) == 1
                for j in range(i):
                    assert levels[j].torus_decomp.multiplicity(h) == 0


# -- descriptor validation -----------------------------------------------------------


def test_gram_must_be_symmetric_positive_definite():
    tables = GenericTables(())
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricSpaceData(((1, 1), (0, 1)), (1, 1), tables=tables)
    with pytest.raises(ValueError, match="positive definite"):
        SymmetricSpaceData(((1, 2), (2, 1)), (1, 1), tables=tables)


def test_sphere_preset_requires_n_at_least_two():
    with pytest.raises(ValueError):
        SymmetricSpaceData.sphere(1)


def test_descriptor_stores_no_rank_or_kind():
    assert [f.name for f in dataclasses.fields(SymmetricSpaceData)] == ["gram", "rho", "factors", "tables"]
    assert P23.rank == 2
    assert S2 == SymmetricSpaceData.product_of_spheres([2])
    assert str(S2) == "S^2" and str(P23) == "S^2 x S^3"


@pytest.mark.parametrize(
    "gram, rho, factors",
    [
        # the Gram and rho of S^4 with the factor of S^2: S^4 eigenvalues with S^2 dimensions
        (((1,),), (Fraction(3, 2),), (2,)),
        (((2,),), (Fraction(1, 2),), (2,)),
        (((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1)), (2, 2)),
        (((1, Fraction(1, 2)), (Fraction(1, 2), 1)), (Fraction(1, 2), Fraction(1, 2)), (2, 2)),
        (((1, 0), (0, 1)), (Fraction(1, 2), Fraction(1, 2)), (2,)),
    ],
)
def test_sphere_factors_fix_gram_and_rho(gram, rho, factors):
    with pytest.raises(ValueError, match="sphere factors"):
        SymmetricSpaceData(gram, rho, factors=factors)


def test_descriptor_with_both_oracles_is_rejected():
    tables = GenericTables.from_json(sphere2_tables(2))
    with pytest.raises(ValueError, match="exactly one weight oracle"):
        SymmetricSpaceData(((1,),), (Fraction(1, 2),), factors=(2,), tables=tables)


# -- generic spaces via weight tables ---------------------------------------------------


def sphere2_tables(kmax):
    entries = []
    for k in range(kmax + 1):
        weights = [
            {"mu": [m], "mult": sphere_weight_multiplicity(2, k, m)}
            for m in range(-k, k + 1)
            if sphere_weight_multiplicity(2, k, m)
        ]
        entries.append({"alpha": [k], "weights": weights})
    return {"entries": entries}


def test_generic_space_replicates_sphere(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(sphere2_tables(4)))
    space = load_space(
        {"kind": "generic", "gram": [[1]], "rho": ["1/2"], "tables": str(path)},
        base_dir=None,
    )
    got = spectrum_up_to(space, 12)
    want = spectrum_up_to(S2, 12)
    assert [lv.eigenvalue for lv in got] == [lv.eigenvalue for lv in want]
    assert [lv.real_dim for lv in got] == [lv.real_dim for lv in want]
    assert [lv.torus_decomp for lv in got] == [lv.torus_decomp for lv in want]


def test_generic_space_without_tables_is_rejected():
    with pytest.raises(ValueError, match="exactly one weight oracle"):
        SymmetricSpaceData(((Fraction(1),),), (Fraction(1, 2),))


def test_generic_space_missing_entry():
    tables = GenericTables.from_json(sphere2_tables(2))
    space = SymmetricSpaceData([[1]], [Fraction(1, 2)], tables=tables)
    with pytest.raises(ValueError, match="weight tables required"):
        spectrum_up_to(space, 30)  # needs alpha = (3), not tabulated


def test_generic_space_with_rational_gram_groups_fractional_eigenvalues():
    # gram [[1,1/2],[1/2,1]], rho (1/2,1/2): lambda_(1,0) = lambda_(0,1) = 5/2
    tables = GenericTables.from_json(
        {
            "entries": [
                {"alpha": [0, 0], "weights": [{"mu": [0, 0], "mult": 1}]},
                {
                    "alpha": [1, 0],
                    "weights": [
                        {"mu": [1, 0], "mult": 1},
                        {"mu": [0, 0], "mult": 1},
                        {"mu": [-1, 0], "mult": 1},
                    ],
                },
                {
                    "alpha": [0, 1],
                    "weights": [
                        {"mu": [0, 1], "mult": 1},
                        {"mu": [0, 0], "mult": 1},
                        {"mu": [0, -1], "mult": 1},
                    ],
                },
            ]
        }
    )
    half = Fraction(1, 2)
    space = SymmetricSpaceData([[1, half], [half, 1]], [half, half], tables=tables)
    assert eigenvalue_of(space, W((1, 0))) == Fraction(5, 2)
    levels = spectrum_up_to(space, Fraction(5, 2))
    assert [lv.eigenvalue for lv in levels] == [0, Fraction(5, 2)]
    top = levels[-1]
    assert {a.coords for a in top.alphas} == {(1, 0), (0, 1)}
    assert top.real_dim == 6
    assert top.torus_decomp.k0 == 2


def test_generic_tables_must_be_conjugation_symmetric():
    tables = GenericTables.from_json(
        {"entries": [{"alpha": [0], "weights": [{"mu": [0], "mult": 1}]},
                     {"alpha": [1], "weights": [{"mu": [1], "mult": 1}, {"mu": [0], "mult": 1}]}]}
    )
    space = SymmetricSpaceData([[1]], [Fraction(1, 2)], tables=tables)
    with pytest.raises(ValueError, match="conjugation-symmetric"):
        spectrum_up_to(space, 2)


def test_spectrum_builds_one_weight_map_per_alpha(monkeypatch):
    # a table's only dimension count is the sum of its multiplicities, which
    # the decomposition already holds, so the spectrum reads each summand's
    # weights once
    from torusbif import spaces

    config = json.loads((Path(__file__).parent / "golden_cli.json").read_text())["configs"]["generic-rank2"]
    space = load_space(config["space"], base_dir=None)
    built, weight_map = [], spaces._alpha_weight_map

    def counted(space, alpha):
        built.append(alpha)
        return weight_map(space, alpha)

    monkeypatch.setattr(spaces, "_alpha_weight_map", counted)
    alphas = [a for lv in spectrum_up_to(space, config["cutoff"]) for a in lv.alphas]
    assert len(alphas) == 3
    assert built == alphas


def test_sphere_dimension_cross_check_fires(monkeypatch):
    # sphere factors count each level's dimension twice, by the harmonic
    # dimensions and by the torus decomposition, and the two must agree
    from torusbif import spaces

    monkeypatch.setattr(spaces, "harmonic_dim", lambda n, k: harmonic_dim(n, k) + 1)
    with pytest.raises(ValueError, match="decomposition dimension 1 != eigenspace dimension 2 at lambda=0"):
        spectrum_up_to(SymmetricSpaceData.sphere(2), 6)


def test_released_spectrum_leaves_no_weight_maps():
    # neither the spectrum nor the per-alpha weight maps are cached: once the
    # spectrum is released, only the per-factor weights (a few entries per
    # degree) stay allocated
    import tracemalloc

    space = SymmetricSpaceData.product_of_spheres([2, 2, 2])
    tracemalloc.start()
    try:
        assert len(spectrum_up_to(space, 40)) > 10
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 500_000


# -- export and serialization --------------------------------------------------------------


def test_spectrum_csv_shape():
    csv, code = run_exact("spectrum", {"space": {"kind": "sphere", "n": 2}, "cutoff": 6}, None, "csv")
    assert code == 0
    lines = csv.strip().splitlines()
    assert lines[0] == "eigenvalue_num,eigenvalue_den,alphas,real_dim,k0,k(1),k(2)"
    assert lines[1] == "0,1,(0),1,1,0,0"
    assert lines[2] == "2,1,(1),3,1,1,0"
    assert lines[3] == "6,1,(2),5,1,1,1"


def test_spectral_level_json_round_trip():
    written = [lv.to_json() for lv in spectrum_up_to(P22, 8)]
    assert json.loads(json.dumps(written)) == written
    assert written[1] == {
        "eigenvalue": {"num": 2, "den": 1},
        "alphas": [[0, 1], [1, 0]],
        "real_dim": 6,
        "decomposition": {"k0": 2, "mults": [{"H": [0, 1], "mult": 1}, {"H": [1, 0], "mult": 1}]},
    }
    assert [lv["real_dim"] for lv in written] == [1, 6, 9, 10, 30]


def test_spectral_level_stores_no_dimension():
    assert [f.name for f in dataclasses.fields(SpectralLevel)] == ["eigenvalue", "alphas", "torus_decomp"]
    assert [lv.real_dim for lv in spectrum_up_to(S2, 12)] == [1, 3, 5, 7]
