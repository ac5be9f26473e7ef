import itertools
import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torusbif import (
    GenericTables,
    RestrictedWeight,
    SpectralLevel,
    SymmetricSpaceData,
    SystemSignature,
    bifurcation_levels,
    canonicalize,
    certify_levels,
    eigenvalue_of,
    harmonic_dim,
    load_space,
    spectrum_up_to,
    sphere_weight_multiplicity,
)
from torusbif import cli
from torusbif.cli import COMMANDS, run_exact
from torusbif.jsonio import MAX_EXPONENT
from torusbif import spaces
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


@pytest.mark.parametrize("space, cutoff, count", [(S2, 80, 9), (P22, 80, 81), (P22, 81, 100)])
def test_lattice_limit_refuses_a_larger_box_only(monkeypatch, space, cutoff, count):
    # the box of _coordinate_bound holds prod(b_i + 1) points; exactly
    # LATTICE_LIMIT of them are enumerated, one more is refused
    monkeypatch.setattr(spaces, "LATTICE_LIMIT", count)
    assert spectrum_up_to(space, cutoff)
    monkeypatch.setattr(spaces, "LATTICE_LIMIT", count - 1)
    refusal = f"lattice box of {count} candidate weights, more than LATTICE_LIMIT = {count - 1}$"
    with pytest.raises(ValueError, match=refusal):
        spectrum_up_to(space, cutoff)


@pytest.mark.parametrize(
    "space, cutoff, count",
    [(S2, 6, 9), (P22, 12, 1 + 2 * 3 + 9 + 2 * 5 + 2 * 15 + 25 + 2 * 7), ("tables", 12, 16)],
    ids=["S2", "S2xS2", "tables"],
)
def test_harmonic_limit_refuses_a_larger_count_only(monkeypatch, space, cutoff, count):
    # the count is the summed dimension of the levels up to the cutoff;
    # exactly HARMONIC_LIMIT harmonics are decomposed, one more is refused
    # before any weight map is built
    if space == "tables":
        space = SymmetricSpaceData([[1]], [Fraction(1, 2)], tables=GenericTables.from_json(sphere2_tables(3)))
    monkeypatch.setattr(spaces, "HARMONIC_LIMIT", count)
    assert sum(lv.real_dim for lv in spectrum_up_to(space, cutoff)) == count
    monkeypatch.setattr(spaces, "HARMONIC_LIMIT", count - 1)

    def no_map(*args):
        raise AssertionError("a weight map was built")

    monkeypatch.setattr(spaces, "_alpha_weight_map", no_map)
    refusal = f"^the cutoff admits {count} harmonics, more than HARMONIC_LIMIT = {count - 1}$"
    for compute in (spectrum_up_to, spaces.summand_decompositions):
        with pytest.raises(ValueError, match=refusal):
            compute(space, cutoff)


def test_certify_builds_no_weight_map_so_the_harmonic_limit_does_not_apply(monkeypatch):
    want = certify_levels(P22, SystemSignature((1, -1)), 12)
    monkeypatch.setattr(spaces, "HARMONIC_LIMIT", 0)
    assert certify_levels(P22, SystemSignature((1, -1)), 12) == want
    with pytest.raises(ValueError, match="more than HARMONIC_LIMIT = 0$"):
        spectrum_up_to(P22, 12)


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


@pytest.mark.parametrize(
    "function, args",
    [
        (harmonic_dim, (3, True)),
        (harmonic_dim, (2, 2.0)),
        (harmonic_dim, (2.0, 2)),
        (sphere_weight_multiplicity, (2, True, 1)),
        (sphere_weight_multiplicity, (2, 2, 1.0)),
        (sphere_weight_multiplicity, (2, 2, True)),
        (sphere_weight_multiplicity, (Fraction(2), 2, 1)),
    ],
    ids=lambda x: repr(x) if isinstance(x, tuple) else x.__name__,
)
def test_the_harmonic_oracle_takes_integers_only(function, args):
    # a bool or float was counted as the integer it equals, or raised a
    # TypeError from math.comb
    with pytest.raises(ValueError, match="expected an integer"):
        function(*args)


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
    assert SymmetricSpaceData._fields == ("gram", "rho", "factors", "tables")
    assert SymmetricSpaceData.__slots__ == (*SymmetricSpaceData._fields, "_integer_form")
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


def product_rows(kmax):
    """The weight tables of S^2 x S^2 to degree kmax in each factor, as
    ``GenericTables`` rows taken from the sphere oracle."""
    return [
        (W(alpha), tuple((W(mu), m) for mu, m in spaces._alpha_weight_map(P22, W(alpha))))
        for alpha in itertools.product(range(kmax + 1), repeat=2)
    ]


def test_a_table_is_one_value_whatever_the_order_of_its_entries(monkeypatch):
    rows = product_rows(3)
    rng = random.Random(0)
    shuffled = [(alpha, rng.sample(weights, len(weights))) for alpha, weights in rng.sample(rows, len(rows))]
    assert [alpha for alpha, _ in shuffled] != [alpha for alpha, _ in rows]
    given, reordered = GenericTables(rows), GenericTables(shuffled)
    assert given == reordered and hash(given) == hash(reordered) and repr(given) == repr(reordered)
    assert pickle.loads(pickle.dumps(reordered)) == given
    # the one canonical form: alphas, and each row's weights, in coordinate order
    assert [alpha.coords for alpha, _ in reordered.rows] == sorted(alpha.coords for alpha, _ in rows)
    assert all([mu.coords for mu, _ in ws] == sorted(mu.coords for mu, _ in ws) for _, ws in reordered.rows)
    raw = {"a": [1, 1, -1], "cutoff": 18}
    outputs = []
    for tables in (given, reordered):
        space = SymmetricSpaceData(P22.gram, P22.rho, tables=tables)
        monkeypatch.setattr(cli, "require_space", lambda raw, base_dir: space)
        commands = ("spectrum", "decompose", "index", "certify")
        outputs.append([run_exact(c, raw, None, fmt) for c in commands for fmt in COMMANDS[c].renderers])
    assert outputs[0] == outputs[1]
    assert all(code == 0 for _, code in outputs[0]) and len(outputs[0]) == 11


def test_a_table_weight_count_builds_no_weight(monkeypatch):
    space = SymmetricSpaceData(P22.gram, P22.rho, tables=GenericTables(product_rows(2)))
    alphas = [alpha for alpha, _ in space.tables.rows]
    mus = list(itertools.product(range(-3, 4), repeat=2))

    def counts(space):
        return [spaces._weight_count(space, a, mu) for a in alphas for mu in mus] + [
            spaces._weight_count(space, a) for a in alphas
        ]

    built, init = [], RestrictedWeight.__init__

    def counted_init(weight, coords):
        built.append(coords)
        init(weight, coords)

    monkeypatch.setattr(RestrictedWeight, "__init__", counted_init)
    got = counts(space)
    assert built == []
    monkeypatch.undo()
    assert got == counts(P22)


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


def asymmetric_tables_space():
    """A rank-1 table space whose level 2 has weight 1 but not weight -1."""
    tables = GenericTables.from_json(
        {"entries": [{"alpha": [0], "weights": [{"mu": [0], "mult": 1}]},
                     {"alpha": [1], "weights": [{"mu": [1], "mult": 1}, {"mu": [0], "mult": 1}]}]}
    )
    return SymmetricSpaceData([[1]], [Fraction(1, 2)], tables=tables)


def test_generic_tables_must_be_conjugation_symmetric():
    with pytest.raises(ValueError, match="conjugation-symmetric"):
        spectrum_up_to(asymmetric_tables_space(), 2)


def test_certify_refuses_tables_that_are_not_conjugation_symmetric():
    # certify reads a few multiplicities per level, not the decomposition,
    # and still refuses a table that is not symmetric at a level it certifies
    space = asymmetric_tables_space()
    for a in [(1,), (-1,), (1, -1)]:
        with pytest.raises(ValueError, match="not conjugation-symmetric at \\(1,\\)"):
            certify_levels(space, SystemSignature(a), 2)
    # below the asymmetric level the table is certified as usual
    assert [lv for lv, _ in certify_levels(space, SystemSignature((-1,)), 1)] == [0]


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


def test_decompose_holds_one_levels_weight_maps_at_a_time(monkeypatch):
    # each level's summands are decomposed before the next level's weight
    # maps are built: every decomposition, of a level or of a summand, sees
    # only the maps of its own level and the levels below
    built, weight_map, decomposition, seen = [], spaces._alpha_weight_map, spaces._decomposition, []

    def counted_map(space, alpha):
        built.append(alpha)
        return weight_map(space, alpha)

    def counted_decomposition(space, maps):
        seen.append(len(built))
        return decomposition(space, maps)

    monkeypatch.setattr(spaces, "_alpha_weight_map", counted_map)
    monkeypatch.setattr(spaces, "_decomposition", counted_decomposition)
    result = spaces.summand_decompositions(P23, 20)
    expected, below = [], 0
    for level, decs in result:
        below += len(level.alphas)
        expected += [below] * (1 + len(decs))
    assert len(result) > 5
    assert seen == expected


# -- exact inputs: one rule, jsonio's, for a config and for the library ------------------


def trivial_tables(kmax):
    """Rank-2 tables with every alpha in [0, kmax]^2 the trivial line."""
    zero = W((0, 0))
    return GenericTables(tuple((W(a), ((zero, 1),)) for a in itertools.product(range(kmax + 1), repeat=2)))


RANGE_FUNCTIONS = {
    "spectrum_up_to": spectrum_up_to,
    "summand_decompositions": spaces.summand_decompositions,
    "bifurcation_levels": lambda space, cutoff: bifurcation_levels(space, SystemSignature((1, -1)), cutoff),
    "certify_levels": lambda space, cutoff: certify_levels(space, SystemSignature((1, -1)), cutoff),
}
INEXACT = [0.5, 1.0, True, Decimal("0.5")]
INEXACT_IDS = ["float", "integral-float", "bool", "Decimal"]


@pytest.mark.parametrize("value", INEXACT, ids=INEXACT_IDS)
def test_a_space_refuses_an_inexact_gram_or_rho(value):
    tables = GenericTables.from_json(sphere2_tables(2))
    with pytest.raises(ValueError, match="expected a rational"):
        SymmetricSpaceData([[value]], [Fraction(1, 2)], tables=tables)
    with pytest.raises(ValueError, match="expected a rational"):
        SymmetricSpaceData([[1]], [value], tables=tables)
    with pytest.raises(ValueError, match="expected a rational"):
        SymmetricSpaceData([[value]], [Fraction(1, 2)], factors=(2,))


@pytest.mark.parametrize("value", INEXACT, ids=INEXACT_IDS)
@pytest.mark.parametrize("function", RANGE_FUNCTIONS.values(), ids=RANGE_FUNCTIONS.keys())
def test_the_range_functions_refuse_an_inexact_cutoff(function, value):
    with pytest.raises(ValueError, match="expected a rational"):
        function(S2, value)


@pytest.mark.parametrize(
    "form",
    [Fraction, str, lambda f: {"num": 2 * f.numerator, "den": 2 * f.denominator}],
    ids=["Fraction", "p/q", "num-den"],
)
@pytest.mark.parametrize("function", RANGE_FUNCTIONS.values(), ids=RANGE_FUNCTIONS.keys())
def test_a_space_and_a_range_take_every_exact_form(function, form):
    tables = GenericTables.from_json(sphere2_tables(3))
    want = function(SymmetricSpaceData([[1]], [Fraction(1, 2)], tables=tables), 12)
    space = SymmetricSpaceData([[form(Fraction(1))]], [form(Fraction(1, 2))], tables=tables)
    assert space.gram == ((1,),) and space.rho == (Fraction(1, 2),)
    assert function(space, form(Fraction(12))) == want


def test_an_exact_gram_keeps_a_level_that_a_float_gram_splits():
    # lambda(1,1) = 1/10 + 3/10 and lambda(2,0) = 4/10 are one level, which
    # floats would split: Fraction(0.1) + Fraction(0.3) != 4 * Fraction(0.1)
    space = SymmetricSpaceData([["1/10", 0], [0, {"num": 3, "den": 10}]], [0, 0], tables=trivial_tables(2))
    levels = spectrum_up_to(space, "2/5")
    assert [lv.eigenvalue for lv in levels] == [0, Fraction(1, 10), Fraction(3, 10), Fraction(2, 5)]
    assert [a.coords for a in levels[-1].alphas] == [(1, 1), (2, 0)] and levels[-1].real_dim == 2
    with pytest.raises(ValueError, match="expected a rational"):
        SymmetricSpaceData([[0.1, 0], [0, 0.3]], [0, 0], tables=trivial_tables(2))


@pytest.mark.parametrize("function", RANGE_FUNCTIONS.values(), ids=RANGE_FUNCTIONS.keys())
def test_an_exact_cutoff_keeps_a_level_that_a_float_cutoff_drops(function):
    # Fraction(0.3) < 3/10, so a float cutoff would drop the level at 3/10
    space = SymmetricSpaceData([["1/10", 0], [0, "3/10"]], [0, 0], tables=trivial_tables(2))
    top = spectrum_up_to(space, "3/10")[-1]
    assert top.eigenvalue == Fraction(3, 10) and [a.coords for a in top.alphas] == [(0, 1)]
    assert function(space, Fraction(3, 10)) == function(space, "3/10") == function(space, {"num": 3, "den": 10})
    with pytest.raises(ValueError, match="expected a rational"):
        function(space, 0.3)


@pytest.mark.parametrize("mult", [1.5, True, "2"], ids=["float", "bool", "str"])
def test_table_multiplicities_are_refused_unless_integers(mult):
    mu = W((0,))
    with pytest.raises(ValueError, match="expected an integer"):
        GenericTables(((mu, ((mu, mult),)),))
    with pytest.raises(ValueError, match="expected an integer"):
        GenericTables.from_json({"entries": [{"alpha": [0], "weights": [{"mu": [0], "mult": mult}]}]})


@pytest.mark.parametrize("function", RANGE_FUNCTIONS.values(), ids=RANGE_FUNCTIONS.keys())
def test_a_library_exponent_past_the_limit_is_refused_before_the_power_is_built(function):
    refusal = f"exceeds {MAX_EXPONENT} in magnitude"
    with pytest.raises(ValueError, match=refusal):
        SymmetricSpaceData([["1e1000000"]], ["1/2"], tables=GenericTables.from_json(sphere2_tables(2)))
    with pytest.raises(ValueError, match=refusal):
        function(S2, "1e1000000")


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
    assert SpectralLevel._fields == SpectralLevel.__slots__ == ("eigenvalue", "alphas", "torus_decomp")
    assert [lv.real_dim for lv in spectrum_up_to(S2, 12)] == [1, 3, 5, 7]
