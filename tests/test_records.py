"""The record contract, checked on one instance of every record class: a
pickle, ``copy``, ``deepcopy`` or ``replace`` round trip keeps equality,
hash and ``repr``, and no field can be assigned or deleted."""

import copy
import importlib
import pickle
from fractions import Fraction

import numpy as np
import pytest

from torusbif import (
    EulerRingElement,
    GenericTables,
    RestrictedWeight,
    SymmetricSpaceData,
    SystemSignature,
    TorusRepDecomposition,
    bifurcation_levels,
    canonicalize,
    certify_levels,
    spectrum_up_to,
)
from torusbif._record import Record
from torusbif.continuation import continue_branch
from torusbif.galerkin import Crossing, GalerkinBasis, NonlinearitySpec, make_state, trivial_branch_crossings
from torusbif.selftest import CriterionResult

W = RestrictedWeight
H = canonicalize(W((1, -2)))
P22 = SymmetricSpaceData.product_of_spheres([2, 2])
TABLES = {
    "entries": [
        {"alpha": [0], "weights": [{"mu": [0], "mult": 1}]},
        {"alpha": [1], "weights": [{"mu": [-1], "mult": 1}, {"mu": [0], "mult": 1}, {"mu": [1], "mult": 1}]},
    ]
}


# module-level, so that pickle can name them; the presets' closures cannot be pickled
def _value(u, lam):
    return -0.25 * np.sum(u * u, axis=0) ** 2


def _grad(u, lam):
    return -np.sum(u * u, axis=0) * u


def _hess(u, lam):
    return -2.0 * u[:, None, :] * u[None, :, :]


SAMPLES = {
    "RestrictedWeight": lambda: W((2, -1)),
    "SubgroupId": lambda: H,
    "EulerRingElement": lambda: EulerRingElement(-3, {H: 2, canonicalize(W((0, 1))): -1}),
    "TorusRepDecomposition": lambda: TorusRepDecomposition(2, ((H, 1),)),
    "SpectralLevel": lambda: spectrum_up_to(P22, 6)[2],
    "GenericTables": lambda: GenericTables.from_json(TABLES),
    "SymmetricSpaceData": lambda: SymmetricSpaceData([[1]], [0], tables=GenericTables.from_json(TABLES)),
    "SystemSignature": lambda: SystemSignature((1, -1, -1)),
    "BifurcationLevel": lambda: bifurcation_levels(P22, SystemSignature((1, -1)), 6)[-1],
    "UnboundednessCertificate": lambda: certify_levels(P22, SystemSignature((1, -1)), 6)[-1][1],
    "NonlinearitySpec": lambda: NonlinearitySpec("quartic", _value, _grad, _hess, 3),
    "BranchState": lambda: make_state(GalerkinBasis(3, orders=[0]), [0.1, 0.0, -0.2, 0.05], 2.5, 0.3),
    "Crossing": lambda: trivial_branch_crossings(4, SystemSignature((1, -1)), (-6, 6))[-1],
    "BranchResult": lambda: continue_branch(4, NonlinearitySpec.quartic(), SystemSignature((-1,)), 2, 0.01),
    "CriterionResult": lambda: CriterionResult(7, "euler_ring_axioms", True, "10000 cases", 0.25),
}

# copy.replace (Python 3.13) calls a record's __replace__; older Pythons call it directly
replace = getattr(copy, "replace", lambda obj, **changes: obj.__replace__(**changes))

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": replace,
}


def _structure(x):
    """What a round trip must keep of a value, down through records, lists
    and tuples: an array's dtype, shape and bytes, a basis's degree and modes."""
    if isinstance(x, Record):
        return type(x), tuple(_structure(getattr(x, name)) for name in x._fields)
    if isinstance(x, np.ndarray):
        return np.ndarray, x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, GalerkinBasis):
        return GalerkinBasis, x.max_degree, x.modes
    if isinstance(x, (list, tuple)):
        return type(x), tuple(_structure(v) for v in x)
    return x


def _holds_mutables(x) -> bool:
    return any(isinstance(v, (np.ndarray, GalerkinBasis, list)) for v in x._values())


def test_every_record_class_has_a_sample():
    for module in ("weights", "euler_ring", "spaces", "bifurcation", "galerkin", "continuation", "selftest"):
        importlib.import_module(f"torusbif.{module}")
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(SAMPLES)
    assert len(SAMPLES) == 15


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("build", SAMPLES.values(), ids=SAMPLES.keys())
def test_records_round_trip(build, round_trip):
    x = build()
    back = round_trip(x)
    assert type(back) is type(x) and _structure(back) == _structure(x)
    if not _holds_mutables(x):
        assert back == x and hash(back) == hash(x) and repr(back) == repr(x)
        return
    # A numpy array compares elementwise, a list is unhashable and a basis
    # compares by identity, in a record's field tuple as in any tuple: such
    # records compare as their fields do, and a shallow copy or a replace
    # with no changes shares them.
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)
    with pytest.raises(TypeError, match="unhashable"):
        hash(back)
    if round_trip in (copy.copy, replace):
        assert back == x and repr(back) == repr(x)


@pytest.mark.parametrize("build", SAMPLES.values(), ids=SAMPLES.keys())
def test_records_are_frozen(build):
    x = build()
    assert x._fields
    for name in x._fields:
        before = getattr(x, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")


def test_repr_names_each_field_in_order():
    level = Fraction(-2)
    assert repr(SystemSignature((1, -1))) == "SystemSignature(a=(1, -1))"
    assert repr(CriterionResult(1, "s", False, "d", 0.5)) == (
        "CriterionResult(number=1, slug='s', passed=False, detail='d', elapsed=0.5)"
    )
    cert = certify_levels(SymmetricSpaceData.sphere(2), SystemSignature((1, -1)), 2)
    assert repr(dict(cert)[level]) == (
        "UnboundednessCertificate(level=Fraction(-2, 1), "
        "witness=SubgroupId(canonical=RestrictedWeight(coords=(1,))), "
        "ledger=((Fraction(-2, 1), -1), (Fraction(2, 1), -1)))"
    )


# -- the base constructor -----------------------------------------------------


@pytest.mark.parametrize("build", SAMPLES.values(), ids=SAMPLES.keys())
def test_keyword_and_positional_construction_agree(build):
    x = build()
    cls, values = type(x), x._values()
    by_position, by_name = cls(*values), cls(**dict(zip(x._fields, values)))
    assert _structure(by_position) == _structure(by_name) == _structure(x)


# the records that store their fields as given, through the base constructor
# alone, and the certificate, which checks its ledger after calling it
PLAIN = ("SpectralLevel", "BifurcationLevel", "NonlinearitySpec", "BranchState", "Crossing", "CriterionResult")
BASE_BUILT = PLAIN + ("UnboundednessCertificate",)


@pytest.mark.parametrize("name", PLAIN)
def test_plain_records_use_the_base_constructor(name):
    cls = type(SAMPLES[name]())
    assert cls.__init__ is Record.__init__


@pytest.mark.parametrize("name", BASE_BUILT)
def test_a_missing_unknown_or_repeated_field_raises(name):
    x = SAMPLES[name]()
    cls, values, first = type(x), x._values(), x._fields[0]
    with pytest.raises(TypeError):
        cls(*values[:-1])  # missing
    with pytest.raises(TypeError):
        cls(*values, bogus=1)  # unknown
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})  # repeated
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one too many


def test_the_base_constructor_names_the_field():
    crossing = trivial_branch_crossings(4, SystemSignature((1, -1)), (-6, 6))[-1]
    assert Crossing(lam=crossing.lam, pairs=crossing.pairs) == crossing
    with pytest.raises(TypeError, match=r"^Crossing is missing field 'pairs'$"):
        Crossing(crossing.lam)
    with pytest.raises(TypeError, match=r"^Crossing has no field 'kernel'$"):
        Crossing(crossing.lam, kernel=())
    with pytest.raises(TypeError, match=r"^Crossing got field 'lam' twice$"):
        Crossing(crossing.lam, crossing.pairs, lam=crossing.lam)
    with pytest.raises(TypeError, match=r"^Crossing takes 2 fields, got 3$"):
        Crossing(crossing.lam, crossing.pairs, ())
