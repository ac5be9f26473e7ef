"""Exact spectral and equivariant-topological toolkit for non-cooperative
elliptic systems on compact symmetric spaces, with a desk-scale numerical
continuation witness on the 2-sphere."""

from importlib import import_module as _import_module

from .weights import RestrictedWeight, SubgroupId, canonicalize
from .euler_ring import UNIT, ZERO, EulerRingElement
from .spaces import (
    GenericTables,
    SpectralLevel,
    SymmetricSpaceData,
    TorusRepDecomposition,
    eigenvalue_of,
    harmonic_dim,
    load_space,
    spectrum_up_to,
    sphere_weight_multiplicity,
)
from .bifurcation import (
    BifurcationLevel,
    SystemSignature,
    UnboundednessCertificate,
    bifurcation_levels,
    cancellation_impossible,
    certify_levels,
    witness_coefficient,
)

# The numerical half loads numpy, so its names resolve on first access
# (PEP 562) and the exact commands never import it.
_LAZY = {
    **dict.fromkeys(
        (
            "BranchState",
            "Crossing",
            "GalerkinBasis",
            "NonlinearitySpec",
            "energy",
            "gradient_check",
            "h1_norm",
            "make_state",
            "node_variance",
            "residual_coeffs",
            "rotate_coeffs",
            "trivial_branch_crossings",
        ),
        "galerkin",
    ),
    **dict.fromkeys(("BranchResult", "continue_branch"), "continuation"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "RestrictedWeight",
    "SubgroupId",
    "canonicalize",
    "UNIT",
    "ZERO",
    "EulerRingElement",
    "GenericTables",
    "SpectralLevel",
    "SymmetricSpaceData",
    "TorusRepDecomposition",
    "eigenvalue_of",
    "harmonic_dim",
    "load_space",
    "spectrum_up_to",
    "sphere_weight_multiplicity",
    "BifurcationLevel",
    "SystemSignature",
    "UnboundednessCertificate",
    "bifurcation_levels",
    "cancellation_impossible",
    "certify_levels",
    "witness_coefficient",
    *_LAZY,
]
