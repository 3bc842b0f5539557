"""Exact classification data for tight contact structures on toric ends."""

from types import ModuleType as _ModuleType

from .farey import (
    INFINITY,
    CFTarget,
    FareyPath,
    GL2Z,
    QuadraticTarget,
    RationalTarget,
    Slope,
    farey_sequence,
    parse_slope,
    quadratic_cf_target,
)
from .blocks import Block, BlockDecomposition, decompose
from .invariants import (
    AllNegative,
    AllPositive,
    Alternating,
    AlternatingForm,
    AttainedInvariant,
    EulerClass,
    EventuallySign,
    InfiniteDivision,
    IrrationalInvariant,
    MinimallyTwisting,
    NegFinite,
    NestedAnnuli,
    NonMinimallyTwisting,
    Periodic,
    PosFinite,
    RationalNonAttainedInvariant,
    SignData,
    admissible,
    count_invariants,
    equivalent,
    euler_class,
    invariant_from_signs,
)
from .ends import (
    EndDescription,
    ExtendsByConstruction,
    InfiniteRotativity,
    NoTightExtension,
    RotativeLayers,
    TorusRecord,
    Unknown,
    classify,
    division_at_infinity,
    extension_obstruction,
    non_extendable_family,
    slope_at_infinity,
    validate,
)
from .reduce import (
    OpenToricAnnulus,
    SolidTorusClass,
    SolidTorusEnd,
    classify_solid_torus,
    normalize_rotativity,
    solid_torus_factor,
    t2xr_equivalent,
)

# the names imported above, without the submodules that importing them binds
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
