"""Two-sided verification of an equivariant fixed-point trace formula on
explicit model manifolds: flat tori with linear flows and weighted spheres
with diagonal torus actions."""

__version__ = "0.1.0"

from .averaging import average_modes, average_quadrature
from .basic_complex import (
    BasicForm,
    apply_D,
    apply_D_adjoint,
    apply_lie,
    apply_P,
    basic_spectrum,
)
from .endomorphism import (
    BundleTwist,
    SpherePhaseMap,
    TorusMap,
    cohomology_action,
    harmonic_dimensions,
    heat_damped_traces,
    validate_equivariance,
)
from .errors import (
    DegreeOverflow,
    DeterminantUnderflow,
    EquilefError,
    FixedSetTooLarge,
    GeneratorMismatch,
    GridTooCoarse,
    GridTooFine,
    InfiniteFixedSet,
    InternalCheckFailed,
    ModeBoxTooLarge,
    NonTransverse,
    NotEquivariant,
    NotTransversal,
    OffManifold,
    ParseError,
    SchemaError,
)
from .fixed_point_formula import (
    check_transversality,
    find_fixed_orbits,
    lefschetz_rhs,
    orbit_contribution,
    theorem_c_scalar_value,
)
from .geometry_models import (
    ClosedOrbit,
    FlatTorusModel,
    SpherePoint,
    WeightedSphereModel,
    induced_base_map,
    isotropy_group,
    orbit_through,
)
from .mollifier_lab import MollifierConfig, convergence_study, kernel_pairing
from .torus_group import (
    IsotropyDescriptor,
    SubtorusGroup,
    SymbolicFrequency,
    closure_group,
    complementary_subgroup,
    haar_factor,
    haar_quadrature,
    isotropy_preimage,
    relation_lattice,
)
