"""Model manifolds with an isometric flow: flat tori and weighted spheres.

Both models carry a torus group acting by isometries (translations on the
flat torus, diagonal rotations on the sphere), and every orbit closure is an
orbit of that group.  Orbits are canonicalized exactly: on the torus by the
residue of the point under the relation lattice of the flow closure, on the
sphere by moduli plus the residue of the phase vector under the restricted
closure group.  Quotient-level data is never materialized; all computations
happen upstairs on the model manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _ratlin as rl
from . import torus_group as tg
from .errors import InternalCheckFailed, OffManifold


@dataclass(frozen=True)
class FlatTorusModel:
    """The standard flat n-torus with linear flow along ``v`` and unit-mass
    Lebesgue density."""

    v: tg.SymbolicFrequency

    def __post_init__(self):
        # the floating-point layer divides by the numeric length of the flow,
        # so that length, not only the exact coefficients, must be nonzero;
        # the squares are summed unscaled, so a length whose square over- or
        # underflows is refused as well
        try:
            length = math.sqrt(sum(x * x for x in self.v.float_values()))
        except OverflowError:
            length = math.inf
        if not 0 < length < math.inf:
            raise ValueError("flow direction must have a nonzero finite length")

    @property
    def n(self):
        return self.v.ambient_dim

    @cached_property
    def group(self):
        return tg.closure_group(self.v)

    @property
    def base_lattice(self):
        """Rows of the relation lattice; the map ``x -> base_lattice @ x`` is
        the projection onto base coordinates for the orbit space."""
        return self.group.relation_lattice


@dataclass(frozen=True)
class SpherePoint:
    """Exact point of a weighted sphere: rational squared moduli summing to
    one and rational phases measured in full turns."""

    moduli_sq: tuple
    phases: tuple

    def __post_init__(self):
        ms = tuple(Fraction(x) for x in self.moduli_sq)
        ph = tuple(Fraction(x) % 1 for x in self.phases)
        if len(ms) != len(ph):
            raise ValueError("moduli and phases must have equal length")
        if any(m < 0 for m in ms):
            raise ValueError("squared moduli must be nonnegative")
        object.__setattr__(self, "moduli_sq", ms)
        object.__setattr__(self, "phases", ph)

    @property
    def k(self):
        return len(self.moduli_sq)

    @property
    def support(self):
        return tuple(j for j, m in enumerate(self.moduli_sq) if m > 0)


@dataclass(frozen=True)
class WeightedSphereModel:
    """The unit sphere in C^k with the diagonal flow rotating coordinate j
    at rate ``weights[j]`` (phases measured in the same parameter as the
    flow, so group elements are points of the k-torus acting by
    ``z_j -> exp(2 pi i w_j) z_j``)."""

    weights: tg.SymbolicFrequency

    def __post_init__(self):
        if self.weights.first_not_positive_finite() is not None:
            raise ValueError("weights must be positive finite numbers")

    @property
    def k(self):
        return self.weights.ambient_dim

    @cached_property
    def group(self):
        return tg.closure_group(self.weights)

    def restricted_group(self, support):
        return tg.closure_group(self.weights.restrict(support))


@dataclass(frozen=True, eq=False)
class ClosedOrbit:
    """A group-orbit closure as exact data: dimension and isotropy
    descriptor here, and in each model's subclass a canonical base point
    and an identifier ``key``.

    ``key`` determines the orbit; two orbits of the same model are equal iff
    their keys are.  No frame is stored: on a torus the conormal covectors
    are the rows of ``model.base_lattice``, and on a sphere the conormal
    space is the coordinate planes off the support, which the localized side
    checks exactly against the closure's tangent rows."""

    model: object
    dim: int
    isotropy: tg.IsotropyDescriptor

    def __eq__(self, other):
        return (
            isinstance(other, ClosedOrbit)
            and self.model == other.model
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.model, self.key))


@dataclass(frozen=True, eq=False)
class TorusOrbit(ClosedOrbit):
    """A torus orbit closure held in integers: the base point is ``point``
    over ``point_den`` (numerators in ``[0, point_den)``), and the base
    coordinates ``L x (mod 1)`` are ``level`` over ``level_den``.  ``key``
    reads the level as ``Fraction``s, when first compared or hashed; it is
    canonical, so orbits built over different denominators compare and
    hash equal."""

    point: tuple
    point_den: int
    level: tuple
    level_den: int

    @cached_property
    def key(self):
        return ("torus", tuple(Fraction(a, self.level_den) for a in self.level))


@dataclass(frozen=True, eq=False)
class SphereOrbit(ClosedOrbit):
    """A sphere orbit closure: its canonical point and its key, the support,
    the moduli and the phase residue under the restricted closure."""

    base_point: SpherePoint
    key: tuple


def _exact_vector(p, n):
    if len(p) != n:
        raise OffManifold(f"expected a point with {n} coordinates")
    out = []
    for x in p:
        if isinstance(x, float):
            raise OffManifold("torus points must be exact rationals, not floats")
        out.append(Fraction(x))
    return tuple(out)


def _solve_from_level(lattice, level, n):
    """Canonical exact solution in ``[0, 1)^n`` of ``lattice @ x = level`` by
    back-substitution on the HNF basis ``lattice`` (non-pivot coordinates 0)."""
    if not lattice:
        return tuple(Fraction(0) for _ in range(n))
    x, D = rl.echelon_solve(lattice, level)
    return tuple(Fraction(a % D, D) for a in x)


def orbit_through(model, p) -> ClosedOrbit:
    """The orbit closure through ``p`` with canonical base point, dimension
    and isotropy descriptor."""
    if isinstance(model, FlatTorusModel):
        return _torus_orbit(model, p)
    if isinstance(model, WeightedSphereModel):
        return _sphere_orbit(model, p)
    raise TypeError(f"unsupported model {type(model).__name__}")


def _torus_orbit(model: FlatTorusModel, p) -> ClosedOrbit:
    point, E = rl.numerators(_exact_vector(p, model.n))
    level = tuple(a % E for a in rl.mat_vec(model.base_lattice, point))
    return torus_orbits(model, [level], E)[0]


def torus_orbits(model: FlatTorusModel, levels, D) -> list:
    """The orbit closures whose base coordinates ``L x (mod 1)`` are the
    given levels, in order, each level given as integer numerators over
    ``D`` (as ``CongruenceSolution.point_numerators`` lists them).  The
    canonical base point of ``_solve_from_level`` is linear in the level
    (its free coordinates are zero), so its solve operator is built once,
    by back-substitution of the unit levels on the HNF basis ``L``; every
    column is over the same denominator ``E``, the product of the pivots,
    and each level's numerators are mapped through it in integers over
    ``D E``.  Each orbit keeps those numerators and its level's; no
    ``Fraction`` is built.  The dimension and the (trivial) isotropy are
    the same for every orbit and built once."""
    L = model.base_lattice
    dim = model.group.dim
    isotropy = tg.IsotropyDescriptor(model.group, range(model.n))
    columns = [rl.echelon_solve(L, unit) for unit in rl.identity_rows(len(L))]
    E = columns[0][1] if columns else 1
    solve = [[x[i] for x, _ in columns] for i in range(model.n)]    # over E
    DE = D * E
    return [
        TorusOrbit(model, dim, isotropy,
                   tuple(a % DE for a in rl.mat_vec(solve, level)), DE,
                   level, D)
        for level in levels
    ]


def _sphere_orbit(model: WeightedSphereModel, p) -> ClosedOrbit:
    if not isinstance(p, SpherePoint):
        raise OffManifold("sphere points must be exact SpherePoints")
    if p.k != model.k:
        raise OffManifold(f"expected a point of C^{model.k}")
    if sum(p.moduli_sq) != 1:
        raise OffManifold("point does not lie on the unit sphere")
    support = p.support
    if not support:
        raise OffManifold("the origin is not on the sphere")
    GS = model.restricted_group(support)
    LS = GS.relation_lattice
    theta_S, E = rl.numerators([p.phases[j] for j in support])
    phase_coords = tuple(Fraction(a % E, E) for a in rl.mat_vec(LS, theta_S))
    theta_canon = list(_solve_from_level(LS, phase_coords, len(support)))
    # gauge: rotate the first supported phase to zero with a group shift
    sol = GS.parameters_with([0], [-theta_canon[0]])
    if sol is not None:
        t, D = sol.particular_numerators()
        shift = GS.element_numerators(t, D)
        theta_canon = [(th + Fraction(g, D)) % 1
                       for th, g in zip(theta_canon, shift)]
    phases = [Fraction(0)] * model.k
    for idx, j in enumerate(support):
        phases[j] = theta_canon[idx]
    base_point = SpherePoint(p.moduli_sq, tuple(phases))
    return SphereOrbit(
        model=model,
        dim=GS.dim,
        isotropy=tg.IsotropyDescriptor(model.group, support),
        base_point=base_point,
        key=("sphere", support, p.moduli_sq, phase_coords),
    )


def isotropy_group(model, orbit: ClosedOrbit) -> tg.IsotropyDescriptor:
    """Stabilizer of the orbit's points inside the closure group, the
    descriptor the orbit carries: every coordinate pinned on a flat torus
    (trivial), the supported coordinates pinned on a weighted sphere."""
    if orbit.model != model:
        raise ValueError("the orbit belongs to another model")
    return orbit.isotropy


@lru_cache(maxsize=None)
def induced_base_map(model: FlatTorusModel, f):
    """Express an equivariant affine torus map in base coordinates.

    Returns ``(A_bar, c_bar)`` acting on the base torus by
    ``x_bar -> A_bar x_bar + c_bar``; ``A_bar`` is the unique integer matrix
    with ``A_bar @ L = L @ A`` for the relation lattice ``L``, each row the
    lattice coordinates of a row of ``L @ A``, all read off one Hermite form
    of ``L``.  Memoized per (model, map): the fixed-orbit congruences and the
    conormal determinant both read it.
    """
    L = model.base_lattice
    if not L:
        return (), ()
    A_bar = rl.lattice_coordinates(L, rl.mat_mul(L, f.matrix))
    if A_bar is None:
        raise InternalCheckFailed("equivariant map does not descend to the base torus")
    c, E = rl.numerators(f.translation)
    c_bar = tuple(Fraction(a % E, E) for a in rl.mat_vec(L, c))
    return A_bar, c_bar
