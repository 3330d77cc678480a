"""Closed connected abelian groups arising as closures of linear flows.

A direction vector is stored symbolically: each entry is a rational number
plus a rational combination of named generators that are declared rationally
independent of each other and of 1.  Under that declaration, deciding whether
an integer vector ``m`` is orthogonal to the direction is exact rational
arithmetic, and the closure of the one-parameter flow ``t -> t v`` inside the
torus is the connected subgroup cut out by the integer relation lattice

    ``{m in Z^n : m . v = 0}``.

Groups are represented canonically by the Hermite normal form of that
(saturated) lattice, so equal groups compare equal.  Haar measure, lifted
groups acting on flat line bundles, isotropy preimages and covering sheet
counts are all computed from the same lattice data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import _ratlin as rl
from .errors import GeneratorMismatch, NotTransversal

#: numeric values of declared generators that pin none, by position, used
#: only by the floating-point layer (frames, spectra); all group-theoretic
#: decisions are symbolic.  A generator beyond the table must pin its value.
DEFAULT_GENERATOR_VALUES = (
    math.sqrt(2),
    math.sqrt(3),
    math.sqrt(5),
    math.sqrt(7),
    math.sqrt(11),
    math.sqrt(13),
)


def _as_fraction_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class SymbolicFrequency:
    """A real vector ``v_i = c_i0 + sum_s c_is * alpha_s`` with exact rational
    coefficients over declared rationally independent generators ``alpha_s``.

    ``coeffs`` has one row per ambient coordinate and ``1 + s`` columns
    (column 0 is the rational part).
    """

    coeffs: tuple
    generator_labels: tuple = ()
    generator_values: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_fraction_rows(self.coeffs))
        object.__setattr__(self, "generator_labels", tuple(self.generator_labels))
        width = 1 + len(self.generator_labels)
        if any(len(row) != width for row in self.coeffs):
            raise ValueError("coefficient rows must have 1 + generator_count columns")
        values = tuple(float(x) for x in self.generator_values)
        if not values:
            values = DEFAULT_GENERATOR_VALUES[: len(self.generator_labels)]
        if len(values) != len(self.generator_labels):
            raise ValueError("one numeric value per generator required")
        object.__setattr__(self, "generator_values", values)

    @classmethod
    def rational(cls, entries):
        """A purely rational vector (no irrational generators)."""
        return cls(tuple((Fraction(e),) for e in entries))

    @property
    def ambient_dim(self):
        return len(self.coeffs)

    @property
    def generator_count(self):
        return len(self.generator_labels)

    def symbolic_dot(self, m):
        """The vector ``m . v`` as exact components over (1, alpha_1, ...)."""
        width = 1 + self.generator_count
        return tuple(
            sum(Fraction(mi) * row[j] for mi, row in zip(m, self.coeffs))
            for j in range(width)
        )

    def is_orthogonal(self, m):
        return all(c == 0 for c in self.symbolic_dot(m))

    def float_values(self):
        """Numeric embedding of the vector, for the floating-point layer."""
        return tuple(self._float_value(row) for row in self.coeffs)

    def _float_value(self, row):
        return float(row[0]) + sum(
            float(c) * g for c, g in zip(row[1:], self.generator_values))

    def first_not_positive_finite(self):
        """Index of the first coordinate whose numeric value is not a
        positive finite float (a coefficient past the float range counts),
        or ``None``."""
        for i, row in enumerate(self.coeffs):
            try:
                value = self._float_value(row)
            except OverflowError:
                return i
            if not 0 < value < math.inf:
                return i
        return None

    def constraint_rows(self):
        """Rational rows whose common integer kernel is the relation lattice."""
        width = 1 + self.generator_count
        return tuple(
            tuple(row[j] for row in self.coeffs) for j in range(width)
        )

    def restrict(self, indices):
        return SymbolicFrequency(
            tuple(self.coeffs[i] for i in indices),
            self.generator_labels,
            self.generator_values,
        )

    def stack(self, other):
        if other.generator_labels != self.generator_labels:
            raise GeneratorMismatch(
                f"generator sets differ: {self.generator_labels} vs {other.generator_labels}"
            )
        return SymbolicFrequency(
            self.coeffs + other.coeffs, self.generator_labels, self.generator_values
        )

    def apply_integer_matrix(self, A):
        """The vector ``A v``, exactly."""
        rows = []
        for arow in A:
            rows.append(
                tuple(
                    sum(Fraction(a) * self.coeffs[j][col] for j, a in enumerate(arow))
                    for col in range(1 + self.generator_count)
                )
            )
        return SymbolicFrequency(tuple(rows), self.generator_labels, self.generator_values)


@dataclass(frozen=True)
class SubtorusGroup:
    """A closed connected subgroup of the standard torus, presented by the
    HNF basis of its integer relation lattice.  ``dim + rank = ambient_dim``.
    """

    ambient_dim: int
    relation_lattice: tuple = ()
    haar_normalization: Fraction = Fraction(1)

    def __post_init__(self):
        lat = rl.hnf(self.relation_lattice, ncols=self.ambient_dim)
        object.__setattr__(self, "relation_lattice", lat)
        object.__setattr__(self, "haar_normalization", Fraction(self.haar_normalization))
        if self.haar_normalization <= 0:
            raise ValueError("haar_normalization must be positive")
        if lat and len(lat[0]) != self.ambient_dim:
            raise ValueError("relation lattice width does not match ambient dimension")

    @property
    def rank(self):
        return len(self.relation_lattice)

    @property
    def dim(self):
        return self.ambient_dim - self.rank

    def complement_basis(self):
        """Integer rows parametrizing the group: ``t -> t @ B (mod 1)`` is an
        isomorphism from the dim-torus onto the group."""
        return _complement_basis(self.relation_lattice, self.ambient_dim)

    def parameters_with(self, coords, values):
        """The parameters ``t`` whose element ``t @ complement_basis()`` has
        coordinates ``coords`` equal to ``values`` modulo one, as a
        :class:`~equilef._ratlin.CongruenceSolution`, or ``None`` when no
        element of the group has them."""
        C = self.complement_basis()
        A = [[row[j] for row in C] for j in coords]
        return rl.solve_congruences(A, values, self.dim)

    def element_with(self, coords, values):
        """An element of the group whose coordinates ``coords`` equal
        ``values`` modulo one, or ``None`` when the group has none."""
        sol = self.parameters_with(coords, values)
        if sol is None:
            return None
        C = self.complement_basis()
        return rl.vec_mod1(tuple(
            sum(t * row[j] for t, row in zip(sol.particular, C))
            for j in range(self.ambient_dim)
        ))

    def contains(self, point):
        point = [Fraction(x) for x in point]
        return all(
            rl.frac_mod1(sum(m * x for m, x in zip(row, point))) == 0
            for row in self.relation_lattice
        )


@lru_cache(maxsize=None)
def _complement_basis(lattice, ambient_dim):
    return rl.integer_kernel(lattice, n=ambient_dim)


@dataclass(frozen=True)
class GroupHomomorphism:
    """Coordinate projection of a lifted closure group onto the base group."""

    source: SubtorusGroup
    target: SubtorusGroup

    @property
    def base_dim(self):
        return self.target.ambient_dim

    def project(self, point):
        return tuple(point[: self.base_dim])


@dataclass(frozen=True)
class IsotropyDescriptor:
    """A closed (possibly disconnected) subgroup: identity component plus one
    rational representative per connected component.  The identity is always
    the first representative."""

    identity_component: SubtorusGroup
    component_reps: tuple = ((),)

    def __post_init__(self):
        reps = tuple(rl.vec_mod1(tuple(Fraction(x) for x in rep)) for rep in self.component_reps)
        if not reps:
            reps = (tuple(Fraction(0) for _ in range(self.identity_component.ambient_dim)),)
        object.__setattr__(self, "component_reps", reps)
        zero = tuple(Fraction(0) for _ in range(self.identity_component.ambient_dim))
        if zero not in self.component_reps:
            raise ValueError("component representatives must include the identity")
        for i, a in enumerate(self.component_reps):
            for b in self.component_reps[i + 1:]:
                diff = tuple(x - y for x, y in zip(a, b))
                if self.identity_component.contains(diff):
                    raise ValueError(
                        "component representatives must lie in distinct cosets"
                    )

    @property
    def component_count(self):
        return len(self.component_reps)

    @property
    def dim(self):
        return self.identity_component.dim

    def is_trivial(self):
        return self.dim == 0 and self.component_count == 1


def trivial_isotropy(ambient_dim):
    ident = SubtorusGroup(ambient_dim, rl.identity_rows(ambient_dim))
    return IsotropyDescriptor(ident, (tuple(Fraction(0) for _ in range(ambient_dim)),))


def relation_lattice(v: SymbolicFrequency):
    """HNF basis of ``{m in Z^n : m . v = 0}``.

    May be empty (fully irrational direction) or of rank ``n - 1`` (rational
    direction); the closure dimension is ``n - rank``.
    """
    return rl.integer_kernel(v.constraint_rows(), n=v.ambient_dim)


def closure_group(v: SymbolicFrequency, bundle_weights: SymbolicFrequency | None = None):
    """Closure of ``t -> (t v, t sigma)`` in the (n+r)-torus with its
    projection onto the closure of ``t -> t v``.

    With no bundle weights the lift is the group itself and the projection is
    the identity.  The projection's surjectivity is certified by comparing the
    lattice of relations among the first ``n`` coordinates of the lift with
    the base relation lattice.
    """
    base = SubtorusGroup(v.ambient_dim, relation_lattice(v))
    if bundle_weights is None or bundle_weights.ambient_dim == 0:
        return base, GroupHomomorphism(base, base)
    stacked = v.stack(bundle_weights)
    lifted = SubtorusGroup(stacked.ambient_dim, relation_lattice(stacked))
    hom = GroupHomomorphism(lifted, base)
    _check_projection_onto(hom)
    return lifted, hom


def _check_projection_onto(hom: GroupHomomorphism):
    """Verify that projecting the lifted group gives exactly the base group,
    by saturated-lattice comparison."""
    n = hom.base_dim
    total = hom.source.ambient_dim
    tangent = hom.source.complement_basis()
    constraints = [list(row) for row in tangent]
    for j in range(n, total):
        unit = [0] * total
        unit[j] = 1
        constraints.append(unit)
    in_span = rl.integer_kernel(constraints, n=total)
    projected = rl.hnf([row[:n] for row in in_span], ncols=n)
    if projected != hom.target.relation_lattice:
        raise AssertionError("lifted group does not project onto the base group")


def haar_quadrature(group: SubtorusGroup, resolution: int):
    """Uniform quadrature for the normalized Haar measure.

    Returns ``resolution**dim`` exact rational points on the group with equal
    rational weights summing to the declared normalization.  Characters that
    are nontrivial on the group integrate to zero exactly once the resolution
    exceeds their order on the parametrizing grid.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    basis = group.complement_basis()
    d = group.dim
    weight = group.haar_normalization / Fraction(resolution**d)
    points = []
    for combo in itertools.product(range(resolution), repeat=d):
        t = tuple(Fraction(c, resolution) for c in combo)
        points.append((rl.vec_mod1(rl.vec_mat(t, basis)) if d else
                       tuple(Fraction(0) for _ in range(group.ambient_dim)), weight))
    return points


@dataclass(frozen=True)
class IsotropyPreimage:
    """The preimage inside a lifted group of an isotropy subgroup of the base,
    described on the lifted group's parametrizing torus.

    ``component_reps`` are parameter-space representatives, one per connected
    component (``kappa`` of them); ``tangent_rows`` span the tangent lattice
    of the identity component in parameter space.
    """

    hat_group: SubtorusGroup
    param_basis: tuple          # D x (n+r) integer rows parametrizing the lift
    base_dim: int
    component_reps: tuple       # kappa rational vectors in T^D
    tangent_rows: tuple         # rows in Z^D

    @property
    def kappa(self):
        return len(self.component_reps)

    @property
    def dim(self):
        return len(self.tangent_rows)

    def ambient_points(self):
        return [rl.vec_mod1(rl.vec_mat(rep, self.param_basis)) for rep in self.component_reps]

    def ambient_tangent_rows(self):
        return tuple(rl.vec_mat(row, self.param_basis) for row in self.tangent_rows)


def isotropy_preimage(hat_group: SubtorusGroup, base_dim: int,
                      isotropy: IsotropyDescriptor) -> IsotropyPreimage:
    """Compute ``{g in hat_group : projection(g) in isotropy}``.

    Works on the parametrizing torus of the lifted group: the membership
    conditions become integer congruences, one system per isotropy component.
    """
    C = hat_group.complement_basis()
    reps = []
    tangent = None
    for sol in _isotropy_congruences(C, isotropy, base_dim):
        if sol is None:
            # the component rep is not in the image of the projection; for
            # closure lifts this cannot happen (the projection is onto)
            raise AssertionError("isotropy component missed by the projection")
        if tangent is None:
            tangent = sol.free
        for torsion in sol.torsion_reps:
            reps.append(rl.vec_mod1(tuple(p + r for p, r in zip(sol.particular, torsion))))
    return IsotropyPreimage(hat_group, C, base_dim, tuple(reps), tangent)


def _isotropy_congruences(rows, isotropy: IsotropyDescriptor, base_dim):
    """For each isotropy component in order, the parameters ``t`` (one per
    row) whose element ``t @ rows`` projects into that component: the
    congruences ``(l . rows) t = l . rep (mod 1)`` over the rows ``l`` of the
    identity component's relation lattice.  ``None`` marks a component that
    no parameter reaches."""
    lat = isotropy.identity_component.relation_lattice
    A = [
        [sum(lrow[j] * row[j] for j in range(base_dim)) for row in rows]
        for lrow in lat
    ]
    return [
        rl.solve_congruences(
            A, [sum(Fraction(l) * Fraction(x) for l, x in zip(lrow, crep))
                for lrow in lat], len(rows))
        for crep in isotropy.component_reps
    ]


def sheet_count(G0, orbit, hom: GroupHomomorphism | None = None):
    """Number of sheets of the parametrized covering of an orbit by a
    subgroup ``G0`` of the (lifted) closure group.

    ``G0`` may be a :class:`SubtorusGroup` (parametrized by its complement
    basis) or an explicit integer basis matrix, one row per parametrizing
    circle; the rows need not be primitive, so winding presentations such as
    ``t -> 2t`` are allowed.  The count is the number of parameter values
    mapping the orbit's base point to itself, i.e. solutions of the
    congruences placing the projected element inside the isotropy group.

    Raises :class:`NotTransversal` when the subgroup meets the isotropy
    preimage in positive dimension.
    """
    isotropy = orbit.isotropy
    if isinstance(G0, SubtorusGroup):
        if hom is not None and G0.ambient_dim != hom.source.ambient_dim:
            raise ValueError("subgroup must live in the ambient of the lifted group")
        rows = G0.complement_basis()
    else:
        rows = rl.freeze(G0)
    if len(rows) != orbit.dim:
        raise ValueError("subgroup dimension must equal the orbit dimension")
    base_dim = (isotropy.identity_component.ambient_dim if hom is None
                else hom.base_dim)
    return sheet_count_rows(rows, isotropy, base_dim)


def sheet_count_rows(rows, isotropy: IsotropyDescriptor, base_dim):
    if not isotropy.identity_component.relation_lattice:
        raise NotTransversal("isotropy is the whole group; no finite covering")
    total = 0
    for sol in _isotropy_congruences(rows, isotropy, base_dim):
        if sol is None:
            continue
        if not sol.is_finite:
            raise NotTransversal(
                "subgroup meets the isotropy preimage in positive dimension",
            )
        total += sol.count
    if total < 1:
        raise AssertionError("covering kernel cannot be empty")
    return total


def haar_factor(preimage: IsotropyPreimage, subgroup_rows):
    """Total Haar mass of a complementary subgroup, normalized so that the
    product of the (normalized) measures on the isotropy preimage and the
    subgroup matches the normalized measure of the lifted group near the
    identity.

    ``subgroup_rows`` parametrize the subgroup in the lifted group's
    parameter space.  The mass is ``kappa * |det [tangent; subgroup]|``, a
    positive integer-valued rational.
    """
    D = len(preimage.param_basis)
    rows = list(preimage.tangent_rows) + [list(r) for r in subgroup_rows]
    if len(rows) != D:
        raise NotTransversal(
            "subgroup is not complementary to the isotropy preimage"
        )
    det = rl.det_int(rows)
    if det == 0:
        raise NotTransversal("subgroup is not transverse to the isotropy preimage")
    return Fraction(preimage.kappa * abs(det))


def subgroup_in_param_coords(preimage: IsotropyPreimage, ambient_rows):
    """Express subgroup basis rows given in ambient coordinates inside the
    parameter space of the lifted group."""
    out = []
    for row in ambient_rows:
        coords = rl.lattice_coordinates(preimage.param_basis, row)
        if coords is None:
            raise ValueError("row does not lie in the lifted group's tangent lattice")
        out.append(coords)
    return rl.freeze(out)


def complementary_subgroup(preimage: IsotropyPreimage):
    """A canonical compact connected subgroup of minimal dimension transverse
    to the isotropy preimage, as rows in parameter space.

    Chosen as the integer kernel of the preimage's tangent rows, the lattice
    orthogonal to them; any other valid choice changes the per-orbit data
    (mass, sheet count) but not their ratio.
    """
    D = len(preimage.param_basis)
    tangent = preimage.tangent_rows
    rows = rl.integer_kernel(tangent, n=D)
    if len(rows) + len(tangent) != D:
        raise NotTransversal("isotropy preimage tangent is not saturated")
    return rows
