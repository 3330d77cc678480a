"""Closed connected abelian groups arising as closures of linear flows.

A direction vector is stored symbolically: each entry is a rational number
plus a rational combination of named generators that are declared rationally
independent of each other and of 1.  Under that declaration, deciding whether
an integer vector ``m`` is orthogonal to the direction is exact rational
arithmetic, and the closure of the one-parameter flow ``t -> t v`` inside the
torus is the connected subgroup cut out by the integer relation lattice

    ``{m in Z^n : m . v = 0}``.

Groups are represented canonically by the Hermite normal form of that
(saturated) lattice, so equal groups compare equal.  Haar measure (always
normalized to mass one), lifted groups acting on flat line bundles, isotropy
preimages and covering sheet counts are all computed from the same lattice
data.  A lifted group is a plain :class:`SubtorusGroup` in the
``(n + r)``-torus whose first ``n`` coordinates project onto the base
closure; :func:`closure_group` certifies that projection once per lift.

Stabilizers have one type, :class:`IsotropyDescriptor`: the elements of a
closure group whose coordinates ``coords`` vanish modulo one.  The isotropy
group of an orbit (the supported coordinates of a sphere point, every
coordinate on a flat torus) and its preimage in a lifted closure (the same
coordinates, read in the lift) are both of this form.  On the group's
parametrizing torus the condition is one congruence system; its Smith
diagonal counts the connected components and its free part spans the
identity component, so nothing is checked or solved per component.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from . import _ratlin as rl
from .errors import GeneratorMismatch, InternalCheckFailed, NotTransversal

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
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in rows)


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

    @cached_property
    def _hash(self):
        return hash((self.coeffs, self.generator_labels, self.generator_values))

    def __hash__(self):
        # a flow keys several caches per op; its Fraction coefficients are
        # hashed once
        return self._hash

    @property
    def ambient_dim(self):
        return len(self.coeffs)

    @property
    def generator_count(self):
        return len(self.generator_labels)

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

    @cached_property
    def column_numerators(self):
        """Each coefficient column (a row of :meth:`constraint_rows`) as
        integer numerators over its common denominator, ``(nums, D)``."""
        return tuple(rl.numerators(col) for col in self.constraint_rows())

    def apply_integer_matrix(self, A):
        """The vector ``A v``, exactly: each coefficient column is multiplied
        as integer numerators over its common denominator."""
        columns = [tuple(Fraction(a, D) for a in rl.mat_vec(A, nums))
                   for nums, D in self.column_numerators]
        return SymbolicFrequency(rl.transpose(columns), self.generator_labels,
                                 self.generator_values)


@dataclass(frozen=True)
class SubtorusGroup:
    """A closed connected subgroup of the standard torus, presented by the
    HNF basis of its integer relation lattice.  ``dim + rank = ambient_dim``.
    """

    ambient_dim: int
    relation_lattice: tuple = ()

    def __post_init__(self):
        lat = rl.hnf(self.relation_lattice, ncols=self.ambient_dim)
        object.__setattr__(self, "relation_lattice", lat)
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

    def coordinate_rows(self, coords):
        """The congruence rows on the parameters ``t`` that read the
        coordinates ``coords`` of the element ``t @ complement_basis()``."""
        C = self.complement_basis()
        return [[row[j] for row in C] for j in coords]

    def parameters_with(self, coords, values):
        """The parameters ``t`` whose element ``t @ complement_basis()`` has
        coordinates ``coords`` equal to ``values`` modulo one, as a
        :class:`~equilef._ratlin.CongruenceSolution`, or ``None`` when no
        element of the group has them."""
        return rl.solve_congruences(self.coordinate_rows(coords), values,
                                    self.dim)

    def element_numerators(self, t, D):
        """The group element with parameters ``t / D`` as numerators over
        ``D``: ``t @ complement_basis() (mod D)`` in integers."""
        C = self.complement_basis()
        return tuple(sum(x * row[j] for x, row in zip(t, C)) % D
                     for j in range(self.ambient_dim))

    def contains_numerators(self, x, D):
        """Whether the point ``x / D`` lies in the group, tested as
        ``L x = 0 (mod D)`` on its integer numerators ``x``."""
        return all(sum(map(mul, row, x)) % D == 0
                   for row in self.relation_lattice)


@lru_cache(maxsize=None)
def _complement_basis(lattice, ambient_dim):
    return rl.integer_kernel(lattice, n=ambient_dim)


@dataclass(frozen=True)
class IsotropyDescriptor:
    """The closed (possibly disconnected) subgroup of ``group`` whose
    coordinates ``coords`` vanish modulo one.

    The congruence system on the group's parametrizing torus is solved once,
    on first use, as ``solution``.  Its torsion translates are the
    components' representatives in parameter coordinates, as integer
    numerators with the identity first (``solution.torsion_numerators()``;
    the system is homogeneous, so its particular solution is zero).  The
    tangent rows of the identity component are listed in parameter
    coordinates (``param_tangent_rows``) and in ambient coordinates
    (``tangent_rows``)."""

    group: SubtorusGroup
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @cached_property
    def solution(self):
        return self.group.parameters_with(self.coords, [0] * len(self.coords))

    @property
    def component_count(self):
        return self.solution.torsion_count

    @property
    def dim(self):
        return len(self.solution.free)

    @property
    def param_tangent_rows(self):
        return self.solution.free

    @cached_property
    def tangent_rows(self):
        return tuple(rl.vec_mat(row, self.group.complement_basis())
                     for row in self.solution.free)


def relation_lattice(v: SymbolicFrequency):
    """HNF basis of ``{m in Z^n : m . v = 0}``.

    May be empty (fully irrational direction) or of rank ``n - 1`` (rational
    direction); the closure dimension is ``n - rank``.
    """
    return rl.integer_kernel(v.constraint_rows(), n=v.ambient_dim)


@lru_cache(maxsize=None)
def closure_group(v: SymbolicFrequency, bundle_weights: SymbolicFrequency | None = None):
    """Closure of ``t -> t v`` in the n-torus or, with bundle weights, of
    ``t -> (t v, t sigma)`` in the (n+r)-torus: the lift, whose first ``n``
    coordinates project onto the closure of ``t -> t v``.

    The projection's surjectivity is certified by comparing the lattice of
    relations among the first ``n`` coordinates of the lift with the base
    relation lattice.  This is the one route to a flow's closure: memoized
    per ``(v, bundle_weights)``, and the base group of a lift is the cached
    ``closure_group(v)``, so a model's group, its restricted groups and
    every map's lift share one lattice computation each.
    """
    if bundle_weights is None:
        return SubtorusGroup(v.ambient_dim, relation_lattice(v))
    stacked = v.stack(bundle_weights)
    lifted = SubtorusGroup(stacked.ambient_dim, relation_lattice(stacked))
    _check_projection_onto(lifted, closure_group(v))
    return lifted


def _check_projection_onto(lifted: SubtorusGroup, base: SubtorusGroup):
    """Verify that projecting the lifted group onto its first
    ``base.ambient_dim`` coordinates gives exactly the base group, by
    saturated-lattice comparison."""
    n = base.ambient_dim
    total = lifted.ambient_dim
    constraints = [list(row) for row in lifted.complement_basis()]
    for j in range(n, total):
        unit = [0] * total
        unit[j] = 1
        constraints.append(unit)
    in_span = rl.integer_kernel(constraints, n=total)
    projected = rl.hnf([row[:n] for row in in_span], ncols=n)
    if projected != base.relation_lattice:
        raise InternalCheckFailed("lifted group does not project onto the base group")


def haar_quadrature(group: SubtorusGroup, resolution: int):
    """Uniform quadrature for the normalized Haar measure.

    Returns ``resolution**dim`` exact rational points on the group with equal
    rational weights summing to one.  Characters that
    are nontrivial on the group integrate to zero exactly once the resolution
    exceeds their order on the parametrizing grid.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    d = group.dim
    weight = Fraction(1, resolution**d)
    points = []
    for combo in itertools.product(range(resolution), repeat=d):
        g = group.element_numerators(combo, resolution)
        points.append((tuple(Fraction(a, resolution) for a in g), weight))
    return points


def isotropy_preimage(hat_group: SubtorusGroup,
                      isotropy: IsotropyDescriptor) -> IsotropyDescriptor:
    """Compute ``{g in hat_group : projection(g) in isotropy}``: the elements
    of the lifted group whose base coordinates ``isotropy.coords`` vanish.
    Untwisted, the lifted group is the isotropy's own group, and the
    preimage is the isotropy itself, so its one congruence system is solved
    once."""
    if hat_group is isotropy.group:
        return isotropy
    return IsotropyDescriptor(hat_group, isotropy.coords)


def sheet_count_rows(rows, isotropy: IsotropyDescriptor):
    """The parameters ``t`` whose element ``t @ rows`` lies in the isotropy
    group, counted from the Smith diagonal of one congruence system."""
    A = [[row[j] for row in rows] for j in isotropy.coords]
    sol = rl.solve_congruences(A, [0] * len(A), len(rows))
    if not sol.is_finite:
        raise NotTransversal(
            "subgroup meets the isotropy preimage in positive dimension",
        )
    return sol.count


def haar_factor(preimage: IsotropyDescriptor, subgroup_rows):
    """Total Haar mass of a complementary subgroup, normalized so that the
    product of the (normalized) measures on the isotropy preimage and the
    subgroup matches the normalized measure of the lifted group near the
    identity.

    ``subgroup_rows`` parametrize the subgroup in the lifted group's
    parameter space.  The mass is ``kappa * |det [tangent; subgroup]|``, a
    positive integer-valued rational.
    """
    rows = list(preimage.param_tangent_rows) + [list(r) for r in subgroup_rows]
    if len(rows) != preimage.group.dim:
        raise NotTransversal(
            "subgroup is not complementary to the isotropy preimage"
        )
    det = rl.det_int(rows)
    if det == 0:
        raise NotTransversal("subgroup is not transverse to the isotropy preimage")
    return Fraction(preimage.component_count * abs(det))


def subgroup_in_param_coords(preimage: IsotropyDescriptor, ambient_rows):
    """Express subgroup basis rows given in ambient coordinates inside the
    parameter space of the lifted group."""
    coords = rl.lattice_coordinates(preimage.group.complement_basis(), ambient_rows)
    if coords is None:
        raise ValueError("row does not lie in the lifted group's tangent lattice")
    return coords


def complementary_subgroup(preimage: IsotropyDescriptor):
    """A canonical compact connected subgroup of minimal dimension transverse
    to the isotropy preimage, as rows in parameter space.

    Chosen as the integer kernel of the preimage's tangent rows, the lattice
    orthogonal to them; any other valid choice changes the per-orbit data
    (mass, sheet count) but not their ratio.
    """
    D = preimage.group.dim
    tangent = preimage.param_tangent_rows
    rows = rl.integer_kernel(tangent, n=D)
    if len(rows) + len(tangent) != D:
        raise NotTransversal("isotropy preimage tangent is not saturated")
    return rows
