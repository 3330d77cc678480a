"""Fixed orbits, the determinant transversality criterion, and per-orbit
trace contributions.

The localized side of the verification: enumerate orbit closures mapped to
themselves, certify for each that the map minus the identity is invertible
on the conormal space (for every admissible group correction), and evaluate
the per-orbit contribution

    sum_q (-1)^q  (mass of complement / sheets)
                  * average over isotropy-preimage components of
                    fiber trace / |conormal determinant|.

On flat tori every ingredient is exact: fixed orbits come from integer
congruences (finitely many iff the base map minus identity is invertible),
conormal determinants are integer determinants, fiber traces are elementary
symmetric integers, and twist phases are rational turns.  On weighted
spheres one exact test, that no coordinate-pair stratum is fixed orbitwise,
decides transversality for the fixed set and for each orbit, and each
isotropy component's determinant is a closed-form product of plane
rotations minus the identity on the normal coordinate planes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import _ratlin as rl
from . import torus_group as tg
from .endomorphism import (
    BundleTwist,
    SpherePhaseMap,
    TorusMap,
    validate_equivariance,
)
from .errors import (
    DeterminantUnderflow,
    FixedSetTooLarge,
    InfiniteFixedSet,
    InternalCheckFailed,
    NonTransverse,
)
from .geometry_models import (
    ClosedOrbit,
    FlatTorusModel,
    SpherePoint,
    WeightedSphereModel,
    induced_base_map,
    orbit_through,
    torus_orbits,
)


@dataclass(frozen=True)
class PerDegreeData:
    degree: int
    trace_value: complex
    isotropy_integral: complex


@dataclass(frozen=True, eq=False)
class OrbitTerm:
    """An orbit's term, built once per distinct (isotropy type, component
    data) and shared by every orbit with that pair.  ``det_value`` is the
    first isotropy component's conormal determinant."""

    per_degree: tuple
    det_value: float
    haar_factor: Fraction
    sheets: int
    total: complex
    total_exact: Fraction | None


@dataclass(frozen=True)
class OrbitContribution:
    """One fixed orbit's contribution.  ``dets`` certify transversality:
    ``det(A_bar - I)`` on a torus, and per isotropy-preimage component on a
    sphere the value ``prod 4 sin^2(pi theta_l)`` the term divides by."""

    orbit: ClosedOrbit
    g0_numerators: tuple   # (numerators, D)
    dets: tuple            # (int,) on a torus, floats on a sphere
    term: OrbitTerm


@dataclass(frozen=True)
class RhsResult:
    value: complex
    value_exact: Fraction | None
    contributions: tuple


# ---------------------------------------------------------------------------
# fixed orbits


def find_fixed_orbits(model, f):
    """All orbit closures mapped to themselves, as a finite list.

    Raises :class:`InfiniteFixedSet` when a positive-dimensional family of
    orbits is fixed (degenerate base map on a torus, or a fixed stratum with
    moduli on a sphere): in that case no trace formula applies and no
    determinant is ever computed."""
    validate_equivariance(model, f)
    if isinstance(model, FlatTorusModel):
        return _torus_fixed_orbits(model, f)
    return _sphere_fixed_orbits(model, f)


def _base_minus_identity(model: FlatTorusModel, f: TorusMap):
    """``(A_bar - I, c_bar)`` for the map induced on the base torus: the
    fixed-orbit congruences and the conormal determinant both come from
    this matrix."""
    A_bar, c_bar = induced_base_map(model, f)
    c = len(A_bar)
    return [[A_bar[i][j] - (i == j) for j in range(c)] for i in range(c)], c_bar


def _torus_fixed_orbits(model: FlatTorusModel, f: TorusMap):
    """Fixed orbits from the congruences ``(A_bar - I) x_bar = -c_bar``; a
    point base (no congruences) has the whole manifold as its one orbit.
    The count is read from the Smith diagonal before any orbit is listed,
    and the levels come sorted, so the orbits are in key order."""
    M, c_bar = _base_minus_identity(model, f)
    sol = rl.solve_congruences(M, [-x for x in c_bar], len(M))
    if sol is None:
        return []
    if not sol.is_finite:
        # a square system with a free solution direction has determinant 0
        raise InfiniteFixedSet(
            "the induced base map fixes a positive-dimensional set "
            "(det of base map minus identity is 0)"
        )
    if sol.count > rl.TORSION_LIMIT:
        raise FixedSetTooLarge(sol.count, rl.TORSION_LIMIT)
    return torus_orbits(model, *sol.point_numerators())


def _fixed_pair(model: WeightedSphereModel, phases, pairs):
    """The first coordinate pair of ``pairs`` whose stratum the phase map
    fixes orbitwise, or ``None``: the pair's phases lie in the closure of
    the flow projected to it, tested exactly on every relation among the
    pair's weights."""
    for pair in pairs:
        LS = model.restricted_group(pair).relation_lattice
        phi_S, D = rl.numerators([phases[j] for j in pair])
        if all(sum(m * p for m, p in zip(row, phi_S)) % D == 0 for row in LS):
            return pair
    return None


def _sphere_fixed_orbits(model: WeightedSphereModel, f: SpherePhaseMap):
    k = model.k
    # Pairs suffice: the projection of the closure to a pair of coordinates
    # is the closure of the projection, so the relations on a pair lie in
    # those of every larger support containing it, and a stratum fixed
    # orbitwise fixes each pair inside it.  The first fixed stratum of the
    # all-sizes scan, smallest size first, is therefore always a pair.
    pair = _fixed_pair(model, f.phases, itertools.combinations(range(k), 2))
    if pair is not None:
        raise InfiniteFixedSet(
            f"the stratum supported on coordinates {pair} is fixed "
            "orbitwise and carries a positive-dimensional moduli family"
        )
    orbits = []
    for j in range(k):
        moduli = tuple(Fraction(int(i == j)) for i in range(k))
        point = SpherePoint(moduli, tuple(Fraction(0) for _ in range(k)))
        orbits.append(orbit_through(model, point))
    return orbits


# ---------------------------------------------------------------------------
# transversality


def _sphere_rotation_turns(shift, S, h, H):
    """Per-coordinate rotation turns of ``a_{g0 - h} o f`` as numerators
    over one denominator ``D``, returned as ``(turns, D)``: ``shift`` holds
    the numerators of ``f.phases + g0`` over ``S``, and ``h`` those of the
    isotropy component's element over ``H``."""
    D = math.lcm(S, H)
    s, t = D // S, D // H
    return tuple((a * s - b * t) % D for a, b in zip(shift, h)), D


def _sphere_normal_coords(orbit: ClosedOrbit, phases, pairs_passed=False):
    """The coordinates off a sphere orbit's support, after the one
    transversality test, which covers every isotropy component: no stratum
    on a coordinate pair meeting the support is fixed orbitwise
    (``pairs_passed`` says every pair has passed it already, in
    :func:`find_fixed_orbits`).  A
    correction ``g`` with ``g_j = -phi_j`` turns coordinate ``l`` by zero
    exactly when ``(phi_j, phi_l)`` lies in the pair's closure (the
    projection of a closure is the closure of the projection), and an
    isotropy circle that sweeps ``l`` makes that closure the whole 2-torus.
    Then the orbit runs through a coordinate point ``e_j``, where the radial
    vector lies in plane ``j``, and so does every closure tangent vector;
    the conormal space is exactly the planes of the other coordinates when
    some closure tangent row is nonzero at ``j``, which is checked exactly.
    That is what lets :func:`_sphere_component_det` read the determinant
    off the turns.  Runs once per orbit."""
    model, support = orbit.model, orbit.base_point.support
    pair = None if pairs_passed else _fixed_pair(model, phases, (
        p for p in itertools.combinations(range(model.k), 2)
        if any(j in support for j in p)))
    if pair is not None:
        raise NonTransverse(
            f"the stratum supported on coordinates {pair}, which meets the "
            f"orbit's support {support}, is fixed orbitwise, so the conormal "
            "determinant vanishes on some isotropy component")
    if len(support) != 1 or not any(
            row[support[0]] for row in model.group.complement_basis()):
        raise InternalCheckFailed(
            "the conormal space is not the normal coordinate planes")
    return [l for l in range(model.k) if l not in support]


def _sphere_component_det(orbit: ClosedOrbit, normal, turns, D):
    """Conormal determinant of the corrected phase map on one isotropy
    component with rotation ``turns`` (numerators over ``D``): one plane
    rotation minus the identity, ``4 sin^2(pi theta_l)``, per coordinate
    off the support, evaluated on the exact centred turn ``theta_l -
    round(theta_l)`` so that small turns do not cancel.  It is the
    determinant on the normal coordinate planes, which
    :func:`_sphere_normal_coords` certified to be the conormal space and to
    turn on every component, and the value both the term and the
    contribution's ``dets`` read.
    Raises :class:`DeterminantUnderflow` when the determinant is too small
    for its reciprocal to be a float."""
    # turns lie in [0, D); a half turn stays +1/2, as round() takes it to 0
    centred = {l: (turns[l] if 2 * turns[l] <= D else turns[l] - D) / D
               for l in normal}
    det_val = math.prod(
        (4.0 * math.sin(math.pi * c) ** 2 for c in centred.values()), start=1.0)
    if det_val == 0.0 or math.isinf(1.0 / det_val):
        l = min(centred, key=lambda l: abs(centred[l]))
        raise DeterminantUnderflow(
            f"the conormal determinant {det_val:.3g} of the orbit with support "
            f"{orbit.base_point.support} is too small to invert in floating "
            f"point (coordinate {l} turns by {centred[l]:.3g})")
    return det_val


def check_transversality(orbit: ClosedOrbit, f) -> OrbitContribution:
    """Certify that the correction-composed map minus the identity is
    invertible on the conormal space, for every admissible correction.

    The correction is only determined modulo the isotropy group, so the
    determinant must be nonzero along every isotropy component: on a torus
    every component has ``det(A_bar - I)``, and on a sphere one exact
    pair-stratum test covers them all (:func:`_sphere_normal_coords`).
    Returns the orbit's untwisted scalar contribution, whose ``orbit``,
    ``g0_numerators`` and ``dets`` are the certificate, from the same
    per-component pass that builds its term."""
    return orbit_contribution(orbit, f, fibers="scalar")


# ---------------------------------------------------------------------------
# contributions


def _principal_minor_traces(matrix):
    """Per-degree fiber traces ``e_q(h)``, ``h`` the spectrum of ``A`` with
    one eigenvalue 1 removed.  With ``e_j(A)`` the sum of the principal
    j-minors, dividing ``prod(1 + x lambda)`` by ``1 + x`` gives
    ``e_q(h) = sum_{j <= q} (-1)^(q - j) e_j(A)``.  This route shares nothing
    with the characteristic polynomial of the harmonic side, so a fault in
    either cannot cancel in the comparison."""
    n = len(matrix)
    e = [
        sum(rl.det_int([[matrix[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(n), size))
        for size in range(n)
    ]
    return tuple(sum((-1) ** (q - j) * e[j] for j in range(q + 1)) for q in range(n))


def _fiber_traces(model, f, fibers):
    """Exact fiber traces per degree (twist scalar and phases applied
    separately)."""
    if fibers == "scalar":
        return (1,)
    if not isinstance(model, FlatTorusModel):
        raise ValueError("the form complex is only modelled on flat tori")
    return _principal_minor_traces(f.matrix)


@dataclass(frozen=True, eq=False)
class _IsotropyType:
    """The part of an orbit's term fixed by its isotropy type: the isotropy
    preimage in the lifted closure, the Haar mass and sheet count of the
    complementary subgroup, and whether the twist character integrates to
    zero along the preimage's identity component."""

    pre: tg.IsotropyDescriptor
    mass: Fraction
    sheets: int
    char_zero: bool


class _MapContext:
    """The one owner of the map-level objects, each built once: the fiber
    traces, the lifted closure (and, twisted, the Smith form of the lift of
    ``g0`` into it), on a torus ``I - A`` and ``det(A_bar - I)``,
    one :class:`_IsotropyType` per isotropy type met, and the
    :class:`OrbitTerm` of each distinct (isotropy type, component data)
    pair.  Lives for one ``lefschetz_rhs`` or lone ``orbit_contribution``
    call; nothing in it reaches the harmonic side.  ``pairs_passed`` records that every
    coordinate pair of a sphere has passed the pair-stratum test, as
    :func:`find_fixed_orbits` certifies before ``lefschetz_rhs`` builds the
    context, so no orbit tests its pairs again."""

    def __init__(self, model, f, fibers, twist, subgroup_rows,
                 pairs_passed=False):
        self.model = model
        self.f = f
        self.twist = twist
        self.subgroup_rows = subgroup_rows
        self.pairs_passed = pairs_passed
        self.traces = _fiber_traces(model, f, fibers)
        self.scalar = twist.phi_scalar if twist is not None else 1.0 + 0.0j
        self.torus = isinstance(model, FlatTorusModel)
        direction = model.v if self.torus else model.weights
        # untwisted, the same cache entry as ``model.group``
        self.n = direction.ambient_dim
        self.hat = (tg.closure_group(direction) if twist is None
                    else tg.closure_group(direction, twist.weight))
        if self.torus:
            self.torus_det = rl.det_int(_base_minus_identity(model, f)[0])
            self.I_minus_A = [[(i == j) - a for j, a in enumerate(row)]
                              for i, row in enumerate(f.matrix)]
            c, self.c_den = rl.numerators(f.translation)
            self.minus_c = [-a for a in c]
        else:
            self.phases = rl.numerators(f.phases)
        self._types = {}
        self._terms = {}

    @cached_property
    def lift_system(self):
        """The congruences for the lifted closure's elements over given base
        coordinates, with the Smith form of their rows built once per map:
        each orbit's twisted lift of ``g0`` solves it for its own ``g0``."""
        return rl.CongruenceSystem(self.hat.coordinate_rows(range(self.n)),
                                   self.hat.dim)

    def group_correction(self, orbit: ClosedOrbit):
        """An element ``g0`` of the closure group making ``a_{g0} o f`` the
        identity on the orbit (determined modulo the isotropy group), as
        ``(numerators, D)``.  On a torus it is ``(I - A) p0 - c (mod 1)``,
        one integer affine step on the orbit's base-point numerators over
        ``D``, the lcm of their denominator and that of ``c``, with its
        membership ``L g0 = 0 (mod D)`` tested on those numerators; on a
        sphere, a closure element equal to ``-phases`` on the support."""
        group = self.model.group
        if self.torus:
            x, P, C = orbit.point, orbit.point_den, self.c_den
            D = math.lcm(P, C)
            s, t = D // P, D // C
            g = tuple((sum(map(mul, row, x)) * s + ci * t) % D
                      for row, ci in zip(self.I_minus_A, self.minus_c))
            if group.contains_numerators(g, D):
                return g, D
        else:
            support = orbit.base_point.support
            sol = group.parameters_with(
                support, [-self.f.phases[j] for j in support])
            if sol is not None:
                t, D = sol.particular_numerators()
                return group.element_numerators(t, D), D
        raise NonTransverse("orbit is not actually fixed by the map")

    def isotropy_type(self, isotropy) -> _IsotropyType:
        found = self._types.get(isotropy)
        if found is None:
            found = self._types[isotropy] = self._build_type(isotropy)
        return found

    def term(self, phase, det_val, q):
        """Degree ``q``'s term at a component with twist phase ``phase`` (a
        float in turns) and determinant ``det_val``."""
        return (self.scalar * cmath.exp(2j * math.pi * phase)
                * self.traces[q] / abs(det_val))

    def assembled(self, typ: _IsotropyType, comps) -> OrbitTerm:
        """The :class:`OrbitTerm` of an orbit with isotropy type ``typ``
        and per-component ``(phase, det, exact det)`` data, built once per
        distinct pair (once per untwisted torus map, once per phase when
        twisted, once per stratum on a sphere) and shared by every orbit
        with that pair."""
        key = (typ, comps)
        found = self._terms.get(key)
        if found is None:
            found = self._terms[key] = self._assemble(typ, comps)
        return found

    def _assemble(self, typ: _IsotropyType, comps):
        traces = self.traces
        kappa = typ.pre.component_count
        weight = typ.mass / typ.sheets
        per_degree = []
        total = 0.0 + 0.0j
        total_exact = Fraction(0)
        exact_ok = self.twist is None and all(de is not None for _, _, de in comps)
        for q in range(len(traces)):
            integral = 0.0 + 0.0j
            integral_exact = Fraction(0)
            for phase, det_val, det_exact in comps:
                if typ.char_zero:
                    continue
                integral += self.term(phase, det_val, q)
                if exact_ok:
                    integral_exact += Fraction(traces[q]) / abs(det_exact)
            integral /= kappa
            integral_exact /= kappa
            total += (-1) ** q * float(weight) * integral
            if exact_ok:
                total_exact += (-1) ** q * weight * integral_exact
            per_degree.append(PerDegreeData(
                degree=q,
                trace_value=self.scalar * traces[q],
                isotropy_integral=integral,
            ))
        return OrbitTerm(tuple(per_degree), comps[0][1], typ.mass, typ.sheets,
                         total, total_exact if exact_ok else None)

    def _build_type(self, isotropy) -> _IsotropyType:
        hat = self.hat
        n = self.n
        pre = tg.isotropy_preimage(hat, isotropy)
        if self.subgroup_rows is None:
            rows_param = tg.complementary_subgroup(pre)
        else:
            rows_param = tg.subgroup_in_param_coords(pre, self.subgroup_rows)
        rows_ambient = rl.freeze(
            rl.vec_mat(r, hat.complement_basis()) for r in rows_param
        )
        mass = tg.haar_factor(pre, rows_param)
        sheets = tg.sheet_count_rows(rows_ambient, isotropy)
        # the twist character must be constant along the identity component,
        # otherwise each component integrates to zero exactly
        char_zero = self.twist is not None and any(
            any(row[j] != 0 for j in range(n, hat.ambient_dim))
            for row in pre.tangent_rows
        )
        return _IsotropyType(pre, mass, sheets, char_zero)


def orbit_contribution(orbit: ClosedOrbit, f, fibers="de_rham",
                       twist: BundleTwist | None = None,
                       subgroup_rows=None, g0=None) -> OrbitContribution:
    """Evaluate one orbit's trace contribution.

    ``subgroup_rows`` (rows in the lifted group's ambient torus) override the
    canonical complementary subgroup, for choice-invariance checks.  ``g0``
    overrides the group correction (valid corrections differ by isotropy
    elements).  Raises :class:`NonTransverse` when the orbit is not fixed
    or not transverse, which only an orbit built by the caller can be."""
    context = _MapContext(orbit.model, f, fibers, twist, subgroup_rows)
    if g0 is not None:
        g0 = rl.numerators(g0)
    return _contribution(orbit, g0, None, context)


def _contribution(orbit: ClosedOrbit, g0, isotropy_resolution,
                  context: _MapContext) -> OrbitContribution:
    """One orbit's term against the map-level data in ``context``: after the
    checks every isotropy component shares, one pass over the preimage
    components builds both the determinants that certify transversality
    and the per-component data the shared term is looked up by; the
    optional quadrature cross-check runs last."""
    f, twist, hat, n = context.f, context.twist, context.hat, context.n
    torus = context.torus
    if g0 is None:
        g0 = context.group_correction(orbit)
    if torus:
        det = context.torus_det
        if det == 0:
            raise NonTransverse(
                "base map minus identity vanishes on the conormal space")
    else:
        normal = _sphere_normal_coords(orbit, f.phases, context.pairs_passed)
    typ = context.isotropy_type(orbit.isotropy)
    pre = typ.pre
    g, Dg = g0
    if twist is not None:
        fiber_idx = range(n, hat.ambient_dim)
        lift = context.lift_system.solve(g, Dg)
        if lift is None:
            raise InternalCheckFailed("group correction fails to lift")
        t0, G = lift.particular_numerators()
        ghat0 = hat.element_numerators(t0, G)
        g_fiber = sum(ghat0[j] for j in fiber_idx)
    if not torus:
        # the numerators of f.phases + g0, which every component's turns
        # shift
        phi, P = context.phases
        S = math.lcm(P, Dg)
        shift = tuple(a * (S // P) + b * (S // Dg) for a, b in zip(phi, g))

    def component(t, T):
        """``(phase, det, exact det)`` at the preimage element with
        parameters ``t / T`` (integer numerators ``t``); an untwisted
        torus orbit reads nothing at ``t``.  The twist phase is a float
        in turns, the only form the term reads."""
        if torus and twist is None:
            return 0.0, float(det), det
        h = hat.element_numerators(t, T)
        phase = 0.0
        if twist is not None:
            L = math.lcm(T, G)
            phase = (sum(h[j] for j in fiber_idx) * (L // T)
                     - g_fiber * (L // G)) % L / L
        if torus:
            return phase, float(det), det
        turns, D = _sphere_rotation_turns(shift, S, h[:n], T)
        return phase, _sphere_component_det(orbit, normal, turns, D), None

    reps, T = pre.solution.torsion_numerators()
    comps = tuple(component(t, T) for t in reps)
    term = context.assembled(typ, comps)
    if isotropy_resolution is not None:
        # independent route: Haar quadrature along each component, on the
        # grid of parameters over Q = lcm(T, resolution)
        res = isotropy_resolution
        grid = list(itertools.product(range(res), repeat=pre.dim))
        count = pre.component_count * max(len(grid), 1)
        weight = float(typ.mass / typ.sheets)
        Q = math.lcm(T, res)
        quad = 0.0 + 0.0j
        for rep in reps:
            for combo in grid or [()]:
                t = tuple(
                    (r * (Q // T) + sum(c * row[i] for c, row in
                                        zip(combo, pre.param_tangent_rows)) * (Q // res)) % Q
                    for i, r in enumerate(rep)
                )
                phase, det_val, _ = component(t, Q)
                for q in range(len(context.traces)):
                    quad += (-1) ** q * weight * context.term(phase, det_val, q) / count
        if abs(quad - term.total) > 1e-6 * max(1.0, abs(term.total)):
            raise InternalCheckFailed(
                f"isotropy quadrature disagrees with the exact sum: {quad} vs {term.total}"
            )
    dets = (det,) if torus else tuple(d for _, d, _ in comps)
    return OrbitContribution(orbit, g0, dets, term)


def lefschetz_rhs(model, f, fibers="de_rham", twist: BundleTwist | None = None,
                  isotropy_resolution=None) -> RhsResult:
    """Sum of per-orbit contributions over the fixed set.

    The map-level data (fiber traces, lifted closure, conormal determinant,
    and per isotropy type the preimage, mass and sheet count) is computed
    once and shared; each orbit adds only its group correction (in integers
    over one common denominator) and one pass over its preimage components,
    which yields its determinants and the per-component data its shared
    :class:`OrbitTerm` is looked up by.
    ``isotropy_resolution`` cross-checks each orbit's exact isotropy average
    against Haar quadrature along the components on a grid of that
    resolution.  Raises :class:`InfiniteFixedSet` or
    :class:`FixedSetTooLarge` before any value is produced when the
    hypotheses fail; every orbit it lists passes the per-orbit
    transversality tests."""
    orbits = find_fixed_orbits(model, f)
    context = _MapContext(model, f, fibers, twist, None, pairs_passed=True)
    contributions = [_contribution(orbit, None, isotropy_resolution, context)
                     for orbit in orbits]
    total = sum(c.term.total for c in contributions)
    exact = None
    if all(c.term.total_exact is not None for c in contributions):
        nums, D = rl.numerators([c.term.total_exact for c in contributions])
        exact = Fraction(sum(nums), D)
    return RhsResult(
        value=complex(total),
        value_exact=exact,
        contributions=tuple(contributions),
    )


def theorem_c_scalar_value(model, f) -> float:
    """Closed-form limit of the scalar diagonal pairing: the degree-zero
    per-orbit sum (trace one, untwisted)."""
    return float(lefschetz_rhs(model, f, fibers="scalar").value.real)
