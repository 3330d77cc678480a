"""Fixed orbits, transversality gates, per-orbit contributions."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl
from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import torus_group as tg
from equilef.endomorphism import (
    BundleTwist,
    SpherePhaseMap,
    TorusMap,
    cohomology_action,
)
from equilef.errors import (
    DeterminantUnderflow,
    FixedSetTooLarge,
    InfiniteFixedSet,
    InternalCheckFailed,
    NonTransverse,
)
from exact_points import base_point, fractions, g0_point


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


def sphere_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.WeightedSphereModel(tg.SymbolicFrequency(rows, labels))


T3_PROD = torus_model([(0,), (0,), (1,)])
T3_MIX = torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",))
T2_IRR = torus_model([(1, 0), (0, 1)], ("alpha",))
T2_PROD = torus_model([(0,), (1,)])
S5 = sphere_model([(0, 1), (1, 0), (2, 0)], ("tau",))
S3_RAT = sphere_model([(1,), (2,)])

CLASSICAL = TorusMap(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
DOUBLING_T3 = TorusMap(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
IDENTITY_T2 = TorusMap(((1, 0), (0, 1)), (0, 0))


def brute_force_base_fixed_points(A_bar, c_bar, denom):
    c = len(A_bar)
    hits = []
    for combo in itertools.product(range(denom), repeat=c):
        x = tuple(Fraction(i, denom) for i in combo)
        fx = tuple(
            (sum(Fraction(a) * xi for a, xi in zip(row, x)) + cb) % 1
            for row, cb in zip(A_bar, c_bar)
        )
        if fx == x:
            hits.append(x)
    return hits


class TestFindFixedOrbits:
    def test_classical_single_orbit(self):
        orbits = fpf.find_fixed_orbits(T3_PROD, CLASSICAL)
        assert len(orbits) == 1
        assert base_point(orbits[0]) == (0, 0, 0)
        # count equals |det(A - I)| on the base
        A_bar, c_bar = gm.induced_base_map(T3_PROD, CLASSICAL)
        M = [[A_bar[i][j] - (i == j) for j in range(2)] for i in range(2)]
        assert len(orbits) == abs(rl.det_int(M)) == 1
        assert brute_force_base_fixed_points(A_bar, c_bar, 12) == [(0, 0)]

    def test_a_map_that_does_not_descend_is_refused(self):
        # row 0 of L @ A leaves the base lattice: (1, 0, 1) is not an
        # integer combination of L = ((1, 0, 0), (0, 1, 0))
        f = TorusMap(((1, 0, 1), (0, 2, 0), (0, 0, 1)), (0, 0, 0))
        with pytest.raises(AssertionError, match="does not descend"):
            gm.induced_base_map(T3_PROD, f)

    def test_doubling_single_orbit(self):
        orbits = fpf.find_fixed_orbits(T3_MIX, DOUBLING_T3)
        assert len(orbits) == 1
        assert orbits[0].key[1] == (Fraction(0),)

    def test_multi_orbit_count_matches_brute_force(self):
        f = TorusMap(((2, 0, 0), (0, 3, 0), (0, 0, 1)), (Fraction(1, 2), 0, 0))
        orbits = fpf.find_fixed_orbits(T3_PROD, f)
        A_bar, c_bar = gm.induced_base_map(T3_PROD, f)
        brute = brute_force_base_fixed_points(A_bar, c_bar, 4)
        assert len(orbits) == len(brute) == 2
        keys = sorted(o.key[1] for o in orbits)
        assert keys == sorted(brute)

    def test_count_is_read_before_enumerating(self):
        # 1001^2 orbits: past the cap, refused from the Smith diagonal alone
        big = TorusMap(((1002, 0, 0), (0, 1002, 0), (0, 0, 1)), (0, 0, 0))
        with pytest.raises(FixedSetTooLarge) as err:
            fpf.find_fixed_orbits(T3_PROD, big)
        assert err.value.count == 1001 ** 2 > rl.TORSION_LIMIT
        small = TorusMap(((11, 0, 0), (0, 11, 0), (0, 0, 1)), (0, 0, 0))
        assert len(fpf.find_fixed_orbits(T3_PROD, small)) == 100

    def test_group_translation_infinite(self):
        f = TorusMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                     (0, Fraction(1, 4), Fraction(1, 3)))
        with pytest.raises(InfiniteFixedSet):
            fpf.find_fixed_orbits(T3_MIX, f)

    def test_off_group_translation_empty(self):
        f = TorusMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (Fraction(1, 4), 0, 0))
        assert fpf.find_fixed_orbits(T3_MIX, f) == []

    def test_point_base_returns_whole_manifold(self):
        f = TorusMap(((1, 0), (0, 1)), (Fraction(1, 4), 0))
        orbits = fpf.find_fixed_orbits(T2_IRR, f)
        assert len(orbits) == 1
        assert orbits[0].dim == 2

    def test_s5_phase_map_gated(self):
        with pytest.raises(InfiniteFixedSet):
            fpf.find_fixed_orbits(S5, SpherePhaseMap((0, 0, Fraction(1, 4))))

    def test_s3_rational_finite(self):
        orbits = fpf.find_fixed_orbits(S3_RAT, SpherePhaseMap((Fraction(1, 4), 0)))
        assert len(orbits) == 2
        assert sorted(o.base_point.support for o in orbits) == [(0,), (1,)]


class TestTransversality:
    def test_doubling_conormal_det(self):
        orbit = fpf.find_fixed_orbits(T3_MIX, DOUBLING_T3)[0]
        cert = fpf.check_transversality(orbit, DOUBLING_T3)
        assert cert.dets == (1,) and type(cert.dets[0]) is int

    def test_empty_conormal_vacuous(self):
        f = TorusMap(((1, 0), (0, 1)), (Fraction(1, 4), 0))
        orbit = fpf.find_fixed_orbits(T2_IRR, f)[0]
        cert = fpf.check_transversality(orbit, f)
        assert cert.dets == (1,)

    def test_sphere_pole_orbit_with_rotating_normal_rejected(self):
        # the isotropy circle sweeps the rotation angle through zero
        orbit = gm.orbit_through(S5, gm.SpherePoint((0, 0, 1), (0, 0, 0)))
        f = SpherePhaseMap((0, 0, Fraction(1, 4)))
        with pytest.raises(NonTransverse):
            fpf.check_transversality(orbit, f)

    def test_s3_circle_orbits_transverse(self):
        f = SpherePhaseMap((Fraction(1, 4), 0))
        for orbit in fpf.find_fixed_orbits(S3_RAT, f):
            cert = fpf.check_transversality(orbit, f)
            assert all(abs(d) > 1e-9 for d in cert.dets)

    def test_s3_nontransverse_phase(self):
        # phase 0 on the normal coordinate fixes it
        f = SpherePhaseMap((0, 0))
        orbit = gm.orbit_through(S3_RAT, gm.SpherePoint((0, 1), (0, 0)))
        with pytest.raises(NonTransverse):
            fpf.check_transversality(orbit, f)


class TestTorusContributions:
    def test_classical_value(self):
        res = fpf.lefschetz_rhs(T3_PROD, CLASSICAL)
        assert res.value_exact == Fraction(-1)
        contrib = res.contributions[0]
        assert contrib.per_degree[0].sheets == 1
        assert contrib.per_degree[0].haar_factor == 1
        # sum over q of (-1)^q tr / |det| = det(I - A)/|det(A - I)| = -1
        assert abs(contrib.total - (-1)) < 1e-12

    def test_identity_irrational(self):
        res = fpf.lefschetz_rhs(T2_IRR, IDENTITY_T2)
        assert res.value_exact == 0

    def test_doubling_alternating_zero(self):
        res = fpf.lefschetz_rhs(T3_MIX, DOUBLING_T3)
        assert res.value_exact == 0
        per_q = [pd.trace_value for pd in res.contributions[0].per_degree]
        assert per_q == [1, 3, 2]

    def test_rhs_equals_lhs_exactly_on_suite(self):
        suite = [
            (T3_PROD, CLASSICAL),
            (T3_PROD, TorusMap(((2, 0, 0), (0, 3, 0), (0, 0, 1)), (0, 0, 0))),
            (T3_PROD, TorusMap(CLASSICAL.matrix, (Fraction(1, 3), Fraction(1, 5), 0))),
            (T3_MIX, DOUBLING_T3),
            (T2_IRR, IDENTITY_T2),
            (T2_PROD, TorusMap(((3, 0), (0, 1)), (0, 0))),
        ]
        for model, f in suite:
            lhs = cohomology_action(model, f).lefschetz_exact
            rhs = fpf.lefschetz_rhs(model, f).value_exact
            assert lhs == rhs, (model.v, f)

    def test_quadrature_route_agrees(self):
        res = fpf.lefschetz_rhs(T3_PROD, CLASSICAL, isotropy_resolution=3)
        assert res.value_exact == Fraction(-1)

    def test_random_product_maps_exact_equality(self):
        # random hyperbolic-or-not blocks with random rational translations
        rng = np.random.default_rng(123)
        found = 0
        while found < 15:
            block = rng.integers(-3, 4, (2, 2))
            M = [[int(block[0][0]) - 1, int(block[0][1])],
                 [int(block[1][0]), int(block[1][1]) - 1]]
            if rl.det_int(M) == 0:
                continue
            c = (Fraction(int(rng.integers(0, 5)), 7),
                 Fraction(int(rng.integers(0, 5)), 9), 0)
            A = ((int(block[0][0]), int(block[0][1]), 0),
                 (int(block[1][0]), int(block[1][1]), 0),
                 (0, 0, 1))
            f = TorusMap(A, c)
            lhs = cohomology_action(T3_PROD, f).lefschetz_exact
            rhs = fpf.lefschetz_rhs(T3_PROD, f).value_exact
            assert lhs == rhs is not None
            found += 1

    def test_random_sheared_maps_on_mixed_direction(self):
        # v = (0, 1, alpha): equivariant maps have free first column; the
        # shear entries exercise the harmonic side away from the product
        rng = np.random.default_rng(321)
        found = 0
        while found < 12:
            a = int(rng.integers(-3, 4))
            if a == 1:
                continue
            b, cshear = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            A = ((a, 0, 0), (b, 1, 0), (cshear, 0, 1))
            f = TorusMap(A, (Fraction(int(rng.integers(0, 3)), 5), 0, 0))
            lhs = cohomology_action(T3_MIX, f).lefschetz_exact
            rhs = fpf.lefschetz_rhs(T3_MIX, f).value_exact
            assert lhs == rhs is not None
            assert len(fpf.find_fixed_orbits(T3_MIX, f)) == abs(a - 1)
            found += 1


class TestTwistedContributions:
    def test_half_weight_cancels_through_components(self):
        model = T2_PROD
        twist = BundleTwist(tg.SymbolicFrequency(((Fraction(1, 2),),)))
        f = TorusMap(((2, 0), (0, 1)), (0, 0))
        res = fpf.lefschetz_rhs(model, f, twist=twist)
        assert abs(res.value) < 1e-12
        lhs = cohomology_action(model, f, twist).lefschetz
        assert abs(lhs - res.value) < 1e-12

    def test_integer_weight_with_translation_phase(self):
        twist = BundleTwist(tg.SymbolicFrequency(((1,),)))
        f = TorusMap(CLASSICAL.matrix, (0, 0, Fraction(1, 3)))
        lhs = cohomology_action(T3_PROD, f, twist).lefschetz
        rhs = fpf.lefschetz_rhs(T3_PROD, f, twist=twist).value
        assert abs(lhs - rhs) < 1e-12
        assert abs(lhs - (-np.exp(2j * np.pi / 3))) < 1e-12

    def test_irrational_weight_kills_both_sides(self):
        model = torus_model([(0, 0), (0, 0), (1, 0)], ("alpha",))
        twist = BundleTwist(
            tg.SymbolicFrequency(((0, 1),), ("alpha",)))
        f = TorusMap(CLASSICAL.matrix, (0, 0, 0))
        lhs = cohomology_action(model, f, twist).lefschetz
        rhs = fpf.lefschetz_rhs(model, f, twist=twist).value
        assert lhs == 0
        assert abs(rhs) < 1e-12

    def test_scalar_factor_multiplies(self):
        twist = BundleTwist(tg.SymbolicFrequency(((1,),)), phi_scalar=2.0 - 1.0j)
        f = CLASSICAL
        lhs = cohomology_action(T3_PROD, f, twist).lefschetz
        rhs = fpf.lefschetz_rhs(T3_PROD, f, twist=twist).value
        assert abs(lhs - rhs) < 1e-12
        assert abs(lhs - (-(2.0 - 1.0j))) < 1e-12


class TestSphereContributions:
    F = SpherePhaseMap((Fraction(1, 4), 0))

    def test_scalar_values_hand_computed(self):
        res = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar")
        by_support = {
            c.orbit.base_point.support: c.total for c in res.contributions
        }
        assert abs(by_support[(0,)] - 0.25) < 1e-12
        assert abs(by_support[(1,)] - 0.5) < 1e-12
        assert abs(res.value - 0.75) < 1e-12

    def test_sheets_and_mass(self):
        res = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar")
        data = {c.orbit.base_point.support: c.per_degree[0] for c in res.contributions}
        assert data[(0,)].sheets == 1 and data[(0,)].haar_factor == 1
        assert data[(1,)].sheets == 2 and data[(1,)].haar_factor == 2

    def test_choice_invariance_of_subgroup(self):
        orbit = [o for o in fpf.find_fixed_orbits(S3_RAT, self.F)
                 if o.base_point.support == (1,)][0]
        base = fpf.orbit_contribution(orbit, self.F, fibers="scalar")
        for rows in (((1, 2),), ((2, 4),), ((3, 6),)):
            alt = fpf.orbit_contribution(
                orbit, self.F, fibers="scalar", subgroup_rows=rows)
            assert abs(alt.total - base.total) < 1e-10

    def test_g0_ambiguity_invariance(self):
        orbit = [o for o in fpf.find_fixed_orbits(S3_RAT, self.F)
                 if o.base_point.support == (1,)][0]
        base = fpf.orbit_contribution(orbit, self.F, fibers="scalar")
        # shift the correction by the nontrivial isotropy element (1/2, 0)
        g0_alt = tuple(
            (a + b) % 1
            for a, b in zip(g0_point(base), (Fraction(1, 2), Fraction(0)))
        )
        alt = fpf.orbit_contribution(orbit, self.F, fibers="scalar", g0=g0_alt)
        assert abs(alt.total - base.total) < 1e-10

    def test_isotropy_quadrature_agrees(self):
        res = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar",
                                isotropy_resolution=4)
        assert abs(res.value - 0.75) < 1e-9


class TestSphereSmallTurns:
    """Phases (theta, 0) on S^3 with weights (1, 2): the orbit with support
    (0,) turns coordinate 1 by -2 theta, and the one with support (1,) has
    two isotropy components turning coordinate 0 by theta and theta + 1/2,
    so the value is ``1/(4 sin^2 2 pi theta) + (1/(4 sin^2 pi theta) +
    1/(4 cos^2 pi theta)) / 2``."""

    @staticmethod
    def exact_value(theta):
        with mpmath.workdps(60):
            t = mpmath.mpf(theta.numerator) / theta.denominator
            s = mpmath.sin(mpmath.pi * t) ** 2
            value = (1 / (4 * mpmath.sin(2 * mpmath.pi * t) ** 2)
                     + (1 / (4 * s) + 1 / (4 * (1 - s))) / 2)
            return float(value)

    @pytest.mark.parametrize("theta", [Fraction(1, 4), Fraction(1, 100000),
                                       Fraction(1, 1000000007)])
    def test_value_matches_mpmath(self, theta):
        res = fpf.lefschetz_rhs(S3_RAT, SpherePhaseMap((theta, 0)),
                                fibers="scalar")
        exact = self.exact_value(theta)
        assert abs(res.value.real - exact) <= 1e-13 * exact
        assert res.value.imag == 0.0

    def test_a_closure_that_does_not_turn_the_pole_is_refused(self, monkeypatch):
        # with the closure's tangent rows zeroed at the support coordinate
        # the orbit through the pole would be a point, whose conormal space
        # is more than the normal coordinate planes
        f = SpherePhaseMap((Fraction(1, 7), 0))
        for orbit in fpf.find_fixed_orbits(S3_RAT, f):
            assert orbit.isotropy.tangent_rows == ()
            (j,) = orbit.base_point.support
            rows = orbit.model.group.complement_basis()
            assert fpf._sphere_normal_coords(orbit, f.phases) == [1 - j]
            zeroed = tuple(tuple(0 if l == j else a for l, a in enumerate(row))
                           for row in rows)
            with monkeypatch.context() as patch:
                patch.setattr(tg.SubtorusGroup, "complement_basis",
                              lambda self: zeroed)
                with pytest.raises(InternalCheckFailed,
                                   match="normal coordinate planes"):
                    fpf._sphere_normal_coords(orbit, f.phases)

    def test_one_conormal_check_per_orbit_and_no_determinant(self, monkeypatch):
        # weights (1, 1001): 1002 isotropy components over two orbits, two
        # conormal checks and no numeric determinant
        builds, dets = [], []
        check, det = fpf._sphere_normal_coords, np.linalg.det
        monkeypatch.setattr(fpf, "_sphere_normal_coords",
                            lambda *a: builds.append(a) or check(*a))
        monkeypatch.setattr(np.linalg, "det", lambda *a: dets.append(a) or det(*a))
        res = fpf.lefschetz_rhs(sphere_model([(1,), (1001,)]),
                                SpherePhaseMap((Fraction(1, 3), 0)), fibers="scalar")
        assert sum(len(c.certificate.dets) for c in res.contributions) == 1002
        assert len(builds) == len(res.contributions) == 2
        assert dets == []

    def test_determinant_past_the_float_range_is_a_typed_error(self):
        theta = Fraction(1, 10**200)
        with pytest.raises(DeterminantUnderflow,
                           match=r"support \(0,\) .* \(coordinate 1 "):
            fpf.lefschetz_rhs(S3_RAT, SpherePhaseMap((theta, 0)),
                              fibers="scalar")


def s3_closed_form(a, b, theta1, theta2):
    """``(a + b) / (4 sin^2(pi x))`` for ``x = b theta1 - a theta2``, the
    scalar Lefschetz number of the phase map on S^3 with coprime weights
    ``(a, b)``, evaluated on the exact centred ``x``; ``None`` when ``x`` is
    an integer."""
    x = b * theta1 - a * theta2
    if x.denominator == 1:
        return None
    return (a + b) / (4 * math.sin(math.pi * float(x - round(x))) ** 2)


def assert_s3_closed_form(a, b, theta1, theta2):
    model = sphere_model([(a,), (b,)])
    f = SpherePhaseMap((theta1, theta2))
    expected = s3_closed_form(a, b, theta1, theta2)
    if expected is None:
        # the two-coordinate stratum is fixed orbitwise, and each pole's
        # corrected map fixes its normal coordinate on some component
        with pytest.raises(InfiniteFixedSet):
            fpf.lefschetz_rhs(model, f, fibers="scalar")
        for j in range(2):
            pole = gm.SpherePoint((int(j == 0), int(j == 1)), (0, 0))
            with pytest.raises(NonTransverse):
                fpf.check_transversality(gm.orbit_through(model, pole), f)
        return
    value = fpf.lefschetz_rhs(model, f, fibers="scalar").value
    assert value.imag == 0.0
    assert abs(value.real - expected) <= 1e-12 * expected


phases_40 = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 9), b=st.integers(1, 9), theta1=phases_40, theta2=phases_40)
def test_s3_matches_the_closed_form(a, b, theta1, theta2):
    assume(math.gcd(a, b) == 1)
    assert_s3_closed_form(a, b, theta1, theta2)


@pytest.mark.parametrize("b", [1001, 30001])
@pytest.mark.parametrize("theta1, theta2", [
    (Fraction(1, 3), Fraction(0)),
    (Fraction(1, 7), Fraction(2, 5)),
    (Fraction(1, 10**6), Fraction(0)),
    (Fraction(-1, 10**6), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2)),
])
def test_s3_large_isotropy_matches_the_closed_form(b, theta1, theta2):
    assert_s3_closed_form(1, b, theta1, theta2)


phases_30 = st.builds(Fraction, st.integers(0, 59), st.integers(1, 30))


@st.composite
def sphere_phase_maps(draw, irrational=st.booleans()):
    """A phase map on S^3 to S^11 with weights 1 to 6, or, with a generator
    tau, weights ``a + b tau`` for a in [0, 6] and b in [0, 2]."""
    k = draw(st.integers(2, 6))
    if draw(irrational):
        weight = st.tuples(st.integers(0, 6), st.integers(0, 2)).filter(any)
        model = sphere_model(draw(st.lists(weight, min_size=k, max_size=k)),
                             ("tau",))
    else:
        model = sphere_model([(w,) for w in draw(
            st.lists(st.integers(1, 6), min_size=k, max_size=k))])
    phases = draw(st.lists(phases_30, min_size=k, max_size=k))
    return model, SpherePhaseMap(phases)


def first_fixed_stratum(model, f):
    """The first stratum fixed orbitwise, scanning every support of two or
    more coordinates, smallest size first; ``None`` when none is fixed."""
    for size in range(2, model.k + 1):
        for support in itertools.combinations(range(model.k), size):
            LS = model.restricted_group(support).relation_lattice
            phi_S, D = rl.numerators([f.phases[j] for j in support])
            if all(sum(m * p for m, p in zip(row, phi_S)) % D == 0
                   for row in LS):
                return support
    return None


@settings(max_examples=150, deadline=None)
@given(sphere_phase_maps())
def test_sphere_gate_scans_pairs_to_the_same_verdict(case):
    # the gate scans pairs only; every larger stratum it skips is fixed only
    # if a pair inside it is
    model, f = case
    support = first_fixed_stratum(model, f)
    if support is None:
        orbits = fpf.find_fixed_orbits(model, f)
        supports = [o.base_point.support for o in orbits]
        assert supports == [(j,) for j in range(model.k)]
        return
    with pytest.raises(InfiniteFixedSet) as info:
        fpf.find_fixed_orbits(model, f)
    assert str(info.value) == (
        f"the stratum supported on coordinates {support} is fixed orbitwise "
        "and carries a positive-dimensional moduli family")


def sphere_twists(model):
    """No twist, or a line-bundle weight ``a + b tau`` (``a + b`` on a
    rational model) over the model's generators."""
    labels = model.weights.generator_labels
    row = st.tuples(st.integers(0, 3), *[st.integers(0, 1)] * len(labels))
    return st.none() | row.map(
        lambda r: BundleTwist(tg.SymbolicFrequency((r,), labels)))


def deleted_pole_gates(orbit, f, twist):
    """Whether the per-orbit sphere gates that the pair-stratum test
    replaced refuse the orbit: a support of two or more coordinates, an
    isotropy circle that sweeps a normal coordinate, or a component of the
    isotropy preimage in the (twisted) lift on which the corrected map turns
    a normal coordinate by a whole number of turns."""
    model = orbit.model
    support = orbit.base_point.support
    if len(support) > 1:
        return True
    normal = [l for l in range(model.k) if l not in support]
    if any(row[l] for row in orbit.isotropy.tangent_rows for l in normal):
        return True
    hat = (model.group if twist is None
           else tg.closure_group(model.weights, twist.weight))
    reps, T = tg.isotropy_preimage(hat, orbit.isotropy).solution.torsion_numerators()
    sol = model.group.parameters_with(support, [-f.phases[j] for j in support])
    t0, D = sol.particular_numerators()
    g0 = fractions(model.group.element_numerators(t0, D), D)
    for t in reps:
        h = hat.element_numerators(t, T)
        if any((f.phases[l] + g0[l] - Fraction(h[l], T)).denominator == 1
               for l in normal):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(sphere_phase_maps(), st.data())
def test_sphere_pole_gate_is_the_pair_stratum_gate(case, data):
    # a pole's one gate, no fixed pair stratum through it, refuses exactly
    # the orbits that the support, isotropy-sweep and per-component gates
    # refused, on irrational weights and twisted lifts too
    model, f = case
    twist = data.draw(sphere_twists(model))
    for j in range(model.k):
        pole = gm.SpherePoint(tuple(int(i == j) for i in range(model.k)),
                              (0,) * model.k)
        orbit = gm.orbit_through(model, pole)
        if deleted_pole_gates(orbit, f, twist):
            with pytest.raises(NonTransverse, match="is fixed orbitwise"):
                fpf.orbit_contribution(orbit, f, fibers="scalar", twist=twist)
        else:
            contrib = fpf.orbit_contribution(orbit, f, fibers="scalar",
                                             twist=twist)
            assert all(d > 0 for d in contrib.certificate.dets)


class TestEqualityIsNotVacuous:
    def test_mismatched_data_actually_differs(self):
        # the agreement test has teeth: pairing the untwisted harmonic side
        # with a twisted localized side produces different numbers
        twist = BundleTwist(tg.SymbolicFrequency(((1,),)))
        f = TorusMap(CLASSICAL.matrix, (0, 0, Fraction(1, 3)))
        lhs_plain = cohomology_action(T3_PROD, f).lefschetz
        rhs_twisted = fpf.lefschetz_rhs(T3_PROD, f, twist=twist).value
        assert abs(lhs_plain - rhs_twisted) > 0.5


class TestContributionBookkeeping:
    def test_total_matches_per_degree_fields(self):
        # total = sum over q of (-1)^q (haar/sheets) * isotropy integral,
        # reassembled from the stored per-degree records
        cases = [
            fpf.lefschetz_rhs(T3_PROD, CLASSICAL).contributions[0],
            fpf.lefschetz_rhs(S3_RAT, SpherePhaseMap((Fraction(1, 4), 0)),
                              fibers="scalar").contributions[0],
        ]
        for contrib in cases:
            total = sum(
                (-1) ** pd.degree * float(pd.haar_factor / pd.sheets)
                * pd.isotropy_integral
                for pd in contrib.per_degree
            )
            assert abs(total - contrib.total) < 1e-12

    def test_raw_and_absolute_determinants(self):
        # the classical block has det(A_bar - I) = -1: raw value is signed
        contrib = fpf.lefschetz_rhs(T3_PROD, CLASSICAL).contributions[0]
        assert contrib.per_degree[0].det_value == -1.0
        assert contrib.certificate.dets == (-1,)


class TestSphereTwists:
    F = SpherePhaseMap((Fraction(1, 4), 0))

    def test_unit_weight_hand_computed(self):
        # lifted kernel over the (0,1)-circle has fiber phases {1, -1}: its
        # component sum cancels; the other circle picks up the correction's
        # fiber phase e^{-3 pi i/2} = i against |det| = 4
        twist = BundleTwist(tg.SymbolicFrequency(((1,),)))
        res = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar", twist=twist)
        by = {c.orbit.base_point.support: c.total for c in res.contributions}
        assert abs(by[(1,)]) < 1e-12
        assert abs(by[(0,)] - 0.25j) < 1e-12
        assert abs(res.value - 0.25j) < 1e-12

    def test_doubled_weight_hand_computed(self):
        # weight two trivializes the kernel phases on the (0,1)-circle and
        # flips the sign of the other circle's correction phase
        twist = BundleTwist(tg.SymbolicFrequency(((2,),)))
        res = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar", twist=twist)
        by = {c.orbit.base_point.support: c.total for c in res.contributions}
        assert abs(by[(1,)] - 0.5) < 1e-12
        assert abs(by[(0,)] - (-0.25)) < 1e-12
        assert abs(res.value - 0.25) < 1e-12

    def test_quadrature_route_agrees_on_twists(self):
        for sigma in (1, 2):
            twist = BundleTwist(tg.SymbolicFrequency(((sigma,),)))
            exact = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar",
                                      twist=twist)
            quad = fpf.lefschetz_rhs(S3_RAT, self.F, fibers="scalar",
                                     twist=twist, isotropy_resolution=4)
            assert abs(exact.value - quad.value) < 1e-12


class TestScalarOracle:
    def test_doubling_t2(self):
        f = TorusMap(((2, 0), (0, 1)), (0, 0))
        assert abs(fpf.theorem_c_scalar_value(T2_PROD, f) - 1.0) < 1e-12

    def test_tripling_t2(self):
        f = TorusMap(((3, 0), (0, 1)), (0, 0))
        res = fpf.lefschetz_rhs(T2_PROD, f, fibers="scalar")
        assert len(res.contributions) == 2
        for c in res.contributions:
            assert abs(c.total - 0.5) < 1e-12
        assert abs(fpf.theorem_c_scalar_value(T2_PROD, f) - 1.0) < 1e-12

    def test_translation_irrational_t2(self):
        f = TorusMap(((1, 0), (0, 1)), (Fraction(1, 4), 0))
        assert abs(fpf.theorem_c_scalar_value(T2_IRR, f) - 1.0) < 1e-12
