"""Orbit closures, isotropy and base maps on the model manifolds."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl
from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.errors import InfiniteFixedSet, OffManifold
from exact_points import base_point, components, fractions, g0_point, mod1
from test_frame_cross_check import equivariant_maps


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


def sphere_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.WeightedSphereModel(tg.SymbolicFrequency(rows, labels))


T3_PRODUCT = torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",))  # v = (0, 1, alpha)
S5_TAU12 = sphere_model([(0, 1), (1, 0), (2, 0)], ("tau",))     # weights (tau, 1, 2)


def translate(model, p, g):
    """Act by a group element: translation on the torus, phase rotation on
    the sphere.  Exact."""
    if isinstance(model, gm.FlatTorusModel):
        return mod1(Fraction(a) + Fraction(b) for a, b in zip(p, g))
    return gm.SpherePoint(p.moduli_sq, mod1(ph + gj for ph, gj in zip(p.phases, g)))


class TestTorusOrbits:
    def test_product_orbit(self):
        orbit = gm.orbit_through(T3_PRODUCT, (Fraction(1, 4), 0, 0))
        assert orbit.dim == 2
        assert orbit.isotropy.component_count == 1 and orbit.isotropy.dim == 0
        assert base_point(orbit) == (Fraction(1, 4), 0, 0)
        # conormal spanned by dx1, exactly
        assert T3_PRODUCT.base_lattice == ((1, 0, 0),)

    def test_orbit_invariant_under_group(self):
        model = T3_PRODUCT
        p = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 7))
        orbit = gm.orbit_through(model, p)
        for g, _ in tg.haar_quadrature(model.group, 3):
            moved = translate(model, p, g)
            assert gm.orbit_through(model, moved) == orbit

    def test_conormal_annihilates_tangent(self):
        # the base lattice rows (the conormal covectors) pair to zero with
        # every tangent row of the closure group, in integers
        for entries in ([(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (0, 1)],
                        [(2, 1), (-1, 3), (1, 0), (0, 1)]):
            model = torus_model(entries, ("alpha",))
            L = model.base_lattice
            B = model.group.complement_basis()
            assert L and len(L) + len(B) == model.n
            assert all(x == 0 for row in rl.mat_mul(L, rl.transpose(B)) for x in row)

    def test_float_points_rejected(self):
        with pytest.raises(OffManifold):
            gm.orbit_through(T3_PRODUCT, (0.25, 0.0, 0.0))

    def test_fully_irrational_base_is_point(self):
        model = torus_model([(1, 0), (0, 1)], ("alpha",))
        o1 = gm.orbit_through(model, (Fraction(1, 3), Fraction(1, 7)))
        o2 = gm.orbit_through(model, (0, 0))
        assert o1 == o2
        assert o1.dim == 2
        assert model.base_lattice == ()


class TestSphereOrbits:
    def test_pole_orbit_is_circle(self):
        p = gm.SpherePoint((0, 0, 1), (0, 0, Fraction(1, 5)))
        orbit = gm.orbit_through(S5_TAU12, p)
        assert orbit.dim == 1
        assert orbit.isotropy.component_count == 2
        assert orbit.isotropy.dim == 1

    def test_pole_isotropy_components_match_paper(self):
        p = gm.SpherePoint((0, 0, 1), (0, 0, 0))
        iso = gm.isotropy_group(S5_TAU12, gm.orbit_through(S5_TAU12, p))
        reps = set(components(iso))
        assert (Fraction(0), Fraction(0), Fraction(0)) in reps
        assert (Fraction(0), Fraction(1, 2), Fraction(0)) in reps
        # identity component is the first circle factor
        assert iso.dim == 1
        assert rl.lattice_coordinates(iso.tangent_rows, [(1, 0, 0)]) is not None

    def test_generic_orbit_free_two_torus(self):
        p = gm.SpherePoint(
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 7), 0, Fraction(2, 5)),
        )
        orbit = gm.orbit_through(S5_TAU12, p)
        assert orbit.dim == 2
        assert orbit.isotropy.component_count == 1 and orbit.isotropy.dim == 0

    def test_first_axis_isotropy_connected(self):
        p = gm.SpherePoint((1, 0, 0), (Fraction(1, 9), 0, 0))
        orbit = gm.orbit_through(S5_TAU12, p)
        iso = orbit.isotropy
        assert iso.component_count == 1
        assert iso.dim == 1
        # the circle {omega_1 = 0} inside the closure: spanned by (0, t, 2t)
        assert rl.lattice_coordinates(iso.tangent_rows, [(0, 1, 2)]) is not None

    def test_isotropy_component_count_brute_force(self):
        # scan a fine grid of the closure group for elements fixing the pole
        p = gm.SpherePoint((0, 0, 1), (0, 0, 0))
        orbit = gm.orbit_through(S5_TAU12, p)
        N = 12
        fixing = [
            g
            for g, _ in tg.haar_quadrature(S5_TAU12.group, N)
            if (2 * g[1]) % 1 == 0  # e^{2 pi i * 2 g_2} z3 = z3
        ]
        # quotient the hits by the identity component (the omega_1 circle)
        residues = {g[1] for g in fixing}
        assert len(residues) == orbit.isotropy.component_count

    def test_orbit_invariance_under_action(self):
        p = gm.SpherePoint((Fraction(1, 2), Fraction(1, 2), 0), (0, Fraction(1, 3), 0))
        orbit = gm.orbit_through(S5_TAU12, p)
        for g, _ in tg.haar_quadrature(S5_TAU12.group, 3):
            moved = translate(S5_TAU12, p, g)
            assert gm.orbit_through(S5_TAU12, moved) == orbit

    def test_off_manifold(self):
        # exact points: a total one part in 10^15 short of one is off too
        for m in (Fraction(1, 2), 1 - Fraction(1, 10**15)):
            with pytest.raises(OffManifold, match="unit sphere"):
                gm.orbit_through(S5_TAU12, gm.SpherePoint((m, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize("point", [
        [1 + 0j, 0j, 0j],
        [1.0, 0.0, 0.0],
        (Fraction(1), 0, 0),
    ])
    def test_inexact_points_rejected(self, point):
        # like float torus points, a sphere point must be an exact SpherePoint
        with pytest.raises(OffManifold, match="exact SpherePoints"):
            gm.orbit_through(S5_TAU12, point)


class TestInducedBaseMap:
    def test_product_splitting(self):
        model = torus_model([(0,), (0,), (1,)])
        f = _AffineStub(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
        A_bar, c_bar = gm.induced_base_map(model, f)
        assert A_bar == ((2, 1), (1, 1))
        assert c_bar == (0, 0)

    def test_doubling_descends_to_circle(self):
        f = _AffineStub(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
        A_bar, c_bar = gm.induced_base_map(T3_PRODUCT, f)
        assert A_bar == ((2,),)

    def test_group_translation_is_identity_on_base(self):
        f = _AffineStub(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            (0, Fraction(1, 4), Fraction(1, 3)),
        )
        A_bar, c_bar = gm.induced_base_map(T3_PRODUCT, f)
        assert A_bar == ((1,),)
        assert c_bar == (0,)

    def test_round_trip_with_orbits(self):
        model = T3_PRODUCT
        f = _AffineStub(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (Fraction(1, 3), 0, 0))
        A_bar, c_bar = gm.induced_base_map(model, f)
        for p in [(0, 0, 0), (Fraction(1, 4), Fraction(1, 5), 0)]:
            p = tuple(Fraction(x) for x in p)
            fp = tuple(
                sum(Fraction(a) * x for a, x in zip(row, p)) + Fraction(t)
                for row, t in zip(f.matrix, f.translation)
            )
            lhs = gm.orbit_through(model, fp).key[1]
            x_bar = gm.orbit_through(model, p).key[1]
            rhs = mod1(sum(Fraction(a) * x for a, x in zip(row, x_bar)) + cb
                       for row, cb in zip(A_bar, c_bar))
            assert lhs == rhs


class _AffineStub:
    def __init__(self, matrix, translation):
        self.matrix = matrix
        self.translation = translation


def rationals(lo=-12, hi=12, denominators=(1, 2, 3, 4, 5, 6, 7, 12)):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from(denominators))


@st.composite
def torus_models(draw):
    """A flat n-torus (n = 1..4) with a random flow: rational entries plus a
    multiple of one irrational generator, so the base lattice has rank
    n - 1, n - 2 or less."""
    n = draw(st.integers(1, 4))
    entries = [(draw(st.integers(-3, 3)), draw(st.integers(-1, 1))) for _ in range(n)]
    if not any(a or b for a, b in entries):
        entries[-1] = (1, 0)
    return torus_model(entries, ("alpha",))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), model=torus_models())
def test_torus_orbit_base_points_match_the_fraction_solve(data, model):
    # the integer solve operator against sympy's reduced row echelon form of
    # each level's system, free coordinates zero
    L = model.base_lattice
    levels = data.draw(st.lists(st.tuples(*[rationals()] * len(L)), min_size=1, max_size=5))
    flat, D = rl.numerators([x for level in levels for x in level])
    nums = [flat[i:i + len(L)] for i in range(0, len(flat), len(L))] if L \
        else [()] * len(levels)
    orbits = gm.torus_orbits(model, nums, D)
    for level, orbit in zip(levels, orbits):
        expected = [Fraction(0)] * model.n
        if L:
            R, pivots = sympy.Matrix([[*row, q] for row, q in zip(L, level)]).rref()
            for i, col in enumerate(pivots):
                expected[col] = Fraction(int(R[i, model.n].p), int(R[i, model.n].q))
        assert base_point(orbit) == mod1(expected)
        assert orbit.key == ("torus", level)
        assert mod1(rl.mat_vec(L, base_point(orbit))) == mod1(level)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(equivariant_maps(max_n=4, translated=True))
def test_integer_orbit_path_matches_fraction_arithmetic(case):
    # each listed orbit's base point, key and g0, held and printed from
    # integer numerators, against Fractions computed here: the levels solve
    # (A_bar - I) x = -c_bar (mod 1), p0 is the canonical solve of a level,
    # and g0 = (I - A) p0 - c (mod 1) lies in the closure
    model, f = case
    M, c_bar = fpf._base_minus_identity(model, f)
    assume(abs(rl.det_int(M)) <= 100)
    try:
        rhs = fpf.lefschetz_rhs(model, f)
    except InfiniteFixedSet:
        assume(False)
    L = model.base_lattice
    sol = rl.solve_congruences(M, [-x for x in c_bar], len(M))
    levels = []
    if sol is not None:
        nums, D = sol.point_numerators()
        levels = [fractions(level, D) for level in nums]
    assert len(levels) == len(rhs.contributions)
    for level, contrib in zip(levels, rhs.contributions):
        assert all((sum(m * x for m, x in zip(row, level)) + cb).denominator == 1
                   for row, cb in zip(M, c_bar))
        p0 = gm._solve_from_level(L, level, model.n)
        g0 = mod1(x - sum(a * y for a, y in zip(row, p0)) - t
                  for x, row, t in zip(p0, f.matrix, f.translation))
        orbit = contrib.orbit
        assert orbit.key == ("torus", level)
        assert base_point(orbit) == p0
        assert g0_point(contrib) == g0_point(contrib.certificate) == g0
        assert model.group.contains_numerators(*rl.numerators(g0))
        # the same orbit through its base point, over other denominators
        again = gm.orbit_through(model, p0)
        assert again == orbit and hash(again) == hash(orbit)
        assert cli._member_strings(contrib) == {
            "base_point": " ".join(map(str, p0)), "g0": " ".join(map(str, g0))}
