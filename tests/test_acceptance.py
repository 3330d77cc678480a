"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in the captured output summary).
"""

import contextlib
import itertools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from equilef import _ratlin as rl
from equilef import averaging as av
from equilef import basic_complex as bc
from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import mollifier_lab as ml
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.endomorphism import (
    TorusMap,
    alternating_heat_traces,
    cohomology_action,
    harmonic_dimensions,
)
from equilef.errors import InfiniteFixedSet, NonTransverse
from exact_points import components, g0_point

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


def load(name):
    import json

    return cli.parse_scenario(json.loads((SCENARIOS / f"{name}.scenario").read_text()))


UNTWISTED_FIXTURES = [
    ("classical_t3", Fraction(-1)),
    ("doubling_t3", Fraction(0)),
    ("identity_irrational_t2", Fraction(0)),
    ("shifted_classical_t3", Fraction(-1)),
    ("diag23_t3", Fraction(2)),
    ("negation_t4", Fraction(0)),
    ("nofix_translation_t3", Fraction(0)),
]
TWISTED_FIXTURES = ["twisted_halfweight_t2", "twisted_unit_t3"]


def test_criterion_1_exact_formula_agreement():
    with criterion(1, "exact rational LHS = RHS on the transverse torus suite"):
        assert len(UNTWISTED_FIXTURES) >= 5
        for name, expected in UNTWISTED_FIXTURES:
            scn = load(name)
            lhs = cohomology_action(scn.model, scn.map, scn.twist)
            rhs = fpf.lefschetz_rhs(scn.model, scn.map, twist=scn.twist)
            assert lhs.lefschetz_exact is not None, name
            assert rhs.value_exact is not None, name
            assert lhs.lefschetz_exact == rhs.value_exact == expected, name
        for name in TWISTED_FIXTURES:
            scn = load(name)
            lhs = cohomology_action(scn.model, scn.map, scn.twist)
            rhs = fpf.lefschetz_rhs(scn.model, scn.map, twist=scn.twist)
            assert abs(lhs.lefschetz - rhs.value) <= 1e-12, name


def test_criterion_2_classical_reduction():
    with criterion(2, "product-with-circle scenarios reduce to the classical "
                      "alternating-sign fixed-point count"):
        cases = [
            ((2, 1), (1, 1)),
            ((2, 0), (0, 3)),
            ((0, -1), (1, 0)),
        ]
        model = torus_model([(0,), (0,), (1,)])
        for block in cases:
            A2 = np.array(block)
            A = tuple(tuple(int(x) for x in row) + (0,) for row in block) + ((0, 0, 1),)
            f = TorusMap(A, (0, 0, 0))
            # independent oracle for the left side: the 2x2 determinant
            det_lhs = rl.det_int([[1 - block[0][0], -block[0][1]],
                                  [-block[1][0], 1 - block[1][1]]])
            lhs = cohomology_action(model, f).lefschetz_exact
            assert lhs == det_lhs
            # independent oracle for the right side: enumerate classical fixed
            # points on a grid and sum the signs of det(I - dA)
            N = abs(rl.det_int([[block[0][0] - 1, block[0][1]],
                                [block[1][0], block[1][1] - 1]]))
            denom = max(N, 1) * 2
            count = 0
            for i, j in itertools.product(range(denom), repeat=2):
                x = (Fraction(i, denom), Fraction(j, denom))
                fx = (
                    (block[0][0] * x[0] + block[0][1] * x[1]) % 1,
                    (block[1][0] * x[0] + block[1][1] * x[1]) % 1,
                )
                if fx == x:
                    count += 1
            sign = 1 if det_lhs > 0 else -1
            rhs_oracle = count * sign
            rhs = fpf.lefschetz_rhs(model, f)
            assert rhs.value_exact == rhs_oracle == det_lhs
            assert count == N


def truncated_kernel_dimension(model, q, cutoff):
    """Null space of the elliptic operator on flow-annihilated degree-q
    sections within the cutoff, assembled column by column from its factors
    (``apply_P_composed``) and counted by singular values."""
    keys = [(m, I) for m in bc.basic_modes(model, cutoff)
            for I in itertools.combinations(range(model.n - 1), q)]
    index = {key: i for i, key in enumerate(keys)}
    P = np.zeros((len(keys), len(keys)), dtype=complex)
    for key, j in index.items():
        u = bc.BasicForm(model, q, {key: 1.0}, basic_flag=True)
        for key2, c in bc.apply_P_composed(u).coeffs.items():
            P[index[key2], j] = c
    return int(sum(1 for s in np.linalg.svd(P, compute_uv=False) if s < 1e-8))


def test_criterion_3_finite_dimensional_cohomology():
    with criterion(3, "harmonic dimensions equal the kernel dimensions of the "
                      "truncated operator at cutoffs 1 and 2"):
        models = [
            torus_model([(1, 0), (0, 1)], ("alpha",)),
            torus_model([(1, 0, 0), (0, 1, 0), (0, 0, 1)], ("alpha", "beta")),
            torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",)),
            torus_model([(0,), (1,), (2,)]),
        ]
        for model in models:
            dims = harmonic_dimensions(model)
            assert dims == tuple(math.comb(model.n - 1, q) for q in range(model.n))
            for cutoff in (1, 2):
                kernel = tuple(truncated_kernel_dimension(model, q, cutoff)
                               for q in range(model.n))
                assert kernel == dims, (model.n, cutoff, kernel)


def test_criterion_4_heat_trace_stability():
    with criterion(4, "alternating heat-damped trace is s-stable to 1e-8 "
                      "on every fixture"):
        fixtures = [name for name, _ in UNTWISTED_FIXTURES] + TWISTED_FIXTURES
        for name in fixtures:
            scn = load(name)
            lhs = cohomology_action(scn.model, scn.map, scn.twist).lefschetz
            s_values = (0.1, 1.0, 10.0)
            alts = alternating_heat_traces(scn.model, scn.map, s_values, 8,
                                           scn.twist)
            for s, alt in zip(s_values, alts):
                assert abs(alt - lhs) <= 1e-8, (name, s)


def test_criterion_5_averaging_projector():
    with criterion(5, "averaging is an orthogonal projection; spectral and "
                      "quadrature routes agree"):
        model = torus_model([(1, 0), (0, 1)], ("alpha",))
        rng = np.random.default_rng(777)
        report = av.averaging_report(model, 4, rng)
        assert report["idempotent"] <= 1e-10
        assert report["self_adjoint"] <= 1e-10
        # spectral filter vs Haar quadrature at 100 sample points
        coeffs = {}
        for _ in range(5):
            m = tuple(int(x) for x in rng.integers(-3, 4, 2))
            coeffs[(m, ())] = complex(rng.normal(), rng.normal())
        u = bc.BasicForm(model, 0, coeffs)
        filtered = av.average_modes(u, model.group)
        pts = [rng.random(2) for _ in range(100)]
        quad = av.average_quadrature(u, model.group, 32, pts)
        for p, vals in zip(pts, quad):
            want = filtered.value_components(p).get((), 0.0)
            assert abs(vals.get((), 0.0) - want) <= 1e-6


def test_criterion_6_sphere_example_facts():
    with criterion(6, "weighted five-sphere example: closure dimension, "
                      "isotropy components, transversal intersection count"):
        weights = tg.SymbolicFrequency(
            ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
             (Fraction(2), Fraction(0))), ("tau",))
        model = gm.WeightedSphereModel(weights)
        assert model.group.dim == 2
        pole = gm.orbit_through(
            model, gm.SpherePoint((0, 0, 1), (0, 0, 0)))
        assert pole.isotropy.component_count == 2
        assert tg.sheet_count_rows(((0, 1, 2),), pole.isotropy) == 2
        assert tg.sheet_count_rows(((1, 1, 2),), pole.isotropy) == 2


def test_criterion_7_transversality_gating():
    with criterion(7, "non-transverse fixtures are rejected before any value "
                      "is produced"):
        scn = load("translation_only_t3")
        with pytest.raises(InfiniteFixedSet):
            fpf.lefschetz_rhs(scn.model, scn.map)
        s5 = load("s5_irrational")
        with pytest.raises(InfiniteFixedSet):
            fpf.lefschetz_rhs(s5.model, s5.map)
        # the pole orbit of the sphere map has a rotation angle swept through
        # zero by the isotropy circle
        pole = gm.orbit_through(s5.model, gm.SpherePoint((0, 0, 1), (0, 0, 0)))
        with pytest.raises(NonTransverse):
            fpf.check_transversality(pole, s5.map)
        # and the command-line gate reports exit status 2
        import io

        options = cli.options()
        code = cli.run("verify", str(SCENARIOS / "translation_only_t3.scenario"),
                       options, io.StringIO())
        assert code == cli.EXIT_GATE


def test_criterion_8_mollifier_convergence():
    with criterion(8, "kernel pairings converge to the closed-form value "
                      "within 0.05 with decreasing error envelope"):
        model = torus_model([(0,), (1,)])
        for block in (((2, 0), (0, 1)), ((3, 0), (0, 1))):
            f = TorusMap(block, (0, 0))
            study = ml.convergence_study(model, f, (8, 16, 32, 64))
            errors = [row.abs_error for row in study.rows]
            assert errors[-1] <= 0.05
            envelope = list(itertools.accumulate(errors, min))
            assert all(b <= a + 1e-15 for a, b in zip(envelope, envelope[1:]))
            assert errors[-1] <= envelope[-1] + 1e-15
            assert study.converged


def test_criterion_9_choice_invariance():
    with criterion(9, "contributions are independent of the correction and "
                      "complementary-subgroup choices to 1e-10"):
        # sphere fixture: vary both the subgroup presentation and g0
        s3 = load("s3_rational")
        orbits = fpf.find_fixed_orbits(s3.model, s3.map)
        for orbit in orbits:
            base = fpf.orbit_contribution(orbit, s3.map, fibers="scalar")
            for rows in (((1, 2),), ((2, 4),), ((3, 6),)):
                alt = fpf.orbit_contribution(orbit, s3.map, fibers="scalar",
                                             subgroup_rows=rows)
                assert abs(alt.term.total - base.term.total) <= 1e-10
            for h in components(orbit.isotropy):
                g0_alt = tuple((a + b) % 1 for a, b in zip(g0_point(base), h))
                alt = fpf.orbit_contribution(orbit, s3.map, fibers="scalar",
                                             g0=g0_alt)
                assert abs(alt.term.total - base.term.total) <= 1e-10
        # twisted torus fixture: vary the complementary subgroup winding
        scn = load("twisted_unit_t3")
        orbit = fpf.find_fixed_orbits(scn.model, scn.map)[0]
        base = fpf.orbit_contribution(orbit, scn.map, twist=scn.twist)
        for winding in (((0, 0, 1, 1),), ((0, 0, 2, 2),), ((0, 0, 3, 3),)):
            alt = fpf.orbit_contribution(orbit, scn.map, twist=scn.twist,
                                         subgroup_rows=winding)
            assert abs(alt.term.total - base.term.total) <= 1e-10
