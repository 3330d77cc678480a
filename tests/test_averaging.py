"""The averaging projector: spectral filter vs Haar quadrature."""

import itertools
from fractions import Fraction

import numpy as np

from equilef import averaging as av
from equilef import basic_complex as bc
from equilef import geometry_models as gm
from equilef import torus_group as tg


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


T2_IRR = torus_model([(1, 0), (0, 1)], ("alpha",))   # v = (1, alpha)
T3 = torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",))


def random_section(model, q, cutoff, rng, n_terms=5):
    subsets = list(itertools.combinations(range(model.n - 1), q))
    coeffs = {}
    for _ in range(n_terms):
        m = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, model.n))
        I = subsets[int(rng.integers(0, len(subsets)))]
        coeffs[(m, I)] = complex(rng.normal(), rng.normal())
    return bc.BasicForm(model, q, coeffs, cutoff=cutoff)


def test_nontrivial_character_averages_to_zero():
    u = bc.BasicForm(T2_IRR, 0, {((1, 0), ()): 1.0})
    assert av.average_modes(u, T2_IRR.group).coeffs == {}


def test_constant_fixed():
    u = bc.BasicForm(T2_IRR, 0, {((0, 0), ()): 2.5})
    assert av.average_modes(u, T2_IRR.group).coeffs == u.coeffs


def test_basic_mode_survives():
    u = bc.BasicForm(T3, 0, {((1, 0, 0), ()): 1.0})
    assert av.average_modes(u, T3.group).coeffs == u.coeffs


def test_projector_and_adjoint_on_random_sections():
    rng = np.random.default_rng(42)
    report = av.averaging_report(T2_IRR, 4, rng)
    assert report["idempotent"] <= 1e-10
    assert report["self_adjoint"] <= 1e-10
    assert report["invariance"] <= 1e-10
    assert report["pass"]


def test_surviving_modes_are_flow_annihilated():
    rng = np.random.default_rng(1)
    for model in (T2_IRR, T3):
        for _ in range(10):
            u = random_section(model, 0, 4, rng)
            assert av.average_modes(u, model.group).basic_flag


def test_commutes_with_differential():
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = random_section(T3, 0, 3, rng)
        a = bc.apply_D(av.average_modes(u, T3.group))
        b = av.average_modes(bc.apply_D(u), T3.group)
        assert a.plus(b, factor=-1.0).norm() <= 1e-12 * max(1.0, u.norm())


def test_quadrature_kills_single_character_exactly():
    # one nontrivial mode: the quadrature is a closed-form geometric sum and
    # vanishes exactly once the resolution exceeds the character order
    u = bc.BasicForm(T2_IRR, 0, {((3, 0), ()): 1.0})
    pts = [np.array([0.11, 0.73]), np.array([0.5, 0.25])]
    for vals in av.average_quadrature(u, T2_IRR.group, 4, pts):
        assert abs(vals.get((), 0.0)) < 1e-13


def test_quadrature_fixes_constants_exactly():
    u = bc.BasicForm(T3, 0, {((0, 0, 0), ()): 1.5})
    pts = [np.array([0.2, 0.4, 0.9])]
    vals = av.average_quadrature(u, T3.group, 3, pts)
    assert abs(vals[0][()] - 1.5) < 1e-14


def test_quadrature_agrees_with_spectral_filter():
    rng = np.random.default_rng(2024)
    model = T2_IRR
    u = random_section(model, 0, 3, rng, n_terms=5)
    filtered = av.average_modes(u, model.group)
    pts = [rng.random(2) for _ in range(100)]
    quad_vals = av.average_quadrature(u, model.group, 32, pts)
    for p, vals in zip(pts, quad_vals):
        want = filtered.value_components(p).get((), 0.0)
        got = vals.get((), 0.0)
        assert abs(want - got) < 1e-6


def test_quadrature_averages_one_forms_componentwise():
    # frame components are translation invariant, so a one-form averages
    # component by component; nonbasic components die, basic ones survive
    model = T3
    u = bc.BasicForm(model, 1, {
        ((1, 0, 0), (0,)): 2.0,   # flow-annihilated mode
        ((0, 1, 0), (1,)): 1.0,   # not annihilated
    })
    filtered = av.average_modes(u, model.group)
    pts = [np.array([0.3, 0.7, 0.1])]
    vals = av.average_quadrature(u, model.group, 16, pts)[0]
    want = filtered.value_components(pts[0])
    for I in ((0,), (1,)):
        assert abs(vals.get(I, 0.0) - want.get(I, 0.0)) < 1e-9


def test_equivariance_under_group_translation():
    rng = np.random.default_rng(17)
    u = random_section(T3, 0, 3, rng)
    G = T3.group
    for g, _ in tg.haar_quadrature(G, 2):
        lhs = av.average_modes(av.translate_form(u, g), G)
        rhs = av.translate_form(av.average_modes(u, G), g)
        assert lhs.plus(rhs, factor=-1.0).norm() <= 1e-12 * max(1.0, u.norm())
