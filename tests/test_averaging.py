"""The averaging projector: spectral filter vs Haar quadrature."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import averaging as av
from equilef import basic_complex as bc
from equilef import geometry_models as gm
from equilef import torus_group as tg


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


T2_IRR = torus_model([(1, 0), (0, 1)], ("alpha",))   # v = (1, alpha)
T3 = torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",))


def translate_form(u, g):
    """The section ``p -> u(p - g)``: mode ``m`` picks up the character
    ``exp(-2 pi i m . g)``."""
    g = tuple(Fraction(x) for x in g)
    coeffs = {
        (m, I): c * cmath.exp(-2j * math.pi * float(sum(Fraction(mi) * gi for mi, gi in zip(m, g))))
        for (m, I), c in u.coeffs.items()
    }
    return bc.BasicForm(u.model, u.degree, coeffs, basic_flag=u.basic_flag)


def random_section(model, q, cutoff, rng, n_terms=5):
    subsets = list(itertools.combinations(range(model.n - 1), q))
    coeffs = {}
    for _ in range(n_terms):
        m = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, model.n))
        I = subsets[int(rng.integers(0, len(subsets)))]
        coeffs[(m, I)] = complex(rng.normal(), rng.normal())
    return bc.BasicForm(model, q, coeffs)


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
        lhs = av.average_modes(translate_form(u, g), G)
        rhs = translate_form(av.average_modes(u, G), g)
        assert lhs.plus(rhs, factor=-1.0).norm() <= 1e-12 * max(1.0, u.norm())


small_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def torus_flows(draw):
    """A flat T^2-T^4 model whose flow is rational or has one or two
    irrational generators; each coordinate is zero, rational, irrational or
    mixed."""
    n = draw(st.integers(2, 4))
    g = draw(st.integers(0, 2))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "rational", "irrational", "mixed"]))
        row = [Fraction(0)] * (1 + g)
        if kind in ("rational", "mixed") or g == 0:
            row[0] = draw(small_rational)
        if kind in ("irrational", "mixed") and g:
            row[1 + draw(st.integers(0, g - 1))] = draw(small_rational)
        rows.append(tuple(row))
    assume(any(c for row in rows for c in row))
    return torus_model(rows, ("alpha", "beta")[:g])


class TestArrayPass:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), model=torus_flows())
    def test_mask_is_the_flow_decision_and_the_report_reads_zero(self, data, model):
        cutoff = data.draw(st.integers(0, 4))
        modes = data.draw(st.lists(
            st.tuples(*[st.integers(-cutoff, cutoff)] * model.n), max_size=40))
        keep = av.averaging_mask(model.group, np.array(modes, dtype=np.int64)
                                 .reshape(-1, model.n))
        assert keep.tolist() == [bc.is_basic_mode(model, m) for m in modes]
        seed = data.draw(st.integers(0, 2**32 - 1))
        report = av.averaging_report(model, cutoff, np.random.default_rng(seed))
        assert report == {"idempotent": 0.0, "self_adjoint": 0.0,
                          "invariance": 0.0, "pass": True, "unannihilated": 0}

    def test_average_modes_uses_the_shared_mask(self, monkeypatch):
        u = bc.BasicForm(T3, 0, {((1, 0, 0), ()): 1.0, ((0, 0, 0), ()): 2.0})
        assert len(av.average_modes(u, T3.group).coeffs) == 2
        monkeypatch.setattr(av, "averaging_mask",
                            lambda group, modes: np.zeros(len(modes), dtype=bool))
        assert av.average_modes(u, T3.group).coeffs == {}

    def test_generator_calls_do_not_grow_with_the_section_count(self, monkeypatch):
        class CountingGenerator:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.calls = 0

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.calls += 1
                    return method(*args, **kwargs)
                return counted

        def no_forms(*args, **kwargs):
            raise AssertionError("the array pass builds no BasicForm")

        monkeypatch.setattr(bc, "BasicForm", no_forms)
        calls = []
        for sections in (1, av.REPORT_SECTIONS, 400):
            monkeypatch.setattr(av, "REPORT_SECTIONS", sections)
            rng = CountingGenerator(5)
            assert av.averaging_report(T3, 4, rng)["pass"]
            calls.append(rng.calls)
        assert calls[0] == calls[1] == calls[2] <= 5

    def test_halving_filter_is_caught(self, monkeypatch):
        # a filter that halves the kept coefficients is self-adjoint and
        # commutes with translations, but is not idempotent
        mask = av.averaging_mask
        monkeypatch.setattr(av, "averaging_mask",
                            lambda group, modes: 0.5 * mask(group, modes))
        report = av.averaging_report(T3, 4, np.random.default_rng(3))
        assert report["idempotent"] > av.REPORT_TOLERANCE
        assert report["self_adjoint"] == report["invariance"] == 0.0
        assert not report["pass"]

    def test_mode_the_flow_does_not_annihilate_is_caught(self, monkeypatch):
        # a filter that keeps every mode: the group-side identities still
        # hold, the flow's constraint rows reject the kept modes
        monkeypatch.setattr(av, "averaging_mask",
                            lambda group, modes: np.ones(np.shape(modes)[:-1], dtype=bool))
        report = av.averaging_report(T3, 4, np.random.default_rng(3))
        assert report["unannihilated"] > 0
        assert not report["pass"]

    def test_exact_products_past_int64(self):
        big = 2**70
        modes = np.array([[1, 2], [3, -1]])
        assert av._exact_products(modes, [[big, 1]]).tolist() == [[big + 2], [3 * big - 1]]
        assert av._exact_products(modes, [[2, 1]]).dtype == np.int64
