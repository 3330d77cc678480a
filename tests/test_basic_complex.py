"""The horizontal complex: differential, ellipticity, harmonic spaces,
spectra."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilef import basic_complex as bc
from equilef import endomorphism as em
from equilef import geometry_models as gm
from equilef import torus_group as tg
from equilef.errors import DegreeOverflow


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


T3 = torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",))         # v = (0, 1, alpha)
T2_IRR = torus_model([(1, 0), (0, 1)], ("alpha",))              # v = (1, alpha)
T3_PROD = torus_model([(0,), (0,), (1,)])                        # v = (0, 0, 1)


def mode_complex_matrices(model, m):
    """Matrices of the differential on the single-mode exterior family, one
    per degree; used for rank-nullity bookkeeping of the per-eigenvalue
    complexes."""
    n = model.n
    mats = []
    for q in range(n - 1):
        dom = list(itertools.combinations(range(n - 1), q))
        cod = list(itertools.combinations(range(n - 1), q + 1))
        cod_index = {I: i for i, I in enumerate(cod)}
        M = np.zeros((len(cod), len(dom)), dtype=complex)
        for j, I in enumerate(dom):
            u = bc.BasicForm(model, q, {(tuple(m), I): 1.0})
            for (m2, J), c in bc.apply_D(u).coeffs.items():
                M[cod_index[J], j] = c
        mats.append(M)
    return mats


def eigen_complex_cohomology_dims(model, m):
    """Cohomology dimensions of the single-mode complex (all zero for basic
    modes other than zero)."""
    mats = mode_complex_matrices(model, m)
    n = model.n
    dims = []
    for q in range(n):
        dim_q = math.comb(n - 1, q)
        rank_in = np.linalg.matrix_rank(mats[q - 1]) if q >= 1 and mats[q - 1].size else 0
        rank_out = np.linalg.matrix_rank(mats[q]) if q <= n - 2 and mats[q].size else 0
        dims.append(dim_q - rank_in - rank_out)
    return dims


def random_basic_form(model, q, cutoff, rng, n_terms=5):
    modes = [m for m in bc.basic_modes(model, cutoff) if any(m)]
    subsets = list(itertools.combinations(range(model.n - 1), q))
    coeffs = {}
    for _ in range(n_terms):
        m = modes[rng.integers(0, len(modes))]
        I = subsets[rng.integers(0, len(subsets))]
        coeffs[(m, I)] = complex(rng.normal(), rng.normal())
    return bc.BasicForm(model, q, coeffs, basic_flag=True)


def random_full_form(model, q, cutoff, rng, n_terms=6):
    subsets = list(itertools.combinations(range(model.n - 1), q))
    coeffs = {}
    for _ in range(n_terms):
        m = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, model.n))
        I = subsets[rng.integers(0, len(subsets))]
        coeffs[(m, I)] = complex(rng.normal(), rng.normal())
    return bc.BasicForm(model, q, coeffs)


class TestFrame:
    def test_theta_unit_and_basis_orthonormal(self):
        frame = bc.frame_for(T3)
        v = np.array(T3.v.float_values())
        vhat = v / np.linalg.norm(v)
        assert abs(vhat @ frame.theta - 1) < 1e-12
        basis = np.asarray(frame.basis)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        assert np.max(np.abs(basis @ vhat)) < 1e-12


class TestDifferential:
    def test_constant_maps_to_zero(self):
        u = bc.BasicForm(T3, 0, {((0, 0, 0), ()): 1.0})
        assert bc.apply_D(u).coeffs == {}

    def test_single_mode_against_finite_differences(self):
        # u = e^{2 pi i x1} on T3 with v = (0,1,alpha): direct differentiation
        u = bc.BasicForm(T3, 0, {((1, 0, 0), ()): 1.0})
        du = bc.apply_D(u)
        frame = bc.frame_for(T3)
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(5):
            x = rng.random(3)
            vals = du.value_components(x)
            for k in range(2):
                direction = np.asarray(frame.basis[k])
                up = np.exp(2j * np.pi * ((x + h * direction) @ [1, 0, 0]))
                dn = np.exp(2j * np.pi * ((x - h * direction) @ [1, 0, 0]))
                fd = (up - dn) / (2 * h)
                assert abs(vals.get((k,), 0.0) - fd) < 1e-4

    def test_dd_zero_on_random_basic_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = random_basic_form(T3, 0, 4, rng)
            ddu = bc.apply_D(bc.apply_D(u))
            assert ddu.norm() <= 1e-12 * max(u.norm(), 1.0)

    def test_degree_overflow(self):
        top = bc.BasicForm(T3, 2, {((0, 1, 0), (0, 1)): 1.0})
        with pytest.raises(DegreeOverflow):
            bc.apply_D(top)

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_full_form(T3, 0, 3, rng)
            w = random_full_form(T3, 1, 3, rng)
            lhs = bc.inner_product(bc.apply_D(u), w)
            rhs = bc.inner_product(u, bc.apply_D_adjoint(w))
            assert abs(lhs - rhs) < 1e-10


class TestEllipticOperator:
    def test_zero_mode_harmonic(self):
        u = bc.BasicForm(T3, 1, {((0, 0, 0), (0,)): 1.0})
        assert bc.apply_P(u).coeffs == {}

    def test_basic_mode_eigenvalue(self):
        # basic mode eigenvalue is 4 pi^2 |m|^2, against explicit composition
        m = (1, 0, 0)
        u = bc.BasicForm(T3, 0, {(m, ()): 1.0})
        lam = bc.norm_eigenvalue(sum(x * x for x in m))
        assert abs(lam - 4 * math.pi**2) < 1e-12
        comp = bc.apply_P_composed(u)
        assert abs(comp.coeffs[(m, ())] - lam) < 1e-10

    def test_nonbasic_mode_positive_and_matches_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = random_full_form(T2_IRR, 0, 3, rng, n_terms=4)
            direct = bc.apply_P(u)
            comp = bc.apply_P_composed(u)
            diff = direct.plus(comp, factor=-1.0)
            assert diff.norm() <= 1e-9 * max(u.norm(), 1.0)
        # strict positivity off the zero mode
        for m in [(1, 0), (0, 1), (2, -1)]:
            assert bc.norm_eigenvalue(sum(x * x for x in m)) > 0

    def test_commutes_with_lie_derivative(self):
        rng = np.random.default_rng(5)
        u = random_full_form(T2_IRR, 0, 3, rng)
        a = bc.apply_lie(bc.apply_P(u))
        b = bc.apply_P(bc.apply_lie(u))
        assert a.plus(b, factor=-1.0).norm() < 1e-9 * max(u.norm(), 1.0)


def constant_frame_forms(model, q):
    """The constant frame forms of degree ``q``, one per sorted index set of
    the ``n - 1`` frame covectors: the untwisted harmonic space."""
    zero = tuple(0 for _ in range(model.n))
    return [bc.BasicForm(model, q, {(zero, I): 1.0}, basic_flag=True)
            for I in itertools.combinations(range(model.n - 1), q)]


class TestHarmonicSpaces:
    def test_dimensions_binomial(self):
        assert em.harmonic_dimensions(T3) == (1, 2, 1)
        assert em.harmonic_dimensions(T2_IRR) == (1, 1)
        assert em.harmonic_dimensions(T3_PROD) == (1, 2, 1)
        for model in (T3, T2_IRR, T3_PROD):
            forms = [constant_frame_forms(model, q) for q in range(model.n)]
            assert tuple(map(len, forms)) == em.harmonic_dimensions(model)
            for u in itertools.chain.from_iterable(forms):
                assert bc.apply_P(u).coeffs == {}

    def test_brute_force_null_space_oracle(self):
        # assemble the elliptic operator on all basic modes by explicit
        # composition and count its null space numerically
        model = T3
        cutoff = 2
        for q in range(3):
            basis_keys = [
                (m, I)
                for m in bc.basic_modes(model, cutoff)
                for I in itertools.combinations(range(2), q)
            ]
            index = {key: i for i, key in enumerate(basis_keys)}
            P = np.zeros((len(basis_keys), len(basis_keys)), dtype=complex)
            for key, j in index.items():
                u = bc.BasicForm(model, q, {key: 1.0}, basic_flag=True)
                for key2, c in bc.apply_P_composed(u).coeffs.items():
                    P[index[key2], j] = c
            null_dim = sum(1 for s in np.linalg.svd(P, compute_uv=False) if s < 1e-8)
            assert null_dim == math.comb(2, q)

    def test_harmonic_forms_are_orthonormal(self):
        basis = constant_frame_forms(T3, 1)
        for i, u in enumerate(basis):
            for j, w in enumerate(basis):
                assert abs(bc.inner_product(u, w) - (i == j)) < 1e-12


class TestEigenComplexes:
    def test_acyclic_off_zero(self):
        # every nonzero basic mode family has vanishing cohomology
        for model, cutoff in ((T3, 6), (T2_IRR, 6)):
            for m in bc.basic_modes(model, cutoff):
                if not any(m):
                    continue
                dims = eigen_complex_cohomology_dims(model, m)
                assert all(d == 0 for d in dims), (m, dims)

    def test_zero_mode_full_cohomology(self):
        dims = eigen_complex_cohomology_dims(T3, (0, 0, 0))
        assert dims == [1, 2, 1]


class TestSpectrum:
    def test_nonnegative_and_minimal_gap(self):
        table = bc.basic_spectrum(T3, 4)
        assert table[0][0] == 0.0
        nonzero = [lam for lam, _ in table if lam > 0]
        min_m2 = min(
            sum(x * x for x in m) for m in bc.basic_modes(T3, 4) if any(m)
        )
        assert abs(nonzero[0] - 4 * math.pi**2 * min_m2) < 1e-9


@st.composite
def flows(draw):
    """A T^2-T^5 flow, rational or with one or two generators."""
    n = draw(st.integers(2, 5))
    labels = draw(st.sampled_from([(), ("alpha",), ("alpha", "beta")]))
    entry = st.tuples(st.integers(-3, 3), *[st.integers(-2, 2)] * len(labels))
    entries = draw(st.lists(entry, min_size=n, max_size=n).filter(
        lambda rows: any(any(row) for row in rows)))
    return torus_model(entries, labels)


@settings(max_examples=60, deadline=None)
@given(flows(), st.integers(0, 3))
def test_spectrum_is_a_recount_of_the_mode_box(model, cutoff):
    counts = {}
    for m in itertools.product(range(-cutoff, cutoff + 1), repeat=model.n):
        if bc.is_basic_mode(model, m):
            lam = round(bc.norm_eigenvalue(sum(x * x for x in m)), 12)
            counts[lam] = counts.get(lam, 0) + 1
    assert bc.basic_spectrum(model, cutoff) == sorted(counts.items())
