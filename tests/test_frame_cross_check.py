"""The harmonic side's Householder frame; the exact cross-check of the
exterior traces against the basic-mode lattice that ``cohomology_action``
runs, and mutants it must catch; and, on the same random equivariant maps,
exact agreement of the two sides."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl
from equilef import basic_complex as bc
from equilef import endomorphism as em
from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import torus_group as tg
from equilef.errors import InfiniteFixedSet, InternalCheckFailed

small_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def flows(draw, max_n=6):
    """A flat T^2-T^max_n model with 0-2 generators.  Either one coordinate
    is nonzero (a flow along an axis, rational or irrational) or each
    coordinate is zero, rational, irrational or mixed."""
    n = draw(st.integers(2, max_n))
    g = draw(st.integers(0, 2))
    kinds = ["rational", "irrational", "mixed"] if g else ["rational"]
    if draw(st.booleans()):
        axis = draw(st.integers(0, n - 1))
        plan = ["zero" if i != axis else draw(st.sampled_from(kinds))
                for i in range(n)]
    else:
        plan = [draw(st.sampled_from(["zero", *kinds])) for _ in range(n)]
    rows = []
    for kind in plan:
        row = [Fraction(0)] * (1 + g)
        if kind in ("rational", "mixed"):
            row[0] = draw(small_rational)
        if kind in ("irrational", "mixed"):
            row[1 + draw(st.integers(0, g - 1))] = draw(small_rational)
        rows.append(tuple(row))
    assume(any(c for row in rows for c in row))
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, ("alpha", "beta")[:g]))


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


T3_PROD = torus_model([(0,), (0,), (1,)])                        # v = (0, 0, 1)
CLASSICAL = em.TorusMap(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))


class TestFrame:
    @settings(max_examples=150, deadline=None)
    @given(flows())
    def test_orthonormal_and_annihilates_theta(self, model):
        frame = bc.frame_for(model)
        v = np.array(model.v.float_values())
        theta = np.asarray(frame.theta)
        basis = np.asarray(frame.basis).reshape(model.n - 1, model.n)
        assert np.max(np.abs(theta - v / np.linalg.norm(v))) < 1e-12
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(model.n - 1)), initial=0.0) < 1e-12
        assert np.max(np.abs(basis @ theta), initial=0.0) < 1e-12

    def test_flow_along_an_axis_gives_the_other_axes(self):
        frame = bc.frame_for(T3_PROD)
        assert frame.theta == (0.0, 0.0, 1.0)
        assert frame.basis == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


@st.composite
def equivariant_maps(draw, max_n=6, translated=False):
    """``(model, f)`` with ``A = I + X K`` for the integer kernel ``K`` of the
    flow's constraint rows (so ``K v = 0`` and ``A v = v``) and a random
    integer ``X``, whose entries are scaled by ``10^15`` in some maps; the
    translation is zero unless ``translated``."""
    model = draw(flows(max_n))
    n = model.n
    K = rl.integer_kernel(model.v.constraint_rows(), n=n)
    scale = draw(st.sampled_from([1, 1, 10**15]))
    X = [[scale * draw(st.integers(-2, 2)) for _ in K] for _ in range(n)]
    XK = rl.mat_mul(X, K) if K else [[0] * n for _ in range(n)]
    A = [[(i == j) + XK[i][j] for j in range(n)] for i in range(n)]
    c = [draw(small_rational) if translated else 0 for _ in range(n)]
    return model, em.TorusMap(A, c)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(equivariant_maps())
def test_random_equivariant_maps_pass_the_cross_check(case):
    model, f = case
    act = em.cohomology_action(model, f)
    assert act.trace_integers == f.exterior_traces


@pytest.mark.parametrize("a", [10**8, 10**9, -10**9, 10**12, 10**15, -10**15, 2**53])
def test_large_entries_pass_the_cross_check(a):
    # determinant 1 with entries near a, where a float minor a - (a - 1)
    # would lose the determinant to cancellation; the integer check does not
    f = em.TorusMap(((a, 1, 0), (a - 1, 1, 0), (0, 0, 1)), (0, 0, 0))
    act = em.cohomology_action(T3_PROD, f)
    assert act.trace_integers == (1, a + 1, 1)
    assert act.lefschetz_exact == 1 - a


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(equivariant_maps(max_n=4, translated=True))
def test_both_sides_agree_exactly_on_random_maps(case):
    # the harmonic side's exact value against the localized side's, through
    # the induced base map and the orbit base points, wherever the fixed
    # set is finite and small
    model, f = case
    A_bar, _ = gm.induced_base_map(model, f)
    minus_identity = [[a - (i == j) for j, a in enumerate(row)]
                      for i, row in enumerate(A_bar)]
    assume(abs(rl.det_int(minus_identity)) <= 100)
    try:
        rhs = fpf.lefschetz_rhs(model, f)
    except InfiniteFixedSet:
        assume(False)
    assert em.cohomology_action(model, f).lefschetz_exact == rhs.value_exact


def classical_map():
    """A fresh copy of the classical map, whose exterior traces are not yet
    cached."""
    return em.TorusMap(CLASSICAL.matrix, CLASSICAL.translation)


@pytest.mark.parametrize("i,j", [(1, 2), (1, 3), (2, 3)])
def test_a_perturbed_char_poly_coefficient_is_caught(monkeypatch, i, j):
    # moving one coefficient up and another down keeps the root at one, so
    # the deflation succeeds and only the lattice identity can see it
    original = rl.char_poly

    def mutant(M):
        coeffs = list(original(M))
        coeffs[i] += 1
        coeffs[j] -= 1
        return tuple(coeffs)
    monkeypatch.setattr(rl, "char_poly", mutant)
    with pytest.raises(InternalCheckFailed, match="basic-mode lattice"):
        em.cohomology_action(T3_PROD, classical_map())


@pytest.mark.parametrize("dropped", [0, 1])
def test_a_dropped_kernel_row_is_caught(monkeypatch, dropped):
    original = gm.FlatTorusModel.base_lattice
    monkeypatch.setattr(gm.FlatTorusModel, "base_lattice", property(
        lambda model: tuple(row for r, row in enumerate(original.fget(model))
                            if r != dropped)))
    with pytest.raises(InternalCheckFailed, match="basic-mode lattice"):
        em.cohomology_action(T3_PROD, CLASSICAL)


def test_a_wrong_trace_among_huge_entries_is_caught():
    # a float principal minor of this map's frame restriction reads 0.888
    # against the exact 1 in degree 2, so a float check must allow an error
    # of about 2e3 there; the integer identity sees a trace off by 1000
    a = 10**15
    f = em.TorusMap(((a, 1, 0), (a - 1, 1, 0), (0, 0, 1)), (0, 0, 0))
    vars(f)["exterior_traces"] = (1, a + 1, 1 + 1000)
    with pytest.raises(InternalCheckFailed, match="basic-mode lattice"):
        em.cohomology_action(T3_PROD, f)
