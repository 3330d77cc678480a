"""Lattice enumeration of flow-annihilated modes against the box-scan oracle.

The oracle tests every mode of the ``(2c+1)^n`` box exactly; the library
lists the points of the (affine) mode lattice from its HNF basis.  The two
must agree as sorted tuples on random rational, irrational and mixed flows,
on twists with and without integer solutions, and on the ``A^T``-fixed
modes a heat trace sums over.  The norm counter ``lattice_box_norms``, which
lists nothing, must equal the norm ``Counter`` of that listing.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl
from equilef import basic_complex as bc
from equilef import endomorphism as em
from equilef import geometry_models as gm
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.errors import GeneratorMismatch, ModeBoxTooLarge

LABELS = ("alpha", "beta")
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def box_scan(model, cutoff, sigma=None, matrix=None):
    """Oracle: every mode of the box with ``m . v == sigma`` (and ``m A == m``
    when ``matrix`` is given), sorted."""
    n = model.n
    rows = model.v.constraint_rows()
    sigma = [Fraction(0)] * len(rows) if sigma is None else sigma
    # clear each equation's denominators so the scan runs on integers
    dens = [math.lcm(*(Fraction(a).denominator for a in row),
                     Fraction(s).denominator) for row, s in zip(rows, sigma)]
    int_rows = [[int(a * d) for a in row] for row, d in zip(rows, dens)]
    targets = [Fraction(s) * d for s, d in zip(sigma, dens)]
    out = []
    for m in itertools.product(range(-cutoff, cutoff + 1), repeat=n):
        if any(sum(a * mi for a, mi in zip(row, m)) != t
               for row, t in zip(int_rows, targets)):
            continue
        if matrix is not None and any(
                sum(m[j] * matrix[j][i] for j in range(n)) != m[i]
                for i in range(n)):
            continue
        out.append(m)
    return tuple(sorted(out))


small_rational = st.builds(
    Fraction,
    st.integers(-3, 3),
    st.sampled_from([1, 1, 1, 2, 3]),
)


@st.composite
def flows(draw):
    """A flat torus model: n = 1-5 with 0-2 generators.  Each coordinate is
    zero, rational, irrational or mixed, so rational, irrational and mixed
    flows all occur."""
    n = draw(st.integers(1, 5))
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
    return gm.FlatTorusModel(tg.SymbolicFrequency(tuple(rows), LABELS[:g]))


def cutoff_for(draw, n):
    """Cutoffs 0-4, kept small enough in T^5 that the oracle stays quick."""
    return draw(st.integers(0, 4 if n <= 4 else 3))


@st.composite
def twisted_flows(draw):
    """A flow with a twist weight: either ``C m0`` for a random mode ``m0``
    (an integer solution exists) or arbitrary small rationals (often none)."""
    model = draw(flows())
    rows = model.v.constraint_rows()
    if draw(st.booleans()):
        m0 = draw(st.lists(st.integers(-3, 3), min_size=model.n,
                           max_size=model.n))
        sigma = tuple(sum(a * x for a, x in zip(row, m0)) for row in rows)
    else:
        sigma = tuple(draw(small_rational) for _ in rows)
    weight = tg.SymbolicFrequency((sigma,), model.v.generator_labels)
    return model, em.BundleTwist(weight), sigma


@st.composite
def integer_maps(draw, n):
    kind = draw(st.sampled_from(["identity", "signs", "permutation", "random"]))
    if kind == "identity":
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if kind == "signs":
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        return tuple(tuple(signs[i] * (i == j) for j in range(n))
                     for i in range(n))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return tuple(tuple(int(perm[i] == j) for j in range(n))
                     for i in range(n))
    return tuple(tuple(draw(st.integers(-2, 2)) for _ in range(n))
                 for _ in range(n))


class TestAgainstBoxScan:
    @SETTINGS
    @given(st.data())
    def test_basic_modes(self, data):
        model = data.draw(flows())
        cutoff = cutoff_for(data.draw, model.n)
        assert bc.basic_modes(model, cutoff) == box_scan(model, cutoff)

    @SETTINGS
    @given(st.data())
    def test_twisted_invariant_modes(self, data):
        model, twist, sigma = data.draw(twisted_flows())
        cutoff = cutoff_for(data.draw, model.n)
        got = em.twisted_invariant_modes(model, cutoff, twist)
        assert got == box_scan(model, cutoff, sigma)

    @SETTINGS
    @given(st.data())
    def test_heat_fixed_modes(self, data):
        if data.draw(st.booleans()):
            model, twist, sigma = data.draw(twisted_flows())
        else:
            model, twist, sigma = data.draw(flows()), None, None
        cutoff = cutoff_for(data.draw, model.n)
        matrix = data.draw(integer_maps(model.n))
        f = em.TorusMap(matrix, (0,) * model.n)
        got = em._fixed_modes(model, f, cutoff, twist)
        assert got == box_scan(model, cutoff, sigma, matrix)


class TestLatticeBoxPoints:
    def test_full_lattice_is_the_box(self):
        basis = rl.freeze(rl.identity_rows(3))
        box = tuple(itertools.product(range(-2, 3), repeat=3))
        assert rl.lattice_box_points(basis, (0, 0, 0), 2) == box

    def test_rank_zero_is_the_offset_or_nothing(self):
        assert rl.lattice_box_points((), (1, -2), 2) == ((1, -2),)
        assert rl.lattice_box_points((), (1, -3), 2) == ()

    def test_affine_translate(self):
        # x + y = 3 inside the box of radius 2
        basis = rl.integer_kernel([[1, 1]])
        offset, kernel = rl.integer_solutions([[1, 1]], [3])
        assert kernel == basis
        assert rl.lattice_box_points(basis, offset, 2) == ((1, 2), (2, 1))

    def test_cutoff_zero(self):
        basis = rl.integer_kernel([[1, -1, 0]])
        assert rl.lattice_box_points(basis, (0, 0, 0), 0) == ((0, 0, 0),)


@st.composite
def affine_lattices(draw):
    """``(kernel, offset)`` of ``integer_solutions(C, C x0)``: n = 1-6, one
    to three rows with entries up to +-50 (sparse lattices whose constraint
    sums spread widely) and a random ``x0``, the right-hand side nonzero."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-50, 50), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    x0 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
    assume(any(rhs))
    offset, kernel = rl.integer_solutions(rows, rhs)
    return kernel, offset


class TestLatticeBoxNorms:
    @SETTINGS
    @given(affine_lattices(), st.integers(0, 4))
    def test_counts_the_norms_of_the_listing(self, lattice, cutoff):
        kernel, offset = lattice
        listed = rl.lattice_box_points(kernel, offset, cutoff)
        counts = Counter(sum(a * a for a in x) for x in listed)
        assert rl.lattice_box_norms(kernel, offset, cutoff) == sorted(counts.items())

    @SETTINGS
    @given(affine_lattices(), st.integers(0, 4))
    def test_a_listable_box_is_counted(self, lattice, cutoff):
        # each level updates at most as often as the listing has child
        # nodes there, at most the box bound L, so n levels stay within n L;
        # a state holds no more norms than nodes, and through the origin
        # negation pairs the nodes, so no more than (L + 1) // 2
        kernel, offset = lattice
        n = len(offset)
        bound = math.prod(2 * cutoff // next(a for a in row if a) + 1
                          for row in kernel)
        rl.lattice_box_norms(kernel, offset, cutoff, n * bound, bound)
        rl.lattice_box_norms(kernel, (0,) * n, cutoff, n * bound,
                             (bound + 1) // 2)

    def test_every_cutoff_the_listing_allows_is_counted(self):
        assert bc.NORM_UPDATE_LIMIT == cli.MAX_DIM * bc.MODE_BOX_LIMIT
        assert bc.NORM_CLASS_LIMIT == (bc.MODE_BOX_LIMIT + 1) // 2

    def test_refused_past_the_class_limit(self, monkeypatch):
        # T^2 with v = e_2: cutoff c has the c + 1 norms a^2, 0 <= a <= c
        model = gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (1,))))
        monkeypatch.setattr(bc, "NORM_CLASS_LIMIT", 100)
        assert len(bc.basic_spectrum(model, 99)) == 100
        with pytest.raises(ModeBoxTooLarge, match="more than 100 distinct"):
            bc.basic_spectrum(model, 100)

    def test_refused_before_the_level_that_passes_the_limit(self):
        # 6001 updates for the first row, then 3001 norms times 6001
        # coefficients for the second
        with pytest.raises(ModeBoxTooLarge, match="at least 18015002 "):
            bc.basic_spectrum(_t3_vertical(), 3000)
        assert bc.basic_spectrum(_t3_vertical(), 1) == [
            (0.0, 1), (round(bc.norm_eigenvalue(1), 12), 4),
            (round(bc.norm_eigenvalue(2), 12), 4)]

    def test_rank_zero_is_the_offset_or_nothing(self):
        assert rl.lattice_box_norms((), (1, -2), 2) == [(5, 1)]
        assert rl.lattice_box_norms((), (1, -3), 2) == []


def _t3_vertical():
    return gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (0,), (1,))))


class TestModeBoxLimit:
    def test_refused_before_listing(self, monkeypatch):
        # kernel rank 2 with unit pivots: (2c + 1)^2 modes at cutoff c
        listed = []
        monkeypatch.setattr(rl, "lattice_box_points",
                            lambda *args: listed.append(args) or ())
        with pytest.raises(ModeBoxTooLarge, match="36012001"):
            bc.lattice_modes(_t3_vertical(), 3000)
        with pytest.raises(ModeBoxTooLarge):
            bc.lattice_modes(_t3_vertical(), 500)    # 1001^2 > 10^6
        assert listed == []
        bc.lattice_modes(_t3_vertical(), 499)        # 999^2 <= 10^6
        assert len(listed) == 1

    def test_refused_in_the_heat_and_twisted_routes(self):
        model = _t3_vertical()
        twist = em.BundleTwist(tg.SymbolicFrequency(((1,),)))
        with pytest.raises(ModeBoxTooLarge):
            em.twisted_invariant_modes(model, 3000, twist)
        f = em.TorusMap(rl.identity_rows(3), (0, 0, 0))
        with pytest.raises(ModeBoxTooLarge):
            em._fixed_modes(model, f, 3000)

    @SETTINGS
    @given(st.data())
    def test_bound_covers_the_listing(self, data):
        model = data.draw(flows())
        cutoff = cutoff_for(data.draw, model.n)
        kernel = rl.integer_kernel(model.v.constraint_rows(), n=model.n)
        bound = math.prod(2 * cutoff // next(a for a in row if a) + 1
                          for row in kernel)
        assert len(bc.basic_modes(model, cutoff)) <= bound


class TestIntegerSolution:
    def test_solution_satisfies_system(self):
        C = [[2, 4, 6], [0, 3, 9]]
        b = [10, 12]
        x, _ = rl.integer_solutions(C, b)
        assert rl.mat_vec(C, x) == tuple(b)

    def test_rational_rows(self):
        x, _ = rl.integer_solutions([[Fraction(1, 2), Fraction(1, 3)]],
                                    [Fraction(5, 6)])
        assert Fraction(x[0], 2) + Fraction(x[1], 3) == Fraction(5, 6)

    @pytest.mark.parametrize("C,b", [
        ([[2, 4]], [1]),                 # gcd obstruction
        ([[1, 0], [1, 0]], [0, 1]),      # inconsistent
        ([[2]], [Fraction(1, 3)]),       # fractional right-hand side
    ])
    def test_no_solution(self, C, b):
        assert rl.integer_solutions(C, b) is None


class TestGeneratorMismatch:
    def test_twist_with_other_generators_raises(self):
        model = gm.FlatTorusModel(tg.SymbolicFrequency(
            ((0, 0), (1, 0), (0, 1)), ("alpha",)))
        twist = em.BundleTwist(tg.SymbolicFrequency(((1, 0),), ("beta",)))
        with pytest.raises(GeneratorMismatch):
            em.twisted_invariant_modes(model, 2, twist)
        f = em.TorusMap(rl.identity_rows(3), (0, 0, 0))
        with pytest.raises(GeneratorMismatch):
            em.heat_damped_traces(model, f, 1.0, 2, twist)

    def test_twist_with_fewer_generators_raises(self):
        model = gm.FlatTorusModel(tg.SymbolicFrequency(
            ((0, 0), (1, 0), (0, 1)), ("alpha",)))
        twist = em.BundleTwist(tg.SymbolicFrequency(((1,),)))
        with pytest.raises(GeneratorMismatch):
            em.twisted_invariant_modes(model, 2, twist)
