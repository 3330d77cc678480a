"""Exact linear algebra: normal forms, kernels, congruence solving."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl


def random_int_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_hnf_literal():
    H = rl.hnf([[2, 4], [1, 3]])
    assert H == ((1, 1), (0, 2))


def test_hnf_transform_properties():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_int_matrix(rng, m, n)
        H, U = rl.hnf_with_transform(M)
        assert rl.mat_mul(U, rl.freeze(M)) == H
        assert abs(rl.det_int(U)) == 1
        # echelon: pivot columns strictly increase, pivots positive
        last = -1
        for row in H:
            nz = [j for j, a in enumerate(row) if a]
            if not nz:
                continue
            assert nz[0] > last
            assert row[nz[0]] > 0
            last = nz[0]


def test_hnf_idempotent():
    rng = random.Random(5)
    for _ in range(40):
        M = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        H = rl.hnf(M)
        assert rl.hnf(H, ncols=len(M[0])) == H


def test_hnf_lattice_equality_detection():
    # two bases of the same lattice canonicalize identically
    base = [[2, 1, 0], [0, 3, 1]]
    other = [[2, 4, 1], [0, 3, 1]]  # unimodular row ops of base
    assert rl.hnf(base) == rl.hnf(other)


def test_integer_kernel_membership_and_rank():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        M = random_int_matrix(rng, m, n)
        K = rl.integer_kernel(M)
        for row in K:
            assert all(sum(a * x for a, x in zip(crow, row)) == 0 for crow in M)
        assert len(K) == n - sympy.Matrix(M).rank()


def test_integer_kernel_is_saturated():
    K = rl.integer_kernel([[1, 2, 3]])
    # brute-force oracle: every small integer solution lies in the lattice
    for x1 in range(-4, 5):
        for x2 in range(-4, 5):
            for x3 in range(-4, 5):
                if x1 + 2 * x2 + 3 * x3 == 0:
                    assert rl.lattice_coordinates(K, (x1, x2, x3)) is not None


def test_integer_kernel_rational_constraints():
    K = rl.integer_kernel([[Fraction(1, 2), Fraction(1, 3)]])
    # x/2 + y/3 = 0  <=>  3x + 2y = 0, saturated basis (2, -3) up to sign
    assert len(K) == 1
    x, y = K[0]
    assert 3 * x + 2 * y == 0 and math.gcd(abs(x), abs(y)) == 1


def test_snf_properties():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = random_int_matrix(rng, m, n)
        D, S, T = rl.snf_with_transforms(M)
        assert rl.mat_mul(rl.mat_mul(S, rl.freeze(M)), T) == D
        assert abs(rl.det_int(S)) == 1
        assert abs(rl.det_int(T)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_snf_literal():
    D, _, _ = rl.snf_with_transforms([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert [D[i][i] for i in range(3)] == [2, 6, 12]


def test_det_int_matches_charpoly():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        M = random_int_matrix(rng, n, n)
        coeffs = rl.char_poly(M)
        det = rl.det_int(M)
        # char(0) = (-1)^n det
        assert coeffs[-1] == (-1) ** n * det


def test_char_poly_companion():
    # companion matrix of t^3 - 2t - 5
    M = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert rl.char_poly(M) == (1, 0, -2, -5)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-50, 50), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_char_poly_agrees_with_sympy(M):
    expected = sympy.Matrix(M).charpoly().all_coeffs()
    assert rl.char_poly(M) == tuple(int(c) for c in expected)


def test_deflate_root_one():
    # (t - 1)(t^2 - 3t + 1) = t^3 - 4t^2 + 4t - 1
    assert rl.deflate_root_one((1, -4, 4, -1)) == (1, -3, 1)
    with pytest.raises(ValueError):
        rl.deflate_root_one((1, 0, 0))


def test_solve_congruences_scalar_doubling():
    # 2t = 0 (mod 1) on the circle: exactly {0, 1/2}
    sol = rl.solve_congruences([[2]], [Fraction(0)])
    assert sol.is_finite and sol.count == 2
    assert sorted(sol.points()) == [(Fraction(0),), (Fraction(1, 2),)]


def test_solve_congruences_inhomogeneous():
    # 3t = 1/2 (mod 1): t in {1/6, 1/2, 5/6}
    sol = rl.solve_congruences([[3]], [Fraction(1, 2)])
    assert sorted(sol.points()) == [
        (Fraction(1, 6),),
        (Fraction(1, 2),),
        (Fraction(5, 6),),
    ]


def test_solve_congruences_unsolvable():
    # 0*t = 1/2 has no solution
    assert rl.solve_congruences([[0]], [Fraction(1, 2)]) is None


def test_solve_congruences_free_directions():
    # t1 = 0 on T^2: a circle of solutions
    sol = rl.solve_congruences([[1, 0]], [Fraction(0)])
    assert not sol.is_finite
    assert sol.count == math.inf
    assert len(sol.free) == 1


def test_solve_congruences_empty_system_is_the_whole_torus():
    sol = rl.solve_congruences([], [], 3)
    zero = (Fraction(0),) * 3
    assert sol.particular == zero
    assert sol.torsion_reps == [zero]
    assert sol.free == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert sol.count == math.inf
    # an empty system on the point torus has the single solution ()
    assert rl.solve_congruences([], [], 0).points() == [()]


def test_solve_congruences_empty_system_needs_dimension():
    with pytest.raises(ValueError):
        rl.solve_congruences([], [])


def test_solve_congruences_brute_force_oracle():
    rng = random.Random(97)
    denom = 12
    for _ in range(25):
        k, d = rng.randint(1, 3), rng.randint(1, 2)
        A = random_int_matrix(rng, k, d, -3, 3)
        b = [Fraction(rng.randint(0, denom - 1), denom) for _ in range(k)]
        sol = rl.solve_congruences(A, b)
        grid = [
            tuple(Fraction(i, denom) for i in combo)
            for combo in _product(range(denom), d)
        ]
        brute = {
            t
            for t in grid
            if all(
                rl.frac_mod1(sum(a * x for a, x in zip(row, t)) - bi) == 0
                for row, bi in zip(A, b)
            )
        }
        if sol is None:
            assert not brute
        elif sol.is_finite:
            pts = {p for p in sol.points() if all(x.denominator | 0 == x.denominator for x in p)}
            on_grid = {p for p in pts if all((x * denom).denominator == 1 for x in p)}
            assert on_grid == {p for p in brute if p in pts} or brute.issuperset(on_grid)
            # every brute solution must be reproduced by the parametrization
            for t in brute:
                assert any(
                    all(rl.frac_mod1(a - b2) == 0 for a, b2 in zip(t, p))
                    for p in pts
                ), (A, b, t)
        else:
            # infinite: every brute point satisfies, nothing to enumerate
            assert brute or True


def _product(rng_range, d):
    return itertools.product(rng_range, repeat=d)


def fraction_torsion_reps(A, d):
    """The torsion translates ``T u (mod 1)``, ``u`` on the Smith grid with
    the last axis fastest, one ``Fraction`` matrix-vector product each: the
    reference for the integer listing of ``CongruenceSolution``."""
    if not A:
        return [(Fraction(0),) * d]
    D, _, T = rl.snf_with_transforms(A)
    axes = [(i, D[i][i]) for i in range(min(len(A), d)) if D[i][i] > 1]
    reps = []
    for combo in itertools.product(*(range(di) for _, di in axes)):
        u = [Fraction(0)] * d
        for (i, di), j in zip(axes, combo):
            u[i] = Fraction(j, di)
        reps.append(rl.vec_mod1(rl.mat_vec(T, u)))
    return reps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_congruence_listing_matches_fraction_oracle(data):
    # k < d, k = d, k > d and the empty system (k = 0), rational right-hand
    # sides with numerators outside [0, 1) so every reduction modulo one acts
    k = data.draw(st.integers(0, 4), label="k")
    d = data.draw(st.integers(0 if k == 0 else 1, 4), label="d")
    A = [[data.draw(st.integers(-4, 4)) for _ in range(d)] for _ in range(k)]
    b = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 6)))
         for _ in range(k)]
    sol = rl.solve_congruences(A, b, d)
    assume(sol is not None and sol.torsion_count <= 300)
    reps = fraction_torsion_reps(A, d)
    assert sol.torsion_reps == reps
    if not sol.is_finite:
        with pytest.raises(ValueError):
            sol.points()
        return
    points = sol.points()
    assert points == sorted(
        rl.vec_mod1(tuple(p + r for p, r in zip(sol.particular, rep))) for rep in reps)
    assert len(set(points)) == sol.count
    for t in points:
        assert all(rl.frac_mod1(sum(a * x for a, x in zip(row, t)) - bi) == 0
                   for row, bi in zip(A, b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 40)), max_size=6))
def test_numerators_over_the_least_common_denominator(pairs):
    x = [Fraction(a, q) for a, q in pairs]
    nums, D = rl.numerators(x)
    assert [Fraction(a, D) for a in nums] == x
    assert D == math.lcm(*(q.denominator for q in x))


def test_solve_rational_and_lattice_coordinates():
    A = [[1, 2], [3, 4]]
    x = rl.solve_rational(A, [Fraction(5), Fraction(6)])
    assert x == (Fraction(-4), Fraction(9, 2))
    basis = ((1, 0, 1), (0, 2, 1))
    assert rl.lattice_coordinates(basis, (1, 2, 2)) == (1, 1)
    assert rl.lattice_coordinates(basis, (0, 1, 1)) is None
