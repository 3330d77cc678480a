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
from exact_points import fractions, mod1


def random_int_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def points(sol):
    """The solutions of a finite set, as ``Fraction`` points."""
    nums, D = sol.point_numerators()
    return [fractions(p, D) for p in nums]


def torsion(sol):
    """The torsion translates, zero first, as ``Fraction`` points."""
    reps, D = sol.torsion_numerators()
    return [fractions(r, D) for r in reps]


def translates(sol):
    """The particular solution plus each torsion translate, reduced modulo
    one, as ``Fraction`` points."""
    p, D = sol.particular_numerators()
    reps, _ = sol.torsion_numerators()
    return [fractions([(a + r) % D for a, r in zip(p, rep)], D) for rep in reps]


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
                    assert rl.lattice_coordinates(K, [(x1, x2, x3)]) is not None


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
    assert points(sol) == [(Fraction(0),), (Fraction(1, 2),)]


def test_solve_congruences_inhomogeneous():
    # 3t = 1/2 (mod 1): t in {1/6, 1/2, 5/6}
    sol = rl.solve_congruences([[3]], [Fraction(1, 2)])
    assert points(sol) == [
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
    assert sol.particular_numerators() == ((0, 0, 0), 1)
    assert sol.torsion_numerators() == ([(0, 0, 0)], 1)
    assert sol.free == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert sol.count == math.inf
    # an empty system on the point torus has the single solution ()
    assert rl.solve_congruences([], [], 0).point_numerators() == ([()], 1)


def test_solve_congruences_empty_system_needs_dimension():
    with pytest.raises(ValueError):
        rl.solve_congruences([], [])


def _solves(A, b, t):
    return all((sum(a * x for a, x in zip(row, t)) - bi) % 1 == 0
               for row, bi in zip(A, b))


def _grid_solutions(A, b, N, d):
    """Every solution of ``A t = b (mod 1)`` on the grid ``(1/N) Z^d`` in
    ``[0, 1)^d``, tested in integers: ``A x = N b (mod N)``."""
    Nb = [bi * N for bi in b]
    assert all(x.denominator == 1 for x in Nb)
    return {
        tuple(Fraction(xi, N) for xi in x)
        for x in _product(range(N), d)
        if all((sum(a * xi for a, xi in zip(row, x)) - nb) % N == 0
               for row, nb in zip(A, Nb))
    }


def _on_coset(t, base, free):
    """Whether ``t - base`` lies in the subtorus ``span_R(free) (mod 1)``:
    every integer covector annihilating the (integer, primitive) rows
    ``free`` pairs with it to an integer.  For ``d - len(free) = 1`` that
    covector is the primitive integer vector of the one-dimensional
    rational null space."""
    d = len(t)
    if len(free) == d:
        return True
    assert d - len(free) == 1
    (null,) = sympy.Matrix(free).nullspace()
    scale = math.lcm(*(sympy.fraction(x)[1] for x in null))
    m = [int(x * scale) for x in null]
    g = math.gcd(*m)
    m = [a // g for a in m]
    return sum(a * (x - y) for a, x, y in zip(m, t, base)).denominator == 1


def test_solve_congruences_brute_force_oracle():
    rng = random.Random(97)
    denom = 12
    seen = {"none": 0, "finite": 0, "infinite": 0}
    for _ in range(60):
        k, d = rng.randint(1, 3), rng.randint(1, 2)
        A = random_int_matrix(rng, k, d, -3, 3)
        b = [Fraction(rng.randint(0, denom - 1), denom) for _ in range(k)]
        sol = rl.solve_congruences(A, b)
        if sol is not None and sol.is_finite:
            # every solution of a finite system lies on (1/N) Z^d with N the
            # right-hand side's denominator times |det| of any nonsingular
            # d x d row minor (Cramer's rule on A_S t = b_S + z)
            minors = (abs(sympy.Matrix([A[i] for i in rows]).det())
                      for rows in itertools.combinations(range(k), d))
            N = denom * int(min(m for m in minors if m))
            listed = points(sol)
            assert set(listed) == _grid_solutions(A, b, N, d), (A, b)
            assert len(listed) == sol.count
            seen["finite"] += 1
            continue
        brute = _grid_solutions(A, b, denom, d)
        if sol is None:
            assert not brute, (A, b)
            seen["none"] += 1
            continue
        # infinite: each listed translate solves the system, and every grid
        # solution lies on one of the translates' subtorus cosets
        bases = translates(sol)
        assert all(_solves(A, b, base) for base in bases)
        for t in brute:
            assert any(_on_coset(t, base, sol.free) for base in bases), (A, b, t)
        seen["infinite"] += bool(brute)
    assert all(seen.values()), seen


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
        reps.append(mod1(rl.mat_vec(T, u)))
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
    assert torsion(sol) == fraction_torsion_reps(A, d)
    if not sol.is_finite:
        with pytest.raises(ValueError):
            sol.point_numerators()
        return
    listed = points(sol)
    assert listed == sorted(translates(sol))
    assert len(set(listed)) == sol.count
    assert all(_solves(A, b, t) for t in listed)


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
    assert rl.lattice_coordinates(basis, [(1, 2, 2)]) == ((1, 1),)
    assert rl.lattice_coordinates(basis, [(0, 1, 1)]) is None
    # several rows are read off one Hermite form; one row off the lattice
    # refuses them all
    assert rl.lattice_coordinates(basis, [(1, 2, 2), (0, 2, 1)]) == ((1, 1), (0, 1))
    assert rl.lattice_coordinates(basis, [(1, 2, 2), (0, 1, 1)]) is None


def _small_rationals():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_rational_matches_sympy_rref(data):
    # consistent, inconsistent and rank-deficient systems: the Hermite form
    # of the augmented rows must give sympy's pivots (through None for an
    # inconsistent system) and its canonical solution, free variables zero
    m = data.draw(st.integers(1, 4), label="m")
    n = data.draw(st.integers(1, 4), label="n")
    A = [[data.draw(_small_rationals()) for _ in range(n)] for _ in range(m)]
    if m > 1 and data.draw(st.booleans(), label="dependent row"):
        c = data.draw(_small_rationals())
        A[-1] = [c * a for a in A[0]]
    if data.draw(st.booleans(), label="consistent"):
        x0 = [data.draw(_small_rationals()) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [data.draw(_small_rationals()) for _ in range(m)]
    R, pivots = sympy.Matrix([[*row, bi] for row, bi in zip(A, b)]).rref()
    x = rl.solve_rational(A, b)
    if n in pivots:
        assert x is None
        return
    expected = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        expected[col] = Fraction(int(R[i, n].p), int(R[i, n].q))
    assert x == tuple(expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_solve_on_hermite_bases_matches_sympy_rref(data):
    # the rows of a Hermite basis are independent, so every right-hand side
    # is solvable; back-substitution must give the reduced row echelon
    # form's solution, non-pivot coordinates zero
    m = data.draw(st.integers(1, 5), label="m")
    n = data.draw(st.integers(1, 6), label="n")
    H = rl.hnf([[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)])
    assume(H)
    b = [data.draw(_small_rationals()) for _ in H]
    nums, D = rl.echelon_solve(H, b)
    x = [Fraction(a, D) for a in nums]
    R, pivots = sympy.Matrix([[*row, bi] for row, bi in zip(H, b)]).rref()
    expected = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        expected[col] = Fraction(int(R[i, n].p), int(R[i, n].q))
    assert x == expected
    assert list(rl.mat_vec(H, x)) == b
    assert all(x[j] == 0 for j in range(n) if j not in pivots)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lattice_coordinates_match_brute_force(data):
    # HNF bases of small integer matrices; a point within 2 of the origin
    # in sup norm has coordinates within 2^(r-1) * 2 <= 8 (back-substitution
    # with entries above each pivot reduced into [0, pivot)), so the box
    # search below finds them whenever the point is in the lattice
    n = data.draw(st.integers(1, 4), label="n")
    M = [[data.draw(st.integers(-3, 3)) for _ in range(n)]
         for _ in range(data.draw(st.integers(1, 3), label="rows"))]
    basis = rl.hnf(M)
    x = tuple(data.draw(st.integers(-2, 2)) for _ in range(n))
    r = len(basis)
    found = [y for y in itertools.product(range(-8, 9), repeat=r)
             if rl.vec_mat(y, basis) == x] if basis else ([()] if not any(x) else [])
    assert len(found) <= 1
    assert rl.lattice_coordinates(basis, [x]) == ((found[0],) if found else None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lattice_coordinates_in_mixed_bases_match_brute_force(data):
    # a full-rank basis that is not Hermite: a unimodular mix of an HNF
    # basis.  The point is a lattice point with coordinates in [-2, 2], or
    # one moved off the lattice by half a unit or by a unit vector at a
    # non-pivot column (no lattice vector starts there), so the box search
    # below finds every lattice point's coordinates
    n = data.draw(st.integers(1, 4), label="n")
    M = [[data.draw(st.integers(-3, 3)) for _ in range(n)]
         for _ in range(data.draw(st.integers(1, 3), label="rows"))]
    H = rl.hnf(M)
    assume(H)
    r = len(H)
    U = rl.identity_rows(r)
    for _ in range(data.draw(st.integers(0, 3), label="mixes")):
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        q = data.draw(st.integers(-2, 2))
        U[i] = [-a for a in U[i]] if i == j else [a + q * c for a, c in zip(U[i], U[j])]
    basis = rl.mat_mul(U, H)
    pivots = {next(j for j, a in enumerate(row) if a) for row in H}
    shifts = [Fraction(0)] * n
    move = data.draw(st.sampled_from(["none", "half", "non-pivot"]), label="move")
    free = [j for j in range(n) if j not in pivots]
    if move == "half":
        shifts[data.draw(st.integers(0, n - 1))] = Fraction(1, 2)
    elif move == "non-pivot" and free:
        shifts[data.draw(st.sampled_from(free))] = Fraction(1)
    y = tuple(data.draw(st.integers(-2, 2)) for _ in range(r))
    x = tuple(a + s for a, s in zip(rl.vec_mat(y, basis), shifts))
    found = [z for z in itertools.product(range(-2, 3), repeat=r)
             if rl.vec_mat(z, basis) == x]
    assert found == ([y] if not any(shifts) else [])
    assert rl.lattice_coordinates(basis, [x]) == ((found[0],) if found else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50),
                          st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40))),
                max_size=6))
def test_numerators_take_ints_as_they_are(x):
    nums, D = rl.numerators(x)
    assert all(type(a) is int for a in nums) and type(D) is int
    assert [Fraction(a, D) for a in nums] == [Fraction(q) for q in x]
    assert D == math.lcm(*(Fraction(q).denominator for q in x))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_numerators_are_the_sorted_solutions(data):
    k = data.draw(st.integers(1, 3), label="k")
    d = data.draw(st.integers(1, 3), label="d")
    A = [[data.draw(st.integers(-4, 4)) for _ in range(d)] for _ in range(k)]
    b = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 6)))
         for _ in range(k)]
    sol = rl.solve_congruences(A, b, d)
    assume(sol is not None and sol.is_finite and sol.count <= 300)
    nums, D = sol.point_numerators()
    assert nums == sorted(nums)
    assert all(0 <= a < D for p in nums for a in p)
    assert len(set(nums)) == sol.count
    assert all(_solves(A, b, fractions(p, D)) for p in nums)
    particular, E = sol.particular_numerators()
    assert E == D and all(0 <= a < E for a in particular)
    assert _solves(A, b, fractions(particular, E))


def _smith_integer_solution(C, b):
    """The Smith-form route to one integer solution of ``C x = b``, kept as
    the reference for :func:`rl.integer_solutions`: with ``D = S C T``, solve
    ``D y = S b`` coordinatewise, free coordinates zero, and ``x = T y``."""
    rows = [rl.numerators((*r, bi))[0] for r, bi in zip(C, b)]
    n = len(rows[0]) - 1
    D, S, T = rl.snf_with_transforms([r[:n] for r in rows])
    y = [0] * n
    for i, ci in enumerate(rl.mat_vec(S, [r[n] for r in rows])):
        d = D[i][i] if i < n else 0
        if d == 0 and ci or d and ci % d:
            return None
        if d:
            y[i] = ci // d
    return rl.mat_vec(T, y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_solutions_match_the_smith_route(data):
    # integer, rational and inconsistent right-hand sides; homogeneous ones too
    m = data.draw(st.integers(1, 5), label="m")
    n = data.draw(st.integers(1, 5), label="n")
    C = [[data.draw(_small_rationals()) for _ in range(n)] for _ in range(m)]
    kind = data.draw(st.sampled_from(("integer", "rational", "random", "zero")))
    if kind == "random":
        b = [data.draw(_small_rationals()) for _ in range(m)]
    elif kind == "zero":
        b = [0] * m
    else:
        point = st.integers(-4, 4) if kind == "integer" else _small_rationals()
        x0 = [data.draw(point) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in C]
    solutions = rl.integer_solutions(C, b)
    assert (solutions is None) == (_smith_integer_solution(C, b) is None)
    if kind == "integer":
        assert solutions is not None
    if solutions is not None:
        offset, kernel = solutions
        assert all(type(a) is int for a in offset)
        assert rl.mat_vec(C, offset) == tuple(b)
        assert kernel == rl.integer_kernel(C)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_factored_system_solves_as_separate_solves_do(data):
    # the Smith form of A is built once and solved for several right-hand
    # sides; each solution equals a solve of its own, numerators, torsion
    # axes and free directions alike
    k = data.draw(st.integers(0, 3), label="k")
    d = data.draw(st.integers(0 if k == 0 else 1, 3), label="d")
    A = [[data.draw(st.integers(-4, 4)) for _ in range(d)] for _ in range(k)]
    system = rl.CongruenceSystem(A, d)
    for _ in range(3):
        b = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 6)))
             for _ in range(k)]
        shared = system.solve(*rl.numerators(b))
        alone = rl.solve_congruences(A, b, d)
        assert (shared is None) == (alone is None)
        if alone is not None:
            assert shared.particular_numerators() == alone.particular_numerators()
            assert shared.free == alone.free
            assert shared.torsion_count == alone.torsion_count
            assert shared.torsion_numerators() == alone.torsion_numerators()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numerator_solve_equals_the_fraction_solve(data):
    # numerators over any common denominator, reduced or not (a group
    # correction's denominator is not always the least one), give the
    # solution rationals of the Fraction route: its particular solution,
    # torsion translates, free directions and, for a finite set, every point
    k = data.draw(st.integers(0, 3), label="k")
    d = data.draw(st.integers(0 if k == 0 else 1, 3), label="d")
    A = [[data.draw(st.integers(-4, 4)) for _ in range(d)] for _ in range(k)]
    E = data.draw(st.integers(1, 12), label="E")
    b = [data.draw(st.integers(-30, 30)) for _ in range(k)]
    by_numerators = rl.CongruenceSystem(A, d).solve(b, E)
    by_fractions = rl.solve_congruences(A, [Fraction(a, E) for a in b], d)
    assert (by_numerators is None) == (by_fractions is None)
    if by_fractions is not None:
        assert (fractions(*by_numerators.particular_numerators())
                == fractions(*by_fractions.particular_numerators()))
        assert by_numerators.free == by_fractions.free
        assert torsion(by_numerators) == torsion(by_fractions)
        if by_fractions.is_finite:
            assert points(by_numerators) == points(by_fractions)
