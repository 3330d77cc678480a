"""Exact linear algebra over the integers and the rationals.

No floating point enters any decision.  Matrices are sequences of rows and
are returned as tuples of tuples.  Inputs may be ``int``s or
``fractions.Fraction``s, but the kernels compute in integers only: a
rational vector is carried as integer numerators over one common
denominator ``D`` (``numerators``), so eliminations, congruences and
reductions modulo one are integer products and ``% D``.  Every exact
point a kernel computes is returned in that form, ``(numerators, D)``
(``solve_rational``, which nothing in the package calls, is the one
exception), and a caller that wants ``Fraction``s builds them; a
``Fraction`` operation costs tens of times an integer one, and the torus
fixed-orbit and isotropy paths run these kernels once per orbit or isotropy
component.  The ambient dimensions are tiny (at most eight or so), so the
classical cubic algorithms are used throughout.

The workhorses are

* ``numerators`` -- integer numerators of a rational vector over its least
  common denominator, the representation every kernel below works in;
* ``hnf_with_transform`` -- row-style Hermite normal form with a unimodular
  row transform, which answers every question about integer lattice points;
* ``snf_with_transforms`` -- Smith normal form with both unimodular
  transforms, used only for congruences modulo one, where torsion counts;
* ``integer_kernel`` -- a basis of ``{x in Z^n : A x = 0}`` for a rational
  constraint matrix ``A``, which is how group closures are computed;
* ``integer_solutions`` -- all integer solutions of a rational system, read
  off one Hermite form, which is how twisted mode lattices are offset;
* ``solve_congruences`` -- the full solution set of ``A t = b (mod 1)`` on a
  torus, described as particular + torsion + connected part (the whole
  torus for an empty system), counted from the Smith diagonal before any
  torsion translate is listed, and computed in numerators over
  ``E * lcm(Smith entries)``, ``E`` the denominator of ``b``;
* ``echelon_solve`` -- the solution of a system in echelon form with
  non-pivot coordinates zero, by back-substitution in integers; applied to
  a Hermite form it answers every lattice-coordinate read
  (``lattice_coordinates``) and the orbit base points of
  ``geometry_models``.  ``solve_rational`` wraps it for a general rational
  system, but nothing in the package calls it: it is kept for its tests and
  for the per-layer spans of ``perfbench/spans.py``, which name it;
* ``lattice_box_points`` -- the points of an affine lattice
  ``offset + span_Z(basis)`` inside the sup-norm box, enumerated from the
  HNF basis by back-substitution (Fincke-Pohst style bounds), which is how
  flow-annihilated Fourier modes are listed;
* ``lattice_box_norms`` -- the same descent with the branches that share
  their unsettled coordinates merged, counting those points per squared
  norm without listing one (a truncated theta series), which is how the
  spectrum is tabled; it refuses past the work and table limits its
  caller passes;
* ``det_int`` and ``char_poly`` -- exact determinants (Bareiss) and
  characteristic polynomials (Faddeev-LeVerrier) of integer matrices.

One elimination per kind of question: Hermite (lattices, rational solves),
Smith (congruences modulo one), Bareiss and Faddeev-LeVerrier.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InternalCheckFailed, ModeBoxTooLarge, TorsionTooLarge


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(rows):
    if not rows:
        return ()
    return freeze(zip(*rows))


def mat_mul(A, B):
    if not A:
        return ()
    cols = len(B[0]) if B else 0
    return freeze(
        [sum(a * B[k][j] for k, a in enumerate(row)) for j in range(cols)]
        for row in A
    )


def mat_vec(A, x):
    return tuple(sum(map(mul, row, x)) for row in A)


def vec_mat(x, A):
    if not A:
        return ()
    return tuple(sum(x[i] * A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def numerators(x):
    """Integer numerators of the rationals ``x`` (``int``s, taken as they
    are, or ``Fraction``s) over their least common denominator ``D``:
    ``x[i] == Fraction(ints[i], D)``."""
    D = 1
    for q in x:
        if type(q) is not int:
            D = math.lcm(D, q.denominator)
    return tuple(q * D if type(q) is int else q.numerator * (D // q.denominator)
                 for q in x), D


def _row_axpy(rows, i, j, q):
    ri, rj = rows[i], rows[j]
    for k in range(len(ri)):
        ri[k] -= q * rj[k]


def _col_axpy(rows, j, i, q):
    for row in rows:
        row[j] -= q * row[i]


def hnf_with_transform(M, ncols=None):
    """Row Hermite normal form ``H = U M`` with ``U`` unimodular.

    ``H`` is in row echelon form with strictly increasing pivot columns,
    positive pivots, entries above each pivot reduced into ``[0, pivot)``,
    and zero rows collected at the bottom.  This makes ``H`` a canonical
    basis of the row lattice of ``M``.
    """
    rows = [list(map(int, r)) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else (ncols or 0)
    U = identity_rows(m)
    r = 0
    for col in range(n):
        if r == m:
            break
        while True:
            piv = None
            best = None
            for i in range(r, m):
                a = rows[i][col]
                if a != 0 and (best is None or abs(a) < best):
                    piv, best = i, abs(a)
            if piv is None:
                break
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                U[r], U[piv] = U[piv], U[r]
            clean = True
            for i in range(r + 1, m):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r][col]
                    _row_axpy(rows, i, r, q)
                    _row_axpy(U, i, r, q)
                    if rows[i][col] != 0:
                        clean = False
            if clean:
                break
        if rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-a for a in rows[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = rows[i][col] // rows[r][col]
                if q:
                    _row_axpy(rows, i, r, q)
                    _row_axpy(U, i, r, q)
            r += 1
    return freeze(rows), freeze(U)


def hnf(M, ncols=None):
    """Canonical HNF basis of the row lattice of ``M`` (zero rows dropped)."""
    H, _ = hnf_with_transform(M, ncols=ncols)
    return tuple(row for row in H if any(row))


def integer_kernel(constraints, n=None):
    """HNF basis of ``{x in Z^n : C x = 0}`` for rational constraint rows C.

    The result is automatically a saturated lattice.  With no constraints the
    kernel is all of Z^n.  Each row is cleared of denominators on its own,
    which leaves the kernel unchanged.
    """
    rows = [numerators(row)[0] for row in constraints]
    if rows:
        n = len(rows[0])
    if n is None:
        raise ValueError("ambient dimension required when there are no constraints")
    if not rows:
        return freeze(identity_rows(n))
    H, U = hnf_with_transform(transpose(rows), ncols=len(rows))
    kernel = [U[i] for i in range(n) if not any(H[i])]
    return hnf(kernel, ncols=n) if kernel else ()


def lattice_box_points(basis, offset, cutoff):
    """Sorted points of ``offset + span_Z(basis)`` with sup-norm at most
    ``cutoff``.

    ``basis`` is an HNF basis (as returned by ``hnf`` or ``integer_kernel``)
    and ``offset`` an integer vector.  One coefficient is fixed per basis row,
    in pivot order: row ``i`` is the last to touch its pivot column, so the
    box bound on that coordinate gives the coefficient's range exactly, and
    the columns before the next pivot are final once it is chosen and are
    pruned there.  Each pivot coordinate grows with its coefficient and every
    other coordinate is settled by earlier choices, so the points come out in
    lexicographic order.
    """
    n = len(offset)
    pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
    settled = [range(p + 1, q) for p, q in zip(pivots, pivots[1:] + [n])]
    if any(abs(offset[j]) > cutoff for j in range(pivots[0] if pivots else n)):
        return ()
    out = []

    def descend(i, x):
        if i == len(basis):
            out.append(tuple(x))
            return
        row, p = basis[i], pivots[i]
        piv = row[p]
        for k in range(-((cutoff + x[p]) // piv), (cutoff - x[p]) // piv + 1):
            y = x[:p] + [a + k * b for a, b in zip(x[p:], row[p:])]
            if all(-cutoff <= y[j] <= cutoff for j in settled[i]):
                descend(i + 1, y)

    descend(0, list(offset))
    return tuple(out)


def lattice_box_norms(basis, offset, cutoff, max_updates=math.inf,
                      max_norms=math.inf):
    """Sorted ``(|x|^2, count)`` pairs over the points ``x`` of
    ``offset + span_Z(basis)`` with sup-norm at most ``cutoff``: the
    ``Counter`` of squared norms of ``lattice_box_points``, without listing
    a point.

    The descent is that of ``lattice_box_points``, but after basis row ``i``
    every branch with the same unsettled tail ``x[p_{i+1}:]`` is merged into
    one state holding ``{norm of the settled coordinates: count}``, since
    the rest of the descent reads only the tail.  A level makes one update
    per state, norm and coefficient, so it makes no more updates than the
    listing has child nodes there.  That number is known before the level
    runs; when the running total would pass ``max_updates``, or one state
    (the last is the returned table) would hold more than ``max_norms``
    norms, the count raises :class:`ModeBoxTooLarge` instead."""
    n = len(offset)
    pivots = [next(j for j, a in enumerate(row) if a) for row in basis]
    first = pivots[0] if pivots else n
    if any(abs(a) > cutoff for a in offset[:first]):
        return []
    states = {tuple(offset[first:]): {sum(a * a for a in offset[:first]): 1}}
    work = 0
    for row, p, q in zip(basis, pivots, pivots[1:] + [n]):
        piv, step, width = row[p], row[p:], q - p
        work += sum(len(norms) * ((cutoff - tail[0]) // piv
                                  + (cutoff + tail[0]) // piv + 1)
                    for tail, norms in states.items())
        if work > max_updates:
            raise ModeBoxTooLarge(
                f"cutoff {cutoff} needs at least {work} norm-count updates, "
                f"more than the {max_updates} allowed")
        merged = {}
        for tail, norms in states.items():
            for k in range(-((cutoff + tail[0]) // piv),
                           (cutoff - tail[0]) // piv + 1):
                y = [a + k * b for a, b in zip(tail, step)]
                head = y[:width]
                if any(abs(a) > cutoff for a in head):
                    continue
                add = sum(a * a for a in head)
                target = merged.setdefault(tuple(y[width:]), {})
                for norm, count in norms.items():
                    target[norm + add] = target.get(norm + add, 0) + count
                if len(target) > max_norms:
                    raise ModeBoxTooLarge(
                        f"cutoff {cutoff} gives more than {max_norms} "
                        f"distinct mode norms, the most that may be counted")
        states = merged
    return sorted(states.get((), {}).items())


def integer_solutions(C, b):
    """The integer solutions of ``C x = b`` (rational; ``C`` has a row) as
    ``(offset, kernel)``: ``offset + span_Z(kernel)``, ``kernel`` the HNF
    basis ``integer_kernel(C)``; ``None`` when there are none.  The first
    pivot of the HNF basis ``K`` of ``{(t, x) : C x = t b}`` is the gcd of
    the ``t`` it reaches, so a solution exists exactly when it is 1, at
    ``x = K[0][1:]``; the other rows of ``K`` vanish at ``t`` and, the HNF
    being canonical, are ``integer_kernel(C)``."""
    n = len(C[0])
    if not any(b):
        return (0,) * n, integer_kernel(C)
    K = integer_kernel([(-bi, *row) for row, bi in zip(C, b)])
    if not K or K[0][0] != 1:
        return None
    return K[0][1:], tuple(row[1:] for row in K[1:])


def snf_with_transforms(M):
    """Smith normal form ``D = S M T`` with unimodular ``S`` and ``T``.

    ``D`` is diagonal with nonnegative entries satisfying d1 | d2 | ... .
    """
    A = [list(map(int, r)) for r in M]
    m = len(A)
    n = len(A[0]) if m else 0
    S = identity_rows(m)
    T = identity_rows(n)
    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    piv, best = (i, j), abs(a)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            S[t], S[i0] = S[i0], S[t]
        if j0 != t:
            for row in A:
                row[t], row[j0] = row[j0], row[t]
            for row in T:
                row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    _row_axpy(A, i, t, q)
                    _row_axpy(S, i, t, q)
            if any(A[i][t] != 0 for i in range(t + 1, m)):
                i0 = min(
                    (i for i in range(t, m) if A[i][t] != 0),
                    key=lambda i: abs(A[i][t]),
                )
                if i0 != t:
                    A[t], A[i0] = A[i0], A[t]
                    S[t], S[i0] = S[i0], S[t]
                continue
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    _col_axpy(A, j, t, q)
                    _col_axpy(T, j, t, q)
            if any(A[t][j] != 0 for j in range(t + 1, n)):
                j0 = min(
                    (j for j in range(t, n) if A[t][j] != 0),
                    key=lambda j: abs(A[t][j]),
                )
                if j0 != t:
                    for row in A:
                        row[t], row[j0] = row[j0], row[t]
                    for row in T:
                        row[t], row[j0] = row[j0], row[t]
                continue
            break
        d = A[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _row_axpy(A, t, offender, -1)
            _row_axpy(S, t, offender, -1)
            continue
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-a for a in A[i]]
            S[i] = [-a for a in S[i]]
    return freeze(A), freeze(S), freeze(T)


#: the most torsion translates a congruence solution set will list
TORSION_LIMIT = 10**6


class CongruenceSolution:
    """Solution set of ``A t = b (mod 1)`` on the d-torus.

    The set is ``{p + r + u @ free : r in R, u in T^f}`` for a particular
    solution ``p`` and the torsion translates ``R``, where ``free`` has
    ``f`` integer rows spanning the tangent lattice of the connected part.
    ``R`` always contains the zero vector, so the solutions form ``torsion_count`` parallel translates of a
    ``f``-dimensional subtorus coset.  The count is the product of the
    nontrivial Smith diagonal entries and is known without listing anything.

    Everything is held as integer numerators over one denominator ``D``
    (``E * lcm(Smith entries)``, ``E`` the denominator of ``b``), a multiple
    of every Smith entry, so the translates (a torsor over the Smith group)
    are integer steps reduced with ``% D``: ``particular_numerators``,
    ``torsion_numerators`` and ``point_numerators`` read them, and nothing
    else does.  Listing refuses more than ``TORSION_LIMIT`` translates.
    """

    def __init__(self, particular, D, torsion_axes, T, free):
        self._particular = particular  # numerators over D, in [0, D)
        self._D = D
        self.free = free
        self._axes = torsion_axes      # (index, Smith entry > 1) pairs
        self._T = T

    @property
    def is_finite(self):
        return len(self.free) == 0

    @cached_property
    def torsion_count(self):
        return math.prod(di for _, di in self._axes)

    @property
    def count(self):
        return self.torsion_count if self.is_finite else math.inf

    def particular_numerators(self):
        """``(numerators, D)`` of the particular solution."""
        return self._particular, self._D

    @cached_property
    def _torsion(self):
        return self._translates((0,) * len(self._particular))

    def torsion_numerators(self):
        """``(reps, D)``: the torsion translates as numerators over ``D``,
        the zero vector first and the last Smith axis varying fastest."""
        return self._torsion, self._D

    def point_numerators(self):
        """``(points, D)``: the solutions of a finite set as numerators over
        ``D``, sorted, so in the lexicographic order of the solutions."""
        if not self.is_finite:
            raise ValueError("solution set is infinite")
        return sorted(self._translates(self._particular)), self._D

    def _translates(self, shift):
        """``shift + T u (mod D)`` for every torsion vector ``u``, the last
        Smith axis varying fastest; ``shift`` is over ``D``."""
        total = self.torsion_count
        if total > TORSION_LIMIT:
            raise TorsionTooLarge(
                f"a congruence system has {total} solution components, "
                f"more than the {TORSION_LIMIT} that can be listed")
        D = self._D
        reps = [tuple(shift)]
        for i, di in self._axes:
            step = [row[i] * (D // di) for row in self._T]
            reps = [tuple(a + j * s for a, s in zip(r, step))
                    for r in reps for j in range(di)]
        return [tuple(a % D for a in r) for r in reps]


class CongruenceSystem:
    """The left-hand side ``A`` of ``A t = b (mod 1)`` on the d-torus,
    factored once: its Smith form ``D = S A T`` and what follows from it
    alone (the torsion axes and the free directions).  :meth:`solve` then
    takes any right-hand side ``b``.

    ``A``: integer k x d matrix (rows).  The width ``d`` is read from ``A``;
    an empty system (``k = 0``) needs it passed and is solved by the whole
    torus."""

    def __init__(self, A, d=None):
        k = len(A)
        if k:
            d = len(A[0])
        elif d is None:
            raise ValueError("an empty system needs the torus dimension d")
        self.d = d
        if not k:
            self.S, self.T = (), identity_rows(d)
            self.diag, self.lcm, self.axes = (), 1, ()
            self.free = freeze(identity_rows(d))
            return
        Dg, self.S, self.T = snf_with_transforms(A)
        diag = self.diag = [Dg[i][i] if i < d else 0 for i in range(k)]
        self.lcm = math.lcm(*(di for di in diag if di))
        self.axes = tuple((i, diag[i]) for i in range(min(k, d)) if diag[i] > 1)
        self.free = freeze([tuple(row[i] for row in self.T)
                            for i in range(d) if i >= k or diag[i] == 0])

    def solve(self, b, E):
        """The solutions for the rationals ``b / E`` (integer numerators
        ``b``, length k, over any ``E > 0``): with ``c = S b``, unsolvable
        where a zero diagonal entry meets ``c_i % E != 0``, and ``t = T u``
        with ``u_i = c_i / (E d_i)`` otherwise, all in integer numerators
        over ``E * lcm(Smith entries)``.  Returns a
        :class:`CongruenceSolution`, or ``None`` when unsolvable."""
        if not self.diag:
            return CongruenceSolution((0,) * self.d, 1, [], self.T, self.free)
        c = mat_vec(self.S, b)
        if any(di == 0 and ci % E for di, ci in zip(self.diag, c)):
            return None
        D = E * self.lcm
        u = [0] * self.d
        for i, (di, ci) in enumerate(zip(self.diag, c)):
            if di:
                u[i] = ci * (D // (E * di))
        particular = tuple(a % D for a in mat_vec(self.T, u))
        return CongruenceSolution(particular, D, self.axes, self.T, self.free)


def solve_congruences(A, b, d=None):
    """Solve ``A t = b (mod 1)`` for ``t`` in the d-torus: one
    :class:`CongruenceSystem` (the Smith form of ``A``) solved once."""
    return CongruenceSystem(A, d).solve(*numerators(b))


def det_int(M):
    """Exact determinant of an integer matrix (Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, r)) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def char_poly(M):
    """Monic characteristic polynomial of an integer matrix.

    Returns coefficients ``(1, c1, ..., cn)`` of ``t^n + c1 t^(n-1) + ... + cn``
    (Faddeev-LeVerrier in integers: every intermediate matrix is integral, so
    each trace division is exact, which is checked).
    """
    n = len(M)
    A = [list(map(int, row)) for row in M]
    coeffs = [1]
    Mk = [row[:] for row in A]
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(Mk[i][i] for i in range(n)), k)
        if rem:
            raise InternalCheckFailed("a Faddeev-LeVerrier trace division is not exact")
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            Mk[i][i] += ck
        Mk = [
            [sum(A[i][l] * Mk[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return tuple(coeffs)


def deflate_root_one(coeffs):
    """Divide a monic integer polynomial by ``(t - 1)``; remainder must vanish."""
    out = []
    acc = 0
    for c in coeffs:
        acc += c
        out.append(acc)
    if out[-1] != 0:
        raise ValueError("1 is not a root")
    return tuple(out[:-1])


def echelon_solve(H, b):
    """The solution of ``H x = b`` with non-pivot coordinates zero, as
    ``(numerators, D)``, for an integer echelon basis ``H`` with no zero
    rows and a rational ``b``.  Back-substitution from the last row up, in
    integers over ``D = E |prod pivots|`` (``E`` the denominator of ``b``):
    by Cramer's rule on the triangular pivot block, ``D x`` is integral, so
    every division is exact."""
    b, E = numerators(b)
    pivots = [next(j for j, a in enumerate(row) if a) for row in H]
    D = E * abs(math.prod(row[p] for row, p in zip(H, pivots)))
    x = [0] * len(H[0])
    for row, p, bi in zip(reversed(H), reversed(pivots), reversed(b)):
        rest = sum(a * xj for a, xj in zip(row[p + 1:], x[p + 1:]))
        x[p] = (bi * (D // E) - rest) // row[p]
    return tuple(x), D


def solve_rational(A, b):
    """The canonical exact solution of ``A x = b`` over the rationals (free
    variables zero), or ``None`` when there is none.  The Hermite form of
    the rows ``(*A_i, b_i)``, cleared of denominators, has the pivot columns
    of the reduced row echelon form: a pivot in the right-hand column means
    no solution, and otherwise :func:`echelon_solve` gives it."""
    if not A:
        return ()
    n = len(A[0])
    H = hnf([numerators((*row, bi))[0] for row, bi in zip(A, b)])
    if not H:
        return (Fraction(0),) * n
    if not any(H[-1][:n]):
        return None
    x, D = echelon_solve([row[:n] for row in H], [row[n] for row in H])
    return tuple(Fraction(a, D) for a in x)


def lattice_coordinates(basis_rows, rows):
    """Integer coordinate rows ``Y`` with ``Y basis = rows``, or ``None`` when
    some row is not in the lattice.

    ``basis_rows`` is an integer basis of full row rank, not necessarily a
    Hermite one, and each of ``rows`` a rational vector.  With ``H = U
    basis`` (Hermite, computed once for all rows) one coefficient ``y_i`` of
    a row ``x`` is read per pivot, in integers over the denominator of
    ``x``; a pivot that does not divide, or a nonzero residual, means ``x``
    is not in the lattice.  Then ``x = (y U) basis``.
    """
    H, U = hnf_with_transform(basis_rows)
    out = []
    for x in rows:
        x, E = numerators(x)
        y = []
        for row in H:
            p = next(j for j, a in enumerate(row) if a)
            q, rem = divmod(x[p], E * row[p])
            if rem:
                return None
            y.append(q)
            x = [a - q * E * b for a, b in zip(x, row)]
        if any(x):
            return None
        out.append(vec_mat(y, U))
    return freeze(out)
