"""Fourier-mode model of the horizontal de Rham complex on flat tori.

Sections are finite Fourier sums valued in exterior powers of the rank-(n-1)
bundle of covectors annihilating the flow.  Everything in sight is
block-diagonal over modes:

* the horizontal differential wedges mode ``m`` by ``2 pi i`` times the
  projection of ``m`` orthogonal to the flow, expressed in an orthonormal
  frame of that bundle;
* the flow derivative multiplies mode ``m`` by ``2 pi i (m . v) / |v|``;
* the second-order operator combining the horizontal Laplacian with minus
  the squared flow derivative acts as ``4 pi^2 |m|^2`` on every mode, which
  is strictly positive away from ``m = 0`` (the ellipticity witness).  Its
  spectrum within a cutoff is therefore one table of mode counts per exact
  norm class, times the fiber rank ``C(n-1, q)`` in degree ``q``
  (``basic_spectrum``).

Whether a mode is annihilated by the flow derivative (``m . v = 0``) is
decided exactly at the symbolic level; the frame itself is floating point.
The annihilated modes within a cutoff are not found by testing the
``(2c+1)^n`` modes of the box: they form the integer kernel of the flow's
constraint rows (an affine translate of it for twisted sections).  The heat
sweep lists that lattice's points in the box directly (``lattice_modes``);
the spectrum needs only how many lie on each norm, and ``basic_spectrum``
counts them without listing one (``_ratlin.lattice_box_norms``).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from . import _ratlin as rl
from .errors import (
    DegreeOverflow,
    GeneratorMismatch,
    InternalCheckFailed,
    ModeBoxTooLarge,
)
from .geometry_models import FlatTorusModel

PRUNE_TOL = 1e-14
#: most lattice modes one cutoff may list
MODE_BOX_LIMIT = 10**6
#: most norm-count updates one spectrum may make: ``MODE_BOX_LIMIT`` for
#: each of up to ten lattice rows, as many child nodes as a listable box
#: has per row in the largest dimension (``scenario_cli.MAX_DIM``)
NORM_UPDATE_LIMIT = 10 * MODE_BOX_LIMIT
#: most distinct norms one state of a spectrum count may hold, the last
#: state being the class table.  Negation pairs a listable box's at most
#: ``MODE_BOX_LIMIT`` nodes of a row: a state with tail ``t != 0`` has half
#: of them at most (its mirror ``-t`` as many), and the state with tail 0
#: holds ``x`` and ``-x`` under one norm, so no state of it holds more
NORM_CLASS_LIMIT = (MODE_BOX_LIMIT + 1) // 2


@dataclass(frozen=True)
class HStarFrame:
    """Orthonormal frame data at a flat torus model, as tuples of floats:
    the unit covector along the flow and ``n - 1`` rows spanning its
    orthogonal complement orthonormally."""

    theta: tuple
    basis: tuple


@lru_cache(maxsize=None)
def frame_for(model: FlatTorusModel) -> HStarFrame:
    """The unit flow covector ``theta = v / |v|`` and, as the basis, the rows
    other than ``k`` of the Householder reflection ``H = I - 2 u u^T / u^T u``
    with ``u = e_k + sign(theta_k) theta``, where ``|theta_k|`` is largest.
    ``H`` is symmetric and orthogonal and takes ``e_k`` to ``-sign(theta_k)
    theta``, so its other rows are orthonormal and annihilate ``theta``.
    ``u_k = 1 + |theta_k|`` is at least 1, so ``u`` never vanishes; a flow
    along an axis gives the other coordinate axes."""
    v = model.v.float_values()
    length = math.sqrt(sum(x * x for x in v))
    theta = tuple(x / length for x in v)
    k = max(range(model.n), key=lambda i: abs(theta[i]))
    sign = math.copysign(1.0, theta[k])
    u = [sign * t for t in theta]
    u[k] += 1.0
    scale = 2.0 / sum(x * x for x in u)
    basis = tuple(
        tuple((i == j) - scale * u[i] * u[j] for j in range(model.n))
        for i in range(model.n) if i != k)
    # frame sanity: theta pairs to 1 with the unit flow, basis annihilates it
    if not abs(sum(t * t for t in theta) - 1.0) < 1e-12:
        raise InternalCheckFailed("the flow covector is not a unit vector")
    if not all(abs(_pair(row, theta)) < 1e-12 for row in basis):
        raise InternalCheckFailed("the frame basis does not annihilate the flow")
    return HStarFrame(theta, basis)


def _pair(row, m):
    """The plain sum ``row . m`` in floats."""
    return sum(a * x for a, x in zip(row, m))


def is_basic_mode(model: FlatTorusModel, m) -> bool:
    """Exact decision of ``m . v = 0``."""
    return all(sum(a * mi for a, mi in zip(nums, m)) == 0
               for nums, _ in model.v.column_numerators)


def lattice_modes(model: FlatTorusModel, cutoff: int, weight=None, extra=()):
    """Modes with sup-norm at most ``cutoff`` whose ``m . v`` equals the
    symbolic ``weight`` (zero when ``None``) and which satisfy ``R m = 0``
    for the integer rows ``extra``, in lexicographic order.

    They form an affine lattice: the integer kernel of the flow's constraint
    rows stacked with ``extra``, translated by one integer solution of the
    weighted system, both read off one Hermite form.  Its points in the box
    are enumerated from the kernel's HNF basis; the box is never scanned.
    Empty when no integer mode carries the weight.  Raises
    :class:`ModeBoxTooLarge` before listing when the pivot ranges allow more
    than ``MODE_BOX_LIMIT`` points."""
    if weight is not None and weight.generator_labels != model.v.generator_labels:
        raise GeneratorMismatch("the weight must use the model's generators")
    flow = model.v.constraint_rows()
    sigma = (0,) * len(flow) if weight is None else weight.coeffs[0]
    solutions = rl.integer_solutions(flow + tuple(extra), sigma + (0,) * len(extra))
    if solutions is None:
        return ()
    offset, kernel = solutions
    # basis row i takes at most 2c // |pivot| + 1 coefficients
    bound = math.prod(2 * cutoff // abs(next(a for a in row if a)) + 1
                      for row in kernel)
    if bound > MODE_BOX_LIMIT:
        raise ModeBoxTooLarge(
            f"cutoff {cutoff} allows up to {bound} lattice modes, more than "
            f"the {MODE_BOX_LIMIT} that can be listed")
    return rl.lattice_box_points(kernel, offset, cutoff)


# the benchmark's traced runs read ``basic_modes.cache_info()``
@lru_cache(maxsize=None)
def basic_modes(model: FlatTorusModel, cutoff: int):
    """All modes with sup-norm at most ``cutoff`` annihilated by the flow, in
    lexicographic order: the relation lattice's points in the box.

    No command reaches it, since ``basic_spectrum`` counts norms without a
    listing; tests and demos list basic modes with it."""
    return lattice_modes(model, cutoff)


def norm_eigenvalue(norm: int) -> float:
    """Eigenvalue of the elliptic operator on a mode of integer norm
    ``|m|^2 = norm``: ``4 pi^2 |m|^2``."""
    return 4.0 * math.pi**2 * float(norm)


class BasicForm:
    """A finite Fourier section of the degree-q exterior bundle.

    ``coeffs`` maps ``(mode, frame index subset)`` to a complex coefficient;
    the modes present are the whole truncation, no cutoff is stored.
    Treated as immutable: operations return new forms.  ``basic_flag`` records
    (and, on construction, verifies) that every mode is annihilated by the
    flow derivative.
    """

    __slots__ = ("model", "degree", "coeffs", "basic_flag")

    def __init__(self, model, degree, coeffs, basic_flag=None):
        self.model = model
        self.degree = int(degree)
        clean = {}
        for (m, I), c in coeffs.items():
            if abs(c) <= PRUNE_TOL:
                continue
            m = tuple(int(x) for x in m)
            I = tuple(sorted(int(i) for i in I))
            if len(I) != self.degree:
                raise ValueError("index subset size must equal the degree")
            clean[(m, I)] = complex(c)
        self.coeffs = clean
        if basic_flag is None:
            basic_flag = all(is_basic_mode(model, m) for (m, _) in clean)
        elif basic_flag:
            for m, _ in clean:
                if not is_basic_mode(model, m):
                    raise ValueError(f"mode {m} is not annihilated by the flow")
        self.basic_flag = bool(basic_flag)

    def norm(self):
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def plus(self, other, factor=1.0):
        if other.degree != self.degree or other.model != self.model:
            raise ValueError("forms of different degrees or models do not add")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + factor * c
        return BasicForm(self.model, self.degree, out)

    def value_components(self, x):
        """Pointwise evaluation: frame-component values at ``x`` (a sequence
        of n angles in full turns)."""
        out = {}
        for (m, I), c in self.coeffs.items():
            phase = c * cmath.exp(2j * math.pi * float(_pair(m, x)))
            out[I] = out.get(I, 0.0) + phase
        return out

    def __repr__(self):
        return (f"BasicForm(degree={self.degree}, modes={len(self.coeffs)}, "
                f"basic={self.basic_flag})")


def zero_form(model, degree):
    return BasicForm(model, degree, {})


def inner_product(u: BasicForm, w: BasicForm) -> complex:
    """L^2 pairing; the frame is orthonormal and the density has unit mass,
    so this is the coefficient pairing."""
    if u.degree != w.degree:
        return 0.0
    total = 0.0
    for key, c in u.coeffs.items():
        d = w.coeffs.get(key)
        if d is not None:
            total += c * d.conjugate()
    return total


def _insert_index(I, k):
    pos = bisect_left(I, k)
    if pos < len(I) and I[pos] == k:
        return None, 0
    return I[:pos] + (k,) + I[pos:], (-1) ** pos


def _remove_index(I, k):
    pos = bisect_left(I, k)
    return I[:pos] + I[pos + 1:], (-1) ** pos


def apply_D(form: BasicForm) -> BasicForm:
    """The horizontal differential: wedge each mode by ``2 pi i`` times its
    projection orthogonal to the flow, in frame coordinates.  Squares to zero
    mode by mode."""
    model = form.model
    if form.degree > model.n - 2:
        raise DegreeOverflow(f"degree {form.degree} has no successor")
    frame = frame_for(model)
    out = {}
    for (m, I), c in form.coeffs.items():
        a = [_pair(row, m) for row in frame.basis]
        for k in range(model.n - 1):
            if a[k] == 0.0:
                continue
            newI, sign = _insert_index(I, k)
            if newI is None:
                continue
            key = (m, newI)
            out[key] = out.get(key, 0.0) + sign * 2j * math.pi * a[k] * c
    return BasicForm(model, form.degree + 1, out, basic_flag=form.basic_flag)


def apply_D_adjoint(form: BasicForm) -> BasicForm:
    """Formal adjoint of the horizontal differential (mode-wise interior
    product).  In degree zero this is the zero map."""
    model = form.model
    if form.degree == 0:
        return zero_form(model, 0)
    frame = frame_for(model)
    out = {}
    for (m, I), c in form.coeffs.items():
        a = [_pair(row, m) for row in frame.basis]
        for k in I:
            if a[k] == 0.0:
                continue
            newI, sign = _remove_index(I, k)
            key = (m, newI)
            out[key] = out.get(key, 0.0) - sign * 2j * math.pi * a[k] * c
    return BasicForm(model, form.degree - 1, out, basic_flag=form.basic_flag)


def apply_lie(form: BasicForm) -> BasicForm:
    """Derivative along the unit-speed flow: mode ``m`` is multiplied by
    ``2 pi i (m . v) / |v|``.  Exactly zero on basic forms."""
    if form.basic_flag:
        return zero_form(form.model, form.degree)
    theta = frame_for(form.model).theta
    out = {}
    for (m, I), c in form.coeffs.items():
        if is_basic_mode(form.model, m):
            continue
        out[(m, I)] = 2j * math.pi * _pair(m, theta) * c
    return BasicForm(form.model, form.degree, out)


def apply_P(form: BasicForm) -> BasicForm:
    """The elliptic operator: multiplication by ``4 pi^2 |m|^2`` on each mode
    (the horizontal Koszul identity plus the squared flow rate recombine into
    the full mode norm)."""
    out = {
        (m, I): norm_eigenvalue(sum(mi * mi for mi in m)) * c
        for (m, I), c in form.coeffs.items()
    }
    return BasicForm(form.model, form.degree, out, basic_flag=form.basic_flag)


def apply_P_composed(form: BasicForm) -> BasicForm:
    """The same operator assembled from its factors; used as the independent
    route when validating the diagonal formula."""
    top = form.degree > form.model.n - 2
    up = zero_form(form.model, form.degree) if top else apply_D_adjoint(apply_D(form))
    down = apply_D(apply_D_adjoint(form)) if form.degree > 0 else zero_form(form.model, form.degree)
    lie2 = apply_lie(apply_lie(form))
    return up.plus(down).plus(lie2, factor=-1.0)


def basic_spectrum(model: FlatTorusModel, cutoff: int):
    """Sorted ``(eigenvalue, mode count)`` table of the elliptic operator on
    the flow-annihilated modes within the truncation.

    The modes are the relation lattice's points in the box, and the table
    needs only how many lie on each integer norm ``|m|^2``, which
    ``_ratlin.lattice_box_norms`` counts without listing one (a truncated
    theta series).  Each norm class is evaluated once by ``norm_eigenvalue``
    and rounded to 12 places.  Distinct norms give eigenvalues at least
    ``4 pi^2`` apart, so these are exactly the classes of rounding each
    mode's eigenvalue.  In degree ``q`` every mode carries a fiber of rank
    ``C(n-1, q)``, so that degree's multiplicities are the counts times the
    binomial.  Raises :class:`ModeBoxTooLarge` before a lattice row whose
    updates would take the count past ``NORM_UPDATE_LIMIT``, and once one
    state would hold more than ``NORM_CLASS_LIMIT`` norms; a box the
    listing accepts stays within both, so it is counted, and the table is
    never longer than one the listing could give."""
    return [(round(norm_eigenvalue(norm), 12), count)
            for norm, count in rl.lattice_box_norms(
                model.base_lattice, (0,) * model.n, cutoff,
                NORM_UPDATE_LIMIT, NORM_CLASS_LIMIT)]
