"""Equivariant maps, their action on the complex, and spectral traces.

On a flat torus an equivariant map is affine, ``x -> A x + c`` with an
integer matrix satisfying ``A v = v`` exactly at the symbolic level; on a
weighted sphere it is a diagonal phase rotation.  Pull-back acts mode by
mode (``m -> A^T m`` with a character phase from the translation part), and
because the flow direction is preserved, pulled-back frame covectors stay
inside the horizontal bundle: no projection correction is needed and the
cochain property holds exactly on flow-annihilated forms.

The induced map on harmonic representatives is a compression of the exterior
powers of ``A^T`` restricted to the horizontal subspace.  Its per-degree
traces are elementary symmetric functions of the spectrum of ``A`` with one
copy of the eigenvalue 1 removed, which this module computes exactly from
the integer characteristic polynomial.  They are cross-checked in integers
by restriction to the lattice of flow-annihilated modes, which ``A^T``
preserves: with its rows ``K`` and their Gram matrix ``G = K K^T``, the
deflated characteristic polynomial ``h`` satisfies ``h(x) det G =
det(x G - K A K^T) (x - 1)^(d - 1)``, ``d`` the closure dimension, with
Bareiss determinants at ``n`` integer points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _ratlin as rl
from . import basic_complex as bc
from .errors import (
    GeneratorMismatch,
    InternalCheckFailed,
    NotEquivariant,
)
from .geometry_models import FlatTorusModel, WeightedSphereModel
from .torus_group import SymbolicFrequency


@dataclass(frozen=True)
class TorusMap:
    """Affine self-map ``x -> A x + c`` of a flat torus; need not be
    invertible."""

    matrix: tuple
    translation: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", rl.freeze(
            tuple(tuple(int(a) for a in row) for row in self.matrix)))
        object.__setattr__(self, "translation", tuple(
            Fraction(x) % 1 for x in self.translation))

    @cached_property
    def _hash(self):
        return hash((self.matrix, self.translation))

    def __hash__(self):
        # a map keys the equivariance and base-map caches; its Fraction
        # translation is hashed once
        return self._hash

    @property
    def n(self):
        return len(self.matrix)

    def character(self, m):
        """Turns ``m . c`` by which the translation rotates mode ``m``
        (exact, not reduced modulo one)."""
        return sum(Fraction(mi) * t for mi, t in zip(m, self.translation))

    @cached_property
    def exterior_traces(self):
        """:func:`exact_exterior_traces` of the matrix, once per map."""
        return exact_exterior_traces(self.matrix)


@dataclass(frozen=True)
class SpherePhaseMap:
    """Diagonal map ``z_j -> exp(2 pi i phases_j) z_j`` with rational phase
    turns."""

    phases: tuple

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(
            Fraction(x) % 1 for x in self.phases))

    @property
    def k(self):
        return len(self.phases)


@dataclass(frozen=True)
class BundleTwist:
    """A flat line bundle twist: lifted rotation rate ``weight`` (in the same
    parameter as the flow) and a scalar fiber factor for the endomorphism."""

    weight: SymbolicFrequency
    phi_scalar: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.weight.ambient_dim != 1:
            raise ValueError("a line bundle twist carries a single weight entry")
        object.__setattr__(self, "phi_scalar", complex(self.phi_scalar))
        if not (abs(self.phi_scalar) < math.inf):
            raise ValueError("fiber scalar must be finite")


def _symbolic_str(row, labels):
    terms = []
    if row[0] != 0 or all(c == 0 for c in row):
        terms.append(str(row[0]))
    for c, label in zip(row[1:], labels):
        if c == 1:
            terms.append(label)
        elif c != 0:
            terms.append(f"{c}*{label}")
    return " + ".join(terms)


@dataclass(frozen=True)
class EquivarianceCertificate:
    """``cochain_on_basic`` holds identically for validated maps; whether the
    pull-back also intertwines the projected differential on sections that
    are not flow-annihilated is a separate fact (it requires the flow
    covector, not just the flow vector, to be preserved) and is reported
    independently as ``cochain_on_all``."""

    map_kind: str
    cochain_on_basic: bool = True
    cochain_on_all: bool = True
    detail: str = ""


def validate_equivariance(model, f) -> EquivarianceCertificate:
    """Check ``f`` commutes with the flow; exact and symbolic.

    On success the certificate also records that the pull-back is a cochain
    map on flow-annihilated forms, which holds identically in this model
    (pulled-back horizontal covectors are horizontal since the flow direction
    is preserved).  The type checks run on every call; the checks past them
    run once per (model, map)."""
    if isinstance(model, FlatTorusModel):
        if not isinstance(f, TorusMap):
            raise NotEquivariant("flat torus models take affine integer maps")
    elif isinstance(model, WeightedSphereModel):
        if not isinstance(f, SpherePhaseMap):
            raise NotEquivariant("weighted sphere models take diagonal phase maps")
    else:
        raise NotEquivariant(f"unsupported model {type(model).__name__}")
    return _certify_equivariance(model, f)


@lru_cache(maxsize=None)
def _certify_equivariance(model, f) -> EquivarianceCertificate:
    if isinstance(model, FlatTorusModel):
        if f.n != model.n or any(len(row) != model.n for row in f.matrix):
            raise NotEquivariant("matrix shape does not match the model")
        if len(f.translation) != model.n:
            raise NotEquivariant("translation length does not match the model")
        bad = _first_moved_coordinate(model.v, f.matrix)
        if bad is not None:
            Av = model.v.apply_integer_matrix(f.matrix)
            raise NotEquivariant(
                f"A v != v in coordinate {bad}: "
                f"{_symbolic_str(Av.coeffs[bad], model.v.generator_labels)} != "
                f"{_symbolic_str(model.v.coeffs[bad], model.v.generator_labels)}"
            )
        return EquivarianceCertificate(
            "torus_affine",
            cochain_on_all=_first_moved_coordinate(
                model.v, rl.transpose(f.matrix)) is None,
            detail="A v = v verified symbolically",
        )
    if f.k != model.k:
        raise NotEquivariant("phase vector length does not match the model")
    return EquivarianceCertificate(
        "sphere_phase",
        detail="diagonal phases commute with the weighted rotation",
    )


def _first_moved_coordinate(v: SymbolicFrequency, A):
    """The first coordinate in which ``A v`` and ``v`` differ, or ``None``
    when ``A v = v``: each coefficient column is compared as integer
    numerators over its common denominator."""
    moved = [i for nums, _ in v.column_numerators
             for i, (a, x) in enumerate(zip(rl.mat_vec(A, nums), nums)) if a != x]
    return min(moved, default=None)


def exact_exterior_traces(matrix):
    """Per-degree traces of the exterior powers of the horizontal restriction,
    as exact integers from the characteristic polynomial with one eigenvalue-1
    factor removed."""
    coeffs = rl.char_poly(matrix)
    h = rl.deflate_root_one(coeffs)
    return tuple((-1) ** q * h[q] for q in range(len(h)))


def _check_exterior_traces(model: FlatTorusModel, f: TorusMap):
    """Certify ``f.exterior_traces`` in integers, or raise
    :class:`InternalCheckFailed`.

    Since ``A v = v``, ``A^T`` maps the basic-mode lattice ``K`` (the
    relation lattice ``model.base_lattice``) into itself, ``K A = M K``,
    and acts trivially on the ``d`` flow directions, so the
    deflated characteristic polynomial ``h`` (``h_q = (-1)^q`` times the
    q-th trace) is ``chi_M(x) (x - 1)^(d - 1)``.  With ``G = K K^T``,
    ``chi_M(x) det G = det(x G - K A K^T)``, so M is never formed.  Both
    sides of ``h(x) det G = det(x G - K A K^T) (x - 1)^(d - 1)`` have degree
    ``n - 1``; agreeing at the ``n`` points ``x = 0, ..., n - 1`` they are
    equal."""
    n = model.n
    K = model.base_lattice
    G = [rl.mat_vec(K, k) for k in K]
    KAK = [rl.mat_vec(K, rl.vec_mat(k, f.matrix)) for k in K]
    det_G = rl.det_int(G)
    h = [(-1) ** q * e for q, e in enumerate(f.exterior_traces)]
    for x in range(n):
        h_x = 0
        for c in h:
            h_x = h_x * x + c
        det_x = rl.det_int([[x * g - s for g, s in zip(g_row, s_row)]
                            for g_row, s_row in zip(G, KAK)])
        if h_x * det_G != det_x * (x - 1) ** (n - len(K) - 1):
            raise InternalCheckFailed(
                "the exterior traces disagree with the basic-mode lattice")


def harmonic_mode(model: FlatTorusModel, twist: BundleTwist | None = None):
    """The mode carrying the harmonic space: the zero-eigenvalue point (the
    one parallel to the flow) of the lattice of modes with ``m . v`` equal to
    the twist weight that :func:`twisted_invariant_modes` enumerates.  It is
    zero untwisted or at weight zero.  A nonzero weight ``sigma`` needs a
    periodic flow, at any speed: its coefficient columns ``C`` have rank 1,
    so their integer kernel ``K`` has rank ``n - 1``, and the mode is the
    Hermite-form offset solving ``C m = sigma`` with ``K m = 0``.  ``None``
    when no integer mode does."""
    zero = (0,) * model.n
    if twist is None:
        return zero
    if twist.weight.generator_labels != model.v.generator_labels:
        raise GeneratorMismatch("twist weight must use the model's generators")
    sigma = twist.weight.coeffs[0]
    if not any(sigma):
        return zero
    kernel = model.base_lattice
    if len(kernel) != model.n - 1:
        return None
    solutions = rl.integer_solutions(model.v.constraint_rows() + kernel,
                                     sigma + (0,) * len(kernel))
    return None if solutions is None else solutions[0]


def twisted_invariant_modes(model: FlatTorusModel, cutoff: int,
                            twist: BundleTwist | None = None):
    """Modes of twisted sections annihilated by the flow derivative:
    ``m . v`` equals the twist weight, exactly.  Empty when no integer mode
    carries the weight."""
    if twist is None:
        return bc.basic_modes(model, cutoff)
    return bc.lattice_modes(model, cutoff, twist.weight)


def _fixed_modes(model: FlatTorusModel, f: TorusMap, cutoff: int,
                 twist: BundleTwist | None = None):
    """The modes a heat trace sums over: flow-annihilated (twisted) modes
    within ``cutoff`` that ``A^T`` fixes, i.e. that ``A^T - I`` kills."""
    n = model.n
    fixed_rows = tuple(
        tuple(f.matrix[j][i] - (i == j) for j in range(n)) for i in range(n))
    weight = twist.weight if twist is not None else None
    return bc.lattice_modes(model, cutoff, weight, fixed_rows)


@dataclass(frozen=True)
class CohomologyAction:
    """Induced action on harmonic representatives: the harmonic dimensions,
    exact per-degree traces, and the alternating-sum Lefschetz number."""

    dimensions: tuple              # of the harmonic space, one per degree
    traces: tuple                  # complex, one per degree
    trace_integers: tuple          # exact fiber traces (no phase factor)
    phase_turns: Fraction          # exact character phase of the harmonic mode
    harmonic_mode_vec: tuple | None
    lefschetz: complex
    lefschetz_exact: Fraction | None


def _dimensions(n, m0):
    """``binom(n-1, q)`` in each degree when the mode ``m0`` carries the
    harmonic space (the frame forms on that mode), zero when there is none."""
    return tuple(0 if m0 is None else math.comb(n - 1, q) for q in range(n))


def cohomology_action(model: FlatTorusModel, f: TorusMap,
                      twist: BundleTwist | None = None) -> CohomologyAction:
    """Compress the pull-back to the harmonic spaces and take the alternating
    trace.

    The harmonic spaces are carried by the one mode of :func:`harmonic_mode`
    (with the dimensions of :func:`harmonic_dimensions`).  The action is zero
    when there is none or ``A^T`` moves it; otherwise it is the exterior power
    of the horizontal restriction times the character phase of that mode (and
    the twist's fiber scalar).  The alternating sum telescopes to a
    determinant, so untwisted values are exact integers.  The exterior
    traces are certified by :func:`_check_exterior_traces` first; the phase
    factor is the only float work."""
    validate_equivariance(model, f)
    n = model.n
    m0 = harmonic_mode(model, twist)
    dims = _dimensions(n, m0)
    if m0 is None or rl.vec_mat(m0, f.matrix) != m0:
        return CohomologyAction(
            dimensions=dims,
            traces=tuple(0.0 for _ in range(n)),
            trace_integers=tuple(0 for _ in range(n)),
            phase_turns=Fraction(0),
            harmonic_mode_vec=m0,
            lefschetz=0.0,
            lefschetz_exact=Fraction(0),
        )
    _check_exterior_traces(model, f)
    ext = f.exterior_traces
    phase_turns = Fraction(f.character(m0)) % 1
    scalar = twist.phi_scalar if twist is not None else 1.0 + 0.0j
    factor = scalar * cmath.exp(2j * math.pi * float(phase_turns))
    alt = sum((-1) ** q * e for q, e in enumerate(ext))
    exact = Fraction(alt) if phase_turns == 0 and twist is None else None
    return CohomologyAction(
        dimensions=dims,
        traces=tuple(factor * e for e in ext),
        trace_integers=ext,
        phase_turns=phase_turns,
        harmonic_mode_vec=m0,
        lefschetz=factor * alt,
        lefschetz_exact=exact,
    )


def harmonic_dimensions(model: FlatTorusModel, twist: BundleTwist | None = None):
    """Dimension of the harmonic space in each degree: ``binom(n-1, q)``
    when :func:`harmonic_mode` finds a mode carrying it, zero in every
    degree otherwise.  The truncation cutoff plays no part: the carrying
    mode is fixed by the flow and the twist."""
    return _dimensions(model.n, harmonic_mode(model, twist))


def heat_damped_traces(model: FlatTorusModel, f: TorusMap, s: float,
                       cutoff: int, twist: BundleTwist | None = None):
    """Per-degree traces of the pull-back damped by the heat factor of the
    elliptic operator, restricted to flow-annihilated sections within the
    truncation.

    Only modes fixed by ``A^T`` contribute; their alternating sum over the
    degree telescopes mode by mode, so the result is independent of ``s``
    up to the truncation.  Those modes are enumerated directly, as the
    lattice cut out by the flow constraints stacked with ``A^T - I`` (its
    translate by the twist weight for twisted sections).  The fiber traces
    are the exact integers of :func:`exact_exterior_traces`."""
    return _heat_sweep(model, f, (s,), cutoff, twist)[0]


def _heat_sweep(model, f, s_values, cutoff, twist):
    """:func:`heat_damped_traces` for each ``s`` in turn: the fixed-mode
    diagnostic.  Each fixed mode contributes its phase and damping times the
    same cached ``f.exterior_traces`` that the ``lhs`` reads, so the sweep
    checks the set of fixed modes and the truncation, not the fiber traces;
    ``verify`` reports it without gating on it.  The equivariance check, the
    fiber traces, the fixed modes and their phases and eigenvalues do not
    depend on ``s`` and are computed once; each ``s`` only applies its
    damping.  The flow component ``t_along = m . theta`` of a mode is a plain
    float sum."""
    if any(s <= 0 for s in s_values):
        raise ValueError("the damping parameter must be positive")
    if not s_values:
        return []
    validate_equivariance(model, f)
    n = model.n
    fiber_traces = f.exterior_traces
    scalar = twist.phi_scalar if twist is not None else 1.0 + 0.0j
    theta = bc.frame_for(model).theta
    modes = []
    for m in _fixed_modes(model, f, cutoff, twist):
        phase = cmath.exp(2j * math.pi * float(f.character(m)))
        t_along = bc._pair(m, theta)
        lam = 4.0 * math.pi**2 * (float(sum(x * x for x in m)) - t_along**2)
        modes.append((phase, max(lam, 0.0)))
    sweep = []
    for s in s_values:
        out = [0.0 + 0.0j] * n
        for phase, lam in modes:
            damp = math.exp(-s * lam)
            for q in range(n):
                out[q] += scalar * phase * fiber_traces[q] * damp
        sweep.append(tuple(out))
    return sweep


def alternating_heat_traces(model, f, s_values, cutoff, twist=None) -> list:
    """Alternating sums of :func:`heat_damped_traces`, one per ``s``, with
    the ``s``-independent mode data computed once for the whole list.  This
    is the fixed-mode diagnostic of :func:`_heat_sweep`: the alternating sum
    of ``f.exterior_traces`` (the ``lhs`` value's fiber factor) times the
    damped phase sum over the fixed modes, not an independent route to the
    Lefschetz number."""
    return [sum((-1) ** q * t for q, t in enumerate(traces))
            for traces in _heat_sweep(model, f, tuple(s_values), cutoff, twist)]
