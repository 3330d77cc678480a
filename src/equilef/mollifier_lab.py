"""Desk-scale smoothing-kernel experiments for scalar two-torus scenarios.

A sharpness-``k`` approximation of the pull-back kernel is a bump of width
``radius / k`` concentrated on the graph of the map, normalized so that its
fiber integral is one.  Composing with the averaging operator and restricting
to the diagonal turns the trace pairing into the double integral

    integral over (p, g) of  k^n * chi(k * gamma(p, a_g(p))) * c

with ``gamma(p, p') = p' - f(p)`` reduced to the centered fundamental domain
(the exponential-map geometry degenerates to flat differences on tori).  As
``k`` grows the value converges to the closed-form fixed-orbit sum, which the
fixed-point module supplies as the oracle; non-transverse scenarios are
refused before any quadrature is attempted.

Everything here is tensor quadrature summed by ``math.fsum``, which rounds
the exact sum once, so a value does not depend on the order of the cells.
The bump is evaluated only on the cells that can lie inside its support;
every other cell would add an exact zero, so each value equals the
correctly rounded sum over the full tensor grid bit for bit, while the cell
budget and the resolution check still count the full tensor grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import fixed_point_formula as fpf
from .endomorphism import TorusMap, validate_equivariance
from .errors import GridTooCoarse, GridTooFine
from .geometry_models import FlatTorusModel

MIN_CELLS_PER_BUMP = 4
# sharpness 64 resolves to grid 4096; the 4096^2 budget caps the tensor
# cells, and with them the group and active point sets and the candidate
# cells, none of which outnumbers the cells
MAX_SHARPNESS = 64
MAX_GRID = 4096
MAX_CELLS = MAX_GRID**2
#: radial samples of the bump's normalization integral
NORMALIZATION_POINTS = 4001
#: largest final error a converged sharpness sweep may have
CONVERGENCE_TOLERANCE = 0.05


def _bump(u):
    """Smooth compactly supported profile on (-1, 1), equal to 1 at 0."""
    import numpy as np

    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    w = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    return out


@dataclass(frozen=True)
class MollifierConfig:
    """Sharpness, bump radius and sampling resolutions for one experiment.

    ``grid`` is the number of sample points per active torus direction and
    per group direction; when omitted it scales with the sharpness so the
    bump stays resolved by a constant number of cells."""

    k: int
    radius: float = 0.3
    grid: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("sharpness must be a positive integer")
        if not (0 < self.radius < 0.5):
            raise ValueError("bump radius must lie in (0, 1/2)")

    def resolved_grid(self):
        # bump support is resolved by ~ radius * k^{1/2} cells, so the
        # quadrature error shrinks as the sharpness grows
        if self.grid is not None:
            return int(self.grid)
        return 2 * math.ceil(4.0 * self.k**1.5)

    def normalization(self):
        """Constant making the fiber integral of the bump equal one, with the
        quadrature residual used to compute it."""
        return _normalization(self.radius)


@functools.lru_cache
def _normalization(radius):
    import numpy as np

    rho = np.linspace(0.0, radius, NORMALIZATION_POINTS)
    vals = _bump(rho / radius) * rho
    integral = 2.0 * math.pi * float(np.trapezoid(vals, rho))
    coarse = 2.0 * math.pi * float(np.trapezoid(vals[::2], rho[::2]))
    c = 1.0 / integral
    return c, abs(integral - coarse) * c


@dataclass(frozen=True)
class PairingResult:
    value: float
    grid: int


def _near_integer(x, half):
    """Mask of the entries of the fresh array ``x`` within ``half`` of an
    integer; ``x`` is overwritten."""
    import numpy as np

    x -= np.round(x)
    return np.abs(x, out=x) <= half


def _candidate_pairs(small, large, half):
    """Index pairs ``(i, j)`` such that, in one coordinate, ``small[i] +
    large[j]`` lies within ``half`` of an integer: the coordinate that leaves
    the fewest pairs.  ``large`` is sorted by that coordinate modulo one and
    each point of ``small`` takes the window of its keys; a single point
    scans ``large`` instead of sorting it, keeping the points near in every
    coordinate.  Each pair is listed at most once, so a sum over the pairs
    counts each cell at most once."""
    import numpy as np

    n = large.shape[1]
    if len(small) == 1:
        j = np.flatnonzero(_near_integer(large[:, 0] + small[0, 0], half))
        for c in range(1, n):
            j = j[_near_integer(large[j, c] + small[0, c], half)]
        return np.zeros_like(j), j
    centers = -small % 1.0
    best = None
    for c in range(n):
        keys = large[:, c] % 1.0
        order = np.argsort(keys)
        ring = keys[order]
        # a copy of the circle on either side makes every window one run
        ring = np.concatenate((ring - 1.0, ring, ring + 1.0))
        start = np.searchsorted(ring, centers[:, c] - half, "left")
        counts = np.searchsorted(ring, centers[:, c] + half, "right") - start
        # a window of a turn or more (half >= 1/2, give or take rounding)
        # takes every key once: len(keys) consecutive ring places hold each
        # key exactly once, and fewer hold none twice
        counts = np.minimum(counts, len(keys))
        if best is None or counts.sum() < best[2].sum():
            best = (order, start, counts)
    order, start, counts = best
    rows = np.repeat(np.arange(len(small)), counts)
    pos = np.arange(len(rows)) + np.repeat(start - np.cumsum(counts) + counts,
                                           counts)
    return rows, order[pos % len(order)]


def _pairing_sum(model, f, config, grid):
    """Tensor-quadrature value of the diagonal pairing at one resolution.
    The grid is checked against the cell budget and the bump support before
    the bump is normalized, so a radius too small to resolve ends in
    ``GridTooCoarse``, not in a vanishing normalization integral.  Both
    checks count the full tensor grid, but the bump is evaluated only on the
    cells that can lie inside its support, each once.  Every other cell
    would add an exact zero, and ``math.fsum`` rounds the exact sum once, so
    the value is the correctly rounded sum over the full tensor grid bit for
    bit."""
    import numpy as np

    n = model.n
    k, radius = config.k, config.radius
    M = np.eye(n) - np.array(f.matrix, dtype=float)
    # torus directions the kernel actually depends on
    active = [j for j in range(n) if np.any(M[:, j] != 0.0)]
    d = model.group.dim
    cells = grid ** (d + len(active))
    if cells > MAX_CELLS:
        raise GridTooFine(f"grid {grid} needs {cells} quadrature cells, "
                          f"more than the budget of {MAX_CELLS}")
    c_vec = np.array([float(x) for x in f.translation])
    B = np.array(
        [[float(x) for x in row] for row in model.group.complement_basis()]
    )
    support = radius / k
    if 2.0 * support * grid < MIN_CELLS_PER_BUMP:
        raise GridTooCoarse(
            f"bump support {2 * support:.3e} spans fewer than "
            f"{MIN_CELLS_PER_BUMP} cells at grid {grid}"
        )
    axis = np.arange(grid) / grid

    # a nonzero flow has a closure of dimension d >= 1
    combos = np.stack(
        np.meshgrid(*([axis] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    base = combos @ B - c_vec  # gamma at p = 0, per group point

    p_cols = np.zeros((1, n)) if not active else np.stack(
        np.meshgrid(*([axis] * len(active)), indexing="ij"), axis=-1
    ).reshape(-1, len(active)) @ M[:, active].T

    c_norm, _ = config.normalization()
    scale = (k**n) * c_norm / cells

    # The bump vanishes unless |gamma| < support.  A cell left out has a
    # coordinate of gamma farther than ``half`` from an integer as measured
    # on the window keys, which lose a few ulps of ``bound`` (no coordinate
    # of base or p_cols is larger) to rounding; the eps term pays for them,
    # so the cell's computed |gamma| exceeds support * (1 + 1e-9).  That
    # relative margin is far above the rounding of dist / support, so the
    # quotient is at least 1 and the dense sum has an exact 0 there too
    # (the bump underflows to 0.0 past dist / support = 0.9994 anyway).
    # GridTooCoarse keeps support >= 2 / grid >= 4.9e-4 at grid <= 4096, so
    # for small coefficients the relative margin alone would do.
    bound = np.abs(np.concatenate((B, M, [c_vec]))).sum()
    half = support * (1.0 + 1e-9) + 16.0 * np.finfo(float).eps * (1.0 + bound)
    if len(base) <= len(p_cols):
        g_idx, p_idx = _candidate_pairs(base, p_cols, half)
    else:
        p_idx, g_idx = _candidate_pairs(p_cols, base, half)
    # the dense quadrature's float expressions, on the candidate cells only
    gamma = base[g_idx] + p_cols[p_idx]
    gamma -= np.round(gamma)
    dist = np.sqrt(np.sum(gamma * gamma, axis=-1))
    # each cell at most once, and fsum is correctly rounded in any order
    return scale * math.fsum(_bump(dist / support).tolist())


def kernel_pairing(model: FlatTorusModel, f: TorusMap,
                   config: MollifierConfig) -> PairingResult:
    """Evaluate the diagonal trace pairing of the smoothed averaged pull-back
    kernel against the identity section, by tensor quadrature at the
    configured grid."""
    if model.n != 2:
        raise ValueError("the lab runs scalar experiments on two-tori only")
    validate_equivariance(model, f)
    grid = config.resolved_grid()
    value = _pairing_sum(model, f, config, grid)
    return PairingResult(value=value, grid=grid)


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    value: float
    abs_error: float
    grid: int


@dataclass(frozen=True)
class ConvergenceStudy:
    oracle: float
    rows: tuple
    converged: bool
    tolerance: float

    def csv(self):
        lines = ["k,value,abs_error,grid"]
        for row in self.rows:
            lines.append(
                f"{row.k},{row.value:.12g},{row.abs_error:.12g},{row.grid}"
            )
        return "\n".join(lines) + "\n"


def convergence_study(model: FlatTorusModel, f: TorusMap, k_list,
                      radius=0.3, grid=None) -> ConvergenceStudy:
    """Sweep the sharpness and compare against the closed-form fixed-orbit
    value.

    Transversality is checked first; non-transverse scenarios raise before
    any quadrature runs.  The study is flagged converged when the final
    sharpness attains the smallest error of the sweep and that error is
    within ``CONVERGENCE_TOLERANCE``; the raw errors need not decrease
    monotonically."""
    oracle = fpf.theorem_c_scalar_value(model, f)
    rows = []
    for k in sorted(k_list):
        config = MollifierConfig(k=k, radius=radius, grid=grid)
        result = kernel_pairing(model, f, config)
        rows.append(ConvergenceRow(
            k=k,
            value=result.value,
            abs_error=abs(result.value - oracle),
            grid=result.grid,
        ))
    errors = [r.abs_error for r in rows]
    converged = (
        len(rows) > 0
        and errors[-1] <= CONVERGENCE_TOLERANCE
        and errors[-1] <= min(errors) + 1e-15
    )
    return ConvergenceStudy(
        oracle=oracle,
        rows=tuple(rows),
        converged=converged,
        tolerance=CONVERGENCE_TOLERANCE,
    )
