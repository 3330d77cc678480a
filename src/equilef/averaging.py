"""Averaging over the closure group: orthogonal projection onto the
flow-invariant sections.

Two deliberately independent realizations are provided.  The spectral filter
keeps exactly the Fourier modes annihilated by the flow (an exact symbolic
decision), which is idempotent and self-adjoint by construction.  The
quadrature route integrates the translated section against the Haar
quadrature of the group and never looks at mode arithmetic; it converges to
the filter as the resolution grows and kills any single nontrivial character
exactly once the grid resolves its order.  Their agreement is itself one of
the acceptance checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from . import basic_complex as bc
from . import torus_group as tg

#: random sections per ``averaging_report`` and the residual each may reach
REPORT_SECTIONS = 50
REPORT_TOLERANCE = 1e-10


def average_modes(u: bc.BasicForm, group: tg.SubtorusGroup) -> bc.BasicForm:
    """Spectral form of the averaging operator: retain exactly the modes
    annihilated by the flow (those orthogonal to the group's tangent rows),
    zero the rest.  Idempotent by construction."""
    tangent = group.complement_basis()
    coeffs = {
        (m, I): c for (m, I), c in u.coeffs.items()
        if all(sum(b * mi for b, mi in zip(row, m)) == 0 for row in tangent)
    }
    return bc.BasicForm(u.model, u.degree, coeffs, cutoff=u.cutoff, basic_flag=True)


def average_quadrature(u: bc.BasicForm, group: tg.SubtorusGroup, resolution: int,
                       points) -> list:
    """Quadrature form of the averaging operator, evaluated pointwise.

    For each sample point ``p`` returns the component dictionary of
    ``sum_g w_g u(p - g)`` over the Haar quadrature of the group (frame
    components are translation invariant on the flat torus, so averaging is
    componentwise)."""
    quad = tg.haar_quadrature(group, resolution)
    shifts = [np.array([float(x) for x in g]) for g, _ in quad]
    weights = [float(w) for _, w in quad]
    out = []
    for p in points:
        p = np.asarray(p, dtype=float)
        acc = {}
        for g, w in zip(shifts, weights):
            for I, val in u.value_components(p - g).items():
                acc[I] = acc.get(I, 0.0) + w * val
        out.append(acc)
    return out


def translate_form(u: bc.BasicForm, g) -> bc.BasicForm:
    """The section ``p -> u(p - g)``: mode ``m`` picks up the character
    ``exp(-2 pi i m . g)``."""
    g = tuple(Fraction(x) for x in g)
    coeffs = {
        (m, I): c * cmath.exp(-2j * math.pi * float(sum(Fraction(mi) * gi for mi, gi in zip(m, g))))
        for (m, I), c in u.coeffs.items()
    }
    return bc.BasicForm(u.model, u.degree, coeffs, cutoff=u.cutoff,
                        basic_flag=u.basic_flag)


def averaging_report(model, cutoff, rng):
    """Projector suite: idempotence, self-adjointness and flow-annihilation of
    the spectral filter on ``REPORT_SECTIONS`` random truncated sections.
    Returns the worst residuals and whether each is within
    ``REPORT_TOLERANCE`` (used by the command-line ``avcheck``)."""
    import itertools

    group = model.group
    quad = tg.haar_quadrature(group, 3)
    g = quad[min(1, len(quad) - 1)][0]  # a nonzero element when dim > 0
    worst = {"idempotent": 0.0, "self_adjoint": 0.0, "invariance": 0.0}
    n = model.n
    for _ in range(REPORT_SECTIONS):
        q = int(rng.integers(0, n))
        subsets = list(itertools.combinations(range(n - 1), q))
        coeffs = {}
        for _ in range(6):
            m = tuple(int(x) for x in rng.integers(-cutoff, cutoff + 1, n))
            I = subsets[int(rng.integers(0, len(subsets)))]
            coeffs[(m, I)] = complex(rng.normal(), rng.normal())
        u = bc.BasicForm(model, q, coeffs, cutoff=cutoff)
        w = bc.BasicForm(
            model, q,
            {(m, I): complex(rng.normal(), rng.normal()) for (m, I) in coeffs},
            cutoff=cutoff,
        )
        au = average_modes(u, group)
        worst["idempotent"] = max(
            worst["idempotent"],
            average_modes(au, group).plus(au, factor=-1.0).norm(),
        )
        lhs = bc.inner_product(au, w)
        rhs = bc.inner_product(u, average_modes(w, group))
        worst["self_adjoint"] = max(worst["self_adjoint"], abs(lhs - rhs))
        # all surviving modes are annihilated by the flow, exactly
        assert au.basic_flag
        diff = average_modes(translate_form(u, g), group).plus(
            translate_form(au, g), factor=-1.0)
        worst["invariance"] = max(worst["invariance"], diff.norm())
    worst["pass"] = all(v <= REPORT_TOLERANCE for k, v in worst.items()
                        if k != "pass")
    return worst
