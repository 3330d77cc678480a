"""Averaging over the closure group: orthogonal projection onto the
flow-invariant sections.

Two deliberately independent realizations are provided.  The spectral filter
keeps exactly the Fourier modes annihilated by the group's tangent rows, an
exact integer decision made by ``averaging_mask``; it is idempotent and
self-adjoint by construction.  The quadrature route integrates the
translated section against the Haar quadrature of the group and never looks
at mode arithmetic; it converges to the filter as the resolution grows and
kills any single nontrivial character exactly once the grid resolves its
order.  Their agreement is acceptance criterion 5
(``tests/test_acceptance.py``).  ``averaging_report``, the command-line
``avcheck``, checks the filter's own identities and that every mode it keeps
is annihilated by the flow.
"""

from __future__ import annotations

import math
from . import basic_complex as bc
from . import torus_group as tg

#: random sections per ``averaging_report``, terms drawn per section, and
#: the residual each may reach
REPORT_SECTIONS = 50
REPORT_TERMS = 6
REPORT_TOLERANCE = 1e-10


def _exact_products(modes, rows):
    """The integer products ``modes @ rows.T`` over the last axis: in int64
    when no sum can overflow it, in Python integers otherwise."""
    import numpy as np

    modes = np.asarray(modes)
    rows = np.array(rows, dtype=object).reshape(-1, modes.shape[-1])
    bound = (max(int(np.abs(modes).max(initial=0)), 1) * modes.shape[-1]
             * max(map(abs, rows.flat), default=0))
    dtype = np.int64 if bound < 2**63 else object
    return modes.astype(dtype) @ rows.astype(dtype).T


def averaging_mask(group: tg.SubtorusGroup, modes):
    """Whether averaging over ``group`` keeps each integer mode (the last
    axis of ``modes``): exactly when the group's tangent rows annihilate it,
    ``modes @ complement_basis()ᵀ == 0``."""
    import numpy as np

    return np.all(_exact_products(modes, group.complement_basis()) == 0, axis=-1)


def average_modes(u: bc.BasicForm, group: tg.SubtorusGroup) -> bc.BasicForm:
    """Spectral form of the averaging operator: retain exactly the modes
    ``averaging_mask`` keeps, zero the rest.  Idempotent by construction."""
    import numpy as np

    keys = list(u.coeffs)
    modes = np.array([m for m, _ in keys], dtype=object).reshape(-1, u.model.n)
    keep = averaging_mask(group, modes)
    coeffs = {key: u.coeffs[key] for key, kept in zip(keys, keep) if kept}
    return bc.BasicForm(u.model, u.degree, coeffs, basic_flag=True)


def average_quadrature(u: bc.BasicForm, group: tg.SubtorusGroup, resolution: int,
                       points) -> list:
    """Quadrature form of the averaging operator, evaluated pointwise.

    For each sample point ``p`` returns the component dictionary of
    ``sum_g w_g u(p - g)`` over the Haar quadrature of the group (frame
    components are translation invariant on the flat torus, so averaging is
    componentwise)."""
    import numpy as np

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


def _worst_norm(diff):
    """The largest per-section coefficient norm of ``diff``."""
    import numpy as np

    return float(np.sqrt((np.abs(diff) ** 2).sum(axis=1)).max())


def averaging_report(model, cutoff, rng):
    """Projector suite on ``REPORT_SECTIONS`` random truncated sections, as
    one array pass (used by the command-line ``avcheck``).

    Each section has a uniform degree ``q`` and ``REPORT_TERMS`` terms: a
    uniform mode in ``[-cutoff, cutoff]^n``, a uniform frame subset of size
    ``q`` and a standard complex normal coefficient, with a second such
    coefficient for the partner section ``w``.  All of it comes from a fixed
    number of generator calls.  A later term with the same (mode, subset)
    overwrites an earlier one, and coefficients within ``PRUNE_TOL`` of zero
    are dropped, as ``BasicForm`` does.

    ``averaging_mask`` filters every drawn mode at once.  The worst residuals
    over the sections of idempotence ``|P P u - P u|``, self-adjointness
    ``|<P u, w> - <u, P w>|`` and commuting with the translation by the group
    point ``g = haar_quadrature(group, 3)[1]`` are computed, not asserted;
    the characters of ``g`` come from its integer numerators over 3.  Every
    kept mode is also checked against the flow's own
    constraint rows, independently of the group; ``unannihilated`` counts
    the kept modes that fail.  ``pass`` holds when every residual is within
    ``REPORT_TOLERANCE`` and ``unannihilated`` is zero."""
    import numpy as np

    n = model.n
    group = model.group
    shape = (REPORT_SECTIONS, REPORT_TERMS)
    degrees = rng.integers(0, n, REPORT_SECTIONS)
    modes = rng.integers(-cutoff, cutoff + 1, (*shape, n))
    subset_counts = np.array([math.comb(n - 1, q) for q in range(n)])
    subsets = rng.integers(0, subset_counts[degrees][:, None], shape)
    parts = rng.normal(size=(2, *shape, 2))
    u, w = parts[..., 0] + 1j * parts[..., 1]

    same = ((modes[:, :, None] == modes[:, None]).all(axis=-1)
            & (subsets[:, :, None] == subsets[:, None]))
    overwritten = np.triu(same, k=1).any(axis=-1)
    u = np.where(overwritten | (np.abs(u) <= bc.PRUNE_TOL), 0.0, u)
    w = np.where(overwritten | (np.abs(w) <= bc.PRUNE_TOL), 0.0, w)

    keep = averaging_mask(group, modes)
    pu, pw = keep * u, keep * w

    t = [0] * group.dim
    if t:
        t[-1] = 1
    g_num = group.element_numerators(t, 3)
    turns = (_exact_products(modes, [g_num])[..., 0] % 3).astype(float) / 3
    chi = np.exp(-2j * math.pi * turns)

    flow_rows = [nums for nums, _ in model.v.column_numerators]
    flow = np.all(_exact_products(modes, flow_rows) == 0, axis=-1)
    unannihilated = int(np.count_nonzero((keep != 0) & ~flow))
    worst = {
        "idempotent": _worst_norm(keep * pu - pu),
        "self_adjoint": float(np.abs((pu * w.conj()).sum(axis=1)
                                     - (u * pw.conj()).sum(axis=1)).max()),
        "invariance": _worst_norm(keep * (chi * u) - chi * pu),
    }
    worst["pass"] = unannihilated == 0 and all(
        v <= REPORT_TOLERANCE for v in worst.values())
    worst["unannihilated"] = unannihilated
    return worst
