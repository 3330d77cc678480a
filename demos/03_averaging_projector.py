"""Two independent realizations of the group-averaging projector.

Averaging a section over the closure group projects it orthogonally onto
the flow-invariant part.  The spectral route keeps exactly the modes
annihilated by the flow (an exact symbolic filter); the quadrature route
integrates translated samples against the group's Haar quadrature and knows
nothing about modes.  They agree to quadrature accuracy, and a nontrivial
character dies exactly once the grid resolves its order.

Run:  python3 demos/03_averaging_projector.py
"""

from fractions import Fraction

import numpy as np

from equilef import BasicForm, FlatTorusModel, SymbolicFrequency
from equilef import average_modes, average_quadrature

print(__doc__)

model = FlatTorusModel(SymbolicFrequency(
    ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), ("alpha",)))
G = model.group

rng = np.random.default_rng(0)
coeffs = {((0, 0), ()): 1.0 + 0.5j}
for _ in range(5):
    m = tuple(int(x) for x in rng.integers(-3, 4, 2))
    coeffs[(m, ())] = complex(rng.normal(), rng.normal())
u = BasicForm(model, 0, coeffs)
print(f"random section with modes {sorted(m for m, _ in u.coeffs)}")

filtered = average_modes(u, G)
print(f"spectral filter keeps {len(filtered.coeffs)} mode(s) "
      f"(the flow-invariant ones)")

again = average_modes(filtered, G)
print(f"idempotence residual: "
      f"{again.plus(filtered, factor=-1.0).norm():.2e}")

points = [rng.random(2) for _ in range(5)]
quad = average_quadrature(u, G, 32, points)
worst = max(
    abs(vals.get((), 0.0) - filtered.value_components(p).get((), 0.0))
    for p, vals in zip(points, quad)
)
print(f"quadrature route (resolution 32) vs spectral filter: "
      f"worst deviation {worst:.2e}")

single = BasicForm(model, 0, {((3, 0), ()): 1.0})
for N in (3, 4):
    vals = average_quadrature(single, G, N, [np.array([0.11, 0.73])])
    note = "aliased by the grid" if N == 3 else "killed exactly"
    print(f"character (3, 0), grid {N}: quadrature average magnitude = "
          f"{abs(vals[0].get((), 0.0)):.2e}  ({note})")
