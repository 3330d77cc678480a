"""The horizontal complex on a flat torus, mode by mode.

Sections valued in exterior powers of the covectors annihilating the flow
form a complex once restricted to flow-invariant Fourier modes.  Everything
is diagonal over modes: the differential wedges by the projected mode, the
combined second-order operator multiplies by 4 pi^2 |m|^2, and the harmonic
sections are exactly the constant frame forms, binomially many per degree:
the kernel of the truncated operator does not grow with the truncation.

Run:  python3 demos/02_horizontal_complex.py
"""

import math
from fractions import Fraction

from equilef import (
    BasicForm,
    FlatTorusModel,
    SymbolicFrequency,
    apply_D,
    apply_P,
    basic_spectrum,
    harmonic_dimensions,
)
from equilef.basic_complex import apply_P_composed, basic_modes

print(__doc__)

model = FlatTorusModel(SymbolicFrequency(
    ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
     (Fraction(0), Fraction(1))), ("alpha",)))

print("flow direction (0, 1, alpha) on the three-torus")
print("flow-invariant modes up to sup-norm 2:", basic_modes(model, 2))

u = BasicForm(model, 0, {((1, 0, 0), ()): 1.0})
du = apply_D(u)
ddu = apply_D(du)
print(f"|D u| = {du.norm():.6f},  |D D u| = {ddu.norm():.2e}  (a complex)")

pu = apply_P(u)
comp = apply_P_composed(u)
lam = pu.coeffs[((1, 0, 0), ())].real
print(f"second-order operator on mode (1,0,0): {lam:.8f} "
      f"(= 4 pi^2 = {4 * math.pi ** 2:.8f})")
print(f"difference against the composed route: "
      f"{pu.plus(comp, factor=-1.0).norm():.2e}")

print("harmonic dimensions per degree:", harmonic_dimensions(model))
for q in range(3):
    kernel = [basic_spectrum(model, c)[0][1] * math.comb(model.n - 1, q)
              for c in (1, 2, 3)]
    print(f"kernel of the truncated operator in degree {q}: {kernel} "
          "at cutoffs (1, 2, 3)")

print("low spectrum in degree 0:")
for lam, mult in basic_spectrum(model, 3)[:4]:
    print(f"   eigenvalue {lam:14.6f}   multiplicity {mult}")
