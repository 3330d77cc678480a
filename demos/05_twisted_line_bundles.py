"""Flat line-bundle twists: when the lifted group outgrows the base group.

A flat line bundle with a declared rotation rate lifts the closure group: the
lift acts on sections with an extra fiber phase, and its elements over the
identity of the base form a finite (or positive-dimensional) kernel.  A
half-integer rate makes that kernel a two-element group whose fiber phases
cancel pairwise, so both sides of the formula vanish; an integer rate shifts
the harmonic mode instead, and a translation part of the map shows up as the
same root of unity on both sides.

Run:  python3 demos/05_twisted_line_bundles.py
"""

from fractions import Fraction

from equilef import (
    BundleTwist,
    FlatTorusModel,
    SymbolicFrequency,
    TorusMap,
    cohomology_action,
    lefschetz_rhs,
)
from equilef.endomorphism import harmonic_dimensions

print(__doc__)

# --- half-integer rate: cancellation through the kernel components ----------
model2 = FlatTorusModel(SymbolicFrequency(((Fraction(0),), (Fraction(1),))))
half = BundleTwist(SymbolicFrequency(((Fraction(1, 2),),)))
doubling = TorusMap(((2, 0), (0, 1)), (0, 0))
act = cohomology_action(model2, doubling, half)
rhs = lefschetz_rhs(model2, doubling, twist=half)
print("half-integer rate on the two-torus:")
print(f"   harmonic dimensions: {harmonic_dimensions(model2, half)}")
print(f"   harmonic side {act.lefschetz:+.3f},  localized side "
      f"{rhs.value.real:+.3f}  (kernel components cancel in pairs)")
contrib = rhs.contributions[0]
print(f"   isotropy preimage components: "
      f"{contrib.orbit.isotropy.component_count} downstairs, "
      f"phases averaged upstairs over {contrib.term.sheets} sheets")

# --- integer rate plus a translation: a root of unity on both sides ---------
model3 = FlatTorusModel(SymbolicFrequency(
    ((Fraction(0),), (Fraction(0),), (Fraction(1),))))
unit = BundleTwist(SymbolicFrequency(((Fraction(1),),)))
f = TorusMap(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, Fraction(1, 3)))
act = cohomology_action(model3, f, unit)
rhs = lefschetz_rhs(model3, f, twist=unit)
print("\ninteger rate on the circle factor, translation by 1/3:")
print(f"   harmonic mode carried by {act.harmonic_mode_vec}, "
      f"character phase {act.phase_turns} turns")
print(f"   harmonic side  {act.lefschetz:+.9f}")
print(f"   localized side {rhs.value:+.9f}")
assert abs(act.lefschetz - rhs.value) < 1e-12
