"""Closures of linear flows as exact lattice arithmetic.

A linear flow on a torus winds densely inside a subtorus, and which subtorus
is a purely arithmetic question: the integer relation lattice of the
direction vector.  Declaring the irrational quantities as named generators
makes that computation exact, so closure groups can be compared, hashed and
integrated over without any floating point.

Run:  python3 demos/01_group_closures.py
"""

from fractions import Fraction

from equilef import SymbolicFrequency, closure_group, haar_quadrature
from equilef import (IsotropyDescriptor, SpherePoint, SubtorusGroup,
                     WeightedSphereModel, orbit_through)
from equilef.torus_group import sheet_count_rows

print(__doc__)

# --- a fully irrational direction on the two-torus --------------------------
v = SymbolicFrequency(
    ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), ("alpha",)
)
G = closure_group(v)
print(f"direction (1, alpha):  relation lattice {G.relation_lattice!r}, "
      f"closure dimension {G.dim}")

# --- a rational relation collapses one dimension ----------------------------
w = SymbolicFrequency(
    ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
     (Fraction(2), Fraction(0))), ("tau",)
)
G2 = closure_group(w)
print(f"direction (tau, 1, 2): relation lattice {G2.relation_lattice!r}, "
      f"closure dimension {G2.dim}")

# --- Haar quadrature: exact points and weights -------------------------------
pts = haar_quadrature(G2, 3)
print(f"Haar quadrature at resolution 3: {len(pts)} points, "
      f"each of weight {pts[0][1]}, total {sum(p[1] for p in pts)}")

# --- the weighted five-sphere: isotropy and the covering count ---------------
sphere = WeightedSphereModel(w)
pole = orbit_through(sphere, SpherePoint((0, 0, 1), (0, 0, 0)))
iso = pole.isotropy    # the closure elements whose third coordinate vanishes
print(f"orbit through (0,0,z3): dimension {pole.dim}, "
      f"isotropy pins coordinates {iso.coords}: "
      f"{iso.component_count} components of dimension {iso.dim}")
# one representative per component: the torsion translates of the isotropy's
# congruence solution, integer parameters over D, mapped into the group
reps, D = iso.solution.torsion_numerators()
print("  component representatives:", ", ".join(
    "(" + ", ".join(str(Fraction(a, D)) for a in iso.group.element_numerators(t, D)) + ")"
    for t in reps))
print("sheets of the covering by the subgroup (0,1,2):",
      sheet_count_rows(((0, 1, 2),), iso))
print("sheets of the covering by the subgroup (1,1,2):",
      sheet_count_rows(((1, 1, 2),), iso))

# --- winding presentations count sheets on the parametrizing circle ----------
free_circle = IsotropyDescriptor(SubtorusGroup(1), range(1))   # trivial isotropy
print("doubled-weight circle (parametrized with winding two):",
      sheet_count_rows(((2,),), free_circle))
