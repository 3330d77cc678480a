"""``Fraction`` readings of the exact points equilef returns as integer
numerators over a denominator, for tests whose oracles compare
``Fraction``s."""

from fractions import Fraction


def fractions(nums, D):
    """The point ``nums / D``."""
    return tuple(Fraction(a, D) for a in nums)


def mod1(x):
    """Each coordinate of ``x`` reduced into ``[0, 1)``."""
    return tuple(Fraction(q) % 1 for q in x)


def base_point(orbit):
    """A torus orbit's base point."""
    return fractions(orbit.point, orbit.point_den)


def g0_point(held):
    """The group correction an orbit contribution or certificate holds."""
    return fractions(*held.g0_numerators)


def components(isotropy):
    """One element of each component of an isotropy descriptor, in ambient
    coordinates, the identity first."""
    reps, D = isotropy.solution.torsion_numerators()
    return [fractions(isotropy.group.element_numerators(t, D), D)
            for t in reps]
