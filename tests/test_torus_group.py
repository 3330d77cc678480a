"""Closure groups, Haar quadrature, isotropy preimages, sheet counts."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl
from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import torus_group as tg
from equilef.endomorphism import BundleTwist, SpherePhaseMap
from equilef.errors import (GeneratorMismatch, InfiniteFixedSet, NonTransverse,
                            NotTransversal)
from exact_points import components, fractions, mod1


def contains(group, point):
    """Whether the rational ``point`` lies in ``group``, tested on its
    numerators."""
    return group.contains_numerators(*rl.numerators(point))


def element_with(group, coords, values):
    """The element of ``group`` that ``parameters_with`` picks, as
    ``(numerators, D)``, or ``None`` when no element has the values."""
    sol = group.parameters_with(coords, values)
    if sol is None:
        return None
    t, D = sol.particular_numerators()
    return group.element_numerators(t, D), D


def sym(entries, labels=()):
    """entries: per-coordinate (rational, *generator coefficients)."""
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return tg.SymbolicFrequency(rows, labels)


def symbolic_dot(v, m):
    """The vector ``m . v`` as exact components over (1, alpha_1, ...)."""
    return tuple(
        sum(Fraction(mi) * row[j] for mi, row in zip(m, v.coeffs))
        for j in range(1 + v.generator_count)
    )


def brute_force_kernel(v, bound=3):
    """All integer vectors in a box that are symbolically orthogonal to v."""
    n = v.ambient_dim
    hits = []
    for m in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(m) and not any(symbolic_dot(v, m)):
            hits.append(m)
    return hits


def test_relation_lattice_irrational_t2():
    v = sym([(1, 0), (0, 1)], ("alpha",))
    lat = tg.relation_lattice(v)
    assert lat == ()
    assert tg.SubtorusGroup(2, lat).dim == 2
    assert brute_force_kernel(v) == []


def test_relation_lattice_t3_partial():
    v = sym([(0, 0), (1, 0), (0, 1)], ("alpha",))
    lat = tg.relation_lattice(v)
    assert lat == ((1, 0, 0),)
    assert tg.SubtorusGroup(3, lat).dim == 2


def test_relation_lattice_sphere_weights():
    # weights (tau, 1, 2): the closure is two-dimensional
    v = sym([(0, 1), (1, 0), (2, 0)], ("tau",))
    lat = tg.relation_lattice(v)
    assert tg.SubtorusGroup(3, lat).dim == 2
    # the lattice is spanned by (0, -2, 1) up to sign convention
    assert len(lat) == 1
    assert rl.hnf([(0, -2, 1)]) == lat
    # brute-force oracle agrees
    for m in brute_force_kernel(v):
        assert rl.lattice_coordinates(lat, [m]) is not None


def test_relation_lattice_rank_dimension_split():
    cases = [
        sym([(1, 0), (0, 1)], ("alpha",)),
        sym([(0, 0), (1, 0), (0, 1)], ("alpha",)),
        sym([(0,), (0,), (1,)]),
        sym([(1,), (2,), (3,)]),
    ]
    for v in cases:
        lat = tg.relation_lattice(v)
        assert len(lat) + tg.SubtorusGroup(v.ambient_dim, lat).dim == v.ambient_dim


def test_relation_lattice_recanonicalization_idempotent():
    v = sym([(1,), (2,), (4,)])
    lat = tg.relation_lattice(v)
    assert rl.hnf(lat, ncols=3) == lat


def test_relation_lattice_rows_primitive():
    cases = [
        sym([(1,), (2,), (4,)]),
        sym([(0, 1), (1, 0), (2, 0)], ("tau",)),
        sym([(2,), (4,)]),
    ]
    for v in cases:
        for row in tg.relation_lattice(v):
            assert math.gcd(*(abs(x) for x in row)) == 1


def test_closure_group_trivial_lift():
    v = sym([(0,), (1,)])
    G = tg.closure_group(v)
    assert G == tg.SubtorusGroup(2, tg.relation_lattice(v))
    assert G.dim == 1


def test_closure_group_s5_lift_dimension():
    # weights (tau,1,2), bundle weights three more independent generators:
    # the lift is a 5-torus inside T^6
    labels = ("tau", "s1", "s2", "s3")
    v = sym([(0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0)], labels)
    w = sym([(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)], labels)
    Ghat = tg.closure_group(v, w)
    assert Ghat.ambient_dim == 6
    assert Ghat.dim == 5
    assert tg.closure_group(v).dim == 2


def test_closure_group_rational_weight():
    v = sym([(0,), (1,)])
    w = sym([(1,)])
    Ghat = tg.closure_group(v, w)
    assert Ghat.dim == 1
    # joint relations: m2 + m3 = 0 plus m1 free
    assert Ghat.relation_lattice == ((1, 0, 0), (0, 1, -1))


def test_parameters_with_found():
    # the closure of t -> (t, 2t): the second coordinate 1/2 is reached
    G = tg.SubtorusGroup(2, ((2, -1),))
    g, D = element_with(G, [1], [Fraction(1, 2)])
    assert fractions(g, D)[1] == Fraction(1, 2)
    assert G.contains_numerators(g, D)
    # no conditions: the identity
    assert fractions(*element_with(G, [], [])) == (0, 0)


def test_parameters_with_none():
    # first coordinate 0 forces the second to 0 on t -> (t, 2t)
    G = tg.SubtorusGroup(2, ((2, -1),))
    assert element_with(G, [0, 1], [Fraction(0), Fraction(1, 2)]) is None


def test_parameters_with_against_solve_congruences():
    # the weight-(tau, 1, 2) closure on the 3-torus, every pair of
    # coordinates and values on a sixths grid
    G = tg.closure_group(sym([(0, 1), (1, 0), (2, 0)], ("tau",)))
    C = G.complement_basis()
    grid = [Fraction(i, 6) for i in range(6)]
    for coords in itertools.combinations(range(3), 2):
        for values in itertools.product(grid, repeat=2):
            A = [[row[j] for row in C] for j in coords]
            sol = rl.solve_congruences(A, values)
            found = element_with(G, coords, values)
            assert (found is None) == (sol is None), (coords, values)
            if found is not None:
                g = fractions(*found)
                particular = fractions(*sol.particular_numerators())
                assert g == mod1(rl.vec_mat(particular, C))
                assert G.contains_numerators(*found)
                assert [g[j] for j in coords] == list(values)


def test_closure_group_generator_mismatch():
    v = sym([(1, 0), (0, 1)], ("alpha",))
    w = sym([(0, 1)], ("beta",))
    with pytest.raises(GeneratorMismatch):
        tg.closure_group(v, w)


def test_closure_projection_lands_in_base():
    labels = ("alpha",)
    v = sym([(0, 0), (1, 0), (0, 1)], labels)
    w = sym([(1, 1)], labels)
    Ghat = tg.closure_group(v, w)
    G = tg.closure_group(v)
    for point, _ in tg.haar_quadrature(Ghat, 3):
        assert contains(G, point[:3])


@st.composite
def flows_with_bundle_weight(draw):
    """A T^2-T^4 flow, rational or with one generator, and one bundle weight
    over the same generators."""
    n = draw(st.integers(2, 4))
    labels = draw(st.sampled_from([(), ("alpha",)]))
    entry = st.tuples(st.integers(-3, 3), *[st.integers(-2, 2)] * len(labels))
    v = sym(draw(st.lists(entry, min_size=n, max_size=n)), labels)
    w = sym([draw(entry)], labels)
    return v, w


@settings(max_examples=80, deadline=None)
@given(flows_with_bundle_weight())
def test_lift_projects_onto_its_base(case):
    v, w = case
    n = v.ambient_dim
    base = tg.closure_group(v)
    lift = tg.closure_group(v, w)
    for point, _ in tg.haar_quadrature(lift, 3):
        assert contains(base, point[:n])
    if base.rank:
        # the whole torus is a wrong base whenever the closure is proper
        with pytest.raises(AssertionError):
            tg._check_projection_onto(lift, tg.SubtorusGroup(n))


def test_haar_quadrature_weights():
    v = sym([(0,), (1,)])
    G = tg.closure_group(v)
    pts = tg.haar_quadrature(G, 4)
    assert len(pts) == 4
    assert all(w == Fraction(1, 4) for _, w in pts)
    assert sum(w for _, w in pts) == 1


def test_haar_quadrature_total_mass_generic():
    v = sym([(1, 0), (0, 1)], ("alpha",))
    G = tg.closure_group(v)
    for N in (1, 2, 5):
        pts = tg.haar_quadrature(G, N)
        assert len(pts) == N**2
        assert sum(w for _, w in pts) == 1


def test_haar_quadrature_kills_nontrivial_characters():
    # G = closure of t(1,2) in T^2 is cut out by 2x1 - x2 = 0; the character
    # m = (1, 0) is nontrivial on G and must integrate to zero exactly once
    # the grid resolves its order.
    v = sym([(1,), (2,)])
    G = tg.closure_group(v)
    m = (1, 0)
    assert rl.lattice_coordinates(G.relation_lattice, [m]) is None
    for N in (5, 8):
        total = sum(
            w * cmath.exp(2j * math.pi * float(sum(Fraction(mi) * x for mi, x in zip(m, p))))
            for p, w in tg.haar_quadrature(G, N)
        )
        assert abs(total) < 1e-12
    # a character that lies in the relation lattice integrates to one
    m = G.relation_lattice[0]
    total = sum(
        w * cmath.exp(2j * math.pi * float(sum(Fraction(mi) * x for mi, x in zip(m, p))))
        for p, w in tg.haar_quadrature(G, 4)
    )
    assert abs(total - 1) < 1e-12


def _s5_isotropy_at_pole():
    """Isotropy of the weight-(tau,1,2) closure at a point supported on the
    third coordinate: two components inside the 2-torus closure."""
    G = tg.closure_group(sym([(0, 1), (1, 0), (2, 0)], ("tau",)))
    return tg.IsotropyDescriptor(G, (2,))


def test_isotropy_descriptor_components():
    iso = _s5_isotropy_at_pole()
    assert iso.component_count == 2 and iso.dim == 1
    zero, half = Fraction(0), Fraction(1, 2)
    reps = components(iso)
    assert reps[0] == (zero, zero, zero)
    assert set(reps) == {(zero, zero, zero), (zero, half, zero)}
    assert set(iso.tangent_rows) <= {(1, 0, 0), (-1, 0, 0)}


def test_trivial_isotropy():
    iso = tg.IsotropyDescriptor(tg.SubtorusGroup(3), range(3))
    assert iso.component_count == 1 and iso.dim == 0
    assert iso.solution.torsion_numerators() == ([(0, 0, 0)], 1)
    assert components(iso) == [(0, 0, 0)]


def test_isotropy_preimage_components():
    v = sym([(0, 1), (1, 0), (2, 0)], ("tau",))
    Ghat = tg.closure_group(v)
    pre = tg.isotropy_preimage(Ghat, _s5_isotropy_at_pole())
    assert pre == tg.IsotropyDescriptor(Ghat, (2,))
    assert pre.component_count == 2
    assert pre.dim == 1
    for pt in components(pre):
        assert contains(Ghat, pt)


def test_sheet_count_s5_transversal_circle():
    # any 1-dim subgroup transversal to the isotropy preimage of the
    # weight-(tau,1,2) pole orbit meets it in exactly two elements
    iso = _s5_isotropy_at_pole()
    # subgroup {(0, t, 2t)} in ambient coordinates
    assert tg.sheet_count_rows(((0, 1, 2),), iso) == 2
    # a different transversal line gives the same count
    assert tg.sheet_count_rows(((1, 1, 2),), iso) == 2


def test_sheet_count_free_orbit_full_group():
    v = sym([(1, 0), (0, 1)], ("alpha",))
    G = tg.closure_group(v)
    trivial = tg.IsotropyDescriptor(tg.SubtorusGroup(2), range(2))
    assert tg.sheet_count_rows(G.complement_basis(), trivial) == 1


def test_sheet_count_doubled_circle():
    # z -> e^{2it} z: parametrizing circle winds twice around the group;
    # kernel has two elements (t = 0 and t = pi on the parametrizing circle)
    trivial = tg.IsotropyDescriptor(tg.SubtorusGroup(1), range(1))
    assert tg.sheet_count_rows(((2,),), trivial) == 2
    # brute-force oracle on a fine grid
    hits = [k for k in range(64) if (2 * Fraction(k, 64)) % 1 == 0]
    assert len(hits) == 2


def test_sheet_count_not_transversal():
    iso = _s5_isotropy_at_pole()
    # the subgroup {(t, 0, 0)} lies inside the isotropy preimage
    with pytest.raises(NotTransversal):
        tg.sheet_count_rows(((1, 0, 0),), iso)


def test_haar_factor_choice_invariance():
    # mass / sheets is independent of the complementary subgroup choice
    v = sym([(0, 1), (1, 0), (2, 0)], ("tau",))
    Ghat = tg.closure_group(v)
    iso = _s5_isotropy_at_pole()
    pre = tg.isotropy_preimage(Ghat, iso)
    ratios = set()
    for ambient_rows in (((0, 1, 2),), ((1, 1, 2),), ((0, 2, 4),)):
        rows = tg.subgroup_in_param_coords(pre, ambient_rows)
        mass = tg.haar_factor(pre, rows)
        sheets = tg.sheet_count_rows(ambient_rows, iso)
        ratios.add(Fraction(mass, sheets))
    assert len(ratios) == 1


def test_complementary_subgroup_is_valid():
    v = sym([(0, 1), (1, 0), (2, 0)], ("tau",))
    Ghat = tg.closure_group(v)
    pre = tg.isotropy_preimage(Ghat, _s5_isotropy_at_pole())
    rows = tg.complementary_subgroup(pre)
    assert len(rows) + pre.dim == Ghat.dim
    assert tg.haar_factor(pre, rows) > 0


def fraction_contains(group, point):
    """Membership by ``Fraction`` arithmetic: every relation row's pairing
    with the point vanishes modulo one."""
    return all(sum(m * Fraction(x) for m, x in zip(row, point)) % 1 == 0
               for row in group.relation_lattice)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contains_numerators_matches_fraction_oracle(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=n - 1))
    G = tg.SubtorusGroup(n, rows)
    frac = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    # a member, moved off [0, 1) by integer shifts
    D = data.draw(st.integers(1, 12))
    t = data.draw(st.lists(st.integers(-12, 12), min_size=G.dim, max_size=G.dim))
    member = tuple(x + data.draw(st.integers(-2, 2))
                   for x in fractions(G.element_numerators(t, D), D))
    assert contains(G, member) and fraction_contains(G, member)
    # a random point, a member or not
    point = tuple(data.draw(st.lists(frac, min_size=n, max_size=n)))
    assert contains(G, point) == fraction_contains(G, point)
    if G.relation_lattice:
        # moving coordinate j by 1/q with |m_j| < q breaks the first relation m
        m = G.relation_lattice[0]
        j = next(i for i, a in enumerate(m) if a)
        off = list(member)
        off[j] += Fraction(1, abs(m[j]) + data.draw(st.integers(1, 3)))
        assert not contains(G, off) and not fraction_contains(G, off)


# ---------------------------------------------------------------------------
# the stabilizer type against brute force on random weighted spheres


def _grid_hits(group, coords, N):
    """Points of the resolution-``N`` grid of the group's parametrizing torus
    whose element has coordinates ``coords`` equal to zero modulo one."""
    C = np.array(group.complement_basis(), dtype=np.int64)[:, list(coords)]
    d = len(C)
    grid = np.stack(np.meshgrid(*[np.arange(N)] * d, indexing="ij"), -1).reshape(-1, d)
    return int(np.all((grid @ C) % N == 0, axis=1).sum())


def brute_force_components(group, coords, N):
    """(component count, dimension) of ``{g in group : g_coords = 0}`` from
    grid counts alone: a subgroup with ``kappa`` components of dimension
    ``e`` meets the resolution-``N`` grid in ``kappa * N**e`` points once
    ``N`` is a multiple of every component order, so doubling ``N`` reads
    off ``e``."""
    h1, h2 = _grid_hits(group, coords, N), _grid_hits(group, coords, 2 * N)
    e = round(math.log2(h2 / h1))
    assert h2 == h1 * 2 ** e
    assert h1 % N ** e == 0
    return h1 // N ** e, e


def _weight(draw):
    """A weight ``a`` or ``a * tau`` with ``a`` in 1..8."""
    a = draw(st.integers(1, 8))
    return (Fraction(0), Fraction(a)) if draw(st.booleans()) else (Fraction(a), Fraction(0))


@st.composite
def weighted_spheres(draw):
    k = draw(st.integers(2, 3))
    weights = tg.SymbolicFrequency(tuple(_weight(draw) for _ in range(k)), ("tau",))
    twist = _weight(draw) if draw(st.booleans()) else None
    return weights, twist and tg.SymbolicFrequency((twist,), ("tau",))


@settings(max_examples=60, deadline=None)
@given(weighted_spheres())
def test_isotropy_descriptor_matches_grid_count(case):
    weights, twist = case
    k = weights.ambient_dim
    G = tg.closure_group(weights)
    hat = tg.closure_group(weights, twist)
    coeffs = [int(c) for row in weights.coeffs + (twist.coeffs if twist else ())
              for c in row if c]
    N = math.lcm(*coeffs)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            iso = tg.IsotropyDescriptor(G, support)
            pre = tg.isotropy_preimage(hat, iso)
            for desc in (iso, pre):
                assert (desc.component_count, desc.dim) == \
                    brute_force_components(desc.group, support, N)
                reps = components(desc)
                assert len(reps) == desc.component_count
                assert not any(reps[0])
                for h in reps:
                    assert contains(desc.group, h)
                    assert all(h[j] == 0 for j in support)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_isotropy_quadrature_matches_exact_sum_on_random_spheres(data):
    # rational weights: an irrational one makes every pole non-transverse
    k = data.draw(st.integers(2, 3))
    weights = tg.SymbolicFrequency(tuple(
        (Fraction(w), Fraction(0))
        for w in data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))),
        ("tau",))
    twist_weight = data.draw(st.one_of(
        st.none(), st.integers(1, 8).map(lambda a: ((Fraction(a), Fraction(0)),)),
        st.integers(1, 8).map(lambda a: ((Fraction(0), Fraction(a)),))))
    twist = twist_weight and BundleTwist(tg.SymbolicFrequency(twist_weight, ("tau",)))
    phases = data.draw(st.lists(
        st.builds(Fraction, st.integers(0, 11), st.integers(1, 12)),
        min_size=k, max_size=k))
    model = gm.WeightedSphereModel(weights)
    f = SpherePhaseMap(phases)
    try:
        exact = fpf.lefschetz_rhs(model, f, fibers="scalar", twist=twist)
    except (InfiniteFixedSet, NonTransverse):
        assume(False)
    quad = fpf.lefschetz_rhs(model, f, fibers="scalar", twist=twist,
                             isotropy_resolution=5)
    assert abs(quad.value - exact.value) <= 1e-9


def fraction_apply(v, A):
    """``A v`` with one ``Fraction`` product per entry: the reference for the
    integer column products of ``SymbolicFrequency.apply_integer_matrix``."""
    return tuple(
        tuple(sum(Fraction(a) * v.coeffs[j][col] for j, a in enumerate(arow))
              for col in range(1 + v.generator_count))
        for arow in A)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_integer_matrix_matches_the_fraction_products(data):
    n = data.draw(st.integers(1, 4), label="n")
    g = data.draw(st.integers(0, 2), label="generators")
    entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    coeffs = tuple(tuple(data.draw(entry) for _ in range(1 + g)) for _ in range(n))
    v = tg.SymbolicFrequency(coeffs, ("alpha", "beta")[:g])
    A = [[data.draw(st.integers(-5, 5)) for _ in range(n)]
         for _ in range(data.draw(st.integers(1, 4), label="rows"))]
    Av = v.apply_integer_matrix(A)
    assert Av.coeffs == fraction_apply(v, A)
    assert Av.generator_labels == v.generator_labels
    assert Av.generator_values == v.generator_values
