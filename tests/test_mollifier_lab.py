"""Smoothing-kernel pairings against the closed-form fixed-orbit values."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilef import geometry_models as gm
from equilef import mollifier_lab as ml
from equilef import torus_group as tg
from equilef.endomorphism import TorusMap
from equilef.errors import GridTooCoarse, GridTooFine, InfiniteFixedSet


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


T2 = torus_model([(0,), (1,)])
T2_IRR = torus_model([(1, 0), (0, 1)], ("alpha",))
T2_DIAGONAL = torus_model([(1,), (1,)])
DOUBLING = TorusMap(((2, 0), (0, 1)), (0, 0))
TRIPLING = TorusMap(((3, 0), (0, 1)), (0, 0))
# two nonzero columns in I - A: grid^3 cells on the diagonal flow
SHEAR = TorusMap(((2, -1), (1, 0)), (0, 0))
# the widest bump radius
HALF_TURN = math.nextafter(0.5, 0.0)


def dense_pairing(model, f, config):
    """Reference quadrature: the bump evaluated on every cell of the full
    tensor grid, four chunks at a time to bound the temporaries, and every
    cell's value in one ``math.fsum`` (exact zeros dropped first: they do
    not change the sum)."""
    grid = config.resolved_grid()
    n = model.n
    k, radius = config.k, config.radius
    M = np.eye(n) - np.array(f.matrix, dtype=float)
    active = [j for j in range(n) if np.any(M[:, j] != 0.0)]
    d = model.group.dim
    cells = grid ** (d + len(active))
    if cells > ml.MAX_CELLS:
        raise GridTooFine(f"grid {grid} needs {cells} quadrature cells, "
                          f"more than the budget of {ml.MAX_CELLS}")
    c_vec = np.array([float(x) for x in f.translation])
    B = np.array(
        [[float(x) for x in row] for row in model.group.complement_basis()]
    )
    support = radius / k
    if 2.0 * support * grid < ml.MIN_CELLS_PER_BUMP:
        raise GridTooCoarse(
            f"bump support {2 * support:.3e} spans fewer than "
            f"{ml.MIN_CELLS_PER_BUMP} cells at grid {grid}"
        )
    axis = np.arange(grid) / grid
    combos = np.stack(
        np.meshgrid(*([axis] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    base = combos @ B - c_vec
    p_cols = np.zeros((1, n)) if not active else np.stack(
        np.meshgrid(*([axis] * len(active)), indexing="ij"), axis=-1
    ).reshape(-1, len(active)) @ M[:, active].T

    c_norm, _ = config.normalization()
    scale = (k**n) * c_norm / cells

    def chunk_values(lo, hi):
        gamma = base[lo:hi, None, :] + p_cols[None, :, :]
        gamma -= np.round(gamma)
        dist = np.sqrt(np.sum(gamma * gamma, axis=-1))
        vals = ml._bump(dist / support)
        return vals[vals != 0.0].tolist()

    step = max(1, math.ceil(len(base) / 4))
    values = [v for lo in range(0, len(base), step)
              for v in chunk_values(lo, min(lo + step, len(base)))]
    return scale * math.fsum(values)


def lab_pairing(model, f, config):
    return ml.kernel_pairing(model, f, config).value


def outcome(pairing, model, f, config):
    """The pairing's value, or the type and message of its refusal."""
    try:
        return pairing(model, f, config)
    except (GridTooCoarse, GridTooFine) as exc:
        return type(exc), str(exc)


def mollifier_mass_check(config, grid=256):
    """Quadrature of the bare mollifier mass around a fixed diagonal point;
    converges to one by the normalization choice."""
    c_norm, _ = config.normalization()
    axis = np.arange(grid) / grid
    px, py = np.meshgrid(axis, axis, indexing="ij")
    gx = px - 0.5
    gy = py - 0.5
    gx -= np.round(gx)
    gy -= np.round(gy)
    dist = np.sqrt(gx * gx + gy * gy)
    support = config.radius / config.k
    vals = ml._bump(dist / support)
    return float((config.k**2) * c_norm * np.sum(vals) / grid**2)


class TestKernelPairing:
    def test_doubling_near_one(self):
        result = ml.kernel_pairing(T2, DOUBLING, ml.MollifierConfig(k=64))
        assert abs(result.value - 1.0) <= 0.05

    def test_tripling_near_one(self):
        # two fixed orbits, each contributing 1/2
        result = ml.kernel_pairing(T2, TRIPLING, ml.MollifierConfig(k=64))
        assert abs(result.value - 1.0) <= 0.05

    def test_base_shift_has_no_fixed_orbit(self):
        f = TorusMap(((1, 0), (0, 1)), (Fraction(1, 4), 0))
        result = ml.kernel_pairing(T2, f, ml.MollifierConfig(k=32))
        assert result.value == 0.0

    def test_translation_on_irrational_torus(self):
        # the base is a point; the whole manifold is the unique fixed orbit
        f = TorusMap(((1, 0), (0, 1)), (Fraction(1, 4), 0))
        for k in (8, 16):
            result = ml.kernel_pairing(T2_IRR, f, ml.MollifierConfig(k=k))
            assert abs(result.value - 1.0) <= 0.05

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse, match=r"at grid 128$"):
            ml.kernel_pairing(T2, DOUBLING, ml.MollifierConfig(k=64, grid=128))

    def test_grid_past_the_cell_budget_refused(self):
        # a circle closure and one active direction: grid^2 cells
        ml.kernel_pairing(T2, DOUBLING, ml.MollifierConfig(k=1, grid=64))
        with pytest.raises(GridTooFine):
            ml.kernel_pairing(T2, DOUBLING,
                              ml.MollifierConfig(k=8, grid=ml.MAX_GRID + 1))
        # a circle closure and two active directions: grid^3 cells, so
        # sharpness 16 (grid 512) is already past the budget
        ml.kernel_pairing(T2_DIAGONAL, SHEAR, ml.MollifierConfig(k=8))
        with pytest.raises(GridTooFine):
            ml.kernel_pairing(T2_DIAGONAL, SHEAR, ml.MollifierConfig(k=16))

    def test_max_sharpness_resolves_within_max_grid(self):
        assert ml.MollifierConfig(k=ml.MAX_SHARPNESS).resolved_grid() <= ml.MAX_GRID
        assert ml.MollifierConfig(k=ml.MAX_SHARPNESS + 1).resolved_grid() > ml.MAX_GRID

    def test_normalization_residual_recorded(self):
        c, resid = ml.MollifierConfig(k=8).normalization()
        assert c > 0
        assert resid < 1e-6


@st.composite
def translations(draw, config):
    """A translation coordinate on a node of the pairing grid, near the 0/1
    seam, a bump support away from a node, or anywhere."""
    grid = config.resolved_grid()
    node = Fraction(draw(st.integers(-grid, 2 * grid - 1)), grid)
    tiny = Fraction(draw(st.sampled_from((-1, 1))), 10**draw(st.integers(6, 15)))
    edge = Fraction(config.radius / config.k) * draw(st.sampled_from((-1, 1)))
    return draw(st.sampled_from((
        node, tiny, 1 + tiny, node + edge,
        draw(st.fractions(-1, 2, max_denominator=10**6)),
    )))


@st.composite
def pairing_cases(draw):
    """A two-torus pairing of each quadrature shape: the circle closure with
    one active direction, the diagonal flow with two, the irrational flow
    with none."""
    shape = draw(st.sampled_from(("circle", "diagonal", "irrational")))
    k = draw(st.integers(1, 16))
    radii = st.floats(0.05, 0.49, exclude_min=True, exclude_max=True)
    if k <= 2:
        # the candidate window reaches about half a turn either side, where
        # a key can sit at both of its ends
        radii |= (st.floats(0.49, 0.5, exclude_min=True, exclude_max=True)
                  | st.just(HALF_TURN))
    radius = draw(radii)
    if shape == "diagonal":
        # grid^3 cells: keep the dense reference small, and resolve the
        # bump where that allows
        grid = draw(st.integers(min(max(16, math.ceil(2 * k / radius)), 96), 96))
    else:
        grid = draw(st.none() | st.integers(8, 512))
    config = ml.MollifierConfig(k=k, radius=radius, grid=grid)
    translation = (draw(translations(config)), draw(translations(config)))
    if shape == "circle":
        a = draw(st.sampled_from((-3, -2, -1, 0, 2, 3, 4)))
        return T2, TorusMap(((a, 0), (0, 1)), translation), config
    if shape == "diagonal":
        return T2_DIAGONAL, TorusMap(SHEAR.matrix, translation), config
    return T2_IRR, TorusMap(((1, 0), (0, 1)), translation), config


class TestSupportQuadrature:
    """The lab evaluates the bump only near its support; the dense tensor
    quadrature above is the reference it must equal bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(pairing_cases())
    @example((T2, DOUBLING, ml.MollifierConfig(k=1, radius=HALF_TURN)))
    @example((T2_DIAGONAL, SHEAR, ml.MollifierConfig(k=1, radius=HALF_TURN,
                                                     grid=16)))
    @example((T2_IRR, TorusMap(((1, 0), (0, 1)), (Fraction(1, 2), 0)),
              ml.MollifierConfig(k=2, radius=0.495)))
    def test_matches_dense_quadrature(self, case):
        model, f, config = case
        assert (outcome(lab_pairing, model, f, config)
                == outcome(dense_pairing, model, f, config))

    @settings(max_examples=60, deadline=None)
    @given(small=st.integers(2, 12), large=st.integers(1, 12),
           grid=st.sampled_from((2, 4, 8, 10)),
           data=st.data())
    def test_candidate_pairs_are_listed_once(self, small, large, grid, data):
        # points on a grid put keys exactly half a turn from window centres,
        # at both ends of a window of half a turn; no window repeats a pair,
        # and one of more than half a turn keeps every pair
        def points(count):
            return np.array(data.draw(st.lists(
                st.tuples(st.integers(-grid, 2 * grid), st.integers(0, grid)),
                min_size=count, max_size=count)), dtype=float) / grid

        a, b = points(small), points(large)
        for half in (0.25, 0.5, math.nextafter(0.5, 1.0), 0.75):
            rows, cols = ml._candidate_pairs(a, b, half)
            pairs = list(zip(rows.tolist(), cols.tolist()))
            assert len(pairs) == len(set(pairs))
        assert len(pairs) == small * large

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 16),
           radius=st.floats(0.05, 0.49, exclude_min=True, exclude_max=True),
           u=st.floats(0.0, 1.0),
           s=st.fractions(0, 1, max_denominator=1000),
           grid=st.integers(640, 4096))
    def test_no_fixed_orbit_is_exactly_zero(self, k, radius, u, s, grid):
        # the base shift stays two supports away from every integer, and
        # grid 640 resolves the narrowest bump
        config = ml.MollifierConfig(k=k, radius=radius, grid=grid)
        margin = 2 * radius / k
        t = Fraction(margin + u * (1 - 2 * margin))
        f = TorusMap(((1, 0), (0, 1)), (t, s))
        value = outcome(lab_pairing, T2, f, config)
        assert value == 0.0
        assert value == outcome(dense_pairing, T2, f, config)

    @pytest.mark.parametrize("model, f, k", [
        (T2, DOUBLING, 64),
        (T2, TRIPLING, 32),
        (T2_IRR, TorusMap(((1, 0), (0, 1)), (Fraction(1, 4), 0)), 16),
        (T2_DIAGONAL, SHEAR, 8),
    ])
    def test_fixture_configurations(self, model, f, k):
        config = ml.MollifierConfig(k=k)
        assert lab_pairing(model, f, config) == dense_pairing(model, f, config)

    def test_peak_memory_follows_the_candidate_cells(self):
        # the k = 64 doubling's candidate cells take 12 MiB, against 196 MiB
        # of temporaries for its full tensor grid
        ml.kernel_pairing(T2, DOUBLING, ml.MollifierConfig(k=8))
        tracemalloc.start()
        try:
            ml.kernel_pairing(T2, DOUBLING, ml.MollifierConfig(k=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestMassCheck:
    def test_unit_mass(self):
        value = mollifier_mass_check(ml.MollifierConfig(k=4), grid=256)
        assert abs(value - 1.0) < 1e-3


class TestInvariance:
    def test_group_composition_invariance(self):
        # composing with a group translation aligned to the sample grid leaves
        # the pairing unchanged
        base = ml.kernel_pairing(T2, DOUBLING, ml.MollifierConfig(k=16))
        g = (Fraction(0), Fraction(1, 4))
        shifted_map = TorusMap(
            DOUBLING.matrix,
            tuple(
                sum(Fraction(a) * gi for a, gi in zip(row, g))
                for row in DOUBLING.matrix
            ),
        )
        shifted = ml.kernel_pairing(T2, shifted_map, ml.MollifierConfig(k=16))
        assert abs(base.value - shifted.value) <= 1e-8


class TestConvergenceStudy:
    def test_doubling_envelope(self):
        study = ml.convergence_study(T2, DOUBLING, (8, 16, 32, 64))
        assert study.converged
        errors = [r.abs_error for r in study.rows]
        assert errors[-1] <= 0.05
        assert errors[-1] == min(errors)

    def test_csv_output(self):
        study = ml.convergence_study(T2, DOUBLING, (8, 16))
        lines = study.csv().strip().splitlines()
        assert lines[0] == "k,value,abs_error,grid"
        assert len(lines) == 3

    def test_nontransverse_refused(self):
        f = TorusMap(((1, 0), (0, 1)), (0, Fraction(1, 3)))
        with pytest.raises(InfiniteFixedSet):
            ml.convergence_study(T2, f, (8, 16))
