"""Smoothing-kernel pairings against the closed-form fixed-orbit values."""

from fractions import Fraction

import numpy as np
import pytest

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
DOUBLING = TorusMap(((2, 0), (0, 1)), (0, 0))
TRIPLING = TorusMap(((3, 0), (0, 1)), (0, 0))


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
        diagonal = torus_model([(1,), (1,)])
        f = TorusMap(((2, -1), (1, 0)), (0, 0))
        ml.kernel_pairing(diagonal, f, ml.MollifierConfig(k=8))
        with pytest.raises(GridTooFine):
            ml.kernel_pairing(diagonal, f, ml.MollifierConfig(k=16))

    def test_max_sharpness_resolves_within_max_grid(self):
        assert ml.MollifierConfig(k=ml.MAX_SHARPNESS).resolved_grid() <= ml.MAX_GRID
        assert ml.MollifierConfig(k=ml.MAX_SHARPNESS + 1).resolved_grid() > ml.MAX_GRID

    def test_normalization_residual_recorded(self):
        c, resid = ml.MollifierConfig(k=8).normalization()
        assert c > 0
        assert resid < 1e-6


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
