"""Wider-scope stress tests: higher dimensions, degenerate maps, richer
isotropy, higher form degrees."""

import ast
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from equilef import _ratlin as rl
from equilef import basic_complex as bc
from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.endomorphism import (
    SpherePhaseMap,
    TorusMap,
    alternating_heat_traces,
    cohomology_action,
)
from equilef.errors import InfiniteFixedSet


ROOT = pathlib.Path(__file__).resolve().parent.parent


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


def sphere_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.WeightedSphereModel(tg.SymbolicFrequency(rows, labels))


T5 = torus_model([(0, 0), (0, 0), (0, 0), (1, 0), (0, 1)], ("alpha",))
T4 = torus_model([(0, 0), (0, 0), (0, 0), (1, 0)], ("alpha",))
S5_123 = sphere_model([(1,), (2,), (3,)])


class TestFiveTorus:
    def test_random_block_shear_maps_exact_equality(self):
        # maps compatible with v = (0,0,0,1,alpha): free 3x3 base block plus
        # free shears from the base into the flow coordinates
        rng = np.random.default_rng(2718)
        found = 0
        while found < 10:
            B = rng.integers(-2, 3, (3, 3))
            M = [[int(B[i][j]) - (i == j) for j in range(3)] for i in range(3)]
            if rl.det_int(M) == 0:
                continue
            C = rng.integers(-2, 3, (2, 3))
            A = tuple(
                tuple(int(B[i][j]) for j in range(3)) + (0, 0)
                for i in range(3)
            ) + (
                tuple(int(C[0][j]) for j in range(3)) + (1, 0),
                tuple(int(C[1][j]) for j in range(3)) + (0, 1),
            )
            f = TorusMap(A, (0, Fraction(1, 3), 0, 0, 0))
            lhs = cohomology_action(T5, f).lefschetz_exact
            rhs = fpf.lefschetz_rhs(T5, f).value_exact
            assert lhs == rhs is not None
            assert len(fpf.find_fixed_orbits(T5, f)) == abs(rl.det_int(M))
            found += 1

    def test_heat_traces_stable_on_five_torus(self):
        A = ((2, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 3, 0, 0),
             (1, 0, 2, 1, 0), (0, 0, 0, 0, 1))
        f = TorusMap(A, (0, 0, 0, 0, 0))
        L = cohomology_action(T5, f).lefschetz
        for alt in alternating_heat_traces(T5, f, (0.1, 1.0, 10.0), 4):
            assert abs(alt - L) < 1e-8


class TestDegenerateShear:
    # x1 -> x1 + x2 fixes a positive-dimensional orbit family; the harmonic
    # side and the heat traces still make sense and vanish
    F = TorusMap(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                 (0, 0, 0, 0))

    def test_gated(self):
        with pytest.raises(InfiniteFixedSet):
            fpf.find_fixed_orbits(T4, self.F)

    def test_lhs_vanishes(self):
        assert cohomology_action(T4, self.F).lefschetz_exact == 0

    def test_heat_cancellation_with_infinitely_many_fixed_modes(self):
        # every basic mode (0, k, 0, 0) is fixed by the transpose; their
        # per-degree contributions cancel in the alternating sum, mode by mode
        fixed_modes = [
            m for m in bc.basic_modes(T4, 6)
            if rl.vec_mat(m, self.F.matrix) == m and any(m)
        ]
        assert fixed_modes
        for alt in alternating_heat_traces(T4, self.F, (0.05, 0.5, 5.0), 6):
            assert abs(alt) < 1e-10


class TestHigherDegreeForms:
    def _random_form(self, model, q, rng, n_terms=4):
        subsets = list(itertools.combinations(range(model.n - 1), q))
        return bc.BasicForm(model, q, {
            (tuple(int(x) for x in rng.integers(-2, 3, model.n)),
             subsets[int(rng.integers(0, len(subsets)))]):
            complex(rng.normal(), rng.normal())
            for _ in range(n_terms)
        })

    def test_dd_zero_through_middle_degrees(self):
        rng = np.random.default_rng(11)
        for q in (0, 1):
            for _ in range(5):
                u = self._random_form(T4, q, rng)
                ddu = bc.apply_D(bc.apply_D(u))
                assert ddu.norm() <= 1e-12 * max(1.0, u.norm())

    def test_laplacian_pairings_nonnegative(self):
        rng = np.random.default_rng(13)
        for q in (1, 2):
            for _ in range(5):
                u = self._random_form(T4, q, rng)
                a = bc.inner_product(bc.apply_D(bc.apply_D_adjoint(u)), u)
                assert abs(a.imag) <= 1e-9 * max(1.0, u.norm() ** 2)
                assert a.real >= -1e-9

    def test_adjoint_pairing_middle_degree(self):
        rng = np.random.default_rng(5)
        model = T4
        ones = list(itertools.combinations(range(3), 1))
        twos = list(itertools.combinations(range(3), 2))
        for _ in range(10):
            u = bc.BasicForm(model, 1, {
                (tuple(int(x) for x in rng.integers(-2, 3, 4)),
                 ones[int(rng.integers(0, 3))]): complex(rng.normal(), rng.normal())
                for _ in range(4)
            })
            w = bc.BasicForm(model, 2, {
                (tuple(int(x) for x in rng.integers(-2, 3, 4)),
                 twos[int(rng.integers(0, 3))]): complex(rng.normal(), rng.normal())
                for _ in range(4)
            })
            lhs = bc.inner_product(bc.apply_D(u), w)
            rhs = bc.inner_product(u, bc.apply_D_adjoint(w))
            assert abs(lhs - rhs) < 1e-10


class TestRationalWeightedFiveSphere:
    F = SpherePhaseMap((Fraction(1, 4), Fraction(1, 5), 0))

    def test_three_transverse_circles(self):
        orbits = fpf.find_fixed_orbits(S5_123, self.F)
        assert sorted(o.base_point.support for o in orbits) == [(0,), (1,), (2,)]

    def test_isotropy_component_counts(self):
        counts = {}
        for orbit in fpf.find_fixed_orbits(S5_123, self.F):
            counts[orbit.base_point.support] = orbit.isotropy.component_count
        assert counts == {(0,): 1, (1,): 2, (2,): 3}

    def test_brute_force_isotropy_counts(self):
        # scan the parametrizing circle for elements fixing each axis point
        G = S5_123.group
        for j, expected in ((0, 1), (1, 2), (2, 3)):
            weight = (1, 2, 3)[j]
            hits = {
                Fraction(k, 60)
                for k in range(60)
                if Fraction(k * weight, 60) % 1 == 0
            }
            assert len(hits) == expected

    def test_contribution_routes_and_choice_invariance(self):
        res = fpf.lefschetz_rhs(S5_123, self.F, fibers="scalar")
        quad = fpf.lefschetz_rhs(S5_123, self.F, fibers="scalar",
                                 isotropy_resolution=3)
        assert abs(res.value - quad.value) < 1e-12
        for contrib in res.contributions:
            for winding in (2, 3):
                rows = ((winding, 2 * winding, 3 * winding),)
                alt = fpf.orbit_contribution(contrib.orbit, self.F,
                                             fibers="scalar",
                                             subgroup_rows=rows)
                assert abs(alt.term.total - contrib.term.total) <= 1e-10

    def test_mass_and_sheets_scale_together(self):
        orbit = [o for o in fpf.find_fixed_orbits(S5_123, self.F)
                 if o.base_point.support == (2,)][0]
        base = fpf.orbit_contribution(orbit, self.F, fibers="scalar")
        assert base.term.haar_factor == 3
        assert base.term.sheets == 3
        doubled = fpf.orbit_contribution(orbit, self.F, fibers="scalar",
                                         subgroup_rows=((2, 4, 6),))
        assert doubled.term.haar_factor == 6
        assert doubled.term.sheets == 6


class TestGeneratorNames:
    """A generator named ``rational`` would be read as the rational part of
    every combination that mentions it, so such names are schema errors."""

    @staticmethod
    def doc(name):
        return {
            "schema": 1, "name": "named_generator_t2",
            "generators": [name],
            "model": {"type": "flat_torus", "n": 2,
                      "v": [{"rational": "1"}, "1"]},
            "map": {"matrix": [[1, 0], [0, 1]], "translation": ["1/3", "0"]},
        }

    @staticmethod
    def run(doc, tmp_path, command="rhs"):
        path = tmp_path / "case.scenario"
        path.write_text(json.dumps(doc))
        stream = io.StringIO()
        options = cli.options()
        return cli.run(command, str(path), options, stream), stream.getvalue()

    def test_a_proper_name_reads_as_an_irrational_generator(self):
        # v = (alpha, 1) under the name alpha: the closure is the whole T^2
        doc = self.doc({"name": "alpha"})
        doc["model"]["v"] = [{"alpha": "1"}, "1"]
        scn = cli.parse_scenario(doc)
        assert scn.model.group.dim == 2
        assert len(fpf.lefschetz_rhs(scn.model, scn.map).contributions) == 1

    @pytest.mark.parametrize("name", [
        {"name": "rational"}, "rational", {"name": 7}, {"name": ""},
        {"name": None}, {"name": ["alpha"]},
    ])
    @pytest.mark.parametrize("command", ["validate", "rhs"])
    def test_colliding_or_malformed_name_is_a_schema_error(self, tmp_path, name,
                                                           command):
        code, text = self.run(self.doc(name), tmp_path, command)
        assert code == cli.EXIT_USAGE
        assert text.startswith("schema error at $.generators[0].name:")


class TestTinyMollifierRadius:
    """A radius inside the schema's exact ``(0, 1/2)`` can still be 0 or
    subnormal as a float; neither may escape as a traceback."""

    @staticmethod
    def run(radius, tmp_path):
        doc = json.loads((pathlib.Path(__file__).resolve().parent.parent /
                          "scenarios" / "mollifier_doubling_t2.scenario").read_text())
        doc["mollifier"]["radius"] = radius
        path = tmp_path / "case.scenario"
        path.write_text(json.dumps(doc))
        stream = io.StringIO()
        return cli.run("mollifier", str(path), stream=stream), stream.getvalue()

    @pytest.mark.parametrize("radius", [
        "1/1" + "0" * 400,                             # float 0.0
        f"{5 * 10**399 - 1}/1{'0' * 400}",             # float 0.5
    ])
    def test_a_radius_that_rounds_to_an_end_is_a_schema_error(self, radius,
                                                              tmp_path):
        code, text = self.run(radius, tmp_path)
        assert code == cli.EXIT_USAGE
        assert text.startswith("schema error at $.mollifier.radius:")

    def test_a_subnormal_radius_is_too_coarse_for_the_grid(self, tmp_path):
        code, text = self.run("1/1" + "0" * 320, tmp_path)
        assert code == cli.EXIT_DISCREPANCY
        assert text.startswith("error: bump support")


class TestChecksSurvivePythonO:
    """Internal cross-checks are explicit raises, which ``python -O`` keeps
    (it strips ``assert`` statements)."""

    def test_package_has_no_assert_statements(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted((ROOT / "src" / "equilef").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_trace_cross_check_fires_under_python_O(self):
        # exterior traces with the degree-2 one moved by one must still be
        # caught by the harmonic action's integer check against the
        # basic-mode lattice
        script = """
import sys
from fractions import Fraction
from equilef import endomorphism as en, geometry_models as gm, torus_group as tg
model = gm.FlatTorusModel(tg.SymbolicFrequency(((Fraction(0),),) * 2 + ((Fraction(1),),)))
f = en.TorusMap(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
vars(f)["exterior_traces"] = (1, 3, 2)
try:
    en.cohomology_action(model, f)
except AssertionError as exc:
    print(sys.flags.optimize, exc)
"""
        result = run_fresh("-O", "-c", script)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == (
            "1 the exterior traces disagree with the basic-mode lattice")


def run_fresh(*args):
    """Run the interpreter in a fresh process at the repository root, with
    the package's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_torus_commands_and_sphere_rhs_never_load_numpy():
    # NumPy is imported where floats are the point (avcheck and the
    # mollifier lab), never by ``import equilef``, a torus command or a
    # sphere rhs, whose conormal check is exact
    script = """
import io, json, sys
import equilef
from equilef import scenario_cli as cli
seen = {"import": "numpy" in sys.modules}
for name in ("classical_t3", "twisted_unit_t3"):
    for command in ("validate", "lhs", "rhs", "verify", "spectrum"):
        code = cli.run(command, f"scenarios/{name}.scenario", stream=io.StringIO())
        seen[f"{command} {name}"] = [code, "numpy" in sys.modules]
for name in ("s3_rational", "s3_twisted", "s5_irrational"):
    code = cli.run("rhs", f"scenarios/{name}.scenario", stream=io.StringIO())
    seen[f"rhs {name}"] = [code, "numpy" in sys.modules]
code = cli.run("avcheck", "scenarios/classical_t3.scenario", stream=io.StringIO())
seen["avcheck classical_t3"] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""
    result = run_fresh("-c", script)
    assert result.returncode == 0, result.stderr[-2000:]
    seen = json.loads(result.stdout)
    assert seen.pop("import") is False
    assert seen.pop("avcheck classical_t3") == [cli.EXIT_PASS, True]
    # the irrational five-sphere has a fixed stratum: the finiteness gate
    assert seen.pop("rhs s5_irrational") == [cli.EXIT_GATE, False]
    assert len(seen) == 12
    assert all(outcome == [cli.EXIT_PASS, False] for outcome in seen.values()), seen
