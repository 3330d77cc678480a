"""Equivariant maps: validation, harmonic action, heat traces."""

import io
import itertools
import json
import math
import pathlib
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import _ratlin as rl
from equilef import basic_complex as bc
from equilef import endomorphism as em
from equilef import geometry_models as gm
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.errors import NotEquivariant


def torus_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.FlatTorusModel(tg.SymbolicFrequency(rows, labels))


def sphere_model(entries, labels=()):
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    return gm.WeightedSphereModel(tg.SymbolicFrequency(rows, labels))


T3_PROD = torus_model([(0,), (0,), (1,)])                 # v = (0, 0, 1)
T3_MIX = torus_model([(0, 0), (1, 0), (0, 1)], ("alpha",))  # v = (0, 1, alpha)
T2_IRR = torus_model([(1, 0), (0, 1)], ("alpha",))
S5 = sphere_model([(0, 1), (1, 0), (2, 0)], ("tau",))

CLASSICAL = em.TorusMap(((2, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
DOUBLING = em.TorusMap(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))


class TestValidation:
    def test_block_map_ok(self):
        cert = em.validate_equivariance(T3_PROD, CLASSICAL)
        assert cert.cochain_on_basic

    def test_scaling_flow_direction_rejected(self):
        f = em.TorusMap(((2, 0), (0, 1)), (0, 0))
        with pytest.raises(NotEquivariant):
            em.validate_equivariance(T2_IRR, f)

    def test_sphere_phase_map_ok_any_phase(self):
        for gamma in (0, Fraction(1, 4), Fraction(2, 3)):
            f = em.SpherePhaseMap((0, 0, gamma))
            assert em.validate_equivariance(S5, f).map_kind == "sphere_phase"

    def test_map_given_as_lists_is_not_equivariant(self):
        # the type check runs before the cached symbolic check, so an
        # unhashable map is refused as a map, not as a cache key
        T2 = torus_model([(0,), (1,)])
        with pytest.raises(NotEquivariant, match="affine integer maps"):
            em.validate_equivariance(T2, [[1, 0], [0, 1]])

    def test_verify_runs_the_symbolic_check_once(self):
        scenario = (pathlib.Path(__file__).resolve().parent.parent
                    / "scenarios" / "classical_t3.scenario")
        em._certify_equivariance.cache_clear()
        code = cli.run("verify", str(scenario), stream=io.StringIO())
        assert code == cli.EXIT_PASS
        info = em._certify_equivariance.cache_info()
        assert info.misses == 1
        assert info.hits >= 3     # the report, both sides and the heat sweep

    def test_noninvertible_map_allowed(self):
        f = em.TorusMap(((2, 0, 0), (0, 3, 0), (0, 0, 1)), (0, 0, 0))
        em.validate_equivariance(T3_PROD, f)


def exterior_power(model, f, q):
    """The q-th exterior power of the horizontal restriction ``B A^T B^T``
    of ``A^T`` in the frame basis ``B``, built with NumPy: entry ``(J, I)``
    is the minor on rows ``J`` and columns ``I``."""
    B = np.asarray(bc.frame_for(model).basis)
    M = B @ np.array(f.matrix, dtype=float).T @ B.T
    subsets = list(itertools.combinations(range(model.n - 1), q))
    return np.array([[np.linalg.det(M[np.ix_(J, I)]) for I in subsets]
                     for J in subsets])


def damped(modes, s):
    """``sum exp(-s 4 pi^2 |m|^2)`` over ``modes``."""
    return sum(math.exp(-s * 4 * math.pi**2 * sum(x * x for x in m))
               for m in modes)


def pull_back(f, u):
    """``f^* u`` for a flow-annihilated form ``u``, in floats: mode ``m``
    goes to ``A^T m`` turned by its character, frame index set ``I`` to
    column ``I`` of :func:`exterior_power`."""
    subsets = list(itertools.combinations(range(u.model.n - 1), u.degree))
    W = exterior_power(u.model, f, u.degree)
    out = {}
    for (m, I), c in u.coeffs.items():
        key = rl.vec_mat(m, f.matrix)
        turned = c * np.exp(2j * np.pi * float(f.character(m)))
        for row, J in enumerate(subsets):
            out[(key, J)] = out.get((key, J), 0.0) + turned * W[row, subsets.index(I)]
    return bc.BasicForm(u.model, u.degree, out, basic_flag=True)


class TestPullback:
    # the pull-back sends mode m to A^T m turned by its character m . c, and
    # a frame covector xi to xi o A; the harmonic side and the heat traces
    # are its exact traces

    def test_constant_one_form_classical(self):
        # pulling a constant frame covector back by A = [[2,1],[1,1]] (+) [1]
        # gives xi o A, e.g. dx1 -> 2 dx1 + dx2.  A^T fixes no basic mode
        # but zero, so the damped traces are the harmonic 1, 3, 1 at every s
        assert np.allclose(exterior_power(T3_PROD, CLASSICAL, 1)[:, 0], [2, 1])
        act = em.cohomology_action(T3_PROD, CLASSICAL)
        assert act.trace_integers == (1, 3, 1)
        for s in (0.001, 0.1):
            traces = em.heat_damped_traces(T3_PROD, CLASSICAL, s, cutoff=6)
            for t, k in zip(traces, act.trace_integers):
                assert abs(t - k) < 1e-12

    def test_cochain_property_on_random_basic_forms(self):
        # the pull-back the exact traces compress commutes with the
        # differential on flow-annihilated forms, here with a translation
        f = em.TorusMap(DOUBLING.matrix, (Fraction(1, 3), 0, 0))
        assert em.validate_equivariance(T3_MIX, f).cochain_on_basic
        rng = np.random.default_rng(31)
        modes = bc.basic_modes(T3_MIX, 3)
        for q in range(2):
            for _ in range(10):
                coeffs = {}
                for _ in range(4):
                    m = modes[int(rng.integers(0, len(modes)))]
                    I = tuple(sorted(rng.choice(2, size=q, replace=False)))
                    coeffs[(m, tuple(int(i) for i in I))] = complex(
                        rng.normal(), rng.normal())
                u = bc.BasicForm(T3_MIX, q, coeffs, basic_flag=True)
                lhs = bc.apply_D(pull_back(f, u))
                rhs = pull_back(f, bc.apply_D(u))
                assert lhs.norm() > 0
                assert lhs.plus(rhs, factor=-1.0).norm() <= 1e-12 * max(1.0, u.norm())

    def test_constant_one_form_non_symmetric(self):
        # A is not symmetric, so xi o A (row 0 of A for xi = dx1) differs
        # from A xi (column 0): dx1 -> 2 dx1 + dx2.  On modes the same A^T
        # fixes (0, k, 0), where A would fix (k, -k, 0)
        f = em.TorusMap(((2, 1, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
        assert bc.frame_for(T3_PROD).basis == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert np.allclose(exterior_power(T3_PROD, f, 1)[:, 0], [2, 1])
        act = em.cohomology_action(T3_PROD, f)
        assert act.trace_integers == (1, 3, 2)   # 1, trace, det of [[2, 0], [1, 1]]
        cutoff, s = 3, 0.01
        A = np.array(f.matrix)
        modes = bc.basic_modes(T3_PROD, cutoff)
        by_transpose = [m for m in modes if np.array_equal(A.T @ m, m)]
        by_matrix = [m for m in modes if np.array_equal(A @ m, m)]
        assert by_transpose == [(0, k, 0) for k in range(-cutoff, cutoff + 1)]
        assert by_matrix == [(k, -k, 0) for k in range(-cutoff, cutoff + 1)]
        traces = em.heat_damped_traces(T3_PROD, f, s, cutoff)
        for q, t in enumerate(traces):
            assert abs(t - act.trace_integers[q] * damped(by_transpose, s)) < 1e-10
            assert abs(t - act.trace_integers[q] * damped(by_matrix, s)) > 1e-3

    def test_translation_acts_by_character(self):
        # a pure translation fixes every mode and turns mode m by m . c, so
        # each degree's damped trace is binom(2, q) times the damped sum of
        # the characters over the basic modes (k, 0, 0) of T3_MIX
        c = (Fraction(1, 4), 0, Fraction(1, 3))
        f = em.TorusMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), c)
        assert f.character((1, 0, 0)) == Fraction(1, 4)
        assert f.character((2, 5, 3)) == Fraction(3, 2)     # not reduced mod 1
        cutoff, s = 3, 0.01
        modes = bc.basic_modes(T3_MIX, cutoff)
        assert modes == tuple((k, 0, 0) for k in range(-cutoff, cutoff + 1))
        turned = sum(np.exp(2j * np.pi * float(f.character(m))) * damped([m], s)
                     for m in modes)
        assert abs(turned - damped(modes, s)) > 0.1
        traces = em.heat_damped_traces(T3_MIX, f, s, cutoff)
        for q, t in enumerate(traces):
            assert abs(t - math.comb(2, q) * turned) < 1e-10

    def test_result_is_basic(self):
        # the pull-back keeps flow-annihilated forms flow-annihilated: for
        # every map the check admits, A^T maps basic modes to basic modes
        shear = em.TorusMap(((3, 0, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
        for model, f in ((T3_MIX, DOUBLING), (T3_MIX, shear), (T3_PROD, CLASSICAL)):
            assert em.validate_equivariance(model, f).cochain_on_basic
            modes = bc.basic_modes(model, 3)
            assert len(modes) > 1
            for m in modes:
                assert bc.is_basic_mode(model, rl.vec_mat(m, f.matrix))


class TestCohomologyAction:
    def test_classical_alternating_trace(self):
        act = em.cohomology_action(T3_PROD, CLASSICAL)
        assert act.trace_integers == (1, 3, 1)
        assert act.lefschetz_exact == Fraction(-1)
        # cross-check with the explicit 2x2 / 1x1 matrices
        assert abs(np.trace(exterior_power(T3_PROD, CLASSICAL, 1)) - 3) < 1e-9
        assert abs(act.lefschetz - (-1)) < 1e-9

    def test_identity_on_irrational_torus(self):
        f = em.TorusMap(((1, 0), (0, 1)), (0, 0))
        act = em.cohomology_action(T2_IRR, f)
        assert act.trace_integers == (1, 1)
        assert act.lefschetz_exact == 0

    def test_doubling_traces(self):
        act = em.cohomology_action(T3_MIX, DOUBLING)
        assert act.trace_integers == (1, 3, 2)
        assert act.lefschetz_exact == 0

    def test_translation_does_not_change_action(self):
        base = em.cohomology_action(T3_PROD, CLASSICAL)
        shifted = em.cohomology_action(
            T3_PROD,
            em.TorusMap(CLASSICAL.matrix, (Fraction(1, 3), Fraction(1, 5), 0)),
        )
        assert np.allclose(base.traces, shifted.traces)
        assert base.lefschetz_exact == shifted.lefschetz_exact

    def test_halfweight_twist_empties_harmonics(self):
        model = torus_model([(0,), (1,)])
        twist = em.BundleTwist(tg.SymbolicFrequency(((Fraction(1, 2),),)))
        f = em.TorusMap(((2, 0), (0, 1)), (0, 0))
        act = em.cohomology_action(model, f, twist)
        assert act.harmonic_mode_vec is None
        assert act.lefschetz == 0
        assert em.harmonic_dimensions(model, twist) == (0, 0)

    def test_integer_weight_twist_shifts_mode(self):
        twist = em.BundleTwist(tg.SymbolicFrequency(((1,),)))
        act = em.cohomology_action(T3_PROD, CLASSICAL, twist)
        assert act.harmonic_mode_vec == (0, 0, 1)
        assert abs(act.lefschetz - (-1)) < 1e-12
        assert em.harmonic_dimensions(T3_PROD, twist) == (1, 2, 1)

    def test_twist_with_translation_phase(self):
        twist = em.BundleTwist(tg.SymbolicFrequency(((1,),)))
        f = em.TorusMap(CLASSICAL.matrix, (0, 0, Fraction(1, 3)))
        act = em.cohomology_action(T3_PROD, f, twist)
        assert act.phase_turns == Fraction(1, 3)
        expected = -np.exp(2j * np.pi / 3)
        assert abs(act.lefschetz - expected) < 1e-12


class TestCochainScope:
    def test_certificate_distinguishes_basic_from_full(self):
        # a shear fixing the flow vector but not the flow covector is a
        # cochain map on flow-annihilated forms only
        shear = em.TorusMap(((3, 0, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
        cert = em.validate_equivariance(T3_MIX, shear)
        assert cert.cochain_on_basic and not cert.cochain_on_all
        cert2 = em.validate_equivariance(T3_PROD, CLASSICAL)
        assert cert2.cochain_on_basic and cert2.cochain_on_all

    def test_full_cochain_failure_witnessed_numerically(self):
        # on a non-annihilated mode the projected differential and the
        # pull-back commute precisely when the transpose fixes the direction
        shear = em.TorusMap(((3, 0, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))
        basis = np.asarray(bc.frame_for(T3_MIX).basis)
        A = np.array(shear.matrix, dtype=float)
        Mf = basis @ A.T @ basis.T
        witnessed = False
        for m in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
            m = np.array(m, dtype=float)
            after = basis @ (A.T @ m)     # wedge vector of D(pullback u)
            before = Mf @ (basis @ m)     # wedge vector of pullback(D u)
            if np.max(np.abs(after - before)) > 1e-9:
                witnessed = True
        assert witnessed
        # and on flow-annihilated modes the two always agree
        for m in bc.basic_modes(T3_MIX, 2):
            m = np.array(m, dtype=float)
            after = basis @ (A.T @ m)
            before = Mf @ (basis @ m)
            assert np.max(np.abs(after - before)) < 1e-10


class TestHarmonicCompressionRoute:
    def test_traces_match_the_frame_exterior_powers(self):
        # independent route: the trace of each exterior power of the float
        # frame restriction of A^T against the exact fiber traces
        for model, f in ((T3_PROD, CLASSICAL), (T3_MIX, DOUBLING)):
            act = em.cohomology_action(model, f)
            assert act.phase_turns == 0
            for q in range(model.n):
                W = exterior_power(model, f, q)
                assert abs(np.trace(W) - act.trace_integers[q]) < 1e-9


class TestHeatTraces:
    def test_alternating_sum_stable_in_s(self):
        for model, f, L in (
            (T3_PROD, CLASSICAL, -1.0),
            (T3_MIX, DOUBLING, 0.0),
            (T2_IRR, em.TorusMap(((1, 0), (0, 1)), (0, 0)), 0.0),
        ):
            s_values = (0.1, 1.0, 10.0)
            alts = em.alternating_heat_traces(model, f, s_values, cutoff=8)
            for s, alt in zip(s_values, alts):
                assert abs(alt - L) < 1e-8, (model, s, alt)

    def test_large_s_limit_is_harmonic_trace(self):
        act = em.cohomology_action(T3_PROD, CLASSICAL)
        traces = em.heat_damped_traces(T3_PROD, CLASSICAL, s=50.0, cutoff=6)
        for q, t in enumerate(traces):
            assert abs(t - act.traces[q]) < 1e-10

    def test_identity_alternating_zero_all_s(self):
        f = em.TorusMap(((1, 0), (0, 1)), (0, 0))
        for alt in em.alternating_heat_traces(T2_IRR, f, (0.05, 0.5, 5.0), 8):
            assert abs(alt) < 1e-12

    def test_sweep_shares_mode_data_and_matches_single_s(self, monkeypatch):
        s_values = (0.1, 1.0, 10.0)
        one_by_one = [em.alternating_heat_traces(T3_MIX, DOUBLING, (s,), 4)[0]
                      for s in s_values]
        calls = []
        validate = em.validate_equivariance
        monkeypatch.setattr(em, "validate_equivariance",
                            lambda *args: calls.append(args) or validate(*args))
        swept = em.alternating_heat_traces(T3_MIX, DOUBLING, s_values, 4)
        assert swept == one_by_one          # bit for bit
        assert len(calls) == 1


class TestHeatTraceMatrixOracle:
    @pytest.mark.parametrize("model,f", [
        (T3_PROD, CLASSICAL),
        (T3_PROD, em.TorusMap(((1, 0, 0), (0, 2, 0), (0, 0, 1)),
                              (Fraction(1, 3), 0, 0))),
    ], ids=["classical", "translated_diagonal"])
    def test_per_degree_traces_match_the_damped_diagonal(self, model, f):
        # the pull-back sends mode m to A^T m, so its diagonal over the
        # flow-annihilated sections within the cutoff lives on the modes A^T
        # fixes, each carrying its character phase times the exterior power
        # of the frame restriction; damp each such mode and sum
        cutoff, s = 2, 0.01
        A = np.array(f.matrix)
        fixed = [m for m in bc.basic_modes(model, cutoff)
                 if np.array_equal(A.T @ np.array(m), np.array(m))]
        for q in range(model.n):
            fiber = np.trace(exterior_power(model, f, q))
            trace = sum(
                np.exp(2j * np.pi * float(sum(Fraction(mi) * c for mi, c in
                                              zip(m, f.translation))))
                * fiber * math.exp(-s * 4 * math.pi**2 * sum(x * x for x in m))
                for m in fixed)
            expected = em.heat_damped_traces(model, f, s, cutoff)[q]
            assert abs(trace - expected) < 1e-10, (q, trace, expected)


class TestExactExteriorTraces:
    def test_against_brute_force_eigenvalues(self):
        # A preserves (0,0,1); horizontal spectrum is {eigenvalues} minus one 1
        ext = em.exact_exterior_traces(CLASSICAL.matrix)
        evals = np.linalg.eigvals(np.array(CLASSICAL.matrix, dtype=float))
        # remove one eigenvalue closest to 1
        idx = int(np.argmin(np.abs(evals - 1)))
        rest = np.delete(evals, idx)
        for q, e in enumerate(ext):
            total = sum(
                np.prod(c) for c in itertools.combinations(rest, q)
            )
            assert abs(total - e) < 1e-8


# ---------------------------------------------------------------------------
# The harmonic mode is the zero-eigenvalue point of the twisted mode lattice

LABELS = ("alpha", "beta")
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SCAN_BUDGET = 30000           # box points the oracle may test
small_rational = st.builds(Fraction, st.integers(-3, 3),
                           st.sampled_from([1, 1, 2, 3]))


def parallel_mode_scan(model, sigma, box):
    """Oracle: the modes of the box with ``m . v == sigma`` to which every
    coefficient column of ``v`` is parallel."""
    rows = model.v.constraint_rows()
    # clear each equation's denominators so the scan runs on integers
    dens = [math.lcm(*(a.denominator for a in row), s.denominator)
            for row, s in zip(rows, sigma)]
    int_rows = [[int(a * d) for a in row] for row, d in zip(rows, dens)]
    targets = [s * d for s, d in zip(sigma, dens)]
    found = []
    for m in itertools.product(range(-box, box + 1), repeat=model.n):
        if any(sum(a * mi for a, mi in zip(row, m)) != t
               for row, t in zip(int_rows, targets)):
            continue
        if all(row[i] * m[j] == row[j] * m[i]
               for row in int_rows for i in range(model.n) for j in range(i)):
            found.append(m)
    return found


@st.composite
def harmonic_mode_cases(draw):
    """A flow, a twist and a box holding every mode parallel to the flow
    that carries the twist weight.

    Periodic flows are ``lambda p`` with ``lambda = a + b alpha + c beta``
    (irrational speeds included) and weights ``t lambda |p|^2``, optionally
    disturbed; other flows are ``p + alpha q + beta r``."""
    n = draw(st.integers(2, 4))
    labels = LABELS[:draw(st.integers(1, 2))]
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    if draw(st.booleans()):
        p = draw(vec.filter(any))
        speed = draw(st.lists(small_rational, min_size=1 + len(labels),
                              max_size=1 + len(labels)).filter(any))
        rows = [tuple(c * x for c in speed) for x in p]
        t = draw(small_rational)
        sigma = [c * t * sum(x * x for x in p) for c in speed]
        if draw(st.booleans()):
            sigma[draw(st.integers(0, len(labels)))] += draw(small_rational)
    else:
        columns = [draw(vec) for _ in range(1 + len(labels))]
        rows = [tuple(Fraction(col[i]) for col in columns) for i in range(n)]
        m = draw(vec)
        sigma = [sum(a * mi for a, mi in zip(col, m)) for col in columns]
    v = tg.SymbolicFrequency(tuple(rows), labels)
    length = np.linalg.norm(v.float_values())
    assume(length > 1e-9)
    model = gm.FlatTorusModel(v)
    sigma = tuple(Fraction(s) for s in sigma)
    weight = tg.SymbolicFrequency((sigma,), labels)
    # a mode parallel to v has |m| |v| = |m . v| = |sigma|
    box = math.ceil(abs(weight.float_values()[0]) / length) + 1
    assume((2 * box + 1) ** n <= SCAN_BUDGET)
    return model, em.BundleTwist(weight), sigma, box


class TestHarmonicMode:
    @SETTINGS
    @given(harmonic_mode_cases())
    def test_against_the_parallel_mode_box_scan(self, case):
        model, twist, sigma, box = case
        found = parallel_mode_scan(model, sigma, box)
        assert len(found) <= 1
        assert em.harmonic_mode(model, twist) == (found[0] if found else None)

    def test_is_the_zero_eigenvalue_point_of_the_twisted_lattice(self):
        model = torus_model([(0, 2), (0, -2), (0, 4)], ("alpha",))
        twist = em.BundleTwist(tg.SymbolicFrequency(((0, -24),), ("alpha",)))
        m0 = em.harmonic_mode(model, twist)
        assert m0 == (-2, 2, -4)
        theta = bc.frame_for(model).theta
        zero = [m for m in em.twisted_invariant_modes(model, 4, twist)
                if abs(np.dot(m, m) - np.dot(m, theta) ** 2) < 1e-9]
        assert zero == [m0]


SWAP_SCENARIO = {
    "schema": 1, "name": "swap_irrational_speed_t2",
    "generators": [{"name": "alpha"}],
    "model": {"type": "flat_torus", "n": 2,
              "v": [{"rational": "1", "alpha": "1"},
                    {"rational": "1", "alpha": "1"}]},
    "map": {"matrix": [[0, 1], [1, 0]], "translation": ["0", "0"]},
    "twist": {"weight": {"rational": "2", "alpha": "2"}},
    "cutoffs": {"modes": 4},
}


def run_json(command, doc, directory):
    """Exit code and ``--json`` report of one command on a scenario."""
    path = pathlib.Path(directory) / "case.scenario"
    path.write_text(json.dumps(doc))
    json_path = pathlib.Path(directory) / "report.json"
    json_path.unlink(missing_ok=True)
    options = cli.options(json_path=str(json_path))
    code = cli.run(command, str(path), options, io.StringIO())
    report = json.loads(json_path.read_text()) if json_path.exists() else None
    return code, report


def test_swap_map_on_a_flow_at_an_irrational_speed_verifies(tmp_path):
    code, report = run_json("lhs", SWAP_SCENARIO, tmp_path)
    assert code == cli.EXIT_PASS
    assert report["lhs"]["harmonic_dimensions"] == [1, 1]
    assert report["lhs"]["value_text"] == "2"
    code, report = run_json("verify", SWAP_SCENARIO, tmp_path)
    assert code == cli.EXIT_PASS
    assert report["rhs"]["value_text"] == "2"
    assert report["comparison"]["discrepancy"] == 0.0


@st.composite
def scaled_twisted_maps(draw):
    """A twisted map on ``T^n`` (n = 2, 3) fixing the flow ``p`` and the
    covector ``p``, and a speed ``lambda = a + b alpha``."""
    n = draw(st.integers(2, 3))
    p = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    # A = I + K^T C K with K the integer kernel of p: A p = p = A^T p
    K = rl.integer_kernel([p])
    C = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n - 1,
                               max_size=n - 1), min_size=n - 1, max_size=n - 1))
    KtCK = rl.mat_mul(rl.mat_mul(rl.transpose(K), C), K)
    matrix = [[(i == j) + KtCK[i][j] for j in range(n)] for i in range(n)]
    translation = draw(st.lists(st.sampled_from(
        [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]),
        min_size=n, max_size=n))
    if draw(st.booleans()):
        sigma = draw(small_rational) * sum(x * x for x in p)
    else:
        sigma = draw(small_rational)
    speed = draw(st.tuples(small_rational, small_rational).filter(any))
    return p, matrix, translation, sigma, speed


def twisted_doc(p, matrix, translation, sigma, speed):
    a, b = speed

    def entry(x):
        return {"rational": str(a * x), "alpha": str(b * x)}
    return {
        "schema": 1, "name": "scaled_twisted",
        "generators": [{"name": "alpha"}],
        "model": {"type": "flat_torus", "n": len(p),
                  "v": [entry(x) for x in p]},
        "map": {"matrix": matrix,
                "translation": [str(c) for c in translation]},
        "twist": {"weight": entry(sigma)},
        "cutoffs": {"modes": 4},
    }


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scaled_twisted_maps())
def test_both_sides_depend_only_on_the_flow_direction(case):
    # L_{lambda T} = lambda L_T: scaling the flow and the twist weight by the
    # same speed leaves the harmonic complex, and the fixed orbits, alone
    p, matrix, translation, sigma, speed = case
    with tempfile.TemporaryDirectory() as directory:
        outcomes = []
        for lam in ((1, 0), speed):
            doc = twisted_doc(p, matrix, translation, sigma, lam)
            lhs_code, lhs = run_json("lhs", doc, directory)
            # verify reports the rhs section too, or is gated with rhs
            code, report = run_json("verify", doc, directory)
            outcomes.append((
                lhs_code, lhs and lhs["lhs"],
                report and (report["rhs"]["value_text"],
                            report["rhs"]["orbit_count"]),
                code,
            ))
    assert outcomes[0] == outcomes[1]
    # A^T fixes the flow covector too, so the two sides must agree
    assert outcomes[0][-1] != cli.EXIT_DISCREPANCY


def counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` through its module binding."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("command", ["lhs", "verify"])
@pytest.mark.parametrize("name", ["classical_t3", "twisted_unit_t3"])
def test_the_harmonic_side_computes_each_map_quantity_once_per_op(monkeypatch,
                                                                  name, command):
    # the traces are checked exactly, once
    counts = {key: counted(monkeypatch, owner, key) for owner, key in (
        (rl, "char_poly"), (em, "harmonic_mode"),
        (em, "_check_exterior_traces"))}
    path = str(SCENARIOS / f"{name}.scenario")
    assert cli.run(command, path, stream=io.StringIO()) == cli.EXIT_PASS
    assert {key: len(calls) for key, calls in counts.items()} == {
        "char_poly": 1, "harmonic_mode": 1, "_check_exterior_traces": 1}


def test_an_empty_harmonic_space_checks_no_traces(monkeypatch):
    calls = counted(monkeypatch, em, "_check_exterior_traces")
    path = str(SCENARIOS / "twisted_halfweight_t2.scenario")
    assert cli.run("lhs", path, stream=io.StringIO()) == cli.EXIT_PASS
    assert calls == []


@pytest.mark.parametrize("name", ["twisted_unit_t3", "twisted_halfweight_t2"])
def test_the_harmonic_side_and_the_heat_sweep_run_no_smith_form(monkeypatch,
                                                                 name):
    # lattice points come from Hermite forms: only the localized side's
    # congruences modulo one count torsion with a Smith form
    scenario = cli.load_scenario(SCENARIOS / f"{name}.scenario")
    bc.basic_modes.cache_clear()
    calls = counted(monkeypatch, rl, "snf_with_transforms")
    cli._lhs_sections(scenario)
    em.alternating_heat_traces(scenario.model, scenario.map, scenario.heat_s,
                               scenario.cutoff, scenario.twist)
    assert calls == []
