"""The localized side computes map-level data once per map.

Every ingredient of a fixed orbit's term except the orbit itself (fiber
traces, the conormal determinant, the lifted closure, the isotropy preimage,
its complement, the Haar mass and the sheet count) depends only on the map
and the isotropy type, so ``lefschetz_rhs`` computes it once and evaluates
each orbit against it.  These tests pin the reports of three multi-orbit
maps, count the map-level calls, check that the orbits of one class share
one term object, and check that every batched contribution equals
``orbit_contribution`` called on its own.
"""

import hashlib
import io
import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equilef import fixed_point_formula as fpf
from equilef import geometry_models as gm
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.endomorphism import (BundleTwist, SpherePhaseMap, TorusMap,
                                  exact_exterior_traces)
from equilef.errors import InfiniteFixedSet, NonTransverse

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
sys.path.insert(0, str(ROOT / "tools"))

from side_routes import clear_caches  # noqa: E402


def torus_doc(name, matrix, translation, twist_weight=None):
    n = len(matrix)
    doc = {
        "schema": 1,
        "name": name,
        "model": {"type": "flat_torus", "n": n,
                  "v": ["0"] * (n - 1) + ["1"]},
        "map": {"matrix": matrix, "translation": translation},
        "cutoffs": {"modes": 3},
    }
    if twist_weight is not None:
        doc["twist"] = {"weight": twist_weight}
    return doc


CASES = {
    # 16 orbits: det(diag(4, 4)) on the base
    "diag55_t3": torus_doc(
        "diag55_t3", [[5, 0, 0], [0, 5, 0], [0, 0, 1]], ["0", "0", "0"]),
    # 6 orbits with a twist; the shear's last row is the identity, so every
    # g0 is (0, 0, 4/5): all six share one twist phase and one term, and
    # the report lists them as one class of count 6
    "twisted_shear_t3": torus_doc(
        "twisted_shear_t3", [[3, 1, 0], [0, 4, 0], [0, 0, 1]],
        ["1/3", "0", "1/5"], twist_weight="1"),
    # 8 orbits: the base block minus the identity has Smith form (1, 2, 4)
    "two_factors_t4": torus_doc(
        "two_factors_t4",
        [[2, 1, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [1, 0, 2, 1]],
        ["1/2", "0", "1/3", "1/7"]),
}

# (command, case) -> (exit code, text sha256, json sha256), captured before
# the map-level data was shared between orbits; the two ``verify`` digests
# were refreshed when the heat sweep took the exact integer fiber traces
# (``heat_traces.max_drift`` went to 0.0, nothing else moved); all six were
# refreshed when ``fixed_orbits`` became a list of orbit classes and the
# ``sphere_slices`` convention named the pair-stratum test; the six JSON
# digests were refreshed when the JSON file lost its indentation
GOLDEN = {
    ("rhs", "diag55_t3"): (0, "da7313a2b05ed13adaf4641994b2511fb19c950ea8780b997c7819933a696134", "dcc78111b4735ae03f09479245b0edf9bba9714f3046a199d288b23416db1aa2"),
    ("verify", "diag55_t3"): (0, "b836f90009567ad676048748bfa83ed2e56155e01773126f3af04a4ed1b4b374", "287e24a2c8c3923f726db7052483849ba15d16848322731bec03db9df6909144"),
    ("rhs", "twisted_shear_t3"): (0, "74cb1add2383438f9911dec6fb5ea92f4286e2100c81d95867539dedf022c4d5", "d1d3a11d66fc2fbdf59b79eb48fa4082d5358e9e20ed14ff587d157b5663a5a8"),
    ("verify", "twisted_shear_t3"): (0, "93d06c865eeb8b62174fdbae368fd29bd901e6162f0b0581057686cb68a28c0b", "4459083f976d31776721764a7468faae910a7d5af39911eeedf414877765e71c"),
    ("rhs", "two_factors_t4"): (0, "b310ed8dfe217ac2c175101403c920f3ec5c529fb53b83cefa5b09afde27bfae", "2e757da7949c9d6eccb93d90e8d2a3458efcba212591206e60ba2c20d3d64005"),
    ("verify", "two_factors_t4"): (0, "6454b1d404e2f96bc1c17aa6fe438788ad6fc46c3f8a0767c633cfa9cee879ef", "1d3b0a647640be9588fab0e04716f3f68362fee2be99c893db1eb2d474b643f3"),
}


def report_digests(command, doc, tmp_path):
    scenario = tmp_path / f"{doc['name']}.scenario"
    scenario.write_text(json.dumps(doc, indent=2))
    json_path = tmp_path / f"{command}.json"
    stream = io.StringIO()
    code = cli.run(command, str(scenario), cli.options(json_path=str(json_path)),
                   stream)
    return (code, hashlib.sha256(stream.getvalue().encode()).hexdigest(),
            hashlib.sha256(json_path.read_bytes()).hexdigest())


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_multi_orbit_report_digest(command, name, tmp_path):
    assert report_digests(command, CASES[name], tmp_path) == GOLDEN[(command, name)]


def test_map_level_data_is_built_once_per_map(monkeypatch):
    model = cli.parse_scenario(CASES["diag55_t3"]).model
    f = TorusMap(((5, 0, 0), (0, 5, 0), (0, 0, 1)), (0, 0, 0))
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("isotropy_preimage", "complementary_subgroup", "haar_factor",
                 "sheet_count_rows"):
        counting(tg, name)
    counting(fpf, "orbit_through")
    counting(fpf.rl, "char_poly")
    rhs = fpf.lefschetz_rhs(model, f)
    assert len(rhs.contributions) == 16
    assert rhs.value_exact == 16
    assert calls == {"isotropy_preimage": 1, "complementary_subgroup": 1,
                     "haar_factor": 1, "sheet_count_rows": 1}
    # no orbit goes through ``orbit_through``, and the fixed-point side never
    # touches the characteristic polynomial the harmonic side uses


def test_sphere_congruence_solves_do_not_grow_with_isotropy_components(
        monkeypatch):
    # the pole of weight w has w isotropy components; each isotropy type and
    # its preimage is one congruence system whatever that count is
    calls = []
    original = fpf.rl.solve_congruences

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(fpf.rl, "solve_congruences", counting)

    def solves(w):
        calls.clear()
        model = gm.WeightedSphereModel(tg.SymbolicFrequency(((1,), (w,))))
        rhs = fpf.lefschetz_rhs(model, SpherePhaseMap((Fraction(1, 4), 0)),
                                fibers="scalar")
        assert abs(rhs.value - (w + 1) / 2) < 1e-6
        return len(calls)

    assert solves(401) == solves(7)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_twisted_map_runs_one_smith_form_whatever_its_orbit_count(
        monkeypatch, k):
    # each orbit's lift of g0 into the lifted closure solves the one system
    # of the lift's first n coordinates, factored once per map: the Smith
    # forms are those of the fixed-orbit congruences, the isotropy
    # preimage, the sheet count and the lift, for 1, 4 or 16 orbits
    scenario = cli.load_scenario(SCENARIOS / "twisted_unit_t3.scenario")
    f = TorusMap(((k, 0, 0), (0, k, 0), (0, 0, 1)), scenario.map.translation)
    calls = []
    original = fpf.rl.snf_with_transforms

    def counting(M):
        calls.append(M)
        return original(M)
    monkeypatch.setattr(fpf.rl, "snf_with_transforms", counting)
    clear_caches()
    rhs = fpf.lefschetz_rhs(scenario.model, f, twist=scenario.twist)
    assert len(rhs.contributions) == (k - 1) ** 2
    assert len(calls) == 4


def test_an_untwisted_map_solves_each_isotropy_system_once(monkeypatch):
    # untwisted, the lifted closure is the model's group and the isotropy
    # preimage is the orbit's own isotropy, so the report's component count
    # and the term read one solution
    seen = []
    original = tg.SubtorusGroup.parameters_with

    def counting(group, coords, values):
        seen.append((id(group), tuple(coords), tuple(values)))
        return original(group, coords, values)
    monkeypatch.setattr(tg.SubtorusGroup, "parameters_with", counting)
    for name in ("classical_t3", "diag23_t3", "negation_t4"):
        seen.clear()
        clear_caches()
        scenario = cli.load_scenario(SCENARIOS / f"{name}.scenario")
        rhs, _ = cli._rhs_sections(scenario)
        orbit = rhs.contributions[0].orbit
        assert tg.isotropy_preimage(scenario.model.group,
                                    orbit.isotropy) is orbit.isotropy
        assert len(seen) == len(set(seen)) == 1, name


def same_contribution(lone, batched):
    """A lone call's contribution equals a batched one field by field.  Each
    call owns its own context, so the two terms are distinct objects and are
    compared by value."""
    return ((lone.orbit, lone.g0_numerators, lone.dets)
            == (batched.orbit, batched.g0_numerators, batched.dets)
            and vars(lone.term) == vars(batched.term))


T3_E3 = gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (0,), (1,))))


@pytest.mark.parametrize("k", [2, 3, 5, 11])
def test_an_untwisted_torus_map_gives_every_orbit_one_term(k):
    # diag(k, k, 1) on T^3 has (k - 1)^2 fixed orbits, 1, 4, 16 or 100, all
    # with one isotropy type and one component datum: one OrbitTerm object,
    # and the report's one orbit class counts them all
    f = TorusMap(((k, 0, 0), (0, k, 0), (0, 0, 1)), (0, 0, 0))
    rhs = fpf.lefschetz_rhs(T3_E3, f)
    term = rhs.contributions[0].term
    assert isinstance(term, fpf.OrbitTerm)
    assert len(rhs.contributions) == (k - 1) ** 2
    assert all(contrib.term is term for contrib in rhs.contributions)
    classes = cli._orbit_classes(rhs.contributions)
    assert [entry["count"] for entry in classes] == [(k - 1) ** 2]


@pytest.mark.parametrize("matrix,translation,counts", [
    # the shear's last row is the identity: one twist phase for all six
    (((3, 1, 0), (0, 4, 0), (0, 0, 1)), (Fraction(1, 3), 0, Fraction(1, 5)),
     [6]),
    (((3, 1, 0), (0, 4, 0), (0, 1, 1)), (0, 0, 0), [2, 2, 2]),
    (((5, 0, 0), (0, 5, 0), (2, 0, 1)), (0, 0, Fraction(1, 5)), [8, 8]),
])
def test_a_twisted_map_has_one_term_per_orbit_class(matrix, translation, counts):
    # the twist phase tells the classes apart; each class's orbits hold its
    # one term, and no two classes hold the same one
    scenario = cli.load_scenario(SCENARIOS / "twisted_unit_t3.scenario")
    rhs = fpf.lefschetz_rhs(scenario.model, TorusMap(matrix, translation),
                            twist=scenario.twist)
    classes = cli._orbit_classes(rhs.contributions)
    assert [entry["count"] for entry in classes] == counts
    # an OrbitTerm hashes by identity
    assert len({contrib.term for contrib in rhs.contributions}) == len(classes)


def test_per_orbit_cost_does_not_scale_with_the_orbit_count(monkeypatch):
    # the base points come from one solve operator per map, the term is
    # assembled once per distinct component data, and an untwisted torus
    # orbit never evaluates a preimage element
    calls = {"echelon_solve": 0, "PerDegreeData": 0,
             "element_numerators": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(fpf.rl, "echelon_solve")
    counting(fpf, "PerDegreeData")
    counting(tg.SubtorusGroup, "element_numerators")

    def rhs(k):
        model = gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (0,), (1,))))
        f = TorusMap(((k, 0, 0), (0, k, 0), (0, 0, 1)), (0, 0, 0))
        for name in calls:
            calls[name] = 0
        clear_caches()
        result = fpf.lefschetz_rhs(model, f)
        assert result.value_exact == (k - 1) ** 2
        return len(result.contributions), dict(calls)

    one, one_calls = rhs(2)
    sixteen, sixteen_calls = rhs(5)
    assert (one, sixteen) == (1, 16)
    assert sixteen_calls["echelon_solve"] == one_calls["echelon_solve"]
    assert sixteen_calls["PerDegreeData"] == 3       # once per degree of T^3
    assert sixteen_calls["element_numerators"] == 0


@pytest.mark.parametrize("case", ["untwisted", "translated", "twisted"])
def test_the_fraction_count_does_not_grow_with_the_orbit_count(monkeypatch, case):
    # T^3 maps diag(k, k, 1) with (k - 1)^2 fixed orbits: every orbit's base
    # point, g0 and report strings are carried in integer numerators, so
    # the localized side and the report's orbit classes build as many
    # Fractions at 1 orbit as at 100 (32 untwisted and 13 twisted when this
    # was written, all of them map-level)
    twisted = cli.load_scenario(SCENARIOS / "twisted_unit_t3.scenario")
    model, twist = gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (0,), (1,)))), None
    translation = (0, 0, 0)
    if case == "translated":
        translation = (0, Fraction(1, 2), Fraction(1, 3))
    elif case == "twisted":
        model, twist, translation = (twisted.model, twisted.twist,
                                     twisted.map.translation)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return original(cls, *args, **kwargs)

    def fractions_built(k):
        f = TorusMap(((k, 0, 0), (0, k, 0), (0, 0, 1)), translation)
        clear_caches()
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        rhs = fpf.lefschetz_rhs(model, f, twist=twist)
        cli._orbit_classes(rhs.contributions)
        monkeypatch.undo()
        assert len(rhs.contributions) == (k - 1) ** 2
        return len(built)

    counts = [fractions_built(k) for k in (2, 3, 5, 11)]
    assert counts[0] > 0 and counts == [counts[0]] * 4


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_batched_sphere_contributions_equal_lone_ones(data):
    # the memo key of a sphere term carries float determinants; a batched
    # term must still equal the one a lone call assembles, field by field
    k = data.draw(st.integers(2, 3))
    weights = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    phases = data.draw(st.lists(st.builds(Fraction, st.integers(0, 10), st.just(11)),
                                min_size=k, max_size=k))
    twist_weight = data.draw(st.sampled_from([None, 1, 2, 3]))
    model = gm.WeightedSphereModel(tg.SymbolicFrequency(tuple((w,) for w in weights)))
    f = SpherePhaseMap(phases)
    twist = (None if twist_weight is None
             else BundleTwist(tg.SymbolicFrequency(((twist_weight,),))))
    try:
        rhs = fpf.lefschetz_rhs(model, f, fibers="scalar", twist=twist)
    except (InfiniteFixedSet, NonTransverse):
        assume(False)
    for contrib in rhs.contributions:
        assert same_contribution(fpf.orbit_contribution(
            contrib.orbit, f, fibers="scalar", twist=twist), contrib)


def unimodular(draw, n):
    """A random unimodular integer matrix and its inverse, as a product of
    elementary row operations."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    U_inv = [row[:] for row in U]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([-1, 1, 2]))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in U_inv:
            row[j] -= c * row[i]
    return U, U_inv


def matmul(A, B):
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(len(B[0]))]
            for row in A]


@st.composite
def equivariant_maps(draw, dims=(3, 4)):
    """``(model, f)``: a flow conjugated from ``(0, ..., 0, 1)`` (or, on T^4,
    from ``(0, 0, 1, alpha)``) by a random unimodular ``U``, and the
    conjugated map ``[[B, 0], [W, I]]`` with ``det(B - I) != 0``."""
    n = draw(st.sampled_from(dims))
    fiber = draw(st.sampled_from([1, 2] if n == 4 else [1]))
    c = n - fiber
    B = [[draw(st.integers(-2, 3)) for _ in range(c)] for _ in range(c)]
    W = [[draw(st.integers(-1, 1)) for _ in range(c)] for _ in range(fiber)]
    A = [B[i] + [0] * fiber for i in range(c)]
    A += [W[i] + [int(i == j) for j in range(fiber)] for i in range(fiber)]
    minus_identity = [[B[i][j] - (i == j) for j in range(c)] for i in range(c)]
    assume(0 < abs(fpf.rl.det_int(minus_identity)) <= 24)
    U, U_inv = unimodular(draw, n)
    A = matmul(matmul(U, A), U_inv)
    labels = ("alpha",) if fiber == 2 else ()
    axis = [[Fraction(0)] * (1 + len(labels)) for _ in range(n)]
    axis[c][0] = Fraction(1)
    if fiber == 2:
        axis[c + 1][1] = Fraction(1)
    v = [[sum(U[i][k] * axis[k][col] for k in range(n)) for col in range(1 + len(labels))]
         for i in range(n)]
    model = gm.FlatTorusModel(tg.SymbolicFrequency(v, labels))
    translation = [Fraction(draw(st.integers(0, 5)), draw(st.sampled_from([1, 2, 3, 5])))
                   for _ in range(n)]
    return model, TorusMap(A, translation)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=equivariant_maps(), weight=st.sampled_from([None, "1", "1/2", "2"]))
def test_batched_contributions_equal_lone_ones(data, weight):
    model, f = data
    twist = None
    if weight is not None:
        labels = model.v.generator_labels
        row = (Fraction(weight),) + (Fraction(0),) * len(labels)
        twist = BundleTwist(tg.SymbolicFrequency((row,), labels))
    rhs = fpf.lefschetz_rhs(model, f, twist=twist)
    for contrib in rhs.contributions:
        # field by field: orbit, g0, dets and the term's fields
        assert same_contribution(
            fpf.orbit_contribution(contrib.orbit, f, twist=twist), contrib)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_principal_minor_traces_agree_with_the_characteristic_polynomial(data):
    # the fixed-orbit side's fiber traces (principal minors) and the harmonic
    # side's (characteristic polynomial deflated at 1) are independent routes
    n = data.draw(st.integers(2, 5))
    B = [[data.draw(st.integers(-3, 3)) for _ in range(n - 1)] for _ in range(n - 1)]
    w = [data.draw(st.integers(-2, 2)) for _ in range(n - 1)]
    A = [row + [0] for row in B] + [w + [1]]
    U, U_inv = unimodular(data.draw, n)
    A = matmul(matmul(U, A), U_inv)
    assert fpf._principal_minor_traces(A) == exact_exterior_traces(A)


# ---------------------------------------------------------------------------
# one pass per isotropy component, one owner per map-level object


def counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` through its module binding."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def sphere(weights):
    return gm.WeightedSphereModel(tg.SymbolicFrequency(tuple((w,) for w in weights)))


HALF_TWIST = BundleTwist(tg.SymbolicFrequency(((Fraction(1, 2),),)))


def test_a_twisted_sphere_lifts_its_closure_once(monkeypatch):
    # two isotropy types (the two poles) read the one lifted closure
    calls = counted(monkeypatch, tg, "_check_projection_onto")
    clear_caches()
    rhs = fpf.lefschetz_rhs(sphere((1, 2)), SpherePhaseMap((Fraction(1, 4), 0)),
                            fibers="scalar", twist=HALF_TWIST)
    assert len({c.orbit.isotropy for c in rhs.contributions}) == 2
    assert len(calls) == 1


# the poles of weights (1, 7) have 1 and 7 isotropy components; the half
# twist doubles each in the preimage
@pytest.mark.parametrize("twist,total", [(None, 8), (HALF_TWIST, 16)])
def test_sphere_turns_are_evaluated_once_per_preimage_component(monkeypatch, twist,
                                                                total):
    calls = counted(monkeypatch, fpf, "_sphere_rotation_turns")
    model = sphere((1, 7))
    clear_caches()
    rhs = fpf.lefschetz_rhs(model, SpherePhaseMap((Fraction(1, 4), 0)),
                            fibers="scalar", twist=twist)
    hat = tg.closure_group(model.weights, *(() if twist is None else (twist.weight,)))
    components = [tg.isotropy_preimage(hat, c.orbit.isotropy).component_count
                  for c in rhs.contributions]
    assert sum(components) == total
    assert len(calls) == sum(components)


def test_the_base_map_is_solved_once_per_rhs(monkeypatch):
    # c back-substitutions build the base-point operator of the
    # c-dimensional base and one lattice-coordinate read solves all the base
    # map's rows; the fixed-orbit congruences and the conormal determinant
    # share that one base map
    solves = counted(monkeypatch, fpf.rl, "echelon_solve")
    reads = counted(monkeypatch, fpf.rl, "lattice_coordinates")
    model = gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (0,), (1,))))
    f = TorusMap(((3, 1, 0), (1, 2, 0), (0, 0, 1)), (0, Fraction(1, 2), 0))
    clear_caches()
    rhs = fpf.lefschetz_rhs(model, f)
    assert rhs.value_exact is not None
    c = len(model.base_lattice)
    assert (len(solves), len(reads)) == (c, 1)
    info = gm.induced_base_map.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_the_base_map_takes_one_hermite_form_per_miss(monkeypatch):
    # the rows of L A on the three-dimensional base of T^4 are all read off
    # one Hermite form of L; a cache hit takes none
    model = gm.FlatTorusModel(tg.SymbolicFrequency(((0,), (0,), (0,), (1,))))
    f = TorusMap(((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)),
                 (0, 0, 0, 0))
    clear_caches()
    assert len(model.base_lattice) == 3
    forms = counted(monkeypatch, fpf.rl, "hnf_with_transform")
    first = gm.induced_base_map(model, f)
    assert len(forms) == 1
    assert gm.induced_base_map(model, f) == first
    info = gm.induced_base_map.cache_info()
    assert (info.misses, info.hits, len(forms)) == (1, 1, 1)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=equivariant_maps())
def test_torus_check_transversality_is_the_batched_scalar_contribution(data):
    # the lone check's g0 and determinants are those of the batched pass
    model, f = data
    rhs = fpf.lefschetz_rhs(model, f, fibers="scalar")
    for contrib in rhs.contributions:
        assert same_contribution(fpf.check_transversality(contrib.orbit, f),
                                 contrib)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_sphere_check_transversality_is_the_batched_scalar_contribution(data):
    k = data.draw(st.integers(2, 3))
    weights = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    phases = data.draw(st.lists(st.builds(Fraction, st.integers(0, 10), st.just(11)),
                                min_size=k, max_size=k))
    f = SpherePhaseMap(phases)
    try:
        rhs = fpf.lefschetz_rhs(sphere(weights), f, fibers="scalar")
    except (InfiniteFixedSet, NonTransverse):
        assume(False)
    for contrib in rhs.contributions:
        cert = fpf.check_transversality(contrib.orbit, f)
        assert same_contribution(cert, contrib)
        assert len(cert.dets) == contrib.orbit.isotropy.component_count


def test_twisted_sphere_dets_list_every_preimage_component():
    model = sphere((1, 2))
    f = SpherePhaseMap((Fraction(1, 4), 0))
    rhs = fpf.lefschetz_rhs(model, f, fibers="scalar", twist=HALF_TWIST)
    hat = tg.closure_group(model.weights, HALF_TWIST.weight)
    counts = []
    for contrib in rhs.contributions:
        pre = tg.isotropy_preimage(hat, contrib.orbit.isotropy)
        counts.append(len(contrib.dets))
        assert len(contrib.dets) == pre.component_count
        assert all(type(d) is float for d in contrib.dets)
        # twice the base isotropy's components: the half-weight doubles them
        assert pre.component_count == 2 * contrib.orbit.isotropy.component_count
        assert same_contribution(fpf.orbit_contribution(
            contrib.orbit, f, fibers="scalar", twist=HALF_TWIST), contrib)
    assert sorted(counts) == [2, 4]
