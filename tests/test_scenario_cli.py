"""Scenario files, commands, exit codes, report determinism."""

import io
import json
import math
import pathlib
import time

import pytest

from equilef import _ratlin as rl
from equilef import averaging as av
from equilef import basic_complex as bc
from equilef import mollifier_lab as ml
from equilef import scenario_cli as cli
from equilef import torus_group as tg
from equilef.errors import SchemaError

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def run(command, name, **opts):
    stream = io.StringIO()
    code = cli.run(command, str(SCENARIOS / f"{name}.scenario"),
                   cli.options(**opts), stream)
    return code, stream.getvalue()


class TestVerify:
    def test_classical_pass(self):
        code, text = run("verify", "classical_t3")
        assert code == cli.EXIT_PASS
        assert "exact        : -1" in text or "exact : -1" in text.replace("  ", " ")
        assert "pass         : True" in text

    @pytest.mark.parametrize("name", [
        "doubling_t3", "identity_irrational_t2", "shifted_classical_t3",
        "diag23_t3", "negation_t4", "twisted_halfweight_t2",
        "twisted_unit_t3", "nofix_translation_t3",
    ])
    def test_suite_passes(self, name):
        code, _ = run("verify", name)
        assert code == cli.EXIT_PASS

    def test_translation_gated_exit_2(self):
        code, text = run("verify", "translation_only_t3")
        assert code == cli.EXIT_GATE
        assert "InfiniteFixedSet" in text

    def test_verify_rejects_sphere(self):
        code, text = run("verify", "s3_rational")
        assert code == cli.EXIT_USAGE


class TestValidate:
    def test_ok(self):
        code, text = run("validate", "classical_t3")
        assert code == cli.EXIT_PASS

    def test_bad_matrix_prints_violated_equation(self):
        code, text = run("validate", "bad_matrix")
        assert code == cli.EXIT_DISCREPANCY
        assert "A v != v" in text

    def test_float_rejected_exit_64(self):
        code, text = run("validate", "bad_float")
        assert code == cli.EXIT_USAGE
        assert "schema error" in text
        assert "$.model.v[0]" in text

    def test_unknown_command(self):
        code, _ = run("frobnicate", "classical_t3")
        assert code == cli.EXIT_USAGE

    def test_missing_file(self):
        stream = io.StringIO()
        options = cli.options()
        code = cli.run("verify", "/nonexistent/xyz.scenario", options, stream)
        assert code == cli.EXIT_USAGE

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "broken.scenario"
        bad.write_text('{"schema": 1,,}')
        stream = io.StringIO()
        options = cli.options()
        code = cli.run("verify", str(bad), options, stream)
        assert code == cli.EXIT_USAGE
        assert "line" in stream.getvalue()


class TestRhs:
    def test_sphere_scalar_value(self):
        code, text = run("rhs", "s3_rational")
        assert code == cli.EXIT_PASS
        assert "0.75" in text

    def test_s5_gated(self):
        code, text = run("rhs", "s5_irrational")
        assert code == cli.EXIT_GATE

    def test_sphere_twist_value(self):
        code, text = run("rhs", "s3_twisted")
        assert code == cli.EXIT_PASS
        assert "0.25" in text
        assert "lifted" in text  # the lifted group is serialized

    def test_determinant_too_small_to_invert_exits_1(self, tmp_path, capsys):
        # the one per-component error a sphere command can reach: phases
        # (1/10^200, 0) on S^3 pass the pair-stratum gate, and the pole with
        # support (0,) turns coordinate 1 by -2/10^200
        doc = json.loads((SCENARIOS / "s3_rational.scenario").read_text())
        doc["map"]["phases"] = ["1/1" + "0" * 200, "0"]
        path = tmp_path / "underflow.scenario"
        path.write_text(json.dumps(doc))
        code = cli.main(["rhs", str(path)])
        assert code == cli.EXIT_DISCREPANCY
        assert capsys.readouterr() == (
            "error: the conormal determinant 0 of the orbit with support (0,) "
            "is too small to invert in floating point (coordinate 1 turns by "
            "-2e-200)\n", "")

    def test_an_exact_value_too_long_to_print_exits_1(self, tmp_path):
        # each translation is accepted (1453 characters), but (A - I)^-1
        # mixes the three denominators into a base point past Python's
        # 4300-digit string limit
        doc = {
            "schema": 1, "name": "long_denominators",
            "model": {"type": "flat_torus", "n": 4, "v": ["0", "0", "0", "1"]},
            "map": {"matrix": [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]],
                    "translation": [f"1/{10**1450 + k}" for k in (1, 3, 7)] + ["0"]},
        }
        for command in ("rhs", "verify"):
            start = time.perf_counter()
            code, text = run_doc(tmp_path, command, doc)
            assert time.perf_counter() - start < 1.0
            assert code == cli.EXIT_DISCREPANCY
            assert text == "error: an exact value in the report has more than 4300 digits\n"
        for command in ("validate", "lhs"):
            assert run_doc(tmp_path, command, doc)[0] == cli.EXIT_PASS


class TestOtherCommands:
    def test_lhs(self):
        code, text = run("lhs", "doubling_t3")
        assert code == cli.EXIT_PASS
        assert "harmonic_dimensions" in text

    def test_spectrum(self):
        code, text = run("spectrum", "identity_irrational_t2", cutoff=4)
        assert code == cli.EXIT_PASS
        assert "eigenvalue" in text

    @pytest.mark.parametrize("name,cutoff", [
        ("classical_t3", 3), ("identity_irrational_t2", 4), ("negation_t4", 2)])
    def test_spectrum_degrees_are_the_class_table_times_the_fiber_rank(
            self, tmp_path, name, cutoff):
        json_path = tmp_path / "spectrum.json"
        code, _ = run("spectrum", name, cutoff=cutoff, json_path=str(json_path))
        assert code == cli.EXIT_PASS
        tables = json.loads(json_path.read_text())["spectrum"]["tables"]
        model = cli.load_scenario(SCENARIOS / f"{name}.scenario").model
        classes = bc.basic_spectrum(model, cutoff)
        assert sorted(tables) == [f"degree_{q}" for q in range(model.n)]
        for q in range(model.n):
            assert tables[f"degree_{q}"] == [
                {"eigenvalue": cli._f(lam),
                 "multiplicity": count * math.comb(model.n - 1, q)}
                for lam, count in classes]

    def test_spectrum_lists_no_mode(self, monkeypatch):
        def listing(*args):
            raise AssertionError("spectrum listed the mode lattice")

        bc.basic_modes.cache_clear()
        monkeypatch.setattr(rl, "lattice_box_points", listing)
        code, _ = run("spectrum", "negation_t4", cutoff=3)
        assert code == cli.EXIT_PASS
        info = bc.basic_modes.cache_info()
        assert (info.misses, info.hits) == (0, 0)

    def test_spectrum_counts_a_box_too_large_to_list(self, tmp_path):
        # T^9 with v = e_9: the basic modes are the 17^8 points of the box in
        # the first eight coordinates, whose norms a power of the one-axis
        # theta series counts
        n, cutoff = 9, 8
        doc = {"schema": 1, "name": "vertical_t9",
               "model": {"type": "flat_torus", "n": n,
                         "v": ["0"] * (n - 1) + ["1"]},
               "map": {"matrix": [[int(i == j) for j in range(n)]
                                  for i in range(n)],
                       "translation": ["0"] * n}}
        path = tmp_path / "vertical_t9.scenario"
        path.write_text(json.dumps(doc))
        json_path = tmp_path / "spectrum.json"
        options = cli.options(cutoff=cutoff, json_path=str(json_path))
        code = cli.run("spectrum", str(path), options, io.StringIO())
        assert code == cli.EXIT_PASS
        series = {0: 1}
        for _ in range(n - 1):
            power = {}
            for norm, count in series.items():
                for a in range(-cutoff, cutoff + 1):
                    power[norm + a * a] = power.get(norm + a * a, 0) + count
            series = power
        table = json.loads(json_path.read_text())["spectrum"]["tables"]["degree_0"]
        assert table == [
            {"eigenvalue": cli._f(round(4.0 * math.pi**2 * norm, 12)),
             "multiplicity": count}
            for norm, count in sorted(series.items())]
        assert sum(row["multiplicity"] for row in table) == 17**8 == 6975757441

    def test_avcheck(self):
        code, text = run("avcheck", "identity_irrational_t2")
        assert code == cli.EXIT_PASS

    def test_avcheck_filter_keeping_unannihilated_modes_exits_1(self, monkeypatch):
        # dropping a tangent row makes the filter keep modes the flow moves;
        # the flow-route check must fail the verdict, not raise
        basis = tg.SubtorusGroup.complement_basis
        monkeypatch.setattr(tg.SubtorusGroup, "complement_basis",
                            lambda group: basis(group)[:-1])
        code, text = run("avcheck", "classical_t3")
        assert code == cli.EXIT_DISCREPANCY
        assert "pass : False" in text

    def test_avcheck_non_idempotent_filter_exits_1(self, monkeypatch):
        mask = av.averaging_mask
        monkeypatch.setattr(av, "averaging_mask",
                            lambda group, modes: 0.5 * mask(group, modes))
        code, text = run("avcheck", "classical_t3")
        assert code == cli.EXIT_DISCREPANCY

    def test_mollifier_grid_too_coarse_exit_1(self, tmp_path):
        src = json.loads((SCENARIOS / "mollifier_doubling_t2.scenario").read_text())
        src["mollifier"]["k_list"] = [64]
        small = tmp_path / "coarse.scenario"
        small.write_text(json.dumps(src))
        stream = io.StringIO()
        options = cli.options(grid=64)
        code = cli.run("mollifier", str(small), options, stream)
        assert code == cli.EXIT_DISCREPANCY
        assert "GridTooCoarse" in stream.getvalue() or "bump" in stream.getvalue()

    @pytest.mark.parametrize("k_list,grid", [([1], None), ([2], None),
                                              ([8], 64)])
    def test_mollifier_resolved_grids_pass(self, tmp_path, k_list, grid):
        # each grid resolves the bump; half of it (8 -> 4, 24 -> 12,
        # 64 -> 32) would not, and no half-resolution pass runs
        src = json.loads((SCENARIOS / "mollifier_doubling_t2.scenario").read_text())
        src["mollifier"]["k_list"] = k_list
        small = tmp_path / "moll.scenario"
        small.write_text(json.dumps(src))
        stream = io.StringIO()
        options = cli.options(grid=grid)
        code = cli.run("mollifier", str(small), options, stream)
        assert code == cli.EXIT_PASS, stream.getvalue()

    def test_mollifier_small(self, tmp_path):
        # shrink the sweep through the CLI grid option for speed
        src = json.loads((SCENARIOS / "mollifier_doubling_t2.scenario").read_text())
        src["mollifier"]["k_list"] = [8, 16]
        small = tmp_path / "moll.scenario"
        small.write_text(json.dumps(src))
        stream = io.StringIO()
        options = cli.options()
        code = cli.run("mollifier", str(small), options, stream)
        assert code == cli.EXIT_PASS
        assert "converged" in stream.getvalue()


class TestReports:
    def test_json_and_text_deterministic(self, tmp_path):
        j1 = tmp_path / "a.json"
        j2 = tmp_path / "b.json"
        code1, t1 = run("verify", "classical_t3", json_path=str(j1))
        code2, t2 = run("verify", "classical_t3", json_path=str(j2))
        assert code1 == code2 == cli.EXIT_PASS
        assert t1 == t2
        assert j1.read_bytes() == j2.read_bytes()

    def test_json_report_fields(self, tmp_path):
        jpath = tmp_path / "r.json"
        run("verify", "classical_t3", json_path=str(jpath))
        rep = json.loads(jpath.read_text())
        assert rep["tool"]["name"] == "equilef"
        assert rep["lhs"]["exact"] == "-1"
        assert rep["rhs"]["exact"] == "-1"
        assert rep["comparison"]["exact_equality"] is True
        assert rep["verdict"]["pass"] is True
        orbit = rep["rhs"]["fixed_orbits"][0]
        assert orbit["sheets"] == 1
        assert orbit["haar_factor"] == "1"
        assert rep["heat_traces"]["stable"] is True
        # every numeric verdict is accompanied by its tolerance
        assert "tolerance" in rep["comparison"]
        assert "tolerance" in rep["heat_traces"]
        assert "tolerance" in rep["verdict"]

    def test_json_path_in_a_missing_directory_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "dir" / "x.json"
        code, text = run("verify", "classical_t3", json_path=str(target))
        assert code == cli.EXIT_USAGE
        assert text.startswith("usage error: cannot write JSON report: ")
        assert text.count("\n") == 1
        assert not target.exists()

    def test_json_path_naming_a_directory_is_a_usage_error(self, tmp_path):
        code, text = run("verify", "classical_t3", json_path=str(tmp_path))
        assert code == cli.EXIT_USAGE
        assert text.startswith("usage error: cannot write JSON report: ")
        assert text.count("\n") == 1

    def test_non_utf8_scenario_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "utf16.scenario"
        path.write_bytes(b"\xff\xfe" + (SCENARIOS / "classical_t3.scenario")
                         .read_text().encode("utf-16-le"))
        stream = io.StringIO()
        options = cli.options()
        code = cli.run("verify", str(path), options, stream)
        assert code == cli.EXIT_USAGE
        assert stream.getvalue().startswith(
            "usage error: cannot read scenario file: ")

    def test_scenario_round_trips_rationals(self):
        src = json.loads((SCENARIOS / "shifted_classical_t3.scenario").read_text())
        scn = cli.parse_scenario(src)
        assert scn.map.translation[0] == cli.Fraction(1, 3)
        assert scn.raw == src


class TestSchemaValidation:
    def test_missing_schema_version(self):
        with pytest.raises(SchemaError):
            cli.parse_scenario({"name": "x"})

    def test_wrong_matrix_shape(self):
        with pytest.raises(SchemaError) as err:
            cli.parse_scenario({
                "schema": 1, "name": "x",
                "model": {"type": "flat_torus", "n": 2, "v": ["0", "1"]},
                "map": {"matrix": [[1, 0]], "translation": ["0", "0"]},
            })
        assert "matrix" in err.value.path

    def test_unknown_generator(self):
        with pytest.raises(SchemaError) as err:
            cli.parse_scenario({
                "schema": 1, "name": "x",
                "model": {"type": "flat_torus", "n": 1, "v": [{"beta": "1"}]},
                "map": {"matrix": [[1]], "translation": ["0"]},
            })
        assert "beta" in str(err.value)


def run_doc(tmp_path, command, doc, **opts):
    path = tmp_path / "case.scenario"
    path.write_text(json.dumps(doc))
    stream = io.StringIO()
    options = cli.options(cutoff=opts.get("cutoff"))
    code = cli.run(command, str(path), options, stream)
    return code, stream.getvalue()


class TestCutoffAndHeatSchema:
    @pytest.mark.parametrize("value", ["abc", "3", 2.5, True, -1, None, [2]])
    def test_mode_cutoff_must_be_non_negative_integer(self, tmp_path, value):
        doc = json.loads((SCENARIOS / "doubling_t3.scenario").read_text())
        doc["cutoffs"] = {"modes": value}
        code, text = run_doc(tmp_path, "verify", doc)
        assert code == cli.EXIT_USAGE
        assert "schema error at $.cutoffs.modes" in text

    def test_cutoffs_must_be_an_object(self, tmp_path):
        doc = json.loads((SCENARIOS / "doubling_t3.scenario").read_text())
        doc["cutoffs"] = [3]
        code, text = run_doc(tmp_path, "spectrum", doc)
        assert code == cli.EXIT_USAGE
        assert "schema error at $.cutoffs" in text

    def test_mode_cutoff_zero_accepted(self, tmp_path):
        doc = json.loads((SCENARIOS / "doubling_t3.scenario").read_text())
        doc["cutoffs"] = {"modes": 0}
        code, text = run_doc(tmp_path, "spectrum", doc)
        assert code == cli.EXIT_PASS
        assert "cutoff : 0" in text

    @pytest.mark.parametrize("heat_s,index", [
        ([0], 0), ([-0.5], 0), ([1.0, 0.0], 1), ([1, "2"], 1),
        ([True], 0), ([None], 0), ([[1]], 0),
    ])
    def test_heat_s_entries_must_be_positive(self, tmp_path, heat_s, index):
        doc = json.loads((SCENARIOS / "doubling_t3.scenario").read_text())
        doc["heat_s"] = heat_s
        code, text = run_doc(tmp_path, "verify", doc)
        assert code == cli.EXIT_USAGE
        assert f"schema error at $.heat_s[{index}]" in text

    @pytest.mark.parametrize("literal", ["Infinity", "NaN"])
    def test_heat_s_entries_must_be_finite(self, tmp_path, literal):
        doc = json.loads((SCENARIOS / "doubling_t3.scenario").read_text())
        doc["heat_s"] = [0.5, "SLOT"]
        path = tmp_path / "case.scenario"
        # json.dumps cannot write these literals, json.loads accepts them
        path.write_text(json.dumps(doc).replace('"SLOT"', literal))
        stream = io.StringIO()
        options = cli.options()
        code = cli.run("verify", str(path), options, stream)
        assert code == cli.EXIT_USAGE
        assert "schema error at $.heat_s[1]" in stream.getvalue()

    def test_heat_s_must_be_a_list(self, tmp_path):
        doc = json.loads((SCENARIOS / "doubling_t3.scenario").read_text())
        doc["heat_s"] = 1.0
        code, text = run_doc(tmp_path, "verify", doc)
        assert code == cli.EXIT_USAGE
        assert "schema error at $.heat_s" in text

    def test_verify_does_not_gate_on_heat_stability(self, tmp_path):
        # at cutoff 0 the twisted scenario's harmonic mode lies outside the
        # truncation: every heat trace is 0 and drifts by 1 from the
        # harmonic value, yet the two sides agree to rounding and verify
        # passes
        json_path = tmp_path / "verify.json"
        code, _ = run("verify", "twisted_unit_t3", cutoff=0,
                      json_path=str(json_path))
        report = json.loads(json_path.read_text())
        assert code == cli.EXIT_PASS
        assert report["heat_traces"]["max_drift"] == 1.0
        assert report["heat_traces"]["stable"] is False
        assert report["comparison"]["discrepancy"] <= 1e-15

    def test_cutoff_option_zero_is_honoured(self):
        code, text = run("spectrum", "doubling_t3", cutoff=0)
        assert code == cli.EXIT_PASS
        assert "cutoff : 0" in text

    @pytest.mark.parametrize("command", ["spectrum", "verify", "validate"])
    def test_negative_cutoff_option_is_usage_error(self, command):
        code, text = run(command, "doubling_t3", cutoff=-2)
        assert code == cli.EXIT_USAGE
        assert "--cutoff" in text

    def test_negative_cutoff_through_main(self, capsys):
        code = cli.main(["spectrum", str(SCENARIOS / "doubling_t3.scenario"),
                         "--cutoff", "-2"])
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().out


class TestSizeBounds:
    def test_oversized_mode_box_exits_1_promptly(self):
        start = time.perf_counter()
        code, text = run("spectrum", "classical_t3", cutoff=3000)
        assert time.perf_counter() - start < 5
        assert code == cli.EXIT_DISCREPANCY
        assert text == ("error: cutoff 3000 needs at least 18015002 norm-count "
                        "updates, more than the 10000000 allowed\n")

    def test_oversized_class_table_exits_1_promptly(self, tmp_path):
        # few updates, but more norm classes than any listable box has:
        # T^2 with v = e_2 takes 2c + 1 updates, c + 1 classes
        t2 = {"schema": 1, "name": "t2_axis",
              "model": {"type": "flat_torus", "n": 2, "v": ["0", "1"]},
              "map": {"matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]}}
        start = time.perf_counter()
        code, text = run_doc(tmp_path, "spectrum", t2, cutoff=4999999)
        assert code == cli.EXIT_DISCREPANCY
        assert text == ("error: cutoff 4999999 gives more than 500000 distinct "
                        "mode norms, the most that may be counted\n")
        code, text = run("spectrum", "classical_t3", cutoff=2000)
        assert code == cli.EXIT_DISCREPANCY
        assert text == ("error: cutoff 2000 gives more than 500000 distinct "
                        "mode norms, the most that may be counted\n")
        assert time.perf_counter() - start < 5

    def test_largest_dimensions_are_accepted(self, tmp_path):
        n = cli.MAX_DIM
        torus = {"schema": 1, "name": "t10",
                 "model": {"type": "flat_torus", "n": n,
                           "v": ["0"] * (n - 1) + ["1"]},
                 "map": {"matrix": [[int(i == j) for j in range(n)]
                                    for i in range(n)],
                         "translation": ["0"] * n}}
        sphere = {"schema": 1, "name": "s19",
                  "model": {"type": "weighted_sphere", "k": n,
                            "weights": [str(j + 1) for j in range(n)]},
                  "map": {"phases": ["0"] * n}}
        for doc in (torus, sphere):
            code, text = run_doc(tmp_path, "validate", doc)
            assert code == cli.EXIT_PASS, text


def _mutated(name, keys, value):
    doc = json.loads((SCENARIOS / f"{name}.scenario").read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


SEVEN_GENERATORS = [{"name": "alpha"}] + [f"g{i}" for i in range(1, 7)]


class TestSchemaHardening:
    @pytest.mark.parametrize("name,keys,value,path", [
        ("doubling_t3", ("schema",), True, "$.schema"),
        ("doubling_t3", ("tolerances",), [1], "$.tolerances"),
        ("doubling_t3", ("tolerances",), {"verify": "abc"}, "$.tolerances.verify"),
        ("doubling_t3", ("generators", 0, "value"), "abc", "$.generators[0].value"),
        ("doubling_t3", ("generators", 0, "value"), "nan", "$.generators[0].value"),
        ("doubling_t3", ("generators", 0, "value"), True, "$.generators[0].value"),
        ("doubling_t3", ("generators",), SEVEN_GENERATORS, "$.generators[6]"),
        ("twisted_unit_t3", ("twist", "phi_scalar"), ["a", 0],
         "$.twist.phi_scalar[0]"),
        ("twisted_unit_t3", ("twist", "phi_scalar"), ["inf", 0],
         "$.twist.phi_scalar[0]"),
        ("doubling_t3", ("model", "v"), ["0", "0", "0"], "$.model.v"),
        ("s3_rational", ("model", "weights", 0), "0", "$.model.weights[0]"),
        ("mollifier_doubling_t2", ("mollifier",), [1], "$.mollifier"),
        ("mollifier_doubling_t2", ("mollifier", "k_list"), ["x"],
         "$.mollifier.k_list[0]"),
        ("mollifier_doubling_t2", ("mollifier", "k_list"), [0],
         "$.mollifier.k_list[0]"),
        ("mollifier_doubling_t2", ("mollifier", "k_list"), [8.7],
         "$.mollifier.k_list[0]"),
        ("mollifier_doubling_t2", ("mollifier", "radius"), "7/10",
         "$.mollifier.radius"),
        ("mollifier_doubling_t2", ("mollifier", "grid"), "x", "$.mollifier.grid"),
        ("mollifier_doubling_t2", ("mollifier", "k_list"),
         [8, ml.MAX_SHARPNESS + 1], "$.mollifier.k_list[1]"),
        ("mollifier_doubling_t2", ("mollifier", "k_list"), [10**400],
         "$.mollifier.k_list[0]"),
        ("mollifier_doubling_t2", ("mollifier", "grid"), ml.MAX_GRID + 1,
         "$.mollifier.grid"),
        ("doubling_t3", ("cutoffs",), [1], "$.cutoffs"),
        ("doubling_t3", ("model", "v", 1), "1" + "0" * 400, "$.model.v"),
        ("s3_rational", ("model", "weights", 1), "1" + "0" * 400,
         "$.model.weights[1]"),
        ("doubling_t3", ("model", "n"), cli.MAX_DIM + 1, "$.model.n"),
        ("doubling_t3", ("model", "n"), 0, "$.model.n"),
        ("doubling_t3", ("model", "n"), 10**400, "$.model.n"),
        ("s3_rational", ("model", "k"), cli.MAX_DIM + 1, "$.model.k"),
        ("s3_rational", ("model", "k"), 0, "$.model.k"),
    ])
    def test_malformed_input_is_a_schema_error(self, tmp_path, name, keys,
                                               value, path):
        code, text = run_doc(tmp_path, "validate", _mutated(name, keys, value))
        assert code == cli.EXIT_USAGE
        assert text.startswith(f"schema error at {path}:")

    @pytest.mark.parametrize("value", [0, 1e-200, 1e200])
    def test_flow_without_numeric_length_is_a_schema_error(self, tmp_path,
                                                           value):
        # exactly nonzero, but the float embedding the frame divides by has
        # no finite nonzero length
        doc = _mutated("doubling_t3", ("model", "v"), ["0", "0", {"alpha": "1"}])
        doc["generators"] = [{"name": "alpha", "value": value}]
        for command in ("validate", "lhs", "spectrum", "verify"):
            code, text = run_doc(tmp_path, command, doc)
            assert code == cli.EXIT_USAGE
            assert text.startswith("schema error at $.model.v:")

    def test_null_sections_read_as_defaults(self):
        doc = _mutated("doubling_t3", ("cutoffs",), None)
        doc["tolerances"] = doc["mollifier"] = None
        scn = cli.parse_scenario(doc)
        assert scn.cutoff == cli.DEFAULT_CUTOFF
        assert scn.tolerance == cli.DEFAULT_TOLERANCE

    def test_cli_grid_past_the_cell_budget_exits_1(self, tmp_path):
        doc = _mutated("mollifier_doubling_t2", ("mollifier", "k_list"), [8])
        # two active directions along a one-dimensional closure: grid^3
        # cells, past the budget at the largest grid --grid accepts
        doc["model"]["v"] = ["1", "1"]
        doc["map"]["matrix"] = [[2, -1], [0, 1]]
        path = tmp_path / "fine.scenario"
        path.write_text(json.dumps(doc))
        stream = io.StringIO()
        options = cli.options(grid=ml.MAX_GRID)
        code = cli.run("mollifier", str(path), options, stream)
        assert code == cli.EXIT_DISCREPANCY
        assert "quadrature cells" in stream.getvalue()

    def test_seventh_generator_with_value_accepted(self, tmp_path):
        gens = SEVEN_GENERATORS[:6] + [{"name": "g6", "value": 4.25}]
        doc = _mutated("doubling_t3", ("generators",), gens)
        scn = cli.parse_scenario(doc)
        assert scn.model.v.generator_values[6] == 4.25
        assert run_doc(tmp_path, "verify", doc)[0] == cli.EXIT_PASS

    @pytest.mark.parametrize("command", ["validate", "rhs"])
    def test_sphere_weight_past_the_float_range_is_a_schema_error(
            self, tmp_path, command):
        doc = _mutated("s3_rational", ("model", "weights", 0), "1" + "0" * 400)
        code, text = run_doc(tmp_path, command, doc)
        assert code == cli.EXIT_USAGE
        assert text.startswith("schema error at $.model.weights[0]:")


class TestMalformedDocuments:
    """Documents that ``json.loads`` refuses without a syntax error, or
    accepts with content no report can carry, exit 64 before any recursive
    walk."""

    @staticmethod
    def run_text(tmp_path, command, text, json_path=None):
        path = tmp_path / "case.scenario"
        path.write_text(text)
        # a strict UTF-8 stream, as stdout is
        raw = io.BytesIO()
        stream = io.TextIOWrapper(raw, encoding="utf-8")
        options = cli.options(json_path=json_path)
        code = cli.run(command, str(path), options, stream)
        stream.flush()
        return code, raw.getvalue().decode("utf-8")

    @pytest.mark.parametrize("deep", [0, 900])
    def test_lone_surrogate_name_is_a_schema_error(self, tmp_path, deep):
        # a deep array elsewhere does not disturb the reported path
        doc = {"ignored": json.loads("[" * deep + "]" * deep) if deep else 0,
               **_mutated("classical_t3", ("name",), "\ud800")}
        code, text = self.run_text(tmp_path, "rhs", json.dumps(doc))
        assert code == cli.EXIT_USAGE
        assert text == ("schema error at $.name: string '\\ud800' is not valid "
                        "UTF-8 text\n")

    @pytest.mark.parametrize("value", [1, "\ud800", [[["\ud800"]]]])
    def test_lone_surrogate_key_is_a_schema_error(self, tmp_path, value):
        doc = _mutated("classical_t3", ("map", "\udfff"), value)
        code, text = self.run_text(tmp_path, "validate", json.dumps(doc))
        assert code == cli.EXIT_USAGE
        assert text.startswith("schema error at $.map: string '\\udfff'")

    def test_overlong_integer_literal_is_a_parse_error(self, tmp_path):
        text = (SCENARIOS / "classical_t3.scenario").read_text()
        text = text.replace('"schema": 1', '"schema": 1' + "0" * 5000)
        code, out = self.run_text(tmp_path, "validate", text)
        assert code == cli.EXIT_USAGE
        assert out == "parse error: an integer literal has more than 4300 digits\n"

    def test_nesting_past_the_parser_is_a_parse_error(self, tmp_path):
        code, out = self.run_text(tmp_path, "validate",
                                  "[" * 100_000 + "]" * 100_000)
        assert code == cli.EXIT_USAGE
        assert out == "parse error: arrays and objects nest too deeply to parse\n"

    @pytest.mark.parametrize("levels,expected", [
        (cli.MAX_NESTING - 1, cli.EXIT_PASS), (cli.MAX_NESTING, cli.EXIT_USAGE),
        (495, cli.EXIT_USAGE)])
    def test_nesting_under_an_ignored_key_is_bounded(self, tmp_path, levels,
                                                     expected):
        doc = json.loads((SCENARIOS / "classical_t3.scenario").read_text())
        doc["ignored"] = json.loads("[" * levels + "]" * levels)
        json_path = tmp_path / "validate.json"
        code, out = self.run_text(tmp_path, "validate", json.dumps(doc),
                                  json_path=str(json_path))
        assert code == expected
        if expected == cli.EXIT_USAGE:
            assert out.startswith("schema error at $.ignored" + "[0]" * (cli.MAX_NESTING - 1)
                                  + ": arrays and objects nest deeper than 32")
        else:
            assert json.loads(json_path.read_text())["scenario"]["ignored"]

    @pytest.mark.parametrize("command", ["validate", "lhs", "verify"])
    @pytest.mark.parametrize("keys,value,expected", [
        # Fraction used to spell out ten million digits, for 12 s
        (("map", "translation", 0), "1e10000000",
         "$.map.translation[0]: a rational spells more than 4300 digits"),
        # the orbit report used to fail to print a 100 001-digit denominator
        (("map", "translation", 0), "1e-100000",
         "$.map.translation[0]: a rational spells more than 4300 digits"),
        # the frame pull-back used to overflow converting the entry to float
        (("map", "matrix"), [[10**400 + 1, 1, 0], [10**400, 1, 0], [0, 0, 1]],
         "$.map.matrix: matrix must be an n x n array of integers in [-2^53, 2^53]"),
    ])
    def test_numbers_past_what_a_report_can_carry_are_schema_errors(
            self, tmp_path, command, keys, value, expected):
        doc = _mutated("classical_t3", keys, value)
        start = time.perf_counter()
        code, out = self.run_text(tmp_path, command, json.dumps(doc))
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_USAGE
        assert out == f"schema error at {expected}\n"

    @pytest.mark.parametrize("value,code", [
        ("1e4299", cli.EXIT_PASS), ("1e4300", cli.EXIT_USAGE),
        ("-0.5e-4298", cli.EXIT_PASS), ("-0.5e-4299", cli.EXIT_USAGE)])
    def test_a_rational_may_spell_4300_digits(self, tmp_path, value, code):
        doc = _mutated("classical_t3", ("map", "translation", 0), value)
        assert self.run_text(tmp_path, "verify", json.dumps(doc))[0] == code

    @pytest.mark.parametrize("a,code", [
        (2**53, cli.EXIT_PASS), (2**53 + 1, cli.EXIT_USAGE),
        (1 - 2**53, cli.EXIT_PASS), (-2**53, cli.EXIT_USAGE)])
    def test_matrix_entries_are_bounded_by_2_53(self, tmp_path, a, code):
        matrix = [[a, 1, 0], [a - 1, 1, 0], [0, 0, 1]]     # determinant 1
        doc = _mutated("classical_t3", ("map", "matrix"), matrix)
        assert self.run_text(tmp_path, "validate", json.dumps(doc))[0] == code

    def test_committed_scenarios_nest_four_levels(self):
        def depth(node):
            items = (node.values() if isinstance(node, dict)
                     else node if isinstance(node, list) else None)
            return 0 if items is None else 1 + max(map(depth, items), default=0)

        depths = {path.stem: depth(json.loads(path.read_text()))
                  for path in SCENARIOS.glob("*.scenario")}
        assert max(depths.values()) == 4 < cli.MAX_NESTING


class TestFixedOrbitCap:
    @pytest.mark.parametrize("command", ["rhs", "verify"])
    def test_count_past_the_cap_is_a_typed_error(self, tmp_path, command):
        # diag(2001, 2001, 1) fixes 2000^2 = 4 000 000 orbits
        doc = {"schema": 1, "name": "big_diagonal_t3",
               "model": {"type": "flat_torus", "n": 3, "v": ["0", "0", "1"]},
               "map": {"matrix": [[2001, 0, 0], [0, 2001, 0], [0, 0, 1]]}}
        code, text = run_doc(tmp_path, command, doc)
        assert code == cli.EXIT_DISCREPANCY
        assert text == ("error: the map has 4000000 fixed orbits, more than "
                        "the 1000000 that can be enumerated\n")

    def test_isotropy_past_the_cap_is_a_typed_error(self, tmp_path):
        # the pole of weight 2000003 has 2 000 003 isotropy components
        doc = _mutated("s3_rational", ("model", "weights"), ["1", "2000003"])
        code, text = run_doc(tmp_path, "rhs", doc)
        assert code == cli.EXIT_DISCREPANCY
        assert text == ("error: a congruence system has 2000003 solution "
                        "components, more than the 1000000 that can be listed\n")


class TestOverridesFollowTheSchema:
    """``--tolerance`` and ``--grid`` replace ``tolerances.verify`` and
    ``mollifier.grid``, so they obey the same bounds; the schema's
    tolerances are non-negative."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, value):
        # nan and inf used to reach the --json report as invalid JSON tokens,
        # and inf passed every verify
        json_path = tmp_path / "verify.json"
        code, text = run("verify", "twisted_unit_t3", tolerance=value,
                         json_path=str(json_path))
        assert code == cli.EXIT_USAGE
        assert text.startswith("usage error: --tolerance")
        assert not json_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    def test_tolerance_through_main(self, capsys, value):
        code = cli.main(["verify", str(SCENARIOS / "twisted_unit_t3.scenario"),
                         f"--tolerance={value}"])
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().out

    def test_zero_tolerance_is_accepted(self):
        # exact equality still decides an exact map
        code, text = run("verify", "classical_t3", tolerance=0.0)
        assert code == cli.EXIT_PASS

    @pytest.mark.parametrize("value", [0, -4, ml.MAX_GRID + 1, 10**6])
    def test_grid_must_lie_in_the_schema_range(self, value):
        # 0 and -4 used to exit 1 with a GridTooCoarse message
        code, text = run("mollifier", "mollifier_doubling_t2", grid=value)
        assert code == cli.EXIT_USAGE
        assert text.startswith("usage error: --grid")

    def test_grid_through_main(self, capsys):
        code = cli.main(["mollifier", str(SCENARIOS / "mollifier_doubling_t2.scenario"),
                         "--grid", "0"])
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["verify", "heat"])
    def test_schema_tolerance_must_be_non_negative(self, tmp_path, key):
        # a negative verify tolerance used to fail a 2.2e-16 discrepancy
        doc = _mutated("twisted_unit_t3", ("tolerances",), {key: -1})
        for command in ("validate", "verify"):
            code, text = run_doc(tmp_path, command, doc)
            assert code == cli.EXIT_USAGE
            assert text.startswith(f"schema error at $.tolerances.{key}:")
