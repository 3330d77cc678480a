"""The functions in ``src/equilef`` that no command reaches are exactly the
allowlisted ones.

Every command runs through ``scenario_cli.run`` on every committed scenario,
each writing ``--json``, and two inputs reach the error constructors that no
committed scenario reaches: a truncated JSON file (``ParseError``, exit 64)
and the T^3 map ``diag(1002, 1002, 1)``, whose 1 002 001 fixed orbits are
past the enumeration cap (``FixedSetTooLarge``, exit 1).  The call tracer of
``tools/side_routes.py`` records every equilef function entered, with every
functools cache emptied before each run.  Every top-level function and
method of ``src/equilef`` is listed from the source.  The unreached ones that
``perfbench/spans.py`` wraps are kept for the per-layer trace
(``test_trace_targets.py`` pins them); every other unreached one must be in
``UNREACHED``, and every name in ``UNREACHED`` must exist and stay
unreached.  So a new function that no command runs fails this test, and so
does deleting an allowlisted one without taking it off the list.
"""

import ast
import io
import json
import pathlib
import sys

import pytest

from equilef import scenario_cli as cli
from test_trace_targets import traced_layers

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import side_routes  # noqa: E402

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="the tracer names methods by co_qualname, new in Python 3.11")

UNREACHED = {
    "the command-line entry and its error paths, which other malformed "
    "inputs reach": (
        "scenario_cli.main", "scenario_cli._Parser.error",
        "scenario_cli._path_to"),
    "the torus branch of orbit_through, which checks points passed in from "
    "outside; the commands build torus orbits with torus_orbits": (
        "geometry_models._torus_orbit", "geometry_models._exact_vector"),
    "the references of acceptance criteria 3, 5 and 9 and demos 02, 03 and "
    "05: the basic-form operator algebra, the Haar-quadrature average, a "
    "subgroup's parameter rows and the harmonic dimensions; and the grid of "
    "the isotropy quadrature (lefschetz_rhs's isotropy_resolution), which "
    "reads the isotropy's dimension": (
        "basic_complex.BasicForm.__init__", "basic_complex.BasicForm.__repr__",
        "basic_complex.BasicForm.plus", "basic_complex.BasicForm.norm",
        "basic_complex.BasicForm.value_components",
        "basic_complex.zero_form", "basic_complex.is_basic_mode",
        "basic_complex._insert_index", "basic_complex._remove_index",
        "basic_complex.apply_D", "basic_complex.apply_D_adjoint",
        "basic_complex.apply_lie", "basic_complex.apply_P",
        "basic_complex.apply_P_composed", "basic_complex.inner_product",
        "averaging.average_quadrature",
        "torus_group.subgroup_in_param_coords",
        "endomorphism.harmonic_dimensions",
        "torus_group.IsotropyDescriptor.dim"),
    "an orbit's value semantics (equal when model and key are, the key "
    "reading a torus orbit's level as Fractions): tests compare "
    "contributions, which hold their orbit": (
        "geometry_models.ClosedOrbit.__eq__",
        "geometry_models.ClosedOrbit.__hash__",
        "geometry_models.TorusOrbit.key"),
}

TRUNCATED = '{"schema": 1, "name": "trunc'

TOO_MANY_ORBITS = {
    "schema": 1, "name": "diag1002_t3",
    "model": {"type": "flat_torus", "n": 3, "v": ["0", "0", "1"]},
    "map": {"matrix": [[1002, 0, 0], [0, 1002, 0], [0, 0, 1]],
            "translation": ["0", "0", "0"]},
    "cutoffs": {"modes": 2},
}


def defined_functions():
    """``equilef.<module>.<qualname>`` of every top-level function and every
    method of a top-level class in ``src/equilef``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = set()
    for path in sorted((ROOT / "src" / "equilef").glob("*.py")):
        module = "equilef" if path.stem == "__init__" else f"equilef.{path.stem}"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                names.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(f"{module}.{node.name}.{sub.name}"
                             for sub in node.body if isinstance(sub, functions))
    return names


def run(command, path, json_path):
    """Exit code and text report of one command, caches emptied first."""
    side_routes.clear_caches()
    options = cli.options(json_path=str(json_path))
    stream = io.StringIO()
    return cli.run(command, str(path), options, stream), stream.getvalue()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The functions every command reaches on every committed scenario and
    on the two error inputs, with the exit code and report of each error
    input."""
    tmp_path = tmp_path_factory.mktemp("reached")
    truncated = tmp_path / "truncated.scenario"
    truncated.write_text(TRUNCATED)
    too_many = tmp_path / "too_many_orbits.scenario"
    too_many.write_text(json.dumps(TOO_MANY_ORBITS))
    json_path = tmp_path / "report.json"
    with side_routes.reaching() as reached:
        for path in sorted((ROOT / "scenarios").glob("*.scenario")):
            for command in sorted(cli.COMMANDS):
                run(command, path, json_path)
        parse = run("validate", truncated, json_path)
        orbits = run("rhs", too_many, json_path)
    return reached, parse, orbits


def test_a_truncated_scenario_is_a_parse_error(traced):
    code, text = traced[1]
    assert code == cli.EXIT_USAGE
    assert text.startswith("parse error at line 1")


def test_too_many_fixed_orbits_stop_the_localized_side(traced):
    code, text = traced[2]
    assert code == cli.EXIT_DISCREPANCY
    assert text.startswith("error: the map has 1002001 fixed orbits")


def test_the_unreached_functions_are_the_allowlisted_ones(traced):
    reached = traced[0]
    wrapped = {f"equilef.{module}.{name}"
               for module, names in traced_layers().items() for name in names}
    allowed = {f"equilef.{name}" for names in UNREACHED.values() for name in names}
    assert not allowed & wrapped
    unreached = defined_functions() - reached - wrapped
    assert unreached == allowed, (sorted(unreached - allowed),
                                  sorted(allowed - unreached))


def test_the_tracer_sees_the_parse_and_stops_at_the_block_end():
    # the tracer is on before the scenario loads, so the parse path counts,
    # and off after the block, so a later call does not
    path = ROOT / "scenarios" / "classical_t3.scenario"
    with side_routes.reaching() as reached:
        cli.load_scenario(path)
    assert {"equilef.scenario_cli.load_scenario",
            "equilef.scenario_cli.parse_scenario"} <= reached
    assert "equilef.scenario_cli.cmd_validate" not in reached
    before = set(reached)
    cli.load_scenario(path)
    assert reached == before
