"""Mutated scenario files never escape as a traceback.

Each example takes a committed scenario, edits one to three of its fields
(sets a schema field, or drops, replaces or adds one at any depth; new
values are random JSON), and runs one command on it through
``scenario_cli.run``.  The run must end with a documented exit
code and nothing may be raised.  Generated integers stay small, so mode
cutoffs, matrix entries and orbit counts keep each run short.
"""

import io
import json
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equilef import scenario_cli as cli

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
BASES = {path.stem: json.loads(path.read_text())
         for path in sorted(SCENARIOS.glob("*.scenario"))}
COMMANDS = ("validate", "lhs", "rhs", "verify", "spectrum")
EXIT_CODES = {cli.EXIT_PASS, cli.EXIT_DISCREPANCY, cli.EXIT_GATE, cli.EXIT_USAGE}

KEYS = ("schema", "name", "generators", "value", "model", "type", "n", "k",
        "v", "weights", "map", "matrix", "translation", "phases", "twist",
        "weight", "phi_scalar", "cutoffs", "modes", "tolerances", "verify",
        "heat", "heat_s", "mollifier", "k_list", "radius", "grid", "rational",
        "alpha", "tau")
# the schema's fields: every top-level key and the keys of its objects
FIELDS = tuple(
    (field,) for field in ("schema", "name", "generators", "model", "map",
                           "twist", "cutoffs", "tolerances", "heat_s",
                           "mollifier")
) + (
    ("model", "type"), ("model", "n"), ("model", "k"), ("model", "v"),
    ("model", "weights"), ("map", "matrix"), ("map", "translation"),
    ("map", "phases"), ("twist", "weight"), ("twist", "phi_scalar"),
    ("cutoffs", "modes"), ("tolerances", "verify"), ("tolerances", "heat"),
    ("mollifier", "k_list"), ("mollifier", "radius"), ("mollifier", "grid"),
)
SCALARS = (st.none() | st.booleans() | st.integers(-3, 6)
           | st.floats(-4, 4) | st.sampled_from([float("nan"), float("inf")])
           | st.sampled_from(["0", "1", "-1", "1/2", "2/3", "abc", "nan", "inf",
                              "alpha", "flat_torus", "weighted_sphere",
                              "\ud800"])
           | st.text(max_size=3))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2),
                                     inner, max_size=3)),
    max_leaves=8,
)


def paths(node, prefix=()):
    """Every key and index path inside a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    """Set a schema field, turning missing or non-object parents into
    empty objects."""
    for key in path[:-1]:
        if not isinstance(doc.get(key), dict):
            doc[key] = {}
        doc = doc[key]
    doc[path[-1]] = value


@st.composite
def mutated_scenarios(draw):
    """A committed scenario with one to three edits: a schema field set, or
    an existing field dropped or replaced, or a key added to an existing
    object."""
    doc = json.loads(json.dumps(BASES[draw(st.sampled_from(sorted(BASES)))]))
    for _ in range(draw(st.integers(1, 3))):
        where = list(paths(doc))
        action = draw(st.sampled_from(("set", "drop", "replace", "add")))
        if action == "set":
            put(doc, draw(st.sampled_from(FIELDS)), draw(JSON_VALUES))
            continue
        if action == "add" or not where:
            objects = [()] + [p for p in where if isinstance(lookup(doc, p), dict)]
            target = lookup(doc, draw(st.sampled_from(objects)))
            target[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
            continue
        *head, last = draw(st.sampled_from(where))
        parent = lookup(doc, head)
        if action == "drop":
            del parent[last]
        else:
            parent[last] = draw(JSON_VALUES)
    return doc


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_scenarios(), command=st.sampled_from(COMMANDS))
def test_mutated_scenario_exits_cleanly(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "case.scenario"
    path.write_text(json.dumps(doc))
    stream = io.StringIO()
    options = cli.options()
    assert cli.run(command, str(path), options, stream) in EXIT_CODES
