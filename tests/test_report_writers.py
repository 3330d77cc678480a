"""The report writers against plain references.

``scenario_cli._json_text`` must write exactly what
``json.dumps(report, indent=2)`` writes, and ``scenario_cli._render_text``
exactly what the straightforward recursive renderer below writes, on drawn
trees: nested and empty containers, awkward strings and keys (report keys
are strings; any other key is a ``TypeError``), huge integers,
signed zeros and non-finite floats, subclasses of the leaf and container
types (which the JSON writer does not write inline), and sub-objects
reused at several depths; and on the reports of commands.
"""

import collections
import enum
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilef import scenario_cli as cli

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝔤'),
        st.characters(),
    ),
    max_size=8,
)


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 10**30


class Text(str):
    def __repr__(self):
        return f"Text({str.__repr__(self)})"


class Real(float):
    def __repr__(self):
        return f"Real({float.__repr__(self)})"


# subclasses of the leaf types take the JSON writer's isinstance route, which
# writes them as json.dumps does, through the base type's methods, not
# through their own repr
SUBCLASSED = st.one_of(
    st.sampled_from(list(Level)),
    st.builds(Text, TEXT),
    st.builds(Real, st.floats(allow_nan=True, allow_infinity=True)),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     1e-320, 1.0000000000000002]),
    TEXT,
    SUBCLASSED,
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=3).map(collections.OrderedDict),
    ),
    max_leaves=24,
)
CONTAINERS = st.one_of(st.lists(TREES, max_size=3),
                       st.dictionaries(TEXT, TREES, max_size=3))


@st.composite
def shared_trees(draw):
    """A tree holding one container at two or three different depths."""
    shared = draw(CONTAINERS)
    other = draw(TREES)
    return draw(st.sampled_from([
        {"a": shared, "b": [shared, {"c": shared}], "d": other},
        [other, shared, [[shared]]],
        {"orbits": [{"term": shared, "n": i} for i in range(3)],
         "deeper": {"x": {"y": shared}}},
    ]))


def reference_render(node, push, indent):
    """The report text renderer, written out plainly."""
    if isinstance(node, dict):
        width = max((len(str(k)) for k in node), default=0)
        for key, val in node.items():
            if isinstance(val, (dict, list)):
                push(f"{indent}{key}:")
                reference_render(val, push, indent + "   ")
            else:
                push(f"{indent}{str(key).ljust(width)} : {val}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            if isinstance(val, (dict, list)):
                push(f"{indent}[{i}]")
                reference_render(val, push, indent + "   ")
            else:
                push(f"{indent}[{i}] {val}")
    else:
        push(f"{indent}{node}")


def reference_text(report):
    lines = [f"equilef {report['command']} report "
             f"(version {report['tool']['version']})",
             f"scenario: {report['scenario_name']}"]
    for section, content in report.items():
        if section in ("tool", "command", "scenario_name", "scenario"):
            continue
        lines.append(f"-- {section}")
        reference_render(content, lines.append, "   ")
    return "\n".join(lines) + "\n"


def as_report(tree):
    return {"tool": {"version": "0"}, "command": "rhs", "scenario_name": "s",
            "scenario": tree, "body": tree, "again": tree}


SETTINGS = settings(max_examples=300, deadline=None)


@SETTINGS
@given(st.one_of(TREES, shared_trees()))
def test_json_writer_equals_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)
    report = as_report(tree)
    assert cli._json_text(report) == json.dumps(report, indent=2)


@SETTINGS
@given(st.one_of(TREES, shared_trees()))
def test_text_renderer_equals_reference(tree):
    report = as_report(tree)
    assert cli._render_text(report) == reference_text(report)


def test_shared_object_at_two_depths():
    shared = {"re": 1.0, "im": -0.0, "list": [1, [], {}]}
    tree = {"a": shared, "b": [shared, {"c": [shared]}], "d": {}}
    assert cli._json_text(tree) == json.dumps(tree, indent=2)
    report = as_report(tree)
    assert cli._render_text(report) == reference_text(report)


@pytest.mark.parametrize("bad", [{"x": {1, 2}}, [object()], {1: 2}])
def test_unserializable_value_raises(bad):
    with pytest.raises(TypeError):
        cli._json_text(bad)


def test_reports_do_not_go_through_json_dumps(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called while writing a report")

    monkeypatch.setattr(json, "dumps", refuse)
    options = cli.argparse.Namespace(cutoff=None, tolerance=None, grid=None,
                                     json_path=str(tmp_path / "r.json"))
    code = cli.run("verify", str(SCENARIOS / "classical_t3.scenario"),
                   options, io.StringIO())
    assert code == cli.EXIT_PASS
    assert json.loads((tmp_path / "r.json").read_text())["verdict"]["pass"]


@pytest.mark.parametrize("name", ["negation_t4", "twisted_unit_t3",
                                  "s3_twisted"])
def test_command_reports_equal_the_reference_writers(name):
    scenario = cli.load_scenario(SCENARIOS / f"{name}.scenario")
    report, _ = cli.cmd_rhs(scenario, None)
    assert cli._json_text(report) == json.dumps(report, indent=2)
    assert cli._render_text(report) == reference_text(report)
