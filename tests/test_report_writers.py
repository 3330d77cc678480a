"""The report writers against plain references.

``scenario_cli._render_text`` must write exactly what the straightforward
recursive renderer below writes, on drawn trees: nested and empty
containers, awkward strings and keys, huge integers, signed zeros and
non-finite floats, subclasses of the leaf and container types, and
sub-objects reused at several depths; and on the reports of every command,
whose ``--json`` file must be ``json.dumps(report)`` and a newline.
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


# subclasses of the leaf types with their own repr, which the text renderer
# writes through str() as the reference does
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
def test_text_renderer_equals_reference(tree):
    report = as_report(tree)
    assert cli._render_text(report) == reference_text(report)


def test_shared_object_at_two_depths():
    shared = {"re": 1.0, "im": -0.0, "list": [1, [], {}]}
    tree = {"a": shared, "b": [shared, {"c": [shared]}], "d": {}}
    report = as_report(tree)
    assert cli._render_text(report) == reference_text(report)


@pytest.mark.parametrize("name", ["negation_t4", "twisted_unit_t3",
                                  "s3_twisted"])
def test_command_reports_equal_the_reference_writers(name, tmp_path):
    path = str(SCENARIOS / f"{name}.scenario")
    report, _ = cli.cmd_rhs(cli.load_scenario(path), None)
    assert cli._render_text(report) == reference_text(report)
    json_path = tmp_path / "r.json"
    options = cli.options(json_path=str(json_path))
    stream = io.StringIO()
    assert cli.run("rhs", path, options, stream) == cli.EXIT_PASS
    assert json_path.read_text() == json.dumps(report) + "\n"


@pytest.mark.parametrize("command, name", [
    ("validate", "classical_t3"),
    ("lhs", "classical_t3"),
    ("verify", "classical_t3"),
    ("spectrum", "classical_t3"),
    ("avcheck", "classical_t3"),
    ("mollifier", "mollifier_doubling_t2"),
])
def test_every_command_writes_json_dumps_of_its_report(command, name,
                                                        tmp_path):
    path = str(SCENARIOS / f"{name}.scenario")
    json_path = tmp_path / "r.json"
    options = cli.options(json_path=str(json_path))
    report, code = cli.COMMANDS[command](cli.load_scenario(path), options)
    stream = io.StringIO()
    assert cli.run(command, path, options, stream) == code
    assert json_path.read_text() == json.dumps(report) + "\n"
    assert stream.getvalue() == cli._render_text(report)
