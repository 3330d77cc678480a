"""The report writers against plain references.

``scenario_cli._json_text`` must write exactly what
``json.dumps(report, indent=2)`` writes, and ``scenario_cli._render_text``
exactly what the straightforward recursive renderer below writes, on drawn
trees: nested and empty containers, awkward strings and keys (report keys
are strings; any other key is a ``TypeError``), huge integers,
signed zeros and non-finite floats, subclasses of the leaf and container
types (which the JSON writer does not write inline), sub-objects reused
at several depths (which both writers memoize by object and depth), and
marked orbit-row lists (``scenario_cli._OrbitRows``), whose rows of one
class both writers write from one layout.
"""

import collections
import copy
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


# strings the layouts mark their holes with, and others that look like a
# template's field or an escape
MARKLIKE = ["\x000\x00", "\x001\x00", "\x002\x00", "{}", "0", '"\\u0000']
HOLE_TEXT = st.one_of(TEXT, st.sampled_from(MARKLIKE))
# an equal value that the writers print otherwise
EQUAL_OTHER = {0.0: -0.0, 1: True}


@st.composite
def orbit_rows(draw):
    """A marked row list of interleaved classes, one-row classes among
    them.  A class is a key order and the shared values of its rows; a row
    draws its own hole strings (some need JSON escapes, some equal a mark or
    another hole's text) and sometimes hole lists of other lengths or a
    shared value that is equal to the class's but a different object (a
    copy, or ``-0.0`` for ``0.0`` and ``True`` for ``1``)."""
    classes = []
    for _ in range(draw(st.integers(1, 3))):
        shared = draw(st.dictionaries(
            TEXT.filter(lambda k: k not in ("location", "g0")),
            st.one_of(TREES, st.sampled_from(MARKLIKE + [0.0, 1])),
            max_size=3))
        order = draw(st.permutations(["location", "g0", *shared]))
        beside = draw(st.one_of(st.none(), TREES))
        lengths = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        classes.append((shared, order, beside, lengths))
    rows = []
    for c in draw(st.lists(st.integers(0, len(classes) - 1), max_size=8)):
        shared, order, beside, lengths = classes[c]
        if draw(st.integers(0, 5)) == 0:
            lengths = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        values = dict(shared)
        if shared and draw(st.integers(0, 5)) == 0:
            key = draw(st.sampled_from(sorted(shared)))
            value = shared[key]
            values[key] = (EQUAL_OTHER.get(value, value)
                           if type(value) in (float, int) else copy.deepcopy(value))
        location = {"base_point": draw(st.lists(HOLE_TEXT, min_size=lengths[0],
                                                max_size=lengths[0]))}
        if beside is not None:
            location["support"] = beside
        values["location"] = location
        values["g0"] = draw(st.lists(HOLE_TEXT, min_size=lengths[1],
                                     max_size=lengths[1]))
        rows.append({key: values[key] for key in order})
    return cli._OrbitRows(rows)


@st.composite
def orbit_trees(draw):
    """A report tree holding a marked row list, at one depth or two."""
    rows = draw(orbit_rows())
    return draw(st.sampled_from([
        {"fixed_orbits": rows, "value": 1.0},
        {"rhs": {"fixed_orbits": rows}, "again": [rows, {"deeper": rows}]},
    ]))


def reference_render(node, push, indent):
    """The report text renderer without memoization."""
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


@SETTINGS
@given(orbit_trees())
def test_orbit_rows_are_written_as_the_generic_walk_writes_them(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)
    report = as_report(tree)
    expected = json.dumps(report, indent=2), reference_text(report)
    assert (cli._json_text(report), cli._render_text(report)) == expected
    # the row classes shared by both writers, as a command's report is
    # written
    shared = {}
    assert (cli._json_text(report, shared), cli._render_text(report, shared)) \
        == expected


def counted(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, name, wrapper)
    return calls


def test_a_class_is_laid_out_once_and_only_when_it_has_a_second_row(monkeypatch):
    term = {"per_degree": [{"q": 0, "trace": {"re": 1.0, "im": 0.0}}]}
    other = {"per_degree": []}

    def row(point, shared):
        return {"location": {"base_point": point}, "dim": 1,
                "g0": ["0", point[0]], **shared}

    rows = cli._OrbitRows([
        row(["1/3", "0"], term), row(["0", "1/2"], other),
        row(["2/3", "0"], term), row(["5/6", "7/8"], {"term": term}),
        row(["1/6", "1"], term), row(["0", "1"], other)])
    report = as_report({"fixed_orbits": rows})
    layouts = counted(monkeypatch, "_layout")
    classes = counted(monkeypatch, "_row_class")
    shared = {}
    assert cli._json_text(report, shared) == json.dumps(report, indent=2)
    assert cli._render_text(report, shared) == reference_text(report)
    # the `term` and `other` classes, once per writer; the one-row class
    # takes the generic walk; the rows are classified once for both writers
    # (a row and its location)
    assert [args[0] for args in layouts] == [rows[0], rows[1]] * 2
    assert len(classes) == 2 * len(rows)
    assert type(rows[0]) is dict


def test_a_one_row_list_is_not_classified(monkeypatch):
    classes = counted(monkeypatch, "_row_class")
    rows = cli._OrbitRows([{"location": {"base_point": ["0"]}, "g0": ["0"]}])
    report = as_report({"fixed_orbits": rows})
    assert cli._render_text(report) == reference_text(report)
    assert classes == []


@pytest.mark.parametrize("name", ["negation_t4", "twisted_unit_t3",
                                  "s3_twisted"])
def test_command_reports_equal_the_reference_writers(monkeypatch, name):
    layouts = counted(monkeypatch, "_layout")
    scenario = cli.load_scenario(SCENARIOS / f"{name}.scenario")
    report, _ = cli.cmd_rhs(scenario, None)
    rows = report["rhs"]["fixed_orbits"]
    assert type(rows) is cli._OrbitRows
    assert all(type(row) is dict for row in rows)
    shared = {}
    assert cli._json_text(report, shared) == json.dumps(report, indent=2)
    assert cli._render_text(report, shared) == reference_text(report)
    # a torus class of several orbits is laid out once per writer; sphere
    # rows hold no base point and take the generic walk
    assert len(layouts) == {"negation_t4": 2, "twisted_unit_t3": 0,
                            "s3_twisted": 0}[name]
