"""Declarative scenario files and the ``equilef`` command-line front end.

A scenario is a JSON document with exact rationals written as strings
(``"-3/7"``) and irrational quantities referred to by declared generator
names; floating-point literals are rejected anywhere in the model or map
(exactness of the group arithmetic is load-bearing).  One invocation runs one
scenario through one command:

``validate``   schema and equivariance checks
``lhs``        harmonic-space traces and the alternating sum
``rhs``        fixed-orbit enumeration, certificates and contributions
``verify``     both sides, their comparison, and a heat-trace sweep
``spectrum``   eigenvalue table of the elliptic operator
``avcheck``    averaging projector residuals on random sections
``mollifier``  smoothing-kernel convergence study

Exit status: 0 pass, 1 discrepancy or failed check, 2 transversality or
finiteness gate, 64 usage, parse or schema error.  ``verify`` decides on the
two sides' comparison only: its heat sweep reports ``stable`` but does not
gate on it, since a drift there can come from the mode cutoff (a harmonic
mode outside the truncation) and a truncation choice is not a discrepancy.
Reports are emitted as an aligned text block on stdout and optionally as
JSON; both are deterministic byte for byte for a fixed scenario file and
tool version (fixed field order, floats printed with 12 significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from . import averaging as av
from . import basic_complex as bc
from . import fixed_point_formula as fpf
from . import mollifier_lab as ml
from .endomorphism import (
    BundleTwist,
    SpherePhaseMap,
    TorusMap,
    alternating_heat_traces,
    cohomology_action,
    validate_equivariance,
)
from .errors import (
    EquilefError,
    InfiniteFixedSet,
    NonTransverse,
    NotEquivariant,
    ParseError,
    SchemaError,
)
from .geometry_models import FlatTorusModel, WeightedSphereModel
from .torus_group import DEFAULT_GENERATOR_VALUES, SymbolicFrequency, closure_group

SCHEMA_VERSION = 1
DEFAULT_CUTOFF = 8
DEFAULT_TOLERANCE = 1e-9
DEFAULT_HEAT_S = (0.1, 1.0, 10.0)
#: largest torus dimension n and sphere dimension k a scenario may declare
MAX_DIM = 10
#: deepest nesting of arrays and objects a scenario document may use (the
#: committed scenarios reach 4)
MAX_NESTING = 32
#: largest absolute torus matrix entry: every integer up to it is exact as
#: a float
MAX_MATRIX_ENTRY = 2**53

EXIT_PASS = 0
EXIT_DISCREPANCY = 1
EXIT_GATE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing


def _reject_floats(node, path):
    if isinstance(node, float):
        raise SchemaError("floating-point literals are forbidden here; "
                          "write exact rationals as strings", path=path)
    if isinstance(node, dict):
        for key, val in node.items():
            _reject_floats(val, f"{path}.{key}")
    if isinstance(node, list):
        for i, val in enumerate(node):
            _reject_floats(val, f"{path}[{i}]")


def _parse_fraction(node, path):
    if isinstance(node, bool) or isinstance(node, float):
        raise SchemaError("expected an exact rational (string or integer)", path=path)
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        # Fraction would spell out every digit, and no report could print them
        mantissa, _, exponent = node.lower().partition("e")
        try:
            size = sum(map(str.isdecimal, mantissa)) + abs(int(exponent or 0))
        except ValueError:
            size = 0        # not a rational: Fraction says so below
        limit = sys.get_int_max_str_digits()
        if size > limit:
            raise SchemaError(f"a rational spells more than {limit} digits", path=path)
        try:
            return Fraction(node)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational number: {node!r} ({exc})", path=path)
    raise SchemaError("expected an exact rational (string or integer)", path=path)


def _parse_real(node, path, what, positive=False, nonnegative=False):
    """A finite JSON number (not a boolean, not a string), as a float;
    ``positive`` also rules out zero and negatives, ``nonnegative`` negatives."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            value = float(node)
        except OverflowError:
            value = math.inf
        if math.isfinite(value) and not (positive and value <= 0
                                         or nonnegative and value < 0):
            return value
    qualifier = ("positive finite" if positive
                 else "non-negative finite" if nonnegative else "finite")
    raise SchemaError(f"{what} must be a {qualifier} number", path=path)


def _parse_int(node, path, what, minimum, maximum=math.inf):
    """A JSON integer (not a boolean) in ``[minimum, maximum]``."""
    if (isinstance(node, int) and not isinstance(node, bool)
            and minimum <= node <= maximum):
        return node
    bound = (f"at least {minimum}" if maximum == math.inf
             else f"in [{minimum}, {maximum}]")
    raise SchemaError(f"{what} must be an integer {bound}", path=path)


def _parse_object(node, path):
    """An optional JSON object: absent or null reads as empty."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise SchemaError("expected an object", path=path)
    return node


def _parse_symbolic_entry(node, labels, path):
    row = [Fraction(0)] * (1 + len(labels))
    if isinstance(node, (str, int)):
        row[0] = _parse_fraction(node, path)
        return tuple(row)
    if isinstance(node, dict):
        for key, val in node.items():
            if key == "rational":
                row[0] = _parse_fraction(val, f"{path}.rational")
            elif key in labels:
                row[1 + labels.index(key)] = _parse_fraction(val, f"{path}.{key}")
            else:
                raise SchemaError(f"unknown generator {key!r}", path=f"{path}.{key}")
        return tuple(row)
    raise SchemaError("expected a rational or a generator combination", path=path)


def _parse_generators(node, path):
    if node is None:
        return (), ()
    if not isinstance(node, list):
        raise SchemaError("generators must be a list", path=path)
    labels, values = [], []
    for i, item in enumerate(node):
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict) or "name" not in item:
            raise SchemaError("generator entries are names or {name, value}",
                              path=f"{path}[{i}]")
        name = item["name"]
        if not isinstance(name, str) or not name or name == "rational":
            # "rational" keys the rational part of a generator combination
            raise SchemaError("a generator name must be a nonempty string "
                              "other than 'rational'", path=f"{path}[{i}].name")
        labels.append(name)
        if "value" in item:
            values.append(_parse_real(item["value"], f"{path}[{i}].value",
                                      "a generator value"))
        elif i < len(DEFAULT_GENERATOR_VALUES):
            values.append(DEFAULT_GENERATOR_VALUES[i])
        else:
            raise SchemaError(
                f"generators past the first {len(DEFAULT_GENERATOR_VALUES)} "
                "must give a value", path=f"{path}[{i}]")
    if len(set(labels)) != len(labels):
        raise SchemaError("generator names must be distinct", path=path)
    return tuple(labels), tuple(values)


@dataclass(frozen=True)
class Scenario:
    name: str
    model: object
    map: object
    twist: BundleTwist | None
    cutoff: int
    tolerance: float
    heat_tolerance: float
    heat_s: tuple
    mollifier_k: tuple
    mollifier_radius: float
    mollifier_grid: int | None
    raw: dict


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object", path="$")
    schema = data.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SchemaError(f"schema version must be {SCHEMA_VERSION}", path="$.schema")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("scenario needs a nonempty name", path="$.name")
    labels, values = _parse_generators(data.get("generators"), "$.generators")

    model_node = data.get("model")
    if not isinstance(model_node, dict):
        raise SchemaError("missing model", path="$.model")
    _reject_floats(model_node, "$.model")
    mtype = model_node.get("type")
    if mtype == "flat_torus":
        n = _parse_int(model_node.get("n"), "$.model.n",
                       "the flat torus dimension n", 1, MAX_DIM)
        entries = model_node.get("v")
        if not isinstance(entries, list) or len(entries) != n:
            raise SchemaError("v must list n entries", path="$.model.v")
        flow = SymbolicFrequency(tuple(
            _parse_symbolic_entry(e, labels, f"$.model.v[{i}]")
            for i, e in enumerate(entries)
        ), labels, values)
        try:
            model = FlatTorusModel(flow)
        except ValueError as exc:
            raise SchemaError(str(exc), path="$.model.v")
    elif mtype == "weighted_sphere":
        k = _parse_int(model_node.get("k"), "$.model.k",
                       "the weighted sphere dimension k", 1, MAX_DIM)
        entries = model_node.get("weights")
        if not isinstance(entries, list) or len(entries) != k:
            raise SchemaError("weights must list k entries", path="$.model.weights")
        rows = tuple(
            _parse_symbolic_entry(e, labels, f"$.model.weights[{i}]")
            for i, e in enumerate(entries)
        )
        weights = SymbolicFrequency(rows, labels, values)
        bad = weights.first_not_positive_finite()
        if bad is not None:
            raise SchemaError("weights must be positive finite numbers",
                              path=f"$.model.weights[{bad}]")
        model = WeightedSphereModel(weights)
    else:
        raise SchemaError("model type must be flat_torus or weighted_sphere",
                          path="$.model.type")

    map_node = data.get("map")
    if not isinstance(map_node, dict):
        raise SchemaError("missing map", path="$.map")
    _reject_floats(map_node, "$.map")
    if isinstance(model, FlatTorusModel):
        matrix = map_node.get("matrix")
        if (not isinstance(matrix, list)
                or len(matrix) != model.n
                or any(not isinstance(row, list) or len(row) != model.n
                       for row in matrix)
                or any(not isinstance(a, int) or isinstance(a, bool)
                       or abs(a) > MAX_MATRIX_ENTRY for row in matrix for a in row)):
            raise SchemaError("matrix must be an n x n array of integers in "
                              "[-2^53, 2^53]", path="$.map.matrix")
        translation = map_node.get("translation", ["0"] * model.n)
        if not isinstance(translation, list) or len(translation) != model.n:
            raise SchemaError("translation must list n rationals",
                              path="$.map.translation")
        trans = tuple(
            _parse_fraction(e, f"$.map.translation[{i}]")
            for i, e in enumerate(translation)
        )
        fmap = TorusMap(tuple(tuple(row) for row in matrix), trans)
    else:
        phases = map_node.get("phases")
        if not isinstance(phases, list) or len(phases) != model.k:
            raise SchemaError("phases must list k rationals", path="$.map.phases")
        fmap = SpherePhaseMap(tuple(
            _parse_fraction(e, f"$.map.phases[{i}]") for i, e in enumerate(phases)
        ))

    twist = None
    twist_node = data.get("twist")
    if twist_node is not None:
        if not isinstance(twist_node, dict) or "weight" not in twist_node:
            raise SchemaError("twist needs a weight", path="$.twist")
        _reject_floats(twist_node.get("weight"), "$.twist.weight")
        weight_row = _parse_symbolic_entry(twist_node["weight"], labels,
                                           "$.twist.weight")
        scalar_node = twist_node.get("phi_scalar", [1, 0])
        if (not isinstance(scalar_node, list) or len(scalar_node) != 2):
            raise SchemaError("phi_scalar is a [re, im] pair",
                              path="$.twist.phi_scalar")
        scalar = complex(*(
            _parse_real(x, f"$.twist.phi_scalar[{i}]", "a phi_scalar part")
            for i, x in enumerate(scalar_node)))
        if not math.isfinite(abs(scalar)):
            raise SchemaError("phi_scalar must have a finite modulus",
                              path="$.twist.phi_scalar")
        twist = BundleTwist(SymbolicFrequency((weight_row,), labels, values),
                            scalar)

    cutoffs = _parse_object(data.get("cutoffs"), "$.cutoffs")
    cutoff = _parse_int(cutoffs.get("modes", DEFAULT_CUTOFF), "$.cutoffs.modes",
                        "the mode cutoff", 0)
    tolerances = _parse_object(data.get("tolerances"), "$.tolerances")
    tolerance, heat_tolerance = (
        _parse_real(tolerances.get(key, default), f"$.tolerances.{key}",
                    "a tolerance", nonnegative=True)
        for key, default in (("verify", DEFAULT_TOLERANCE), ("heat", 1e-8)))
    heat_s = data.get("heat_s", DEFAULT_HEAT_S)
    if not isinstance(heat_s, (list, tuple)):
        raise SchemaError("heat_s must be a list of damping parameters",
                          path="$.heat_s")
    heat_s = tuple(
        _parse_real(s, f"$.heat_s[{i}]", "a damping parameter", positive=True)
        for i, s in enumerate(heat_s))
    moll = _parse_object(data.get("mollifier"), "$.mollifier")
    k_list = moll.get("k_list", [8, 16, 32, 64])
    if not isinstance(k_list, list) or not k_list:
        raise SchemaError("k_list must be a nonempty list of sharpness values",
                          path="$.mollifier.k_list")
    k_list = tuple(
        _parse_int(k, f"$.mollifier.k_list[{i}]", "a sharpness value", 1,
                   ml.MAX_SHARPNESS)
        for i, k in enumerate(k_list))
    radius = _parse_fraction(moll.get("radius", "3/10"), "$.mollifier.radius")
    if not 0 < radius < Fraction(1, 2):
        raise SchemaError("bump radius must lie in (0, 1/2)",
                          path="$.mollifier.radius")
    if not 0 < float(radius) < 0.5:
        raise SchemaError("bump radius rounds to 0 or 1/2 as a float",
                          path="$.mollifier.radius")
    grid = moll.get("grid")
    if grid is not None:
        grid = _parse_int(grid, "$.mollifier.grid", "the grid", 1, ml.MAX_GRID)
    return Scenario(
        name=name,
        model=model,
        map=fmap,
        twist=twist,
        cutoff=cutoff,
        tolerance=tolerance,
        heat_tolerance=heat_tolerance,
        heat_s=heat_s,
        mollifier_k=k_list,
        mollifier_radius=float(radius),
        mollifier_grid=grid,
        raw=data,
    )


def _path_to(node, target, path="$", depth=0):
    """The path of ``target`` (found by identity) within the first
    ``MAX_NESTING`` levels below ``node``; for an object key, the path of its
    object."""
    if node is target:
        return path
    if depth == MAX_NESTING:
        return None
    if isinstance(node, dict):
        if any(key is target for key in node):
            return path
        children = ((val, f"{path}.{key}") for key, val in node.items())
    elif isinstance(node, list):
        children = ((val, f"{path}[{i}]") for i, val in enumerate(node))
    else:
        return None
    for child, where in children:
        found = _path_to(child, target, where, depth + 1)
        if found is not None:
            return found
    return None


def _check_document(data):
    """Bound the nesting of arrays and objects in a parsed document by
    ``MAX_NESTING`` and require every string, keys included, to encode as
    UTF-8 (a JSON escape can spell a lone surrogate), so that no later
    recursive walk or report writer can fail on them.  One walk, level by
    level, without recursion; an object's keys precede its values, so no
    reported path spells a bad key."""
    level = [data]
    for depth in range(MAX_NESTING + 1):
        below = []
        for node in level:
            if isinstance(node, (dict, list)):
                if depth == MAX_NESTING:
                    raise SchemaError(f"arrays and objects nest deeper than "
                                      f"{MAX_NESTING} levels",
                                      path=_path_to(data, node))
                below += node
                if isinstance(node, dict):
                    below += node.values()
            elif isinstance(node, str) and not node.isascii():
                try:
                    node.encode("utf-8")
                except UnicodeEncodeError:
                    raise SchemaError(f"string {ascii(node)} is not valid "
                                      "UTF-8 text", path=_path_to(data, node))
        level = below


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read scenario file: {exc}")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read scenario file: not UTF-8 text ({exc})")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise ParseError("arrays and objects nest too deeply to parse")
    except ValueError:
        raise ParseError("an integer literal has more than "
                         f"{sys.get_int_max_str_digits()} digits")
    _check_document(data)
    return parse_scenario(data)


# ---------------------------------------------------------------------------
# report helpers


def _f(x):
    """Round-trip a float through 12 significant digits (deterministic)."""
    return float(f"{float(x):.12g}")


def _fs(x):
    return f"{float(x):.12g}"


def _complex(z):
    z = complex(z)
    return {"re": _f(z.real), "im": _f(z.imag)}


def _complex_str(z):
    z = complex(z)
    if abs(z.imag) < 5e-13:
        return _fs(z.real)
    return f"{_fs(z.real)}{'+' if z.imag >= 0 else '-'}{_fs(abs(z.imag))}i"


def _ratio_strs(nums, D):
    """Each ``a / D`` (integers, ``D > 0``) as ``str(Fraction(a, D))`` prints
    it, with one ``gcd`` per entry, or a typed error if one has more digits
    than the interpreter prints: every exact rational of a report passes
    here."""
    try:
        out = []
        for a in nums:
            g = math.gcd(a, D)
            out.append(str(a // g) if g == D else f"{a // g}/{D // g}")
        return out
    except ValueError:
        raise EquilefError("an exact value in the report has more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def _frac_str(q):
    """A ``Fraction`` or ``int`` (or ``None``) as report text."""
    return None if q is None else _ratio_strs((q.numerator,), q.denominator)[0]


def _term_json(contrib):
    """An orbit class's term entries: those of its first orbit."""
    per_degree = contrib.per_degree
    return {
        "sheets": per_degree[0].sheets,
        "haar_factor": _frac_str(per_degree[0].haar_factor),
        "per_degree": [
            {
                "q": pd.degree,
                "trace": _complex(pd.trace_value),
                "det": _f(pd.det_value),
                "abs_det": _f(abs(pd.det_value)),
                "isotropy_integral": _complex(pd.isotropy_integral),
            }
            for pd in per_degree
        ],
        "contribution": _complex(contrib.total),
        "contribution_exact": _frac_str(contrib.total_exact),
    }


def _member_strings(contrib):
    """An orbit's own fields, each one space-separated string: ``base_point``
    and ``g0`` on a torus, ``support``, ``moduli_sq``, ``phases`` and ``g0``
    on a sphere.  A torus base point and every ``g0`` are printed from their
    integer numerators."""
    orbit = contrib.orbit
    if isinstance(orbit.model, FlatTorusModel):
        fields = {"base_point": " ".join(_ratio_strs(orbit.point, orbit.point_den))}
    else:
        bp = orbit.base_point
        fields = {"support": " ".join(map(str, bp.support)),
                  "moduli_sq": " ".join(map(_frac_str, bp.moduli_sq)),
                  "phases": " ".join(map(_frac_str, bp.phases))}
    fields["g0"] = " ".join(_ratio_strs(*contrib.g0_numerators))
    return fields


def _orbit_classes(contributions):
    """The fixed orbits as orbit classes, in the order of their first
    orbits.  Orbits are of one class when they share ``dim``,
    ``isotropy_components`` and their term: one ``contrib.per_degree``
    object (see ``fixed_point_formula._MapContext.assembled``), alive while
    ``contributions`` is.  A class holds those fields once, its ``count``,
    and ``members``: per field of :func:`_member_strings`, one string per
    orbit, in enumeration order."""
    classes = {}
    for contrib in contributions:
        orbit = contrib.orbit
        components = orbit.isotropy.component_count
        key = orbit.dim, components, id(contrib.per_degree)
        strings = _member_strings(contrib)
        entry = classes.get(key)
        if entry is None:
            entry = classes[key] = {
                "count": 0,
                "dim": orbit.dim,
                "isotropy_components": components,
                **_term_json(contrib),
                "transversality": "certified",
                "members": {field: [] for field in strings},
            }
        entry["count"] += 1
        members = entry["members"]
        for field, text in strings.items():
            members[field].append(text)
    return list(classes.values())


def _render_text(report):
    """The text report."""
    lines = []
    push = lines.append
    tool = report["tool"]
    push(f"equilef {report['command']} report (version {tool['version']})")
    push(f"scenario: {report['scenario_name']}")
    for section, content in report.items():
        if section in ("tool", "command", "scenario_name", "scenario"):
            continue
        push(f"-- {section}")
        _node_lines(content, "   ", push)
    return "\n".join(lines) + "\n"


def _node_lines(node, indent, push):
    """Push the text lines of one report node."""
    if not isinstance(node, (dict, list)):
        push(f"{indent}{node}")
        return
    deeper = indent + "   "
    if isinstance(node, dict):
        width = max(map(len, map(str, node)), default=0)
        for key, val in node.items():
            if isinstance(val, (dict, list)):
                push(f"{indent}{key}:")
                _node_lines(val, deeper, push)
            else:
                push(f"{indent}{str(key).ljust(width)} : {val}")
    else:
        for i, val in enumerate(node):
            if isinstance(val, (dict, list)):
                push(f"{indent}[{i}]")
                _node_lines(val, deeper, push)
            else:
                push(f"{indent}[{i}] {val}")


def _base_report(scenario: Scenario, command: str) -> dict:
    return {
        "tool": {"name": "equilef", "version": __version__,
                 "schema": SCHEMA_VERSION},
        "command": command,
        "scenario_name": scenario.name,
        "scenario": scenario.raw,
    }


# ---------------------------------------------------------------------------
# commands


def _equivariance_section(scenario):
    cert = validate_equivariance(scenario.model, scenario.map)
    return {
        "valid": True,
        "kind": cert.map_kind,
        "cochain_on_basic": cert.cochain_on_basic,
        "cochain_on_all": cert.cochain_on_all,
        "detail": cert.detail,
    }


def _cutoff(scenario, options):
    """The ``--cutoff`` option when given (zero included), else the
    scenario's mode cutoff."""
    return scenario.cutoff if options.cutoff is None else options.cutoff


def cmd_validate(scenario: Scenario, options) -> tuple[dict, int]:
    report = _base_report(scenario, "validate")
    report["equivariance"] = _equivariance_section(scenario)
    report["verdict"] = {"pass": True}
    return report, EXIT_PASS


def _lhs_sections(scenario):
    act = cohomology_action(scenario.model, scenario.map, scenario.twist)
    sections = {
        "harmonic_dimensions": list(act.dimensions),
        "per_degree_traces": [_complex(t) for t in act.traces],
        "per_degree_traces_text": [_complex_str(t) for t in act.traces],
        "value": _complex(act.lefschetz),
        "value_text": _complex_str(act.lefschetz),
        "exact": _frac_str(act.lefschetz_exact),
    }
    return act, sections


def cmd_lhs(scenario: Scenario, options) -> tuple[dict, int]:
    if not isinstance(scenario.model, FlatTorusModel):
        raise _UsageError("the lhs command requires a flat torus scenario")
    report = _base_report(scenario, "lhs")
    report["equivariance"] = _equivariance_section(scenario)
    _, sections = _lhs_sections(scenario)
    report["lhs"] = sections
    report["verdict"] = {"pass": True}
    return report, EXIT_PASS


def _group_section(scenario):
    model = scenario.model
    direction = model.v if isinstance(model, FlatTorusModel) else model.weights
    section = {
        "closure": {
            "ambient_dim": model.group.ambient_dim,
            "dim": model.group.dim,
            "relation_lattice": [list(row) for row in model.group.relation_lattice],
            # the Haar measure of every closure group is normalized to mass one
            "haar_normalization": "1",
        }
    }
    if scenario.twist is not None:
        hat = closure_group(direction, scenario.twist.weight)
        section["lifted"] = {
            "ambient_dim": hat.ambient_dim,
            "dim": hat.dim,
            "relation_lattice": [list(row) for row in hat.relation_lattice],
        }
    return section


def _rhs_sections(scenario):
    fibers = "de_rham" if isinstance(scenario.model, FlatTorusModel) else "scalar"
    rhs = fpf.lefschetz_rhs(scenario.model, scenario.map, fibers=fibers,
                            twist=scenario.twist)
    return rhs, {
        "fibers": fibers,
        "groups": _group_section(scenario),
        "conventions": {
            "haar_factor": "near-identity product splitting of the lifted "
                           "group's normalized measure; mass = components x "
                           "|det of stacked tangent/complement bases| in unit-"
                           "covolume parameter coordinates (choice-invariant "
                           "through mass/sheets)",
            "sphere_slices": "transversality is decided by an exact pair-"
                             "stratum test: no coordinate pair meeting the "
                             "support spans a stratum fixed orbitwise; no "
                             "geodesic slice is materialized",
        },
        "orbit_count": len(rhs.contributions),
        "fixed_orbits": _orbit_classes(rhs.contributions),
        "value": _complex(rhs.value),
        "value_text": _complex_str(rhs.value),
        "exact": _frac_str(rhs.value_exact),
    }


def cmd_rhs(scenario: Scenario, options) -> tuple[dict, int]:
    report = _base_report(scenario, "rhs")
    report["equivariance"] = _equivariance_section(scenario)
    _, sections = _rhs_sections(scenario)
    report["rhs"] = sections
    report["verdict"] = {"pass": True}
    return report, EXIT_PASS


def cmd_verify(scenario: Scenario, options) -> tuple[dict, int]:
    if not isinstance(scenario.model, FlatTorusModel):
        raise _UsageError("the verify command requires a flat torus scenario "
                          "(sphere scenarios support rhs only)")
    cutoff = _cutoff(scenario, options)
    tolerance = options.tolerance if options.tolerance is not None \
        else scenario.tolerance
    report = _base_report(scenario, "verify")
    report["equivariance"] = _equivariance_section(scenario)
    act, lhs_sections = _lhs_sections(scenario)
    report["lhs"] = lhs_sections
    rhs, rhs_sections = _rhs_sections(scenario)
    report["rhs"] = rhs_sections
    exact_equal = (
        act.lefschetz_exact is not None
        and rhs.value_exact is not None
        and act.lefschetz_exact == rhs.value_exact
    )
    discrepancy = abs(act.lefschetz - rhs.value)
    report["comparison"] = {
        "discrepancy": _f(discrepancy),
        "exact_equality": exact_equal,
        "tolerance": _f(tolerance),
    }
    heat = {
        "s_values": [_f(s) for s in scenario.heat_s],
        "alternating": [],
        "tolerance": _f(scenario.heat_tolerance),
    }
    drift = 0.0
    for alt in alternating_heat_traces(scenario.model, scenario.map,
                                       scenario.heat_s, cutoff, scenario.twist):
        heat["alternating"].append(_complex(alt))
        drift = max(drift, abs(alt - act.lefschetz))
    heat["max_drift"] = _f(drift)
    heat["stable"] = bool(drift <= scenario.heat_tolerance)
    report["heat_traces"] = heat
    passed = bool(discrepancy <= tolerance or exact_equal)
    report["verdict"] = {
        "pass": passed,
        "tolerance": _f(tolerance),
        "certificates": ["equivariance"] + [
            f"transversality[{i}]" for i in range(len(rhs.contributions))
        ],
    }
    return report, EXIT_PASS if passed else EXIT_DISCREPANCY


def cmd_spectrum(scenario: Scenario, options) -> tuple[dict, int]:
    if not isinstance(scenario.model, FlatTorusModel):
        raise _UsageError("the spectrum command requires a flat torus scenario")
    cutoff = _cutoff(scenario, options)
    report = _base_report(scenario, "spectrum")
    n = scenario.model.n
    classes = [(_f(lam), count)
               for lam, count in bc.basic_spectrum(scenario.model, cutoff)]
    tables = {
        f"degree_{q}": [
            {"eigenvalue": lam, "multiplicity": count * math.comb(n - 1, q)}
            for lam, count in classes
        ]
        for q in range(n)
    }
    report["spectrum"] = {"cutoff": cutoff, "tables": tables}
    report["verdict"] = {"pass": True}
    return report, EXIT_PASS


def cmd_avcheck(scenario: Scenario, options) -> tuple[dict, int]:
    import numpy as np

    if not isinstance(scenario.model, FlatTorusModel):
        raise _UsageError("the avcheck command requires a flat torus scenario")
    cutoff = _cutoff(scenario, options)
    rng = np.random.default_rng(20240801)
    residuals = av.averaging_report(scenario.model, min(cutoff, 4), rng)
    report = _base_report(scenario, "avcheck")
    report["averaging"] = {
        "sections": av.REPORT_SECTIONS,
        "idempotent_residual": _f(residuals["idempotent"]),
        "self_adjoint_residual": _f(residuals["self_adjoint"]),
        "equivariance_residual": _f(residuals["invariance"]),
        "tolerance": _f(av.REPORT_TOLERANCE),
    }
    passed = bool(residuals["pass"])
    report["verdict"] = {"pass": passed}
    return report, EXIT_PASS if passed else EXIT_DISCREPANCY


def cmd_mollifier(scenario: Scenario, options) -> tuple[dict, int]:
    if not isinstance(scenario.model, FlatTorusModel) or scenario.model.n != 2:
        raise _UsageError("the mollifier command requires a two-torus scenario")
    grid = options.grid if options.grid is not None else scenario.mollifier_grid
    study = ml.convergence_study(
        scenario.model, scenario.map, scenario.mollifier_k,
        radius=scenario.mollifier_radius, grid=grid,
    )
    report = _base_report(scenario, "mollifier")
    report["mollifier"] = {
        "oracle": _f(study.oracle),
        "tolerance": _f(study.tolerance),
        "rows": [
            {"k": row.k, "value": _f(row.value),
             "abs_error": _f(row.abs_error), "grid": row.grid}
            for row in study.rows
        ],
        "csv": study.csv(),
        "converged": study.converged,
    }
    report["verdict"] = {"pass": study.converged}
    return report, EXIT_PASS if study.converged else EXIT_DISCREPANCY


COMMANDS = {
    "validate": cmd_validate,
    "lhs": cmd_lhs,
    "rhs": cmd_rhs,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "avcheck": cmd_avcheck,
    "mollifier": cmd_mollifier,
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(report, options, stream):
    """Write the JSON report (when asked for) and then the text report: an
    unwritable ``--json`` path is a usage error before any report text."""
    if options.json_path:
        text = json.dumps(report) + "\n"
        try:
            with open(options.json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write JSON report: {exc}")
    stream.write(_render_text(report))


def run(command: str, scenario_file: str, argv_options=None,
        stream=None) -> int:
    """Programmatic entry: run one command on one scenario file."""
    stream = stream or sys.stdout
    options = argv_options or argparse.Namespace(
        cutoff=None, tolerance=None, grid=None, json_path=None)
    if command not in COMMANDS:
        stream.write(f"error: unknown command {command!r}\n")
        return EXIT_USAGE
    try:
        if options.cutoff is not None and options.cutoff < 0:
            raise _UsageError("--cutoff must be a non-negative integer")
        # the overrides follow the schema of the fields they replace
        tolerance = options.tolerance
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
            raise _UsageError("--tolerance must be a finite non-negative number")
        if options.grid is not None and not 1 <= options.grid <= ml.MAX_GRID:
            raise _UsageError(f"--grid must be an integer in [1, {ml.MAX_GRID}]")
        scenario = load_scenario(scenario_file)
        report, code = COMMANDS[command](scenario, options)
        _emit(report, options, stream)
        return code
    except _UsageError as exc:
        stream.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        where = "" if exc.line is None else f" at line {exc.line}, column {exc.column}"
        stream.write(f"parse error{where}: {exc}\n")
        return EXIT_USAGE
    except SchemaError as exc:
        stream.write(f"schema error at {exc.path}: {exc}\n")
        return EXIT_USAGE
    except NotEquivariant as exc:
        stream.write(f"not equivariant: {exc}\n")
        return EXIT_DISCREPANCY
    except (NonTransverse, InfiniteFixedSet) as exc:
        stream.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_GATE
    except EquilefError as exc:
        stream.write(f"error: {exc}\n")
        return EXIT_DISCREPANCY


def main(argv=None) -> int:
    parser = _Parser(prog="equilef",
                     description="two-sided fixed-point formula verification")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("scenario_file")
    parser.add_argument("--cutoff", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--json", dest="json_path", default=None)
    try:
        options = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    return run(options.command, options.scenario_file, options)


if __name__ == "__main__":
    sys.exit(main())
