"""Expected verdicts for benchmark ops, computed without equilef.

The exact Lefschetz value comes from sympy: the flow's coefficient columns
span a rational subspace ``W`` that an equivariant ``A`` fixes pointwise, so
``charpoly(A) = (x - 1)^dim(W) * p(x)`` where ``p`` is the characteristic
polynomial of the induced base map.  The harmonic side's value is ``h(1)``
for ``charpoly(A) = (x - 1) h(x)``, i.e. ``p(1)`` when ``dim W = 1`` and 0
otherwise, and the base map has ``|p(1)|`` fixed points, one per fixed
orbit.  Expected exit codes follow the documented contract: 0 pass, 1
discrepancy or failed check, 2 transversality/finiteness gate, 64 usage,
parse or schema error.  Nothing here reads equilef's own comparison.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

TORUS_ONLY = ("lhs", "verify", "spectrum", "avcheck", "mollifier")
CHECKS_MAP = ("validate", "lhs", "rhs", "verify", "mollifier")
VALUE_TOL = 1e-9
MOLLIFIER_TOL = 0.05      # convergence_study's default tolerance
# the scalar diagonal pairing tends to the sum over fixed orbits of
# 1/|det(A_bar - I)|, and there are |det(A_bar - I)| of them
MOLLIFIER_LIMIT = 1.0
REPORT_ROUNDING = 1e-11   # reports carry 12 significant digits


class Undecided(Exception):
    """The oracle has no independent route for this input."""


def _has_float(node):
    if isinstance(node, float):
        return True
    if isinstance(node, dict):
        return any(_has_float(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_float(v) for v in node)
    return False


def _labels(doc):
    return [g if isinstance(g, str) else g["name"] for g in doc.get("generators", [])]


def _row(entry, labels):
    """Coefficients of one symbolic entry over (1, generators...)."""
    row = [Fraction(0)] * (1 + len(labels))
    if isinstance(entry, dict):
        for key, val in entry.items():
            row[0 if key == "rational" else 1 + labels.index(key)] = Fraction(val)
    else:
        row[0] = Fraction(entry)
    return row


def _twist(doc, labels):
    node = doc.get("twist")
    if node is None:
        return None, 1
    re, im = node.get("phi_scalar", [1, 0])
    return _row(node["weight"], labels), complex(re, im)


class Torus:
    """Independent facts about a flat-torus scenario."""

    def __init__(self, doc):
        labels = _labels(doc)
        self.n = doc["model"]["n"]
        self.V = [_row(e, labels) for e in doc["model"]["v"]]
        self.A = doc["map"]["matrix"]
        self.c = [Fraction(x) for x in doc["map"].get("translation", ["0"] * self.n)]
        self.sigma, self.scalar = _twist(doc, labels)
        import sympy  # loaded on first use, after the timed loop

        self.equivariant = all(
            sum(a * self.V[j][col] for j, a in enumerate(arow)) == self.V[i][col]
            for i, arow in enumerate(self.A) for col in range(len(self.V[0])))
        x = sympy.Symbol("x")
        self.closure_dim = sympy.Matrix(self.V).rank()
        poly = sympy.Poly(sympy.Matrix(self.A).charpoly(x).as_expr(), x)
        if self.equivariant:
            poly, rem = sympy.div(poly, sympy.Poly((x - 1) ** self.closure_dim, x))
            if not rem.is_zero:
                raise Undecided("A does not fix the closure pointwise")
        self.p1 = int(poly.eval(1))
        self.h1 = self.p1 if self.closure_dim == 1 else 0

    @property
    def orbits(self):
        return abs(self.p1)

    def fixed_set_empty(self):
        """Only for ``p(1) = 0``: the identity map with a closure spanned by
        coordinate axes fixes every orbit when the translation lies in the
        closure mod 1, and none otherwise."""
        axes = {i for i, row in enumerate(self.V) if any(row)}
        if (self.A != [[int(i == j) for j in range(self.n)] for i in range(self.n)]
                or len(axes) != self.closure_dim):
            raise Undecided("degenerate base map beyond the identity")
        return any(self.c[i].denominator != 1 for i in range(self.n) if i not in axes)

    def lefschetz_value(self):
        """The harmonic side: exact ``h(1)`` untwisted; twisted, the fiber
        scalar times the character of the unique mode carrying the harmonic
        space, when that mode exists and is fixed by ``A^T``."""
        if self.sigma is None or not any(self.sigma):
            return self.scalar * self.h1
        if any(row[j] for row in self.V for j in range(1, len(row))) or any(self.sigma[1:]):
            return 0j      # irrational flow: no nonzero mode is parallel to it
        scaled = [row[0] * math.lcm(*(r[0].denominator for r in self.V)) for row in self.V]
        g = math.gcd(*(int(s) for s in scaled))
        p = [int(s) // g for s in scaled]
        rho = sum(pi * row[0] for pi, row in zip(p, self.V))
        t = self.sigma[0] / rho
        if t.denominator != 1:
            return 0j
        m0 = [int(t) * pi for pi in p]
        if [sum(m0[i] * self.A[i][j] for i in range(self.n)) for j in range(self.n)] != m0:
            return 0j
        phase = sum(mi * ci for mi, ci in zip(m0, self.c)) % 1
        return self.scalar * cmath.exp(2j * math.pi * float(phase)) * self.h1

    def basic_mode_count(self, cutoff):
        """Integer modes in the sup-norm box annihilated by the flow."""
        axis = np.arange(-cutoff, cutoff + 1)
        grid = np.stack(np.meshgrid(*([axis] * self.n), indexing="ij"), -1).reshape(-1, self.n)
        keep = np.ones(len(grid), dtype=bool)
        for col in range(len(self.V[0])):
            lcm = math.lcm(*(row[col].denominator for row in self.V))
            w = np.array([int(row[col] * lcm) for row in self.V], dtype=np.int64)
            keep &= grid @ w == 0
        return int(keep.sum())


class Sphere:
    """Independent facts about a weighted-sphere scenario (integer weights,
    or generator weights whose strata are decided by rank alone)."""

    def __init__(self, doc):
        labels = _labels(doc)
        self.k = doc["model"]["k"]
        self.W = [_row(e, labels) for e in doc["model"]["weights"]]
        self.phases = [Fraction(x) % 1 for x in doc["map"]["phases"]]
        self.sigma, self.scalar = _twist(doc, labels)

    def _integer_weights(self, support):
        ws = [self.W[j] for j in support]
        if all(not any(w[1:]) and w[0].denominator == 1 for w in ws):
            return [int(w[0]) for w in ws]
        return None

    def _realizing_times(self, j):
        """Flow times ``t`` (mod 1) with ``t w_j = -phi_j`` (mod 1)."""
        w = int(self.W[j][0])
        return [(-self.phases[j] + i) / w for i in range(abs(w))]

    def stratum_fixed(self, support):
        """True when the map moves no orbit of the stratum: some flow time
        realizes the phase rotation on every coordinate in ``support``."""
        ws = self._integer_weights(support)
        if ws is None:
            import sympy

            if sympy.Matrix([self.W[j] for j in support]).rank() == len(support):
                return True          # the closure is the full torus on support
            raise Undecided("mixed generator weights")
        j0 = next(i for i, w in enumerate(ws) if w)
        for i in range(abs(ws[j0])):
            t = (self.phases[support[j0]] + i) / ws[j0]
            if all((t * w - self.phases[j]) % 1 == 0 for j, w in zip(support, ws)):
                return True
        return False

    def infinite(self):
        return any(self.stratum_fixed(s) for size in range(2, self.k + 1)
                   for s in itertools.combinations(range(self.k), size))

    def transverse_value(self):
        """Sum over the coordinate circles of the isotropy-averaged
        ``1 / prod |1 - e^{2 pi i theta_l}|^2``; None when some normal
        rotation angle vanishes (non-transverse)."""
        if self._integer_weights(range(self.k)) is None:
            raise Undecided("non-integer sphere weights")
        total = 0j
        for j in range(self.k):
            times = self._realizing_times(j)
            acc = 0j
            for t in times:
                det = 1.0
                for l in range(self.k):
                    if l == j:
                        continue
                    theta = (self.phases[l] + int(self.W[l][0]) * t) % 1
                    if theta == 0:
                        return None
                    det *= 2.0 - 2.0 * math.cos(2 * math.pi * float(theta))
                char = 1
                if self.sigma is not None:
                    char = self.scalar * cmath.exp(-2j * math.pi * float(self.sigma[0] * t))
                acc += char / det
            total += acc / len(times)
        return total


def _value(node):
    return complex(node["re"], node["im"])


def _close(a, b):
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))


def expected_code(command, doc):
    """Exit code the documented contract gives ``command`` on ``doc``, and
    the model facts object (or None)."""
    model = doc["model"]
    if _has_float(model) or _has_float(doc["map"]) or _has_float(doc.get("twist", {}).get("weight")):
        return 64, None
    if model["type"] == "weighted_sphere":
        if command in TORUS_ONLY:
            return 64, None
        sphere = Sphere(doc)
        if command == "rhs" and (sphere.infinite() or sphere.transverse_value() is None):
            return 2, sphere
        return 0, sphere
    torus = Torus(doc)
    if command == "mollifier" and torus.n != 2:
        return 64, torus
    if command in CHECKS_MAP and not torus.equivariant:
        return 1, torus
    if command in ("rhs", "verify") and torus.orbits == 0 and not torus.fixed_set_empty():
        return 2, torus
    return 0, torus


def extract(report):
    """The parts of a JSON report that ``check`` reads, small enough to keep
    for every op; ``{}`` when the op wrote no report."""
    if report is None:
        return {}
    out = {}
    for side in ("lhs", "rhs"):
        if side in report:
            sec = report[side]
            out[side] = {"exact": sec["exact"], "value": sec["value"],
                         "orbit_count": sec.get("orbit_count")}
    if "spectrum" in report:
        spec = report["spectrum"]
        out["spectrum"] = {"cutoff": spec["cutoff"], "states": {
            q: sum(row["multiplicity"] for row in rows)
            for q, rows in spec["tables"].items()}}
    if "averaging" in report:
        out["averaging"] = report["averaging"]
    if "mollifier" in report:
        out["mollifier"] = {"oracle": report["mollifier"]["oracle"], "values": [
            row["value"] for row in report["mollifier"]["rows"]]}
    return out


def check(command, doc, code, report):
    """None when the op's exit code and exact values match the oracle, else
    a one-line reason.  ``report`` is ``extract``'s digest of the JSON
    report."""
    want, facts = expected_code(command, doc)
    allowed = {want}
    if command == "mollifier" and want == 0:
        allowed = _mollifier_codes(report["mollifier"]["values"])
    if code not in allowed:
        return f"exit code {code}, expected {' or '.join(map(str, sorted(allowed)))}"
    if code != 0:
        return None
    if isinstance(facts, Sphere):
        if command == "rhs":
            rhs = report["rhs"]
            if rhs["orbit_count"] != facts.k:
                return f"rhs.orbit_count {rhs['orbit_count']}, expected {facts.k}"
            if not _close(_value(rhs["value"]), facts.transverse_value()):
                return f"rhs.value {rhs['value']}, expected {facts.transverse_value()}"
        return None
    return _check_torus(command, facts, report)


def _check_torus(command, torus, report):
    if command in ("lhs", "verify"):
        reason = _check_side("lhs", torus, report["lhs"])
        if reason:
            return reason
    if command in ("rhs", "verify"):
        rhs = report["rhs"]
        if rhs["orbit_count"] != torus.orbits:
            return f"rhs.orbit_count {rhs['orbit_count']}, expected {torus.orbits}"
        reason = _check_side("rhs", torus, rhs)
        if reason:
            return reason
    if command == "spectrum":
        spec = report["spectrum"]
        modes = torus.basic_mode_count(spec["cutoff"])
        for q in range(torus.n):
            got = spec["states"][f"degree_{q}"]
            if got != modes * math.comb(torus.n - 1, q):
                return f"spectrum degree {q} has {got} states, expected " \
                       f"{modes * math.comb(torus.n - 1, q)}"
    if command == "avcheck":
        av = report["averaging"]
        worst = max(av["idempotent_residual"], av["self_adjoint_residual"],
                    av["equivariance_residual"])
        if worst > av["tolerance"]:
            return f"averaging residual {worst} above {av['tolerance']}"
    if command == "mollifier":
        moll = report["mollifier"]
        if abs(moll["oracle"] - MOLLIFIER_LIMIT) > VALUE_TOL:
            return f"mollifier.oracle {moll['oracle']}, expected 1"
    return None


def _check_side(side, torus, section):
    if torus.sigma is None:
        if section["exact"] is None or Fraction(section["exact"]) != torus.h1:
            return f"{side}.exact {section['exact']}, expected {torus.h1}"
        return None
    want = torus.lefschetz_value()
    if not _close(_value(section["value"]), want):
        return f"{side}.value {section['value']}, expected {want}"
    return None


def _mollifier_codes(values):
    """The documented convergence verdict, recomputed from the reported
    values against the independent limit: exit 0 when the last sharpness
    attains the smallest error and is within tolerance, else 1.  Within the
    report's rounding of either boundary both codes are right."""
    errors = [abs(v - MOLLIFIER_LIMIT) for v in values]
    last, best = errors[-1], min(errors)
    if last > MOLLIFIER_TOL + REPORT_ROUNDING or last > best + REPORT_ROUNDING:
        return {1}
    if last == best and last < MOLLIFIER_TOL - REPORT_ROUNDING:
        return {0}
    return {0, 1}
