"""Seeded scenario generators and op lists for the three benchmark workloads.

A workload is a list of scenario documents plus a list of ops, each op one
``(command, scenario name)`` pair.  The program only ever sees the scenario
files written from these documents; the seed never reaches it.

Cost-driving inputs do not depend on the seed, so every seed runs ops of the
same cost and a run's figures move with the program, not with the draw.
Sizes (fixed-orbit count and its factorisation, mode cutoff, twist, gating,
mollifier sharpness) take the midpoint of the ``i``-th of ``N`` equal slices
of their range for op ``i``, or cycle through a fixed list.  The torus maps
and flows, whose entry sizes also set the cost, come from a generator seeded
by the op index alone; the seed then relabels and flips their coordinates (a
signed permutation, which keeps entry sizes) and draws the translations,
sphere weights and phases, and bump radii.  Ops are put in van der Corput
order, so heavy and light ops alternate through a pass; ``scenario_mix``,
whose ops are all small, is simply shuffled.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

WORKLOADS = ("localized_orbits", "spectral_heat", "scenario_mix")

# the committed fixtures scenario_mix runs; a fixed list, so a fixture added
# later does not change the workload
COMMITTED = (
    "bad_float", "bad_matrix", "classical_t3", "diag23_t3", "doubling_t3",
    "identity_irrational_t2", "mollifier_doubling_t2", "mollifier_tripling_t2",
    "negation_t4", "nofix_translation_t3", "s3_rational", "s3_twisted",
    "s5_irrational", "shifted_classical_t3", "translation_only_t3",
    "twisted_halfweight_t2", "twisted_unit_t3",
)
MIX_COMMANDS = ("validate", "lhs", "rhs", "verify", "spectrum", "avcheck")

MAX_ORBITS = 64             # top of the log-uniform fixed-orbit range
TORSION_LIMIT = 10**6       # solve_congruences refuses larger torsion groups
GENERATORS = ("alpha", "beta")


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: dict          # scenario name -> JSON document
    ops: tuple               # (command, scenario name) in run order


def _vdc(i):
    """Van der Corput radical inverse of ``i`` in base 2."""
    x, denom = 0.0, 1.0
    while i:
        denom *= 2.0
        x += (i & 1) / denom
        i >>= 1
    return x


def _spread(items):
    return [items[i] for i in sorted(range(len(items)), key=_vdc)]


def _midpoints(n):
    """The midpoint of each of ``n`` equal slices of [0, 1)."""
    return [(i + 0.5) / n for i in range(n)]


# ---------------------------------------------------------------------------
# exact integer matrices


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _unimodular(rng, n, steps=3):
    """A product of ``steps`` elementary shears with multipliers +-1 and a
    coordinate permutation, with its exact inverse."""
    U, Uinv = _identity(n), _identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        E, Einv = _identity(n), _identity(n)
        E[i][j], Einv[i][j] = s, -s
        U, Uinv = _mul(U, E), _mul(Einv, Uinv)
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    Pinv = [list(row) for row in zip(*P)]
    return _mul(P, U), _mul(Uinv, Pinv)


def _base_block(rng, c, orbits, split):
    """A ``c x c`` integer matrix ``B`` with ``|det(B - I)| = orbits``; for
    ``c >= 2``, ``split`` picks which small divisor of ``orbits`` becomes an
    invariant factor of its own."""
    diag = [1] * c
    if c >= 2:
        small = [d for d in range(1, math.isqrt(orbits) + 1) if orbits % d == 0]
        d = small[split % len(small)]
        diag[-2], diag[-1] = d, orbits // d
    else:
        diag[-1] = orbits
    diag[-1] *= rng.choice((-1, 1))
    U, _ = _unimodular(rng, c, steps=2)
    V, _ = _unimodular(rng, c, steps=2)
    D = [[diag[i] if i == j else 0 for j in range(c)] for i in range(c)]
    M = _mul(_mul(U, D), V)
    return [[M[i][j] + (i == j) for j in range(c)] for i in range(c)]


def _signed_permutation(rng, n):
    """A random signed permutation matrix and its inverse (its transpose).
    Conjugating by it relabels coordinates and flips their signs, so entry
    sizes, and with them an op's cost, stay as they were."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    Q = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    return Q, [list(row) for row in zip(*Q)]


def _torus_case(rng, shape, n, w_cols, orbits, split=0):
    """An equivariant map on the flat ``n``-torus and its flow.

    ``w_cols`` lists the flow's coefficient columns (rational part, then one
    per generator) restricted to the last ``len(w_cols[0])`` coordinates, in
    normal form; the flow closure spans those coordinates.  The normal-form
    map fixes them pointwise and acts on the others by a block with
    ``|det(B - I)| = orbits``.  Both are then moved by one unimodular change
    of coordinates, so neither the flow nor the map is axis-aligned.  All of
    this is drawn from ``shape``, which the seed does not reach; the seeded
    ``rng`` only picks a final signed permutation of the coordinates."""
    w = len(w_cols[0])
    c = n - w
    B = _base_block(shape, c, orbits, split)
    A0 = _identity(n)
    for i in range(c):
        for j in range(c):
            A0[i][j] = B[i][j]
    for i in range(c, n):
        for j in range(c):
            A0[i][j] = shape.randint(-1, 1)
    V0 = [[0] * len(w_cols) for _ in range(c)] + [
        [col[i] for col in w_cols] for i in range(w)]
    P, Pinv = _unimodular(shape, n)
    Q, Qinv = _signed_permutation(rng, n)
    P, Pinv = _mul(Q, P), _mul(Pinv, Qinv)
    A = _mul(_mul(P, A0), Pinv)
    V = _mul(P, V0)
    return A, V


def _entry(row, labels):
    """Scenario JSON for one flow coordinate from its coefficient row."""
    if all(x == 0 for x in row[1:]):
        return str(row[0])
    out = {"rational": str(row[0])} if row[0] else {}
    for label, x in zip(labels, row[1:]):
        if x:
            out[label] = str(x)
    return out


def _translation(rng, n):
    return [str(Fraction(rng.randint(0, 5), rng.choice((2, 3, 5, 7))))
            for _ in range(n)]


def _torus_doc(name, A, V, labels, translation, cutoff=None, **extra):
    doc = {
        "schema": 1,
        "name": name,
        "generators": [{"name": label} for label in labels],
        "model": {"type": "flat_torus", "n": len(A),
                  "v": [_entry(row, labels) for row in V]},
        "map": {"matrix": A, "translation": translation},
    }
    if cutoff is not None:
        doc["cutoffs"] = {"modes": cutoff}
    doc.update(extra)
    return doc


def _full_rank_block(rng, size):
    """A random small integer ``size x size`` matrix with nonzero
    determinant, as columns."""
    while True:
        cols = [[rng.randint(-1, 2) for _ in range(size)] for _ in range(size)]
        M = [list(r) for r in zip(*cols)]
        if _det(M) != 0:
            return cols


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(n))


# ---------------------------------------------------------------------------
# workloads


def localized_orbits(seed, n_ops=30):
    """``verify`` at cutoff 2 on T^3/T^4 with rational flows (2- and 3-dim
    bases); fixed-orbit counts log-uniform on [1, MAX_ORBITS]."""
    rng = random.Random(f"localized_orbits/{seed}")
    scenarios, ops = {}, []
    for i, u in enumerate(_midpoints(n_ops)):
        orbits = max(1, round(MAX_ORBITS ** u))
        n = 3 + i % 2
        shape = random.Random(f"localized_orbits/op{i}")
        A, V = _torus_case(rng, shape, n, [[1]], orbits, split=i // 2)
        name = f"loc{i:03d}"
        scenarios[name] = _torus_doc(name, A, V, (), _translation(rng, n),
                                     cutoff=2)
        ops.append(("verify", name))
    return Workload("localized_orbits", scenarios, tuple(_spread(ops)))


FLOW_KINDS = ((1, True), (2, True), (2, False))
SPECTRAL_SHAPES = ((4, 3), (4, 4), (4, 5), (5, 2), (5, 3), (5, 4))
TWISTED_SHAPES = ((4, 2),) * 3
TWIST_WEIGHTS = ("1", "1/2", {"alpha": "1"}, {"alpha": "1", "rational": "1"})
PHI_SCALARS = ([1, 0], [0, 1], [-1, 0])


def spectral_heat(seed):
    """``verify``/``spectrum`` on T^4/T^5 with irrational flows, at most four
    fixed orbits, cutoff 2-5; one op in three carries a line-bundle twist
    (T^4 at cutoff 2: a twisted op scans its box once per heat time)."""
    rng = random.Random(f"spectral_heat/{seed}")
    plan = [("verify", shape, False) for shape in SPECTRAL_SHAPES]
    plan += [("spectrum", shape, False) for shape in SPECTRAL_SHAPES]
    plan += [("verify", shape, True) for shape in TWISTED_SHAPES * 2]
    scenarios, ops = {}, []
    for i, (command, (n, cutoff), twisted) in enumerate(plan):
        # the closure is spanned by the rational part and each generator, or
        # by the generators alone; the kind cycles with the op index so every
        # seed has the same mix
        gens, with_rational = (1, True) if twisted else FLOW_KINDS[i % 3]
        labels = GENERATORS[:gens]
        size = gens + int(with_rational)
        shape = random.Random(f"spectral_heat/op{i}")
        block = _full_rank_block(shape, size)
        w_cols = block if with_rational else [[0] * size] + block
        A, V = _torus_case(rng, shape, n, w_cols, 1 + i % 4)
        extra = {}
        if twisted:
            extra["twist"] = {"weight": TWIST_WEIGHTS[i % len(TWIST_WEIGHTS)],
                              "phi_scalar": PHI_SCALARS[i % len(PHI_SCALARS)]}
        name = f"spec{i:03d}"
        scenarios[name] = _torus_doc(name, A, V, labels, _translation(rng, n),
                                     cutoff=cutoff, **extra)
        ops.append((command, name))
    return Workload("spectral_heat", scenarios, tuple(_spread(ops)))


def _sphere_doc(rng, name, k, twisted, gated):
    """A weighted-sphere scenario whose fixed set is infinite (the
    transversality gate, exit 2) exactly when ``gated``: the gated ones are
    about a tenth as costly, so their number is fixed for every seed."""
    while True:
        weights = [rng.randint(1, 4) for _ in range(k)]
        phases = [str(Fraction(rng.randint(1, 10), 11)) for _ in range(k)]
        doc = {"schema": 1, "name": name,
               "model": {"type": "weighted_sphere", "k": k,
                         "weights": [str(w) for w in weights]},
               "map": {"phases": phases}}
        if math.gcd(*weights) == 1 and oracle.Sphere(doc).infinite() == gated:
            break
    if twisted:
        doc["twist"] = {"weight": str(rng.randint(1, 3)), "phi_scalar": [1, 0]}
    return doc


def scenario_mix(seed, root, n_spheres=24):
    """Every command but ``mollifier`` on every committed fixture, plus
    seeded weighted-sphere ``rhs`` and small T^2 ``mollifier`` scenarios."""
    rng = random.Random(f"scenario_mix/{seed}")
    scenarios, ops = {}, []
    for name in COMMITTED:
        path = os.path.join(root, "scenarios", f"{name}.scenario")
        with open(path, encoding="utf-8") as fh:
            scenarios[name] = fh.read()
        ops.extend((command, name) for command in MIX_COMMANDS)
    for i in range(n_spheres):
        name = f"sph{i:03d}"
        scenarios[name] = _sphere_doc(rng, name, k=2 + i % 2, twisted=i % 3 == 0,
                                      gated=i % 6 == 5)
        ops.append(("rhs", name))
    for i in range(len(MOLLIFIER_MAPS) * 2):
        name = f"moll{i:03d}"
        scenarios[name] = _mollifier_doc(rng, name, MOLLIFIER_MAPS[i % 3])
        ops.append(("mollifier", name))
    rng.shuffle(ops)
    return Workload("scenario_mix", scenarios, tuple(ops))


MOLLIFIER_MAPS = ([[2, 0], [0, 1]], [[3, 0], [0, 1]], [[-1, 0], [0, 1]])
MOLLIFIER_K = [8, 10, 12]    # about 15 ms per op, small like the rest of the mix


def _mollifier_doc(rng, name, matrix):
    """``mollifier`` on T^2 with ``matrix``, a seeded translation and a
    bump radius in [1/5, 2/5], at sharpness ``MOLLIFIER_K``."""
    return {
        "schema": 1, "name": name,
        "model": {"type": "flat_torus", "n": 2, "v": ["0", "1"]},
        "map": {"matrix": matrix,
                "translation": [str(Fraction(rng.randint(0, 4), 5)), "0"]},
        "mollifier": {"k_list": MOLLIFIER_K,
                      "radius": str(Fraction(rng.randint(20, 40), 100))},
    }


def build(name, seed, root):
    if name == "localized_orbits":
        return localized_orbits(seed)
    if name == "spectral_heat":
        return spectral_heat(seed)
    if name == "scenario_mix":
        return scenario_mix(seed, root)
    raise ValueError(f"unknown workload {name!r}")


def defect_probe(seed):
    """Known-defect inputs: T^3 maps whose fixed-orbit count is beyond
    ``solve_congruences``' torsion limit.  Today these escape as a raw
    ``ValueError``; they run outside the timed workloads."""
    rng = random.Random(f"defect_probe/{seed}")
    scenarios = {}
    for i in range(2):
        d = rng.randint(math.isqrt(TORSION_LIMIT) + 1, 1100)
        A = [[d + 1, 0, 0], [0, d + 1, 0], [0, 0, 1]]
        name = f"defect{i}"
        scenarios[name] = _torus_doc(name, A, [[0], [0], [1]], (),
                                     ["0", "0", "0"], cutoff=2)
    return Workload("defect_probe", scenarios,
                    tuple(("rhs", name) for name in scenarios))


def write(workload, directory):
    """Write every scenario file; return name -> path."""
    paths = {}
    for name, doc in workload.scenarios.items():
        path = os.path.join(directory, f"{name}.scenario")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc, indent=1))
        paths[name] = path
    return paths
