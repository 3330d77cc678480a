"""An exhaustive small-scope census: ``verify`` on every map of one bounded
class on the flat 2-torus, run in process through ``scenario_cli.run``.

The domain:

- flows ``v`` = (1, 0), (0, 1), (1, 1), (1, -3) and (2, 1);
- every integer matrix ``A`` with entries in [-3, 3] and ``A v = v``
  (49, 49, 36, 6 and 12 of them, 152 in all);
- no twist, or a twist of weight 1, -1, 2 or -10;
- translation 0, (1/2, 0) or (1/3, 1/2);
- mode cutoff 4.

That is 2 280 runs.  Each exits 0, 1 or 2; an exit 1 is always a twisted
map whose pull-back is not a cochain map on all forms (``cochain_on_all``
False), and an exit 2 is always the ``InfiniteFixedSet`` gate.  The count
of each outcome is pinned, so a change in the distribution shows here and
must be explained where it is made.  The census trusts each verdict; it
does not judge the values.
"""

import io
import itertools
import json
from collections import Counter

import pytest

from equilef import scenario_cli as cli

FLOWS = ((1, 0), (0, 1), (1, 1), (1, -3), (2, 1))
ENTRIES = range(-3, 4)
TWISTS = (None, "1", "-1", "2", "-10")
TRANSLATIONS = (("0", "0"), ("1/2", "0"), ("1/3", "1/2"))
CUTOFF = 4

# outcome counts of the whole domain
EXPECTED = {0: 1282, 1: 858, 2: 140}


def matrices(v):
    """Every 2 x 2 integer matrix with entries in ``ENTRIES`` fixing ``v``."""
    for a, b, c, d in itertools.product(ENTRIES, repeat=4):
        if (a * v[0] + b * v[1], c * v[0] + d * v[1]) == v:
            yield [[a, b], [c, d]]


def domain():
    for v in FLOWS:
        for matrix in matrices(v):
            for weight, translation in itertools.product(TWISTS, TRANSLATIONS):
                yield v, matrix, weight, translation


def scenario(v, matrix, weight, translation):
    doc = {
        "schema": 1,
        "name": "census_t2",
        "model": {"type": "flat_torus", "n": 2, "v": [str(x) for x in v]},
        "map": {"matrix": matrix, "translation": list(translation)},
        "cutoffs": {"modes": CUTOFF},
    }
    if weight is not None:
        doc["twist"] = {"weight": weight}
    return doc


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """``(case, exit code, text report, JSON report or None)`` per run."""
    workdir = tmp_path_factory.mktemp("census")
    path = workdir / "case.scenario"
    json_path = workdir / "case.json"
    runs = []
    for case in domain():
        path.write_text(json.dumps(scenario(*case)))
        json_path.unlink(missing_ok=True)
        stream = io.StringIO()
        code = cli.run("verify", str(path),
                       cli.options(json_path=str(json_path)), stream)
        report = json.loads(json_path.read_text()) if json_path.exists() else None
        runs.append((case, code, stream.getvalue(), report))
    return runs


def test_the_domain_has_152_maps():
    assert [sum(1 for _ in matrices(v)) for v in FLOWS] == [49, 49, 36, 6, 12]
    assert sum(1 for _ in domain()) == 152 * len(TWISTS) * len(TRANSLATIONS)


def test_outcome_counts_are_pinned(census):
    assert Counter(code for _, code, _, _ in census) == EXPECTED


def test_a_pass_is_a_passing_verdict(census):
    for case, code, _, report in census:
        if code == 0:
            assert report["verdict"]["pass"] is True, case


def test_a_discrepancy_is_a_twisted_map_off_the_cochain_maps(census):
    for case, code, _, report in census:
        if code == 1:
            _, _, weight, _ = case
            assert weight is not None, case
            assert report["equivariance"]["cochain_on_all"] is False, case
            assert report["verdict"]["pass"] is False, case


def test_a_gate_is_an_infinite_fixed_set(census):
    for case, code, text, report in census:
        if code == 2:
            assert text.startswith("InfiniteFixedSet: "), case
            assert report is None, case
