"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _load(name):
    with open(os.path.join(ROOT, "scenarios", f"{name}.scenario"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _client(workload, tmp_path):
    paths = workloads.write(workload, str(tmp_path))
    return run.Client(workload, paths, str(tmp_path), spans.discover_caches())


def _small(workload, keep):
    ops = tuple(op for op in workload.ops if op[1] in keep)
    return workloads.Workload(workload.name, workload.scenarios, ops)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_lefschetz_values_from_charpoly():
    classical = oracle.Torus(_load("classical_t3"))
    assert classical.h1 == -1 and classical.orbits == 1
    doc = _load("classical_t3")
    doc["map"]["matrix"] = [[41, 0, 0], [0, 41, 0], [0, 0, 1]]
    big = oracle.Torus(doc)
    assert big.h1 == 1600 and big.orbits == 1600
    # an irrational flow closes up to a 2-torus: h(1) vanishes, orbits remain
    negation = oracle.Torus(_load("negation_t4"))
    assert negation.closure_dim == 2 and negation.h1 == 0 and negation.orbits == 4


def test_oracle_sphere_and_twist_values():
    assert abs(oracle.Sphere(_load("s3_rational")).transverse_value() - 0.75) < 1e-12
    assert abs(oracle.Sphere(_load("s3_twisted")).transverse_value() - 0.25) < 1e-12
    assert oracle.Sphere(_load("s5_irrational")).infinite()
    twisted = oracle.Torus(_load("twisted_unit_t3")).lefschetz_value()
    assert abs(twisted - (0.5 - 0.75 ** 0.5 * 1j)) < 1e-12
    assert oracle.Torus(_load("twisted_halfweight_t2")).lefschetz_value() == 0


@pytest.mark.parametrize("name, command, code", [
    ("bad_float", "verify", 64), ("bad_matrix", "validate", 1),
    ("bad_matrix", "spectrum", 0), ("s3_rational", "lhs", 64),
    ("s5_irrational", "rhs", 2), ("translation_only_t3", "verify", 2),
    ("nofix_translation_t3", "rhs", 0), ("classical_t3", "mollifier", 64),
])
def test_oracle_exit_codes_follow_the_documented_contract(name, command, code):
    assert oracle.expected_code(command, _load(name))[0] == code


def test_oracle_rejects_wrong_values_and_codes():
    doc = _load("classical_t3")
    good = {"lhs": {"exact": "-1", "value": {"re": -1.0, "im": 0.0}},
            "rhs": {"exact": "-1", "value": {"re": -1.0, "im": 0.0}, "orbit_count": 1}}
    assert oracle.check("verify", doc, 0, good) is None
    assert oracle.check("verify", doc, 1, good)
    wrong = json.loads(json.dumps(good))
    wrong["rhs"]["exact"] = str(Fraction(-2))
    assert "rhs.exact" in oracle.check("verify", doc, 0, wrong)
    wrong = json.loads(json.dumps(good))
    wrong["rhs"]["orbit_count"] = 2
    assert "orbit_count" in oracle.check("verify", doc, 0, wrong)


def test_mollifier_verdict_is_recomputed_from_the_limit():
    assert oracle._mollifier_codes([1.01, 1.001, 1.0001]) == {0}
    assert oracle._mollifier_codes([1.01, 1.0001, 1.001]) == {1}
    assert oracle._mollifier_codes([1.2, 1.1, 1.06]) == {1}
    assert oracle._mollifier_codes([1.01, 1.0001, 1.0001 + 1e-13]) == {0, 1}


def test_known_defect_inputs_fail(tmp_path):
    probe = workloads.defect_probe(1)
    client = _client(probe, tmp_path)
    client.run_pass()
    failed, reasons = client.failures()
    assert failed == len(probe.ops) and all("raised" in r for r in reasons)


# ---------------------------------------------------------------------------
# workloads


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, ROOT)
        assert a == workloads.build(name, 7, ROOT)
        b = workloads.build(name, 8, ROOT)
        assert a.scenarios != b.scenarios
        assert len(a.ops) == len(b.ops)


def test_generated_maps_hit_their_orbit_counts():
    wl = workloads.localized_orbits(3, n_ops=12)
    counts = sorted(oracle.Torus(doc).orbits for doc in wl.scenarios.values())
    assert counts[0] >= 1 and counts[-1] <= workloads.MAX_ORBITS
    assert all(oracle.Torus(doc).equivariant for doc in wl.scenarios.values())


# ---------------------------------------------------------------------------
# cold start and tracing


def test_caches_are_discovered_including_new_ones():
    import functools

    import equilef.basic_complex as bc

    before = spans.discover_caches()
    assert len(before) >= 6
    bc._probe_cache = functools.lru_cache(maxsize=None)(lambda x: x)
    try:
        assert len(spans.discover_caches()) == len(before) + 1
    finally:
        del bc._probe_cache


def test_first_traced_call_after_clearing_misses_the_cache(tmp_path):
    wl = workloads.spectral_heat(2)
    spectrum = next(op for op in wl.ops if op[0] == "spectrum")
    client = _client(workloads.Workload(wl.name, wl.scenarios, (spectrum,)), tmp_path)
    metrics, _ = run.traced_run(client, 0, client.caches)
    assert metrics["basic_complex.basic_modes.calls"][0] >= 2
    assert metrics["basic_modes.cache_hit_ratio"][0] < 1
    assert metrics["modes_scanned"][0] > 0


def test_spans_nest_and_self_times_cover_the_op(tmp_path):
    wl = workloads.localized_orbits(4, n_ops=8)
    client = _client(_small(wl, {"loc002", "loc003"}), tmp_path)
    recorder = spans.Recorder()
    walls = []
    with spans.traced(recorder):
        for index in range(len(client.workload.ops)):
            recorder.op = index
            walls.append(client.run_op(index))
    assert len(recorder) > 0
    for i in range(len(recorder)):
        p = recorder.parent[i]
        assert recorder.start[i] <= recorder.end[i]
        if p >= 0:
            assert recorder.start[p] <= recorder.start[i] <= recorder.end[i] <= recorder.end[p]
            assert recorder.op_of[p] == recorder.op_of[i]
    for op, wall in enumerate(walls):
        ids = [i for i in range(len(recorder)) if recorder.op_of[i] == op]
        rows = recorder.self_times(ids[0], ids[-1] + 1)
        total_self = sum(row[1] for row in rows.values())
        assert abs(total_self - wall) <= 0.05 * wall
    # the CLI imports these by name, and COMMANDS holds the cmd_* functions
    names = {recorder.names[recorder.name_id[i]] for i in range(len(recorder))}
    assert {"scenario_cli.cmd_verify", "endomorphism.validate_equivariance",
            "_ratlin.hnf_with_transform"} <= names


def test_wrappers_are_removed_after_tracing():
    import equilef.scenario_cli as cli

    before = (cli.run, cli.validate_equivariance, cli.COMMANDS["verify"])
    with spans.traced(spans.Recorder()):
        assert cli.run is not before[0] and cli.COMMANDS["verify"] is not before[2]
    assert (cli.run, cli.validate_equivariance, cli.COMMANDS["verify"]) == before


# ---------------------------------------------------------------------------
# the runner


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(proc):
    line = next(l for l in proc.stdout.splitlines() if l.startswith("record: "))
    return json.loads(line[len("record: "):])


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = _bench("--workload", "scenario_mix", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = _record(proc)
    for key in ("nproc", "python", "numpy", "sympy", "EQUILEF_THREADS",
                "git_commit", "seed", "ops_per_pass", "caches_cleared",
                "report_sha256"):
        assert key in record
    assert record["EQUILEF_THREADS"] == "unset" and record["caches_cleared"] >= 6


def test_traced_run_prints_the_per_layer_metrics():
    proc = _bench("--workload", "scenario_mix", "--seed", "5", "--seconds", "0", "--trace", "1")
    result = _last_json(proc)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["correct"] and result["metrics"]["trace_overhead_ratio"]["value"] > 0
    assert result["metrics"]["defect_probe.failed_ratio"]["value"] == 1


def test_same_seed_repeats_counts_and_digests(tmp_path):
    def once(seed, sub):
        loc = _small(workloads.localized_orbits(seed, n_ops=8), {"loc001", "loc002"})
        spec = workloads.spectral_heat(seed)
        mix = workloads.scenario_mix(seed, ROOT)
        moll = next(op for op in mix.ops if op[0] == "mollifier")
        scenarios = {**loc.scenarios, **spec.scenarios, moll[1]: mix.scenarios[moll[1]]}
        ops = loc.ops + tuple(op for op in spec.ops if op[1] == "spec006") + (moll,)
        (tmp_path / sub).mkdir()
        client = _client(workloads.Workload("mixed", scenarios, ops), tmp_path / sub)
        metrics, _ = run.traced_run(client, 0, client.caches)
        return metrics, client.digest.hexdigest()

    (a, da), (b, db) = once(9, "a"), once(9, "b")
    for name in ("orbits_enumerated", "modes_scanned", "quadrature_cells", "snf_entries"):
        assert a[name][0] == b[name][0] > 0
    assert da == db
    c, dc = once(10, "c")
    assert dc != da


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scenario_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
