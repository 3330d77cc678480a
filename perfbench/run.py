"""equilef benchmark: seeded verdict workloads, timed end to end, with an
optional traced run for per-layer numbers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload localized_orbits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client runs a closed loop in this process: each op is one
``scenario_cli.run(command, scenario_file, options)`` call that renders the
text report and writes ``--json`` to a file.  Every functools cache in the
``equilef`` modules is cleared before each op, so each op starts cold like a
one-process-per-invocation command.  ``EQUILEF_THREADS`` is removed from the
environment, so the mollifier quadrature runs on one thread.  Every op's
exit code and exact values are checked against ``oracle``, which does not
use equilef.

``--trace 0`` runs whole passes over the workload's op list for
``--seconds`` (at least ``MIN_PASSES``) and prints the end-to-end metrics,
taken from each op's best latency over the passes: a shared host's speed
drifts by tens of percent over seconds, and the best of many spaced repeats
of the same op is far steadier than any single one.  ``--trace 1``
alternates untraced and traced passes over the whole op list (at least one
of each, more while another pair fits in ``--seconds``) and prints the
per-layer metrics; its counts come from the first traced pass, so they
repeat exactly for a seed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
MIN_PASSES = 4
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402


def _quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    all order statistics, much less jumpy between runs than a single order
    statistic when op latencies are spread over decades."""
    from scipy.special import betainc

    n = len(values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], sorted(values))))


def _git_commit():
    """HEAD's commit read from ``.git`` files, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _options(json_path):
    return argparse.Namespace(cutoff=None, tolerance=None, grid=None,
                              json_path=json_path)


def setup(name, seed, workdir):
    """Fresh-process ``import equilef`` plus generating, writing and parsing
    the workload's scenario files; repeated, the median reported."""
    from equilef.errors import EquilefError
    from equilef.scenario_cli import load_scenario

    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import equilef"], env=env,
                       check=True, timeout=120)
        workload = workloads.build(name, seed, ROOT)
        paths = workloads.write(workload, workdir)
        for path in paths.values():
            try:
                load_scenario(path)
            except EquilefError:
                pass        # malformed fixtures are part of scenario_mix
        times.append(time.perf_counter() - t0)
    return statistics.median(times), workload, paths


class Client:
    """Runs ops one at a time and keeps what the checks and metrics need."""

    def __init__(self, workload, paths, workdir, caches):
        from equilef import scenario_cli

        self.cli = scenario_cli
        self.workload = workload
        self.paths = paths
        self.json_path = os.path.join(workdir, "report.json")
        self.caches = caches
        self.latencies = []
        self.best = [math.inf] * len(workload.ops)   # per op, over its runs
        self.results = collections.Counter()   # (op index, observed, code) -> runs
        self.errors = []           # (op index, repr) for uncaught exceptions
        self.report_bytes = 0
        self.digest = hashlib.sha256()
        self.done = 0

    def run_op(self, index, before=None, after=None):
        command, name = self.workload.ops[index]
        for cache in self.caches:
            cache.cache_clear()
        if os.path.exists(self.json_path):
            os.remove(self.json_path)
        stream = io.StringIO()
        if before:
            before()
        t0 = time.perf_counter()
        try:
            code = self.cli.run(command, self.paths[name], _options(self.json_path),
                                stream=stream)
        except Exception as exc:  # an escaped exception is a failed op
            code = None
            self.errors.append((index, repr(exc)[:200]))
        elapsed = time.perf_counter() - t0
        if after:
            after()
        self.latencies.append(elapsed)
        self.best[index] = min(self.best[index], elapsed)
        text = stream.getvalue()
        report = None
        if code is not None and os.path.exists(self.json_path):
            self.report_bytes += os.path.getsize(self.json_path)
            with open(self.json_path, encoding="utf-8") as fh:
                report = json.load(fh)
        self.report_bytes += len(text.encode())
        if self.done < len(self.workload.ops):
            self.digest.update(text.encode())
        if code is not None:
            self.results[index, json.dumps(oracle.extract(report)), code] += 1
        self.done += 1
        return elapsed

    def run_pass(self, **hooks):
        return sum(self.run_op(i, **hooks) for i in range(len(self.workload.ops)))

    def failures(self):
        """Executions whose exit code or values disagree with the oracle,
        plus executions that raised; and one line per distinct failure."""
        docs = {name: json.loads(doc) if isinstance(doc, str) else doc
                for name, doc in self.workload.scenarios.items()}
        failed = len(self.errors)
        reasons = [f"raised: {self.workload.ops[i]} {err}" for i, err in self.errors]
        for (index, obs, code), runs in self.results.items():
            command, name = self.workload.ops[index]
            reason = oracle.check(command, docs[name], code, json.loads(obs))
            if reason:
                failed += runs
                reasons.append(f"{command} {name}: {reason}")
        return failed, reasons


def timed_run(client, seconds):
    """Whole passes: ``MIN_PASSES``, then more while another pass of the
    mean length still fits in ``seconds``; every op runs equally often.
    Successive passes are pinned to each CPU this process may use in turn:
    on a shared host each CPU slows down on its own, for tens of seconds at
    a time, and an op's best latency then comes from whichever ran fast."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    passes = 0
    try:
        while passes < MIN_PASSES or (time.perf_counter() - start) * (1 + 1 / passes) <= seconds:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            client.run_pass()
            passes += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def end_to_end(client, setup_s):
    """Throughput and latency quantiles over each op's best latency: the
    op list at the speed it ran at when the host let it."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = client.best
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000.0 * _quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1000.0 * _quantile(lat, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(client, seconds, caches):
    """Alternate untraced and traced passes: one pair, then more while
    another pair still fits in ``seconds``."""
    import spans

    recorder = spans.Recorder()
    bm = sys.modules["equilef.basic_complex"].basic_modes
    hits = [0, 0]

    def count_cache():
        if passes_traced == 0:
            info = bm.cache_info()
            hits[0] += info.hits
            hits[1] += info.misses

    start = time.perf_counter()
    busy_plain = busy_traced = 0.0
    passes_plain = passes_traced = 0
    counts = report_bytes = None
    while passes_traced == 0 or (time.perf_counter() - start) * (1 + 1 / passes_traced) <= seconds:
        busy_plain += client.run_pass()
        passes_plain += 1
        with spans.traced(recorder):
            bytes_before = client.report_bytes
            busy_traced += client.run_pass(
                before=lambda: setattr(recorder, "op", client.done),
                after=count_cache)
            if passes_traced == 0:
                report_bytes = client.report_bytes - bytes_before
                counts = dict(recorder.counts)
        passes_traced += 1
    ops = len(client.workload.ops)
    recorder.counts = counts
    metrics = spans.layer_metrics(recorder, passes_traced, busy_traced, ops)
    metrics["report_bytes"] = (report_bytes, "count")
    metrics["basic_modes.cache_hit_ratio"] = (
        hits[0] / (hits[0] + hits[1]) if hits[0] + hits[1] else 0.0, "ratio")
    metrics["untraced_ops_per_s"] = (passes_plain * ops / busy_plain, "1/s")
    metrics["trace_overhead_ratio"] = (
        metrics["untraced_ops_per_s"][0] / metrics["traced_ops_per_s"][0], "ratio")
    metrics["caches_cleared"] = (len(caches), "count")
    return metrics, recorder


def defect_probe(seed, workdir, caches):
    """Known-defect inputs, untimed and outside attempted/failed: the share
    of them that fail the oracle today."""
    probe = workloads.defect_probe(seed)
    paths = workloads.write(probe, workdir)
    client = Client(probe, paths, workdir, caches)
    client.run_pass()
    failed, _ = client.failures()
    return failed / len(probe.ops)


def run_workload(name, seed, seconds, trace_on):
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".perfbench"))
    threads = os.environ.pop("EQUILEF_THREADS", None)
    try:
        sys.path.insert(0, SRC)
        import equilef.scenario_cli  # noqa: F401  (import is not part of set-up)
        import spans

        setup_s, workload, paths = setup(name, seed, workdir)
        caches = spans.discover_caches()
        client = Client(workload, paths, workdir, caches)
        passes = None
        if trace_on:
            metrics, recorder = traced_run(client, seconds, caches)
            metrics["defect_probe.failed_ratio"] = (defect_probe(seed, workdir, caches), "ratio")
            spans_path = os.path.join(ROOT, ".perfbench", f"spans-{name}-{seed}.jsonl.gz")
            recorder.dump(spans_path)
        else:
            passes = timed_run(client, seconds)
            metrics = end_to_end(client, setup_s)
        failed, reasons = client.failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy
    import sympy

    record = {
        "workload": name, "seed": seed, "trace": int(trace_on),
        "ops_per_pass": len(workload.ops), "ops_run": client.done,
        "passes": passes, "caches_cleared": len(caches),
        # over the first full pass only; a run that did not finish one has none
        "report_sha256": client.digest.hexdigest() if client.done >= len(workload.ops) else None,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "sympy": sympy.__version__,
        "EQUILEF_THREADS": threads if threads is not None else "unset",
        "git_commit": _git_commit(),
    }
    for line in reasons[:20]:
        print(f"FAIL {line}")
    return record, metrics, client.done, failed


def _print_result(record, metrics, attempted, failed):
    print("record: " + json.dumps(record, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"  {key:52s} {value:>16.6g} {unit}")
    print(f"  failed_ratio {failed / attempted:.6g} ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _run_all(args):
    """Every workload, each in its own process, one after another."""
    combined, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            combined[f"{name}/{key}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "equilef", "__init__.py")):
        sys.stderr.write(f"error: no equilef sources under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    if args.workload == "all":
        return _run_all(args)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    record, metrics, attempted, failed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(record, metrics, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
