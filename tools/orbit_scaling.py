"""Time ``verify --json`` against the fixed-orbit count, in process.

Run with the package under test on the path:

    PYTHONPATH=src python tools/orbit_scaling.py
    PYTHONPATH=src python tools/orbit_scaling.py --orbits 100 400 1600 --repeat 7

Each orbit count N runs in a fresh interpreter, on the flat 3-torus with
flow v = (0, 0, 1) and the map diag(a + 1, b + 1, 1) with translation
(1/3, 2/7, 1/5), where a b = N and a is the largest divisor of N up to
sqrt(N) (so diag(k, k, 1) with N = (k - 1)^2 when N is a square), at mode
cutoff 2.  That process calls ``scenario_cli.run("verify", ...)`` with
``--json`` to a file ``--repeat`` times, every functools cache of the
``equilef`` modules cleared before each call (the caches
``perfbench/spans.py`` finds), and reports the best time and
its peak resident set.  The table gives, per count, the best seconds, that
time per orbit, the peak RSS and the bytes of the JSON and the text
report; the last line fits seconds against N by least squares and prints
the slope in microseconds per orbit.
"""

import argparse
import io
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

DEFAULT_ORBITS = (1, 10, 100, 1000, 10000)


def diagonal(orbits):
    """``(a + 1, b + 1)`` with ``a b = orbits`` and ``a`` the largest
    divisor of ``orbits`` up to its square root."""
    a = max(d for d in range(1, math.isqrt(orbits) + 1) if orbits % d == 0)
    return a + 1, orbits // a + 1


def scenario(orbits):
    p, q = diagonal(orbits)
    return {
        "schema": 1,
        "name": f"diag{p}_{q}_t3",
        "model": {"type": "flat_torus", "n": 3, "v": ["0", "0", "1"]},
        "map": {"matrix": [[p, 0, 0], [0, q, 0], [0, 0, 1]],
                "translation": ["1/3", "2/7", "1/5"]},
        "cutoffs": {"modes": 2},
    }


def measure(orbits, repeat):
    """Best seconds of ``repeat`` in-process ``verify --json`` calls, the
    peak RSS in MB, in this process, and the bytes of the JSON and the text
    report."""
    from equilef import scenario_cli as cli

    caches = spans.discover_caches()
    with tempfile.TemporaryDirectory() as workdir:
        path = pathlib.Path(workdir) / "scaling.scenario"
        path.write_text(json.dumps(scenario(orbits)))
        report = pathlib.Path(workdir) / "r.json"
        options = cli.options(json_path=str(report))
        best = math.inf
        for _ in range(repeat):
            for cache in caches:
                cache.cache_clear()
            stream = io.StringIO()
            start = time.perf_counter()
            code = cli.run("verify", str(path), options, stream)
            best = min(best, time.perf_counter() - start)
            if code != cli.EXIT_PASS:
                raise SystemExit(f"verify exited {code} at {orbits} orbits")
        json_bytes = report.stat().st_size
    text_bytes = len(stream.getvalue().encode())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return best, peak_mb, json_bytes, text_bytes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orbits", type=int, nargs="+", default=DEFAULT_ORBITS)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, args.repeat)))
        return 0
    rows = []
    print(f"{'orbits':>8} {'best s':>10} {'us/orbit':>10} {'peak MB':>9} "
          f"{'JSON bytes':>11} {'text bytes':>11}")
    for orbits in args.orbits:
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(orbits),
             "--repeat", str(args.repeat)],
            check=True, capture_output=True, text=True).stdout
        best, peak_mb, json_bytes, text_bytes = json.loads(out.splitlines()[-1])
        rows.append((orbits, best))
        print(f"{orbits:>8} {best:>10.4f} {best / orbits * 1e6:>10.1f} "
              f"{peak_mb:>9.1f} {json_bytes:>11} {text_bytes:>11}")
    if len(rows) > 1:
        counts, seconds = zip(*rows)
        slope = statistics.linear_regression(counts, seconds).slope
        print(f"fitted: {slope * 1e6:.1f} us per orbit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
