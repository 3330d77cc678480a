"""Time ``spectrum --json`` against the torus dimension and the mode cutoff,
in process.

Run with the package under test on the path:

    PYTHONPATH=src python tools/spectrum_scaling.py
    PYTHONPATH=src python tools/spectrum_scaling.py --case t9_axis c499_357 --repeat 5

The cases are

* ``t<n>_axis`` and ``t<n>_ramp`` for n = 3 to 10: the flat n-torus with
  flow v = e_n (the basic modes are the whole box in the first n - 1
  coordinates) or v = (1, 2, ..., n) (one constraint, a sparse lattice), at
  mode cutoff 8;
* ``classical_t3_c50``, ``_c200`` and ``_c499``: the committed
  ``classical_t3`` scenario (v = e_3) at those cutoffs;
* ``c499_357``: the 3-torus with v = (3, 5, 7) at cutoff 499;
* the size limits of the norm count: ``classical_t3_c1303``, the largest
  cutoff whose 499 596 norm classes stay within
  ``basic_complex.NORM_CLASS_LIMIT``, and ``_c2000``, refused by it;
  ``t2_axis_c499999``, the 2-torus with v = e_2 at the largest cutoff the
  listing accepted (500 000 classes), and ``t2_axis_c4999999``, refused;
  ``t3_line_c499999``, the 3-torus with v = (1, alpha, 0), whose basic
  modes are the line through e_3, at the same cutoff: the longest table
  the listing accepted in three dimensions.

Every generated scenario has the identity map.  Each case runs in a fresh
interpreter, which calls ``scenario_cli.run("spectrum", ...)`` with
``--json`` to a file ``--repeat`` times, every functools cache of the
``equilef`` modules cleared before each call (the caches
``perfbench/spans.py`` finds).  The table gives, per case, the best
seconds, the peak RSS of that process, the bytes of the text and the JSON
report and the exit code; a refused case (exit 1) is timed the same way.
"""

import argparse
import io
import json
import math
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

CUTOFF = 8


def _torus(name, v):
    n = len(v)
    return {"schema": 1, "name": name,
            "model": {"type": "flat_torus", "n": n,
                      "v": [a if isinstance(a, dict) else str(a) for a in v]},
            "map": {"matrix": [[int(i == j) for j in range(n)]
                               for i in range(n)],
                    "translation": ["0"] * n}}


def cases():
    """Case name -> (scenario document, cutoff)."""
    out = {}
    for n in range(3, 11):
        out[f"t{n}_axis"] = (_torus(f"t{n}_axis", (0,) * (n - 1) + (1,)), CUTOFF)
        out[f"t{n}_ramp"] = (_torus(f"t{n}_ramp", range(1, n + 1)), CUTOFF)
    classical = json.loads((ROOT / "scenarios" / "classical_t3.scenario").read_text())
    for cutoff in (50, 200, 499, 1303, 2000):
        out[f"classical_t3_c{cutoff}"] = (classical, cutoff)
    out["c499_357"] = (_torus("c499_357", (3, 5, 7)), 499)
    for cutoff in (499999, 4999999):
        out[f"t2_axis_c{cutoff}"] = (_torus("t2_axis", (0, 1)), cutoff)
    line = _torus("t3_line", (1, {"alpha": "1"}, 0))
    line["generators"] = [{"name": "alpha"}]
    out["t3_line_c499999"] = (line, 499999)
    return out


def measure(case, repeat):
    """Best seconds of ``repeat`` in-process ``spectrum --json`` calls, the
    peak RSS in MB of this process, the bytes of the text and the JSON
    report, and the exit code."""
    from equilef import scenario_cli as cli

    doc, cutoff = cases()[case]
    caches = spans.discover_caches()
    with tempfile.TemporaryDirectory() as workdir:
        path = pathlib.Path(workdir) / f"{case}.scenario"
        path.write_text(json.dumps(doc))
        report = pathlib.Path(workdir) / "r.json"
        options = cli.options(cutoff=cutoff, json_path=str(report))
        best = math.inf
        for _ in range(repeat):
            for cache in caches:
                cache.cache_clear()
            report.unlink(missing_ok=True)
            stream = io.StringIO()
            start = time.perf_counter()
            code = cli.run("spectrum", str(path), options, stream)
            best = min(best, time.perf_counter() - start)
        json_bytes = report.stat().st_size if report.exists() else 0
    text_bytes = len(stream.getvalue().encode())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return best, peak_mb, text_bytes, json_bytes, code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", nargs="+", choices=sorted(cases()),
                        default=list(cases()))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, args.repeat)))
        return 0
    print(f"{'case':>18} {'best s':>9} {'peak MB':>8} {'text bytes':>11} "
          f"{'JSON bytes':>11} {'exit':>4}")
    for case in args.case:
        out = subprocess.run(
            [sys.executable, __file__, "--child", case,
             "--repeat", str(args.repeat)],
            check=True, capture_output=True, text=True).stdout
        best, peak_mb, text_bytes, json_bytes, code = json.loads(
            out.splitlines()[-1])
        print(f"{case:>18} {best:>9.4f} {peak_mb:>8.1f} {text_bytes:>11} "
              f"{json_bytes:>11} {code:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
