"""Digest every benchmark workload op's reports, for before/after comparison
of a refactor.

Run with the package under test on the path, once per tree, and compare:

    PYTHONPATH=src python tools/snapshot_workloads.py /tmp/before
    ...change the code...
    PYTHONPATH=src python tools/snapshot_workloads.py /tmp/after
    diff -r /tmp/before /tmp/after

The ops are those of ``perfbench/workloads.py`` (read, not changed), for
seeds 1-20 of each workload.  Each workload and seed leaves
``<workload>__seed<NN>.txt`` with one line per op, in run order: the
command, the scenario, the exit code (or the name of an escaped exception),
and the sha256 of the text report and of the ``--json`` bytes (``-`` when
the command wrote none).
"""

import argparse
import hashlib
import io
import pathlib
import sys
import tempfile

from equilef import scenario_cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = range(1, 21)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def snapshot(name, seed, workdir):
    """One line per op of workload ``name`` at ``seed``."""
    workload = workloads.build(name, seed, str(ROOT))
    paths = workloads.write(workload, workdir)
    json_path = pathlib.Path(workdir) / "report.json"
    lines = []
    for command, scenario in workload.ops:
        json_path.unlink(missing_ok=True)
        stream = io.StringIO()
        options = cli.options(json_path=str(json_path))
        try:
            code = cli.run(command, paths[scenario], options, stream)
        except Exception as exc:  # an escaped exception is an outcome too
            code = f"raised {type(exc).__name__}"
        report = _sha256(json_path.read_bytes()) if json_path.exists() else "-"
        lines.append(f"{command} {scenario} {code} "
                     f"{_sha256(stream.getvalue().encode())} {report}\n")
    return "".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=pathlib.Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                text = snapshot(name, seed, workdir)
            (args.outdir / f"{name}__seed{seed:02d}.txt").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
