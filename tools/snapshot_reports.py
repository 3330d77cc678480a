"""Write every scenario x command report to a directory, for before/after
comparison of a refactor.

Run with the package under test on the path, once per tree, and compare:

    PYTHONPATH=src python tools/snapshot_reports.py /tmp/before
    ...change the code...
    PYTHONPATH=src python tools/snapshot_reports.py /tmp/after
    diff -r /tmp/before /tmp/after

Each report leaves ``<command>__<scenario>.txt`` (exit code, then the text
report) and, when the command wrote one, ``<command>__<scenario>.json``.
"""

import argparse
import io
import pathlib
import sys

from equilef import scenario_cli as cli

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=pathlib.Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for path in sorted(SCENARIOS.glob("*.scenario")):
        for command in sorted(cli.COMMANDS):
            stem = args.outdir / f"{command}__{path.stem}"
            json_path = stem.with_suffix(".json")
            json_path.unlink(missing_ok=True)
            stream = io.StringIO()
            options = cli.options(json_path=str(json_path))
            code = cli.run(command, str(path), options, stream)
            stem.with_suffix(".txt").write_text(f"exit {code}\n{stream.getvalue()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
