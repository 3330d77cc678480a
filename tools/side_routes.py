"""Print the equilef functions that each side of the fixed-point formula
reaches on the committed flat-torus scenarios, and the functions both reach.

    PYTHONPATH=src python tools/side_routes.py

The harmonic side is ``scenario_cli._lhs_sections`` and the localized side
``scenario_cli._rhs_sections``.  Each side runs on a freshly loaded scenario
with every functools cache in ``equilef`` emptied first, under
:func:`reaching`.  Scenarios that do not parse, and sphere scenarios (which
have no harmonic side), are skipped; a side that stops on a documented error
still counts what it reached.

:func:`reaching` traces any call; ``tests/test_reached_set.py`` uses it to
pin the functions the commands reach.
"""

import pathlib
import sys
from contextlib import contextmanager

from equilef import scenario_cli as cli
from equilef.errors import EquilefError

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def clear_caches():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "equilef" or name.startswith("equilef.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextmanager
def reaching():
    """Collect, in the set it yields, the qualified names
    (``equilef.<module>.<qualname>``) of the equilef functions entered while
    the block runs, under ``sys.setprofile``.  Only named functions count;
    comprehensions, generator expressions, lambdas and the methods
    ``dataclasses`` generates do not."""
    seen = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)
        if (module.split(".")[0] == "equilef" and not code.co_name.startswith("<")
                and not name.startswith("__create_fn__")):
            seen.add(f"{module}.{name}")

    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(None)


def reached(side, path):
    """The qualified names of the equilef functions ``side`` calls on the
    scenario at ``path``, loaded afresh with every cache emptied; the load
    itself is not traced."""
    scenario = cli.load_scenario(path)
    clear_caches()
    with reaching() as seen:
        try:
            side(scenario)
        except EquilefError:
            pass
    return seen


def main():
    sides = {"harmonic side (_lhs_sections)": cli._lhs_sections,
             "localized side (_rhs_sections)": cli._rhs_sections}
    names = {label: set() for label in sides}
    used = []
    for path in sorted(SCENARIOS.glob("*.scenario")):
        try:
            scenario = cli.load_scenario(path)
        except EquilefError:
            continue
        if not isinstance(scenario.model, cli.FlatTorusModel):
            continue
        used.append(path.stem)
        for label, side in sides.items():
            names[label] |= reached(side, path)
    print(f"{len(used)} flat-torus scenarios: {', '.join(used)}")
    shared = set.intersection(*names.values())
    for label, found in [*names.items(), ("shared", shared)]:
        print(f"\n{label}: {len(found)} functions")
        for name in sorted(found):
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
