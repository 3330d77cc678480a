"""Every function the per-layer trace wraps still exists.

``perfbench/spans.py`` names the traced functions in ``LAYERS`` and looks
each one up with ``getattr`` when ``--trace`` is on, so deleting or renaming
one breaks traced runs only.  The table is read from the file as a literal,
without importing or changing it.  ``perfbench/run.py`` also reads the cache
statistics of ``basic_modes`` in traced runs.
"""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_layers():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS table")


def test_every_traced_function_resolves():
    layers = traced_layers()
    assert layers
    missing = []
    for module_name, names in layers.items():
        module = importlib.import_module(f"equilef.{module_name}")
        missing += [f"equilef.{module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing


def test_mode_listing_cache_statistics_resolve():
    module = importlib.import_module("equilef.basic_complex")
    assert callable(module.basic_modes.cache_info)
