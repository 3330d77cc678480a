"""Per-layer spans and counts, recorded from outside the program.

``traced(recorder)`` wraps each public function in ``LAYERS`` at every
binding an ``equilef`` module holds: module globals (``scenario_cli``
imports several functions by name, ``_ratlin`` calls itself through its
globals) and module-level dicts such as ``scenario_cli.COMMANDS``.  Each
call records one span (name ``<module>.<function>``, start, end, parent
span, op id) in memory; ``dump`` writes them out when the run ends.  A
span's self time is its duration minus its children's.

Counts labelled "computed" are derived by the benchmark from call arguments
and results, not reported by the program.
"""

from __future__ import annotations

import array
import gzip
import json
import math
import sys
import time
from contextlib import contextmanager

LAYERS = {
    "fixed_point_formula": ("find_fixed_orbits", "check_transversality",
                            "orbit_contribution", "lefschetz_rhs"),
    "torus_group": ("relation_lattice", "closure_group", "isotropy_preimage",
                    "complementary_subgroup", "haar_factor",
                    "sheet_count_rows", "haar_quadrature"),
    "_ratlin": ("hnf_with_transform", "snf_with_transforms", "integer_kernel",
                "solve_congruences", "solve_rational", "char_poly", "det_int"),
    "geometry_models": ("orbit_through", "induced_base_map", "isotropy_group"),
    "basic_complex": ("frame_for", "basic_modes", "basic_spectrum"),
    "endomorphism": ("validate_equivariance", "cohomology_action",
                     "twisted_invariant_modes", "heat_damped_traces",
                     "exact_exterior_traces"),
    "averaging": ("averaging_report", "average_modes"),
    "mollifier_lab": ("convergence_study", "kernel_pairing"),
    "scenario_cli": ("run", "load_scenario", "cmd_validate", "cmd_lhs",
                     "cmd_rhs", "cmd_verify", "cmd_spectrum", "cmd_avcheck",
                     "cmd_mollifier"),
}

COUNTS = ("orbits_enumerated", "snf_entries", "modes_scanned", "modes_kept",
          "quadrature_cells", "report_bytes")


def _orbits(counts, args, kwargs, result, missed):
    counts["orbits_enumerated"] += len(result)


def _snf(counts, args, kwargs, result, missed):
    M = args[0]
    counts["snf_entries"] += len(M) * (len(M[0]) if M else 0)


def _box(counts, model, cutoff, result):
    counts["modes_scanned"] += (2 * cutoff + 1) ** model.n
    counts["modes_kept"] += len(result)


def _basic_modes(counts, args, kwargs, result, missed):
    if missed:
        _box(counts, args[0], args[1], result)


def _twisted_modes(counts, args, kwargs, result, missed):
    twist = args[2] if len(args) > 2 else kwargs.get("twist")
    if twist is not None:
        _box(counts, args[0], args[1], result)


def _pairing(counts, args, kwargs, result, missed):
    """grid^(active + d) cells for the full pass plus the same at half
    resolution, as ``_pairing_sum`` lays them out."""
    model, f, config = args[:3]
    grid = config.resolved_grid()
    n = model.n
    active = sum(1 for j in range(n)
                 if any((i == j) - f.matrix[i][j] for i in range(n)))
    dims = active + len(model.group.complement_basis())
    counts["quadrature_cells"] += grid ** dims + max(grid // 2, 2) ** dims


HOOKS = {
    "fixed_point_formula.find_fixed_orbits": _orbits,
    "_ratlin.snf_with_transforms": _snf,
    "basic_complex.basic_modes": _basic_modes,
    "endomorphism.twisted_invariant_modes": _twisted_modes,
    "mollifier_lab.kernel_pairing": _pairing,
}


class Recorder:
    """Spans in flat arrays (name id, start, end, parent index, op id) plus
    named integer counts."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.op_of = array.array("l")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self._stack = []

    def __len__(self):
        return len(self.start)

    def wrap(self, name, fn):
        """The traced stand-in for ``fn``."""
        ident = self._ids[name]
        hook = HOOKS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter
        stack = self._stack

        def traced_call(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(math.nan)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if hook:
                missed = cache_info is not None and cache_info().misses > misses
                hook(self.counts, args, kwargs, result, missed)
            return result

        traced_call.__wrapped__ = fn
        traced_call.__name__ = getattr(fn, "__name__", name)
        return traced_call

    def self_times(self, first=0, last=None):
        """Per-name (calls, self seconds, inclusive seconds) over spans
        ``first:last``."""
        last = len(self) if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += dur - child[i - first]
            row[2] += dur
        return out

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i], self.op_of[i]]))
                fh.write("\n")


def _equilef_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "equilef" or name.startswith("equilef.")) and mod is not None]


def discover_caches():
    """Every functools cache bound in an ``equilef`` module, once each."""
    found = {}
    for mod in _equilef_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


@contextmanager
def traced(recorder):
    """Install ``recorder``'s wrappers at every binding; restore on exit."""
    modules = _equilef_modules()
    originals = {}
    for mod_name, fns in LAYERS.items():
        mod = sys.modules[f"equilef.{mod_name}"]
        for fn in fns:
            orig = getattr(mod, fn)
            originals[id(orig)] = (orig, recorder.wrap(f"{mod_name}.{fn}", orig))
    patched = []
    for mod in modules:
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if id(value) in originals and originals[id(value)][0] is value:
                namespace[key] = originals[id(value)][1]
                patched.append((namespace, key, value))
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if id(dval) in originals and originals[id(dval)][0] is dval:
                        value[dkey] = originals[id(dval)][1]
                        patched.append((value, dkey, dval))
    try:
        yield recorder
    finally:
        for table, key, value in patched:
            table[key] = value


def layer_metrics(recorder, passes, busy_s, ops):
    """Per-layer metrics for one workload, averaged per traced pass;
    ``recorder.counts`` holds the first traced pass's counts."""
    rows = recorder.self_times()
    metrics = {}
    for mod, fns in LAYERS.items():
        prefix = mod.lstrip("_")     # metric names start with a letter
        total = 0.0
        for fn in fns:
            calls, self_s, _ = rows[f"{mod}.{fn}"]
            metrics[f"{prefix}.{fn}.calls"] = (calls // passes, "count")
            metrics[f"{prefix}.{fn}.self_s"] = (self_s / passes, "s")
            total += self_s
        metrics[f"{prefix}.self_s"] = (total / passes, "s")
    c = recorder.counts
    rhs_s = rows["fixed_point_formula.lefschetz_rhs"][2]
    pairing_s = rows["mollifier_lab.kernel_pairing"][2]
    for name in COUNTS:
        metrics[name] = (c[name], "count")
    metrics["ms_per_orbit"] = (
        1000.0 * rhs_s / (passes * c["orbits_enumerated"]) if c["orbits_enumerated"] else 0.0, "ms")
    metrics["kept_ratio"] = (
        c["modes_kept"] / c["modes_scanned"] if c["modes_scanned"] else 0.0, "ratio")
    metrics["cells_per_s"] = (
        passes * c["quadrature_cells"] / pairing_s if pairing_s else 0.0, "1/s")
    metrics["traced_ops_per_s"] = (passes * ops / busy_s if busy_s else 0.0, "1/s")
    return metrics
