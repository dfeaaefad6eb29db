"""Spans around the program's public functions, for the traced run.

install() rebinds the public functions as the solver, wavelets, grid,
filters and harness modules see them, so calls between modules and
inside a module are both caught.  A span is [name, start, end, parent,
count]; spans stay in memory and are written out once, at the end.
Self time is a span's duration minus that of its direct children.
"""

import functools
import json
import time
from collections import Counter

import numpy as np

# Functions that get a span, by the module namespace they are bound in.
SPANNED = {
    "solver": {
        "add_adjacent_zone": "grid.add_adjacent_zone",
        "reconstruction_check": "grid.reconstruction_check",
        "compute_levels": "grid.compute_levels",
        "extend_for_derivatives": "grid.extend_for_derivatives",
        "fwt_full": "wavelets.fwt_full",
        "iwt_full": "wavelets.iwt_full",
        "threshold_coeffs": "wavelets.threshold_coeffs",
        "interpolate_missing": "wavelets.interpolate_missing",
        "diff_x": "derivatives.diff",
        "diff_z": "derivatives.diff",
        "build_filter_bank": "filters.build_filter_bank",
    },
    "grid": {
        "add_adjacent_zone": "grid.add_adjacent_zone",
        "reconstruction_check": "grid.reconstruction_check",
        "compute_levels": "grid.compute_levels",
        "extend_for_derivatives": "grid.extend_for_derivatives",
    },
    "wavelets": {
        "fwt_full": "wavelets.fwt_full",
        "iwt_full": "wavelets.iwt_full",
        "threshold_coeffs": "wavelets.threshold_coeffs",
        "interpolate_missing": "wavelets.interpolate_missing",
    },
    "filters": {"build_filter_bank": "filters.build_filter_bank"},
    "harness": {
        "run_simulation": "harness.run_simulation",
        "emit_snapshot": "harness.emit_snapshot",
        "write_field_csv": "harness.write_field_csv",
        "write_mask_pgm": "harness.write_mask_pgm",
    },
}
# Functions that are only counted, since they run many times per span.
COUNTED = {"wavelets": ("fwt_step", "iwt_step")}
METHODS = {
    "__init__": "solver.init",
    "step": "solver.step",
    "adapt_step": "solver.adapt_step",
    "update_step": "solver.update_step",
}
STEP = "solver.step"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.step_calls = Counter()
        self._steps_open = 0

    def span(self, name, fn, classify=None):
        """Wrap fn in a span; classify(args) may rename it and set a count."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            self._steps_open += name == STEP
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[1] = start
                stack.pop()
                self._steps_open -= name == STEP
                if classify is not None:
                    record[0], record[4] = classify(args)

        return wrapped

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._steps_open:
                self.step_calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans,
                       "step_calls": dict(self.step_calls)}, fh)


def _classify_diff(args):
    """Full-mask calls take the program's uniform-stencil path."""
    mask = args[1]
    points = int(np.count_nonzero(mask))
    kind = "full_mask" if points == mask.size else "masked"
    return f"derivatives.diff.{kind}", points


def install(tracer):
    """Rebind the public functions to traced wrappers (for this process)."""
    import importlib

    for module_name, table in SPANNED.items():
        module = importlib.import_module(f"awcmaxwell.{module_name}")
        for attr, name in table.items():
            classify = _classify_diff if name == "derivatives.diff" else None
            setattr(module, attr, tracer.span(name, getattr(module, attr),
                                              classify))
    for module_name, attrs in COUNTED.items():
        module = importlib.import_module(f"awcmaxwell.{module_name}")
        for attr in attrs:
            setattr(module, attr,
                    tracer.counter(f"{module_name}.{attr}", getattr(module, attr)))
    from awcmaxwell.solver import Simulation

    for attr, name in METHODS.items():
        setattr(Simulation, attr, tracer.span(name, getattr(Simulation, attr)))


def self_times(spans):
    """Duration minus direct children's durations, per span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def step_owner(spans):
    """Index of the enclosing step span of each span, or -1."""
    owner = []
    for i, s in enumerate(spans):
        if s[0] == STEP:
            owner.append(i)
        else:
            owner.append(owner[s[3]] if s[3] >= 0 else -1)
    return owner
