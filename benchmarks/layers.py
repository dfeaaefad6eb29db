"""Per-layer metrics from the spans of a traced run.

Times ending in .ms are per step and are self times (a span's duration
minus its children's), except solver.step, solver.adapt_step and
solver.update_step, which are whole phases, and solver.init and
filters.build_filter_bank, which are per call.  layer_metrics checks
that the reported self times add up to solver.step.ms, so a span inside
a step that no metric reports, or a step whose own time outside adapt
and update grows, makes the run incorrect.
"""

import statistics
from collections import defaultdict

import numpy as np

from tracer import STEP, self_times, step_owner

PHASES = ("solver.adapt_step", "solver.update_step")
# Most of a step that may pass outside adapt_step and update_step.
STEP_SELF_SHARE = 0.02
SELF_PER_STEP = {
    "solver.step_self.ms": "solver.step",
    "solver.adapt_self.ms": "solver.adapt_step",
    "solver.update_self.ms": "solver.update_step",
    "wavelets.fwt_full.ms": "wavelets.fwt_full",
    "wavelets.iwt_full.ms": "wavelets.iwt_full",
    "wavelets.threshold_coeffs.ms": "wavelets.threshold_coeffs",
    "wavelets.interpolate_missing.ms": "wavelets.interpolate_missing",
    "grid.add_adjacent_zone.ms": "grid.add_adjacent_zone",
    "grid.reconstruction_check.ms": "grid.reconstruction_check",
    "grid.compute_levels.ms": "grid.compute_levels",
    "grid.extend_for_derivatives.ms": "grid.extend_for_derivatives",
    "derivatives.diff.full_mask.ms": "derivatives.diff.full_mask",
    "derivatives.diff.masked.ms": "derivatives.diff.masked",
}


def cost_model(records):
    """Least-squares wall_ms = intercept + slope * cardinality.

    The first step is left out: it transforms the whole initial lattice
    once, whatever cardinality it ends with.  Returns (intercept ms,
    slope us/point, Pearson).  When the cardinality never changes (full
    grid) the line goes through the origin and the Pearson coefficient,
    undefined there, is reported as 0.
    """
    card = np.array([r.cardinality for r in records[1:]], dtype=float)
    wall = np.array([r.wall_ms for r in records[1:]], dtype=float)
    if card.std() == 0.0:
        return 0.0, 1e3 * wall.mean() / card.mean(), 0.0
    slope, intercept = np.polyfit(card, wall, 1)
    return float(intercept), 1e3 * float(slope), float(
        np.corrcoef(card, wall)[0, 1])


def layer_metrics(trace, result, plain_run_s):
    """Return ({name: (value, unit)}, problems) for one traced run."""
    spans = trace.spans
    own = self_times(spans)
    owner = step_owner(spans)
    steps = [i for i, s in enumerate(spans) if s[0] == STEP]
    n_steps = len(steps)
    per_step_self = defaultdict(float)
    per_step_total = defaultdict(float)
    points = 0
    for i, s in enumerate(spans):
        if owner[i] < 0:
            continue
        per_step_self[s[0]] += own[i]
        per_step_total[s[0]] += s[2] - s[1]
        if s[0].startswith("derivatives.diff"):
            points += s[4]

    step_total = sum(spans[i][2] - spans[i][1] for i in steps)

    def durations(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    def ms_per_step(seconds):
        return 1e3 * seconds / n_steps

    metrics = {"solver.step.ms": (ms_per_step(step_total), "ms")}
    for phase in PHASES:
        metrics[f"{phase}.ms"] = (ms_per_step(per_step_total[phase]), "ms")
    for metric, name in SELF_PER_STEP.items():
        metrics[metric] = (ms_per_step(per_step_self[name]), "ms")
    problems = []
    step_ms = metrics["solver.step.ms"][0]
    self_ms = sum(metrics[metric][0] for metric in SELF_PER_STEP)
    if abs(self_ms - step_ms) > 1e-6 * step_ms:
        unreported = sorted(set(per_step_self) - set(SELF_PER_STEP.values()))
        problems.append(f"reported self times sum to {self_ms:.4f} ms, a step "
                        f"takes {step_ms:.4f} ms; unreported: {unreported}")
    if metrics["solver.step_self.ms"][0] > STEP_SELF_SHARE * step_ms:
        problems.append("solver.step spends over "
                        f"{STEP_SELF_SHARE:.0%} outside adapt and update")
    metrics["solver.init.ms"] = (
        1e3 * statistics.fmean(durations("solver.init")), "ms")
    metrics["filters.build_filter_bank.ms"] = (
        1e3 * statistics.fmean(durations("filters.build_filter_bank")), "ms")

    intercept, slope, pearson = cost_model(result.records)
    metrics["solver.cost_intercept_ms"] = (intercept, "ms")
    metrics["solver.cost_slope_us_per_point"] = (slope, "us/point")
    metrics["solver.cost_pearson"] = (pearson, "ratio")

    for name in ("wavelets.fwt_step", "wavelets.iwt_step"):
        metrics[f"{name}.calls"] = (trace.step_calls[name] / n_steps, "count")
    metrics["derivatives.diff.points"] = (points / n_steps, "count")

    records = result.records
    metrics["grid.card0_mean"] = (
        statistics.fmean(r.cardinality for r in records), "count")
    metrics["grid.card2_mean"] = (
        statistics.fmean(r.card2 for r in records), "count")
    metrics["grid.cp_min"] = (min(r.cp for r in records), "ratio")
    metrics["grid.cp_max"] = (max(r.cp for r in records), "ratio")

    for name in ("harness.write_field_csv", "harness.write_mask_pgm"):
        metrics[f"{name}.s"] = (statistics.fmean(durations(name)), "s")
    sizes = [sum((result.out_dir / f).stat().st_size for f in files)
             for files in result.snapshots.values()]
    metrics["harness.snapshot_mb"] = (statistics.fmean(sizes) / 1e6, "MB")

    # The traced run_s, counted like the untraced one from the end of the
    # Simulation set-up inside run_simulation.
    run = next(s for s in spans if s[0] == "harness.run_simulation")
    init = next(s for s in spans if s[0] == "solver.init" and s[1] >= run[1])
    metrics["trace.overhead_s"] = (run[2] - init[2] - plain_run_s, "s")
    return metrics, problems
