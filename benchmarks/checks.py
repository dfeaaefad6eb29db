"""Checks on what a run wrote: manifest, field CSVs and mask graymaps.

Every snapshot is read back from disk and compared with the exact
free-space solution (exact.py) at the active points outside the
absorbing layer.  The allowed deviation has two parts:

* discretization: the largest phase drift that the leapfrog scheme with
  the order-N derivative filter gives any Fourier mode with k sigma <= 3
  (the band holding all but e^-4.5 of the pulse), accumulated over the
  time the pulse takes to cross the interior, times the largest exact
  field in the interior.  After the crossing only the wake is left, whose
  content sits at k <~ 1/(c t) where the drift t |d omega| ~ t k^3 falls
  with t, so the drift is capped at its crossing-time value.
* thresholding: (sum |w|)^2 * zeta, with w the order-N interpolation
  weights (2.21 zeta at order 4).  Active points keep their values
  through the adapt step; a point dropped and later taken back is
  interpolated from the coarser level, and with its lost details below
  zeta its error is at most zeta times the absolute sum of the 2D
  (tensor) weights.

Both parts come from the scheme and the threshold, not from a run.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import exact

K_SIGMA_BAND = 3.0
SPREAD_SIGMAS = 3.0


@dataclass
class CheckReport:
    """Outcome of the checks of one run.

    Every failed step is counted in failed_steps.  Only the known fault
    leaves the run correct: a snapshot that fails the exact check alone,
    at or after the step the workload names and after the mask first fell
    to the bare coarse lattice.  Any other failure is also a problem, and
    any problem makes the run incorrect.
    """

    failed_steps: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    max_err_zeta: float = 0.0
    collapse_k: int | None = None
    lines: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def read_snapshot_index(manifest_path):
    """Map step -> (field file, mask file) from the manifest trailer."""
    index = {}
    for line in Path(manifest_path).read_text().splitlines():
        if line.startswith("# snapshot "):
            head, names = line[len("# snapshot "):].split(":", 1)
            field_name, mask_name = names.split()
            index[int(head)] = (field_name, mask_name)
    return index


def read_pgm(path):
    """Mask from a P2 graymap, read apart from the program's own reader."""
    tokens = Path(path).read_text().split()
    width, height = int(tokens[1]), int(tokens[2])
    pixels = np.array(tokens[4:], dtype=np.int64)
    if tokens[0] != "P2" or pixels.size != width * height:
        raise ValueError(f"{path}: malformed P2 graymap")
    return pixels.reshape(height, width) > 0


def phase_drift_rate(config, deriv_filter, dt_s):
    """Largest |omega_num(k) - c |k|| in rad/s over k sigma <= K_SIGMA_BAND.

    omega_num solves the leapfrog relation sin(omega dt / 2) = c dt |k*| / 2
    with k* the filter's modified wavenumber along each axis; directions
    from the axis to the diagonal are scanned.
    """
    delta_um = config.domain_length_um / 2**config.jmax
    cdt_um = exact.C0 * dt_s * 1e6
    k = np.linspace(0.0, K_SIGMA_BAND / config.sigma_um, 513)[1:]
    taps = np.arange(1, len(deriv_filter) + 1)

    def modified(q):
        return (2.0 / delta_um) * (np.sin(np.outer(q * delta_um, taps))
                                   @ np.asarray(deriv_filter))

    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 4.0, 9):
        kstar = np.hypot(modified(k * math.cos(theta)),
                         modified(k * math.sin(theta)))
        omega_over_c = (2.0 / cdt_um) * np.arcsin(0.5 * cdt_um * kstar)
        worst = max(worst, float(np.abs(omega_over_c - k).max()))
    return worst * exact.C0 * 1e6


def interior_bounds(config):
    """The square outside the absorbing layer, in um."""
    depth = config.pml_width_frac * config.domain_length_um
    return depth, config.domain_length_um - depth


def crossing_time(config, center_um):
    """Time for the pulse edge to reach the farthest interior corner."""
    lo, hi = interior_bounds(config)
    far = max(math.hypot(a - center_um[0], b - center_um[1])
              for a in (lo, hi) for b in (lo, hi))
    return (far + SPREAD_SIGMAS * config.sigma_um) / exact.C0 * 1e-6


def check_run(out_dir, config, bank, fault_from=None):
    """Check a finished run directory against the exact solution.

    bank is the run's filter bank, which defines the scheme the allowed
    deviation is derived from.  fault_from is the first step from which
    an exact-check failure after the mask's collapse is the known wake
    fault, counted but not a problem; None where no fault is known.
    Returns a CheckReport.
    """
    from awcmaxwell.harness import read_manifest

    out_dir = Path(out_dir)
    report = CheckReport()
    records = read_manifest(out_dir / "manifest.csv")
    n = 2**config.jmax + 1
    coarse_count = (2**config.jmin + 1) ** 2

    if [r.k for r in records] != list(range(1, config.steps + 1)):
        report.problems.append("manifest does not hold one record per step")
    for r in records:
        if not 0.0 < r.cp <= 1.0 or r.cardinality != round(r.cp * n * n):
            report.failed_steps.add(r.k)
            report.problems.append(f"k={r.k}: cp {r.cp} outside (0, 1]")
        if report.collapse_k is None and r.cardinality == coarse_count:
            report.collapse_k = r.k
    if report.collapse_k is not None:
        report.lines.append(f"mask first at the bare coarse lattice after "
                            f"step {report.collapse_k}")
    t_of = {0: 0.0, **{r.k: r.t for r in records}}
    dt_s = records[0].t if records else 0.0

    center_um = tuple(c * config.domain_length_um for c in config.center_frac)
    drift = phase_drift_rate(config, bank.deriv_filter, dt_s) if records else 0.0
    zeta_multiple = float(np.abs(bank.predict_weights).sum()) ** 2
    t_cross = crossing_time(config, center_um)
    lo, hi = interior_bounds(config)
    stride = 2 ** (config.jmax - config.jmin)

    index = read_snapshot_index(out_dir / "manifest.csv")
    expected = {0, config.steps} | set(range(config.snapshot_every,
                                             config.steps + 1,
                                             config.snapshot_every))
    if set(index) != expected:
        report.problems.append(f"snapshots {sorted(index)} != {sorted(expected)}")
    for k in sorted(index):
        field_name, mask_name = index[k]
        data = np.loadtxt(out_dir / field_name, delimiter=",", skiprows=1)
        mask = read_pgm(out_dir / mask_name)
        fails, deviates = [], False
        if data.shape != (n * n, 7) or mask.shape != (n, n):
            report.problems.append(f"k={k}: snapshot shape {data.shape}")
            continue
        if not np.isfinite(data[:, 4:]).all():
            fails.append("non-finite field")
        if not mask[::stride, ::stride].all():
            fails.append("mask misses coarse-lattice points")
        x, z, ey = data[:, 2], data[:, 3], data[:, 4]
        inside = (x >= lo) & (x <= hi) & (z >= lo) & (z <= hi)
        active = inside & mask[data[:, 0].astype(int), data[:, 1].astype(int)]
        ref = exact.exact_ey(x[inside], z[inside], center_um, t_of[k],
                             config.sigma_um)
        ref_active = ref[active[inside]]
        err = float(np.abs(ey[active] - ref_active).max()) if active.any() else 0.0
        scale = float(np.abs(ref).max())
        tol = min(t_of[k], t_cross) * drift * scale + zeta_multiple * config.zeta
        report.max_err_zeta = max(report.max_err_zeta, err / config.zeta)
        if err > tol:
            deviates = True
            fails.append(f"exact deviation {err:.3e} > {tol:.3e}")
        known_fault = (deviates and len(fails) == 1 and fault_from is not None
                       and k >= fault_from and report.collapse_k is not None
                       and k >= report.collapse_k)
        report.lines.append(
            f"snapshot k={k}: |Ey-exact| {err:.3e} ({err / config.zeta:.2f} "
            f"zeta), allowed {tol:.3e}, interior peak {scale:.3e}"
            + ("" if not fails else " FAIL: " + "; ".join(fails))
            + (" (known wake fault, counted)" if known_fault else ""))
        if fails:
            report.failed_steps.add(k)
            if not known_fault:
                report.problems.append(f"snapshot k={k}: " + "; ".join(fails))
    return report
