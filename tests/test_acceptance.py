"""Acceptance checks, one test per release criterion.

Criteria 6, 7, 8 and 10 share one reference configuration: a Gaussian
pulse on a 6 um square, j_min=3, j_max=7, order 4, zeta = 5e-4, PML a
quarter domain wide, 260 steps with snapshots every 50.  The runs are
module-scoped fixtures so the expensive part executes once.

Each test asserts its criterion at the stated tolerance and prints a
one-line summary (visible with -s, or in the captured output).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from awcmaxwell.config import SimulationConfig
from awcmaxwell.errors import InstabilityError
from awcmaxwell.filters import build_filter_bank
from awcmaxwell.grid import GridSpec, MaskGrid
from awcmaxwell.harness import (
    proportionality_report,
    read_mask_pgm,
    run_simulation,
)
from awcmaxwell.solver import C0, Simulation
from awcmaxwell.wavelets import (
    CoeffPyramid,
    fwt_full,
    iwt_full,
    threshold_coeffs,
)

SIGMA_UM = 1.0 / (4.0 * math.sqrt(2.0))

CALIBRATION = SimulationConfig(
    domain_length_um=6.0, jmin=3, jmax=7, order=4, zeta=5e-4,
    steps=260, boundary="PML", pml_width_frac=0.25,
    sigma_um=SIGMA_UM, snapshot_every=50)


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def calibration_runs(tmp_path_factory):
    # The second run has the full-grid oracle on, so criterion 10 also
    # shows that the oracle leaves the adaptive run as it is.
    first = run_simulation(CALIBRATION,
                           out_dir=tmp_path_factory.mktemp("run_first"))
    second = run_simulation(CALIBRATION,
                            out_dir=tmp_path_factory.mktemp("run_second"),
                            oracle=True)
    return first, second


@pytest.fixture(scope="module")
def oracle_records(calibration_runs):
    return calibration_runs[1].errors


def test_criterion_01_derivative_filter_exactness():
    # The antisymmetric stencil of order N differentiates x^k exactly
    # for k <= 2N-1 wherever all taps stay on the grid.
    worst = 0.0
    points = 48
    for order in (2, 3, 4):
        bank = build_filter_bank(order)
        h = bank.deriv_halfwidth
        x = np.arange(points, dtype=float)
        for k in range(2 * order):
            f = x**k
            exact = k * x ** (k - 1) if k > 0 else np.zeros_like(x)
            got = np.zeros(points - 2 * h)
            for i, c in enumerate(bank.deriv_filter, start=1):
                got += c * (f[h + i:points - h + i]
                            - f[h - i:points - h - i])
            denom = max(1.0, float(np.max(np.abs(exact[h:points - h]))))
            worst = max(worst, float(
                np.max(np.abs(got - exact[h:points - h]))) / denom)
    assert worst <= 1e-10
    report(1, f"max relative stencil error {worst:.3e} <= 1e-10")


def test_criterion_02_transform_round_trip():
    cases = [(j, order) for j in (5, 6, 7) for order in (2, 3, 4)]
    worst = 0.0
    for trial in range(50):
        j_max, order = cases[trial % len(cases)]
        spec = GridSpec(3, j_max)
        bank = build_filter_bank(order)
        field = np.random.default_rng(trial).standard_normal(
            (spec.n, spec.n))
        pyr = CoeffPyramid.from_field(field, spec)
        fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        iwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        worst = max(worst, float(np.max(np.abs(pyr.data - field))))
    assert worst <= 1e-12
    report(2, f"50 random fields, max round-trip deviation {worst:.3e}")


def test_criterion_03_polynomial_detail_annihilation():
    # Tensor polynomials of per-axis degree 2N-1 are predicted exactly,
    # so their details vanish wherever no stencil tap fell off the edge
    # (edge stencils read zero extension, which no polynomial matches).
    worst = 0.0
    for order in (2, 3, 4):
        spec = GridSpec(3, 6)
        bank = build_filter_bank(order)
        deg = 2 * order - 1
        x = np.linspace(0.0, 1.0, spec.n)
        px = np.polynomial.polynomial.polyval(x, np.arange(1.0, deg + 2.0))
        pz = np.polynomial.polynomial.polyval(x, np.ones(deg + 1))
        field = np.outer(px, pz)
        field /= np.max(np.abs(field))
        pyr = CoeffPyramid.from_field(field, spec)
        fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        idx = np.arange(spec.n)
        dist = np.minimum(idx, spec.n - 1 - idx)
        checked = 0
        for birth in range(spec.j_min + 1, spec.j_max + 1):
            margin = (2 * order - 1) * (3 * spec.stride(birth) - 2)
            ok = dist >= margin
            sel = (spec.birth == birth) & ok[:, None] & ok[None, :]
            if sel.any():
                worst = max(worst, float(np.max(np.abs(pyr.data[sel]))))
                checked += 1
        assert checked >= 1
    assert worst <= 1e-11
    report(3, f"largest clean-interior detail {worst:.3e} <= 1e-11")


def test_criterion_04_threshold_error_scales_with_zeta():
    spec = GridSpec(3, 7)
    bank = build_filter_bank(4)
    coords = np.linspace(0.0, 6.0, spec.n)
    r2 = (coords[:, None] - 3.0) ** 2 + (coords[None, :] - 3.0) ** 2
    field = np.exp(-r2 / (2.0 * SIGMA_UM**2))
    ratios = []
    for zeta in (1e-3, 1e-4, 1e-5):
        pyr = CoeffPyramid.from_field(field, spec)
        fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        threshold_coeffs(pyr, zeta)
        iwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        err = float(np.max(np.abs(pyr.data - field)))
        assert err > 0.0
        ratios.append(err / zeta)
    spread = max(ratios) / min(ratios)
    assert spread < 10.0
    report(4, "reconstruction error / zeta in "
              f"[{min(ratios):.3f}, {max(ratios):.3f}], spread "
              f"{spread:.2f} < 10")


def test_criterion_05_cfl_stability_boundary():
    base = dict(domain_length_um=6.0, jmin=3, jmax=7, order=4, zeta=5e-4,
                boundary="PEC", sigma_um=SIGMA_UM, full_grid=True,
                steps=1000)
    stable = Simulation(SimulationConfig(dt_factor=0.99, **base))
    initial = float(np.max(np.abs(stable.state.ey)))
    peak = 0.0

    def track(sim):
        nonlocal peak
        peak = max(peak, float(np.max(np.abs(sim.state.ey))))

    stable.run(on_step=track)
    assert peak <= 2.0 * initial

    unstable = Simulation(SimulationConfig(dt_factor=1.5,
                                           enforce_cfl=False, **base))
    with pytest.raises(InstabilityError) as err:
        unstable.run()
    assert 0 < err.value.step <= 1000
    report(5, f"0.99x bound peak ratio {peak / initial:.4f} <= 2; "
              f"1.5x bound diverged at step {err.value.step}")


def test_criterion_06_adaptive_tracks_reference_inside_domain(
        oracle_records):
    # Compare while the pulse front (traveling at c from the center)
    # has not yet entered the absorbing layer.
    length_m = CALIBRATION.domain_length_um * 1e-6
    reach_m = (0.5 - CALIBRATION.pml_width_frac) * length_m
    window = [r for r in oracle_records if C0 * r.t <= reach_m]
    assert len(window) >= 50
    worst = max(r.rel_err for r in window)
    assert worst <= 1e-2
    report(6, f"{len(window)} in-domain steps, max relative deviation "
              f"{worst:.4e} <= 1e-2")


def test_criterion_07_compression_and_far_field_coarseness(
        calibration_runs):
    first, _ = calibration_runs
    min_cp = min(r.cp for r in first.records)
    assert min_cp <= 0.30

    spec = GridSpec(CALIBRATION.jmin, CALIBRATION.jmax)
    stride = spec.stride(CALIBRATION.jmin)
    on_axis = np.zeros(spec.n, dtype=bool)
    on_axis[::stride] = True
    on_coarse = on_axis[:, None] & on_axis[None, :]
    delta_um = CALIBRATION.domain_length_um / (spec.n - 1)
    pos = np.arange(spec.n) * delta_um
    center = 0.5 * CALIBRATION.domain_length_um
    radius = np.hypot(pos[:, None] - center, pos[None, :] - center)
    # Beyond the pulse front, refinement may overhang by at most the
    # prediction-stencil reach of a coarsest-level detail (the widest
    # taps any closure can demand around a flagged coefficient).
    margin_um = ((2 * CALIBRATION.order - 1)
                 * spec.stride(CALIBRATION.jmin + 1) * delta_um)
    time_of = {r.k: r.t for r in first.records}

    checked = 0
    worst_slack = math.inf
    for k in sorted(first.snapshots):
        if k == 0:
            continue  # written before the first grid fit
        mask = read_mask_pgm(first.out_dir / first.snapshots[k][1])
        fine = mask & ~on_coarse
        if not fine.any():
            continue
        allowed = (3.0 * SIGMA_UM + C0 * time_of[k] * 1e6 + margin_um)
        outermost = float(radius[fine].max())
        assert outermost <= allowed
        worst_slack = min(worst_slack, allowed - outermost)
        checked += 1
    assert checked >= 1
    report(7, f"min cp {min_cp:.4f} <= 0.30; {checked} snapshots "
              f"coarse beyond the front (min slack {worst_slack:.3f} um)")


def worst_fit_steps(records, count=5):
    """The steps farthest from the linear fit of wall time on cardinality,
    as (k, cardinality, wall_ms, residual ms).  A host stall shows as a
    few steps with large residuals; a real regression as a poor fit
    throughout."""
    card = np.array([r.cardinality for r in records], dtype=float)
    wall = np.array([r.wall_ms for r in records])
    slope, intercept = np.polyfit(card, wall, 1)
    residual = wall - (intercept + slope * card)
    return [(records[i].k, records[i].cardinality, round(float(wall[i]), 2),
             round(float(residual[i]), 2))
            for i in np.argsort(-np.abs(residual))[:count]]


def test_criterion_08_wall_time_tracks_active_points(calibration_runs):
    first, _ = calibration_runs
    pearson = proportionality_report(first.manifest_path)
    assert pearson is not None
    assert pearson >= 0.9, (
        f"Pearson {pearson:.4f}; steps farthest from the cost fit as "
        f"(k, cardinality, wall_ms, residual): "
        f"{worst_fit_steps(first.records)}")
    report(8, f"wall-time vs cardinality Pearson {pearson:.4f} >= 0.9")


def test_criterion_09_pulse_travels_at_light_speed():
    cfg = SimulationConfig(domain_length_um=6.0, jmin=3, jmax=8, order=4,
                           zeta=5e-4, steps=100, boundary="PEC",
                           sigma_um=SIGMA_UM, full_grid=True)
    probe = Simulation(cfg)
    n = probe.spec.n
    z = np.linspace(0.0, cfg.domain_length_um, n)
    ridge = np.exp(-((z - 3.0) ** 2) / (2.0 * SIGMA_UM**2))
    sim = Simulation(cfg, initial_ey=np.tile(ridge, (n, 1)))

    def right_peak_um(row):
        i = int(np.argmax(row[n // 2:])) + n // 2
        y0, y1, y2 = row[i - 1], row[i], row[i + 1]
        denom = y0 - 2.0 * y1 + y2
        frac = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
        return z[i] + frac * (z[1] - z[0])

    marks = {}

    def record(s):
        if s.state.k in (60, 100):
            marks[s.state.k] = right_peak_um(s.state.ey[n // 2])

    sim.run(on_step=record)
    speed = (marks[100] - marks[60]) * 1e-6 / (40 * sim.dt)
    ratio = speed / C0
    assert abs(ratio - 1.0) <= 0.01
    report(9, f"right-moving peak speed {ratio:.5f} c, within 1%")


def test_criterion_10_repeated_runs_are_byte_identical(calibration_runs):
    first, second = calibration_runs
    assert first.snapshots.keys() == second.snapshots.keys()
    compared = 0
    for k in first.snapshots:
        a = (first.out_dir / first.snapshots[k][0]).read_bytes()
        b = (second.out_dir / second.snapshots[k][0]).read_bytes()
        assert a == b
        compared += 1
    assert compared >= 6
    report(10, f"{compared} field snapshots byte-identical across runs")
