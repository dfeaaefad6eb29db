"""Tests of the exact reference used by the benchmark's snapshot check.

    python3 -m pytest benchmarks/test_exact.py
"""

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402

SIGMA_UM = 1.0 / (4.0 * math.sqrt(2.0))


def test_reproduces_the_gaussian_at_t0():
    r = np.linspace(0.0, 8.0 * SIGMA_UM, 400)
    got = exact.radial_profile(r, 0.0, SIGMA_UM)
    assert np.abs(got - np.exp(-r**2 / (2.0 * SIGMA_UM**2))).max() < 1e-12


def test_quadrature_and_spline_are_converged():
    # A late time, where the integrand oscillates most.
    t_s = 8.0e-6 / exact.C0
    r = np.linspace(0.0, 3.0, 97)
    coarse = exact.radial_profile(r, t_s, SIGMA_UM)
    fine = exact.radial_profile(r, t_s, SIGMA_UM, panels=2 * exact.PANELS)
    assert np.abs(coarse - fine).max() < 1e-12
    splined = exact.exact_ey(r, np.zeros_like(r), (0.0, 0.0), t_s, SIGMA_UM)
    assert np.abs(splined - fine).max() < 1e-9


def test_energy_leaves_the_centre_at_light_speed():
    # The peak of the outgoing ring sits near r = c t once it has left.
    t_s = 1.5e-6 / exact.C0
    r = np.linspace(0.0, 3.0, 3001)
    ring = exact.radial_profile(r, t_s, SIGMA_UM)
    assert abs(r[np.argmax(ring)] - 1.5) < SIGMA_UM


def _full_grid_error(jmax, steps):
    from awcmaxwell.config import SimulationConfig
    from awcmaxwell.solver import Simulation

    config = SimulationConfig(jmax=jmax, steps=steps, full_grid=True,
                              sigma_um=SIGMA_UM)
    sim = Simulation(config)
    sim.run()
    coords = np.linspace(0.0, config.domain_length_um, sim.spec.n)
    x, z = np.meshgrid(coords, coords, indexing="ij")
    inside = (x >= 1.5) & (x <= 4.5) & (z >= 1.5) & (z <= 4.5)
    ref = exact.exact_ey(x[inside], z[inside], (3.0, 3.0), sim.state.t,
                         SIGMA_UM)
    return float(np.abs(sim.state.ey[inside] - ref).max())


def test_full_grid_error_shrinks_from_jmax_7_to_9():
    # dt scales with the mesh, so 16 steps at jmax=7 and 64 at jmax=9 end
    # at the same time.  The leapfrog is second order in time and the
    # derivative filter higher order in space, so a 4x finer mesh should
    # cut the error about 16x; ask for at least 4x.
    coarse = _full_grid_error(7, 16)
    fine = _full_grid_error(9, 64)
    assert fine < coarse / 4.0, (coarse, fine)
