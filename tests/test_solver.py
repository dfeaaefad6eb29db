"""Time stepping: step control, initial data, adaptivity, stability."""

import copy
import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import gaussian_field, on_mesh, traced_peak

from awcmaxwell import derivatives, grid, solver, wavelets
from awcmaxwell.config import SimulationConfig
from awcmaxwell.derivatives import diff_x, diff_z
from awcmaxwell.errors import ConfigError, InstabilityError
from awcmaxwell.filters import SUPPORTED_ORDERS, build_filter_bank
from awcmaxwell.grid import MaskGrid
from awcmaxwell.harness import emit_snapshot, run_simulation
from awcmaxwell.solver import (
    C0,
    ETA0,
    MU0,
    Simulation,
    cfl_max_dt,
    default_dt_factor,
    on_finest_lattice,
    relattice,
)
from awcmaxwell.wavelets import interpolate_missing

SIGMA_PAPERED = 1.0 / (4.0 * math.sqrt(2.0))


def small_config(**overrides):
    base = dict(domain_length_um=6.0, jmin=3, jmax=6, order=4, zeta=5e-4,
                steps=10, boundary="PEC", sigma_um=SIGMA_PAPERED)
    base.update(overrides)
    return SimulationConfig(**base)


# ------------------------------------------------------------ step control


def test_cfl_bound_order2_unit_mesh(bank2):
    # Order-2 antisymmetric filter: |8/12| + |1/12| = 0.75 absolute sum,
    # so the bound at Delta = c = 1 is 1 / (0.75 sqrt(2)).
    got = cfl_max_dt(1.0, bank2, c=1.0)
    assert got == pytest.approx(0.9428090415820634, rel=1e-12)


def test_default_dt_is_delta_over_1p6_c(any_bank):
    delta = 11.71875e-9  # 6 um over 2^9 cells
    dt = default_dt_factor(any_bank) * cfl_max_dt(delta, any_bank)
    assert dt == pytest.approx(delta / (1.6 * C0), rel=1e-12)


def test_mesh_size_from_levels():
    sim = Simulation(SimulationConfig(domain_length_um=6.0, jmax=9, steps=0))
    assert sim.delta_m == pytest.approx(11.71875e-9, rel=1e-12)


def test_nonpositive_mesh_rejected(bank4):
    with pytest.raises(ConfigError):
        cfl_max_dt(0.0, bank4)


def test_dt_factor_above_one_refused_by_default():
    with pytest.raises(ConfigError, match="dt_factor"):
        Simulation(small_config(dt_factor=1.2))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_default_dt_factor_is_below_one_for_every_order(order):
    # SimulationConfig.validate refuses a dt_factor above 1 under
    # enforce_cfl, and the default stays below 1, so no step is ever
    # past the CFL bound unless enforce_cfl is off.
    assert default_dt_factor(build_filter_bank(order)) < 1.0


def test_dt_factor_above_one_runs_unenforced():
    cfg = small_config(dt_factor=1.5, enforce_cfl=False)
    sim = Simulation(cfg)
    assert sim.dt > cfl_max_dt(sim.delta_m, sim.bank)


# ------------------------------------------------------------ initial data


def test_initial_field_shape_checked():
    with pytest.raises(ConfigError, match="shape"):
        Simulation(small_config(), initial_ey=np.zeros((5, 5)))


def test_initial_h_shape_checked():
    n = 2**6 + 1
    with pytest.raises(ConfigError, match="initial_h"):
        Simulation(small_config(), initial_ey=np.zeros((n, n)),
                   initial_h=(np.zeros((3, 3)), np.zeros((n, n))))


def test_explicit_initial_h_kept():
    # The start holds the given H at its mask's points and 0.0 elsewhere:
    # every point of the whole mesh in full-grid mode, the coarse lattice
    # of this zero field in adaptive mode.
    n = 2**6 + 1
    rng = np.random.default_rng(3)
    hx = rng.standard_normal((n, n))
    hz = rng.standard_normal((n, n))
    for full_grid in (False, True):
        sim = Simulation(small_config(full_grid=full_grid),
                         initial_ey=np.zeros((n, n)), initial_h=(hx, hz))
        state = on_finest_lattice(sim.state, sim.spec)
        want = sim.spec.full_mask() if full_grid else sim.spec.coarse_mask()
        np.testing.assert_array_equal(state.mask1, want)
        np.testing.assert_array_equal(state.hx, np.where(want, hx, 0.0))
        np.testing.assert_array_equal(state.hz, np.where(want, hz, 0.0))


def test_gaussian_initial_peak_at_center():
    sim = Simulation(small_config())
    n = sim.spec.n
    assert sim.state.ey[n // 2, n // 2] == pytest.approx(1.0)
    assert sim.state.ey.max() == pytest.approx(1.0)
    # splits carry half the field each
    np.testing.assert_allclose(sim.state.eyx, 0.5 * sim.state.ey, atol=0)


def test_zero_ic_stays_zero():
    cfg = small_config(ic="zero", boundary="PEC")
    sim = Simulation(cfg)
    for _ in range(3):
        sim.step()
    assert np.all(sim.state.ey == 0.0)
    assert np.all(sim.state.hx == 0.0)


def test_zero_ic_mask_collapses_to_coarse():
    sim = Simulation(small_config(ic="zero"))
    sim.step()
    np.testing.assert_array_equal(relattice(sim.state.mask0, sim.spec.j_max),
                                  sim.spec.coarse_mask())
    assert int(sim.state.mask0.sum()) == (2**3 + 1) ** 2


# One (n, n) float64 array of the default configuration (jmax=9).
MESH = (2**9 + 1) ** 2 * 8
START_SHARED = ("mask0", "mask1", "mask2")


def test_start_allocates_under_seven_meshes():
    # The full-grid start keeps four fields on the whole mesh; its masks
    # share one boolean array and the Euler half-step is formed in place.
    sim, peak = traced_peak(
        lambda: Simulation(SimulationConfig(full_grid=True)))
    assert sim.spec.n**2 * 8 == MESH
    assert peak < 7 * MESH


def test_start_and_whole_lattice_first_step_allocate_under_14_meshes():
    # A full-grid run starts and steps on the whole lattice: on top of the
    # start's five meshes, a step forms Ey and advances the four fields in
    # place, a few cache-sized derivative bands at a time.
    def first_step():
        sim = Simulation(SimulationConfig(full_grid=True))
        sim.step()
        return sim

    sim, peak = traced_peak(first_step)
    assert sim.state.eyx.shape == (sim.spec.n,) * 2
    assert peak < 14 * MESH


def test_full_grid_step_at_jmax_9_holds_under_seven_meshes():
    # The bound is fixed before measuring.  The state is copied inside
    # the traced call, so it counts: four fields and one mask, 4.1
    # meshes.  A step adds Ey and a few derivative bands; making four
    # new fields and four whole derivatives held 10.2 meshes.
    sim = Simulation(SimulationConfig(full_grid=True))
    sim.step()
    state = sim.state

    def step_from_a_copy():
        sim.state = copy.deepcopy(state)
        sim.step()

    _, peak = traced_peak(step_from_a_copy)
    assert sim.state.k == state.k + 1
    assert peak < 7 * MESH, peak / MESH


def test_adaptive_start_allocates_under_one_mesh():
    # The bound is one (n, n) float64 mesh, fixed before measuring: the
    # fitted start samples no whole-lattice array, and its grid
    # (GridSpec's birth and detail arrays) weighs a quarter of a mesh.
    sim, peak = traced_peak(lambda: Simulation(SimulationConfig()))
    assert sim.spec.n**2 * 8 == MESH
    assert peak < MESH


def test_start_shares_one_read_only_mask():
    # Adaptive or full-grid, the start's three masks are one read-only
    # array, and the state holds no levels: a mask's grid derives them.
    for full_grid in (False, True):
        config = small_config(full_grid=full_grid)
        state = Simulation(config).state
        assert all(getattr(state, name) is state.mask0
                   for name in START_SHARED)
        for name in START_SHARED:
            with pytest.raises(ValueError):
                getattr(state, name)[0, 0] = 0
        assert bool(state.mask0.all()) == full_grid
        assert not any("level" in field.name for field in fields(state))


@pytest.mark.parametrize("full_grid", [False, True])
def test_runs_from_the_read_only_start_match_writable_copies(full_grid):
    # The adaptive start's mask is fitted to the pulse; step 1 replaces
    # its masks, and a full-grid run keeps them throughout.
    config = small_config(boundary="PML", full_grid=full_grid)
    shared, apart = Simulation(config), Simulation(config)
    for name in START_SHARED:
        setattr(apart.state, name, getattr(apart.state, name).copy())
    mask = shared.state.mask0
    assert bool(mask.all()) == full_grid
    for _ in range(4):
        shared.step()
        apart.step()
        assert state_digest(shared.state) == state_digest(apart.state)
    state = shared.state
    if full_grid:
        # A full-grid run keeps the start's mask for good.
        assert all(getattr(state, name) is mask for name in START_SHARED)
    else:
        assert not any(getattr(state, name) is mask
                       for name in START_SHARED)


def lattice_grid(state, config):
    """The grid of the lattice the state's arrays sample."""
    spec = grid.GridSpec(config.jmin, config.jmax)
    return spec.lattice(lattice_level(state))


# ------------------------------------------------------------ fitted start


def test_zero_ic_start_is_the_coarse_lattice():
    sim = Simulation(small_config(ic="zero"))
    state = sim.state
    assert lattice_level(state) == sim.spec.j_min + 1
    np.testing.assert_array_equal(relattice(state.mask0, sim.spec.j_max),
                                  sim.spec.coarse_mask())
    for name in ("eyx", "eyz", "hx", "hz"):
        assert not getattr(state, name).any(), name


def test_zero_threshold_start_is_the_full_grid_start():
    # zeta = 0 keeps every detail, so the fit reaches j_max everywhere.
    config = small_config(zeta=0.0, boundary="PML")
    adaptive = Simulation(config).state
    full = Simulation(replace(config, full_grid=True)).state
    assert bool(adaptive.mask0.all())
    assert adaptive.mask0.shape == full.mask0.shape
    for name in ("eyx", "eyz"):
        assert (getattr(adaptive, name).tobytes()
                == getattr(full, name).tobytes()), name
    # H is the separable Gaussian's stencil, equal up to rounding.
    for name in ("hx", "hz"):
        np.testing.assert_allclose(getattr(adaptive, name),
                                   getattr(full, name), rtol=1e-12,
                                   atol=1e-12 * np.abs(full.hx).max())


@pytest.mark.parametrize("config", [
    small_config(),
    small_config(boundary="PML", center_frac=(0.3, 0.6)),
    small_config(jmax=8, sigma_um=0.3, zeta=1e-3),
    small_config(jmin=2, jmax=7, order=2),
], ids=["pec", "off-centre", "wide", "order2"])
def test_start_mask_is_closed_and_holds_the_coarse_lattice(config):
    sim = Simulation(config)
    state = sim.state
    spec = lattice_grid(state, config)
    assert lattice_level(state) == max(grid.finest_level(state.mask0, spec),
                                       config.jmin + 1)
    grid.require_closed(state.mask0, spec, sim.bank, "start")
    wide = relattice(state.mask0, config.jmax)
    assert not np.any(sim.spec.coarse_mask() & ~wide)
    assert not wide.all()
    # The fields hold the Gaussian at the mask's points only.
    full = Simulation(replace(config, full_grid=True)).state
    ey = relattice(state.ey, config.jmax)
    np.testing.assert_array_equal(ey, np.where(wide, full.ey, 0.0))


@pytest.mark.parametrize("user", [False, True], ids=["configured", "user"])
@pytest.mark.parametrize("sigma_um", [0.05, 0.03])
def test_start_finds_a_pulse_narrower_than_the_coarse_levels_see(sigma_um,
                                                                 user):
    # Centred between level-4 points, such a pulse reads below zeta at
    # every point of the levels a coarse-to-fine fit starts from.  The
    # configured pulse's fit samples whole lattices down to the level that
    # resolves sigma; the same pulse given as initial_ey is thresholded on
    # the whole mesh.  Either way step 1 keeps it as the full-grid run
    # does.
    config = small_config(jmax=7, boundary="PML", sigma_um=sigma_um,
                          center_frac=(0.53125, 0.53125))
    full = Simulation(replace(config, full_grid=True))
    adaptive = Simulation(config,
                          initial_ey=full.state.ey if user else None)
    assert int(adaptive.state.mask0.sum()) > (2**config.jmin + 1) ** 2
    adaptive.step()
    full.step()
    np.testing.assert_allclose(np.abs(adaptive.dense_ey()).max(),
                               np.abs(full.state.ey).max(), rtol=1e-2)


def test_start_reads_a_user_field_only_where_it_refines():
    # A below-zeta change to a user field at a point off the start's mask
    # and off the derivative taps of its points (a finest-spacing stencil
    # along the point's row and column) changes nothing.
    config = small_config(boundary="PML")
    n = 2**config.jmax + 1
    field = gaussian_field(n, SIGMA_PAPERED / config.domain_length_um)
    base = Simulation(config, initial_ey=field).state
    mask = relattice(base.mask0, config.jmax)
    reach = build_filter_bank(config.order).deriv_halfwidth
    m, k = 2, 2  # born at level 5, a d3 point
    assert not mask[m, :k + reach + 1].any()
    assert not mask[:m + reach + 1, k].any()
    changed = field.copy()
    changed[m, k] = 0.5 * config.zeta
    assert state_digest(Simulation(config, initial_ey=changed).state) == (
        state_digest(base))
    # A d3 detail there is a quarter of the value: 8 zeta is seen.
    changed[m, k] = 8.0 * config.zeta
    state = Simulation(config, initial_ey=changed).state
    assert relattice(state.mask0, config.jmax)[m, k]


def test_user_field_start_is_the_whole_mesh_threshold():
    # A user field's start mask is what adapt_step makes of a state that
    # holds the field at every point: the whole-mesh transform,
    # thresholded and closed.
    config = small_config(boundary="PML", sigma_um=0.1,
                          center_frac=(0.3, 0.55))
    field = Simulation(replace(config, full_grid=True)).state.ey
    field[5:9, 40:44] += 3.0 * config.zeta
    start = Simulation(config, initial_ey=field).state
    dense = Simulation(replace(config, full_grid=True), initial_ey=field)
    dense.config = replace(config, full_grid=False)
    dense.adapt_step()
    np.testing.assert_array_equal(relattice(start.mask0, config.jmax),
                                  relattice(dense.state.mask0, config.jmax))


def test_update_step_refuses_an_unprepared_adaptive_start():
    # An adaptive update runs on the grids adapt_step returns: the fitted
    # start has no derivative ring, where an update would read every
    # derivative as 0.0, and no state is updated without them, after
    # adapt_step as before it.
    sim = Simulation(small_config())
    with pytest.raises(RuntimeError, match="adapt_step"):
        sim.update_step()
    assert sim.state.k == 0
    sim.update_step(sim.adapt_step())
    with pytest.raises(RuntimeError, match="adapt_step"):
        sim.update_step()
    assert sim.state.k == 1
    sim.adapt_step()
    with pytest.raises(RuntimeError, match="adapt_step"):
        sim.update_step()
    assert sim.state.k == 1


def watch(monkeypatch, name, calls, modules=(solver, grid, derivatives,
                                              wavelets)):
    """Record in calls the first argument of every call of the function
    name, in each module that binds it."""
    for module in modules:
        original = getattr(module, name, None)
        if original is None:
            continue

        def watched(first, *args, original=original, **kwargs):
            calls.append(first)
            return original(first, *args, **kwargs)

        monkeypatch.setattr(module, name, watched)


def test_start_and_first_step_stay_off_the_whole_lattice(monkeypatch):
    # Regression guard: at jmax=9 neither the start nor step 1 makes the
    # grid of, and so plans or lists the points of, the whole 513^2
    # lattice.
    n = 2**9 + 1
    grids = []
    original = grid.MaskGrid.__init__

    def init(self, mask, *args):
        grids.append(mask.shape)
        original(self, mask, *args)

    monkeypatch.setattr(grid.MaskGrid, "__init__", init)
    sim = Simulation(SimulationConfig(steps=1))
    sim.step()
    assert grids and (n, n) not in grids
    assert lattice_level(sim.state) < 9


def test_a_step_builds_each_grid_once(monkeypatch):
    # An adaptive step lists the points of, and computes the levels and
    # the derivative stencil of, mask0 and mask1 once each, and the field
    # update reads them from the grids adapt_step returns.
    sim = Simulation(SimulationConfig(steps=3))
    sim.step()
    listed, levels, stencils = [], [], []
    for name, calls in (("masked_points", listed),
                        ("compute_levels", levels),
                        ("derivative_taps", stencils)):
        watch(monkeypatch, name, calls)
    sim.step()
    assert (len(listed), len(levels), len(stencils)) == (2, 2, 2)
    state = sim.state
    for got, mask in zip(levels, (state.mask0, state.mask1)):
        assert got.tobytes() == mask.tobytes()

# ------------------------------------------------------------ stepping


def test_clock_advances():
    sim = Simulation(small_config())
    sim.step()
    sim.step()
    assert sim.state.k == 2
    assert sim.state.t == pytest.approx(2 * sim.dt)


def test_run_callback_called_each_step():
    sim = Simulation(small_config(steps=4))
    seen = []
    sim.run(on_step=lambda s: seen.append(s.state.k))
    assert seen == [1, 2, 3, 4]


def test_mask_chain_nested_and_coarse_contained():
    sim = Simulation(small_config(boundary="PML", pml_width_frac=0.25))
    for _ in range(6):
        sim.step()
    st = on_finest_lattice(sim.state, sim.spec)
    assert not np.any(st.mask0 & ~st.mask1)
    assert not np.any(st.mask1 & ~st.mask2)
    assert not np.any(sim.spec.coarse_mask() & ~st.mask0)


def test_x_invariant_data_stays_x_invariant():
    # A ridge Ey(z) only: the transverse-magnetic update never couples
    # x-variation in, so interior rows must remain identical.
    cfg = small_config(jmax=6, full_grid=True, steps=2)
    n = 2**6 + 1
    z = np.linspace(0.0, 1.0, n)
    ridge = np.exp(-((z - 0.5) ** 2) / (2 * 0.08**2))
    sim = Simulation(cfg, initial_ey=np.tile(ridge, (n, 1)))
    for _ in range(2):
        sim.step()
    # conducting x-edges break the symmetry, but their influence moves
    # at most two stencil halfwidths per step
    pad = 2 * 2 * sim.bank.deriv_halfwidth
    rows = sim.state.ey[pad : n - pad]
    assert rows.shape[0] > 0
    np.testing.assert_array_equal(rows, np.tile(rows[0], (rows.shape[0], 1)))


def test_pml_coefficients_identity_outside_layer():
    pec = Simulation(small_config(boundary="PEC"))
    pml = Simulation(small_config(boundary="PML", pml_width_frac=0.25))
    n = pml.spec.n
    d = int(round(0.25 * (n - 1)))
    inner = slice(d + 1, n - d - 1)
    np.testing.assert_array_equal(pml.ea_x[inner, 0], pec.ea_x[inner, 0])
    np.testing.assert_array_equal(pml.eb_z[0, inner], pec.eb_z[0, inner])
    # and strictly lossy inside
    assert np.all(pml.ea_x[0, 0] < 1.0)


def test_boundaries_agree_before_wave_reaches_layer():
    pec = Simulation(small_config(jmax=7, full_grid=True, boundary="PEC"))
    pml = Simulation(small_config(jmax=7, full_grid=True, boundary="PML",
                                  pml_width_frac=0.25))
    for _ in range(2):
        pec.step()
        pml.step()
    n = pec.spec.n
    box = slice(n // 2 - 10, n // 2 + 11)
    np.testing.assert_array_equal(pec.state.ey[box, box],
                                  pml.state.ey[box, box])


# ------------------------------------------------------------ adaptivity


def test_zero_threshold_keeps_full_mask():
    sim = Simulation(small_config(zeta=0.0))
    sim.step()
    assert bool(sim.state.mask0.all())


def test_zero_threshold_matches_full_grid():
    cfg = small_config(zeta=0.0, steps=20)
    adaptive = Simulation(cfg)
    reference = Simulation(replace(cfg, full_grid=True))
    for _ in range(20):
        adaptive.step()
        reference.step()
    err = np.abs(adaptive.state.ey - reference.state.ey).max()
    assert err <= 1e-12


def test_adaptive_mask_smaller_than_full():
    sim = Simulation(small_config(boundary="PML"))
    sim.step()
    assert int(sim.state.mask0.sum()) < sim.spec.n**2 // 2


def test_first_step_cardinality_pinned():
    # Regression guard for the whole adapt chain (threshold, zone,
    # closures, extensions) on the reference configuration.
    cfg = SimulationConfig(domain_length_um=6.0, jmin=3, jmax=7, order=4,
                           zeta=5e-4, steps=1, boundary="PML",
                           pml_width_frac=0.25, sigma_um=SIGMA_PAPERED)
    sim = Simulation(cfg)
    sim.step()
    assert int(sim.state.mask0.sum()) == 1977


def test_dense_ey_extends_active_values():
    sim = Simulation(small_config(boundary="PML"))
    for _ in range(3):
        sim.step()
    dense = sim.dense_ey()
    state = on_finest_lattice(sim.state, sim.spec)
    active = state.mask0
    # transform round trip, so active values survive to rounding only
    np.testing.assert_allclose(dense[active], state.ey[active], atol=1e-12)
    assert np.isfinite(dense).all()
    # interpolation fills gaps smoothly: off-mask values stay bounded
    assert np.abs(dense).max() <= np.abs(state.ey).max() * 1.5 + 1e-12


def test_dense_ey_equals_field_on_full_mask():
    sim = Simulation(small_config(zeta=0.0))
    sim.step()
    np.testing.assert_array_equal(sim.dense_ey(), sim.state.ey)


# ------------------------------------------------------------ stability


def test_overdriven_step_raises_instability():
    cfg = small_config(jmax=5, dt_factor=1.5, enforce_cfl=False,
                       full_grid=True, steps=2000)
    sim = Simulation(cfg)
    with pytest.raises(InstabilityError) as err:
        for _ in range(2000):
            sim.step()
    assert err.value.step > 0
    assert "step" in str(err.value)


@pytest.mark.parametrize("full_grid", [False, True])
def test_finite_check_raises_on_an_overflowing_step(full_grid):
    # Two finite splits whose sum overflows: the step's fields go
    # non-finite, and the check, which sums the new Ey at the listed
    # points or, on the full grid, band by band, raises.
    sim = Simulation(small_config(boundary="PEC", full_grid=full_grid))
    sim.step()
    n = sim.state.eyx.shape[0]
    for split in (sim.state.eyx, sim.state.eyz):
        split[n // 2, n // 2] = 1.5e308
    points = sim.adapt_step()
    with np.errstate(over="ignore"):
        with pytest.raises(InstabilityError):
            sim.update_step(points)


def test_finite_check_finds_a_bad_entry_in_any_band():
    # A 513^2 mesh is checked BAND_BYTES at a time: an entry that is not
    # finite, or a sum that overflows, is found on either side of a band
    # boundary and in the last, short band.
    n, chunk = 513, derivatives.BAND_BYTES // 8
    values, other = np.zeros((n, n)), np.zeros((n, n))
    assert solver._finite((values,), (values, other))
    for at in (0, chunk - 1, chunk, n * n - 1):
        for bad in (np.inf, -np.inf, np.nan):
            values.flat[at] = bad
            assert not solver._finite((other,), (values,))
            assert not solver._finite((other, values))
            values.flat[at] = 0.0
        values.flat[at] = other.flat[at] = 1.5e308
        assert solver._finite((values,), (other,))
        with np.errstate(over="ignore"):
            assert not solver._finite((values, other))
        values.flat[at] = other.flat[at] = 0.0


def test_stable_run_stays_finite():
    sim = Simulation(small_config(boundary="PML", steps=30))
    sim.run()
    assert np.isfinite(sim.state.ey).all()
    assert np.abs(sim.state.ey).max() <= 2.0


# ------------------------------------------------------------ point-wise update


def dense_update(sim, state):
    """The field update on the whole (n, n) mesh: np.where over the masks
    and the derivatives over the whole lattice, zero off their masks.  On
    the full grid the derivatives take no grid, as update_step's do."""
    spec, bank, length = sim.spec, sim.bank, sim.length_m
    grid1, grid0 = (None, None) if sim.config.full_grid else (
        MaskGrid(mask, spec, bank) for mask in (state.mask1, state.mask0))

    def derivative(fn, field, mask, grid):
        got = fn(field, mask, grid, spec, bank, length)
        return got if grid is None else on_mesh(got, grid)

    dz_ey, dx_ey = (derivative(fn, state.ey, state.mask2, grid1)
                    for fn in (diff_z, diff_x))
    state.hx = np.where(state.mask1, sim.ea_z * state.hx + sim.hb_z * dz_ey,
                        0.0)
    state.hz = np.where(state.mask1, sim.ea_x * state.hz - sim.hb_x * dx_ey,
                        0.0)
    dz_hx = derivative(diff_z, state.hx, state.mask1, grid0)
    dx_hz = derivative(diff_x, state.hz, state.mask1, grid0)
    state.eyz = np.where(state.mask0,
                         sim.ea_z * state.eyz + sim.eb_z * dz_hx, 0.0)
    state.eyx = np.where(state.mask0,
                         sim.ea_x * state.eyx - sim.eb_x * dx_hz, 0.0)
    return sim.apply_boundary(state)


@pytest.mark.parametrize("full_grid", [False, True])
def test_update_step_matches_dense_update_bitwise(full_grid):
    # At jmax=8 the adaptive state is stored on the level-7 lattice.
    sim = Simulation(small_config(jmax=8, boundary="PML",
                                  full_grid=full_grid))
    for _ in range(4):
        sim.step()
        listed = sim.adapt_step()
        want = dense_update(sim, on_finest_lattice(copy.deepcopy(sim.state),
                                                   sim.spec))
        sim.update_step(listed)
        got = on_finest_lattice(sim.state, sim.spec)
        for name in ("ey", "eyx", "eyz", "hx", "hz"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name
    if not full_grid:
        assert lattice_level(sim.state) == 7
        assert sim.state.mask0.sum() < sim.state.mask2.sum() < sim.spec.n**2


def test_adapt_step_regrids_h_only_where_mask1_leaves_the_previous_one():
    # At jmax=8 the new mask1 leaves the previous one on step 1, whose
    # derivative ring lies outside the start's mask, and on steps 6, 8
    # and 10; it lies inside it on the others.
    sim = Simulation(small_config(jmax=8, boundary="PML"))
    branches = []
    for _ in range(10):
        before = sim.state
        sim.state = copy.deepcopy(before)
        points = sim.adapt_step()
        state = sim.state
        level = lattice_level(state)
        mask1, hx, hz = (relattice(array, level)
                         for array in (before.mask1, before.hx, before.hz))
        regrid = bool(np.any(state.mask1 & ~mask1))
        if regrid:
            spec = sim.spec.lattice(level)
            hx, hz = interpolate_missing(
                (hx, hz), MaskGrid(mask1, spec, sim.bank),
                MaskGrid(state.mask1, spec, sim.bank))
        assert state.hx.tobytes() == hx.tobytes()
        assert state.hz.tobytes() == hz.tobytes()
        branches.append(regrid)
        sim.update_step(points)
    assert branches == [True] + [False] * 4 + [True, False] * 2 + [True]


@pytest.mark.parametrize("full_grid", [False, True])
def test_field_state_holds_only_arrays_and_numbers(full_grid):
    # A replay copies a state field by field and digests anything that is
    # not an array by its repr, so an object stored here would break it.
    sim = Simulation(small_config(boundary="PML", full_grid=full_grid))
    for state in (sim.state, sim.run(3)):
        for field in fields(state):
            value = getattr(state, field.name)
            assert isinstance(value, (np.ndarray, int, float)), field.name


# ------------------------------------------------------------ working lattice


def state_digest(state):
    digest = hashlib.blake2b(digest_size=16)
    for field in fields(state):
        value = getattr(state, field.name)
        digest.update(value.tobytes() if isinstance(value, np.ndarray)
                      else repr(value).encode())
    return digest.hexdigest()


def lattice_level(state):
    """Level of the lattice the state's arrays are stored on."""
    return grid.lattice_level(state.eyx.shape[-1])


def widened_digests(config, steps, whole=False):
    """Per step, the digest of the state spread over the (n, n) mesh and
    the level of the lattice it is stored on; whole spreads the start
    over the mesh before the first step."""
    sim = Simulation(config)
    if whole:
        sim.state = on_finest_lattice(sim.state, sim.spec)
    digests, levels = [], []
    for _ in range(steps):
        sim.step()
        digests.append(state_digest(on_finest_lattice(sim.state, sim.spec)))
        levels.append(lattice_level(sim.state))
    return digests, levels


@pytest.mark.parametrize("jmax, steps", [(7, 150), (9, 12)])
def test_working_lattice_steps_match_the_whole_mesh_bitwise(monkeypatch,
                                                            jmax, steps):
    # The calibration geometry through a survivor born at the lattice's
    # finest level (step 114) and the collapse to the coarse lattice
    # (step 135), and the default scale.  The reference keeps the state,
    # the fitted start included, on the whole mesh and runs every phase
    # and every closure level there.
    config = small_config(jmax=jmax, jmin=3, boundary="PML",
                          pml_width_frac=0.25, steps=steps)
    worked = []  # the lattice levels adapt_step thresholds and zones on
    threshold, zone = solver.threshold_coeffs, solver.add_adjacent_zone
    monkeypatch.setattr(solver, "threshold_coeffs", lambda pyr, *args, **kw: (
        worked.append(pyr.spec.j_max) or threshold(pyr, *args, **kw)))
    monkeypatch.setattr(solver, "add_adjacent_zone", lambda mask, spec: (
        worked.append(spec.j_max) or zone(mask, spec)))
    got, stored = widened_digests(config, steps)
    moves = list(zip(stored, stored[1:]))
    if jmax == 9:
        assert stored[1:] == [7] * (steps - 1)
        assert 8 not in worked
    else:
        assert any(after > before for before, after in moves)
        assert any(after < before for before, after in moves)

    def whole_mesh(mask, spec):
        return spec.j_max

    monkeypatch.setattr(solver, "finest_level", whole_mesh)
    monkeypatch.setattr(grid, "finest_level", whole_mesh)
    want, whole = widened_digests(config, steps, whole=True)
    assert whole == [jmax] * steps
    assert got == want


def test_boundaries_see_a_lattice_state_on_the_whole_mesh(tmp_path):
    # The default scale at k=12, stored on the level-7 lattice.
    config = small_config(jmax=9, boundary="PML", pml_width_frac=0.25,
                          steps=12, snapshot_every=100)
    result = run_simulation(config, out_dir=tmp_path / "run")
    sim = Simulation(config)
    sim.state = result.final_state
    assert lattice_level(sim.state) == 7
    wide = on_finest_lattice(sim.state, sim.spec)
    for field in fields(wide):
        value = getattr(wide, field.name)
        if isinstance(value, np.ndarray):
            assert value.shape == (sim.spec.n, sim.spec.n), field.name
    emit_snapshot(wide, sim.spec, config, tmp_path)
    for name in ("field_k12.csv", "mask_k12.pgm"):
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / "run" / name).read_bytes()), name
    want = interpolate_missing(
        wide.ey, MaskGrid(wide.mask0, sim.spec, sim.bank),
        MaskGrid(sim.spec.full_mask(), sim.spec, sim.bank))
    assert sim.dense_ey().tobytes() == want.tobytes()
    # The counts of the whole-mesh state.
    assert [(r.cardinality, r.card1, r.card2) for r in result.records] == (
        [(1977, 4153, 6625)] * 6 + [(1873, 4013, 6449)]
        + [(1801, 3917, 6369)] * 3 + [(1905, 4073, 6473)] * 2)


def test_small_j_min_run_on_capped_stores_equals_the_uncapped_layout(
        monkeypatch):
    # At j_min = 1 the farthest transform and derivative taps pass n, so
    # the stores' margins stop at n and the taps are clipped to +-n; the
    # coarse threshold thins the grid to level-1 and level-2 points,
    # whose derivative taps do too.  A run on stores whose margins hold
    # every tap's whole reach, the layout before the cap, leaves the same
    # bytes.
    config = small_config(jmin=1, steps=6, zeta=0.1, sigma_um=0.1)
    capped = Simulation(config)
    assert capped.spec.derivative_width == 2 * capped.spec.n
    capped.run()
    init = grid.GridSpec.__init__

    def uncapped(spec, j_min, j_max):
        init(spec, j_min, j_max)
        stride = spec.stride(j_min)
        spec.transform_width = spec.n + 7 * stride // 2
        spec.derivative_width = spec.n + 6 * stride

    monkeypatch.setattr(grid.GridSpec, "__init__", uncapped)
    grid.grid_of.cache_clear()
    try:
        wide = Simulation(config)
        assert wide.spec.derivative_width == wide.spec.n + 6 * 32
        wide.run()
    finally:
        grid.grid_of.cache_clear()
    assert state_digest(wide.state) == state_digest(capped.state)
