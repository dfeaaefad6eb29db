"""Transverse-magnetic Maxwell stepping on the adaptive grid.

The y-polarized system couples Ey with Hx and Hz on a 2D x-z domain.
Every step first adapts the grid to the current Ey (threshold the
transform, grow safety and stencil closures) and regrids every field
onto it (adapt_step), then advances the fields leapfrog-style on that
grid (update_step): H lives at half-integer times, Ey at integer times.
Ey is carried as the split pair Eyx + Eyz so the absorbing layer can
damp each sweep direction separately; outside the layer the pair
behaves exactly like the plain field.  The state stores the pair, and
Ey is their sum, formed where it is read.

Grids, levels and stencils come from the grid/wavelets/derivatives
modules; this module owns the physics, the step-size control, and the
boundary treatment.

On an adaptive grid a step lists the points of mask0 and mask1 once
(grid.Points) and works on those lists: the levels, the derivative
closure, the derivatives, the field update and the finite check cost
in proportion to the active points.  Every entry off the masks is 0.0
by construction, so only the listed entries are computed.  In full-grid
mode every point is active and the same arithmetic runs on the whole
arrays.

The start and every full-grid step run on the whole (2^j_max + 1)^2
mesh, so they hold as few mesh-sized arrays as they can: the start's
three masks are one read-only full mask and its two level arrays one
read-only array, which a full-grid run keeps throughout and an adaptive
step replaces, and the start, the uniform-stencil derivatives and the
field update scale and sum into arrays they have just made, in place,
with the operands and order of the plain expressions.

An adaptive state is stored on the level-J lattice of the finest point
of the masks its last step read and made, J = finest_level(previous
mask1 | mask2), at least j_min + 1: its
arrays are (2^J + 1)-square, J is read from their shape, and the points
adapt_step returns and update_step takes are in that lattice's
coordinates.  adapt_step narrows the state to the finest level of the
mask1 it finds, which holds every field, thresholds there, and goes one
level finer only when a survivor is born at that level, since the
adjacent zone reaches one level past a point; update_step runs where
adapt_step leaves the state.  Every point reads the same taps with the
same weights in the same order as on the whole mesh (see the grid
module), so the results are bit for bit the whole mesh's.  relattice
spreads one array over the (2^j_max + 1)^2 mesh and on_finest_lattice
the whole state; full-grid mode stays there.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import SimulationConfig
from .derivatives import diff_x, diff_z
from .errors import ConfigError, InstabilityError
from .filters import FilterBank, build_filter_bank
from .grid import (
    GridSpec,
    Points,
    add_adjacent_zone,
    compute_levels,
    extend_for_derivatives,
    finest_level,
    masked_points,
    reconstruction_check,
)
from .wavelets import (
    WAVELET,
    CoeffPyramid,
    fwt_full,
    interpolate_missing,
    iwt_full,
    threshold_coeffs,
)

EPS0 = 8.8541878128e-12  # F/m
MU0 = 1.25663706212e-6  # H/m
C0 = 1.0 / math.sqrt(EPS0 * MU0)  # m/s
ETA0 = math.sqrt(MU0 / EPS0)  # Ohm


def cfl_max_dt(delta_m: float, bank: FilterBank, c: float = C0) -> float:
    """Largest stable time step for mesh size delta_m (meters)."""
    if delta_m <= 0:
        raise ConfigError(f"mesh size must be positive, got {delta_m}")
    return delta_m / (math.sqrt(2.0) * c * bank.deriv_abs_sum)


def default_dt_factor(bank: FilterBank) -> float:
    """CFL fraction reproducing the step Delta/(1.6 c)."""
    return math.sqrt(2.0) * bank.deriv_abs_sum / 1.6


@dataclass
class FieldState:
    """The fields and the grid they live on.

    The splits eyx/eyz are sampled at t = k dt, the magnetic fields at
    t = (k - 1/2) dt.  Between steps the splits hold their values on
    mask0 and H on mask1, so these are the supports a step regrids from;
    adapt_step replaces the masks and levels and regrids the splits onto
    mask2 and H onto the new mask1, and update_step advances the fields
    on them.  ey is derived, never stored.

    The arrays sample one lattice (see the module docstring); fields are
    0.0 off their masks, levels 0.  on_finest_lattice gives them (n, n).
    """

    eyx: np.ndarray
    eyz: np.ndarray
    hx: np.ndarray
    hz: np.ndarray
    mask0: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    level0: np.ndarray
    level1: np.ndarray
    k: int = 0
    t: float = 0.0

    @property
    def ey(self) -> np.ndarray:
        """Ey = eyx + eyz, a new array on the state's lattice."""
        return self.eyx + self.eyz


def _at(array, points: Points | None):
    """A lattice array, or a coefficient column (n, 1) or row (1, n), at
    the listed points; the whole array when points is None."""
    if points is None:
        return array
    if array.shape[1] == 1:
        return array[points.rows, 0]
    if array.shape[0] == 1:
        return array[0, points.cols]
    return array[points.rows, points.cols]


def _lattice(values, points: Points | None, n: int):
    """Values at the listed points on an otherwise zero (n, n) lattice,
    of the values' type; values itself when points is None."""
    if points is None:
        return values
    out = np.zeros(n * n, dtype=np.result_type(values))
    out[points.flat] = values
    return out.reshape(n, n)


def _advance(a, field, combine, b, derivative, points: Points | None,
             n: int):
    """combine(a * field, b * derivative) at the listed points (every
    point when None), on the lattice.  The derivative, a fresh array, is
    scaled in place; the products and the sum round as written."""
    derivative *= _at(b, points)
    out = _at(a, points) * _at(field, points)
    return _lattice(combine(out, derivative, out=out), points, n)


def _level(array) -> int:
    """J of the (2^J + 1)-square lattice an array samples."""
    return (array.shape[-1] - 1).bit_length() - 1


def relattice(array, level: int):
    """The array on the level-`level` lattice: a finer one's entries at
    its points, or a coarser one's spread out with 0 (False) between
    them; the array itself when it samples that lattice."""
    up = level - _level(array)
    if up <= 0:
        return array if up == 0 else np.ascontiguousarray(
            array[..., ::1 << -up, ::1 << -up])
    n = ((array.shape[-1] - 1) << up) + 1
    out = np.zeros(array.shape[:-2] + (n, n), dtype=array.dtype)
    out[..., ::1 << up, ::1 << up] = array
    return out


_ARRAYS = tuple(f.name for f in fields(FieldState) if f.type is np.ndarray)


def _to_level(state: FieldState, level: int):
    """Put every array of the state on the level-`level` lattice."""
    for name in _ARRAYS:
        setattr(state, name, relattice(getattr(state, name), level))


def on_finest_lattice(state: FieldState, spec: GridSpec) -> FieldState:
    """A copy of the state with every array on spec's finest lattice,
    (n, n); arrays already there are shared, not copied."""
    return replace(state, **{name: relattice(getattr(state, name), spec.j_max)
                             for name in _ARRAYS})


def _require_subset(inner, outer, what):
    if np.any(inner & ~outer):
        raise RuntimeError(f"mask chain broken: {what}")


class Simulation:
    """One configured run: grid, filters, step size, boundary, state.

    initial_ey overrides the configured initial condition with an
    explicit Ey(t=0) array.  initial_h provides user magnetic fields at
    t = -dt/2 as a pair (hx, hz); without it the magnetic start-up is
    the explicit Euler half-step from the t=0 electric field.
    """

    def __init__(self, config: SimulationConfig, initial_ey=None,
                 initial_h=None):
        config.validate()
        self.config = config
        self.spec = GridSpec(config.jmin, config.jmax)
        self.bank = build_filter_bank(config.order)
        self.length_m = config.domain_length_um * 1e-6
        self.delta_m = self.length_m / 2**config.jmax

        factor = config.dt_factor
        if factor is None:
            factor = default_dt_factor(self.bank)
        self.dt = factor * cfl_max_dt(self.delta_m, self.bank)
        if config.enforce_cfl and self.dt > cfl_max_dt(self.delta_m, self.bank):
            raise ConfigError(
                f"dt_factor {factor} exceeds the CFL bound; refusing to run"
            )

        self._build_update_coefficients()
        self.state = self._initialize(initial_ey, initial_h)

    # ------------------------------------------------------------ setup

    def _sigma_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Conductivity along each axis: cubic-graded inside the layer,
        zero elsewhere (and everywhere for the reflecting boundary)."""
        n = self.spec.n
        if self.config.boundary != "PML":
            zero = np.zeros(n)
            return zero, zero.copy()
        depth_m = self.config.pml_width_frac * self.length_m
        reflection = 1e-6
        grade = 3
        sigma_max = -(grade + 1) * EPS0 * C0 * math.log(reflection) / (2 * depth_m)
        x = np.arange(n) * self.delta_m
        left = np.clip((depth_m - x) / depth_m, 0.0, 1.0)
        right = np.clip((x - (self.length_m - depth_m)) / depth_m, 0.0, 1.0)
        profile = sigma_max * (left**grade + right**grade)
        return profile, profile.copy()

    def _build_update_coefficients(self):
        sig_x, sig_z = self._sigma_profile()
        qx = (sig_x * self.dt / (2.0 * EPS0))[:, None]
        qz = (sig_z * self.dt / (2.0 * EPS0))[None, :]
        self.ea_x = (1.0 - qx) / (1.0 + qx)
        self.eb_x = (self.dt / EPS0) / (1.0 + qx)
        self.ea_z = (1.0 - qz) / (1.0 + qz)
        self.eb_z = (self.dt / EPS0) / (1.0 + qz)
        # Matched-impedance magnetic losses share the dimensionless ramp
        # ea_x/ea_z.
        self.hb_x = (self.dt / MU0) / (1.0 + qx)
        self.hb_z = (self.dt / MU0) / (1.0 + qz)

    def _initial_ey(self, initial_ey) -> np.ndarray:
        n = self.spec.n
        if initial_ey is not None:
            field = np.array(initial_ey, dtype=float)
            if field.shape != (n, n):
                raise ConfigError(
                    f"initial field shape {field.shape} does not match ({n}, {n})"
                )
            return field
        if self.config.ic == "zero":
            return np.zeros((n, n))
        coords = np.linspace(0.0, self.config.domain_length_um, n)
        cx = self.config.center_frac[0] * self.config.domain_length_um
        cz = self.config.center_frac[1] * self.config.domain_length_um
        # exp(-r2 / (2 sigma^2)), each step in place in r2.
        r2 = (coords[:, None] - cx) ** 2 + (coords[None, :] - cz) ** 2
        np.negative(r2, out=r2)
        r2 /= 2.0 * self.config.sigma_um**2
        return np.exp(r2, out=r2)

    def _initialize(self, initial_ey, initial_h) -> FieldState:
        """The k=0 state on the whole mesh: every point active at level
        j_max.

        It holds four fields, one full mask and one level array: the three
        masks share the mask, and level0 and level1 the level array, both
        read-only, since a step replaces a state's masks and levels and
        never writes into them.  The levels stay int64, as _diff shifts
        by j_max - level.  The Euler half-step is scaled in place, and
        eyz is the initial field's own buffer, halved.
        """
        n = self.spec.n
        full = self.spec.full_mask()
        levels = np.full((n, n), self.spec.j_max, dtype=np.int64)
        full.flags.writeable = levels.flags.writeable = False
        ey = self._initial_ey(initial_ey)
        if initial_h is not None:
            hx = np.array(initial_h[0], dtype=float)
            hz = np.array(initial_h[1], dtype=float)
            if hx.shape != (n, n) or hz.shape != (n, n):
                raise ConfigError("initial_h arrays must match the grid shape")
        else:
            # Synthetic t = -dt/2 fields: the first leapfrog advance then
            # lands exactly on the Euler half-step values +-(dt/2)/mu0 d(Ey).
            half = 0.5 * self.dt / MU0
            hx = diff_z(ey, full, levels, self.spec, self.bank, self.length_m)
            hx *= -half
            hz = diff_x(ey, full, levels, self.spec, self.bank, self.length_m)
            hz *= half
        eyx = 0.5 * ey
        ey *= 0.5
        state = FieldState(
            eyx=eyx,
            eyz=ey,
            hx=hx,
            hz=hz,
            mask0=full,
            mask1=full,
            mask2=full,
            level0=levels,
            level1=levels,
        )
        return self.apply_boundary(state)

    # ------------------------------------------------------------ stepping

    def adapt_step(self) -> tuple[Points, Points] | None:
        """Re-fit the grid to the current Ey and regrid every field onto
        it (no-op in full-grid mode).

        The state's masks on entry are the previous step's: the splits
        hold their values on mask0 and H on mask1.  The transform of the
        summed field decides only grid membership: detail positions below
        the threshold leave the mask (unless the safety zone or a stencil
        closure keeps them).  The electric splits are carried through
        their own transforms and come back on the new mask2 with their
        coefficients intact; only positions dropped from the grid lose
        their content.  Zeroing retained sub-threshold coefficients
        instead deletes just-below-threshold field content every step and
        the deviation from the full-grid reference then grows far past the
        threshold scale.  H is interpolated onto the new mask1 when that
        leaves the previous one.

        Returns the listed points of the new mask0 and mask1 for
        update_step, in the coordinates of the lattice the state leaves
        on, or None in full-grid mode; on_finest_lattice gives the state
        as (n, n) arrays.
        """
        state, bank = self.state, self.bank
        if self.config.full_grid:
            return None
        # Every field lives on mask1, which holds mask0.
        level = max(finest_level(state.mask1,
                                 self.spec.lattice(_level(state.eyx))),
                    self.spec.j_min + 1)
        _to_level(state, level)
        spec = self.spec.lattice(level)
        # Both splits go through one stacked transform per mask.
        pyr = CoeffPyramid.from_field((state.eyx, state.eyz), spec,
                                      mask=state.mask0)
        mask0 = self._thinned_mask(pyr, state.mask0)
        if level < self.spec.j_max and finest_level(mask0, spec) == level:
            # A survivor born at the lattice's finest level: its adjacent
            # zone reaches one level finer.
            level += 1
            _to_level(state, level)
            spec = self.spec.lattice(level)
            pyr = CoeffPyramid(relattice(pyr.data, level), spec, WAVELET)
            mask0 = relattice(mask0, level)
        mask0 = reconstruction_check(add_adjacent_zone(mask0, spec), spec, bank)
        points0 = masked_points(mask0)
        level0 = compute_levels(mask0, spec, points0)
        mask1 = extend_for_derivatives(mask0, spec, level0, bank, points0)
        points1 = masked_points(mask1)
        # H carries genuine values on the whole previous mask1 (update ring
        # included); interpolating from there instead of from the previous
        # mask0 keeps them, and the error against the full-grid reference
        # stays at the threshold scale instead of accumulating
        # ring-prediction glitches every step.  Both fields share one
        # stacked regrid.  The update reads H at mask1's points only, so
        # when mask1 lies inside the previous one the values there are H's
        # own and no regrid runs.
        if not state.mask1.reshape(-1)[points1.flat].all():
            state.hx, state.hz = interpolate_missing(
                (state.hx, state.hz), state.mask1, mask1, spec, bank,
                check=False)
        level1 = compute_levels(mask1, spec, points1)
        mask2 = extend_for_derivatives(mask1, spec, level1, bank, points1)
        _require_subset(mask0, mask1, "mask0 not within mask1")
        _require_subset(mask1, mask2, "mask1 not within mask2")
        iwt_full(pyr, mask2, bank, check=False)
        state.eyx, state.eyz = pyr.data
        state.mask0, state.mask1, state.mask2 = mask0, mask1, mask2
        state.level0, state.level1 = level0, level1
        return points0, points1

    def _thinned_mask(self, pair: CoeffPyramid, mask) -> np.ndarray:
        """Forward-transform the split pair on mask, in place, and return
        the mask that thresholding their summed coefficients leaves.

        The masks fed to the transforms here and in adapt_step come from
        the closure operations, which guarantee stencil completeness, so
        the per-call validation is skipped.
        """
        fwt_full(pair, mask, self.bank, check=False)
        # Off the mask both transformed splits are +0.0, and so is their
        # sum.
        total = CoeffPyramid(pair.data[0], pair.spec, WAVELET, where=False)
        np.add(*pair.data, out=total.data)
        return threshold_coeffs(total, self.config.zeta, mask=mask)[1]

    def update_step(self, points: tuple[Points, Points] | None = None):
        """Advance H by dt, then Ey by dt, on the grid adapt_step left.

        points are the listed points of the state's mask0 and mask1,
        as adapt_step returns them, in the coordinates of the lattice the
        state's arrays sample (on_finest_lattice gives them as (n, n)
        arrays), on which the update runs; on an adaptive grid they are
        listed here when not given.
        """
        state = self.state
        if points is None and not self.config.full_grid:
            points = masked_points(state.mask0), masked_points(state.mask1)
        at0, at1 = (None, None) if points is None else points
        with np.errstate(over="ignore", invalid="ignore"):
            # Blow-ups surface through the finite check, not as
            # per-operation warnings.
            self._update_fields(points)
            finite = all(np.isfinite(values).all() for values in (
                _at(state.eyx, at0) + _at(state.eyz, at0),
                _at(state.hx, at1), _at(state.hz, at1)))
        state.k += 1
        state.t += self.dt
        if not finite:
            raise InstabilityError(state.k)

    def _update_fields(self, points):
        state, bank, length = self.state, self.bank, self.length_m
        spec = self.spec.lattice(_level(state.eyx))
        n, s = spec.n, self.spec.stride(spec.j_max)
        p0, p1 = (None, None) if points is None else points
        ea_x, eb_x, ea_z, eb_z, hb_x, hb_z = (
            c[::s, ::s] for c in (self.ea_x, self.eb_x, self.ea_z,
                                  self.eb_z, self.hb_x, self.hb_z))

        # H is updated on mask1 and reads the derivatives of Ey there
        # only; their taps reach over mask2, where adapt_step left the
        # splits.
        ey = state.ey
        dz_ey = diff_z(ey, state.mask2, state.level1, spec, bank, length,
                       at=p1)
        dx_ey = diff_x(ey, state.mask2, state.level1, spec, bank, length,
                       at=p1)
        state.hx = _advance(ea_z, state.hx, np.add, hb_z, dz_ey, p1, n)
        state.hz = _advance(ea_x, state.hz, np.subtract, hb_x, dx_ey, p1, n)

        dz_hx = diff_z(state.hx, state.mask1, state.level0, spec, bank,
                       length, at=p0)
        dx_hz = diff_x(state.hz, state.mask1, state.level0, spec, bank,
                       length, at=p0)
        state.eyz = _advance(ea_z, state.eyz, np.add, eb_z, dz_hx, p0, n)
        state.eyx = _advance(ea_x, state.eyx, np.subtract, eb_x, dx_hz, p0, n)
        self.apply_boundary(state)

    def step(self):
        """One full time step: adapt, then update."""
        self.update_step(self.adapt_step())

    def dense_ey(self) -> np.ndarray:
        """Ey over the whole finest lattice.

        Inactive points hold no value of their own; they are filled by
        wavelet interpolation from the active representation, which is
        how the adaptive solution is defined between mask points.
        """
        ey, mask0 = (relattice(a, self.spec.j_max)
                     for a in (self.state.ey, self.state.mask0))
        return interpolate_missing(ey, mask0, self.spec.full_mask(),
                                   self.spec, self.bank, check=False)

    def apply_boundary(self, state: FieldState):
        """Outermost ring acts as a perfect conductor in both modes; the
        absorbing layer itself lives in the update coefficients."""
        for part in (state.eyx, state.eyz):
            part[0, :] = 0.0
            part[-1, :] = 0.0
            part[:, 0] = 0.0
            part[:, -1] = 0.0
        return state

    def run(self, steps=None, on_step=None):
        """Advance the configured number of steps.

        on_step, when given, is called after every step with this
        simulation; the harness uses it for metrics and snapshots.
        """
        count = self.config.steps if steps is None else steps
        for _ in range(count):
            self.step()
            if on_step is not None:
                on_step(self)
        return self.state
