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

On an adaptive grid a step makes the grid (grid.MaskGrid) of every mask
it reads or makes, once, and hands it to every consumer: the transforms
read its plan, the derivative closure and the derivatives its stencil,
the field update and the finite check its points, so each costs in
proportion to the active points; the update coefficients are laid out
like the fields, so one gather reads either (_at).  The state keeps the
fields and the masks only; a mask's points and levels live in its grid,
which adapt_step returns and update_step takes.  Every entry off the
masks is 0.0 by construction, so only the listed entries are computed.
In full-grid mode every point is active, no grid is made, and the same
arithmetic runs on the whole arrays, in place, the derivatives by the
uniform stencil.

An adaptive start of the configured field is fitted to it coarse to fine
(wavelets.fit_mask), one of a user's initial_ey is thresholded on the
whole mesh, and either is closed by adapt_step's closure
(Simulation._closed_grid); the field is sampled at the start's points
only, so for the configured field neither the start nor step 1 makes the
grid of the whole lattice unless the field needs it.  The full-grid
start and every full-grid step run on the whole (2^j_max + 1)^2 mesh, so
they hold as few mesh-sized arrays as they can: the start's three masks
are one read-only full mask, which a full-grid run keeps throughout; the
start's Euler half-step scales two whole uniform-stencil derivatives in
place; a step forms Ey once and advances each field in its own array, a
cache-sized band of rows at a time as the derivative's bands come
(derivatives.uniform_bands), with the operands and order of the adaptive
update, so it makes no other mesh-sized array; and the finite check
forms and tests Ey, and tests H, a band at a time (_finite).

An adaptive state is stored on the level-J lattice of the finest point
of the masks its last step read and made, J = finest_level(previous
mask1 | mask2), at least j_min + 1 (the start's, of its one mask): its
arrays are (2^J + 1)-square, J is read from their shape, and the grids
adapt_step returns and update_step takes are on that lattice.
adapt_step narrows the state to the finest level of the mask1 it finds,
which holds every field, thresholds there, and moves to the lattice that
holds the thinned mask and its adjacent zone (grid.zone_lattice, as the
start's lies on) when that is finer; update_step runs where adapt_step
leaves the state.  Every point reads the same taps with the same weights
in the same order as on the whole mesh (see the grid module), so the
results are bit for bit the whole mesh's.  relattice spreads one array
over the (2^j_max + 1)^2 mesh and on_finest_lattice the whole state;
full-grid mode stays there.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import SimulationConfig
from .derivatives import BAND_BYTES, diff_x, diff_z, uniform_bands
from .errors import ConfigError, InstabilityError
from .filters import FilterBank, build_filter_bank
from .grid import (  # noqa: F401 (compute_levels: traced where bound)
    GridSpec,
    MaskGrid,
    add_adjacent_zone,
    compute_levels,
    extend_for_derivatives,
    finest_level,
    grid_of,
    lattice_level,
    reconstruction_check,
    zone_lattice,
)
from .wavelets import (
    WAVELET,
    CoeffPyramid,
    fwt_full,
    fit_mask,
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
    """The fields and the masks they live on.

    The splits eyx/eyz are sampled at t = k dt, the magnetic fields at
    t = (k - 1/2) dt.  Between steps the splits hold their values on
    mask0 and H on mask1, so these are the supports a step regrids from;
    adapt_step replaces the masks and regrids the splits onto mask2 and
    H onto the new mask1, and update_step advances the fields on them.
    ey is derived, never stored, and so is all a mask's grid holds
    (grid.MaskGrid): its points and density levels.

    The arrays sample one lattice (see the module docstring); fields are
    0.0 off their masks.  on_finest_lattice gives them (n, n).  A
    full-grid step advances the fields in their own arrays, in place: to
    keep a state, copy it (copy.deepcopy).
    """

    eyx: np.ndarray
    eyz: np.ndarray
    hx: np.ndarray
    hz: np.ndarray
    mask0: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    k: int = 0
    t: float = 0.0

    @property
    def ey(self) -> np.ndarray:
        """Ey = eyx + eyz, a new array on the state's lattice."""
        return self.eyx + self.eyz


def _at(array, grid: MaskGrid | None):
    """A lattice array, a field or a coefficient, at the grid's points;
    the whole array when grid is None."""
    if grid is None:
        return array
    rows, cols, _ = grid.points
    return array[rows, cols]


def _lattice(values, grid: MaskGrid | None):
    """Values at the grid's points on its otherwise zero lattice, of the
    values' type; values itself when grid is None."""
    if grid is None:
        return values
    n = grid.spec.n
    out = np.zeros(n * n, dtype=np.result_type(values))
    out[grid.points.flat] = values
    return out.reshape(n, n)


def _advance(a, field, combine, b, derivative, grid: MaskGrid):
    """combine(a * field, b * derivative) at the grid's points, on the
    lattice.  The derivative, a fresh array, is scaled in place; the
    products and the sum round as written."""
    derivative *= _at(b, grid)
    out = _at(a, grid) * _at(field, grid)
    return _lattice(combine(out, derivative, out=out), grid)


def _finite(*sums) -> bool:
    """Whether each sum of arrays of one shape, a tuple of them (of one:
    the array), is finite at every entry, formed and checked BAND_BYTES
    of float64 values at a time, so no temporary is larger."""
    chunk = BAND_BYTES // 8
    for terms in sums:
        for start in range(0, terms[0].size, chunk):
            part = terms[0].reshape(-1)[start:start + chunk]
            for term in terms[1:]:
                part = part + term.reshape(-1)[start:start + chunk]
            if not np.isfinite(part).all():
                return False
    return True


def relattice(array, level: int):
    """The array on the level-`level` lattice: a finer one's entries at
    its points, or a coarser one's spread out with 0 (False) between
    them; the array itself when it samples that lattice."""
    up = level - lattice_level(array.shape[-1])
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
    the explicit Euler half-step from the t=0 electric field.  Both are
    (n, n) arrays; an adaptive start keeps their values at its mask's
    points only, and holds 0.0 elsewhere, like every later state.  An
    adaptive start has no derivative ring yet, and an adaptive update
    takes the grids adapt_step returns, so an adaptive run advances
    through step (or adapt_step, then update_step).
    """

    def __init__(self, config: SimulationConfig, initial_ey=None,
                 initial_h=None):
        config.validate()
        self.config = config
        self.spec = grid_of(config.jmin, config.jmax)
        self.bank = build_filter_bank(config.order)
        self.length_m = config.domain_length_um * 1e-6
        self.delta_m = self.length_m / 2**config.jmax

        factor = config.dt_factor
        if factor is None:
            factor = default_dt_factor(self.bank)
        self.dt = factor * cfl_max_dt(self.delta_m, self.bank)

        self._build_update_coefficients()
        self.state = self._initialize(initial_ey, initial_h)

    # ------------------------------------------------------------ setup

    def _sigma_profile(self) -> np.ndarray:
        """Conductivity along either axis: cubic-graded inside the layer,
        zero elsewhere (and everywhere for the reflecting boundary)."""
        n = self.spec.n
        if self.config.boundary != "PML":
            return np.zeros(n)
        depth_m = self.config.pml_width_frac * self.length_m
        reflection = 1e-6
        grade = 3
        sigma_max = -(grade + 1) * EPS0 * C0 * math.log(reflection) / (2 * depth_m)
        x = np.arange(n) * self.delta_m
        left = np.clip((depth_m - x) / depth_m, 0.0, 1.0)
        right = np.clip((x - (self.length_m - depth_m)) / depth_m, 0.0, 1.0)
        return sigma_max * (left**grade + right**grade)

    def _build_update_coefficients(self):
        """The update coefficients as read-only (n, n) views of their
        profile along x, or z: the layer is the same along both axes."""
        n = self.spec.n
        q = self._sigma_profile() * self.dt / (2.0 * EPS0)
        ea = (1.0 - q) / (1.0 + q)
        eb = (self.dt / EPS0) / (1.0 + q)
        # Matched-impedance magnetic losses share the dimensionless ramp
        # ea.
        hb = (self.dt / MU0) / (1.0 + q)
        self.ea_x, self.eb_x, self.hb_x = (np.broadcast_to(c[:, None], (n, n))
                                           for c in (ea, eb, hb))
        self.ea_z, self.eb_z, self.hb_z = (np.broadcast_to(c, (n, n))
                                           for c in (ea, eb, hb))

    def _initial_field(self, initial_ey):
        """Ey(t=0) as two functions of finest-lattice indices: at(rows,
        cols), its values at indices broadcast together, and slopes(rows,
        cols), dEy/dz and dEy/dx at listed points by the uniform stencil
        at the finest spacing, the one a full-grid derivative applies.

        Indices up to the stencil's half-width past either edge read 0.0,
        as the stencil's zero padding does: the tables end in that many
        zeros, which a negative index reaches from the start.  The
        Gaussian is exp(-r2 / (2 sigma^2)) with r2 the sum of two per-axis
        tables of -(coordinate - centre)^2, which is -r2 bit for bit, so
        every point gets the whole mesh's value whatever else is sampled
        with it.  Its slopes are those of its separable form, the product
        of two 1-D Gaussians, whose per-axis slopes are formed once.  The
        slopes sum their taps in another order than a full-grid
        derivative, so they agree with it to rounding.
        """
        n, width = self.spec.n, self.bank.deriv_halfwidth
        taps = np.arange(-width, width + 1)[:, None]
        stencil = np.concatenate((-self.bank.deriv_filter[::-1], [0.0],
                                  self.bank.deriv_filter))
        stencil *= 2.0**self.spec.j_max / self.length_m
        if initial_ey is None and self.config.ic == "gaussian":
            length = self.config.domain_length_um
            tables = np.full((2, n + width), -np.inf)
            near = tables[:, :n]
            np.subtract(np.linspace(0.0, length, n),
                        np.multiply(self.config.center_frac, length)[:, None],
                        out=near)
            near *= near
            np.negative(near, out=near)
            ax, az = tables
            spread = 2.0 * self.config.sigma_um**2

            def at(rows, cols):
                r2 = ax[rows] + az[cols]
                r2 /= spread
                return np.exp(r2, out=r2)

            # Per-axis slopes: the one-stencil form stencil @ at(rows, cols
            # + taps) made Simulation() 1.4x slower (2-core host).
            gx, gz = gauss = np.exp(tables / spread)
            sx, sz = stencil @ gauss[:, np.arange(n) + taps]
            return at, lambda rows, cols: (gx[rows] * sz[cols],
                                           sx[rows] * gz[cols])
        if initial_ey is None:
            field = np.zeros((n + width, n + width))
        else:
            field = np.asarray(initial_ey, dtype=float)
            if field.shape != (n, n):
                raise ConfigError(
                    f"initial field shape {field.shape} does not match ({n}, {n})"
                )
            field = np.pad(field, (0, width))
        return (lambda rows, cols: field[rows, cols],
                lambda rows, cols: (stencil @ field[rows, cols + taps],
                                    stencil @ field[rows + taps, cols]))

    def _resolving_level(self) -> int:
        """The coarsest level whose spacing is at most twice the
        configured pulse's sigma, up to which the start's fit samples
        whole lattices (wavelets.fit_mask): wherever the pulse is centred,
        one of that lattice's points lies within sqrt(2) sigma of it and
        reads at least 1/e of its peak.  0, none, for the zero field."""
        if self.config.ic != "gaussian":
            return 0
        return math.ceil(math.log2(self.config.domain_length_um
                                   / (2.0 * self.config.sigma_um)))

    def _thinned_start(self, at, initial_ey):
        """The thinned mask of Ey(t=0) and the grid of the lattice that
        holds it and its adjacent zone (grid.zone_lattice).  The
        configured field is fitted coarse to fine (wavelets.fit_mask); a
        user field, which carries no scale to fit to, is transformed and
        thresholded on the whole mesh, as adapt_step thresholds a state
        that holds every point."""
        spec = self.spec
        if initial_ey is None:
            return fit_mask(at, spec, self.bank, self.config.zeta,
                            self._resolving_level())
        index = np.arange(spec.n)
        pyr = CoeffPyramid.from_field(at(index[:, None], index), spec)
        fwt_full(pyr, MaskGrid(spec.full_mask(), spec, self.bank))
        thinned = threshold_coeffs(pyr, self.config.zeta)[1]
        lattice = zone_lattice(finest_level(thinned, spec), spec)
        return relattice(thinned, lattice.j_max), lattice

    def _initialize(self, initial_ey, initial_h) -> FieldState:
        """The k=0 state: the splits, each half of Ey(t=0), and H at
        t = -dt/2 on one mask, which the state holds as mask0, mask1 and
        mask2.

        The full-grid start holds every point of the whole mesh, at level
        j_max, and a full-grid run keeps that grid.  An adaptive start
        thins its mask (_thinned_start: the configured field fitted coarse
        to fine, a user field thresholded whole) on its zone lattice and
        closes it with adapt_step's closure (_closed_grid); it samples
        Ey(t=0) and initial_h at the mask's points only, and the state
        lies on the lattice of the mask's finest point.  So the configured
        start and step 1 list, transform and plan no whole lattice unless
        the field needs it, and step 1 is an ordinary adaptive step: it
        closes the grid anew, and its H regrid fills the derivative ring
        around the start's mask.

        Without initial_h, H is the explicit Euler half-step from Ey(t=0)
        with the uniform stencil at the finest spacing, the full-grid
        derivative's, so the first leapfrog advance lands on
        +-(dt/2)/mu0 d(Ey) (at an adaptive start's points, to rounding:
        see _initial_field).  The mask is one read-only array, since a
        step replaces a state's masks and never writes into them.
        """
        at, slopes = self._initial_field(initial_ey)
        if self.config.full_grid:
            spec, grid = self.spec, None
            mask = spec.full_mask()
            index = np.arange(spec.n)
            ey = at(index[:, None], index[None, :])
        else:
            grid = self._closed_grid(*self._thinned_start(at, initial_ey))
            spec, mask = grid.spec, grid.mask
            stride = self.spec.stride(spec.j_max)
            rows, cols = grid.points.rows * stride, grid.points.cols * stride
            ey = at(rows, cols)
        if initial_h is None:
            # Synthetic t = -dt/2 fields: the first leapfrog advance then
            # lands exactly on the Euler half-step values +-(dt/2)/mu0 d(Ey).
            if grid is None:
                hx, hz = (derivative(ey, mask, None, spec, self.bank,
                                     self.length_m)
                          for derivative in (diff_z, diff_x))
            else:
                hx, hz = slopes(rows, cols)
            half = 0.5 * self.dt / MU0
            hx *= -half
            hz *= half
        else:
            hx, hz = (np.asarray(h, dtype=float) for h in initial_h)
            if hx.shape != (self.spec.n,) * 2 or hz.shape != hx.shape:
                raise ConfigError("initial_h arrays must match the grid shape")
            hx, hz = (h.copy() if grid is None else h[rows, cols]
                      for h in (hx, hz))
        eyx = 0.5 * ey
        ey *= 0.5
        mask.flags.writeable = False
        eyx, ey, hx, hz = (_lattice(values, grid)
                           for values in (eyx, ey, hx, hz))
        state = FieldState(eyx=eyx, eyz=ey, hx=hx, hz=hz, mask0=mask,
                           mask1=mask, mask2=mask)
        return self.apply_boundary(state)

    # ------------------------------------------------------------ stepping

    def adapt_step(self) -> tuple[MaskGrid, MaskGrid] | None:
        """Re-fit the grid to the current Ey and regrid every field onto
        it (no-op in full-grid mode).

        The state's masks on entry are the previous step's: the splits
        hold their values on mask0 and H on mask1; the step moves the
        state between lattices as the module docstring says and closes the
        thinned mask as the start does.  The transform of the summed field
        decides only grid membership: detail positions below the threshold
        leave the mask (unless the safety zone or a stencil closure keeps
        them).  The electric splits are carried through their own
        transforms and come back on the new mask2 with their coefficients
        intact; only positions dropped from the grid lose their content.
        Zeroing retained sub-threshold coefficients instead deletes
        just-below-threshold field content every step and the deviation
        from the full-grid reference then grows far past the threshold
        scale.  H is interpolated onto the new mask1 when that leaves the
        previous one.

        Returns the grids of the new mask0 and mask1 for update_step, on
        the lattice the state leaves on, or None in full-grid mode;
        on_finest_lattice gives the state as (n, n) arrays.
        """
        state, bank = self.state, self.bank
        if self.config.full_grid:
            return None
        # Every field lives on mask1, which holds mask0.
        found = self.spec.lattice(lattice_level(state.eyx.shape[-1]))
        spec = self.spec.lattice(max(finest_level(state.mask1, found),
                                     self.spec.j_min + 1))
        _to_level(state, spec.j_max)
        # Both splits go through one stacked transform per mask.
        pyr = CoeffPyramid.from_field((state.eyx, state.eyz), spec,
                                      mask=state.mask0)
        mask0 = self._thinned_mask(pyr, MaskGrid(state.mask0, spec, bank))
        zone = zone_lattice(finest_level(mask0, spec), self.spec)
        if zone.j_max > spec.j_max:
            spec = zone
            _to_level(state, spec.j_max)
            pyr = CoeffPyramid(relattice(pyr.data, spec.j_max), spec, WAVELET)
            mask0 = relattice(mask0, spec.j_max)
        grid0 = self._closed_grid(mask0, spec)
        grid1 = MaskGrid(extend_for_derivatives(grid0), spec, bank)
        # H carries genuine values on the whole previous mask1 (update ring
        # included); interpolating from there instead of from the previous
        # mask0 keeps them, and the error against the full-grid reference
        # stays at the threshold scale instead of accumulating
        # ring-prediction glitches every step.  Both fields share one
        # stacked regrid.  The update reads H at mask1's points only, so
        # when mask1 lies inside the previous one the values there are H's
        # own and no regrid runs.
        if not state.mask1.reshape(-1)[grid1.points.flat].all():
            state.hx, state.hz = interpolate_missing(
                (state.hx, state.hz), MaskGrid(state.mask1, spec, bank),
                grid1)
        grid2 = MaskGrid(extend_for_derivatives(grid1), spec, bank)
        _require_subset(grid0.mask, grid1.mask, "mask0 not within mask1")
        _require_subset(grid1.mask, grid2.mask, "mask1 not within mask2")
        iwt_full(pyr, grid2)
        state.eyx, state.eyz = pyr.data
        state.mask0, state.mask1, state.mask2 = (
            grid.mask for grid in (grid0, grid1, grid2))
        return grid0, grid1

    def _closed_grid(self, thinned, spec: GridSpec) -> MaskGrid:
        """The grid of the thinned mask grown by its adjacent zone and
        closed, on a lattice that holds the zone."""
        mask = reconstruction_check(add_adjacent_zone(thinned, spec), spec,
                                    self.bank)
        return MaskGrid(mask, spec, self.bank)

    def _thinned_mask(self, pair: CoeffPyramid, grid: MaskGrid):
        """Forward-transform the split pair on the grid, in place, and
        return the mask that thresholding their summed coefficients
        leaves.  The grids here and in adapt_step hold masks straight out
        of the closure operations, which are stencil-closed."""
        fwt_full(pair, grid)
        # Off the mask both transformed splits are +0.0, and so is their
        # sum.
        total = CoeffPyramid(pair.data[0], pair.spec, WAVELET, where=False)
        np.add(*pair.data, out=total.data)
        return threshold_coeffs(total, self.config.zeta, mask=grid.mask)[1]

    def update_step(self, grids: tuple[MaskGrid, MaskGrid] | None = None):
        """Advance H by dt, then Ey by dt, on the grid adapt_step left.

        grids are the grids of the state's mask0 and mask1, as adapt_step
        returns them, on the lattice the state's arrays sample
        (on_finest_lattice gives them as (n, n) arrays), on which the
        update runs; None in full-grid mode, whose update writes into the
        state's own arrays.  An adaptive update without them is refused.
        """
        state = self.state
        if grids is None and not self.config.full_grid:
            raise RuntimeError("an adaptive update_step takes the grids "
                               "adapt_step returns")
        at0, at1 = (None, None) if grids is None else grids
        with np.errstate(over="ignore", invalid="ignore"):
            # Blow-ups surface through the finite check, not as
            # per-operation warnings.
            self._update_fields(grids)
            finite = _finite((_at(state.eyx, at0), _at(state.eyz, at0)),
                             (_at(state.hx, at1),), (_at(state.hz, at1),))
        state.k += 1
        state.t += self.dt
        if not finite:
            raise InstabilityError(state.k)

    def _update_fields(self, grids):
        """Advance H, then the splits, at the points of the grids of mask0
        and mask1, or on the full grid (grids None) in place."""
        state, bank, length = self.state, self.bank, self.length_m
        spec = self.spec.lattice(lattice_level(state.eyx.shape[-1]))
        s = self.spec.stride(spec.j_max)
        ea_x, eb_x, ea_z, eb_z, hb_x, hb_z = (
            c[::s, ::s] for c in (self.ea_x, self.eb_x, self.ea_z,
                                  self.eb_z, self.hb_x, self.hb_z))
        if grids is None:
            # Each field is advanced a band of rows at a time, as the
            # derivative's bands come: combine(a * field, b * derivative)
            # with the adaptive update's operands in its order, into the
            # field's own rows.  The splits read H's derivatives only
            # once H is whole.
            ey = state.ey
            for field, a, combine, b, source, axis in (
                    (state.hx, ea_z, np.add, hb_z, ey, 1),
                    (state.hz, ea_x, np.subtract, hb_x, ey, 0),
                    (state.eyz, ea_z, np.add, eb_z, state.hx, 1),
                    (state.eyx, ea_x, np.subtract, eb_x, state.hz, 0)):
                for rows, derivative in uniform_bands(source, spec, bank,
                                                      length, axis):
                    np.multiply(derivative, b[rows], out=derivative)
                    part = field[rows]
                    np.multiply(a[rows], part, out=part)
                    combine(part, derivative, out=part)
            self.apply_boundary(state)
            return

        # H is updated on mask1 and reads the derivatives of Ey there
        # only; their taps reach over mask2, where adapt_step left the
        # splits.
        g0, g1 = grids
        ey = state.ey
        dz_ey = diff_z(ey, state.mask2, g1, spec, bank, length)
        dx_ey = diff_x(ey, state.mask2, g1, spec, bank, length)
        state.hx = _advance(ea_z, state.hx, np.add, hb_z, dz_ey, g1)
        state.hz = _advance(ea_x, state.hz, np.subtract, hb_x, dx_ey, g1)

        dz_hx = diff_z(state.hx, state.mask1, g0, spec, bank, length)
        dx_hz = diff_x(state.hz, state.mask1, g0, spec, bank, length)
        state.eyz = _advance(ea_z, state.eyz, np.add, eb_z, dz_hx, g0)
        state.eyx = _advance(ea_x, state.eyx, np.subtract, eb_x, dx_hz, g0)
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
        spec, bank = self.spec, self.bank
        ey, mask0 = (relattice(a, spec.j_max)
                     for a in (self.state.ey, self.state.mask0))
        return interpolate_missing(ey, MaskGrid(mask0, spec, bank),
                                   MaskGrid(spec.full_mask(), spec, bank))

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
