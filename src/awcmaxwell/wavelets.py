"""Lifted interpolating wavelet transforms on masked dyadic grids.

The transform operates in place on a (2^j_max + 1) square array, or on
a stack of such arrays transformed together with the same mask.  After
a forward transform the array is a coefficient pyramid: scaling
coefficients sit on the coarsest lattice and each finer position holds
the detail coefficient born at that position (odd-even detail along x,
even-odd along z, odd-odd mixed).  Coefficients are normalized so that
scaling values equal field point values and detail magnitudes are
comparable across levels, which lets a single threshold act uniformly.

Any stencil tap that falls outside the array or outside the active mask
reads zero.  The background of the array is kept at exactly zero so
gathers never need per-point guards, and the array is stored in the
padded layout of the grid module (grid.store), whose zero margin every
tap past an edge reads (grid.Taps).

Each level is lifted in one-axis passes, the tensor-product form of 1-D
lifting (Sweldens, SIAM J. Math. Anal. 29, 1998): the odd-odd detail
takes its x part from the even-odd details, d3 = (v - Sz v) / 4 -
Sx d2 / 2, and the scaling update is Sx(d1 + Sz d3) + Sz d2, so no
point gathers a two-axis tensor of taps.  This equals the direct 2-D
lifting with zero extension exactly when the mask is closed under the
prediction stencils (grid.reconstruction_check), through two of its
closure families: "d3 rows into d2" keeps the d2 points whose details
Sx d2 reads, and "d3 columns into d1" keeps every d1 point where Sz d3
is nonzero.  On a mask that is not closed a transform gives undefined
results; grid.require_closed checks a mask.

A transform runs on a grid.MaskGrid, and each level gathers its taps at
the points that the grid's plan lists for it only, so its work follows
the active point count rather than the size of the lattice.  fit_mask
finds the thinned mask of a field known only through its samples,
coarse to fine, without transforming the whole lattice.
"""

import numpy as np

from .errors import ConfigError
from .filters import FilterBank
from .grid import GridSpec, MaskGrid, Taps, store, zone_lattice

PHYSICAL = "physical"
WAVELET = "wavelet"
# Points whose tap indices are built at once; bounds a transform's memory.
BLOCK = 2048


def _fields(data):
    """data as (leading shape, float fields); a sequence of 2-D arrays
    gives its fields as they are, without stacking them into a copy."""
    if isinstance(data, (tuple, list)) and all(
            isinstance(field, np.ndarray) and field.ndim == 2
            for field in data):
        return (len(data),), [np.asarray(f, dtype=float) for f in data]
    data = np.asarray(data, dtype=float)
    return data.shape[:-2], data.reshape((-1,) + data.shape[-2:])


class CoeffPyramid:
    """Field samples or transform coefficients in the in-place layout.

    data has shape (n, n), or (k, n, n) for k fields transformed
    together; the constructor also takes a sequence of k (n, n) fields.
    data is a view of ``padded``, the grid module's store, whose zero
    margin holds the taps that fall past an edge.  The constructor copies
    data; where, True, False or an (n, n) mask, selects the entries taken
    from it, as in np.copyto, and the others start at zero.
    """

    def __init__(self, data, spec: GridSpec, state: str = PHYSICAL, *,
                 where=True):
        n = spec.n
        lead, fields = _fields(data)
        for field in fields:
            if field.shape != (n, n):
                raise ValueError(
                    f"data shape {lead + field.shape} does not match grid "
                    f"({n}, {n})"
                )
        if state not in (PHYSICAL, WAVELET):
            raise ValueError(f"unknown pyramid state {state!r}")
        self.padded, self.data = store(spec, spec.transform_width, lead)
        for dst, field in zip(self.data.reshape(-1, n, n), fields):
            np.copyto(dst, field, where=where)
        self.spec = spec
        self.state = state

    @classmethod
    def from_field(cls, field_values, spec: GridSpec, mask=None):
        """Pyramid in physical state; values outside the mask become 0."""
        return cls(field_values, spec, where=True if mask is None else mask)


class _Taps(Taps):
    """Taps of some points of a pyramid, in every stacked field, with one
    level's stencil (_level): the weighted sums of the stored values at
    their taps along x, sx(), and z, sz()."""

    def __init__(self, pyramid: CoeffPyramid, points, x, z, weights):
        super().__init__(pyramid.spec.transform_width, *points,
                         pyramid.data.size // pyramid.spec.n**2)
        self._v = pyramid.padded.reshape(-1)
        self._x, self._z, self._weights = x, z, weights

    def sx(self):
        return self.sum(self._v, self._x, self._weights)

    def sz(self):
        return self.sum(self._v, self._z, self._weights)


def _level(level, grid: MaskGrid, what):
    """The grid's plan of one level and its stencil (x and z flat tap
    offsets, weights); a level without masked details lists no points."""
    spec, bank = grid.spec, grid.bank
    if not spec.j_min <= level <= spec.j_max - 1:
        raise ValueError(
            f"{what} level {level} outside [{spec.j_min}, {spec.j_max - 1}]")
    points = grid.plan[level - spec.j_min]
    # Prediction and update share their taps: (2l - 1) h on the finest
    # lattice for l in predict_offsets, weighted by predict_weights,
    # clipped to +-n when they can pass it (see GridSpec).
    h = spec.stride(level + 1)
    offsets = (2 * bank.predict_offsets - 1) * h
    if (2 * bank.order - 1) * h > spec.n:
        offsets = np.clip(offsets, -spec.n, spec.n)
    return points, (offsets * spec.transform_width, offsets,
                    bank.predict_weights)


def _blocks(pyramid, points, stencil):
    """_Taps of the points, BLOCK points at a time, so that the tap index
    arrays stay small even on a full lattice."""
    rows, cols = points
    for i in range(0, rows.size, BLOCK):
        yield _Taps(pyramid, (rows[i:i + BLOCK], cols[i:i + BLOCK]), *stencil)


def _pass(pyramid, points, stencil, values):
    """Write values(taps, stored values) at the points, a block at a time.
    A block is written before the next is read, so values may read no
    point of the kind being written but its own."""
    v = pyramid.padded.reshape(-1)
    for t in _blocks(pyramid, points, stencil):
        v[t.at] = values(t, v[t.at])


def _update(pyramid, points, stencil, lift):
    """Set the lifted even-even values s to lift(s, Sx(d1 + Sz d3) +
    Sz d2).  d1 + Sz d3 is staged at the d1 points, which hold every
    nonzero Sz d3, and their d1 values are put back bit for bit."""
    d1, _, _, even = points
    v = pyramid.padded.reshape(-1)
    kept = []
    for t in _blocks(pyramid, d1, stencil):
        kept.append((t.at, v[t.at]))
        v[t.at] = kept[-1][1] + t.sz()
    _pass(pyramid, even, stencil, lambda t, s: lift(s, t.sx() + t.sz()))
    for at, values in kept:
        v[at] = values


def fwt_step(pyramid: CoeffPyramid, level: int, grid: MaskGrid):
    """One forward level: split level-(level+1) values into details and
    level-(level) scaling coefficients, in place.

    With Sx, Sz the weighted tap sums along x and z, the level writes
    d2 = (v - Sz v) / 2, then d3 = (v - Sz v) / 4 - Sx d2 / 2 (its z
    taps read the untouched d1 positions, its x taps the d2 details just
    written), then d1 = (v - Sx v) / 2, and last adds Sx(d1 + Sz d3) +
    Sz d2 to the lifted even-even values.  Only the points that the
    grid's plan lists are computed, and entries off its mask must hold
    zero; a level without masked details lists none, so it passes over
    no point and is the identity.
    """
    points, stencil = _level(level, grid, "fwt")
    d1, d2, d3, _ = points
    _pass(pyramid, d2, stencil, lambda t, v: 0.5 * (v - t.sz()))
    _pass(pyramid, d3, stencil,
          lambda t, v: 0.25 * (v - t.sz()) - 0.5 * t.sx())
    _pass(pyramid, d1, stencil, lambda t, v: 0.5 * (v - t.sx()))
    _update(pyramid, points, stencil, np.add)
    return pyramid


def iwt_step(pyramid: CoeffPyramid, level: int, grid: MaskGrid):
    """One inverse level: fwt_step's passes undone in reverse order.

    The scaling update comes off first, then d1 is rebuilt, d3 from the
    rebuilt d1 values and the stored d2 details, and d2 last.
    """
    points, stencil = _level(level, grid, "iwt")
    d1, d2, d3, _ = points
    _update(pyramid, points, stencil, np.subtract)
    _pass(pyramid, d1, stencil, lambda t, d: 2.0 * d + t.sx())
    _pass(pyramid, d3, stencil,
          lambda t, d: 4.0 * d + t.sz() + 2.0 * t.sx())
    _pass(pyramid, d2, stencil, lambda t, d: 2.0 * d + t.sz())
    return pyramid


def _full(pyramid, grid: MaskGrid, what, start, steps):
    """Run steps(pyramid, level, grid) over the levels, on a pyramid in
    the start state."""
    if pyramid.state != start:
        raise ValueError(f"{what} requires {start} state, got {pyramid.state}")
    levels = range(grid.spec.j_min, grid.spec.j_max)
    for level in reversed(levels) if start == PHYSICAL else levels:
        steps(pyramid, level, grid)
    pyramid.state = WAVELET if start == PHYSICAL else PHYSICAL
    return pyramid


def fwt_full(pyramid: CoeffPyramid, grid: MaskGrid):
    """Forward transform on the grid down to the coarsest level, physical
    -> wavelet.  Entries off the grid's mask must hold zero, as in a
    pyramid built with where=mask."""
    return _full(pyramid, grid, "fwt_full", PHYSICAL, fwt_step)


def iwt_full(pyramid: CoeffPyramid, grid: MaskGrid):
    """Inverse transform on the grid up to the finest level, wavelet ->
    physical.  Coefficients off the grid's mask are dropped first: a
    regrid inverts on a mask that lacks points they were found on."""
    if pyramid.state == WAVELET:
        np.copyto(pyramid.data, 0.0, where=~grid.mask)
    return _full(pyramid, grid, "iwt_full", WAVELET, iwt_step)


def threshold_coeffs(pyramid: CoeffPyramid, zeta: float, mask=None):
    """Zero details with |d| < zeta; return (pyramid, thinned mask).

    The thinned mask keeps the whole coarsest lattice plus the positions
    of surviving details.  Scaling coefficients are never dropped, and
    zeta = 0 drops nothing.
    """
    if zeta < 0:
        raise ConfigError(f"threshold must be nonnegative, got {zeta}")
    if pyramid.state != WAVELET:
        raise ValueError(
            f"threshold_coeffs requires wavelet state, got {pyramid.state}"
        )
    spec = pyramid.spec
    base = spec.detail if mask is None else (mask & spec.detail)
    dropped = base & (np.abs(pyramid.data) < zeta)
    pyramid.data[dropped] = 0.0
    return pyramid, spec.coarse_mask() | (base & ~dropped)


def _predicted(values, bank: FilterBank):
    """The prediction sum_l w_l v[2(m + l)] of every odd row 2m + 1 of
    values from its even rows, taps past either end reading zero."""
    n, odd = bank.order, values.shape[0] // 2
    even = np.zeros((odd + 2 * n,) + values.shape[1:])
    even[n - 1:n + (values.shape[0] - 1) // 2] = values[::2]
    # Each odd row's 2n taps as a strided view, without a copy.
    window = np.ndarray((odd,) + values.shape[1:] + (2 * n,), buffer=even,
                        strides=even.strides + even.strides[:1])
    return window @ bank.predict_weights


def fit_mask(sample, spec: GridSpec, bank: FilterBank, zeta: float,
             whole: int = 0):
    """The thinned mask of a field known through sample, fitted coarse to
    fine, and the grid of the lattice it lies on.

    sample(rows, cols) gives the field at finest-lattice indices, broadcast
    together.  A level's details are those of the field's values on that
    level's lattice alone, as a one-level fwt_step of them would write
    them: d2 = (v - Sz v) / 2, d3 = (v - Sz v) / 4 - Sx d2 / 2 and
    d1 = (v - Sx v) / 2.  The levels up to whole, and j_min + 1, sample
    their whole lattice.  A finer level samples the box of its lattice
    that holds the adjacent zone of the coarser level's details of
    magnitude zeta or more, widened by the prediction reach so that every
    detail in the zone's box reads its own taps, and keeps the details in
    the zone's box; the fit stops at the first such level that keeps none
    (the initial grid of Vasilyev & Bowman, J. Comput. Phys. 165, 2000).
    So no whole-lattice array is formed unless the field needs it, and a
    detail at or above zeta finer than whole that no coarser one leads to
    is missed: whole is the level whose lattice resolves the field.

    The mask holds the coarse lattice and the kept details, as
    threshold_coeffs' thinned mask does.  It lies on the lattice that
    holds it and its adjacent zone (grid.zone_lattice).
    """
    reach = 2 * bank.order - 1
    kept = []
    for level in range(spec.j_min + 1, spec.j_max + 1):
        top = 1 << level
        if level <= max(whole, spec.j_min + 1):
            zone = (0, top), (0, top)
        box = [(max(lo - reach, 0) & ~1, min(hi + reach, top))
               for lo, hi in zone]
        (r0, r1), (c0, c1) = box
        h = spec.stride(level)
        v = sample(np.arange(r0 * h, r1 * h + 1, h)[:, None],
                   np.arange(c0 * h, c1 * h + 1, h))
        # 2 d2 at the even rows, and (v - Sz v) at the odd ones.
        d2 = v[:, 1::2] - _predicted(v.T, bank).T
        # 2 d1 and 4 d3, from one x prediction.
        odd = np.concatenate((v[:, ::2], d2), axis=1)
        odd = odd[1::2] - _predicted(odd, bank)
        evens = v.shape[1] - d2.shape[1]
        np.abs(odd, out=odd)
        np.abs(d2, out=d2)
        found = np.zeros(v.shape, dtype=bool)
        np.greater_equal(odd[:, :evens], 2 * zeta, out=found[1::2, ::2])
        np.greater_equal(d2[::2], 2 * zeta, out=found[::2, 1::2])
        np.greater_equal(odd[:, evens:], 4 * zeta, out=found[1::2, 1::2])
        (z0, z1), (y0, y1) = zone
        found = found[z0 - r0:z1 - r0 + 1, y0 - c0:y1 - c0 + 1]
        rows = np.flatnonzero(found.any(axis=1))
        if not rows.size:
            if level < whole:
                continue
            break
        cols = np.flatnonzero(found.any(axis=0))
        kept.append((level, z0, y0, found))
        zone = [(max(2 * (lo + first) - 1, 0), min(2 * (lo + last) + 1,
                                                   2 * top))
                for lo, first, last in ((z0, rows[0], rows[-1]),
                                        (y0, cols[0], cols[-1]))]
    lattice = zone_lattice(kept[-1][0] if kept else spec.j_min, spec)
    mask = np.zeros((lattice.n, lattice.n), dtype=bool)
    s = lattice.stride(spec.j_min)
    mask[::s, ::s] = True
    for level, row, col, found in kept:
        s = lattice.stride(level)
        mask[row * s:(row + found.shape[0]) * s:s,
             col * s:(col + found.shape[1]) * s:s] |= found
    return mask, lattice


def interpolate_missing(field_values, old: MaskGrid, new: MaskGrid):
    """Field on the new grid's mask: old values kept bitwise, new points
    interpolated.

    Transforms the field on the old grid, drops coefficients outside the
    new mask, reconstructs on the new grid, then copies the original
    values back onto the overlap so points present in both masks are
    untouched.  field_values may also be a stack or a sequence of
    fields, shape (k, n, n), which share the two transforms.
    """
    spec = old.spec
    pyramid = CoeffPyramid.from_field(field_values, spec, mask=old.mask)
    fwt_full(pyramid, old)
    iwt_full(pyramid, new)
    # iwt_full left every entry off the new mask at zero.
    _, fields = _fields(field_values)
    kept = old.mask & new.mask
    for out, field in zip(pyramid.data.reshape(-1, spec.n, spec.n), fields):
        np.copyto(out, field, where=kept)
    return pyramid.data
