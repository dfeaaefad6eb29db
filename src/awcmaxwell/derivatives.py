"""Spatial derivatives on adaptive grids.

Each point of a grid (grid.MaskGrid) is differentiated with the
antisymmetric filter of its filter bank, applied at the tap spacing
selected by the point's density level, and scaled by the physical grid
step at that level.  Taps outside the array or outside the support mask
read zero; the grid closure activates every tap that matters beforehand,
so zero reads only occur deep in the far field where the field itself is
negligible.  Full-grid mode passes no grid, and only it takes the
uniform stencil over the whole mesh, which uniform_bands forms a band of
rows at a time: a full-grid step uses each band as it comes.
"""

import numpy as np

from .filters import FilterBank
from .grid import GridSpec, MaskGrid, store


# Bytes of float64 rows that the uniform branch works on at a time, so
# that its accumulator, tap term and band buffer stay in cache, which a
# whole 513^2 mesh (2 MiB) does not: 63 rows of it.  A mesh of up to
# 129^2 is one band.
BAND_BYTES = 1 << 18


def uniform_bands(field, spec: GridSpec, bank: FilterBank,
                  domain_length: float, axis: int, out=None):
    """The full-grid derivative along axis of the square field on spec's
    whole mesh, one band of rows at a time: yields (rows, values), a
    slice of the field's rows and their derivative, in order from the
    top.  The values are a reused buffer, which the next band overwrites,
    or with out, an (n, n) array, its rows.

    Each entry gets the products and sums of acc += c (v[+i] - v[-i]),
    c the bank's antisymmetric filter and taps past an edge reading
    zero, from acc = +0.0 in tap order, then acc *= 2^j_max /
    domain_length, bit for bit (but for the sign of a NaN, which numpy's
    loops take from either NaN operand by where the entry falls in them),
    formed as many rows at a time as BAND_BYTES holds through one reused
    term buffer, so a pass holds a few bands.  Along x an interior band
    reads its taps from the field's own rows; a band within the
    stencil's reach of the top or bottom edge, and along z every band,
    is first copied into one reused band buffer with zero rows or
    columns around it.
    """
    coeffs, scale = bank.deriv_filter, 2.0**spec.j_max / domain_length
    n, pad = field.shape[0], len(coeffs)
    rows = min(max(BAND_BYTES // (8 * n), 1), n)
    acc = np.empty((rows, n)) if out is None else None
    term = np.empty((rows, n))
    if axis == 0:
        band = np.empty((rows + 2 * pad, n))
    else:
        band = np.zeros((rows, n + 2 * pad))
    for top in range(0, n, rows):
        m = min(rows, n - top)
        values = acc[:m] if out is None else out[top:top + m]
        values.fill(0.0)
        if axis == 1:
            band[:m, pad:pad + n] = field[top:top + m]
            source, at, span = band[:m], pad, n
        elif pad <= top and top + m + pad <= n:
            source, at, span = field, top, m
        else:
            # Band row k holds field row top - pad + k, zero off the field.
            source, at, span = band[:m + 2 * pad], pad, m
            lo, hi = max(pad - top, 0), min(n + pad - top, m + 2 * pad)
            source[:lo] = source[hi:] = 0.0
            source[lo:hi] = field[top - pad + lo:top - pad + hi]

        def tap(shift):
            window = slice(at + shift, at + shift + span)
            return source[window] if axis == 0 else source[:, window]

        t = term[:m]
        for i, c in enumerate(coeffs, start=1):
            np.subtract(tap(i), tap(-i), out=t)
            t *= c
            values += t
        values *= scale
        yield slice(top, top + m), values


def _uniform(field, spec: GridSpec, bank: FilterBank, domain_length: float,
             axis: int) -> np.ndarray:
    """The full-grid derivative along axis as a new (n, n) array, its
    bands (uniform_bands) formed in place."""
    out = np.empty(field.shape)
    for _ in uniform_bands(field, spec, bank, domain_length, axis, out):
        pass
    return out


def _diff(field, mask, grid: MaskGrid | None, spec: GridSpec,
          bank: FilterBank, domain_length: float, axis: int) -> np.ndarray:
    """Derivative along axis of the field's values on the support mask.

    With a grid, built on spec with bank, the result holds the derivative
    at the grid's points, in their order; without one, as full-grid mode
    calls it, every point of a full mask on spec's whole mesh is at level
    j_max and the result is an (n, n) array.

    Without a grid the uniform branch runs: the classical stencil on
    slices of cache-sized bands of rows (uniform_bands), with no index
    lists.
    With one, whatever its mask, the masked branch copies the field's
    masked values into the padded layout (grid.store), whose zero margin
    every tap past an edge reads, and gives each point its own tap
    spacing and scale from its density level (the grid's stencil), so all
    levels go through one pass whose cost follows the number of points.
    The two round differently.
    """
    if grid is None:
        return _uniform(field, spec, bank, domain_length, axis)

    values, data = store(spec, spec.derivative_width)
    np.copyto(data, field, where=mask)
    level, taps, shifts = grid.stencil
    acc = taps.sum(values.reshape(-1), shifts(taps.step[axis]),
                   [sign * c for c in bank.deriv_filter for sign in (1, -1)])
    return acc * (np.ldexp(1.0, level) / domain_length)


def diff_x(field, mask, grid: MaskGrid | None, spec: GridSpec,
           bank: FilterBank, domain_length: float) -> np.ndarray:
    """d(field)/dx (first array axis) at the grid's points, reading the
    field on the support mask; grid as in _diff."""
    return _diff(field, mask, grid, spec, bank, domain_length, 0)


def diff_z(field, mask, grid: MaskGrid | None, spec: GridSpec,
           bank: FilterBank, domain_length: float) -> np.ndarray:
    """d(field)/dz (second array axis) at the grid's points, reading the
    field on the support mask; grid as in _diff."""
    return _diff(field, mask, grid, spec, bank, domain_length, 1)
