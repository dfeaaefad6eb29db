"""Spatial derivatives on adaptive grids.

Each masked point is differentiated with the antisymmetric filter of
its filter bank, applied at the tap spacing selected by the point's
density level, and scaled by the physical grid step at that level.
Taps outside the array or outside the mask read zero; the grid closure
activates every tap that matters beforehand, so zero reads only occur
deep in the far field where the field itself is negligible.
"""

import numpy as np

from .filters import FilterBank
from .grid import GridSpec, masked_points


def _diff(field, mask, levels, spec: GridSpec, bank: FilterBank,
          domain_length: float, axis: int) -> np.ndarray:
    """Derivative along axis at the masked points.

    The masked branch lists the masked points in one pass over the mask and
    gives each its own tap spacing and scale from its density level, so
    all levels go through one pass whose cost follows the number of
    masked points.  Masked points whose level lies outside [j_min, j_max]
    are left at zero.  The values are stored with one extra zero row and
    column, which every tap past an edge reads.
    """
    coeffs = bank.deriv_filter

    if mask.all() and np.all(levels == spec.j_max):
        # Uniform classical stencil, vectorized along the whole axis.
        values = np.where(mask, np.asarray(field, dtype=float), 0.0)
        pad = bank.deriv_halfwidth
        width = [(0, 0), (0, 0)]
        width[axis] = (pad, pad)
        vp = np.pad(values, width)
        acc = np.zeros_like(values)
        for i, c in enumerate(coeffs, start=1):
            fwd = np.roll(vp, -i, axis=axis)
            bwd = np.roll(vp, i, axis=axis)
            diff = fwd - bwd
            sl = [slice(None), slice(None)]
            sl[axis] = slice(pad, pad + spec.n)
            acc += c * diff[tuple(sl)]
        return acc * (2.0**spec.j_max / domain_length)

    n, width = spec.n, spec.n + 1
    padded = np.zeros((width, width))
    np.copyto(padded[:n, :n], field, where=mask)
    values = padded.reshape(-1)
    rows, cols = masked_points(mask)
    level = levels[rows, cols]
    known = (level >= spec.j_min) & (level <= spec.j_max)
    rows, cols, level = rows[known], cols[known], level[known]
    step = np.left_shift(1, spec.j_max - level)
    # edge[p + reach] is p on the lattice and n (the zero halo) past it.
    reach = len(coeffs) * spec.stride(spec.j_min)
    edge = np.full(n + 2 * reach, n)
    edge[reach:reach + n] = np.arange(n)
    if axis == 0:
        moving, fixed, unit = rows + reach, cols, width
    else:
        moving, fixed, unit = cols + reach, rows * width, 1
    acc = np.zeros(rows.size)
    for i, c in enumerate(coeffs, start=1):
        for sign in (1, -1):
            taps = values[edge[moving + sign * i * step] * unit + fixed]
            acc += sign * c * taps
    out = np.zeros((n, n))
    out[rows, cols] = acc * (np.ldexp(1.0, level) / domain_length)
    return out


def diff_x(field, mask, levels, spec: GridSpec, bank: FilterBank,
           domain_length: float) -> np.ndarray:
    """d(field)/dx (first array axis) at masked points, zero elsewhere."""
    return _diff(field, mask, levels, spec, bank, domain_length, axis=0)


def diff_z(field, mask, levels, spec: GridSpec, bank: FilterBank,
           domain_length: float) -> np.ndarray:
    """d(field)/dz (second array axis) at masked points, zero elsewhere."""
    return _diff(field, mask, levels, spec, bank, domain_length, axis=1)
