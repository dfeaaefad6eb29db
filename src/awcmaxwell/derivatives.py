"""Spatial derivatives on adaptive grids.

Each masked point is differentiated with the antisymmetric filter of
its filter bank, applied at the tap spacing selected by the point's
density level, and scaled by the physical grid step at that level.
Taps outside the array or outside the mask read zero; the grid closure
activates every tap that matters beforehand, so zero reads only occur
deep in the far field where the field itself is negligible.

A caller that needs the derivative at some of the masked points only
lists them (grid.Points) and gets their values alone.
"""

import numpy as np

from .filters import FilterBank
from .grid import GridSpec, Points, derivative_taps, masked_points


def _diff(field, mask, levels, spec: GridSpec, bank: FilterBank,
          domain_length: float, axis: int,
          at: Points | None = None) -> np.ndarray:
    """Derivative along axis at the masked points.

    Without at the result is an (n, n) array, zero off the mask; with
    at it holds the derivative at the listed points only, in their order.

    A full mask whose points all sit at level j_max, on the whole mesh,
    takes the uniform branch: the classical stencil on slices of one
    zero-padded copy, with no index lists.  The masked branch copies the
    field's masked values into the padded layout (grid.Taps), whose extra
    zero row and column every tap past an edge reads, and gives each point
    it evaluates its own tap spacing (grid.derivative_taps) and scale from
    its density level, so all levels go through one pass whose cost
    follows the number of points.  Points whose level lies outside
    [j_min, j_max] are left at zero.
    """
    coeffs = bank.deriv_filter
    n = spec.n

    if not spec.coarsened and mask.all() and np.all(levels == spec.j_max):
        # Uniform classical stencil, vectorized along the whole axis: the
        # taps of every point are slices of one zero-padded copy.  Each
        # tap c (v[+i] - v[-i]) is formed in one reused buffer and added
        # in place, so a call holds three meshes whatever the filter's
        # length; the products and sums are those of
        # acc += c * (v[+i] - v[-i]), bit for bit.  It rounds differently
        # from the masked branch, so a full mask on a coarser lattice
        # (GridSpec.lattice), which is not full on the finest one, takes
        # the masked branch.
        pad = bank.deriv_halfwidth

        def along(start):
            """Index of the n entries from start on along axis."""
            index = [slice(None), slice(None)]
            index[axis] = slice(start, start + n)
            return tuple(index)

        shape = [n, n]
        shape[axis] += 2 * pad
        vp = np.zeros(shape)
        vp[along(pad)] = field
        acc = np.zeros((n, n))
        term = np.empty((n, n))
        for i, c in enumerate(coeffs, start=1):
            np.subtract(vp[along(pad + i)], vp[along(pad - i)], out=term)
            term *= c
            acc += term
        acc *= 2.0**spec.j_max / domain_length
        return acc if at is None else acc.reshape(-1)[at.flat]

    values = np.zeros((n + 1, n + 1))
    np.copyto(values[:-1, :-1], field, where=mask)
    points = masked_points(mask) if at is None else at
    known, level, taps, shifts = derivative_taps(points, levels, spec, bank)
    acc = taps.sum(values.reshape(-1), axis, shifts,
                   [sign * c for c in coeffs for sign in (1, -1)])
    derivative = acc * (np.ldexp(1.0, level) / domain_length)
    if at is not None:
        out = np.zeros(known.size)
        out[known] = derivative
        return out
    out = np.zeros(n * n)
    out[points.flat[known]] = derivative
    return out.reshape(n, n)


def diff_x(field, mask, levels, spec: GridSpec, bank: FilterBank,
           domain_length: float, at: Points | None = None) -> np.ndarray:
    """d(field)/dx (first array axis) at masked points, zero elsewhere;
    at as in _diff."""
    return _diff(field, mask, levels, spec, bank, domain_length, 0, at)


def diff_z(field, mask, levels, spec: GridSpec, bank: FilterBank,
           domain_length: float, at: Points | None = None) -> np.ndarray:
    """d(field)/dz (second array axis) at masked points, zero elsewhere;
    at as in _diff."""
    return _diff(field, mask, levels, spec, bank, domain_length, 1, at)
