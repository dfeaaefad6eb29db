"""Spatial derivatives on adaptive grids.

Each point of a grid (grid.MaskGrid) is differentiated with the
antisymmetric filter of its filter bank, applied at the tap spacing
selected by the point's density level, and scaled by the physical grid
step at that level.  Taps outside the array or outside the support mask
read zero; the grid closure activates every tap that matters beforehand,
so zero reads only occur deep in the far field where the field itself is
negligible.
"""

import numpy as np

from .filters import FilterBank
from .grid import GridSpec, MaskGrid, store


def _diff(field, mask, grid: MaskGrid | None, spec: GridSpec,
          bank: FilterBank, domain_length: float, axis: int) -> np.ndarray:
    """Derivative along axis of the field's values on the support mask.

    With a grid, built on spec with bank, the result holds the derivative
    at the grid's points, in their order; without one, every point of a
    full mask on spec's whole mesh is at level j_max and the result is an
    (n, n) array.

    A full mask on the whole mesh takes the uniform branch: the classical
    stencil on slices of one zero-padded copy, with no index lists.  The
    masked branch copies the field's masked values into the padded layout
    (grid.store), whose zero margin every tap past an edge reads, and
    gives each point its own tap spacing and scale from its density level
    (the grid's stencil), so all levels go through one pass whose cost
    follows the number of points.
    """
    coeffs = bank.deriv_filter
    n = spec.n

    if grid is None or (not spec.coarsened and grid.points.flat.size == n * n):
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
        # A full mask's points are every entry, in row-major order.
        return acc if grid is None else acc.reshape(-1)

    values, data = store(spec, spec.derivative_width)
    np.copyto(data, field, where=mask)
    level, taps, shifts = grid.stencil
    acc = taps.sum(values.reshape(-1), shifts(taps.step[axis]),
                   [sign * c for c in coeffs for sign in (1, -1)])
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
