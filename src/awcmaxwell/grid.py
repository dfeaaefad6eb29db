"""Dyadic grid bookkeeping and adaptive mask machinery.

Points live on the finest lattice with indices 0..2^j_max per axis.  Every
point has a *birth level*: the coarsest dyadic level whose lattice contains
it.  Points born at level j_min form the always-present coarse lattice and
carry scaling coefficients; every other point carries exactly one detail
coefficient of level (birth - 1), with the detail kind given by the parity
of the point on its birth lattice (odd-even: d1, even-odd: d2, odd-odd: d3).

Masks are plain boolean arrays of shape (2^j_max + 1, 2^j_max + 1).  The
closure operations here (adjacent zone, reconstruction check, derivative
extension) only ever add points, are idempotent, and keep the coarse
lattice contained.  So a mask is stencil-closed exactly when
reconstruction_check returns it unchanged, which is all require_closed
checks.

A MaskGrid holds one mask and, built once, its points, their density
levels, their derivative stencil and its transform plan, which every
consumer of the mask reads, so that their work follows the number of
masked points rather than the size of the lattice.  It is the one holder
of what is derived from a mask: nothing else stores a mask's levels.

Stencils read fields in the padded layout that store makes: k (n, n)
fields one after another, each stored as (width, width) with its margin,
the rows below it and the columns right of it, at zero.  A margin is as
wide as the farthest tap that reads the store, so a tap past the bottom
or right edge lands in it, and one past the top or left edge in the
previous field's or row's, or at a negative flat index in the last
field's: it reads zero, and a write there is cropped away.  A tap is one
add to a point's flat position (Taps).

A mask whose points all lie on the level-J lattice can be worked on with
the grid of that lattice alone, GridSpec.lattice(J), as its entries at
stride(J); lattice_level gives J from the side of an array on it.  Birth
and density levels are absolute, so the points keep theirs, and every
operation here, in the wavelets and in the derivatives reads the same
taps with the same weights in the same order on either grid: the
reconstruction check only adds taps of a point's own birth level or
coarser, and a point's derivative taps are spaced by its density level,
which is no finer than J.  So the results are bit for bit
the finest grid's at the lattice's points, which are zero or False off
it.  The adjacent zone of a point born at level b reaches level b + 1,
so it stays on the lattice when no point is born at J.  finest_level
finds the level J of a mask, and zone_lattice the one lattice that holds
a mask and its adjacent zone.
"""

from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import MaskClosureError
from .filters import SUPPORTED_ORDERS, FilterBank


class GridSpec:
    """Geometry of one dyadic grid: the coarsest and finest levels j_min
    < j_max, n = 2^j_max + 1 points per axis, and as read-only (n, n)
    arrays each point's birth level (int8, clipped below to j_min) and
    detail, True where it carries a detail coefficient; transform_width
    and derivative_width, the sides of a field's store (store) for the
    taps of a transform and of a derivative."""

    def __init__(self, j_min: int, j_max: int):
        if j_min < 0 or j_min >= j_max:
            raise ValueError(f"need 0 <= j_min < j_max, got {j_min}, {j_max}")
        self.j_min, self.j_max, self.n = j_min, j_max, (1 << j_max) + 1

        # int8: an (n, n) int64 array would weigh as much as a field.  An
        # index is born on an axis at the level j of which it is an odd
        # multiple of stride(j); the two ends at level 0.
        axis_level = np.zeros(self.n, dtype=np.int8)
        for j in range(1, j_max + 1):
            axis_level[1 << (j_max - j)::1 << (j_max - j + 1)] = j
        birth = np.maximum.outer(axis_level, axis_level)
        self.birth = np.maximum(birth, j_min, out=birth)
        self.detail = self.birth > j_min
        self.birth.flags.writeable = self.detail.flags.writeable = False
        # n and the farthest tap of any supported order N: 2N - 1 strides
        # of j_min + 1 in a transform, 2(N - 1) of j_min in a derivative,
        # up to n.  A tap more than n past an edge reads zero from every
        # point, as one n past does, so taps are clipped to +-n
        # (derivative_taps, wavelets._stencil) and a store is at most four
        # times its lattice.
        order, stride = max(SUPPORTED_ORDERS), self.stride(j_min)
        self.transform_width = self.n + min((2 * order - 1) * stride // 2,
                                            self.n)
        self.derivative_width = self.n + min(2 * (order - 1) * stride, self.n)

    @cached_property
    def gap_levels(self) -> np.ndarray:
        """At index g, the axis level of a point whose nearest same-line
        neighbour is g finest steps away: j_max - log2(g), rounded, at
        least j_min (a gap up to n rounds to 0 or more); j_min at n + 1."""
        gap = np.arange(self.n + 2, dtype=float)
        gap[0] = 1.0
        levels = self.j_max - np.rint(np.log2(gap)).astype(np.int64)
        levels[-1] = self.j_min
        return np.maximum(levels, self.j_min, out=levels)

    def stride(self, j: int) -> int:
        """Finest-index spacing of the level-j lattice."""
        return 1 << (self.j_max - j)

    def lattice(self, j: int) -> "GridSpec":
        """The grid of the level-j lattice alone, the shared
        grid_of(j_min, j), whose points are this grid's at stride(j),
        with the same birth levels; this grid itself for j = j_max."""
        if j == self.j_max:
            return self
        if not self.j_min < j < self.j_max:
            raise ValueError(f"level {j} outside ({self.j_min}, "
                             f"{self.j_max}]")
        return grid_of(self.j_min, j)

    def full_mask(self) -> np.ndarray:
        return np.ones((self.n, self.n), dtype=bool)

    def coarse_mask(self) -> np.ndarray:
        """Mask holding exactly the level-j_min lattice."""
        return ~self.detail

    def __repr__(self):
        return f"GridSpec(j_min={self.j_min}, j_max={self.j_max})"


@cache
def grid_of(j_min: int, j_max: int) -> GridSpec:
    """The GridSpec(j_min, j_max) that every caller shares: it only adds
    to its caches, and its arrays are read-only."""
    return GridSpec(j_min, j_max)


def lattice_level(side: int) -> int:
    """J of the level-J lattice, 2^J + 1 points a side, of an array
    whose last axis has side entries (for such a side)."""
    return (side - 1).bit_length() - 1


def finest_level(mask: np.ndarray, spec: GridSpec) -> int:
    """Finest birth level of a masked point, j_min for none, found from
    j_max down through strided views of the points born at each level
    (odd rows, or even rows and odd columns, of that level's lattice)."""
    for b in range(spec.j_max, spec.j_min, -1):
        h = spec.stride(b)
        if mask[h::2 * h, ::h].any() or mask[::2 * h, h::2 * h].any():
            return b
    return spec.j_min


def zone_lattice(finest: int, spec: GridSpec) -> GridSpec:
    """The grid of the lattice that holds a mask whose finest point is
    born at level finest and the mask's adjacent zone, which reaches one
    level finer: level finest + 1, within [j_min + 1, j_max]."""
    return spec.lattice(min(max(finest + 1, spec.j_min + 1), spec.j_max))


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only in place."""
    array.flags.writeable = False
    return array


class Points(NamedTuple):
    """Listed points of a lattice: coordinates and flat (row-major) indices."""

    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray


def masked_points(mask: np.ndarray) -> Points:
    """The masked points in row-major order, in read-only arrays; going
    through the flat indices is several times faster than np.nonzero."""
    flat = np.flatnonzero(mask)
    return Points(*map(_frozen, (*np.divmod(flat, mask.shape[1]), flat)))


def store(spec: GridSpec, width: int, lead=(), dtype=float):
    """A zero store of lead + (width, width) for fields of spec in the
    padded layout, and its view of lead + (n, n) that holds the fields."""
    padded = np.zeros(tuple(lead) + (width, width), dtype=dtype)
    return padded, padded[..., :spec.n, :spec.n]


class Taps:
    """Listed points in the padded layout of 1 or k stacked fields.

    at holds their flat positions in stores of the given width, field by
    field, and step the flat distance of one index along x and z,
    (width, 1): a point moved along axis by shift (at most the store's
    margin) sits at + shift * step[axis].  Positions are flat, each field
    offset by width^2: a flat gather or scatter is several times faster
    than one on a stack, and one field's 1-D positions add faster than a
    broadcast (1, len(rows)).
    """

    def __init__(self, width: int, rows, cols, fields=1):
        self.step = width, 1
        at = rows * width + cols
        if fields > 1:
            at = at + np.arange(0, fields * width**2, width**2)[:, None]
        self._at = _frozen(at)

    @property
    def at(self) -> np.ndarray:
        return self._at.reshape(-1)

    def sum(self, values, offsets, weights) -> np.ndarray:
        """Sum of weight * values[at + offset] over the taps, from zero in
        tap order: values is the flat padded store, and the offsets
        (shift * step[axis]) may be a generator."""
        out = np.zeros(self._at.shape)
        for offset, weight in zip(offsets, weights):
            out += weight * values[self._at + offset]
        return out.reshape(-1)


def derivative_taps(points: Points, levels, spec: GridSpec, bank: FilterBank):
    """(level, taps, shifts) of the listed points' derivative stencils: a
    point of density level j, which must lie in [j_min, j_max], as
    compute_levels gives every masked point, taps +-i 2^(j_max - j) along
    either axis, i = 1..deriv_halfwidth, each reach clipped to n (see
    GridSpec).  shifts(step) yields the signed shifts in tap order, +i
    then -i for i = 1, 2, ..., one at a time, spaced by step:
    taps.step[axis] gives Taps.sum's offsets."""
    rows, cols, _ = points
    level = _frozen(levels[rows, cols])
    spacing = _frozen(np.left_shift(1, spec.j_max - level))
    width = bank.deriv_halfwidth
    # The reaches that can pass n, i * spacing > n at the coarsest
    # spacing, are clipped once here; the others are formed as they are
    # read.
    far = spec.n // spec.stride(spec.j_min) + 1
    clipped = {i: _frozen(np.minimum(i * spacing, spec.n))
               for i in range(far, width + 1)}
    return level, Taps(spec.derivative_width, rows, cols), (
        lambda step: (sign * step * clipped[i] if i in clipped
                      else sign * i * step * spacing
                      for i in range(1, width + 1) for sign in (1, -1)))


class MaskGrid:
    """One mask of spec's lattice and, built once on first read, its
    points (masked_points), their density levels (compute_levels), their
    derivative stencil (derivative_taps) and its transform plan
    (transform_plan), for every consumer of the mask to read.  mask is a
    read-only view of the mask given, which must not change while the
    grid is in use; every array the grid hands out is read-only, so a
    pass cannot write into an index that another reads."""

    def __init__(self, mask: np.ndarray, spec: GridSpec, bank: FilterBank):
        self.mask = _frozen(mask.view())
        self.spec, self.bank = spec, bank

    @cached_property
    def points(self) -> Points:
        return masked_points(self.mask)

    @cached_property
    def levels(self) -> np.ndarray:
        return _frozen(compute_levels(self.mask, self.spec, self.points))

    @cached_property
    def stencil(self):
        return derivative_taps(self.points, self.levels, self.spec, self.bank)

    @cached_property
    def plan(self) -> list:
        return transform_plan(self.mask, self.spec, self.bank)


def transform_plan(mask, spec: GridSpec, bank: FilterBank) -> list:
    """The mask's detail points by transform level and kind.

    Entry level - j_min holds, as (2, count) arrays of rows and cols, the
    d1, d2 and d3 points born at level + 1 (odd-even, even-odd and odd-odd on
    that lattice), each kind in row-major order, and the lifted even-even
    points: the masked ones with a masked d1 point (along x) or d2 point
    (along z) in update reach.  Every other even-even point has an
    exactly zero lift, since a masked d3 point's column taps are masked
    d1 points.  Each kind is listed from a strided view of the mask, as
    finest_level and reconstruction_check read it, so a plan sorts
    nothing and lists no point twice.  Its arrays are read-only.
    """
    plan = []
    for level in range(spec.j_min, spec.j_max):
        h, s = spec.stride(level + 1), spec.stride(level)
        d1, d2, d3 = (_frozen(np.multiply(np.nonzero(mask[r::s, c::s]), s)
                              + [[r], [c]])
                      for r, c in ((h, 0), (0, h), (h, h)))
        # A tap (2l - 1) h moves odd class index i to i + l.
        moved = spread_lines(np.stack((mask[h::s, ::s], mask[::s, h::s].T),
                                      axis=1), bank.predict_offsets)
        near = (moved[:, 0] | moved[:, 1].T) & mask[::s, ::s]
        even = _frozen(np.multiply(np.nonzero(near), s))
        plan.append((d1, d2, d3, even))
    return plan


def _box_dilate(a, radius):
    """Union of a with its translates up to radius along both axes."""
    rows = a.copy()
    for d in range(1, radius + 1):
        rows[:-d, :] |= a[d:, :]
        rows[d:, :] |= a[:-d, :]
    out = rows.copy()
    for d in range(1, radius + 1):
        out[:, :-d] |= rows[:, d:]
        out[:, d:] |= rows[:, :-d]
    return out


def add_adjacent_zone(mask: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Grow the mask by the adjacent zone of every masked detail point,
    one level and one point either way: a detail point with birth level b
    and level-b indices (mb, nb) activates every lattice point (j', m', n')
    with |j' - b| <= 1 and |2^(j'-b) mb - m'| <= 1 (likewise for n'), with
    j' clipped to [j_min, j_max].  Coarse scaling points spawn no zone;
    their same-level neighbourhood is the always-present coarse lattice.
    Levels finer than the mask's finest detail point spawn nothing and are
    not visited.
    """
    out = mask.copy()
    for b in range(spec.j_min + 1, finest_level(mask, spec) + 1):
        h = spec.stride(b)
        det = np.zeros_like(mask[::h, ::h])
        det[1::2, :] = mask[h::2 * h, ::h]
        det[:, 1::2] |= mask[::h, h::2 * h]
        for jp in range(b - 1, min(spec.j_max, b + 1) + 1):
            sp = spec.stride(jp)
            target = out[::sp, ::sp]
            if jp >= b:
                # The target lattice refines the birth lattice: upsample,
                # then dilate by the spatial range.
                q = h // sp
                up = np.zeros_like(target)
                up[::q, ::q] = det
                target |= _box_dilate(up, 1)
            else:
                # Coarser target: dilate in birth-lattice units by one
                # target stride, then subsample.
                p = sp // h
                target |= _box_dilate(det, p)[::p, ::p]
    return out


def spread_lines(source, shifts):
    """The source's lines moved by each of the consecutive shifts along
    the first axis, ORed together: line t holds the union of source lines
    t - s, one line more than the source, and lines moved past either end
    drop.  A padded copy of the source is ORed with itself moved by 1, 2,
    4, ... lines, a few passes whatever the number of shifts.  Sources of
    one shape stacked along the second axis spread in one call.
    """
    width, lines = len(shifts), source.shape[0]
    window = np.zeros((lines + width,) + source.shape[1:], dtype=bool)
    window[shifts[-1]:shifts[-1] + lines] = source
    span = 1
    while span < width:
        step = min(span, width - span)
        window[:-step] |= window[step:]
        span += step
    return window[:lines + 1]


def reconstruction_check(mask, spec: GridSpec, bank: FilterBank) -> np.ndarray:
    """Close the mask so every retained detail coefficient is computable.

    Adds, for each masked detail point, the prediction stencil taps of its
    detail equation, recursing to coarser birth levels until no point is
    missing; taps outside the array are never required (zero extension).
    One pass from the mask's finest birth level down suffices: taps of a
    level-b detail land on the level-b lattice or coarser, and the only
    same-level births (odd-odd taps hitting singly odd points) are picked
    up by running the d3 family before d1/d2 within each level.

    Each level works on strided views of the four parity classes of its
    lattice.  A tap offset (2l - 1) stride(b), l in predict_offsets,
    moves a point to the other parity along its axis, l class rows or
    columns away, so every family is one class shifted into another: d3
    rows into d2, d3 columns into d1, d1 rows and d2 columns into
    even-even.  The d3 tensor taps are the column taps of the d2 points
    its row taps create, so the d2 family covers them.  The even-even
    class is the next level's lattice.  The wavelets module's one-axis
    lifting rests on the first two families.
    """
    out = mask.copy()
    top = finest_level(mask, spec)
    lattice = out[::spec.stride(top), ::spec.stride(top)]
    shifts = bank.predict_offsets
    for _ in range(top, spec.j_min, -1):
        # d3 is (k, k), d1 (k, k + 1), d2 (k + 1, k), even (k + 1, k + 1).
        d1, d2, d3, even = (lattice[r::2, c::2]
                            for r, c in ((1, 0), (0, 1), (1, 1), (0, 0)))
        moved = spread_lines(np.stack((d3, d3.T), axis=1), shifts)
        d2 |= moved[:, 0]
        d1 |= moved[:, 1].T
        moved = spread_lines(np.stack((d1, d2.T), axis=1), shifts)
        even |= moved[:, 0]
        even |= moved[:, 1].T
        lattice = even
    return out


def _holder(tap, mask, spec: GridSpec, bank: FilterBank):
    """Some masked detail point whose prediction stencil holds tap: born
    at b > j_min, it sits (2l - 1) stride(b) away along each axis on which
    it is odd at level b, and level with the tap along the others."""
    tm, tn = tap
    for b in range(spec.j_min + 1, spec.j_max + 1):
        h = spec.stride(b)
        moves = [0] + [(2 * int(l) - 1) * h for l in bank.predict_offsets]
        for dm in moves:
            for dn in moves:
                m, n = tm - dm, tn - dn
                if ((dm or dn) and 0 <= m < spec.n and 0 <= n < spec.n
                        and mask[m, n] and spec.birth[m, n] == b
                        and (not dm or m // h % 2) and (not dn or n // h % 2)):
                    return m, n
    return None


def require_closed(mask, spec: GridSpec, bank: FilterBank, what: str):
    """Raise MaskClosureError unless reconstruction_check leaves the mask
    as it is, naming a masked detail point and an absent tap it needs.
    The first point the closure adds is traced back, holder by holder
    through the closed mask, to a point of the mask; a holder is born no
    coarser than its tap, and no d3 point is a tap of its own level, so
    the trace ends."""
    closed = reconstruction_check(mask, spec, bank)
    added = np.argwhere(closed & ~mask)
    if not added.size:
        return
    tap = tuple(int(v) for v in added[0])
    point = _holder(tap, closed, spec, bank)
    while not mask[point]:
        tap, point = point, _holder(point, closed, spec, bank)
    raise MaskClosureError(
        f"{what}: mask is not stencil-closed; point {point} "
        f"needs absent tap {tap}"
    )


def _line_levels(major, minor, spec: GridSpec) -> np.ndarray:
    """Axis level of points sorted by (line, position on the line), major
    naming each point's line and minor its position: the gaps between
    neighbours on one line give every point its nearest same-line
    distance, and GridSpec.gap_levels its level."""
    far = spec.n + 1
    step = np.where(major[1:] == major[:-1], minor[1:] - minor[:-1], far)
    gap = np.full(major.size, far)
    gap[1:] = step
    gap[:-1] = np.minimum(gap[:-1], step)
    return spec.gap_levels[gap]


def compute_levels(mask, spec: GridSpec, points: Points) -> np.ndarray:
    """Density level of every masked point (max of the two axis levels).

    The axis level is j_max - log2(gap) with gap the finest-index distance
    to the nearest masked point on the same grid line, rounded to the
    nearest integer and clipped to [j_min, j_max]; a point with no same-line
    companion falls back to j_min on that axis.  Entries outside the mask
    are 0.  The gaps come from points, which lists the mask row by row
    (masked_points) and so orders every row, and from a listing of its
    transpose, which orders every column.
    """
    rows, cols, flat = points
    out = np.zeros((spec.n, spec.n), dtype=np.int64)
    levels = out.reshape(-1)
    levels[flat] = _line_levels(rows, cols, spec)
    cols, rows = np.divmod(np.flatnonzero(mask.T), spec.n)
    flat = rows * spec.n + cols
    levels[flat] = np.maximum(levels[flat], _line_levels(cols, rows, spec))
    return out


def extend_for_derivatives(grid: MaskGrid) -> np.ndarray:
    """The grid's mask with its stencil's derivative taps along both
    axes added, those beyond the array edge dropped (they read zero),
    then reconstruction-checked so that inverse transforms stay well
    defined on the grown mask."""
    _, taps, shifts = grid.stencil
    hit, inside = store(grid.spec, grid.spec.derivative_width, dtype=bool)
    flat, at = hit.reshape(-1), taps.at
    for step in taps.step:
        for offset in shifts(step):
            flat[at + offset] = True
    return reconstruction_check(grid.mask | inside, grid.spec, grid.bank)
