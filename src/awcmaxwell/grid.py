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
lattice contained.

masked_points lists the points of a mask once, as coordinates and flat
indices.  Work that only concerns the masked points (levels, derivative
taps, derivatives, the field update) runs on such a list, so its cost
follows the number of masked points rather than the size of the lattice;
a caller that already holds the list of a mask passes it on.
"""

from typing import NamedTuple

import numpy as np

from .errors import MaskClosureError
from .filters import FilterBank


class GridSpec:
    """Geometry of one dyadic grid: level range plus cached point metadata.

    Attributes
    ----------
    j_min, j_max:
        Coarsest and finest dyadic levels, j_min < j_max.
    n:
        Points per axis, 2^j_max + 1.
    birth:
        (n, n) int array of birth levels, clipped below to j_min.
    detail:
        (n, n) bool array, True where the point carries a detail coefficient.
    """

    def __init__(self, j_min: int, j_max: int):
        if j_min < 0 or j_min >= j_max:
            raise ValueError(f"need 0 <= j_min < j_max, got {j_min}, {j_max}")
        self.j_min = j_min
        self.j_max = j_max
        self.n = (1 << j_max) + 1

        tz = np.empty(self.n, dtype=np.int64)
        tz[0] = j_max
        for p in range(1, self.n):
            tz[p] = min((p & -p).bit_length() - 1, j_max)
        axis_level = j_max - tz
        self.axis_level = axis_level
        birth = np.maximum.outer(axis_level, axis_level)
        self.birth = np.maximum(birth, j_min)
        self.detail = self.birth > j_min

    def stride(self, j: int) -> int:
        """Finest-index spacing of the level-j lattice."""
        return 1 << (self.j_max - j)

    def full_mask(self) -> np.ndarray:
        return np.ones((self.n, self.n), dtype=bool)

    def coarse_mask(self) -> np.ndarray:
        """Mask holding exactly the level-j_min lattice."""
        return ~self.detail

    def __repr__(self):
        return f"GridSpec(j_min={self.j_min}, j_max={self.j_max})"


def cardinality(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


class Points(NamedTuple):
    """Listed points of a lattice: coordinates and flat (row-major) indices."""

    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray

    def padded(self) -> np.ndarray:
        """Flat indices of the points in a copy of the lattice stored with
        one extra row and column: row * (n + 1) + col."""
        return self.flat + self.rows


def masked_points(mask: np.ndarray) -> Points:
    """The masked points in row-major order, as np.nonzero lists them;
    going through the flat indices is several times faster."""
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, mask.shape[1])
    return Points(rows, cols, flat)


def _shift_into(dst, src, dr, dc):
    """dst |= src translated by (dr, dc); parts shifted past an edge drop."""
    nr, nc = src.shape
    hr, wc = nr - abs(dr), nc - abs(dc)
    if hr <= 0 or wc <= 0:
        return
    r0, c0 = max(dr, 0), max(dc, 0)
    r1, c1 = max(-dr, 0), max(-dc, 0)
    dst[r0:r0 + hr, c0:c0 + wc] |= src[r1:r1 + hr, c1:c1 + wc]


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


def add_adjacent_zone(
    mask: np.ndarray,
    spec: GridSpec,
    level_range: int = 1,
    space_range: int = 1,
) -> np.ndarray:
    """Grow the mask by the adjacent zone of every masked detail point.

    A detail point with birth level b and level-b indices (mb, nb) activates
    every lattice point (j', m', n') with |j' - b| <= level_range and
    |2^(j'-b) mb - m'| <= space_range (likewise for n'), with j' clipped to
    [j_min, j_max].  Coarse scaling points spawn no zone; their same-level
    neighbourhood is the always-present coarse lattice.
    """
    out = mask.copy()
    for b in range(spec.j_min + 1, spec.j_max + 1):
        h = spec.stride(b)
        det = np.zeros_like(mask[::h, ::h])
        det[1::2, :] = mask[h::2 * h, ::h]
        det[:, 1::2] |= mask[::h, h::2 * h]
        if not det.any():
            continue
        for jp in range(max(spec.j_min, b - level_range),
                        min(spec.j_max, b + level_range) + 1):
            sp = spec.stride(jp)
            target = out[::sp, ::sp]
            if jp >= b:
                # The target lattice refines the birth lattice: upsample,
                # then dilate by the spatial range.
                q = h // sp
                up = np.zeros_like(target)
                up[::q, ::q] = det
                target |= _box_dilate(up, space_range)
            else:
                # Coarser target: dilate in birth-lattice units by the
                # range measured in target strides, then subsample.
                p = sp // h
                target |= _box_dilate(det, space_range * p)[::p, ::p]
    return out


def _detail_kinds(sub):
    """Kind-separated detail members of a sublattice mask (d1, d2, d3)."""
    d1 = np.zeros_like(sub)
    d1[1::2, 0::2] = sub[1::2, 0::2]
    d2 = np.zeros_like(sub)
    d2[0::2, 1::2] = sub[0::2, 1::2]
    d3 = np.zeros_like(sub)
    d3[1::2, 1::2] = sub[1::2, 1::2]
    return d1, d2, d3


def _tap_offsets(bank: FilterBank):
    """Prediction tap positions relative to a detail point, in its stride."""
    return [2 * int(l) - 1 for l in bank.predict_offsets]


def _d3_taps(d3, offs):
    """Stencil taps of the odd-odd details: row, column, tensor families.

    The tensor block is the column-shifted row union, which needs half
    the translations of the direct double loop.
    """
    rows_u = np.zeros_like(d3)
    for d in offs:
        _shift_into(rows_u, d3, d, 0)
    need = rows_u.copy()
    for d in offs:
        _shift_into(need, d3, 0, d)
        _shift_into(need, rows_u, 0, d)
    return need


def _d12_taps(d1, d2, offs):
    """Stencil taps of the singly odd details: along their odd axis."""
    need = np.zeros_like(d1)
    for d in offs:
        _shift_into(need, d1, d, 0)
        _shift_into(need, d2, 0, d)
    return need


def class_moves(k: int, shifts):
    """(to, from) slice pairs that move class rows or columns i to
    i + s, for each shift s, between a class of k and one of k + 1 lines;
    lines moved past either edge drop."""
    return [(slice(max(s, 0), min(k + s, k + 1)),
             slice(max(-s, 0), min(k, k + 1 - s)))
            for s in shifts if -k < s <= k]


def reconstruction_check(mask, spec: GridSpec, bank: FilterBank) -> np.ndarray:
    """Close the mask so every retained detail coefficient is computable.

    Adds, for each masked detail point, the prediction stencil taps of its
    detail equation, recursing to coarser birth levels until no point is
    missing.  Taps outside the array are never required (zero extension).

    One pass from the finest birth level down suffices: taps of a level-b
    detail land on the level-b lattice or coarser, and the only same-level
    births (odd-odd taps hitting singly odd points) are picked up by
    running the d3 family before d1/d2 within each level.

    Each level works on contiguous copies of the four parity classes of
    its lattice.  An odd tap offset d moves a point to the other parity
    along its axis, d // 2 + 1 class rows or columns away, so every family
    is one class shifted into another: d3 rows into d2, d3 columns into
    d1, d1 rows and d2 columns into even-even.  The d3 tensor taps are the
    column taps of the d2 points its row taps create, so the d2 family
    covers them.  The even-even class is the next level's lattice, and
    the classes of the points born at a level are stored once it is done.

    The one-axis lifting of the wavelets module is exact because of two
    of these families: "d3 rows into d2" keeps the d2 details that a d3
    detail reads along x, and "d3 columns into d1" keeps every d1 point
    at which the update's staged z sum of d3 details is nonzero (the tap
    offsets are symmetric).  A transform on a mask without them, run
    with check=False, gives undefined results.
    """
    out = mask.copy()
    shifts = [d // 2 + 1 for d in _tap_offsets(bank)]
    lattice = out
    for b in range(spec.j_max, spec.j_min, -1):
        # d3 is (k, k), d1 (k, k + 1), d2 (k + 1, k), even (k + 1, k + 1).
        d1, d2, d3, even = (np.ascontiguousarray(lattice[r::2, c::2])
                            for r, c in ((1, 0), (0, 1), (1, 1), (0, 0)))
        moves = class_moves(d3.shape[0], shifts)
        if d3.any():
            for to, of in moves:
                d2[to] |= d3[of]
                d1[:, to] |= d3[:, of]
        for to, of in moves:
            even[to] |= d1[of]
            even[:, to] |= d2[:, of]
        h = spec.stride(b)
        out[h::2 * h, ::2 * h] = d1
        out[::2 * h, h::2 * h] = d2
        out[h::2 * h, h::2 * h] = d3
        lattice = even
    coarse = spec.stride(spec.j_min)
    out[::coarse, ::coarse] = lattice
    return out


def _tap_source(d1, d2, d3, offs, tm, tn):
    """Some detail point whose stencil contains the tap (tm, tn)."""
    nr, nc = d1.shape
    for d in offs:
        r, c = tm - d, tn - d
        if 0 <= r < nr and (d1[r, tn] or d3[r, tn]):
            return r, tn
        if 0 <= c < nc and (d2[tm, c] or d3[tm, c]):
            return tm, c
        for dp in offs:
            c = tn - dp
            if 0 <= r < nr and 0 <= c < nc and d3[r, c]:
                return r, c
    return tm, tn


def find_missing_stencil_point(mask, spec: GridSpec, bank: FilterBank):
    """First (point, tap) pair violating stencil closure, or None."""
    offs = _tap_offsets(bank)
    for b in range(spec.j_max, spec.j_min, -1):
        h = spec.stride(b)
        sub = mask[::h, ::h]
        d1, d2, d3 = _detail_kinds(sub)
        if not (d1.any() or d2.any() or d3.any()):
            continue
        need = _d3_taps(d3, offs) | _d12_taps(d1, d2, offs)
        missing = need & ~sub
        if missing.any():
            tm, tn = (int(v) for v in np.argwhere(missing)[0])
            sm, sn = _tap_source(d1, d2, d3, offs, tm, tn)
            return (sm * h, sn * h), (tm * h, tn * h)
    return None


def require_closed(mask, spec: GridSpec, bank: FilterBank, what: str):
    missing = find_missing_stencil_point(mask, spec, bank)
    if missing is not None:
        (pm, pn), (tm, tn) = missing
        raise MaskClosureError(
            f"{what}: mask is not stencil-closed; point ({pm}, {pn}) "
            f"needs absent tap ({tm}, {tn})"
        )


def _line_levels(major, minor, spec: GridSpec) -> np.ndarray:
    """Axis level of points sorted by (line, position on the line).

    major names each point's grid line and minor its position on it.
    The gaps between neighbours in that order that stay on one line give
    every point its nearest same-line distance.
    """
    far = 2 * spec.n + 2
    step = np.where(major[1:] == major[:-1], minor[1:] - minor[:-1], far)
    gap = np.full(major.size, far)
    gap[1:] = step
    gap[:-1] = np.minimum(gap[:-1], step)
    on = gap <= spec.n
    lv = spec.j_max - np.rint(np.log2(gap[on].astype(float))).astype(np.int64)
    levels = np.full(major.size, spec.j_min, dtype=np.int64)
    levels[on] = np.clip(lv, spec.j_min, spec.j_max)
    return levels


def compute_levels(mask: np.ndarray, spec: GridSpec,
                   points: Points | None = None) -> np.ndarray:
    """Density level of every masked point (max of the two axis levels).

    The axis level is j_max - log2(gap) with gap the finest-index distance
    to the nearest masked point on the same grid line, rounded to the
    nearest integer and clipped to [j_min, j_max]; a point with no same-line
    companion falls back to j_min on that axis.  Entries outside the mask
    are 0.

    The gaps come from the sorted coordinates of the masked points: one
    pass over the mask lists them row by row, which orders every row, and a
    stable sort by column orders every column, so the cost follows the
    number of masked points rather than the size of the lattice.  points,
    when given, is the mask's list in row-major order (masked_points).
    """
    rows, cols, flat = masked_points(mask) if points is None else points
    lz = _line_levels(rows, cols, spec)
    by_col = np.argsort(cols, kind="stable")
    lx = np.empty_like(lz)
    lx[by_col] = _line_levels(cols[by_col], rows[by_col], spec)
    out = np.zeros((spec.n, spec.n), dtype=np.int64)
    out.reshape(-1)[flat] = np.maximum(lx, lz)
    return out


def extend_for_derivatives(
    mask: np.ndarray,
    spec: GridSpec,
    levels: np.ndarray,
    bank: FilterBank,
    points: Points | None = None,
) -> np.ndarray:
    """Add the derivative stencil taps of every masked point, then re-close.

    A point at density level j0 taps i = 1..len(deriv_filter) steps of size
    2^(j_max - j0) along both axes; taps beyond the array edge are dropped
    (they read zero), and so are the taps of a point whose level lies
    outside [j_min, j_max].  A reconstruction check runs afterwards so
    inverse transforms stay well defined on the grown mask.

    The taps come from the coordinates and levels of the masked points
    (points, when given, lists them), so their cost follows the number of
    masked points.
    """
    rows, cols, _ = masked_points(mask) if points is None else points
    level = levels[rows, cols]
    known = (level >= spec.j_min) & (level <= spec.j_max)
    step = np.left_shift(1, spec.j_max - level[known])
    # The taps go to a copy of the lattice with a margin as wide as the
    # farthest reach, so none needs an edge test; the margin is dropped.
    n, margin = spec.n, bank.deriv_halfwidth * spec.stride(spec.j_min)
    width = n + 2 * margin
    taps = np.zeros((width, width), dtype=bool)
    at = (rows[known] + margin) * width + cols[known] + margin
    flat = taps.reshape(-1)
    for i in range(1, bank.deriv_halfwidth + 1):
        for unit in (width, 1):
            shift = i * unit * step
            flat[at + shift] = True
            flat[at - shift] = True
    out = mask | taps[margin:margin + n, margin:margin + n]
    return reconstruction_check(out, spec, bank)
