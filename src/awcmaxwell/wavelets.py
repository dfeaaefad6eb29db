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
reads zero.  Masked transforms therefore require the mask to be closed
under the prediction stencils (see grid.require_closed); the background
of the array is kept at exactly zero so gathers never need per-point
guards, and the array is stored with one extra zero row and column that
every tap past an edge reads.

A full transform finds the active points once, in a MaskPlan: one
pass over the mask, sorted by birth level, gives every level's
detail and scaling points as index lists.  Each level then gathers its
stencil taps at those points only, so its work follows the active point
count rather than the size of the lattice.
"""

import functools

import numpy as np

from .errors import ConfigError
from .filters import FilterBank
from .grid import GridSpec, masked_points, require_closed

PHYSICAL = "physical"
WAVELET = "wavelet"
# Points of one kind whose tap indices are built at once; it bounds the
# index memory of a transform on a full lattice.
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
    data is a view of ``padded``, which has one more row and column, held
    at zero, for the taps that fall past an edge.  The constructor copies
    data; where, True, False or an (n, n) mask, selects the entries taken
    from it, and the others start at zero.  A mask's points are listed
    and copied alone, so the copy costs in proportion to their number.
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
        self.padded = np.zeros(lead + (n + 1, n + 1))
        stored = self.padded.reshape(-1, (n + 1) ** 2)
        if where is True:
            for dst, field in zip(stored, fields):
                dst.reshape(n + 1, n + 1)[:-1, :-1] = field
        elif where is not False:
            listed = masked_points(where)
            for dst, field in zip(stored, fields):
                dst[listed.padded()] = field[listed.rows, listed.cols]
        self.spec = spec
        self.state = state

    @property
    def data(self) -> np.ndarray:
        return self.padded[..., :-1, :-1]

    @property
    def j_min(self) -> int:
        return self.spec.j_min

    @property
    def j_max(self) -> int:
        return self.spec.j_max

    @classmethod
    def from_field(cls, field_values, spec: GridSpec, mask=None):
        """Pyramid in physical state; values outside the mask become 0."""
        return cls(field_values, spec, where=True if mask is None else mask)


class MaskPlan:
    """The active points of one mask, split by transform level and kind.

    rows and cols list every masked point, coarsest birth level first.
    levels[level - j_min] holds, as (rows, cols) finest-lattice index
    arrays, the d1, d2 and d3 points born at level + 1 (odd-even,
    even-odd and odd-odd on that lattice) and the even-even points, born
    at level or coarser, whose scaling coefficients that level lifts.
    A plan describes one mask only and is rebuilt whenever it changes.
    """

    def __init__(self, mask, spec: GridSpec):
        rows, cols, _ = masked_points(mask)
        birth = spec.birth[rows, cols]
        order = np.argsort(birth, kind="stable")
        self.rows, self.cols = rows, cols = rows[order], cols[order]
        # ends[j - j_min]: number of points born at level j or coarser.
        ends = np.searchsorted(birth[order],
                               np.arange(spec.j_min, spec.j_max + 1),
                               side="right")
        self.levels = []
        for level in range(spec.j_min, spec.j_max):
            h = spec.stride(level + 1)
            lo, hi = ends[level - spec.j_min], ends[level + 1 - spec.j_min]
            r, c = rows[lo:hi], cols[lo:hi]
            odd_r, odd_c = (r & h) > 0, (c & h) > 0
            d1, d3 = odd_r & ~odd_c, odd_r & odd_c
            self.levels.append(((r[d1], c[d1]), (r[~odd_r], c[~odd_r]),
                                (r[d3], c[d3]), (rows[:lo], cols[:lo])))


class _Taps:
    """Flat positions in a pyramid's padded storage of some points, in
    every stacked field, and of their taps at the given offsets along
    each axis.  A flat position is a row part plus a column part; taps
    past an edge land on the zero row or column."""

    def __init__(self, pyramid: CoeffPyramid, points, offsets):
        n = pyramid.spec.n
        width = n + 1
        fields = np.arange(pyramid.padded.size // width**2)[:, None]
        reach = int(np.abs(offsets).max())
        # lattice[p + reach] is p on the lattice and n, the zero row or
        # column, past either edge.  row_edge holds the row parts of
        # those rows, one run of len(lattice) per stacked field.
        lattice = np.full(n + 2 * reach, n)
        lattice[reach:reach + n] = np.arange(n)
        self._row_edge = (lattice * width + fields * width**2).reshape(-1)
        self._col_edge = lattice
        rows, cols = points
        self._row_key = (fields * lattice.size + rows).reshape(-1)
        self._shifts = [reach + int(t) for t in offsets]
        self.row = self._row_edge[self._row_key + reach]
        self.col = np.tile(cols, fields.size)
        self.at = self.row + self.col

    @property
    def _x_rows(self):
        """Row part of each tap along x."""
        return (self._row_edge[self._row_key + s] for s in self._shifts)

    @functools.cached_property
    def _z_cols(self):
        """Column part of each tap along z."""
        return [self._col_edge[self.col + s] for s in self._shifts]

    def along_x(self, v, weights):
        """Sum_l w_l * v[tap_l] over the taps along x."""
        out = np.zeros(self.at.size)
        for r, w in zip(self._x_rows, weights):
            out += w * v[r + self.col]
        return out

    def along_z(self, v, weights):
        """Sum_l w_l * v[tap_l] over the taps along z."""
        out = np.zeros(self.at.size)
        for c, w in zip(self._z_cols, weights):
            out += w * v[self.row + c]
        return out

    def tensor(self, v, weights):
        """Sum_l sum_k w_l w_k * v[tap_lk] over the tensor taps."""
        out = np.zeros(self.at.size)
        for r, wr in zip(self._x_rows, weights):
            for c, wc in zip(self._z_cols, weights):
                out += wr * wc * v[r + c]
        return out


def _check_level(level: int, spec: GridSpec, what: str):
    if not spec.j_min <= level <= spec.j_max - 1:
        raise ValueError(
            f"{what} level {level} outside [{spec.j_min}, {spec.j_max - 1}]"
        )


def _level(pyramid, level, mask, bank, plan):
    """The plan's d1, d2, d3 and even-even points of one level, with the
    finest-lattice offsets of the prediction and of the update taps, or
    None when the level holds no masked detail."""
    if plan is None:
        plan = MaskPlan(mask, pyramid.spec)
    points = plan.levels[level - pyramid.j_min]
    if all(rows.size == 0 for rows, _ in points[:3]):
        return None
    h = pyramid.spec.stride(level + 1)
    return (points, (2 * bank.predict_offsets - 1) * h,
            (2 * bank.update_offsets + 1) * h)


def _by_block(pyramid, points, offsets, values):
    """Flat positions of the points in every stacked field, and
    values(taps) at them, built BLOCK points at a time so that the tap
    index arrays stay small even on a full lattice."""
    rows, cols = points
    parts = [(t.at, values(t)) for t in (
        _Taps(pyramid, (rows[i:i + BLOCK], cols[i:i + BLOCK]), offsets)
        for i in range(0, max(rows.size, 1), BLOCK))]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _restrict(pyramid: CoeffPyramid, plan: MaskPlan):
    """Zero every entry off the plan's mask: the masked entries move to
    a fresh zero buffer, at a cost that follows their number."""
    at = plan.rows * (pyramid.spec.n + 1) + plan.cols
    old = pyramid.padded.reshape(-1, pyramid.padded.shape[-1] ** 2)
    new = np.zeros(old.shape)
    for kept, values in zip(new, old):
        kept[at] = values[at]
    pyramid.padded = new.reshape(pyramid.padded.shape)


def fwt_step(pyramid: CoeffPyramid, level: int, mask, bank: FilterBank,
             plan: MaskPlan | None = None):
    """One forward level: split level-(level+1) values into details and
    level-(level) scaling coefficients, in place.

    Details and update sums are evaluated only at the masked positions
    that plan (built from mask when not given) lists for this level, so
    the work per level scales with the active point count there.
    Entries off the mask are expected to hold zero (fwt_full zeroes them
    at entry); a level without masked details is the identity and is
    skipped.
    """
    _check_level(level, pyramid.spec, "fwt")
    found = _level(pyramid, level, mask, bank, plan)
    if found is None:
        return pyramid
    (d1, d2, d3, even), predict, update = found
    pw = bank.predict_weights
    v = pyramid.padded.reshape(-1)

    # Detail passes read the untouched level-(level+1) values.
    at1, x1 = _by_block(pyramid, d1, predict, lambda t: 0.5 * (
        v[t.at] - t.along_x(v, pw)))
    at2, x2 = _by_block(pyramid, d2, predict, lambda t: 0.5 * (
        v[t.at] - t.along_z(v, pw)))
    at3, x3 = _by_block(pyramid, d3, predict, lambda t: 0.25 * (
        v[t.at] - t.along_x(v, pw) - t.along_z(v, pw) + t.tensor(v, pw)))
    v[at1] = x1
    v[at2] = x2
    v[at3] = x3

    # Scaling update reads the freshly written details and lifts with
    # the predict values at the update offsets (see the filters module).
    at, lift = _by_block(pyramid, even, update, lambda t: (
        t.along_x(v, pw) + t.along_z(v, pw) + t.tensor(v, pw)))
    v[at] += lift
    return pyramid


def iwt_step(pyramid: CoeffPyramid, level: int, mask, bank: FilterBank,
             plan: MaskPlan | None = None):
    """One inverse level: exact inverse of fwt_step on the same mask."""
    _check_level(level, pyramid.spec, "iwt")
    found = _level(pyramid, level, mask, bank, plan)
    if found is None:
        return pyramid
    (d1, d2, d3, even), predict, update = found
    pw = bank.predict_weights
    v = pyramid.padded.reshape(-1)

    # Undo the scaling update (reads the stored details).
    at, lift = _by_block(pyramid, even, update, lambda t: (
        t.along_x(v, pw) + t.along_z(v, pw) + t.tensor(v, pw)))
    v[at] -= lift

    # Rebuild the singly odd points from the restored even-even values.
    at, x = _by_block(pyramid, d1, predict, lambda t: (
        2.0 * v[t.at] + t.along_x(v, pw)))
    v[at] = x
    at, x = _by_block(pyramid, d2, predict, lambda t: (
        2.0 * v[t.at] + t.along_z(v, pw)))
    v[at] = x

    # Rebuild the odd-odd points from the values rebuilt above.
    at, x = _by_block(pyramid, d3, predict, lambda t: (
        4.0 * v[t.at] + t.along_x(v, pw) + t.along_z(v, pw)
        - t.tensor(v, pw)))
    v[at] = x
    return pyramid


def fwt_full(pyramid: CoeffPyramid, mask, bank: FilterBank, *, check=True,
             plan: MaskPlan | None = None):
    """Forward transform down to the coarsest level, physical -> wavelet.

    The mask's plan is built once, unless the caller passes it, and
    shared by every level.  check=False skips the stencil-closure
    validation of the mask; callers holding a mask straight out of the
    closure operations may do so, since those guarantee the property by
    construction.
    """
    if pyramid.state != PHYSICAL:
        raise ValueError(f"fwt_full requires physical state, got {pyramid.state}")
    if check:
        require_closed(mask, pyramid.spec, bank, "fwt_full")
    if plan is None:
        plan = MaskPlan(mask, pyramid.spec)
    _restrict(pyramid, plan)
    for level in range(pyramid.j_max - 1, pyramid.j_min - 1, -1):
        fwt_step(pyramid, level, mask, bank, plan)
    pyramid.state = WAVELET
    return pyramid


def iwt_full(pyramid: CoeffPyramid, mask, bank: FilterBank, *, check=True,
             plan: MaskPlan | None = None):
    """Inverse transform up to the finest level, wavelet -> physical.

    check and plan are as in fwt_full.
    """
    if pyramid.state != WAVELET:
        raise ValueError(f"iwt_full requires wavelet state, got {pyramid.state}")
    if check:
        require_closed(mask, pyramid.spec, bank, "iwt_full")
    if plan is None:
        plan = MaskPlan(mask, pyramid.spec)
    _restrict(pyramid, plan)
    for level in range(pyramid.j_min, pyramid.j_max):
        iwt_step(pyramid, level, mask, bank, plan)
    pyramid.state = PHYSICAL
    return pyramid


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
    if zeta == 0:
        survivors = base
    else:
        dropped = base & (np.abs(pyramid.data) < zeta)
        pyramid.data[dropped] = 0.0
        survivors = base & ~dropped
    return pyramid, spec.coarse_mask() | survivors


def interpolate_missing(field_values, old_mask, new_mask, spec: GridSpec,
                        bank: FilterBank, *, check=True):
    """Field on new_mask: old values kept bitwise, new points interpolated.

    Transforms the field on old_mask, drops coefficients outside
    new_mask, reconstructs on new_mask, then copies the original values
    back onto the overlap so points present in both masks are untouched.
    field_values may also be a stack or a sequence of fields, shape
    (k, n, n), which share the two transforms and their plans.  check has
    the same meaning as in fwt_full and covers both masks.  Values are
    copied at the listed points of the masks only.
    """
    if not (new_mask & ~old_mask).any():
        # Copy-back would restore every point of new_mask anyway.
        return CoeffPyramid(field_values, spec, where=new_mask).data
    pyramid = CoeffPyramid.from_field(field_values, spec, mask=old_mask)
    fwt_full(pyramid, old_mask, bank, check=check)
    iwt_full(pyramid, new_mask, bank, check=check)
    # iwt_full left every entry off new_mask at zero.
    kept = masked_points(old_mask & new_mask)
    _, fields = _fields(field_values)
    for out, field in zip(pyramid.padded.reshape(len(fields), -1), fields):
        out[kept.padded()] = field[kept.rows, kept.cols]
    return pyramid.data
