"""Property tests over random masks, against the loop oracles.

Random grids and masks come from hypothesis; the module is skipped when
hypothesis is not installed.  Each mask mixes random points with whole
emptied lines, whole filled lines, isolated points and edge rows and
columns, the cases where sorted-coordinate gaps and edge taps go wrong.
"""

import contextlib
import copy
import re
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_derivatives import oracle_diff  # noqa: E402
from test_grid import (  # noqa: E402
    oracle_closure,
    oracle_extend,
    oracle_levels,
    oracle_stencil_taps,
)
from test_wavelets import oracle_fwt, oracle_iwt  # noqa: E402

from awcmaxwell import derivatives  # noqa: E402
from awcmaxwell.derivatives import diff_x, diff_z  # noqa: E402
from awcmaxwell.config import SimulationConfig  # noqa: E402
from awcmaxwell.errors import InstabilityError, MaskClosureError  # noqa: E402
from awcmaxwell.filters import build_filter_bank  # noqa: E402
from awcmaxwell.grid import (  # noqa: E402
    GridSpec,
    MaskGrid,
    Taps,
    add_adjacent_zone,
    compute_levels,
    extend_for_derivatives,
    finest_level,
    lattice_level,
    masked_points,
    reconstruction_check,
    require_closed,
    store,
    zone_lattice,
)
from awcmaxwell.solver import FieldState, Simulation  # noqa: E402
from awcmaxwell.wavelets import (  # noqa: E402
    WAVELET,
    CoeffPyramid,
    fwt_full,
    interpolate_missing,
    iwt_full,
    threshold_coeffs,
)

# Fixed examples keep the suite reproducible; no example database.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def grids(draw, max_j=5, min_j=2):
    j_max = draw(st.integers(min_j, max_j))
    j_min = draw(st.integers(1, j_max - 1))
    return GridSpec(j_min, j_max)


@st.composite
def masks(draw, spec):
    n = spec.n
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < density
    index = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    for r in draw(st.lists(index, max_size=3)):
        mask[r, :] = False
    for c in draw(st.lists(index, max_size=3)):
        mask[:, c] = False
    for r in draw(st.lists(index, max_size=2)):
        mask[r, :] = True
    for c in draw(st.lists(index, max_size=2)):
        mask[:, c] = True
    for r, c in draw(st.lists(st.tuples(index, index), max_size=4)):
        mask[r, c] = True
    return mask


@st.composite
def masks_to_level(draw, spec):
    """A masks(spec) mask with its points born at a random level or
    coarser, so that a property that depends on a mask's finest level is
    tested at every level: nearly every masks(spec) mask has a point
    born at j_max."""
    born = draw(st.integers(spec.j_min, spec.j_max))
    return draw(masks(spec)) & (spec.birth <= born)


@st.composite
def closed_cases(draw, max_j=5, orders=(2, 3, 4), min_j=2):
    """Grid, filter bank, stencil-closed mask and a field pair on it."""
    spec = draw(grids(max_j, min_j))
    bank = build_filter_bank(draw(st.sampled_from(orders)))
    mask = reconstruction_check(draw(masks_to_level(spec)), spec, bank)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = rng.standard_normal((2, spec.n, spec.n))
    return spec, bank, mask, fields


@PROPERTY
@given(st.data())
def test_compute_levels_matches_oracle_on_random_masks(data):
    spec = data.draw(grids())
    mask = data.draw(masks(spec))
    np.testing.assert_array_equal(
        compute_levels(mask, spec, masked_points(mask)),
        oracle_levels(mask, spec))


@PROPERTY
@given(st.data())
def test_closures_only_add_points_and_are_idempotent(data):
    spec = data.draw(grids())
    bank = build_filter_bank(data.draw(st.sampled_from([2, 3, 4])))
    mask = data.draw(masks_to_level(spec)) | spec.coarse_mask()
    zone = add_adjacent_zone(mask, spec)
    closed = reconstruction_check(zone, spec, bank)
    assert (zone >= mask).all() and (closed >= zone).all()
    np.testing.assert_array_equal(oracle_closure(closed, spec, bank), closed)
    np.testing.assert_array_equal(reconstruction_check(closed, spec, bank),
                                  closed)


@PROPERTY
@given(st.data())
def test_require_closed_names_a_masked_point_and_its_absent_tap(data):
    # It raises exactly when the loop closure would add a point, and the
    # pair it names is a masked detail point and a tap of its stencil
    # that the mask lacks.
    spec = data.draw(grids())
    bank = build_filter_bank(data.draw(st.sampled_from([2, 3, 4])))
    mask = data.draw(masks_to_level(spec))
    closed = (oracle_closure(mask, spec, bank) == mask).all()
    try:
        require_closed(mask, spec, bank, "test")
    except MaskClosureError as err:
        found = re.search(r"point \((\d+), (\d+)\) needs absent tap "
                          r"\((\d+), (\d+)\)", str(err))
        pm, pn, tm, tn = (int(v) for v in found.groups())
        assert not closed
        assert mask[pm, pn] and spec.detail[pm, pn]
        assert (tm, tn) in oracle_stencil_taps(spec, bank, pm, pn)
        assert not mask[tm, tn]
    else:
        assert closed


@PROPERTY
@given(closed_cases(max_j=4))
def test_fwt_full_matches_loop_oracle_on_random_masks(case):
    spec, bank, mask, fields = case
    pyr = CoeffPyramid.from_field(fields[0], spec, mask=mask)
    fwt_full(pyr, MaskGrid(mask, spec, bank))
    want = oracle_fwt(fields[0], mask, spec, bank)
    np.testing.assert_allclose(pyr.data, want, atol=1e-13)


@PROPERTY
@given(closed_cases(max_j=4), st.sampled_from(["mask", "larger", "all"]),
       st.data())
def test_iwt_full_matches_loop_oracle_on_random_masks(case, stored, data):
    # Random coefficients on the mask; or, as when a regrid drops points,
    # on a larger closed mask (or everywhere) and then inverted on the
    # smaller one, which must act as if those outside it were zero.
    spec, bank, mask, fields = case
    where = {"mask": mask, "all": True, "larger": reconstruction_check(
        mask | data.draw(masks(spec)), spec, bank)}[stored]
    pyr = CoeffPyramid(fields[0], spec, WAVELET, where=where)
    iwt_full(pyr, MaskGrid(mask, spec, bank))
    want = oracle_iwt(fields[0], mask, spec, bank)
    np.testing.assert_allclose(pyr.data, want, atol=1e-13)


@PROPERTY
@given(closed_cases(max_j=4))
def test_mask_plan_lifts_exactly_the_evens_near_a_detail(case):
    # The evens listed at a level are the masked ones with a masked d1
    # point (along x) or d2 point (along z) within update reach; every
    # other masked even gets an exactly zero lift from the oracle.
    spec, bank, mask, fields = case
    lifts = {}
    oracle_fwt(fields[0], mask, spec, bank, lifts)
    reach = [2 * int(l) - 1 for l in bank.predict_offsets]
    plan = MaskGrid(mask, spec, bank).plan
    for level, (_, _, _, even) in enumerate(plan, spec.j_min):
        h, n = spec.stride(level + 1), spec.n
        listed = set(zip(even[0].tolist(), even[1].tolist()))
        assert len(listed) == even[0].size
        want = {(r, c) for r in range(0, n, 2 * h) for c in range(0, n, 2 * h)
                if mask[r, c] and any(
                    (0 <= r + u * h < n and mask[r + u * h, c])
                    or (0 <= c + u * h < n and mask[r, c + u * h])
                    for u in reach)}
        assert listed == want
        left_out = [lift for (at_level, r, c), lift in lifts.items()
                    if at_level == level and (r, c) not in listed]
        assert all(lift == 0.0 for lift in left_out)


@PROPERTY
@given(closed_cases())
def test_round_trip_on_random_closed_masks(case):
    # Lifting in floating point gives back the field to round-off, not
    # bit for bit: (a + b) - b need not equal a.
    spec, bank, mask, fields = case
    field = np.where(mask, fields[0], 0.0)
    pyr = CoeffPyramid.from_field(fields[0], spec, mask=mask)
    grid = MaskGrid(mask, spec, bank)
    fwt_full(pyr, grid)
    iwt_full(pyr, grid)
    assert np.max(np.abs(pyr.data - field), initial=0.0) <= 1e-12
    assert (pyr.data[~mask] == 0.0).all()


@PROPERTY
@given(closed_cases())
def test_stacked_pair_matches_single_transforms_bitwise(case):
    spec, bank, mask, fields = case
    grid = MaskGrid(mask, spec, bank)
    pair = CoeffPyramid.from_field(fields, spec, mask=mask)
    fwt_full(pair, grid)
    singles = [CoeffPyramid.from_field(f, spec, mask=mask) for f in fields]
    for single, coeffs in zip(singles, pair.data):
        fwt_full(single, grid)
        np.testing.assert_array_equal(coeffs, single.data)
    iwt_full(pair, grid)
    for single, values in zip(singles, pair.data):
        iwt_full(single, grid)
        np.testing.assert_array_equal(values, single.data)


@PROPERTY
@given(closed_cases(), st.data())
def test_interpolate_missing_pair_matches_single_calls_bitwise(case, data):
    # New masks that grow, shrink or move the old one; a closed subset
    # of a closed mask closes inside it.
    spec, bank, old, fields = case
    other = data.draw(masks(spec))
    combine = data.draw(st.sampled_from([np.logical_or, np.logical_and,
                                         lambda a, b: b]))
    new = reconstruction_check(combine(old, other), spec, bank)
    grids = MaskGrid(old, spec, bank), MaskGrid(new, spec, bank)
    pair = interpolate_missing(fields, *grids)
    for field, got in zip(fields, pair):
        np.testing.assert_array_equal(got, interpolate_missing(field, *grids))
        keep = old & new
        np.testing.assert_array_equal(got[keep], field[keep])
        assert (got[~new] == 0.0).all()


@st.composite
def regrid_cases(draw, orders=(2, 3, 4), min_j=2):
    """A closed_cases case with a new closed mask that grows, shrinks or
    moves the old one: grid, filter bank, old and new masks and a field
    pair."""
    spec, bank, old, fields = draw(closed_cases(6, orders, min_j))
    combine = draw(st.sampled_from([np.logical_or, np.logical_and,
                                    lambda a, b: b]))
    new = reconstruction_check(combine(old, draw(masks_to_level(spec))),
                               spec, bank)
    return spec, bank, old, new, fields


@st.composite
def gain_cases(draw, orders=(2, 3, 4), min_j=2):
    """A closed_cases case with a detail point added, whose mask is the
    new one, and an old mask that lacks some of its detail points, one
    at least, and may hold points off it: grid, filter bank, old and new
    masks and a field pair.  Unlike regrid_cases, most gained points
    have kept taps."""
    spec, bank, new, fields = draw(closed_cases(6, orders, min_j))
    detail = np.argwhere(spec.detail)
    new[tuple(detail[draw(st.integers(0, len(detail) - 1))])] = True
    new = reconstruction_check(new, spec, bank)
    details = np.argwhere(new & spec.detail)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fraction = draw(st.sampled_from([0.0, 0.05, 0.3]))
    old = new & ~(rng.random(new.shape) < fraction)
    old[tuple(details[draw(st.integers(0, len(details) - 1))])] = False
    if draw(st.booleans()):
        old |= draw(masks_to_level(spec)) & ~new
    return spec, bank, old | (new & ~spec.detail), new, fields


def regrid(fields, old, new, spec, bank):
    return interpolate_missing(fields, MaskGrid(old, spec, bank),
                               MaskGrid(new, spec, bank))


def within_reach(points, spec, bank):
    """The mask of the points within some listed point's prediction
    reach: 2N - 1 strides of its birth level along either axis or both,
    which covers its taps and, for a d3 point, the taps of the d2
    details it reads."""
    near = np.zeros_like(points)
    for r, c in np.argwhere(points):
        reach = (2 * bank.order - 1) * spec.stride(spec.birth[r, c])
        near[max(r - reach, 0):r + reach + 1,
             max(c - reach, 0):c + reach + 1] = True
    return near


@PROPERTY
@given(gain_cases(), st.integers(0, 2**32 - 1))
def test_interpolate_missing_reads_only_within_each_gained_points_reach(
        case, seed):
    # Kept values farther from every gained point than its reach are
    # changed; no gained value moves, bit for bit.
    spec, bank, old, new, fields = case
    gained = new & ~old
    far = old & new & ~within_reach(gained, spec, bank)
    assume(gained.any() and far.any())
    moved = fields.copy()
    moved[:, far] = np.random.default_rng(seed).standard_normal(
        (2, int(far.sum())))
    before, after = (regrid(f, old, new, spec, bank)
                     for f in (fields, moved))
    assert before[:, gained].tobytes() == after[:, gained].tobytes()


def exactly_predicted(kept, gained, spec, bank):
    """The gained points whose every tap lies inside the lattice and
    holds a kept value or one so predicted: the x taps of a d1 point,
    the z taps of a d2 point, and the z and x taps of a d3 point and the
    z taps of the kept d2 points among its x taps, whose details it
    reads.  A polynomial the prediction reproduces is reproduced there."""
    n = spec.n
    exact = kept.copy()

    def holds(points):
        return all(0 <= r < n and 0 <= c < n and exact[r, c]
                   for r, c in points)

    for b in range(spec.j_min + 1, spec.j_max + 1):
        h = spec.stride(b)
        shifts = [(2 * int(l) - 1) * h for l in bank.predict_offsets]
        born = np.argwhere(gained & (spec.birth == b))
        # d1, d3, d2: the order in which the fill passes over them.
        for kind in ((1, 0), (1, 1), (0, 1)):
            for r, c in born[((born // h) % 2 == kind).all(axis=1)]:
                x_taps = [(r + s, c) for s in shifts]
                z_taps = [(r, c + s) for s in shifts]
                if kind == (1, 0):
                    ok = holds(x_taps)
                elif kind == (0, 1):
                    ok = holds(z_taps)
                else:
                    ok = holds(z_taps) and all(
                        0 <= tr < n and (not kept[tr, tc] or holds(
                            (tr, tc + s) for s in shifts))
                        for tr, tc in x_taps)
                exact[r, c] = ok
    return exact & gained


@PROPERTY
@given(st.one_of(gain_cases((4,), min_j=4), regrid_cases((4,), min_j=4)),
       st.integers(0, 2**32 - 1))
def test_interpolate_missing_reproduces_a_cubic(case, seed):
    # Order 4 predicts cubics exactly: a bicubic on the kept points is
    # reproduced at every gained point whose taps lie inside the lattice.
    spec, bank, old, new, _ = case
    axis = np.linspace(0.0, 1.0, spec.n)
    coefficients = np.random.default_rng(seed).standard_normal((4, 4))
    field = np.polynomial.polynomial.polygrid2d(axis, axis, coefficients)
    exact = exactly_predicted(old & new, new & ~old, spec, bank)
    assume(exact.any())
    got = regrid(field, old, new, spec, bank)
    scale = np.abs(field).max()
    assert np.abs(got[exact] - field[exact]).max() <= 1e-12 * scale


@PROPERTY
@given(regrid_cases(), st.data())
def test_interpolate_missing_leaves_a_gained_coarse_point_at_zero(case,
                                                                  data):
    # The old mask lacks a point of the coarse lattice that the new one
    # holds: nothing coarser predicts it.  Coarse points spawn no
    # stencil, so the new mask stays closed.
    spec, bank, old, new, fields = case
    coarse = np.argwhere(spec.coarse_mask())
    r, c = coarse[data.draw(st.integers(0, len(coarse) - 1))]
    old = old.copy()
    old[r, c] = False
    new = new | spec.coarse_mask()
    out = regrid(fields, old, new, spec, bank)
    gained = new & ~old & spec.coarse_mask()
    assert gained[r, c]
    assert (out[:, gained] == 0.0).all()
    np.testing.assert_array_equal(out[:, old & new], fields[:, old & new])


# What each consumer reads from a grid.
READS = ("fwt_full", "iwt_full", "extend_for_derivatives", "diff_x",
         "diff_z")


def read(name, grid, fields):
    spec, bank, mask = grid.spec, grid.bank, grid.mask
    if name == "fwt_full":
        return fwt_full(CoeffPyramid.from_field(fields, spec, mask=mask),
                        grid).data
    if name == "iwt_full":
        return iwt_full(CoeffPyramid(fields, spec, WAVELET), grid).data
    if name == "extend_for_derivatives":
        return extend_for_derivatives(grid)
    fn = diff_x if name == "diff_x" else diff_z
    return fn(fields[0], mask, grid, spec, bank, 2.0)


def held_arrays(grid):
    """Every array a grid hands out."""
    plan = [axis for level in grid.plan for kind in level for axis in kind]
    return [grid.mask, *grid.points, grid.levels, grid.stencil[0], *plan]


@PROPERTY
@given(closed_cases(max_j=4), st.permutations(READS * 2))
def test_a_grid_read_by_every_consumer_reads_as_a_fresh_one(case, order):
    # One grid, read by every consumer in any order and twice over, gives
    # the bytes a grid built for that read alone gives, and what it holds
    # cannot be written.
    spec, bank, mask, fields = case
    shared = MaskGrid(mask, spec, bank)
    for name in order:
        got = read(name, shared, fields)
        want = read(name, MaskGrid(mask, spec, bank), fields)
        assert got.tobytes() == want.tobytes(), name
    for array in held_arrays(shared):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        shared.points.flat[:1] = 0
    assert mask.flags.writeable


@st.composite
def tap_cases(draw):
    """Lattice, the width of a transform's or a derivative's store,
    random points with rows and columns on all four edges among them, and
    1 or 2 stacked fields."""
    j_max = draw(st.integers(2, 6))
    spec = GridSpec(draw(st.integers(1, j_max - 1)), j_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = rng.integers(0, spec.n, (2, draw(st.integers(0, 40))))
    rows[::3] = rng.choice([0, spec.n - 1], rows[::3].size)
    cols[1::3] = rng.choice([0, spec.n - 1], cols[1::3].size)
    values = rng.standard_normal((draw(st.sampled_from([1, 2])), spec.n,
                                  spec.n))
    width = draw(st.sampled_from([spec.transform_width,
                                  spec.derivative_width]))
    return spec, width, rows, cols, values, rng


@PROPERTY
@given(tap_cases(), st.booleans(), st.integers(1, 4))
def test_taps_match_zero_extension_oracles(case, per_point, count):
    # Shifts reach the whole margin, the first and last of them exactly.
    spec, width, rows, cols, values, rng = case
    k, n, reach = values.shape[0], spec.n, width - spec.n
    taps = Taps(width, rows, cols, k)
    padded, data = store(spec, width, (k,))
    data[...] = values
    stored = padded.reshape(-1)
    assert stored[taps.at].tobytes() == values[:, rows, cols].tobytes()
    wide = np.pad(values, ((0, 0), (reach, reach), (reach, reach)))
    weights = rng.standard_normal(count)
    for axis in (0, 1):
        shifts = [rng.integers(-reach, reach + 1, rows.size) if per_point
                  else int(rng.integers(-reach, reach + 1)) for _ in weights]
        shifts[0] = np.full(rows.size, -reach) if per_point else -reach
        shifts[-1] = np.full(rows.size, reach) if per_point else reach
        moves = [(shift, 0) if axis == 0 else (0, shift) for shift in shifts]
        want = np.zeros((k, rows.size))
        for (dr, dc), weight in zip(moves, weights):
            want += weight * wide[:, rows + reach + dr, cols + reach + dc]
        got = taps.sum(stored, (shift * taps.step[axis] for shift in shifts),
                       weights)
        assert got.tobytes() == want.tobytes()
        # A scatter past an edge lands in the margin, which is cropped.
        for shift, (dr, dc) in zip(shifts, moves):
            moved = taps.at.reshape(k, -1) + shift * taps.step[axis]
            assert np.all((moved >= -stored.size) & (moved < stored.size))
            hit, inside = store(spec, width, (k,), dtype=bool)
            hit.reshape(-1)[moved] = True
            r, c = np.broadcast_arrays(rows + dr, cols + dc)
            within = (r >= 0) & (r < n) & (c >= 0) & (c < n)
            expect = np.zeros((k, n, n), dtype=bool)
            expect[:, r[within], c[within]] = True
            np.testing.assert_array_equal(inside, expect)



def whole_array_uniform(field, coeffs, scale, axis):
    """The uniform derivative in its whole-array form: one zero-padded
    copy of the field along axis, each tap c (v[+i] - v[-i]) formed in
    one mesh-sized buffer and added in place, then scaled once."""
    n, pad = field.shape[0], len(coeffs)

    def along(start):
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
    acc *= scale
    return acc


@st.composite
def band_cases(draw):
    """Lattice, a band height that does or does not divide its side, or
    covers it, and a field holding +-0.0, +-inf and nan among its
    values."""
    j_max = draw(st.integers(1, 7))
    n = (1 << j_max) + 1
    rows = draw(band_rows(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = with_specials(rng, rng.standard_normal((n, n)),
                          draw(st.sampled_from([0.0, 0.05, 0.5])))
    return GridSpec(0, j_max), rows, field


def band_rows(n):
    """Band heights for an n-row field: a divisor of n, or any height
    up to n + 2, so one band or several, the last one short or not."""
    return st.one_of(
        st.sampled_from([d for d in range(1, n + 1) if n % d == 0]),
        st.integers(1, n + 2))


def with_specials(rng, values, share):
    """The values, with about share of them made +-0.0, +-inf or nan."""
    special = rng.random(values.shape) < share
    values[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                                 np.count_nonzero(special))
    return values


def bit_patterns(values):
    """The values' bit patterns, as int64, with every NaN made one NaN.
    Of two NaN operands numpy's add and multiply return the first in
    their SIMD body and the second in its scalar tail, so a NaN's sign
    follows where an entry falls in a loop, which bands move."""
    return np.where(np.isnan(values), np.nan, values).view(np.int64)


@PROPERTY
@given(band_cases(), st.sampled_from([2, 3, 4]))
def test_banded_uniform_derivative_equals_the_whole_array_form(case, order):
    # Bit for bit, +-0.0 and +-inf included; NaN where it gives NaN.
    spec, rows, field = case
    bank = build_filter_bank(order)
    with (mock.patch.object(derivatives, "BAND_BYTES", rows * 8 * spec.n),
          np.errstate(invalid="ignore")):
        for axis, fn in ((0, diff_x), (1, diff_z)):
            got = fn(field, spec.full_mask(), None, spec, bank, 2.5)
            want = whole_array_uniform(field, bank.deriv_filter,
                                       2.0**spec.j_max / 2.5, axis)
            assert bit_patterns(got).tobytes() == (
                bit_patterns(want).tobytes()), (axis, rows)


SPLIT_AND_H = ("eyx", "eyz", "hx", "hz")
COEFFICIENTS = ("ea_x", "eb_x", "hb_x", "ea_z", "eb_z", "hb_z")


def whole_array_update(sim, state):
    """The full-grid field update in its whole-array form: Ey, four
    whole derivatives and four new fields combine(a * field,
    b * derivative), the derivative scaled in place; then the boundary
    ring of the splits zeroed.  The state is left as it is."""
    level = lattice_level(state.eyx.shape[-1])
    s = sim.spec.stride(level)
    ea_x, eb_x, hb_x, ea_z, eb_z, hb_z = (
        getattr(sim, name)[::s, ::s] for name in COEFFICIENTS)
    scale = 2.0**level / sim.length_m

    def advance(a, field, combine, b, source, axis):
        derivative = whole_array_uniform(source, sim.bank.deriv_filter,
                                         scale, axis)
        derivative *= b
        out = a * field
        return combine(out, derivative, out=out)

    ey = state.eyx + state.eyz
    hx = advance(ea_z, state.hx, np.add, hb_z, ey, 1)
    hz = advance(ea_x, state.hz, np.subtract, hb_x, ey, 0)
    eyz = advance(ea_z, state.eyz, np.add, eb_z, hx, 1)
    eyx = advance(ea_x, state.eyx, np.subtract, eb_x, hz, 0)
    for part in (eyx, eyz):
        part[[0, -1], :] = part[:, [0, -1]] = 0.0
    return dict(eyx=eyx, eyz=eyz, hx=hx, hz=hz)


@st.composite
def update_cases(draw):
    """A full-grid PML Simulation, a state of four fields holding
    +-0.0, +-inf and nan among their values on a level-J lattice, J in
    2-7 (sides 5-129, the smallest a config allows up to 129) and at
    most jmax, and a band height; the layer's (n, n) coefficients are
    the built ones or random."""
    level = draw(st.integers(2, 7))
    n = (1 << level) + 1
    rows = draw(band_rows(n))
    sim = Simulation(SimulationConfig(jmin=1, jmax=draw(st.integers(level, 7)),
                                      boundary="PML", full_grid=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        for name in COEFFICIENTS:
            setattr(sim, name, rng.random(getattr(sim, name).shape) + 0.5)
    share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    fields = [with_specials(rng, rng.standard_normal((n, n)), share)
              for _ in SPLIT_AND_H]
    mask = np.ones((n, n), dtype=bool)
    sim.state = FieldState(*fields, mask0=mask, mask1=mask, mask2=mask)
    return sim, rows


@PROPERTY
@given(update_cases())
def test_banded_full_grid_update_equals_the_whole_array_form(case):
    # Bit for bit, +-0.0 and +-inf included; NaN where it gives NaN.  The
    # step writes into the state's own arrays, so a deep copy taken
    # before it keeps the state it was.
    sim, rows = case
    n = sim.state.eyx.shape[0]
    kept = copy.deepcopy(sim.state)
    before = {name: getattr(kept, name).tobytes() for name in SPLIT_AND_H}
    with np.errstate(all="ignore"):
        want = whole_array_update(sim, kept)
        with (mock.patch.object(derivatives, "BAND_BYTES", rows * 8 * n),
              contextlib.suppress(InstabilityError)):
            sim.update_step(None)
    for name in SPLIT_AND_H:
        assert bit_patterns(getattr(sim.state, name)).tobytes() == (
            bit_patterns(want[name]).tobytes()), (name, rows)
        assert getattr(kept, name).tobytes() == before[name], name

@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from(["PML", "PEC"]),
       st.booleans())
def test_update_coefficients_are_read_only_fields(jmin, levels, boundary,
                                                  full_grid):
    # Laid out like the fields, (n, n), so one gather reads either; the
    # x ones constant along z, the z ones along x, one profile each pair.
    sim = Simulation(SimulationConfig(jmin=jmin, jmax=jmin + levels,
                                      boundary=boundary, full_grid=full_grid,
                                      steps=0))
    n = sim.spec.n
    for name in COEFFICIENTS:
        coefficient = getattr(sim, name)
        assert coefficient.shape == (n, n), name
        assert not coefficient.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            coefficient[0, 0] = 0.0
    for x, z in (("ea_x", "ea_z"), ("eb_x", "eb_z"), ("hb_x", "hb_z")):
        column = getattr(sim, x)
        assert (column == column[:, :1]).all(), x
        np.testing.assert_array_equal(getattr(sim, z), column.T)


@PROPERTY
@given(closed_cases(max_j=4))
def test_masked_derivatives_match_loop_oracle_on_random_masks(case):
    # At the grid's points, in their order.
    spec, bank, mask, fields = case
    grid = MaskGrid(mask, spec, bank)
    rows, cols, _ = grid.points
    for axis, fn in ((0, diff_x), (1, diff_z)):
        got = fn(fields[0], mask, grid, spec, bank, 2.0)
        want = oracle_diff(fields[0], mask, grid.levels, spec, bank, 2.0,
                           axis)
        np.testing.assert_allclose(got, want[rows, cols], rtol=1e-12,
                                   atol=1e-12)


@PROPERTY
@given(closed_cases(max_j=4))
def test_extend_for_derivatives_matches_loop_oracle(case):
    spec, bank, mask, _ = case
    mask = reconstruction_check(mask | spec.coarse_mask(), spec, bank)
    grid = MaskGrid(mask, spec, bank)
    grown = extend_for_derivatives(grid)
    np.testing.assert_array_equal(grown,
                                  oracle_extend(mask, spec, grid.levels, bank))
    assert (grown >= mask).all() and grown[spec.coarse_mask()].all()
    np.testing.assert_array_equal(oracle_closure(grown, spec, bank), grown)


# ------------------------------------------------- coarser working lattices


@PROPERTY
@given(st.data())
def test_adjacent_zone_lies_on_the_zone_lattice_and_needs_it(data):
    # A thinned mask: the coarse lattice plus random details born at a
    # random level or coarser.  Its adjacent zone on the whole mesh lies
    # on zone_lattice's lattice and, when that is finer than j_min + 1,
    # not on the one a level coarser.
    spec = data.draw(grids(max_j=6))
    mask = spec.coarse_mask() | data.draw(masks_to_level(spec))
    zone = add_adjacent_zone(mask, spec)
    lattice = zone_lattice(finest_level(mask, spec), spec)
    assert lattice.j_min == spec.j_min

    def on_lattice(level):
        s = spec.stride(level)
        off = np.ones_like(zone)
        off[::s, ::s] = False
        return not zone[off].any()

    assert on_lattice(lattice.j_max)
    if lattice.j_max > spec.j_min + 1:
        assert not on_lattice(lattice.j_max - 1)


@st.composite
def lattice_cases(draw):
    """Grid, a level J of it, the grid of the level-J lattice, filter bank
    and a mask drawn on that lattice: random, or (one case in four) the
    whole lattice, whose points then all get the uniform level J."""
    spec = draw(grids())
    level = draw(st.integers(spec.j_min + 1, spec.j_max))
    coarse = spec.lattice(level)
    bank = build_filter_bank(draw(st.sampled_from([2, 3, 4])))
    whole = draw(st.integers(0, 3)) == 0
    mask = coarse.full_mask() if whole else draw(masks(coarse))
    return spec, coarse, bank, mask


def on_finest(values, spec, coarse):
    """A level-J lattice array as an (n, n) one, zero off the lattice."""
    s = spec.stride(coarse.j_max)
    out = np.zeros(values.shape[:-2] + (spec.n, spec.n), dtype=values.dtype)
    out[..., ::s, ::s] = values
    return out


def assert_lattice_result(fine, got, spec, coarse):
    """The (n, n) result equals the lattice's bit for bit at the lattice's
    points and is zero or False off them."""
    s = spec.stride(coarse.j_max)
    assert fine[..., ::s, ::s].tobytes() == got.tobytes()
    off = np.ones((spec.n, spec.n), dtype=bool)
    off[::s, ::s] = False
    assert not fine[..., off].any()


@PROPERTY
@given(lattice_cases())
def test_closures_and_levels_on_a_coarser_lattice_match_the_finest(case):
    spec, coarse, bank, mask = case
    fine = on_finest(mask, spec, coarse)
    assert finest_level(fine, spec) == finest_level(mask, coarse) == max(
        spec.birth[fine], default=spec.j_min)
    assert_lattice_result(reconstruction_check(fine, spec, bank),
                          reconstruction_check(mask, coarse, bank),
                          spec, coarse)
    # The adjacent zone reaches one level finer than its points, so its
    # mask holds the points of the lattice one level coarser (adapt_step
    # goes one level finer when a survivor is born at its lattice's
    # finest level), or of the finest one.
    zoned = mask
    if coarse.j_max < spec.j_max:
        zoned = np.zeros_like(mask)
        zoned[::2, ::2] = mask[::2, ::2]
    assert_lattice_result(add_adjacent_zone(on_finest(zoned, spec, coarse),
                                            spec),
                          add_adjacent_zone(zoned, coarse), spec, coarse)
    closed = reconstruction_check(mask | coarse.coarse_mask(), coarse, bank)
    grid = MaskGrid(closed, coarse, bank)
    fine_grid = MaskGrid(on_finest(closed, spec, coarse), spec, bank)
    assert_lattice_result(fine_grid.levels, grid.levels, spec, coarse)
    assert_lattice_result(extend_for_derivatives(fine_grid),
                          extend_for_derivatives(grid), spec, coarse)


@PROPERTY
@given(lattice_cases(), st.data())
def test_transforms_and_threshold_on_a_coarser_lattice_match_the_finest(
        case, data):
    spec, coarse, bank, mask = case
    closed = reconstruction_check(mask, coarse, bank)
    fine_mask = on_finest(closed, spec, coarse)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fields = on_finest(rng.standard_normal((2, coarse.n, coarse.n)), spec,
                       coarse)
    s = spec.stride(coarse.j_max)
    fine_grid, grid = (MaskGrid(fine_mask, spec, bank),
                       MaskGrid(closed, coarse, bank))
    for fine_level, level in zip(fine_grid.plan, grid.plan):
        for (fine_r, fine_c), (r, c) in zip(fine_level, level):
            assert fine_r.tobytes() == (r * s).tobytes()
            assert fine_c.tobytes() == (c * s).tobytes()
    fine, got = (CoeffPyramid.from_field(fields, spec, mask=fine_mask),
                 CoeffPyramid.from_field(fields[:, ::s, ::s], coarse,
                                         mask=closed))
    fwt_full(fine, fine_grid)
    fwt_full(got, grid)
    assert_lattice_result(fine.data, got.data, spec, coarse)
    # Inverted on the mask, through the same grids, or on a closed part
    # of it, as a regrid drops points.
    if data.draw(st.booleans()):
        smaller = reconstruction_check(closed & data.draw(masks(coarse)),
                                       coarse, bank)
        fine_grid, grid = (MaskGrid(on_finest(smaller, spec, coarse), spec,
                                    bank), MaskGrid(smaller, coarse, bank))
    iwt_full(fine, fine_grid)
    iwt_full(got, grid)
    assert_lattice_result(fine.data, got.data, spec, coarse)
    # Standard normal coefficients: a threshold of 0.5 drops about a third.
    fine, thinned_fine = threshold_coeffs(
        CoeffPyramid(fields[0], spec, WAVELET, where=fine_mask), 0.5,
        mask=fine_mask)
    got, thinned = threshold_coeffs(
        CoeffPyramid(fields[0, ::s, ::s], coarse, WAVELET, where=closed), 0.5,
        mask=closed)
    assert_lattice_result(fine.data, got.data, spec, coarse)
    assert_lattice_result(thinned_fine, thinned, spec, coarse)


@PROPERTY
@given(lattice_cases(), st.integers(0, 2**32 - 1))
def test_derivatives_on_a_coarser_lattice_match_the_finest(case, seed):
    # A whole coarser lattice with uniform levels is not the whole finest
    # one, so it takes the masked branch there too.  The lattice's points
    # keep their row-major order on the finest grid.
    spec, coarse, bank, mask = case
    closed = reconstruction_check(mask, coarse, bank)
    field = np.random.default_rng(seed).standard_normal(
        (coarse.n, coarse.n))
    fine_mask = on_finest(closed, spec, coarse)
    grid, fine_grid = (MaskGrid(closed, coarse, bank),
                       MaskGrid(fine_mask, spec, bank))
    for fn in (diff_x, diff_z):
        got = fn(field, closed, grid, coarse, bank, 2.0)
        want = fn(on_finest(field, spec, coarse), fine_mask, fine_grid, spec,
                  bank, 2.0)
        assert got.tobytes() == want.tobytes()
