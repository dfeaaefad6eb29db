"""Transforms against a direct loop implementation and hand values.

The oracles below evaluate the lifted decomposition and its inverse
directly in 2-D, the odd-odd detail and the scaling update with their
tensor terms, with explicit python loops and explicit zero extension,
sharing no code with the vectorized one-axis passes.
"""

import numpy as np
import pytest
from conftest import gaussian_field, traced_peak

from awcmaxwell.errors import ConfigError
from awcmaxwell.filters import build_filter_bank
from awcmaxwell.grid import (
    GridSpec,
    MaskGrid,
    add_adjacent_zone,
    reconstruction_check,
)
from awcmaxwell.wavelets import (
    PHYSICAL,
    WAVELET,
    CoeffPyramid,
    fwt_full,
    fwt_step,
    interpolate_missing,
    iwt_full,
    iwt_step,
    threshold_coeffs,
)

# ---------------------------------------------------------------- oracle


def _tap(arr, m, n):
    size = arr.shape[0]
    if 0 <= m < size and 0 <= n < size:
        return arr[m, n]
    return 0.0


def oracle_fwt(field, mask, spec, bank, lifts=None):
    """Forward transform; lifts, when given, receives the scaling update
    of every masked even-even point, keyed (level, row, col)."""
    w = bank.predict_weights
    po = [2 * int(l) - 1 for l in bank.predict_offsets]
    # The update lifts with the predict values, at the same offsets.
    u = bank.predict_weights
    a = np.where(mask, np.asarray(field, dtype=float), 0.0)
    for b in range(spec.j_max, spec.j_min, -1):
        h = spec.stride(b)
        v = a[::h, ::h].copy()
        mv = mask[::h, ::h]
        size = v.shape[0]
        detailed = v.copy()
        for m in range(size):
            for n in range(size):
                if m % 2 == 1 and n % 2 == 0:
                    pred = sum(w[i] * _tap(v, m + po[i], n) for i in range(len(w)))
                    val = 0.5 * (v[m, n] - pred)
                elif m % 2 == 0 and n % 2 == 1:
                    pred = sum(w[i] * _tap(v, m, n + po[i]) for i in range(len(w)))
                    val = 0.5 * (v[m, n] - pred)
                elif m % 2 == 1 and n % 2 == 1:
                    px = sum(w[i] * _tap(v, m + po[i], n) for i in range(len(w)))
                    pz = sum(w[i] * _tap(v, m, n + po[i]) for i in range(len(w)))
                    pxz = sum(
                        w[i] * w[k] * _tap(v, m + po[i], n + po[k])
                        for i in range(len(w))
                        for k in range(len(w))
                    )
                    val = 0.25 * (v[m, n] - px - pz + pxz)
                else:
                    continue
                detailed[m, n] = val if mv[m, n] else 0.0
        out = detailed.copy()
        for m in range(0, size, 2):
            for n in range(0, size, 2):
                if not mv[m, n]:
                    out[m, n] = 0.0
                    continue
                s1 = sum(u[i] * _tap(detailed, m + po[i], n) for i in range(len(u)))
                s2 = sum(u[i] * _tap(detailed, m, n + po[i]) for i in range(len(u)))
                s3 = sum(
                    u[i] * u[k] * _tap(detailed, m + po[i], n + po[k])
                    for i in range(len(u))
                    for k in range(len(u))
                )
                out[m, n] = detailed[m, n] + s1 + s2 + s3
                if lifts is not None:
                    lifts[b - 1, m * h, n * h] = s1 + s2 + s3
        a[::h, ::h] = out
    return a


def oracle_iwt(coeffs, mask, spec, bank):
    """Inverse transform of the coefficients on the mask, level by level
    from the coarsest: undo the update, rebuild d1 and d2 from the
    even-even values, then d3 with its tensor term."""
    w = bank.predict_weights
    po = [2 * int(l) - 1 for l in bank.predict_offsets]
    taps = range(len(w))
    a = np.where(mask, np.asarray(coeffs, dtype=float), 0.0)
    for b in range(spec.j_min + 1, spec.j_max + 1):
        h = spec.stride(b)
        c = a[::h, ::h].copy()
        mv = mask[::h, ::h]
        size = c.shape[0]
        v = np.zeros_like(c)
        for m in range(0, size, 2):
            for n in range(0, size, 2):
                if mv[m, n]:
                    s1 = sum(w[i] * _tap(c, m + po[i], n) for i in taps)
                    s2 = sum(w[i] * _tap(c, m, n + po[i]) for i in taps)
                    s3 = sum(w[i] * w[k] * _tap(c, m + po[i], n + po[k])
                             for i in taps for k in taps)
                    v[m, n] = c[m, n] - (s1 + s2 + s3)
        for m in range(size):
            for n in range(size):
                if mv[m, n] and m % 2 == 1 and n % 2 == 0:
                    px = sum(w[i] * _tap(v, m + po[i], n) for i in taps)
                    v[m, n] = 2.0 * c[m, n] + px
                elif mv[m, n] and m % 2 == 0 and n % 2 == 1:
                    pz = sum(w[i] * _tap(v, m, n + po[i]) for i in taps)
                    v[m, n] = 2.0 * c[m, n] + pz
        for m in range(1, size, 2):
            for n in range(1, size, 2):
                if mv[m, n]:
                    px = sum(w[i] * _tap(v, m + po[i], n) for i in taps)
                    pz = sum(w[i] * _tap(v, m, n + po[i]) for i in taps)
                    pxz = sum(w[i] * w[k] * _tap(v, m + po[i], n + po[k])
                              for i in taps for k in taps)
                    v[m, n] = 4.0 * c[m, n] + px + pz - pxz
        a[::h, ::h] = v
    return a


def clean_interior(spec, birth, order):
    """Positions at the given birth level whose coefficients are free of
    zero-extension boundary pollution, both axes."""
    margin = (2 * order - 1) * (3 * spec.stride(birth) - 2)
    idx = np.arange(spec.n)
    dist = np.minimum(idx, spec.n - 1 - idx)
    ok = dist >= margin
    return (spec.birth == birth) & ok[:, None] & ok[None, :]


# ----------------------------------------------------------------- tests


@pytest.mark.parametrize("order", [2, 3, 4])
def test_fwt_full_matches_loop_oracle(order):
    spec = GridSpec(1, 4)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(100 + order)
    field = rng.standard_normal((spec.n, spec.n))
    pyr = CoeffPyramid.from_field(field, spec)
    fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    want = oracle_fwt(field, spec.full_mask(), spec, bank)
    np.testing.assert_allclose(pyr.data, want, atol=1e-13)


@pytest.mark.parametrize("order", [2, 3])
def test_masked_fwt_matches_loop_oracle(order):
    spec = GridSpec(2, 4)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(110 + order)
    mask = spec.coarse_mask() | (rng.random((spec.n, spec.n)) < 0.05)
    mask = reconstruction_check(mask, spec, bank)
    field = rng.standard_normal((spec.n, spec.n))
    pyr = CoeffPyramid.from_field(field, spec, mask=mask)
    fwt_full(pyr, MaskGrid(mask, spec, bank))
    want = oracle_fwt(field, mask, spec, bank)
    np.testing.assert_allclose(pyr.data, want, atol=1e-13)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("j_max", [4, 5, 6])
def test_round_trip_full_mask(order, j_max):
    spec = GridSpec(3, j_max)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(17 * order + j_max)
    field = rng.standard_normal((spec.n, spec.n))
    pyr = CoeffPyramid.from_field(field, spec)
    fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    assert pyr.state == WAVELET
    iwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    assert pyr.state == PHYSICAL
    assert np.max(np.abs(pyr.data - field)) <= 1e-12


@pytest.mark.parametrize("order", [2, 4])
def test_round_trip_adaptive_mask(order):
    spec = GridSpec(2, 5)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(200 + order)
    mask = spec.coarse_mask() | (rng.random((spec.n, spec.n)) < 0.04)
    mask = reconstruction_check(mask, spec, bank)
    field = np.where(mask, rng.standard_normal((spec.n, spec.n)), 0.0)
    pyr = CoeffPyramid.from_field(field, spec, mask=mask)
    fwt_full(pyr, MaskGrid(mask, spec, bank))
    iwt_full(pyr, MaskGrid(mask, spec, bank))
    assert np.max(np.abs(pyr.data - field)) <= 1e-12


def test_single_step_round_trip_inverts():
    spec = GridSpec(4, 5)
    bank = build_filter_bank(2)
    rng = np.random.default_rng(7)
    field = rng.standard_normal((spec.n, spec.n))
    pyr = CoeffPyramid.from_field(field, spec)
    mask = spec.full_mask()
    fwt_step(pyr, 4, MaskGrid(mask, spec, bank))
    iwt_step(pyr, 4, MaskGrid(mask, spec, bank))
    assert np.max(np.abs(pyr.data - field)) <= 1e-13


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("level", [3, 4, 5])
def test_impulse_detail_amplitudes(order, level):
    # A unit impulse at an odd point of the level+1 lattice produces a
    # stored detail of 1/2 (singly odd) or 1/4 (odd-odd) at any level:
    # the normalization keeps detail magnitudes level-independent.
    spec = GridSpec(3, 6)
    bank = build_filter_bank(order)
    h = spec.stride(level + 1)
    mid = (spec.n - 1) // (2 * h) | 1  # an odd lattice index near centre

    for kind, (mi, ni), expect in (
        ("d1", (mid, mid - 1), 0.5),
        ("d2", (mid - 1, mid), 0.5),
        ("d3", (mid, mid), 0.25),
    ):
        data = np.zeros((spec.n, spec.n))
        data[mi * h, ni * h] = 1.0
        pyr = CoeffPyramid(data, spec)
        fwt_step(pyr, level, MaskGrid(spec.full_mask(), spec, bank))
        assert pyr.data[mi * h, ni * h] == expect, kind


def test_impulse_update_lifts_even_neighbours():
    # An odd-odd impulse yields a single nonzero detail (d3 = 1/4), so
    # the scaling pass must write exactly u_i * u_k / 4 at the 16
    # flanking even-even taps, with no cross terms to untangle.
    spec = GridSpec(4, 5)
    bank = build_filter_bank(2)
    data = np.zeros((spec.n, spec.n))
    data[15, 17] = 1.0
    pyr = CoeffPyramid(data, spec)
    fwt_step(pyr, 4, MaskGrid(spec.full_mask(), spec, bank))
    assert pyr.data[15, 17] == 0.25
    for i, ui in zip(bank.predict_offsets, bank.predict_weights):
        for k, uk in zip(bank.predict_offsets, bank.predict_weights):
            got = pyr.data[15 - (2 * i - 1), 17 - (2 * k - 1)]
            assert got == pytest.approx(ui * uk * 0.25, abs=1e-16)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_polynomial_details_vanish_in_clean_interior(order):
    # Tensor polynomials of per-axis degree 2N-1 are reproduced exactly
    # by the prediction, so details vanish wherever no stencil tap was
    # lost to zero extension at the array edge.
    spec = GridSpec(3, 6)
    bank = build_filter_bank(order)
    x = np.linspace(0.0, 1.0, spec.n)
    deg = 2 * order - 1
    px = np.polynomial.polynomial.polyval(x, np.arange(1.0, deg + 2.0))
    pz = np.polynomial.polynomial.polyval(x, np.ones(deg + 1))
    field = np.outer(px, pz)
    pyr = CoeffPyramid.from_field(field, spec)
    fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    checked = 0
    for b in range(spec.j_min + 1, spec.j_max + 1):
        sel = clean_interior(spec, b, order)
        if sel.any():
            scale = np.max(np.abs(field))
            assert np.max(np.abs(pyr.data[sel])) <= 1e-11 * scale
            checked += 1
    assert checked >= 1


def test_constant_field_details_vanish_in_clean_interior():
    spec = GridSpec(4, 6)
    bank = build_filter_bank(2)
    pyr = CoeffPyramid.from_field(np.ones((spec.n, spec.n)), spec)
    fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    checked = 0
    for b in range(spec.j_min + 1, spec.j_max + 1):
        sel = clean_interior(spec, b, 2)
        if sel.any():
            assert np.max(np.abs(pyr.data[sel])) <= 1e-13
            checked += 1
    assert checked >= 2
    # Retained scaling coefficients in the clean region keep the value 1.
    margin = 2 * 3 * (spec.stride(spec.j_min) - 1)
    idx = np.arange(spec.n)
    dist = np.minimum(idx, spec.n - 1 - idx)
    ok = dist >= margin
    sel = spec.coarse_mask() & ok[:, None] & ok[None, :]
    assert sel.any()
    assert np.allclose(pyr.data[sel], 1.0, atol=1e-13)


def test_gaussian_coefficient_census_frozen():
    # Pulse of the propagation experiment, unit-square scaling: the
    # transform concentrates it into very few significant details.
    # Counts frozen from a reference run of this build.
    spec = GridSpec(3, 7)
    bank = build_filter_bank(4)
    field = gaussian_field(spec.n, (1.0 / (4.0 * np.sqrt(2.0))) / 6.0)
    pyr = CoeffPyramid.from_field(field, spec)
    fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    significant = np.count_nonzero(spec.detail & (np.abs(pyr.data) >= 5e-4))
    assert significant == 156

    _, thinned = threshold_coeffs(pyr, 5e-4)
    total = spec.n * spec.n
    assert np.count_nonzero(thinned) == 237
    assert np.count_nonzero(thinned) < 0.30 * total


def test_threshold_error_tracks_zeta():
    spec = GridSpec(3, 7)
    bank = build_filter_bank(4)
    field = gaussian_field(spec.n, (1.0 / (4.0 * np.sqrt(2.0))) / 6.0)
    ratios = []
    for zeta in (1e-3, 1e-4, 1e-5):
        pyr = CoeffPyramid.from_field(field, spec)
        fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        pyr, _ = threshold_coeffs(pyr, zeta)
        iwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
        ratios.append(np.max(np.abs(pyr.data - field)) / zeta)
    assert max(ratios) / min(ratios) < 10.0
    assert max(ratios) < 5.0  # observed ~2.0-2.3 on this build


def test_threshold_zeta_zero_keeps_mask():
    spec = GridSpec(2, 4)
    bank = build_filter_bank(2)
    rng = np.random.default_rng(5)
    mask = reconstruction_check(
        spec.coarse_mask() | (rng.random((spec.n, spec.n)) < 0.1), spec, bank
    )
    pyr = CoeffPyramid.from_field(rng.standard_normal((spec.n, spec.n)), spec,
                                  mask=mask)
    fwt_full(pyr, MaskGrid(mask, spec, bank))
    before = pyr.data.copy()
    _, thinned = threshold_coeffs(pyr, 0.0, mask=mask)
    np.testing.assert_array_equal(thinned, mask | spec.coarse_mask())
    np.testing.assert_array_equal(pyr.data, before)


def test_threshold_drops_small_details_only():
    spec = GridSpec(2, 3)
    pyr = CoeffPyramid(np.zeros((spec.n, spec.n)), spec, state=WAVELET)
    big, small = (1, 2), (5, 2)  # both birth level 3 detail positions
    assert spec.detail[big] and spec.detail[small]
    pyr.data[big] = 0.1
    pyr.data[small] = 1e-5
    pyr.data[0, 0] = 1e-9  # coarse scaling value, never dropped
    _, thinned = threshold_coeffs(pyr, 1e-3)
    assert pyr.data[big] == 0.1 and thinned[big]
    assert pyr.data[small] == 0.0 and not thinned[small]
    assert pyr.data[0, 0] == 1e-9 and thinned[0, 0]


def test_threshold_rejects_negative_zeta():
    spec = GridSpec(2, 3)
    pyr = CoeffPyramid(np.zeros((spec.n, spec.n)), spec, state=WAVELET)
    with pytest.raises(ConfigError, match="-1"):
        threshold_coeffs(pyr, -1.0)


def test_fwt_full_requires_physical_state():
    spec = GridSpec(2, 3)
    pyr = CoeffPyramid(np.zeros((spec.n, spec.n)), spec, state=WAVELET)
    with pytest.raises(ValueError, match="physical"):
        fwt_full(pyr, MaskGrid(spec.full_mask(), spec, build_filter_bank(2)))


def test_step_level_out_of_range():
    spec = GridSpec(2, 4)
    pyr = CoeffPyramid(np.zeros((spec.n, spec.n)), spec)
    bank = build_filter_bank(2)
    with pytest.raises(ValueError, match="level 4"):
        fwt_step(pyr, 4, MaskGrid(spec.full_mask(), spec, bank))
    with pytest.raises(ValueError, match="level 1"):
        iwt_step(pyr, 1, MaskGrid(spec.full_mask(), spec, bank))


def test_full_mask_round_trip_stays_under_four_meshes(bank4):
    # Memory guard for BLOCK: a two-field round trip on the whole jmax=9
    # mask holds the grid's plan and one block's tap indices at a time,
    # under four (n, n) meshes (3.9 measured); building every point's tap
    # indices at once took about nine.
    spec = GridSpec(3, 9)
    fields = np.random.default_rng(9).standard_normal((2, spec.n, spec.n))
    pyr = CoeffPyramid.from_field(fields, spec)
    grid = MaskGrid(spec.full_mask(), spec, bank4)
    _, peak = traced_peak(lambda: iwt_full(fwt_full(pyr, grid), grid))
    assert peak < 4 * 8 * spec.n**2, peak / (8 * spec.n**2)
    assert np.max(np.abs(pyr.data - fields)) <= 1e-12


def test_interpolate_missing_keeps_old_values_bitwise():
    spec = GridSpec(3, 6)
    bank = build_filter_bank(4)
    field = gaussian_field(spec.n, 0.1)
    pyr = CoeffPyramid.from_field(field, spec)
    fwt_full(pyr, MaskGrid(spec.full_mask(), spec, bank))
    _, old = threshold_coeffs(pyr, 1e-4)
    old = reconstruction_check(old, spec, bank)
    new = reconstruction_check(add_adjacent_zone(old, spec), spec, bank)
    out = interpolate_missing(field, MaskGrid(old, spec, bank),
                              MaskGrid(new, spec, bank))
    keep = old & new
    assert (out[keep] == field[keep]).all()
    assert (out[~new] == 0.0).all()
    # Newly activated points get interpolated values close to the truth
    # (observed max deviation 2.9e-4 for this field and threshold).
    fresh = new & ~old
    assert fresh.any()
    assert np.max(np.abs(out[fresh] - field[fresh])) <= 1e-3


def test_interpolate_missing_identity_on_same_mask():
    spec = GridSpec(2, 4)
    bank = build_filter_bank(2)
    rng = np.random.default_rng(3)
    field = rng.standard_normal((spec.n, spec.n))
    full = spec.full_mask()
    out = interpolate_missing(field, MaskGrid(full, spec, bank),
                              MaskGrid(full, spec, bank))
    np.testing.assert_array_equal(out, field)


# ---------------------------------------------------------------- plan


def reference_plan(mask, spec, bank):
    """Per transform level, the sets of d1, d2 and d3 points and of
    lifted evens: the masked points born at level + 1 split by their
    parity on that lattice, and the masked even-even points with a masked
    d1 point along x or d2 point along z within update reach."""
    rows, cols = np.nonzero(mask)
    birth = spec.birth[rows, cols]
    reach = [2 * int(l) - 1 for l in bank.predict_offsets]
    levels = []
    for level in range(spec.j_min, spec.j_max):
        h, n = spec.stride(level + 1), spec.n
        born = birth == level + 1
        r, c = rows[born], cols[born]
        odd_r, odd_c = (r & h) > 0, (c & h) > 0
        kinds = [set(zip(r[k].tolist(), c[k].tolist()))
                 for k in (odd_r & ~odd_c, ~odd_r, odd_r & odd_c)]
        evens = {(p, q) for p in range(0, n, 2 * h)
                 for q in range(0, n, 2 * h) if mask[p, q] and any(
                     (0 <= p + u * h < n and mask[p + u * h, q])
                     or (0 <= q + u * h < n and mask[p, q + u * h])
                     for u in reach)}
        levels.append(kinds + [evens])
    return levels


def plan_masks(spec, bank):
    """Random closed masks, the full mask, the bare coarse lattice and
    masks of the coarse lattice plus one detail point of each kind, at
    the finest and at a middle level."""
    rng = np.random.default_rng(spec.n)
    coarse = spec.coarse_mask()
    out = {"full": spec.full_mask(), "coarse": coarse}
    for density in (0.02, 0.1, 0.4):
        out[f"closed {density}"] = reconstruction_check(
            coarse | (rng.random((spec.n, spec.n)) < density), spec, bank)
    for b in {spec.j_max, (spec.j_min + spec.j_max + 1) // 2}:
        h = spec.stride(b)
        for kind, (r, c) in zip(("d1", "d2", "d3"),
                                ((h, 2 * h), (2 * h, h), (h, h))):
            single = coarse.copy()
            single[r, c] = True
            out[f"{kind} at {b}"] = single
    return out


@pytest.mark.parametrize("lattice", [None, 1, 2])
@pytest.mark.parametrize("j_max", [4, 5, 6, 7])
def test_mask_plan_lists_every_point_once_by_level_and_kind(bank4, j_max,
                                                             lattice):
    # On the whole mesh, and on the lattice `lattice` levels coarser.
    spec = GridSpec(1, j_max)
    if lattice is not None:
        spec = spec.lattice(j_max - lattice)
    for name, mask in plan_masks(spec, bank4).items():
        plan = MaskGrid(mask, spec, bank4).plan
        levels = reference_plan(mask, spec, bank4)
        assert len(plan) == len(levels), name
        # Every masked detail point once, each kind in row-major order,
        # in read-only arrays.
        assert sum(r.size for kinds in plan for r, _ in kinds[:3]) == (
            np.count_nonzero(mask & spec.detail)), name
        for level, (got, want) in enumerate(zip(plan, levels), spec.j_min):
            for kind, (r, c), points in zip(("d1", "d2", "d3", "even"),
                                            got, want):
                pairs = list(zip(r.tolist(), c.tolist()))
                assert pairs == sorted(points), (name, level, kind)
                assert not (r.flags.writeable or c.flags.writeable)
