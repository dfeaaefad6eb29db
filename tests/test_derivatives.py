"""Derivative stencils against loop evaluation and analytic values."""

import numpy as np
import pytest
from conftest import gaussian_field, on_mesh, traced_peak

from awcmaxwell.derivatives import diff_x, diff_z
from awcmaxwell.filters import build_filter_bank
from awcmaxwell.grid import (
    GridSpec,
    MaskGrid,
    extend_for_derivatives,
    reconstruction_check,
)


def oracle_diff(field, mask, levels, spec, bank, length, axis):
    values = np.where(mask, field, 0.0)
    out = np.zeros_like(values)
    for m, n in zip(*np.nonzero(mask)):
        j0 = levels[m, n]
        step = spec.stride(j0)
        total = 0.0
        for i, c in enumerate(bank.deriv_filter, start=1):
            for sign in (1, -1):
                if axis == 0:
                    p, q = m + sign * i * step, n
                else:
                    p, q = m, n + sign * i * step
                if 0 <= p < spec.n and 0 <= q < spec.n:
                    total += sign * c * values[p, q]
        out[m, n] = total * 2.0**j0 / length
    return out


def full_levels(spec):
    return np.full((spec.n, spec.n), spec.j_max, dtype=int)


def interior(spec, bank, step=1):
    pad = bank.deriv_halfwidth * step
    sel = np.zeros((spec.n, spec.n), dtype=bool)
    sel[pad : spec.n - pad, pad : spec.n - pad] = True
    return sel


@pytest.mark.parametrize("order", [2, 3, 4])
def test_full_mask_matches_loop_oracle(order):
    spec = GridSpec(2, 4)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(order)
    field = rng.standard_normal((spec.n, spec.n))
    mask, levels = spec.full_mask(), full_levels(spec)
    for axis, fn in ((0, diff_x), (1, diff_z)):
        got = fn(field, mask, None, spec, bank, 2.0)
        want = oracle_diff(field, mask, levels, spec, bank, 2.0, axis)
        np.testing.assert_allclose(got, want, atol=1e-13)


def uniform_stencil(field, spec, bank, length, axis):
    """The uniform branch's sum written as one expression per tap,
    acc += c * (v[+i] - v[-i]), then scaled once: the rounding the
    in-place form must keep.  Along z it runs on the transpose."""
    pad, n = bank.deriv_halfwidth, spec.n
    vp = np.zeros((n + 2 * pad, n))
    vp[pad:pad + n] = field if axis == 0 else field.T
    acc = np.zeros((n, n))
    for i, c in enumerate(bank.deriv_filter, start=1):
        acc += c * (vp[pad + i:pad + i + n] - vp[pad - i:pad - i + n])
    out = acc * (2.0**spec.j_max / length)
    return out if axis == 0 else out.T


@pytest.mark.parametrize("j_max", [5, 6, 7])
def test_uniform_stencil_matches_the_per_tap_expression_bitwise(any_bank,
                                                                 j_max):
    spec = GridSpec(3, j_max)
    rng = np.random.default_rng(j_max)
    field = rng.standard_normal((spec.n, spec.n))
    mask = spec.full_mask()
    for axis, fn in ((0, diff_x), (1, diff_z)):
        want = uniform_stencil(field, spec, any_bank, 3.7, axis)
        got = fn(field, mask, None, spec, any_bank, 3.7)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [2, 3])
def test_adaptive_mask_matches_loop_oracle(order):
    spec = GridSpec(2, 5)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(70 + order)
    mask = spec.coarse_mask() | (rng.random((spec.n, spec.n)) < 0.03)
    mask = reconstruction_check(mask, spec, bank)
    mask = extend_for_derivatives(MaskGrid(mask, spec, bank))
    grid = MaskGrid(mask, spec, bank)
    field = rng.standard_normal((spec.n, spec.n))
    for axis, fn in ((0, diff_x), (1, diff_z)):
        got = on_mesh(fn(field, mask, grid, spec, bank, 1.0), grid)
        want = oracle_diff(field, mask, grid.levels, spec, bank, 1.0, axis)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_cubic_hand_value():
    # (x-2)^3 on an integer-spaced grid: at x=3 the stencil reads
    # (2/3)(8 - 0) - (1/12)(27 - (-1)) = 3, the exact slope.
    spec = GridSpec(2, 4)
    bank = build_filter_bank(2)
    x = np.arange(spec.n, dtype=float)
    field = np.broadcast_to(((x - 2.0) ** 3)[:, None], (spec.n, spec.n)).copy()
    got = diff_x(field, spec.full_mask(), None, spec, bank,
                 float(spec.n - 1))
    assert got[3, 7] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_constant_and_linear_fields(order):
    spec = GridSpec(2, 5)
    bank = build_filter_bank(order)
    mask = spec.full_mask()
    sel = interior(spec, bank)
    ones = np.ones((spec.n, spec.n))
    got = diff_x(ones, mask, None, spec, bank, 3.0)
    assert np.max(np.abs(got[sel])) == 0.0

    length = 5.0
    x = np.linspace(0.0, length, spec.n)
    linear = np.broadcast_to(x[:, None], (spec.n, spec.n)).copy()
    gx = diff_x(linear, mask, None, spec, bank, length)
    gz = diff_z(linear, mask, None, spec, bank, length)
    np.testing.assert_allclose(gx[sel], 1.0, atol=1e-10)
    np.testing.assert_allclose(gz[sel], 0.0, atol=1e-10)


def test_transpose_symmetry():
    spec = GridSpec(2, 4)
    bank = build_filter_bank(3)
    rng = np.random.default_rng(11)
    field = rng.standard_normal((spec.n, spec.n))
    mask = spec.full_mask()
    gz = diff_z(field, mask, None, spec, bank, 1.0)
    gx_t = diff_x(field.T, mask, None, spec, bank, 1.0).T
    np.testing.assert_allclose(gz, gx_t, atol=1e-15)


def test_linearity():
    spec = GridSpec(2, 4)
    bank = build_filter_bank(4)
    rng = np.random.default_rng(12)
    f = rng.standard_normal((spec.n, spec.n))
    g = rng.standard_normal((spec.n, spec.n))
    mask = spec.full_mask()
    combo = diff_x(2.0 * f - 0.5 * g, mask, None, spec, bank, 1.0)
    parts = 2.0 * diff_x(f, mask, None, spec, bank, 1.0) \
        - 0.5 * diff_x(g, mask, None, spec, bank, 1.0)
    np.testing.assert_allclose(combo, parts, atol=1e-13)


def test_coarse_uniform_mask_keeps_linear_slope():
    # Stride-2 lattice at level j_max - 1: tap spacing doubles, the
    # level prefactor halves, and a linear field still differentiates
    # to its exact slope.
    spec = GridSpec(2, 5)
    bank = build_filter_bank(2)
    mask = np.zeros((spec.n, spec.n), dtype=bool)
    mask[::2, ::2] = True
    grid = MaskGrid(mask, spec, bank)
    assert (grid.levels[mask] == spec.j_max - 1).all()
    length = 4.0
    x = np.linspace(0.0, length, spec.n)
    linear = np.broadcast_to(x[:, None], (spec.n, spec.n)).copy()
    got = on_mesh(diff_x(linear, mask, grid, spec, bank, length), grid)
    sel = mask & interior(spec, bank, step=2)
    np.testing.assert_allclose(got[sel], 1.0, atol=1e-10)
    assert np.max(np.abs(got[~mask])) == 0.0


@pytest.mark.parametrize("order,ratio", [(2, 16.0), (3, 64.0), (4, 256.0)])
def test_gaussian_convergence_order(order, ratio):
    bank = build_filter_bank(order)
    errors = []
    for j_max in (5, 6):
        spec = GridSpec(2, j_max)
        field = gaussian_field(spec.n, 0.1)
        mask = spec.full_mask()
        got = diff_z(field, mask, None, spec, bank, 1.0)
        x = np.linspace(0.0, 1.0, spec.n)
        analytic = field * (-(x[None, :] - 0.5) / 0.1**2)
        sel = interior(spec, bank)
        errors.append(np.max(np.abs(got - analytic)[sel]))
    observed = errors[0] / errors[1]
    assert ratio / 3.0 < observed < ratio * 3.0


def test_unmasked_taps_read_zero():
    # A masked point whose neighbour is unmasked must ignore the
    # neighbour's array value entirely.
    spec = GridSpec(2, 4)
    bank = build_filter_bank(2)
    mask = np.zeros((spec.n, spec.n), dtype=bool)
    mask[8, 8] = True
    field = np.full((spec.n, spec.n), 7.0)
    got = diff_x(field, mask, MaskGrid(mask, spec, bank), spec, bank,
                 float(spec.n - 1))
    # All taps unmasked: the antisymmetric sum of zeros is zero.
    assert got.tolist() == [0.0]


def test_masked_derivative_memory_does_not_grow_with_taps():
    # A mask one point short of full takes the masked branch over the
    # whole mesh.  Each tap's shift is formed and dropped in turn, so
    # order 4 (12 taps) holds less than one point-array more than order 2
    # (4 taps); forming every shift at once would hold 8 more.
    spec = GridSpec(3, 7)
    mask = spec.full_mask()
    mask[1, 1] = False
    field = np.random.default_rng(0).standard_normal((spec.n, spec.n))
    point_array = 8 * np.count_nonzero(mask)
    # Each order's grid and its stencil's index arrays are built before
    # tracing starts.
    grids = [MaskGrid(mask, spec, build_filter_bank(order))
             for order in (2, 4)]
    for grid in grids:
        taps = grid.stencil[1]
        taps.at + 0 * taps.step[0], taps.at + 0 * taps.step[1]
    for fn in (diff_x, diff_z):
        peaks = [traced_peak(lambda: fn(field, mask, grid, spec, grid.bank,
                                        1.0))[1]
                 for grid in grids]
        assert peaks[1] - peaks[0] < point_array, (
            fn.__name__, [peak / point_array for peak in peaks])


def test_uniform_derivative_at_jmax_9_holds_under_one_and_a_half_meshes():
    # The bound is fixed before measuring: the result is one mesh and the
    # bands a quarter of a megabyte or so; the whole-array form, with its
    # padded copy and mesh-sized tap buffer, held three meshes.
    spec = GridSpec(3, 9)
    bank = build_filter_bank(4)
    field = np.random.default_rng(9).standard_normal((spec.n, spec.n))
    mask, mesh = spec.full_mask(), spec.n**2 * 8
    for fn in (diff_x, diff_z):
        _, peak = traced_peak(lambda: fn(field, mask, None, spec, bank, 1.0))
        assert peak < 1.5 * mesh, (fn.__name__, peak / mesh)
