"""Mask machinery against slow reference implementations.

Each closure operation is checked point-for-point against an independent
python-loop oracle: the adjacent zone against direct enumeration of the
defining inequalities, the reconstruction check against a set-based
transitive closure, density levels against per-line scans.
"""

import math

import numpy as np
import pytest
from conftest import traced_peak

from awcmaxwell.errors import MaskClosureError
from awcmaxwell.filters import build_filter_bank
from awcmaxwell.grid import (
    GridSpec,
    MaskGrid,
    add_adjacent_zone,
    compute_levels,
    extend_for_derivatives,
    grid_of,
    lattice_level,
    masked_points,
    reconstruction_check,
    require_closed,
)

# ---------------------------------------------------------------- oracles


def oracle_adjacent_zone(mask, spec):
    """Every lattice point within one level and one point of a masked
    detail point, by brute force."""
    out = mask.copy()
    size = spec.n - 1
    for m in range(spec.n):
        for n in range(spec.n):
            if not (mask[m, n] and spec.detail[m, n]):
                continue
            b = spec.birth[m, n]
            for jp in range(spec.j_min, spec.j_max + 1):
                if abs(jp - b) > 1:
                    continue
                sp = spec.stride(jp)
                for mp in range(size // sp + 1):
                    if abs(m / sp - mp) > 1:
                        continue
                    for np_ in range(size // sp + 1):
                        if abs(n / sp - np_) > 1:
                            continue
                        out[mp * sp, np_ * sp] = True
    return out


def oracle_stencil_taps(spec, bank, m, n):
    """In-range prediction taps required by the detail coefficient at (m, n)."""
    b = spec.birth[m, n]
    h = spec.stride(b)
    mb, nb = m // h, n // h
    offs = [int(l) for l in bank.predict_offsets]
    taps = []
    if mb % 2 == 1 and nb % 2 == 0:
        taps = [((mb - 1 + 2 * l) * h, n) for l in offs]
    elif mb % 2 == 0 and nb % 2 == 1:
        taps = [(m, (nb - 1 + 2 * l) * h) for l in offs]
    else:
        for l in offs:
            taps.append(((mb - 1 + 2 * l) * h, n))
            taps.append((m, (nb - 1 + 2 * l) * h))
            for lp in offs:
                taps.append(((mb - 1 + 2 * l) * h, (nb - 1 + 2 * lp) * h))
    limit = spec.n - 1
    return [(r, c) for r, c in taps if 0 <= r <= limit and 0 <= c <= limit]


def oracle_closure(mask, spec, bank):
    out = mask.copy()
    changed = True
    while changed:
        changed = False
        for m, n in zip(*np.nonzero(out & spec.detail)):
            for r, c in oracle_stencil_taps(spec, bank, m, n):
                if not out[r, c]:
                    out[r, c] = True
                    changed = True
    return out


def oracle_levels(mask, spec):
    out = np.zeros((spec.n, spec.n), dtype=int)
    for m, n in zip(*np.nonzero(mask)):
        axis = []
        for gaps in (
            [abs(r - m) for r in np.nonzero(mask[:, n])[0] if r != m],
            [abs(c - n) for c in np.nonzero(mask[m, :])[0] if c != n],
        ):
            if gaps:
                lv = spec.j_max - round(math.log2(min(gaps)))
                axis.append(min(max(lv, spec.j_min), spec.j_max))
            else:
                axis.append(spec.j_min)
        out[m, n] = max(axis)
    return out


def oracle_extend(mask, spec, levels, bank):
    out = mask.copy()
    limit = spec.n - 1
    for m, n in zip(*np.nonzero(mask)):
        step = spec.stride(levels[m, n])
        for i in range(1, bank.deriv_halfwidth + 1):
            for d in (i * step, -i * step):
                if 0 <= m + d <= limit:
                    out[m + d, n] = True
                if 0 <= n + d <= limit:
                    out[m, n + d] = True
    return oracle_closure(out, spec, bank)


def levels_of(mask, spec):
    """compute_levels of the mask, listed as a MaskGrid lists it."""
    return compute_levels(mask, spec, masked_points(mask))


def random_mask(spec, rng, frac=0.03):
    mask = spec.coarse_mask()
    extra = rng.random((spec.n, spec.n)) < frac
    return mask | extra


# ----------------------------------------------------------------- tests


@pytest.fixture(scope="module")
def spec4():
    return GridSpec(2, 4)


def test_adjacent_zone_matches_oracle(spec4):
    # Random masks, and a sparse one whose zones stand apart.
    rng = np.random.default_rng(7)
    masks = [random_mask(spec4, rng) for _ in range(5)]
    masks.append(random_mask(spec4, np.random.default_rng(8), frac=0.01))
    for mask in masks:
        got = add_adjacent_zone(mask, spec4)
        want = oracle_adjacent_zone(mask, spec4)
        np.testing.assert_array_equal(got, want)


def test_adjacent_zone_single_finest_point():
    spec = GridSpec(2, 5)
    mask = spec.coarse_mask()
    mask[15, 16] = True  # odd x on the finest lattice, interior
    out = add_adjacent_zone(mask, spec)
    added = out & ~mask
    # 3x3 finest neighbourhood (minus the point itself, minus points
    # already on the coarse lattice) plus the <= 9 level j_max-1 points.
    finer = [(m, n) for m, n in zip(*np.nonzero(added)) if spec.birth[m, n] == 5]
    coarser = [(m, n) for m, n in zip(*np.nonzero(added)) if spec.birth[m, n] < 5]
    assert set(finer) <= {
        (m, n) for m in range(14, 17) for n in range(15, 18)
    }
    # x=15 is odd: two level-4 x-columns (14, 16); z=16 is lattice: three rows.
    assert set(coarser) <= {(m, n) for m in (14, 16) for n in (14, 16, 18)}
    np.testing.assert_array_equal(out, oracle_adjacent_zone(mask, spec))


def test_adjacent_zone_coarse_only_unchanged(spec4):
    mask = spec4.coarse_mask()
    np.testing.assert_array_equal(add_adjacent_zone(mask, spec4), mask)


def test_adjacent_zone_monotone_and_idempotent_on_fixture(spec4):
    rng = np.random.default_rng(9)
    mask = random_mask(spec4, rng)
    once = add_adjacent_zone(mask, spec4)
    assert (once | mask == once).all()


def test_adjacent_zone_of_a_full_mask_allocates_under_one_mesh():
    # The zone grows level by level on boolean planes, so a mask whose
    # every point is a detail (zeta = 0, a broadband field) costs no
    # per-point index arrays.  The bound is one (n, n) float64 mesh of
    # jmax=9.
    spec = GridSpec(3, 9)
    full = spec.full_mask()
    out, peak = traced_peak(lambda: add_adjacent_zone(full, spec))
    assert out.all()
    assert peak < spec.n**2 * 8


@pytest.mark.parametrize("order", [2, 3, 4])
def test_reconstruction_check_matches_oracle(order):
    spec = GridSpec(2, 5)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(20 + order)
    for _ in range(4):
        mask = random_mask(spec, rng, frac=0.02)
        got = reconstruction_check(mask, spec, bank)
        want = oracle_closure(mask, spec, bank)
        np.testing.assert_array_equal(got, want)


def test_reconstruction_check_single_d1_point_adds_x_neighbours():
    # A finest d1-type point: its four x-taps are the even neighbours
    # 10, 12, 14, 16.  Two are already coarse; the other two are detail
    # points themselves whose own taps all land on the coarse lattice.
    spec = GridSpec(3, 5)
    bank = build_filter_bank(2)
    mask = spec.coarse_mask()
    m, n = 13, 16
    assert spec.birth[m, n] == 5
    mask[m, n] = True
    out = reconstruction_check(mask, spec, bank)
    added = set(zip(*np.nonzero(out & ~mask)))
    assert added == {(10, 16), (14, 16)}
    np.testing.assert_array_equal(out, oracle_closure(mask, spec, bank))


def test_reconstruction_check_d3_pattern():
    spec = GridSpec(2, 5)
    bank = build_filter_bank(2)
    mask = spec.coarse_mask()
    mask[15, 17] = True  # odd-odd at the finest level
    out = reconstruction_check(mask, spec, bank)
    want = oracle_closure(mask, spec, bank)
    np.testing.assert_array_equal(out, want)
    # The direct taps of the d3 coefficient: 4 odd-z, 4 odd-x, 16 even-even
    # (all interior here), before recursion to coarser levels.
    for r, c in oracle_stencil_taps(spec, bank, 15, 17):
        assert out[r, c]


@pytest.mark.parametrize("order", [2, 4])
def test_reconstruction_check_idempotent(order):
    spec = GridSpec(2, 5)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(31)
    mask = random_mask(spec, rng, frac=0.02)
    once = reconstruction_check(mask, spec, bank)
    twice = reconstruction_check(once, spec, bank)
    np.testing.assert_array_equal(once, twice)
    np.testing.assert_array_equal(oracle_closure(once, spec, bank), once)


def test_require_closed_reports_missing_point():
    spec = GridSpec(2, 4)
    bank = build_filter_bank(2)
    mask = spec.coarse_mask()
    mask[5, 4] = True  # finest-level d1 point with absent taps
    with pytest.raises(MaskClosureError, match=r"\(5, 4\)"):
        require_closed(mask, spec, bank, "test")


def test_compute_levels_matches_oracle():
    spec = GridSpec(2, 5)
    rng = np.random.default_rng(40)
    masks = [random_mask(spec, rng, frac=0.05) for _ in range(5)]
    # Empty lines, isolated points, edge rows and columns, full lattices.
    sparse = rng.random((spec.n, spec.n)) < 0.1
    sparse[3, :] = sparse[:, 7] = False
    edges = np.zeros((spec.n, spec.n), bool)
    edges[0, ::3] = edges[-1, 1::5] = edges[::4, 0] = edges[2::7, -1] = True
    lone = np.zeros((spec.n, spec.n), bool)
    lone[0, 0] = lone[5, 9] = lone[-1, 20] = True
    masks += [sparse, edges, lone, np.zeros_like(lone), spec.full_mask()]
    for mask in masks:
        np.testing.assert_array_equal(
            levels_of(mask, spec), oracle_levels(mask, spec)
        )


def test_compute_levels_uniform_lattice():
    spec = GridSpec(2, 6)
    for j in (2, 4, 6):
        s = spec.stride(j)
        mask = np.zeros((spec.n, spec.n), bool)
        mask[::s, ::s] = True
        levels = levels_of(mask, spec)
        assert (levels[mask] == j).all()


def test_compute_levels_mixed_axis_gaps():
    # Nearest x-gap 2 but z-gap 1: the density level is the finer one.
    spec = GridSpec(2, 5)
    mask = spec.coarse_mask()
    mask[16, 16] = mask[14, 16] = mask[16, 15] = True
    levels = levels_of(mask, spec)
    assert levels[16, 16] == spec.j_max
    # x-gap alone would give j_max - 1.
    mask2 = spec.coarse_mask()
    mask2[16, 16] = mask2[14, 16] = True
    assert levels_of(mask2, spec)[16, 16] == spec.j_max - 1


def test_compute_levels_rounds_non_dyadic_gaps():
    spec = GridSpec(2, 5)
    mask = np.zeros((spec.n, spec.n), bool)
    mask[0, 0] = mask[0, 3] = True  # gap 3: log2 rounds to 2
    levels = levels_of(mask, spec)
    assert levels[0, 0] == spec.j_max - 2


def test_compute_levels_isolated_point_falls_back():
    spec = GridSpec(2, 5)
    mask = np.zeros((spec.n, spec.n), bool)
    mask[7, 9] = True
    assert levels_of(mask, spec)[7, 9] == spec.j_min


@pytest.mark.parametrize("order", [2, 3])
def test_extend_for_derivatives_matches_oracle(order):
    spec = GridSpec(2, 5)
    bank = build_filter_bank(order)
    rng = np.random.default_rng(50 + order)
    for _ in range(3):
        mask = reconstruction_check(random_mask(spec, rng, 0.02), spec, bank)
        grid = MaskGrid(mask, spec, bank)
        got = extend_for_derivatives(grid)
        want = oracle_extend(mask, spec, grid.levels, bank)
        np.testing.assert_array_equal(got, want)


def test_extend_for_derivatives_provides_all_taps():
    spec = GridSpec(2, 5)
    bank = build_filter_bank(2)
    rng = np.random.default_rng(60)
    mask = reconstruction_check(random_mask(spec, rng, 0.03), spec, bank)
    grid = MaskGrid(mask, spec, bank)
    grown, levels = extend_for_derivatives(grid), grid.levels
    limit = spec.n - 1
    for m, n in zip(*np.nonzero(mask)):
        step = spec.stride(levels[m, n])
        for i in range(1, bank.deriv_halfwidth + 1):
            for d in (i * step, -i * step):
                if 0 <= m + d <= limit:
                    assert grown[m + d, n]
                if 0 <= n + d <= limit:
                    assert grown[m, n + d]


def test_lattice_grid_is_the_strided_grid_of_its_level():
    spec = GridSpec(2, 5)
    assert spec.lattice(5) is spec
    coarse = spec.lattice(3)
    # Every grid's level-3 lattice is the one shared grid_of(2, 3).
    assert coarse is spec.lattice(3) is grid_of(2, 5).lattice(3)
    assert coarse is grid_of(2, 3)
    assert (coarse.j_min, coarse.j_max) == (2, 3)
    np.testing.assert_array_equal(coarse.birth, spec.birth[::4, ::4])
    for level in (2, 6):
        with pytest.raises(ValueError, match="level"):
            spec.lattice(level)


def test_lattice_level_is_the_level_of_a_side():
    for level in range(12):
        assert lattice_level((1 << level) + 1) == level
        assert lattice_level(GridSpec(0, level + 1).n) == level + 1


def test_stores_hold_at_most_four_lattices_at_j_min_1():
    # Taps more than n past an edge read zero, so a margin stops at n.
    # Uncapped, the farthest derivative tap at j_min = 1 reaches 3(n - 1)
    # and makes a store 16 times its lattice.
    spec = GridSpec(1, 9)
    for level in range(2, 10):
        lattice = spec.lattice(level)
        for width in (lattice.transform_width, lattice.derivative_width):
            assert width**2 <= 4 * lattice.n**2


@pytest.mark.parametrize("jmax", range(3, 10))
def test_birth_levels_match_a_per_point_oracle(jmax):
    # A point is born at the coarsest level whose lattice holds it: the
    # larger of its indices' levels, each j_max less the index's trailing
    # zero bits (0 at both ends), and j_min at least.
    def axis_level(p):
        if p in (0, 2**jmax):
            return 0
        return jmax - ((p & -p).bit_length() - 1)

    n = 2**jmax + 1
    levels = np.array([[max(axis_level(m), axis_level(k)) for k in range(n)]
                       for m in range(n)])
    for jmin in range(1, jmax):
        spec = GridSpec(jmin, jmax)
        want = np.maximum(levels, jmin)
        np.testing.assert_array_equal(spec.birth, want)
        assert spec.birth.dtype == np.int8
        np.testing.assert_array_equal(spec.detail, want > jmin)


def test_cardinality_counts_points(spec4):
    assert np.count_nonzero(spec4.coarse_mask()) == 25
    assert np.count_nonzero(spec4.full_mask()) == 17 * 17
