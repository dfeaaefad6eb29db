"""Filter bank coefficients against independent oracles.

The midpoint weights are checked against a Vandermonde solve (the unique
interpolatory weights of polynomial exactness 2N), the derivative filters
against the analytic derivative of monomials on an integer grid.
"""

from fractions import Fraction

import numpy as np
import pytest

from awcmaxwell.errors import ConfigError
from awcmaxwell.filters import (
    FilterBank,
    _lagrange_midpoint_fractions,
    build_filter_bank,
)


def midpoint_weights(order: int) -> np.ndarray:
    """The exact midpoint weights of the order-``order`` scheme, as floats."""
    return np.array([float(w) for w in _lagrange_midpoint_fractions(order)])


def vandermonde_midpoint_weights(order: int) -> np.ndarray:
    """Solve for weights with sum_l w_l l^k = (1/2)^k, k = 0..2*order-1."""
    nodes = np.arange(-(order - 1), order + 1, dtype=float)
    powers = np.arange(2 * order)
    lhs = nodes[None, :] ** powers[:, None]
    rhs = 0.5 ** powers.astype(float)
    return np.linalg.solve(lhs, rhs)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_midpoint_weights_match_vandermonde_oracle(order):
    got = midpoint_weights(order)
    want = vandermonde_midpoint_weights(order)
    assert got.shape == (2 * order,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_midpoint_weights_order1_is_plain_average():
    np.testing.assert_array_equal(midpoint_weights(1), [0.5, 0.5])


def test_midpoint_weights_order2_values():
    np.testing.assert_array_equal(
        midpoint_weights(2),
        [-1.0 / 16.0, 9.0 / 16.0, 9.0 / 16.0, -1.0 / 16.0],
    )


def test_midpoint_weights_order4_reproduce_degree7():
    # sum_l w_l * l^7 must equal (1/2)^7; exact in rational arithmetic.
    weights = _lagrange_midpoint_fractions(4)
    nodes = range(-3, 5)
    acc = sum(w * Fraction(li) ** 7 for w, li in zip(weights, nodes))
    assert acc == Fraction(1, 2) ** 7


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_midpoint_weights_exact_properties(order):
    weights = _lagrange_midpoint_fractions(order)
    # Partition of unity, exactly.
    assert sum(weights) == 1
    # Symmetry about the midpoint: w_l == w_{1-l}.
    assert weights == weights[::-1]


class TestBuildFilterBank:
    def test_order2_predict_values(self):
        bank = build_filter_bank(2)
        np.testing.assert_array_equal(
            bank.predict_weights, [-1 / 16, 9 / 16, 9 / 16, -1 / 16]
        )
        np.testing.assert_array_equal(bank.predict_offsets, [-1, 0, 1, 2])

    def test_order2_deriv_values(self):
        bank = build_filter_bank(2)
        np.testing.assert_array_equal(bank.deriv_filter, [2 / 3, -1 / 12])

    def test_order3_deriv_values(self):
        bank = build_filter_bank(3)
        np.testing.assert_array_equal(
            bank.deriv_filter, [272 / 365, -53 / 365, 16 / 1095, 1 / 2920]
        )

    def test_order4_deriv_values(self):
        bank = build_filter_bank(4)
        np.testing.assert_array_equal(
            bank.deriv_filter,
            [
                39296 / 49553,
                -76113 / 396424,
                1664 / 49553,
                -2645 / 1189272,
                -128 / 743295,
                1 / 1189272,
            ],
        )

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_filter_lengths(self, order):
        bank = build_filter_bank(order)
        assert len(bank.predict_weights) == 2 * order
        assert bank.deriv_halfwidth == 2 * (order - 1)

    @pytest.mark.parametrize("order", [0, 1, 5, 7])
    def test_rejects_unsupported_order(self, order):
        with pytest.raises(ConfigError, match=str(order)):
            build_filter_bank(order)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_repeated_builds_share_read_only_arrays(self, order):
        first, again = build_filter_bank(order), build_filter_bank(order)
        for name in ("predict_weights", "deriv_filter", "predict_offsets"):
            array = getattr(again, name)
            np.testing.assert_array_equal(array, getattr(first, name))
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0
        # The exact weights, as the rationals give them.
        np.testing.assert_array_equal(first.predict_weights,
                                      midpoint_weights(order))


def monomial_derivative_error(bank: FilterBank, k: int) -> float:
    """Worst relative error of the derivative filter on f(x) = x^k.

    Applied on an integer grid at interior points, compared against the
    analytic derivative k*x^(k-1).
    """
    taps = bank.deriv_halfwidth
    xs = np.arange(-40, 41, dtype=float)
    f = xs**k
    worst = 0.0
    for m in range(taps, len(xs) - taps):
        acc = 0.0
        for i, ci in enumerate(bank.deriv_filter, start=1):
            acc += ci * (f[m + i] - f[m - i])
        true = k * xs[m] ** (k - 1) if k > 0 else 0.0
        scale = max(1.0, abs(true))
        worst = max(worst, abs(acc - true) / scale)
    return worst


@pytest.mark.parametrize("order", [2, 3, 4])
def test_deriv_filter_exact_for_low_degree_monomials(order):
    bank = build_filter_bank(order)
    for k in range(2 * order):
        assert monomial_derivative_error(bank, k) < 1e-10, f"degree {k}"


def test_deriv_abs_sum_order2():
    assert build_filter_bank(2).deriv_abs_sum == pytest.approx(0.75, abs=1e-15)


def test_deriv_abs_sum_order4():
    # 6071149/5946360, the sum of the order-4 filter magnitudes.
    assert build_filter_bank(4).deriv_abs_sum == pytest.approx(
        6071149 / 5946360, abs=1e-15
    )
