"""Filter banks for interpolating wavelets of Deslauriers-Dubuc type.

The scheme of order N interpolates the value at a dyadic midpoint from its
2N nearest neighbours on the coarser lattice with symmetric Lagrange
weights, which makes the prediction exact for polynomials up to degree
2N - 1.  Two coefficient sets belong together:

- ``predict_weights``: weights w_l, l = -(N-1)..N (``predict_offsets``),
  applied to the even neighbours 2m + 2l when predicting the odd point
  2m + 1, that is, at offsets 2l - 1.  The lifting update applies the
  same values at the same offsets to the details around the even
  (scaling) point it lifts: the half-normalized details used here absorb
  the /2 of the raw update,
- ``deriv_filter``: the antisymmetric first-derivative filter DD'_N(i),
  i = 1..2(N-1), of the order-N interpolating scaling function, with
  DD'_N(0) = 0 and DD'_N(-i) = -DD'_N(i).  Its consistency order is 2N.

All coefficients are built as exact rationals and converted to float
once per order: build_filter_bank returns one shared bank per order,
whose arrays are read-only.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError

SUPPORTED_ORDERS = (2, 3, 4)

# First-derivative filter values DD'_N(i) for i = 1..2(N-1), exact.
_DERIV_FILTERS = {
    2: (Fraction(2, 3), Fraction(-1, 12)),
    3: (
        Fraction(272, 365),
        Fraction(-53, 365),
        Fraction(16, 1095),
        Fraction(1, 2920),
    ),
    4: (
        Fraction(39296, 49553),
        Fraction(-76113, 396424),
        Fraction(1664, 49553),
        Fraction(-2645, 1189272),
        Fraction(-128, 743295),
        Fraction(1, 1189272),
    ),
}


def _lagrange_midpoint_fractions(order: int) -> list[Fraction]:
    """Exact Lagrange weights for interpolation at x = 1/2.

    Nodes are the integers l = -(order-1)..order; the returned weight list
    satisfies sum_l w_l * q(l) = q(1/2) for every polynomial q of degree
    <= 2*order - 1.
    """
    nodes = list(range(-(order - 1), order + 1))
    weights = []
    for li in nodes:
        w = Fraction(1)
        for k in nodes:
            if k != li:
                w *= Fraction(1, 2) - k
                w /= li - k
        weights.append(w)
    return weights


@dataclass(frozen=True)
class FilterBank:
    """Coefficient sets of one interpolating-wavelet order.

    ``predict_offsets`` gives the integer l that each of
    ``predict_weights`` belongs to; a tap sits 2l - 1 finer-lattice steps
    away, both when predicting and when lifting (see module docstring).
    """

    order: int
    predict_weights: np.ndarray
    deriv_filter: np.ndarray
    predict_offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.order
        object.__setattr__(self, "predict_offsets", np.arange(-(n - 1), n + 1))

    @property
    def deriv_halfwidth(self) -> int:
        """Number of one-sided derivative taps, 2*(order-1)."""
        return len(self.deriv_filter)

    @cached_property
    def deriv_abs_sum(self) -> float:
        """sum_i |DD'(i)|, the quantity entering the CFL bound."""
        return float(np.sum(np.abs(self.deriv_filter)))


def build_filter_bank(order: int) -> FilterBank:
    """The filter bank for ``order`` in {2, 3, 4}, built on the order's
    first call and shared by every later one.

    Raises
    ------
    ConfigError
        If the order is not supported.
    """
    if order not in SUPPORTED_ORDERS:
        raise ConfigError(
            f"unsupported wavelet order {order}; supported orders are "
            f"{', '.join(str(o) for o in SUPPORTED_ORDERS)}"
        )
    return _bank(order)


@cache
def _bank(order: int) -> FilterBank:
    arrays = [np.array([float(v) for v in values]) for values in (
        _lagrange_midpoint_fractions(order), _DERIV_FILTERS[order])]
    bank = FilterBank(order, *arrays)
    for array in arrays + [bank.predict_offsets]:
        array.flags.writeable = False
    return bank
