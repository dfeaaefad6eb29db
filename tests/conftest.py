import tracemalloc

import numpy as np
import pytest

from awcmaxwell.filters import build_filter_bank


@pytest.fixture(scope="session", params=[2, 3, 4])
def any_bank(request):
    return build_filter_bank(request.param)


@pytest.fixture(scope="session")
def bank2():
    return build_filter_bank(2)


@pytest.fixture(scope="session")
def bank4():
    return build_filter_bank(4)


def gaussian_field(n: int, sigma_frac: float, center=(0.5, 0.5)) -> np.ndarray:
    """Unit-amplitude Gaussian sampled on the unit square with n x n points."""
    x = np.linspace(0.0, 1.0, n)
    dx2 = (x[:, None] - center[0]) ** 2 + (x[None, :] - center[1]) ** 2
    return np.exp(-dx2 / (2.0 * sigma_frac**2))


def traced_peak(call):
    """(call(), the peak of the memory tracemalloc traced while it ran,
    in bytes)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def on_mesh(values, grid):
    """Values at a MaskGrid's points on an otherwise zero (n, n) mesh."""
    out = np.zeros(grid.spec.n**2)
    out[grid.points.flat] = values
    return out.reshape(grid.spec.n, grid.spec.n)
