import numpy as np
import pytest

from olab import GridSpec, sample_function


@pytest.fixture(scope="session")
def grid64():
    """Default 1-D desk grid: h = 1/64 on [-16, 16]."""
    return GridSpec(1, 1.0 / 64.0, 16.0)


@pytest.fixture(scope="session")
def unit_indicator(grid64):
    return sample_function(grid64, {"type": "ball_indicator", "center": (0.0,), "radius": 1.0})


@pytest.fixture(scope="session")
def small_grid2d():
    return GridSpec(2, 1.0 / 16.0, 2.0)


def random_indicator_sum(grid, rng, max_terms=3, gaussians=True):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        c = rng.uniform(-grid.extent / 2, grid.extent / 2, size=grid.n)
        r = float(rng.uniform(4 * grid.h, grid.extent / 4))
        w = float(rng.uniform(0.2, 3.0))
        terms.append({"type": "ball_indicator", "center": tuple(c), "radius": r, "weight": w})
    if gaussians and rng.random() < 0.4:
        terms.append({
            "type": "gaussian",
            "scale": float(rng.uniform(0.5, 2.0)),
            "center": tuple(rng.uniform(-2, 2, size=grid.n)),
            "weight": float(rng.uniform(0.2, 2.0)),
        })
    return sample_function(grid, {"type": "sum", "terms": terms})


def stepped_function(grid, rng):
    """1-D integer-weighted indicators: duplicate values, and zeros between the pieces."""
    terms = []
    for _ in range(rng.integers(1, 5)):
        c = float(rng.uniform(-grid.extent / 2, grid.extent / 2))
        r = float(rng.uniform(grid.h, grid.extent / 4))
        terms.append({"type": "ball_indicator", "center": (c,), "radius": r,
                      "weight": float(rng.integers(1, 4))})
    return sample_function(grid, {"type": "sum", "terms": terms})


# 1-D grids of 68, 80 and 96 cells for pinning the fast paths to per-ball and
# per-radius references; not all are multiples of the maximal's radius block
PIN_GRIDS = [GridSpec(1, 1 / 8, 4.25), GridSpec(1, 1 / 16, 2.5), GridSpec(1, 1 / 16, 3.0)]
