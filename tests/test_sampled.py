import math

import numpy as np
import pytest

from olab import (
    Ball,
    DomainError,
    GridSpec,
    ParameterError,
    SampledFunction,
    UnrepresentableBallError,
    ball_measure,
    sample_function,
)
from olab.sampled import (ball_mask, ball_sums, ball_windows, cell_window, distinct, half_width, row_prefix,
                          window_key, window_values)
from olab.errors import ConfigError

from conftest import random_indicator_sum


def test_ball_measure_values():
    assert ball_measure(1, 1.0) == 2.0
    assert ball_measure(2, 1.0) == pytest.approx(np.pi)
    assert ball_measure(2, 3.0) == pytest.approx(9 * np.pi)


def test_ball_measure_errors():
    with pytest.raises(DomainError):
        ball_measure(1, 0.0)
    with pytest.raises(DomainError):
        ball_measure(3, 1.0)
    for n, r in [(2, 1e200), (1, np.inf), (2, np.nan)]:  # measures that are no finite float
        with pytest.raises(DomainError, match="finite"):
            ball_measure(n, r)


def test_grid_validation():
    with pytest.raises(ParameterError):
        GridSpec(1, 1 / 64, 16.3)
    with pytest.raises(ParameterError):
        GridSpec(3, 1 / 64, 16.0)
    for h, extent in [(np.nan, 1.0), (np.inf, 1.0), (1 / 8, np.inf), (1 / 8, np.nan)]:
        with pytest.raises(ParameterError, match="finite"):
            GridSpec(1, h, extent)
    g = GridSpec(1, 1 / 64, 16.0)
    assert g.cells_per_axis == 2048
    ax = g.axis_centers()
    # cell edges align with the origin; centers are offset by h/2
    assert ax[0] == pytest.approx(-16 + 1 / 128)
    assert 0.0 not in ax


def test_indicator_integral_exact(grid64, unit_indicator):
    assert unit_indicator.integrate() == pytest.approx(2.0, abs=1e-12)
    assert unit_indicator.integrate(Ball((0.0,), 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_interior_cell_count():
    g = GridSpec(1, 1 / 64, 4.0)
    f = sample_function(g, {"type": "ball_indicator", "center": (0.0,), "radius": 1.0})
    assert int(f.values.sum()) == 128


def test_power_decay_cell_value(grid64):
    f = sample_function(grid64, {"type": "power_decay", "gamma": 0.5, "radius": 1.0})
    assert f.value_at(1 / 128) == pytest.approx((1 / 128) ** -0.5)


def test_power_decay_singular_integral():
    g = GridSpec(1, 1 / 256, 16.0)
    f = sample_function(g, {"type": "power_decay", "gamma": 0.5, "radius": 1.0})
    assert f.integrate() == pytest.approx(4.0, rel=0.03)


def test_power_decay_singular_cell_replacement():
    # put the singularity exactly on a cell center
    g = GridSpec(1, 1 / 64, 4.0)
    c = g.axis_centers()[g.cells_per_axis // 2 + 10]
    f = sample_function(g, {"type": "power_decay", "gamma": 0.5, "radius": 1.0, "center": (c,)})
    expected = (g.h / 2) ** -0.5 / (1 - 0.5)
    assert f.value_at(c) == pytest.approx(expected)
    assert np.all(np.isfinite(f.values))


def test_gaussian_at_origin(grid64):
    f = sample_function(grid64, {"type": "gaussian", "scale": 1.0})
    assert f.value_at(0.0) == pytest.approx(1.0, abs=1e-3)


def test_distribution_step_function(grid64):
    f = sample_function(grid64, {"type": "sum", "terms": [
        {"type": "ball_indicator", "center": (0.5,), "radius": 0.5},
        {"type": "ball_indicator", "center": (1.5,), "radius": 0.5, "weight": 2.0},
    ]})
    assert f.distribution(1.5) == pytest.approx(1.0)
    assert f.distribution(0.5) == pytest.approx(2.0)
    assert f.distribution(2.0) == 0.0  # strict inequality in the definition


def test_distribution_monotone_and_total_variation(grid64):
    rng = np.random.default_rng(3)
    f = random_indicator_sum(grid64, rng)
    ts = np.linspace(0, f.max_value() * 1.1, 50)
    ds = np.array([f.distribution(t) for t in ts])
    assert np.all(np.diff(ds) <= 0)
    assert ds[0] == pytest.approx(grid64.cell_volume * np.count_nonzero(f.values))
    assert ds[-1] == 0.0


def test_integrate_additive_over_disjoint_balls(grid64):
    rng = np.random.default_rng(5)
    f = random_indicator_sum(grid64, rng)
    b1, b2 = Ball((-3.0,), 1.0), Ball((3.0,), 1.0)
    both = f.integrate(b1) + f.integrate(b2)
    hull = f.integrate(Ball((0.0,), 4.0))
    assert both <= hull + 1e-12


def test_unrepresentable_ball():
    g = GridSpec(1, 1 / 64, 16.0)
    with pytest.raises(UnrepresentableBallError):
        sample_function(g, {"type": "ball_indicator", "center": (0.0,), "radius": 17.0})
    with pytest.raises(UnrepresentableBallError):
        sample_function(g, {"type": "ball_indicator", "center": (10.0,), "radius": 8.0})


def test_formula_errors(grid64):
    with pytest.raises(ConfigError):
        sample_function(grid64, {"type": "warp"})
    with pytest.raises(ConfigError):
        sample_function(grid64, {"type": "sum", "terms": []})
    with pytest.raises(ConfigError):
        sample_function(grid64, {"type": "power_decay", "gamma": 1.5, "radius": 1.0})


@pytest.mark.parametrize("term", [
    {"type": "gaussian", "scale": np.nan},
    {"type": "gaussian", "scale": np.inf},
    {"type": "gaussian", "center": (np.nan,)},
    {"type": "ball_indicator", "radius": np.nan},
    {"type": "ball_indicator", "radius": np.inf},
    {"type": "ball_indicator", "center": (-np.inf,), "radius": 1.0},
    {"type": "power_decay", "gamma": np.nan, "radius": 1.0},
    {"type": "power_decay", "gamma": 0.5, "radius": np.inf},
])
def test_non_finite_formula_parameter_rejected(grid64, term):
    with pytest.raises(ConfigError, match="finite"):
        sample_function(grid64, term)
    with pytest.raises(ConfigError, match="finite"):
        sample_function(grid64, {"type": "sum", "terms": [term]})


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
def test_non_finite_term_weight_rejected(grid64, weight):
    with pytest.raises(ConfigError, match="weight"):
        sample_function(grid64, {"type": "sum", "terms": [{"type": "gaussian", "weight": weight}]})


def test_overflowing_sum_samples_to_inf(grid64):
    f = sample_function(grid64, {"type": "sum", "terms": [{"type": "gaussian", "weight": 1e308}] * 2})
    assert f.value_at(0.0) == np.inf


def test_negative_values_rejected(grid64):
    with pytest.raises(DomainError):
        SampledFunction(grid64, np.full(grid64.shape(), -1.0))


def test_infinite_cell_makes_integral_infinite(grid64):
    vals = np.zeros(grid64.shape())
    vals[100] = np.inf
    f = SampledFunction(grid64, vals)
    assert f.integrate() == np.inf
    assert f.integrate(Ball((float(grid64.axis_centers()[100]),), 0.1)) == np.inf
    assert f.integrate(Ball((10.0,), 0.5)) == 0.0


def prefix_ball_sum(f, ball):
    """h^n * sum of f over the ball from row-prefix sums and the integer windows of cell_window."""
    g = f.grid
    prefix = np.concatenate([np.zeros((g.cells_per_axis ** (g.n - 1), 1)),
                             np.cumsum(f.values.reshape(-1, g.cells_per_axis), axis=1)], axis=1)
    if g.n == 1:
        rows, radii = [0], [ball.radius]
    else:
        i_lo, i_hi = cell_window(g, ball.center[0], ball.radius)
        rows = range(i_lo, i_hi + 1)
        d = g.axis_centers()[i_lo : i_hi + 1] - ball.center[0]
        radii = np.sqrt(np.maximum(ball.radius**2 - d**2, 0.0))
    total = 0.0
    for i, r in zip(rows, radii):
        j_lo, j_hi = cell_window(g, ball.center[-1], r)
        if j_lo <= j_hi:
            total += prefix[i, j_hi + 1] - prefix[i, j_lo]
    return float(total * g.cell_volume)


def test_prefix_sums_agree_with_integrate(grid64):
    rng = np.random.default_rng(11)
    f = random_indicator_sum(grid64, rng)
    for _ in range(100):
        b = Ball((float(rng.uniform(-15, 15)),), float(rng.uniform(0.01, 12)))
        assert prefix_ball_sum(f, b) == pytest.approx(f.integrate(b), abs=1e-12)


def test_prefix_sums_agree_2d(small_grid2d):
    rng = np.random.default_rng(13)
    f = random_indicator_sum(small_grid2d, rng)
    for _ in range(50):
        b = Ball(tuple(rng.uniform(-1.5, 1.5, size=2)), float(rng.uniform(0.05, 2.0)))
        assert prefix_ball_sum(f, b) == pytest.approx(f.integrate(b), abs=1e-12)


def exact_ball_mask(grid, ball):
    """Oracle: the cells whose centers satisfy |x - c| <= t (1-D) or dx^2 + dy^2 <= t^2 (2-D), no slack."""
    ax = grid.axis_centers()
    if grid.n == 1:
        return np.abs(ax - ball.center[0]) <= ball.radius
    dx = ax[:, None] - ball.center[0]
    dy = ax[None, :] - ball.center[1]
    return dx**2 + dy**2 <= ball.radius**2


def test_ball_mask_matches_exact_comparison(grid64, small_grid2d):
    # random balls come nowhere near the 1e-9-cell slack, so the rule picks the exact cells
    def draw_1d(rng):
        return Ball((float(rng.uniform(-15, 15)),), float(rng.uniform(0.01, 12)))

    def draw_2d(rng):
        return Ball(tuple(rng.uniform(-1.5, 1.5, size=2)), float(rng.uniform(0.05, 2.0)))

    for grid, seed, count, draw in [(grid64, 11, 100, draw_1d), (small_grid2d, 13, 50, draw_2d)]:
        rng = np.random.default_rng(seed)
        f = random_indicator_sum(grid, rng)
        for _ in range(count):
            b = draw(rng)
            mask = exact_ball_mask(grid, b)
            assert np.array_equal(f.ball_mask(b), mask)
            assert f.integrate(b) == f.values[mask].sum() * grid.cell_volume


@pytest.mark.parametrize("k", [0, 7, 31])
def test_ball_mask_keeps_cells_within_slack(k):
    # just below m h, inside the 1e-9-cell slack, a cell-centered ball covers the cells of radius m h
    g = GridSpec(2, 1 / 16, 1.0)
    f = SampledFunction(g, np.ones(g.shape()))
    x = float(g.axis_centers()[k])
    for center in [(x, x), (x, 0.03125)]:
        for m in (1, 3, 5):
            exact = Ball(center, m * g.h)
            assert np.array_equal(f.ball_mask(Ball(center, m * g.h * (1 - 1e-12))), f.ball_mask(exact))
            assert np.array_equal(f.ball_mask(exact), exact_ball_mask(g, exact))


def test_indicator_covers_the_ball_mask_cells():
    # inside the 1e-9-cell slack the exact d^2 <= r^2 gives 25 cells, the cell rule 29
    g = GridSpec(2, 1 / 16, 0.5)
    ball = Ball((g.h / 2, g.h / 2), 3 * g.h * (1 - 1e-12))
    f = sample_function(g, {"type": "ball_indicator", "center": ball.center, "radius": ball.radius})
    mask = f.ball_mask(ball)
    assert mask.sum() == 29
    assert np.array_equal(f.values > 0, mask)
    decay = sample_function(g, {"type": "power_decay", "gamma": 0.5, "center": ball.center, "radius": ball.radius})
    assert np.array_equal(decay.values > 0, mask)


def test_2d_disk_measure(small_grid2d):
    f = sample_function(small_grid2d, {"type": "ball_indicator", "center": (0.0, 0.0), "radius": 1.0})
    assert f.integrate() == pytest.approx(np.pi, rel=0.02)


def test_value_at_edge_goes_to_upper_cell(grid64, unit_indicator):
    # 3.0 is a cell edge; the containing cell is the one above
    f = sample_function(grid64, {"type": "ball_indicator", "center": (3.0 + 1 / 128,), "radius": 1 / 200})
    assert f.value_at(3.0) == 1.0


def window_cells(grid, windows, i):
    """Cells of ball i of ``ball_windows``, read back through ``window_values`` of the cell numbers 1, 2, ..."""
    numbers = window_values(np.arange(1.0, grid.cells_per_axis**grid.n + 1).reshape(grid.shape()))(windows)[i]
    numbers = numbers[numbers > 0].astype(int) - 1
    assert len(set(numbers)) == len(numbers)  # no cell twice
    return np.isin(np.arange(grid.cells_per_axis**grid.n), numbers).reshape(grid.shape())


def slack_ball_mask(grid, ball):
    """Oracle: the rule of the ``olab.sampled`` docstring, restated cell by cell (no windows, no tables)."""
    def bounds(center, radius):
        return ((center - radius + grid.extent) / grid.h - 0.5 - 1e-9,
                (center + radius + grid.extent) / grid.h - 0.5 + 1e-9)

    k = np.arange(grid.cells_per_axis)
    t = ball.radius
    a, b = bounds(ball.center[0], t)
    if grid.n == 1:
        return (k >= a) & (k <= b)
    d = grid.axis_centers() - ball.center[0]
    lo, hi = bounds(ball.center[1], np.sqrt(np.maximum(t * t - d**2, 0.0)))
    hi = np.where((k >= a) & (k <= b), hi, -1.0)  # rows outside the window cover no column
    return (k >= lo[:, None]) & (k <= hi[:, None])


def half_width_mask(grid, cell, radius):
    """Cells of the ball of ``radius`` around the center of ``cell``, row by row from ``half_width``."""
    mask = np.zeros(grid.shape(), bool)
    top = half_width(grid, radius)
    for dy in range(-top, top + 1) if grid.n == 2 else [0]:
        if 0 <= cell[0] + dy < grid.cells_per_axis:
            w = half_width(grid, radius, dy)
            (mask[cell[0] + dy] if grid.n == 2 else mask)[max(cell[-1] - w, 0) : cell[-1] + w + 1] = True
    return mask


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 8, 2.0), GridSpec(2, 1 / 8, 1.0)], ids=["1d", "2d"])
def test_ball_geometry_follows_the_slack_rule(grid):
    rng = np.random.default_rng(41)
    # centers on cells, between them and off the grid; radii from below h/2 past the grid, and one
    # just below 3h, inside the 1e-9-cell slack
    cells = rng.integers(0, grid.cells_per_axis, (10, grid.n))
    on_cells = [tuple(grid.axis_centers()[c]) for c in cells]
    centers = [tuple(c) for c in rng.uniform(-1.5, 1.5, (30, grid.n)) * grid.extent] + on_cells
    radii = np.concatenate([rng.uniform(0.1, 4, 8) * grid.h, [3 * grid.h * (1 - 1e-12), 3 * grid.extent]])
    for r in radii:
        windows = ball_windows(grid, centers, r)
        for i, c in enumerate(centers):
            oracle = slack_ball_mask(grid, Ball(c, r))
            assert np.array_equal(window_cells(grid, windows, i), oracle)
            assert np.array_equal(ball_mask(grid, Ball(c, r)), oracle)
        for cell, c in zip(cells, on_cells):
            assert np.array_equal(half_width_mask(grid, cell, r), slack_ball_mask(grid, Ball(c, r)))
    # an array of radii gives the windows of each radius on its own
    start, stop = ball_windows(grid, centers, radii)
    for j, r in enumerate(radii):
        assert all(np.array_equal(a[:, j], b) for a, b in zip((start, stop), ball_windows(grid, centers, r)))


@pytest.mark.parametrize("shape", [(1, 9), (6, 6)])
def test_row_prefix_reads_every_clipped_window(shape):
    rng = np.random.default_rng(44)
    values = rng.uniform(0, 1, shape) * 10.0 ** rng.integers(-8, 8, shape)  # rounding that shows any reordering
    m = shape[1]
    prefix = row_prefix(values)
    direct = np.concatenate([np.zeros((shape[0], 1)), np.cumsum(values, axis=1)], axis=1)
    for k in range(-m, 2 * m + 1):  # every slot: the sum of the first clip(k, 0, m) cells, bit for bit
        assert np.array_equal(prefix[:, m + k], direct[:, min(max(k, 0), m)])
    for c in range(m):
        for w in range(m):
            window = prefix[:, m + c + w + 1] - prefix[:, m + c - w]
            assert np.array_equal(window, direct[:, min(c + w + 1, m)] - direct[:, max(c - w, 0)])


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 8, 2.0), GridSpec(2, 1 / 8, 1.0)], ids=["1d", "2d"])
def test_window_key_names_the_covered_cells(grid):
    rng = np.random.default_rng(43)
    cells = rng.random(grid.shape()) < 0.3
    centers = [tuple(c) for c in rng.choice(grid.axis_centers(), (25, grid.n))] + [(0.3 * grid.h,) * grid.n]
    for r in (0.4 * grid.h, 1.5 * grid.h, 3.2 * grid.h, 3 * grid.extent):
        keys = window_key(cells, ball_windows(grid, centers, r))
        covered = [ball_mask(grid, Ball(c, r)) & cells for c in centers]
        for i in range(len(centers)):
            assert keys[i].any() == covered[i].any()
            for k in range(len(centers)):
                assert np.array_equal(keys[i], keys[k]) == np.array_equal(covered[i], covered[k])


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 8, 2.0), GridSpec(2, 1 / 8, 1.0)], ids=["1d", "2d"])
def test_ball_sums_bound_covers_the_rounding(grid):
    rng = np.random.default_rng(42)
    values = rng.uniform(0, 1, grid.shape()) * rng.integers(0, 2, grid.shape())
    values.flat[1] = 1e17  # every later prefix cancels catastrophically
    centers = [tuple(c) for c in rng.choice(grid.axis_centers(), (40, grid.n))]
    sums, bound = ball_sums(values, ball_windows(grid, centers, 2.5 * grid.h))
    exact = np.array([math.fsum(values[ball_mask(grid, Ball(c, 2.5 * grid.h))]) for c in centers])
    assert np.any(sums != exact)
    assert np.all(np.abs(sums - exact) <= bound)


def test_ball_sums_infinite_cells():
    grid = GridSpec(1, 1 / 8, 2.0)
    values = np.ones(grid.shape())
    values[[3, 20]] = np.inf
    centers = [(float(c),) for c in grid.axis_centers()]
    sums, bound = ball_sums(values, ball_windows(grid, centers, grid.h))
    direct = np.array([values[ball_mask(grid, Ball(c, grid.h))].sum() for c in centers])
    assert np.array_equal(sums, direct)
    assert np.count_nonzero(np.isinf(sums)) == 6 and np.isfinite(bound)


@pytest.mark.parametrize("size", [0, 1, 7, 40])
def test_distinct_is_np_unique(size):
    rng = np.random.default_rng(size)
    for values in (rng.integers(0, 5, size), rng.choice([0.5, 1 / 3, 2.0, 1e-300], (size, 2))):
        assert np.array_equal(distinct(values), np.unique(values))
