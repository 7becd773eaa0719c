import numpy as np
import pytest

from olab import (
    Ball,
    BallSums,
    DomainError,
    GridSpec,
    ParameterError,
    UnrepresentableBallError,
    ball_measure,
    sample_function,
)
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


def test_grid_validation():
    with pytest.raises(ParameterError):
        GridSpec(1, 1 / 64, 16.3)
    with pytest.raises(ParameterError):
        GridSpec(3, 1 / 64, 16.0)
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


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
def test_non_finite_term_weight_rejected(grid64, weight):
    with pytest.raises(ConfigError, match="weight"):
        sample_function(grid64, {"type": "sum", "terms": [{"type": "gaussian", "weight": weight}]})


def test_overflowing_sum_samples_to_inf(grid64):
    f = sample_function(grid64, {"type": "sum", "terms": [{"type": "gaussian", "weight": 1e308}] * 2})
    assert f.value_at(0.0) == np.inf


def test_negative_values_rejected(grid64):
    from olab import SampledFunction

    with pytest.raises(DomainError):
        SampledFunction(grid64, np.full(grid64.shape(), -1.0))


def test_infinite_cell_makes_integral_infinite(grid64):
    from olab import SampledFunction

    vals = np.zeros(grid64.shape())
    vals[100] = np.inf
    f = SampledFunction(grid64, vals)
    assert f.integrate() == np.inf
    assert f.integrate(Ball((float(grid64.axis_centers()[100]),), 0.1)) == np.inf
    assert f.integrate(Ball((10.0,), 0.5)) == 0.0


def test_prefix_sums_agree_with_integrate(grid64):
    rng = np.random.default_rng(11)
    f = random_indicator_sum(grid64, rng)
    bs = BallSums(f)
    for _ in range(100):
        b = Ball((float(rng.uniform(-15, 15)),), float(rng.uniform(0.01, 12)))
        assert bs.ball_sum(b) == pytest.approx(f.integrate(b), abs=1e-12)


def test_prefix_sums_agree_2d(small_grid2d):
    rng = np.random.default_rng(13)
    f = random_indicator_sum(small_grid2d, rng)
    bs = BallSums(f)
    for _ in range(50):
        b = Ball(tuple(rng.uniform(-1.5, 1.5, size=2)), float(rng.uniform(0.05, 2.0)))
        assert bs.ball_sum(b) == pytest.approx(f.integrate(b), abs=1e-12)


def test_2d_disk_measure(small_grid2d):
    f = sample_function(small_grid2d, {"type": "ball_indicator", "center": (0.0, 0.0), "radius": 1.0})
    assert f.integrate() == pytest.approx(np.pi, rel=0.02)


def test_value_at_edge_goes_to_upper_cell(grid64, unit_indicator):
    # 3.0 is a cell edge; the containing cell is the one above
    f = sample_function(grid64, {"type": "ball_indicator", "center": (3.0 + 1 / 128,), "radius": 1 / 200})
    assert f.value_at(3.0) == 1.0
