import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olab import (
    Ball,
    DomainError,
    GridSpec,
    SampledFunction,
    maximal,
    riesz_potential,
    sample_function,
)

from conftest import PIN_GRIDS, random_indicator_sum, stepped_function


def brute_force_maximal(f, alpha, radii):
    """Reference sweep: mask-and-sum over every (point, radius) pair."""
    g = f.grid
    ax = g.axis_centers()
    out = np.zeros_like(f.values)
    for i, x in enumerate(ax):
        best = 0.0
        for t in radii:
            mask = np.abs(ax - x) <= t * (1 + 1e-12)
            s = f.values[mask].sum() * g.h
            best = max(best, (2 * t) ** (alpha - 1.0) * s)
        out[i] = best
    return out


def sweep_maximal(f, alpha, radii=None):
    """Reference sweep over every radius with prefix sums (same arithmetic as olab)."""
    g = f.grid
    h, n = g.h, g.cells_per_axis
    prefix = np.concatenate([[0.0], np.cumsum(f.values)])
    ts = (np.arange(n) + 0.5) * h if radii is None else np.sort(radii)
    idx = np.arange(n)
    best = np.zeros(n)
    for t in ts:
        m = int(np.floor(t / h + 1e-9))
        sums = (prefix[np.minimum(idx + m, n - 1) + 1] - prefix[np.maximum(idx - m, 0)]) * h
        best = np.maximum(best, (2.0 * t) ** (alpha - 1.0) * sums)
    return best


def check_maximal_matches_sweeps(f, alpha, radii=None):
    fast = maximal(f, alpha=alpha, radii=radii).values
    assert np.array_equal(fast, sweep_maximal(f, alpha, radii))
    ref_radii = (np.arange(f.grid.cells_per_axis) + 0.5) * f.grid.h if radii is None else radii
    assert np.allclose(fast, brute_force_maximal(f, alpha, ref_radii), rtol=1e-12, atol=1e-12)


def test_closed_form_at_center(unit_indicator):
    m = maximal(unit_indicator, alpha=0.5)
    assert m.value_at(0.0) == pytest.approx(np.sqrt(2), rel=0.02)


def test_closed_form_off_support(unit_indicator):
    m = maximal(unit_indicator, alpha=0.5)
    assert m.value_at(3.0) == pytest.approx(2 ** -0.5, rel=0.02)


def test_constant_function_fixed_point(grid64):
    f = sample_function(grid64, {"type": "ball_indicator", "center": (0.0,), "radius": 16.0})
    m = maximal(f, alpha=0.0)
    interior = m.values[256:-256]
    assert np.all(interior == pytest.approx(1.0, abs=1e-12))


def test_zero_function(grid64, unit_indicator):
    z = unit_indicator.scaled(0.0)
    assert np.all(maximal(z, alpha=0.25).values == 0.0)
    assert np.all(riesz_potential(z, 0.25).values == 0.0)


def test_monotone_in_f(grid64):
    rng = np.random.default_rng(14)
    f = random_indicator_sum(grid64, rng)
    g2 = random_indicator_sum(grid64, rng)
    from olab import SampledFunction
    g_sum = SampledFunction(grid64, f.values + g2.values)
    assert np.all(maximal(f, alpha=0.25).values <= maximal(g_sum, alpha=0.25).values + 1e-15)


def test_scalar_homogeneity(grid64):
    rng = np.random.default_rng(15)
    f = random_indicator_sum(grid64, rng)
    m = maximal(f, alpha=0.25).values
    # powers of two scale exactly in floating point
    assert np.array_equal(maximal(f.scaled(2.0), alpha=0.25).values, 2.0 * m)
    m17 = maximal(f.scaled(1.7), alpha=0.25).values
    assert np.allclose(m17, 1.7 * m, rtol=1e-12)


def test_subadditive_in_f(grid64):
    rng = np.random.default_rng(19)
    f = random_indicator_sum(grid64, rng)
    g2 = random_indicator_sum(grid64, rng)
    from olab import SampledFunction
    s = SampledFunction(grid64, f.values + g2.values)
    lhs = maximal(s, alpha=0.25).values
    rhs = maximal(f, alpha=0.25).values + maximal(g2, alpha=0.25).values
    assert np.all(lhs <= rhs + 1e-12)


def test_alpha_domain():
    g = GridSpec(1, 1 / 16, 2.0)
    f = sample_function(g, {"type": "gaussian", "scale": 1.0})
    with pytest.raises(DomainError):
        maximal(f, alpha=1.0)
    with pytest.raises(DomainError):
        maximal(f, alpha=-0.1)
    with pytest.raises(DomainError):
        riesz_potential(f, 0.0)


def test_uncentered_dominates_centered(unit_indicator):
    c = maximal(unit_indicator, alpha=0.25).values
    u = maximal(unit_indicator, alpha=0.25, centered=False).values
    assert np.all(u >= c - 1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
def test_uncentered_comparison_bound(grid64, alpha):
    rng = np.random.default_rng(16)
    f = random_indicator_sum(grid64, rng)
    c = maximal(f, alpha=alpha).values
    u = maximal(f, alpha=alpha, centered=False).values
    assert np.all(u <= 2 ** (1 - alpha) * c * 1.01 + 1e-300)


def test_indicator_lower_bound(grid64):
    # on B_0 the fractional maximal of its indicator is at least r0^a / 2^(n-a)
    for r0 in (0.5, 1.0, 2.0):
        f = sample_function(grid64, {"type": "ball_indicator", "center": (0.0,), "radius": r0})
        for alpha in (0.25, 0.5):
            m = maximal(f, alpha=alpha)
            inside = np.abs(grid64.axis_centers()) <= r0
            bound = r0**alpha / 2 ** (1 - alpha) * (1 - 0.02)
            assert np.all(m.values[inside] >= bound)


def test_fast_path_agrees_with_brute_force():
    g = GridSpec(1, 1 / 16, 2.0)
    rng = np.random.default_rng(17)
    f = random_indicator_sum(g, rng)
    radii = (np.arange(g.cells_per_axis) + 0.5) * g.h
    fast = maximal(f, alpha=0.25).values
    ref = brute_force_maximal(f, 0.25, radii)
    assert np.allclose(fast, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("grid", PIN_GRIDS)
# near alpha = 1 the coefficient is almost flat and the block bounds are tight
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.9, 0.999])
def test_branch_and_bound_matches_sweep(grid, alpha):
    rng = np.random.default_rng(23)
    for _ in range(2):
        f = stepped_function(grid, rng)
        check_maximal_matches_sweeps(f, alpha)
        check_maximal_matches_sweeps(random_indicator_sum(grid, rng), alpha)


def test_branch_and_bound_custom_radii():
    # unsorted radii, some below h/2 and some reaching beyond the grid
    g = PIN_GRIDS[1]
    rng = np.random.default_rng(24)
    f = stepped_function(g, rng)
    for n_radii in (1, 2, 33, 75):
        radii = rng.permutation(np.concatenate([rng.uniform(0.1 * g.h, 3 * g.extent, n_radii - 1),
                                                [10 * g.extent]]))
        check_maximal_matches_sweeps(f, 0.0, radii)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS),
       st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_branch_and_bound_property(seed, grid, alpha):
    rng = np.random.default_rng(seed)
    f = stepped_function(grid, rng) if seed % 2 else random_indicator_sum(grid, rng)
    radii = None if seed % 3 else rng.uniform(0.05 * grid.h, 3 * grid.extent, rng.integers(1, 70))
    check_maximal_matches_sweeps(f, alpha, radii)


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 2.0), GridSpec(2, 1 / 8, 1.0)])
@pytest.mark.parametrize("centered", [True, False])
def test_maximal_rejects_non_finite_samples(grid, centered):
    vals = np.zeros(grid.shape())
    vals.flat[5] = np.inf
    with pytest.raises(DomainError, match="finite"):
        maximal(SampledFunction(grid, vals), alpha=0.25, centered=centered)


def test_riesz_closed_form(unit_indicator):
    out = riesz_potential(unit_indicator, 0.5)
    assert out.value_at(0.0) == pytest.approx(4.0, rel=0.03)


def test_riesz_dominates_maximal(grid64):
    rng = np.random.default_rng(18)
    for _ in range(5):
        f = random_indicator_sum(grid64, rng)
        m = maximal(f, alpha=0.5).values
        i = riesz_potential(f, 0.5).values
        assert np.all(m <= 2 ** -0.5 * i * 1.01 + 1e-300)


def test_2d_maximal_center_value(small_grid2d):
    f = sample_function(small_grid2d, {"type": "ball_indicator", "center": (0.0, 0.0), "radius": 1.0})
    m = maximal(f, alpha=0.5)
    assert m.value_at((0.0, 0.0)) == pytest.approx(np.pi**0.25, rel=0.02)


def test_2d_riesz_center_value(small_grid2d):
    f = sample_function(small_grid2d, {"type": "ball_indicator", "center": (0.0, 0.0), "radius": 1.0})
    out = riesz_potential(f, 1.0)
    assert out.value_at((0.0, 0.0)) == pytest.approx(2 * np.pi, rel=0.02)


def test_2d_uncentered_comparison():
    g = GridSpec(2, 1 / 8, 1.0)
    f = sample_function(g, {"type": "ball_indicator", "center": (0.0, 0.0), "radius": 0.5})
    c = maximal(f, alpha=0.5).values
    u = maximal(f, alpha=0.5, centered=False).values
    assert np.all(u <= 2 ** (2 - 0.5) * c * 1.01 + 1e-300)
