from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d

from olab import (
    Ball,
    DomainError,
    GridSpec,
    ParameterError,
    SampledFunction,
    maximal,
    riesz_potential,
    sample_function,
)
from olab import operators
from olab.characterize import function_family
from olab.operators import _widen, stacked_maximal

from conftest import (
    PIN_GRIDS,
    PIN_GRIDS_2D,
    direct_riesz_2d,
    random_cells_2d,
    random_indicator_sum,
    stepped_function,
    sweep_maximal_2d,
)


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


def sweep_uncentered_maximal(f, alpha, radii=None):
    """Reference 1-D uncentered sweep: per radius, the centered window values, then their running max."""
    g = f.grid
    h, n = g.h, g.cells_per_axis
    prefix = np.concatenate([[0.0], np.cumsum(f.values)])
    if radii is None:
        ms = np.arange(n)
        ts = (ms + 0.5) * h
    else:
        ts = np.sort(radii)
        ms = np.floor(ts / h + 1e-9).astype(int)
    idx = np.arange(n)
    best = np.zeros(n)
    for m, t in zip(ms, ts):
        sums = (prefix[np.minimum(idx + m, n - 1) + 1] - prefix[np.maximum(idx - m, 0)]) * h
        vals = (2.0 * t) ** (alpha - 1.0) * sums
        w = min(m, n - 1)
        np.maximum(best, maximum_filter1d(vals, size=2 * w + 1, mode="constant", cval=-np.inf), out=best)
    return best


@pytest.mark.parametrize("grid", PIN_GRIDS)
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.9])
def test_1d_uncentered_matches_sweep(grid, alpha):
    rng = np.random.default_rng(25)
    # unsorted radii, some below h/2 and some reaching beyond the grid
    radii = rng.permutation(np.concatenate([rng.uniform(0.1 * grid.h, 0.5 * grid.h, 3),
                                            rng.uniform(0.5 * grid.h, 3 * grid.extent, 30),
                                            [10 * grid.extent]]))
    for f in (stepped_function(grid, rng), random_indicator_sum(grid, rng)):
        for r in (None, radii):
            fast = maximal(f, alpha=alpha, centered=False, radii=r).values
            assert np.array_equal(fast, sweep_uncentered_maximal(f, alpha, r))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS),
       st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=25, deadline=None)
def test_1d_uncentered_branch_and_bound_property(seed, grid, alpha):
    rng = np.random.default_rng(seed)
    f = stepped_function(grid, rng) if seed % 2 else random_indicator_sum(grid, rng)
    radii = None if seed % 3 else rng.uniform(0.05 * grid.h, 3 * grid.extent, rng.integers(1, 70))
    fast = maximal(f, alpha=alpha, centered=False, radii=radii).values
    assert np.array_equal(fast, sweep_uncentered_maximal(f, alpha, radii))


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (3, 40)])
def test_widen_matches_maximum_filter1d(shape):
    a = np.random.default_rng(26).uniform(0.0, 1.0, shape)
    n = shape[-1]
    for w in range(n + 2):
        ref = maximum_filter1d(a, 2 * w + 1, axis=-1, mode="constant", cval=-np.inf)
        assert np.array_equal(_widen(a, 0, w), ref)
        # from every narrower running max, as the 2-D sweep widens one width into the next
        for w0 in range(w):
            start = maximum_filter1d(a, 2 * w0 + 1, axis=-1, mode="constant", cval=-np.inf)
            assert np.array_equal(_widen(start, w0, w), ref)


@pytest.mark.parametrize("grid", [PIN_GRIDS[0], PIN_GRIDS_2D[0], PIN_GRIDS_2D[1]])
@pytest.mark.parametrize("centered", [True, False])
def test_radii_past_the_covering_radius_change_nothing(grid, centered):
    # from a corner cell, the ball reaches the opposite corner from this radius on
    cover = (grid.cells_per_axis - 1) * grid.h * np.sqrt(grid.n)
    rng = np.random.default_rng(27)
    f = SampledFunction(grid, rng.uniform(0.0, 2.0, grid.shape()))
    radii = np.concatenate([rng.uniform(0.1 * grid.h, cover, 20), [cover]])
    past = cover * rng.uniform(1.0, 3.0, 5)
    for alpha in (0.0, 0.5, 0.99 * grid.n):
        out = maximal(f, alpha=alpha, centered=centered, radii=radii).values
        assert np.array_equal(maximal(f, alpha=alpha, centered=centered, radii=np.append(radii, past)).values, out)
        # the sweeps take every radius
        if grid.n == 1:
            ref = (sweep_maximal if centered else sweep_uncentered_maximal)(f, alpha, np.append(radii, past))
        else:
            ref = sweep_maximal_2d(f, [alpha], np.append(radii, past))[alpha][0 if centered else 1]
        assert np.array_equal(out, ref)


@pytest.mark.parametrize("grid", [PIN_GRIDS[0], PIN_GRIDS_2D[2]])
@pytest.mark.parametrize("centered", [True, False])
def test_radius_whose_measure_overflows_changes_nothing(grid, centered):
    # no overflow warning: its ball has coef 0, and the row rule clips its radius before squaring it
    f = SampledFunction(grid, np.random.default_rng(28).uniform(0.0, 2.0, grid.shape()))
    out = maximal(f, alpha=0.5, centered=centered, radii=[1.0]).values
    assert np.array_equal(maximal(f, alpha=0.5, centered=centered, radii=[1.0, 1e200]).values, out)


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


@pytest.mark.parametrize("seed,grid", [(78, PIN_GRIDS[2]), (175, PIN_GRIDS[0]), (434, PIN_GRIDS[1]),
                                       (577, PIN_GRIDS[0])])
def test_centered_bisection_keeps_one_ulp_sups(seed, grid):
    # at one cell the sup lies an ulp or so above every value at the radii first evaluated there, so a
    # bound with any slack (1e-15 relative) would skip it
    f = stepped_function(grid, np.random.default_rng(seed))
    assert np.array_equal(maximal(f, alpha=0.0).values, sweep_maximal(f, 0.0))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS),
       st.floats(min_value=0.0, max_value=0.999, exclude_max=True))
@settings(max_examples=100, deadline=None)
def test_centered_bisection_property(seed, grid, alpha):
    # one indicator of weight 1 makes long plateaus, where the bisection's bounds tie best to the last ulp
    rng = np.random.default_rng(seed)
    if seed % 2:
        f = random_indicator_sum(grid, rng)
    else:
        f = sample_function(grid, {"type": "ball_indicator", "center": (float(rng.uniform(-1, 1)) * grid.extent / 2,),
                                   "radius": float(rng.uniform(grid.h / 4, grid.extent / 2))})
    radii = None if seed % 3 else rng.permutation(rng.uniform(0.05 * grid.h, 3 * grid.extent, rng.integers(1, 90)))
    assert np.array_equal(maximal(f, alpha=alpha, radii=radii).values, sweep_maximal(f, alpha, radii))


def random_family(grid, rng):
    """1 to 5 functions on one 1-D grid: random sums, steps with tied values, one-cell spikes, and zeros."""
    family = []
    for kind in rng.integers(0, 4, rng.integers(1, 6)):
        if kind == 0:
            family.append(random_indicator_sum(grid, rng))
        elif kind == 1:
            family.append(stepped_function(grid, rng))
        else:
            v = np.zeros(grid.shape())
            if kind == 2:
                v[int(rng.integers(0, grid.cells_per_axis))] = float(rng.uniform(0.1, 3.0))
            family.append(SampledFunction(grid, v))
    return family


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS), st.sampled_from([0.0, 0.25, 0.9]),
       st.booleans(), st.sampled_from([1, 100, 4096]))
@settings(max_examples=40, deadline=None)
def test_stacked_maximal_property(seed, grid, alpha, centered, stack_cells):
    # the stack, in groups of any size, equals each function's own maximal and the sweep over every radius
    rng = np.random.default_rng(seed)
    family = random_family(grid, rng)
    radii = None if seed % 3 else rng.uniform(0.05 * grid.h, 3 * grid.extent, rng.integers(1, 70))
    with mock.patch.object(operators, "_STACK_CELLS", stack_cells):
        stacked = stacked_maximal(family, alpha=alpha, centered=centered, radii=radii)
    sweep = sweep_maximal if centered else sweep_uncentered_maximal
    assert len(stacked) == len(family)
    for f, m in zip(family, stacked):
        assert m.grid == grid
        assert np.array_equal(m.values, maximal(f, alpha=alpha, centered=centered, radii=radii).values)
        assert np.array_equal(m.values, sweep(f, alpha, radii))


def test_stacked_maximal_needs_one_grid():
    a, b = GridSpec(1, 1 / 16, 2.0), GridSpec(1, 1 / 8, 2.0)
    with pytest.raises(ParameterError, match="one grid"):
        stacked_maximal([SampledFunction(a, np.ones(a.shape())), SampledFunction(b, np.ones(b.shape()))])
    assert stacked_maximal([]) == []


@pytest.mark.parametrize("grid", PIN_GRIDS_2D[:2])
@pytest.mark.parametrize("centered", [True, False])
def test_stacked_2d_maximal_equals_each_function(grid, centered):
    rng = np.random.default_rng(36)
    family = [random_cells_2d(grid, rng), SampledFunction(grid, np.zeros(grid.shape())), random_cells_2d(grid, rng)]
    for f, m in zip(family, stacked_maximal(family, alpha=0.5, centered=centered)):
        assert np.array_equal(m.values, maximal(f, alpha=0.5, centered=centered).values)


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 2.0), GridSpec(2, 1 / 8, 1.0)])
@pytest.mark.parametrize("centered", [True, False])
def test_maximal_rejects_non_finite_samples(grid, centered):
    vals = np.zeros(grid.shape())
    vals.flat[5] = np.inf
    with pytest.raises(DomainError, match="finite"):
        maximal(SampledFunction(grid, vals), alpha=0.25, centered=centered)


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 2.0), GridSpec(2, 1 / 8, 1.0)])
@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, pytest.param(None, id="2-D")])
def test_maximal_rejects_bad_radii(grid, radius):
    # None: positive radii in an array of two dimensions, once a bare TypeError
    radii = [[0.5, 1.0]] if radius is None else [0.5, radius]
    with pytest.raises(DomainError, match="radii"):
        maximal(SampledFunction(grid, np.ones(grid.shape())), alpha=0.25, radii=radii)


@pytest.mark.parametrize("grid,radius", [(GridSpec(1, 1 / 16, 2.0), 1e-310), (GridSpec(2, 1 / 8, 1.0), 1e-160),
                                         (GridSpec(2, 1 / 8, 1.0), 1e-200)])
def test_maximal_rejects_radii_whose_coefficient_overflows(grid, radius):
    # |B(x, t)|^(alpha/n - 1) past the largest float, or t * t rounding to 0
    with pytest.raises(DomainError, match="radii"):
        maximal(SampledFunction(grid, np.ones(grid.shape())), alpha=0.0, radii=[0.5, radius])


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 2.0), GridSpec(2, 1 / 8, 1.0)])
def test_riesz_rejects_non_finite_samples(grid):
    vals = np.zeros(grid.shape())
    vals.flat[5] = np.inf
    with pytest.raises(DomainError, match="finite"):
        riesz_potential(SampledFunction(grid, vals), 0.5)


def overflow_disk(grid, weight):
    disk = {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": 0.9, "weight": weight}
    return sample_function(grid, {"type": "sum", "terms": [disk]})


@pytest.mark.parametrize("grid, weight", [(GridSpec(1, 0.25, 1.0), 1.7e308), (GridSpec(2, 0.25, 1.0), 1e308)],
                         ids=["1d", "2d"])
def test_riesz_rejects_an_overflowing_potential(grid, weight):
    # every cell is finite, but the convolution overflows: once inf values in 1-D, and in 2-D RuntimeWarnings
    # from the FFT and a misleading "sampled values must be nonnegative" from its NaN output
    f = overflow_disk(grid, weight)
    assert np.isfinite(f.values).all()
    if grid.n == 2:  # the direct sum overflows too
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(direct_riesz_2d(f, 0.5)))
    with pytest.raises(DomainError, match="overflows"):
        riesz_potential(f, 0.5)
    # a thousandth of the weight stays finite
    assert np.isfinite(riesz_potential(f.scaled(1e-3), 0.5).values).all()


@pytest.mark.parametrize("weight", [1e306, 1e307, 1.5e307])
def test_2d_riesz_takes_a_finite_potential_whose_fft_overflows(weight):
    # the FFT's zero frequency sum f * sum K overflows, the potential (up to 1.76e308) does not: the FFT runs on
    # the sample scaled by a power of two, which is exact
    f = overflow_disk(GridSpec(2, 0.25, 1.0), weight)
    out = riesz_potential(f, 0.5).values
    assert np.isfinite(out).all()
    assert np.allclose(out, direct_riesz_2d(f, 0.5), rtol=1e-12, atol=0)
    assert np.array_equal(out, riesz_potential(f.scaled(2.0**-40), 0.5).values * 2.0**40)


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


def check_maximal_2d_matches_sweep(f, alphas, radii=None, monkeypatch=None):
    """With ``monkeypatch``, at three row-table budgets: no table, a whole grid's worth (one table, the most
    used half-width's, where the nonzero rows span the grid; more over a narrower band) and one for every
    half-width."""
    ref = sweep_maximal_2d(f, alphas, radii)
    for budget in [operators._TABLE_BYTES] if monkeypatch is None else [0, 8 * f.values.size, 2**62]:
        if monkeypatch is not None:
            monkeypatch.setattr(operators, "_TABLE_BYTES", budget)
        for alpha, (centered, uncentered) in ref.items():
            assert np.array_equal(maximal(f, alpha=alpha, radii=radii).values, centered)
            assert np.array_equal(maximal(f, alpha=alpha, centered=False, radii=radii).values, uncentered)


@pytest.mark.parametrize("grid", PIN_GRIDS_2D)
def test_2d_maximal_matches_sweep(grid, monkeypatch):
    rng = np.random.default_rng(31)
    check_maximal_2d_matches_sweep(random_cells_2d(grid, rng), [0.0, 0.5, 1.9], monkeypatch=monkeypatch)
    # unsorted radii, some below h/2 and some reaching beyond the grid
    radii = rng.permutation(np.concatenate([rng.uniform(0.1 * grid.h, 0.5 * grid.h, 3),
                                            rng.uniform(0.5 * grid.h, 4 * grid.extent, 12),
                                            [10 * grid.extent]]))
    check_maximal_2d_matches_sweep(random_cells_2d(grid, rng), [0.0, 0.5, 1.9], radii, monkeypatch)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS_2D),
       st.floats(min_value=0.0, max_value=1.95))
@settings(max_examples=20, deadline=None)
def test_2d_maximal_property(seed, grid, alpha):
    rng = np.random.default_rng(seed)
    f = random_cells_2d(grid, rng)
    if seed % 2:
        f = SampledFunction(grid, rng.uniform(0.0, 2.0, grid.shape()))
    radii = rng.uniform(0.05 * grid.h, 3 * grid.extent, rng.integers(1, 12))
    check_maximal_2d_matches_sweep(f, [alpha], radii)


@pytest.mark.parametrize("centered", [True, False])
def test_2d_disk_keeps_edge_rows_within_slack(centered):
    # just below m h, inside the 1e-9 h slack of m, the disk covers the same cells as at m h
    g = GridSpec(2, 1 / 8, 1.0)
    f = SampledFunction(g, np.random.default_rng(33).uniform(0.5, 1.5, g.shape()))
    for m in (1, 2, 5):
        t = m * g.h
        edge = maximal(f, alpha=0.5, centered=centered, radii=[t * (1 - 1e-12)]).values
        exact = maximal(f, alpha=0.5, centered=centered, radii=[t]).values
        assert np.allclose(edge, exact, rtol=1e-10, atol=0)
        assert np.array_equal(edge, sweep_maximal_2d(f, [0.5], [t * (1 - 1e-12)])[0.5][0 if centered else 1])


@pytest.mark.parametrize("k", [(8, 8), (0, 5), (15, 15)])
def test_2d_disk_cells_match_ball_mask(k):
    # the maximal of a one-cell function is positive exactly where the disk around the cell reaches
    g = GridSpec(2, 1 / 16, 0.5)
    t = 3 * g.h * (1 - 1e-12)
    vals = np.zeros(g.shape())
    vals[k] = 1.0
    f = SampledFunction(g, vals)
    ball = Ball(tuple(float(g.axis_centers()[i]) for i in k), t)
    assert np.array_equal(maximal(f, alpha=0.5, radii=[t]).values > 0, f.ball_mask(ball))
    if k == (8, 8):  # rows 0 and +-1, +-2, +-3 cover 7, 5, 5 and 1 cells
        assert np.count_nonzero(f.ball_mask(ball)) == 29


def compact_2d(grid, rng, kind):
    """2-D inputs whose bound lets the sweep skip radii: small indicators and sums of them, a one-cell spike,
    a zero function and a constant one."""
    if kind < 2:
        terms = [{"type": "ball_indicator", "center": tuple(rng.uniform(-grid.extent, grid.extent, 2) / 2),
                  "radius": float(rng.uniform(grid.h, grid.extent / 3)), "weight": float(rng.uniform(0.2, 3.0))}
                 for _ in range(1 if kind == 0 else int(rng.integers(2, 4)))]
        return sample_function(grid, {"type": "sum", "terms": terms})
    v = np.zeros(grid.shape())
    if kind == 2:
        v[tuple(rng.integers(0, grid.cells_per_axis, 2))] = float(rng.uniform(0.1, 3.0))
    elif kind == 4:
        v[:] = float(rng.uniform(0.1, 3.0))
    return SampledFunction(grid, v)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS_2D[1:]), st.integers(0, 4))
@settings(max_examples=15, deadline=None)
def test_2d_bound_skip_property(seed, grid, kind):
    # the sweep visits radii by their bound and stops at the first that cannot raise a cell: still every
    # cell of the sweep over every radius, for the default radii (on 16x16 cells, where the reference takes
    # half a second) and for unsorted, duplicated ones below h/2 and past the covering radius
    rng = np.random.default_rng(seed)
    f = compact_2d(grid, rng, kind)
    radii = None
    if seed % 3 or grid.cells_per_axis != 16:
        radii = np.concatenate([rng.uniform(0.1 * grid.h, 0.5 * grid.h, 2), rng.uniform(0.5 * grid.h, grid.extent, 8),
                                [4 * grid.extent]])
        radii = rng.permutation(np.concatenate([radii, radii[rng.integers(0, len(radii), 3)]]))
    for alpha, (centered, uncentered) in sweep_maximal_2d(f, [0.0, 0.5, 1.9], radii).items():
        assert np.array_equal(maximal(f, alpha=alpha, radii=radii).values, centered)
        assert np.array_equal(maximal(f, alpha=alpha, centered=False, radii=radii).values, uncentered)


def test_2d_uncentered_sweep_skips_radii(monkeypatch):
    g = PIN_GRIDS_2D[1]  # 16x16 cells
    f = compact_2d(g, np.random.default_rng(37), 1)
    swept, sweep = [], operators._sweep

    def counted(*args):
        for best, k in sweep(*args):
            swept.append(k)
            yield best, k

    monkeypatch.setattr(operators, "_sweep", counted)
    out = maximal(f, alpha=0.5, centered=False).values
    assert 0 < swept[0] < len(operators._radius_plan(g, 0.5, None)[0])
    assert np.array_equal(out, sweep_maximal_2d(f, [0.5])[0.5][1])


def test_stacked_2d_maximal_with_zero_member():
    # the zero member sweeps no radius; its neighbours are swept as if alone
    g = PIN_GRIDS_2D[1]
    rng = np.random.default_rng(38)
    family = [compact_2d(g, rng, 1), compact_2d(g, rng, 3), compact_2d(g, rng, 2)]
    refs = [sweep_maximal_2d(f, [0.5])[0.5] if f.values.any() else (f.values, f.values) for f in family]
    for centered in (True, False):
        for m, ref in zip(stacked_maximal(family, alpha=0.5, centered=centered), refs):
            assert np.array_equal(m.values, ref[0 if centered else 1])


def plan_cells(grid, ms, widths):
    """Cells of each ball of a radius plan, from the half-widths of its rows."""
    rows = 2 * ms + 1 if grid.n == 2 else np.ones_like(ms)
    return np.add.reduceat(2 * widths + 1, np.cumsum(rows) - rows)


def lattice_radii(grid):
    """The distances from a cell center to the others, ascending: the radii at which a ball gains cells."""
    k = np.arange(grid.cells_per_axis)
    d = k * grid.h if grid.n == 1 else np.hypot(*np.meshgrid(k, k)).ravel() * grid.h
    return np.unique(d[d > 0])


@pytest.mark.parametrize("grid", PIN_GRIDS + PIN_GRIDS_2D)
@pytest.mark.parametrize("default", [True, False])
def test_radius_plan_keeps_one_radius_per_ball(grid, default):
    rng = np.random.default_rng(44)
    radii = None if default else rng.uniform(0.1 * grid.h, 3 * grid.extent, 60)
    ts, coef, ms, widths = operators._radius_plan(grid, 0.5, radii)
    assert np.all(np.diff(plan_cells(grid, ms, widths)) > 0)
    assert np.all(np.diff(ts) > 0)
    # each kept radius is a ball of its own, with its own coefficient
    again = operators._radius_plan(grid, 0.5, ts)
    assert np.array_equal(again[0], ts) and np.array_equal(again[1], coef)
    if grid.n == 1 and default:  # every half-offset radius is a ball of its own
        assert np.array_equal(ts, (np.arange(grid.cells_per_axis) + 0.5) * grid.h)


@pytest.mark.parametrize("grid", PIN_GRIDS + PIN_GRIDS_2D[:2])
@pytest.mark.parametrize("centered", [True, False])
def test_duplicate_radii_change_nothing(grid, centered):
    # radii strictly between two lattice distances give the ball of the lower one, and radii past the covering
    # one the whole grid: the plan keeps one radius of each run, and the sup is the sweep's over every radius
    rng = np.random.default_rng(45)
    lattice = lattice_radii(grid)
    a = rng.integers(0, len(lattice) - 1, 6)
    between = lattice[a, None] + rng.uniform(0.01, 0.99, (6, 3)) * (lattice[a + 1] - lattice[a])[:, None]
    cover = (grid.cells_per_axis - 1) * grid.h * np.sqrt(grid.n)
    radii = rng.permutation(np.concatenate([lattice[a], between.ravel(), cover * rng.uniform(1.0, 3.0, 4)]))
    f = stepped_function(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng)
    for alpha in (0.0, 0.5, 0.9 * grid.n):
        ts = operators._radius_plan(grid, alpha, radii)[0]
        assert len(ts) <= len(np.unique(a)) + 1
        out = maximal(f, alpha=alpha, centered=centered, radii=radii).values
        if grid.n == 1:
            ref = (sweep_maximal if centered else sweep_uncentered_maximal)(f, alpha, radii)
        else:
            ref = sweep_maximal_2d(f, [alpha], radii)[alpha][0 if centered else 1]
        assert np.array_equal(out, ref)
        assert np.array_equal(maximal(f, alpha=alpha, centered=centered, radii=ts).values, out)


def banded_2d(grid, rng, kind):
    """2-D inputs whose nonzero rows are a band of the grid: a block touching the top, bottom, left and right
    edge (kinds 0-3), two rows with zero rows between them (4), one row (5), one cell (6), the zero function."""
    n = grid.cells_per_axis
    cells = rng.choice([0.5, 1.0, 1.7], grid.shape())
    k, r = int(rng.integers(1, n // 2 + 1)), int(rng.integers(0, n - 2))
    rows = [slice(0, k), slice(n - k, n), slice(r, r + 2), slice(r, r + 2), [r, r + 2], r, r, []][kind]
    cols = [slice(None), slice(None), slice(0, k), slice(n - k, n), slice(None), slice(None), int(rng.integers(0, n)),
            slice(None)][kind]
    v = np.zeros(grid.shape())
    v[rows, cols] = cells[rows, cols]
    return SampledFunction(grid, v)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS_2D[:2]), st.integers(0, 7))
@settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_2d_row_band_property(monkeypatch, seed, grid, kind):
    # the sweep reads only the rows that hold a nonzero sample: still every cell of the sweep over the whole
    # grid, at every table budget; for every fourth seed the default radii on 8x8 cells, else unsorted
    # duplicated ones
    rng = np.random.default_rng(seed)
    f = banded_2d(grid, rng, kind)
    radii = None
    if seed % 4 or grid.cells_per_axis != 8:
        radii = rng.uniform(0.1 * grid.h, 3 * grid.extent, 10)
        radii = rng.permutation(np.concatenate([radii, radii[rng.integers(0, len(radii), 3)]]))
    check_maximal_2d_matches_sweep(f, [0.0, 0.5, 1.9], radii, monkeypatch)


@pytest.mark.parametrize("kind", range(8))
def test_2d_uncentered_sweep_over_the_band_reach(kind):
    # uncentered, the running maxima widen only the rows [r0 - m, r1 + m) that the band reaches: supports touching
    # each edge, two rows apart, one row, one cell and the zero function, at the default radii on 8x8 cells and at
    # radii whose reach passes both edges of the grid on 16x16
    rng = np.random.default_rng(kind)
    for grid in PIN_GRIDS_2D[:2]:
        f = banded_2d(grid, rng, kind)
        radii = None
        if grid.cells_per_axis != 8:
            radii = rng.permutation(np.append(rng.uniform(0.1 * grid.h, 3 * grid.extent, 8), 4 * grid.extent))
        for alpha, (_, uncentered) in sweep_maximal_2d(f, [0.0, 0.5, 1.9], radii).items():
            assert np.array_equal(maximal(f, alpha=alpha, centered=False, radii=radii).values, uncentered)


def test_stacked_2d_maximal_of_indicators_with_different_supports():
    # each member's sweep reads its own band of rows
    g = PIN_GRIDS_2D[1]
    family = [f for _, f in function_family("indicators", g)]
    corner = np.zeros(g.shape())
    corner[-3:, -5:] = 2.0  # touches the last row and column
    family.append(SampledFunction(g, corner))
    assert len({tuple(np.flatnonzero(f.values.any(axis=1))) for f in family}) == len(family)
    for centered in (True, False):
        for m, f in zip(stacked_maximal(family, alpha=0.5, centered=centered), family):
            assert np.array_equal(m.values, maximal(f, alpha=0.5, centered=centered).values)


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 2.0), GridSpec(2, 1 / 8, 1.0)])
@pytest.mark.parametrize("centered", [True, False])
def test_maximal_rejects_overflowing_sum(grid, centered):
    # finite cells whose total overflows: once inf - inf in the prefix sums, "sampled values must be nonnegative"
    f = SampledFunction(grid, np.full(grid.shape(), 1e308))
    with pytest.raises(DomainError, match="overflows"):
        maximal(f, alpha=0.5, centered=centered)
    with pytest.raises(DomainError, match="overflows"):
        stacked_maximal([SampledFunction(grid, np.ones(grid.shape())), f], alpha=0.5, centered=centered)


@pytest.mark.parametrize("grid", [GridSpec(2, 1 / 16, 1.0), GridSpec(2, 1 / 8, 3.0), GridSpec(2, 1 / 16, 2.0)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
def test_2d_riesz_matches_direct_sum(grid, alpha):
    rng = np.random.default_rng(41)
    zero = SampledFunction(grid, np.zeros(grid.shape()))
    assert np.all(riesz_potential(zero, alpha).values == 0.0)
    h = grid.h
    singular = sample_function(grid, {"type": "power_decay", "gamma": 1.5, "radius": grid.extent / 2,
                                      "center": (h / 2, -h / 2)})
    # random cells reach the grid's edges, where the largest offsets x - y occur
    for f in (random_indicator_sum(grid, rng), random_cells_2d(grid, rng), singular):
        assert np.allclose(riesz_potential(f, alpha).values, direct_riesz_2d(f, alpha), rtol=1e-12, atol=0)
