import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from olab import (
    Ball,
    ExpMinusOneYoung,
    GridSpec,
    LinearCappedYoung,
    MorreySampling,
    PowerGrowth,
    PowerLogYoung,
    PowerYoung,
    SampledFunction,
    TabulatedYoung,
    ball_measure,
    generalized_orlicz_morrey_norm,
    growth_from_lambda,
    luxemburg_norm,
    maximal,
    sample_function,
    triviality_probe,
    weak_orlicz_norm,
)
from olab.norms import stacked_morrey_norms
from olab import norms
from olab.errors import ConfigError, DomainError
from olab.norms import (
    NORM_REL_TOL,
    _argmax_witness,
    _ball_gauge_matrices,
    _bracket,
    _illinois,
    _lux_gauge,
    _morrey_matrices,
    _power_form,
    _strong_bound,
    _weak_gauge,
    _weak_weights,
    _work,
)
from olab.sampled import ball_windows, cell_window

from conftest import (
    PIN_GRIDS,
    PIN_GRIDS_2D,
    gauge_bisect,
    lux_gauge,
    merged_weak_sups,
    per_ball_gauges,
    per_ball_morrey,
    per_ball_oracle,
    per_ball_power_gauges,
    per_ball_weak_gauges,
    random_cells_2d,
    random_indicator_sum,
    sorted_gauges,
    stepped_function,
    weak_closed_gauge,
    weak_gauge,
    weak_weights,
)

P2 = PowerYoung(2)


def gauge_matrix(f, phi, centers, radii, weak, prefactor=None):
    """The ball gauges and work record of f alone, at arbitrary centers (a stack of one that shares none)."""
    gauges, works = _ball_gauge_matrices([f], phi, np.reshape(centers, (1, -1, f.grid.n)), 0, radii, weak, prefactor)
    return gauges[0], works[0]


def morrey_matrix(f, phi, varphi, centers, radii, weak, every_column=False):
    """The Morrey matrix and work record of f alone, at arbitrary centers."""
    vals, works = _morrey_matrices([f], phi, varphi, np.reshape(centers, (1, -1, f.grid.n)), 0, radii, weak,
                                   every_column)
    return vals[0], works[0]


def test_indicator_norm_closed_form(unit_indicator):
    # ||chi_B|| = 1 / phi_inv(|B|^{-1}) with |B| = 2
    assert luxemburg_norm(unit_indicator, P2).value == pytest.approx(np.sqrt(2), rel=1e-3)
    assert weak_orlicz_norm(unit_indicator, P2).value == pytest.approx(np.sqrt(2), rel=1e-3)


def test_interval_indicator_l3(grid64):
    f = sample_function(grid64, {"type": "ball_indicator", "center": (0.5,), "radius": 0.5})
    assert luxemburg_norm(f, PowerYoung(3)).value == pytest.approx(1.0, rel=1e-6)


def test_zero_function(grid64, unit_indicator):
    zero = unit_indicator.scaled(0.0)
    assert luxemburg_norm(zero, P2).value == 0.0
    assert weak_orlicz_norm(zero, P2).value == 0.0


def test_characteristic_law_digitized_measure(grid64):
    rng = np.random.default_rng(2)
    for phi in (PowerYoung(1.5), P2, PowerLogYoung(2, 1)):
        for _ in range(5):
            c, r = float(rng.uniform(-8, 8)), float(rng.uniform(0.1, 4))
            f = sample_function(grid64, {"type": "ball_indicator", "center": (c,), "radius": r})
            m = f.integrate()
            assert luxemburg_norm(f, phi).value == pytest.approx(1.0 / phi.inverse(1.0 / m), rel=1e-8)
            assert weak_orlicz_norm(f, phi).value == pytest.approx(1.0 / phi.inverse(1.0 / m), rel=1e-8)


def test_characteristic_law_analytic_for_aligned_balls(grid64):
    # grid-aligned 1-D balls: digitized measure equals 2r exactly
    for r in (0.25, 0.5, 1.0, 2.0):
        f = sample_function(grid64, {"type": "ball_indicator", "center": (0.0,), "radius": r})
        assert luxemburg_norm(f, P2).value == pytest.approx(1.0 / P2.inverse(1.0 / (2 * r)), rel=1e-3)


def test_linear_capped_is_sup_norm(grid64):
    f = sample_function(grid64, {"type": "sum", "terms": [
        {"type": "ball_indicator", "center": (0.0,), "radius": 1.0},
        {"type": "ball_indicator", "center": (0.5,), "radius": 0.25, "weight": 1.5},
    ]})
    assert luxemburg_norm(f, LinearCappedYoung()).value == pytest.approx(2.5, rel=1e-9)
    assert weak_orlicz_norm(f, LinearCappedYoung()).value == pytest.approx(2.5, rel=1e-9)


def test_normalization_property(grid64):
    rng = np.random.default_rng(8)
    for phi in (P2, PowerLogYoung(2, 1), PowerYoung(1.5)):
        f = random_indicator_sum(grid64, rng)
        lam = luxemburg_norm(f, phi).value
        assert f.grid.cell_volume * phi(f.values / lam).sum() <= 1 + 1e-6


def test_weak_normalization_property(grid64):
    rng = np.random.default_rng(9)
    f = random_indicator_sum(grid64, rng)
    lam = weak_orlicz_norm(f, P2).value
    for t in np.unique(f.values[f.values > 0]):
        assert P2(t / lam) * f.distribution(t * (1 - 1e-12)) <= 1 + 1e-6


def test_weak_below_strong_seeded(grid64):
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_indicator_sum(grid64, rng, gaussians=False)
        assert weak_orlicz_norm(f, P2).value <= luxemburg_norm(f, P2).value + 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_weak_below_strong_property(seed):
    g = GridSpec(1, 1 / 16, 4.0)
    rng = np.random.default_rng(seed)
    f = random_indicator_sum(g, rng)
    for phi in (P2, PowerLogYoung(2, 1)):
        assert weak_orlicz_norm(f, phi).value <= luxemburg_norm(f, phi).value + 1e-9


def test_positive_homogeneity(grid64):
    rng = np.random.default_rng(4)
    f = random_indicator_sum(grid64, rng)
    base = luxemburg_norm(f, P2).value
    for c in (0.3, 2.0, 17.5):
        assert luxemburg_norm(f.scaled(c), P2).value == pytest.approx(c * base, rel=1e-9)


def test_infinite_value_gives_infinite_norm(grid64):
    from olab import SampledFunction

    vals = np.zeros(grid64.shape())
    vals[50] = np.inf
    f = SampledFunction(grid64, vals)
    assert luxemburg_norm(f, P2).value == np.inf
    assert weak_orlicz_norm(f, P2).value == np.inf
    ev = generalized_orlicz_morrey_norm(f, P2, PowerGrowth(-0.25))
    assert ev.value == np.inf
    assert ev.witness is None  # witness only accompanies finite values


def test_ball_restriction(grid64, unit_indicator):
    b = Ball((0.0,), 0.5)
    assert luxemburg_norm(unit_indicator, P2, b).value == pytest.approx(1.0, rel=1e-3)
    far = Ball((10.0,), 0.5)
    assert luxemburg_norm(unit_indicator, P2, far).value == 0.0


def test_hoelder_type_bound(grid64):
    rng = np.random.default_rng(6)
    for _ in range(25):
        f = random_indicator_sum(grid64, rng)
        b = Ball((float(rng.uniform(-8, 8)),), float(rng.uniform(4 / 64, 8)))
        m = ball_measure(1, b.radius)
        lhs = f.integrate(b)
        rhs = 2 * m * P2.inverse(1 / m) * luxemburg_norm(f, P2, b).value
        assert lhs <= rhs * 1.02


# -- Orlicz-Morrey ------------------------------------------------------------


def test_morrey_lambda_half_closed_form(unit_indicator):
    # phi(r) = r^{-1/4}: the sup r^{1/4} (2r)^{-1/2} |B cap B_0|^{1/2} is 1 at r = 1
    ev = generalized_orlicz_morrey_norm(unit_indicator, P2, PowerGrowth(-0.25))
    assert ev.value == pytest.approx(1.0, rel=0.02)
    assert ev.witness is not None
    assert ev.witness.radius == pytest.approx(1.0, rel=0.05)
    assert abs(ev.witness.center[0]) < 0.1


def test_morrey_lambda_zero_recovers_global_norm(unit_indicator, grid64):
    varphi = growth_from_lambda(P2, 0.0, n=1, measure_based=True)
    ev = generalized_orlicz_morrey_norm(
        unit_indicator, P2, varphi,
        sampling=MorreySampling(r_min=4 * grid64.h, r_max=2.0**10, n_radii=128),
    )
    assert ev.value == pytest.approx(np.sqrt(2), rel=0.02)


def test_morrey_bracketing_for_indicators(grid64):
    varphi = growth_from_lambda(P2, 0.0)  # t^{-1/2}, in the almost-decreasing class
    for k in range(-3, 4):
        t0 = 2.0**k
        f = sample_function(grid64, {"type": "ball_indicator", "center": (0.0,), "radius": t0})
        v = generalized_orlicz_morrey_norm(f, P2, varphi).value
        assert v >= (1.0 / varphi(t0)) * (1 - 1e-9)
        assert v <= 4.0 / varphi(t0)


def test_morrey_monotone_in_truncation(unit_indicator, grid64):
    # nested radius ladders: r_min * 2^(k/8) up to r_max
    varphi = PowerGrowth(-0.25)
    vals = []
    for octaves in (4, 6, 9):
        s = MorreySampling(r_min=4 * grid64.h, r_max=4 * grid64.h * 2.0**octaves,
                           n_radii=8 * octaves + 1)
        vals.append(generalized_orlicz_morrey_norm(unit_indicator, P2, varphi, sampling=s).value)
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    dense = MorreySampling(r_min=4 * grid64.h, r_max=4 * grid64.h * 2.0**9,
                           n_radii=73, center_stride=2)
    assert generalized_orlicz_morrey_norm(unit_indicator, P2, varphi, sampling=dense).value >= vals[2] - 1e-12


def test_morrey_empty_sampling_rejected(unit_indicator):
    with pytest.raises(ConfigError):
        generalized_orlicz_morrey_norm(
            unit_indicator, P2, PowerGrowth(-0.25),
            sampling=MorreySampling(r_min=1.0, r_max=0.5),
        )


@pytest.mark.parametrize("r_min, r_max", [(np.nan, 1.0), (0.5, np.nan), (0.5, np.inf)])
def test_morrey_non_finite_sampling_rejected(r_min, r_max):
    g = GridSpec(1, 1 / 8, 2.0)
    f = sample_function(g, {"type": "ball_indicator", "center": (0.0,), "radius": 1.0})
    with pytest.raises(ConfigError):
        generalized_orlicz_morrey_norm(f, P2, PowerGrowth(-0.5), sampling=MorreySampling(r_min=r_min, r_max=r_max))


@pytest.mark.parametrize("field, value", [("center_stride", 0), ("center_stride", -4), ("center_stride", 2.5),
                                          ("center_stride", True), ("n_radii", 0), ("n_radii", -1), ("n_radii", 3.0)])
def test_morrey_bad_counts_rejected(unit_indicator, field, value):
    # a stride of 0 was a slice step (ValueError), 2.5 a TypeError and a negative one reversed the centers
    sampling = MorreySampling(r_min=0.5, r_max=1.0, **{field: value})
    with pytest.raises(ConfigError, match=field):
        generalized_orlicz_morrey_norm(unit_indicator, P2, PowerGrowth(-0.25), sampling=sampling)


@pytest.mark.parametrize("center", [np.nan, np.inf])
@pytest.mark.parametrize("phi", [P2, PowerLogYoung(2, 1)], ids=["closed-form", "root-find"])
def test_morrey_non_finite_center_rejected(center, phi):
    g = GridSpec(1, 1 / 8, 2.0)
    f = sample_function(g, {"type": "ball_indicator", "center": (0.0,), "radius": 1.0})
    sampling = MorreySampling(r_min=0.5, r_max=1.0, extra_centers=((center,),))
    with pytest.raises(ConfigError, match="finite centers"):
        generalized_orlicz_morrey_norm(f, phi, PowerGrowth(-0.5), sampling=sampling)


@pytest.mark.parametrize("grid,center", [(GridSpec(1, 1 / 8, 2.0), (0.1, 0.2)), (GridSpec(2, 1 / 4, 1.0), (0.1,))],
                         ids=["1d", "2d"])
def test_morrey_center_of_another_dimension_rejected(grid, center):
    # once a ValueError from an array of ragged centers
    f = sample_function(grid, {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": 0.5})
    sampling = MorreySampling(r_min=0.5, r_max=1.0, extra_centers=(center,))
    with pytest.raises(ConfigError, match=f"centers of {grid.n} coordinates"):
        generalized_orlicz_morrey_norm(f, P2, PowerGrowth(-0.5), sampling=sampling)


def tuple_sort_witness(vals, centers, radii):
    """Reference tie-break: the first of the tied (radius, center) tuples in Python's order."""
    best = np.max(vals)
    r, c = min((radii[j], centers[i]) for i, j in np.argwhere(vals == best))
    return float(best), Ball(c, float(r))


@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 4.0), GridSpec(2, 1 / 8, 0.5)], ids=["1d", "2d"])
def test_argmax_witness_matches_tuple_sort(grid):
    # at lambda = 0 every ball covering the whole support ties for the sup
    f = sample_function(grid, {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": 0.5})
    sampling = MorreySampling(r_min=grid.h, r_max=2 * grid.extent, n_radii=8, center_stride=2)
    centers = sampling.centers(f)
    radii = sampling.radii()
    assert centers[-1] == f.support_centroid()
    vals, _ = morrey_matrix(f, P2, growth_from_lambda(P2, 0.0, n=grid.n), centers, radii, weak=False)
    assert np.count_nonzero(vals == vals.max()) > 10
    assert _argmax_witness(vals, centers, radii) == tuple_sort_witness(vals, centers, radii)
    # integer values: ties everywhere, across radii and centers
    for seed in range(20):
        ties = np.random.default_rng(seed).integers(0, 3, vals.shape).astype(float)
        assert _argmax_witness(ties, centers, radii) == tuple_sort_witness(ties, centers, radii)


def test_fast_paths_agree_with_bisection(grid64):
    rng = np.random.default_rng(21)
    f = random_indicator_sum(grid64, rng)
    centers = [(float(c),) for c in rng.uniform(-8, 8, size=6)]
    radii = np.array([0.3, 1.0, 3.7, 9.0])
    for phi in (P2, PowerYoung(3), PowerYoung(2).compose_power(0.5)):
        for weak in (False, True):
            fast, work = gauge_matrix(f, phi, centers, radii, weak)
            assert work["path"] == "closed-form"
            assert np.allclose(fast, per_ball_gauges(f, phi, centers, radii, weak), rtol=1e-8, atol=1e-12)


def test_ball_cells_agree_between_closed_forms_and_ball_values(grid64):
    # just below 5h, inside the 1e-9-cell slack, both paths take the 11 cells of radius 5h
    rng = np.random.default_rng(22)
    f = random_indicator_sum(grid64, rng)
    k = int(np.argmax(f.values))
    ball = Ball((float(grid64.axis_centers()[k]),), 5 * grid64.h * (1 - 1e-12))
    assert f.ball_values(ball).size == 11
    for phi in (P2, PowerYoung(3)):
        for weak, norm in ((False, luxemburg_norm), (True, weak_orlicz_norm)):
            closed = gauge_matrix(f, phi, [ball.center], np.array([ball.radius]), weak)[0][0, 0]
            # the weak gauge of one ball is the Morrey sup's closed form bit for bit
            assert norm(f, phi, ball).value == (closed if weak else pytest.approx(closed, rel=NORM_REL_TOL))


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
def test_overflowing_power_takes_the_root_find(weak):
    # f**2 overflows at one cell, so the closed forms would read inf over it: the sample takes the
    # root-find, which divides by lam first, and every column maximum, value and witness is per-ball
    g = GridSpec(1, 1 / 8, 2.0)
    vals = np.ones(g.shape())
    vals[5] = 1e200
    f = SampledFunction(g, vals)
    sampling = oracle_sampling(g)
    centers, radii = sampling.centers(f), sampling.radii()
    fast, work = gauge_matrix(f, P2, centers, radii, weak)
    slow = per_ball_oracle(f, P2, centers, radii, weak)
    # weak: the closed form over f, not f**2, with no bisection
    path = "closed-form" if weak else "column-root-find"
    assert (work["path"], work["bisections"] > 0) == (path, not weak) and np.isfinite(slow).all() and slow.max() > 1e199
    assert np.array_equal(fast.max(axis=0), slow.max(axis=0))
    assert check_root_find(f, P2, (0.0, 0.5), weak, sampling).work["path"] == path


@pytest.mark.parametrize("top", [1e200, 1e300])
def test_gauges_of_huge_values_are_finite(top):
    # lo * hi of the bisection bracket overflows: the midpoint is taken by two square roots
    vals, cellvol = np.array([1.0, top, 1.0]), 0.125
    lux, weak = _lux_gauge(vals, cellvol, P2), _weak_gauge(vals, cellvol, P2)
    assert np.isfinite(lux) and cellvol * np.sum(P2(vals / lux)) <= 1.0
    # the weak closed form top * W[1] = top * sqrt(1/8) may sit an ulp below the float-feasible end
    assert abs(weak - top * np.sqrt(cellvol)) <= 2 * np.spacing(top * np.sqrt(cellvol))


def test_gauges_of_ordinary_values_keep_their_bits():
    # where lo * hi is a normal float the midpoint is its one square root, as it always was
    def one_root_bisect(constraint, maxv):
        lo, hi = 1e-12 * maxv, 1e12 * maxv + 1e-300
        while hi - lo > NORM_REL_TOL * hi:
            mid = np.sqrt(lo * hi)
            lo, hi = (lo, mid) if constraint(mid) <= 1.0 else (mid, hi)
        return hi

    cellvol = 0.125
    for top in (1e-100, 3.0, 1e100):
        vals = np.array([1.0, 3.0, 2.0]) * top
        expected = one_root_bisect(lambda lam: cellvol * float(np.sum(P2(vals / lam))), float(vals.max()))
        assert _lux_gauge(vals, cellvol, P2) == expected


@pytest.mark.parametrize("tiny", [1e-160, 1e-300])
def test_gauges_of_tiny_values_hold_their_tolerance(tiny):
    # lo * hi of the bracket is subnormal (or 0): the square roots keep the midpoints exact
    vals, cellvol = np.full(3, tiny), 0.125
    for gauge in (_lux_gauge, _weak_gauge):
        # three cells of value v, of measure 3/8 together: both gauges are v * sqrt(3/8)
        assert gauge(vals, cellvol, P2) == pytest.approx(tiny * np.sqrt(3 * cellvol), rel=2 * NORM_REL_TOL)


def per_ball_weak_power_gauges(f, phi, centers, radii):
    """Weak power gauges ball by ball: sort each ball's positive values of f**p (reference)."""
    p, scale = _power_form(phi)
    vp = f.values**p
    k_lo, k_hi = cell_window(f.grid, np.array([c[0] for c in centers])[:, None], np.asarray(radii)[None, :])
    sups = np.zeros(k_lo.shape)
    for i, j in np.ndindex(*k_lo.shape):
        if k_lo[i, j] > k_hi[i, j]:
            continue
        vs = np.sort(vp[k_lo[i, j] : k_hi[i, j] + 1])[::-1]
        vs = vs[vs > 0]
        if vs.size:
            sups[i, j] = np.max(vs * (f.grid.cell_volume * np.arange(1, vs.size + 1)))
    return (scale * sups) ** (1.0 / p)


WEAK_PHIS = [PowerYoung(1), P2, PowerYoung(3, scale=0.5), P2.compose_power(0.5)]


def pin_sampling(g):
    # every cell is a center (edge-clipped windows), plus the centroid, a center
    # off the cell centers and two balls entirely off the grid; the smallest
    # radii lie below h/2, so balls around cell edges start out empty
    return MorreySampling(r_min=0.2 * g.h, r_max=3 * g.extent, n_radii=40, center_stride=1,
                          extra_centers=((0.3 * g.h,), (g.extent + 1.0,), (-g.extent - 2.0,)))


def check_weak_gauges_match_per_ball(f, phi, centers, radii):
    fast, _ = gauge_matrix(f, phi, centers, radii, weak=True)
    assert np.allclose(fast, per_ball_weak_power_gauges(f, phi, centers, radii), rtol=1e-12, atol=0)


@pytest.mark.parametrize("grid", PIN_GRIDS)
def test_weak_power_gauges_match_per_ball_loop(grid):
    rng = np.random.default_rng(27)
    sampling = pin_sampling(grid)
    f = stepped_function(grid, rng)
    for g in (f, maximal(f, alpha=0.25)):
        centers = sampling.centers(g)
        # unsorted radii reach the same windows
        radii = rng.permutation(sampling.radii())
        for phi in WEAK_PHIS:
            check_weak_gauges_match_per_ball(g, phi, centers, radii)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS),
       st.sampled_from(WEAK_PHIS))
@settings(max_examples=25, deadline=None)
def test_weak_power_gauges_property(seed, grid, phi):
    rng = np.random.default_rng(seed)
    f = stepped_function(grid, rng) if seed % 2 else random_indicator_sum(grid, rng)
    centers = [(float(c),) for c in rng.uniform(-1.5 * grid.extent, 1.5 * grid.extent, rng.integers(1, 40))]
    radii = rng.uniform(0.1 * grid.h, 3 * grid.extent, rng.integers(1, 30))
    check_weak_gauges_match_per_ball(f, phi, centers, radii)


def merged_weak_gauges(f, phi, centers, radii):
    """Weak gauges of every 1-D ball from the merged-window reference ``merged_weak_sups``."""
    order = np.argsort(radii, kind="stable")
    windows = ball_windows(f.grid, centers, np.asarray(radii)[order])
    weights = np.concatenate([[0.0], weak_weights(phi, f.grid.cell_volume, f.values.size)])
    return merged_weak_sups(f.values, weights, windows)[:, np.argsort(order)]


def weak_oracle_samples(grid, rng):
    """An indicator sum, a stepped function and its maximal function, and cells of 0, 1 and 2 (ties)."""
    stepped = stepped_function(grid, rng)
    ties = SampledFunction(grid, rng.integers(0, 3, grid.shape()).astype(float))
    return [random_indicator_sum(grid, rng), stepped, maximal(stepped, alpha=0.25), ties]


@pytest.mark.parametrize("grid", PIN_GRIDS)
def test_weak_power_sups_equal_the_merged_windows(grid, monkeypatch):
    # with no prefactor nothing is skipped: every entry, flat runs included, is the reference's, whether exact
    # level counts evaluate the balls or (a budget of one level: any two distinct values) sorted windows
    rng = np.random.default_rng(41)
    sampling = pin_sampling(grid)
    for budget in (norms._LEVELS, 1):
        monkeypatch.setattr(norms, "_LEVELS", budget)
        for f in weak_oracle_samples(grid, rng):
            centers, radii = sampling.centers(f), rng.permutation(sampling.radii())
            for phi in WEAK_PHIS:
                fast, _ = gauge_matrix(f, phi, centers, radii, weak=True)
                assert np.array_equal(fast, merged_weak_gauges(f, phi, centers, radii))


def lambda_zero_prefactor(radii, rng):
    # the Morrey prefactor phi_inv(1/|B|) / varphi(r) at lambda = 0: flat up to an ulp or two
    return P2.inverse(1.0 / (2 * radii)) / growth_from_lambda(P2, 0.0)(radii)


PREFACTORS = {
    "constant": lambda radii, rng: np.ones(len(radii)),
    "flat to rounding": lambda_zero_prefactor,
    "increasing": lambda radii, rng: np.sqrt(radii),
    "decreasing": lambda radii, rng: 1 / np.sqrt(radii),
    "random": lambda radii, rng: rng.uniform(0.1, 10.0, len(radii)),
}


@pytest.mark.parametrize("shape", PREFACTORS)
@pytest.mark.parametrize("grid", PIN_GRIDS + PIN_GRIDS_2D[:1])
def test_weak_power_sups_skip_only_balls_below_the_sup(grid, shape, monkeypatch):
    # one level: every sample with two distinct values sorts its windows.  Every kept entry is the
    # reference's; a skipped one reads 0 and lies strictly below the sup, so the value and the witness are
    # the reference's: in 1-D the merged windows, in 2-D the per-ball closed form
    monkeypatch.setattr(norms, "_LEVELS", 1)
    rng = np.random.default_rng(43)
    sampling = pin_sampling(grid) if grid.n == 1 else oracle_sampling(grid)
    samples = weak_oracle_samples(grid, rng) if grid.n == 1 else [random_cells_2d(grid, rng), SampledFunction(
        grid, random_cells_2d(grid, rng).values * rng.uniform(1, 1.1, grid.shape()))]
    skipped, closed = 0, {"sorted_windows": 0, "certified": 0}
    for f in samples:
        centers, radii = sampling.centers(f), rng.permutation(sampling.radii())
        prefactor = PREFACTORS[shape](radii, rng)
        for phi in WEAK_PHIS:
            fast, work = gauge_matrix(f, phi, centers, radii, True, prefactor)
            fast = fast * prefactor
            for key in closed:
                closed[key] += work[key]
            slow = (merged_weak_gauges(f, phi, centers, radii) if grid.n == 1 else
                    per_ball_weak_gauges(f, phi, centers, radii)) * prefactor
            assert _argmax_witness(fast, centers, radii) == _argmax_witness(slow, centers, radii)
            kept = fast == slow
            assert np.all(kept | ((fast == 0) & (slow < slow.max())))
            skipped += np.count_nonzero(~kept)
    assert skipped > 0
    # flat prefactors take the level-count certificate; one that rises below the last radius never does
    if shape in ("constant", "flat to rounding", "decreasing"):
        assert (closed["certified"] > 0) == (shape != "decreasing")
    assert closed["sorted_windows"] > 0


def test_weak_power_sups_certify_ties_of_distinct_values(monkeypatch):
    # v**p of 2 at rank 1 and of 1 at rank 2 give the same term, 2 * cellvol, exactly; the runs from the
    # first count of either level to the last radius hold the last sup, and so does the closed form
    for grid in (GridSpec(1, 1 / 8, 2.0), GridSpec(2, 1 / 8, 1.0)):
        vp = np.zeros(grid.shape())
        vp.flat[[9, 20, 26]] = 2.0, 1.0, 0.5
        centers = np.array(MorreySampling(r_min=grid.h, r_max=grid.h, center_stride=1, include_centroid=False).centers(
            SampledFunction(grid, vp)))
        radii, weights = np.geomspace(0.05, 5.0, 30), grid.cell_volume * np.arange(vp.size + 1)
        windows = ball_windows(grid, centers, radii)
        reference = merged_weak_sups(vp, weights, windows) if grid.n == 1 else np.stack(
            [sorted_gauges(vp, weights, ball_windows(grid, centers, r)) for r in radii], axis=1)
        assert np.all(reference[:, -1] == 2 * grid.cell_volume)
        firsts = []
        for level in (1.0, 2.0):
            j0 = norms._tie_starts(vp, windows, np.full(len(centers), level))
            firsts.append(j0)
            for c, j in enumerate(j0):
                assert np.all(reference[c, j:] == reference[c, -1])
        assert np.any(firsts[0] != firsts[1])
        # the three values read from their level counts, which bisect the tied runs, then (a budget of one level)
        # from sorted windows, which certify them
        for budget in (norms._LEVELS, 1):
            monkeypatch.setattr(norms, "_LEVELS", budget)
            for prefactor in (None, np.ones(30)):
                sups, counts = norms._weak_power_sups(vp, weights, grid, centers, radii, prefactor)
                assert np.array_equal(sups, reference) if prefactor is None else np.all((sups == reference) | (sups == 0))
                assert (counts["certified"] > 0) == (counts["levels"] == 0) == (budget == 1)
        # a Morrey norm at lambda = 0, its three values past a budget of one level: the radius bisection certifies
        # the tied runs, and the value and witness are the per-ball oracle's
        f, varphi = SampledFunction(grid, np.sqrt(vp)), growth_from_lambda(P2, 0.0, n=grid.n)
        sampling = MorreySampling(r_min=0.05, r_max=5.0, n_radii=30, center_stride=2)
        ev = generalized_orlicz_morrey_norm(f, P2, varphi, weak=True, sampling=sampling)
        assert ev.work["levels"] == 0 and ev.work["certified"] > 0
        centers, radii = sampling.centers(f), sampling.radii()
        assert (ev.value, ev.witness) == per_ball_morrey(f, P2, varphi, centers, radii, weak=True)[1:]


@pytest.mark.parametrize("phi", [P2, P2.compose_power(1 / 3)])
def test_weak_morrey_witness_matches_per_ball_argmax(phi):
    # the Morrey prefactor is constant in r (lambda = 0): hundreds of balls tie exactly
    g = PIN_GRIDS[1]
    f = maximal(stepped_function(g, np.random.default_rng(29)), alpha=0.25)
    varphi = growth_from_lambda(phi, 0.0)
    sampling = pin_sampling(g)
    ev = generalized_orlicz_morrey_norm(f, phi, varphi, weak=True, sampling=sampling)
    centers, radii = sampling.centers(f), sampling.radii()
    vals, best, witness = per_ball_morrey(f, phi, varphi, centers, radii, weak=True)
    assert (ev.value, ev.witness) == (best, witness) and np.count_nonzero(vals == best) > 100
    # smallest radius first, then lexicographic center
    r, c = min((radii[j], centers[i]) for i, j in np.argwhere(vals == vals.max()))
    assert (ev.witness.center, ev.witness.radius) == (c, r)


def test_generic_young_kind_morrey_sweep(unit_indicator, grid64):
    # power-log Young functions take the bisection route through the sweep
    sampling = MorreySampling(r_min=4 * grid64.h, r_max=8.0, n_radii=12, center_stride=256)
    ev = generalized_orlicz_morrey_norm(unit_indicator, PowerLogYoung(2, 1), PowerGrowth(-0.25),
                                        sampling=sampling)
    assert np.isfinite(ev.value) and ev.value > 0
    assert ev.witness is not None
    # the centroid center (the origin) dominates for the symmetric indicator
    assert abs(ev.witness.center[0]) < 0.25


def test_weak_morrey_below_strong_morrey(unit_indicator):
    varphi = PowerGrowth(-0.25)
    s = generalized_orlicz_morrey_norm(unit_indicator, P2, varphi).value
    w = generalized_orlicz_morrey_norm(unit_indicator, P2, varphi, weak=True).value
    assert w <= s + 1e-9


def test_morrey_2d_disk_closed_form(small_grid2d):
    # phi(r) = r^(-1/4): value r^(1/4) min(pi r^2, pi)^(1/2) (pi r^2)^(-1/2)
    # peaks at r = 1 with value 1, mirroring the 1-D power model
    disk = sample_function(small_grid2d, {"type": "ball_indicator", "center": (0.0, 0.0), "radius": 1.0})
    sampling = MorreySampling(r_min=4 * small_grid2d.h, r_max=2 * small_grid2d.extent,
                              n_radii=25, center_stride=16)
    ev = generalized_orlicz_morrey_norm(disk, P2, PowerGrowth(-0.25), sampling=sampling)
    assert ev.value == pytest.approx(1.0, rel=0.03)
    assert ev.witness.radius == pytest.approx(1.0, rel=0.15)
    evw = generalized_orlicz_morrey_norm(disk, P2, PowerGrowth(-0.25), weak=True, sampling=sampling)
    assert evw.value <= ev.value + 1e-9


@pytest.mark.parametrize("lam, expected", [(-1.0, "diverges"), (2.0, "diverges"), (0.5, "holds-stable")])
def test_triviality_probe(lam, expected):
    rep = triviality_probe(P2, growth_from_lambda(P2, lam))
    assert rep.verdict == expected
    seqs = rep.details
    assert all(np.all(np.diff(seqs[leg]["values"]) >= -1e-12) for leg in ("upper", "lower"))


def test_triviality_probe_direction_detail():
    up = triviality_probe(P2, growth_from_lambda(P2, -1.0)).details
    assert up["upper"]["verdict"] == "diverges"
    assert up["lower"]["verdict"] == "holds-stable"
    low = triviality_probe(P2, growth_from_lambda(P2, 2.0)).details
    assert low["lower"]["verdict"] == "diverges"


def test_triviality_probe_memory():
    # the strong closed form takes its radii in groups within _SUM_BYTES: once 6.1 MiB traced per probe on
    # the default grid, where it made the windows of 513 centers x 309 radii at once
    varphi = growth_from_lambda(P2, -1.0)
    first = triviality_probe(P2, varphi)
    tracemalloc.start()
    try:
        again = triviality_probe(P2, varphi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert (again.constants, again.details, again.verdict) == (first.constants, first.details, first.verdict)


@pytest.mark.parametrize("per", [1, 3, 10])
def test_strong_power_gauges_do_not_depend_on_the_group_size(per, monkeypatch):
    # a stack of two closed-form functions with shared and own centers, its 10 radii in groups of 1, 3 (the
    # last one short) and 10: the very gauges of the default budget
    g = PIN_GRIDS[0]
    rng = np.random.default_rng(39)
    fs = [random_indicator_sum(g, rng), stepped_function(g, rng)]
    sampling = MorreySampling(r_min=g.h, r_max=2 * g.extent, n_radii=10, center_stride=6, extra_centers=((0.3,),))
    centers, shared = sampling.center_stack(fs)
    assert shared < centers.shape[1]
    for phi in (P2, PowerYoung(3)):
        ref, _ = _ball_gauge_matrices(fs, phi, centers, shared, sampling.radii(), weak=False)
        with monkeypatch.context() as m:
            m.setattr(norms, "_SUM_BYTES", 8 * centers.shape[1] * per)
            out, works = _ball_gauge_matrices(fs, phi, centers, shared, sampling.radii(), weak=False)
        assert np.array_equal(out, ref) and all(w["path"] == "closed-form" for w in works)


# -- the column root-find against the per-ball oracle ---------------------------

TABULATED = TabulatedYoung(np.array([0.5, 1.0, 2.0, 4.0]), np.array([0.25, 1.0, 4.0, np.inf]))
ROOT_FIND_PHIS = {"power_log": PowerLogYoung(2, 1), "exp_minus_one": ExpMinusOneYoung(),
                  "linear_capped": LinearCappedYoung(), "tabulated": TABULATED}
# the six kinds: a power, power_log, exp_minus_one, linear_capped, a composed power and a tabulated conjugate
SIX_KINDS = {"power": P2, "power_log": PowerLogYoung(2, 1), "exp_minus_one": ExpMinusOneYoung(),
             "linear_capped": LinearCappedYoung(), "composed_power": PowerLogYoung(2, 1).compose_power(0.5),
             "conjugate": PowerLogYoung(2, 1).conjugate()}
ROOT_FIND_CASES = [(g, name) for g in PIN_GRIDS for name in ROOT_FIND_PHIS] + [
    (PIN_GRIDS_2D[0], name) for name in ["power", *ROOT_FIND_PHIS]] + [
    (PIN_GRIDS_2D[1], name) for name in ["power", "exp_minus_one"]]
# strong power gauges take the closed form in 2-D too (``test_strong_power_gauges_equal_the_closed_form``)
ROOT_FIND_PARAMS = [pytest.param(g, name, weak, id=f"grid{k}-{name}-{'weak' if weak else 'strong'}")
                    for k, (g, name) in enumerate(ROOT_FIND_CASES) for weak in (False, True)
                    if weak or name != "power"]


def oracle_sampling(g):
    # radii from below h/2 (balls around cell edges start out empty) to past
    # the grid; the centroid, a center off the cell centers and one off the grid
    return MorreySampling(r_min=0.2 * g.h, r_max=3 * g.extent, n_radii=8, center_stride=4 if g.n == 1 else 3,
                          extra_centers=((0.3 * g.h,) * g.n, (g.extent + 1.0,) * g.n))


def check_root_find(f, phi, lams, weak, sampling):
    """Value and witness equal the per-ball path's for each lambda; returns the last evaluation."""
    centers, radii = sampling.centers(f), sampling.radii()
    gauges = per_ball_oracle(f, phi, centers, radii, weak)
    for lam in lams:
        varphi = growth_from_lambda(phi, lam, n=f.grid.n)
        ev = generalized_orlicz_morrey_norm(f, phi, varphi, weak=weak, sampling=sampling)
        _, best, witness = per_ball_morrey(f, phi, varphi, centers, radii, gauges=gauges)
        assert (ev.value, ev.witness) == (best, witness)
    return ev


@pytest.mark.parametrize("grid, name, weak", ROOT_FIND_PARAMS)
def test_root_find_matches_per_ball(grid, name, weak):
    rng = np.random.default_rng(31)
    f = stepped_function(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng)
    phi = ROOT_FIND_PHIS.get(name, P2)
    # lambda = 0 makes the prefactor tie many balls exactly
    work = check_root_find(f, phi, (0.0, 0.5), weak, oracle_sampling(grid)).work
    assert work["path"] == ("closed-form" if weak else "column-root-find") and ("replayed" in work) == (not weak)


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
def test_root_find_bisects_only_near_the_sup(weak):
    # the column root-find re-bisects the one or two balls that attain the
    # sup, not whole columns; the weak closed form bisects none
    g = GridSpec(1, 1 / 64, 1.0)
    for seed in range(2):
        f = random_indicator_sum(g, np.random.default_rng(seed))
        for phi in (PowerLogYoung(2, 1), ExpMinusOneYoung()):
            for lam in (0.0, 0.5):
                ev = generalized_orlicz_morrey_norm(f, phi, growth_from_lambda(phi, lam), weak=weak)
                assert ev.work["bisections"] <= (0 if weak else 2)


@pytest.mark.parametrize("grid", [PIN_GRIDS[0], PIN_GRIDS_2D[0]], ids=["1d", "2d"])
@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
def test_root_find_extreme_inputs(grid, weak):
    zero = SampledFunction(grid, np.zeros(grid.shape()))
    ev = check_root_find(zero, ExpMinusOneYoung(), [0.5], weak, oracle_sampling(grid))
    assert ev.value == 0.0 and ev.work["bisections"] == 0
    # values of 200 and more: exp(f/lam) - 1 overflows to inf over most of the search
    rng = np.random.default_rng(33)
    tall = (stepped_function(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng)).scaled(400.0)
    check_root_find(tall, ExpMinusOneYoung(), [0.5], weak, oracle_sampling(grid))
    inf = np.zeros(grid.shape())
    inf.flat[5] = np.inf
    ev = check_root_find(SampledFunction(grid, inf), PowerLogYoung(2, 1), [0.5], weak, oracle_sampling(grid))
    assert ev.value == np.inf and ev.witness is None and ev.work["bisections"] == 0


@pytest.mark.parametrize("grid", [PIN_GRIDS[0], PIN_GRIDS_2D[0]], ids=["1d", "2d"])
@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
def test_infinite_cell_beside_finite_ones(grid, weak):
    # an infinite cell decides the sup with no bisection once a ball covers
    # it; balls that miss it keep their gauges, so column maxima and a sup
    # over balls that all miss it equal the per-ball ones
    rng = np.random.default_rng(34)
    v = (stepped_function(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng)).values.copy()
    v.flat[5] = np.inf
    f, phi = SampledFunction(grid, v), PowerLogYoung(2, 1)
    assert check_root_find(f, phi, [0.5], weak, oracle_sampling(grid)).work["bisections"] == 0
    missing = MorreySampling(r_min=0.2 * grid.h, r_max=0.9 * grid.h, n_radii=3, center_stride=4 if grid.n == 1 else 3,
                             include_centroid=False)
    assert np.isfinite(check_root_find(f, phi, [0.0, 0.5], weak, missing).value)
    sampling = oracle_sampling(grid)
    centers, radii, varphi = sampling.centers(f), sampling.radii(), growth_from_lambda(phi, 0.5, n=grid.n)
    fast, _ = morrey_matrix(f, phi, varphi, centers, radii, weak, every_column=True)
    slow = per_ball_morrey(f, phi, varphi, centers, radii, weak)[0]
    assert np.array_equal(fast.max(axis=0), slow.max(axis=0)) and np.isfinite(slow.max(axis=0)).any()


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS[:2] + PIN_GRIDS_2D[:1]),
       st.sampled_from(["power", *ROOT_FIND_PHIS]), st.booleans(), st.sampled_from([0.0, 0.25, 0.5]))
@settings(max_examples=12, deadline=None)
def test_root_find_property(seed, grid, name, weak, lam):
    assume(name != "power" or weak)  # strong power kinds take their closed form
    rng = np.random.default_rng(seed)
    if grid.n == 2:
        f = random_cells_2d(grid, rng)
    else:
        f = stepped_function(grid, rng) if seed % 2 else random_indicator_sum(grid, rng)
    extra = tuple(tuple(rng.uniform(-1.5, 1.5, grid.n) * grid.extent) for _ in range(rng.integers(0, 3)))
    r_min = float(rng.uniform(0.1, 3)) * grid.h
    sampling = MorreySampling(r_min=r_min, r_max=r_min * float(rng.uniform(1, 40)), n_radii=int(rng.integers(1, 6)),
                              center_stride=int(rng.integers(2, 6)), include_centroid=bool(seed % 3),
                              extra_centers=extra)
    check_root_find(f, ROOT_FIND_PHIS.get(name, P2), [lam], weak, sampling)


def random_sampling(grid, rng):
    """A small random Morrey sampling: radii from below h/2 on, strides, the centroid or not, extra centers
    on and off the grid."""
    extra = tuple(tuple(rng.uniform(-1.5, 1.5, grid.n) * grid.extent) for _ in range(rng.integers(0, 3)))
    r_min = float(rng.uniform(0.1, 3)) * grid.h
    return MorreySampling(r_min=r_min, r_max=r_min * float(rng.uniform(1, 40)), n_radii=int(rng.integers(1, 6)),
                          center_stride=int(rng.integers(2, 6)), include_centroid=bool(rng.integers(0, 2)),
                          extra_centers=extra)


# -- the strong power closed form against its per-ball oracle -------------------

CLOSED_FORM_PHIS = [P2, PowerYoung(3), PowerYoung(2).compose_power(0.5)]


def check_closed_form(f, phis, lams, sampling):
    """Strong power gauges == the per-ball closed form (``per_ball_power_gauges``), and within NORM_REL_TOL
    of the per-ball bisection; value, witness and work record those of the closed-form oracle per lambda."""
    centers, radii = sampling.centers(f), sampling.radii()
    for phi in phis:
        gauges, work = gauge_matrix(f, phi, centers, radii, weak=False)
        exact = per_ball_power_gauges(f, phi, centers, radii)
        assert work == {"path": "closed-form", "bisections": 0}
        assert np.array_equal(gauges, exact)
        assert np.allclose(gauges, per_ball_gauges(f, phi, centers, radii, False), rtol=NORM_REL_TOL, atol=0)
        for lam in lams:
            varphi = growth_from_lambda(phi, lam, n=f.grid.n)
            ev = generalized_orlicz_morrey_norm(f, phi, varphi, sampling=sampling)
            _, best, witness = per_ball_morrey(f, phi, varphi, centers, radii, gauges=exact)
            assert (ev.value, ev.witness, ev.work) == (best, witness, work)


@pytest.mark.parametrize("grid", [PIN_GRIDS[0], *PIN_GRIDS_2D[:2]], ids=["1d-68-cells", "8x8-cells", "16x16-cells"])
def test_strong_power_gauges_equal_the_closed_form(grid):
    # the 2-D cases were the power/strong cases of test_root_find_matches_per_ball (grid12, grid17), on the
    # same samples and sampling; lambda = 0 makes the prefactor tie many balls exactly
    check_closed_form(root_find_sample(grid, 31), CLOSED_FORM_PHIS, (0.0, 0.5), oracle_sampling(grid))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS_2D[:2]),
       st.sampled_from(CLOSED_FORM_PHIS), st.sampled_from([0.0, 0.25, 0.5]))
@settings(max_examples=12, deadline=None)
def test_2d_closed_form_property(seed, grid, phi, lam):
    # the 2-D power/strong examples that test_root_find_property drew before 2-D took the closed form
    rng = np.random.default_rng(seed)
    check_closed_form(random_cells_2d(grid, rng), [phi], [lam], random_sampling(grid, rng))


@pytest.mark.parametrize("cell", [1e200, np.inf], ids=["overflow", "inf"])
def test_2d_power_samples_the_closed_form_cannot_take(cell):
    # f**2 overflows, or is inf, at one cell: the sample takes the root-find, == the per-ball bisection
    grid = PIN_GRIDS_2D[0]
    vals = random_cells_2d(grid, np.random.default_rng(41)).values.copy()
    vals.flat[5] = cell
    f, sampling = SampledFunction(grid, vals), oracle_sampling(grid)
    centers, radii = sampling.centers(f), sampling.radii()
    fast, work = gauge_matrix(f, P2, centers, radii, weak=False)
    slow = per_ball_gauges(f, P2, centers, radii, False)
    assert work["path"] == "column-root-find" and np.array_equal(fast.max(axis=0), slow.max(axis=0))
    assert check_root_find(f, P2, (0.0, 0.5), False, sampling).work["path"] == "column-root-find"


@pytest.mark.parametrize("per", [1, 3, None], ids=["1-center", "3-centers", "default"])
def test_2d_strong_power_gauges_do_not_depend_on_the_blocks(per, monkeypatch):
    # a 2-D stack with a zero member, shared and own centers, read one radius at a time over blocks of 1 or 3
    # centers (the last one short) or at the default budget: each member's gauges are those it has alone
    grid = PIN_GRIDS_2D[1]
    rng = np.random.default_rng(42)
    disk = sample_function(grid, {"type": "ball_indicator", "center": (0.1, -0.2), "radius": 0.3})
    fs = [random_cells_2d(grid, rng), SampledFunction(grid, np.zeros(grid.shape())), disk]
    sampling = MorreySampling(r_min=grid.h, r_max=2 * grid.extent, n_radii=6, center_stride=3,
                              extra_centers=((0.3, 0.3),))
    centers, shared = sampling.center_stack(fs)
    radii = sampling.radii()
    if per is not None:
        monkeypatch.setattr(norms, "_SUM_BYTES", 8 * grid.cells_per_axis * per)
    out, works = _ball_gauge_matrices(fs, P2, centers, shared, radii, weak=False)
    assert all(w == {"path": "closed-form", "bisections": 0} for w in works)
    for f, c, gauges in zip(fs, centers, out):
        assert np.array_equal(gauges, per_ball_power_gauges(f, P2, c, radii))
    monkeypatch.undo()
    for f, c, gauges in zip(fs, centers, out):
        assert np.array_equal(gauges, gauge_matrix(f, P2, c, radii, weak=False)[0])
    assert not out[1].any()


def test_2d_strong_power_stack_memory():
    # 8 indicators on 128x128 cells: each block of windows and sums stays within _SUM_BYTES, 6.6 MiB traced in
    # all; with every center of a radius at once (a budget that counts no rows) the stack peaked at 48 MiB
    grid = GridSpec(2, 1 / 16, 4.0)
    fs = [sample_function(grid, {"type": "ball_indicator", "center": (0.25 * k - 1.0, 0.5), "radius": 2.0 ** (k / 2 - 2)})
          for k in range(8)]
    varphi, sampling = growth_from_lambda(P2, 0.5, n=2), MorreySampling(r_min=4 * grid.h, r_max=2 * grid.extent,
                                                                        n_radii=8)
    first = stacked_morrey_norms(fs, P2, varphi, sampling=sampling)
    tracemalloc.start()
    try:
        again = stacked_morrey_norms(fs, P2, varphi, sampling=sampling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert [(e.value, e.witness, e.work) for e in again] == [(e.value, e.witness, e.work) for e in first]
    assert all(e.work["path"] == "closed-form" for e in first)


def root_find_sample(grid, seed):
    rng = np.random.default_rng(seed)
    return stepped_function(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng)


@pytest.mark.parametrize("name", ["exp_minus_one", "power_log", "tabulated"])
@pytest.mark.parametrize("grid", PIN_GRIDS + PIN_GRIDS_2D)
def test_batched_strong_roots_equal_single_columns(grid, name):
    # one Illinois iteration over every column of a stacked table finds the
    # roots that each column finds alone, bit for bit, and each is feasible
    f, phi = root_find_sample(grid, 35), ROOT_FIND_PHIS[name]
    sampling = oracle_sampling(grid)
    centers, radii = sampling.centers(f), sampling.radii()
    lo, hi = _bracket(f.values.max())

    def roots(cols):
        bound = _strong_bound(f, phi, centers, radii[cols])
        return _illinois(lambda lam, live: bound(lam, live).max(axis=1), lo, hi, len(cols))[0], bound

    with np.errstate(all="ignore"):
        together, bound = roots(np.arange(len(radii)))
        alone = np.concatenate([roots(np.array([j]))[0] for j in range(len(radii))])
        assert np.array_equal(together, alone)
        finite = np.isfinite(together)
        assert finite.any() and np.all(bound(together[finite], np.flatnonzero(finite)).max(axis=1) <= 1)


@pytest.mark.parametrize("name", sorted(SIX_KINDS))
@pytest.mark.parametrize("grid", PIN_GRIDS[:2] + PIN_GRIDS_2D[:2])
def test_exact_level_roots_equal_the_sorted_window_roots(grid, name, monkeypatch):
    # with a level at every distinct value, the closed form max_i s_i W[N_i(c)] of the level counts is the closed
    # form max_k v_(k) W[k] of each ball's sorted window, bit for bit: the radius bisection gives the same full
    # matrix (no prefactor) with either evaluator, and so each sorted window's reference
    f, phi = root_find_sample(grid, 36), SIX_KINDS[name]
    sampling = oracle_sampling(grid)
    centers, radii = np.array(sampling.centers(f)), sampling.radii()
    weights = _weak_weights(phi, grid.cell_volume, np.count_nonzero(f.values), f.values.size)
    matrices = []
    for budget in (f.values.size, 0):
        monkeypatch.setattr(norms, "_LEVELS", budget)
        sups, counts = norms._weak_power_sups(f.values, weights, grid, centers, radii)
        assert (counts["levels"] > 0, counts["sorted_windows"] > 0) == ((True, False) if budget else (False, True))
        matrices.append(sups)
    assert np.array_equal(*matrices)
    for j, r in enumerate(radii):
        assert np.array_equal(matrices[0][:, j], sorted_gauges(f.values, weights, ball_windows(grid, centers, r)))


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(PIN_GRIDS[:2] + PIN_GRIDS_2D[:1]),
       st.sampled_from(sorted(SIX_KINDS)))
@settings(max_examples=20, deadline=None)
def test_weak_closed_form_brackets_the_bisection(seed, grid, name):
    # the per-ball bisection (``per_ball_gauges``) ends at the feasible end of a bracket of relative width
    # NORM_REL_TOL around the closed form it reports: 0 <= bisected - closed <= NORM_REL_TOL * bisected, to 4 ulps
    rng = np.random.default_rng(seed)
    f = random_cells_2d(grid, rng) if grid.n == 2 else random_indicator_sum(grid, rng)
    phi = SIX_KINDS[name]
    assume(f.values.max() > 0)
    centers = np.array(MorreySampling(r_min=grid.h, r_max=grid.h, center_stride=2).centers(f))
    radius = float(rng.uniform(0.5, 2 * grid.extent))
    closed, _ = gauge_matrix(f, phi, centers, [radius], True)
    bisected = per_ball_gauges(f, phi, centers, [radius], True)
    assert np.array_equal(closed, per_ball_weak_gauges(f, phi, centers, [radius]))
    ulps = 4 * np.spacing(bisected)
    assert np.all((closed <= bisected + ulps) & (bisected - closed <= NORM_REL_TOL * bisected + ulps))


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
@pytest.mark.parametrize("grid", [PIN_GRIDS[1], PIN_GRIDS_2D[0]], ids=["1d", "2d"])
def test_binned_levels_match_per_ball(grid, weak, monkeypatch):
    # more distinct values than the level budget: the radius bisection sorts windows and counts no level;
    # values and witnesses stay exact
    rng, sampling = np.random.default_rng(37), oracle_sampling(grid)
    f = SampledFunction(grid, rng.uniform(0, 2, grid.shape()) * (rng.random(grid.shape()) < 0.7))
    monkeypatch.setattr(norms, "_LEVELS", 3)
    for phi in (ExpMinusOneYoung(), PowerLogYoung(2, 1)):
        ev = check_root_find(f, phi, (0.0, 0.5), weak, sampling)
        assert ev.work.get("levels") == (0 if weak else None)


@pytest.mark.parametrize("binned", [False, True], ids=["exact", "binned"])
@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 16, 4.0), GridSpec(2, 1 / 16, 4.0)], ids=["1d", "2d"])
def test_weak_levels_count_whole_rows_of_128_cells(grid, binned, monkeypatch):
    # a ball over a whole row of 128 cells >= a level counts 128 of them, one
    # past int8; growth r^-n lets the balls over the whole grid hold the sup
    x = np.meshgrid(*[grid.axis_centers()] * grid.n, indexing="ij")
    sampling = MorreySampling(r_min=grid.h, r_max=3 * grid.extent, n_radii=6, center_stride=4 if grid.n == 1 else 32)
    centers, radii = sampling.centers(SampledFunction(grid, np.ones(grid.shape()))), sampling.radii()
    if binned:
        monkeypatch.setattr(norms, "_LEVELS", 3)
    phi = ExpMinusOneYoung()
    for values in (np.ones(grid.shape()), np.exp(-sum(a * a for a in x))):
        f = SampledFunction(grid, values)
        gauges = per_ball_weak_gauges(f, phi, centers, radii)
        for varphi in (PowerGrowth(-grid.n), growth_from_lambda(phi, 0.5, n=grid.n)):
            ev = generalized_orlicz_morrey_norm(f, phi, varphi, weak=True, sampling=sampling)
            assert (ev.value, ev.witness) == per_ball_morrey(f, phi, varphi, centers, radii, gauges=gauges)[1:]
            count = len(np.unique(values))  # levels counted, 0 past the budget (sorted windows)
            assert ev.work["levels"] == (count if count <= norms._LEVELS else 0)


@pytest.mark.parametrize("gauge", [_lux_gauge, _weak_gauge])
def test_gauges_of_subnormal_values_keep_a_positive_bracket(gauge):
    # 1e-12 * 5e-324 rounds to 0: the bracket's lower end stays at the least
    # positive float, so no constraint divides by 0 (an error under tier-1)
    assert gauge(np.full(3, 5e-324), 0.125, P2) == 5e-324


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
def test_subnormal_morrey_norm_through_the_root_find(weak):
    grid = PIN_GRIDS_2D[0]
    for values in (np.full(grid.shape(), 5e-324), random_cells_2d(grid, np.random.default_rng(38)).values * 5e-324):
        ev = check_root_find(SampledFunction(grid, values), ExpMinusOneYoung(), (0.0, 0.5), weak, oracle_sampling(grid))
        assert ev.work["path"] == ("closed-form" if weak else "column-root-find") and ev.value > 0


def test_norm_records_its_root_find_work(unit_indicator):
    sampling = MorreySampling(r_min=0.25, r_max=8.0, n_radii=12, center_stride=64)
    phi = PowerLogYoung(2, 1)
    strong = generalized_orlicz_morrey_norm(unit_indicator, phi, PowerGrowth(-0.25), sampling=sampling).work
    assert strong == {"path": "column-root-find", "blocks": 12, "visited": strong["visited"], "steps": strong["steps"],
                      "bisections": strong["bisections"], "replayed": strong["replayed"],
                      "replay_steps": strong["replay_steps"]}
    assert 1 <= strong["visited"] <= 12 and strong["steps"] >= 2 and strong["replayed"] <= strong["bisections"]
    weak = generalized_orlicz_morrey_norm(unit_indicator, phi, PowerGrowth(-0.25), weak=True, sampling=sampling).work
    # one distinct value: its level counts give the closed form of the 92 of 12 x 33 balls that the radius bisection
    # evaluates (the two end radii of each center, then the runs that can reach the sup); no ball is bisected
    assert len(sampling.centers(unit_indicator)) == 33
    assert weak == {"path": "closed-form", "levels": 1, "visited": 92, "sorted_windows": 0, "certified": 0,
                    "bisections": 0}
    assert generalized_orlicz_morrey_norm(unit_indicator, P2, PowerGrowth(-0.25)).work == {"path": "closed-form",
                                                                                           "bisections": 0}


@pytest.mark.parametrize("seed", [28, 40, 175, 196])
def test_column_maxima_next_to_a_tall_uncovered_cell(seed):
    # a tall cell between the centers, outside every small ball, swells the
    # prefix sums of exp(f/lam) - 1 and their rounding bound; each column's
    # maximum still equals the per-ball one
    rng = np.random.default_rng(seed)
    g = GridSpec(1, 1 / 8, 2.0)
    v = rng.choice([0, 0.5, 1, 1.5, 2.0], g.shape()) * rng.integers(0, 2, g.shape())
    stride = int(rng.integers(4, 9))
    v[int(rng.integers(0, g.cells_per_axis // stride)) * stride + stride // 2] = float(10 ** rng.uniform(2, 7))
    f, phi = SampledFunction(g, v), ExpMinusOneYoung()
    sampling = MorreySampling(r_min=0.2 * g.h, r_max=0.45 * stride * g.h, n_radii=6, center_stride=stride,
                              include_centroid=False)
    centers, radii, varphi = sampling.centers(f), sampling.radii(), growth_from_lambda(phi, 0.5)
    fast, _ = morrey_matrix(f, phi, varphi, centers, radii, weak=False, every_column=True)
    slow = per_ball_morrey(f, phi, varphi, centers, radii)[0]
    assert np.array_equal(fast.max(axis=0), slow.max(axis=0))


@pytest.mark.parametrize("phi", [ExpMinusOneYoung(), PowerLogYoung(2, 1)], ids=["exp_minus_one", "power_log"])
def test_triviality_probe_matches_per_ball(phi, monkeypatch):
    grid, varphi, schedule = GridSpec(1, 1 / 4, 1.0), growth_from_lambda(phi, 0.25), [4.0, 8.0, 16.0]
    fast = triviality_probe(phi, varphi, grid=grid, schedule=schedule)

    def per_ball_matrices(fs, phi, varphi, centers, shared, radii, weak, every_column=False):
        return np.array([per_ball_morrey(f, phi, varphi, c, radii, weak)[0] for f, c in zip(fs, centers)]), None

    monkeypatch.setattr(norms, "_morrey_matrices", per_ball_matrices)
    slow = triviality_probe(phi, varphi, grid=grid, schedule=schedule)
    assert (fast.constants, fast.details, fast.verdict) == (slow.constants, slow.details, slow.verdict)


@pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
@pytest.mark.parametrize("grid", [GridSpec(1, 1 / 8, 2.0), GridSpec(2, 1 / 4, 1.0)], ids=["1d", "2d"])
def test_stacked_morrey_norms_equal_each_function(grid, weak):
    # one stack mixes the paths: closed forms, a member whose f**2 overflows (root-find), zeros, an inf cell
    rng = np.random.default_rng(37)
    overflow, spike = np.ones(grid.shape()), np.zeros(grid.shape())
    overflow.flat[5], spike.flat[int(rng.integers(0, spike.size))] = 1e200, np.inf
    family = [random_indicator_sum(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng),
              SampledFunction(grid, np.zeros(grid.shape())), SampledFunction(grid, overflow),
              SampledFunction(grid, spike), stepped_function(grid, rng) if grid.n == 1 else random_cells_2d(grid, rng)]
    sampling = MorreySampling(r_min=grid.h, r_max=2 * grid.extent, n_radii=10, center_stride=3,
                              extra_centers=((0.3,) * grid.n,))
    for phi in (P2, PowerLogYoung(2, 1)):
        varphi = growth_from_lambda(phi, 0.5, n=grid.n)
        for f, ev in zip(family, stacked_morrey_norms(family, phi, varphi, weak, sampling)):
            one = generalized_orlicz_morrey_norm(f, phi, varphi, weak, sampling)
            assert (ev.value, ev.witness, ev.truncation, ev.kind, ev.work) == (
                one.value, one.witness, one.truncation, one.kind, one.work)


def test_norm_reports_its_path(unit_indicator):
    closed = generalized_orlicz_morrey_norm(unit_indicator, P2, PowerGrowth(-0.25))
    assert (closed.work["path"], closed.work["bisections"]) == ("closed-form", 0)
    sampling = MorreySampling(r_min=0.25, r_max=8.0, n_radii=12, center_stride=64)
    generic = generalized_orlicz_morrey_norm(unit_indicator, PowerLogYoung(2, 1), PowerGrowth(-0.25), sampling=sampling)
    assert generic.work["path"] == "column-root-find" and generic.work["bisections"] >= 1
    assert luxemburg_norm(unit_indicator, P2).work is None


def test_norm_records_its_weak_closed_form_work(unit_indicator, monkeypatch):
    # the weak closed form bisects no ball: one value takes its one level count, at 128 of 12 x 33 balls; level
    # counts bisect the runs tied with a center's last radius, and certify none
    sampling, lam0 = MorreySampling(r_min=0.25, r_max=8.0, n_radii=12, center_stride=64), growth_from_lambda(P2, 0.0)
    work = generalized_orlicz_morrey_norm(unit_indicator, P2, lam0, weak=True, sampling=sampling).work
    assert work == _work(True, levels=1, visited=128)
    strong = generalized_orlicz_morrey_norm(unit_indicator, P2, lam0, sampling=sampling)
    assert "sorted_windows" not in strong.work and "certified" not in strong.work
    # more distinct values than levels: the radius bisection sorts windows, and at lambda = 0 certifies the tied
    # runs; no kind bisects a ball
    f = SampledFunction(unit_indicator.grid, unit_indicator.values * np.exp(-unit_indicator.grid.axis_centers() ** 2))
    monkeypatch.setattr(norms, "_LEVELS", 3)
    work = generalized_orlicz_morrey_norm(f, P2, lam0, weak=True, sampling=sampling).work
    assert (work["levels"], work["bisections"]) == (0, 0) and work["sorted_windows"] > 0 and work["certified"] > 0
    assert work["visited"] >= work["sorted_windows"]
    generic = generalized_orlicz_morrey_norm(f, PowerLogYoung(2, 1), PowerGrowth(-0.25), weak=True, sampling=sampling)
    assert (generic.work["levels"], generic.work["sorted_windows"] > 0, generic.work["bisections"]) == (0, True, 0)


def test_weak_gauge_needs_no_jump_terms():
    # sup_t phi(t/lam) |{f > t}| with the terms at a jump J of phi, t = lam J (1 -+ 1e-12), bisected the same
    # way, gives the bisected gauge bit for bit, and that brackets the closed form
    g = GridSpec(1, 1 / 16, 2.0)
    for phi, jump in ((LinearCappedYoung(), 1.0), (TABULATED, 4.0), (TABULATED.compose_power(0.5), 2.0)):
        for seed in range(20):
            vals = stepped_function(g, np.random.default_rng(seed)).values * (1 + seed % 3)
            pos = np.sort(vals[vals > 0])[::-1]
            meas = g.cell_volume * np.arange(1, pos.size + 1)

            def with_jumps(lam):
                with np.errstate(over="ignore"):
                    best = float(np.max(phi(pos / lam) * meas))
                    for t in (lam * jump * (1 - 1e-12), lam * jump * (1 + 1e-12)):
                        d = g.cell_volume * float(np.count_nonzero(pos > t))
                        if d > 0:
                            best = max(best, float(phi(np.array([t / lam]))[0]) * d)
                return best

            bisected = gauge_bisect(with_jumps, float(pos[0]))
            closed = _weak_gauge(vals, g.cell_volume, phi)
            assert bisected == weak_gauge(vals, g.cell_volume, phi)
            assert closed == weak_closed_gauge(vals, g.cell_volume, phi)
            assert 0 <= bisected - closed <= NORM_REL_TOL * bisected


# -- per-ball bisections replayed from a guess, against the copied loop ---------

GUESS_FACTORS = [1.0, 1 + 1e-12, 1 - 1e-12, 1 + 1e-7, 1 - 1e-7, 10.0, 0.1]


def check_replay(vals, cellvol, phi, factors=GUESS_FACTORS):
    """The strong gauge with no guess and with guesses at the oracle's root times ``factors`` is the oracle's bit
    for bit; the root itself as guess settles the bisection in one pass.  The weak gauge is its closed form."""
    root = lux_gauge(vals, cellvol, phi)
    assert _lux_gauge(vals, cellvol, phi) == root
    for factor in factors:
        work = {"replayed": 0, "replay_steps": 0}
        assert _lux_gauge(vals, cellvol, phi, root * factor, work) == root
        assert work["replayed"] == 1 or factor != 1.0
    assert _weak_gauge(vals, cellvol, phi) == weak_closed_gauge(vals, cellvol, phi)


@pytest.mark.parametrize("size", [1, 2, 3, 100, 4097])
@pytest.mark.parametrize("name", sorted(SIX_KINDS))
def test_gauge_replay_is_the_loop_bit_for_bit(name, size):
    rng = np.random.default_rng(size)
    vals = rng.choice([0.0, 0.5, 1.0, 2.5], size) * rng.uniform(0.5, 1.5, size)  # zeros, and ties at 0.5 or 1
    vals[0] = 2.0
    check_replay(vals, 1 / 256, SIX_KINDS[name])


@pytest.mark.parametrize("name", sorted(SIX_KINDS))
def test_gauge_replay_over_a_default_grid_ball(name):
    # 65,536 values, the largest ball of the default 2-D grid: the batched row sums and maxima of the one pass
    # are those of the loop's one row
    vals = np.random.default_rng(7).uniform(0, 3, 2**16)
    check_replay(vals, 1 / 256, SIX_KINDS[name], [1.0])


def test_gauge_replay_at_the_bracket_ends():
    # a root at the lower bracket end (phi tiny at 1e12), at the upper one (phi(1e-12) > 1: inf), and roots
    # among the subnormals; the weak closed form keeps no bracket and reads its finite value past the upper end
    vals = np.array([1.0, 3.0, 0.0, 2.0])
    for phi in (PowerYoung(1, scale=1e-20), TabulatedYoung(np.array([1e-14, 1.0]), np.array([1.0, 2e14]))):
        check_replay(vals, 0.125, phi)
    assert _lux_gauge(vals, 0.125, PowerYoung(1, scale=1e-20)) == 3e-12
    # value 2 at rank 2 decides: 2 / phi_inv(1 / (2 * 0.125)), where the bisection read inf
    assert _weak_gauge(vals, 0.125, TabulatedYoung(np.array([1e-14, 1.0]), np.array([1.0, 2e14]))) == 80000000000000.23
    for tiny in ([5e-324] * 3, [5e-324, 1e-320, 0.0]):
        for phi in (P2, ExpMinusOneYoung()):
            check_replay(np.array(tiny), 0.125, phi)


# -- the weak closed form against its per-ball oracle ---------------------------

@pytest.mark.parametrize("grid", [PIN_GRIDS[0], PIN_GRIDS_2D[0]], ids=["1d-68-cells", "8x8-cells"])
@pytest.mark.parametrize("name", sorted(SIX_KINDS))
def test_weak_closed_form_matches_per_ball(grid, name, monkeypatch):
    # a handful of distinct values (one level each), and many, past a budget of 3 levels: the sups bisected over
    # each center's radii; every column maximum, value and witness is the oracle's, and no ball is bisected
    rng, phi, sampling = np.random.default_rng(51), SIX_KINDS[name], oracle_sampling(grid)
    few = root_find_sample(grid, 52)
    many = (maximal(stepped_function(grid, rng), alpha=0.25) if grid.n == 1 else
            SampledFunction(grid, random_cells_2d(grid, rng).values * rng.uniform(1, 1.1, grid.shape())))
    for f, binned in ((few, False), (many, True)):
        centers, radii = sampling.centers(f), sampling.radii()
        if binned:
            monkeypatch.setattr(norms, "_LEVELS", 3)
        gauges = per_ball_weak_gauges(f, phi, centers, radii)
        fast, work = gauge_matrix(f, phi, centers, radii, True)
        assert np.array_equal(fast.max(axis=0), gauges.max(axis=0))
        for lam in (0.0, 0.5):
            varphi = growth_from_lambda(phi, lam, n=grid.n)
            ev = generalized_orlicz_morrey_norm(f, phi, varphi, weak=True, sampling=sampling)
            assert (ev.value, ev.witness) == per_ball_morrey(f, phi, varphi, centers, radii, gauges=gauges)[1:]
        assert work["path"] == "closed-form" and (work["levels"] == 0) == binned
        assert (work["sorted_windows"] > 0) == binned and work["bisections"] == 0
        monkeypatch.undo()


class OffInverse(PowerYoung):
    """t**2 with an inverse 1e-6 too large: no generalized inverse to the weak closed form's 1e-9."""

    def _inverse(self, s):
        return super()._inverse(s) * (1 + 1e-6)


@pytest.mark.parametrize("grid", [PIN_GRIDS[0], PIN_GRIDS_2D[0]], ids=["1d", "2d"])
def test_weak_closed_form_refuses_an_inconsistent_inverse(grid):
    f, phi = root_find_sample(grid, 53), OffInverse(2)
    with pytest.raises(DomainError, match="generalized inverse"):
        weak_orlicz_norm(f, phi)
    with pytest.raises(DomainError, match="generalized inverse"):
        generalized_orlicz_morrey_norm(f, phi, growth_from_lambda(P2, 0.5, n=grid.n), weak=True,
                                       sampling=oracle_sampling(grid))
    # the strong gauge and the weak one of P2 itself are unaffected
    assert luxemburg_norm(f, phi).value == luxemburg_norm(f, P2).value
    assert weak_orlicz_norm(f, P2).value > 0
