import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olab import (
    Ball,
    GridSpec,
    LinearCappedYoung,
    MorreySampling,
    PowerGrowth,
    PowerLogYoung,
    PowerYoung,
    ball_measure,
    generalized_orlicz_morrey_norm,
    growth_from_lambda,
    luxemburg_norm,
    maximal,
    sample_function,
    triviality_probe,
    weak_orlicz_norm,
)
from olab.errors import ConfigError
from olab.norms import _axis_bounds, _ball_gauge_matrix, _lux_gauge, _power_form, _weak_gauge

from conftest import PIN_GRIDS, random_indicator_sum, stepped_function

P2 = PowerYoung(2)


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


def test_fast_paths_agree_with_bisection(grid64):
    rng = np.random.default_rng(21)
    f = random_indicator_sum(grid64, rng)
    centers = [(float(c),) for c in rng.uniform(-8, 8, size=6)]
    radii = np.array([0.3, 1.0, 3.7, 9.0])
    for phi in (P2, PowerYoung(3), PowerYoung(2).compose_power(0.5)):
        for weak in (False, True):
            fast = _ball_gauge_matrix(f, phi, centers, radii, weak)
            gauge = _weak_gauge if weak else _lux_gauge
            slow = np.array([
                [gauge(f.ball_values(Ball(c, float(r))), grid64.cell_volume, phi) for r in radii]
                for c in centers
            ])
            assert np.allclose(fast, slow, rtol=1e-8, atol=1e-12)


def per_ball_weak_power_gauges(f, phi, centers, radii):
    """Weak power gauges ball by ball: sort each ball's positive values of f**p (reference)."""
    p, scale = _power_form(phi)
    vp = f.values**p
    k_lo, k_hi = _axis_bounds(f.grid, np.array([c[0] for c in centers]), np.asarray(radii))
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
    fast = _ball_gauge_matrix(f, phi, centers, radii, weak=True)
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


@pytest.mark.parametrize("phi", [P2, P2.compose_power(1 / 3)])
def test_weak_morrey_witness_matches_per_ball_argmax(phi):
    # the Morrey prefactor is constant in r (lambda = 0): hundreds of balls tie exactly
    g = PIN_GRIDS[1]
    f = maximal(stepped_function(g, np.random.default_rng(29)), alpha=0.25)
    varphi = growth_from_lambda(phi, 0.0)
    sampling = pin_sampling(g)
    ev = generalized_orlicz_morrey_norm(f, phi, varphi, weak=True, sampling=sampling)
    centers, radii = sampling.centers(f), sampling.radii()
    measures = np.array([ball_measure(1, r) for r in radii])
    vals = per_ball_weak_power_gauges(f, phi, centers, radii)
    vals = vals * (phi.inverse(1.0 / measures) / varphi(radii))[None, :]
    assert ev.value == pytest.approx(vals.max(), rel=1e-12)
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
