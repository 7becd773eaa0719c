import dataclasses

import numpy as np
import pytest

from olab import (
    AdamsSetup,
    DomainError,
    ExpMinusOneYoung,
    GridSpec,
    MorreySampling,
    ParameterError,
    PowerGrowth,
    PowerLogYoung,
    PowerYoung,
    SampledFunction,
    UnrepresentableBallError,
    check_condition,
    check_membership,
    check_pointwise_inequalities,
    classify_growth,
    estimate_operator_norm,
    generalized_orlicz_morrey_norm,
    growth_from_config,
    growth_from_lambda,
    maximal,
    necessity_witness,
    riesz_potential,
    sample_function,
    function_family,
    triviality_probe,
)
from olab.characterize import CONDITION_KINDS, RatioRow
from olab.errors import ConfigError
from olab.sampled import default_grid

from conftest import (per_ball_morrey, per_ball_power_gauges, per_ball_weak_gauges, random_cells_2d, random_indicator_sum,
                      stepped_function)

P2 = PowerYoung(2)
PHI_L0 = growth_from_lambda(P2, 0.0)  # t^{-1/2} for p=2, n=1


def balanced_setup(q=4):
    return AdamsSetup(P2, PHI_L0, alpha=0.25, beta=2.0 / q, n=1)


def test_growth_from_lambda_power_algebra():
    varphi = growth_from_lambda(P2, 0.5, n=1)
    assert varphi(4.0) == pytest.approx(4.0 ** -0.25)
    ts = np.geomspace(0.01, 100, 17)
    assert np.allclose(varphi(ts), ts ** ((0.5 - 1) / 2), rtol=1e-9)


def test_growth_from_lambda_edge_cases():
    lam0 = growth_from_lambda(P2, 0.0)
    ts = np.geomspace(0.01, 100, 9)
    assert np.allclose(lam0(ts), P2.inverse(ts**-1.0) / P2.inverse(1.0))
    lam_n = growth_from_lambda(P2, 1.0, n=1)
    assert np.allclose(lam_n(ts), 1.0)


GROWTH_CONFIGS = {
    "power": ({"kind": "power", "exponent": -0.5}, lambda t: t**-0.5),
    "power_log": ({"kind": "power_log", "exponent": -0.5, "log_exponent": 2.0},
                  lambda t: t**-0.5 * np.log(np.e + t) ** 2),
    # p = 2, n = 1: phi^-1(t^-1) / phi^-1(t^-lambda) = t^((lambda - 1) / 2), and |B| = 2t measure-based
    "lambda_flavored": ({"kind": "lambda_flavored", "lambda": 0.5, "n": 1}, lambda t: t**-0.25),
    "lambda_flavored-measure": ({"kind": "lambda_flavored", "lambda": 0.5, "n": 1, "measure_based": True},
                                lambda t: (2 * t) ** -0.25),
    "power_of": ({"kind": "power_of", "base": {"kind": "power_log", "exponent": -0.5, "log_exponent": 2.0},
                  "beta": 0.5}, lambda t: (t**-0.5 * np.log(np.e + t) ** 2) ** 0.5),
}


@pytest.mark.parametrize("name", GROWTH_CONFIGS)
def test_growth_config_round_trip(name):
    cfg, expected = GROWTH_CONFIGS[name]
    varphi = growth_from_config(cfg, phi=P2)
    assert varphi.config() == cfg
    again = growth_from_config(varphi.config(), phi=P2)
    ts = np.array([0.25, 1.0, 4.0])
    assert np.array_equal(again(ts), varphi(ts))
    assert np.allclose(varphi(ts), expected(ts), rtol=1e-12)


def test_adams_setup_validation():
    with pytest.raises(DomainError):
        AdamsSetup(P2, PHI_L0, alpha=1.5, beta=0.5, n=1)
    with pytest.raises(ParameterError):
        AdamsSetup(P2, PHI_L0, alpha=0.25, beta=1.0, n=1)


def test_adams_setup_derived_spaces():
    s = balanced_setup(4)
    ts = np.geomspace(0.1, 10, 9)
    assert np.allclose(s.psi(ts), ts**4)
    assert np.allclose(s.eta(ts), PHI_L0(ts) ** 0.5)


def test_membership_examples():
    assert check_membership(PowerGrowth(-0.5), P2, "g").verdict == "holds-stable"
    assert check_membership(PowerGrowth(0.5), P2, "g").verdict == "diverges"
    assert check_membership(PowerGrowth(-0.5), P2, "omega").verdict == "holds-stable"


def test_membership_omega_divergence_directions():
    # varphi too small near 0: the reciprocal sup blows up as r_min shrinks
    rep = check_membership(PowerGrowth(0.5), P2, "omega")
    assert rep.verdict == "diverges"
    assert rep.details["lower"]["verdict"] == "diverges"
    # varphi decaying much faster than phi_inv(|B|^-1): the upper sup blows up
    rep = check_membership(PowerGrowth(-2.0), P2, "omega")
    assert rep.verdict == "diverges"
    assert rep.details["upper"]["verdict"] == "diverges"


def test_membership_rejects_unknown_class():
    with pytest.raises(ConfigError):
        check_membership(PowerGrowth(-0.5), P2, "sigma")


@pytest.mark.parametrize("q, expected", [(4, "holds-stable"), (3, "diverges"), (6, "diverges")])
def test_adams_necessary_exponent_criterion(q, expected):
    rep = check_condition("adams-necessary", balanced_setup(q))
    assert rep.verdict == expected


def test_adams_necessary_balanced_constant_is_one():
    rep = check_condition("adams-necessary", balanced_setup(4))
    assert rep.constant == pytest.approx(1.0, rel=1e-9)
    assert max(rep.constants) / min(rep.constants) < 1.05


def test_lambda_conditions_match_adams_for_lambda_growth():
    # with a lambda-flavored growth the two necessity conditions coincide
    rep_a = check_condition("adams-necessary", balanced_setup(4))
    rep_l = check_condition("lambda-necessary", balanced_setup(4))
    assert np.allclose(rep_a.constants, rep_l.constants, rtol=1e-9)


def test_adams_sufficient_balanced():
    rep = check_condition("adams-sufficient", balanced_setup(4))
    assert rep.verdict == "holds-stable"
    assert rep.constant == pytest.approx(2.0, rel=0.02)


def test_riesz_sufficient_balanced():
    rep = check_condition("riesz-sufficient", balanced_setup(4),
                          schedule=[2.0**k for k in range(4, 15)])
    assert rep.verdict == "holds-stable"
    assert rep.constant == pytest.approx(5.0, rel=0.02)


def test_riesz_regularity_closed_form():
    rep = check_condition("riesz-regularity", balanced_setup(4),
                          schedule=[2.0**k for k in range(4, 15)])
    assert rep.verdict == "holds-stable"
    assert rep.constant == pytest.approx(4.0, rel=0.02)


@pytest.mark.parametrize("lam, expected", [(0.0, "holds-stable"), (0.5, "diverges")])
def test_supremal_condition_as_printed(lam, expected):
    setup = AdamsSetup(P2, growth_from_lambda(P2, lam), alpha=0.25, beta=0.5, n=1)
    rep = check_condition("supremal-maximal", setup)
    assert rep.verdict == expected


@pytest.mark.parametrize("lam, expected", [(0.0, "holds-stable"), (0.25, "holds-stable"), (0.75, "diverges")])
def test_lambda_sufficient_threshold(lam, expected):
    # stable iff lam < n - alpha * p = 1/2 for the power model
    setup = AdamsSetup(P2, growth_from_lambda(P2, lam), alpha=0.25, beta=0.5, n=1)
    rep = check_condition("lambda-sufficient", setup)
    assert rep.verdict == expected


@pytest.mark.parametrize("kind", CONDITION_KINDS)
def test_constants_nondecreasing(kind):
    setup = AdamsSetup(P2, growth_from_lambda(P2, 0.5), alpha=0.25, beta=1.0 / 3.0, n=1)
    rep = check_condition(kind, setup)
    cs = np.array(rep.constants)
    assert np.all(np.diff(cs) >= -1e-12)


def test_unknown_condition_rejected():
    with pytest.raises(ConfigError):
        check_condition("adams-magic", balanced_setup(4))


BAD_T_GRIDS = [[0.5, np.nan, 2.0], [0.5, np.inf], [-1.0, 0.5], [0.0, 1.0], []]


@pytest.mark.parametrize("t_grid", BAD_T_GRIDS)
@pytest.mark.parametrize("kind", ["supremal-maximal", "adams-sufficient"])
def test_condition_rejects_bad_t_grid(kind, t_grid):
    # a NaN node fails t <= 0 as well as t > 0, and once read as the grid's end it made t_max NaN
    with pytest.raises(DomainError, match="t grid"):
        check_condition(kind, balanced_setup(4), t_grid=np.array(t_grid), schedule=[4.0])


@pytest.mark.parametrize("t_grid", BAD_T_GRIDS)
@pytest.mark.parametrize("membership", ["g", "omega"])
def test_membership_rejects_bad_t_grid(membership, t_grid):
    with pytest.raises(DomainError, match="t grid"):
        check_membership(PHI_L0, P2, membership, t_grid=np.array(t_grid), schedule=[4.0])


@pytest.mark.parametrize("t_grid", BAD_T_GRIDS)
def test_classify_growth_rejects_bad_t_grid(t_grid):
    # a NaN or inf node once gave holds-stable with t_max = nan or inf, and an empty grid an IndexError
    with pytest.raises(DomainError, match="t grid"):
        classify_growth(P2, "delta2", t_grid=np.array(t_grid), schedule=[4.0])


def test_one_node_t_grid_at_the_schedule_top():
    # the inner grid then runs from the node to the node: it is the node itself
    rep = check_condition("adams-necessary", balanced_setup(4), t_grid=np.array([4.0]), schedule=[4.0])
    assert rep.params["t_min"] == rep.params["t_max"] == 4.0
    assert rep.constants == [pytest.approx(1.0, rel=1e-9)]


@pytest.mark.parametrize("kind", CONDITION_KINDS)
def test_t_grid_outside_the_widest_window_is_a_config_error(kind):
    # no node in (1/4, 4): every window would read 0 and the verdict a vacuous holds-stable
    for t_grid in ([5.0], [0.1, 0.2, 4.5]):
        with pytest.raises(ConfigError, match=r"t grid \[.*\] lies in the widest window \(1/4, 4\)"):
            check_condition(kind, balanced_setup(4), t_grid=np.array(t_grid), schedule=[2.0, 4.0])
    # one node inside the widest window alone is enough
    rep = check_condition(kind, balanced_setup(4), t_grid=np.array([0.1, 3.0]), schedule=[2.0, 4.0])
    assert len(rep.constants) == 2


def test_classify_range_outside_the_widest_window_is_a_config_error():
    # no node of 2000 .. 4000 lies in (1/1024, 1024): once holds-stable (C = 0)
    with pytest.raises(ConfigError, match=r"no node of \[2000, 4000\] is in the widest window \(0.000976562, 1024\)"):
        classify_growth(ExpMinusOneYoung(), "delta2", t_grid=np.geomspace(2000.0, 4000.0, 5))


def test_triviality_probe_with_an_empty_upper_window_is_a_config_error():
    # r_max = 0.05 lies below r_min = 4h = 0.0625: the upper leg's one window (4h, 0.05) is empty, once holds-stable
    # where the default schedule gives diverges
    with pytest.raises(ConfigError, match=r"widest window \(0.0625, 0.05\)"):
        triviality_probe(P2, growth_from_lambda(P2, -1.0), schedule=[0.05])


def test_membership_g_range_outside_the_widest_window_is_a_config_error():
    # no node of 8 .. 16 lies in (1/4, 4)
    with pytest.raises(ConfigError, match=r"no node of \[8, 16\] is in the widest window \(0.25, 4\)"):
        check_membership(PHI_L0, P2, "g", t_grid=np.geomspace(8.0, 16.0, 9), schedule=[2.0, 4.0])


@pytest.mark.parametrize("per_octave", [0, -2, True, 2.5, "4"])
def test_per_octave_must_be_a_positive_int(per_octave):
    # 0 once divided 0 by 0 in the log grid, and True counted as 1
    with pytest.raises(ConfigError, match="per_octave must be a positive integer"):
        check_condition("adams-necessary", balanced_setup(4), per_octave=per_octave)
    assert check_condition("adams-necessary", balanced_setup(4), per_octave=np.int64(4)).verdict


BAD_SCHEDULES = [[], [np.nan, 32.0], [0.0, 16.0], [16.0, np.inf]]
CHECKERS = {
    "condition": lambda schedule: check_condition("adams-necessary", balanced_setup(4), schedule=schedule),
    "membership-g": lambda schedule: check_membership(PHI_L0, P2, "g", schedule=schedule),
    "membership-omega": lambda schedule: check_membership(PHI_L0, P2, "omega", schedule=schedule),
    "classify": lambda schedule: classify_growth(P2, "delta2", schedule=schedule),
    "probe": lambda schedule: triviality_probe(P2, PHI_L0, grid=GridSpec(1, 0.25, 2.0), schedule=schedule),
}


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_reject_bad_schedule(checker, schedule):
    # each once raised ValueError, IndexError or ZeroDivisionError, or returned a verdict
    with pytest.raises(ConfigError, match="invalid schedule"):
        CHECKERS[checker](schedule)


def test_estimate_operator_norm_balanced_family():
    rows = estimate_operator_norm(balanced_setup(4), family="indicators")
    ratios = np.array([r.ratio for r in rows])
    assert len(rows) == 9
    assert ratios.max() / ratios.min() <= 4.0


def test_estimate_operator_norm_skips_zero_members(grid64):
    zero = sample_function(grid64, {"type": "gaussian", "scale": 1.0}).scaled(0.0)
    rows = estimate_operator_norm(balanced_setup(4), family=[("zero", zero)])
    assert rows[0].note.startswith("skipped")
    assert np.isnan(rows[0].ratio)


def test_estimate_operator_norm_riesz_route():
    fam = function_family("indicators", default_grid(1))[3:6]
    rows = estimate_operator_norm(balanced_setup(4), operator="riesz", family=fam)
    assert all(np.isfinite(r.ratio) for r in rows)


def rows_one_by_one(setup, family, operator, target, sampling):
    """Ratio rows built member by member: each function through its own norm and operator calls."""
    rows = []
    for test_id, f in family:
        src = generalized_orlicz_morrey_norm(f, setup.phi, setup.varphi, sampling=sampling)
        if src.value == 0.0:
            rows.append(RatioRow(test_id, 0.0, np.nan, np.nan, None, "skipped: zero source norm"))
            continue
        mapped = maximal(f, alpha=setup.alpha) if operator == "maximal" else riesz_potential(f, setup.alpha)
        tgt = generalized_orlicz_morrey_norm(mapped, setup.psi, setup.eta, weak=(target == "weak"), sampling=sampling)
        rows.append(RatioRow(test_id, src.value, tgt.value, tgt.value / src.value, tgt.witness))
    return rows


def row_fields(rows):
    """Every field of every row (the witness as its center and radius), with NaN made comparable."""
    return [tuple("nan" if isinstance(v, float) and np.isnan(v) else v for v in dataclasses.astuple(r)) for r in rows]


def two_grid_family(seed):
    """1-D members on two grids, interleaved: random sums, a zero member, steps with ties, one-cell spikes."""
    rng = np.random.default_rng(seed)
    a, b = GridSpec(1, 1 / 16, 4.0), GridSpec(1, 1 / 8, 4.0)
    spike = np.zeros(b.shape())
    spike[int(rng.integers(0, b.cells_per_axis))] = 2.5
    return [("sum-a", random_indicator_sum(a, rng)), ("steps-b", stepped_function(b, rng)),
            ("zero-a", SampledFunction(a, np.zeros(a.shape()))), ("spike-b", SampledFunction(b, spike)),
            ("sum-a2", random_indicator_sum(a, rng)), ("steps-a", stepped_function(a, rng))]


SMALL_SAMPLING = MorreySampling(r_min=0.25, r_max=8.0, n_radii=12, center_stride=8, extra_centers=((0.3,),))


@pytest.mark.parametrize("target", ["strong", "weak"])
@pytest.mark.parametrize("operator", ["maximal", "riesz"])
@pytest.mark.parametrize("phi,sampling", [(P2, None), (P2, SMALL_SAMPLING), (PowerLogYoung(2, 1), SMALL_SAMPLING)],
                         ids=["power-default", "power-small", "power_log-small"])
def test_stacked_family_rows_equal_member_by_member_rows(target, operator, phi, sampling):
    # each stage runs once per grid on the whole stack; every row field, the witness and the note included,
    # is the one of a loop over the members
    setup = AdamsSetup(phi, growth_from_lambda(phi, 0.0), alpha=0.25, beta=0.5, n=1)
    family = two_grid_family(7)
    rows = estimate_operator_norm(setup, operator, target, family, sampling=sampling)
    assert row_fields(rows) == row_fields(rows_one_by_one(setup, family, operator, target, sampling))
    assert [r.test_id for r in rows] == [name for name, _ in family]
    assert rows[2].note.startswith("skipped") and all(r.witness is not None for i, r in enumerate(rows) if i != 2)


@pytest.mark.parametrize("target", ["strong", "weak"])
@pytest.mark.parametrize("operator", ["maximal", "riesz"])
def test_stacked_2d_family_rows_equal_member_by_member_rows(target, operator):
    grid = GridSpec(2, 1 / 4, 1.0)
    rng = np.random.default_rng(8)
    family = [("cells", random_cells_2d(grid, rng)), ("zero", SampledFunction(grid, np.zeros(grid.shape()))),
              ("disk", sample_function(grid, {"type": "ball_indicator", "center": (0.25, -0.25), "radius": 0.5}))]
    setup = AdamsSetup(P2, growth_from_lambda(P2, 0.5, n=2), alpha=0.5, beta=0.5, n=2)
    rows = estimate_operator_norm(setup, operator, target, family, grid=grid)
    assert row_fields(rows) == row_fields(rows_one_by_one(setup, family, operator, target, None))


def rows_from_oracles(setup, family, operator, target, sampling):
    """Ratio rows built from the per-ball oracles: strong power gauges ball by ball in closed form
    (``per_ball_power_gauges``), weak ones by the per-ball closed form (``per_ball_weak_gauges``)."""

    def norm(f, phi, varphi, weak):
        centers, radii = sampling.centers(f), sampling.radii()
        gauges = (per_ball_weak_gauges(f, phi, centers, radii) if weak
                  else per_ball_power_gauges(f, phi, centers, radii))
        _, value, witness = per_ball_morrey(f, phi, varphi, centers, radii, gauges=gauges)
        return value, witness

    rows = []
    for test_id, f in family:
        src, _ = norm(f, setup.phi, setup.varphi, False)
        if src == 0.0:
            rows.append(RatioRow(test_id, 0.0, np.nan, np.nan, None, "skipped: zero source norm"))
            continue
        mapped = maximal(f, alpha=setup.alpha) if operator == "maximal" else riesz_potential(f, setup.alpha)
        tgt, witness = norm(mapped, setup.psi, setup.eta, target == "weak")
        rows.append(RatioRow(test_id, src, tgt, tgt / src, witness))
    return rows


@pytest.mark.parametrize("target", ["strong", "weak"])
@pytest.mark.parametrize("operator", ["maximal", "riesz"])
def test_2d_adams_rows_equal_the_per_ball_oracles(target, operator):
    # 16x16 cells, the default sampling's radius range and strided centers plus the centroid and one extra
    # center: every row field, witness and note of the 2-D experiment is the one the per-ball oracles give
    grid = GridSpec(2, 1 / 8, 1.0)
    sampling = MorreySampling(r_min=4 * grid.h, r_max=2 * grid.extent, n_radii=24, extra_centers=((0.3, -0.1),))
    rng = np.random.default_rng(9)
    family = [("cells", random_cells_2d(grid, rng)), ("zero", SampledFunction(grid, np.zeros(grid.shape()))),
              ("disk", sample_function(grid, {"type": "ball_indicator", "center": (0.25, -0.25), "radius": 0.5}))]
    setup = AdamsSetup(P2, growth_from_lambda(P2, 0.5, n=2), alpha=0.5, beta=0.5, n=2)
    rows = estimate_operator_norm(setup, operator, target, family, grid=grid, sampling=sampling)
    expected = rows_from_oracles(setup, family, operator, target, sampling)
    assert row_fields(rows) == row_fields(expected)
    assert rows[1].note.startswith("skipped") and rows[0].witness is not None and rows[2].witness is not None


@pytest.mark.parametrize("sampling", [None, SMALL_SAMPLING], ids=["default", "small"])
def test_stacked_necessity_rows_equal_one_ball_at_a_time(sampling):
    setup, grid, t0s = balanced_setup(6), GridSpec(1, 1 / 16, 4.0), [2.0**k for k in range(-3, 3)]
    out = necessity_witness(setup, t0s, grid=grid, sampling=sampling)
    for row, t0 in zip(out["rows"], t0s):
        f = sample_function(grid, {"type": "ball_indicator", "center": (0.0,), "radius": t0})
        src = generalized_orlicz_morrey_norm(f, setup.phi, setup.varphi, sampling=sampling)
        tgt = generalized_orlicz_morrey_norm(maximal(f, alpha=setup.alpha), setup.psi, setup.eta, sampling=sampling)
        lower = float(t0**setup.alpha * setup.varphi(t0) ** (1.0 - setup.beta))
        assert row == {"t0": t0, "lower_bound": lower, "measured_ratio": tgt.value / src.value}
    assert out["K"] == max(r["lower_bound"] / r["measured_ratio"] for r in out["rows"])


def test_necessity_witness_balanced():
    out = necessity_witness(balanced_setup(4), [2.0**k for k in range(-3, 4)])
    lowers = [r["lower_bound"] for r in out["rows"]]
    measured = [r["measured_ratio"] for r in out["rows"]]
    assert np.allclose(lowers, 1.0)  # exponent cancellation in the balanced case
    assert max(measured) / min(measured) <= 4.0
    assert all(m >= lb / out["K"] - 1e-12 for m, lb in zip(measured, lowers))


def test_necessity_witness_unbalanced_direction():
    # q = 6: the lower bound is proportional to t0^(-1/12), so it decreases in t0
    out = necessity_witness(balanced_setup(6), [2.0**k for k in range(-3, 4)])
    lowers = [r["lower_bound"] for r in out["rows"]]
    measured = [r["measured_ratio"] for r in out["rows"]]
    assert np.allclose(np.diff(np.log(lowers)), -np.log(2) / 12, rtol=1e-6)
    assert np.all(np.diff(measured) < 0)


def test_necessity_witness_unrepresentable_ball():
    with pytest.raises(UnrepresentableBallError):
        necessity_witness(balanced_setup(4), [32.0])


def test_necessity_witness_needs_a_t0():
    # once a bare ValueError from max() of no rows
    with pytest.raises(ConfigError, match="at least one t0"):
        necessity_witness(balanced_setup(4), [])


def test_necessity_witness_ball_of_no_cell():
    # B(0, 1e-3) covers no cell center of the default grid (h = 1/64): its source norm is 0
    with pytest.raises(DomainError, match="t0=0.001"):
        necessity_witness(balanced_setup(4), [1e-3, 0.5])


def test_pointwise_inequality_bounded_over_family(grid64):
    setup = balanced_setup(4)
    fam = function_family("indicators", grid64) + function_family("random", grid64, seed=7, count=10)
    maxima = [check_pointwise_inequalities(setup, f)["max_ratio"] for _, f in fam]
    assert np.all(np.isfinite(maxima))
    assert max(maxima) <= 2.0  # frozen from the dense-grid sweep; continuum value ~1.19


def test_pointwise_inequality_vacuous_for_zero(grid64, unit_indicator):
    rep = check_pointwise_inequalities(balanced_setup(4), unit_indicator.scaled(0.0))
    assert rep["vacuous"]
