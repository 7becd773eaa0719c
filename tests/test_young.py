import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olab import (
    ComposedPowerYoung,
    DomainError,
    ExpMinusOneYoung,
    LinearCappedYoung,
    ParameterError,
    PowerLogYoung,
    PowerYoung,
    TabulatedYoung,
    YoungFunction,
    classify_growth,
    young_from_config,
)
from olab.errors import ConfigError

from conftest import bit_pattern_inverse

FINITE_KINDS = [
    PowerYoung(1.5),
    PowerYoung(2),
    PowerYoung(3),
    PowerYoung(2, scale=0.5),
    PowerLogYoung(2, 1),
    ExpMinusOneYoung(),
    ComposedPowerYoung(PowerYoung(2), 0.5),
]


def test_eval_examples():
    assert PowerYoung(2)(3.0) == 9.0
    lc = LinearCappedYoung()
    assert lc(0.5) == 0.0
    assert lc(1.5) == np.inf
    assert ComposedPowerYoung(PowerYoung(2), 0.5)(3.0) == pytest.approx(81.0)


def test_eval_rejects_negative():
    with pytest.raises(DomainError):
        PowerYoung(2)(-1.0)


def test_inverse_examples():
    assert PowerYoung(3).inverse(8.0) == pytest.approx(2.0)
    assert LinearCappedYoung().inverse(100.0) == 1.0
    # root of t^2 log(e+t) = 5, checked by re-evaluation
    phi = PowerLogYoung(2, 1)
    root = phi.inverse(5.0)
    assert phi(root) == pytest.approx(5.0, abs=1e-9)


def test_inverse_at_infinity():
    for phi in FINITE_KINDS + [LinearCappedYoung()]:
        assert phi.inverse(np.inf) == np.inf


@pytest.mark.parametrize("s", [np.nan, -1.0, [1.0, np.nan]])
def test_inverse_rejects_nan_and_negative(s):
    # a nan once gave 4.5e-13 for power_log and nan for power
    for phi in FINITE_KINDS + [LinearCappedYoung()]:
        with pytest.raises(DomainError):
            phi.inverse(s)


BISECTED_KINDS = [PowerLogYoung(2, 1), PowerLogYoung(1, 0), PowerLogYoung(1, 3), PowerLogYoung(3, 2.5),
                  PowerLogYoung(1.5, 5), PowerLogYoung(7, 3)]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(BISECTED_KINDS + [None]),
       st.integers(min_value=1, max_value=80))
@settings(max_examples=200, deadline=None)
def test_searched_inverse_is_the_least_float_past_s(seed, phi, size):
    # batches of s in [1e-12, 1e9] with 0, inf, tiny and huge values mixed in; None stands for a composed kind
    # over power_log, which inverts through its base
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(-12, 9 if seed % 4 == 0 else 3.5, size)
    s[rng.random(size) < 0.1] = 0.0
    s[rng.random(size) < 0.05] = np.inf
    s[rng.random(size) < 0.05] = 10.0 ** rng.uniform(-300, -12)
    s[rng.random(size) < 0.05] = 10.0 ** rng.uniform(9, 300)
    if phi is None:
        psi = ComposedPowerYoung(PowerLogYoung(2, 1), 0.5)
        assert np.array_equal(psi.inverse(s), bit_pattern_inverse(psi.base, s) ** 0.5)
        phi = psi.base
    r = phi.inverse(s)
    assert np.array_equal(r, bit_pattern_inverse(phi, s))
    crossed = (r > 0) & np.isfinite(r)
    assert np.all(phi(np.nextafter(r[crossed], 0)) <= s[crossed]) and np.all(s[crossed] < phi(r[crossed]))


def test_searched_inverse_is_a_function_of_each_element():
    phi = PowerLogYoung(2, 1)
    assert phi.inverse(3.7) == phi.inverse(np.array([3.7, 1e9]))[0] == 1.5914540134742834
    for s in (np.geomspace(1e-12, 3e3, 64), [0.0, 1e-300, 5.0, np.inf, 1e9, 1e300],
              np.geomspace(1e-3, 1e3, 12).reshape(3, 4)):
        s = np.asarray(s)
        assert np.array_equal(phi.inverse(s), np.reshape([phi.inverse(x) for x in s.ravel()], s.shape))


def test_searched_inverse_of_prefactors_takes_few_phi_calls(monkeypatch):
    # the 64 prefactor arguments 1/(2r) of a 1-D norm's radii on [1/16, 32], plus one far past them
    calls, plain = [], PowerLogYoung._eval

    def counted(self, t):
        calls.append(t.size)
        return plain(self, t)

    monkeypatch.setattr(PowerLogYoung, "_eval", counted)
    PowerLogYoung(2, 1).inverse(np.append(0.5 / np.geomspace(1 / 16, 32, 64), 1e9))
    assert len(calls) <= 10


class NotNondecreasingYoung(YoungFunction):
    """t^2 with a dip to 0 at the ladder node 2^-10."""

    def _eval(self, t):
        return np.where(t == 2.0**-10, 0.0, t * t)


def test_searched_inverse_of_a_ladder_that_is_not_nondecreasing():
    # the ladder gives no bracket: each s bisects [0, inf] with no guess, as the reference does
    phi, s = NotNondecreasingYoung(), np.geomspace(1e-30, 1e30, 41)
    r = phi.inverse(s)
    assert np.array_equal(r, bit_pattern_inverse(phi, s))
    assert np.all(phi(np.nextafter(r, 0)) <= s) and np.all(s < phi(r))


def test_compose_power():
    psi = PowerYoung(2).compose_power(0.5)
    ts = np.geomspace(1e-3, 1e3, 20)
    assert np.allclose(psi(ts), ts**4)
    # t^p with beta = p/q gives t^q
    psi2 = PowerYoung(2).compose_power(2.0 / 4.0)
    assert psi2(3.0) == pytest.approx(3.0**4)
    # inverse identity psi_inv(s) = phi_inv(s)^beta
    assert psi.inverse(16.0) == pytest.approx(2.0)
    assert PowerYoung(2).inverse(16.0) ** 0.5 == pytest.approx(2.0)


@pytest.mark.parametrize("values", [[0.0, 0.0], [0.5, 1.0, 1.0], [3.0]])
def test_bounded_tabulated_is_refused(values):
    # a Young function tends to inf: finite values that end flat (or one finite node) bound it
    with pytest.raises(ParameterError, match="tend to inf"):
        TabulatedYoung(np.arange(1.0, len(values) + 1), np.array(values))


def test_compose_power_rejects_bad_beta():
    for beta in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ParameterError):
            PowerYoung(2).compose_power(beta)


def test_composed_of_power_at_beta_is_identity_pointwise():
    phi = PowerLogYoung(2, 1)
    psi = phi.compose_power(0.5)
    ts = np.geomspace(1e-2, 1e2, 31)
    assert np.allclose(psi(ts**0.5), phi(ts), rtol=1e-12)


@pytest.mark.parametrize("phi", FINITE_KINDS, ids=repr)
def test_young_invariants(phi):
    ts = np.geomspace(1e-6, 50.0, 200)
    vals = phi(ts)
    assert phi(0.0) == 0.0
    assert np.all(np.diff(vals) >= -1e-12 * np.maximum(vals[1:], 1))
    # midpoint convexity on the finite range
    mid = phi((ts[:-1] + ts[1:]) / 2.0)
    assert np.all(mid <= (vals[:-1] + vals[1:]) / 2.0 + 1e-9 * np.maximum(vals[1:], 1))
    assert phi(1e8) > 1e6


@pytest.mark.parametrize("phi", FINITE_KINDS, ids=repr)
def test_scaling_properties(phi):
    ts = np.geomspace(1e-3, 30.0, 25)
    for a in (0.0, 0.3, 0.7, 1.0):
        assert np.all(phi(a * ts) <= a * phi(ts) + 1e-12)
    for a in (1.5, 4.0):
        assert np.all(phi(a * ts) >= a * phi(ts) - 1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_inverse_consistency(s):
    for phi in (PowerYoung(2), PowerLogYoung(2, 1), ExpMinusOneYoung()):
        r = phi.inverse(s)
        assert phi(r) <= s * (1 + 1e-9) + 1e-12
        assert phi(r * (1 + 1e-9) + 1e-12) >= s * (1 - 1e-9)


def test_conjugate_of_linear_is_cap():
    conj = PowerYoung(1).conjugate()
    assert conj(0.5) == 0.0
    assert conj(0.99) == 0.0
    assert conj(1.5) == np.inf


def test_quadratic_half_self_conjugate():
    half = PowerYoung(2, scale=0.5)
    conj = half.conjugate()
    rs = np.geomspace(1e-2, 1e2, 64)
    rel = np.abs(conj(rs) - half(rs)) / half(rs)
    assert rel.max() < 0.02


def test_conjugate_pairing_cubic():
    phi = PowerYoung(3)
    conj = phi.conjugate()
    for r in (0.1, 1.0, 10.0):
        prod = phi.inverse(r) * conj.inverse(r)
        assert r * (1 - 1e-6) <= prod <= 2 * r * (1 + 1e-6)


def test_tabulated_conjugate_monotone_and_invertible():
    conj = PowerLogYoung(2, 1).conjugate()
    rs = np.geomspace(1e-6, 1e6, 101)
    vals = conj(rs)
    assert np.all(np.diff(vals) >= 0)
    ss = np.geomspace(1e-5, 1e5, 41)
    back = conj(conj.inverse(ss))
    assert np.allclose(back, ss, rtol=1e-2)


def test_classify_power_delta_prime_constant_one():
    rep = classify_growth(PowerYoung(2), "delta_prime")
    assert rep.verdict == "holds-stable"
    assert rep.constant == pytest.approx(1.0, rel=1e-9)


def test_classify_square_nabla2():
    rep = classify_growth(PowerYoung(2), "nabla2")
    assert rep.verdict == "holds-stable"
    assert rep.constant == pytest.approx(2.0)


def test_classify_linear_not_nabla2():
    rep = classify_growth(PowerYoung(1), "nabla2")
    assert rep.verdict != "holds-stable"
    assert np.isinf(rep.constant)


def test_classify_exp_delta2_diverges():
    # exponential-growth oracle: the doubling ratio itself blows up
    phi = ExpMinusOneYoung()
    ratios = np.array([phi(2.0 * r) / phi(r) for r in (1.0, 2.0, 4.0, 8.0)])
    assert np.all(ratios[1:] / ratios[:-1] >= 1.3)
    rep = classify_growth(phi, "delta2")
    assert rep.verdict == "diverges"


def test_classify_linear_capped_delta2_diverges():
    rep = classify_growth(LinearCappedYoung(), "delta2")
    assert rep.verdict == "diverges"


def test_delta_prime_consequence_for_inverses():
    # phi in Delta' with constant C forces inv(u) inv(v) <= C' inv(u v)
    phi = PowerLogYoung(2, 1)
    rep = classify_growth(phi, "delta_prime")
    assert rep.verdict == "holds-stable"
    c_prime = max(rep.constant, 1.0)
    u = np.geomspace(1e-3, 1e3, 30)
    inv = phi.inverse(u)
    lhs = inv[:, None] * inv[None, :]
    rhs = phi.inverse(u[:, None] * u[None, :])
    assert np.all(lhs <= c_prime * rhs * (1 + 1e-9))


def test_config_round_trip():
    cfgs = [
        {"kind": "power", "p": 2.0},
        {"kind": "power", "p": 2.0, "scale": 0.5},
        {"kind": "power_log", "p": 2.0, "a": 1.0},
        {"kind": "exp_minus_one"},
        {"kind": "linear_capped"},
        {"kind": "composed_power", "base": {"kind": "power", "p": 2.0}, "beta": 0.5},
    ]
    for cfg in cfgs:
        phi = young_from_config(cfg)
        assert young_from_config(phi.config())(2.0) == phi(2.0)


def test_config_errors():
    with pytest.raises(ConfigError):
        young_from_config({"kind": "nope"})
    with pytest.raises(ConfigError):
        young_from_config({"kind": "power"})
    with pytest.raises(ConfigError):
        young_from_config("power")
    with pytest.raises(ParameterError):
        young_from_config({"kind": "power", "p": 0.5})


def per_element_inverse(phi: TabulatedYoung, s: float) -> float:
    """The generalized inverse of a tabulated kind at one s, branch by branch."""
    nodes, vals = phi.nodes[: phi._n_finite], phi.values[: phi._n_finite]
    if np.isinf(s):
        return np.inf
    j = np.searchsorted(vals, s, side="right")
    if j == 0:
        return 0.0 if vals[0] == 0 else s * nodes[0] / vals[0]
    if j < len(vals):
        return nodes[j - 1] + (s - vals[j - 1]) / (vals[j] - vals[j - 1]) * (nodes[j] - nodes[j - 1])
    if phi._tail_slope > 0:
        return min(nodes[-1] + (s - vals[-1]) / phi._tail_slope, phi._first_inf_node)
    return phi._first_inf_node


TABULATED_KINDS = {
    "inner and tail slope": TabulatedYoung(np.array([0.3, 0.7, 1.9, 4.1]), np.array([0.11, 0.93, 3.7, 8.3])),
    "zero first value": TabulatedYoung(np.array([0.5, 1.0, 2.0]), np.array([0.0, 0.5, 3.0])),
    "zero tail slope": TabulatedYoung(np.array([0.5, 1.0, 2.0, 4.0]), np.array([0.25, 1.0, 1.0, np.inf])),
    "infinite tail": TabulatedYoung(np.array([0.5, 1.0, 2.0, 4.0]), np.array([0.25, 1.0, 4.0, np.inf])),
    "single finite node": TabulatedYoung(np.array([0.5, 1.0]), np.array([2.0, np.inf])),
    "conjugate": ExpMinusOneYoung().conjugate(),
}


@pytest.mark.parametrize("name", TABULATED_KINDS)
def test_tabulated_inverse_matches_per_element_formula(name):
    # below the first node, on and between nodes, along the tail (clipped at the first infinite node), inf
    phi = TABULATED_KINDS[name]
    finite = phi.values[np.isfinite(phi.values)]
    s = np.concatenate([[0.0, 1e-300, np.inf, 1e300], finite, finite * (1 + 1e-9), 0.5 * finite,
                        np.geomspace(1e-6, 1e6, 97)])
    expected = np.array([per_element_inverse(phi, x) for x in s])
    assert np.array_equal(phi.inverse(s), expected)
    assert all(phi.inverse(x) == e for x, e in zip(s, expected))
