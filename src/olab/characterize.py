"""Boundedness-condition checkers and empirical Adams-type experiments.

Each printed growth/integral condition of the form LHS(t) <= C * RHS(t) is
probed on a log grid of t: inner suprema and tail integrals are truncated at
R_max, the truncation follows a doubling schedule, and the best constant
C(R_max) = sup_t LHS/RHS is tracked; the verdict comes from the trend of
that sequence.  Operator-norm experiments compare source and target
Orlicz-Morrey norms of mapped test families on the default grids; the
members of a family on one grid are evaluated as one stack at each stage
(``stacked_morrey_norms``, ``stacked_maximal``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, OlabError, ParameterError, UnrepresentableBallError
from .growth import GrowthFunction
from .norms import MorreySampling, generalized_orlicz_morrey_norm, stacked_morrey_norms
from .operators import maximal, riesz_potential, stacked_maximal
from .report import (ConditionReport, checked_schedule, checked_t_grid, combine_legs, node_max, symmetric_report,
                     track, window)
from .sampled import GridSpec, SampledFunction, ball_measure, default_grid, distinct, sample_function
from .young import YoungFunction

__all__ = [
    "AdamsSetup",
    "check_membership",
    "check_condition",
    "estimate_operator_norm",
    "necessity_witness",
    "check_pointwise_inequalities",
    "function_family",
    "CONDITION_KINDS",
]

CONDITION_KINDS = (
    "supremal-maximal",
    "adams-sufficient",
    "adams-necessary",
    "lambda-sufficient",
    "lambda-necessary",
    "riesz-sufficient",
    "riesz-regularity",
)


@dataclass(frozen=True)
class AdamsSetup:
    """Parameters of one Adams-type experiment.

    The target-space data psi = phi(t^(1/beta)) and eta = varphi^beta are
    derived properties, never stored, so they cannot drift out of sync.
    """

    phi: YoungFunction
    varphi: GrowthFunction
    alpha: float
    beta: float
    n: int = 1

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.n}")
        if not 0 < self.alpha < self.n:
            raise DomainError(f"alpha must lie in (0, n), got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")

    @property
    def psi(self) -> YoungFunction:
        return self.phi.compose_power(self.beta)

    @property
    def eta(self) -> GrowthFunction:
        return self.varphi**self.beta

    def config(self) -> dict:
        return {
            "young": self.phi.config(),
            "growth": self.varphi.config(),
            "alpha": self.alpha,
            "beta": self.beta,
            "n": self.n,
        }


# Nodes of the largest log grid built; past it a range would take minutes or exhaust memory.
_MAX_LOG_NODES = 2**22


def _log_grid(t_min: float, t_max: float, per_octave: int = 32) -> np.ndarray:
    """Nodes t_min * 2^(k / per_octave) up to t_max; the one node t_min when t_max == t_min."""
    if t_min <= 0 or t_max < t_min:
        raise ConfigError("need 0 < t_min <= t_max")
    with np.errstate(over="ignore"):
        end = np.log2(t_max / t_min) * per_octave + 0.5
    if not end <= _MAX_LOG_NODES:  # inf where t_max / t_min overflows
        raise ConfigError(f"invalid range: {per_octave} nodes per octave from {t_min} to {t_max} "
                          f"make more than {_MAX_LOG_NODES} nodes")
    k = np.arange(0, end)
    return t_min * 2.0 ** (k / per_octave)


def _suffix_max(values: np.ndarray) -> np.ndarray:
    """out[i] = max(values[i+1:]), -inf at the end (sup over strictly later nodes)."""
    out = np.full(values.shape, -np.inf)
    if len(values) > 1:
        out[:-1] = np.maximum.accumulate(values[::-1])[::-1][1:]
    return out


def _suffix_log_integral(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """out[i] = integral of g over (s_i, s_max] with measure ds/s (log-trapezoid)."""
    u = np.log(s)
    seg = 0.5 * (g[1:] + g[:-1]) * np.diff(u)
    out = np.zeros_like(g)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def check_condition(
    kind: str,
    setup: AdamsSetup,
    t_grid: np.ndarray | None = None,
    schedule=None,
    per_octave: int = 32,
) -> ConditionReport:
    """Best-constant report for one printed boundedness condition.

    Inner suprema/integrals over (t, inf) are truncated at R_max; the outer t
    runs over the grid clipped to [1/R_max, R_max].  Both windows widen with
    the schedule, so the constants are nondecreasing.
    """
    if kind not in CONDITION_KINDS:
        raise ConfigError(f"unknown condition kind {kind!r}; choose from {CONDITION_KINDS}")
    schedule = checked_schedule(schedule)
    if t_grid is None:
        t_grid = _log_grid(2.0**-10, 2.0**10, per_octave)
    t_grid = checked_t_grid(t_grid)
    top = max(schedule)
    if not t_grid[window(t_grid, 1.0 / top, top)].size:  # every window would read 0, a vacuous holds-stable
        raise ConfigError(f"no node of the t grid [{t_grid[0]:g}, {t_grid[-1]:g}] lies in the widest window "
                          f"(1/{top:g}, {top:g}) of the schedule")
    r_final = max(top, t_grid[-1])
    # one shared log grid for outer t and inner s keeps windows nested
    s_all = distinct(np.concatenate([t_grid, _log_grid(t_grid[0], r_final, per_octave)]))
    phi, varphi, alpha, beta, n = setup.phi, setup.varphi, setup.alpha, setup.beta, setup.n
    try:
        phi_s = varphi(s_all)
    except Exception as exc:
        raise ConfigError(f"growth function not evaluable on the range: {exc}") from exc

    on_t = np.zeros(len(s_all), bool)
    on_t[np.searchsorted(s_all, t_grid)] = True  # not np.isin, which imports numpy.ma

    def measure(window):
        if not np.any(on_t[window]):
            return 0.0, np.nan
        # inner suprema/integrals run up to the window's top node
        s = s_all[: window.stop]
        ratio = _condition_ratio(kind, s, phi_s[: window.stop], phi, alpha, beta, n)
        vals = np.where(on_t[window], ratio[window], -np.inf)
        i = int(np.argmax(vals))
        return float(vals[i]), float(s[window][i])

    params = setup.config() | {"t_min": float(t_grid[0]), "t_max": float(t_grid[-1])}
    return symmetric_report(kind, params, s_all, schedule, measure)


def _condition_ratio(kind, s, pv, phi, alpha, beta, n):
    """Pointwise LHS/RHS of the condition on the truncated grid s."""
    a_vals = s**alpha * pv  # s^alpha varphi(s)
    if kind == "adams-necessary":
        return a_vals / pv**beta
    if kind == "lambda-necessary":
        return s**alpha * pv ** (1.0 - beta)
    if kind == "adams-sufficient":
        return (a_vals + np.maximum(_suffix_max(a_vals), 0.0)) / pv**beta
    if kind == "lambda-sufficient":
        return np.maximum(_suffix_max(a_vals), 0.0) / a_vals
    if kind == "riesz-sufficient":
        return (a_vals + _suffix_log_integral(s, a_vals)) / pv**beta
    if kind == "riesz-regularity":
        return _suffix_log_integral(s, a_vals) / a_vals
    if kind == "supremal-maximal":
        inv_meas = phi.inverse(1.0 / np.array([ball_measure(n, x) for x in s]))
        inner = pv / inv_meas
        mid = inv_meas * np.maximum(_suffix_max(inner), 0.0)
        return np.maximum(_suffix_max(mid), 0.0) / pv
    raise ConfigError(f"unknown condition kind {kind!r}")


def check_membership(
    varphi: GrowthFunction,
    phi: YoungFunction,
    membership: str,
    t_grid: np.ndarray | None = None,
    schedule=None,
    n: int = 1,
) -> ConditionReport:
    """Admissibility (omega) or almost-monotonicity (g) class membership probe.

    ``omega``: finiteness of sup_{r>t} phi_inv(|B(0,r)|^{-1})/varphi(r) under
    growing r_max and of sup_{r<tau} varphi(r)^{-1} under shrinking r_min.
    ``g``: the almost-decreasing constant of varphi and the almost-increasing
    constant of varphi(t)/phi_inv(t^{-n}), over widening windows.
    """
    if membership not in ("omega", "g"):
        raise ConfigError(f"membership class must be 'omega' or 'g', got {membership!r}")
    schedule = checked_schedule(schedule)
    if t_grid is None:
        t_grid = _log_grid(2.0**-10, 2.0**10, 16)
    t_grid = checked_t_grid(t_grid)
    pv = varphi(t_grid)
    params = {"young": phi.config(), "growth": varphi.config(), "class": membership, "n": n}

    if membership == "omega":
        inv_meas = phi.inverse(1.0 / np.array([ball_measure(n, x) for x in t_grid]))
        # the legs' strict edges r > t0 and r < 1 as -inf values
        upper_ratio = np.where(t_grid > t_grid[0], inv_meas / pv, -np.inf)
        lower_ratio = np.where(t_grid < 1.0, 1.0 / pv, -np.inf)
        upper, _, v_up = track(t_grid, [(t_grid[0], r_max) for r_max in schedule], node_max(t_grid, upper_ratio))
        lower, _, v_low = track(t_grid, [(1.0 / r_max, 1.0) for r_max in schedule], node_max(t_grid, lower_ratio))
        return ConditionReport(
            condition="membership-omega",
            params=params,
            schedule=list(schedule),
            constants=[max(u, l) for u, l in zip(upper, lower)],
            verdict=combine_legs(v_up, v_low),
            details={
                "upper": {"values": upper, "verdict": v_up},
                "lower": {"values": lower, "verdict": v_low},
            },
        )

    inv_meas = phi.inverse(t_grid ** (-float(n)))
    psi_vals = pv / inv_meas

    def measure(window):
        pw, qw = pv[window], psi_vals[window]
        if pw.size < 2:
            return 1.0, np.nan
        # almost decreasing: sup_{r <= s} varphi(s)/varphi(r)
        c_dec = float(np.max(pw / np.minimum.accumulate(pw)))
        # almost increasing: sup_{r <= s} psi(r)/psi(s)
        c_inc = float(np.max(np.maximum.accumulate(qw) / qw))
        return max(c_dec, c_inc, 1.0), float(t_grid[window][-1])

    return symmetric_report("membership-g", params, t_grid, schedule, measure)


# -- test families -----------------------------------------------------------


def function_family(name: str, grid: GridSpec, seed: int = 0, count: int = 10) -> list[tuple[str, SampledFunction]]:
    """Named families of nonnegative test functions on a grid."""
    if name == "indicators":
        out = []
        for k in range(-4, 5):
            r = 2.0**k
            if r <= grid.extent:
                out.append((f"indicator-2^{k}", sample_function(
                    grid, {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": r})))
        return out
    if name == "power-decay":
        out = []
        for gamma in (0.25, 0.5, 0.75):
            if gamma < grid.n:
                out.append((f"power-decay-{gamma}", sample_function(
                    grid, {"type": "power_decay", "gamma": gamma, "radius": 1.0})))
        return out
    if name == "random":
        rng = np.random.default_rng(seed)
        out = []
        for i in range(count):
            terms = []
            for _ in range(rng.integers(1, 4)):
                c = rng.uniform(-grid.extent / 2, grid.extent / 2, size=grid.n)
                r = float(rng.uniform(4 * grid.h, grid.extent / 4))
                w = float(rng.uniform(0.2, 3.0))
                terms.append({"type": "ball_indicator", "center": tuple(c), "radius": r, "weight": w})
            if rng.random() < 0.5:
                terms.append({"type": "gaussian", "scale": float(rng.uniform(0.5, 2.0)),
                              "center": tuple(rng.uniform(-2, 2, size=grid.n)), "weight": float(rng.uniform(0.2, 2.0))})
            out.append((f"random-{i}", sample_function(grid, {"type": "sum", "terms": terms})))
        return out
    raise ConfigError(f"unknown family {name!r}")


# -- operator-norm experiments ------------------------------------------------


@dataclass
class RatioRow:
    test_id: str
    source: float
    target: float
    ratio: float
    witness: object = None
    note: str = ""


def _apply_operator(fs: list, setup: AdamsSetup, operator: str) -> list[SampledFunction]:
    if operator == "maximal":
        return stacked_maximal(fs, alpha=setup.alpha, centered=True)
    if operator == "riesz":
        return [riesz_potential(f, setup.alpha) for f in fs]
    raise ConfigError(f"unknown operator {operator!r}")


def estimate_operator_norm(
    setup: AdamsSetup,
    operator: str = "maximal",
    target: str = "strong",
    family=None,
    grid: GridSpec | None = None,
    sampling: MorreySampling | None = None,
    seed: int = 0,
) -> list[RatioRow]:
    """Source/target Orlicz-Morrey norms and their ratios over a test family.

    The source norm is always the strong one; ``target`` picks the strong or
    weak norm on the mapped functions.  Members with zero source norm are
    skipped with a note.  The empirical operator norm is the max ratio.
    The members on one grid are evaluated as one stack at each stage: source
    norms, the operator on the members with a nonzero source norm, target
    norms.
    """
    if target not in ("strong", "weak"):
        raise ConfigError(f"target must be 'strong' or 'weak', got {target!r}")
    grid = grid or default_grid(setup.n)
    if family is None:
        family = "indicators"
    if isinstance(family, str):
        family = function_family(family, grid, seed=seed)
    if not family:
        raise ConfigError("empty test family")
    groups = {}
    for i, (_, f) in enumerate(family):
        groups.setdefault(f.grid, []).append(i)
    rows = [RatioRow(test_id, 0.0, np.nan, np.nan, None, "skipped: zero source norm") for test_id, _ in family]
    for members in groups.values():
        src = stacked_morrey_norms([family[i][1] for i in members], setup.phi, setup.varphi, sampling=sampling)
        live = [(i, s.value) for i, s in zip(members, src) if s.value != 0.0]
        if not live:
            continue
        mapped = _apply_operator([family[i][1] for i, _ in live], setup, operator)
        tgt = stacked_morrey_norms(mapped, setup.psi, setup.eta, weak=(target == "weak"), sampling=sampling)
        for (i, value), t in zip(live, tgt):
            rows[i] = RatioRow(family[i][0], value, t.value, t.value / value, t.witness)
    return rows


def necessity_witness(
    setup: AdamsSetup,
    t0_grid,
    grid: GridSpec | None = None,
    sampling: MorreySampling | None = None,
) -> dict:
    """Necessity probe on unit-ball indicators of dyadic radii.

    For each t0 the analytic lower-bound expression t0^alpha varphi(t0)^(1-beta)
    is compared with the measured target/source norm ratio of the maximal
    operator on the indicator of B(0, t0); K is the single constant with
    measured >= lower / K across the grid.  The indicators are evaluated as
    one stack at each stage; a t0 that fails is reported after the ones
    before it are measured, as a loop over t0 would.
    """
    grid = grid or default_grid(setup.n)
    t0_grid = np.asarray(t0_grid, dtype=float)
    if not t0_grid.size:
        raise ConfigError("the necessity witness needs at least one t0")
    fs, lower, fault = [], [], None
    for t0 in t0_grid:
        try:
            if t0 > grid.extent:
                raise UnrepresentableBallError(
                    f"ball not representable: t0={t0} exceeds half-extent {grid.extent}"
                )
            f = sample_function(grid, {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": float(t0)})
            if not f.values.any():  # its source norm is 0
                raise DomainError(f"ball not sampled: t0={t0} covers no cell center of a grid with h={grid.h}")
            lower.append(float(t0**setup.alpha * setup.varphi(t0) ** (1.0 - setup.beta)))
            fs.append(f)
        except OlabError as exc:
            fault = exc
            break
    src = stacked_morrey_norms(fs, setup.phi, setup.varphi, sampling=sampling)
    tgt = stacked_morrey_norms(stacked_maximal(fs, alpha=setup.alpha, centered=True), setup.psi, setup.eta,
                               sampling=sampling)
    rows = [{"t0": float(t0), "lower_bound": lo, "measured_ratio": t.value / s.value}
            for t0, lo, s, t in zip(t0_grid, lower, src, tgt)]
    if fault is not None:
        raise fault
    k = max(r["lower_bound"] / r["measured_ratio"] for r in rows)
    return {"rows": rows, "K": float(k)}


def check_pointwise_inequalities(setup: AdamsSetup, f: SampledFunction) -> dict:
    """Max of M_alpha f / ((M f)^beta ||f||^(1-beta)) over points with M f > 0."""
    m_alpha = maximal(f, alpha=setup.alpha, centered=True)
    m0 = maximal(f, alpha=0.0, centered=True)
    norm = generalized_orlicz_morrey_norm(f, setup.phi, setup.varphi).value
    mask = m0.values > 0
    if not np.any(mask) or norm == 0:
        return {"max_ratio": np.nan, "points": 0, "vacuous": True}
    ratios = m_alpha.values[mask] / (m0.values[mask] ** setup.beta * norm ** (1.0 - setup.beta))
    return {"max_ratio": float(np.max(ratios)), "points": int(mask.sum()), "vacuous": False}
