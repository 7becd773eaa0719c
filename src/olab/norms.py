"""Orlicz (Luxemburg) and weak Orlicz norms on balls; Orlicz-Morrey suprema.

The Luxemburg norm is the gauge inf{lam > 0 : integral phi(|f|/lam) <= 1};
the weak variant replaces the integral by sup_t phi(t/lam) d_f(t) with d_f
the distribution function.  Generalized Orlicz-Morrey norms are suprema of
phi_inv(|B|^{-1}) * ||f||_{L^Phi(B)} / varphi(r) over a sampled family of
balls; the attaining ball is returned as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .growth import GrowthFunction
from .report import ConditionReport, assess
from .sampled import Ball, GridSpec, SampledFunction, ball_measure, default_grid, sample_function
from .young import ComposedPowerYoung, LinearCappedYoung, PowerYoung, TabulatedYoung, YoungFunction

__all__ = [
    "NormEvaluation",
    "MorreySampling",
    "luxemburg_norm",
    "weak_orlicz_norm",
    "generalized_orlicz_morrey_norm",
    "triviality_probe",
]

# Relative tolerance of the gauge bisection; the returned value always sits
# at the feasible (upper) end of the final bracket so the normalization
# inequality integral phi(f/value) <= 1 holds exactly.
NORM_REL_TOL = 1e-9
# Bracket for the gauge: [1e-12, 1e12] * max|f|; outside it the norm is
# reported as 0 or inf.
_BRACKET_LO, _BRACKET_HI = 1e-12, 1e12


@dataclass
class NormEvaluation:
    """A norm value plus where and how it was computed."""

    value: float
    witness: Ball | None = None
    truncation: dict | None = None
    kind: str = "orlicz"

    def __float__(self):
        return float(self.value)


def _power_form(phi: YoungFunction) -> tuple[float, float] | None:
    """(p, scale) if phi is structurally scale * t**p, else None.

    Recognizes power kinds composed through powers: phi(t**(1/beta)) of a
    power is again a power with exponent p/beta.
    """
    if isinstance(phi, PowerYoung):
        return phi.p, phi.scale
    if isinstance(phi, ComposedPowerYoung):
        base = _power_form(phi.base)
        if base is not None:
            return base[0] / phi.beta, base[1]
    return None


def _jump_point(phi: YoungFunction) -> float | None:
    """Location of a jump to infinity, if the kind has one."""
    if isinstance(phi, LinearCappedYoung):
        return 1.0
    if isinstance(phi, TabulatedYoung):
        j = phi._first_inf_node
        return float(j) if np.isfinite(j) else None
    if isinstance(phi, ComposedPowerYoung):
        j = _jump_point(phi.base)
        return j**phi.beta if j is not None else None
    return None


def _gauge_bisect(constraint, maxv: float) -> float:
    """Smallest lam with constraint(lam) <= 1, by bisection in log space."""
    lo = _BRACKET_LO * maxv
    hi = _BRACKET_HI * maxv + 1e-300
    if constraint(hi) > 1.0:
        return np.inf
    if constraint(lo) <= 1.0:
        return lo
    for _ in range(120):
        if hi - lo <= NORM_REL_TOL * hi:
            break
        mid = np.sqrt(lo * hi)
        if constraint(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _lux_gauge(vals: np.ndarray, cellvol: float, phi: YoungFunction) -> float:
    pos = vals[vals > 0]
    if pos.size == 0:
        return 0.0
    maxv = float(pos.max())
    if np.isinf(maxv):
        return np.inf

    def constraint(lam):
        with np.errstate(over="ignore"):
            terms = phi(pos / lam)
        return np.inf if np.any(np.isinf(terms)) else cellvol * float(terms.sum())

    return _gauge_bisect(constraint, maxv)


def _weak_gauge(vals: np.ndarray, cellvol: float, phi: YoungFunction) -> float:
    pos = np.sort(vals[vals > 0])[::-1]
    if pos.size == 0:
        return 0.0
    maxv = float(pos[0])
    if np.isinf(maxv):
        return np.inf
    # measure{f >= v} for v running through the sorted values; duplicates are
    # dominated by the last entry of their run, so no dedup is needed
    meas = cellvol * np.arange(1, pos.size + 1)
    jump = _jump_point(phi)

    def constraint(lam):
        with np.errstate(over="ignore"):
            best = float(np.max(phi(pos / lam) * meas))
        if jump is not None:
            # sup over the constancy interval straddling the jump of phi(t/lam)
            for t in (lam * jump * (1 - 1e-12), lam * jump * (1 + 1e-12)):
                d = cellvol * float(np.count_nonzero(pos > t))
                if d > 0:
                    with np.errstate(over="ignore"):
                        best = max(best, float(phi(np.array([t / lam]))[0]) * d)
        return best

    return _gauge_bisect(constraint, maxv)


def luxemburg_norm(f: SampledFunction, phi: YoungFunction, ball: Ball | None = None) -> NormEvaluation:
    """Luxemburg gauge of f (restricted to a ball if given)."""
    vals = f.values.ravel() if ball is None else f.ball_values(ball)
    return NormEvaluation(_lux_gauge(vals, f.grid.cell_volume, phi), kind="orlicz")


def weak_orlicz_norm(f: SampledFunction, phi: YoungFunction, ball: Ball | None = None) -> NormEvaluation:
    """Weak Orlicz gauge of f built from the distribution function."""
    vals = f.values.ravel() if ball is None else f.ball_values(ball)
    return NormEvaluation(_weak_gauge(vals, f.grid.cell_volume, phi), kind="weak-orlicz")


# -- Orlicz-Morrey suprema ---------------------------------------------------


@dataclass(frozen=True)
class MorreySampling:
    """Sampled (center, radius) family over which the Morrey sup is taken.

    The sup is nondecreasing under center-set inclusion and under extending
    the radius ladder; callers refining a truncation should grow the ladder
    (keep old nodes) rather than respace it.
    """

    r_min: float
    r_max: float
    n_radii: int = 64
    center_stride: int = 4
    include_centroid: bool = True
    extra_centers: tuple = ()

    @classmethod
    def default(cls, grid: GridSpec) -> "MorreySampling":
        return cls(r_min=4 * grid.h, r_max=2 * grid.extent)

    def radii(self) -> np.ndarray:
        if self.n_radii < 1 or self.r_min <= 0 or self.r_max < self.r_min:
            raise ConfigError("empty radius sampling")
        return np.geomspace(self.r_min, self.r_max, self.n_radii)

    def centers(self, f: SampledFunction) -> list[tuple]:
        ax = f.grid.axis_centers()[:: self.center_stride]
        if f.grid.n == 1:
            cs = [(float(x),) for x in ax]
        else:
            cs = [(float(x), float(y)) for x in ax for y in ax]
        if self.include_centroid:
            cs.append(f.support_centroid())
        cs.extend(tuple(float(v) for v in c) for c in self.extra_centers)
        if not cs:
            raise ConfigError("empty center sampling")
        return cs


def _axis_bounds(grid: GridSpec, centers: np.ndarray, radii: np.ndarray):
    """Index ranges [k_lo, k_hi] of cells with |c_k - x| <= r, vectorized."""
    lo = (centers[:, None] - radii[None, :] + grid.extent) / grid.h - 0.5
    hi = (centers[:, None] + radii[None, :] + grid.extent) / grid.h - 0.5
    k_lo = np.maximum(np.ceil(lo - 1e-9).astype(int), 0)
    k_hi = np.minimum(np.floor(hi + 1e-9).astype(int), grid.cells_per_axis - 1)
    return k_lo, k_hi


# Centers whose sorted window rows are merged together; the work arrays are
# _CENTER_CHUNK x (window width) floats.
_CENTER_CHUNK = 32


def _weak_power_sups(vp, cellvol, k_lo, k_hi):
    """max_k v_(k)**p * cellvol * k over each window, v_(k) the k-th largest.

    ``vp`` holds the per-cell values v**p.  For a fixed center the windows
    [k_lo, k_hi] are nested as the radius grows (empty ones first), so each
    row of ``rows`` keeps the window's values sorted ascending and every
    radius appends only the newly covered cells and re-sorts with a stable
    sort, which timsort finishes as a linear merge of the two runs.  Rows
    are padded at the front with zeros (slot 0 of ``vpz``): zeros sort
    first, are taken as ranks beyond the positive values and contribute 0
    terms, so the products of the positive entries are exactly those of
    sorting each ball's positive values on its own.  Leading columns that
    are zero in every row are trimmed after each sort.  The columns of
    ``k_lo``/``k_hi`` must be in nondecreasing radius order.
    """
    vpz = np.concatenate([[0.0], vp])
    # half-open windows [lo, hi), empty ones as [lo, lo)
    lo = np.minimum(k_lo, len(vp))
    hi = np.maximum(k_hi + 1, lo)
    positives = np.concatenate([[0], np.cumsum(vp > 0)])
    n_pos = positives[hi] - positives[lo]
    # cells added by each radius: [lo, prev_lo) on the left, [prev_hi, hi) on
    # the right; after an empty window both parts name the cells [lo, hi)
    n_left = np.concatenate([lo[:, :1], lo[:, :-1]], axis=1) - lo
    prev_hi = np.concatenate([lo[:, :1], hi[:, :-1]], axis=1)
    n_new = n_left + hi - prev_hi
    rank_vol = cellvol * np.arange(len(vp), 0, -1)  # cellvol * rank, ranks counted from the end
    out = np.zeros(k_lo.shape)
    for c0 in range(0, len(k_lo), _CENTER_CHUNK):
        chunk = slice(c0, c0 + _CENTER_CHUNK)
        rows = np.zeros((len(k_lo[chunk]), 0))
        for j in range(k_lo.shape[1]):
            width = n_new[chunk, j].max()
            if width:
                pos = np.arange(width)
                left = n_left[chunk, j, None]
                cell = np.where(pos < left, lo[chunk, j, None] + pos, prev_hi[chunk, j, None] + pos - left)
                new = vpz[np.where(pos < n_new[chunk, j, None], cell + 1, 0)]
                rows = np.concatenate([new, rows], axis=1)
                rows.sort(axis=1, kind="stable")
                rows = rows[:, rows.shape[1] - n_pos[chunk, j].max() :]
            if rows.shape[1]:
                out[chunk, j] = np.max(rows * rank_vol[len(vp) - rows.shape[1] :], axis=1)
    return out


def _ball_gauge_matrix(f, phi, centers, radii, weak):
    """Ball Orlicz gauges for every (center, radius) pair.

    Power kinds scale * t**p on 1-D grids go through closed forms: prefix
    sums of f**p for the strong gauge, and for the weak one the order
    statistics sup_k v_(k)**p * |{f >= v_(k)}| of each ball, merged across
    the nested windows of one center (``_weak_power_sups``), which forms
    the same products as sorting each ball on its own.  Both agree with the
    bisection gauges to their tolerance and are exercised against per-ball
    references in tests.
    """
    cellvol = f.grid.cell_volume
    n_c, n_r = len(centers), len(radii)
    out = np.zeros((n_c, n_r))
    power = _power_form(phi)
    fast = power is not None and f.grid.n == 1 and np.all(np.isfinite(f.values))
    if fast:
        p, scale = power
        cen = np.asarray([c[0] for c in centers])
        radii = np.asarray(radii, dtype=float)
        k_lo, k_hi = _axis_bounds(f.grid, cen, radii)
        if not weak:
            prefix = np.concatenate([[0.0], np.cumsum(f.values**p)])
            sums = prefix[np.minimum(k_hi + 1, len(prefix) - 1)] - prefix[k_lo]
            sums = np.where(k_lo <= k_hi, sums, 0.0)
            return (scale * cellvol * sums) ** (1.0 / p)
        order = np.argsort(radii, kind="stable")
        out[:, order] = _weak_power_sups(f.values**p, cellvol, k_lo[:, order], k_hi[:, order])
        return (scale * out) ** (1.0 / p)
    gauge = _weak_gauge if weak else _lux_gauge
    for i, c in enumerate(centers):
        for j, r in enumerate(radii):
            out[i, j] = gauge(f.ball_values(Ball(c, float(r))), cellvol, phi)
    return out


def _morrey_matrix(f, phi, varphi, centers, radii, weak):
    """varphi(r)^{-1} phi^{-1}(|B(x,r)|^{-1}) ||f||_{L^Phi(B(x,r))} per pair."""
    radii = np.asarray(radii, dtype=float)
    gauges = _ball_gauge_matrix(f, phi, centers, radii, weak)
    measures = np.array([ball_measure(f.grid.n, r) for r in radii])
    prefactor = phi.inverse(1.0 / measures) / varphi(radii)
    return gauges * prefactor[None, :]


def _argmax_witness(vals: np.ndarray, centers, radii):
    best = np.max(vals)
    ties = np.argwhere(vals == best)
    # smallest radius first, then lexicographic center
    order = sorted((radii[j], centers[i]) for i, j in ties)
    r, c = order[0]
    return float(best), Ball(c, float(r))


def generalized_orlicz_morrey_norm(
    f: SampledFunction,
    phi: YoungFunction,
    varphi: GrowthFunction,
    weak: bool = False,
    sampling: MorreySampling | None = None,
) -> NormEvaluation:
    """Supremum over sampled balls defining the (weak) Orlicz-Morrey norm."""
    sampling = sampling or MorreySampling.default(f.grid)
    radii = sampling.radii()
    centers = sampling.centers(f)
    vals = _morrey_matrix(f, phi, varphi, centers, radii, weak)
    kind = "weak-morrey" if weak else "morrey"
    trunc = {
        "r_min": float(sampling.r_min),
        "r_max": float(sampling.r_max),
        "centers": f"every-{sampling.center_stride}th-cell"
        + ("+centroid" if sampling.include_centroid else ""),
    }
    best, witness = _argmax_witness(vals, centers, radii)
    if not np.isfinite(best):
        return NormEvaluation(float(best), None, trunc, kind)
    return NormEvaluation(float(best), witness, trunc, kind)


def triviality_probe(
    phi: YoungFunction,
    varphi: GrowthFunction,
    grid: GridSpec | None = None,
    schedule=None,
    r_min_steps: int = 3,
) -> ConditionReport:
    """Norm of the unit-ball indicator under widening radius truncation.

    The probe widens the sampled radius window upward (r_max doubling) and
    downward (r_min halving, down to one cell); a diverging leg signals that
    the space contains only functions equivalent to zero in that direction.
    """
    grid = grid or default_grid(1)
    if schedule is None:
        schedule = [2.0**k for k in range(4, 11)]
    f = sample_function(grid, {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": 1.0})
    r_floor = grid.h / 2 ** (r_min_steps - 1)
    ladder = np.geomspace(r_floor, max(schedule), 300)
    # one shared radius ladder keeps the window suprema nested and monotone
    ladder = np.unique(np.concatenate([ladder, [4 * grid.h, grid.h, 1.0], schedule]))
    sampling = MorreySampling(r_min=float(ladder[0]), r_max=float(ladder[-1]), n_radii=len(ladder))
    centers = sampling.centers(f)
    vals = _morrey_matrix(f, phi, varphi, centers, ladder, weak=False)
    col_max = vals.max(axis=0)

    def window_sup(rlo, rhi):
        sel = (ladder >= rlo * (1 - 1e-12)) & (ladder <= rhi * (1 + 1e-12))
        return float(col_max[sel].max()) if np.any(sel) else 0.0

    r_min0 = 4 * grid.h
    upper = [window_sup(r_min0, R) for R in schedule]
    lower_steps = [r_min0 / 2**k for k in range(r_min_steps)]
    lower = [window_sup(r, max(schedule)) for r in lower_steps]
    v_up, v_low = assess(upper), assess(lower)
    if "diverges" in (v_up, v_low):
        verdict = "diverges"
    elif v_up == v_low == "holds-stable":
        verdict = "holds-stable"
    else:
        verdict = "inconclusive"
    return ConditionReport(
        condition="triviality",
        params={"young": phi.config(), "growth": varphi.config(), "n": grid.n},
        schedule=list(schedule) + lower_steps,
        constants=list(upper) + list(lower),
        verdict=verdict,
        witness=None,
        details={
            "upper": {"r_max": list(schedule), "values": upper, "verdict": v_up},
            "lower": {"r_min": lower_steps, "values": lower, "verdict": v_low},
        },
    )
