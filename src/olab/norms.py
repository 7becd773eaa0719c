"""Orlicz (Luxemburg) and weak Orlicz norms on balls; Orlicz-Morrey suprema.

The Luxemburg norm is the gauge inf{lam > 0 : integral phi(|f|/lam) <= 1};
the weak variant replaces the integral by sup_t phi(t/lam) d_f(t) with d_f
the distribution function.  Generalized Orlicz-Morrey norms are suprema of
phi_inv(|B|^{-1}) * ||f||_{L^Phi(B)} / varphi(r) over a sampled family of
balls; the attaining ball is returned as a witness.

Ball gauges take one of two paths.  Power kinds scale * t**p on 1-D grids
have closed forms, unless f**p or its sum overflows: window sums of f**p
(strong), and for the weak gauge g = max_k v_(k)**p * cellvol * k over each
ball's sorted window, v_(k) its k-th largest value.  For a fixed center g is
nondecreasing in the radius bit for bit (the windows are nested, so each
v_(k) can only grow, and rounding is monotone in each factor).  So each
center is bisected over its sorted radii: a run between two equal exact
values holds that value throughout, and a run is skipped when the gauge of
its upper end times the run's largest prefactor, times (1 + 1e-12) for the
rounding of the p-th root, falls below the best exact entry: none of its
entries can win or tie.  Skipped entries read 0; with no prefactor none is
skipped.  A run up to the last radius that is neither, over which the
prefactor does not rise (a flat lambda = 0 prefactor ties every center's
largest balls, so nothing is skipped there), is certified from one level
count: with v* the value of a term attaining g at the last radius and
N(j) = #{x in B_j : v**p >= v*}, nondecreasing in j, every j with
N(j) = N(last) has g(j) >= fl(v* * cellvol * N) = g(last) >= g(j).  The run
from the first such j0 on takes g(last) unsorted, and the radius j0 - 1 is
evaluated next, in place of the middle, so that the skip rule can prune the
rest.  Every other case finds, per column block (a radius, and for the weak
gauge a chunk of centers), one root lam* = min{lam : max_c U_c(lam) <= 1} of
bounds U_c >= F_c of the balls' constraints, which fall in lam.  One batched
Illinois iteration finds the roots of all blocks: each keeps its own bracket
and halving, and each step evaluates the unfinished blocks at once.  Strong:
U_c is ``sampled.ball_sums`` of phi(f/lam) plus its rounding bound, the
columns of a chunk stacked in one table; a block's root does not depend on
its chunk.  Weak: levels s_0 < ... < s_L over f's positive values, t_i the
largest value of the bin [s_i, s_(i+1)), N_i(c) = #{x in B_c : f(x) >= s_i}
and U_c(lam) = max_i phi(t_i/lam) * cellvol * N_i(c): a ball's k-th largest
value v lies in some bin i, with k <= N_i(c) and phi(v/lam) <= phi(t_i/lam).
Its maximum over a block is max_i phi(t_i/lam) * cellvol * max_c N_i(c), one
row of counts per block.  With a level at every distinct value U_c is term
for term the bound on windows sorted once (the very products of
``_weak_gauge``), and so are the roots.  Binned levels (more distinct values
than the level budget) give roots above those, which only order the blocks:
a block taken in their order finds the root of its sorted windows, and the
margin test below waits until that root tops the rest.  The values stay those of
the per-ball bisections (``_lux_gauge``, ``_weak_gauge``, tolerance 1e-9):
where U_c(lam) <= 1 that bisection ends below lam (1 + 2e-9), bracket ends
permitting (checked).  So a ball with U_c(mu) <= 1, mu = lam* (1 - 1e-7),
stays below mu (1 + 2e-9); the others are re-bisected (once per set of
positive cells and per positive content), and if one reaches mu (1 + 3e-9)
it strictly tops every skipped ball, else the whole column is re-bisected.
A column stays below lam* (1 + 2e-9), so columns are taken by decreasing
lam* * prefactor until that times (1 + 4e-9) falls below the best exact
entry: no later entry can win or tie (a phi that rounds a few ulps out of
order moves a binned root by far less).  Skipped entries read 0.  Balls over
an infinite cell of f have gauge inf; the rest are those of f with its
infinite cells zeroed, and need no work once one inf entry decides the sup.
Gauge brackets keep their lower end at or above the least positive float.

``stacked_morrey_norms`` takes a family on one grid: the radii, the strided
centers, the prefactor and the windows of their balls are made once, and
each function adds its own centroid; ``generalized_orlicz_morrey_norm`` is
its stack of one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .growth import GrowthFunction
from .report import ConditionReport, checked_schedule, combine_legs, node_max, track
from .sampled import (Ball, GridSpec, SampledFunction, ball_measure, ball_windows, common_grid, default_grid,
                      distinct, level_counts, row_prefix, row_table, sample_function, stacked_ball_sums,
                      stacked_ball_windows, window_key, window_values)
from .young import ComposedPowerYoung, PowerYoung, YoungFunction

__all__ = [
    "NormEvaluation",
    "MorreySampling",
    "luxemburg_norm",
    "weak_orlicz_norm",
    "generalized_orlicz_morrey_norm",
    "stacked_morrey_norms",
    "triviality_probe",
]

# Relative tolerance of the gauge bisection; the returned value always sits
# at the feasible (upper) end of the final bracket so the normalization
# inequality integral phi(f/value) <= 1 holds exactly.
NORM_REL_TOL = 1e-9
# Bracket for the gauge: [1e-12, 1e12] * max|f|; outside it the norm is
# reported as 0 or inf.
_BRACKET_LO, _BRACKET_HI = 1e-12, 1e12
# Relative margin below a column's root within which balls are re-bisected.
_MARGIN = 1e-7
_FLOAT_TINY, _FLOAT_MAX = float(np.finfo(float).tiny), float(np.finfo(float).max)
_FLOAT_MIN, _EPS = float(np.nextafter(0.0, 1.0)), float(np.finfo(float).eps)  # least positive float


@dataclass
class NormEvaluation:
    """A norm value plus where and how it was computed: ``work`` is a Morrey sup's one work record (None for
    a plain Orlicz gauge), its ``path`` and per-ball ``bisections`` plus the counts of that path (see
    ``_ball_gauge_matrices``)."""

    value: float
    witness: Ball | None = None
    truncation: dict | None = None
    kind: str = "orlicz"
    work: dict | None = None

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


def _bracket(maxv: float) -> tuple[float, float]:
    """The gauge bracket [1e-12, 1e12] * maxv within the positive finite floats (for a subnormal maxv the
    lower end would round to 0)."""
    return max(_BRACKET_LO * maxv, _FLOAT_MIN), min(_BRACKET_HI * maxv + 1e-300, _FLOAT_MAX)


def _gauge_bisect(constraint, maxv: float) -> float:
    """Smallest lam with constraint(lam) <= 1, by bisection in log space."""
    lo, hi = _bracket(maxv)
    if constraint(hi) > 1.0:
        return np.inf
    if constraint(lo) <= 1.0:
        return lo
    for _ in range(120):
        if hi - lo <= NORM_REL_TOL * hi:
            break
        mid = lo * hi  # floats: past the range it reads inf or a subnormal, with no warning
        # two roots only where lo * hi overflows or loses bits, so every other gauge keeps its bits
        mid = math.sqrt(mid) if _FLOAT_TINY <= mid <= _FLOAT_MAX else math.sqrt(lo) * math.sqrt(hi)
        if constraint(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _illinois(evaluate, lo: float, hi: float, n: int) -> tuple[np.ndarray, int]:
    """Roots min{lam : U_b(lam) <= 1} of n column blocks b at once, and the number of ``evaluate`` calls.

    ``evaluate(lam, live)`` gives the column maxima U_b(lam), nonincreasing in lam, of the blocks ``live``,
    each at its own lam.  Every block runs its own Illinois regula falsi on log U against log lam from the
    bracket [lo, hi], where 0 or inf at an end halves the step instead, and ends at the feasible end of a
    bracket of relative width NORM_REL_TOL.  The roots only steer the margin: far fewer steps than
    ``_gauge_bisect``'s 36.
    """
    every = np.arange(n)
    a, b = np.full(n, lo), np.full(n, hi)
    ya, yb = np.log(evaluate(a, every)), np.log(evaluate(b, every))
    roots = np.where(yb > 0, np.inf, lo)
    # the state of the unfinished blocks ``live`` only; side: 1 (-1) where the last step moved hi (lo)
    keep = ~(yb > 0) & ~(ya <= 0)
    live, a, b, ya, yb, side = every[keep], a[keep], b[keep], ya[keep], yb[keep], np.zeros(keep.sum())
    steps = 2
    for _ in range(120):  # as many as ``_gauge_bisect``: among subnormals a bracket may not narrow
        if not (keep := b - a > NORM_REL_TOL * b).all():
            roots[live[~keep]] = b[~keep]
            live, a, b, ya, yb, side = live[keep], a[keep], b[keep], ya[keep], yb[keep], side[keep]
        if not len(live):
            break
        mid = a * (b / a) ** np.where(np.isfinite(ya - yb), np.clip(ya / (ya - yb), 0.01, 0.99), 0.5)
        y, steps = np.log(evaluate(mid, live)), steps + 1
        below = y <= 0
        # the end that stays put a second time in a row has its log U halved
        ya = np.where(below, np.where(side == 1, ya / 2, ya), y)
        yb = np.where(below, y, np.where(side == -1, yb / 2, yb))
        a, b, side = np.where(below, a, mid), np.where(below, mid, b), np.where(below, 1, -1)
    roots[live] = b
    return roots, steps


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
    # dominated by the last entry of their run, so no dedup is needed.  A jump
    # of phi at t/lam adds nothing: the least value above t has rank |{f > t}|.
    meas = cellvol * np.arange(1, pos.size + 1)

    def constraint(lam):
        with np.errstate(over="ignore"):
            return float(np.max(phi(pos / lam) * meas))

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


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigError(f"MorreySampling.{name} must be a positive integer, got {value!r}")


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
        _require_count("n_radii", self.n_radii)
        if not 0 < self.r_min <= self.r_max < np.inf:
            raise ConfigError(f"radius sampling needs 0 < r_min <= r_max < inf, got [{self.r_min}, {self.r_max}]")
        return np.geomspace(self.r_min, self.r_max, self.n_radii)

    def centers(self, f: SampledFunction) -> list[tuple]:
        return [tuple(c) for c in self.center_stack([f])[0][0].tolist()]

    def center_stack(self, fs) -> tuple[np.ndarray, int]:
        """The centers of each function of a family on one grid, (functions, centers, n), and how many
        leading ones they share: every center_stride-th cell, then each function's support centroid and
        the extra centers."""
        _require_count("center_stride", self.center_stride)
        grid = fs[0].grid
        ax = grid.axis_centers()[:: self.center_stride]
        shared = ax[:, None] if grid.n == 1 else np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
        extra = [tuple(float(v) for v in c) for c in self.extra_centers]
        if any(len(c) != grid.n for c in extra):
            raise ConfigError(f"center sampling needs centers of {grid.n} coordinates, got {extra}")
        own = [([f.support_centroid()] if self.include_centroid else []) + extra for f in fs]
        own = np.array(own, dtype=float).reshape(len(fs), -1, grid.n)
        cs = np.concatenate([np.broadcast_to(shared, (len(fs),) + shared.shape), own], axis=1)
        if not cs.shape[1]:
            raise ConfigError("empty center sampling")
        for c in cs:
            if not np.isfinite(c).all():
                raise ConfigError(f"center sampling needs finite centers, got {[tuple(x) for x in c.tolist()]}")
        return cs, len(shared)


# Fewest centers whose windows the weak root-find sorts together; the work arrays are
# _CENTER_CHUNK x (window width) floats.
_CENTER_CHUNK = 32
# Entries of one array of gathered ball windows: the weak 1-D power closed form, the weak level counts.
_BATCH = 2**16
# The strong root-find: the ball windows it holds at once, in index bytes (larger sets of radii are split
# into groups, each with its own batched root-find), and the row_prefix slots plus windows of the columns
# that one step stacks into one table (one column on large grids, where a wider table falls out of cache).
_WINDOW_BYTES, _STACK_SLOTS = 2**24, 2**15
# The weak root-find's level count, at least 1, keeps levels x balls within _LEVEL_BALLS and levels x balls x
# rows (the row windows that its counts read) within _LEVEL_ROWS.  Provisional: set by single runs on 128x128
# and 256x256 grids; no benchmarked op has more distinct positive values than the budget.
_LEVEL_BALLS, _LEVEL_ROWS = 2**21, 2**28
# Relative margin by which the bound on a skipped run of weak entries stays below the best exact
# entry; it covers any p-th root that rounds out of order.
_RUN_MARGIN = 1e-12
# Relative rise of the prefactor over a run below the last radius up to which the weak power sups certify
# the run's tie with the last radius; far above the few ulps by which a flat (lambda = 0) prefactor wobbles.
_FLAT_PREFACTOR = 1e-9


def _weak_power_batch(table, rank_vol, start, stop, levels=False):
    """max_k v_(k) * cellvol * k over the 1-D windows (start, stop] of ``table``, v_(k) the k-th largest; with
    ``levels`` the value v_(k) of one k that attains it (else zeros); and the number of windows sorted.

    ``rank_vol[-k]`` holds cellvol * k.  Each distinct window is read anew: the cells after its end
    are zeroed, and zeros sort first, are taken as ranks beyond the positive values and add 0 terms.
    Windows are batched by width, within a factor 2."""
    _, first, inverse = np.unique(start * len(table) + stop, return_index=True, return_inverse=True)
    start, width = start[first], stop[first] - start[first]
    out, level = np.zeros(len(width)), np.zeros(len(width))
    order = np.argsort(width, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(np.frexp(width[order])[1])) + 1):
        w, top = width[group], width[group[-1]] if len(group) else 0
        if top == 0:
            continue
        view = np.lib.stride_tricks.sliding_window_view(table, top)
        for batch in np.array_split(np.arange(len(group)), -(-len(group) * top // _BATCH)):
            rows = view[start[group[batch]] + 1]
            rows[np.arange(top) >= w[batch, None]] = 0.0
            rows.sort(axis=1)
            if levels:
                terms = rows * rank_vol[len(rank_vol) - top :]
                k = (np.arange(len(batch)), np.argmax(terms, axis=1))
                out[group[batch]], level[group[batch]] = terms[k], rows[k]
            else:
                out[group[batch]] = np.max(rows * rank_vol[len(rank_vol) - top :], axis=1)
    return out[inverse], level[inverse], int(np.count_nonzero(width))


def _tie_starts(vp, start, stop, level):
    """Per row of 1-D windows (start, stop], nested as the row goes on, the first index j with N(j) = N(last),
    N(j) the cells of window j with vp >= that row's ``level``: exact int counts, each row read at its own
    level through ``level_counts`` (of as many distinct levels at a time as keep their sets in _BATCH cells)."""
    levels = distinct(level)
    which, counts, per = np.searchsorted(levels, level), np.empty(start.shape, int), max(1, _BATCH // len(vp))
    for a in range(0, len(levels), per):
        rows = np.flatnonzero((which >= a) & (which < a + per))
        count = level_counts(vp, levels[a : a + per])
        counts[rows] = count((start[rows][..., None], stop[rows][..., None]), (which[rows] - a)[:, None])
    return np.argmax(counts == counts[:, -1:], axis=1)


def _weak_power_sups(vp, cellvol, windows, to_gauge=None, prefactor=None):
    """g = max_k v_(k)**p * cellvol * k over each 1-D ball of ``windows``, v_(k) the k-th largest, and the
    counts of the work record: the windows sorted and the entries certified.

    ``vp`` holds the per-cell values v**p, ``windows`` the (N, radii, 1) ``ball_windows`` of N centers at
    nondecreasing radii, so g(c, j) is nondecreasing in j (module docstring).  All centers are bisected
    over their radius indices together, a level at a time: the first and last radius are evaluated
    exactly, and a run lo < j < hi between two exact entries takes g(c, lo) if g(c, lo) == g(c, hi),
    else is split at its middle.  Given a ``prefactor`` per radius, a run is skipped (its entries read 0)
    when to_gauge(g(c, hi)) * max(prefactor over the run) * (1 + _RUN_MARGIN) falls below the best
    to_gauge(g) * prefactor of an exact entry.

    Tied runs are certified: the last radius gives v*, the value of one term that attains g(c, last),
    and N(c, j) = #{x in B(c, r_j) : v**p >= v*}, which never falls as j grows.  Where N(c, j) = N(c, last),
    the N-th largest value is >= v*, so g(c, j) >= fl(v* * cellvol * N) = g(c, last) >= g(c, j): the run
    from the first such j0 to the last radius holds g(c, last) bit for bit, unsorted.  A run (lo, last)
    that is neither flat nor skipped takes the certificate where the prefactor does not rise over
    lo < j < last (by more than _FLAT_PREFACTOR, far above rounding; no prefactor is flat), and becomes
    (lo, j0), evaluated at j0 - 1 instead of its middle so that the skip rule can prune the rest.
    """
    table = row_table(vp)[0]
    start, stop = windows[0][..., 0], windows[1][..., 0]
    rank_vol = cellvol * np.arange(len(vp), 0, -1)  # cellvol * rank, ranks counted from the end
    out, certified = np.zeros(start.shape), 0
    last = start.shape[1] - 1
    ends = np.arange(len(start)).repeat(2), np.tile([0, last], len(start))
    pref = np.ones(last + 1) if prefactor is None else prefactor
    # flat_to_last[lo]: max(prefactor[lo + 1 : last]) stays within _FLAT_PREFACTOR of prefactor[last]
    flat_to_last = np.maximum.accumulate(pref[last - 1 : 0 : -1])[::-1] <= pref[last] * (1 + _FLAT_PREFACTOR)
    certify = flat_to_last.any()  # else the bisection runs alone
    out[ends], tops, windows_sorted = _weak_power_batch(table, rank_vol, start[ends], stop[ends], certify)
    tops = tops[1::2]  # v* of each center's last radius
    if prefactor is not None:
        # runs[k, a] = max(prefactor[a : a + 2**k]); a run a..b is two such blocks that overlap
        runs = np.full((int(last + 1).bit_length(), last + 1), np.nan)
        runs[0] = prefactor
        for k in range(1, len(runs)):
            n, half = last + 2 - 2**k, 2 ** (k - 1)  # blocks of 2**k radii
            runs[k, :n] = np.maximum(runs[k - 1, :n], runs[k - 1, half : half + n])

        def run_max(a, b):  # max(prefactor[a : b + 1]), a <= b
            k = np.frexp(b - a + 1)[1] - 1
            return np.maximum(runs[k, a], runs[k, b + 1 - 2**k])

        best = np.nanmax(to_gauge(out[ends]) * prefactor[ends[1]], initial=-np.inf)

    def fill(c, a, n_in, value):  # out[c, a : a + n_in] = value, per run
        at = np.arange(n_in.sum()) - np.repeat(np.cumsum(n_in) - n_in, n_in)
        out[np.repeat(c, n_in), np.repeat(a, n_in) + at] = np.repeat(value, n_in)

    c, lo, hi = np.arange(len(start)), np.zeros(len(start), int), np.full(len(start), last)
    while len(c := c[(live := hi - lo > 1)]):
        lo, hi = lo[live], hi[live]
        flat = out[c, lo] == out[c, hi]
        fill(c, lo + 1, np.where(flat, hi - lo - 1, 0), out[c, lo])
        split = ~flat
        if prefactor is not None:
            # exact entries only: a run's best is its largest prefactor times its one gauge
            best = np.nanmax(to_gauge(out[c, lo][flat]) * run_max(lo[flat] + 1, hi[flat] - 1), initial=best)
            split &= ~(to_gauge(out[c, hi]) * run_max(lo + 1, hi - 1) * (1 + _RUN_MARGIN) < best)
        c, lo, hi, mid = c[split], lo[split], hi[split], (lo[split] + hi[split]) // 2
        if certify and (tied := (hi == last) & flat_to_last[lo]).any():
            ct = c[tied]
            j0 = _tie_starts(vp, start[ct], stop[ct], tops[ct])
            fill(ct, j0, last - j0, out[ct, last])
            certified += int((last - j0).sum())
            hi[tied], mid[tied] = j0, j0 - 1
            c, lo, hi, mid = c[keep := mid > lo], lo[keep], hi[keep], mid[keep]
        out[c, mid], _, n = _weak_power_batch(table, rank_vol, start[c, mid], stop[c, mid])
        windows_sorted += n
        if prefactor is not None:
            best = np.nanmax(to_gauge(out[c, mid]) * prefactor[mid], initial=best)
        c, lo, hi = np.concatenate([c, c]), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return out, {"sorted_windows": windows_sorted, "certified": certified}


def _ball_gauge_matrices(fs, phi, centers, shared, radii, weak, prefactor=None):
    """Ball Orlicz gauges per (function, center, radius) triple of a family on one grid, and each function's
    work record from the path that computed its gauges.

    ``centers`` holds each function's centers, the first ``shared`` of them
    common to every function (``MorreySampling.center_stack``); the windows
    of those are made once.  Power kinds scale * t**p on 1-D grids go through
    closed forms while f**p and its sum stay finite: window sums of f**p for
    the strong gauge, read for every such function from one stacked
    ``row_prefix`` table with the arithmetic of ``ball_sums``, and for the
    weak one the order statistics
    sup_k v_(k)**p * |{f >= v_(k)}| of each ball, bisected over the nested
    windows of one center (``_weak_power_sups``).  That sup never falls as
    the radius grows, bit for bit, so a run of radii between two equal
    values takes that value, and given a prefactor a run whose upper gauge
    times its largest prefactor, times 1 + 1e-12, stays below the best exact
    entry reads 0.  A run up to the last radius over which the prefactor
    does not rise takes the last value from the first radius whose ball
    holds as many cells at or above the last ball's attaining level: an
    exact level count certifies the tie without sorting, and the radius just
    before it is evaluated next.
    Else the column root-find gives the entries that can attain the sup of
    gauge * prefactor (with no prefactor, each column's maximum); the rest
    read 0.  Both skip only entries strictly below the sup, so the sup and
    its witness are those of the whole matrix.  The weak closed form and the
    root-find take the functions one by one.

    The work record is one dict on every path: its ``path`` ("closed-form"
    or "column-root-find") and the per-ball ``bisections``; the weak closed
    form adds ``sorted_windows`` and ``certified``, the root-find the counts
    of ``_work``.
    """
    grid = fs[0].grid
    cellvol = grid.cell_volume
    radii = np.asarray(radii, dtype=float)
    power, vps = _power_form(phi) if grid.n == 1 else None, {}
    if power is not None:
        p, scale = power

        def to_gauge(sups):
            return (scale * sups) ** (1.0 / p)

        with np.errstate(over="ignore"):
            for i, f in enumerate(fs):
                vp = f.values**p
                if np.isfinite(2 * scale * cellvol * vp.sum()):  # f**p or a ball's sup of it may overflow
                    vps[i] = vp
    closed, works = list(vps), [{"path": "closed-form", "bisections": 0} for _ in fs]
    if closed:  # the windows before the output: making them takes the most memory
        order = np.argsort(radii, kind="stable") if weak else np.arange(len(radii))
        common = ball_windows(grid, centers[0, :shared], radii[order])
        own = [w.reshape((len(closed), -1) + w.shape[1:])
               for w in ball_windows(grid, centers[closed, shared:].reshape(-1, grid.n), radii[order])]
    out = np.zeros(centers.shape[:2] + radii.shape)
    for i, f in enumerate(fs):
        if i not in vps:  # the root-find divides by lam first
            out[i], works[i] = _root_find_gauges(f, phi, centers[i], radii, weak, prefactor)
    if closed and not weak:
        # the window sums of ``ball_sums`` (a 1-D ball has one row), function i's read from row i of one stacked
        # table, then (scale * cellvol * sums) ** (1 / p) in place
        table, rows = row_prefix(np.stack([vps[i] for i in closed])), np.arange(len(closed)).reshape(-1, 1, 1)
        for (start, stop), at in ((common, slice(shared)), (own, slice(shared, None))):
            sums = table[rows, stop[..., 0]]
            sums -= table[rows, start[..., 0]]
            sums *= scale * cellvol
            sums **= 1.0 / p
            out[closed, at] = sums
    for row, i in enumerate(closed if weak else []):
        windows = tuple(np.concatenate([c, o[row]]) for c, o in zip(common, own))
        sups, counts = _weak_power_sups(vps[i], cellvol, windows, to_gauge,
                                        None if prefactor is None else prefactor[order])
        out[i] = to_gauge(sups[:, np.argsort(order)])
        works[i] |= counts
    return out, works


def _work(**counts) -> dict:
    """The root-find's work record: its path, the per-ball bisections, column blocks, blocks visited,
    batched steps (evaluations of column bounds), and the weak bound's level count (None: strong) and
    whether its levels bin the values."""
    return {"path": "column-root-find", "bisections": 0, "blocks": 0, "visited": 0, "steps": 0, "levels": None,
            "binned": False} | counts


def _strong_bound(f, phi, centers, radii):
    """(lam, cols) -> U_c(lam) = cellvol * (ball sums of phi(f / lam) + their rounding bound) >= F_c(lam),
    one per column, for the balls of ``centers`` at the radii ``radii[cols]`` (ascending), each at its lam.

    phi(f / lam) of a chunk of columns goes into one stacked ``row_prefix`` table, read by windows made
    once; a chunk with a column in ``cols`` is evaluated whole."""
    rows = f.grid.cells_per_axis ** (f.grid.n - 1)
    chunk = max(1, _STACK_SLOTS // ((3 * f.grid.cells_per_axis + 1 + len(centers)) * rows))
    windows = [stacked_ball_windows(f.grid, centers, radii[k : k + chunk]) for k in range(0, len(radii), chunk)]
    lams, out, shape = np.ones(len(radii)), np.zeros((len(radii), len(centers))), (-1,) + (1,) * f.grid.n

    def bound(lam, cols):
        lams[cols] = lam
        for k in np.flatnonzero(np.bincount(cols // chunk)):  # the chunks holding a column of cols
            part = slice(k * chunk, (k + 1) * chunk)
            sums = stacked_ball_sums(phi(f.values / lams[part].reshape(shape)), windows[k])
            out[part] = f.grid.cell_volume * np.add(*sums)
        return out[cols]

    return bound


def _sorted_bound(f, phi, windows):
    """lam -> U_c(lam) >= F_c(lam), a row per lam, for the balls of ``windows``: the weak terms of each
    window sorted once, the very products of ``_weak_gauge``, times 1 + 4 eps."""
    (v := window_values(f.values, windows)).sort(axis=1)  # in place: a sorted copy costs page faults
    v, meas = v[:, ::-1], f.grid.cell_volume * np.arange(1, v.shape[1] + 1)
    return lambda lam: np.max(phi(v / lam.reshape(-1, 1, 1)) * meas, axis=2) * (1 + 4 * _EPS)


def _levels(values, budget):
    """Levels s_0 < ... < s_L over the distinct positive values, and the largest value t_i of each bin
    [s_i, s_(i+1)): every distinct value (t = s) when at most ``budget``, else ``budget`` bins of about
    equally many distinct values."""
    v = distinct(values[values > 0])
    if len(v) <= budget:
        return v, v
    first = np.arange(budget) * len(v) // budget
    return v[first], v[np.append(first[1:], len(v)) - 1]


def _level_counts(f, levels, centers, radii, step):
    """Per radius and chunk of ``step`` centers, the chunk's largest N_i(c) = #{x in B_c : f(x) >= s_i},
    for each level s_i: (radii, chunks, levels), read through ``level_counts``."""
    rows, count = f.grid.cells_per_axis ** (f.grid.n - 1), level_counts(f.values, levels)
    per = max(1, _BATCH // (len(levels) * len(centers) * rows))
    out = []
    for r in np.array_split(radii, -(-len(radii) // per)):  # ``per`` radii at a time
        counts = count(ball_windows(f.grid, centers, r))  # (centers, radii, levels)
        out.append(np.maximum.reduceat(counts, np.arange(0, len(centers), step), axis=0))
    return np.concatenate(out, axis=1).transpose(1, 0, 2)


def _level_bound(phi, tops, meas, lam):
    """U(lam) = max_i phi(t_i / lam) * meas_i, times 1 + 4 eps, per row of ``meas`` (rows, levels) at the
    lam of its row (or one lam); meas_i = cellvol * N_i.  Terms of no cell read 0, even where phi is inf."""
    terms = phi(tops / np.reshape(lam, (-1, 1))) * meas
    return np.fmax.reduce(terms, axis=1, initial=0.0) * (1 + 4 * _EPS)


def _root_find_gauges(f, phi, centers, radii, weak, prefactor):
    """The column root-find of the module docstring: (gauges, ``_work`` record)."""
    inf = np.isinf(f.values)
    if inf.any():  # balls over an infinite cell have gauge inf; zeroing those cells changes no other ball
        hit = np.stack([window_key(inf, ball_windows(f.grid, centers, r)).any(axis=1) for r in radii], axis=1)
        out, work = (0.0, _work()) if prefactor is not None and hit.any() else _root_find_gauges(
            SampledFunction(f.grid, np.where(inf, 0.0, f.values)), phi, centers, radii, weak, prefactor)
        return np.where(hit, np.inf, out), work
    out, cache = np.zeros((len(centers), len(radii))), {}
    cellvol, fmax, gauge = f.grid.cell_volume, f.values.max(), _weak_gauge if weak else _lux_gauge
    if fmax == 0:
        return out, _work()
    # weak: the centers whose windows are sorted together, 2**16 cells' worth or _CENTER_CHUNK
    step = max(_CENTER_CHUNK, 2**16 // f.values.size) if weak else len(centers)
    blocks = [(j, c0) for j in range(len(radii)) for c0 in range(0, len(centers), step)]
    lo, hi = _bracket(fmax)
    work = _work(blocks=len(blocks))

    def roots(evaluate, n):
        found, steps = _illinois(evaluate, lo, hi, n)
        work["steps"] += steps
        return found

    def upper(j, c0):  # lam -> U_c(lam) >= F_c(lam), a row per lam, for the balls of one block
        if weak:
            return _sorted_bound(f, phi, ball_windows(f.grid, centers[c0 : c0 + step], radii[j]))
        bound = _strong_bound(f, phi, centers, radii[j : j + 1])
        return lambda lam: bound(lam, np.zeros(1, int))

    def exact(j, balls):  # balls over the same positive cells, or of equal content, share one bisection
        key = window_key(f.values > 0, ball_windows(f.grid, [centers[i] for i in balls], radii[j]))
        _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        for i in balls[first]:
            vals = f.ball_values(Ball(centers[i], float(radii[j])))
            content = vals[vals > 0].tobytes()
            out[i, j] = cache[content] = cache[content] if content in cache else gauge(vals, cellvol, phi)
        out[balls, j] = out[balls[first], j][inverse.ravel()]
        return out[balls, j]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        balls, rows = len(centers) * len(radii), f.grid.cells_per_axis ** (f.grid.n - 1)
        if weak:  # coarse roots of the level bound: they order the blocks and drive the break rule
            levels, tops = _levels(f.values, max(1, min(_LEVEL_BALLS // balls, _LEVEL_ROWS // (balls * rows))))
            meas = cellvol * _level_counts(f, levels, centers, radii, step).reshape(len(blocks), -1)
            stars = roots(lambda lam, live: _level_bound(phi, tops, meas[live], lam), len(blocks))
            work.update(levels=len(levels), binned=bool(np.any(levels != tops)))
        else:  # the radii in groups whose windows take _WINDOW_BYTES (two int64 per row of a ball)
            stars = []
            for part in np.array_split(radii, -(-balls * rows * 16 // _WINDOW_BYTES)):
                bound = _strong_bound(f, phi, centers, part)
                stars.append(roots(lambda lam, live: bound(lam, live).max(axis=1), len(part)))
            stars = np.concatenate(stars)
        # no per-ball bisection can end at its upper bracket end, inf
        sane, every_column = cellvol * f.values.size * phi(2 * _BRACKET_LO) < 0.5, prefactor is None
        pref, best = np.ones(len(radii)) if every_column else prefactor, -np.inf
        # blocks by decreasing root * prefactor: coarse roots in ``order`` (popped from its end), and in the
        # heap ``tight`` visited blocks by their own root, with their balls whose bound tops 1 at mu
        keys = stars * pref[[j for j, _ in blocks]]
        order, tight = list(np.argsort(-keys, kind="stable")[::-1]), []
        while order or tight:
            if tight and (not order or -tight[0][0] >= keys[order[-1]]):
                key, b, mu, over = heapq.heappop(tight)
                j, c0 = blocks[b]
                if sane and not every_column and -key * (1 + 4e-9) < best:
                    break
                brackets = sane and lo < mu  # no per-ball bracket end binds below mu
                if not (brackets and np.any(exact(j, over) >= mu * (1 + 3e-9))):
                    exact(j, c0 + np.arange(min(step, len(centers) - c0)))
                best = max(best, out[c0 : c0 + step, j].max() * pref[j])
                continue
            b = order.pop()
            j, c0 = blocks[b]
            if sane and not every_column and keys[b] * (1 + 4e-9) < best:
                break
            u, lam = upper(j, c0), stars[b]
            work["visited"] += 1
            if work["binned"]:  # binned levels bound the block's root from above: find its own
                lam = roots(lambda lam, live: u(lam).max(axis=1), 1)[0]
            mu = lam * (1 - _MARGIN)
            heapq.heappush(tight, (-lam * pref[j], b, mu, c0 + np.nonzero(u(np.array([mu]))[0] > 1)[0]))
    work["bisections"] = len(cache)
    return out, work


def _morrey_matrices(fs, phi, varphi, centers, shared, radii, weak, every_column=False):
    """varphi(r)^{-1} phi^{-1}(|B(x,r)|^{-1}) ||f||_{L^Phi(B(x,r))} per (function, center, radius), the prefactor
    made once, and each function's work record (see ``_ball_gauge_matrices``)."""
    radii = np.asarray(radii, dtype=float)
    measures = np.array([ball_measure(fs[0].grid.n, r) for r in radii])
    prefactor = phi.inverse(1.0 / measures) / varphi(radii)
    gauges, works = _ball_gauge_matrices(fs, phi, centers, shared, radii, weak, None if every_column else prefactor)
    gauges *= prefactor
    return gauges, works


def _argmax_witness(vals: np.ndarray, centers, radii):
    best = np.max(vals)
    i, j = np.nonzero(vals == best)
    # smallest radius first, then lexicographic center (lexsort's last key is the primary one)
    first = np.lexsort((*np.asarray(centers)[i].T[::-1], np.asarray(radii)[j]))[0]
    return float(best), Ball(centers[i[first]], float(radii[j[first]]))


def generalized_orlicz_morrey_norm(
    f: SampledFunction,
    phi: YoungFunction,
    varphi: GrowthFunction,
    weak: bool = False,
    sampling: MorreySampling | None = None,
) -> NormEvaluation:
    """Supremum over sampled balls defining the (weak) Orlicz-Morrey norm: ``stacked_morrey_norms`` of f alone."""
    return stacked_morrey_norms([f], phi, varphi, weak, sampling)[0]


def stacked_morrey_norms(
    fs,
    phi: YoungFunction,
    varphi: GrowthFunction,
    weak: bool = False,
    sampling: MorreySampling | None = None,
) -> list[NormEvaluation]:
    """The (weak) Orlicz-Morrey norm of each function of a family on one grid, each bit for bit the one
    ``generalized_orlicz_morrey_norm`` gives it.

    The radii, the strided centers, the prefactor and the windows of their balls are made once; each
    function keeps its own support centroid.  The strong 1-D power gauges of every function are read from
    one stacked table; the other paths take the functions one by one (``_ball_gauge_matrices``).
    """
    fs = list(fs)
    if not fs:
        return []
    grid = common_grid(fs)
    sampling = sampling or MorreySampling.default(grid)
    radii = sampling.radii()
    centers, shared = sampling.center_stack(fs)
    vals, works = _morrey_matrices(fs, phi, varphi, centers, shared, radii, weak)
    kind = "weak-morrey" if weak else "morrey"
    trunc = {
        "r_min": float(sampling.r_min),
        "r_max": float(sampling.r_max),
        "centers": f"every-{sampling.center_stride}th-cell"
        + ("+centroid" if sampling.include_centroid else ""),
    }
    out = []
    for v, c, work in zip(vals, centers, works):
        best, witness = _argmax_witness(v, c, radii)
        out.append(NormEvaluation(best, witness if np.isfinite(best) else None, dict(trunc), kind, work))
    return out


def triviality_probe(
    phi: YoungFunction,
    varphi: GrowthFunction,
    grid: GridSpec | None = None,
    schedule=None,
) -> ConditionReport:
    """Norm of the unit-ball indicator under widening radius truncation.

    The probe widens the sampled radius window upward (r_max doubling) and
    downward (r_min halving from 4h down to one cell: 4h, 2h, h); a diverging
    leg signals that the space contains only functions equivalent to zero in
    that direction.
    """
    grid = grid or default_grid(1)
    schedule = checked_schedule(schedule)
    f = sample_function(grid, {"type": "ball_indicator", "center": (0.0,) * grid.n, "radius": 1.0})
    ladder = np.geomspace(grid.h / 4, max(schedule), 300)
    # one shared radius ladder keeps the window suprema nested and monotone
    ladder = distinct(np.concatenate([ladder, [4 * grid.h, grid.h, 1.0], schedule]))
    sampling = MorreySampling(r_min=float(ladder[0]), r_max=float(ladder[-1]), n_radii=len(ladder))
    centers, shared = sampling.center_stack([f])
    vals, _ = _morrey_matrices([f], phi, varphi, centers, shared, ladder, weak=False, every_column=True)
    col_max = node_max(ladder, vals[0].max(axis=0))
    r_min0 = 4 * grid.h
    lower_steps = [r_min0, 2 * grid.h, grid.h]
    upper, _, v_up = track(ladder, [(r_min0, r_max) for r_max in schedule], col_max)
    lower, _, v_low = track(ladder, [(r_min, max(schedule)) for r_min in lower_steps], col_max)
    return ConditionReport(
        condition="triviality",
        params={"young": phi.config(), "growth": varphi.config(), "n": grid.n},
        schedule=list(schedule) + lower_steps,
        constants=list(upper) + list(lower),
        verdict=combine_legs(v_up, v_low),
        witness=None,
        details={
            "upper": {"r_max": list(schedule), "values": upper, "verdict": v_up},
            "lower": {"r_min": lower_steps, "values": lower, "verdict": v_low},
        },
    )
