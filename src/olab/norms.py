"""Orlicz (Luxemburg) and weak Orlicz norms on balls; Orlicz-Morrey suprema.

The Luxemburg norm is the gauge inf{lam > 0 : integral phi(|f|/lam) <= 1}; the weak variant replaces the
integral by sup_t phi(t/lam) d_f(t) with d_f the distribution function.  Generalized Orlicz-Morrey norms are
suprema of phi_inv(|B|^{-1}) * ||f||_{L^Phi(B)} / varphi(r) over a sampled family of balls; the attaining ball
is returned as a witness.

A weak gauge is the closed form g = max_k v_(k) * W[k], v_(k) the ball's k-th largest value: as phi(u) <= s
exactly when u <= phi_inv(s), the least lam with max_k phi(v_(k)/lam) * k * cellvol <= 1 is g with W[k] =
1 / phi_inv(1 / (k * cellvol)) nondecreasing, each phi_inv checked against phi to 1e-9 (else DomainError).  A
ball holding a positive value reads at least the least positive float.  Morrey sups rank the balls by
``_weak_power_sups``, a bisection over each center's nested radii that skips the runs strictly below the sup of
g * prefactor (they read 0).  It reads a ball's g from level counts, max_i s_i * W[N_i(c)] over the distinct
positive values s_i with N_i(c) = #{x in B_c : f(x) >= s_i}, where f has at most _LEVELS of them, else by sorting.

Strong power gauges scale * t**p take the closed form (scale * cellvol * S) ** (1 / p), S the ``ball_sums`` of
f**p, unless f**p or its sum overflows.  Other strong gauges take a column root-find: a batched Illinois
iteration finds per radius lam* = min{lam : max_c U_c(lam) <= 1}, U_c >= F_c the ball sums of phi(f/lam) plus
their rounding bound.  Where U_c(lam) <= 1 the bisection ``_lux_gauge`` ends below lam (1 + 2e-9), bracket ends
permitting (checked).  So balls with U_c(mu) > 1, mu = lam* (1 - 1e-7), are bisected, and unless one reaches
mu (1 + 3e-9), strictly above the rest, the whole column is; columns go by decreasing lam* * prefactor until
that times (1 + 4e-9) falls below the best exact entry.  A ball's bisection (``_gauge_bisect``, its bracket's
lower end at or above the least positive float) runs once per positive content, replayed from lam*.

Balls over an infinite cell of f have gauge inf; the rest are those of f with its infinite cells zeroed, and
need no work once one inf entry decides the sup.  ``stacked_morrey_norms`` takes a family on one grid: the
radii, the strided centers, the prefactor and the windows of their balls are made once, and each function adds
its own centroid; ``generalized_orlicz_morrey_norm`` is its stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .growth import GrowthFunction
from .report import ConditionReport, checked_schedule, combine_legs, node_max, track
from .sampled import (Ball, GridSpec, SampledFunction, ball_measure, ball_windows, common_grid, default_grid,
                      distinct, level_counts, row_band, row_prefix, row_table, sample_function, stacked_ball_sums,
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

# Relative tolerance of the strong gauge bisection; the returned value always
# sits at the feasible (upper) end of the final bracket so the normalization
# inequality integral phi(f/value) <= 1 holds exactly.
NORM_REL_TOL = 1e-9
# Bracket for the strong gauge: [1e-12, 1e12] * max|f|; outside it the norm
# is reported as 0 or inf.
_BRACKET_LO, _BRACKET_HI = 1e-12, 1e12
# Relative margin below a column's root within which balls are re-bisected.
_MARGIN = 1e-7
_FLOAT_TINY, _FLOAT_MAX = float(np.finfo(float).tiny), float(np.finfo(float).max)
_FLOAT_MIN = float(np.nextafter(0.0, 1.0))  # least positive float
# The relative accuracy to which the weak closed form checks phi's generalized inverses.
_INVERSE_CHECK = 1e-9


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


def _midpoint(lo: float, hi: float) -> float:
    """The log-space midpoint sqrt(lo * hi) of a gauge bracket."""
    mid = lo * hi  # floats: past the range it reads inf or a subnormal, with no warning
    # two roots only where lo * hi overflows or loses bits, so every other gauge keeps its bits
    return math.sqrt(mid) if _FLOAT_TINY <= mid <= _FLOAT_MAX else math.sqrt(lo) * math.sqrt(hi)


def _gauge_bisect(constraint, maxv: float, guess: float | None = None, work: dict | None = None) -> float:
    """Smallest lam with constraint(lam) <= 1, by bisection in log space; ``constraint`` maps an array of lams
    to an array.  Given a ``guess`` of the root, constraint is first evaluated in one call at the bracket ends
    and at every midpoint that the bisection visits if constraint(lam) <= 1 exactly where lam >= guess; the
    bisection then reads its comparisons from that call and evaluates the midpoints it did not guess one at
    a time: bit for bit the bisection without a guess.  ``work`` counts the bisections settled in one call
    (``replayed``) and the midpoints evaluated after it (``replay_steps``)."""
    lo, hi = _bracket(maxv)
    path, a, b = [hi, lo], lo, hi
    while guess is not None and len(path) < 122 and b - a > NORM_REL_TOL * b:
        path.append(mid := _midpoint(a, b))
        a, b = (a, mid) if mid >= guess else (mid, b)
    fits, steps = dict(zip(path, (constraint(np.array(path)) <= 1.0).tolist())), 0
    if not fits[hi]:
        hi = np.inf
    elif fits[lo]:
        hi = lo
    for _ in range(120):  # an inf or lo result ends at once
        if hi - lo <= NORM_REL_TOL * hi:
            break
        mid = _midpoint(lo, hi)
        if mid not in fits:
            fits[mid], steps = bool(constraint(np.array([mid]))[0] <= 1.0), steps + 1
        lo, hi = (lo, mid) if fits[mid] else (mid, hi)
    if work is not None and guess is not None:
        work["replayed"] += steps == 0
        work["replay_steps"] += steps
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


def _lux_gauge(vals: np.ndarray, cellvol: float, phi: YoungFunction, guess=None, work=None) -> float:
    pos = vals[vals > 0]
    if pos.size == 0:
        return 0.0
    maxv = float(pos.max())
    if np.isinf(maxv):
        return np.inf

    def constraint(lam):  # one row per lam
        with np.errstate(over="ignore"):
            terms = phi(pos / lam[:, None])
        return np.where(np.isinf(terms).any(axis=1), np.inf, cellvol * terms.sum(axis=1))

    return _gauge_bisect(constraint, maxv, guess, work)


def _weak_gauge(vals: np.ndarray, cellvol: float, phi: YoungFunction) -> float:
    """The weak closed form of one ball's values (module docstring): ``_best_terms`` over ``_weak_weights``."""
    pos = vals[vals > 0]
    if pos.size == 0:
        return 0.0
    with np.errstate(over="ignore"):  # an infinite value reads inf
        return float(_best_terms(pos[None, :], _weak_weights(phi, cellvol, pos.size, pos.size)[:0:-1])[0][0])


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


# Entries of one array of gathered ball windows or level counts: the weak radius bisection.
_BATCH = 2**16
# Bytes of one array of window indices or sums that the strong power closed form holds: it takes its radii in
# groups, or on large 2-D grids one radius over chunks of centers.  A 1-D triviality probe on the default grid
# (513 centers x 309 radii) peaks at 1.7 MiB traced, against 6.1 MiB with every radius at once.
_SUM_BYTES = 2**16
# The ball windows held at once, in index bytes: the strong root-find's (larger sets of radii are split into
# groups, each with its own batched root-find) and the weak tie certificate's (centers in chunks); and the
# row_prefix slots plus windows of the columns that one root-find step stacks into one table (one column on
# large grids, where a wider table falls out of cache).
_WINDOW_BYTES, _STACK_SLOTS = 2**24, 2**15
# Distinct positive values of f up to which the weak radius bisection reads a ball from level counts, not its window.
_LEVELS = 64
# Relative margin by which the bound on a skipped run of weak entries stays below the best exact entry.
_RUN_MARGIN = 1e-12
# Relative rise of the prefactor over a run below the last radius up to which the weak power sups certify
# the run's tie with the last radius; far above the few ulps by which a flat (lambda = 0) prefactor wobbles.
_FLAT_PREFACTOR = 1e-9


def _best_terms(rows, rank_vol):
    """max_k v_(k) * W[k] per row of gathered ball values (v_(k) the k-th largest, W[k] = ``rank_vol[-k]``), at
    least the least positive float where the row holds a positive value, and one v_(k) that attains it.  Rows are
    sorted in place: padding zeros sort first, are taken as ranks beyond the positive values and add 0 terms."""
    rows.sort(axis=1)
    terms = rows * rank_vol[len(rank_vol) - rows.shape[1] :]
    k = np.arange(len(rows)), np.argmax(terms, axis=1)
    return np.where(rows[:, -1] > 0, np.maximum(terms[k], _FLOAT_MIN), 0.0), rows[k]


def _weak_power_batch(table, rank_vol, start, stop):
    """``_best_terms`` of the 1-D windows (start, stop] of ``table``, and the number of windows sorted.

    Each distinct window is read anew, as a sliding window with the cells after its end zeroed.  Windows are
    batched by width, within a factor 2."""
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
            out[group[batch]], level[group[batch]] = _best_terms(rows, rank_vol)
    return out[inverse], level[inverse], int(np.count_nonzero(width))


def _tie_starts(values, windows, level):
    """Per ball row of ``windows`` (start, stop), each (N, radii, rows) and nested as the radius grows, the first index
    j with N(j) = N(last), N(j) the cells of ball j with values >= that row's ``level``: exact int counts, each row
    read at its own level through ``level_counts`` (of as many distinct levels at a time as keep their sets in _BATCH
    cells)."""
    levels, per = distinct(level), max(1, _BATCH // values.size)
    which, counts = np.searchsorted(levels, level), np.empty(windows[0].shape[:2], int)
    for a in range(0, len(levels), per):
        balls = np.flatnonzero((which >= a) & (which < a + per))
        count = level_counts(values, levels[a : a + per])
        counts[balls] = count((windows[0][balls], windows[1][balls]), (which[balls] - a)[:, None])
    return np.argmax(counts == counts[:, -1:], axis=1)


def _weak_power_sups(values, weights, grid, centers, radii, prefactor=None):
    """g = max_k v_(k) * W[k] over each ball of the (N, n) array ``centers`` at nondecreasing ``radii`` (v_(k) the k-th
    largest of ``values``, W = ``weights`` of ``_weak_weights``), and the counts of the work record.

    An entry is read from level counts where ``values`` has at most _LEVELS distinct positive values s_i: max_i s_i *
    W[N_i], N_i = #{x in B : values(x) >= s_i} (one ``level_counts`` reader; 2-D windows cut to their ``row_band``),
    the products of the sorted form.  Else its window is sorted (``_best_terms``): in 1-D a sliding window of the row
    table (``_weak_power_batch``), in 2-D gathered by one ``window_values`` reader.  1-D windows are made once for every
    ball, 2-D ones per radius for the balls evaluated.  The balls of a center are nested, so g(c, j) is nondecreasing in
    j, bit for bit (rounding is monotone in each factor).  All centers are bisected over their radius indices together:
    the first and last radius are evaluated, and a run lo < j < hi between two exact entries takes g(c, lo) if g(c, lo)
    == g(c, hi), else is split at its middle.  Given a ``prefactor`` per radius, a run is skipped (its entries read 0)
    when g(c, hi) * max(prefactor over the run) * (1 + _RUN_MARGIN) falls below the best exact g * prefactor.

    Where windows are sorted, tied runs are certified (level counts bisect them: a few counts beat one per radius): the
    last radius gives v*, the value of one term that attains g(c, last), and N(c, j) = #{x in B(c, r_j) : values >= v*},
    which never falls as j grows.  Where N(c, j) = N(c, last), the N-th largest value is >= v*, so g(c, j) >= fl(v* *
    W[N]) = g(c, last) >= g(c, j): the run from the first such j0 to the last radius holds g(c, last) bit for bit,
    unsorted.  A run (lo, last) that is neither flat nor skipped takes the certificate where the prefactor does not rise
    over lo < j < last (by more than _FLAT_PREFACTOR, far above rounding; no prefactor is flat), and becomes (lo, j0),
    evaluated at j0 - 1 instead of its middle so that the skip rule can prune the rest.  The certificate reads the
    windows of the tied centers at every radius, in chunks within _WINDOW_BYTES.
    """
    rank_vol, levels = weights[:0:-1].copy(), distinct(values[values > 0])
    counted = len(levels) <= _LEVELS
    count, read = (level_counts(values, levels), None) if counted else (None, window_values(values))

    def rank(windows):  # on level counts max_i s_i * W[N_i], at least the least positive float where N_1 > 0, no v*
        if not counted:
            return _best_terms(read(windows), rank_vol)
        n = count(windows if grid.n == 1 else row_band(windows))
        return np.where(n[:, 0] > 0, np.maximum(np.max(levels * weights[n], axis=1), _FLOAT_MIN), 0.0), 0.0

    if grid.n == 1:
        table, (start, stop) = row_table(values)[0], ball_windows(grid, centers, radii)

        def evaluate(c, j):  # level counts in batches of about _BATCH
            if not counted:
                return _weak_power_batch(table, rank_vol, start[c, j, 0], stop[c, j, 0])
            out, level, per = np.zeros(len(c)), np.zeros(len(c)), _BATCH // len(levels)
            for part in (slice(a, a + per) for a in range(0, len(c), per)):
                out[part], level[part] = rank((start[c[part], j[part]], stop[c[part], j[part]]))
            return out, level, 0
    else:
        def evaluate(c, j):  # in batches of about _BATCH window rows and level counts, or gathered cells
            out, level = np.zeros(len(c)), np.zeros(len(c))
            for k in distinct(j):  # each band of at most side rows
                at, side = np.flatnonzero(j == k), int(min(2 * radii[k] / grid.h + 1, grid.cells_per_axis))
                size = max(side * len(levels), grid.cells_per_axis) if counted else side * side
                for part in np.array_split(at, -(-len(at) * size // _BATCH)):
                    out[part], level[part] = rank(ball_windows(grid, centers[c[part]], radii[k]))
            return out, level, 0 if counted else len(c)

    out, certified = np.zeros((len(centers), len(radii))), 0
    last = len(radii) - 1
    ends = np.arange(len(centers)).repeat(2), np.tile([0, last], len(centers))
    pref = np.ones(last + 1) if prefactor is None else prefactor
    # flat_to_last[lo]: max(prefactor[lo + 1 : last]) stays within _FLAT_PREFACTOR of prefactor[last]
    flat_to_last = np.maximum.accumulate(pref[last - 1 : 0 : -1])[::-1] <= pref[last] * (1 + _FLAT_PREFACTOR)
    out[ends], v_star, windows_sorted = evaluate(*ends)
    v_star, visited = v_star[1::2], len(ends[0])  # v* of each center's last radius
    per = max(1, _WINDOW_BYTES // (16 * len(radii) * grid.cells_per_axis ** (grid.n - 1)))  # centers per chunk
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

        best = np.nanmax(out[ends] * prefactor[ends[1]], initial=-np.inf)

    def fill(c, a, n_in, value):  # out[c, a : a + n_in] = value, per run
        at = np.arange(n_in.sum()) - np.repeat(np.cumsum(n_in) - n_in, n_in)
        out[np.repeat(c, n_in), np.repeat(a, n_in) + at] = np.repeat(value, n_in)

    c, lo, hi = np.arange(len(centers)), np.zeros(len(centers), int), np.full(len(centers), last)
    while len(c := c[(live := hi - lo > 1)]):
        lo, hi = lo[live], hi[live]
        flat = out[c, lo] == out[c, hi]
        fill(c, lo + 1, np.where(flat, hi - lo - 1, 0), out[c, lo])
        split = ~flat
        if prefactor is not None:
            # exact entries only: a run's best is its largest prefactor times its one gauge
            best = np.nanmax(out[c, lo][flat] * run_max(lo[flat] + 1, hi[flat] - 1), initial=best)
            split &= ~(out[c, hi] * run_max(lo + 1, hi - 1) * (1 + _RUN_MARGIN) < best)
        c, lo, hi, mid = c[split], lo[split], hi[split], (lo[split] + hi[split]) // 2
        if not counted and (tied := (hi == last) & flat_to_last[lo]).any():
            ct = c[tied]
            j0 = np.concatenate([_tie_starts(values, ball_windows(grid, centers[ct[a : a + per]], radii),
                                             v_star[ct[a : a + per]]) for a in range(0, len(ct), per)])
            fill(ct, j0, last - j0, out[ct, last])
            certified += int((last - j0).sum())
            hi[tied], mid[tied] = j0, j0 - 1
            c, lo, hi, mid = c[keep := mid > lo], lo[keep], hi[keep], mid[keep]
        out[c, mid], _, n = evaluate(c, mid)
        windows_sorted, visited = windows_sorted + n, visited + len(c)
        if prefactor is not None:
            best = np.nanmax(out[c, mid] * prefactor[mid], initial=best)
        c, lo, hi = np.concatenate([c, c]), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return out, {"levels": len(levels) if counted else 0, "visited": visited, "sorted_windows": windows_sorted,
                 "certified": certified}


def _ball_gauge_matrices(fs, phi, centers, shared, radii, weak, prefactor=None):
    """Ball Orlicz gauges per (function, center, radius) triple of a family on one grid, and each function's work record
    from the path that computed its gauges.

    ``centers`` holds each function's centers, the first ``shared`` of them common to every function
    (``MorreySampling.center_stack``).  Strong power kinds take the closed form of the module docstring while f**p and
    its sum stay finite (decided on f itself, before its infinite cells are zeroed): the gauges of every such function
    are read from one stacked ``row_prefix`` table with the arithmetic of ``ball_sums``, in blocks of centers and radii
    whose windows (made once for the shared centers) and sums stay within _SUM_BYTES.  Weak gauges take
    ``_weak_closed_gauges`` and other strong ones ``_root_find_gauges``, a function at a time: they give the entries
    that can attain the sup of gauge * prefactor (with no prefactor, each column's maximum), and the rest read 0,
    strictly below it.

    The work record is one dict on every path: its ``path`` ("closed-form" or "column-root-find") and the per-ball
    ``bisections``, then the counts of ``_work`` for the weak closed form and the root-find.
    """
    grid = fs[0].grid
    cellvol = grid.cell_volume
    radii = np.asarray(radii, dtype=float)
    power, vps = None if weak else _power_form(phi), {}
    if power is not None:
        p, scale = power
        with np.errstate(over="ignore"):
            for i, f in enumerate(fs):
                vp = f.values**p
                if np.isfinite(2 * scale * cellvol * vp.sum()):  # f**p or a ball's sup of it may overflow
                    vps[i] = vp
    closed, works = list(vps), [{"path": "closed-form", "bisections": 0} for _ in fs]
    out = np.zeros(centers.shape[:2] + radii.shape)
    for i, f in enumerate(fs):
        if i not in closed:  # the root-find divides by lam first
            out[i], works[i] = _bisected_gauges(f, phi, centers[i], radii, weak, prefactor)
    if closed:
        # the sums of ``ball_sums`` over each ball's row windows (a 1-D ball has one row), function i's read from
        # grid i of one stacked ``row_prefix`` table, then (scale * cellvol * sums) ** (1 / p) in place
        table = row_prefix(np.stack([vps[i] for i in closed])).reshape(len(closed), -1)
        ball_bytes = 8 * grid.cells_per_axis ** (grid.n - 1)
        per = max(1, _SUM_BYTES // (ball_bytes * centers.shape[1]))
        step = max(1, _SUM_BYTES // ball_bytes)  # centers per block, all of them unless one radius overruns

        def gauges(row, windows):
            start, stop = windows
            sums = table[row][stop]
            sums -= table[row][start]
            sums = sums.sum(axis=-1)
            sums *= scale * cellvol
            sums **= 1.0 / p
            return sums

        for part in (slice(k, k + per) for k in range(0, len(radii), per)):
            for a in range(0, shared, step):  # one set of windows for every function
                at = slice(a, min(a + step, shared))
                windows = ball_windows(grid, centers[0, at], radii[part])
                for row, i in enumerate(closed):
                    out[i, at, part] = gauges(row, windows)
            for row, i in enumerate(closed):
                for a in range(shared, centers.shape[1], step):
                    at = slice(a, a + step)
                    out[i, at, part] = gauges(row, ball_windows(grid, centers[i, at], radii[part]))
    return out, works


def _work(weak=False, **counts) -> dict:
    """The work record of the weak closed form, its levels counted (0 where windows are sorted), entries evaluated
    (``visited``), windows sorted (0 on level counts), entries certified, and no bisection; or of the strong
    root-find, its column blocks, blocks visited and batched steps, then the bisections and their replays."""
    path = ({"path": "closed-form", "levels": 0, "sorted_windows": 0, "certified": 0} if weak else
            {"path": "column-root-find", "blocks": 0, "steps": 0, "replayed": 0, "replay_steps": 0})
    return path | {"visited": 0, "bisections": 0} | counts


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


def _weak_weights(phi, cellvol, npos, size):
    """W[k] = 1 / phi_inv(1 / (k * cellvol)) for the ranks k = 1 .. npos, made nondecreasing, then W[npos] up to rank
    ``size``, W[0] = 0.  DomainError unless each r = phi_inv(s) checks out as phi(r (1 - _INVERSE_CHECK)) <= s <
    phi(r (1 + _INVERSE_CHECK))."""
    s = 1.0 / (cellvol * np.arange(1, npos + 1))
    r = phi.inverse(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~((phi(r * (1 - _INVERSE_CHECK)) <= s) & (phi(r * (1 + _INVERSE_CHECK)) > s)))
        w = np.maximum.accumulate(1.0 / r)
    if len(bad):
        raise DomainError(f"{phi!r}.inverse({s[bad[0]]!r}) = {r[bad[0]]!r} is not its generalized inverse to 1e-9")
    return np.concatenate([[0.0], w, np.full(size - npos, w[-1])])


def _bisector(f, phi, centers, radii, out, work):
    """exact(j, balls, guess): ``_lux_gauge`` of each ball of column j into ``out``, its root guessed at ``guess``;
    balls over the same positive cells, or of equal content, share a bisection."""
    cache, contents, read = {}, {}, window_values(f.values)  # gauges by positive content, contents by positive cells

    def exact(j, balls, guess):
        start, stop = ball_windows(f.grid, centers[balls], radii[j])
        cells, guess = window_key(f.values > 0, (start, stop)), guess if 0 < guess < np.inf else None
        for k in range(len(balls)):
            if (key := cells[k].tobytes()) not in contents:
                vals = read((start[k : k + 1], stop[k : k + 1]))[0]  # in ``ball_values`` order
                if (content := contents.setdefault(key, vals[vals > 0].tobytes())) not in cache:
                    cache[content] = _lux_gauge(vals, f.grid.cell_volume, phi, guess, work)
            out[balls[k], j] = cache[contents[key]]
        work["bisections"] = len(cache)
        return out[balls, j]

    return exact


def _bisected_gauges(f, phi, centers, radii, weak, prefactor):
    """``_weak_closed_gauges`` or ``_root_find_gauges`` of f, its infinite cells zeroed."""
    inf = np.isinf(f.values)
    if inf.any():  # balls over an infinite cell have gauge inf; zeroing those cells changes no other ball
        hit = np.stack([window_key(inf, ball_windows(f.grid, centers, r)).any(axis=1) for r in radii], axis=1)
        out, work = (0.0, _work(weak)) if prefactor is not None and hit.any() else _bisected_gauges(
            SampledFunction(f.grid, np.where(inf, 0.0, f.values)), phi, centers, radii, weak, prefactor)
        return np.where(hit, np.inf, out), work
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (_weak_closed_gauges(f, phi, centers, radii, prefactor) if weak else
                _root_find_gauges(f, phi, centers, radii, prefactor))


def _weak_closed_gauges(f, phi, centers, radii, prefactor):
    """The weak closed form of the module docstring by ``_weak_power_sups``: (gauges, ``_work`` record)."""
    values, order = f.values, np.argsort(radii, kind="stable")
    if not (values > 0).any():  # f = 0
        return np.zeros((len(centers), len(radii))), _work(True)
    weights = _weak_weights(phi, f.grid.cell_volume, np.count_nonzero(values), values.size)
    g, counts = _weak_power_sups(values, weights, f.grid, centers, radii[order],
                                 None if prefactor is None else prefactor[order])
    return g[:, np.argsort(order)], _work(True, **counts)


def _root_find_gauges(f, phi, centers, radii, prefactor):
    """The strong column root-find of the module docstring: (gauges, ``_work`` record)."""
    out, cellvol, fmax = np.zeros((len(centers), len(radii))), f.grid.cell_volume, f.values.max()
    if fmax == 0:
        return out, _work()
    lo, hi = _bracket(fmax)
    work, stars = _work(blocks=len(radii)), []
    balls, rows = out.size, f.grid.cells_per_axis ** (f.grid.n - 1)
    for part in np.array_split(radii, -(-balls * rows * 16 // _WINDOW_BYTES)):  # windows within _WINDOW_BYTES
        bound = _strong_bound(f, phi, centers, part)
        found, steps = _illinois(lambda lam, live: bound(lam, live).max(axis=1), lo, hi, len(part))
        stars.append(found)
        work["steps"] += steps
    stars, exact = np.concatenate(stars), _bisector(f, phi, centers, radii, out, work)
    # no per-ball bisection can end at its upper bracket end, inf
    sane, every_column = cellvol * f.values.size * phi(2 * _BRACKET_LO) < 0.5, prefactor is None
    pref, best = np.ones(len(radii)) if every_column else prefactor, -np.inf
    keys = stars * pref
    for j in np.argsort(-keys, kind="stable"):  # columns by decreasing root * prefactor
        if sane and not every_column and keys[j] * (1 + 4e-9) < best:
            break
        work["visited"] += 1
        lam, mu = stars[j], stars[j] * (1 - _MARGIN)
        over = np.flatnonzero(_strong_bound(f, phi, centers, radii[j : j + 1])(np.array([mu]), np.zeros(1, int))[0] > 1)
        # no per-ball bracket end binds below mu
        if not (sane and lo < mu and np.any(exact(j, over, lam) >= mu * (1 + 3e-9))):
            exact(j, np.arange(len(centers)), lam)
        best = max(best, out[:, j].max() * pref[j])
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
    function keeps its own support centroid.  The strong power gauges of every function are read from one
    stacked table; the other paths take the functions one by one (``_ball_gauge_matrices``).
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
