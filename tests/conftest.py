import math

import numpy as np
import pytest
from scipy.ndimage import maximum_filter
from scipy.signal import convolve2d

from olab import Ball, GridSpec, SampledFunction, ball_measure, sample_function
from olab.norms import _argmax_witness, _power_form
from olab.operators import _radius_set_2d
from olab.sampled import ball_sums, ball_windows, row_table, window_values


@pytest.fixture(scope="session")
def grid64():
    """Default 1-D desk grid: h = 1/64 on [-16, 16]."""
    return GridSpec(1, 1.0 / 64.0, 16.0)


@pytest.fixture(scope="session")
def unit_indicator(grid64):
    return sample_function(grid64, {"type": "ball_indicator", "center": (0.0,), "radius": 1.0})


@pytest.fixture(scope="session")
def small_grid2d():
    return GridSpec(2, 1.0 / 16.0, 2.0)


def random_indicator_sum(grid, rng, max_terms=3, gaussians=True):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        c = rng.uniform(-grid.extent / 2, grid.extent / 2, size=grid.n)
        r = float(rng.uniform(4 * grid.h, grid.extent / 4))
        w = float(rng.uniform(0.2, 3.0))
        terms.append({"type": "ball_indicator", "center": tuple(c), "radius": r, "weight": w})
    if gaussians and rng.random() < 0.4:
        terms.append({
            "type": "gaussian",
            "scale": float(rng.uniform(0.5, 2.0)),
            "center": tuple(rng.uniform(-2, 2, size=grid.n)),
            "weight": float(rng.uniform(0.2, 2.0)),
        })
    return sample_function(grid, {"type": "sum", "terms": terms})


def stepped_function(grid, rng):
    """1-D integer-weighted indicators: duplicate values, and zeros between the pieces."""
    terms = []
    for _ in range(rng.integers(1, 5)):
        c = float(rng.uniform(-grid.extent / 2, grid.extent / 2))
        r = float(rng.uniform(grid.h, grid.extent / 4))
        terms.append({"type": "ball_indicator", "center": (c,), "radius": r,
                      "weight": float(rng.integers(1, 4))})
    return sample_function(grid, {"type": "sum", "terms": terms})


# 1-D grids of 68, 80 and 96 cells for pinning the fast paths to per-ball and
# per-radius references; not all are multiples of the maximal's radius block
PIN_GRIDS = [GridSpec(1, 1 / 8, 4.25), GridSpec(1, 1 / 16, 2.5), GridSpec(1, 1 / 16, 3.0)]


# 2-D grids of 8x8, 16x16 and 24x24 cells for pinning the 2-D maximal to its sweep
PIN_GRIDS_2D = [GridSpec(2, 1 / 8, 0.5), GridSpec(2, 1 / 16, 0.5), GridSpec(2, 1 / 8, 1.5)]


def random_cells_2d(grid, rng):
    """2-D samples with duplicate values and zero cells, on grids of any size."""
    levels = rng.choice([0.5, 1.0, 1.7], grid.shape())
    return SampledFunction(grid, rng.integers(0, 4, grid.shape()) * levels)


def sweep_maximal_2d(f, alphas, radii=None):
    """Reference 2-D sweep over every radius and row offset; maps each alpha to (centered, uncentered).

    Disk sums gather clipped row-prefix windows over the whole grid per offset,
    and the uncentered sup is a maximum_filter over the disk's footprint.  One
    filter pass per radius serves every alpha: rounding is monotone, so
    max(coef * s) == coef * max(s) exactly for coef > 0.
    """
    g = f.grid
    h, n = g.h, g.cells_per_axis
    row_prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(f.values, axis=1)], axis=1)
    ts = _radius_set_2d(g) if radii is None else np.sort(radii)
    out = {alpha: (np.zeros((n, n)), np.zeros((n, n))) for alpha in alphas}
    cols = np.arange(n)
    for t in ts:
        m = min(int(math.floor(t / h + 1e-9)), n - 1)
        dys = np.arange(-m, m + 1)
        half = np.minimum(np.floor(np.sqrt(np.maximum(t * t - (dys * h) ** 2, 0.0)) / h + 1e-9).astype(int),
                          n - 1)
        sums = np.zeros((n, n))
        footprint = np.zeros((2 * m + 1, 2 * m + 1), dtype=bool)
        for i, (dy, w) in enumerate(zip(dys, half)):
            lo = np.clip(cols - w, 0, n)
            hi = np.clip(cols + w + 1, 0, n)
            src_rows = np.arange(n) + dy
            valid = (src_rows >= 0) & (src_rows < n)
            rows = np.clip(src_rows, 0, n - 1)
            contrib = row_prefix[rows[:, None], hi[None, :]] - row_prefix[rows[:, None], lo[None, :]]
            sums += np.where(valid[:, None], contrib, 0.0)
            footprint[i, m - w : m + w + 1] = True
        sums *= g.cell_volume
        windowed = maximum_filter(sums, footprint=footprint, mode="constant", cval=-np.inf)
        for alpha, (centered, uncentered) in out.items():
            coef = (math.pi * t * t) ** (alpha / 2.0 - 1.0)
            np.maximum(centered, coef * sums, out=centered)
            np.maximum(uncentered, coef * windowed, out=uncentered)
    return out


def bit_pattern_inverse(phi, s):
    """Reference generalized inverse inf{r : phi(r) > s} of a phi nondecreasing in floats: the least float r with
    phi(r) > s (0 where phi(0) > s), by a bisection over the int64 bit patterns of [0, inf], which order as the
    nonnegative floats.  No ladder and no guess; vectorized over the batch, each element bisected alone."""
    s = np.asarray(s, dtype=float)
    lo = np.zeros(s.shape, np.int64)
    hi = np.where(phi._eval(np.zeros(1))[0] > s, 0, np.array(np.inf).view(np.int64))
    with np.errstate(all="ignore"):
        for _ in range(63):  # inf's bit pattern is below 2^63
            mid = lo + (hi - lo) // 2
            below = phi._eval(mid.view(float)) <= s
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi.view(float)


def direct_riesz_2d(f, alpha):
    """Reference 2-D Riesz potential: direct convolve2d with the same kernel and self-cell."""
    g = f.grid
    h, n = g.h, g.cells_per_axis
    d = np.arange(-(n - 1), n) * h
    dist = np.hypot(d[:, None], d[None, :])
    with np.errstate(divide="ignore"):
        kernel = dist ** (alpha - 2.0) * g.cell_volume
    kernel[n - 1, n - 1] = 2.0 * math.pi * (h / math.sqrt(math.pi)) ** alpha / alpha
    return convolve2d(f.values, kernel, mode="same")


_FLOAT_TINY, _FLOAT_MAX = float(np.finfo(float).tiny), float(np.finfo(float).max)
_FLOAT_MIN = float(np.nextafter(0.0, 1.0))


def gauge_bisect(constraint, maxv):
    """Reference gauge search: the smallest lam with constraint(lam) <= 1 of a scalar constraint, by bisection
    in log space over [1e-12, 1e12] * maxv (within the positive finite floats) down to a relative width of 1e-9;
    the upper end of the final bracket, or inf (lo) where the bracket's upper (lower) end decides.  The
    sequential loop that ``olab.norms._gauge_bisect`` replays from a guessed root."""
    lo, hi = max(1e-12 * maxv, _FLOAT_MIN), min(1e12 * maxv + 1e-300, _FLOAT_MAX)
    if constraint(hi) > 1.0:
        return np.inf
    if constraint(lo) <= 1.0:
        return lo
    for _ in range(120):
        if hi - lo <= 1e-9 * hi:
            break
        mid = lo * hi  # floats: past the range it reads inf or a subnormal, with no warning
        # two roots only where lo * hi overflows or loses bits, so every other gauge keeps its bits
        mid = math.sqrt(mid) if _FLOAT_TINY <= mid <= _FLOAT_MAX else math.sqrt(lo) * math.sqrt(hi)
        if constraint(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def lux_gauge(vals, cellvol, phi):
    """Reference Luxemburg gauge of one ball's values: ``gauge_bisect`` of cellvol * sum phi(v / lam)."""
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

    return gauge_bisect(constraint, maxv)


def weak_gauge(vals, cellvol, phi):
    """Reference weak gauge of one ball's values: ``gauge_bisect`` of max_k phi(v_(k) / lam) * k * cellvol, v_(k)
    the k-th largest value."""
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

    return gauge_bisect(constraint, maxv)


def weak_weights(phi, cellvol, ranks):
    """Reference weights W[k] = 1 / phi_inv(1 / (k * cellvol)) of the ranks k = 1 .. ``ranks``, made nondecreasing."""
    return np.maximum.accumulate(1.0 / phi.inverse(1.0 / (cellvol * np.arange(1, ranks + 1))))


def weak_closed_gauge(vals, cellvol, phi, weights=None):
    """Reference weak closed form of one ball's values: its positive values sorted in decreasing order times
    ``weak_weights`` (given, or made for this ball), the largest product, and at least 5e-324 (the bisection's
    lowest bracket end) where the ball holds a positive value."""
    pos = np.sort(vals[vals > 0])[::-1]
    if pos.size == 0:
        return 0.0
    if np.isinf(pos[0]):
        return np.inf
    w = weak_weights(phi, cellvol, pos.size) if weights is None else weights[: pos.size]
    with np.errstate(over="ignore"):
        return max(float(np.max(pos * w)), _FLOAT_MIN)


def per_ball_weak_gauges(f, phi, centers, radii):
    """Reference weak gauges: the closed form ``weak_closed_gauge`` of every (center, radius) ball's
    ``ball_values`` (the mask path), the weights made once for f's positive cells."""
    weights = weak_weights(phi, f.grid.cell_volume, max(np.count_nonzero(f.values), 1))
    out = np.zeros((len(centers), len(radii)))
    for i, c in enumerate(centers):
        for j, r in enumerate(radii):
            out[i, j] = weak_closed_gauge(f.ball_values(Ball(c, float(r))), f.grid.cell_volume, phi, weights)
    return out


def per_ball_gauges(f, phi, centers, radii, weak):
    """Reference ball gauges: every (center, radius) ball bisected on its own (``weak_gauge``, ``lux_gauge``)."""
    gauge = weak_gauge if weak else lux_gauge
    out = np.zeros((len(centers), len(radii)))
    for i, c in enumerate(centers):
        for j, r in enumerate(radii):
            out[i, j] = gauge(f.ball_values(Ball(c, float(r))), f.grid.cell_volume, phi)
    return out


def per_ball_power_gauges(f, phi, centers, radii):
    """Reference strong gauges of a power kind scale * t**p, exact per ball: the ``ball_sums`` of f**p over
    each (center, radius) ball on its own, then (scale * cellvol * sums) ** (1 / p)."""
    p, scale = _power_form(phi)
    vp = f.values**p
    sums = np.zeros((len(centers), len(radii)))
    for i, c in enumerate(centers):
        for j, r in enumerate(radii):
            sums[i, j] = ball_sums(vp, ball_windows(f.grid, [c], float(r)))[0][0]
    return (scale * f.grid.cell_volume * sums) ** (1.0 / p)


def per_ball_oracle(f, phi, centers, radii, weak):
    """The gauges olab reports, ball by ball: ``per_ball_weak_gauges`` or the strong ``per_ball_gauges``."""
    return per_ball_weak_gauges(f, phi, centers, radii) if weak else per_ball_gauges(f, phi, centers, radii, False)


def per_ball_morrey(f, phi, varphi, centers, radii, weak=False, gauges=None):
    """Reference Morrey matrix from ``per_ball_oracle`` (or the given gauges), and its value and witness."""
    radii = np.asarray(radii, dtype=float)
    measures = np.array([ball_measure(f.grid.n, r) for r in radii])
    if gauges is None:
        gauges = per_ball_oracle(f, phi, centers, radii, weak)
    vals = gauges * (phi.inverse(1.0 / measures) / varphi(radii))[None, :]
    best, witness = _argmax_witness(vals, centers, radii)
    return vals, best, witness if np.isfinite(best) else None


def sorted_gauges(values, weights, windows):
    """Reference weak closed form max_k v_(k) * W[k] over each ball of ``windows``, v_(k) its k-th largest value
    and W[k] = ``weights[k]``: its values gathered and sorted once (the padding zeros add 0 terms)."""
    v = np.sort(window_values(values)(windows), axis=1)
    return np.max(v * weights[v.shape[1] : 0 : -1], axis=1)


def merged_weak_sups(values, weights, windows):
    """Reference weak 1-D closed forms, every ball exact: max_k v_(k) * W[k] per ball of ``windows``, v_(k) its k-th
    largest value and W[k] = ``weights[k]`` (``weights[0]`` unused), at least 5e-324 where the ball holds a positive
    value.

    For a fixed center the windows are nested as the radius grows, so each row keeps the window's values
    sorted ascending, and every radius appends only the newly covered cells and re-sorts with a stable
    sort (a linear merge of the two runs).  Rows are padded at the front with zeros, which sort first and
    add 0 terms; leading columns zero in every row are trimmed after each sort.
    """
    table, n_pos = row_table(values)[0], ball_sums(np.where(values > 0, 1.0, 0.0), windows)[0].astype(int)
    start, stop = windows[0][..., 0], windows[1][..., 0]
    # cells added by each radius: the slots (start, prev_start] on the left and (prev_stop, stop]
    # on the right; after an empty window both parts name the slots (start, stop]
    n_left = np.concatenate([start[:, :1], start[:, :-1]], axis=1) - start
    prev_stop = np.concatenate([start[:, :1], stop[:, :-1]], axis=1)
    n_new = n_left + stop - prev_stop
    rank_vol = np.asarray(weights)[len(values) : 0 : -1]  # W by rank, ranks counted from the end
    out = np.zeros(start.shape)
    for c0 in range(0, len(start), 32):
        chunk = slice(c0, c0 + 32)
        rows = np.zeros((len(start[chunk]), 0))
        for j in range(start.shape[1]):
            width = n_new[chunk, j].max()
            if width:
                pos = np.arange(width)
                left = n_left[chunk, j, None]
                slot = np.where(pos < left, start[chunk, j, None] + pos, prev_stop[chunk, j, None] + pos - left)
                new = table[np.where(pos < n_new[chunk, j, None], slot + 1, 0)]
                rows = np.concatenate([new, rows], axis=1)
                rows.sort(axis=1, kind="stable")
                rows = rows[:, rows.shape[1] - n_pos[chunk, j].max() :]
            if rows.shape[1]:
                with np.errstate(over="ignore"):
                    best = np.max(rows * rank_vol[len(values) - rows.shape[1] :], axis=1)
                out[chunk, j] = np.where(rows[:, -1] > 0, np.maximum(best, _FLOAT_MIN), 0.0)
    return out
