"""Fractional maximal operators (centered and uncentered) and the Riesz potential.

The centered operator at grid point x is the sup over a finite radius set of
|B(x,t)|^{alpha/n - 1} * integral of f over B(x,t); the uncentered variant
additionally sweeps ball centers over grid points.  On 1-D grids the radius
set is every half-offset grid radius (m + 1/2) h: at those radii the
digitized cell count of a centered ball equals its measure 2t exactly
(constants map to constants), and every distinct ball of cells is realized
by some anchor, so the finite sup is a faithful evaluation of the continuum
one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import maximum_filter, maximum_filter1d

from .errors import DomainError
from .sampled import SampledFunction

__all__ = ["maximal", "riesz_potential"]


def _check_alpha(alpha: float, n: int, *, strict: bool) -> None:
    lo_ok = alpha > 0 if strict else alpha >= 0
    if not (lo_ok and alpha < n):
        rng = "(0, n)" if strict else "[0, n)"
        raise DomainError(f"alpha must lie in {rng} for n={n}, got {alpha}")


def maximal(f: SampledFunction, alpha: float = 0.0, centered: bool = True, radii=None) -> SampledFunction:
    """Fractional maximal function M_alpha f (alpha = 0: Hardy-Littlewood)."""
    _check_alpha(alpha, f.grid.n, strict=False)
    if not np.all(np.isfinite(f.values)):
        raise DomainError("the maximal operator needs finite sample values")
    if f.grid.n == 1:
        out = _maximal_1d(f, alpha, centered, radii)
    else:
        out = _maximal_2d(f, alpha, centered, radii)
    return SampledFunction(f.grid, out)


# Consecutive radii bounded together by the centered 1-D branch and bound.
_RADIUS_BLOCK = 32


def _maximal_1d(f, alpha, centered, radii):
    """Sup over the radius set of (2t)^(alpha-1) * (integral of f over [x-t, x+t]).

    The centered sup is a branch and bound over blocks of _RADIUS_BLOCK
    consecutive (sorted) radii.  Every cell is evaluated exactly at each
    block's first and last radius, which gives a lower bound ``best``.  With
    nonnegative finite samples the prefix sums are nondecreasing in floating
    point, and so are their differences and products with nonnegative
    factors; hence the window sum S(x, t) is nondecreasing in t and
    max(coef over the block) * S(x, last radius) bounds every computed value
    of the block from above (coef = (2t)^(alpha-1) is nonincreasing for
    alpha < 1, so that max is the first radius's).  The inner radii of a
    block are evaluated only for cells whose bound exceeds ``best``, with
    the same floating-point operations as a sweep over every radius, so the
    result equals the sweep's exactly.  The uncentered sup sweeps every
    radius.
    """
    g = f.grid
    h, n_cells = g.h, g.cells_per_axis
    v = f.values
    prefix = np.concatenate([[0.0], np.cumsum(v)])
    if radii is None:
        ms = np.arange(n_cells)  # anchors t = (m + 1/2) h reach across the domain
        ts = (ms + 0.5) * h
    else:
        ts = np.sort(np.asarray(radii, dtype=float))
        if np.any(ts <= 0):
            raise DomainError("radii must be positive")
        ms = np.floor(ts / h + 1e-9).astype(int)
    if not centered:
        idx = np.arange(n_cells)
        best = np.zeros(n_cells)
        for m, t in zip(ms, ts):
            lo = np.maximum(idx - m, 0)
            hi = np.minimum(idx + m, n_cells - 1)
            sums = (prefix[hi + 1] - prefix[lo]) * h
            vals = (2.0 * t) ** (alpha - 1.0) * sums
            # sup over balls containing x: window max of the per-center values
            w = min(m, n_cells - 1)
            windowed = maximum_filter1d(vals, size=2 * w + 1, mode="constant", cval=-np.inf)
            np.maximum(best, windowed, out=best)
        return best
    if len(ts) == 0:
        return np.zeros(n_cells)

    # padded prefix: pext[k + n_cells] = prefix[clip(k, 0, n_cells)], so the
    # window [x - m, x + m] needs no clipping; m beyond the grid acts as n_cells - 1
    pext = np.concatenate([np.zeros(n_cells), prefix, np.full(n_cells - 1, prefix[-1])])
    ms = np.minimum(ms, n_cells - 1)
    up, down = n_cells + ms + 1, n_cells - ms
    coef = np.array([(2.0 * t) ** (alpha - 1.0) for t in ts])

    def window_sums(x, k):
        return (pext[x + up[k]] - pext[x + down[k]]) * h

    # block b holds the radii edges[b] .. edges[b + 1]; neighbours share an edge
    edges = np.unique(np.append(np.arange(0, len(ts), _RADIUS_BLOCK), len(ts) - 1))
    s_edge = window_sums(np.arange(n_cells), edges[:, None])
    best = (coef[edges][:, None] * s_edge).max(axis=0)
    upper = np.maximum.reduceat(coef, edges[:-1])[:, None] * s_edge[1:]
    for b in range(len(edges) - 1):
        cells = np.flatnonzero(upper[b] > best)
        if cells.size:
            k = np.arange(edges[b] + 1, edges[b + 1])
            vals = coef[k] * window_sums(cells[:, None], k)
            best[cells] = np.maximum(best[cells], vals.max(axis=1, initial=0.0))
    return best


def _radius_set_2d(g):
    h = g.h
    # a ball of this radius covers the whole grid from any center; beyond it
    # the numerator is constant and the prefactor decreases
    r_star = 2.0 * math.sqrt(2.0) * g.extent + h
    log_part = np.geomspace(h, r_star, 48)
    # exact center-to-center distances below 16h hit small-ball suprema
    small = sorted(
        {math.hypot(i, j) * h for i in range(17) for j in range(17) if 0 < i * i + j * j <= 256}
    )
    base = np.unique(np.concatenate([log_part, small]))
    doubled = np.unique(np.concatenate([base, 2.0 * base]))  # closed under doubling
    return doubled[doubled <= 2.0 * r_star]


def _maximal_2d(f, alpha, centered, radii):
    g = f.grid
    h, n_cells = g.h, g.cells_per_axis
    v = f.values
    row_prefix = np.concatenate([np.zeros((n_cells, 1)), np.cumsum(v, axis=1)], axis=1)
    if radii is None:
        ts = _radius_set_2d(g)
    else:
        ts = np.sort(np.asarray(radii, dtype=float))
        if np.any(ts <= 0):
            raise DomainError("radii must be positive")
    best = np.zeros((n_cells, n_cells))
    cols = np.arange(n_cells)
    for t in ts:
        m = int(math.floor(t / h + 1e-9))
        m_eff = min(m, n_cells - 1)  # offsets beyond the grid contribute nothing
        sums = np.zeros((n_cells, n_cells))
        for dy in range(-m_eff, m_eff + 1):
            rem = t * t - (dy * h) ** 2
            if rem < 0:
                continue
            w = min(int(math.floor(math.sqrt(rem) / h + 1e-9)), n_cells - 1)
            lo = np.clip(cols - w, 0, n_cells)
            hi = np.clip(cols + w + 1, 0, n_cells)
            src_rows = np.arange(n_cells) + dy
            valid = (src_rows >= 0) & (src_rows < n_cells)
            rows = np.clip(src_rows, 0, n_cells - 1)
            contrib = row_prefix[rows[:, None], hi[None, :]] - row_prefix[rows[:, None], lo[None, :]]
            sums += np.where(valid[:, None], contrib, 0.0)
        sums *= g.cell_volume
        vals = (math.pi * t * t) ** (alpha / 2.0 - 1.0) * sums
        if centered:
            np.maximum(best, vals, out=best)
        else:
            dys = np.arange(-m_eff, m_eff + 1)
            half = np.minimum(
                np.floor(np.sqrt(np.maximum(t * t - (dys * h) ** 2, 0.0)) / h + 1e-9).astype(int),
                n_cells - 1,
            )
            footprint = np.zeros((2 * m_eff + 1, 2 * m_eff + 1), dtype=bool)
            for i, w in enumerate(half):
                footprint[i, m_eff - w : m_eff + w + 1] = True
            windowed = maximum_filter(vals, footprint=footprint, mode="constant", cval=-np.inf)
            np.maximum(best, windowed, out=best)
    return best


def riesz_potential(f: SampledFunction, alpha: float) -> SampledFunction:
    """Riesz potential I_alpha f by direct summation with analytic self-cell."""
    g = f.grid
    _check_alpha(alpha, g.n, strict=True)
    h = g.h
    if g.n == 1:
        n_cells = g.cells_per_axis
        m = np.arange(1, n_cells)
        kernel = np.empty(2 * n_cells - 1)
        kernel[n_cells - 1] = 2.0 * (h / 2.0) ** alpha / alpha  # cell integral of |u|^(alpha-1)
        tail = (m * h) ** (alpha - 1.0) * h
        kernel[n_cells - 1 + m] = tail
        kernel[n_cells - 1 - m] = tail
        out = np.convolve(f.values, kernel)[n_cells - 1 : 2 * n_cells - 1]
        return SampledFunction(g, out)
    # n = 2: direct (non-FFT) summation against the difference kernel, with
    # the self-cell replaced by the integral over the equal-area disk
    from scipy.signal import convolve2d

    n_cells = g.cells_per_axis
    d = np.arange(-(n_cells - 1), n_cells) * h
    dist = np.hypot(d[:, None], d[None, :])
    with np.errstate(divide="ignore"):
        kernel = dist ** (alpha - 2.0) * g.cell_volume
    rho = h / math.sqrt(math.pi)
    kernel[n_cells - 1, n_cells - 1] = 2.0 * math.pi * rho**alpha / alpha
    out = convolve2d(f.values, kernel, mode="same")
    return SampledFunction(g, out)
