"""Fractional maximal operators (centered and uncentered) and the Riesz potential.

The centered operator at grid point x is the sup over a finite radius set of
|B(x,t)|^{alpha/n - 1} * integral of f over B(x,t); the uncentered variant
additionally sweeps ball centers over grid points.  On 1-D grids the radius
set is every half-offset grid radius (m + 1/2) h: at those radii the
digitized cell count of a centered ball equals its measure 2t exactly
(constants map to constants), and every distinct ball of cells is realized
by some anchor, so the finite sup is a faithful evaluation of the continuum
one.  In 2-D the disk sums come from row-prefix sums, the uncentered sup
from 1-D running maxima, and the Riesz potential from an FFT.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import maximum_filter1d

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
    if radii is not None:
        radii = np.sort(np.asarray(radii, dtype=float))
        if np.any(radii <= 0):
            raise DomainError("radii must be positive")
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
        ts = radii
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
    """Sup over the radius set of (pi t^2)^(alpha/2-1) * (integral of f over B(x, t)).

    A disk is a union of row segments: offset dy, |dy| <= m = floor(t/h + 1e-9),
    covers the columns within w = floor(sqrt(max(t^2 - (dy h)^2, 0))/h + 1e-9)
    of the center.  The centered disk sums add the row windows of a padded
    row-prefix table offset by offset; the uncentered value at x is the max of
    the centered values over the disk around x, from one 1-D running max of
    width 2w + 1 per distinct w (van Herk / Gil-Werman), shifted per offset.
    """
    g = f.grid
    h, n_cells = g.h, g.cells_per_axis
    ts = _radius_set_2d(g) if radii is None else radii
    # pad[:, n_cells + k] = sum of the first clip(k, 0, n_cells) cells of the row: no index clipping
    prefix = np.cumsum(f.values, axis=1)
    pad = np.hstack([np.zeros((n_cells, n_cells + 1)), prefix, np.repeat(prefix[:, -1:], n_cells, axis=1)])
    best, sums, buf = np.zeros((3, n_cells, n_cells))
    for t in ts:
        m = min(int(math.floor(t / h + 1e-9)), n_cells - 1)  # offsets beyond the grid add nothing
        dys = np.arange(-m, m + 1)
        half = np.minimum(np.floor(np.sqrt(np.maximum(t * t - (dys * h) ** 2, 0.0)) / h + 1e-9), n_cells - 1)
        half = half.astype(int)
        # output rows r and source rows r + dy of each offset, both inside the grid
        rows = [(slice(max(-dy, 0), n_cells - max(dy, 0)), slice(max(dy, 0), n_cells + min(dy, 0)))
                for dy in dys.tolist()]
        sums.fill(0.0)
        for (dst, src), w in zip(rows, half.tolist()):
            np.subtract(pad[src, n_cells + w + 1 : 2 * n_cells + w + 1], pad[src, n_cells - w : 2 * n_cells - w],
                        out=buf[dst])
            sums[dst] += buf[dst]
        vals = (math.pi * t * t) ** (alpha / 2.0 - 1.0) * (sums * g.cell_volume)
        if centered:
            np.maximum(best, vals, out=best)
            continue
        for w in np.unique(half).tolist():
            run = maximum_filter1d(vals, 2 * w + 1, axis=1, mode="constant", cval=-np.inf)
            for dst, src in (rows[i] for i in np.flatnonzero(half == w)):
                np.maximum(best[dst], run[src], out=best[dst])
    return best


def riesz_potential(f: SampledFunction, alpha: float) -> SampledFunction:
    """Riesz potential I_alpha f: convolution with |x|^(alpha-n) h^n, whose self-cell weight
    is the kernel's integral over the cell (1-D) or the equal-area disk (2-D).  Direct in
    1-D; FFT (scipy.fft) in 2-D, within a few 1e-14 relative of the direct sum."""
    g = f.grid
    _check_alpha(alpha, g.n, strict=True)
    if not np.all(np.isfinite(f.values)):  # FFT would spread one inf as NaN over the grid
        raise DomainError("the Riesz potential needs finite sample values")
    h, n_cells = g.h, g.cells_per_axis
    if g.n == 1:
        m = np.arange(1, n_cells)
        kernel = np.empty(2 * n_cells - 1)
        kernel[n_cells - 1] = 2.0 * (h / 2.0) ** alpha / alpha  # cell integral of |u|^(alpha-1)
        tail = (m * h) ** (alpha - 1.0) * h
        kernel[n_cells - 1 + m] = tail
        kernel[n_cells - 1 - m] = tail
        out = np.convolve(f.values, kernel)[n_cells - 1 : 2 * n_cells - 1]
        return SampledFunction(g, out)
    from scipy import fft

    # offsets over a period of 2 n_cells: the circular convolution wraps no x - y onto another
    d = ((np.arange(2 * n_cells) + n_cells) % (2 * n_cells) - n_cells) * h
    dist = np.hypot(d[:, None], d[None, :])
    with np.errstate(divide="ignore"):
        kernel = dist ** (alpha - 2.0) * g.cell_volume
    kernel[0, 0] = 2.0 * math.pi * (h / math.sqrt(math.pi)) ** alpha / alpha  # equal-area disk
    out = fft.irfft2(fft.rfft2(f.values, kernel.shape) * fft.rfft2(kernel), kernel.shape)
    return SampledFunction(g, out[:n_cells, :n_cells])
