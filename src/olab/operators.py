"""Fractional maximal operators (centered and uncentered) and the Riesz potential.

The centered operator at grid point x is the sup over a finite radius set of
|B(x,t)|^{alpha/n - 1} * integral of f over B(x,t); the uncentered variant
additionally sweeps ball centers over grid points.  On 1-D grids the radius
set is every half-offset grid radius (m + 1/2) h: at those radii the
digitized cell count of a centered ball equals its measure 2t exactly
(constants map to constants), and every distinct ball of cells is realized
by some anchor, so the finite sup is a faithful evaluation of the continuum
one.  ``olab.sampled`` decides which cells a ball covers (``half_width``)
and lays out the row prefix sums (``row_prefix``) that sum them.  In 1-D a
branch and bound skips the radii whose bound cannot beat a cell's best value
(centered: a bisection per cell and block of radii); in 2-D the disk sums add
row windows offset by offset, read from one table per half-width for the most
used half-widths (within a byte budget).  Both give the very floating-point
results of a sweep over every radius.  The uncentered sup comes from running
maxima widened by clamped shifts, the 2-D Riesz potential from an FFT
(numpy.fft).  Radii whose balls cover the whole grid from every center give
coef * (grid total); one is kept.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .sampled import SampledFunction, distinct, half_width, row_prefix

__all__ = ["maximal", "riesz_potential"]


def _check_alpha(alpha: float, n: int, *, strict: bool) -> None:
    lo_ok = alpha > 0 if strict else alpha >= 0
    if not (lo_ok and alpha < n):
        rng = "(0, n)" if strict else "[0, n)"
        raise DomainError(f"alpha must lie in {rng} for n={n}, got {alpha}")


def maximal(f: SampledFunction, alpha: float = 0.0, centered: bool = True, radii=None) -> SampledFunction:
    """Fractional maximal function M_alpha f (alpha = 0: Hardy-Littlewood)."""
    g = f.grid
    _check_alpha(alpha, g.n, strict=False)
    if not np.all(np.isfinite(f.values)):
        raise DomainError("the maximal operator needs finite sample values")
    if radii is None:
        # 1-D: anchors t = (m + 1/2) h reach across the domain
        ts = (np.arange(g.cells_per_axis) + 0.5) * g.h if g.n == 1 else _radius_set_2d(g)
    else:
        ts = np.sort(np.asarray(radii, dtype=float))
        if not np.all(ts > 0):  # also rejects NaN
            raise DomainError("radii must be positive")
    # coef = |B(x, t)|^(alpha/n - 1), 0 where the measure overflows; Python's float pow, as np.power can
    # differ from it by an ulp
    try:
        coef = np.array([(2.0 * t) ** (alpha - 1.0) for t in ts.tolist()] if g.n == 1 else
                        [(math.pi * t * t) ** (alpha / 2.0 - 1.0) for t in ts.tolist()])
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"radii must not be so small that |B(x, t)|^(alpha/n - 1) overflows, got {ts[0]}") from None
    # radii whose balls cover the grid from every center (in 2-D: the rows at the largest offset
    # span the grid) sum the whole grid in one order; keep the largest coef among them
    last = g.cells_per_axis - 1
    if (cover := np.flatnonzero(half_width(g, ts, last * (g.n - 1)) >= last)).size:
        keep = np.append(np.arange(cover[0]), cover[0] + np.argmax(coef[cover[0] :]))
        ts, coef = ts[keep], coef[keep]
    pad = row_prefix(f.values)
    out = _maximal_1d(pad[0], g, ts, coef, centered) if g.n == 1 else _sweep(pad, g, ts, coef, centered)
    return SampledFunction(g, out.reshape(g.shape()))


# Consecutive radii bounded together by the 1-D uncentered branch and bound; the centered one starts its
# bisections from blocks between about this many log-spaced radii.
_RADIUS_BLOCK, _CENTERED_EDGES = 32, 16

# Bytes of the row-window tables that one 2-D ``maximal`` call keeps (``_sweep``).
_TABLE_BYTES = 2**22


def _widen(run, w, to):
    """Running max of half-width ``to`` along the last axis, from ``run``, the one of half-width w <= to.

    Windows are clipped to the row (as ``maximum_filter1d`` with cval=-inf).
    Each step is a clamped shift, R_(w+d)[c] = max(R_w[max(c-d, 0)],
    R_w[min(c+d, n-1)]) for 1 <= d <= w; the first step from w = 0 also takes
    R_0[c] (a three-way max).  Past n - 1 the window is the whole row.
    """
    n = run.shape[-1]
    to = min(to, n - 1)
    while w < to:
        d = min(max(w, 1), to - w)  # 2d < n, as d <= w and w + d < n
        out = np.empty_like(run)
        np.maximum(run[..., :1], run[..., d : 2 * d], out=out[..., :d])
        np.maximum(run[..., : -2 * d], run[..., 2 * d :], out=out[..., d:-d])
        np.maximum(run[..., -2 * d : -d], run[..., -1:], out=out[..., -d:])
        if w == 0:
            np.maximum(out, run, out=out)
        run, w = out, w + d
    return run


def _maximal_1d(pad, g, ts, coef, centered):
    """Sup over the radius set of (2t)^(alpha-1) * (integral of f over [y-t, y+t]) for y = x (centered)
    or for every cell y within the ball's half-width m(t) of x (uncentered).

    A branch and bound over blocks of consecutive (sorted) radii.  Every cell
    is evaluated exactly at each block's edges, which gives a lower bound
    ``best``.  With nonnegative finite samples the prefix sums are
    nondecreasing in floating point, and so are their differences and
    products with nonnegative factors; hence the window sum S(x, t) is
    nondecreasing in t, and max(coef[lo+1:]) * S(x, t_hi) bounds every
    computed value at the radii strictly between t_lo and t_hi from above
    (coef = (2t)^(alpha-1) is nonincreasing for alpha < 1, so that max is
    coef[lo+1]).  Centered, the blocks lie between _CENTERED_EDGES
    log-spaced radii, and each (cell, block) pair whose bound exceeds
    best[cell] is bisected: its middle radius is evaluated at that cell,
    and each half is kept while its own bound still exceeds best[cell].
    Uncentered, the blocks hold _RADIUS_BLOCK radii; S(., t) is spread by
    its running max R_m(t) (``_widen``), which also grows with t, and
    coef * R_m[S] is the running max of coef * S exactly, since rounding is
    monotone; a block's inner radii are all evaluated, over the whole row,
    where its bound exceeds ``best``.  A radius is skipped only where its
    value cannot exceed the final ``best``, and an evaluated one takes the
    same floating-point operations as a sweep over every radius, so the
    result equals the sweep's exactly.
    """
    h, n_cells = g.h, g.cells_per_axis
    if len(ts) == 0:
        return np.zeros(n_cells)
    ms = half_width(g, ts)
    up, down = n_cells + ms + 1, n_cells - ms

    def window_sums(x, k):
        return (pad[x + up[k]] - pad[x + down[k]]) * h

    # block b holds the radii edges[b] .. edges[b + 1]; neighbours share an edge
    if centered:
        edges = distinct(np.geomspace(1, len(ts), _CENTERED_EDGES).astype(int) - 1)
    else:
        edges = np.append(np.arange(0, len(ts) - 1, _RADIUS_BLOCK), len(ts) - 1)
    s_edge = window_sums(np.arange(n_cells), edges[:, None])
    if not centered:
        s_edge = np.array([_widen(s, 0, m) for s, m in zip(s_edge, ms[edges].tolist())])
    best = (coef[edges][:, None] * s_edge).max(axis=0)
    if centered:
        # the (block, cell) pairs whose bound beats best, then the halves of each bisected one; a pair
        # holds the radii lo < k < hi at cell x, and S(x, hi)
        top = np.maximum.accumulate(coef[::-1])[::-1]  # top[k] = max(coef[k:])
        b, x = np.nonzero((top[edges[:-1] + 1][:, None] * s_edge[1:] > best) & (np.diff(edges) > 1)[:, None])
        lo, hi, s_hi = edges[b], edges[b + 1], s_edge[b + 1, x]
        while x.size:
            mid = (lo + hi) // 2
            s_mid = window_sums(x, mid)
            np.maximum.at(best, x, coef[mid] * s_mid)
            x, lo, hi, s_hi = np.tile(x, 2), np.append(lo, mid), np.append(mid, hi), np.append(s_mid, s_hi)
            keep = np.flatnonzero((hi - lo > 1) & (top[lo + 1] * s_hi > best[x]))
            x, lo, hi, s_hi = x[keep], lo[keep], hi[keep], s_hi[keep]
        return best
    upper = np.maximum.reduceat(coef, edges[:-1])[:, None] * s_edge[1:]
    for b in range(len(edges) - 1):
        cells = np.flatnonzero(upper[b] > best)
        k = np.arange(edges[b] + 1, edges[b + 1])
        if cells.size and k.size:  # all inner radii widened to the first's half-width, then each to its own
            runs = _widen(window_sums(np.arange(n_cells), k[:, None]), 0, ms[k[0]])
            for j, run in zip(k.tolist(), runs):
                np.maximum(best, coef[j] * _widen(run, ms[k[0]], ms[j]), out=best)
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
    base = distinct(np.concatenate([log_part, small]))
    doubled = distinct(np.concatenate([base, 2.0 * base]))  # closed under doubling
    return doubled[doubled <= 2.0 * r_star]


def _sweep(pad, g, ts, coef, centered):
    """Sup over the radius set of |B(x, t)|^(alpha/2 - 1) * (integral of f over B(x, t)), radius by radius.

    A disk is a union of row segments: row offset dy covers the columns
    within w(dy) of the center, both from ``sampled.half_width``.  The
    centered disk sums add, offset by offset in ascending dy, the row windows
    D_w = P[:, n+w+1 : 2n+w+1] - P[:, n-w : 2n-w] of the ``row_prefix``
    table P, read at the source rows r + dy.  D_w depends on w alone, so the
    most used half-widths (counted over every offset of every radius) get one
    table each, as many as _TABLE_BYTES holds; the others are subtracted
    anew at each offset.  Either way each offset adds the same differences
    in the same order, so the sums do not depend on the budget, bit for bit.
    The uncentered value at x is the max of the centered values over the
    disk around x: per radius, the running max along the rows at the
    smallest distinct w, widened to each larger w in turn (``_widen``),
    shifted per offset.  ``maximal`` has cut the radii past the covering one.
    """
    n_cells, n_rows = g.cells_per_axis, len(pad)
    best, sums, buf = np.zeros((3, n_rows, n_cells))

    def windows(src, w, out=None):  # D_w at the rows src
        return np.subtract(pad[src, n_cells + w + 1 : 2 * n_cells + w + 1], pad[src, n_cells - w : 2 * n_cells - w],
                           out=out)

    ms = half_width(g, ts)  # clipped at the last row offset inside the grid
    # half-widths of the rows at offsets -m..m of every radius, from one call of the rule
    counts = 2 * ms + 1
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - ms - 1, counts)
    widths = half_width(g, np.repeat(ts, counts), offsets)
    halves = np.split(widths, np.cumsum(counts)[:-1])
    uses = np.bincount(widths)
    tables = {w: windows(slice(None), w)
              for w in np.argsort(-uses, kind="stable")[: _TABLE_BYTES // buf.nbytes].tolist() if uses[w]}
    for c, m, half in zip(coef, ms.tolist(), halves):
        # output rows r and source rows r + dy of each offset, both inside the grid
        rows = [(slice(max(-dy, 0), n_rows - max(dy, 0)), slice(max(dy, 0), n_rows + min(dy, 0)))
                for dy in range(-m, m + 1)]
        sums.fill(0.0)
        for (dst, src), w in zip(rows, half.tolist()):
            sums[dst] += tables[w][src] if w in tables else windows(src, w, buf[dst])
        vals = c * (sums * g.cell_volume)
        if centered:
            np.maximum(best, vals, out=best)
            continue
        run, w_run = vals, 0
        for w in distinct(half).tolist():
            run, w_run = _widen(run, w_run, w), w
            for dst, src in (rows[i] for i in np.flatnonzero(half == w)):
                np.maximum(best[dst], run[src], out=best[dst])
    return best


def riesz_potential(f: SampledFunction, alpha: float) -> SampledFunction:
    """Riesz potential I_alpha f: convolution with |x|^(alpha-n) h^n, whose self-cell weight
    is the kernel's integral over the cell (1-D) or the equal-area disk (2-D).  Direct in
    1-D; FFT (numpy.fft) in 2-D, within a few 1e-14 relative of the direct sum."""
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
    # offsets over a period of 2 n_cells: the circular convolution wraps no x - y onto another
    d = ((np.arange(2 * n_cells) + n_cells) % (2 * n_cells) - n_cells) * h
    dist = np.hypot(d[:, None], d[None, :])
    with np.errstate(divide="ignore"):
        kernel = dist ** (alpha - 2.0) * g.cell_volume
    kernel[0, 0] = 2.0 * math.pi * (h / math.sqrt(math.pi)) ** alpha / alpha  # equal-area disk
    out = np.fft.irfft2(np.fft.rfft2(f.values, kernel.shape) * np.fft.rfft2(kernel), kernel.shape)
    return SampledFunction(g, out[:n_cells, :n_cells])
