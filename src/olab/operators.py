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
coef * (grid total); one is kept.  ``stacked_maximal`` maps a family on one
grid with one radius plan and one stacked prefix table, in 1-D with one
branch and bound over every (function, cell) pair; ``maximal`` is its stack
of one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .sampled import SampledFunction, common_grid, distinct, half_width, row_prefix

__all__ = ["maximal", "riesz_potential", "stacked_maximal"]


def _check_alpha(alpha: float, n: int, *, strict: bool) -> None:
    lo_ok = alpha > 0 if strict else alpha >= 0
    if not (lo_ok and alpha < n):
        rng = "(0, n)" if strict else "[0, n)"
        raise DomainError(f"alpha must lie in {rng} for n={n}, got {alpha}")


def maximal(f: SampledFunction, alpha: float = 0.0, centered: bool = True, radii=None) -> SampledFunction:
    """Fractional maximal function M_alpha f (alpha = 0: Hardy-Littlewood): ``stacked_maximal`` of f alone."""
    return stacked_maximal([f], alpha, centered, radii)[0]


def stacked_maximal(fs, alpha: float = 0.0, centered: bool = True, radii=None) -> list[SampledFunction]:
    """M_alpha of each function of a family on one grid, each bit for bit the one ``maximal`` gives it.

    The radius plan (radii, coefficients, covering cut) is made once.  In 1-D the functions go in groups
    of at most _STACK_CELLS cells: a group's ``row_prefix`` tables are one stacked table, and one branch and
    bound runs over all of its (function, cell) pairs.  The 2-D sweep, whose layout of offsets and tables
    is made once too, takes the functions one by one.
    """
    fs = list(fs)
    if not fs:
        return []
    g = common_grid(fs)
    _check_alpha(alpha, g.n, strict=False)
    if not all(np.all(np.isfinite(f.values)) for f in fs):
        raise DomainError("the maximal operator needs finite sample values")
    ts, coef = _radius_plan(g, alpha, radii)
    if g.n == 2:
        outs = _sweep((row_prefix(f.values) for f in fs), g, ts, coef, centered)
    else:
        per = max(1, _STACK_CELLS // g.cells_per_axis)
        groups = (row_prefix(np.stack([f.values for f in fs[k : k + per]])) for k in range(0, len(fs), per))
        outs = (out for pads in groups for out in _maximal_1d(pads, g, ts, coef, centered))
    return [SampledFunction(g, out.reshape(g.shape())) for out in outs]


def _radius_plan(g, alpha, radii):
    """The sorted radii t of the sup and their coefficients |B(x, t)|^(alpha/n - 1); of the radii whose balls
    cover the grid from every center only the one of largest coefficient is kept."""
    if radii is None:
        # 1-D: anchors t = (m + 1/2) h reach across the domain
        ts = (np.arange(g.cells_per_axis) + 0.5) * g.h if g.n == 1 else _radius_set_2d(g)
    else:
        ts = np.asarray(radii, dtype=float)
        if ts.ndim != 1:
            raise DomainError(f"radii must be a 1-D array, got one of shape {ts.shape}")
        ts = np.sort(ts)
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
    return ts, coef


# Consecutive radii bounded together by the 1-D uncentered branch and bound; the centered one starts its
# bisections from blocks between about this many log-spaced radii.
_RADIUS_BLOCK, _CENTERED_EDGES = 32, 16

# Cells of the functions whose 1-D branch and bound runs as one stack.  Its work arrays hold about
# _CENTERED_EDGES times as many floats; on the default grid (2,048 cells) stacks of more than two functions
# ran slower, as their arrays fall out of cache, and took more memory.
_STACK_CELLS = 2**12

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


def _maximal_1d(pads, g, ts, coef, centered):
    """Per row of ``pads`` (the 1-D ``row_prefix`` tables of a family), the sup over the radius set of
    (2t)^(alpha-1) * (integral of f over [y-t, y+t]) for y = x (centered) or for every cell y within the
    ball's half-width m(t) of x (uncentered).

    A branch and bound over blocks of consecutive (sorted) radii.  Every cell
    is evaluated exactly at each block's edges, which gives a lower bound
    ``best``.  With nonnegative finite samples the prefix sums are
    nondecreasing in floating point, and so are their differences and
    products with nonnegative factors; hence the window sum S(x, t) is
    nondecreasing in t, and max(coef[lo+1:]) * S(x, t_hi) bounds every
    computed value at the radii strictly between t_lo and t_hi from above
    (coef = (2t)^(alpha-1) is nonincreasing for alpha < 1, so that max is
    coef[lo+1]).  Centered, the blocks lie between _CENTERED_EDGES
    log-spaced radii, and each (function, cell, block) triple whose bound
    exceeds best there is bisected, all at once: its middle radius is
    evaluated at that cell, and each half is kept while its own bound still
    exceeds best.  Uncentered, the blocks hold _RADIUS_BLOCK radii; S(., t)
    is spread by its running max R_m(t) (``_widen``), which also grows with
    t, and coef * R_m[S] is the running max of coef * S exactly, since
    rounding is monotone; a block's inner radii are all evaluated, over
    every row, where its bound exceeds ``best`` at some cell.  A radius is
    skipped only where its value cannot exceed the final ``best``, and an
    evaluated one takes the same floating-point operations as a sweep over
    every radius, so each result equals its function's sweep exactly.
    """
    h, n_cells = g.h, g.cells_per_axis
    n_funcs, width = pads.shape
    # best[i, n_cells + x] at cell x of function i, so that it shares its slot x with the row_prefix table
    best = np.zeros((n_funcs, width))
    out = best[:, n_cells : 2 * n_cells]
    if len(ts) == 0:
        return out
    ms = half_width(g, ts)
    pad, flat = pads.ravel(), best.ravel()
    after = pad[1:]  # after[x] = pad[x + 1]
    cells = width * np.arange(n_funcs)[:, None] + n_cells + np.arange(n_cells)  # the slots of (function, cell) pairs

    def window_sums(x, k):  # the cells within ms[k] of the slot x, from P[x + m + 1] - P[x - m]
        m = ms[k]
        return (after[x + m] - pad[x - m]) * h

    # block b holds the radii edges[b] .. edges[b + 1]; neighbours share an edge
    if centered:
        edges = distinct(np.geomspace(1, len(ts), _CENTERED_EDGES).astype(int) - 1)
    else:
        edges = np.append(np.arange(0, len(ts) - 1, _RADIUS_BLOCK), len(ts) - 1)
    s_edge = np.empty((len(edges), n_funcs, n_cells))
    for e, (k, m) in enumerate(zip(edges.tolist(), ms[edges].tolist())):  # an edge at a time: small index arrays
        s_edge[e] = window_sums(cells, k) if centered else _widen(window_sums(cells, k), 0, m)
        np.maximum(out, coef[k] * s_edge[e], out=out)
    if not centered:
        upper = np.maximum.reduceat(coef, edges[:-1])[:, None, None] * s_edge[1:]
        for b in range(len(edges) - 1):
            k = np.arange(edges[b] + 1, edges[b + 1])
            if k.size and np.any(upper[b] > out):  # inner radii widened to the first's half-width, then each to its own
                runs = _widen(window_sums(cells, k[:, None, None]), 0, ms[k[0]])
                for j, run in zip(k.tolist(), runs):
                    np.maximum(out, coef[j] * _widen(run, ms[k[0]], ms[j]), out=out)
        return out
    # the (block, function, cell) triples whose bound beats best, then the halves of each bisected one; a pair
    # holds the radii lo < k < hi at the slot x, and S(x, hi)
    above = np.maximum.accumulate(coef[::-1])[::-1][1:]  # above[k] = max(coef[k + 1:])
    b, i, x = np.nonzero((above[edges[:-1]][:, None, None] * s_edge[1:] > out) & (np.diff(edges) > 1)[:, None, None])
    x, lo, hi, s_hi = cells[i, x], edges[b], edges[b + 1], s_edge[b + 1, i, x]
    while x.size:
        mid = (lo + hi) >> 1
        s_mid = window_sums(x, mid)
        np.maximum.at(flat, x, coef[mid] * s_mid)
        at = flat[x]
        left = np.flatnonzero((mid - lo > 1) & (above[lo] * s_mid > at))
        right = np.flatnonzero((hi - mid > 1) & (above[mid] * s_hi > at))
        x = x[np.concatenate([left, right])]
        lo, hi, s_hi = (np.concatenate([u[left], v[right]]) for u, v in ((lo, mid), (mid, hi), (s_mid, s_hi)))
    return out


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


def _sweep(pads, g, ts, coef, centered):
    """For each ``row_prefix`` table P of ``pads`` in turn, one per function, the sup over the radius set of
    |B(x, t)|^(alpha/2 - 1) * (integral of f over B(x, t)), radius by radius.

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
    The half-widths of every offset, and which of them get tables, are laid
    out once for the family.
    """
    n_cells = g.cells_per_axis
    ms = half_width(g, ts)  # clipped at the last row offset inside the grid
    # half-widths of the rows at offsets -m..m of every radius, from one call of the rule
    counts = 2 * ms + 1
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - ms - 1, counts)
    widths = half_width(g, np.repeat(ts, counts), offsets)
    halves = np.split(widths, np.cumsum(counts)[:-1])
    uses = np.bincount(widths)
    tabled = [w for w in np.argsort(-uses, kind="stable")[: _TABLE_BYTES // (8 * n_cells**2)].tolist() if uses[w]]
    for pad in pads:
        best, sums, buf = np.zeros((3, n_cells, n_cells))

        def windows(src, w, out=None):  # D_w at the rows src
            return np.subtract(pad[src, n_cells + w + 1 : 2 * n_cells + w + 1], pad[src, n_cells - w : 2 * n_cells - w],
                               out=out)

        tables = {w: windows(slice(None), w) for w in tabled}
        for c, m, half in zip(coef, ms.tolist(), halves):
            # output rows r and source rows r + dy of each offset, both inside the grid
            rows = [(slice(max(-dy, 0), n_cells - max(dy, 0)), slice(max(dy, 0), n_cells + min(dy, 0)))
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
        yield best


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
