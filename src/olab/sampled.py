"""Regular grids on [-L, L]^n (n in {1, 2}), sampled functions, balls.

Cells are cubes of side h whose centers sit at -L + (k + 1/2) h per axis, so
cell edges align with the origin and there are 2L/h cells per axis.  All
integrals are midpoint quadrature over the cells a ball covers.

This module alone decides which cells a ball B(x, t) covers and lays out
the row tables that sum them; norms and operators ask it.  Along an axis,
cell k lies in the window of a ball with center coordinate x and radius t iff

    (x - t + L)/h - 1/2 - 1e-9  <=  k  <=  (x + t + L)/h - 1/2 + 1e-9,

that is, iff its center is within t of x up to a slack of 1e-9 cell widths,
so centers on the sphere stay inside whatever the rounding.  In 2-D the
rows are the window at radius t along the first axis, and a row whose
center lies at distance d from x's first coordinate covers the window at
radius sqrt(max(t^2 - d^2, 0)) along the second (the row rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ParameterError, UnrepresentableBallError

__all__ = [
    "GridSpec",
    "Ball",
    "SampledFunction",
    "ball_measure",
    "ball_mask",
    "ball_sums",
    "ball_windows",
    "cell_window",
    "common_grid",
    "distinct",
    "half_width",
    "level_counts",
    "row_prefix",
    "row_table",
    "sample_function",
    "stacked_ball_sums",
    "stacked_ball_windows",
    "window_key",
    "window_values",
]

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}
_EPS = np.finfo(float).eps


def distinct(values) -> np.ndarray:
    """The sorted distinct entries of an array, flattened: ``np.unique`` without its first call's import of
    ``numpy.ma`` (about 1 MiB of memory), which it makes unless asked for indices or counts."""
    v = np.sort(values, axis=None)
    first = np.ones(len(v), bool)
    first[1:] = v[1:] != v[:-1]
    return v[first]


def ball_measure(n: int, r: float) -> float:
    """Lebesgue measure v_n * r**n of a ball of radius r in dimension n."""
    if n not in _UNIT_BALL_VOLUME:
        raise DomainError(f"dimension must be 1 or 2, got {n}")
    if r <= 0:
        raise DomainError(f"ball radius must be positive, got {r}")
    try:
        measure = _UNIT_BALL_VOLUME[n] * float(r) ** n
    except OverflowError:
        measure = math.inf
    if not math.isfinite(measure):
        raise DomainError(f"the measure of a ball of radius {r} in dimension {n} is not a finite float")
    return measure


@dataclass(frozen=True)
class Ball:
    """Euclidean ball; ``center`` is a float (1-D) or a pair (2-D)."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError(f"ball radius must be positive, got {self.radius}")
        c = self.center
        if np.isscalar(c):
            object.__setattr__(self, "center", (float(c),))
        else:
            object.__setattr__(self, "center", tuple(float(x) for x in c))

    @property
    def n(self) -> int:
        return len(self.center)

    def measure(self) -> float:
        return ball_measure(self.n, self.radius)


@dataclass(frozen=True)
class GridSpec:
    """Regular grid over [-extent, extent]^n with spacing h."""

    n: int
    h: float
    extent: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.n}")
        if not (math.isfinite(self.h) and math.isfinite(self.extent)):
            raise ParameterError(f"spacing and extent must be finite, got h={self.h}, extent={self.extent}")
        if self.h <= 0 or self.extent <= 0:
            raise ParameterError("spacing and extent must be positive")
        ratio = self.extent / self.h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ParameterError(f"extent/h must be an integer, got {ratio}")

    @property
    def cells_per_axis(self) -> int:
        return 2 * int(round(self.extent / self.h))

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    def axis_centers(self) -> np.ndarray:
        m = self.cells_per_axis
        return -self.extent + (np.arange(m) + 0.5) * self.h

    def shape(self) -> tuple:
        m = self.cells_per_axis
        return (m,) if self.n == 1 else (m, m)

    def contains_ball(self, ball: Ball) -> bool:
        tol = 1e-9 * max(self.extent, 1.0)
        return all(
            abs(c) + ball.radius <= self.extent + tol for c in ball.center
        )

    def require_ball(self, ball: Ball) -> None:
        if not self.contains_ball(ball):
            raise UnrepresentableBallError(
                f"ball {ball} does not fit in [-{self.extent}, {self.extent}]^{self.n}"
            )


def default_grid(n: int = 1) -> GridSpec:
    """Default desk-scale grids: 1-D h=1/64 on [-16,16]; 2-D h=1/16 on [-8,8]."""
    if n == 1:
        return GridSpec(1, 1.0 / 64.0, 16.0)
    return GridSpec(2, 1.0 / 16.0, 8.0)


# -- which cells a ball covers (the one rule; see the module docstring) ------

# Cell widths by which a cell center may lie outside a ball and still count as covered.
_CELL_SLACK = 1e-9


def cell_window(grid: GridSpec, center, radius):
    """Cell index range [k_lo, k_hi] of a ball along one axis, clipped to the grid; empty where
    k_lo > k_hi.  Broadcasts over arrays of centers and radii."""
    a = (center - radius + grid.extent) / grid.h - 0.5 - _CELL_SLACK
    b = (center + radius + grid.extent) / grid.h - 0.5 + _CELL_SLACK
    k_lo = np.maximum(np.ceil(a), 0).astype(int)
    k_hi = np.minimum(np.floor(b), grid.cells_per_axis - 1).astype(int)
    return k_lo, k_hi


def _row_radius(grid: GridSpec, x, y, radius, d):
    """The row rule: radius sqrt(max(t^2 - d^2, 0)) of the row at distance d from x, for a center (x, y).

    Past hypot(|x| + L, |y| + L) + h every row spans the grid; t is clipped there, so t * t stays finite."""
    t = np.minimum(radius, np.hypot(np.abs(x) + grid.extent, np.abs(y) + grid.extent) + grid.h)
    return np.sqrt(np.maximum(t * t - d * d, 0.0))


def half_width(grid: GridSpec, radius, offset=0):
    """Cells covered on each side of the center column, ``offset`` rows from the center of a ball centered
    on a cell; clipped at cells_per_axis - 1, where a ball from any cell spans the grid.  Broadcasts."""
    r = _row_radius(grid, grid.extent, grid.extent, radius, offset * grid.h)
    return cell_window(grid, grid.axis_centers()[0], r)[1]


def ball_windows(grid: GridSpec, centers, radius):
    """Row windows (start, stop), each (N, *radius.shape, rows), of B(x, t) for N centers x and radii t.

    The cells a ball covers in a row sum to P[stop] - P[start], P the flat ``row_prefix``; missed rows
    have start == stop."""
    c = np.asarray(centers, dtype=float).reshape(-1, grid.n)
    t = np.asarray(radius, dtype=float)[..., None]
    x = c[:, 0].reshape((-1,) + (1,) * t.ndim)
    m = grid.cells_per_axis
    lo, hi = cell_window(grid, x, t)
    if grid.n == 2:
        inside = (np.arange(m) >= lo) & (np.arange(m) <= hi)
        y = c[:, 1].reshape(x.shape)
        lo, hi = cell_window(grid, y, _row_radius(grid, x, y, t, grid.axis_centers() - x))
        hi = np.where(inside, hi, -1)
    base = m + (3 * m + 1) * np.arange(lo.shape[-1])  # the slot before each row's first cell
    lo = np.minimum(lo, m) + base
    return lo, np.maximum(hi + 1 + base, lo)


def ball_mask(grid: GridSpec, ball: Ball) -> np.ndarray:
    """Cells the ball covers, read off its ``ball_windows``."""
    if ball.n != grid.n:
        raise DomainError("ball dimension does not match grid dimension")
    start, stop = (w.reshape(-1, 1) for w in ball_windows(grid, [ball.center], ball.radius))
    cells = row_table(np.ones(grid.shape(), bool))
    slot = np.arange(cells.size).reshape(cells.shape)
    return ((start < slot) & (slot <= stop))[cells].reshape(grid.shape())


def row_table(values) -> np.ndarray:
    """The row table, the one slot layout of this module: the grid's rows (one in 1-D), each of m cells
    after m + 1 zero slots and before m more, so that no window of any half-width needs clipping."""
    rows = np.atleast_2d(values)
    m = rows.shape[1]
    table = np.zeros((len(rows), 3 * m + 1), rows.dtype)
    table[:, m + 1 : 2 * m + 1] = rows
    return table


def row_prefix(values) -> np.ndarray:
    """Prefix sums P along the rows of ``row_table``: P[i, m + k] sums the first clip(k, 0, m) cells of
    row i for every k in [-m, 2m], so the cells within w < m of cell c sum to P[i, m + c + w + 1] -
    P[i, m + c - w].  Rows are accumulated in cell order, bit for bit as ``np.cumsum`` of their cells.
    Grids stacked along leading axes give one table of their rows in order."""
    rows = np.reshape(values, (-1, np.shape(values)[-1]))
    m = rows.shape[1]
    # not np.pad and no cumsum over the zero slots: the strong root-find builds it at every step
    prefix = np.zeros((len(rows), 3 * m + 1), int if rows.dtype == bool else rows.dtype)
    np.cumsum(rows, axis=1, out=prefix[:, m + 1 : 2 * m + 1])
    prefix[:, 2 * m + 1 :] = prefix[:, 2 * m : 2 * m + 1]  # past a row's cells, its total
    return prefix


def level_counts(values, levels):
    """A reader of level-set counts: ``count(windows, level=None)`` gives, per ball of ``windows``,
    #{x in ball : values(x) >= s} for every s of ``levels`` (a last axis), or given ``level`` (indices into
    ``levels`` that broadcast against the balls) for each ball's own level s only.

    Each level set has one ``row_prefix`` table, in the least signed type that holds a row's count.  Read
    for every level, the tables are interleaved, so that one slot holds the count of every level."""
    m = np.shape(values)[-1]
    sets = (values >= np.reshape(levels, (-1,) + (1,) * np.ndim(values))).astype(np.min_scalar_type(-m - 1))
    tables = row_prefix(sets).reshape(len(levels), -1)
    interleaved = np.ascontiguousarray(tables.T)  # (slots, levels)

    def count(windows, level=None):
        start, stop = windows
        if level is None:
            return (interleaved[stop] - interleaved[start]).sum(axis=-2, dtype=np.int32)  # counts of < 2**31 cells
        first = np.expand_dims(level, -1) * tables.shape[1]  # the first slot of each ball's table, in every row
        rows = tables.ravel()[stop + first] - tables.ravel()[start + first]
        return rows.sum(axis=-1) if rows.shape[-1] > 1 else rows[..., 0]  # a 1-D ball's one row needs no sum

    return count


def stacked_ball_windows(grid: GridSpec, centers, radii):
    """Windows (start, stop), each (G, N, rows), of N centers at each of G radii, the k-th radius read
    from the k-th grid of a stack of G grids along a first axis (one ``row_prefix`` table of the stack)."""
    m = grid.cells_per_axis
    shift = (3 * m + 1) * m ** (grid.n - 1) * np.arange(len(radii)).reshape(-1, 1, 1)
    start, stop = (np.ascontiguousarray(np.moveaxis(w, 1, 0)) for w in ball_windows(grid, centers, radii))
    start[1:] += shift[1:]  # in place: ball_windows' arrays are fresh, and large on large grids
    stop[1:] += shift[1:]
    return start, stop


def row_band(windows):
    """``windows`` with each ball's rows cut to the band it reaches (its nonempty rows are contiguous), as many
    rows as the highest band from each ball's first one, padded with empty windows: the same cells."""
    start, stop = (np.concatenate([w, np.zeros(w.shape[:-1] + (1,), w.dtype)], axis=-1) for w in windows)
    full, last = stop > start, start.shape[-1] - 1  # the appended row is empty
    rows = np.argmax(full, axis=-1)[..., None] + np.arange(max(int(full.sum(axis=-1).max(initial=0)), 1))
    return np.take_along_axis(start, np.minimum(rows, last), -1), np.take_along_axis(stop, np.minimum(rows, last), -1)


def window_values(values: np.ndarray):
    """A reader of ball values: ``read(windows)`` gives, per ball of ``windows``, the values of the cells it covers,
    row by row over the band of rows it reaches (``row_band``), padded with zeros.  The row table is made once."""
    table = row_table(values).ravel()

    def read(windows):
        start, stop = row_band(windows)
        k = np.arange(max((stop - start).max(), 1))
        v = table[np.minimum(start[..., None] + 1 + k, stop[..., None])]
        return np.where(k < (stop - start)[..., None], v, 0.0).reshape(len(start), -1)

    return read


def window_key(cells: np.ndarray, windows) -> np.ndarray:
    """Per ball of ``windows``, ints equal for two balls iff they cover the same ``cells`` (boolean); 0 if none."""
    count = row_prefix(cells).ravel()
    a, z = count[windows[0]], count[windows[1]]
    return np.concatenate([a, z], axis=-1) * np.tile(a != z, 2)


def ball_sums(values: np.ndarray, windows):
    """Sums of per-cell ``values`` >= 0 over the balls of ``windows`` and a bound on their rounding.

    One ``row_prefix`` table serves every ball.  A window holding an infinite cell sums to inf (by
    ``window_key``, so no inf - inf).  A finite sum differs from the sum of
    the same cells in any other order by at most the bound, 4 * cells * eps * (finite total):
    the prefix, difference, row and other-order roundings each stay below cells * eps * total.
    """
    sums, bound = stacked_ball_sums(np.asarray(values)[None], windows)
    return sums, float(bound.flat[0])


def stacked_ball_sums(values: np.ndarray, windows):
    """``ball_sums`` of G grids stacked along a first axis, read through ``stacked_ball_windows``: the sums,
    and each grid's own rounding bound, shaped (G, 1, ...) to broadcast against them."""
    start, stop = windows
    inf = np.isinf(values)
    finite = np.where(inf, 0.0, values)
    prefix = row_prefix(finite).ravel()
    sums = (prefix[stop] - prefix[start]).sum(axis=-1)
    if inf.any():
        sums[window_key(inf, windows).any(axis=-1)] = np.inf
    sums[np.isnan(sums)] = np.inf  # the table overflowed
    totals = finite.reshape(len(values), -1).sum(axis=1)
    return sums, (4 * values[0].size * _EPS * totals).reshape((-1,) + (1,) * (sums.ndim - 1))


def common_grid(fs) -> GridSpec:
    """The one grid of a nonempty family of sampled functions; ParameterError if they lie on several."""
    grids = {f.grid for f in fs}
    if len(grids) != 1:
        raise ParameterError(f"a stacked family needs one grid, got {sorted(map(repr, grids))}")
    return grids.pop()


class SampledFunction:
    """Nonnegative function sampled at cell centers of a GridSpec."""

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.array(values, dtype=float)  # owned copy, frozen below
        if values.shape != grid.shape():
            raise ParameterError(
                f"values shape {values.shape} does not match grid shape {grid.shape()}"
            )
        if np.any(values < 0) or np.any(np.isnan(values)):
            raise DomainError("sampled values must be nonnegative")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)

    # -- geometry ---------------------------------------------------------

    def ball_mask(self, ball: Ball) -> np.ndarray:
        """Cells the ball covers, by the rule in the module docstring."""
        return ball_mask(self.grid, ball)

    def ball_values(self, ball: Ball) -> np.ndarray:
        return self.values[self.ball_mask(ball)]

    # -- calculus ---------------------------------------------------------

    def integrate(self, ball: Ball | None = None) -> float:
        """Midpoint quadrature h^n * sum over cells (optionally inside a ball)."""
        vals = self.values if ball is None else self.ball_values(ball)
        if np.any(np.isinf(vals)):
            return np.inf
        return float(vals.sum(dtype=float) * self.grid.cell_volume)

    def distribution(self, threshold: float, ball: Ball | None = None) -> float:
        """Measure of {f > threshold}: h^n * count of strictly larger cells."""
        if threshold < 0:
            raise DomainError("distribution threshold must be >= 0")
        vals = self.values if ball is None else self.ball_values(ball)
        return float(np.count_nonzero(vals > threshold) * self.grid.cell_volume)

    def value_at(self, point) -> float:
        """Value of the cell containing the point (edge points go to the upper cell)."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        m = self.grid.cells_per_axis
        idx = np.clip(
            np.floor((pt + self.grid.extent) / self.grid.h).astype(int), 0, m - 1
        )
        return float(self.values[tuple(idx)] if self.grid.n == 2 else self.values[idx[0]])

    def support_centroid(self) -> tuple:
        """Mass centroid of the sampled values (origin for the zero function)."""
        total = self.values.sum(dtype=float)
        if total == 0 or not np.isfinite(total):
            return (0.0,) * self.grid.n
        ax = self.grid.axis_centers()
        if self.grid.n == 1:
            c = float((ax * self.values).sum(dtype=float) / total)
            return (round(c, 12),)
        cx = float((ax[:, None] * self.values).sum(dtype=float) / total)
        cy = float((ax[None, :] * self.values).sum(dtype=float) / total)
        return (round(cx, 12), round(cy, 12))

    def max_value(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0

    def scaled(self, c: float) -> "SampledFunction":
        if c < 0:
            raise DomainError("scaling constant must be nonnegative")
        return SampledFunction(self.grid, self.values * c)


# -- formula descriptors ---------------------------------------------------


def _radial_dist2(grid: GridSpec, center) -> np.ndarray:
    ax = grid.axis_centers()
    if grid.n == 1:
        return (ax - center[0]) ** 2
    return (ax[:, None] - center[0]) ** 2 + (ax[None, :] - center[1]) ** 2


def _finite(value, name: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"formula {name} must be a number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"formula {name} must be finite, got {name} {value}")
    return value


def _term_values(grid: GridSpec, cfg: dict) -> np.ndarray:
    kind = cfg.get("type")
    center = tuple(_finite(c, "center") for c in cfg.get("center", (0.0,) * grid.n))
    if len(center) != grid.n:
        raise ConfigError(f"formula center {center} does not match dimension {grid.n}")
    if kind == "ball_indicator":
        ball = Ball(center, _finite(cfg["radius"], "radius"))
        grid.require_ball(ball)
        return ball_mask(grid, ball).astype(float)
    if kind == "power_decay":
        gamma = _finite(cfg["gamma"], "gamma")
        radius = _finite(cfg["radius"], "radius")
        if not 0 < gamma < grid.n:
            raise ConfigError(f"power decay needs 0 < gamma < n, got {gamma}")
        ball = Ball(center, radius)
        grid.require_ball(ball)
        d2 = _radial_dist2(grid, center)
        with np.errstate(divide="ignore"):
            vals = np.where(ball_mask(grid, ball), d2 ** (-gamma / 2.0), 0.0)
        singular = d2 <= (1e-12 * grid.h) ** 2
        if np.any(singular):
            # analytic cell average around the singularity (midpoint value is inf)
            if grid.n == 1:
                avg = (grid.h / 2.0) ** (-gamma) / (1.0 - gamma)
            else:
                rho = grid.h / math.sqrt(math.pi)  # equal-area disk
                avg = (2.0 * math.pi / grid.h**2) * rho ** (2.0 - gamma) / (2.0 - gamma)
            vals = np.where(singular, avg, vals)
        return vals
    if kind == "gaussian":
        scale = _finite(cfg.get("scale", 1.0), "scale")
        if scale <= 0:
            raise ConfigError("gaussian scale must be positive")
        d2 = _radial_dist2(grid, center)
        return np.exp(-d2 / scale**2)
    if kind == "sum":
        terms = cfg.get("terms")
        if not terms:
            raise ConfigError("sum formula needs a nonempty 'terms' list")
        out = np.zeros(grid.shape())
        for term in terms:
            w = _finite(term.get("weight", 1.0), "weight")
            if w < 0:
                raise ConfigError("term weights must be nonnegative")
            vals = _term_values(grid, term)
            # finite terms may still overflow to inf; operators that need finite samples reject it
            with np.errstate(over="ignore"):
                out = out + w * vals
        return out
    raise ConfigError(f"unsupported formula type {kind!r}")


def sample_function(grid: GridSpec, formula: dict) -> SampledFunction:
    """Evaluate a formula descriptor at all cell centers."""
    return SampledFunction(grid, _term_values(grid, formula))
