"""Regular grids on [-L, L]^n (n in {1, 2}), sampled functions, balls.

Cells are cubes of side h whose centers sit at -L + (k + 1/2) h per axis, so
cell edges align with the origin and there are 2L/h cells per axis.  All
integrals are midpoint quadrature: a cell belongs to a ball iff its center
does (centers exactly on the sphere count as inside).
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
    "sample_function",
]

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}


def ball_measure(n: int, r: float) -> float:
    """Lebesgue measure v_n * r**n of a ball of radius r in dimension n."""
    if n not in _UNIT_BALL_VOLUME:
        raise DomainError(f"dimension must be 1 or 2, got {n}")
    if r <= 0:
        raise DomainError(f"ball radius must be positive, got {r}")
    return _UNIT_BALL_VOLUME[n] * float(r) ** n


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
        if ball.n != self.grid.n:
            raise DomainError("ball dimension does not match grid dimension")
        ax = self.grid.axis_centers()
        if self.grid.n == 1:
            return np.abs(ax - ball.center[0]) <= ball.radius
        dx = ax[:, None] - ball.center[0]
        dy = ax[None, :] - ball.center[1]
        return dx**2 + dy**2 <= ball.radius**2

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
        ax = self.grid.axis_centers()
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


def _term_values(grid: GridSpec, cfg: dict) -> np.ndarray:
    kind = cfg.get("type")
    center = tuple(cfg.get("center", (0.0,) * grid.n))
    if len(center) != grid.n:
        raise ConfigError(f"formula center {center} does not match dimension {grid.n}")
    if kind == "ball_indicator":
        ball = Ball(center, cfg["radius"])
        grid.require_ball(ball)
        d2 = _radial_dist2(grid, center)
        return (d2 <= ball.radius**2).astype(float)
    if kind == "power_decay":
        gamma = float(cfg["gamma"])
        radius = float(cfg["radius"])
        if not 0 < gamma < grid.n:
            raise ConfigError(f"power decay needs 0 < gamma < n, got {gamma}")
        ball = Ball(center, radius)
        grid.require_ball(ball)
        d2 = _radial_dist2(grid, center)
        with np.errstate(divide="ignore"):
            vals = np.where(d2 <= radius**2, d2 ** (-gamma / 2.0), 0.0)
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
        scale = float(cfg.get("scale", 1.0))
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
            w = float(term.get("weight", 1.0))
            if w < 0:
                raise ConfigError("term weights must be nonnegative")
            out = out + w * _term_values(grid, term)
        return out
    raise ConfigError(f"unsupported formula type {kind!r}")


def sample_function(grid: GridSpec, formula: dict) -> SampledFunction:
    """Evaluate a formula descriptor at all cell centers."""
    return SampledFunction(grid, _term_values(grid, formula))


# -- fast ball sums ---------------------------------------------------------


class BallSums:
    """Prefix-sum tables answering h^n * sum(f over ball) in O(1) per ball (1-D)
    or O(rows) per ball (2-D).  Built once, then only read; must agree with
    SampledFunction.integrate to 1e-12 (exercised by tests)."""

    def __init__(self, f: SampledFunction):
        if np.any(np.isinf(f.values)):
            raise DomainError("prefix tables require finite sample values")
        self.f = f
        self.grid = f.grid
        if self.grid.n == 1:
            self._prefix = np.concatenate([[0.0], np.cumsum(f.values)])
        else:
            self._prefix = np.concatenate(
                [np.zeros((f.values.shape[0], 1)), np.cumsum(f.values, axis=1)], axis=1
            )

    def _axis_range(self, center: float, radius: float) -> tuple:
        # indices k with |c_k - center| <= radius, c_k = -L + (k + 1/2) h
        g = self.grid
        lo = (center - radius + g.extent) / g.h - 0.5
        hi = (center + radius + g.extent) / g.h - 0.5
        k_lo = max(int(math.ceil(lo - 1e-9)), 0)
        k_hi = min(int(math.floor(hi + 1e-9)), g.cells_per_axis - 1)
        return k_lo, k_hi

    def ball_sum(self, ball: Ball) -> float:
        """Integral of f over the ball (midpoint quadrature)."""
        g = self.grid
        if g.n == 1:
            k_lo, k_hi = self._axis_range(ball.center[0], ball.radius)
            if k_lo > k_hi:
                return 0.0
            return float((self._prefix[k_hi + 1] - self._prefix[k_lo]) * g.h)
        ax = g.axis_centers()
        i_lo, i_hi = self._axis_range(ball.center[0], ball.radius)
        if i_lo > i_hi:
            return 0.0
        total = 0.0
        r2 = ball.radius**2
        for i in range(i_lo, i_hi + 1):
            rem = r2 - (ax[i] - ball.center[0]) ** 2
            if rem < 0:
                continue
            j_lo, j_hi = self._axis_range(ball.center[1], math.sqrt(rem))
            if j_lo <= j_hi:
                total += self._prefix[i, j_hi + 1] - self._prefix[i, j_lo]
        return float(total * g.cell_volume)
