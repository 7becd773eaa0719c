"""Young functions: evaluation, generalized inverses, conjugates, growth classes.

A Young function is a convex, left-continuous map [0, inf) -> [0, inf] with
value 0 at 0 and limit inf at inf.  Infinite values are represented by
``np.inf``.  All instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .report import ConditionReport, checked_schedule, checked_t_grid, symmetric_report

__all__ = [
    "YoungFunction",
    "PowerYoung",
    "PowerLogYoung",
    "ExpMinusOneYoung",
    "LinearCappedYoung",
    "ComposedPowerYoung",
    "TabulatedYoung",
    "young_from_config",
    "classify_growth",
]

# Conjugate tabulation grid: log-spaced nodes; the sup over s is located on
# the same grid and then sharpened by golden-section search (the objective
# r*s - phi(s) is concave in s).
_TAB_LO, _TAB_HI, _TAB_N = 1e-8, 1e8, 2048


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


class YoungFunction:
    """Base class; concrete kinds implement ``_eval`` on nonnegative arrays."""

    def __call__(self, t):
        arr, scalar = _as_array(t)
        if np.any(arr < 0):
            raise DomainError("Young functions are defined on [0, inf)")
        out = self._eval(arr)
        return float(out) if scalar else out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, s):
        """Generalized inverse inf{r >= 0 : phi(r) > s} for s in [0, inf]."""
        arr, scalar = _as_array(s)
        if not np.all(arr >= 0):  # a nan too
            raise DomainError("inverse argument must be in [0, inf]")
        out = np.asarray(self._inverse(np.atleast_1d(arr)), dtype=float).reshape(arr.shape)
        return float(out) if scalar else out

    def _inverse(self, s: np.ndarray) -> np.ndarray:
        # A search over the floats; exact kinds override with closed forms.
        return _float_inverse(self, s)

    def conjugate(self) -> "TabulatedYoung":
        """Convex conjugate sup_s {r s - phi(s)}, tabulated on a log grid."""
        return _tabulate_conjugate(self)

    def compose_power(self, beta: float) -> "ComposedPowerYoung":
        """Return t -> phi(t**(1/beta)) for beta in (0, 1)."""
        return ComposedPowerYoung(self, beta)

    def config(self) -> dict:
        raise NotImplementedError


# 0, the powers of two 2^-1074 .. 2^1023, and inf.  Nonnegative floats order as their int64 bit patterns, so two
# consecutive nodes bound one binade, at most 2^52 floats.
_LADDER_EXP = np.concatenate([[-np.inf], np.arange(-1074.0, 1024.0), [np.inf]])
_LADDER = np.exp2(_LADDER_EXP)
_LADDER_BITS = _LADDER.view(np.int64)
_WINDOW = np.arange(-4, 5)  # the floats within 4 ulps of a guess


def _float_inverse(phi: YoungFunction, s: np.ndarray) -> np.ndarray:
    """For each s alone, the float r with phi(prev r) <= s < phi(r): on a phi nondecreasing in floats, the least
    float with phi(r) > s, inf{r : phi(r) > s} on the floats.  It evaluates phi at points >= 0 only, by ``_eval``.

    One evaluation of phi over the ladder brackets each s by its last node with phi <= s and the next one (0 where
    phi(0) > s, inf where phi(inf) <= s).  ``_window_bracket`` narrows the bracket around a guess of the crossing
    (``_crossing_guess``), and the elements still open bisect over bit patterns until lo and hi are adjacent.  A
    ladder that is not nondecreasing brackets each s by [0, inf] (0 where phi(0) > s) and gives no guess.
    """
    sv = s.ravel()
    with np.errstate(all="ignore"):  # the ladder's extremes, and guesses, may overflow or underflow phi
        vals = phi._eval(_LADDER)
        if np.all(vals[1:] >= vals[:-1]):
            c = np.searchsorted(vals, sv, side="right")  # ladder nodes with phi <= s
            lo, hi = _LADDER_BITS[np.maximum(c - 1, 0)], _LADDER_BITS[np.minimum(c, len(_LADDER) - 1)]
            todo = np.flatnonzero(hi - lo > 1)
            if todo.size:
                lo[todo], hi[todo] = _window_bracket(phi, sv[todo], lo[todo], hi[todo],
                                                     _crossing_guess(phi, sv[todo], c[todo], vals))
        else:
            lo, hi = np.zeros(sv.shape, np.int64), np.where(vals[0] > sv, 0, _LADDER_BITS[-1])
        todo = np.flatnonzero(hi - lo > 1)
        while todo.size:
            a, b = lo[todo], hi[todo]
            mid = a + (b - a) // 2  # (a + b) // 2 overflows int64 for floats >= 2
            below = phi._eval(mid.view(float)) <= sv[todo]
            lo[todo], hi[todo] = np.where(below, mid, a), np.where(below, b, mid)
            todo = todo[hi[todo] - lo[todo] > 1]
    return hi.view(float).reshape(s.shape)


def _window_bracket(phi: YoungFunction, sv: np.ndarray, lo: np.ndarray, hi: np.ndarray, guess: np.ndarray):
    """[lo, hi] (bit patterns, phi(lo) <= s < phi(hi)) narrowed by the 9 floats around each guess, clipped to it:
    to the first of them with phi > s (else hi) and the float before it.  A nan guess is lo."""
    g = np.fmin(np.fmax(guess, lo.view(float)), hi.view(float)).view(np.int64)
    w = np.concatenate([lo[:, None], np.clip(g[:, None] + _WINDOW, lo[:, None], hi[:, None]), hi[:, None]], axis=1)
    below = phi._eval(w.view(float)) <= sv[:, None]
    below[:, [0, -1]] = True, False  # the bracket's ends as the ladder found them
    j, rows = below.argmin(axis=1), np.arange(len(sv))  # the first float with phi > s
    return w[rows, j - 1], w[rows, j]


def _crossing_guess(phi: YoungFunction, sv: np.ndarray, c: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Approximate crossings phi(x) = s, which only steer ``_float_inverse``: log2 phi interpolated
    linearly in log2 x between the ladder nodes around s (exact for a power), then three Newton steps in x
    whose derivative is a forward difference over x 2^-26, the square root of the float spacing."""
    with np.errstate(all="ignore"):
        lv = np.log2(vals)
        lo, up = lv[c - 1], lv[c]
        x = np.exp2(_LADDER_EXP[c] - (up - np.log2(sv)) / (up - lo))
        for _ in range(3):
            xx = np.multiply.outer(x, (1.0, 1.0 + 2.0**-26))
            p = phi._eval(xx)
            x = x - (p[:, 0] - sv) * (xx[:, 1] - x) / (p[:, 1] - p[:, 0])
    return x


class PowerYoung(YoungFunction):
    """phi(t) = scale * t**p with p >= 1, scale > 0."""

    def __init__(self, p: float, scale: float = 1.0):
        if not 1 <= p < np.inf:
            raise ParameterError(f"power exponent must be finite and >= 1, got {p}")
        if not 0 < scale < np.inf:
            raise ParameterError(f"scale must be positive and finite, got {scale}")
        self.p = float(p)
        self.scale = float(scale)

    def _eval(self, t):
        return self.scale * t**self.p

    def _inverse(self, s):
        return np.where(np.isinf(s), np.inf, (s / self.scale) ** (1.0 / self.p))

    def config(self):
        cfg = {"kind": "power", "p": self.p}
        if self.scale != 1.0:
            cfg["scale"] = self.scale
        return cfg

    def __repr__(self):
        coef = "" if self.scale == 1.0 else f"{self.scale:g}*"
        return f"PowerYoung({coef}t^{self.p:g})"


class PowerLogYoung(YoungFunction):
    """phi(t) = t**p * log(e + t)**a with p >= 1, a >= 0."""

    def __init__(self, p: float, a: float):
        if not 1 <= p < np.inf:
            raise ParameterError(f"power exponent must be finite and >= 1, got {p}")
        if not 0 <= a < np.inf:
            raise ParameterError(f"log exponent must be finite and >= 0, got {a}")
        self.p = float(p)
        self.a = float(a)

    def _eval(self, t):
        return t**self.p * np.log(np.e + t) ** self.a

    def config(self):
        return {"kind": "power_log", "p": self.p, "a": self.a}

    def __repr__(self):
        return f"PowerLogYoung(t^{self.p:g} log(e+t)^{self.a:g})"


class ExpMinusOneYoung(YoungFunction):
    """phi(t) = exp(t) - 1."""

    def _eval(self, t):
        with np.errstate(over="ignore"):
            return np.expm1(t)

    def _inverse(self, s):
        return np.where(np.isinf(s), np.inf, np.log1p(s))

    def config(self):
        return {"kind": "exp_minus_one"}

    def __repr__(self):
        return "ExpMinusOneYoung()"


class LinearCappedYoung(YoungFunction):
    """phi = 0 on [0, 1] and inf beyond; its Orlicz space is L^inf."""

    def _eval(self, t):
        return np.where(t <= 1.0, 0.0, np.inf)

    def _inverse(self, s):
        # inf{r : phi(r) > s} = 1 for every finite s (the jump sits at 1).
        return np.where(np.isinf(s), np.inf, 1.0)

    def config(self):
        return {"kind": "linear_capped"}

    def __repr__(self):
        return "LinearCappedYoung()"


class ComposedPowerYoung(YoungFunction):
    """psi(t) = base(t**(1/beta)) for beta in (0, 1); convex since 1/beta > 1."""

    def __init__(self, base: YoungFunction, beta: float):
        if not 0 < beta < 1:
            raise ParameterError(f"beta must lie in (0, 1), got {beta}")
        self.base = base
        self.beta = float(beta)

    def _eval(self, t):
        return self.base._eval(t ** (1.0 / self.beta))

    def _inverse(self, s):
        return self.base._inverse(s) ** self.beta

    def config(self):
        return {"kind": "composed_power", "base": self.base.config(), "beta": self.beta}

    def __repr__(self):
        return f"ComposedPowerYoung({self.base!r}, beta={self.beta:g})"


class TabulatedYoung(YoungFunction):
    """Piecewise-linear Young function on log-spaced nodes.

    ``values`` is nondecreasing and ends in an infinite tail or a positive
    slope (phi tends to inf).  Between the last finite node and the first
    infinite one the function continues with the last finite slope; past the
    first infinite node it is inf.  Below the first node it is linear through 0.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ParameterError("nodes and values must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0) or nodes[0] <= 0:
            raise ParameterError("nodes must be positive and strictly increasing")
        values = np.maximum.accumulate(values)
        self.nodes = nodes
        self.values = values
        finite = np.isfinite(values)
        self._n_finite = int(np.count_nonzero(finite))
        if self._n_finite == 0:
            raise ParameterError("tabulated values are infinite everywhere")
        if self._n_finite >= 2:
            f_nodes = nodes[: self._n_finite]
            f_vals = values[: self._n_finite]
            self._tail_slope = (f_vals[-1] - f_vals[-2]) / (f_nodes[-1] - f_nodes[-2])
        else:
            self._tail_slope = 0.0
        if self._n_finite == len(nodes) and self._tail_slope == 0:
            raise ParameterError("tabulated values must tend to inf: end in an infinite value or a positive slope")

    @property
    def _first_inf_node(self) -> float:
        if self._n_finite == len(self.nodes):
            return np.inf
        return self.nodes[self._n_finite]

    def _eval(self, t):
        nodes = self.nodes[: self._n_finite]
        vals = self.values[: self._n_finite]
        out = np.interp(t, nodes, vals)
        below = t < nodes[0]
        if np.any(below):
            out = np.where(below, vals[0] * t / nodes[0], out)
        above = t > nodes[-1]
        if np.any(above):
            out = np.where(above, vals[-1] + self._tail_slope * (t - nodes[-1]), out)
        r_inf = self._first_inf_node
        out = np.where(t >= r_inf, np.inf, out)
        return np.where(t == 0.0, 0.0, out)

    def _inverse(self, s):
        s = np.asarray(s, dtype=float)
        nodes = self.nodes[: self._n_finite]
        vals = self.values[: self._n_finite]
        r_inf = self._first_inf_node
        j = np.searchsorted(vals, s, side="right")
        k = np.clip(j, 1, len(vals) - 1)  # the segment (k - 1, k) that holds s, where one does
        # every branch is evaluated everywhere; those that do not apply may divide by 0 or overflow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # below the first node the graph is the chord through (0, 0)
            below = 0.0 if vals[0] == 0 else s * nodes[0] / vals[0]
            inner = nodes[k - 1] + (s - vals[k - 1]) / (vals[k] - vals[k - 1]) * (nodes[k] - nodes[k - 1])
            # past the last finite value: continue with the tail slope, clipped at the first infinite node
            tail = np.minimum(nodes[-1] + (s - vals[-1]) / self._tail_slope, r_inf) if self._tail_slope > 0 else r_inf
        out = np.where(j == 0, below, np.where(j < len(vals), inner, tail))
        return np.where(np.isinf(s), np.inf, out)

    def config(self):
        return {"kind": "tabulated", "nodes": self.nodes.tolist(), "values": self.values.tolist()}

    def __repr__(self):
        return f"TabulatedYoung({len(self.nodes)} nodes on [{self.nodes[0]:g}, {self.nodes[-1]:g}])"


def _tabulate_conjugate(phi: YoungFunction) -> TabulatedYoung:
    """Legendre-type transform on a log grid with golden-section sharpening."""
    s_grid = np.concatenate([[0.0], np.geomspace(_TAB_LO, _TAB_HI, _TAB_N)])
    with np.errstate(invalid="ignore"):
        phi_s = phi(s_grid)
    r_nodes = np.geomspace(_TAB_LO, _TAB_HI, _TAB_N)

    # objective g(s) = r*s - phi(s); -inf where phi is inf so it never wins
    obj_base = np.where(np.isinf(phi_s), -np.inf, -phi_s)
    vals = np.empty(_TAB_N)
    lo_br = np.empty(_TAB_N)
    hi_br = np.empty(_TAB_N)
    diverges = np.zeros(_TAB_N, dtype=bool)
    # chunk the (r, s) outer product to bound memory
    chunk = 256
    for start in range(0, _TAB_N, chunk):
        r = r_nodes[start : start + chunk, None]
        g = r * s_grid[None, :] + obj_base[None, :]
        idx = np.argmax(g, axis=1)
        top = g[np.arange(len(idx)), idx]
        at_end = idx == len(s_grid) - 1
        increasing = at_end & (g[:, -1] > g[:, -2])
        diverges[start : start + chunk] = increasing
        vals[start : start + chunk] = np.maximum(top, 0.0)
        lo_br[start : start + chunk] = s_grid[np.maximum(idx - 1, 0)]
        hi_br[start : start + chunk] = s_grid[np.minimum(idx + 1, len(s_grid) - 1)]

    # golden-section maximization of the concave objective on the bracketed
    # interval; skipped where the sup is infinite
    refine = ~diverges & (hi_br > lo_br)
    if np.any(refine):
        r = r_nodes[refine]
        a = lo_br[refine]
        b = hi_br[refine]
        gr = (np.sqrt(5.0) - 1.0) / 2.0

        def g_of(s):
            p = phi(s)
            return np.where(np.isinf(p), -np.inf, r * s - p)

        for _ in range(90):
            c = b - gr * (b - a)
            d = a + gr * (b - a)
            shrink_right = g_of(c) >= g_of(d)
            b = np.where(shrink_right, d, b)
            a = np.where(shrink_right, a, c)
        s_best = 0.5 * (a + b)
        vals[refine] = np.maximum(vals[refine], np.maximum(g_of(s_best), 0.0))
    vals[diverges] = np.inf
    return TabulatedYoung(r_nodes, vals)


_YOUNG_KINDS = {
    "power": lambda cfg: PowerYoung(cfg["p"], cfg.get("scale", 1.0)),
    "power_log": lambda cfg: PowerLogYoung(cfg["p"], cfg["a"]),
    "exp_minus_one": lambda cfg: ExpMinusOneYoung(),
    "linear_capped": lambda cfg: LinearCappedYoung(),
    "composed_power": lambda cfg: ComposedPowerYoung(
        young_from_config(cfg["base"]), cfg["beta"]
    ),
    "tabulated": lambda cfg: TabulatedYoung(
        np.asarray(cfg["nodes"]), np.asarray(cfg["values"])
    ),
}


def young_from_config(cfg: dict) -> YoungFunction:
    """Build a Young function from a config record like {"kind": "power", "p": 2.0}."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"Young function config must be a dict with a 'kind': {cfg!r}")
    kind = cfg["kind"]
    if kind not in _YOUNG_KINDS:
        raise ConfigError(f"unknown Young function kind {kind!r}")
    try:
        return _YOUNG_KINDS[kind](cfg)
    except (KeyError, TypeError, ValueError) as exc:  # a parameter missing, or not a number
        raise ConfigError(f"missing or invalid parameter for Young kind {kind!r}: {exc!r}") from exc


_NABLA2_CANDIDATES = np.geomspace(1.0, 2.0**10, 41)  # contains 2 exactly


def classify_growth(phi: YoungFunction, growth_class: str, t_grid=None, schedule=None) -> ConditionReport:
    """Empirical best constant for a growth class of a Young function.

    ``growth_class`` is one of ``delta2`` (doubling, sup phi(2t)/phi(t)),
    ``nabla2`` (smallest candidate C >= 1 with phi(t) <= phi(Ct)/(2C)), or
    ``delta_prime`` (submultiplicativity, sup phi(t r)/(phi(t) phi(r))).
    """
    if t_grid is None:
        t_grid = np.geomspace(2.0**-10, 2.0**10, 321)
    t_grid = checked_t_grid(t_grid)
    schedule = checked_schedule(schedule)
    if growth_class not in _GROWTH_CLASSES:
        raise ConfigError(f"unknown growth class {growth_class!r}")
    constant = _GROWTH_CLASSES[growth_class]

    def measure(window):
        nodes = t_grid[window]
        return constant(phi, nodes) if nodes.size else (0.0, np.nan)

    params = {"young": phi.config(), "t_min": float(t_grid[0]), "t_max": float(t_grid[-1])}
    return symmetric_report(f"young-{growth_class}", params, t_grid, schedule, measure)


def _delta2_constant(phi, window):
    with np.errstate(invalid="ignore"):
        num = phi(2.0 * window)
        den = phi(window)
    # a positive value over a zero one, or an infinite one over a finite one,
    # admits no doubling constant at all
    blow = ((den == 0) & (num > 0)) | (np.isinf(num) & np.isfinite(den))
    if np.any(blow):
        return np.inf, float(window[np.argmax(blow)])
    ok = (den > 0) & np.isfinite(den) & np.isfinite(num)
    if not np.any(ok):
        return 0.0, np.nan
    ratio = num[ok] / den[ok]
    i = int(np.argmax(ratio))
    return float(ratio[i]), float(window[ok][i])

def _nabla2_constant(phi, window):
    phi_t = phi(window)
    for cand in _NABLA2_CANDIDATES:
        if cand <= 1.0:
            continue
        rhs = phi(cand * window) / (2.0 * cand)
        if np.all(phi_t <= rhs * (1 + 1e-12) + 1e-300):
            return float(cand), float(window[0])
    return np.inf, np.nan

def _delta_prime_constant(phi, window):
    if window.size**2 > 2**22:  # pairs of the outer products below: 2,048 nodes (the default grid's 321 make 1e5)
        raise DomainError(f"delta' over {window.size} nodes takes {window.size**2} pairs, past {2**22}")
    t = window[:, None]
    r = window[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        num = phi(t * r)
        den = phi(t) * phi(r)
    ratio = np.full_like(num, -np.inf)
    good = np.isfinite(den) & (den > 0) & np.isfinite(num)
    ratio[good] = num[good] / den[good]
    # a finite product bounding an infinite value is impossible: C = inf
    blow = np.isinf(num) & np.isfinite(den)
    zero_den = (den == 0) & (num > 0)
    if np.any(blow | zero_den):
        bi = np.argwhere(blow | zero_den)[0]
        return np.inf, float(window[bi[0]])
    flat = int(np.argmax(ratio))
    i, j = np.unravel_index(flat, ratio.shape)
    best = ratio[i, j]
    if not np.isfinite(best) or best < 0:
        return 0.0, np.nan
    return float(best), float(window[i])


_GROWTH_CLASSES = {"delta2": _delta2_constant, "nabla2": _nabla2_constant, "delta_prime": _delta_prime_constant}
