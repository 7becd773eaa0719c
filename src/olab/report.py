"""Best-constant tracking over widening parameter ranges.

Every boundedness condition in the toolkit is probed the same way: the
empirical best constant C is recomputed while the probed range widens on a
doubling schedule, and the trend of the C-sequence decides the verdict.
A genuine power-law blow-up keeps growing as the range widens; a bounded
condition plateaus.

Every verdict asks ``window`` which nodes of a sorted grid a probed range
covers: node t lies in the window (lo, hi) iff lo(1 - 1e-12) <= t <=
hi(1 + 1e-12), so edge nodes stay inside whatever the rounding.  A probe
with a strict edge gives the nodes it excludes the value -inf.  Every report
reads its schedule through ``checked_schedule`` and a caller's t grid
through ``checked_t_grid``; a report over the windows (1/r, r) is built by
``symmetric_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

HOLDS_STABLE = "holds-stable"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

# Cumulative growth of the best constant across the schedule that counts as
# divergence, provided the constant is still growing in the last two steps.
DIVERGENCE_FACTOR = 1.3
# Per-step growth below this is treated as a plateau.
STABILITY_TOL = 0.05
# Per-step growth above this counts as "still growing".
GROWTH_TOL = 0.005


@dataclass
class ConditionReport:
    """Best-constant sequence for one condition plus the final verdict.

    ``schedule`` and ``constants`` are parallel: constants[i] is the best
    constant with the range truncated at schedule[i].  The sequence is
    nondecreasing (suprema over growing sets).  ``witness`` records where
    the final constant was attained.
    """

    condition: str
    params: dict = field(default_factory=dict)
    schedule: list = field(default_factory=list)
    constants: list = field(default_factory=list)
    verdict: str = INCONCLUSIVE
    witness: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def constant(self) -> float:
        """Best constant at the widest probed range."""
        return self.constants[-1] if self.constants else float("nan")


def assess(constants) -> str:
    """Classify a nondecreasing best-constant sequence.

    ``diverges``: the constant grew by at least DIVERGENCE_FACTOR across the
    schedule and was still growing over the last two steps.  ``holds-stable``:
    the last two steps are within STABILITY_TOL (a plateau).  Anything else
    (including growth that stopped mid-schedule) is ``inconclusive``.
    """
    cs = np.asarray(constants, dtype=float)
    if cs.size == 0 or np.isnan(cs).any():
        return INCONCLUSIVE
    if np.isinf(cs[-1]):
        # no finite constant exists at the widest truncation
        return DIVERGES
    # leading zeros are empty probe windows, not evidence
    positive = np.nonzero(cs > 0)[0]
    if positive.size == 0:
        return HOLDS_STABLE
    cs = cs[positive[0] :]
    if cs.size == 1:
        return INCONCLUSIVE
    total = cs[-1] / cs[0]
    steps = cs[1:] / cs[:-1]
    tail = steps[-2:] if steps.size >= 2 else steps
    if total >= DIVERGENCE_FACTOR and np.all(tail > 1.0 + GROWTH_TOL):
        return DIVERGES
    if np.all(tail <= 1.0 + STABILITY_TOL):
        return HOLDS_STABLE
    return INCONCLUSIVE


def track(nodes, windows, measure, empty_ok=False):
    """(constants, witnesses, verdict) of ``measure`` over windows (lo, hi) of the sorted ``nodes``.

    ``measure`` maps the slice of nodes in one window to (constant, witness),
    empty windows included; the constants are made nondecreasing, as suprema
    over nested windows, before ``assess`` reads them.  Each window must
    contain the one before it, and the widest a node unless ``empty_ok``
    (ConfigError otherwise: every constant would read 0, a vacuous verdict).
    """
    nodes, (lo, hi) = np.asarray(nodes, dtype=float), np.asarray(windows, dtype=float).reshape(-1, 2).T
    if np.any(lo[1:] > lo[:-1]) or np.any(hi[1:] < hi[:-1]):
        raise ConfigError(f"each probed window must contain the one before it, got {list(windows)}")
    if not (empty_ok or nodes[window(nodes, lo[-1], hi[-1])].size):
        raise ConfigError(f"no node of [{nodes[0]:g}, {nodes[-1]:g}] is in the widest window ({lo[-1]:g}, {hi[-1]:g})")
    found = [measure(window(nodes, lo, hi)) for lo, hi in windows]
    constants = np.maximum.accumulate(np.array([c for c, _ in found], dtype=float)).tolist()
    return constants, [w for _, w in found], assess(constants)


def window(nodes, lo: float, hi: float) -> slice:
    """The slice of the sorted ``nodes`` that lie in the window (lo, hi), edges within 1e-12 relative."""
    nodes = np.asarray(nodes, dtype=float)
    return slice(np.searchsorted(nodes, lo * (1 - 1e-12)), np.searchsorted(nodes, hi * (1 + 1e-12), side="right"))


def checked_schedule(schedule) -> list:
    """A report's truncation schedule: ``doubling_schedule()`` if None, else the caller's, which must be
    nonempty with every entry finite and positive (ConfigError otherwise)."""
    if schedule is None:
        return doubling_schedule()
    r = np.asarray(schedule, dtype=float)
    if not r.size or not np.all(np.isfinite(r) & (r > 0)):
        raise ConfigError(f"invalid schedule {list(schedule)}: needs at least one entry, each finite and positive")
    return list(schedule)


def checked_t_grid(t_grid) -> np.ndarray:
    """A caller's t grid, sorted; DomainError unless it has nodes and every one is finite and positive
    (NaN fails every comparison, so ``t <= 0`` alone lets it through)."""
    t = np.sort(np.asarray(t_grid, dtype=float).ravel())
    if not t.size or not np.all(np.isfinite(t) & (t > 0)):
        raise DomainError("t grid needs at least one node, each finite and positive")
    return t


def symmetric_report(condition: str, params: dict, nodes, schedule: list, measure) -> ConditionReport:
    """The report of ``track`` over the windows (1/r, r) of ``nodes``, r in a checked ``schedule``; its
    witness is the one of the widest window."""
    constants, witnesses, verdict = track(nodes, [(1.0 / r, r) for r in schedule], measure)
    return ConditionReport(condition, params, list(schedule), constants, verdict, witnesses[-1])


def node_max(nodes, values):
    """Measure for ``track``: the top per-node value in a window and its node; (0.0, nan) if all are -inf."""

    def measure(window):
        v = values[window]
        if np.all(v == -np.inf):
            return 0.0, np.nan
        i = int(np.argmax(v))
        return float(v[i]), float(nodes[window][i])

    return measure


def combine_legs(v_up: str, v_low: str) -> str:
    """Verdict of a probe widened in two directions: ``diverges`` if either
    leg diverges, ``holds-stable`` if both hold, else ``inconclusive``."""
    if DIVERGES in (v_up, v_low):
        return DIVERGES
    if v_up == v_low == HOLDS_STABLE:
        return HOLDS_STABLE
    return INCONCLUSIVE


def doubling_schedule(start: float = 2.0**4, stop: float = 2.0**10) -> list[float]:
    """Default truncation schedule {start, 2*start, ..., stop}."""
    out = []
    r = float(start)
    while r <= stop * (1 + 1e-12):
        out.append(r)
        r *= 2.0
    return out
