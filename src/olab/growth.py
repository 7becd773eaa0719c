"""Radial growth functions phi: (0, inf) -> (0, inf) used by Morrey-type norms."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .sampled import ball_measure
from .young import YoungFunction

__all__ = [
    "GrowthFunction",
    "PowerGrowth",
    "PowerLogGrowth",
    "LambdaGrowth",
    "PowerOfGrowth",
    "growth_from_lambda",
    "growth_from_config",
]


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


class GrowthFunction:
    """Base class; concrete kinds implement ``_eval`` on positive arrays."""

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        if np.any(arr <= 0):
            raise DomainError("growth functions are defined on (0, inf)")
        out = self._eval(arr)
        return float(out) if scalar else out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __pow__(self, beta: float) -> "PowerOfGrowth":
        return PowerOfGrowth(self, beta)

    def config(self) -> dict:
        raise NotImplementedError


class PowerGrowth(GrowthFunction):
    """phi(t) = t**exponent."""

    def __init__(self, exponent: float):
        self.exponent = _finite("exponent", exponent)

    def _eval(self, t):
        return t**self.exponent

    def config(self):
        return {"kind": "power", "exponent": self.exponent}

    def __repr__(self):
        return f"PowerGrowth(t^{self.exponent:g})"


class PowerLogGrowth(GrowthFunction):
    """phi(t) = t**exponent * log(e + t)**log_exponent."""

    def __init__(self, exponent: float, log_exponent: float):
        self.exponent = _finite("exponent", exponent)
        self.log_exponent = _finite("log exponent", log_exponent)

    def _eval(self, t):
        return t**self.exponent * np.log(np.e + t) ** self.log_exponent

    def config(self):
        return {"kind": "power_log", "exponent": self.exponent, "log_exponent": self.log_exponent}

    def __repr__(self):
        return f"PowerLogGrowth(t^{self.exponent:g} log(e+t)^{self.log_exponent:g})"


class LambdaGrowth(GrowthFunction):
    """Growth function tied to a Young function and a Morrey parameter lambda.

    Radial form: t -> phi^{-1}(t^{-n}) / phi^{-1}(t^{-lam}).  With
    ``measure_based=True`` the argument is the ball measure instead of the
    bare radius: t -> phi^{-1}(|B|^{-1}) / phi^{-1}(|B|^{-lam/n}); the two
    differ by bounded factors (the unit-ball volume enters the argument).
    """

    def __init__(self, phi: YoungFunction, lam: float, n: int = 1, measure_based: bool = False):
        if n not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {n}")
        self.phi = phi
        self.lam = _finite("lambda", lam)
        self.n = int(n)
        self.measure_based = bool(measure_based)

    def _eval(self, t):
        if self.measure_based:
            b = np.array([ball_measure(self.n, ti) for ti in np.atleast_1d(t)])
            b = b.reshape(np.shape(t))
            num = self.phi.inverse(1.0 / b)
            den = self.phi.inverse(b ** (-self.lam / self.n))
        else:
            num = self.phi.inverse(t ** (-float(self.n)))
            den = self.phi.inverse(t ** (-self.lam))
        return num / den

    def config(self):
        cfg = {"kind": "lambda_flavored", "lambda": self.lam, "n": self.n}
        if self.measure_based:
            cfg["measure_based"] = True
        return cfg

    def __repr__(self):
        return f"LambdaGrowth(lam={self.lam:g}, n={self.n}, {self.phi!r})"


class PowerOfGrowth(GrowthFunction):
    """phi(t) = base(t)**beta (the eta = phi^beta construction)."""

    def __init__(self, base: GrowthFunction, beta: float):
        self.base = base
        self.beta = _finite("beta", beta)

    def _eval(self, t):
        return self.base._eval(t) ** self.beta

    def config(self):
        return {"kind": "power_of", "base": self.base.config(), "beta": self.beta}

    def __repr__(self):
        return f"PowerOfGrowth({self.base!r}, beta={self.beta:g})"


def growth_from_lambda(phi: YoungFunction, lam: float, n: int = 1, measure_based: bool = False) -> LambdaGrowth:
    """Radial growth function t -> phi^{-1}(t^{-n}) / phi^{-1}(t^{-lam})."""
    return LambdaGrowth(phi, lam, n=n, measure_based=measure_based)


def growth_from_config(cfg: dict, phi: YoungFunction | None = None, n: int = 1) -> GrowthFunction:
    """Build a growth function from a config record.

    The ``lambda_flavored`` kind resolves against the supplied Young function.
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"growth config must be a dict with a 'kind': {cfg!r}")
    kind = cfg["kind"]
    try:
        if kind == "power":
            return PowerGrowth(cfg["exponent"])
        if kind == "power_log":
            return PowerLogGrowth(cfg["exponent"], cfg["log_exponent"])
        if kind == "lambda_flavored":
            if phi is None:
                raise ConfigError("lambda_flavored growth needs a Young function to resolve against")
            return LambdaGrowth(
                phi,
                cfg["lambda"],
                n=int(cfg.get("n", n)),
                measure_based=bool(cfg.get("measure_based", False)),
            )
        if kind == "power_of":
            return PowerOfGrowth(growth_from_config(cfg["base"], phi=phi, n=n), cfg["beta"])
    except (KeyError, TypeError, ValueError) as exc:  # a parameter missing, or not a number
        raise ConfigError(f"missing or invalid parameter for growth kind {kind!r}: {exc!r}") from exc
    raise ConfigError(f"unknown growth kind {kind!r}")
