"""Discrete wind-speed distributions.

All downstream expectations over the weather reduce to finite weighted sums
over the states of a :class:`WeatherModel`.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ParameterDomainError

PROB_SUM_TOL = 1e-12
TRUNCATION_QUANTILE = 0.9999
DEFAULT_N_POINTS = 200


@dataclass(frozen=True, eq=False)
class WeatherModel:
    """Finite distribution over wind speeds (m/s): the speed and
    probability columns, copied into read-only float arrays and checked
    once. Speeds are strictly increasing and probabilities sum to one.
    Immutable after construction, safe for concurrent read-only use.

    states, the (speed, probability) pairs as Python floats, which the
    scalar cost formulas read, and cubes are derived on first use.
    """

    speed_array: np.ndarray
    prob_array: np.ndarray

    def __post_init__(self) -> None:
        w, p = np.array(self.speed_array, float), np.array(self.prob_array, float)
        if w.ndim != 1 or w.shape != p.shape:
            raise ConfigurationError("weather model needs one probability per speed")
        if not len(w):
            raise ConfigurationError("weather model needs at least one state")
        finite = np.isfinite(w) & np.isfinite(p)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ParameterDomainError(f"non-finite weather state w={w[i]}, p={p[i]}")
        # the first state that breaks a rule, and the first rule it breaks
        bad = (w < 0.0) | (p < 0.0)
        bad[1:] |= w[1:] <= w[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            if w[i] < 0.0:
                raise ParameterDomainError(f"negative wind speed {w[i]}")
            if p[i] < 0.0:
                raise ParameterDomainError(f"negative probability {p[i]} at w={w[i]}")
            raise ConfigurationError("wind speeds must be strictly increasing")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigurationError(f"probabilities sum to {total!r}, not 1")
        w.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "speed_array", w)
        object.__setattr__(self, "prob_array", p)

    @cached_property
    def states(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.speed_array.tolist(), self.prob_array.tolist()))

    @cached_property
    def cubes(self) -> np.ndarray:
        """w**3 at each speed, read-only, through Python's float power (libm
        pow) as the scalar cost formulas compute it. numpy's vectorized
        power can round differently in the last bit, which would change the
        settlement bytes."""
        cubes = np.array([cube(w) for w in self.speed_array.tolist()], dtype=float)
        cubes.flags.writeable = False
        return cubes


def cube(w: float) -> float:
    """w**3 through Python's float power, as the built-in cost models cube
    a wind speed, or a ParameterDomainError where the power overflows (a
    float power raises OverflowError there). A plugin model that never
    cubes a speed takes any finite one."""
    try:
        return w**3
    except OverflowError:
        raise ParameterDomainError(
            f"weather: wind speed {w!r} is too large, w**3 overflows"
        ) from None


def weibull_model(
    shape: float, mean_speed: float, n_points: int = DEFAULT_N_POINTS
) -> WeatherModel:
    """Discretize a Weibull wind-speed distribution.

    The scale parameter is derived from the requested mean,
    lambda = mean / Gamma(1 + 1/shape). Cells lie on an equal-probability
    quantile grid truncated at the 0.9999 quantile; the residual tail mass
    is folded into the top cell. Each cell is represented by the speed at
    its midpoint quantile.
    """
    if shape <= 0.0 or mean_speed <= 0.0:
        raise ParameterDomainError("shape and mean_speed must be positive")
    if n_points < 2:
        raise ConfigurationError("n_points must be at least 2")
    if n_points > sys.float_info.max:  # TRUNCATION_QUANTILE / n_points raises OverflowError
        raise ConfigurationError("n_points is too large, it overflows a float")
    try:
        lam = mean_speed / math.gamma(1.0 + 1.0 / shape)
    except OverflowError:
        raise ParameterDomainError(
            f"weibull shape {shape!r} is too small, Gamma(1 + 1/shape) overflows"
        ) from None
    p_cell = TRUNCATION_QUANTILE / n_points
    exponent = 1.0 / shape
    u = (np.arange(n_points) + 0.5) * p_cell  # each cell's midpoint quantile
    speeds = [lam * (-math.log1p(-x)) ** exponent for x in u.tolist()]
    probs = np.full(n_points, p_cell)
    probs[-1] += 1.0 - TRUNCATION_QUANTILE
    return WeatherModel(speeds, probs)


def empirical_model(samples: Sequence[float] | Iterable[float]) -> WeatherModel:
    """Frequency distribution of observed wind speeds."""
    samples = list(samples)
    if not samples:
        raise ConfigurationError("empirical model needs at least one sample")
    counts = Counter(samples)
    n = len(samples)
    speeds = sorted(counts)
    return WeatherModel(speeds, [counts[w] / n for w in speeds])
