"""Discrete wind-speed distributions.

All downstream expectations over the weather reduce to finite weighted sums
over the states of a :class:`WeatherModel`.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ParameterDomainError

PROB_SUM_TOL = 1e-12
TRUNCATION_QUANTILE = 0.9999
DEFAULT_N_POINTS = 200


@dataclass(frozen=True)
class WeatherModel:
    """Finite distribution over wind speeds (m/s).

    states: sorted tuple of (speed, probability) pairs with strictly
    increasing speeds; probabilities sum to one. Immutable after
    construction, safe for concurrent read-only use.

    speeds is the states' speed column as a tuple, which the scalar cost
    formulas read; speed_array and prob_array are the two columns as
    read-only float arrays for the vectorized ones. All three are built
    once, with the checks.
    """

    states: tuple[tuple[float, float], ...]
    speeds: tuple[float, ...] = field(init=False, repr=False, compare=False)
    speed_array: np.ndarray = field(init=False, repr=False, compare=False)
    prob_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.states:
            raise ConfigurationError("weather model needs at least one state")
        speeds, probs = zip(*self.states)
        n = len(speeds)
        w, p = np.fromiter(speeds, float, n), np.fromiter(probs, float, n)
        finite = np.isfinite(w) & np.isfinite(p)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ParameterDomainError(f"non-finite weather state w={speeds[i]}, p={probs[i]}")
        # the first state that breaks a rule, and the first rule it breaks
        bad = (w < 0.0) | (p < 0.0)
        bad[1:] |= w[1:] <= w[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            if w[i] < 0.0:
                raise ParameterDomainError(f"negative wind speed {speeds[i]}")
            if p[i] < 0.0:
                raise ParameterDomainError(f"negative probability {probs[i]} at w={speeds[i]}")
            raise ConfigurationError("wind speeds must be strictly increasing")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigurationError(f"probabilities sum to {total!r}, not 1")
        w.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "speeds", speeds)
        object.__setattr__(self, "speed_array", w)
        object.__setattr__(self, "prob_array", p)

    @cached_property
    def cubes(self) -> np.ndarray:
        """w**3 at each speed, read-only, through Python's float power (libm
        pow) as the scalar cost formulas compute it. numpy's vectorized
        power can round differently in the last bit, which would change the
        settlement bytes."""
        cubes = np.array([cube(w) for w in self.speeds], dtype=float)
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
    # the quantile lam * (-log(1 - u))**(1/shape) at each cell's midpoint u
    speeds = [lam * (-math.log1p(-((k + 0.5) * p_cell))) ** exponent for k in range(n_points)]
    probs = [p_cell] * (n_points - 1) + [p_cell + (1.0 - TRUNCATION_QUANTILE)]
    return WeatherModel(states=tuple(zip(speeds, probs)))


def empirical_model(samples: Sequence[float] | Iterable[float]) -> WeatherModel:
    """Frequency distribution of observed wind speeds."""
    samples = list(samples)
    if not samples:
        raise ConfigurationError("empirical model needs at least one sample")
    counts = Counter(samples)
    n = len(samples)
    states = tuple((float(w), counts[w] / n) for w in sorted(counts))
    return WeatherModel(states=states)
