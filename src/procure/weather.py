"""Discrete wind-speed distributions.

All downstream expectations over the weather reduce to finite weighted sums
over the states of a :class:`WeatherModel`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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
    """

    states: tuple[tuple[float, float], ...]
    meta: str = ""

    def __post_init__(self) -> None:
        if not self.states:
            raise ConfigurationError("weather model needs at least one state")
        for w, p in self.states:
            if not (math.isfinite(w) and math.isfinite(p)):
                raise ParameterDomainError(f"non-finite weather state w={w}, p={p}")
        prev = -math.inf
        for w, p in self.states:
            if w < 0.0:
                raise ParameterDomainError(f"negative wind speed {w}")
            if p < 0.0:
                raise ParameterDomainError(f"negative probability {p} at w={w}")
            if w <= prev:
                raise ConfigurationError("wind speeds must be strictly increasing")
            prev = w
        total = math.fsum(p for _, p in self.states)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigurationError(f"probabilities sum to {total!r}, not 1")

    # cached on first use: states is immutable, and callers read these often
    @cached_property
    def speeds(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.states)

    @cached_property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.states)

    @cached_property
    def cubes(self) -> np.ndarray:
        """w**3 at each speed, read-only, through Python's float power (libm
        pow) as the scalar cost formulas compute it. numpy's vectorized
        power can round differently in the last bit, which would change the
        settlement bytes."""
        cubes = np.array([w**3 for w in self.speeds], dtype=float)
        cubes.flags.writeable = False
        return cubes

    def mean(self) -> float:
        return math.fsum(p * w for w, p in self.states)


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
    lam = mean_speed / math.gamma(1.0 + 1.0 / shape)
    p_cell = TRUNCATION_QUANTILE / n_points

    def quantile(u: float) -> float:
        return lam * (-math.log1p(-u)) ** (1.0 / shape)

    states = []
    for k in range(n_points):
        u_mid = (k + 0.5) * p_cell
        prob = p_cell if k < n_points - 1 else p_cell + (1.0 - TRUNCATION_QUANTILE)
        states.append((quantile(u_mid), prob))
    return WeatherModel(
        states=tuple(states),
        meta=f"weibull(shape={shape!r}, mean={mean_speed!r}, n_points={n_points})",
    )


def empirical_model(samples: Sequence[float] | Iterable[float]) -> WeatherModel:
    """Frequency distribution of observed wind speeds."""
    samples = list(samples)
    if not samples:
        raise ConfigurationError("empirical model needs at least one sample")
    for s in samples:
        if s < 0.0:
            raise ParameterDomainError(f"negative wind speed {s}")
    counts = Counter(samples)
    n = len(samples)
    states = tuple((float(w), counts[w] / n) for w in sorted(counts))
    return WeatherModel(states=states, meta=f"empirical({n} samples)")
