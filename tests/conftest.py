"""Shared fixtures: bundled scenario paths, a cached six-type solve and a
counter of expected-cost calls; test helpers over a weather model's states
and one that forges an outcome's columns."""
import dataclasses
import math
from collections import Counter
from pathlib import Path

import pytest

import procure
from procure.costmodel import SimpleCostModel, WindConventionalCostModel
from procure.mechanism import solve
from procure.scenario import load_scenario

# the scenarios bundled with the procure this suite imports: src/ under
# PYTHONPATH=src, site-packages where the package is installed
SCENARIO_DIR = Path(procure.__file__).parent / "scenarios"


def expect(weather, f):
    """Weighted sum of f over the weather model's states."""
    return math.fsum(p * f(w) for w, p in weather.states)


def cdf(weather, w):
    """P(W <= w) of the discrete weather model."""
    return math.fsum(p for wi, p in weather.states if wi <= w)


def forged(outcome, **columns):
    """A copy of outcome whose named fields or derived columns (payment,
    expected_cost, utility, buyer_utility) read the values given, whatever
    its schedule gives: a tampered outcome for a negative control."""
    copy = dataclasses.replace(outcome)
    for name, value in columns.items():
        object.__setattr__(copy, name, value)
    return copy


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def six_scenario():
    return load_scenario(SCENARIO_DIR / "six_types.yaml")


@pytest.fixture(scope="session")
def six_outcome(six_scenario):
    return solve(six_scenario.instance)


@pytest.fixture(scope="session")
def worst_scenario():
    return load_scenario(SCENARIO_DIR / "simple_worst.yaml")


@pytest.fixture(scope="session")
def worst_outcome(worst_scenario):
    return solve(worst_scenario.instance)


@pytest.fixture
def ec_calls(monkeypatch):
    """Counts expected_cost_grid calls per (type id, number of points)."""
    calls = Counter()
    for cls in (SimpleCostModel, WindConventionalCostModel):
        def counted(self, x, qs, weather, _original=cls.expected_cost_grid):
            calls[(x.id, len(qs))] += 1
            return _original(self, x, qs, weather)

        monkeypatch.setattr(cls, "expected_cost_grid", counted)
    return calls
