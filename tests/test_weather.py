import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import cdf, expect
from procure.errors import ConfigurationError, ParameterDomainError
from procure.weather import WeatherModel, empirical_model, weibull_model


def test_weibull_mean_recovery():
    model = weibull_model(3.0, 5.0, 200)
    assert abs(math.fsum(model.prob_array) - 1.0) <= 1e-12
    mean = expect(model, lambda w: w)
    assert abs(mean - 5.0) <= 0.05
    # closed-form Weibull mean is lambda * Gamma(1 + 1/shape)
    lam = 5.0 / math.gamma(1.0 + 1.0 / 3.0)
    assert abs(mean - lam * math.gamma(1.0 + 1.0 / 3.0)) <= 0.05


def test_weibull_shape_one_is_exponential():
    model = weibull_model(1.0, 1.0, 2000)
    # exponential with mean 1 has median ln 2
    assert abs(cdf(model, math.log(2.0)) - 0.5) <= 0.01


def test_weibull_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        weibull_model(3.0, 5.0, 1)
    with pytest.raises(ParameterDomainError):
        weibull_model(-1.0, 5.0, 10)
    with pytest.raises(ParameterDomainError):
        weibull_model(3.0, 0.0, 10)


def test_weibull_mean_error_shrinks_with_resolution():
    errs = [abs(expect(weibull_model(3.0, 5.0, n), lambda w: w) - 5.0) for n in (50, 200, 800)]
    assert errs[0] > errs[1] > errs[2]


def test_weibull_tail_mass_folded_into_top_cell():
    model = weibull_model(3.0, 5.0, 100)
    assert model.prob_array[-1] > model.prob_array[0]
    assert abs(math.fsum(model.prob_array) - 1.0) <= 1e-12


def test_empirical_frequencies():
    model = empirical_model([5.0, 5.0, 10.0])
    assert model.states == ((5.0, 2.0 / 3.0), (10.0, 1.0 / 3.0))


def test_empirical_degenerate():
    model = empirical_model([0.0])
    assert model.states == ((0.0, 1.0),)


def test_empirical_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        empirical_model([])
    with pytest.raises(ParameterDomainError):
        empirical_model([3.0, -1.0])


def test_model_invariants_enforced():
    with pytest.raises(ConfigurationError):
        WeatherModel([2.0, 1.0], [0.5, 0.5])
    with pytest.raises(ConfigurationError):
        WeatherModel([1.0, 2.0], [0.4, 0.4])
    with pytest.raises(ParameterDomainError):
        WeatherModel([-1.0], [1.0])


@pytest.mark.parametrize(
    "states, error, message",
    [
        (((1.0, 0.5), (1.0, 0.5)), ConfigurationError, "strictly increasing"),
        (((2.0, 0.5), (1.0, -0.5)), ParameterDomainError, "negative probability -0.5 at w=1.0"),
        (((1.0, 0.5), (-1.0, 0.5)), ParameterDomainError, "negative wind speed -1.0"),
        (((1.0, -0.5), (-1.0, 1.5)), ParameterDomainError, "negative probability -0.5 at w=1.0"),
    ],
)
def test_model_names_the_first_bad_state(states, error, message):
    with pytest.raises(error, match=message):
        WeatherModel(*zip(*states))


@pytest.mark.parametrize(
    "states",
    [
        ((1.0, math.nan),),
        ((math.nan, 1.0),),
        ((math.inf, 1.0),),
        ((-math.inf, 1.0),),
        ((1.0, 0.5), (2.0, math.inf)),
        ((1.0, 0.5), (math.nan, 0.5)),
    ],
)
def test_model_rejects_non_finite_states(states):
    # a NaN probability used to pass: the sum check compared NaN
    with pytest.raises(ParameterDomainError, match="non-finite weather state"):
        WeatherModel(*zip(*states))


@pytest.mark.parametrize("samples", [[3.0, math.nan, 5.0], [math.inf], [math.nan]])
def test_empirical_rejects_non_finite_samples(samples):
    with pytest.raises(ParameterDomainError, match="non-finite weather state"):
        empirical_model(samples)


def test_expect_normalization_and_weighted_mean():
    model = WeatherModel([5.0, 10.0], [2.0 / 3.0, 1.0 / 3.0])
    assert expect(model, lambda w: 1.0) == pytest.approx(1.0, abs=1e-15)
    assert expect(model, lambda w: w) == pytest.approx(20.0 / 3.0, abs=1e-12)


def test_expect_indicator_matches_weibull_cdf():
    model = weibull_model(3.0, 5.0, 400)
    lam = 5.0 / math.gamma(1.0 + 1.0 / 3.0)
    gamma_turbine = 2.0
    q = 150.0
    got = expect(model, lambda w: 1.0 if w**3 >= q / gamma_turbine else 0.0)
    want = math.exp(-(((q / gamma_turbine) ** (1.0 / 3.0)) / lam) ** 3)
    assert got == pytest.approx(want, abs=5e-3)


@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    speeds=st.lists(
        st.floats(0.0, 30.0, allow_nan=False), min_size=1, max_size=8, unique=True
    ),
)
def test_expect_is_linear(a, b, speeds):
    speeds = sorted(speeds)
    prob = 1.0 / len(speeds)
    model = WeatherModel(speeds, [prob] * len(speeds))
    f = lambda w: w**2
    g = lambda w: math.sin(w)
    lhs = expect(model, lambda w: a * f(w) + b * g(w))
    rhs = a * expect(model, f) + b * expect(model, g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize(
    "model",
    [weibull_model(3.0, 5.0, 2000), empirical_model([5.0, 5.0, 10.0, 0.0]),
     WeatherModel([0.0], [1.0])],
)
def test_state_arrays_are_read_only_and_bit_equal_to_the_tuples(model):
    for k, array in enumerate((model.speed_array, model.prob_array)):
        assert array.dtype == np.float64
        assert array.tobytes() == np.array([state[k] for state in model.states]).tobytes()
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    # the scalar cost formulas read Python floats, not numpy scalars
    assert {type(v) for state in model.states for v in state} == {float}


def test_model_is_its_two_columns():
    assert [f.name for f in dataclasses.fields(WeatherModel)] == ["speed_array", "prob_array"]
    assert not WeatherModel.__dataclass_params__.eq


@pytest.mark.parametrize("n", [2, 50, 200, 2000, 20000])
def test_weibull_columns_are_the_scalar_quantiles(n):
    # each speed is the quantile lam * (-log(1 - u))**(1/shape) at its cell's
    # midpoint u = (k + 0.5) * p_cell, computed a state at a time in floats
    model = weibull_model(3.0, 5.0, n)
    lam, p_cell = 5.0 / math.gamma(1.0 + 1.0 / 3.0), 0.9999 / n
    speeds = [lam * (-math.log1p(-((k + 0.5) * p_cell))) ** (1.0 / 3.0) for k in range(n)]
    probs = [p_cell] * (n - 1) + [p_cell + (1.0 - 0.9999)]
    assert model.states == tuple(zip(speeds, probs))
    assert model.cubes.tolist() == [w**3 for w in speeds]


def test_model_copies_the_callers_columns():
    speeds, probs = np.array([1.0, 2.0]), [0.25, 0.75]
    model = WeatherModel(speeds, probs)
    speeds[0], probs[0] = 9.0, 0.5
    assert model.states == ((1.0, 0.25), (2.0, 0.75))


@pytest.mark.parametrize(
    "speeds, probs, message",
    [([], [], "at least one state"),
     ([1.0, 2.0], [1.0], "one probability per speed"),
     ([[1.0]], [[1.0]], "one probability per speed")],
)
def test_model_refuses_columns_that_do_not_pair(speeds, probs, message):
    with pytest.raises(ConfigurationError, match=message):
        WeatherModel(speeds, probs)
