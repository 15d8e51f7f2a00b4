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
        WeatherModel(states=((2.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ConfigurationError):
        WeatherModel(states=((1.0, 0.4), (2.0, 0.4)))
    with pytest.raises(ParameterDomainError):
        WeatherModel(states=((-1.0, 1.0),))


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
        WeatherModel(states=states)


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
        WeatherModel(states=states)


@pytest.mark.parametrize("samples", [[3.0, math.nan, 5.0], [math.inf], [math.nan]])
def test_empirical_rejects_non_finite_samples(samples):
    with pytest.raises(ParameterDomainError, match="non-finite weather state"):
        empirical_model(samples)


def test_expect_normalization_and_weighted_mean():
    model = WeatherModel(states=((5.0, 2.0 / 3.0), (10.0, 1.0 / 3.0)))
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
    model = WeatherModel(states=tuple((w, prob) for w in speeds))
    f = lambda w: w**2
    g = lambda w: math.sin(w)
    lhs = expect(model, lambda w: a * f(w) + b * g(w))
    rhs = a * expect(model, f) + b * expect(model, g)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize(
    "model",
    [weibull_model(3.0, 5.0, 2000), empirical_model([5.0, 5.0, 10.0, 0.0]),
     WeatherModel(states=((0.0, 1.0),))],
)
def test_state_arrays_are_read_only_and_bit_equal_to_the_tuples(model):
    probs = tuple(p for _, p in model.states)
    for array, column in ((model.speed_array, model.speeds), (model.prob_array, probs)):
        assert array.dtype == np.float64
        assert array.tobytes() == np.array(column).tobytes()
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert model.speeds == tuple(w for w, _ in model.states)
