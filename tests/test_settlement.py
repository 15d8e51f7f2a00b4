import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import expect
from settlement_reference import expost_payment, risk_payment
from procure.costmodel import CostModel, SellerType, TypeSpace, find_worst_type
from procure.errors import ParameterDomainError
from procure.settlement import settlement_table
from procure.mechanism import BuyerUtility, Instance, QuantityGrid, solve
from procure.weather import weibull_model


def _worst(sc, outcome):
    return find_worst_type(sc.space, sc.model, sc.weather, outcome.schedule.grid.points)


def _q(outcome, x):
    """x's best-response quantity."""
    return float(outcome.q[outcome.instance.space.index(x.id)])


def _payment(outcome, x):
    return float(outcome.payment[outcome.instance.space.index(x.id)])


def test_expost_worst_type_profit_zero_everywhere(worst_scenario, worst_outcome):
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    q = _q(worst_outcome, worst)
    for w in sc.weather.speed_array.tolist():
        pay = expost_payment(worst_outcome, worst_outcome.schedule, worst, q, w, sc.model)
        assert pay - sc.model.realized_cost(worst, q, w) == 0.0


def test_expost_mean_matches_base_payment(worst_scenario, worst_outcome):
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    for x in sc.space:
        q = _q(worst_outcome, x)
        mean = expect(
            sc.weather,
            lambda w: expost_payment(
                worst_outcome, worst_outcome.schedule, worst, q, w, sc.model
            ),
        )
        assert mean == pytest.approx(_payment(worst_outcome, x), abs=1e-9)


def test_expost_participation_option_nonnegative(worst_scenario, worst_outcome):
    # the guarantee is an option: producing the worst type's quantity gives
    # every type a nonnegative realized profit in every weather state
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    q_safe = _q(worst_outcome, worst)
    for x in sc.space:
        for w in sc.weather.speed_array.tolist():
            pay = expost_payment(
                worst_outcome, worst_outcome.schedule, worst, q_safe, w, sc.model
            )
            assert pay - sc.model.realized_cost(x, q_safe, w) >= -1e-9


def test_expost_profit_at_own_bundle_can_be_negative(worst_scenario, worst_outcome):
    # at its interim-optimal quantity the better type still bears weather
    # risk: in a near-calm state its realized cost exceeds the indexed
    # payment; only the fallback option above is protected
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    g2 = sc.space.by_id("g2")
    q = _q(worst_outcome, g2)
    calm = sc.weather.speed_array[0].item()
    pay = expost_payment(worst_outcome, worst_outcome.schedule, worst, q, calm, sc.model)
    assert pay - sc.model.realized_cost(g2, q, calm) < 0.0


def test_settlement_columns_hold_what_the_docstring_says(worst_scenario, worst_outcome):
    # the ex-post column zeroes the worst type's profit in every state and
    # leaves g2, at its own quantity, below 0 in some state; alpha = 1 keeps
    # every type's profit at its U in every state, up to round-off
    sc = worst_scenario
    assert sc.instance.worst_type.id == "g1"
    table = settlement_table(worst_outcome, alpha=1.0)
    expost_profit = table.payment_expost - table.realized_cost
    g1, g2 = sc.space.index("g1"), sc.space.index("g2")
    assert (expost_profit[g1] == 0.0).all()
    assert expost_profit[g2].min() == pytest.approx(-97.1156, abs=1e-4)
    scale = np.abs(table.realized_cost).max()
    assert np.abs(table.profit - worst_outcome.utility[:, None]).max() <= 1e-12 * scale


def test_expost_requires_worst_type(six_scenario, six_outcome):
    # the six types have no worst type, so the table has no ex-post column
    sc = six_scenario
    assert find_worst_type(sc.space, sc.model, sc.weather, sc.grid.points) is None
    rows = settlement_table(six_outcome, alpha=0.5)
    assert rows.payment_expost is None
    assert all(r.payment_expost is None for r in rows)


def test_risk_payment_alpha_zero_is_base(worst_scenario, worst_outcome):
    sc = worst_scenario
    for x in sc.space:
        for w in sc.weather.speed_array[::50].tolist():
            assert risk_payment(worst_outcome, x, w, 0.0, sc.model) == _payment(worst_outcome, x)


def test_risk_payment_alpha_one_insures_completely(worst_scenario, worst_outcome):
    sc = worst_scenario
    for i, x in enumerate(sc.space):
        profits = {
            risk_payment(worst_outcome, x, w, 1.0, sc.model)
            - sc.model.realized_cost(x, _q(worst_outcome, x), w)
            for w in sc.weather.speed_array.tolist()
        }
        ref = worst_outcome.payment[i] - worst_outcome.expected_cost[i]
        assert all(abs(p - ref) <= 1e-9 for p in profits)


def test_risk_payment_mean_is_base(worst_scenario, worst_outcome):
    sc = worst_scenario
    for alpha in (0.0, 0.25, 0.5, 1.0):
        for x in sc.space:
            mean = expect(
                sc.weather, lambda w: risk_payment(worst_outcome, x, w, alpha, sc.model)
            )
            assert mean == pytest.approx(_payment(worst_outcome, x), abs=1e-9)


def test_risk_payment_rejects_bad_alpha(worst_scenario, worst_outcome):
    sc = worst_scenario
    x = sc.space.types[0]
    with pytest.raises(ParameterDomainError):
        risk_payment(worst_outcome, x, 5.0, 1.5, sc.model)
    with pytest.raises(ParameterDomainError):
        risk_payment(worst_outcome, x, 5.0, -0.1, sc.model)


def _profit_variance(sc, outcome, x, alpha):
    q = _q(outcome, x)
    profits = [
        risk_payment(outcome, x, w, alpha, sc.model)
        - sc.model.realized_cost(x, q, w)
        for w in sc.weather.speed_array.tolist()
    ]
    mean = math.fsum(p * v for (_, p), v in zip(sc.weather.states, profits))
    return math.fsum(p * (v - mean) ** 2 for (_, p), v in zip(sc.weather.states, profits))


@given(alpha=st.floats(0.0, 1.0, allow_nan=False))
def test_variance_scales_with_alpha(worst_scenario, worst_outcome, alpha):
    sc = worst_scenario
    x = sc.space.by_id("g2")
    base = _profit_variance(sc, worst_outcome, x, 0.0)
    got = _profit_variance(sc, worst_outcome, x, alpha)
    assert got == pytest.approx((1.0 - alpha) ** 2 * base, rel=1e-9, abs=1e-12)


def test_settlement_table_budget_identity(worst_scenario, worst_outcome):
    sc = worst_scenario
    rows = settlement_table(worst_outcome, alpha=0.5)
    prob = dict(sc.weather.states)
    for col in ("payment_base", "payment_expost", "payment_risk"):
        total = math.fsum(
            sc.space.by_id(r.type_id).prior_weight * prob[r.w] * getattr(r, col)
            for r in rows
        )
        want = math.fsum(x.prior_weight * _payment(worst_outcome, x) for x in sc.space)
        assert total == pytest.approx(want, abs=1e-9)


def test_settlement_table_enumerates_all_states(worst_scenario, worst_outcome):
    sc = worst_scenario
    rows = settlement_table(worst_outcome, alpha=0.25)
    assert len(rows) == len(sc.space) * len(sc.weather.states)
    g2 = [r for r in rows if r.type_id == "g2"]
    assert [r.w for r in g2] == sc.weather.speed_array.tolist()
    for r in itertools.islice(rows, 10):
        assert r.profit == r.payment_risk - r.realized_cost


def test_payment_requires_grid_point(worst_scenario, worst_outcome):
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    with pytest.raises(ParameterDomainError):
        expost_payment(
            worst_outcome, worst_outcome.schedule, worst, 1.2345, sc.weather.states[0][0], sc.model
        )


class SqrtWindModel(CostModel):
    """Plugin model with a wind part: gamma*sqrt(w) free, the rest at 1.3."""

    param_names = ("c0", "gamma")

    def generation(self, x, w):
        return x.param("gamma") * math.sqrt(w)

    def realized_cost(self, x, q, w):
        return x.param("c0") + 1.3 * max(q - x.param("gamma") * math.sqrt(w), 0.0)


def _plugin_case():
    # a plugin model with a wind part, solved on a small grid
    model = SqrtWindModel()
    space = TypeSpace(
        (
            SellerType("p1", {"c0": 1.0, "gamma": 1.0}, 0.5),
            SellerType("p2", {"c0": 1.0, "gamma": 2.0}, 0.5),
        )
    )
    weather = weibull_model(3.0, 5.0, 30)
    grid = QuantityGrid(q_max=8.0, n_cells=40)
    outcome = solve(Instance.build(space, model, weather, grid, BuyerUtility.affine(1.0, 0.05)))
    return space, model, weather, outcome


@pytest.mark.parametrize("case", ["simple", "wind_conventional", "plugin"])
def test_settlement_columns_equal_scalar_functions(case, worst_scenario, six_scenario):
    if case == "simple":
        sc = worst_scenario
        space, model, weather = sc.space, sc.model, sc.weather
        outcome = solve(sc.instance)
    elif case == "wind_conventional":
        # b dominates a, so the pair has a worst type and an ex-post column
        sc = six_scenario
        space, model, weather = sc.space.subset(["a", "b"]), sc.model, sc.weather
        outcome = solve(sc.instance, admissible=("a", "b"))
    else:
        space, model, weather, outcome = _plugin_case()
    schedule = outcome.schedule
    worst = find_worst_type(space, model, weather, schedule.grid.points)
    assert worst is not None
    table = settlement_table(outcome, alpha=0.35)
    assert table.type_ids == tuple(x.id for x in space)
    assert table.w.tolist() == weather.speed_array.tolist()
    for i, x in enumerate(space):
        q = _q(outcome, x)
        assert table.payment_base[i] == _payment(outcome, x)
        for j, w in enumerate(weather.speed_array.tolist()):
            assert table.generation[i, j] == model.generation(x, w)
            assert table.realized_cost[i, j] == model.realized_cost(x, q, w)
            assert table.payment_risk[i, j] == risk_payment(outcome, x, w, 0.35, model)
            assert table.payment_expost[i, j] == expost_payment(
                outcome, schedule, worst, q, w, model
            )
    assert np.array_equal(table.profit, table.payment_risk - table.realized_cost)
    with pytest.raises(ParameterDomainError):
        settlement_table(outcome, alpha=1.5)


def test_settlement_table_is_a_row_sequence(worst_scenario, worst_outcome):
    sc = worst_scenario
    table = settlement_table(worst_outcome, alpha=0.5)
    n_states = len(sc.weather.states)
    rows = list(table)
    assert len(table) == len(rows) == 2 * n_states
    r = rows[n_states + 4]
    assert (r.type_id, r.w) == ("g2", sc.weather.speed_array[4].item())
    assert r.realized_cost == table.realized_cost[1, 4]
    assert r.payment_expost == table.payment_expost[1, 4]
    assert type(r.profit) is float


def test_cubes_are_computed_once_per_weather_model(worst_scenario, worst_outcome):
    weather = worst_scenario.weather
    settlement_table(worst_outcome, 0.5)
    cubes = weather.cubes
    settlement_table(worst_outcome, 0.3)
    assert weather.cubes is cubes
    assert not cubes.flags.writeable
    # libm's power, as the scalar formulas compute it, bit for bit
    assert cubes.tolist() == [w**3 for w in weather.speed_array.tolist()]
