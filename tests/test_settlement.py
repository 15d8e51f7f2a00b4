import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from procure.costmodel import find_worst_type
from procure.errors import ParameterDomainError, UnsupportedConfigurationError
from procure.settlement import (
    expost_payment,
    require_worst_type,
    risk_payment,
    settlement_table,
)
from procure.weather import expect


def _worst(sc, outcome):
    return find_worst_type(sc.space, sc.model, sc.weather, outcome.schedule.grid.points)


def test_expost_worst_type_profit_zero_everywhere(worst_scenario, worst_outcome):
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    rec = worst_outcome.by_id(worst.id)
    for w in sc.weather.speeds:
        pay = expost_payment(worst_outcome, worst_outcome.schedule, worst, rec.q, w, sc.model)
        assert pay - sc.model.realized_cost(worst, rec.q, w) == 0.0


def test_expost_mean_matches_base_payment(worst_scenario, worst_outcome):
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    for x in sc.space:
        rec = worst_outcome.by_id(x.id)
        mean = expect(
            sc.weather,
            lambda w: expost_payment(
                worst_outcome, worst_outcome.schedule, worst, rec.q, w, sc.model
            ),
        )
        assert mean == pytest.approx(rec.payment, abs=1e-9)


def test_expost_participation_option_nonnegative(worst_scenario, worst_outcome):
    # the guarantee is an option: producing the worst type's quantity gives
    # every type a nonnegative realized profit in every weather state
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    q_safe = worst_outcome.by_id(worst.id).q
    for x in sc.space:
        for w in sc.weather.speeds:
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
    rec = worst_outcome.by_id("g2")
    calm = sc.weather.speeds[0]
    pay = expost_payment(worst_outcome, worst_outcome.schedule, worst, rec.q, calm, sc.model)
    assert pay - sc.model.realized_cost(sc.space.by_id("g2"), rec.q, calm) < 0.0


def test_expost_requires_worst_type(six_scenario, six_outcome):
    sc = six_scenario
    with pytest.raises(UnsupportedConfigurationError):
        require_worst_type(sc.space, sc.model, sc.weather, sc.grid.points)
    rows = settlement_table(
        six_outcome, six_outcome.schedule, sc.space, sc.model, sc.weather, alpha=0.5
    )
    assert all(r.payment_expost is None for r in rows)


def test_risk_payment_alpha_zero_is_base(worst_scenario, worst_outcome):
    sc = worst_scenario
    for x in sc.space:
        rec = worst_outcome.by_id(x.id)
        for w in sc.weather.speeds[::50]:
            assert risk_payment(worst_outcome, x, w, 0.0, sc.model) == rec.payment


def test_risk_payment_alpha_one_insures_completely(worst_scenario, worst_outcome):
    sc = worst_scenario
    for x in sc.space:
        rec = worst_outcome.by_id(x.id)
        profits = {
            risk_payment(worst_outcome, x, w, 1.0, sc.model)
            - sc.model.realized_cost(x, rec.q, w)
            for w in sc.weather.speeds
        }
        ref = rec.payment - rec.expected_cost
        assert all(abs(p - ref) <= 1e-9 for p in profits)


def test_risk_payment_mean_is_base(worst_scenario, worst_outcome):
    sc = worst_scenario
    for alpha in (0.0, 0.25, 0.5, 1.0):
        for x in sc.space:
            rec = worst_outcome.by_id(x.id)
            mean = expect(
                sc.weather, lambda w: risk_payment(worst_outcome, x, w, alpha, sc.model)
            )
            assert mean == pytest.approx(rec.payment, abs=1e-9)


def test_risk_payment_rejects_bad_alpha(worst_scenario, worst_outcome):
    sc = worst_scenario
    x = sc.space.types[0]
    with pytest.raises(ParameterDomainError):
        risk_payment(worst_outcome, x, 5.0, 1.5, sc.model)
    with pytest.raises(ParameterDomainError):
        risk_payment(worst_outcome, x, 5.0, -0.1, sc.model)


def _profit_variance(sc, outcome, x, alpha):
    rec = outcome.by_id(x.id)
    profits = [
        risk_payment(outcome, x, w, alpha, sc.model)
        - sc.model.realized_cost(x, rec.q, w)
        for w in sc.weather.speeds
    ]
    mean = math.fsum(p * v for p, v in zip(sc.weather.probs, profits))
    return math.fsum(p * (v - mean) ** 2 for p, v in zip(sc.weather.probs, profits))


@given(alpha=st.floats(0.0, 1.0, allow_nan=False))
def test_variance_scales_with_alpha(worst_scenario, worst_outcome, alpha):
    sc = worst_scenario
    x = sc.space.by_id("g2")
    base = _profit_variance(sc, worst_outcome, x, 0.0)
    got = _profit_variance(sc, worst_outcome, x, alpha)
    assert got == pytest.approx((1.0 - alpha) ** 2 * base, rel=1e-9, abs=1e-12)


def test_settlement_table_budget_identity(worst_scenario, worst_outcome):
    sc = worst_scenario
    rows = settlement_table(
        worst_outcome, worst_outcome.schedule, sc.space, sc.model, sc.weather, alpha=0.5
    )
    prob = dict(sc.weather.states)
    for col in ("payment_base", "payment_expost", "payment_risk"):
        total = math.fsum(
            sc.space.by_id(r.type_id).prior_weight * prob[r.w] * getattr(r, col)
            for r in rows
        )
        want = math.fsum(
            x.prior_weight * worst_outcome.by_id(x.id).payment for x in sc.space
        )
        assert total == pytest.approx(want, abs=1e-9)


def test_settlement_table_enumerates_all_states(worst_scenario, worst_outcome):
    sc = worst_scenario
    rows = settlement_table(
        worst_outcome, worst_outcome.schedule, sc.space, sc.model, sc.weather, alpha=0.25
    )
    assert len(rows) == len(sc.space) * len(sc.weather.states)
    g2 = [r for r in rows if r.type_id == "g2"]
    assert [r.w for r in g2] == list(sc.weather.speeds)
    for r in rows[:10]:
        assert r.profit == r.payment_risk - r.realized_cost


def test_payment_requires_grid_point(worst_scenario, worst_outcome):
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    with pytest.raises(ParameterDomainError):
        expost_payment(
            worst_outcome, worst_outcome.schedule, worst, 1.2345, sc.weather.speeds[0], sc.model
        )


def test_settlement_table_equals_per_row_payments(worst_scenario, worst_outcome):
    # the table computes both payments inline; they must match the public
    # per-row functions bit for bit
    sc = worst_scenario
    worst = _worst(sc, worst_outcome)
    schedule = worst_outcome.schedule
    rows = settlement_table(worst_outcome, schedule, sc.space, sc.model, sc.weather, alpha=0.3)
    for r in rows:
        q = worst_outcome.by_id(r.type_id).q
        x = sc.space.by_id(r.type_id)
        assert r.payment_expost == expost_payment(worst_outcome, schedule, worst, q, r.w, sc.model)
        assert r.payment_risk == risk_payment(worst_outcome, x, r.w, 0.3, sc.model)
    with pytest.raises(ParameterDomainError):
        settlement_table(worst_outcome, schedule, sc.space, sc.model, sc.weather, alpha=1.5)
