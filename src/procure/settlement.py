"""Post-solve payment transformations.

Two modifications of the base payment schedule: a weather-indexed payment
that makes participation profitable for every weather realization (it
requires a worst type), and an alpha-parameterized payment that shifts a
share of the weather risk onto the buyer. Both leave every type's expected
payment, and hence its optimal quantity, unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costmodel import CostModel, SellerType, TypeSpace, find_worst_type
from .errors import ParameterDomainError, UnsupportedConfigurationError
from .mechanism import ContractOutcome, PriceSchedule, QuantityGrid, instance_for
from .weather import WeatherModel


def expost_payment(
    outcome: ContractOutcome,
    schedule: PriceSchedule,
    worst: SellerType,
    q: float,
    w: float,
    model: CostModel,
) -> float:
    """Weather-indexed payment t(q) - t(q_worst) + C(q_worst, w, worst).

    The correction has zero weather mean, so expected payments match the
    base schedule; the worst type's realized profit is identically zero.
    """
    grid, pts, t = schedule.grid, schedule.grid.points, schedule.payments()
    q_worst = outcome.by_id(worst.id).q
    return (
        _payment_at(grid, pts, t, q)
        - _payment_at(grid, pts, t, q_worst)
        + model.realized_cost(worst, q_worst, w)
    )


def risk_payment(
    outcome: ContractOutcome,
    x: SellerType,
    w: float,
    alpha: float,
    model: CostModel,
) -> float:
    """Risk-shared payment t(q(x)) + alpha*(C(q(x), w, x) - EC(q(x), x)).

    alpha = 0 reproduces the base payment; alpha = 1 insures the seller
    completely (her realized profit no longer depends on the weather).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterDomainError(f"alpha {alpha} outside [0, 1]")
    rec = outcome.by_id(x.id)
    return rec.payment + alpha * (model.realized_cost(x, rec.q, w) - rec.expected_cost)


def _payment_at(grid: QuantityGrid, pts: np.ndarray, t: np.ndarray, q: float) -> float:
    """t(q) from the payments t at the grid points pts; q must be one."""
    k = int(round(q / grid.dq))
    if not (0 <= k < len(pts)) or abs(pts[k] - q) > 1e-9 * max(1.0, q):
        raise ParameterDomainError(f"quantity {q} is not a grid point")
    return float(t[k])


@dataclass(frozen=True)
class SettlementRow:
    type_id: str
    w: float
    generation: float
    realized_cost: float
    payment_base: float
    payment_expost: Optional[float]
    payment_risk: float
    profit: float


def settlement_table(
    outcome: ContractOutcome,
    schedule: PriceSchedule,
    space: TypeSpace,
    model: CostModel,
    weather: WeatherModel,
    alpha: float,
) -> list[SettlementRow]:
    """Per (type, weather-state) settlement enumeration.

    The ex-post column is present only when a worst type exists (the
    construction needs one); profit is under the risk-shared payment.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterDomainError(f"alpha {alpha} outside [0, 1]")
    grid = schedule.grid
    worst = instance_for(space, model, weather, grid, instance=outcome.instance).worst_type
    pts, t = grid.points, schedule.payments()
    speeds = weather.speeds
    if worst is not None:
        q_worst = outcome.by_id(worst.id).q
        t_worst = _payment_at(grid, pts, t, q_worst)
        worst_cost = [model.realized_cost(worst, q_worst, w) for w in speeds]
    rows = []
    for x in space:
        rec = outcome.by_id(x.id)
        if worst is not None:
            # t(q) - t(q_worst) + C(q_worst, w, worst), as in expost_payment
            shift = _payment_at(grid, pts, t, rec.q) - t_worst
            expost = [shift + c for c in worst_cost]
        else:
            expost = [None] * len(speeds)
        for w, payment_expost in zip(speeds, expost):
            cost = model.realized_cost(x, rec.q, w)
            # risk_payment, on the cost already in hand
            risk = rec.payment + alpha * (cost - rec.expected_cost)
            rows.append(
                SettlementRow(
                    type_id=x.id,
                    w=w,
                    generation=model.generation(x, w),
                    realized_cost=cost,
                    payment_base=rec.payment,
                    payment_expost=payment_expost,
                    payment_risk=risk,
                    profit=risk - cost,
                )
            )
    return rows


def require_worst_type(
    space: TypeSpace, model: CostModel, weather: WeatherModel, qs: np.ndarray
) -> SellerType:
    worst = find_worst_type(space, model, weather, qs)
    if worst is None:
        raise UnsupportedConfigurationError(
            "ex-post settlement needs a worst type; this type space has none "
            "(use the risk-shared payment instead)"
        )
    return worst
