"""The two settlement payments one (type, weather state) at a time, with the
scalar cost calls: the reference that settlement_table's columns match bit
for bit, and that criteria 05 and 06 read."""
from __future__ import annotations

import numpy as np

from procure.costmodel import CostModel, SellerType
from procure.errors import ParameterDomainError
from procure.mechanism import ContractOutcome, PriceSchedule, QuantityGrid


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
    q_worst = float(outcome.q[outcome.instance.space.index(worst.id)])
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
    completely (its realized profit no longer depends on the weather).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterDomainError(f"alpha {alpha} outside [0, 1]")
    i = outcome.instance.space.index(x.id)
    cost = model.realized_cost(x, float(outcome.q[i]), w)
    return float(outcome.payment[i]) + alpha * (cost - float(outcome.expected_cost[i]))


def _payment_at(grid: QuantityGrid, pts: np.ndarray, t: np.ndarray, q: float) -> float:
    """t(q) from the payments t at the grid points pts; q must be one."""
    k = int(round(q / grid.dq))
    if not (0 <= k < len(pts)) or abs(pts[k] - q) > 1e-9 * max(1.0, q):
        raise ParameterDomainError(f"quantity {q} is not a grid point")
    return float(t[k])
