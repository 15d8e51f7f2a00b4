"""Post-solve payment transformations.

Two modifications of the base payment schedule: a weather-indexed payment
that makes participation profitable for every weather realization (it
requires a worst type), and an alpha-parameterized payment that shifts a
share of the weather risk onto the buyer. Both leave every type's expected
payment, and hence its optimal quantity, unchanged.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costmodel import CostModel, SellerType
from .errors import ParameterDomainError
from .mechanism import ContractOutcome, PriceSchedule, QuantityGrid


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
    completely (her realized profit no longer depends on the weather).
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


@dataclass(frozen=True, eq=False)
class SettlementTable:
    """Per (type, weather-state) settlement, stored as columns.

    type_ids and payment_base run over the types, w over the weather
    states, and the other columns are types x states arrays. Iterating
    yields the rows type by type, each type through every state in order.
    payment_expost is None when there is no worst type.
    """

    type_ids: tuple[str, ...]
    w: np.ndarray
    payment_base: np.ndarray
    generation: np.ndarray
    realized_cost: np.ndarray
    payment_expost: Optional[np.ndarray]
    payment_risk: np.ndarray
    profit: np.ndarray

    def __len__(self) -> int:
        return len(self.type_ids) * len(self.w)

    def __iter__(self) -> Iterator[SettlementRow]:
        n_states = len(self.w)
        if self.payment_expost is None:
            expost = [[None] * n_states] * len(self.type_ids)
        else:
            expost = self.payment_expost.tolist()
        columns = zip(
            self.generation.tolist(),
            self.realized_cost.tolist(),
            expost,
            self.payment_risk.tolist(),
            self.profit.tolist(),
        )
        w = self.w.tolist()
        for type_id, base, per_state in zip(self.type_ids, self.payment_base.tolist(), columns):
            for w_j, gen, cost, payment_expost, risk, profit in zip(w, *per_state):
                yield SettlementRow(type_id, w_j, gen, cost, base, payment_expost, risk, profit)


def settlement_table(outcome: ContractOutcome, alpha: float) -> SettlementTable:
    """Per (type, weather-state) settlement of the outcome's admissible
    types under its schedule.

    The ex-post column is present only when a worst type exists (the
    construction needs one); profit is under the risk-shared payment.
    Every entry equals the per-row expost_payment and risk_payment bit for
    bit: the columns repeat their operations in the same order.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterDomainError(f"alpha {alpha} outside [0, 1]")
    inst = outcome.instance
    space, model, weather = inst.space, inst.model, inst.weather
    q = outcome.q.tolist()
    base = outcome.payment
    generation = [model.generation_array(x, weather) for x in space]
    cost = np.array(
        [
            model.realized_cost_array(x, q_x, weather, g)
            for x, q_x, g in zip(space, q, generation)
        ]
    )
    # risk_payment: t(q(x)) + alpha*(C(q(x), w, x) - EC(q(x), x))
    risk = base[:, None] + alpha * (cost - outcome.expected_cost[:, None])
    expost = None
    if inst.worst is not None:
        # expost_payment: t(q) - t(q_worst) + C(q_worst, w, worst), the
        # worst type's cost being its row of cost
        shift = base - base[inst.worst]
        expost = shift[:, None] + cost[inst.worst]
    return SettlementTable(
        type_ids=tuple(x.id for x in space),
        w=weather.speed_array,
        payment_base=base,
        generation=np.array(generation),
        realized_cost=cost,
        payment_expost=expost,
        payment_risk=risk,
        profit=risk - cost,
    )
