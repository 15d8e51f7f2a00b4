"""Post-solve payment transformations, each keeping every type's expected
payment, and hence its optimal quantity, unchanged.

The ex-post payment t(q) - t(q_worst) + C(q_worst, w, worst) needs a worst
type and makes its realized profit exactly 0 in every weather state. Other
types are protected only through a fallback, producing the worst type's
quantity (acceptance criterion 05); at its own quantity simple_worst's g2
loses up to 97.1 in some state. The alpha risk-shared payment
t(q(x)) + alpha*(C(q(x), w, x) - EC(q(x), x)) moves a share alpha of the
weather risk onto the buyer; with alpha = 1 every type's realized profit
stays at its U in every state, up to round-off.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterDomainError
from .mechanism import ContractOutcome


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
    Every entry equals the per-row expost_payment and risk_payment of
    tests/settlement_reference.py bit for bit: the columns repeat their
    operations in the same order.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ParameterDomainError(f"alpha {alpha} outside [0, 1]")
    inst = outcome.instance
    space, model, weather = inst.space, inst.model, inst.weather
    base = outcome.payment
    generation = np.empty((len(space), len(weather.speed_array)))
    cost = np.empty_like(generation)
    for i, (x, q_x) in enumerate(zip(space, outcome.q.tolist())):
        generation[i] = model.generation_array(x, weather)
        cost[i] = model.realized_cost_array(x, q_x, weather, generation[i])
    # t(q(x)) + alpha*(C(q(x), w, x) - EC(q(x), x)), built in place
    risk = cost - outcome.expected_cost[:, None]
    risk *= alpha
    risk += base[:, None]
    expost = None
    if inst.worst is not None:
        # t(q) - t(q_worst) + C(q_worst, w, worst), the worst type's cost
        # being its row of cost
        shift = base - base[inst.worst]
        expost = shift[:, None] + cost[inst.worst]
    return SettlementTable(
        type_ids=tuple(x.id for x in space),
        w=weather.speed_array,
        payment_base=base,
        generation=generation,
        realized_cost=cost,
        payment_expost=expost,
        payment_risk=risk,
        profit=risk - cost,
    )
