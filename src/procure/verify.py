"""Independent certification: constraint checks and a brute-force oracle.

Every check returns a CheckResult with its worst violation, tolerance and
witness. From the schedule under test, ic compares each type with every grid
quantity up to the closure point and identity derives the buyer's utility in
survival form. Gates (_roundoff derives the first three): ic and vp the
round-off of a utility; monotone's U half that plus the type order's slack;
pointwise the round-off of its sums; monotone's q half no cell, quasi_concavity
one; identity max(0.5% * max(1, |U|), dq * max |V' - p| over the open cells);
worst_type_pricing 1e-9 * max(1, max |cbar|); oracle 1e-9 * max(1, |oracle U|).
As in the solver, a price is a pointwise candidate when it equals a cell
cost, and a type survives it when its cell cost is at most that price.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costmodel import EQUAL_COST_TOL, CostModel, TypeSpace, no_costlier, worst_index
from .errors import ConfigurationError
from .mechanism import BuyerUtility, ContractOutcome, Instance, QuantityGrid
from .weather import WeatherModel

ORACLE_MAX_TYPES = 4
ORACLE_MAX_CELLS = 8
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    witness: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"check={self.name} status={status} worst={self.worst:.12g} "
            f"tol={self.tol:.12g} witness={self.witness}"
        )


def grid_tolerance(inst: Instance) -> float:
    return inst.grid.dq * float(np.max(inst.cbar))


def _roundoff(n_terms: int, magnitude: float) -> float:
    """The round-off of n_terms float terms of at most magnitude each.

    ic and vp read a utility two ways, as t0 plus the payment cumsum of p * dq
    less EC at k, and as -EC(0) plus _best_points' cumsum of (p - cbar) * dq:
    each n_open + 2 terms within |t0| + dq * sum |p| + max |EC[:, :n_open + 1]|,
    through about six roundings each. monotone's U half adds EQUAL_COST_TOL
    times the largest row scale, no_costlier's slack in the type order.
    pointwise sums priors (at most 1 in all) over the types, times vbar - price:
    2 * (n_types + 2) terms over max(|vbar| + |price|)."""
    return n_terms * 2.0**-52 * magnitude


def _utility_roundoff(outcome: ContractOutcome) -> float:
    schedule, n = outcome.schedule, outcome.schedule.n_open
    paid = abs(schedule.t0) + schedule.grid.dq * float(np.sum(np.abs(schedule.p)))
    return _roundoff(6 * (n + 2), paid + float(np.max(np.abs(outcome.instance.ec[:, : n + 1]))))


def check_ic(outcome: ContractOutcome) -> CheckResult:
    """No type gains more than round-off over its own bundle by delivering
    any grid quantity up to the schedule's closure point."""
    schedule, inst = outcome.schedule, outcome.instance
    tol = _utility_roundoff(outcome)
    n = schedule.n_open
    surplus = schedule.payments()[: n + 1] - inst.ec[:, : n + 1]
    gain = surplus.max(axis=1) - outcome.utility
    i = int(np.argmax(gain))
    worst = float(gain[i])
    q = schedule.grid.points[int(np.argmax(surplus[i]))]
    witness = f"{outcome.admissible_ids[i]}->q={q:.12g}"
    return CheckResult("ic", worst <= tol, worst, tol, witness)


def check_vp(outcome: ContractOutcome) -> CheckResult:
    """All utilities >= -tol and the minimum utility is 0 within tol."""
    tol = _utility_roundoff(outcome)
    i = int(np.argmin(outcome.utility))
    worst = abs(float(outcome.utility[i]))
    return CheckResult(
        "vp", worst <= tol, worst, tol, f"min U at {outcome.admissible_ids[i]}"
    )


def check_monotone(outcome: ContractOutcome) -> CheckResult:
    """Dominance-ordered pairs: the better type delivers no fewer cells (tol
    0, worst in MWh) and its utility is within tol of the worse type's."""
    inst, ids = outcome.instance, outcome.admissible_ids
    better, worse = np.nonzero(inst.better)
    cells = outcome.k[worse] - outcome.k[better]
    kind, viol = "U", outcome.utility[worse] - outcome.utility[better]
    tol = _utility_roundoff(outcome) + EQUAL_COST_TOL * max(1.0, float(np.max(np.abs(inst.ec))))
    if np.any(cells > 0):
        kind, viol, tol = "q", cells * inst.grid.dq, 0.0
    worst, witness = 0.0, "no ordered pairs"
    if viol.size:
        m = int(np.argmax(viol))  # the first largest, as a scan in this order finds it
        worst = float(viol[m])
        witness = f"{kind}({ids[better[m]]} better than {ids[worse[m]]})"
    return CheckResult("monotone", worst <= tol, worst, tol, witness)


def buyer_utility_survival(outcome: ContractOutcome) -> float:
    """Survival-integral form of the buyer's utility, from the schedule:
    -t0 * P[admissible] + sum over open cells of
    P[p(l) >= c(l, x)] (V'(l) - p(l)) dq at the cells' left endpoints.

    Every admissible type is paid t0, so the anchor is weighted by the
    admissible prior mass (1 for the full type set). Participation is
    tested against the cell-averaged costs that priced the schedule, so a
    type indifferent in a cell (price equal to its own cost) counts as
    producing there. Marginal utility stays pointwise at the left
    endpoint; its discretization error vanishes with the cell width.
    """
    schedule, inst = outcome.schedule, outcome.instance
    n = schedule.n_open
    anchor = schedule.t0 * math.fsum(inst.priors)
    if n == 0:
        return -anchor
    surv = inst.priors @ (schedule.p >= inst.cbar[:, :n])
    vmarg = inst.vprime.marginal(schedule.grid.points[:n])
    total = float(np.sum(surv * (vmarg - schedule.p) * schedule.grid.dq))
    return total - anchor


def check_identity(outcome: ContractOutcome) -> CheckResult:
    """Direct buyer utility vs the survival form of the schedule under
    test, within C*dq."""
    schedule = outcome.schedule
    err = abs(outcome.buyer_utility - buyer_utility_survival(outcome))
    scale = max(1.0, abs(outcome.buyer_utility))
    # The discretization error is first order in the cell width, so the
    # gate scales with dq (max per-cell margin as the constant), with a
    # 0.5% relative floor for fine grids.
    n = schedule.n_open
    vmarg = outcome.instance.vprime.marginal(schedule.grid.points[:n])
    c_gate = float(np.max(np.abs(vmarg - schedule.p), initial=0.0))
    tol = max(5e-3 * scale, c_gate * schedule.grid.dq)
    c_const = err / schedule.grid.dq
    return CheckResult(
        "identity", err <= tol, err, tol, f"C={c_const:.6g} (err per unit dq)"
    )


def check_pointwise(outcome: ContractOutcome) -> CheckResult:
    """Every open cell's price is a candidate and earns at least every
    candidate and closing; every closed cell earns closing's 0 at least.

    As in the solver, a price is a candidate when it equals a type's cell
    cost, and a type survives a price when its cell cost is at most that
    price; a price earns survival * (vbar - price). Closing earns what
    pricing at vbar earns, exactly 0. Closing a cell is beaten only where a
    type with a positive prior costs less than vbar, so only such closed
    cells are priced. Memory stays O(types x cells).
    """
    inst, p = outcome.instance, outcome.schedule.p
    n = len(p)
    missing = np.flatnonzero(~(inst.cbar[:, :n] == p).any(axis=0))
    if missing.size:
        return CheckResult(
            "pointwise", False, math.inf, 0.0, f"cell {missing[0]}: p not a candidate"
        )
    cheapest = np.min(
        inst.cbar[:, n:], axis=0, initial=np.inf, where=inst.priors[:, None] > 0.0
    )
    cells = np.concatenate([np.arange(n), n + np.flatnonzero(cheapest < inst.vbar[n:])])
    cbar, vbar = inst.cbar[:, cells], inst.vbar[cells]
    # rows: each candidate, closing, then the schedule's choice
    prices = np.vstack([cbar, vbar, np.concatenate([p, vbar[n:]])])
    # survival at every price, adding the types' priors in type order
    surv = inst.priors[0] * (cbar[0] <= prices)
    for prior, costs in zip(inst.priors[1:], cbar[1:]):
        surv += prior * (costs <= prices)
    obj = surv * (vbar - prices)
    gap = np.max(obj[:-1] - obj[-1], axis=0, initial=0.0)
    worst = float(np.max(gap, initial=0.0))
    witness = f"cell {cells[int(np.argmax(gap))]}" if worst > 0.0 else "none"
    tol = _roundoff(2 * (len(cbar) + 2), float(np.max(np.abs(vbar) + np.abs(prices), initial=0.0)))
    return CheckResult("pointwise", worst <= tol, worst, tol, witness)


def check_quasi_concavity(outcome: ContractOutcome) -> CheckResult:
    """Each type's grid index against the threshold rule on the schedule
    under test, within one cell (worst is cells * dq): produce through the
    last open cell whose price covers the type's average marginal cost."""
    schedule, cbar = outcome.schedule, outcome.instance.cbar
    dq, last = schedule.grid.dq, schedule.n_open
    scale = np.maximum(1.0, np.max(np.abs(cbar), axis=1))
    ok = schedule.p >= cbar[:, :last] - 1e-12 * scale[:, None]
    thr = np.zeros(len(cbar), dtype=int)
    if last > 0:
        thr[:] = np.where(ok.any(axis=1), last - np.argmax(ok[:, ::-1], axis=1), 0)
    cells = np.abs(outcome.k - thr)
    i = int(np.argmax(cells))
    witness = outcome.admissible_ids[i] if cells[i] > 0 else "none"
    return CheckResult("quasi_concavity", bool(cells[i] <= 1), float(cells[i]) * dq, dq, witness)


def check_worst_type_pricing(outcome: ContractOutcome) -> Optional[CheckResult]:
    """p equals the worst type's marginal cost up to its chosen quantity
    (within one cell). None when there is no worst type."""
    schedule, inst = outcome.schedule, outcome.instance
    if inst.worst_type is None:
        return None
    k = int(outcome.k[inst.worst])
    stop = max(0, min(k - 1, schedule.n_open))  # allow one-cell slack
    dev = float(
        np.max(np.abs(schedule.p[:stop] - inst.cbar[inst.worst, :stop]), initial=0.0)
    )
    tol = 1e-9 * max(1.0, float(np.max(np.abs(inst.cbar))))
    return CheckResult(
        "worst_type_pricing", dev <= tol, dev, tol,
        f"worst={inst.worst_type.id}, cells<{stop}",
    )


def oracle_solve(
    space: TypeSpace,
    model: CostModel,
    weather: WeatherModel,
    vprime: BuyerUtility,
    grid: QuantityGrid,
) -> float:
    """Brute-force optimum over all per-cell price assignments.

    Enumerates every assignment of each cell's price from that cell's
    candidate set (the per-type average marginal costs) plus "closed",
    computes each induced schedule's best responses, anchors the payment
    the same way the solver does, and returns the best direct buyer
    utility. Deliberately shares no schedule-construction code with the
    solver.
    """
    if len(space) > ORACLE_MAX_TYPES:
        raise ConfigurationError(f"oracle limited to {ORACLE_MAX_TYPES} types")
    if grid.n_cells > ORACLE_MAX_CELLS:
        raise ConfigurationError(f"oracle limited to {ORACLE_MAX_CELLS} grid cells")

    pts = grid.points
    dq = grid.dq
    n_cells = grid.n_cells
    ecs = np.array([model.expected_cost_grid(x, pts, weather) for x in space])
    priors = np.array([x.prior_weight for x in space])
    cbar = np.diff(ecs, axis=1) / dq  # candidates per cell
    values = vprime.value(pts)

    worst = worst_index(no_costlier(ecs))
    if worst is not None:
        t0_fixed = model.realized_cost(space.types[worst], 0.0, weather.speeds[0])

    n_types = len(space)
    n_choices = n_types + 1  # candidate per type, plus closed
    n_combos = n_choices**n_cells
    # assignment idx gives cell j digit j of idx in base n_choices, the
    # first cell most significant (itertools.product's order); each chunk
    # is decoded from its indices, so no table of all assignments is held
    place = n_choices ** np.arange(n_cells - 1, -1, -1, dtype=np.int64)

    cand = np.concatenate([cbar, np.zeros((1, n_cells))], axis=0)
    cell_ix = np.arange(n_cells)[None, :]

    best = -math.inf
    for start in range(0, n_combos, 50000):
        chunk = np.arange(start, min(start + 50000, n_combos))[:, None] // place % n_choices
        closed = chunk == n_types
        # price per (assignment, cell); closed cells contribute nothing but cap q
        prices = np.where(closed, 0.0, cand[chunk, cell_ix])
        cum = np.concatenate(
            [np.zeros((chunk.shape[0], 1)), np.cumsum(prices * dq, axis=1)], axis=1
        )
        # point k is deliverable iff no closed cell before it
        blocked = np.concatenate(
            [np.zeros((chunk.shape[0], 1), dtype=bool), np.cumsum(closed, axis=1) > 0],
            axis=1,
        )
        q_idx = np.empty((n_types, chunk.shape[0]), dtype=np.int64)
        for i in range(n_types):
            # Per-cell margins keep indifference ties exact (a cell priced
            # at this type's own cost has margin exactly zero), so the
            # largest-quantity tie-break matches the solver's.
            margins = np.cumsum((prices - cbar[i][None, :]) * dq, axis=1)
            util = np.concatenate(
                [np.zeros((chunk.shape[0], 1)), margins], axis=1
            ) - ecs[i, 0]
            util = np.where(blocked, -np.inf, util)
            rev = util[:, ::-1]
            q_idx[i] = n_cells - np.argmax(rev, axis=1)
        cum_at = np.take_along_axis(cum, q_idx.T, axis=1).T
        ec_at = ecs[np.arange(n_types)[:, None], q_idx]
        if worst is not None:
            t0 = np.full(chunk.shape[0], t0_fixed)
        else:
            t0 = np.max(ec_at - cum_at, axis=0)
        v_at = values[q_idx]
        buyer = priors @ (v_at - (t0[None, :] + cum_at))
        m = float(np.max(buyer))
        if m > best:
            best = m
    return best


def check_oracle(outcome: ContractOutcome) -> CheckResult:
    inst = outcome.instance
    oracle = oracle_solve(
        inst.space, inst.model, inst.weather, inst.vprime, outcome.schedule.grid
    )
    gap = abs(oracle - outcome.buyer_utility)
    scale = max(1.0, abs(oracle))
    return CheckResult(
        "oracle", gap <= ORACLE_TOL * scale, gap, ORACLE_TOL * scale,
        f"oracle={oracle:.12g} solver={outcome.buyer_utility:.12g}",
    )


def run_checks(outcome: ContractOutcome) -> list[CheckResult]:
    """Full certification suite in a fixed order; oracle concordance is
    included when the instance is small enough to enumerate."""
    results = [
        check_ic(outcome),
        check_vp(outcome),
        check_monotone(outcome),
        check_identity(outcome),
        check_pointwise(outcome),
        check_quasi_concavity(outcome),
    ]
    wt = check_worst_type_pricing(outcome)
    if wt is not None:
        results.append(wt)
    n_types, n_cells = len(outcome.instance.space), outcome.schedule.grid.n_cells
    if n_types <= ORACLE_MAX_TYPES and n_cells <= ORACLE_MAX_CELLS:
        results.append(check_oracle(outcome))
    return results


def report_text(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    width = max(len(r.name) for r in results)
    lines.append("")
    lines.append(f"{'check':<{width}}  result  worst/tol")
    for r in results:
        # with a zero tol: 0 at a worst of 0, else an infinity of worst's sign
        zero_tol = 0.0 if r.worst == 0 else math.copysign(math.inf, r.worst)
        margin = r.worst / r.tol if r.tol else zero_tol
        lines.append(f"{r.name:<{width}}  {'pass' if r.passed else 'FAIL'}    {margin:.3g}")
    return "\n".join(lines)
