"""Independent certification: constraint checks and a brute-force oracle.

Every check returns a CheckResult with its worst violation, tolerance and
witness. From the schedule under test, ic compares each type with every grid
quantity up to the closure point and identity derives the buyer's utility in
survival form. Gates (_roundoff derives the first five): ic and vp the
round-off of a utility; monotone's U half that plus the type order's slack;
pointwise the round-off of its sums; oracle the round-off of one menu's
utility read as the solver's and as the oracle's; worst_type_pricing that of
two cell costs; monotone's q half no cell, quasi_concavity one; identity
max(0.5% * max(1, |U|), dq * max |V' - p| over the open cells). As in the
solver, every check compares prices with cell costs exactly: a candidate
equals a cell cost, and a type survives (produces at) a price no lower than
its cell cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costmodel import EQUAL_COST_TOL, CostModel, TypeSpace
from .errors import ConfigurationError
from .mechanism import BuyerUtility, ContractOutcome, Instance, QuantityGrid
from .weather import WeatherModel

ORACLE_MAX_TYPES = 4
ORACLE_MAX_CELLS = 8


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
    2 * (n_types + 2) terms over max(|vbar| + |price|).
    worst_type_pricing: a price is a cell cost (EC_{j+1} - EC_j) / dq, and
    two types that differ only in c0 have equal ones in exact arithmetic.
    An EC entry, a dot product over the weather states, is within n_states
    + 2 units of its terms' sum of magnitudes, EC itself where every term is
    >= 0 (the built-in models); the difference and the quotient add two
    units of max |EC| each: 4 * (n_states + 4) terms over max |EC|, / dq.

    The oracle's cycle test: a gain EC_y(k_y) - EC_x(k_y) is one rounded
    difference of entries of at most max |EC|, so within one unit of it, and
    a rent, at most n_types gains along a path, is at most 2 * n_types *
    max |EC|: one relaxation rounds within n_types units, and a rent after
    n_types rounds within n_types**2. Without a positive cycle the extra
    round rises by at most two rents' errors, one relaxation's and the
    cycle's n_types gains': 2 * n_types * (n_types + 1) units of max |EC|.
    oracle reads one menu's utility two ways: the solver's payments within
    ic's gate, and the oracle's rents within the cycle test's terms; each
    side then sums prior * (V - payment) over the types, where a payment,
    EC plus a rent, is at most (2 * n_types + 1) * max |EC|: ic's gate plus
    2 * (n_types + 1)**2 terms over max |V| + (2 * n_types + 1) * max |EC|."""
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

    A price earns survival * (vbar - price). Closing earns what pricing at
    vbar earns, exactly 0. Closing a cell is beaten only where a type with a
    positive prior costs less than vbar, so only such closed cells are
    priced. Memory stays O(types x cells).
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
    last open cell whose price is at least the type's cell cost."""
    schedule, cbar = outcome.schedule, outcome.instance.cbar
    dq, last = schedule.grid.dq, schedule.n_open
    ok = schedule.p >= cbar[:, :last]
    thr = np.max(np.where(ok, np.arange(1, last + 1), 0), axis=1, initial=0)
    cells = np.abs(outcome.k - thr)
    i = int(np.argmax(cells))
    witness = outcome.admissible_ids[i] if cells[i] > 0 else "none"
    return CheckResult("quasi_concavity", bool(cells[i] <= 1), float(cells[i]) * dq, dq, witness)


def check_worst_type_pricing(outcome: ContractOutcome) -> Optional[CheckResult]:
    """p equals the worst type's cell cost, within two cell costs' round-off,
    up to its chosen quantity (within one cell). None without a worst type."""
    schedule, inst = outcome.schedule, outcome.instance
    if inst.worst_type is None:
        return None
    k = int(outcome.k[inst.worst])
    stop = max(0, min(k - 1, schedule.n_open))  # allow one-cell slack
    dev = float(np.max(np.abs(schedule.p[:stop] - inst.cbar[inst.worst, :stop]), initial=0.0))
    n_states = len(inst.weather.states)
    tol = _roundoff(4 * (n_states + 4), float(np.max(np.abs(inst.ec)))) / schedule.grid.dq
    witness = f"worst={inst.worst_type.id}, cells<{stop}"
    return CheckResult("worst_type_pricing", dev <= tol, dev, tol, witness)


def _oracle_refusal(n_types: int, n_cells: int) -> Optional[str]:
    """Why the oracle will not enumerate an instance this size, or None."""
    if n_types > ORACLE_MAX_TYPES:
        return f"oracle limited to {ORACLE_MAX_TYPES} types"
    if n_cells > ORACLE_MAX_CELLS:
        return f"oracle limited to {ORACLE_MAX_CELLS} grid cells"
    return None


def oracle_solve(
    space: TypeSpace,
    model: CostModel,
    weather: WeatherModel,
    vprime: BuyerUtility,
    grid: QuantityGrid,
) -> float:
    """Brute-force optimum over every menu of grid bundles.

    Enumerates every allocation of a grid point k_x to each type x. The
    least rents that make an allocation incentive compatible and
    participating are longest-path potentials (Rochet 1987), U_x = max(0,
    max_y [U_y + EC_y(k_y) - EC_x(k_y)]): n_types rounds of Bellman-Ford
    find them, and an extra round that still raises a rent past round-off
    marks a positive cycle, an allocation no payments support. Returns the
    best sum of prior * (V(k_x) - EC_x(k_x) - U_x). It reads only expected
    costs at the grid points, so it shares no pricing, best-response or
    anchor code with the solver; every posted tariff's outcome is one of
    its menus.
    """
    n_types = len(space)
    refusal = _oracle_refusal(n_types, grid.n_cells)
    if refusal is not None:
        raise ConfigurationError(refusal)
    ecs = np.array([model.expected_cost_grid(x, grid.points, weather) for x in space])
    priors = np.array([x.prior_weight for x in space])
    # every allocation, one row each: k[a, x] is type x's grid index
    k = np.indices((grid.n_cells + 1,) * n_types).reshape(n_types, -1).T
    own = ecs[np.arange(n_types), k]  # EC_x(k_x)
    # gain[a, x, y] = EC_y(k_y) - EC_x(k_y): x's rent over y's from y's bundle
    gain = own[:, None, :] - ecs[:, k].transpose(1, 0, 2)
    rent = np.zeros_like(own)
    for _ in range(n_types):
        rent = np.max(rent[:, None, :] + gain, axis=2)
    rise = np.max(rent[:, None, :] + gain, axis=2) - rent
    gate = _roundoff(2 * n_types * (n_types + 1), float(np.max(np.abs(ecs))))
    feasible = np.all(rise <= gate, axis=1)
    score = (vprime.value(grid.points)[k] - own - rent) @ priors
    return float(np.max(score, initial=-math.inf, where=feasible))


def check_oracle(outcome: ContractOutcome) -> CheckResult:
    """The buyer's utility against the best menu's (oracle_solve), within
    the round-off of one menu's utility read both ways. The solver's
    outcome is a menu, so a gap above the solver is utility its prices or
    its anchor leave on the table."""
    schedule, inst = outcome.schedule, outcome.instance
    oracle = oracle_solve(inst.space, inst.model, inst.weather, inst.vprime, schedule.grid)
    gap = abs(oracle - outcome.buyer_utility)
    n_types = len(inst.space)
    value = float(np.max(np.abs(inst.vprime.value(schedule.grid.points))))
    tol = _utility_roundoff(outcome) + _roundoff(
        2 * (n_types + 1) ** 2, value + (2 * n_types + 1) * float(np.max(np.abs(inst.ec)))
    )
    return CheckResult(
        "oracle", gap <= tol, gap, tol,
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
    if _oracle_refusal(len(outcome.instance.space), outcome.schedule.grid.n_cells) is None:
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
