"""Optimal nonlinear pricing: pointwise marginal prices, payment anchoring,
seller best responses, and the full contract pipeline.

Discretization conventions. The payment schedule is a left-Riemann sum of a
per-cell marginal price: t(q_k) = t0 + sum_{j<k} p_j * dq. Each cell's price
is chosen from the cell-averaged expected marginal costs

    cbar_j(x) = (EC(q_{j+1}, x) - EC(q_j, x)) / dq,

and the cell-averaged marginal utility vbar_j = (V(q_{j+1}) - V(q_j)) / dq.
With these averages the seller's grid utility telescopes exactly into
per-cell margins, so the pointwise per-cell maximization is exactly optimal
among candidate schedules on the grid (not merely up to O(dq)); the averages
coincide with the pointwise c(q, x) and V'(q) as dq -> 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .costmodel import CostModel, SellerType, TypeSpace, dominance_matrix, worst_index
from .errors import CellReopenedError, ConfigurationError
from .weather import WeatherModel

DEFAULT_N_CELLS = 2000


@dataclass(frozen=True)
class QuantityGrid:
    """Uniform quantity grid from 0 to q_max with n_cells cells."""

    q_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (0.0 < self.q_max < math.inf):
            raise ConfigurationError(f"q_max must be positive and finite, got {self.q_max}")
        if self.n_cells < 1:
            raise ConfigurationError(f"n_cells must be >= 1, got {self.n_cells}")

    @property
    def dq(self) -> float:
        return self.q_max / self.n_cells

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.q_max, self.n_cells + 1)


class BuyerUtility:
    """Buyer's marginal utility V'(q), nonincreasing; V(0) = 0.

    Two families: affine V'(q) = a - b*q (a > 0, b >= 0) and piecewise
    linear through breakpoints, held constant beyond the last breakpoint.
    """

    def __init__(self, kind: str, **spec: object) -> None:
        self.kind = kind
        if kind == "affine":
            a = float(spec["intercept"])  # type: ignore[arg-type]
            b = float(spec["slope"])  # type: ignore[arg-type]
            if not (0.0 < a < math.inf and 0.0 <= b < math.inf):  # NaN fails too
                raise ConfigurationError("affine V' needs finite intercept > 0 and slope >= 0")
            self.intercept, self.slope = a, b
        elif kind == "piecewise":
            pts = [(float(q), float(v)) for q, v in spec["breakpoints"]]  # type: ignore
            if len(pts) < 2:
                raise ConfigurationError("piecewise V' needs at least two breakpoints")
            qs = [q for q, _ in pts]
            vs = [v for _, v in pts]
            if not all(map(math.isfinite, qs + vs)):
                raise ConfigurationError(f"piecewise V' breakpoints must be finite, got {pts}")
            if qs[0] != 0.0:
                raise ConfigurationError("piecewise V' must start at q = 0")
            if any(b <= a for a, b in zip(qs, qs[1:])):
                raise ConfigurationError("piecewise V' breakpoints must be increasing in q")
            if any(b > a for a, b in zip(vs, vs[1:])):
                raise ConfigurationError("piecewise V' must be nonincreasing")
            self.break_q = np.array(qs)
            self.break_v = np.array(vs)
            # cumulative integral of V' at the breakpoints (trapezoids)
            seg = 0.5 * (self.break_v[1:] + self.break_v[:-1]) * np.diff(self.break_q)
            self.break_int = np.concatenate([[0.0], np.cumsum(seg)])
        else:
            raise ConfigurationError(f"unknown buyer utility kind {kind!r}")

    @classmethod
    def affine(cls, intercept: float, slope: float) -> "BuyerUtility":
        return cls("affine", intercept=intercept, slope=slope)

    @classmethod
    def piecewise(cls, breakpoints: Sequence[tuple[float, float]]) -> "BuyerUtility":
        return cls("piecewise", breakpoints=breakpoints)

    def marginal(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "affine":
            out = self.intercept - self.slope * q
        else:
            out = np.interp(q, self.break_q, self.break_v)
        return float(out) if out.ndim == 0 else out

    def value(self, q):
        """V(q) = integral of V' from 0 to q."""
        q = np.asarray(q, dtype=float)
        if self.kind == "affine":
            out = self.intercept * q - 0.5 * self.slope * q * q
        else:
            i = np.clip(np.searchsorted(self.break_q, q, side="right") - 1, 0, None)
            q0, v0 = self.break_q[i], self.break_v[i]
            vq = np.interp(q, self.break_q, self.break_v)
            out = self.break_int[i] + 0.5 * (v0 + vq) * (q - q0)
        return float(out) if out.ndim == 0 else out

    def q_zero(self) -> Optional[float]:
        """Smallest q with V'(q) <= 0, or None if V' stays positive."""
        if self.kind == "affine":
            if self.slope == 0.0:
                return None
            return self.intercept / self.slope
        if self.break_v[-1] > 0.0:
            return None
        idx = int(np.argmax(self.break_v <= 0.0))
        if idx == 0:
            return 0.0
        q0, q1 = self.break_q[idx - 1], self.break_q[idx]
        v0, v1 = self.break_v[idx - 1], self.break_v[idx]
        return float(q0 + v0 * (q1 - q0) / (v0 - v1))


def default_grid(vprime: BuyerUtility, n_cells: int = DEFAULT_N_CELLS) -> QuantityGrid:
    qz = vprime.q_zero()
    if qz is None or qz <= 0.0:
        raise ConfigurationError(
            "V' never reaches zero; q_max must be given explicitly in the grid spec"
        )
    return QuantityGrid(q_max=qz, n_cells=n_cells)


@dataclass(frozen=True, eq=False)
class PriceSchedule:
    """Marginal price per grid cell plus the payment anchor t(0).

    p[j] prices the cell [points[j], points[j+1]); NaN marks closed cells,
    which must form a tail. p is read-only, and closed_from is read from it:
    the first closed cell (procurement stops there), or None.
    """

    grid: QuantityGrid
    p: np.ndarray
    t0: float = 0.0
    closed_from: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float).view()
        p.flags.writeable = False
        closed = np.isnan(p)
        closed_from = int(np.argmax(closed)) if closed.any() else None
        if closed_from is not None and not closed[closed_from:].all():
            # V' is nonincreasing and costs nondecreasing, so closure is
            # permanent unless the inputs break those assumptions.
            reopened = closed_from + int(np.argmin(closed[closed_from:]))
            raise CellReopenedError(f"cell {reopened} reopened after closure at {closed_from}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "closed_from", closed_from)

    @property
    def n_open(self) -> int:
        return self.grid.n_cells if self.closed_from is None else self.closed_from

    def payments(self) -> np.ndarray:
        """t at every grid point; flat beyond the closed range."""
        contrib = np.where(np.isnan(self.p), 0.0, self.p) * self.grid.dq
        return self.t0 + np.concatenate([[0.0], np.cumsum(contrib)])


@dataclass(frozen=True, eq=False)
class Instance:
    """The type x grid-point data every stage reads, built once.

    ec[i, k] is type i's weather-expected cost at grid point k, computed
    with the cost model's own expected_cost_grid. cbar[i, j] is type i's
    average expected marginal cost on cell j and vbar[j] the buyer's
    average marginal utility there. dominance[i, j] compares type i with
    type j as dominates() does, and worst indexes the type every other
    type dominates or equals, or is None. An admissible subset is a row
    selection (restrict), so nothing is recomputed per subset.
    """

    space: TypeSpace
    model: CostModel
    weather: WeatherModel
    grid: QuantityGrid
    vprime: BuyerUtility
    priors: np.ndarray
    ec: np.ndarray
    cbar: np.ndarray
    vbar: np.ndarray
    dominance: np.ndarray
    worst: Optional[int]

    @classmethod
    def build(
        cls,
        space: TypeSpace,
        model: CostModel,
        weather: WeatherModel,
        grid: QuantityGrid,
        vprime: BuyerUtility,
    ) -> "Instance":
        """The expected costs are the rows CostModel.check_assumptions
        checks on grid.points, so an instance never rests on a cost model
        that breaks them."""
        ec = model.check_assumptions(space, weather, grid.points)
        dominance = dominance_matrix(ec)
        return cls(
            space=space,
            model=model,
            weather=weather,
            grid=grid,
            vprime=vprime,
            priors=np.array([x.prior_weight for x in space]),
            ec=ec,
            cbar=np.diff(ec, axis=1) / grid.dq,
            vbar=cell_marginal_utility(vprime, grid),
            dominance=dominance,
            worst=worst_index(dominance),
        )

    def restrict(self, ids: Sequence[str]) -> "Instance":
        """The admissible subset ids (validated as TypeSpace.subset does)."""
        space = self.space.subset(ids)
        kept = {x.id for x in space}
        rows = np.array([i for i, x in enumerate(self.space) if x.id in kept])
        dominance = self.dominance[np.ix_(rows, rows)]
        return replace(
            self,
            space=space,
            priors=self.priors[rows],
            ec=self.ec[rows],
            cbar=self.cbar[rows],
            dominance=dominance,
            worst=worst_index(dominance),
        )

    @property
    def worst_type(self) -> Optional[SellerType]:
        return None if self.worst is None else self.space.types[self.worst]


@dataclass(frozen=True, eq=False)
class ContractOutcome:
    """Solved contract as columns over the rows of instance (its admissible
    types, in order): k is every type's best-response grid index, and
    payment, expected_cost and utility are the curves read there. The
    buyer's utility is computed both directly and via the
    survival-integral identity."""

    schedule: PriceSchedule
    k: np.ndarray
    payment: np.ndarray
    expected_cost: np.ndarray
    utility: np.ndarray
    buyer_utility: float
    buyer_utility_survival: float
    instance: Instance = field(repr=False)

    @property
    def q(self) -> np.ndarray:
        return self.schedule.grid.points[self.k]

    @property
    def admissible_ids(self) -> tuple[str, ...]:
        return tuple(x.id for x in self.instance.space)


def cell_marginal_utility(vprime: BuyerUtility, grid: QuantityGrid) -> np.ndarray:
    return np.diff(vprime.value(grid.points)) / grid.dq


def price_cells(cbar: np.ndarray, priors: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """Pointwise-optimal price of every cell.

    In cell j the price maximizes survival(p) * (vbar[j] - p) over the
    candidates cbar[:, j]; survival is a step function jumping exactly at
    the candidates, so the maximum is attained at one. Survival at a
    candidate counts every type whose cost equals it, and ties break to
    the smallest candidate. A cell is closed (NaN) when V' lies below
    every candidate there: priors are nonnegative and costs finite, so no
    margin is then profitable. Closure is decided for all cells at once,
    and only the open cells are priced; every step works column by
    column, so a price does not depend on the cells around it. That the
    closed cells form a tail is PriceSchedule's check.
    """
    n_types, n_cells = cbar.shape
    is_open = ~(vbar < cbar.min(axis=0))
    open_cbar = cbar.compress(is_open, axis=1)  # a mask index is slower
    order = np.argsort(open_cbar, axis=0, kind="stable")
    cs = np.take_along_axis(open_cbar, order, axis=0)
    cum = np.cumsum(priors[order], axis=0)
    # index of the last sorted entry equal to each entry
    run_end = np.ones(cs.shape, dtype=bool)
    run_end[:-1] = cs[1:] != cs[:-1]
    last = np.where(run_end, np.arange(n_types)[:, None], n_types)
    last = np.minimum.accumulate(last[::-1], axis=0)[::-1]
    obj = np.take_along_axis(cum, last, axis=0) * (vbar[is_open] - cs)
    best = np.argmax(obj, axis=0)  # first maximum: the smallest candidate
    p = np.full(n_cells, np.nan)
    p[is_open] = cs[best, np.arange(cs.shape[1])]
    return p


def build_price_schedule(inst: Instance) -> PriceSchedule:
    """Pointwise-optimal price for every cell; t0 is left at 0 (see
    anchor_payment)."""
    return PriceSchedule(grid=inst.grid, p=price_cells(inst.cbar, inst.priors, inst.vbar))


def _best_points(
    schedule: PriceSchedule, ec: np.ndarray, cbar: np.ndarray, t0: float
) -> np.ndarray:
    """Best-response grid index of every type (rows of ec and cbar) under
    the schedule's prices with anchor t0. Ties break to the largest
    quantity.

    Utilities accumulate per-cell margins rather than subtracting the cost
    curve from the payment curve. When the cell price coincides with a
    type's own cell cost the margin is exactly zero, so runs of
    indifferent cells stay exact ties and the largest-quantity tie-break
    resolves them deterministically.
    """
    last = schedule.n_open
    dq = schedule.grid.dq
    util = np.empty((len(ec), last + 1))
    util[:, 0] = t0 - ec[:, 0]
    if last > 0:
        margins = (schedule.p[None, :last] - cbar[:, :last]) * dq
        util[:, 1:] = util[:, :1] + np.cumsum(margins, axis=1)
    return last - np.argmax(util[:, ::-1], axis=1)


def anchor_payment(schedule: PriceSchedule, inst: Instance) -> float:
    """t(0) for the schedule's prices; the schedule is left as it is.

    With a worst type the anchor is its startup cost C(0, worst). Without
    one it is found a posteriori as the largest per-type deficit
    max_x [EC(q(x), x) - integral of p to q(x)], which makes every type's
    utility nonnegative and at least one exactly zero. t0 shifts every
    grid utility equally, so the quantities are found with t0 = 0.
    """
    if inst.worst_type is not None:
        t0 = inst.model.realized_cost(inst.worst_type, 0.0, inst.weather.speeds[0])
    else:
        idx = _best_points(schedule, inst.ec, inst.cbar, 0.0)
        cum = np.concatenate(
            [[0.0], np.cumsum(np.nan_to_num(schedule.p) * schedule.grid.dq)]
        )
        t0 = float(np.max(inst.ec[np.arange(len(idx)), idx] - cum[idx]))
    return t0


def best_response(
    x: SellerType,
    schedule: PriceSchedule,
    model: CostModel,
    weather: WeatherModel,
) -> float:
    """Type x's best-response quantity: the global argmax of
    t(l) - EC(l, x) over deliverable grid points, ties to the largest."""
    ec = model.expected_cost_grid(x, schedule.grid.points, weather)[None, :]
    k = _best_points(schedule, ec, np.diff(ec, axis=1) / schedule.grid.dq, schedule.t0)
    return float(schedule.grid.points[k[0]])


def _buyer_utility_survival(schedule: PriceSchedule, inst: Instance) -> float:
    """Survival-integral form: -t0 * P[admissible] + sum over open cells of
    P[p(l) >= c(l, x)] (V'(l) - p(l)) dq at the cells' left endpoints.

    Every admissible type is paid t0, so the anchor is weighted by the
    admissible prior mass (1 for the full type set). Participation is
    tested against the cell-averaged costs that priced the schedule, so a
    type indifferent in a cell (price equal to its own cost) counts as
    producing there. Marginal utility stays pointwise at the left
    endpoint; its discretization error vanishes with the cell width.
    """
    grid = schedule.grid
    n = schedule.n_open
    anchor = schedule.t0 * math.fsum(inst.priors)
    if n == 0:
        return -anchor
    surv = inst.priors @ (schedule.p[None, :n] >= inst.cbar[:, :n])
    vmarg = inst.vprime.marginal(grid.points[:n])
    total = float(np.sum(surv * (vmarg - schedule.p[:n]) * grid.dq))
    return total - anchor


def evaluate(inst: Instance, schedule: PriceSchedule) -> ContractOutcome:
    """Best responses of inst's types to the schedule under its own t0, and
    the curves and buyer utilities read there."""
    k = _best_points(schedule, inst.ec, inst.cbar, schedule.t0)
    payment = schedule.payments()[k]
    expected_cost = inst.ec[np.arange(len(k)), k]
    value = inst.vprime.value(inst.grid.points[k])
    return ContractOutcome(
        schedule=schedule,
        k=k,
        payment=payment,
        expected_cost=expected_cost,
        utility=payment - expected_cost,
        buyer_utility=math.fsum(inst.priors * (value - payment)),
        buyer_utility_survival=_buyer_utility_survival(schedule, inst),
        instance=inst,
    )


def solve(inst: Instance, admissible: Optional[Sequence[str]] = None) -> ContractOutcome:
    """Price, anchor, evaluate, on inst or on the admissible subset's rows."""
    if admissible is not None:
        inst = inst.restrict(admissible)
    schedule = build_price_schedule(inst)
    return evaluate(inst, replace(schedule, t0=anchor_payment(schedule, inst)))


MAX_EXCLUSION_TYPES = 12


def _upward_closed_subsets(inst: Instance) -> list[tuple[str, ...]]:
    """Non-empty subsets closed upward under dominance: keeping a type
    means keeping every better type. With no comparable pairs this is the
    full power set."""
    ids = [t.id for t in inst.space]
    # better_than[y] = types better than y
    better_than = {
        y: {ids[i] for i in np.flatnonzero(inst.dominance[:, j] == "better")}
        for j, y in enumerate(ids)
    }
    out = [tuple(ids)]
    for r in range(1, len(ids)):
        for combo in itertools.combinations(ids, r):
            kept = set(combo)
            if all(better_than[y] <= kept for y in combo):
                out.append(combo)
    return out


def exclusion_search(inst: Instance) -> tuple[tuple[str, ...], ContractOutcome]:
    """Search every admissible subset for the best buyer utility.

    Returns (subset ids, outcome). The full set is always a candidate and
    wins ties. Every subset is solved on rows of inst, so no expected cost
    is computed again.
    """
    n_types = len(inst.space)
    if n_types > MAX_EXCLUSION_TYPES:
        raise ConfigurationError(
            f"{n_types} types exceed the enumeration limit ({MAX_EXCLUSION_TYPES})"
        )
    best_ids: Optional[tuple[str, ...]] = None
    best_outcome: Optional[ContractOutcome] = None
    for ids in _upward_closed_subsets(inst):
        outcome = solve(inst, admissible=ids)
        if best_outcome is None or outcome.buyer_utility > best_outcome.buyer_utility:
            best_ids, best_outcome = ids, outcome
    assert best_ids is not None and best_outcome is not None
    return best_ids, best_outcome
