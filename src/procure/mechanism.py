"""Optimal nonlinear pricing: pointwise marginal prices, payment anchoring,
seller best responses, and the full contract pipeline.

Discretization conventions. The payment schedule is a left-Riemann sum of a
per-cell marginal price: t(q_k) = t0 + sum_{j<k} p_j * dq. Each cell's price
is chosen from the cell-averaged expected marginal costs

    cbar_j(x) = (EC(q_{j+1}, x) - EC(q_j, x)) / dq,

and the cell-averaged marginal utility vbar_j = (V(q_{j+1}) - V(q_j)) / dq.
With these averages each cell's margin telescopes exactly (no O(dq) term),
and each cell's price maximizes that cell's own margin; the averages
coincide with the pointwise c(q, x) and V'(q) as dq -> 0. The schedule is
not always buyer-optimal: where no worst type exists, a cell's price also
moves the payment anchor, and on six_types setting cell 11's price to
0.1778917 raises the buyer's utility U from 12.2632690 to 12.5310916
(ROADMAP item 3).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .costmodel import CostModel, SellerType, TypeSpace, no_costlier, worst_index
from .errors import ConfigurationError
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
        if not self.dq > 0.0:
            raise ConfigurationError(
                f"q_max / n_cells must be positive, got {self.q_max} / {self.n_cells}"
            )

    @property
    def dq(self) -> float:
        return self.q_max / self.n_cells

    @cached_property
    def points(self) -> np.ndarray:
        """The n_cells + 1 grid points, read-only, built on first use."""
        points = np.linspace(0.0, self.q_max, self.n_cells + 1)
        points.flags.writeable = False
        return points


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
        reason = "never reaches zero" if qz is None else "is not positive at q = 0"
        raise ConfigurationError(f"V' {reason}; q_max must be given explicitly in the grid spec")
    return QuantityGrid(q_max=qz, n_cells=n_cells)


@dataclass(frozen=True, eq=False)
class PriceSchedule:
    """Marginal prices of the open cells plus the payment anchor t(0).

    p[j] prices the cell [points[j], points[j+1]) for j < n_open = len(p);
    every later cell is closed, so procurement stops at point n_open. p is
    a read-only copy of the finite prices given, at most one per cell.
    """

    grid: QuantityGrid
    p: np.ndarray
    t0: float = 0.0

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        if p.ndim != 1 or len(p) > self.grid.n_cells:
            raise ConfigurationError(f"prices of shape {p.shape} for {self.grid.n_cells} cells")
        if not np.isfinite(p).all():
            raise ConfigurationError("prices must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n_open(self) -> int:
        return len(self.p)

    def payments(self) -> np.ndarray:
        """t at every grid point; flat beyond the open cells."""
        n = self.n_open
        t = np.zeros(self.grid.n_cells + 1)
        np.cumsum(self.p * self.grid.dq, out=t[1 : n + 1])
        t[n + 1 :] = t[n] + 0.0  # a closed cell adds 0.0, which turns -0.0 into 0.0
        return self.t0 + t


@dataclass(frozen=True, eq=False)
class Instance:
    """The type x grid-point data every stage reads, built once.

    ec[i, k] is type i's weather-expected cost at grid point k, computed
    with the cost model's own expected_cost_grid. cbar[i, j] is type i's
    average expected marginal cost on cell j and vbar[j] the buyer's
    average marginal utility there. le[i, j] is True when type i's
    expected cost is nowhere above type j's (no_costlier), better is its
    strict part, and worst indexes the first type that every type is no
    costlier than, or is None. An admissible subset is a row selection
    (restrict), so nothing is recomputed per subset.
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
    le: np.ndarray
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
        checks on grid.points, once every type's parameters pass, so an
        instance never rests on a cost model that breaks them. A buyer
        value V that overflows on the grid is refused first."""
        with np.errstate(over="ignore", invalid="ignore"):
            vbar = cell_marginal_utility(vprime, grid)
        overflowed = np.flatnonzero(~np.isfinite(vbar))
        if overflowed.size:
            q = grid.points[overflowed[0]]
            raise ConfigurationError(f"buyer: V(q) on the cell from q = {q:.12g} overflows")
        ec = model.check_assumptions(space, weather, grid.points)
        le = no_costlier(ec)
        cbar = np.diff(ec, axis=1)
        cbar /= grid.dq
        return cls(
            space=space,
            model=model,
            weather=weather,
            grid=grid,
            vprime=vprime,
            priors=np.array([x.prior_weight for x in space]),
            ec=ec,
            cbar=cbar,
            vbar=vbar,
            le=le,
            worst=worst_index(le),
        )

    def restrict(self, ids: Sequence[str]) -> "Instance":
        """The admissible subset ids (validated as TypeSpace.subset does)."""
        space = self.space.subset(ids)
        kept = {x.id for x in space}
        rows = np.array([i for i, x in enumerate(self.space) if x.id in kept])
        le = self.le[np.ix_(rows, rows)]
        return replace(
            self,
            space=space,
            priors=self.priors[rows],
            ec=self.ec[rows],
            cbar=self.cbar[rows],
            le=le,
            worst=worst_index(le),
        )

    @property
    def better(self) -> np.ndarray:
        """The strict order: better[i, j] when le[i, j] and not le[j, i]."""
        return self.le & ~self.le.T

    @property
    def worst_type(self) -> Optional[SellerType]:
        return None if self.worst is None else self.space.types[self.worst]


@dataclass(frozen=True, eq=False)
class ContractOutcome:
    """Solved contract over the rows of instance (its admissible types, in
    order): k is every type's best-response grid index under the schedule.
    payment, expected_cost and utility are the columns read there, and
    buyer_utility the buyer's direct utility (verify derives its survival
    form); each is computed from schedule, k and instance on first use, so
    a copy with another schedule reads that schedule's columns."""

    schedule: PriceSchedule
    k: np.ndarray
    instance: Instance = field(repr=False)

    @property
    def q(self) -> np.ndarray:
        return self.schedule.grid.points[self.k]

    @property
    def admissible_ids(self) -> tuple[str, ...]:
        return tuple(x.id for x in self.instance.space)

    @cached_property
    def payment(self) -> np.ndarray:
        return self.schedule.payments()[self.k]

    @cached_property
    def expected_cost(self) -> np.ndarray:
        return self.instance.ec[np.arange(len(self.k)), self.k]

    @cached_property
    def utility(self) -> np.ndarray:
        return self.payment - self.expected_cost

    @cached_property
    def buyer_utility(self) -> float:
        inst = self.instance
        return math.fsum(inst.priors * (inst.vprime.value(self.q) - self.payment))


def cell_marginal_utility(vprime: BuyerUtility, grid: QuantityGrid) -> np.ndarray:
    return np.diff(vprime.value(grid.points)) / grid.dq


def price_cells(cbar: np.ndarray, priors: np.ndarray, vbar: np.ndarray) -> np.ndarray:
    """Pointwise-optimal prices of the open cells, one per cell up to the
    first closed one.

    In cell j the price maximizes survival(p) * (vbar[j] - p) over the
    candidates cbar[:, j]; survival is a step function jumping exactly at
    the candidates, so the maximum is attained at one. Survival at a
    candidate counts every type whose cost equals it, and ties break to
    the smallest candidate. Procurement closes at the first cell where V'
    lies below every candidate: priors are nonnegative and costs finite,
    so no margin is profitable there. V' is nonincreasing and costs are
    convex, so later cells stay closed; where rounding breaks a tie
    unevenly, a later cell that would price open again is closed too.
    Every step works column by column, so a price does not depend on the
    cells around it.
    """
    n_types = len(cbar)
    closed = np.flatnonzero(vbar < cbar.min(axis=0))
    n = int(closed[0]) if closed.size else len(vbar)
    open_cbar = cbar[:, :n]
    order = np.argsort(open_cbar, axis=0, kind="stable")
    cs = np.take_along_axis(open_cbar, order, axis=0)
    cum = np.cumsum(priors[order], axis=0)
    # index of the last sorted entry equal to each entry
    run_end = np.ones(cs.shape, dtype=bool)
    run_end[:-1] = cs[1:] != cs[:-1]
    last = np.where(run_end, np.arange(n_types)[:, None], n_types)
    last = np.minimum.accumulate(last[::-1], axis=0)[::-1]
    obj = np.take_along_axis(cum, last, axis=0) * (vbar[:n] - cs)
    best = np.argmax(obj, axis=0)  # first maximum: the smallest candidate
    return cs[best, np.arange(n)]


def build_price_schedule(inst: Instance) -> PriceSchedule:
    """Pointwise-optimal price for every cell; t0 is left at 0 (see
    anchor_payment)."""
    return PriceSchedule(grid=inst.grid, p=price_cells(inst.cbar, inst.priors, inst.vbar))


def _best_points(schedule: PriceSchedule, ec: np.ndarray, cbar: np.ndarray) -> np.ndarray:
    """Best-response grid index of every type (rows of ec and cbar) under
    the schedule's prices, ties to the largest quantity. As in the paper,
    where t0 is set after the quantities, t0 plays no part: each row of
    utilities starts at -EC(0) and accumulates per-cell margins. A cell
    priced at a type's own cell cost has a margin of exactly zero, so runs
    of indifferent cells stay exact ties, whatever t0 is.
    """
    last = schedule.n_open
    dq = schedule.grid.dq
    util = np.empty((len(ec), last + 1))
    util[:, 0] = -ec[:, 0]
    margins = (schedule.p - cbar[:, :last]) * dq
    util[:, 1:] = util[:, :1] + np.cumsum(margins, axis=1)
    return last - np.argmax(util[:, ::-1], axis=1)


def anchor_payment(outcome: ContractOutcome) -> float:
    """t(0) for the outcome's prices and quantities; its own t0 plays no
    part.

    With a worst type the anchor is its startup cost C(0, worst). Without
    one it is found a posteriori as the largest per-type deficit
    max_x [EC(q(x), x) - integral of p to q(x)], read at the outcome's k
    under t0 = 0, which makes every type's utility nonnegative and at
    least one exactly zero.
    """
    inst = outcome.instance
    if inst.worst_type is not None:
        return inst.model.realized_cost(inst.worst_type, 0.0, inst.weather.speeds[0])
    unanchored = replace(outcome.schedule, t0=0.0).payments()[outcome.k]
    return float(np.max(outcome.expected_cost - unanchored))


def best_response(
    x: SellerType,
    schedule: PriceSchedule,
    model: CostModel,
    weather: WeatherModel,
) -> float:
    """Type x's best-response quantity: the global argmax of
    t(l) - EC(l, x) over deliverable grid points, ties to the largest."""
    ec = model.expected_cost_grid(x, schedule.grid.points, weather)[None, :]
    k = _best_points(schedule, ec, np.diff(ec, axis=1) / schedule.grid.dq)
    return float(schedule.grid.points[k[0]])


def evaluate(inst: Instance, schedule: PriceSchedule) -> ContractOutcome:
    """Best responses of inst's types to the schedule's prices; the
    outcome reads its columns there under the schedule's own t0. A
    schedule on another grid than inst's is refused."""
    if schedule.grid != inst.grid:
        raise ConfigurationError(f"schedule on {schedule.grid}, instance on {inst.grid}")
    k = _best_points(schedule, inst.ec, inst.cbar)
    return ContractOutcome(schedule=schedule, k=k, instance=inst)


def solve(inst: Instance, admissible: Optional[Sequence[str]] = None) -> ContractOutcome:
    """Price, find the best responses, anchor, on inst or on the admissible
    subset's rows. The quantities do not depend on t0, so they are found
    once and the anchored outcome is a copy with the anchored schedule."""
    if admissible is not None:
        inst = inst.restrict(admissible)
    outcome = evaluate(inst, build_price_schedule(inst))
    return replace(outcome, schedule=replace(outcome.schedule, t0=anchor_payment(outcome)))


MAX_EXCLUSION_TYPES = 12


def check_exclusion_size(n_types: int) -> None:
    """Refuse an exclusion search over more than MAX_EXCLUSION_TYPES types,
    whose subsets are too many to enumerate."""
    if n_types > MAX_EXCLUSION_TYPES:
        raise ConfigurationError(
            f"{n_types} types exceed the enumeration limit ({MAX_EXCLUSION_TYPES})"
        )


def _upward_closed_subsets(inst: Instance) -> list[tuple[str, ...]]:
    """Non-empty subsets closed upward under dominance: keeping a type
    means keeping every better type. With no comparable pairs this is the
    full power set."""
    ids = [t.id for t in inst.space]
    # better_than[y] = types better than y
    better = inst.better
    better_than = {y: {ids[i] for i in np.flatnonzero(better[:, j])} for j, y in enumerate(ids)}
    out = [tuple(ids)]
    for r in range(1, len(ids)):
        for combo in itertools.combinations(ids, r):
            kept = set(combo)
            if all(better_than[y] <= kept for y in combo):
                out.append(combo)
    return out


def exclusion_search(inst: Instance) -> ContractOutcome:
    """Search every admissible subset for the best buyer utility.

    Returns the winning outcome, whose admissible_ids name the subset. The
    full set is always a candidate and wins ties. Every subset is solved on
    rows of inst, so no expected cost is computed again.
    """
    check_exclusion_size(len(inst.space))
    best: Optional[ContractOutcome] = None
    for ids in _upward_closed_subsets(inst):
        outcome = solve(inst, admissible=ids)
        if best is None or outcome.buyer_utility > best.buyer_utility:
            best = outcome
    assert best is not None
    return best
