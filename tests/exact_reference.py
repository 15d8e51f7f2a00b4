"""The pricing inputs and per-cell decisions of an Instance with a built-in
cost model, and its best menu, in exact rational arithmetic: every float
input (the types' parameters and priors, the weather's speeds and
probabilities, q_max and V') is taken as the exact rational it is, and
grid point k is exactly k * q_max / n_cells. Nothing here calls the
solver's code, so the float pipeline's rounding shows against it."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence


def points(q_max: float, n_cells: int) -> list[Fraction]:
    return [Fraction(q_max) * k / n_cells for k in range(n_cells + 1)]


def generation(kind: str, params: dict[str, Fraction], w: Fraction) -> Fraction:
    """g(w): gamma*w^3 for the simple model; the power curve, zero below
    cut-in and above cut-out and flat above rated speed, for the wind one."""
    if kind == "simple":
        return params["gamma"] * w**3
    if w < params["v_ci"] or w > params["v_co"]:
        return Fraction(0)
    return params["gamma"] * min(w, params["v_r"]) ** 3


def expected_cost_rows(inst) -> list[list[Fraction]]:
    """EC(q_k, x) = sum over states of p * (c0 + theta_w*min(q, g) +
    theta_c*max(q - g, 0)), one row per type."""
    kind = inst.model.kind
    states = [(Fraction(w), Fraction(p)) for w, p in inst.weather.states]
    qs = points(inst.grid.q_max, inst.grid.n_cells)
    rows = []
    for x in inst.space:
        params = {name: Fraction(v) for name, v in x.params.items()}
        c0, theta_c = params["c0"], params["theta_c"]
        theta_w = params["theta_w"] if kind == "wind_conventional" else Fraction(0)
        gs = [(p, generation(kind, params, w)) for w, p in states]
        rows.append([
            sum(p * (c0 + theta_w * min(q, g) + theta_c * max(q - g, 0)) for p, g in gs)
            for q in qs
        ])
    return rows


def buyer_value(vprime, q: Fraction) -> Fraction:
    """V(q), the integral of V' from 0: a*q - b*q^2/2 for the affine V';
    the trapezoids under the breakpoints, V' held at its last value beyond
    them, for the piecewise one."""
    if vprime.kind == "affine":
        a, b = Fraction(vprime.intercept), Fraction(vprime.slope)
        return a * q - b * q * q / 2
    bq = [Fraction(v) for v in vprime.break_q]
    bv = [Fraction(v) for v in vprime.break_v]
    total = Fraction(0)
    for q0, q1, v0, v1 in zip(bq, bq[1:], bv, bv[1:]):
        if q <= q0:
            return total
        end = min(q, q1)
        v_end = v0 + (v1 - v0) * (end - q0) / (q1 - q0)
        total += (v0 + v_end) / 2 * (end - q0)
    return total + bv[-1] * max(q - bq[-1], 0)


def cell_averages(inst, rows: Sequence[Sequence[Fraction]]
                  ) -> tuple[list[list[Fraction]], list[Fraction]]:
    """cbar[i][j] = (EC(q_{j+1}, x_i) - EC(q_j, x_i)) / dq, from the
    expected-cost rows, and vbar[j] = (V(q_{j+1}) - V(q_j)) / dq."""
    qs = points(inst.grid.q_max, inst.grid.n_cells)
    dq = qs[1]
    cbar = [[(b - a) / dq for a, b in zip(row, row[1:])] for row in rows]
    v = [buyer_value(inst.vprime, q) for q in qs]
    return cbar, [(b - a) / dq for a, b in zip(v, v[1:])]


def objective(costs: Sequence[Fraction], priors: Sequence[Fraction], v: Fraction,
              price: Fraction) -> Fraction:
    """survival(price) * (v - price): survival is the prior mass of the
    types whose cost is at most the price."""
    return sum(p for c, p in zip(costs, priors) if c <= price) * (v - price)


def decision(costs: Sequence[Fraction], priors: Sequence[Fraction],
             v: Fraction) -> Optional[Fraction]:
    """A cell's price: None (closed) when v lies below every cost, else the
    cost that maximizes the objective, ties to the smallest."""
    if v < min(costs):
        return None
    return max(sorted(set(costs)), key=lambda c: objective(costs, priors, v, c))


# The solver's tolerance for "nowhere costlier" (le), restated: rows
# within 1e-12 times the larger of the two rows' scales count as ordered.
EQUAL_COST_TOL = Fraction(1e-12)


class ExactOutcome(NamedTuple):
    """The exact pipeline's inputs, decisions and value: the expected-cost
    rows and cell costs, each cell's price (None when closed), the prices'
    integral paid[k] up to each open point, each type's best-response grid
    index, the worst type's index (or None), the anchor t0 and the buyer's
    utility U."""

    ec: list[list[Fraction]]
    cbar: list[list[Fraction]]
    prices: list[Optional[Fraction]]
    paid: list[Fraction]
    k: list[int]
    worst: Optional[int]
    t0: Fraction
    buyer_utility: Fraction


def worst_type(rows: Sequence[Sequence[Fraction]]) -> Optional[int]:
    """The first type that every type is nowhere costlier than, within
    EQUAL_COST_TOL times the larger row scale max(1, max |EC|), or None."""
    scale = [max(1, max(abs(c) for c in row)) for row in rows]
    for w, top in enumerate(rows):
        if all(
            max(c - t for c, t in zip(row, top)) <= EQUAL_COST_TOL * max(s, scale[w])
            for row, s in zip(rows, scale)
        ):
            return w
    return None


def best_points(rows: Sequence[Sequence[Fraction]], paid: Sequence[Fraction]) -> list[int]:
    """Each type's best-response grid index: the largest k among the open
    points that maximizes paid[k] - EC(q_k), paid[k] being the prices'
    integral up to q_k (t0 plays no part)."""
    out = []
    for row in rows:
        util = [t - c for t, c in zip(paid, row)]
        best = max(util)
        out.append(max(k for k, u in enumerate(util) if u == best))
    return out


def solve(inst) -> ExactOutcome:
    """Price every cell (decision), take the best responses, anchor t0 at
    the largest deficit EC(q(x), x) - paid, with or without a worst type,
    and sum U = sum of prior * (V(q(x)) - t0 - paid at q(x)); closure is the
    first closed cell on, as it is exact when V' is nonincreasing and the
    costs convex."""
    rows = expected_cost_rows(inst)
    cbar, vbar = cell_averages(inst, rows)
    priors = [Fraction(p) for p in inst.priors.tolist()]
    prices = [decision([row[j] for row in cbar], priors, v) for j, v in enumerate(vbar)]
    qs = points(inst.grid.q_max, inst.grid.n_cells)
    dq = qs[1]
    paid = [Fraction(0)]
    for p in prices:
        if p is None:
            break
        paid.append(paid[-1] + p * dq)
    k = best_points(rows, paid)
    worst = worst_type(rows)
    t0 = max(row[ki] - paid[ki] for row, ki in zip(rows, k))
    u = sum(p * (buyer_value(inst.vprime, qs[ki]) - t0 - paid[ki]) for p, ki in zip(priors, k))
    return ExactOutcome(rows, cbar, prices, paid, k, worst, t0, u)


def menu_optimum(inst) -> Fraction:
    """The buyer's best deterministic menu of grid bundles: over every
    allocation of a grid index k[x] to each type x, the least rents that
    make it incentive compatible and participating, U[x] = max(0, max over
    y of U[y] + EC(q_k[y], y) - EC(q_k[y], x)), by Bellman-Ford. An
    allocation whose rents still rise after n_types rounds has a positive
    cycle, and no payments support it. The value is the best sum of
    prior * (V(q_k[x]) - EC(q_k[x], x) - U[x]). The rents are found in
    integers, the expected costs times their common denominator."""
    rows = expected_cost_rows(inst)
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    ec = [[int(c * scale) for c in row] for row in rows]
    priors = [Fraction(p) for p in inst.priors.tolist()]
    values = [buyer_value(inst.vprime, q) for q in points(inst.grid.q_max, inst.grid.n_cells)]
    n = len(rows)
    best = None
    for k in itertools.product(range(inst.grid.n_cells + 1), repeat=n):
        rent = [0] * n
        for _ in range(n + 1):
            last = rent
            rent = [max(last[y] + ec[y][k[y]] - row[k[y]] for y in range(n)) for row in ec]
        if rent != last:
            continue
        score = sum(
            p * (values[kx] - row[kx] - Fraction(u, scale))
            for p, kx, row, u in zip(priors, k, rows, rent)
        )
        if best is None or score > best:
            best = score
    return best
