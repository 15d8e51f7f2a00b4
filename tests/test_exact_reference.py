"""Float pricing and solving against the exact-rational reference on tiny
instances: Instance.build's cell costs agree within a stated round-off
bound; price_cells makes the reference's decision in every cell, closure
and price owner, except where the two decisions' exact objectives are
within that bound of each other (a tie that rounding may break either
way); where every decision agrees, solve's buyer utility U is the exact
one within a stated round-off bound; and the oracle finds the exact best
menu's value."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exact_reference as ref
from procure.costmodel import SellerType, TypeSpace, make_model
from procure.mechanism import BuyerUtility, Instance, QuantityGrid, price_cells, solve
from procure.verify import check_pointwise, oracle_solve
from procure.weather import WeatherModel

# Round-off bound relative to a magnitude over a cell width. A float cell
# cost is a difference of two expected costs, each a sum of at most five
# states' terms of at most c0 + (theta_w + theta_c) * q_max, divided by dq:
# about 22 roundings of that magnitude in the worst case, and vbar fewer.
# Over 20,000 draws the largest error of either was 1.74 units of 2^-52.
# Over 3,000 draws, 90 of 17,233 cells took another decision than the
# reference, every one within the bound below.
REL = 32 * 2.0**-52

# Round-off bound on U: C * EPS times the sum of the magnitudes U is
# rounded relative to (the prior-weighted V(q), t0 and, per cell paid for,
# the price owner's expected costs at the cell's ends; with no worst type
# the anchor's deficit too). Over 25,000 draws the largest |U_float -
# U_exact| was 1.01 EPS of that sum.
EPS = 2.0**-52
C = 8


@st.composite
def tiny_instances(draw, coarse=None, max_cells=12):
    """2-4 types of either built-in model, 1-5 weather states, 3 to
    max_cells cells. Coarse draws take every number on a decimal step, so
    that exact ties between types' costs occur; the others take any float
    in range. coarse None draws which."""
    if coarse is None:
        coarse = draw(st.booleans())

    def num(lo, hi, step):
        if coarse:
            return round(draw(st.integers(round(lo / step), round(hi / step))) * step, 6)
        return draw(st.floats(lo, hi, allow_subnormal=False))

    kind = draw(st.sampled_from(["simple", "wind_conventional"]))
    speeds = sorted({num(0.0, 15.0, 0.5) for _ in range(draw(st.integers(1, 5)))})
    weights = [draw(st.integers(1, 4)) for _ in speeds]
    weather = WeatherModel(states=tuple((w, k / sum(weights)) for w, k in zip(speeds, weights)))
    n_types = draw(st.integers(2, 4))
    masses = draw(st.lists(st.integers(0, 3), min_size=n_types, max_size=n_types)
                  .filter(any))
    types = []
    for i, mass in enumerate(masses):
        theta_w = num(0.0, 1.0, 0.1)
        params = {"c0": num(0.0, 5.0, 0.5), "theta_c": theta_w + num(0.0, 2.0, 0.1)}
        if kind == "simple":
            params["gamma"] = num(0.001, 0.05, 0.001)
        else:
            v_ci = num(1.0, 4.0, 0.5)
            v_r = v_ci + num(1.0, 8.0, 0.5)
            params.update(theta_w=theta_w, v_ci=v_ci, v_r=v_r, v_co=v_r + num(1.0, 10.0, 0.5),
                          gamma=num(0.01, 0.5, 0.01))
        types.append(SellerType(id=f"t{i}", params=params, prior_weight=mass / sum(masses)))
    if draw(st.booleans()):
        vprime = BuyerUtility.affine(num(0.2, 4.0, 0.1), num(0.0, 0.2, 0.01))
    else:
        v0 = num(0.5, 4.0, 0.1)
        q1 = num(1.0, 20.0, 1.0)
        vprime = BuyerUtility.piecewise([(0.0, v0), (q1, v0 - num(0.0, 0.5, 0.1)),
                                         (q1 + num(1.0, 20.0, 1.0), num(-1.0, 0.0, 0.1))])
    grid = QuantityGrid(q_max=num(1.0, 40.0, 1.0), n_cells=draw(st.integers(3, max_cells)))
    return Instance.build(TypeSpace(types=tuple(types)), make_model(kind), weather, grid, vprime)


def _magnitudes(inst):
    """Each type's largest cost term c0 + (theta_w + theta_c) * q_max, and
    q_max * max |V'| on the grid: what a rounding is relative to."""
    q_max = inst.grid.q_max
    costs = [
        x.params["c0"] + (x.params.get("theta_w", 0.0) + x.params["theta_c"]) * q_max
        for x in inst.space
    ]
    value = q_max * max(abs(inst.vprime.marginal(0.0)), abs(inst.vprime.marginal(q_max)))
    return costs, value


@settings(max_examples=200, deadline=None)
@given(tiny_instances())
def test_float_pricing_matches_exact_reference(inst):
    cbar, vbar = ref.cell_averages(inst, ref.expected_cost_rows(inst))
    costs, value = _magnitudes(inst)
    dq = inst.grid.dq
    for i, magnitude in enumerate(costs):
        err = max(abs(Fraction(c) - e) for c, e in zip(inst.cbar[i].tolist(), cbar[i]))
        assert err <= REL * magnitude / dq, (inst.space.types[i].id, float(err))
    err = max(abs(Fraction(v) - e) for v, e in zip(inst.vbar.tolist(), vbar))
    assert err <= REL * value / dq, float(err)

    tol = 2 * REL * (max(costs) + value) / dq
    priors = [Fraction(p) for p in inst.priors.tolist()]
    p = price_cells(inst.cbar, inst.priors, inst.vbar)
    ties, wrong = [], []
    for j, v in enumerate(vbar):
        column = [row[j] for row in cbar]
        exact = ref.decision(column, priors, v)
        best = 0 if exact is None else ref.objective(column, priors, v, exact)
        if j >= len(p):  # closed
            if exact is None:
                continue
            gap = best  # closing earns nothing
        else:
            prices = [column[i] for i in range(len(column)) if inst.cbar[i, j] == p[j]]
            if all(c == exact for c in prices):
                continue
            gap = best - min(ref.objective(column, priors, v, c) for c in prices)
            if exact is not None:
                # costs apart by less than their rounding can merge or swap
                gap = min(gap, max(abs(c - exact) for c in prices))
        (ties if gap <= tol else wrong).append((j, float(gap)))
    assert not wrong, (
        f"cells whose decision differs (cell, exact gap): {wrong}; "
        f"cells that differ within the bound {tol:.3g}: {ties}"
    )


def _paid_scale(exact):
    """scale[k]: what paid[k] is rounded relative to. Each open cell's price
    is a difference of its owner's expected costs at the cell's two ends
    over dq, so a cell adds the largest |EC| sum of the types that own its
    exact price."""
    scale = [0.0]
    for j, price in enumerate(exact.prices[: len(exact.paid) - 1]):
        owners = [row for row, c in zip(exact.ec, exact.cbar) if c[j] == price]
        scale.append(scale[-1] + max(float(abs(r[j]) + abs(r[j + 1])) for r in owners))
    return scale


def compare_solve(inst):
    """The float solve against the exact one: (ties, disagreements,
    |U_float - U_exact| or None, the sum of |terms| U is rounded relative
    to).

    A closure or a cell's price owner that differs is a tie: the pricing
    test above bounds its objective gap, also where rounding would reopen
    a cell. With the prices alike, a type's quantity that differs is a
    tie when its exact utility there is within C * EPS times the costs
    and payments involved of its best, else a disagreement; so is a worst
    type that differs. U is compared only
    where every decision agrees."""
    exact, outcome = ref.solve(inst), solve(inst)
    p = outcome.schedule.p
    n = len(exact.paid) - 1  # the exact solve's open cells
    ties, wrong = [], []
    if len(p) != n:
        ties.append(f"closure at cell {len(p)}, not {n}")
    for j in range(min(len(p), n)):
        owners = np.flatnonzero(inst.cbar[:, j] == p[j])
        if any(exact.cbar[i][j] != exact.prices[j] for i in owners):
            ties.append(f"cell {j}: price owner")
    if ties:
        return ties, wrong, None, None
    if inst.worst != exact.worst:
        wrong.append(f"worst type {inst.worst}, not {exact.worst}")
    scale = _paid_scale(exact)
    for i, (kf, ke) in enumerate(zip(outcome.k.tolist(), exact.k)):
        if kf != ke:
            row = exact.ec[i]
            gap = float((exact.paid[ke] - row[ke]) - (exact.paid[kf] - row[kf]))
            bound = C * EPS * (float(abs(row[ke]) + abs(row[kf])) + scale[max(ke, kf)])
            (ties if gap <= bound else wrong).append(f"type {i}: k {kf}, not {ke}, gap {gap:.3g}")
    if ties or wrong:
        return ties, wrong, None, None
    qs = inst.grid.points
    t0 = float(abs(exact.t0))
    terms = sum(
        w * (abs(inst.vprime.value(qs[k])) + t0 + scale[k])
        for w, k in zip(inst.priors.tolist(), exact.k)
    )
    if exact.worst is None:  # the anchor is a deficit EC(q(x), x) - paid
        terms += max(float(abs(row[k])) + scale[k] for row, k in zip(exact.ec, exact.k))
    return ties, wrong, abs(Fraction(outcome.buyer_utility) - exact.buyer_utility), terms


@settings(max_examples=200, deadline=None)
@given(tiny_instances())
def test_float_solve_matches_exact_reference(inst):
    ties, wrong, err, terms = compare_solve(inst)
    assert not wrong, f"decisions that differ: {wrong}; ties: {ties}"
    # coarse draws make exact cost ties, which check_pointwise must read as
    # the solver does
    pointwise = check_pointwise(solve(inst))
    assert pointwise.passed, pointwise.line()
    if err is not None:
        assert err <= C * EPS * terms, f"|U_float - U_exact| {float(err):.3g}, terms {terms:.3g}"


@settings(max_examples=60, deadline=None)
@given(tiny_instances(coarse=True, max_cells=8))
def test_oracle_matches_exact_menu_optimum(inst):
    # The float oracle's score reads V and at most 2 * n_types + 1 expected
    # costs (a type's own, and two per gain on its rent's path), each within
    # REL of its magnitude. Coarse draws lie on decimal steps, so an
    # allocation's exact cycle weights are 0 or far above round-off, and the
    # float cycle test must keep or drop it as exact arithmetic does.
    costs, value = _magnitudes(inst)
    exact = ref.menu_optimum(inst)
    oracle = oracle_solve(inst.space, inst.model, inst.weather, inst.vprime, inst.grid)
    bound = REL * (value + (2 * len(costs) + 1) * max(costs))
    assert abs(Fraction(oracle) - exact) <= bound, (oracle, float(exact), bound)


def test_reference_closes_below_every_cost_and_ties_to_the_smallest_price():
    half = Fraction(1, 2)
    costs, priors = [Fraction(1), Fraction(2)], [half, half]
    # price 1 earns 1/2 * (3 - 1) and price 2 earns 1 * (3 - 2)
    assert ref.decision(costs, priors, Fraction(3)) == 1
    assert ref.decision(costs, priors, Fraction(5)) == 2
    assert ref.decision(costs, priors, half) is None


def test_reference_best_response_ties_to_the_largest_quantity_and_finds_the_worst_type():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(1), Fraction(2), Fraction(4)]]
    # type 0 earns 0 at every point: the tie goes to the largest quantity
    assert ref.best_points(rows, [Fraction(0), Fraction(1), Fraction(2)]) == [2, 1]
    assert ref.worst_type(rows) == 1
    assert ref.worst_type([rows[0], [Fraction(1), Fraction(3), Fraction(2)]]) is None


def test_a_float_tie_that_costs_the_buyer_a_quarter_of_its_utility():
    # Found by a seeded search over coarse draws like tiny_instances'. In
    # cell 1 the candidates 0.8 (t0) and 2.0 (t1) earn the same in float,
    # 1.2000000000000002; exact arithmetic prefers 2.0 by 1.1e-16. The
    # smallest-candidate rule prices 0.8, so the worst type t1 stops after
    # cell 0 and U is 31.128, against the exact 41.928 that the oracle
    # finds too. The tie rule is left as it is (ROADMAP item 11).
    types = (
        SellerType(id="t0", prior_weight=0.5, params={
            "c0": 3.0, "theta_w": 0.8, "theta_c": 0.8, "v_ci": 3.5, "v_r": 10.0, "v_co": 15.0,
            "gamma": 0.23}),
        SellerType(id="t1", prior_weight=0.5, params={
            "c0": 3.0, "theta_w": 0.8, "theta_c": 2.0, "v_ci": 1.0, "v_r": 2.0, "v_co": 9.5,
            "gamma": 0.18}),
    )
    inst = Instance.build(
        TypeSpace(types=types), make_model("wind_conventional"),
        WeatherModel(states=((4.5, 0.5), (9.0, 0.5))), QuantityGrid(q_max=36.0, n_cells=8),
        BuyerUtility.affine(3.2, 0.0),
    )
    outcome, exact = solve(inst), ref.solve(inst)
    assert (outcome.schedule.p[1], exact.prices[1]) == (0.7999999999999999, 2)
    assert (outcome.k.tolist(), exact.k, inst.worst, exact.worst) == ([8, 1], [8, 8], 1, 1)
    assert outcome.buyer_utility == pytest.approx(31.128, abs=1e-12)
    assert float(exact.buyer_utility) == pytest.approx(41.928, abs=1e-12)
    oracle = oracle_solve(inst.space, inst.model, inst.weather, inst.vprime, inst.grid)
    assert oracle == pytest.approx(41.928, abs=1e-12)
