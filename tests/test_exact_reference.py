"""Float pricing against the exact-rational reference on tiny instances:
Instance.build's cell costs agree within a stated round-off bound, and
price_cells makes the reference's decision in every cell, closure and price
owner, except where the two decisions' exact objectives are within that
bound of each other (a tie that rounding may break either way)."""
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import exact_reference as ref
from procure.costmodel import SellerType, TypeSpace, make_model
from procure.mechanism import BuyerUtility, Instance, QuantityGrid, price_cells
from procure.weather import WeatherModel

# Round-off bound relative to a magnitude over a cell width. A float cell
# cost is a difference of two expected costs, each a sum of at most five
# states' terms of at most c0 + (theta_w + theta_c) * q_max, divided by dq:
# about 22 roundings of that magnitude in the worst case, and vbar fewer.
# Over 20,000 draws the largest error of either was 1.74 units of 2^-52.
# Over 3,000 draws, 90 of 17,233 cells took another decision than the
# reference, every one within the bound below.
REL = 32 * 2.0**-52


@st.composite
def tiny_instances(draw):
    """2-4 types of either built-in model, 1-5 weather states, 3-12 cells.
    Coarse draws take every number on a decimal step, so that exact ties
    between types' costs occur; the others take any float in range."""
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
    grid = QuantityGrid(q_max=num(1.0, 40.0, 1.0), n_cells=draw(st.integers(3, 12)))
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
    cbar, vbar = ref.cell_averages(inst)
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
        if math.isnan(p[j]):
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


def test_reference_closes_below_every_cost_and_ties_to_the_smallest_price():
    half = Fraction(1, 2)
    costs, priors = [Fraction(1), Fraction(2)], [half, half]
    # price 1 earns 1/2 * (3 - 1) and price 2 earns 1 * (3 - 2)
    assert ref.decision(costs, priors, Fraction(3)) == 1
    assert ref.decision(costs, priors, Fraction(5)) == 2
    assert ref.decision(costs, priors, half) is None
