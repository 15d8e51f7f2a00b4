import math

import numpy as np
import pytest

from procure.costmodel import (
    PluginCostModel,
    SellerType,
    SimpleCostModel,
    TypeSpace,
)
from procure.errors import ConfigurationError, ParameterDomainError
from procure.mechanism import (
    BuyerUtility,
    Instance,
    QuantityGrid,
    anchor_payment,
    best_response,
    build_price_schedule,
    default_grid,
    exclusion_search,
    price_cells,
    solve,
)
from procure.weather import WeatherModel, weibull_model


def linear_model():
    """Plugin model with constant marginal cost given by the 'rate' parameter."""
    return PluginCostModel(
        realized=lambda x, q, w: x.param("c0") + x.param("rate") * q,
        param_names=("c0", "rate"),
        raising_params=("c0", "rate"),
        lowering_params=(),
    )


def rate_space(*rates, c0=0.0):
    n = len(rates)
    return TypeSpace(
        tuple(
            SellerType(f"r{i}", {"c0": c0, "rate": r}, 1.0 / n)
            for i, r in enumerate(rates)
        )
    )


def simple_type(tid, c0=4.0, theta_c=1.2, gamma=1.0, prior=1.0):
    return SellerType(tid, {"c0": c0, "theta_c": theta_c, "gamma": gamma}, prior)


@pytest.fixture(scope="module")
def weather():
    return weibull_model(3.0, 5.0, 100)


@pytest.fixture(scope="module")
def point_weather():
    return WeatherModel(states=((5.0, 1.0),))


def test_grid_invariants():
    grid = QuantityGrid(q_max=10.0, n_cells=4)
    assert grid.points[0] == 0.0
    assert grid.dq == 2.5
    with pytest.raises(ConfigurationError):
        QuantityGrid(q_max=0.0, n_cells=4)
    with pytest.raises(ConfigurationError):
        QuantityGrid(q_max=10.0, n_cells=0)


def test_buyer_utility_affine():
    v = BuyerUtility.affine(1.0, 0.01)
    assert v.marginal(0.0) == 1.0
    assert v.marginal(50.0) == pytest.approx(0.5)
    assert v.value(0.0) == 0.0
    assert v.value(10.0) == pytest.approx(10.0 - 0.005 * 100.0)
    assert v.q_zero() == pytest.approx(100.0)


def test_buyer_utility_piecewise():
    v = BuyerUtility.piecewise([(0.0, 1.0), (10.0, 1.0), (20.0, 0.0)])
    assert v.marginal(5.0) == pytest.approx(1.0)
    assert v.marginal(15.0) == pytest.approx(0.5)
    assert v.value(10.0) == pytest.approx(10.0)
    # nonincreasing is required
    with pytest.raises(ConfigurationError):
        BuyerUtility.piecewise([(0.0, 0.5), (10.0, 1.0)])


def test_default_grid_uses_marginal_utility_root():
    v = BuyerUtility.affine(1.0, 0.01)
    grid = default_grid(v, n_cells=100)
    assert grid.q_max == pytest.approx(100.0)
    flat = BuyerUtility.affine(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        default_grid(flat)


def one_cell_price(costs, priors, v_marg):
    """Optimal price of one cell with the given per-type marginal costs;
    None when the cell is closed."""
    p, closed_from = price_cells(
        np.array([[c] for c in costs]), np.array(priors), np.array([v_marg])
    )
    return None if closed_from == 0 else float(p[0])


def test_optimal_price_single_type():
    # single candidate with positive margin: full extraction at the margin
    assert one_cell_price([0.3], [1.0], 1.0) == pytest.approx(0.3)


def test_optimal_price_two_types():
    # V' = 1.0: full participation wins, 1.0*(1-0.5) beats 0.5*(1-0.3)
    assert one_cell_price([0.3, 0.5], [0.5, 0.5], 1.0) == pytest.approx(0.5)
    # V' = 0.8 with a 0.7 prior on the cheap type flips it:
    # 0.7*(0.8-0.3) = 0.35 beats 1.0*(0.8-0.5) = 0.30
    assert one_cell_price([0.3, 0.5], [0.7, 0.3], 0.8) == pytest.approx(0.3)


def test_optimal_price_closed():
    assert one_cell_price([0.3, 0.5], [0.5, 0.5], 0.1) is None


def test_single_type_schedule_tracks_cost_then_closes(weather):
    model = SimpleCostModel()
    space = TypeSpace((simple_type("only"),))
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=200)
    inst = Instance.build(space, model, weather, grid, v)
    schedule = build_price_schedule(inst)
    cbar = inst.cbar[0]
    assert schedule.closed_from is not None
    for j in range(schedule.n_open):
        assert schedule.p[j] == cbar[j]
    # payments flat after closure
    t = schedule.payments()
    assert t[-1] == t[schedule.n_open]


def test_closed_everywhere(point_weather):
    model = linear_model()
    space = rate_space(0.9)
    v = BuyerUtility.affine(0.5, 1e-2)
    grid = QuantityGrid(q_max=50.0, n_cells=10)
    schedule = build_price_schedule(Instance.build(space, model, point_weather, grid, v))
    assert schedule.closed_from == 0
    assert schedule.n_open == 0


def test_anchor_worst_type(weather):
    model = SimpleCostModel()
    space = TypeSpace(
        (simple_type("g1", gamma=1.0, prior=0.5), simple_type("g2", gamma=2.0, prior=0.5))
    )
    v = BuyerUtility.affine(1.0, 1.5e-3)
    grid = QuantityGrid(q_max=1.0 / 1.5e-3, n_cells=500)
    inst = Instance.build(space, model, weather, grid, v)
    schedule = build_price_schedule(inst)
    t0 = anchor_payment(schedule, inst)
    assert t0 == 4.0


def test_anchor_single_type_extracts_everything(weather):
    model = SimpleCostModel()
    space = TypeSpace((simple_type("only"),))
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=200)
    out = solve(Instance.build(space, model, weather, grid, v))
    assert out.by_id("only").utility == pytest.approx(0.0, abs=1e-12)


def test_anchor_no_worst_type_min_utility_zero(six_outcome):
    assert min(rec.utility for rec in six_outcome.per_type) == pytest.approx(0.0, abs=1e-12)
    assert six_outcome.schedule.t0 == 4.0


def test_best_response_unprofitable_schedule(point_weather):
    model = linear_model()
    space = rate_space(0.5, c0=1.0)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, BuyerUtility.affine(0.3, 0.0))
    schedule = build_price_schedule(inst)
    # everything closed; seller stays at zero and collects the anchor
    anchor_payment(schedule, inst)
    rec = best_response(space.by_id("r0"), schedule, model, point_weather)
    assert rec.q == 0.0
    assert rec.payment == schedule.t0


def test_best_response_tie_breaks_to_largest(point_weather):
    # flat price equal to the only type's marginal cost: the seller is
    # indifferent on every open cell and the tie goes to the largest q
    model = linear_model()
    space = rate_space(0.5)
    v = BuyerUtility.affine(0.5, 0.0)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, v)
    schedule = build_price_schedule(inst)
    anchor_payment(schedule, inst)
    rec = best_response(space.by_id("r0"), schedule, model, point_weather)
    assert rec.q == 10.0
    assert rec.quasi_concave


def test_solve_single_type_first_best(weather):
    model = SimpleCostModel()
    space = TypeSpace((simple_type("only"),))
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=400)
    out = solve(Instance.build(space, model, weather, grid, v))
    pts = grid.points
    ec = model.expected_cost_grid(space.by_id("only"), pts, weather)
    first_best = float(np.max(v.value(pts) - ec))
    tol = grid.dq * 1.2
    assert abs(out.buyer_utility - first_best) <= tol


def test_solve_identical_types_symmetric(weather):
    model = SimpleCostModel()
    space = TypeSpace(
        (simple_type("t1", prior=0.5), simple_type("t2", prior=0.5))
    )
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=200)
    out = solve(Instance.build(space, model, weather, grid, v))
    r1, r2 = out.by_id("t1"), out.by_id("t2")
    assert r1.q == r2.q
    assert r1.payment == r2.payment
    assert r1.utility == r2.utility


def test_better_type_produces_more(six_scenario, six_outcome):
    assert six_outcome.by_id("b").q >= six_outcome.by_id("a").q


def test_admissible_subset_restricts_schedule(weather):
    model = SimpleCostModel()
    space = TypeSpace(
        (simple_type("g1", gamma=1.0, prior=0.5), simple_type("g2", gamma=2.0, prior=0.5))
    )
    v = BuyerUtility.affine(1.0, 1.5e-3)
    grid = QuantityGrid(q_max=1.0 / 1.5e-3, n_cells=200)
    out = solve(Instance.build(space, model, weather, grid, v), admissible=["g2"])
    assert out.admissible_ids == ("g2",)
    # with only one admissible type the surplus at the margin is extracted
    assert out.by_id("g2").utility == pytest.approx(0.0, abs=1e-12)


def test_exclusion_search_drops_expensive_type(weather):
    model = SimpleCostModel()
    space = TypeSpace(
        (
            simple_type("ok", c0=4.0, gamma=2.0, prior=0.5),
            simple_type("ruinous", c0=80.0, gamma=1.0, prior=0.5),
        )
    )
    v = BuyerUtility.affine(1.0, 1.5e-3)
    grid = QuantityGrid(q_max=1.0 / 1.5e-3, n_cells=200)
    inst = Instance.build(space, model, weather, grid, v)
    ids, outcome, exhaustive = exclusion_search(inst)
    assert exhaustive
    assert ids == ("ok",)
    full = solve(inst)
    assert outcome.buyer_utility > full.buyer_utility


def test_exclusion_search_keeps_full_set_without_startup_costs(weather):
    model = SimpleCostModel()
    space = TypeSpace(
        (
            simple_type("g1", c0=0.0, gamma=1.0, prior=0.5),
            simple_type("g2", c0=0.0, gamma=2.0, prior=0.5),
        )
    )
    v = BuyerUtility.affine(1.0, 1.5e-3)
    grid = QuantityGrid(q_max=1.0 / 1.5e-3, n_cells=200)
    ids, _outcome, _ = exclusion_search(Instance.build(space, model, weather, grid, v))
    assert set(ids) == {"g1", "g2"}


def test_exclusion_search_single_type(weather):
    model = SimpleCostModel()
    space = TypeSpace((simple_type("only"),))
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=100)
    ids, _, exhaustive = exclusion_search(Instance.build(space, model, weather, grid, v))
    assert ids == ("only",)
    assert exhaustive


def test_anchor_shift_does_not_move_argmax(worst_scenario, worst_outcome):
    # re-solving with the anchor already applied must reproduce the same
    # quantities: t0 is an additive constant in the seller's objective
    sc = worst_scenario
    schedule = worst_outcome.schedule
    for x in sc.space:
        rec = best_response(x, schedule, sc.model, sc.weather)
        assert rec.q == worst_outcome.by_id(x.id).q


def test_schedule_payment_monotone_while_open(six_outcome):
    t = six_outcome.schedule.payments()
    n = six_outcome.schedule.n_open
    assert np.all(np.diff(t[: n + 1]) > 0.0)
    assert np.all(np.diff(t[n:]) == 0.0)
