import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from procure.cli import main
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
from procure.verify import check_quasi_concavity
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
    for q_max in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            QuantityGrid(q_max=q_max, n_cells=4)


def test_buyer_utility_affine():
    v = BuyerUtility.affine(1.0, 0.01)
    assert v.marginal(0.0) == 1.0
    assert v.marginal(50.0) == pytest.approx(0.5)
    assert v.value(0.0) == 0.0
    assert v.value(10.0) == pytest.approx(10.0 - 0.005 * 100.0)
    assert v.q_zero() == pytest.approx(100.0)
    for a, b in ((math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ConfigurationError, match="finite"):
            BuyerUtility.affine(a, b)


def test_buyer_utility_piecewise():
    v = BuyerUtility.piecewise([(0.0, 1.0), (10.0, 1.0), (20.0, 0.0)])
    assert v.marginal(5.0) == pytest.approx(1.0)
    assert v.marginal(15.0) == pytest.approx(0.5)
    assert v.value(10.0) == pytest.approx(10.0)
    # nonincreasing is required
    with pytest.raises(ConfigurationError):
        BuyerUtility.piecewise([(0.0, 0.5), (10.0, 1.0)])
    for bad in (math.nan, math.inf):
        for breakpoints in ([(0.0, 1.0), (bad, 0.0)], [(0.0, 1.0), (10.0, bad)],
                            [(0.0, bad), (10.0, 0.0)]):
            with pytest.raises(ConfigurationError, match="finite"):
                BuyerUtility.piecewise(breakpoints)


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
    p = price_cells(np.array([[c] for c in costs]), np.array(priors), np.array([v_marg]))
    return None if np.isnan(p[0]) else float(p[0])


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
    assert out.utility[0] == pytest.approx(0.0, abs=1e-12)


def test_anchor_no_worst_type_min_utility_zero(six_outcome):
    assert min(six_outcome.utility) == pytest.approx(0.0, abs=1e-12)
    assert six_outcome.schedule.t0 == 4.0


def test_pipeline_objects_are_immutable(six_scenario, six_outcome):
    schedule = six_outcome.schedule
    with pytest.raises(ValueError, match="read-only"):
        schedule.p[0] = 1.0
    for obj, name in (
        (schedule, "t0"),
        (schedule, "closed_from"),
        (six_outcome, "schedule"),
        (six_outcome, "buyer_utility"),
        (six_scenario, "alpha"),
        (six_scenario, "admissible"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


@pytest.mark.parametrize("fixture", ["six_scenario", "worst_scenario"])
def test_anchor_payment_leaves_the_schedule_as_it_is(request, fixture):
    # six_types is anchored a posteriori, simple_worst at its worst type
    inst = request.getfixturevalue(fixture).instance
    schedule = replace(build_price_schedule(inst), t0=-1.5)
    bits = schedule.p.tobytes()
    t0 = anchor_payment(schedule, inst)
    assert schedule.t0 == -1.5
    assert schedule.p.tobytes() == bits
    assert t0 == solve(inst).schedule.t0


def test_best_response_unprofitable_schedule(point_weather):
    model = linear_model()
    space = rate_space(0.5, c0=1.0)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, BuyerUtility.affine(0.3, 0.0))
    schedule = build_price_schedule(inst)
    # everything closed; seller stays at zero and collects the anchor
    schedule = replace(schedule, t0=anchor_payment(schedule, inst))
    assert best_response(space.by_id("r0"), schedule, model, point_weather) == 0.0
    out = solve(inst)
    assert out.q[0] == 0.0
    assert out.payment[0] == out.schedule.t0


def test_best_response_tie_breaks_to_largest(point_weather):
    # flat price equal to the only type's marginal cost: the seller is
    # indifferent on every open cell and the tie goes to the largest q
    model = linear_model()
    space = rate_space(0.5)
    v = BuyerUtility.affine(0.5, 0.0)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, v)
    schedule = build_price_schedule(inst)
    schedule = replace(schedule, t0=anchor_payment(schedule, inst))
    assert best_response(space.by_id("r0"), schedule, model, point_weather) == 10.0
    out = solve(inst)
    assert out.q[0] == 10.0
    assert check_quasi_concavity(out).passed


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
    assert out.q[0] == out.q[1]
    assert out.payment[0] == out.payment[1]
    assert out.utility[0] == out.utility[1]


def test_better_type_produces_more(six_scenario, six_outcome):
    index = six_outcome.instance.space.index
    assert six_outcome.q[index("b")] >= six_outcome.q[index("a")]


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
    assert out.utility[0] == pytest.approx(0.0, abs=1e-12)


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
    ids, outcome = exclusion_search(inst)
    assert ids == ("ok",)
    assert outcome.admissible_ids == ids
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
    ids, _outcome = exclusion_search(Instance.build(space, model, weather, grid, v))
    assert set(ids) == {"g1", "g2"}


def test_exclusion_search_single_type(weather):
    model = SimpleCostModel()
    space = TypeSpace((simple_type("only"),))
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=100)
    ids, _ = exclusion_search(Instance.build(space, model, weather, grid, v))
    assert ids == ("only",)


def test_exclusion_search_refuses_more_than_twelve_types(weather, scenario_dir, tmp_path, capsys):
    model = SimpleCostModel()
    space = TypeSpace(tuple(simple_type(f"t{i}", gamma=1.0 + i, prior=1 / 13) for i in range(13)))
    v = BuyerUtility.affine(1.0, 1.5e-3)
    grid = QuantityGrid(q_max=1.0 / 1.5e-3, n_cells=20)
    with pytest.raises(ConfigurationError, match="13 types exceed the enumeration limit"):
        exclusion_search(Instance.build(space, model, weather, grid, v))
    types = "".join(
        f"  - {{id: t{i}, params: {{c0: 4, theta_c: 1.2, gamma: {1 + i}}}}}\n" for i in range(13)
    )
    path = tmp_path / "thirteen.yaml"
    path.write_text(
        "weather: {kind: weibull, shape: 3.0, mean: 5.0, n_points: 20}\n"
        "cost_model: {kind: simple}\n"
        f"types:\n{types}"
        "buyer:\n  marginal_utility: {kind: affine, intercept: 1.0, slope: 1.5e-3}\n"
        "grid: {q_max: 600, n_cells: 20}\n"
    )
    out = tmp_path / "out"
    assert main(["exclusion-search", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 13 types exceed the enumeration limit (12)\n"
    assert not out.exists()


def test_anchor_shift_does_not_move_argmax(worst_scenario, worst_outcome):
    # re-solving with the anchor already applied must reproduce the same
    # quantities: t0 is an additive constant in the seller's objective
    sc = worst_scenario
    schedule = worst_outcome.schedule
    for x, q in zip(sc.space, worst_outcome.q):
        assert best_response(x, schedule, sc.model, sc.weather) == q


def test_schedule_payment_monotone_while_open(six_outcome):
    t = six_outcome.schedule.payments()
    n = six_outcome.schedule.n_open
    assert np.all(np.diff(t[: n + 1]) > 0.0)
    assert np.all(np.diff(t[n:]) == 0.0)
