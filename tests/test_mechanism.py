import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from procure import mechanism
from procure.cli import main
from procure.costmodel import (
    CostModel,
    SellerType,
    SimpleCostModel,
    TypeSpace,
)
from procure.errors import ConfigurationError, ParameterDomainError
from procure.mechanism import (
    BuyerUtility,
    ContractOutcome,
    Instance,
    PriceSchedule,
    QuantityGrid,
    anchor_payment,
    best_response,
    build_price_schedule,
    default_grid,
    evaluate,
    exclusion_search,
    price_cells,
    solve,
)
from procure.scenario import load_scenario
from procure.verify import check_identity, check_quasi_concavity
from procure.weather import WeatherModel, weibull_model


class LinearModel(CostModel):
    """Plugin model with constant marginal cost given by the 'rate' parameter."""

    param_names = ("c0", "rate")

    def realized_cost(self, x, q, w):
        return x.param("c0") + x.param("rate") * q


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
    return WeatherModel([5.0], [1.0])


@pytest.mark.parametrize("q_max, n_cells", [(10.0, 4), (0.3, 7), (1.0, 1), (5500.0, 20000)])
def test_grid_points_are_built_once_and_read_only(q_max, n_cells):
    grid = QuantityGrid(q_max=q_max, n_cells=n_cells)
    points = grid.points
    assert grid.points is points
    assert points.tobytes() == np.linspace(0.0, q_max, n_cells + 1).tobytes()
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0] = 1.0


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


def test_grid_refuses_a_cell_width_that_underflows():
    # 1e-323 over 4 cells rounds to dq = 0, and the grid points repeat
    with pytest.raises(ConfigurationError, match=r"^q_max / n_cells must be positive"):
        QuantityGrid(q_max=1.0e-323, n_cells=4)
    assert QuantityGrid(q_max=1.0e-323, n_cells=2).dq == 5e-324


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
    with pytest.raises(ConfigurationError, match="V' never reaches zero"):
        default_grid(flat)
    # q_zero is 0 here: V' reaches zero at once, it does not stay positive
    nonpositive = BuyerUtility.piecewise([(0.0, 0.0), (10.0, -1.0)])
    with pytest.raises(ConfigurationError, match="V' is not positive at q = 0"):
        default_grid(nonpositive)


def one_cell_price(costs, priors, v_marg):
    """Optimal price of one cell with the given per-type marginal costs;
    None when the cell is closed."""
    p = price_cells(np.array([[c] for c in costs]), np.array(priors), np.array([v_marg]))
    return float(p[0]) if len(p) else None


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
    assert schedule.n_open < grid.n_cells
    for j in range(schedule.n_open):
        assert schedule.p[j] == cbar[j]
    # payments flat after closure
    t = schedule.payments()
    assert t[-1] == t[schedule.n_open]


def test_closed_everywhere(point_weather):
    model = LinearModel()
    space = rate_space(0.9)
    v = BuyerUtility.affine(0.5, 1e-2)
    grid = QuantityGrid(q_max=50.0, n_cells=10)
    inst = Instance.build(space, model, point_weather, grid, v)
    schedule = build_price_schedule(inst)
    assert schedule.n_open == 0
    # no cell is open: every type stays at q = 0, and the identity gate
    # is its relative floor alone
    outcome = evaluate(inst, schedule)
    assert np.array_equal(outcome.k, np.zeros(len(space), dtype=int))
    tol = check_identity(outcome).tol
    assert tol == 5e-3 * max(1.0, abs(outcome.buyer_utility))


def test_anchor_worst_type(weather):
    model = SimpleCostModel()
    space = TypeSpace(
        (simple_type("g1", gamma=1.0, prior=0.5), simple_type("g2", gamma=2.0, prior=0.5))
    )
    v = BuyerUtility.affine(1.0, 1.5e-3)
    grid = QuantityGrid(q_max=1.0 / 1.5e-3, n_cells=500)
    inst = Instance.build(space, model, weather, grid, v)
    t0 = anchor_payment(evaluate(inst, build_price_schedule(inst)))
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
        (schedule, "n_open"),
        (six_outcome, "schedule"),
        (six_outcome, "buyer_utility"),
        (six_scenario, "alpha"),
        (six_scenario, "admissible"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


@pytest.mark.parametrize("p", [np.ones(7), np.ones((6, 1)), 1.0],
                         ids=["long", "column", "scalar"])
def test_schedule_refuses_prices_not_one_per_cell(p):
    # a schedule holds at most one price per cell, in a flat list
    with pytest.raises(ConfigurationError, match=r"^prices of shape \(.*\) for 6 cells$"):
        PriceSchedule(grid=QuantityGrid(q_max=6.0, n_cells=6), p=p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedule_refuses_a_non_finite_price(bad):
    # closure is the end of p, so no price value stands for a closed cell
    with pytest.raises(ConfigurationError, match="^prices must be finite$"):
        PriceSchedule(grid=QuantityGrid(q_max=6.0, n_cells=6), p=[1.0, bad])


def test_schedule_closes_after_its_prices():
    schedule = PriceSchedule(grid=QuantityGrid(q_max=6.0, n_cells=6), p=[1.0, 2.0, 0.5], t0=1.0)
    assert schedule.n_open == 3
    assert schedule.payments().tolist() == [1.0, 2.0, 4.0, 4.5, 4.5, 4.5, 4.5]


@pytest.mark.parametrize("q_scale, cell_scale", [(2, 1), (1, 2)],
                         ids=["twice-q_max", "twice-n_cells"])
def test_evaluate_refuses_a_schedule_on_another_grid(scenario_dir, q_scale, cell_scale):
    # unchecked, the first evaluated silently and the second raised
    # numpy's broadcast ValueError
    inst = load_scenario(scenario_dir / "tiny_oracle.yaml").instance
    schedule = solve(inst).schedule
    grid = QuantityGrid(q_max=q_scale * inst.grid.q_max, n_cells=cell_scale * inst.grid.n_cells)
    foreign = PriceSchedule(grid=grid, p=np.repeat(schedule.p, cell_scale), t0=schedule.t0)
    with pytest.raises(ConfigurationError, match="^schedule on QuantityGrid"):
        evaluate(inst, foreign)


def test_schedule_keeps_its_own_copy_of_the_prices():
    # a write to the caller's array would otherwise reach p behind n_open
    arr = np.array([1.0, 2.0, 3.0])
    s = PriceSchedule(grid=QuantityGrid(q_max=3.0, n_cells=3), p=arr)
    payments = s.payments()
    arr[1] = 7.0
    assert s.p.tolist() == [1.0, 2.0, 3.0]
    assert s.n_open == 3
    assert np.array_equal(s.payments(), payments)


@pytest.mark.parametrize("fixture", ["six_scenario", "worst_scenario"])
def test_anchor_payment_leaves_the_schedule_as_it_is(request, fixture):
    # six_types is anchored a posteriori, simple_worst at its worst type;
    # the outcome's own t0 plays no part in the anchor
    inst = request.getfixturevalue(fixture).instance
    outcome = evaluate(inst, replace(build_price_schedule(inst), t0=-1.5))
    bits = outcome.schedule.p.tobytes()
    t0 = anchor_payment(outcome)
    assert outcome.schedule.t0 == -1.5
    assert outcome.schedule.p.tobytes() == bits
    assert t0 == solve(inst).schedule.t0


def test_best_response_unprofitable_schedule(point_weather):
    model = LinearModel()
    space = rate_space(0.5, c0=1.0)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, BuyerUtility.affine(0.3, 0.0))
    schedule = build_price_schedule(inst)
    # everything closed; seller stays at zero and collects the anchor
    schedule = replace(schedule, t0=anchor_payment(evaluate(inst, schedule)))
    assert best_response(space.by_id("r0"), schedule, model, point_weather) == 0.0
    out = solve(inst)
    assert out.q[0] == 0.0
    assert out.payment[0] == out.schedule.t0


def test_best_response_tie_breaks_to_largest(point_weather):
    # flat price equal to the only type's marginal cost: the seller is
    # indifferent on every open cell and the tie goes to the largest q
    model = LinearModel()
    space = rate_space(0.5)
    v = BuyerUtility.affine(0.5, 0.0)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, v)
    schedule = build_price_schedule(inst)
    schedule = replace(schedule, t0=anchor_payment(evaluate(inst, schedule)))
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
    outcome = exclusion_search(inst)
    assert outcome.admissible_ids == ("ok",)
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
    outcome = exclusion_search(Instance.build(space, model, weather, grid, v))
    assert set(outcome.admissible_ids) == {"g1", "g2"}


def test_exclusion_search_single_type(weather):
    model = SimpleCostModel()
    space = TypeSpace((simple_type("only"),))
    v = BuyerUtility.affine(0.8, 2e-3)
    grid = QuantityGrid(q_max=400.0, n_cells=100)
    outcome = exclusion_search(Instance.build(space, model, weather, grid, v))
    assert outcome.admissible_ids == ("only",)


def test_exclusion_search_refuses_more_than_twelve_types(
    weather, scenario_dir, tmp_path, capsys, ec_calls
):
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
    ec_calls.clear()
    assert main(["exclusion-search", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 13 types exceed the enumeration limit (12)\n"
    assert not out.exists()
    # the load refuses the type count before it builds the instance
    assert not ec_calls


@pytest.mark.parametrize(
    "scenario, outcome",
    [("worst_scenario", "worst_outcome"), ("six_scenario", "six_outcome")],
    ids=["simple_worst", "six_types"],
)
def test_anchor_shift_does_not_move_argmax(request, scenario, outcome):
    # re-solving with the anchor already applied must reproduce the same
    # quantities: t0 is an additive constant in the seller's objective.
    # simple_worst is anchored at its worst type, six_types a posteriori
    sc, outcome = request.getfixturevalue(scenario), request.getfixturevalue(outcome)
    schedule = outcome.schedule
    for x, q in zip(sc.space, outcome.q):
        assert best_response(x, schedule, sc.model, sc.weather) == q


@pytest.mark.parametrize("t0", [0.0, 1.0, 1e6])
def test_best_response_does_not_depend_on_t0_in_a_tie(point_weather, t0):
    # cell 2 is priced one ulp below the type's cost, so producing beyond
    # q = 4 loses about 1e-16 against ties everywhere else. Added to a
    # utility of 1e6 that loss would round away and the tie-break would
    # pick q = 10; the type's quantity must come from the prices alone
    model = LinearModel()
    space = rate_space(0.5)
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, point_weather, grid, BuyerUtility.affine(1.0, 0.0))
    p = inst.cbar[0].copy()
    p[2] = np.nextafter(p[2], 0.0)
    schedule = PriceSchedule(grid=grid, p=p, t0=t0)
    assert evaluate(inst, schedule).k.tolist() == [2]
    assert best_response(space.by_id("r0"), schedule, model, point_weather) == 4.0


def test_solve_looks_up_anchor_payment_in_its_module(monkeypatch, six_scenario):
    # the benchmark's self-test makes the solver raise by patching
    # procure.mechanism.anchor_payment, so solve must call it through
    # the module
    def raising(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(mechanism, "anchor_payment", raising)
    with pytest.raises(RuntimeError, match="injected fault"):
        solve(six_scenario.instance)


@pytest.mark.parametrize("fixture", ["six_scenario", "worst_scenario"])
def test_solve_finds_the_best_responses_once(monkeypatch, request, fixture):
    # six_types is anchored a posteriori, simple_worst at its worst type;
    # the quantities do not depend on t0, so neither anchor needs a second pass
    calls = []

    def counted(*args, _original=mechanism._best_points):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(mechanism, "_best_points", counted)
    solve(request.getfixturevalue(fixture).instance)
    assert len(calls) == 1


@pytest.mark.parametrize("t0", [-2.5, 0.0, 7.0])
def test_an_outcome_reads_its_columns_from_its_schedule(six_outcome, t0):
    # the outcome holds only its schedule, quantities and instance, so a
    # copy re-anchored with replace reads the new t0's columns
    schedule = replace(six_outcome.schedule, t0=t0)
    moved = replace(six_outcome, schedule=schedule)
    again = evaluate(six_outcome.instance, schedule)
    for name in ("payment", "expected_cost", "utility"):
        assert getattr(moved, name).tobytes() == getattr(again, name).tobytes(), name
    assert moved.buyer_utility.hex() == again.buyer_utility.hex()
    assert moved.payment.tobytes() != six_outcome.payment.tobytes()
    assert [f.name for f in fields(ContractOutcome)] == ["schedule", "k", "instance"]


def test_schedule_payment_monotone_while_open(six_outcome):
    t = six_outcome.schedule.payments()
    n = six_outcome.schedule.n_open
    assert np.all(np.diff(t[: n + 1]) > 0.0)
    assert np.all(np.diff(t[n:]) == 0.0)
