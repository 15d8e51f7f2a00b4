"""The shared type x grid-point instance: built once per command, read by
every stage, and priced in one vectorized pass that matches the per-cell
construction."""
import dataclasses
from collections import Counter
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure import mechanism
from procure.cli import cmd_solve, cmd_verify, main
from procure.costmodel import (
    PluginCostModel,
    SellerType,
    SimpleCostModel,
    TypeSpace,
    WindConventionalCostModel,
    dominance_matrix,
    dominates,
    find_worst_type,
    worst_index,
)
from procure.errors import CellReopenedError, ConfigurationError, ProcureError
from procure.mechanism import (
    Instance,
    PriceSchedule,
    QuantityGrid,
    _upward_closed_subsets,
    exclusion_search,
    price_cells,
    solve,
)
from procure.scenario import load_scenario
from procure.verify import check_identity, check_pointwise


def _best_cell_price(
    costs: np.ndarray, priors: np.ndarray, v_marg: float
) -> Optional[float]:
    """Per-cell reference: maximize survival(p) * (v_marg - p) over the
    candidate costs, survival counting every type with cost <= p, ties to
    the smallest candidate; None when the cell is closed."""
    order = np.argsort(costs, kind="stable")
    cs = costs[order]
    cum = np.cumsum(priors[order])
    surv = cum[np.searchsorted(cs, cs, side="right") - 1]
    obj = surv * (v_marg - cs)
    best = int(np.argmax(obj))
    if obj[best] <= 0.0 and v_marg < cs[0]:
        return None
    ties = np.nonzero(obj == obj[best])[0]
    return float(cs[ties[0]])


# a few levels make exact ties between types common
LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]
COSTS = st.one_of(st.sampled_from(LEVELS), st.floats(0.0, 2.0))
PRIORS = st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5])


@st.composite
def pricing_inputs(draw):
    n_types = draw(st.integers(1, 5))
    n_cells = draw(st.integers(1, 8))
    cbar = np.array(
        draw(st.lists(st.lists(COSTS, min_size=n_cells, max_size=n_cells),
                      min_size=n_types, max_size=n_types))
    )
    priors = np.array(draw(st.lists(PRIORS, min_size=n_types, max_size=n_types)))
    if draw(st.booleans()):
        # no type carries weight: every margin is 0
        priors[:] = 0.0
    vbar = np.sort(
        np.array(draw(st.lists(COSTS, min_size=n_cells, max_size=n_cells)))
    )[::-1].copy()
    # V' exactly at the smallest cost: open at a margin of 0
    at_cost = draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells))
    vbar[at_cost] = cbar.min(axis=0)[at_cost]
    # a closed tail: marginal utility below every cost
    tail = draw(st.integers(0, n_cells))
    if tail:
        vbar[n_cells - tail:] = -1.0
    return cbar, priors, vbar


@settings(max_examples=300, deadline=None)
@given(pricing_inputs())
def test_price_cells_matches_per_cell_reference(inputs):
    cbar, priors, vbar = inputs
    ref = [_best_cell_price(cbar[:, j], priors, float(vbar[j])) for j in range(len(vbar))]
    p = price_cells(cbar, priors, vbar)
    want = np.array([np.nan if price is None else price for price in ref])
    # the same bits, closed cells' NaN included, reopened cells or not
    assert np.array_equal(p.view(np.int64), want.view(np.int64))
    grid = QuantityGrid(q_max=1.0, n_cells=len(vbar))
    closed = [j for j, price in enumerate(ref) if price is None]
    if closed and closed != list(range(closed[0], len(vbar))):
        reopened = next(j for j in range(closed[0], len(vbar)) if ref[j] is not None)
        with pytest.raises(
            CellReopenedError, match=f"^cell {reopened} reopened after closure at {closed[0]}$"
        ):
            PriceSchedule(grid=grid, p=p)
        return
    assert PriceSchedule(grid=grid, p=p).closed_from == (closed[0] if closed else None)


def test_schedule_rejects_reopened_cell():
    # one type; its cost dips back under V' after the cell at 1 closed
    p = price_cells(np.array([[1.0, 5.0, 1.0]]), np.array([1.0]), np.array([2.0, 2.0, 2.0]))
    assert np.array_equal(p, [1.0, np.nan, 1.0], equal_nan=True)
    with pytest.raises(CellReopenedError, match="cell 2 reopened after closure at 1"):
        PriceSchedule(grid=QuantityGrid(q_max=3.0, n_cells=3), p=p)
    assert issubclass(CellReopenedError, ProcureError)


def test_reopened_cell_exits_2_without_traceback(scenario_dir, tmp_path, monkeypatch, capsys):
    real = mechanism.cell_marginal_utility

    def rising_tail(vprime, grid):
        vbar = real(vprime, grid)
        vbar[-1] = 10.0  # V' jumps back up in the last cell
        return vbar

    monkeypatch.setattr(mechanism, "cell_marginal_utility", rising_tail)
    path = scenario_dir / "six_types.yaml"
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "reopened after closure" in err
    assert "Traceback" not in err


@pytest.fixture
def ec_calls(monkeypatch):
    """Counts expected_cost_grid calls per (type id, number of points)."""
    calls = Counter()
    for cls in (SimpleCostModel, WindConventionalCostModel):
        def counted(self, x, qs, weather, _original=cls.expected_cost_grid):
            calls[(x.id, len(qs))] += 1
            return _original(self, x, qs, weather)

        monkeypatch.setattr(cls, "expected_cost_grid", counted)
    return calls


def _once_per_type(calls, n_points):
    return {key: n for key, n in calls.items() if key[1] == n_points} == {
        (tid, n_points): 1 for tid in "abcdef"
    }


def test_solve_command_computes_each_curve_once(scenario_dir, tmp_path, ec_calls):
    assert cmd_solve(scenario_dir / "six_types.yaml", tmp_path / "out") == 0
    assert _once_per_type(ec_calls, 2001), ec_calls


def test_solve_command_once_per_grid_with_override(scenario_dir, tmp_path, ec_calls):
    # the load builds its instance on the override grid only
    rc = cmd_solve(scenario_dir / "six_types.yaml", tmp_path / "out", grid_cells=500)
    assert rc == 0
    assert _once_per_type(ec_calls, 501), ec_calls
    assert len(ec_calls) == 6


def test_verify_command_computes_each_curve_once(scenario_dir, ec_calls, capsys):
    assert cmd_verify(scenario_dir / "six_types.yaml") == 0
    assert _once_per_type(ec_calls, 2001), ec_calls
    assert len(ec_calls) == 6


def test_exclusion_search_computes_each_curve_once(scenario_dir, ec_calls):
    sc = load_scenario(scenario_dir / "six_types.yaml")
    # three dominance-ordered pairs leave 26 upward-closed subsets
    assert len(_upward_closed_subsets(sc.instance)) == 26
    assert _once_per_type(ec_calls, 2001), ec_calls
    ec_calls.clear()
    exclusion_search(sc.instance)
    assert not ec_calls


def test_instance_matches_pairwise_dominance(six_scenario, worst_scenario):
    for sc in (six_scenario, worst_scenario):
        inst = sc.instance
        pts = sc.grid.points
        for i, x in enumerate(sc.space):
            assert np.array_equal(inst.ec[i], sc.model.expected_cost_grid(x, pts, sc.weather))
            for j, y in enumerate(sc.space):
                if i != j:
                    assert inst.dominance[i, j] == dominates(x, y, sc.model, sc.weather, pts)
        assert inst.worst_type == find_worst_type(sc.space, sc.model, sc.weather, pts)
    assert six_scenario.instance.worst is None
    assert worst_scenario.instance.worst_type.id == "g1"


def test_restrict_equals_fresh_build(six_scenario):
    sc = six_scenario
    ids = ("b", "d", "f")
    sub = sc.instance.restrict(ids)
    fresh = Instance.build(sc.space.subset(ids), sc.model, sc.weather, sc.grid, sc.vprime)
    for name in ("priors", "ec", "cbar", "vbar", "dominance"):
        assert np.array_equal(getattr(sub, name), getattr(fresh, name)), name
    assert sub.worst == fresh.worst
    assert [x.id for x in sub.space] == list(ids)


def test_library_solve_checks_the_cost_model(worst_scenario):
    # expected cost sqrt(q) + c0 is concave in q; only check_assumptions
    # rejects it, and a library caller builds its instance without a load
    sc = worst_scenario
    concave = PluginCostModel(
        realized=lambda x, q, w: x.param("c0") + q**0.5,
        param_names=("c0",),
        raising_params=("c0",),
        lowering_params=(),
    )
    space = TypeSpace((SellerType("p", {"c0": 1.0}, 1.0),))
    grid = QuantityGrid(q_max=10.0, n_cells=10)
    with pytest.raises(ConfigurationError, match="not convex"):
        Instance.build(space, concave, sc.weather, grid, sc.vprime)


def test_worst_index_needs_every_other_type_covered():
    rel = dominance_matrix(np.array([[1.0, 2.0], [1.0, 3.0], [0.5, 4.0]]))
    assert rel[0, 1] == "better" and rel[1, 0] == "worse"
    assert rel[0, 2] == "incomparable"
    assert worst_index(rel) is None
    assert worst_index(dominance_matrix(np.array([[1.0, 3.0], [1.0, 2.0]]))) == 0


def test_identity_holds_on_proper_admissible_set(six_scenario):
    # every admissible type is paid t0, so the survival form charges it
    # with the admissible prior mass, not with 1
    sc = six_scenario
    out = solve(sc.instance, admissible=["a", "b"])
    assert out.schedule.t0 > 0.0
    res = check_identity(out)
    assert res.passed, res.line()


def test_verify_identity_passes_with_admissible_option(scenario_dir, tmp_path, capsys):
    text = (scenario_dir / "six_types.yaml").read_text()
    path = tmp_path / "six_ab.yaml"
    path.write_text(text.replace("options: {alpha: 0.5}", "options: {admissible: [a, b]}"))
    main(["verify", str(path)])
    assert "check=identity status=pass" in capsys.readouterr().out


def test_pointwise_names_the_cell_priced_at_a_worse_candidate(six_scenario, six_outcome):
    sc = six_scenario
    outcome = six_outcome
    n = outcome.schedule.n_open
    cheapest = np.min(sc.instance.cbar, axis=0)
    p = outcome.schedule.p.copy()
    # the first open cell not priced at its cheapest candidate; ties go to
    # the smallest candidate, so that one is strictly worse there
    j = int(np.flatnonzero(p[:n] != cheapest[:n])[0])
    p[j] = cheapest[j]
    bad_sched = dataclasses.replace(outcome.schedule, p=p)
    bad = dataclasses.replace(outcome, schedule=bad_sched)
    res = check_pointwise(bad)
    assert not res.passed
    assert res.witness == f"cell {j}"
