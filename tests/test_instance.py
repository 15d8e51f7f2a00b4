"""The shared type x grid-point instance: built once per command, read by
every stage, and priced in one vectorized pass that matches the per-cell
construction."""
import dataclasses
import json
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure import mechanism
from procure.cli import cmd_solve, cmd_verify, main
from procure.costmodel import (
    EQUAL_COST_TOL,
    CostModel,
    SellerType,
    TypeSpace,
    dominates,
    find_worst_type,
    no_costlier,
    worst_index,
)
from procure.errors import ConfigurationError
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
    n = ref.index(None) if None in ref else len(ref)
    # the same bits up to the reference's first closed cell, where
    # procurement stops, whether a later cell would price open or not
    want = np.array(ref[:n], dtype=float)
    assert np.array_equal(price_cells(cbar, priors, vbar).view(np.int64), want.view(np.int64))


def test_price_cells_closes_from_the_first_closed_cell():
    # one type; its cost dips back under V' after the cell at 1 closed
    p = price_cells(np.array([[1.0, 5.0, 1.0]]), np.array([1.0]), np.array([2.0, 2.0, 2.0]))
    assert p.tolist() == [1.0]
    assert PriceSchedule(grid=QuantityGrid(q_max=3.0, n_cells=3), p=p).n_open == 1


def test_reopening_marginal_utility_fails_pointwise_alone(
    scenario_dir, tmp_path, monkeypatch, capsys
):
    real = mechanism.cell_marginal_utility

    def rising_tail(vprime, grid):
        vbar = real(vprime, grid)
        vbar[-1] = 10.0  # V' jumps back up in the last cell
        return vbar

    monkeypatch.setattr(mechanism, "cell_marginal_utility", rising_tail)
    path = scenario_dir / "six_types.yaml"
    out = tmp_path / "out"
    # the solver closes at the first closed cell and leaves the last closed
    assert main(["solve", str(path), "--out", str(out)]) == 0
    n_open = json.loads((out / "run_manifest.json").read_text())["n_open"]
    assert n_open == solve(load_scenario(path).instance).schedule.n_open < 1999
    capsys.readouterr()
    # the certificate catches the broken assumption: closing the last cell
    # forgoes its margin at V' = 10
    assert main(["verify", str(path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "status=FAIL" in line]
    assert failed == [
        "check=pointwise status=FAIL worst=8.8 tol=7.1054273576e-14 witness=cell 1999"
    ]


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


@pytest.mark.parametrize(
    "options, flag",
    [("{alpha: 0.5, admissible: [a, zz]}", []), ("{alpha: 0.5}", ["--admissible", "a,zz"])],
    ids=["options", "flag"],
)
def test_bad_admissible_id_exits_2_before_any_expected_cost(
    scenario_dir, tmp_path, capsys, ec_calls, options, flag
):
    # the ids are checked before the instance is built: a bad one used to
    # cost a full load first
    path = tmp_path / "six.yaml"
    text = (scenario_dir / "six_types.yaml").read_text()
    path.write_text(text.replace("options: {alpha: 0.5}", f"options: {options}"))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err == "error: unknown type ids in admissible set: ['zz']\n"
    assert not ec_calls
    assert not out.exists()


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
                    name = NAMES[int(inst.le[i, j]), int(inst.le[j, i])]
                    assert name == dominates(x, y, sc.model, sc.weather, pts)
        assert inst.worst_type == find_worst_type(sc.space, sc.model, sc.weather, pts)
    assert six_scenario.instance.worst is None
    assert worst_scenario.instance.worst_type.id == "g1"


def test_restrict_equals_fresh_build(six_scenario):
    sc = six_scenario
    ids = ("b", "d", "f")
    sub = sc.instance.restrict(ids)
    fresh = Instance.build(sc.space.subset(ids), sc.model, sc.weather, sc.grid, sc.vprime)
    for name in ("priors", "ec", "cbar", "vbar", "le", "better"):
        assert np.array_equal(getattr(sub, name), getattr(fresh, name)), name
    assert sub.worst == fresh.worst
    assert [x.id for x in sub.space] == list(ids)


def test_library_solve_checks_the_cost_model(worst_scenario):
    # expected cost sqrt(q) + c0 is concave in q; only check_assumptions
    # rejects it, and a library caller builds its instance without a load
    sc = worst_scenario
    class Concave(CostModel):
        param_names = ("c0",)

        def realized_cost(self, x, q, w):
            return x.param("c0") + q**0.5

    concave = Concave()
    space = TypeSpace((SellerType("p", {"c0": 1.0}, 1.0),))
    grid = QuantityGrid(q_max=10.0, n_cells=10)
    with pytest.raises(ConfigurationError, match="not convex"):
        Instance.build(space, concave, sc.weather, grid, sc.vprime)


def test_worst_index_needs_every_other_type_covered():
    le = no_costlier(np.array([[1.0, 2.0], [1.0, 3.0], [0.5, 4.0]]))
    assert le[0, 1] and not le[1, 0]
    assert not le[0, 2] and not le[2, 0]
    assert worst_index(le) is None
    assert worst_index(no_costlier(np.array([[1.0, 3.0], [1.0, 2.0]]))) == 0


def test_worst_index_takes_the_first_of_tied_worst_rows():
    # the anchor's tie rule: of two equal worst types, the first anchors
    le = no_costlier(np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0], [2.0, 4.0]]))
    assert le[1, 3] and le[3, 1]
    assert worst_index(le) == 1


# dominates()'s name for a pair (i, j), indexed by le[i, j] and le[j, i]
NAMES = np.array([["incomparable", "worse"], ["better", "equal"]])


def ref_dominance_matrix(ec: np.ndarray) -> np.ndarray:
    """The order as a loop over rows that names every pair."""
    scale = np.maximum(1.0, np.max(np.abs(ec), axis=1))
    rel = np.empty((len(ec), len(ec)), dtype="<U12")
    for i, row in enumerate(ec):
        tol = EQUAL_COST_TOL * np.maximum(scale[i], scale)[:, None]
        d = row - ec
        below = np.all(d <= tol, axis=1)
        above = np.all(d >= -tol, axis=1)
        rel[i] = np.where(
            below & above,
            "equal",
            np.where(below, "better", np.where(above, "worse", "incomparable")),
        )
    return rel


EC_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 1e3]), st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_no_costlier_matches_the_named_reference(data):
    n_types = data.draw(st.integers(1, 6), label="types")
    n_points = data.draw(st.integers(1, 8), label="points")
    steps = st.lists(st.integers(-3, 3), min_size=n_points, max_size=n_points)
    rows = []
    for i in range(n_types):
        if rows and data.draw(st.booleans(), label=f"near_{i}"):
            # an earlier row moved by a few half tolerances at each point, so
            # that pairs fall on both sides of the equality gate
            base = data.draw(st.sampled_from(rows), label=f"base_{i}")
            tol = 0.5 * EQUAL_COST_TOL * max(1.0, float(np.max(np.abs(base))))
            row = base + tol * np.array(data.draw(steps, label=f"steps_{i}"))
        else:
            values = st.lists(EC_VALUES, min_size=n_points, max_size=n_points)
            row = np.array(data.draw(values, label=f"row_{i}"))
        rows.append(row)
    ec = np.array(rows)
    le = no_costlier(ec)
    assert le.dtype == bool
    assert np.all(np.diagonal(le))
    assert np.array_equal(NAMES[le.astype(int), le.T.astype(int)], ref_dominance_matrix(ec))
    better = le & ~le.T
    assert not np.any(better & better.T)


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
    j = int(np.flatnonzero(p != cheapest[:n])[0])
    p[j] = cheapest[j]
    bad_sched = dataclasses.replace(outcome.schedule, p=p)
    bad = dataclasses.replace(outcome, schedule=bad_sched)
    res = check_pointwise(bad)
    assert not res.passed
    assert res.witness == f"cell {j}"
