"""Certification checks: each check passes on a clean solve and trips on a
targeted tampering of the outcome. Scalar loops for check_ic (over types
and grid points), check_vp, check_monotone (over ordered pairs of types)
and check_quasi_concavity (over types and open cells) are kept here as
references."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import forged
from procure.cli import _corrupt_schedule, main
from procure.costmodel import EQUAL_COST_TOL, SellerType, SimpleCostModel, TypeSpace
from procure.mechanism import BuyerUtility, Instance, QuantityGrid, evaluate, price_cells, solve
from procure.scenario import CORRUPTIONS, load_scenario
from procure.verify import (
    CheckResult,
    buyer_utility_survival,
    check_ic,
    check_identity,
    check_monotone,
    check_oracle,
    check_pointwise,
    check_quasi_concavity,
    check_vp,
    check_worst_type_pricing,
    grid_tolerance,
    oracle_solve,
    report_text,
    run_checks,
)
from procure.weather import WeatherModel, weibull_model


def _replace_type(outcome, type_id, **changes):
    """outcome with the named columns changed in type_id's row."""
    i = outcome.instance.space.index(type_id)
    columns = {}
    for name, value in changes.items():
        columns[name] = getattr(outcome, name).copy()
        columns[name][i] = value
    return forged(outcome, **columns)


def _row(outcome, type_id):
    return outcome.instance.space.index(type_id)


def ref_utility_tol(outcome):
    """ic's and vp's gate: 6 * (n_open + 2) units of 2^-52 times |t0| +
    dq * sum |p| + the largest |EC| at points 0..n_open."""
    schedule, ec = outcome.schedule, outcome.instance.ec
    n = schedule.n_open
    size = abs(schedule.t0) + schedule.grid.dq * float(np.sum(np.abs(schedule.p)))
    size += max(abs(v) for v in ec[:, : n + 1].ravel().tolist())
    return 6 * (n + 2) * 2.0**-52 * size


def ref_check_ic(outcome):
    """check_ic as a loop over the types and over grid points 0..n_open:
    each type's largest surplus first, then less its utility."""
    schedule, inst = outcome.schedule, outcome.instance
    tol = ref_utility_tol(outcome)
    t = schedule.payments()
    utility = outcome.utility.tolist()
    worst_gain = -math.inf
    for i, x in enumerate(inst.space):
        best, best_l = -math.inf, 0
        for l in range(schedule.n_open + 1):
            surplus = float(t[l]) - float(inst.ec[i, l])
            if surplus > best:
                best, best_l = surplus, l
        gain = best - utility[i]
        if gain > worst_gain:
            worst_gain = gain
            witness = f"{x.id}->q={schedule.grid.points[best_l]:.12g}"
    return CheckResult("ic", worst_gain <= tol, worst_gain, tol, witness)


def ref_check_vp(outcome):
    """check_vp over a dict of utilities by type id."""
    tol = ref_utility_tol(outcome)
    utils = dict(zip(outcome.admissible_ids, outcome.utility.tolist()))
    min_id = min(utils, key=utils.get)
    worst = abs(utils[min_id])
    return CheckResult("vp", worst <= tol, worst, tol, f"min U at {min_id}")


def ref_check_monotone(outcome):
    """check_monotone as loops over ordered pairs of types: a pair whose
    worse type delivers more cells fails at tol 0; else the largest utility
    violation, gated on ic's round-off plus the type order's slack."""
    inst, ids = outcome.instance, outcome.admissible_ids
    k, utility = outcome.k.tolist(), outcome.utility.tolist()
    pairs = [
        (i, j) for i, j in itertools.permutations(range(len(ids)), 2)
        if inst.le[i, j] and not inst.le[j, i]
    ]
    cells, witness = 0, None
    for i, j in pairs:
        if k[j] - k[i] > cells:
            cells, witness = k[j] - k[i], f"q({ids[i]} better than {ids[j]})"
    if witness is not None:
        return CheckResult("monotone", False, cells * inst.grid.dq, 0.0, witness)
    scale = max(1.0, max(abs(v) for v in inst.ec.ravel().tolist()))
    tol = ref_utility_tol(outcome) + EQUAL_COST_TOL * scale
    worst, witness = -math.inf, "no ordered pairs"
    for i, j in pairs:
        if utility[j] - utility[i] > worst:
            worst, witness = utility[j] - utility[i], f"U({ids[i]} better than {ids[j]})"
    if worst == -math.inf:
        worst = 0.0
    return CheckResult("monotone", worst <= tol, worst, tol, witness)


def ref_check_quasi_concavity(outcome):
    """check_quasi_concavity as a loop over the types and the open cells: a
    type's threshold is the end of the last open cell whose price is at
    least its cell cost (0 with none); the first type farthest from its
    threshold is the witness, and one cell off passes."""
    schedule, inst = outcome.schedule, outcome.instance
    p, k = schedule.p.tolist(), outcome.k.tolist()
    worst, witness = 0, "none"
    for i, type_id in enumerate(outcome.admissible_ids):
        threshold = 0
        for j in range(schedule.n_open):
            if p[j] >= float(inst.cbar[i, j]):
                threshold = j + 1
        if abs(k[i] - threshold) > worst:
            worst, witness = abs(k[i] - threshold), type_id
    dq = schedule.grid.dq
    return CheckResult("quasi_concavity", worst <= 1, worst * dq, dq, witness)


def _deflated(outcome, i):
    """Type i's utility lowered below what another bundle gives it."""
    tol = grid_tolerance(outcome.instance)
    utility = outcome.utility.copy()
    utility[i] -= 10 * tol
    return forged(outcome, utility=utility)


def _swapped(outcome, i, j):
    """Types i and j trade bundles and utilities."""
    k, utility = outcome.k.copy(), outcome.utility.copy()
    k[[i, j]] = k[[j, i]]
    utility[[i, j]] = utility[[j, i]]
    return forged(outcome, k=k, utility=utility)


def _assert_checks_equal_references(outcome):
    assert check_ic(outcome) == ref_check_ic(outcome)
    assert check_vp(outcome) == ref_check_vp(outcome)
    assert check_monotone(outcome) == ref_check_monotone(outcome)
    assert check_quasi_concavity(outcome) == ref_check_quasi_concavity(outcome)


@pytest.fixture(scope="module")
def tiny(scenario_dir):
    sc = load_scenario(scenario_dir / "tiny_oracle.yaml")
    return sc, solve(sc.instance)


def test_run_checks_all_pass_six(six_outcome):
    results = run_checks(six_outcome)
    assert all(r.passed for r in results), report_text(results)
    names = [r.name for r in results]
    # no worst type in the published space, and too large for the oracle
    assert "worst_type_pricing" not in names
    assert "oracle" not in names


def test_run_checks_all_pass_worst(worst_outcome):
    results = run_checks(worst_outcome)
    assert all(r.passed for r in results), report_text(results)
    assert "worst_type_pricing" in [r.name for r in results]


def test_run_checks_includes_oracle_when_small(tiny):
    _, outcome = tiny
    results = run_checks(outcome)
    assert all(r.passed for r in results), report_text(results)
    assert "oracle" in [r.name for r in results]


def test_grid_tolerance_positive(six_scenario):
    sc = six_scenario
    assert grid_tolerance(sc.instance) > 0.0


@pytest.mark.parametrize(
    "name", ["six_types.yaml", "simple_worst.yaml", "six_types_corrupted.yaml", "tiny_oracle.yaml"]
)
def test_checks_equal_row_wise_references_on_bundled(scenario_dir, name):
    sc = load_scenario(scenario_dir / name)
    outcome = solve(sc.instance, admissible=sc.admissible)
    if sc.corruption is not None:
        # as verify certifies it: the corrupted schedule's own best responses
        outcome = evaluate(outcome.instance, _corrupt_schedule(outcome.schedule, sc.corruption))
    _assert_checks_equal_references(outcome)
    n = len(outcome.k)
    for i in range(n):
        _assert_checks_equal_references(_deflated(outcome, i))
    for i, j in itertools.combinations(range(n), 2):
        _assert_checks_equal_references(_swapped(outcome, i, j))


def _assert_evaluate_reproduces(outcome):
    """evaluate on the solved schedule gives the solver's columns and
    buyer utilities, bit for bit."""
    again = evaluate(outcome.instance, outcome.schedule)
    assert np.array_equal(again.k, outcome.k)
    for name in ("payment", "expected_cost", "utility"):
        assert np.array_equal(
            getattr(again, name).view(np.int64), getattr(outcome, name).view(np.int64)
        ), name
    assert again.buyer_utility.hex() == outcome.buyer_utility.hex()
    assert buyer_utility_survival(again).hex() == buyer_utility_survival(outcome).hex()


@pytest.mark.parametrize(
    "name", ["six_types.yaml", "simple_worst.yaml", "six_types_corrupted.yaml", "tiny_oracle.yaml"]
)
def test_evaluate_reproduces_solve_on_bundled(scenario_dir, name):
    sc = load_scenario(scenario_dir / name)
    _assert_evaluate_reproduces(solve(sc.instance, admissible=sc.admissible))


WEATHER = weibull_model(3.0, 5.0, 40)


@st.composite
def small_instances(draw):
    """A tiny simple-model instance: the types' parameters sorted into a
    dominance chain, or drawn freely so that their costs can cross."""
    n_types = draw(st.integers(1, 4))
    params = [
        sorted(draw(st.lists(st.floats(lo, hi), min_size=n_types, max_size=n_types)))
        for lo, hi in ((0.5, 5.0), (0.3, 1.5), (0.5, 3.0))
    ]
    if draw(st.booleans()):  # crossing costs
        params = [draw(st.permutations(column)) for column in params]
    else:  # a chain: t0 is the best type
        params[2] = params[2][::-1]
    weights = draw(st.lists(st.integers(1, 4), min_size=n_types, max_size=n_types))
    space = TypeSpace(
        tuple(
            SellerType(
                f"t{i}",
                {"c0": params[0][i], "theta_c": params[1][i], "gamma": params[2][i]},
                weights[i] / sum(weights),
            )
            for i in range(n_types)
        )
    )
    vprime = BuyerUtility.affine(draw(st.floats(0.5, 2.0)), draw(st.floats(1e-3, 2e-2)))
    grid = QuantityGrid(q_max=draw(st.floats(20.0, 200.0)), n_cells=draw(st.integers(2, 8)))
    return Instance.build(space, SimpleCostModel(), WEATHER, grid, vprime)


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.data())
def test_checks_equal_row_wise_references_on_drawn_instances(inst, data):
    outcome = solve(inst)
    _assert_checks_equal_references(outcome)
    n = len(outcome.k)
    _assert_checks_equal_references(_deflated(outcome, data.draw(st.integers(0, n - 1))))
    if n > 1:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        _assert_checks_equal_references(_swapped(outcome, i, j))


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.data())
def test_monotone_equals_reference_on_drawn_dominance(inst, data):
    # the order, bundles and utilities drawn from a few values, so that
    # violations tie and some draws have no ordered pair; a type is always
    # no costlier than itself, as in no_costlier
    outcome = solve(inst)
    n = len(outcome.k)
    le = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(le, True)
    k = data.draw(st.lists(st.integers(0, inst.grid.n_cells), min_size=n, max_size=n))
    utility = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.25]),
                                 min_size=n, max_size=n))
    drawn = forged(
        outcome,
        instance=dataclasses.replace(inst, le=le),
        k=np.array(k),
        utility=np.array(utility),
    )
    assert check_monotone(drawn) == ref_check_monotone(drawn)


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_ic_and_pointwise_pass_on_drawn_solves(inst):
    # their gates are round-off bounds, derived and not fitted: the solver's
    # own outcome never comes near them
    outcome = solve(inst)
    for res in (check_ic(outcome), check_pointwise(outcome)):
        assert res.passed, res.line()


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_evaluate_reproduces_solve_on_drawn_instances(inst):
    _assert_evaluate_reproduces(solve(inst))


def test_ic_fails_on_deflated_utility(six_outcome):
    res = check_ic(_deflated(six_outcome, _row(six_outcome, "a")))
    assert not res.passed
    assert res.witness.startswith("a->")


@pytest.mark.parametrize(
    "case, type_id, k, gain",
    [
        # a gains 4.32 at q = 0, more than any other type's bundle gives it (3.21)
        ("six_types", "a", 28, 4.3184),
        # a alone has no other type's bundle to take
        ("a alone", "a", 82, 50.8844),
        # hi moved onto lo's bundle: the only other bundle is its own
        ("tiny_oracle", "hi", 6, 19.9698),
        # one cell past c's best response, whose margin there is -0.0448 / MWh
        ("six_types", "c", 20, 0.1232),
    ],
)
def test_ic_fails_off_every_bundle(six_outcome, tiny, case, type_id, k, gain):
    # a type moved off its best response gains by delivering a grid
    # quantity that no other type's bundle holds
    outcome = tiny[1] if case == "tiny_oracle" else six_outcome
    if case == "a alone":  # under six_types' schedule
        outcome = dataclasses.replace(
            outcome, k=outcome.k[[_row(outcome, "a")]], instance=outcome.instance.restrict(["a"])
        )
    ks = outcome.k.copy()
    ks[_row(outcome, type_id)] = k
    res = check_ic(dataclasses.replace(outcome, k=ks))
    assert not res.passed
    assert res.worst == pytest.approx(gain, abs=1e-4)
    assert res.witness.startswith(f"{type_id}->q=")


def test_vp_fails_on_negative_utility(six_outcome):
    bad = _replace_type(six_outcome, "a", utility=-100.0)
    res = check_vp(bad)
    assert not res.passed


def test_vp_fails_when_min_utility_positive(six_scenario, six_outcome):
    # leaving slack to the binding type is also a violation: min U must be 0,
    # within round-off, not within a grid cell's cost
    sc = six_scenario
    tol = grid_tolerance(sc.instance)
    bad = forged(six_outcome, utility=six_outcome.utility + 0.5 * tol)
    res = check_vp(bad)
    assert not res.passed


def test_vp_fails_on_a_type_that_would_decline(six_scenario, six_outcome):
    # six_types' schedule where the wind is Weibull(2, 5): c's utility is -1,
    # so c would not join; the prices are no candidates there either
    inst = six_scenario.instance
    other = Instance.build(inst.space, inst.model, weibull_model(2.0, 5.0), inst.grid, inst.vprime)
    results = run_checks(evaluate(other, six_outcome.schedule))
    failed = {r.name: r for r in results if not r.passed}
    assert list(failed) == ["vp", "pointwise"], report_text(results)
    assert (failed["vp"].worst, failed["vp"].witness) == (1.0, "min U at c")
    assert failed["pointwise"].witness == "cell 0: p not a candidate"


def test_monotone_fails_on_swapped_bundles(worst_outcome):
    # g2 has the larger capacity factor and must weakly out-produce g1
    i1, i2 = _row(worst_outcome, "g1"), _row(worst_outcome, "g2")
    assert worst_outcome.q[i2] > worst_outcome.q[i1]
    res = check_monotone(_swapped(worst_outcome, i1, i2))
    assert not res.passed


def test_monotone_fails_on_one_more_cell(six_outcome):
    # b is better than a, and a delivers one cell (2.75 MWh) more than b: a
    # quantity is compared in cells, not against a gate in k$
    k = six_outcome.k.copy()
    k[_row(six_outcome, "a")] = k[_row(six_outcome, "b")] + 1
    assert k[_row(six_outcome, "a")] == 37
    res = check_monotone(dataclasses.replace(six_outcome, k=k))
    assert (res.passed, res.worst, res.tol) == (False, 2.75, 0.0)
    assert res.witness == "q(b better than a)"


def test_identity_fails_on_tampered_survival_value(six_outcome):
    # the survival form is derived from the schedule, so the stored direct
    # utility is what a tampered outcome can carry
    bad = forged(six_outcome, buyer_utility=six_outcome.buyer_utility + 1.0)
    res = check_identity(bad)
    assert not res.passed


def test_pointwise_fails_on_non_candidate_price(six_outcome):
    p = six_outcome.schedule.p.copy()
    p[0] *= 0.5
    bad_sched = dataclasses.replace(six_outcome.schedule, p=p)
    bad = dataclasses.replace(six_outcome, schedule=bad_sched)
    res = check_pointwise(bad)
    assert not res.passed
    assert res.worst == np.inf


def _with_prices(outcome, p):
    schedule = dataclasses.replace(outcome.schedule, p=p)
    return dataclasses.replace(outcome, schedule=schedule)


EARLY_CLOSE_FAILS = {
    "six_types.yaml": ["pointwise"],
    "simple_worst.yaml": ["pointwise"],
    # closing a profitable cell lowers the buyer's utility below the
    # oracle's, which the oracle sees on a grid small enough to search
    "tiny_oracle.yaml": ["pointwise", "oracle"],
}


@pytest.mark.parametrize("name", list(EARLY_CLOSE_FAILS))
def test_pointwise_fails_on_early_close(scenario_dir, tmp_path, capsys, name):
    # closing the last open cell leaves every open cell as it was, so of
    # the pointwise check only its check of the closed cells sees it
    assert "early_close" in CORRUPTIONS
    sc = load_scenario(scenario_dir / name)
    n = solve(sc.instance).schedule.n_open
    text = (scenario_dir / name).read_text().replace("options: {alpha: 0.5}\n", "")
    path = tmp_path / name
    path.write_text(text + "options: {corruption: early_close}\n")
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    pointwise = next(line for line in lines if line.startswith("check=pointwise "))
    assert " status=FAIL " in pointwise
    assert pointwise.endswith(f"witness=cell {n - 1}")
    failed = [line.split()[0][len("check="):] for line in lines if " status=FAIL " in line]
    assert failed == EARLY_CLOSE_FAILS[name]


@pytest.mark.parametrize(
    "cell_costs, priors, vbar, passed",
    [
        ([1.0, 2.0], [0.5, 0.5], 1.0, True),  # V' at the cheapest cost: both earn 0
        ([1.0, 2.0], [0.5, 0.5], 1.5, False),  # pricing at 1 earns 0.25
        ([0.5, 2.0], [0.0, 1.0], 1.5, True),  # only a type without weight costs less
    ],
)
def test_pointwise_closing_against_candidates(six_outcome, cell_costs, priors, vbar, passed):
    # cell 0 open at the cost both types share, cell 1 closed
    inst = dataclasses.replace(
        six_outcome.instance,
        cbar=np.array([[1.0, cell_costs[0]], [1.0, cell_costs[1]]]),
        priors=np.array(priors),
        vbar=np.array([3.0, vbar]),
    )
    schedule = dataclasses.replace(
        six_outcome.schedule,
        grid=QuantityGrid(q_max=2.0, n_cells=2),
        p=np.array([1.0]),
    )
    res = check_pointwise(dataclasses.replace(six_outcome, schedule=schedule, instance=inst))
    assert res.passed == passed
    assert res.witness == ("none" if passed else "cell 1")


@pytest.mark.parametrize(
    "cell_costs, price, worst, witness",
    [
        # at 1.0 only the cheaper type survives: 0.5 * (3 - 1) against the
        # 2 - 2^-52 that pricing one ulp above 1.0 earns with both types
        ([1.0, np.nextafter(1.0, 2.0)], 1.0, 1.0 - 2.0**-52, "cell 0"),
        ([1.0, np.nextafter(1.0, 2.0)], None, 0.0, "none"),  # price_cells' own price
        ([1.0, 2.0], np.nextafter(1.0, 0.0), math.inf, "cell 0: p not a candidate"),
    ],
    ids=["cheaper_cost", "solver_price", "ulp_below_cost"],
)
def test_pointwise_compares_prices_with_costs_exactly(
    six_outcome, cell_costs, price, worst, witness
):
    # as price_cells does: a candidate equals a cost, and a type survives
    # every price at or above its cost; cell 1 is closed below every cost
    inst = dataclasses.replace(
        six_outcome.instance,
        cbar=np.array([[cell_costs[0], 2.0], [cell_costs[1], 2.0]]),
        priors=np.array([0.5, 0.5]),
        vbar=np.array([3.0, 1.0]),
    )
    if price is None:  # price_cells prices one ulp above 1.0
        p = price_cells(inst.cbar, inst.priors, inst.vbar)
        assert p.tolist() == [cell_costs[1]]
    else:
        p = np.array([price])
    schedule = dataclasses.replace(
        six_outcome.schedule, grid=QuantityGrid(q_max=2.0, n_cells=2), p=p
    )
    res = check_pointwise(dataclasses.replace(six_outcome, schedule=schedule, instance=inst))
    assert (res.passed, res.worst, res.witness) == (witness == "none", worst, witness)


def test_pointwise_counts_closing_as_a_candidate(six_outcome):
    # the first closed cell opened at its cheapest cost: that is the best
    # candidate, but every candidate loses there and closing earns 0
    inst = six_outcome.instance
    n = six_outcome.schedule.n_open
    p = np.append(six_outcome.schedule.p, np.min(inst.cbar[:, n]))
    assert p[n] > inst.vbar[n]
    res = check_pointwise(_with_prices(six_outcome, p))
    assert not res.passed
    assert res.witness == f"cell {n}"


def test_quasi_concavity_fails_on_shifted_quantity(six_outcome):
    # the threshold comes from the schedule; c's quantity moves 5 cells off it
    assert check_quasi_concavity(six_outcome).passed
    k = six_outcome.k[_row(six_outcome, "c")]
    # grid indices compare exactly: one cell off passes, two cells fail
    assert check_quasi_concavity(_replace_type(six_outcome, "c", k=k + 1)).passed
    res = check_quasi_concavity(_replace_type(six_outcome, "c", k=k - 2))
    assert (res.passed, res.worst, res.tol) == (False, 5.5, 2.75)
    bad = _replace_type(six_outcome, "c", k=k + 5)
    res = check_quasi_concavity(bad)
    assert not res.passed
    assert res.witness == "c"


def test_quasi_concavity_counts_a_cell_only_where_its_price_covers_the_cost(tiny):
    # hi's open-cell costs one ulp above the prices: its best response is to
    # deliver nothing, and no open cell's price covers its cost, so the
    # threshold rule agrees only when it compares exactly, as the solver does
    _, outcome = tiny
    inst, schedule = outcome.instance, outcome.schedule
    cbar, hi = inst.cbar.copy(), _row(outcome, "hi")
    cbar[hi, : schedule.n_open] = np.nextafter(schedule.p, np.inf)
    shifted = evaluate(dataclasses.replace(inst, cbar=cbar), schedule)
    assert shifted.k[hi] == 0
    res = check_quasi_concavity(shifted)
    assert (res.passed, res.worst, res.witness) == (True, 0.0, "none")
    assert res == ref_check_quasi_concavity(shifted)


def test_quasi_concavity_equals_reference_with_no_open_cell(tiny):
    # every threshold is 0: each type delivers nothing, and a type forged to
    # deliver one cell passes, two cells fail
    _, outcome = tiny
    closed = evaluate(outcome.instance, dataclasses.replace(outcome.schedule, p=[]))
    assert closed.k.tolist() == [0, 0]
    _assert_checks_equal_references(closed)
    for k, passed in (([1, 0], True), ([0, 2], False)):
        res = check_quasi_concavity(forged(closed, k=np.array(k)))
        assert res == ref_check_quasi_concavity(forged(closed, k=np.array(k)))
        assert res.passed is passed


def test_worst_type_pricing_none_without_worst(six_outcome):
    res = check_worst_type_pricing(six_outcome)
    assert res is None


def test_worst_type_pricing_fails_on_tampered_price(worst_outcome):
    p = worst_outcome.schedule.p.copy()
    p[0] += 0.05
    bad_sched = dataclasses.replace(worst_outcome.schedule, p=p)
    bad = dataclasses.replace(worst_outcome, schedule=bad_sched)
    res = check_worst_type_pricing(bad)
    assert res is not None and not res.passed


def test_worst_type_pricing_gates_on_two_cell_costs_round_off():
    # w and b differ only in c0, so their cell costs are equal in exact
    # arithmetic; in cell 2 b's rounds one step lower and prices it, below
    # the worst type w's: a gate of 0 would fail this correct solve
    space = TypeSpace(tuple(
        SellerType(type_id, {"c0": c0, "theta_c": 0.9, "gamma": 0.8}, 0.5)
        for type_id, c0 in (("w", 4.5), ("b", 3.1))
    ))
    inst = Instance.build(space, SimpleCostModel(), weibull_model(3.0, 5.0, 40),
                          QuantityGrid(40.0, 4), BuyerUtility.affine(1.0, 1e-2))
    outcome = solve(inst)
    assert inst.worst_type.id == "w"
    results = run_checks(outcome)
    assert all(r.passed for r in results), report_text(results)
    res = check_worst_type_pricing(outcome)
    assert res.worst == float.fromhex("0x1.8p-54") > 0.0
    gap = np.abs(outcome.schedule.p - inst.cbar[inst.worst, : outcome.schedule.n_open])
    assert int(np.argmax(gap)) == 2


def test_oracle_matches_solver_on_tiny(tiny):
    sc, outcome = tiny
    value = oracle_solve(sc.space, sc.model, sc.weather, sc.vprime, sc.grid)
    assert value == pytest.approx(outcome.buyer_utility, abs=1e-9)
    res = check_oracle(outcome)
    assert res.passed


@pytest.mark.parametrize(
    "hi, value",
    [
        ("{c0: 3, theta_c: 1.4, gamma: 1}", "0x1.43576eb20895ep+5"),  # hi is the worst type
        ("{c0: 1, theta_c: 1.4, gamma: 2}", "0x1.a614999c9448cp+5"),  # the rows cross
    ],
    ids=["worst-type", "no-worst-type"],
)
def test_oracle_computes_each_expected_cost_row_once(scenario_dir, tmp_path, ec_calls, hi, value):
    # the values are those the per-cell oracle, which enumerated price
    # assignments, returned when it computed every row twice
    text = (scenario_dir / "tiny_oracle.yaml").read_text()
    path = tmp_path / "tiny.yaml"
    path.write_text(text.replace("{c0: 3, theta_c: 1.4, gamma: 1}", hi))
    sc = load_scenario(path)
    ec_calls.clear()
    assert oracle_solve(sc.space, sc.model, sc.weather, sc.vprime, sc.grid) == float.fromhex(value)
    assert dict(ec_calls) == {("lo", 7): 1, ("hi", 7): 1}


def test_oracle_at_its_limit_enumerates_every_allocation():
    # 4 types and 8 cells: 9**4 = 6,561 allocations in one pass; the value
    # is the one the per-cell oracle returned over all 5**8 price assignments
    space = TypeSpace(tuple(
        SellerType(id=f"t{i}", params={"c0": 4.0, "theta_c": 1.2, "gamma": 0.5 + 0.4 * i},
                   prior_weight=0.25)
        for i in range(4)
    ))
    value = oracle_solve(space, SimpleCostModel(), weibull_model(3.0, 5.0, 20),
                         BuyerUtility.affine(1.0, 1.5e-3), QuantityGrid(q_max=400.0, n_cells=8))
    assert value == 56.94230055833536


# t1 sets the prices of cells 3 and 4, above the worst type t0's cell
# costs there, so the worst-type anchor t0 = C(0, t0) leaves t0 rent.
RENT_YAML = """\
weather: {kind: empirical, samples: [4.0, 6.0]}
cost_model: {kind: simple}
types:
  - {id: t0, params: {c0: 3, theta_c: 0.6, gamma: 0.12}}
  - {id: t1, params: {c0: 1, theta_c: 0.9, gamma: 0.12}}
buyer: {marginal_utility: {kind: affine, intercept: 2.2, slope: 0}}
grid: {q_max: 12, n_cells: 5}
"""


def test_oracle_finds_the_rent_the_worst_type_anchor_leaves(tmp_path):
    # the oracle takes least payments, not the solver's anchor: the menu
    # that charges the solver's quantities without t0's rent is worth that
    # rent more, as much as vp finds the worst type earns
    path = tmp_path / "rent.yaml"
    path.write_text(RENT_YAML)
    outcome = solve(load_scenario(path).instance)
    assert outcome.instance.worst_type.id == "t0"
    res, vp = check_oracle(outcome), check_vp(outcome)
    assert not res.passed and not vp.passed
    assert res.worst == pytest.approx(0.648, abs=1e-12)
    assert res.worst == pytest.approx(vp.worst, abs=res.tol)
    assert res.witness == "oracle=22.104 solver=21.456"


def test_oracle_keeps_an_allocation_whose_zero_cycle_rounds_above_zero():
    # buying nothing is always a menu: each type's rent is then the largest
    # c0 less its own, and around a cycle the rents' float sums round above
    # 0, so without the cycle test's round-off gate the oracle read -6.5719
    params = [
        (3.390722133185895, 2.2400844275721736, 0.02487420705907185),
        (3.285489918054191, 1.4950424433101506, 0.015682869509122892),
        (0.293194521753698, 2.009816237940556, 0.0325069068866454),
    ]
    space = TypeSpace(tuple(
        SellerType(f"t{i}", {"c0": c0, "theta_c": theta_c, "gamma": gamma}, weight / 6)
        for i, ((c0, theta_c, gamma), weight) in enumerate(zip(params, (3, 2, 1)))
    ))
    weather = WeatherModel(states=((2.423955736583757, 1.0),))
    vprime = BuyerUtility.affine(1.216991809180434, 0.16584889150602206)
    grid = QuantityGrid(q_max=37.46189858502649, n_cells=4)
    outcome = solve(Instance.build(space, SimpleCostModel(), weather, grid, vprime))
    value = oracle_solve(space, SimpleCostModel(), weather, vprime, grid)
    assert value == pytest.approx(-3.3907221331858954, abs=check_oracle(outcome).tol)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_oracle_is_at_least_the_solvers_utility_on_drawn_instances(inst):
    # every posted tariff's outcome is a menu, and the oracle finds the best
    outcome = solve(inst)
    value = oracle_solve(inst.space, inst.model, inst.weather, inst.vprime, inst.grid)
    assert value >= outcome.buyer_utility - check_oracle(outcome).tol


def test_oracle_rejects_large_instances(six_scenario):
    sc = six_scenario
    from procure.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        oracle_solve(sc.space, sc.model, sc.weather, sc.vprime, sc.grid)


def test_report_text_format(tiny):
    _, outcome = tiny
    results = run_checks(outcome)
    text = report_text(results)
    for r in results:
        assert f"check={r.name} status=pass" in text
    assert "FAIL" not in text


def test_report_table_shows_each_margin():
    # with a zero tol the margin is 0 at a worst of 0, else an infinity
    results = [
        CheckResult("ic", True, 0.5, 2.0, "w"),
        CheckResult("vp", True, 0.0, 0.0, "w"),
        CheckResult("monotone", False, 3.0, 0.0, "w"),
        CheckResult("identity", True, -1.0, 0.0, "w"),
    ]
    table = report_text(results).split("\n\n")[1]
    assert table.splitlines() == [
        "check     result  worst/tol",
        "ic        pass    0.25",
        "vp        pass    0",
        "monotone  FAIL    inf",
        "identity  pass    -inf",
    ]


def test_report_text_marks_failures(six_outcome):
    bad = _replace_type(six_outcome, "a", utility=-100.0)
    res = check_vp(bad)
    text = report_text([res])
    assert "status=FAIL" in text
