"""Certification checks: each check passes on a clean solve and trips on a
targeted tampering of the outcome. The per-pair loops that check_ic,
check_vp and check_monotone replaced are kept here as references."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure.cli import _corrupt_schedule, main
from procure.costmodel import SellerType, SimpleCostModel, TypeSpace
from procure.mechanism import BuyerUtility, Instance, QuantityGrid, evaluate, solve
from procure.scenario import CORRUPTIONS, load_scenario
from procure.verify import (
    CheckResult,
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
from procure.weather import weibull_model


def _replace_type(outcome, type_id, **changes):
    """outcome with the named columns changed in type_id's row."""
    i = outcome.instance.space.index(type_id)
    columns = {}
    for name, value in changes.items():
        columns[name] = getattr(outcome, name).copy()
        columns[name][i] = value
    return dataclasses.replace(outcome, **columns)


def _row(outcome, type_id):
    return outcome.instance.space.index(type_id)


def ref_check_ic(outcome):
    """check_ic as a loop over ordered pairs of types."""
    schedule, inst = outcome.schedule, outcome.instance
    tol = grid_tolerance(inst)
    t = schedule.payments()
    q, utility = outcome.q.tolist(), outcome.utility.tolist()
    worst_gain = -math.inf
    witness = "none"
    for i, x in enumerate(inst.space):
        for j, y in enumerate(inst.space):
            if y.id == x.id:
                continue
            k = int(round(q[j] / schedule.grid.dq))
            deviation = float(t[k]) - float(inst.ec[i, k])
            gain = deviation - utility[i]
            if gain > worst_gain:
                worst_gain = gain
                witness = f"{x.id}->{y.id}"
    if worst_gain == -math.inf:
        worst_gain = 0.0
        witness = "single type"
    return CheckResult("ic", worst_gain <= tol, worst_gain, tol, witness)


def ref_check_vp(outcome):
    """check_vp over a dict of utilities by type id."""
    tol = grid_tolerance(outcome.instance)
    utils = dict(zip(outcome.admissible_ids, outcome.utility.tolist()))
    min_id = min(utils, key=utils.get)
    worst = abs(utils[min_id])
    return CheckResult("vp", worst <= tol, worst, tol, f"min U at {min_id}")


def ref_check_monotone(outcome):
    """check_monotone as a loop over ordered pairs of types."""
    inst = outcome.instance
    tol = grid_tolerance(inst)
    q, utility = outcome.q.tolist(), outcome.utility.tolist()
    worst = -math.inf
    witness = "no ordered pairs"
    for i, j in itertools.permutations(range(len(inst.space)), 2):
        if inst.dominance[i, j] != "better":
            continue
        a, b = inst.space.types[i], inst.space.types[j]
        for kindname, viol in (
            ("U", utility[j] - utility[i]),
            ("q", q[j] - q[i]),
        ):
            if viol > worst:
                worst = viol
                witness = f"{kindname}({a.id} better than {b.id})"
    if worst == -math.inf:
        worst = 0.0
    return CheckResult("monotone", worst <= tol, worst, tol, witness)


def _deflated(outcome, i):
    """Type i's utility lowered below what another bundle gives it."""
    tol = grid_tolerance(outcome.instance)
    utility = outcome.utility.copy()
    utility[i] -= 10 * tol
    return dataclasses.replace(outcome, utility=utility)


def _swapped(outcome, i, j):
    """Types i and j trade bundles and utilities."""
    k, utility = outcome.k.copy(), outcome.utility.copy()
    k[[i, j]] = k[[j, i]]
    utility[[i, j]] = utility[[j, i]]
    return dataclasses.replace(outcome, k=k, utility=utility)


def _assert_checks_equal_references(outcome):
    assert check_ic(outcome) == ref_check_ic(outcome)
    assert check_vp(outcome) == ref_check_vp(outcome)
    assert check_monotone(outcome) == ref_check_monotone(outcome)


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
        schedule = _corrupt_schedule(outcome.schedule, sc.corruption)
        outcome = dataclasses.replace(outcome, schedule=schedule)
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
    for name in ("buyer_utility", "buyer_utility_survival"):
        assert getattr(again, name).hex() == getattr(outcome, name).hex(), name


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


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_evaluate_reproduces_solve_on_drawn_instances(inst):
    _assert_evaluate_reproduces(solve(inst))


def test_ic_fails_on_deflated_utility(six_outcome):
    res = check_ic(_deflated(six_outcome, _row(six_outcome, "a")))
    assert not res.passed
    assert res.witness.startswith("a->")


def test_vp_fails_on_negative_utility(six_outcome):
    bad = _replace_type(six_outcome, "a", utility=-100.0)
    res = check_vp(bad)
    assert not res.passed


def test_vp_fails_when_min_utility_positive(six_scenario, six_outcome):
    # leaving slack to the binding type is also a violation: min U must be 0
    sc = six_scenario
    tol = grid_tolerance(sc.instance)
    bad = dataclasses.replace(six_outcome, utility=six_outcome.utility + 10 * tol)
    res = check_vp(bad)
    assert not res.passed


def test_monotone_fails_on_swapped_bundles(worst_outcome):
    # g2 has the larger capacity factor and must weakly out-produce g1
    i1, i2 = _row(worst_outcome, "g1"), _row(worst_outcome, "g2")
    assert worst_outcome.q[i2] > worst_outcome.q[i1]
    res = check_monotone(_swapped(worst_outcome, i1, i2))
    assert not res.passed


def test_identity_fails_on_tampered_survival_value(six_outcome):
    bad = dataclasses.replace(
        six_outcome, buyer_utility_survival=six_outcome.buyer_utility_survival + 1.0
    )
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


@pytest.mark.parametrize("name", ["six_types.yaml", "simple_worst.yaml", "tiny_oracle.yaml"])
def test_pointwise_fails_on_early_close(scenario_dir, tmp_path, capsys, name):
    # closing the last open cell leaves every open cell as it was, so only
    # the check of the closed cells sees it
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
    assert sum(" status=FAIL " in line for line in lines) == 1


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
        p=np.array([1.0, np.nan]),
    )
    res = check_pointwise(dataclasses.replace(six_outcome, schedule=schedule, instance=inst))
    assert res.passed == passed
    assert res.witness == ("none" if passed else "cell 1")


def test_pointwise_counts_closing_as_a_candidate(six_outcome):
    # the first closed cell opened at its cheapest cost: that is the best
    # candidate, but every candidate loses there and closing earns 0
    inst = six_outcome.instance
    n = six_outcome.schedule.n_open
    p = six_outcome.schedule.p.copy()
    p[n] = np.min(inst.cbar[:, n])
    assert p[n] > inst.vbar[n]
    res = check_pointwise(_with_prices(six_outcome, p))
    assert not res.passed
    assert res.witness == f"cell {n}"


def test_quasi_concavity_fails_on_shifted_quantity(six_outcome):
    # the threshold comes from the schedule; c's quantity moves 5 cells off it
    assert check_quasi_concavity(six_outcome).passed
    k = six_outcome.k[_row(six_outcome, "c")]
    bad = _replace_type(six_outcome, "c", k=k + 5)
    res = check_quasi_concavity(bad)
    assert not res.passed
    assert res.witness == "c"


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


def test_oracle_matches_solver_on_tiny(tiny):
    sc, outcome = tiny
    value = oracle_solve(sc.space, sc.model, sc.weather, sc.vprime, sc.grid)
    assert value == pytest.approx(outcome.buyer_utility, abs=1e-9)
    res = check_oracle(outcome)
    assert res.passed


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


def test_report_text_marks_failures(six_outcome):
    bad = _replace_type(six_outcome, "a", utility=-100.0)
    res = check_vp(bad)
    text = report_text([res])
    assert "status=FAIL" in text
