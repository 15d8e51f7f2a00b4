"""Certification checks: each check passes on a clean solve and trips on a
targeted tampering of the outcome."""
import dataclasses

import numpy as np
import pytest

from procure.cli import main
from procure.mechanism import QuantityGrid, solve
from procure.scenario import CORRUPTIONS, load_scenario
from procure.verify import (
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


def _replace_type(outcome, type_id, **changes):
    per_type = tuple(
        dataclasses.replace(rec, **changes) if rec.type_id == type_id else rec
        for rec in outcome.per_type
    )
    return dataclasses.replace(outcome, per_type=per_type)


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


def test_ic_fails_on_deflated_utility(six_scenario, six_outcome):
    sc = six_scenario
    tol = grid_tolerance(sc.instance)
    rec = six_outcome.by_id("a")
    bad = _replace_type(six_outcome, "a", utility=rec.utility - 10 * tol)
    res = check_ic(bad)
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
    per_type = tuple(
        dataclasses.replace(rec, utility=rec.utility + 10 * tol)
        for rec in six_outcome.per_type
    )
    bad = dataclasses.replace(six_outcome, per_type=per_type)
    res = check_vp(bad)
    assert not res.passed


def test_monotone_fails_on_swapped_bundles(worst_outcome):
    # g2 has the larger capacity factor and must weakly out-produce g1
    r1 = worst_outcome.by_id("g1")
    r2 = worst_outcome.by_id("g2")
    assert r2.q > r1.q
    bad = _replace_type(worst_outcome, "g2", q=r1.q, utility=r1.utility)
    bad = _replace_type(bad, "g1", q=r2.q, utility=r2.utility)
    res = check_monotone(bad)
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


def _with_prices(outcome, p, closed_from):
    schedule = dataclasses.replace(outcome.schedule, p=p, closed_from=closed_from)
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
        closed_from=1,
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
    res = check_pointwise(_with_prices(six_outcome, p, n + 1))
    assert not res.passed
    assert res.witness == f"cell {n}"


def test_quasi_concavity_fails_on_shifted_threshold(six_outcome):
    dq = six_outcome.schedule.grid.dq
    rec = six_outcome.by_id("c")
    bad = _replace_type(six_outcome, "c", threshold_q=rec.q + 5 * dq)
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
