"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Each test prints "criterion NN [...]: PASS|FAIL" on the live terminal
(outside pytest capture) before asserting, so a full run always shows the
scoreboard. Criteria cover the published six-type reproduction, the
certification checks, settlement, oracle concordance on random small
instances, the closed-form marginal cost, discretization convergence, and
output determinism.
"""
import time

import numpy as np
import pytest

from conftest import cdf, forged
from settlement_reference import expost_payment, risk_payment
from procure.cli import cmd_solve
from procure.costmodel import SellerType, SimpleCostModel, TypeSpace, dominates, find_worst_type
from procure.mechanism import (
    BuyerUtility,
    Instance,
    QuantityGrid,
    best_response,
    solve,
)
from procure.scenario import load_scenario
from procure.verify import (
    buyer_utility_survival,
    check_ic,
    check_monotone,
    check_vp,
    oracle_solve,
)
from procure.weather import weibull_model

BAND_TARGET = (0.33, 0.45)
BAND_LOW_RANGE = (0.264, 0.396)  # target low endpoint +- 20%
BAND_HIGH_RANGE = (0.36, 0.54)  # target high endpoint +- 20%


def _emit(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"criterion {num:02d} [{label}]: {status}{suffix}")


def _price_band(schedule):
    return float(np.min(schedule.p)), float(np.max(schedule.p))


def test_criterion_01_published_reproduction(six_scenario, capsys):
    sc = six_scenario
    failures = []
    start = time.perf_counter()
    # the build is timed too: it is the expected-cost work of a solve
    inst = Instance.build(sc.space, sc.model, sc.weather, sc.grid, sc.vprime)
    outcome = solve(inst)
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        failures.append(f"solve took {elapsed:.2f}s > 10s at 2000 cells")
    if not np.all(outcome.q > 0.0):
        failures.append("some type produces nothing")
    sched = outcome.schedule
    n = sched.n_open
    if float(np.ptp(sched.p)) <= 0.0:
        failures.append("price schedule is constant")
    cbar = inst.cbar
    lo_ok = np.all(sched.p >= np.min(cbar[:, :n], axis=0) - 1e-12)
    hi_ok = np.all(sched.p <= np.max(cbar[:, :n], axis=0) + 1e-12)
    if not (lo_ok and hi_ok):
        failures.append("price leaves the per-cell cost envelope")
    band = _price_band(sched)
    if not (band[0] <= BAND_TARGET[1] and band[1] >= BAND_TARGET[0]):
        failures.append(f"band {band} misses target {BAND_TARGET}")
    if not (BAND_LOW_RANGE[0] <= band[0] <= BAND_LOW_RANGE[1]):
        failures.append(f"band low {band[0]:.4f} outside {BAND_LOW_RANGE}")
    if not (BAND_HIGH_RANGE[0] <= band[1] <= BAND_HIGH_RANGE[1]):
        failures.append(f"band high {band[1]:.4f} outside {BAND_HIGH_RANGE}")
    _emit(
        capsys, 1, "six-type reproduction", not failures,
        f"band [{band[0]:.4f}, {band[1]:.4f}], {elapsed:.2f}s",
    )
    assert not failures, failures


def test_criterion_02_monotonicity_in_dominance(six_scenario, six_outcome, capsys):
    # utilities within monotone's own gate; quantities as grid indices at
    # tol 0, as check_monotone compares them
    sc = six_scenario
    tol = check_monotone(six_outcome).tol
    utility, k = six_outcome.utility, six_outcome.k
    failures = []
    ordered = 0
    for i, a in enumerate(sc.space):
        for j, b in enumerate(sc.space):
            if a.id == b.id:
                continue
            if dominates(a, b, sc.model, sc.weather, sc.grid.points) != "better":
                continue
            ordered += 1
            if utility[i] < utility[j] - tol:
                failures.append(f"U({a.id}) < U({b.id})")
            if k[i] < k[j]:
                failures.append(f"q({a.id}) < q({b.id})")
    if ordered == 0:
        failures.append("no dominance-ordered pairs found")
    # b vs c is reported, not asserted: neither dominates the other
    bc = dominates(sc.space.by_id("b"), sc.space.by_id("c"), sc.model, sc.weather, sc.grid.points)
    _emit(
        capsys, 2, "dominance monotonicity", not failures,
        f"{ordered} ordered pairs; b vs c: {bc}",
    )
    assert not failures, failures


def test_criterion_03_incentive_compatibility(six_outcome, capsys):
    res = check_ic(six_outcome)
    # negative control: deflating one reported utility must trip the check
    utility = six_outcome.utility.copy()
    utility[six_outcome.instance.space.index("a")] -= 10 * res.tol
    tampered = forged(six_outcome, utility=utility)
    control = check_ic(tampered)
    ok = res.passed and not control.passed
    _emit(
        capsys, 3, "incentive compatibility", ok,
        f"max gain {res.worst:.3g} <= tol {res.tol:.3g}; control trips",
    )
    assert res.passed, res.line()
    assert not control.passed, "negative control did not trip the IC check"


def test_criterion_04_voluntary_participation(six_outcome, worst_scenario, worst_outcome, capsys):
    res = check_vp(six_outcome)
    failures = []
    if not np.all(six_outcome.utility >= -res.tol):
        failures.append("negative utility in six-type solve")
    if not res.passed:
        failures.append(f"min utility not 0 within tol: {res.line()}")
    worst = find_worst_type(
        worst_scenario.space, worst_scenario.model, worst_scenario.weather,
        worst_scenario.grid.points,
    )
    if worst_outcome.utility[worst_scenario.space.index(worst.id)] != 0.0:
        failures.append("worst type utility not exactly zero")
    _emit(capsys, 4, "voluntary participation", not failures)
    assert not failures, failures


def test_criterion_05_expost_participation(worst_scenario, worst_outcome, capsys):
    # the indexed payment pins the worst type to zero profit state by
    # state; every other type keeps a nonnegative fallback by producing
    # the worst type's quantity
    sc = worst_scenario
    worst = find_worst_type(sc.space, sc.model, sc.weather, sc.grid.points)
    q_safe = float(worst_outcome.q[sc.space.index(worst.id)])
    failures = []
    min_profit = np.inf
    for x in sc.space:
        for w in sc.weather.speed_array.tolist():
            pay = expost_payment(worst_outcome, worst_outcome.schedule, worst, q_safe, w, sc.model)
            profit = pay - sc.model.realized_cost(x, q_safe, w)
            min_profit = min(min_profit, profit)
            if profit < -1e-9:
                failures.append(f"{x.id} at w={w:.3f}: profit {profit:.3g}")
            if x.id == worst.id and profit != 0.0:
                failures.append(f"worst type profit {profit!r} != 0 at w={w:.3f}")
    _emit(capsys, 5, "ex-post participation", not failures, f"min profit {min_profit:.3g}")
    assert not failures, failures


def test_criterion_06_risk_sharing(worst_scenario, worst_outcome, capsys):
    sc = worst_scenario
    probs = sc.weather.prob_array
    speeds = sc.weather.speed_array.tolist()
    failures = []
    for i, x in enumerate(sc.space):
        q, payment = float(worst_outcome.q[i]), float(worst_outcome.payment[i])
        costs = np.array([sc.model.realized_cost(x, q, w) for w in speeds])
        base_var = float(probs @ (costs - probs @ costs) ** 2)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            pays = np.array(
                [
                    risk_payment(worst_outcome, x, w, alpha, sc.model)
                    for w in speeds
                ]
            )
            mean_pay = float(probs @ pays)
            if abs(mean_pay - payment) > 1e-9:
                failures.append(f"{x.id} alpha={alpha}: E[payment] off by {mean_pay - payment:.3g}")
            profits = pays - costs
            var = float(probs @ (profits - probs @ profits) ** 2)
            want = (1.0 - alpha) ** 2 * base_var
            if abs(var - want) > 1e-6 * max(1.0, want):
                failures.append(f"{x.id} alpha={alpha}: var {var:.6g} != {want:.6g}")
        # expected payment is unchanged for every alpha, so the interim
        # problem and hence the chosen quantity are unchanged
        if best_response(x, worst_outcome.schedule, sc.model, sc.weather) != q:
            failures.append(f"{x.id}: argmax moved")
    _emit(capsys, 6, "risk-sharing settlement", not failures)
    assert not failures, failures


def _chain_instance(seed):
    """Random small instance whose types form a dominance chain."""
    rng = np.random.default_rng(seed)
    n_types = int(rng.integers(1, 5))
    n_cells = int(rng.integers(2, 9))
    weather = weibull_model(
        float(rng.uniform(1.5, 4.0)), float(rng.uniform(3.0, 8.0)), 40
    )
    weights = rng.integers(1, 5, size=n_types)
    c0s = np.sort(rng.uniform(0.5, 5.0, size=n_types))
    ths = np.sort(rng.uniform(0.3, 1.5, size=n_types))
    gms = np.sort(rng.uniform(0.5, 3.0, size=n_types))[::-1]
    types = tuple(
        SellerType(
            f"t{i}",
            {"c0": float(c0s[i]), "theta_c": float(ths[i]), "gamma": float(gms[i])},
            int(weights[i]) / int(weights.sum()),
        )
        for i in range(n_types)
    )
    space = TypeSpace(types)
    vprime = BuyerUtility.affine(
        float(rng.uniform(0.5, 2.0)), float(rng.uniform(1e-3, 2e-2))
    )
    grid = QuantityGrid(q_max=float(rng.uniform(20.0, 200.0)), n_cells=n_cells)
    return space, weather, vprime, grid


def test_criterion_07_oracle_concordance(capsys):
    model = SimpleCostModel()
    failures = []
    n_seeds = 30
    for seed in range(n_seeds):
        space, weather, vprime, grid = _chain_instance(seed)
        outcome = solve(Instance.build(space, model, weather, grid, vprime))
        oracle = oracle_solve(space, model, weather, vprime, grid)
        gap = abs(oracle - outcome.buyer_utility)
        if gap > 1e-9 * max(1.0, abs(oracle)):
            failures.append(f"seed {seed}: solver {outcome.buyer_utility!r} vs oracle {oracle!r}")
    _emit(capsys, 7, "brute-force oracle concordance", not failures, f"{n_seeds} instances")
    assert not failures, failures


def test_criterion_08_closed_form_marginal_cost(capsys):
    model = SimpleCostModel()
    weather = weibull_model(3.0, 5.0, 200)
    x = SellerType("s", {"c0": 4.0, "theta_c": 1.2, "gamma": 2.0}, 1.0)
    gamma, theta = 2.0, 1.2
    kinks = np.array([gamma * w**3 for w in weather.speed_array.tolist()])
    failures = []
    # 20 probe points placed midway between adjacent cost kinks
    idx = np.linspace(5, len(kinks) - 10, 20).astype(int)
    for i in idx:
        q = 0.5 * (kinks[i] + kinks[i + 1])
        got = model.expected_marginal_cost(x, q, weather)
        want = theta * cdf(weather, (q / gamma) ** (1.0 / 3.0))
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            failures.append(f"q={q:.3f}: analytic {want!r} vs model {got!r}")
        h = 0.25 * (kinks[i + 1] - kinks[i])
        qs = np.array([q - h, q + h])
        ec = model.expected_cost_grid(x, qs, weather)
        fd = float(ec[1] - ec[0]) / (2 * h)
        if abs(got - fd) > 1e-6 * max(1.0, abs(fd)):
            failures.append(f"q={q:.3f}: finite difference {fd!r} vs model {got!r}")
    _emit(capsys, 8, "closed-form marginal cost", not failures)
    assert not failures, failures


def test_criterion_09_identity_convergence(six_scenario, capsys):
    sc = six_scenario
    errs = {}
    for n_cells in (1000, 2000, 4000):
        grid = QuantityGrid(q_max=sc.grid.q_max, n_cells=n_cells)
        out = solve(Instance.build(sc.space, sc.model, sc.weather, grid, sc.vprime))
        errs[n_cells] = abs(out.buyer_utility - buyer_utility_survival(out)) / max(
            1.0, abs(out.buyer_utility)
        )
    failures = []
    if errs[2000] > 5e-3:
        failures.append(f"relative identity error {errs[2000]:.3g} > 0.5% at 2000 cells")
    for coarse, fine in ((1000, 2000), (2000, 4000)):
        ratio = errs[coarse] / errs[fine]
        # halving dq should roughly halve the error (first-order scheme)
        if not 1.4 <= ratio <= 3.0:
            failures.append(f"error ratio {coarse}/{fine} = {ratio:.2f} not ~2")
    _emit(
        capsys, 9, "utility identity convergence", not failures,
        "errors " + ", ".join(f"{n}: {errs[n]:.3g}" for n in sorted(errs)),
    )
    assert not failures, failures


def test_criterion_10_determinism(scenario_dir, tmp_path, capsys):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cmd_solve(scenario_dir / "six_types.yaml", out)
        assert rc == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = digests[0] == digests[1]
    _emit(capsys, 10, "byte-identical outputs", ok, f"{len(digests[0])} files")
    assert ok, "repeated solves produced different bytes"
