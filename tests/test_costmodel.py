import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import procure
from procure import costmodel
from procure.costmodel import (
    EC_BLOCK_BYTES,
    ROW_GROUP,
    _aligned_empty,
    CostModel,
    SellerType,
    SimpleCostModel,
    TypeSpace,
    WindConventionalCostModel,
    dominates,
    ec_block_width,
    find_worst_type,
    make_model,
    power_curve,
)
from conftest import cdf
from procure.cli import main
from procure.errors import ConfigurationError, ParameterDomainError
from procure.mechanism import BuyerUtility, Instance, QuantityGrid
from procure.scenario import load_scenario
from procure.weather import WeatherModel, empirical_model, weibull_model


def wc_type(tid="a", c0=4.0, theta_w=0.2, theta_c=1.2, v_ci=3.0, v_r=13.0,
            v_co=20.0, gamma=1.0, prior=1.0):
    return SellerType(
        tid,
        {"c0": c0, "theta_w": theta_w, "theta_c": theta_c, "v_ci": v_ci,
         "v_r": v_r, "v_co": v_co, "gamma": gamma},
        prior,
    )


def simple_type(tid="s", c0=4.0, theta_c=1.2, gamma=1.0, prior=1.0):
    return SellerType(tid, {"c0": c0, "theta_c": theta_c, "gamma": gamma}, prior)


@pytest.fixture(scope="module")
def weather():
    return weibull_model(3.0, 5.0, 200)


def test_power_curve_branches():
    x = wc_type()
    assert power_curve(x, 0.0) == 0.0
    assert power_curve(x, 10.0) == 1000.0
    assert power_curve(x, 15.0) == 13.0**3  # 2197, flat between rated and cut-out
    assert power_curve(x, 25.0) == 0.0
    with pytest.raises(ParameterDomainError):
        power_curve(x, -1.0)


def test_realized_cost_wind_conventional():
    model = WindConventionalCostModel()
    x = wc_type()
    # g(10 m/s) = 1000 MWh
    assert model.realized_cost(x, 1500.0, 10.0) == pytest.approx(804.0, abs=1e-12)
    assert model.realized_cost(x, 500.0, 10.0) == pytest.approx(104.0, abs=1e-12)
    with pytest.raises(ParameterDomainError):
        model.realized_cost(x, -1.0, 10.0)


def test_startup_cost_is_weather_free(weather):
    for model, x in (
        (SimpleCostModel(), simple_type()),
        (WindConventionalCostModel(), wc_type()),
    ):
        for w in weather.speeds[::40]:
            assert model.realized_cost(x, 0.0, w) == x.param("c0")


def test_expected_cost_point_mass():
    model = SimpleCostModel()
    x = simple_type(gamma=2.0)
    point = WeatherModel(states=((4.0, 1.0),))
    q = 200.0
    assert model.expected_cost(x, q, point) == model.realized_cost(x, q, 4.0)


def test_expected_cost_matches_high_resolution_quadrature():
    x = simple_type(c0=4.0, theta_c=1.2, gamma=1.0)
    model = SimpleCostModel()
    coarse = weibull_model(3.0, 5.0, 200)
    fine = weibull_model(3.0, 5.0, 20000)
    for q in (10.0, 60.0, 150.0, 400.0):
        a = model.expected_cost(x, q, coarse)
        b = model.expected_cost(x, q, fine)
        assert a == pytest.approx(b, rel=2e-3)


def test_expected_cost_grid_matches_scalar(weather):
    qs = np.linspace(0.0, 300.0, 31)
    for model, x in (
        (SimpleCostModel(), simple_type(gamma=2.0)),
        (WindConventionalCostModel(), wc_type(gamma=2.0)),
    ):
        grid_vals = model.expected_cost_grid(x, qs, weather)
        scalar = [model.expected_cost(x, float(q), weather) for q in qs]
        assert np.allclose(grid_vals, scalar, rtol=0, atol=1e-9)


def dense_simple(x, qs, weather):
    g = (x.param("gamma") * np.array(weather.speeds) ** 3)[:, None]
    probs = weather.prob_array
    return x.param("c0") + x.param("theta_c") * probs @ np.maximum(qs[None, :] - g, 0.0)


def dense_wind_conventional(x, qs, weather):
    g = np.array([power_curve(x, w) for w in weather.speeds])[:, None]
    probs = weather.prob_array
    wind = np.minimum(qs[None, :], g)
    short = np.maximum(qs[None, :] - g, 0.0)
    return x.param("c0") + probs @ (x.param("theta_w") * wind + x.param("theta_c") * short)


def kernel_weathers():
    """(name, weather) of each weather the kernel tests run on: one state,
    one calm state (w = 0), a calm and a windy state, Weibull at 6, 200 and 2000
    states, and an empirical weather of speeds rounded to 0.5 m/s."""
    speeds = np.round(2.0 * np.random.default_rng(3).weibull(2.0, 400) * 6.0) / 2.0
    return (
        ("1", WeatherModel(states=((8.0, 1.0),))),
        ("calm", WeatherModel(states=((0.0, 1.0),))),
        ("calm-windy", WeatherModel(states=((0.0, 0.25), (8.0, 0.75)))),
        *((str(s), weibull_model(3.0, 5.0, s)) for s in (6, 200, 2000)),
        ("empirical", empirical_model(speeds.tolist())),
    )


def kernel_cases():
    """(model, type, dense reference) of each case: the simple model, and
    the wind model with cut-out above every Weibull speed, with cut-out
    inside the speed range (generation drops back to 0, so it is not
    sorted), and with theta_w = 0; and each model with c0 = -0, whose sum
    with an expected cost of +0 is +0 and with one of -0 is -0."""
    wind = WindConventionalCostModel()
    return (
        (SimpleCostModel(), simple_type(), dense_simple),
        (SimpleCostModel(), simple_type(c0=-0.0), dense_simple),
        (wind, wc_type(c0=-0.0), dense_wind_conventional),
        (wind, wc_type(), dense_wind_conventional),
        (wind, wc_type(v_ci=2.0, v_r=6.0, v_co=9.0, gamma=4.0), dense_wind_conventional),
        (wind, wc_type(theta_w=0.0), dense_wind_conventional),
    )


def kernel_grids(width, most, low, top):
    """(name, points) of each grid the kernel tests run on, for blocks of
    width points, grids of up to most points and generation from low to
    top. Random points leave most rows of a block to the whole integrand;
    sorted points from 0 to top give long short and covered row ranges;
    covered-first puts two whole blocks at or below every generation, so
    every row of those blocks is covered; signed zeros and subnormal points
    lead a grid, so that q - g is -0 at a calm state; and one-point grids,
    which numpy takes through dot instead of gemv, sit at each of 101
    points from 0 to top and at -0."""
    for n in (0, 1, 2, 3, *range(width - 1, width + 4), most):
        yield f"random-{n}", np.random.default_rng(n).uniform(0.0, 3000.0, n)
        yield f"sorted-{n}", np.linspace(0.0, top, n)
    yield "covered-first", np.concatenate(
        [np.linspace(0.0, low, 2 * width), np.linspace(low, top, width + 5)]
    )
    tiny = [-0.0, 5e-324, 0.0, -0.0, 1e-310, 2.2250738585072014e-308, 1e-300]
    yield "zeros-subnormals", np.concatenate([tiny, np.linspace(0.0, top, width)])
    for i, q in enumerate(np.linspace(0.0, top, 101)):
        yield f"point-{i}", np.array([q])
    yield "point-minus-zero", np.array([-0.0])


def blocked_kernel_mismatches():
    """(model kind, weather, grid) of each case where expected_cost_grid
    differs in any bit from one states x points product over the grid."""
    bad = []
    for name, weather in kernel_weathers():
        n_states = len(weather.states)
        # at 2000 states, 20,001 points would take 320 MB per dense temporary
        most = 20_001 if n_states < 2000 else 2001
        width = ec_block_width(n_states)
        for model, x, dense in kernel_cases():
            g = model.generation_array(x, weather)
            low, top = float(np.min(g)), 1.25 * float(np.max(g))
            for grid, qs in kernel_grids(width, most, low, top):
                if not same_bits(model.expected_cost_grid(x, qs, weather), dense(x, qs, weather)):
                    bad.append((model.kind, x.param("c0"), name, grid))
    return bad


def blocked_budget_mismatches():
    """(model kind, c0, weather, grid) of each case where expected_cost_grid
    differs in any bit between block budgets of 2^18, 2^19 and 2^20 bytes,
    on 20,001 random and 20,001 sorted points: the block width, and with it
    where each block's rows split, must change no bit."""
    bad = []
    budget = costmodel.EC_BLOCK_BYTES
    random_points = np.random.default_rng(5).uniform(0.0, 3000.0, 20_001)
    try:
        for name, weather in kernel_weathers():
            for model, x, _ in kernel_cases():
                top = 1.25 * float(np.max(model.generation_array(x, weather)))
                grids = {"random": random_points, "sorted": np.linspace(0.0, top, 20_001)}
                for grid, qs in grids.items():
                    rows = []
                    for block_bytes in (1 << 18, 1 << 19, 1 << 20):
                        costmodel.EC_BLOCK_BYTES = block_bytes
                        rows.append(model.expected_cost_grid(x, qs, weather))
                    if not all(same_bits(row, rows[0]) for row in rows[1:]):
                        bad.append((model.kind, x.param("c0"), name, grid))
    finally:
        costmodel.EC_BLOCK_BYTES = budget
    return bad


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def zero_tail_mismatches():
    """(states, points, c) of each case where the product over the first
    r = ROW_GROUP * ceil(c / ROW_GROUP) rows (at most all of them) of a
    states x points matrix whose rows from c on are +0 differs in any bit
    from the product over all rows, for random non-negative weights and
    entries. The widths are those of the blocks gemv gets from the kernel:
    2 to 7 points, 64, and the block width with and without 3 leftover
    points; a one-point block goes through dot and keeps all its rows."""
    bad = []
    for n_states in (1, 7, 15, 16, 17, 33, 200, 2000):
        rng = np.random.default_rng(n_states)
        weights = rng.uniform(0.0, 1.0, n_states) / n_states
        width = ec_block_width(n_states)
        for k in sorted({2, 3, 4, 5, 6, 7, 64, width, width + 3}):
            b = rng.exponential(1.0, (n_states, k))
            for c in range(n_states, -1, -1):
                b[c:] = 0.0
                r = min(n_states, -(-c // ROW_GROUP) * ROW_GROUP)
                if not np.array_equal(weights[:r] @ b[:r], weights @ b):
                    bad.append((n_states, k, c))
    return bad


def product_mismatches():
    """(product, rows, points) of each case where a product the kernel
    builds its rows with differs from the elementwise result in any bit
    other than a zero's sign: [1, -g] @ [q; 1] against q - g, and
    [theta_w, 0] @ [q; 1] against theta_w * q. BLAS sums from +0, so a
    result of -0 comes back +0. The values take random magnitudes from
    1e-300 to 1e300 and both signs, with zeros of both signs, subnormals
    and the largest finite doubles among them."""
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
               1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1.0]

    def values(n):
        v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        v[: len(special)] = special
        v[len(special) : 2 * len(special)] = rng.uniform(0.0, 10.0, len(special))
        return rng.permutation(v)

    bad = []
    with np.errstate(over="ignore"):
        for rows, k in ((1, 1), (1, 64), (7, 1), (16, 3), (17, 67), (200, 131), (2000, 520)):
            g, q = values(max(rows, 24)), values(max(k, 24))
            g, q = g[:rows], q[:k]
            q_and_ones = np.stack([q, np.ones(k)])
            ones_minus_g = np.stack([np.ones(rows), -g], axis=1)
            difference = q[None, :] - g[:, None]
            if not same_bits(ones_minus_g @ q_and_ones, difference + 0.0):
                bad.append(("difference", rows, k))
            for theta_w in (0.0, 0.2, 1.3, 5e-324, 1e-300, 1e300):
                theta_w_and_zero = np.zeros((rows, 2))
                theta_w_and_zero[:, 0] = theta_w
                scaled = np.broadcast_to(theta_w * q, (rows, k))
                if not same_bits(theta_w_and_zero @ q_and_ones, scaled + 0.0):
                    bad.append((f"scale {theta_w}", rows, k))
    return bad


def with_blas_threads(function, threads=1):
    """What function (a name in this module) returns, printed by a child
    process with the given number of BLAS threads: with several, gemv
    splits the points between threads and the dense product's bits change
    at the split."""
    path = [str(Path(procure.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        MKL_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(path),
    )
    code = f"import test_costmodel; print(test_costmodel.{function}())"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_blocked_expected_cost_is_bit_identical_to_dense_product():
    assert with_blas_threads("blocked_kernel_mismatches") == "[]"


def test_products_over_rounded_up_nonzero_rows_are_bit_identical():
    # the simple model's kernel leaves out the +0 rows past a multiple of
    # ROW_GROUP; this pins the BLAS property it rests on
    assert with_blas_threads("zero_tail_mismatches") == "[]"


def test_block_budget_changes_no_bit():
    # the block width is a tuning constant; this pins that retuning it
    # leaves every expected-cost bit as it was
    assert with_blas_threads("blocked_budget_mismatches") == "[]"


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_products_are_exact(threads):
    # the kernel builds q - g and theta_w*q rows as products; this pins the
    # exactness it rests on, with one BLAS thread and with two
    assert with_blas_threads("product_mismatches", threads) == "[]"


def test_ec_block_width():
    assert [ec_block_width(s) for s in (1, 6, 200, 2000)] == [65_536, 10_880, 320, 64]
    for n_states in (*range(1, 3000), 10**5, 10**7):
        width = ec_block_width(n_states)
        assert width % 64 == 0 and width >= 64
        if width > 64:
            assert 8 * n_states * width <= EC_BLOCK_BYTES


@pytest.mark.parametrize(
    "model, x, n_states, n_points, most_mb",
    [
        (SimpleCostModel(), simple_type(), 200, 20_001, 1.5),
        (WindConventionalCostModel(), wc_type(), 200, 20_001, 3),
        (SimpleCostModel(), simple_type(), 2000, 2001, 1.5),
        (WindConventionalCostModel(), wc_type(), 2000, 2001, 3),
    ],
    ids=["simple", "wind_conventional", "simple-2000x2001", "wind_conventional-2000x2001"],
)
def test_expected_cost_grid_peak_memory(model, x, n_states, n_points, most_mb):
    # One dense integrand alone is 32 MB at either size. numpy reports its
    # buffers to tracemalloc. The simple model's kernel holds one states x
    # points block (1 MB at 2000 states); the wind model's holds two, and a
    # scratch for the middle rows of a block when it has any.
    weather = weibull_model(3.0, 5.0, n_states)
    qs = np.linspace(0.0, 3000.0, n_points)
    tracemalloc.start()
    try:
        model.expected_cost_grid(x, qs, weather)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most_mb * 2**20


def test_marginal_cost_simple_at_zero(weather):
    model = SimpleCostModel()
    # no atom at w=0, so the first marginal unit is free
    assert model.expected_marginal_cost(simple_type(), 0.0, weather) == 0.0


def test_marginal_cost_wind_conventional_saturates(weather):
    model = WindConventionalCostModel()
    x = wc_type()
    q = x.param("gamma") * x.param("v_r") ** 3 + 1.0
    assert model.expected_marginal_cost(x, q, weather) == pytest.approx(
        x.param("theta_c"), abs=1e-12
    )


def test_marginal_cost_simple_matches_cdf_formula(weather):
    model = SimpleCostModel()
    x = simple_type(theta_c=1.2, gamma=2.0)
    for q in np.linspace(1.0, 600.0, 20):
        want = 1.2 * cdf(weather, (q / 2.0) ** (1.0 / 3.0))
        got = model.expected_marginal_cost(x, float(q), weather)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_marginal_cost_matches_finite_difference_off_kinks(weather):
    # expected cost is piecewise linear with kinks at gamma*w^3; probe
    # midpoints between adjacent kinks where the slope is exact
    model = SimpleCostModel()
    x = simple_type(theta_c=1.2, gamma=2.0)
    kinks = sorted(2.0 * w**3 for w in weather.speeds)
    mids = [(a + b) / 2.0 for a, b in zip(kinks[:40], kinks[1:41])]
    for q in mids[::2]:
        h = min(1e-6 * max(q, 1.0), 0.1)
        fd = (
            model.expected_cost(x, q + h, weather)
            - model.expected_cost(x, q - h, weather)
        ) / (2.0 * h)
        got = model.expected_marginal_cost(x, q, weather)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_marginal_cost_nondecreasing(weather):
    qs = np.linspace(0.0, 2000.0, 200)
    for model, x in (
        (SimpleCostModel(), simple_type(gamma=2.0)),
        (WindConventionalCostModel(), wc_type(gamma=2.0)),
    ):
        vals = [model.expected_marginal_cost(x, float(q), weather) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_dominates_examples(weather):
    model = SimpleCostModel()
    qs = np.linspace(0.0, 500.0, 101)
    x1 = simple_type("g1", gamma=1.0)
    x2 = simple_type("g2", gamma=2.0)
    assert dominates(x1, x1, model, weather, qs) == "equal"
    assert dominates(x2, x1, model, weather, qs) == "better"
    assert dominates(x1, x2, model, weather, qs) == "worse"


def test_dominates_incomparable_pair(weather):
    model = WindConventionalCostModel()
    qs = np.linspace(0.0, 500.0, 101)
    b = wc_type("b", c0=4.0, theta_w=0.2, theta_c=1.2, gamma=2.0)
    c = wc_type("c", c0=5.0, theta_w=0.1, theta_c=1.2, gamma=1.0)
    assert dominates(b, c, model, weather, qs) == "incomparable"


def test_find_worst_type(weather):
    model = SimpleCostModel()
    qs = np.linspace(0.0, 500.0, 101)
    single = TypeSpace((simple_type("only"),))
    assert find_worst_type(single, model, weather, qs).id == "only"
    pair = TypeSpace(
        (simple_type("g1", gamma=1.0, prior=0.5), simple_type("g2", gamma=2.0, prior=0.5))
    )
    assert find_worst_type(pair, model, weather, qs).id == "g1"


def test_no_worst_type_in_crossing_pair(weather):
    model = SimpleCostModel()
    qs = np.linspace(0.0, 500.0, 101)
    crossing = TypeSpace(
        (
            simple_type("cheap_start", c0=1.0, theta_c=1.4, gamma=1.0, prior=0.5),
            simple_type("cheap_margin", c0=5.0, theta_c=0.5, gamma=1.0, prior=0.5),
        )
    )
    assert find_worst_type(crossing, model, weather, qs) is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dominates_is_a_partial_order(data):
    weather = weibull_model(3.0, 5.0, 40)
    model = SimpleCostModel()
    qs = np.linspace(0.0, 300.0, 25)
    types = []
    for i in range(3):
        types.append(
            simple_type(
                f"t{i}",
                c0=data.draw(st.floats(0.5, 5.0), label=f"c0_{i}"),
                theta_c=data.draw(st.floats(0.3, 1.5), label=f"th_{i}"),
                gamma=data.draw(st.floats(0.5, 3.0), label=f"gm_{i}"),
            )
        )
    rel = {
        (a.id, b.id): dominates(a, b, model, weather, qs)
        for a, b in itertools.permutations(types, 2)
    }
    for a, b in itertools.permutations(types, 2):
        # antisymmetry
        flipped = {"better": "worse", "worse": "better"}.get(
            rel[(a.id, b.id)], rel[(a.id, b.id)]
        )
        assert rel[(b.id, a.id)] == flipped
    for a, b, c in itertools.permutations(types, 3):
        # transitivity
        if rel[(a.id, b.id)] == "better" and rel[(b.id, c.id)] == "better":
            assert rel[(a.id, c.id)] in ("better", "equal")


def test_type_space_validation():
    with pytest.raises(ConfigurationError):
        TypeSpace(())
    with pytest.raises(ConfigurationError):
        TypeSpace((simple_type("x", prior=0.5), simple_type("x", prior=0.5)))
    with pytest.raises(ConfigurationError):
        TypeSpace((simple_type("x", prior=0.4), simple_type("y", prior=0.4)))


def test_subset_keeps_unnormalized_priors():
    space = TypeSpace(
        (simple_type("x", prior=0.25), simple_type("y", prior=0.75))
    )
    sub = space.subset(["y"])
    assert [t.id for t in sub] == ["y"]
    assert sub.by_id("y").prior_weight == 0.75
    with pytest.raises(ConfigurationError):
        space.subset(["nope"])
    with pytest.raises(ConfigurationError):
        space.subset([])


def test_make_model():
    assert make_model("simple").kind == "simple"
    assert make_model("wind_conventional").kind == "wind_conventional"
    with pytest.raises(ConfigurationError):
        make_model("unknown")


def test_check_assumptions_rejects_bad_plugin(weather):
    # realized cost that depends on the weather at q=0 violates the
    # weather-free startup requirement
    class Bad(CostModel):
        param_names = ("c0",)

        def realized_cost(self, x, q, w):
            return x.param("c0") + 0.1 * w + q

    bad = Bad()
    space = TypeSpace((SellerType("p", {"c0": 1.0}, 1.0),))
    with pytest.raises(ConfigurationError):
        bad.check_assumptions(space, weather, np.linspace(0.0, 10.0, 5))


def test_check_assumptions_rejects_concave_plugin(weather):
    class Concave(CostModel):
        param_names = ("c0",)

        def realized_cost(self, x, q, w):
            return x.param("c0") + math.sqrt(q)

    concave = Concave()
    space = TypeSpace((SellerType("p", {"c0": 1.0}, 1.0),))
    with pytest.raises(ConfigurationError):
        concave.check_assumptions(space, weather, np.linspace(0.0, 10.0, 11))


NAN_PLUGIN = """\
import math
from procure.costmodel import CostModel


class NanCost(CostModel):
    param_names = ("c0",)

    def realized_cost(self, x, q, w):
        return math.nan if q > 50 and w > 6 else x.param("c0") + q
"""


def test_non_finite_expected_cost_exits_2(tmp_path, monkeypatch, capsys):
    # the realized cost is NaN above 50 MWh in strong wind, so the expected
    # cost is NaN from the first grid point above 50 on
    (tmp_path / "nan_cost_plugin.py").write_text(NAN_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    path = tmp_path / "nan.yaml"
    path.write_text(
        "weather: {kind: weibull, shape: 3.0, mean: 5.0, n_points: 50}\n"
        "cost_model: {kind: plugin, import: 'nan_cost_plugin:NanCost'}\n"
        "types:\n  - {id: ok, params: {c0: 1}}\n  - {id: p1, params: {c0: 2}}\n"
        "buyer: {marginal_utility: {kind: affine, intercept: 3.0, slope: 0.01}}\n"
        "grid: {q_max: 100, n_cells: 10}\n"
    )
    with pytest.raises(ConfigurationError, match="^type 'ok': expected cost nan at q=60.0 is not finite$"):
        load_scenario(path)
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: type 'ok': expected cost nan" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


BUMP_PLUGIN = """\
from procure.costmodel import CostModel


class Bump(CostModel):
    param_names = ("c0", "gamma")

    def realized_cost(self, x, q, w):
        bump = 0.5 * max(0.0, w - 5.0) * max(0.0, 7.0 - w)
        return x.param("c0") + bump + 1.3 * max(q - x.param("gamma") * w, 0.0)
"""


def test_startup_cost_above_c0_in_expectation_exits_2(tmp_path, monkeypatch, capsys):
    # the bump is 0 at the lowest and highest speeds, so only the expected
    # cost at q = 0 shows that the startup cost is not c0; verify used to
    # pass with type p1 at U = -0.118
    from test_scenario import PLUGIN_YAML

    (tmp_path / "bump_plugin.py").write_text(BUMP_PLUGIN)
    monkeypatch.syspath_prepend(str(tmp_path))
    path = tmp_path / "bump.yaml"
    path.write_text(PLUGIN_YAML.format(target="bump_plugin:Bump"))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: type 'p1': startup cost 1.1178")
    assert err.endswith(" expected over the weather differs from c0=1.0\n")


def test_plugin_marginal_cost_finite_difference(weather):
    # a plugin's marginal cost is the instance's per-cell finite difference
    # of its expected cost
    class HalfRate(CostModel):
        param_names = ("c0",)

        def realized_cost(self, x, q, w):
            return x.param("c0") + 0.5 * q

    model = HalfRate()
    space = TypeSpace((SellerType("p", {"c0": 1.0}, 1.0),))
    grid = QuantityGrid(q_max=10.0, n_cells=5)
    inst = Instance.build(space, model, weather, grid, BuyerUtility.affine(1.0, 0.1))
    assert inst.cbar == pytest.approx(np.full((1, 5), 0.5), abs=1e-9)


def test_wind_conventional_rejects_bad_speeds(weather):
    model = WindConventionalCostModel()
    x = wc_type(v_ci=13.0, v_r=3.0)
    with pytest.raises(ParameterDomainError, match=r"^type 'a': need v_ci < v_r < v_co$"):
        model.validate_type(x)
    # the shared gamma check runs first, so a type that breaks both gets its message
    with pytest.raises(ParameterDomainError, match="^type 'a': gamma must be positive$"):
        model.validate_type(wc_type(v_ci=13.0, v_r=3.0, gamma=0.0))


@pytest.mark.parametrize("model, x", [
    (SimpleCostModel(), simple_type(gamma=0.0)),
    (WindConventionalCostModel(), wc_type(gamma=0.0)),
])
def test_builtin_models_reject_nonpositive_gamma(model, x):
    with pytest.raises(ParameterDomainError, match=f"^type '{x.id}': gamma must be positive$"):
        model.validate_type(x)


def old_simple_cost(x, q, w):
    """SimpleCostModel.realized_cost before the built-in models shared one formula."""
    return x.param("c0") + x.param("theta_c") * max(q - x.param("gamma") * w**3, 0.0)


def old_simple_cost_array(x, q, generation):
    return x.param("c0") + x.param("theta_c") * np.maximum(q - generation, 0.0)


def old_wind_cost(x, q, w):
    """WindConventionalCostModel.realized_cost before the shared formula."""
    g = power_curve(x, w)
    return (
        x.param("c0")
        + x.param("theta_w") * min(q, g)
        + x.param("theta_c") * max(q - g, 0.0)
    )


def old_wind_cost_array(x, q, generation):
    return (
        x.param("c0")
        + x.param("theta_w") * np.minimum(q, generation)
        + x.param("theta_c") * np.maximum(q - generation, 0.0)
    )


def _zeros_or(values):
    return st.sampled_from([0.0, -0.0]) | values


@settings(max_examples=300, deadline=None)
@given(
    wind=st.booleans(),
    qs=st.lists(st.floats(0.0, 3000.0), max_size=3),
    ratios=st.lists(st.floats(0.0, 2.0), max_size=3),
    c0=_zeros_or(st.floats(0.0, 10.0)),
    theta_w=_zeros_or(st.floats(0.0, 2.0)),
    theta_c=_zeros_or(st.floats(0.0, 2.0)),
    gamma=st.floats(0.1, 3.0),
    speeds=st.lists(st.floats(0.0, 30.0), max_size=4),
)
def test_realized_cost_matches_the_per_model_formulas(wind, qs, ratios, c0, theta_w, theta_c,
                                                      gamma, speeds):
    # calm, below cut-in, at rated speed and above cut-out, then the drawn speeds
    speeds = sorted({0.0, 1.5, 13.0, 24.0, *speeds})
    if wind:
        model = WindConventionalCostModel()
        x = wc_type(c0=c0, theta_w=theta_w, theta_c=theta_c, gamma=gamma)
        old, old_array = old_wind_cost, old_wind_cost_array
    else:
        model = SimpleCostModel()
        x = simple_type(c0=c0, theta_c=theta_c, gamma=gamma)
        old, old_array = old_simple_cost, old_simple_cost_array
    weather = WeatherModel(states=tuple((w, 1.0 / len(speeds)) for w in speeds))
    g = model.generation_array(x, weather)
    # each state's generation and multiples of it, so that both branches and
    # their tie show at every state
    qs = [0.0, -0.0, *qs, *(r * g_j for r in (1.0, *ratios) for g_j in g.tolist())]
    got = np.array([model.realized_cost(x, q, w) for q in qs for w in speeds])
    want = np.array([old(x, q, w) for q in qs for w in speeds])
    got_array = np.array([model.realized_cost_array(x, q, weather, g) for q in qs])
    want_array = np.array([old_array(x, q, g) for q in qs])
    if not wind and math.copysign(1.0, c0) < 0.0 and math.copysign(1.0, theta_c) < 0.0:
        # c0 = theta_c = -0 makes every cost a zero, and c0 + 0*min(q, g) in the
        # shared formula can turn the old -0 into +0
        assert np.all(got == 0.0) and np.all(want == 0.0)
        assert np.all(got_array == 0.0) and np.all(want_array == 0.0)
    else:
        assert same_bits(got, want)
        assert same_bits(got_array, want_array)


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_expected_cost_grid_rejects_negative_or_nan_points(weather, bad):
    # a NaN point would put its block's rows in the wrong range
    qs = np.array([0.0, 10.0, bad, 30.0])
    for model, x in ((SimpleCostModel(), simple_type()), (WindConventionalCostModel(), wc_type())):
        with pytest.raises(ParameterDomainError):
            model.expected_cost_grid(x, qs, weather)


def test_aligned_empty_starts_on_a_cache_line():
    # the blocked kernel's buffer; keep smaller arrays alive in between so
    # that malloc hands out many different offsets
    keep = []
    for n in range(1, 301):
        a = _aligned_empty(n)
        assert a.shape == (n,) and a.dtype == np.float64
        assert a.ctypes.data % 64 == 0
        keep.append(np.empty(n % 7 + 1))


# The bundled six_types.yaml types, whose rows the benchmark's grid_fine
# workload computes at 200 states and 20,001 points.
SIX_WIND_TYPES = TypeSpace(tuple(
    wc_type(tid, c0, theta_w, theta_c, v_ci, v_r, v_co, gamma, prior=1.0 / 6.0)
    for tid, c0, theta_w, theta_c, v_ci, v_r, v_co, gamma in (
        ("a", 4.0, 0.2, 1.2, 3.0, 13.0, 20.0, 1.0),
        ("b", 4.0, 0.2, 1.2, 3.0, 13.0, 20.0, 2.0),
        ("c", 5.0, 0.1, 1.2, 3.0, 13.0, 20.0, 1.0),
        ("d", 5.0, 0.2, 1.0, 1.0, 17.0, 28.0, 2.0),
        ("e", 6.0, 0.1, 1.0, 1.0, 17.0, 28.0, 1.0),
        ("f", 6.0, 0.1, 1.0, 1.0, 13.0, 28.0, 2.0),
    )
))


def spy_on_rows(model):
    """[(type id, thread)] of each expected_cost_grid call on model from
    now on, recorded by a wrapper set on the instance."""
    calls = []
    kernel = model.expected_cost_grid

    def spy(x, qs, weather):
        calls.append((x.id, threading.current_thread()))
        return kernel(x, qs, weather)

    model.expected_cost_grid = spy
    return calls


@pytest.fixture
def two_cpus(monkeypatch):
    """check_assumptions sees two CPUs, whatever this process may run on."""
    monkeypatch.setattr(costmodel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def threaded_row_mismatches():
    """(states, points, problem) of each case where check_assumptions'
    rows for the six wind types differ in any bit from one
    expected_cost_grid call per type, or where no row came from a worker
    thread."""
    bad = []
    for n_states, n_points in ((200, 20_001), (2000, 2001)):
        weather = weibull_model(3.0, 5.0, n_states)
        qs = QuantityGrid(q_max=5500.0, n_cells=n_points - 1).points
        model = WindConventionalCostModel()
        calls = spy_on_rows(model)
        rows = model.check_assumptions(SIX_WIND_TYPES, weather, qs)
        del model.expected_cost_grid
        want = np.array([model.expected_cost_grid(x, qs, weather) for x in SIX_WIND_TYPES])
        if not same_bits(rows, want):
            bad.append((n_states, n_points, "bits"))
        workers = {t.name for _, t in calls if t is not threading.main_thread()}
        if workers != {"procure-ec-rows"}:
            bad.append((n_states, n_points, f"rows computed on {workers or 'main only'}"))
    return bad


@pytest.mark.parametrize("threads", [1, 2])
def test_threaded_rows_are_bit_identical(threads):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 CPUs available: check_assumptions stays on one thread")
    assert with_blas_threads("threaded_row_mismatches", threads) == "[]"


def test_an_earlier_types_error_comes_first_on_two_threads(two_cpus):
    # a's EC is concave (theta_w > theta_c) and b's parameters are invalid:
    # every type's parameters are checked before any row is computed, so
    # b's error comes first and no row costs anything
    model = WindConventionalCostModel()
    space = TypeSpace((
        wc_type("a", theta_w=2.0, theta_c=1.0, prior=0.5),
        wc_type("b", gamma=0.0, prior=0.5),
    ))
    weather = weibull_model(3.0, 5.0, 200)
    qs = QuantityGrid(q_max=5500.0, n_cells=20_000).points
    calls = spy_on_rows(model)
    spy = model.expected_cost_grid
    with pytest.raises(ParameterDomainError, match="^type 'b': gamma must be positive$"):
        model.check_assumptions(space, weather, qs)
    assert calls == []

    # with b valid, a's row error comes first, once b's row, computed on
    # the worker, is done
    def slow_worker(x, qs, weather):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)  # still running when type a fails, unless joined
        return spy(x, qs, weather)

    model.expected_cost_grid = slow_worker
    space = TypeSpace((space.types[0], wc_type("b", prior=0.5)))
    before = threading.active_count()
    with pytest.raises(ConfigurationError, match="^type 'a': expected cost not convex in q$"):
        model.check_assumptions(space, weather, qs)
    assert threading.active_count() == before
    assert sorted((i, t is threading.main_thread()) for i, t in calls) == [
        ("a", True), ("b", False)
    ]


def test_a_worker_error_is_raised_in_its_types_turn(two_cpus):
    # type e's row is on the worker in both type sets
    model = WindConventionalCostModel()
    weather = weibull_model(3.0, 5.0, 200)
    qs = QuantityGrid(q_max=5500.0, n_cells=20_000).points
    kernel = model.expected_cost_grid

    def failing(x, qs, weather):
        if x.id == "e":
            raise ParameterDomainError("type 'e': no row")
        return kernel(x, qs, weather)

    model.expected_cost_grid = failing
    with pytest.raises(ParameterDomainError, match="^type 'e': no row$"):
        model.check_assumptions(SIX_WIND_TYPES, weather, qs)
    concave_first = TypeSpace((
        wc_type("a", theta_w=2.0, theta_c=1.0, prior=0.5), wc_type("e", prior=0.5)
    ))
    with pytest.raises(ConfigurationError, match="^type 'a': expected cost not convex in q$"):
        model.check_assumptions(concave_first, weather, qs)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("tid", ["a", "f"])
def test_an_invalid_type_costs_no_row(monkeypatch, scenario_dir, tmp_path, ec_calls, tid, cpus):
    # the worker used to start on the later types' rows before any type was
    # checked, and the calling thread computed the rows before type f's check
    monkeypatch.setattr(costmodel.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    path = tmp_path / "six.yaml"
    text = (scenario_dir / "six_types.yaml").read_text()
    path.write_text(re.sub(rf"(id: {tid},.*gamma: )\d", r"\g<1>0", text))
    with pytest.raises(ParameterDomainError, match=f"^type '{tid}': gamma must be positive$"):
        load_scenario(path, n_cells=20_000)
    assert not ec_calls


@pytest.mark.parametrize(
    "model, space, n_states, n_points",
    [
        (SimpleCostModel(), TypeSpace(tuple(
            simple_type(f"s{i}", gamma=1.0 + i, prior=0.25) for i in range(4)
        )), 200, 20_001),
        (type("WindPlugin", (WindConventionalCostModel,), {})(), SIX_WIND_TYPES, 200, 20_001),
        (WindConventionalCostModel(), SIX_WIND_TYPES, 200, 201),
    ],
    ids=["simple", "wind-subclass-plugin", "wind-small-grid"],
)
def test_rows_stay_on_the_calling_thread(two_cpus, model, space, n_states, n_points):
    # the simple model's rows and small wind grids ran slower on two
    # threads, and a plugin's code never leaves the calling thread
    weather = weibull_model(3.0, 5.0, n_states)
    qs = QuantityGrid(q_max=5500.0, n_cells=n_points - 1).points
    calls = spy_on_rows(model)
    model.check_assumptions(space, weather, qs)
    assert [i for i, _ in calls] == [x.id for x in space]
    assert all(t is threading.main_thread() for _, t in calls)


def test_load_leaves_no_thread_running(two_cpus, scenario_dir):
    before = threading.active_count()
    sc = load_scenario(scenario_dir / "six_types.yaml", n_cells=20_000)
    assert threading.active_count() == before
    assert same_bits(
        sc.instance.ec,
        np.array([sc.model.expected_cost_grid(x, sc.grid.points, sc.weather) for x in sc.space]),
    )


def test_concurrent_loads_share_a_weather_model(two_cpus):
    # four callers, each with its own worker, on one weather model whose
    # cubes none has computed yet, switching threads every microsecond
    weather = weibull_model(3.0, 5.0, 200)
    qs = QuantityGrid(q_max=5500.0, n_cells=20_000).points
    model = WindConventionalCostModel()
    results = [None] * 4

    def load(k):
        results[k] = model.check_assumptions(SIX_WIND_TYPES, weather, qs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=load, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    want = np.array([model.expected_cost_grid(x, qs, weather) for x in SIX_WIND_TYPES])
    assert all(r is not None and same_bits(r, want) for r in results)
