import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import procure
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
    probs = np.array(weather.probs)
    return x.param("c0") + x.param("theta_c") * probs @ np.maximum(qs[None, :] - g, 0.0)


def dense_wind_conventional(x, qs, weather):
    g = np.array([power_curve(x, w) for w in weather.speeds])[:, None]
    probs = np.array(weather.probs)
    wind = np.minimum(qs[None, :], g)
    short = np.maximum(qs[None, :] - g, 0.0)
    return x.param("c0") + probs @ (x.param("theta_w") * wind + x.param("theta_c") * short)


def kernel_weathers():
    """(name, weather) of each weather the kernel tests run on: one state,
    Weibull at 6, 200 and 2000 states, and an empirical weather of speeds
    rounded to 0.5 m/s, calm ones included."""
    speeds = np.round(2.0 * np.random.default_rng(3).weibull(2.0, 400) * 6.0) / 2.0
    return (
        ("1", WeatherModel(states=((8.0, 1.0),))),
        *((str(s), weibull_model(3.0, 5.0, s)) for s in (6, 200, 2000)),
        ("empirical", empirical_model(speeds.tolist())),
    )


def kernel_cases():
    """(model, type, dense reference) of each case: the simple model, and
    the wind model with cut-out above every Weibull speed, with cut-out
    inside the speed range (generation drops back to 0, so it is not
    sorted), and with theta_w = 0."""
    wind = WindConventionalCostModel()
    return (
        (SimpleCostModel(), simple_type(), dense_simple),
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
    every row of those blocks is covered; and one-point grids, which numpy
    takes through dot instead of gemv, sit at each of 101 points from 0 to
    top."""
    for n in (0, 1, 2, 3, *range(width - 1, width + 4), most):
        yield f"random-{n}", np.random.default_rng(n).uniform(0.0, 3000.0, n)
        yield f"sorted-{n}", np.linspace(0.0, top, n)
    yield "covered-first", np.concatenate(
        [np.linspace(0.0, low, 2 * width), np.linspace(low, top, width + 5)]
    )
    for i, q in enumerate(np.linspace(0.0, top, 101)):
        yield f"point-{i}", np.array([q])


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
                if not np.array_equal(
                    model.expected_cost_grid(x, qs, weather), dense(x, qs, weather)
                ):
                    bad.append((model.kind, name, grid))
    return bad


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


def one_blas_thread(function):
    """What function (a name in this module) returns, printed by a child
    process with one BLAS thread: with several, gemv splits the points
    between threads and the dense product's bits change at the split."""
    path = [str(Path(procure.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(path),
    )
    code = f"import test_costmodel; print(test_costmodel.{function}())"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_blocked_expected_cost_is_bit_identical_to_dense_product():
    assert one_blas_thread("blocked_kernel_mismatches") == "[]"


def test_products_over_rounded_up_nonzero_rows_are_bit_identical():
    # the simple model's kernel leaves out the +0 rows past a multiple of
    # ROW_GROUP; this pins the BLAS property it rests on
    assert one_blas_thread("zero_tail_mismatches") == "[]"


def test_ec_block_width():
    assert [ec_block_width(s) for s in (1, 6, 200, 2000)] == [32_768, 5440, 128, 64]
    for n_states in (*range(1, 3000), 10**5, 10**7):
        width = ec_block_width(n_states)
        assert width % 64 == 0 and width >= 64
        if width > 64:
            assert 8 * n_states * width <= EC_BLOCK_BYTES


@pytest.mark.parametrize(
    "model, x, n_states, n_points",
    [
        (SimpleCostModel(), simple_type(), 200, 20_001),
        (WindConventionalCostModel(), wc_type(), 200, 20_001),
        (SimpleCostModel(), simple_type(), 2000, 2001),
        (WindConventionalCostModel(), wc_type(), 2000, 2001),
    ],
    ids=["simple", "wind_conventional", "simple-2000x2001", "wind_conventional-2000x2001"],
)
def test_expected_cost_grid_peak_memory(model, x, n_states, n_points):
    # One dense integrand alone is 32 MB at either size. numpy reports its
    # buffers to tracemalloc.
    weather = weibull_model(3.0, 5.0, n_states)
    qs = np.linspace(0.0, 3000.0, n_points)
    tracemalloc.start()
    try:
        model.expected_cost_grid(x, qs, weather)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    with pytest.raises(ParameterDomainError):
        model.validate_type(x)


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
