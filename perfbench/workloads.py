"""Seeded scenario generators for the three benchmark workloads.

Each generator maps an instance index to the text of one scenario YAML
file; the program under test receives only that file. The same index
always gives the same bytes. Instance shapes (types, weather states,
cells, dominance structure) are fixed per workload so that run time does
not swing between seeds; the seed jitters parameter values inside that
shape.
"""
from __future__ import annotations

import random

# Instances are drawn from a fixed pool so that every one of them has a
# recorded reference (reference.json); the seed picks index seed % POOL.
POOL = 16

# The bundled six_types.yaml parameters: (id, c0, theta_w, theta_c, v_ci, v_r, v_co, gamma).
SIX_TYPES = (
    ("a", 4.0, 0.2, 1.2, 3.0, 13.0, 20.0, 1.0),
    ("b", 4.0, 0.2, 1.2, 3.0, 13.0, 20.0, 2.0),
    ("c", 5.0, 0.1, 1.2, 3.0, 13.0, 20.0, 1.0),
    ("d", 5.0, 0.2, 1.0, 1.0, 17.0, 28.0, 2.0),
    ("e", 6.0, 0.1, 1.0, 1.0, 17.0, 28.0, 1.0),
    ("f", 6.0, 0.1, 1.0, 1.0, 13.0, 28.0, 2.0),
)

# exclusion_wide: three dominance chains, mutually incomparable, giving
# 4*4*5 - 1 = 79 upward-closed admissible subsets for every seed.
CHAIN_LENGTHS = (3, 3, 4)
TURBINES = ((3.0, 13.0, 20.0, 1.0), (1.0, 17.0, 28.0, 2.0), (1.0, 17.0, 28.0, 2.0))


def _f(x: float) -> str:
    return repr(float(x))


def _wc_type(tid, c0, theta_w, theta_c, v_ci, v_r, v_co, gamma) -> str:
    return (
        f"  - {{id: {tid}, params: {{c0: {_f(c0)}, theta_w: {_f(theta_w)}, "
        f"theta_c: {_f(theta_c)}, v_ci: {_f(v_ci)}, v_r: {_f(v_r)}, "
        f"v_co: {_f(v_co)}, gamma: {_f(gamma)}}}}}\n"
    )


def grid_fine(index: int) -> str:
    """The six-type wind_conventional study at 20,000 cells. Index 0 is the
    published instance; other indices scale each type's c0, theta_w and
    theta_c by independent factors in [0.97, 1.03]."""
    rng = random.Random(f"grid_fine/{index}")
    types = ""
    for tid, c0, tw, tc, *turbine in SIX_TYPES:
        if index:
            c0, tw, tc = (v * rng.uniform(0.97, 1.03) for v in (c0, tw, tc))
        types += _wc_type(tid, c0, tw, tc, *turbine)
    return (
        f"description: grid_fine instance {index}\n"
        "weather: {kind: weibull, shape: 3.0, mean: 5.0, n_points: 200}\n"
        "cost_model: {kind: wind_conventional}\n"
        f"types:\n{types}"
        "buyer:\n  marginal_utility: {kind: affine, intercept: 0.55, slope: 1.0e-4}\n"
        "grid: {n_cells: 20000}\n"
        "options: {alpha: 0.5}\n"
    )


def weather_dense(index: int) -> str:
    """Six simple-model types over 2000 Weibull states and 2000 cells.

    The types share c0 and theta_c and have distinct gamma, so they form a
    dominance chain and the smallest gamma is the worst type."""
    rng = random.Random(f"weather_dense/{index}")
    c0 = 4.0 * rng.uniform(0.97, 1.03)
    theta_c = 1.2 * rng.uniform(0.97, 1.03)
    types = ""
    for i in range(6):
        gamma = (0.5 + 0.4 * i) * rng.uniform(0.95, 1.05)
        types += (
            f"  - {{id: g{i}, params: {{c0: {_f(c0)}, theta_c: {_f(theta_c)}, "
            f"gamma: {_f(gamma)}}}}}\n"
        )
    return (
        f"description: weather_dense instance {index}\n"
        "weather: {kind: weibull, shape: 3.0, mean: 5.0, n_points: 2000}\n"
        "cost_model: {kind: simple}\n"
        f"types:\n{types}"
        "buyer:\n  marginal_utility: {kind: affine, intercept: 1.0, slope: 1.5e-3}\n"
        "grid: {n_cells: 2000}\n"
        "options: {alpha: 0.5}\n"
    )


def exclusion_wide(index: int) -> str:
    """Ten wind_conventional types searched for the best admissible subset.

    Chain k starts at c0 near 3 + k and theta_c near 1.3 - 0.1k, so any
    two chains' cost curves cross (lower startup cost, higher shortfall
    cost). Down a chain c0, theta_w and theta_c all rise, so each member is
    dominated by the one before it."""
    rng = random.Random(f"exclusion_wide/{index}")
    types = ""
    for k, (length, turbine) in enumerate(zip(CHAIN_LENGTHS, TURBINES)):
        c0 = 3.0 + k + rng.uniform(-0.1, 0.1)
        theta_w = 0.15 * rng.uniform(0.9, 1.1)
        theta_c = 1.3 - 0.1 * k + rng.uniform(-0.01, 0.01)
        for m in range(length):
            types += _wc_type(f"k{k}m{m}", c0, theta_w, theta_c, *turbine)
            c0 += rng.uniform(0.1, 0.25)
            theta_w += rng.uniform(0.005, 0.01)
            theta_c += rng.uniform(0.005, 0.01)
    return (
        f"description: exclusion_wide instance {index}\n"
        "weather: {kind: weibull, shape: 3.0, mean: 5.0, n_points: 200}\n"
        "cost_model: {kind: wind_conventional}\n"
        f"types:\n{types}"
        "buyer:\n  marginal_utility: {kind: affine, intercept: 0.55, slope: 1.0e-4}\n"
        "grid: {n_cells: 200}\n"
        "options: {exclusion_search: true}\n"
    )


GENERATORS = {
    "grid_fine": grid_fine,
    "weather_dense": weather_dense,
    "exclusion_wide": exclusion_wide,
}
