"""Seller types, generation-cost models, and the dominance partial order.

Cost conventions: money is in k$, energy in MWh, so marginal quantities are
k$/MWh (numerically equal to $/kWh). Expected marginal cost is the right
derivative of the weather-expected cost, so a marginal unit at quantity q
counts as wind-covered only while available wind generation strictly
exceeds q.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ParameterDomainError
from .weather import WeatherModel, cube

EQUAL_COST_TOL = 1e-12

# Bytes of one states x points block of the expected-cost kernel. The wind
# model holds two such blocks (the integrand and a tile of theta_w*g), and
# both stay in a core's L2 cache while the integrand makes its passes over
# them; a budget of 2^20, whose two blocks fill a 2 MB L2, was slower. The
# width in points follows the number of states (ec_block_width): 320 points
# at 200 states, and the 64-point floor at 2000 states, where wider blocks
# were slower too.
EC_BLOCK_BYTES = 1 << 19

# Rows of a block that the expected-cost kernel keeps together when it
# leaves out zero rows: gemv sums the rows of a tile in groups of 4 or 8.
ROW_GROUP = 16

# States x points of one expected-cost row from which a load computes a
# wind_conventional type set's rows on two threads (_worker_rows). Six wind
# types' check_assumptions on two threads took, against one (2-vCPU Xeon,
# one BLAS thread): 1.33 times as long at 20 states x 2001 points, 1.05-1.11
# at 200 x 201 to 1001, 0.96-1.06 at 200 x 2001 and 0.97-1.00 at 20 x 20,001
# (the break-even), 0.87-0.96 at 200 x 20,001, 0.76 at 20 x 200,001, and
# 0.72-0.84 at 2000 x 101 to 501: many states gain sooner.
THREAD_ROW_ELEMS = 400_000


@dataclass(frozen=True)
class SellerType:
    """One point of the seller's type set: an id, named cost parameters,
    and its prior weight."""

    id: str
    params: Mapping[str, float]
    prior_weight: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.prior_weight <= 1.0):
            raise ConfigurationError(
                f"type {self.id!r}: prior_weight {self.prior_weight} outside [0, 1]"
            )

    def param(self, name: str) -> float:
        try:
            return float(self.params[name])
        except KeyError:
            raise ConfigurationError(f"type {self.id!r}: missing parameter {name!r}") from None


@dataclass(frozen=True)
class TypeSpace:
    """Non-empty finite type set with normalized priors."""

    types: tuple[SellerType, ...]

    def __post_init__(self) -> None:
        if not self.types:
            raise ConfigurationError("type space must be non-empty")
        ids = [t.id for t in self.types]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate type ids in {ids}")
        total = math.fsum(t.prior_weight for t in self.types)
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"prior weights sum to {total!r}, not 1")

    def __iter__(self):
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def index(self, type_id: str) -> int:
        """Position of type_id in types: its row in every per-type array."""
        for i, t in enumerate(self.types):
            if t.id == type_id:
                return i
        raise ConfigurationError(f"unknown type id {type_id!r}")

    def by_id(self, type_id: str) -> SellerType:
        return self.types[self.index(type_id)]

    def subset(self, ids: Sequence[str]) -> "TypeSpace":
        """Admissible subset, keeping the original (unnormalized) priors.

        Excluded types decline the contract and contribute zero to the
        buyer's expectation, so the kept weights are not renormalized.
        """
        wanted = set(ids)
        kept = tuple(t for t in self.types if t.id in wanted)
        if not kept:
            raise ConfigurationError("admissible subset is empty")
        if len(kept) != len(wanted):
            missing = wanted - {t.id for t in kept}
            raise ConfigurationError(f"unknown type ids in admissible set: {sorted(missing)}")
        space = object.__new__(TypeSpace)
        object.__setattr__(space, "types", kept)
        return space


def power_curve(x: SellerType, w: float) -> float:
    """Wind-turbine output (MWh) at speed w: zero below cut-in and above
    cut-out, gamma*w^3 up to rated speed, flat at gamma*v_r^3 after."""
    if w < 0.0:
        raise ParameterDomainError(f"negative wind speed {w}")
    v_ci, v_r, v_co = x.param("v_ci"), x.param("v_r"), x.param("v_co")
    gamma = x.param("gamma")
    if w < v_ci or w > v_co:
        return 0.0
    if w <= v_r:
        return gamma * w**3
    return gamma * v_r**3


class CostModel:
    """Maps (quantity, weather, type) to realized cost.

    Subclasses provide the realized-cost formula and, where available,
    analytic expected marginal costs. Realized cost must be convex and
    nondecreasing in q for fixed (w, x), and its value at q=0 must be the
    weather-independent startup cost c0 (checked by check_assumptions).

    A plugin model is a subclass that sets param_names and overrides
    realized_cost, and generation when it has a wind part; the scalar
    loops below serve it for the rest.
    """

    kind: str = "plugin"
    param_names: tuple[str, ...] = ()

    def validate_type(self, x: SellerType) -> None:
        for name in self.param_names:
            v = x.param(name)
            if v < 0.0 or not math.isfinite(v):
                raise ParameterDomainError(f"type {x.id!r}: parameter {name}={v} invalid")

    def generation(self, x: SellerType, w: float) -> float:
        """Available wind generation (MWh) at speed w."""
        return 0.0

    def realized_cost(self, x: SellerType, q: float, w: float) -> float:
        raise NotImplementedError

    def generation_array(self, x: SellerType, weather: WeatherModel) -> np.ndarray:
        """generation(x, w) at each state's speed, bit for bit."""
        return np.array([self.generation(x, w) for w in weather.speeds], dtype=float)

    def realized_cost_array(
        self, x: SellerType, q: float, weather: WeatherModel, generation: np.ndarray
    ) -> np.ndarray:
        """realized_cost(x, q, w) at each state's speed, bit for bit, given
        generation = generation_array(x, weather); the built-in models read
        it rather than computing it again."""
        return np.array([self.realized_cost(x, q, w) for w in weather.speeds], dtype=float)

    def expected_cost(self, x: SellerType, q: float, weather: WeatherModel) -> float:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        return math.fsum(p * self.realized_cost(x, q, w) for w, p in weather.states)

    def expected_cost_grid(
        self, x: SellerType, qs: np.ndarray, weather: WeatherModel
    ) -> np.ndarray:
        """Vectorized expected cost at an array of quantities."""
        return np.array([self.expected_cost(x, float(q), weather) for q in qs])

    def check_assumptions(
        self, space: TypeSpace, weather: WeatherModel, qs: np.ndarray
    ) -> np.ndarray:
        """Hard checks of valid parameters, a weather-free startup cost, and
        finite, nondecreasing, convex expected costs on a grid qs from 0.
        Returns the rows it checked, one per type on qs, for callers to use.

        First every type's parameters and its startup cost c0 at the lowest
        and highest speeds, before any row is computed; then the rows, one
        expected_cost_grid call each, a worker thread computing those that
        _worker_rows names, each failure kept for its row; then, in type
        order, each row's failure or checks: finite, c0 at q = 0 (c0 in
        expectation), nondecreasing and convex. The first failure raises.
        """
        def startup_check(x: SellerType, cost: float, where: str) -> None:
            c0 = x.param("c0")
            if abs(cost - c0) > 1e-9 * max(1.0, abs(c0)):
                raise ConfigurationError(
                    f"type {x.id!r}: startup cost {cost} {where} differs from c0={c0}"
                )

        for x in space:
            self.validate_type(x)
            for w in (weather.speeds[0], weather.speeds[-1]):
                startup_check(x, self.realized_cost(x, 0.0, w), f"at w={w}")
        ec = np.empty((len(space), len(qs)))
        failed = [None] * len(space)  # the exception each row's computation raised

        def compute_rows(rows: range) -> None:
            for i in rows:
                try:
                    ec[i] = self.expected_cost_grid(space.types[i], qs, weather)
                except BaseException as exc:  # raised below in its type's turn
                    failed[i] = exc
                    return

        later = _worker_rows(self, space, weather, qs)
        worker = threading.Thread(target=compute_rows, args=(later,), name="procure-ec-rows")
        if later:
            worker.start()
        try:
            compute_rows(range(later.start))
        finally:
            if later:
                worker.join()
        for x, row, exc in zip(space, ec, failed):
            if exc is not None:
                raise exc
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise ConfigurationError(
                    f"type {x.id!r}: expected cost {row[bad[0]]} at q={qs[bad[0]]} is not finite"
                )
            startup_check(x, row[0], "expected over the weather")
            d = np.diff(row)
            if np.any(d < -1e-9 * max(1.0, float(np.max(np.abs(row))))):
                raise ConfigurationError(f"type {x.id!r}: expected cost decreasing in q")
            if np.any(np.diff(d) < -1e-9 * max(1.0, float(np.max(np.abs(d))))):
                raise ConfigurationError(f"type {x.id!r}: expected cost not convex in q")
        return ec


def _aligned_empty(n: int) -> np.ndarray:
    """Uninitialized float array of n elements starting on a 64-byte
    boundary. The blocked kernel runs 20-40% slower at 2000 states x 2001
    points on a buffer that starts off a cache line, and where malloc puts
    the buffer depends on the process's earlier allocations."""
    raw = np.empty(n + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + n]


def ec_block_width(n_states: int) -> int:
    """Grid points per block of the expected-cost kernel at n_states states:
    as many as fit EC_BLOCK_BYTES, rounded down to a multiple of 64, and at
    least 64. In one thread, BLAS's gemv sums each point over the states in
    the same order whatever the number of points, except on a tail of fewer
    points than its unroll; with a multiple of 64 that tail falls only in
    the last block, on the same points as in one product over the whole
    grid, so blocking changes no bit."""
    return max(64, EC_BLOCK_BYTES // (8 * n_states) // 64 * 64)


def _expected_cost_blocked(
    c0: float,
    weights: np.ndarray,
    qs: np.ndarray,
    g: np.ndarray,
    wind: Optional[tuple[float, float]] = None,
) -> np.ndarray:
    """c0 + weights @ integrand(qs): the weather-expected cost at each grid
    point, for state weights over the states x points integrand, given the
    generation g of each state. With wind = (theta_w, theta_c) the
    integrand is theta_w*min(q, g) + theta_c*max(q - g, 0); with wind None
    it is the shortfall max(q - g, 0), theta_c being in the weights.

    The grid goes in blocks of ec_block_width points, and each block's
    integrand fills one C-contiguous states x k block, so every elementwise
    pass runs over contiguous memory and one integrand block exists at a
    time; the wind model holds one more, a tile of theta_w*g.

    g need not be sorted (wind generation drops to 0 above cut-out), so the
    rows of a block split by the running max of g from the first state and
    the running min of g from the last. Rows [0, a), whose running max is at
    most the block's smallest point, are short of wind at every point; rows
    [c, states), whose running min is at least the block's largest point,
    are covered at every point; rows [a, c) take the whole integrand. a and
    c for all blocks come from two searchsorted calls before the loop.

    Rows that start from q - g are one product: the states x 2 matrix
    [1, -g] times the 2 x k matrix [q; 1], which is built per block in one
    small buffer. Both terms of each entry, 1*q and -g*1, are exact, so
    BLAS returns the one rounding of q - g whatever order it sums them in,
    with or without FMA and however threads split the product. The simple
    model's rows [0, c) are that product, and rows [a, c) then take
    max(., 0) in place, so it needs no other block. The wind model's short
    rows are theta_c*(q - g) + theta_w*g, from the product and a tile of
    theta_w*g; its middle rows take min(q, g) from the row q and the column
    g[a:c] into the block and theta_c*(q - min(q, g)) in a scratch of only
    those rows, made only when a block has any (on a fine grid most blocks
    have none); its covered rows are theta_w*q,
    the product of [theta_w, 0] and [q; 1], whose terms theta_w*q and 0*1
    leave the one rounding of theta_w*q. (numpy computes a states x 1 by
    1 x k product without BLAS, 3-5 times slower than copying q and
    scaling it.)

    Each of these gives the whole integrand's bits on its rows, which IEEE
    identities allow: max(x, 0) is x when x >= +0, q - q is +0, x + (+0)
    is x, min(q, g) is the smaller operand, + and * commute, and a sum of
    exact terms, one of them maybe 0, is rounded once. The one exception is
    the sign of a zero: BLAS sums from +0, so a product entry is +0 where
    q - g or theta_w*q is -0 (q = -0). That sign cannot reach the expected
    cost: gemv's weighted sum starts from +0 too, and a sum that starts
    from +0 is +0 whatever the signs of its zero terms.

    With wind None the covered rows are exactly +0 and are not built: rows
    [c, r) are filled with +0, with r = c rounded up to a multiple of
    ROW_GROUP (at most the number of states), and gemv runs over the first
    r rows only. Adding p * (+0) changes no sum, but gemv sums the rows in
    groups, and cutting a group short at c would change the order in which
    the non-zero rows are added; a whole number of groups of 16 leaves each
    row in its group. A one-point block, which numpy takes through dot,
    keeps all its rows.
    """
    qs = np.asarray(qs, dtype=float)
    if not np.all(qs >= 0.0):
        raise ParameterDomainError("negative or NaN quantity in grid")
    n, n_states = len(qs), len(weights)
    ec = np.empty(n)
    width = ec_block_width(n_states)
    starts = np.arange(0, n, width)
    if len(starts) > 1 and n - starts[-1] < 4:
        # A leftover of 1-3 points joins the block before it: numpy takes a
        # one-point product through dot, and gemv sums a matrix only 2 or 3
        # points wide in another order.
        starts = starts[:-1]
    ends = np.append(starts[1:], n)
    rise = np.maximum.accumulate(g)
    floor = np.minimum.accumulate(g[::-1])[::-1]
    short_end = np.searchsorted(rise, np.minimum.reduceat(qs, starts), side="right")
    covered_start = np.maximum(
        np.searchsorted(floor, np.maximum.reduceat(qs, starts), side="left"), short_end
    )

    ones_minus_g = np.stack([np.ones(n_states), -g], axis=1)
    if wind is not None:
        theta_w, theta_c = wind
        theta_w_and_zero = np.zeros((n_states, 2))
        theta_w_and_zero[:, 0] = theta_w
    # The blocks share one buffer, each starting on a cache line. glibc's
    # malloc returns freed heap memory to the system above a trim threshold
    # of twice the largest buffer it has unmapped: one buffer stays in the
    # heap for the next call, while two separate blocks freed together
    # pass the threshold and are faulted in again on every call.
    k_max = min(width + 3, n)
    stride = -(-n_states * k_max // 8) * 8
    blocks = _aligned_empty((1 if wind is None else 2) * stride)
    operand_buf = np.empty(2 * k_max)
    k = 0
    for lo, hi, a, c in zip(starts.tolist(), ends.tolist(), short_end.tolist(),
                            covered_start.tolist()):
        if hi - lo != k:  # the first block, and a wider last one
            k = hi - lo
            out = blocks[: n_states * k].reshape(n_states, k)
            q_and_ones = operand_buf[: 2 * k].reshape(2, k)
            q_and_ones[1] = 1.0
            q = q_and_ones[:1]
            if wind is not None:
                wind_tile = blocks[stride : stride + n_states * k].reshape(n_states, k)
                np.multiply(g[:, None], theta_w, out=wind_tile)
        q[0] = qs[lo:hi]
        r = n_states
        if wind is None:
            np.matmul(ones_minus_g[:c], q_and_ones, out=out[:c])
            np.maximum(out[a:c], 0.0, out=out[a:c])
            if k > 1:  # numpy takes one point through dot, which groups rows otherwise
                r = min(n_states, -(-c // ROW_GROUP) * ROW_GROUP)
            out[c:r] = 0.0
        else:
            if a:
                short = np.matmul(ones_minus_g[:a], q_and_ones, out=out[:a])
                short *= theta_c
                short += wind_tile[:a]  # min(q, g) is g
            if c > a:
                # q - min(q, g) is max(q - g, 0) bit for bit
                wind_part = np.minimum(q, g[a:c, None], out=out[a:c])
                shortfall = np.subtract(q, wind_part)
                shortfall *= theta_c
                wind_part *= theta_w
                wind_part += shortfall
            if c < n_states:
                # min(q, g) is q and the shortfall q - q is +0
                np.matmul(theta_w_and_zero[c:], q_and_ones, out=out[c:])
        np.matmul(weights[:r], out[:r], out=ec[lo:hi])
    ec += c0
    return ec


class ShortfallCostModel(CostModel):
    """The built-in cost structure: C(q,w,x) = c0 + theta_w*min(q,g(w)) +
    theta_c*max(q-g(w),0). Startup cost c0, theta_w on the energy that wind
    generation g covers and theta_c on the shortfall that the conventional
    plant makes up. A subclass gives g (generation, generation_array) and
    theta_w."""

    def theta_w(self, x: SellerType) -> float:
        raise NotImplementedError

    def validate_type(self, x: SellerType) -> None:
        super().validate_type(x)
        if x.param("gamma") <= 0.0:
            raise ParameterDomainError(f"type {x.id!r}: gamma must be positive")

    def realized_cost(self, x: SellerType, q: float, w: float) -> float:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        g = self.generation(x, w)
        return x.param("c0") + self.theta_w(x) * min(q, g) + x.param("theta_c") * max(q - g, 0.0)

    def realized_cost_array(
        self, x: SellerType, q: float, weather: WeatherModel, generation: np.ndarray
    ) -> np.ndarray:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        return (
            x.param("c0")
            + self.theta_w(x) * np.minimum(q, generation)
            + x.param("theta_c") * np.maximum(q - generation, 0.0)
        )

    def expected_marginal_cost(
        self, x: SellerType, q: float, weather: WeatherModel
    ) -> float:
        """theta_w*(1 - P) + theta_c*P, P the prior mass of the states
        whose generation is at most q."""
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        g = self.generation_array(x, weather)
        p_short = float(weather.prob_array[g <= q].sum())
        return self.theta_w(x) * (1.0 - p_short) + x.param("theta_c") * p_short


class SimpleCostModel(ShortfallCostModel):
    """Free wind generation g = gamma*w^3, uncapped, plus a conventional
    plant with constant marginal cost: theta_w = 0, so
    C(q,w,x) = c0 + theta_c * max(q - gamma*w^3, 0)."""

    kind = "simple"
    param_names = ("c0", "theta_c", "gamma")

    def theta_w(self, x: SellerType) -> float:
        return 0.0

    def generation(self, x: SellerType, w: float) -> float:
        return x.param("gamma") * cube(w)

    def generation_array(self, x: SellerType, weather: WeatherModel) -> np.ndarray:
        return x.param("gamma") * weather.cubes

    def expected_cost_grid(
        self, x: SellerType, qs: np.ndarray, weather: WeatherModel
    ) -> np.ndarray:
        # numpy's power, not libm's (weather.cubes): the two can differ in the last
        # bit, and the expected costs have always been computed with this one
        g = x.param("gamma") * weather.speed_array ** 3
        weights = x.param("theta_c") * weather.prob_array
        return _expected_cost_blocked(x.param("c0"), weights, qs, g)


class WindConventionalCostModel(ShortfallCostModel):
    """Wind turbine with the cut-in/rated/cut-out power curve (power_curve)
    plus a conventional plant."""

    kind = "wind_conventional"
    param_names = ("c0", "theta_w", "theta_c", "v_ci", "v_r", "v_co", "gamma")

    def theta_w(self, x: SellerType) -> float:
        return x.param("theta_w")

    def validate_type(self, x: SellerType) -> None:
        super().validate_type(x)
        v_r = x.param("v_r")
        if not (x.param("v_ci") < v_r < x.param("v_co")):
            raise ParameterDomainError(f"type {x.id!r}: need v_ci < v_r < v_co")
        try:
            v_r**3
        except OverflowError:
            raise ParameterDomainError(
                f"type {x.id!r}: parameter v_r={v_r} is too large, v_r**3 overflows"
            ) from None

    def generation(self, x: SellerType, w: float) -> float:
        return power_curve(x, w)

    def generation_array(self, x: SellerType, weather: WeatherModel) -> np.ndarray:
        """power_curve(x, w) at each state's speed."""
        w = weather.speed_array
        v_ci, v_r, v_co = x.param("v_ci"), x.param("v_r"), x.param("v_co")
        gamma = x.param("gamma")
        g = np.where(w <= v_r, gamma * weather.cubes, gamma * v_r**3)
        g[(w < v_ci) | (w > v_co)] = 0.0
        return g

    def expected_cost_grid(
        self, x: SellerType, qs: np.ndarray, weather: WeatherModel
    ) -> np.ndarray:
        g = self.generation_array(x, weather)
        wind = (x.param("theta_w"), x.param("theta_c"))
        return _expected_cost_blocked(x.param("c0"), weather.prob_array, qs, g, wind)


BUILTIN_MODELS = {
    "simple": SimpleCostModel,
    "wind_conventional": WindConventionalCostModel,
}


def _worker_rows(
    model: CostModel, space: TypeSpace, weather: WeatherModel, qs: np.ndarray
) -> range:
    """The types whose expected-cost rows check_assumptions leaves to a
    worker thread: the later half of a wind_conventional type set when
    this process may run on two CPUs and each row has at least
    THREAD_ROW_ELEMS states x points, else none.

    The wind model's numpy and BLAS calls release the GIL, but its rows
    overlap only in part on two cores: its elementwise calls ran 1.8-2.0
    times as fast on two threads, its np.matmul weighted sum 0.89-0.96
    times. The simple model's rows ran slower on two threads, and a
    plugin's Python code is never run off the calling thread.
    """
    n = len(space)
    if (
        type(model) is WindConventionalCostModel
        and len(weather.states) * len(qs) >= THREAD_ROW_ELEMS
        and hasattr(os, "sched_getaffinity")  # elsewhere than Linux, one thread
        and len(os.sched_getaffinity(0)) >= 2
    ):
        return range((n + 1) // 2, n)
    return range(n, n)


def make_model(kind: str) -> CostModel:
    try:
        return BUILTIN_MODELS[kind]()
    except KeyError:
        raise ConfigurationError(f"unknown cost model kind {kind!r}") from None


def no_costlier(ec: np.ndarray) -> np.ndarray:
    """le[i, j]: True when type i's expected-cost row ec[i] is nowhere above
    ec[j] beyond EQUAL_COST_TOL times the larger of the two rows' scales.

    ec[j] - ec[i] is the exact negation of ec[i] - ec[j] and the tolerance
    is symmetric, so each unordered pair's largest and smallest difference
    is computed once and gives both le[i, j] and le[j, i].
    """
    n = len(ec)
    scale = np.maximum(1.0, np.max(np.abs(ec), axis=1))
    le = np.ones((n, n), dtype=bool)
    for i in range(n - 1):
        d = ec[i] - ec[i + 1 :]
        tol = EQUAL_COST_TOL * np.maximum(scale[i], scale[i + 1 :])
        le[i, i + 1 :] = np.max(d, axis=1) <= tol
        le[i + 1 :, i] = np.min(d, axis=1) >= -tol
    return le


def worst_index(le: np.ndarray) -> Optional[int]:
    """First type that every type is no costlier than, or None."""
    hits = np.flatnonzero(le.all(axis=0))
    return int(hits[0]) if hits.size else None


def dominates(
    x: SellerType,
    y: SellerType,
    model: CostModel,
    weather: WeatherModel,
    qs: np.ndarray,
) -> str:
    """Compare expected cost curves on a grid.

    Returns "better" when x's expected cost is everywhere <= y's with a
    strict gap somewhere, "worse" for the reverse, "equal" when the curves
    coincide within tolerance, else "incomparable".
    """
    ec = np.array(
        [model.expected_cost_grid(x, qs, weather), model.expected_cost_grid(y, qs, weather)]
    )
    le = no_costlier(ec)
    return ("incomparable", "better", "worse", "equal")[le[0, 1] + 2 * le[1, 0]]


def find_worst_type(
    space: TypeSpace,
    model: CostModel,
    weather: WeatherModel,
    qs: np.ndarray,
) -> Optional[SellerType]:
    """The type every other type dominates (or equals), if one exists."""
    ec = np.array([model.expected_cost_grid(x, qs, weather) for x in space])
    i = worst_index(no_costlier(ec))
    return None if i is None else space.types[i]
