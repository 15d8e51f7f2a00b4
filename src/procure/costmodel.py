"""Seller types, generation-cost models, and the dominance partial order.

Cost conventions: money is in k$, energy in MWh, so marginal quantities are
k$/MWh (numerically equal to $/kWh). Expected marginal cost is the right
derivative of the weather-expected cost, so a marginal unit at quantity q
counts as wind-covered only while available wind generation strictly
exceeds q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ParameterDomainError
from .weather import WeatherModel

EQUAL_COST_TOL = 1e-12

# Bytes of one states x points block of the expected-cost kernel: a block
# this size stays in a core's L2 cache while the integrand makes its passes
# over it. Its width in points follows the number of states (ec_block_width).
EC_BLOCK_BYTES = 1 << 18

# Rows of a block that the expected-cost kernel keeps together when it
# leaves out zero rows: gemv sums the rows of a tile in groups of 4 or 8.
ROW_GROUP = 16


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
        kept = tuple(t for t in self.types if t.id in set(ids))
        if not kept:
            raise ConfigurationError("admissible subset is empty")
        if len(kept) != len(set(ids)):
            missing = set(ids) - {t.id for t in kept}
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
        """Hard checks of finite, convex expected costs and a weather-free
        startup cost on a grid.

        Returns the expected-cost rows it checked, one per type on qs, so
        that callers need not compute them again.
        """
        w_lo, w_hi = weather.speeds[0], weather.speeds[-1]
        rows = []
        for x in space:
            self.validate_type(x)
            c0 = x.param("c0")
            for w in (w_lo, w_hi):
                v = self.realized_cost(x, 0.0, w)
                if abs(v - c0) > 1e-9 * max(1.0, abs(c0)):
                    raise ConfigurationError(
                        f"type {x.id!r}: startup cost {v} at w={w} differs from c0={c0}"
                    )
            ec = self.expected_cost_grid(x, qs, weather)
            bad = np.flatnonzero(~np.isfinite(ec))
            if bad.size:
                raise ConfigurationError(
                    f"type {x.id!r}: expected cost {ec[bad[0]]} at q={qs[bad[0]]} is not finite"
                )
            d = np.diff(ec)
            if np.any(d < -1e-9 * max(1.0, float(np.max(np.abs(ec))))):
                raise ConfigurationError(f"type {x.id!r}: expected cost decreasing in q")
            if np.any(np.diff(d) < -1e-9 * max(1.0, float(np.max(np.abs(d))))):
                raise ConfigurationError(f"type {x.id!r}: expected cost not convex in q")
            rows.append(ec)
        return np.array(rows)


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
    columns: np.ndarray,
    short: Callable[[np.ndarray, np.ndarray], object],
    middle: Callable[[np.ndarray, np.ndarray, np.ndarray], object],
    covered: Optional[Callable[[np.ndarray, np.ndarray], object]],
) -> np.ndarray:
    """c0 + weights @ integrand(qs): the weather-expected cost at each grid
    point, for state weights over the states x points integrand.

    The grid goes in blocks of ec_block_width points, and each block's
    integrand fills one C-contiguous states x n tile, so every elementwise
    pass runs over contiguous memory and one block exists at a time.

    columns holds per-state values, one row each, tiled across a block
    once per call; columns[0] is generation g. g need not be sorted (wind
    generation drops to 0 above cut-out), so the rows of a block split by
    the running max of g from the first state and the running min of g
    from the last. Rows [0, a), whose running max is at most the block's
    smallest point, are short of wind at every point; rows [c, states),
    whose running min is at least the block's largest point, are covered
    at every point; rows [a, c) take the whole integrand. a and c for all
    blocks come from two searchsorted calls before the loop.

    The three pieces fill their rows of the tile in place. short(out, t)
    and middle(out, t, tmp) find the block's points in every row of out,
    with t the tiles of columns on those rows and tmp scratch of out's
    shape; covered(out, q) gets the points as the 1 x n row q. short and
    covered must give middle's bits on their rows, which IEEE identities
    allow: max(x, 0) is x when x >= +0, q - q is +0, x + (+0) is x,
    min(q, g) is the smaller operand, and + and * commute.

    covered=None says that the covered rows are exactly +0, as the simple
    model's shortfall max(q - g, 0) is there. Those rows are then not
    built: rows [c, r) are filled with +0, with r = c rounded up to a
    multiple of ROW_GROUP (at most the number of states), and gemv runs
    over the first r rows only. Adding p * (+0) changes no sum, but gemv
    sums the rows in groups, and cutting a group short at c would change
    the order in which the non-zero rows are added; a whole number of
    groups of 16 leaves each row in its group. A one-point block, which
    numpy takes through dot, keeps all its rows.
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
    g = columns[0]
    rise = np.maximum.accumulate(g)
    floor = np.minimum.accumulate(g[::-1])[::-1]
    short_end = np.searchsorted(rise, np.minimum.reduceat(qs, starts), side="right")
    covered_start = np.maximum(
        np.searchsorted(floor, np.maximum.reduceat(qs, starts), side="left"), short_end
    )

    m = len(columns)
    size = n_states * min(width + 3, n)
    q_buf, tmp_buf = _aligned_empty(size), _aligned_empty(size)
    t_buf = _aligned_empty(m * size)
    k = 0
    for lo, hi, a, c in zip(starts.tolist(), ends.tolist(), short_end.tolist(),
                            covered_start.tolist()):
        if hi - lo != k:  # the first block, and a wider last one
            k = hi - lo
            out, tmp = (buf[: n_states * k].reshape(n_states, k) for buf in (q_buf, tmp_buf))
            tiles = t_buf[: m * n_states * k].reshape(m, n_states, k)
            tiles[...] = columns[:, :, None]
        q = qs[None, lo:hi]
        out[:c] = q
        if a:
            short(out[:a], tiles[:, :a])
        if c > a:
            middle(out[a:c], tiles[:, a:c], tmp[a:c])
        r = n_states
        if covered is None:
            if k > 1:  # numpy takes one point through dot, which groups rows otherwise
                r = min(n_states, -(-c // ROW_GROUP) * ROW_GROUP)
            out[c:r] = 0.0
        elif c < n_states:
            covered(out[c:], q)
        np.matmul(weights[:r], out[:r], out=ec[lo:hi])
    ec += c0
    return ec


class SimpleCostModel(CostModel):
    """Free wind generation gamma*w^3 plus a conventional plant with
    constant marginal cost: C(q,w,x) = c0 + theta_c * max(q - gamma*w^3, 0)."""

    kind = "simple"
    param_names = ("c0", "theta_c", "gamma")

    def validate_type(self, x: SellerType) -> None:
        super().validate_type(x)
        if x.param("gamma") <= 0.0:
            raise ParameterDomainError(f"type {x.id!r}: gamma must be positive")

    def generation(self, x: SellerType, w: float) -> float:
        return x.param("gamma") * w**3

    def realized_cost(self, x: SellerType, q: float, w: float) -> float:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        return x.param("c0") + x.param("theta_c") * max(q - self.generation(x, w), 0.0)

    def generation_array(self, x: SellerType, weather: WeatherModel) -> np.ndarray:
        return x.param("gamma") * weather.cubes

    def realized_cost_array(
        self, x: SellerType, q: float, weather: WeatherModel, generation: np.ndarray
    ) -> np.ndarray:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        short = np.maximum(q - generation, 0.0)
        return x.param("c0") + x.param("theta_c") * short

    def expected_cost_grid(
        self, x: SellerType, qs: np.ndarray, weather: WeatherModel
    ) -> np.ndarray:
        # numpy's power, not libm's (weather.cubes): the two can differ in the last
        # bit, and the expected costs have always been computed with this one
        g = x.param("gamma") * np.array(weather.speeds) ** 3

        def short_rows(q: np.ndarray, t: np.ndarray) -> None:
            q -= t[0]  # max(q - g, 0) is q - g for g <= q

        def shortfall(q: np.ndarray, t: np.ndarray, tmp: np.ndarray) -> None:
            q -= t[0]
            np.maximum(q, 0.0, out=q)

        # max(q - g, 0) is +0 where g >= q: the covered rows are left out
        weights = x.param("theta_c") * np.array(weather.probs)
        return _expected_cost_blocked(
            x.param("c0"), weights, qs, g[None, :], short_rows, shortfall, None
        )

    def expected_marginal_cost(
        self, x: SellerType, q: float, weather: WeatherModel
    ) -> float:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        theta_c = x.param("theta_c")
        gamma = x.param("gamma")
        return theta_c * math.fsum(p for w, p in weather.states if gamma * w**3 <= q)


class WindConventionalCostModel(CostModel):
    """Wind turbine with the cut-in/rated/cut-out power curve plus a
    conventional plant: C(q,w,x) = c0 + theta_w*min(q,g(w)) + theta_c*max(q-g(w),0)."""

    kind = "wind_conventional"
    param_names = ("c0", "theta_w", "theta_c", "v_ci", "v_r", "v_co", "gamma")

    def validate_type(self, x: SellerType) -> None:
        super().validate_type(x)
        if not (x.param("v_ci") < x.param("v_r") < x.param("v_co")):
            raise ParameterDomainError(f"type {x.id!r}: need v_ci < v_r < v_co")
        if x.param("gamma") <= 0.0:
            raise ParameterDomainError(f"type {x.id!r}: gamma must be positive")

    def generation(self, x: SellerType, w: float) -> float:
        return power_curve(x, w)

    def realized_cost(self, x: SellerType, q: float, w: float) -> float:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        g = power_curve(x, w)
        return (
            x.param("c0")
            + x.param("theta_w") * min(q, g)
            + x.param("theta_c") * max(q - g, 0.0)
        )

    def generation_array(self, x: SellerType, weather: WeatherModel) -> np.ndarray:
        """power_curve(x, w) at each state's speed."""
        w = np.asarray(weather.speeds, dtype=float)
        if np.any(w < 0.0):
            raise ParameterDomainError(f"negative wind speed {float(w.min())}")
        v_ci, v_r, v_co = x.param("v_ci"), x.param("v_r"), x.param("v_co")
        gamma = x.param("gamma")
        g = np.where(w <= v_r, gamma * weather.cubes, gamma * v_r**3)
        g[(w < v_ci) | (w > v_co)] = 0.0
        return g

    def realized_cost_array(
        self, x: SellerType, q: float, weather: WeatherModel, generation: np.ndarray
    ) -> np.ndarray:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        return (
            x.param("c0")
            + x.param("theta_w") * np.minimum(q, generation)
            + x.param("theta_c") * np.maximum(q - generation, 0.0)
        )

    def expected_cost_grid(
        self, x: SellerType, qs: np.ndarray, weather: WeatherModel
    ) -> np.ndarray:
        g = self.generation_array(x, weather)
        theta_w, theta_c = x.param("theta_w"), x.param("theta_c")

        def short_rows(q: np.ndarray, t: np.ndarray) -> None:
            # min(q, g) is g: theta_c*(q - g) + theta_w*g
            q -= t[0]
            q *= theta_c
            q += t[1]

        def cost_above_c0(q: np.ndarray, t: np.ndarray, tmp: np.ndarray) -> None:
            wind = np.minimum(q, t[0], out=tmp)
            # q - min(q, g) is max(q - g, 0) bit for bit
            short = np.subtract(q, wind, out=q)
            wind *= theta_w
            short *= theta_c
            np.add(wind, short, out=q)

        def covered_rows(out: np.ndarray, q: np.ndarray) -> None:
            # min(q, g) is q and the shortfall q - q is +0: theta_w*q
            out[...] = q
            out *= theta_w

        probs = np.array(weather.probs)
        columns = np.array([g, theta_w * g])
        return _expected_cost_blocked(
            x.param("c0"), probs, qs, columns, short_rows, cost_above_c0, covered_rows
        )

    def expected_marginal_cost(
        self, x: SellerType, q: float, weather: WeatherModel
    ) -> float:
        if q < 0.0:
            raise ParameterDomainError(f"negative quantity {q}")
        g = self.generation_array(x, weather)
        probs = np.array(weather.probs)
        p_short = float(probs[g <= q].sum())
        return x.param("theta_w") * (1.0 - p_short) + x.param("theta_c") * p_short


BUILTIN_MODELS = {
    "simple": SimpleCostModel,
    "wind_conventional": WindConventionalCostModel,
}


def make_model(kind: str) -> CostModel:
    try:
        return BUILTIN_MODELS[kind]()
    except KeyError:
        raise ConfigurationError(f"unknown cost model kind {kind!r}") from None


def dominance_matrix(ec: np.ndarray) -> np.ndarray:
    """rel[i, j]: how type i's expected-cost row ec[i] compares with ec[j]
    ("better", "worse", "equal" or "incomparable", as in dominates)."""
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


def worst_index(rel: np.ndarray) -> Optional[int]:
    """First type that every other type dominates or equals, or None."""
    covered = (rel == "better") | (rel == "equal")
    hits = np.flatnonzero(covered.all(axis=0))
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
    return str(dominance_matrix(ec)[0, 1])


def find_worst_type(
    space: TypeSpace,
    model: CostModel,
    weather: WeatherModel,
    qs: np.ndarray,
) -> Optional[SellerType]:
    """The type every other type dominates (or equals), if one exists."""
    ec = np.array([model.expected_cost_grid(x, qs, weather) for x in space])
    i = worst_index(dominance_matrix(ec))
    return None if i is None else space.types[i]
