"""Scenario files: a single YAML document describing weather, cost model,
type set, buyer utility, grid, and run options. Unknown fields are rejected
and every validation error names the offending field."""
from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from .costmodel import CostModel, SellerType, TypeSpace, make_model
from .errors import ConfigurationError
from .mechanism import (
    DEFAULT_N_CELLS,
    BuyerUtility,
    Instance,
    QuantityGrid,
    check_exclusion_size,
    default_grid,
)
from .weather import DEFAULT_N_POINTS, WeatherModel, empirical_model, weibull_model

# name -> the open cells' prices as the corruption leaves them
CORRUPTIONS = {
    "halve_prices": lambda p: np.concatenate([p[: len(p) // 2], p[len(p) // 2 :] * 0.5]),
    "early_close": lambda p: p[:-1],  # with no open cell, p[:-1] is p
}

# libyaml's parser where PyYAML was built with it (several times faster than
# the pure-Python one); both build the same objects from a scenario.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario: its Instance, the SHA-256 of the file's bytes,
    which the load reads once and parses, and the run options. The model
    inputs (types, cost model, weather, grid and the buyer's V') are the
    Instance's own; the properties read them there. The file's
    description is accepted and not kept: nothing reads it."""

    # expected costs, cell costs and dominance of the whole type set on grid
    instance: Instance
    sha256: str
    alpha: Optional[float] = None
    admissible: Optional[tuple[str, ...]] = None
    exclusion_search: bool = False
    corruption: Optional[str] = None

    @property
    def weather(self) -> WeatherModel:
        return self.instance.weather

    @property
    def model(self) -> CostModel:
        return self.instance.model

    @property
    def space(self) -> TypeSpace:
        return self.instance.space

    @property
    def vprime(self) -> BuyerUtility:
        return self.instance.vprime

    @property
    def grid(self) -> QuantityGrid:
        return self.instance.grid


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigurationError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: expected a mapping, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where}: expected a list, got {value!r}")
    return value


def _as(kind: type, value, where: str):
    """kind(value), or a ConfigurationError naming the field: a YAML
    boolean is not a number, though float(True) is 1.0."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{where}: expected {kind.__name__}, got {value!r}")


def _count(value, where: str) -> int:
    """value as a whole number, or a ConfigurationError naming the field:
    int() alone would truncate 6.9 to 6 and read true as 1."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigurationError(f"{where}: expected a whole number, got {value!r}")


def _only(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {sorted(unknown)}")


def _load_weather(spec) -> WeatherModel:
    kind = _require(_mapping(spec, "weather"), "kind", "weather")
    if kind == "weibull":
        _only(spec, {"kind", "shape", "mean", "n_points"}, "weather")
        shape = _as(float, _require(spec, "shape", "weather"), "weather.shape")
        mean = _as(float, _require(spec, "mean", "weather"), "weather.mean")
        n = _count(spec.get("n_points", DEFAULT_N_POINTS), "weather.n_points")
        try:
            return weibull_model(shape, mean, n)
        except MemoryError:
            raise ConfigurationError(f"weather.n_points: {n} states do not fit in memory") from None
    if kind == "empirical":
        _only(spec, {"kind", "samples"}, "weather")
        samples = _list(_require(spec, "samples", "weather"), "weather.samples")
        return empirical_model([_as(float, s, "weather.samples") for s in samples])
    raise ConfigurationError(f"weather.kind: unknown kind {kind!r}")


def _load_model(spec) -> CostModel:
    kind = _require(_mapping(spec, "cost_model"), "kind", "cost_model")
    if not isinstance(kind, str):
        raise ConfigurationError(f"cost_model.kind: expected a string, got {kind!r}")
    if kind == "plugin":
        _only(spec, {"kind", "import"}, "cost_model")
        target = _require(spec, "import", "cost_model")
        mod_name, _, attr = str(target).partition(":")
        if not attr:
            raise ConfigurationError("cost_model.import: expected 'module:factory'")
        try:
            factory = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigurationError(
                f"cost_model.import: cannot import {target!r}: {exc}"
            ) from exc
        if not callable(factory):
            raise ConfigurationError(f"cost_model.import: {target!r} is not callable")
        try:
            model = factory()
        except Exception as exc:
            raise ConfigurationError(
                f"cost_model.import: {target!r} raised {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(model, CostModel):
            raise ConfigurationError("cost_model.import: factory did not return a CostModel")
        return model
    _only(spec, {"kind"}, "cost_model")
    return make_model(kind)


def _load_types(specs, model: CostModel) -> TypeSpace:
    if not isinstance(specs, list) or not specs:
        raise ConfigurationError("types: must be a non-empty list")
    specs = [_mapping(s, f"types[{i}]") for i, s in enumerate(specs)]
    priors_given = ["prior" in s for s in specs]
    if any(priors_given) and not all(priors_given):
        raise ConfigurationError("types: give prior for every type or for none (uniform)")
    types = []
    for i, s in enumerate(specs):
        where = f"types[{i}]"
        _only(s, {"id", "prior", "params"}, where)
        tid = _require(s, "id", where)
        # str() would write null, true or a list as Python spells them
        if not isinstance(tid, (str, int)) or isinstance(tid, bool):
            raise ConfigurationError(
                f"{where}.id: expected a string or a whole number, got {tid!r}"
            )
        tid = str(tid)
        if "\0" in tid:
            # the CSV writers pad fields with NUL bytes
            raise ConfigurationError(f"{where}.id: {tid!r} holds a NUL character")
        params = _mapping(_require(s, "params", where), f"{where}.params")
        _only(params, set(model.param_names), f"{where}.params")
        prior = _as(float, s["prior"], f"{where}.prior") if "prior" in s else 1.0 / len(specs)
        if prior < 0.0:
            raise ConfigurationError(f"{where}.prior: negative prior {prior}")
        values = {k: _as(float, v, f"{where}.params.{k}") for k, v in params.items()}
        types.append(SellerType(id=tid, params=values, prior_weight=prior))
    return TypeSpace(types=tuple(types))


def _load_buyer(spec) -> BuyerUtility:
    where = "buyer.marginal_utility"
    mu = _mapping(_require(_mapping(spec, "buyer"), "marginal_utility", "buyer"), where)
    _only(spec, {"marginal_utility"}, "buyer")
    kind = _require(mu, "kind", where)
    if kind == "affine":
        _only(mu, {"kind", "intercept", "slope"}, where)
        return BuyerUtility.affine(
            _as(float, _require(mu, "intercept", where), f"{where}.intercept"),
            _as(float, _require(mu, "slope", where), f"{where}.slope"),
        )
    if kind == "piecewise":
        _only(mu, {"kind", "breakpoints"}, where)
        bps = []
        for i, bp in enumerate(_list(_require(mu, "breakpoints", where), f"{where}.breakpoints")):
            at = f"{where}.breakpoints[{i}]"
            if not (isinstance(bp, list) and len(bp) == 2):
                raise ConfigurationError(f"{at}: expected [q, v], got {bp!r}")
            bps.append((_as(float, bp[0], at), _as(float, bp[1], at)))
        return BuyerUtility.piecewise(bps)
    raise ConfigurationError(f"buyer.marginal_utility.kind: unknown kind {kind!r}")


def _load_grid(spec, vprime: BuyerUtility, n_cells: Optional[int]) -> QuantityGrid:
    spec = _mapping({} if spec is None else spec, "grid")
    _only(spec, {"q_max", "n_cells"}, "grid")
    grid_cells = _count(spec.get("n_cells", DEFAULT_N_CELLS), "grid.n_cells")
    if "q_max" in spec:
        grid = QuantityGrid(q_max=_as(float, spec["q_max"], "grid.q_max"), n_cells=grid_cells)
    else:
        grid = default_grid(vprime, n_cells=grid_cells)
    if n_cells is None:
        return grid
    return QuantityGrid(q_max=grid.q_max, n_cells=n_cells)


def load_scenario(
    path: str | Path,
    n_cells: Optional[int] = None,
    admissible: Optional[Sequence[str]] = None,
    exclusion_search: bool = False,
) -> Scenario:
    """The scenario at path, with its instance built on its grid, or on a
    grid of n_cells cells over the same range when n_cells is given.
    admissible, when given, replaces options.admissible, and
    exclusion_search=True turns the search on whatever options say. Every
    input, each type's parameters too, is checked before the first
    expected-cost row is computed, so a bad one costs no expected cost."""
    path = Path(path)
    data = path.read_bytes()
    try:
        raw = yaml.load(data.decode("utf-8"), Loader=YAML_LOADER)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: scenario must be a mapping")
    _only(
        raw,
        {"description", "weather", "cost_model", "types", "buyer", "grid", "options"},
        "scenario",
    )
    weather = _load_weather(_require(raw, "weather", "scenario"))
    model = _load_model(_require(raw, "cost_model", "scenario"))
    space = _load_types(_require(raw, "types", "scenario"), model)
    vprime = _load_buyer(_require(raw, "buyer", "scenario"))
    grid = _load_grid(raw.get("grid"), vprime, n_cells)

    options = _mapping(raw.get("options") or {}, "options")
    _only(
        options,
        {"alpha", "admissible", "exclusion_search", "corruption"},
        "options",
    )
    alpha = _as(float, options["alpha"], "options.alpha") if "alpha" in options else None
    if alpha is not None and not (0.0 <= alpha <= 1.0):
        raise ConfigurationError(f"options.alpha: {alpha} outside [0, 1]")
    # bool() would read any non-empty string, "false" too, as true
    exclusion = options.get("exclusion_search", False)
    if not isinstance(exclusion, bool):
        raise ConfigurationError(
            f"options.exclusion_search: expected true or false, got {exclusion!r}"
        )
    exclusion = exclusion or exclusion_search
    if "admissible" in options:
        ids = _list(options["admissible"], "options.admissible")
        if admissible is None:
            admissible = [str(i) for i in ids]
    if admissible is not None:
        admissible = tuple(admissible)
        space.subset(admissible)
        if exclusion:
            raise ConfigurationError(
                "exclusion search conflicts with the admissible set "
                f"{','.join(admissible)} (options.admissible or --admissible): "
                "the search chooses the admissible set itself; drop one of the two"
            )
    if exclusion:
        check_exclusion_size(len(space))
    corruption = options.get("corruption")
    if corruption is not None and corruption not in CORRUPTIONS:
        raise ConfigurationError(f"options.corruption: unknown corruption {corruption!r}")

    # the build checks the cost model's invariants, so bad scenarios fail
    # before any solve
    try:
        instance = Instance.build(space, model, weather, grid, vprime)
    except MemoryError:
        where = "grid.n_cells" if n_cells is None else "--grid-cells"
        raise ConfigurationError(f"{where}: {grid.n_cells} cells do not fit in memory") from None
    return Scenario(
        instance=instance,
        sha256=hashlib.sha256(data).hexdigest(),
        alpha=alpha,
        admissible=admissible,
        exclusion_search=exclusion,
        corruption=corruption,
    )
