"""Scenario files: a single YAML document describing weather, cost model,
type set, buyer utility, grid, and run options. Unknown fields are rejected
and every validation error names the offending field."""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .costmodel import CostModel, SellerType, TypeSpace, make_model
from .errors import ConfigurationError
from .mechanism import BuyerUtility, Instance, QuantityGrid, default_grid, DEFAULT_N_CELLS
from .weather import WeatherModel, empirical_model, weibull_model

CORRUPTIONS = ("halve_prices",)

# libyaml's parser where PyYAML was built with it (several times faster than
# the pure-Python one); both build the same objects from a scenario.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Scenario:
    description: str
    weather: WeatherModel
    model: CostModel
    space: TypeSpace
    vprime: BuyerUtility
    grid: QuantityGrid
    alpha: Optional[float] = None
    admissible: Optional[tuple[str, ...]] = None
    exclusion_search: bool = False
    corruption: Optional[str] = None
    # expected costs, cell costs and dominance of the whole type set on grid
    instance: Optional[Instance] = None


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigurationError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _only(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {sorted(unknown)}")


def _load_weather(spec: dict) -> WeatherModel:
    kind = _require(spec, "kind", "weather")
    if kind == "weibull":
        _only(spec, {"kind", "shape", "mean", "n_points"}, "weather")
        return weibull_model(
            float(_require(spec, "shape", "weather")),
            float(_require(spec, "mean", "weather")),
            int(spec.get("n_points", 200)),
        )
    if kind == "empirical":
        _only(spec, {"kind", "samples"}, "weather")
        return empirical_model([float(s) for s in _require(spec, "samples", "weather")])
    raise ConfigurationError(f"weather.kind: unknown kind {kind!r}")


def _load_model(spec: dict) -> CostModel:
    kind = _require(spec, "kind", "cost_model")
    if kind == "plugin":
        _only(spec, {"kind", "import"}, "cost_model")
        target = _require(spec, "import", "cost_model")
        mod_name, _, attr = str(target).partition(":")
        if not attr:
            raise ConfigurationError("cost_model.import: expected 'module:factory'")
        factory = getattr(importlib.import_module(mod_name), attr)
        model = factory()
        if not isinstance(model, CostModel):
            raise ConfigurationError("cost_model.import: factory did not return a CostModel")
        return model
    _only(spec, {"kind"}, "cost_model")
    return make_model(kind)


def _load_types(specs: list, model: CostModel) -> TypeSpace:
    if not isinstance(specs, list) or not specs:
        raise ConfigurationError("types: must be a non-empty list")
    priors_given = ["prior" in s for s in specs]
    if any(priors_given) and not all(priors_given):
        raise ConfigurationError("types: give prior for every type or for none (uniform)")
    types = []
    for i, s in enumerate(specs):
        where = f"types[{i}]"
        _only(s, {"id", "prior", "params"}, where)
        tid = str(_require(s, "id", where))
        params = _require(s, "params", where)
        _only(params, set(model.param_names), f"{where}.params")
        prior = float(s["prior"]) if "prior" in s else 1.0 / len(specs)
        if prior < 0.0:
            raise ConfigurationError(f"{where}.prior: negative prior {prior}")
        types.append(
            SellerType(id=tid, params={k: float(v) for k, v in params.items()}, prior_weight=prior)
        )
    return TypeSpace(types=tuple(types))


def _load_buyer(spec: dict) -> BuyerUtility:
    mu = _require(spec, "marginal_utility", "buyer")
    _only(spec, {"marginal_utility"}, "buyer")
    kind = _require(mu, "kind", "buyer.marginal_utility")
    if kind == "affine":
        _only(mu, {"kind", "intercept", "slope"}, "buyer.marginal_utility")
        return BuyerUtility.affine(
            float(_require(mu, "intercept", "buyer.marginal_utility")),
            float(_require(mu, "slope", "buyer.marginal_utility")),
        )
    if kind == "piecewise":
        _only(mu, {"kind", "breakpoints"}, "buyer.marginal_utility")
        bps = [(float(q), float(v)) for q, v in _require(mu, "breakpoints", "buyer.marginal_utility")]
        return BuyerUtility.piecewise(bps)
    raise ConfigurationError(f"buyer.marginal_utility.kind: unknown kind {kind!r}")


def _load_grid(spec: Optional[dict], vprime: BuyerUtility) -> QuantityGrid:
    if spec is None:
        spec = {}
    _only(spec, {"q_max", "n_cells"}, "grid")
    n_cells = int(spec.get("n_cells", DEFAULT_N_CELLS))
    if "q_max" in spec:
        return QuantityGrid(q_max=float(spec["q_max"]), n_cells=n_cells)
    return default_grid(vprime, n_cells=n_cells)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(), Loader=YAML_LOADER)
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
    grid = _load_grid(raw.get("grid"), vprime)

    options = raw.get("options") or {}
    _only(
        options,
        {"alpha", "admissible", "exclusion_search", "corruption"},
        "options",
    )
    alpha = float(options["alpha"]) if "alpha" in options else None
    if alpha is not None and not (0.0 <= alpha <= 1.0):
        raise ConfigurationError(f"options.alpha: {alpha} outside [0, 1]")
    admissible = tuple(str(i) for i in options["admissible"]) if "admissible" in options else None
    corruption = options.get("corruption")
    if corruption is not None and corruption not in CORRUPTIONS:
        raise ConfigurationError(f"options.corruption: unknown corruption {corruption!r}")

    # invariant checks happen at load so bad scenarios fail before any
    # solve; the expected costs they check seed the instance
    ec = model.check_assumptions(space, weather, grid.points)
    if admissible is not None:
        space.subset(admissible)

    return Scenario(
        description=str(raw.get("description", "")),
        weather=weather,
        model=model,
        space=space,
        vprime=vprime,
        grid=grid,
        alpha=alpha,
        admissible=admissible,
        exclusion_search=bool(options.get("exclusion_search", False)),
        corruption=corruption,
        instance=Instance.build(space, model, weather, grid, vprime, ec),
    )
