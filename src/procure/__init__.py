"""Optimal nonlinear-pricing contracts for energy procurement from a seller
with private renewable and conventional generation costs."""

__version__ = "0.1.0"

from .costmodel import (
    CostModel,
    SellerType,
    SimpleCostModel,
    TypeSpace,
    WindConventionalCostModel,
    dominates,
    find_worst_type,
    power_curve,
)
from .errors import (
    ConfigurationError,
    ParameterDomainError,
    ProcureError,
)
from .mechanism import (
    BuyerUtility,
    ContractOutcome,
    Instance,
    PriceSchedule,
    QuantityGrid,
    best_response,
    build_price_schedule,
    anchor_payment,
    exclusion_search,
    solve,
)
from .settlement import settlement_table
from .weather import WeatherModel, empirical_model, weibull_model

__all__ = [
    "BuyerUtility",
    "ConfigurationError",
    "ContractOutcome",
    "CostModel",
    "Instance",
    "ParameterDomainError",
    "PriceSchedule",
    "ProcureError",
    "QuantityGrid",
    "SellerType",
    "SimpleCostModel",
    "TypeSpace",
    "WeatherModel",
    "WindConventionalCostModel",
    "anchor_payment",
    "best_response",
    "build_price_schedule",
    "dominates",
    "empirical_model",
    "exclusion_search",
    "find_worst_type",
    "power_curve",
    "settlement_table",
    "solve",
    "weibull_model",
]
