"""Optimal per-unit-time pricing for on-demand service workers.

An on-demand worker serves one job at a time, arriving customers see the
posted hourly rate for their class and walk away if the worker is busy or the
rate exceeds their valuation. This package computes the earning-maximizing
rates for that loss system, several extensions (discounted horizons, one
waiting spot, patient background work, ranked competition), and ships a
discrete-event simulator that cross-checks every analytic result.
"""

from .analytics import (
    avg_earning_rate,
    discount_adjusted,
    discounted_value,
    effective_load,
)
from .competition import (
    BestResponseReport,
    RankedEquilibrium,
    ResidualDemandCurve,
    WorkerOutcome,
    best_response_dynamics,
    busy_fraction,
    fleet_rates,
    ranked_price_equilibrium,
)
from .config import load_scenario, parse_scenario
from .errors import (
    ConfigError,
    IrregularDistribution,
    ModelMismatch,
    NonFiniteRate,
    PricingError,
    SingularSystem,
    ZeroDensity,
)
from .model import (
    CustomerClass,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    MixtureDiscount,
    PiecewiseLinearValuation,
    Scenario,
    UniformValuation,
    WorkerSpec,
    apply_commission,
    check_prices,
    regularity_check,
    virtual_value,
)
from .queues import (
    FirstStepSolution,
    HybridSolution,
    first_step_solve,
    hybrid_solve,
    mixture_horizon_optimize,
    mixture_horizon_value,
    queue_optimize,
    queue_rate,
)
from .simulate import (
    Counts,
    DeviationPoint,
    DeviationScanReport,
    SimConfig,
    SimStats,
    deviation_scan,
    simulate,
    simulate_discounted,
    simulate_queue,
)
from .solver import (
    Solution,
    grid_search_optimum,
    price_response,
    rate_map,
    solve_discounted,
    solve_fixed_point,
)

__version__ = "0.1.0"

__all__ = [
    "avg_earning_rate",
    "apply_commission",
    "best_response_dynamics",
    "BestResponseReport",
    "busy_fraction",
    "check_prices",
    "ConfigError",
    "Counts",
    "CustomerClass",
    "DeterministicDuration",
    "deviation_scan",
    "DeviationPoint",
    "DeviationScanReport",
    "discount_adjusted",
    "discounted_value",
    "effective_load",
    "EmpiricalDuration",
    "ExponentialDiscount",
    "ExponentialDuration",
    "ExponentialValuation",
    "first_step_solve",
    "FirstStepSolution",
    "fleet_rates",
    "grid_search_optimum",
    "hybrid_solve",
    "HybridSolution",
    "IrregularDistribution",
    "load_scenario",
    "MixtureDiscount",
    "mixture_horizon_optimize",
    "mixture_horizon_value",
    "ModelMismatch",
    "NonFiniteRate",
    "parse_scenario",
    "PiecewiseLinearValuation",
    "price_response",
    "PricingError",
    "queue_optimize",
    "queue_rate",
    "ranked_price_equilibrium",
    "RankedEquilibrium",
    "rate_map",
    "regularity_check",
    "ResidualDemandCurve",
    "Scenario",
    "SimConfig",
    "simulate",
    "simulate_discounted",
    "simulate_queue",
    "SimStats",
    "SingularSystem",
    "Solution",
    "solve_discounted",
    "solve_fixed_point",
    "UniformValuation",
    "virtual_value",
    "WorkerOutcome",
    "WorkerSpec",
    "ZeroDensity",
]
