"""Earning-rate functionals for a single worker serving Poisson demand with no queue.

The long-run average rate at price vector p is

    sum_k load_k * (p_k - c) * tail_k(p_k)  /  (1 + sum_k load_k * tail_k(p_k))

where load_k is the class's offered load. Discounted variants reuse the same
functional with discount-adjusted loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteRate
from .model import CustomerClass, Scenario, check_prices


def avg_earning_rate(scenario: Scenario, prices) -> float:
    """Long-run average net earning rate of the sole worker at the given prices."""
    scenario.require("avg_earning_rate", "loss")
    prices = check_prices(scenario, prices)
    c = scenario.sole_worker.cost
    num = 0.0
    den = 1.0
    for cls, p in zip(scenario.classes, prices):
        weight = cls.load * cls.valuation.tail(p)
        num += weight * (p - c)
        den += weight
    rate = num / den
    if not math.isfinite(rate):
        raise NonFiniteRate(f"earning rate is not finite at prices {prices}")
    return rate


def effective_load(cls: CustomerClass, gamma: float) -> float:
    """Discount-adjusted offered load: arrival rate times E[min(duration, horizon)]
    for an exponential(gamma) evaluation horizon."""
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError("discount rate must be positive")
    return cls.duration.censored_mean(gamma, cls.arrival_rate)


def discount_adjusted(scenario: Scenario, gamma: float) -> Scenario:
    """Undiscounted copy of the scenario whose offered loads equal the
    discount-adjusted loads at rate gamma."""
    scenario.require("discount_adjusted", "loss", "discounted", "mixture")
    classes = []
    for cls in scenario.classes:
        target = effective_load(cls, gamma)
        classes.append(replace(cls, arrival_rate=target / cls.duration.mean))
    return Scenario(classes=tuple(classes), workers=scenario.workers)


def discounted_value(scenario: Scenario, prices) -> float:
    """Expected discounted net earnings from an idle start at the given prices."""
    scenario.require("discounted_value", "discounted")
    gamma = scenario.discount.rate
    return avg_earning_rate(discount_adjusted(scenario, gamma), prices) / gamma


@dataclass(frozen=True)
class RatioEstimate:
    """Monte Carlo ratio estimate with a delta-method standard error."""

    ratio: float
    se: float
    draws: int


def deadline_censor_ratio(duration, rate: float, draws: int = 1_000_000,
                          seed: int = 0) -> RatioEstimate:
    """Estimate P(deadline <= duration) / E[min(duration, deadline)] by simulation,
    where the deadline is exponential with the given rate.

    For any positive duration law this ratio equals the deadline rate; the
    estimator exists to let tests check that identity on samples.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(duration.sample(rng, draws), dtype=float)
    y = rng.exponential(1.0 / rate, draws)
    hit = (y <= x).astype(float)
    both = np.minimum(x, y)
    a, b = float(hit.mean()), float(both.mean())
    var_a = float(hit.var(ddof=1))
    var_b = float(both.var(ddof=1))
    cov = float(np.cov(hit, both, ddof=1)[0, 1])
    ratio = a / b
    var_ratio = (var_a / b**2 + a**2 * var_b / b**4 - 2.0 * a * cov / b**3) / draws
    return RatioEstimate(ratio=ratio, se=math.sqrt(max(var_ratio, 0.0)), draws=draws)
