"""Earning-rate functionals for a single worker serving Poisson demand with no queue.

The long-run average rate at price vector p is

    sum_k load_k * (p_k - c) * tail_k(p_k)  /  (1 + sum_k load_k * tail_k(p_k))

where load_k is the class's offered load. Discounted variants reuse the same
functional with discount-adjusted loads.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import replace

from .errors import NonFiniteRate
from .model import CustomerClass, Scenario, check_prices


def avg_earning_rate(scenario: Scenario, prices) -> float:
    """Long-run average net earning rate of the sole worker at the given prices."""
    scenario.require("avg_earning_rate", "loss")
    return earning_rate(load_tails(scenario.classes), scenario.sole_worker.cost,
                        check_prices(scenario, prices))


def load_tails(classes: Sequence[CustomerClass]) -> list[tuple[float, Callable]]:
    """Each class's offered load and tail function, bound once per solve."""
    return [(cls.load, cls.valuation.tail) for cls in classes]


def earning_rate(terms: Sequence[tuple[float, Callable]], cost: float, prices) -> float:
    """The rate functional itself, on the classes' `load_tails`, with no check
    of its inputs: one price per class, each finite and nonnegative. Public
    callers go through `avg_earning_rate`; the solver's iterations call this
    on the prices they build. Raises NonFiniteRate when the rate overflows."""
    num = 0.0
    den = 1.0
    for (load, tail), p in zip(terms, prices):
        weight = load * tail(p)
        num += weight * (p - cost)
        den += weight
    rate = num / den
    if not math.isfinite(rate):
        raise NonFiniteRate(f"earning rate is not finite at prices {tuple(map(float, prices))}")
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

