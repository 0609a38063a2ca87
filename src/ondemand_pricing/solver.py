"""Optimal pricing for the single-worker loss system.

The optimal earning rate is the unique fixed point of the map that sends a
candidate rate R to the best achievable rate when each busy hour is shadow
priced at R. Per class, the best price at reserve R solves
p = cost + R + tail(p)/density(p); iterating the map converges monotonically
from below and the iteration count stays in single digits for regular laws.
`reserve_iteration` is that iteration, the paper's simple and practical
iterative procedure; a lower-ranked worker in `competition` runs the same loop
against the demand left upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial, reduce
from operator import add

import numpy as np

from .analytics import discount_adjusted, earning_rate, load_tails
from .errors import ConfigError, IrregularDistribution
from .model import (
    CustomerClass,
    PriceVector,
    Scenario,
    regularity_check,
)

# The fixed point is reached when one map step moves the rate by at most
# _TOL; the iteration gives up after _MAX_ITER steps.
_TOL = 1e-10
_MAX_ITER = 100_000


def price_response(cls: CustomerClass, reserve: float, cost: float) -> float:
    """Best price for one class when a busy hour is worth cost + reserve.

    Returns the upper support bound when even the highest valuation cannot
    cover the shadow price; otherwise the unique root of
    p - tail(p)/density(p) = cost + reserve, clamped into the support, in the
    law's closed form. The law refuses itself when it is not strictly regular
    (IrregularDistribution), so no check runs here.
    """
    return cls.valuation.best_price(cost + reserve)


def rate_map(scenario: Scenario, reserve: float) -> tuple[float, PriceVector]:
    """Best achievable earning rate when busy time is shadow priced at `reserve`,
    together with the prices attaining it. A reserve of +-inf gives the
    limiting prices; a NaN reserve is refused."""
    scenario.require("rate_map", "loss")
    if math.isnan(reserve):
        raise ConfigError("reserve must be a number, got nan")
    classes = scenario.classes
    return _rate_map(classes, load_tails(classes), scenario.workers[0].cost, reserve)


def _rate_map(classes, terms, cost: float, reserve: float) -> tuple[float, PriceVector]:
    """rate_map on checked inputs and the classes' `load_tails`: the step the
    fixed point iterates. It calls the module's `price_response`, not
    `best_price`, so that perfbench's tracer, bound in its place, counts it."""
    prices = tuple([price_response(cls, reserve, cost) for cls in classes])
    return earning_rate(terms, cost, prices), prices


def reserve_iteration(step, reserve: float, tol: float, max_iter: int):
    """The paper's iterative procedure: R <- step(R)'s achieved rate, from
    `reserve`, until a step moves the rate by at most `tol` or `max_iter`
    steps have run, `max_iter` >= 1. `step(R)` returns (achieved rate, prices)
    at reserve R.

    Returns the last achieved rate, that step's prices, the (reserve,
    achieved) trace and whether the last step converged.
    """
    trace = []
    for _ in range(max_iter):
        achieved, prices = step(reserve)
        trace.append((reserve, achieved))
        converged = abs(achieved - reserve) <= tol
        reserve = achieved
        if converged:
            break
    return reserve, prices, tuple(trace), converged


@dataclass(frozen=True)
class Solution:
    """Solver output: optimal prices, the achieved rate, and the iteration trace."""

    prices: PriceVector
    rate: float
    iterations: int
    trace: tuple[tuple[float, float], ...]
    converged: bool
    value: float | None = None


def solve_fixed_point(scenario: Scenario, r0: float = 0.0) -> Solution:
    """Iterate the rate map to its fixed point, the optimal earning rate.

    The scenario's kind, each class's regularity and `r0` are checked once
    here, and the classes' loads and tails bound once; the iteration then runs
    unchecked on the reserves it builds.

    The trace records (reserve, achieved rate) per iteration; after the first
    step the reserve sequence is nondecreasing and bounded by the optimum.
    """
    scenario.require("solve_fixed_point", "loss")
    for i, cls in enumerate(scenario.classes):
        if regularity_check(cls.valuation) != "strictly_regular":
            raise IrregularDistribution(
                f"classes[{i}] valuation law is not strictly regular"
            )
    if not 0.0 <= r0 < math.inf:  # NaN fails every comparison
        raise ConfigError(f"r0 must be finite and nonnegative, got {r0!r}")
    classes, cost = scenario.classes, scenario.workers[0].cost
    step = partial(_rate_map, classes, load_tails(classes), cost)
    reserve, _, trace, converged = reserve_iteration(step, r0, _TOL, _MAX_ITER)
    rate, prices = step(reserve)
    return Solution(
        prices=prices,
        rate=rate,
        iterations=len(trace),
        trace=trace,
        converged=converged,
    )


def solve_discounted(scenario: Scenario) -> Solution:
    """Optimal prices under exponential discounting.

    Solves the fixed point of the discount-adjusted scenario; `value` carries
    the expected discounted earnings from an idle start, rate / discount rate.
    """
    scenario.require("solve_discounted", "discounted")
    gamma = scenario.discount.rate
    sol = solve_fixed_point(discount_adjusted(scenario, gamma))
    return replace(sol, value=sol.rate / gamma)


# --- exact optimum over a price grid, an independent check on the solver ---


def grid_search_optimum(scenario: Scenario, step: float = 1e-3) -> tuple[PriceVector, float]:
    """Exact best price vector on a grid of the given step on [0, upper bound] per class.

    The rate is a ratio N/D of per-class sums, so for a fixed candidate R the
    objective N - R*D separates by class. Dinkelbach's iteration alternates a
    per-class argmax of gains - R*weights with R = N/D, rising strictly until
    it reaches the grid optimum; it holds for any number of classes.
    """
    scenario.require("grid_search_optimum", "loss")
    if not 0.0 < step < math.inf:  # NaN fails every comparison
        raise ConfigError(f"grid step must be positive and finite, got {step!r}")
    cost = scenario.workers[0].cost
    axes, gains, weights = [], [], []
    for cls in scenario.classes:
        axis = np.arange(0.0, cls.valuation.upper + step / 2.0, step)
        tails = cls.valuation.tails(axis)
        axes.append(axis)
        gains.append(cls.load * (axis - cost) * tails)
        weights.append(cls.load * tails)

    picks, rate, reserve = None, -math.inf, 0.0
    while True:
        candidate = [int(np.argmax(g - reserve * w)) for g, w in zip(gains, weights)]
        # left to right, N = g_1 + ... + g_K and D = 1 + w_1 + ... + w_K: the
        # order of a brute-force scan, so both give the same rate to the bit
        num = reduce(add, (g[i] for g, i in zip(gains, candidate)))
        den = reduce(add, (w[i] for w, i in zip(weights, candidate)), 1.0)
        achieved = float(num / den)
        if achieved <= rate:
            break
        picks, rate, reserve = candidate, achieved, achieved
    return tuple(float(axis[i]) for axis, i in zip(axes, picks)), rate
