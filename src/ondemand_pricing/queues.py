"""Extensions beyond the pure loss system: one waiting spot, patient background
work, and horizons drawn from a mixture of exponential rates.

The capacity-one queue admits an arrival while the worker is busy only if
nobody is already waiting; the queued customer commits at arrival (paying the
posted rate for their class) and starts service when the current job ends.
Its prices meet the loss system's first-order condition with a class-specific
opportunity cost, so they come from the same per-class price response. So do
the prices under a mixture of horizons, whose opportunity cost weighs the
branch rates; both run the iteration of `search.marginal_cost_ascent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .analytics import effective_load
from .errors import ModelMismatch, NonFiniteRate, SingularSystem
from .model import (
    CustomerClass,
    ExponentialDuration,
    PriceVector,
    Scenario,
    WorkerSpec,
    check_prices,
    left_sum,
    queue_parts,
)
from .search import marginal_cost_ascent
from .solver import Solution, price_response, solve_fixed_point


def _queue_evaluator(cls_a: CustomerClass, cls_b: CustomerClass, cost: float):
    """The closed-form rate R = N/D as a function of the price pair, and each
    class's shadow R * m_k, with m_k = mu_k * dD/da_k its opportunity-cost
    factor, in the `(objective, shadows)` shape of `marginal_cost_ascent`.
    Each class's arrival rate, tail and service rate is bound once.

    With a_k = lambda_k * tail_k(p_k), s = a_A + a_B, B = (s + mu_A)(s + mu_B)
    and T = a_A mu_A + a_B mu_B + mu_A mu_B, the busy-and-idle weight is
    D = T/B + a_A/mu_A + a_B/mu_B, and
    m_k = 1 + mu_k * (mu_k - (T/B) * (2s + mu_A + mu_B)) / B.
    m_k divides by B twice rather than squaring it: a float power raises
    OverflowError on huge service rates, where products only overflow to inf.
    Tiny service rates with no admitted arrivals underflow B to 0, where the
    closed form is 0/0. T sums left to right, so binding mu_A mu_B once
    leaves it exact.
    """
    lam_a, tail_a, mu_a = cls_a.arrival_rate, cls_a.valuation.tail, cls_a.duration.rate
    lam_b, tail_b, mu_b = cls_b.arrival_rate, cls_b.valuation.tail, cls_b.duration.rate
    mu_ab = mu_a * mu_b

    def terms(prices) -> tuple[float, tuple[float, float]]:
        price_a, price_b = prices
        admit_a = lam_a * tail_a(price_a)
        admit_b = lam_b * tail_b(price_b)
        s = admit_a + admit_b
        both = (s + mu_a) * (s + mu_b)
        try:
            idle_weight = (admit_a * mu_a + admit_b * mu_b + mu_ab) / both
        except ZeroDivisionError:
            raise NonFiniteRate(f"queue earning rate is not finite at prices "
                                f"{(price_a, price_b)}: (s + mu_A)(s + mu_B) underflows to 0"
                                ) from None
        num = (price_a - cost) * admit_a / mu_a + (price_b - cost) * admit_b / mu_b
        den = idle_weight + admit_a / mu_a + admit_b / mu_b
        # with no admitted arrivals num is (p - cost) * 0, which is -0.0 when p < cost
        rate = num / den + 0.0
        spread = idle_weight * (2.0 * s + mu_a + mu_b)
        return rate, (rate * (1.0 + mu_a * ((mu_a - spread) / both)),
                      rate * (1.0 + mu_b * ((mu_b - spread) / both)))

    return terms


def queue_rate(scenario: Scenario, price_a: float, price_b: float) -> float:
    """Long-run average earning rate with one waiting spot, in closed form."""
    parts = queue_parts(scenario, "queue_rate")
    return _queue_evaluator(*parts)(check_prices(scenario, (price_a, price_b)))[0]


@dataclass(frozen=True)
class FirstStepSolution:
    """Renewal-cycle quantities for the capacity-one queue.

    `cycle_earning` and `cycle_time` describe one idle-to-idle cycle; the
    per-class fields condition on which class's job was just accepted with an
    empty queue.
    """

    cycle_earning: float
    earning_from_a: float
    earning_from_b: float
    cycle_time: float
    time_from_a: float
    time_from_b: float

    @property
    def rate(self) -> float:
        return self.cycle_earning / self.cycle_time


def first_step_solve(scenario: Scenario, price_a: float, price_b: float) -> FirstStepSolution:
    """Solve the renewal first-step equations directly (cross-check of queue_rate)."""
    cls_a, cls_b, cost = queue_parts(scenario, "first_step_solve")
    price_a, price_b = check_prices(scenario, (price_a, price_b))
    admit_a = cls_a.arrival_rate * cls_a.valuation.tail(price_a)
    admit_b = cls_b.arrival_rate * cls_b.valuation.tail(price_b)
    mu_a = cls_a.duration.rate
    mu_b = cls_b.duration.rate
    s = admit_a + admit_b
    if s <= 0.0:
        raise SingularSystem("no admitted arrivals: the renewal cycle never closes")
    lhs = np.array([[admit_b + mu_a, -admit_b], [-admit_a, admit_a + mu_b]])
    try:
        times = np.linalg.solve(lhs, np.array([(s + mu_a) / mu_a, (s + mu_b) / mu_b]))
        earnings = np.linalg.solve(
            lhs,
            np.array(
                [
                    (s + mu_a) * (price_a - cost) / mu_a,
                    (s + mu_b) * (price_b - cost) / mu_b,
                ]
            ),
        )
    except np.linalg.LinAlgError:
        raise SingularSystem("the first-step equations are singular in floating point") from None
    t_a, t_b = float(times[0]), float(times[1])
    p_a, p_b = float(earnings[0]), float(earnings[1])
    return FirstStepSolution(
        cycle_earning=(admit_a * p_a + admit_b * p_b) / s,
        earning_from_a=p_a,
        earning_from_b=p_b,
        cycle_time=1.0 / s + (admit_a * t_a + admit_b * t_b) / s,
        time_from_a=t_a,
        time_from_b=t_b,
    )


def _queue_solve(scenario: Scenario) -> Solution:
    """Optimal prices of the capacity-one queue by the marginal-cost fixed point.

    Setting dR/dp_k = 0 gives psi_k(p_k) = cost + R * m_k: each class is priced
    as in the loss system, with the busy hour shadow priced at R times its own
    opportunity-cost factor (m_k = 1 recovers the loss system). The rate is
    not unimodal: under heavy load, shutting a class out (its price at the
    top of its support) can beat every interior fixed point. So the iteration
    runs from the monopoly prices, and from each class shut out with the other
    class's price settled first; the best finisher wins. `iterations` counts
    all five runs, `converged` is the winner's, and `trace` is empty.
    """
    parts = queue_parts(scenario, "queue_optimize")
    classes, cost = parts[:2], parts[2]
    terms = _queue_evaluator(*parts)
    monopoly = tuple(price_response(cls, 0.0, cost) for cls in classes)
    runs = [marginal_cost_ascent(terms, classes, cost, monopoly)]
    iterations = 0
    for k, cls in enumerate(classes):
        shut = tuple(cls.valuation.upper if i == k else p for i, p in enumerate(monopoly))
        settled = marginal_cost_ascent(terms, classes, cost, shut, pinned=k)
        iterations += settled.iterations
        runs.append(marginal_cost_ascent(terms, classes, cost, settled.prices))
    finite = [run for run in runs if math.isfinite(run.rate)]
    if not finite:
        raise NonFiniteRate(f"queue earning rate is not finite at prices {monopoly}")
    best = max(finite, key=lambda run: run.rate)
    return replace(best, iterations=iterations + left_sum(run.iterations for run in runs))


def queue_optimize(scenario: Scenario) -> tuple[PriceVector, float]:
    """Jointly optimal prices for the capacity-one queue and the closed-form
    rate they earn, by the marginal-cost fixed point of `_queue_solve`.

    Raises IrregularDistribution when a class's valuation law is not strictly
    regular."""
    sol = _queue_solve(scenario)
    return sol.prices, sol.rate


@dataclass(frozen=True)
class HybridSolution:
    """Pricing for an on-demand stream plus patient background work.

    When infeasible, the patient backlog grows without bound at the worker's
    idle capacity and no stationary price exists; `patient_price` is None.
    """

    on_demand_price: float
    idle_fraction: float
    feasible: bool
    patient_price: float | None


def hybrid_solve(on_demand: CustomerClass, patient: CustomerClass,
                 cost: float = 0.0) -> HybridSolution:
    """Price an on-demand class at its loss-system optimum and, if the leftover
    idle capacity can absorb the patient stream, price that stream at its
    monopoly rate. Patient jobs yield to on-demand arrivals, so they do not
    perturb the on-demand solution."""
    for cls in (on_demand, patient):
        if not isinstance(cls.duration, ExponentialDuration):
            raise ModelMismatch("hybrid_solve needs exponential durations")
    single = Scenario(classes=(on_demand,), workers=(WorkerSpec(cost=cost),))
    sol = solve_fixed_point(single)
    top_price = sol.prices[0]
    idle = 1.0 / (1.0 + on_demand.load * on_demand.valuation.tail(top_price))
    feasible = patient.arrival_rate < idle * patient.duration.rate
    patient_price = price_response(patient, 0.0, cost) if feasible else None
    return HybridSolution(
        on_demand_price=top_price,
        idle_fraction=idle,
        feasible=feasible,
        patient_price=patient_price,
    )


def _mixture_evaluator(scenario: Scenario, op: str):
    """The mixture objective and each class's shadow as a function of the
    prices, in the `(objective, shadows)` shape of `marginal_cost_ascent`,
    with each branch's weight and loads and each class's tail bound once.

    V = sum_w w * N_w / D_w, and each class's weighted opportunity cost is
    Rbar_k = sum_w a_wk * R_w / sum_w a_wk, with R_w = N_w / D_w the branch's
    rate and a_wk = w * load_wk / D_w. A class with no load in any branch has
    no opportunity cost: its shadow is 0. Every sum runs in class order and
    then branch order.
    """
    scenario.require(op, "mixture")
    mix = scenario.discount
    cost = scenario.workers[0].cost
    tails_of = [cls.valuation.tail for cls in scenario.classes]
    branches = [(w, [effective_load(cls, g) for cls in scenario.classes])
                for w, g in zip(mix.weights, mix.rates)]

    def terms(prices) -> tuple[float, list[float]]:
        tails = [tail(p) for tail, p in zip(tails_of, prices)]
        margins = [p - cost for p in prices]
        total = 0.0
        weights = [0.0] * len(tails_of)
        shadows = [0.0] * len(tails_of)
        for w, loads in branches:
            # N_w sums load * (p - cost) * tail, and D_w is 1 plus the sum of
            # load * tail, both over the classes
            num = left_sum(map(mul, map(mul, loads, margins), tails))
            den = 1.0 + left_sum(map(mul, loads, tails))
            total += w * num / den
            share, branch_rate = w / den, num / den
            for k, load in enumerate(loads):
                weights[k] += share * load
                shadows[k] += share * load * branch_rate
        return total, [s / a if a > 0.0 else 0.0 for s, a in zip(shadows, weights)]

    return terms


def mixture_horizon_value(scenario: Scenario, prices) -> float:
    """Pricing objective under a mixture of exponential horizons: the weighted
    sum over branches of the branch's discount-adjusted average earning rate.

    For a single branch with rate 1 this coincides with discounted_value.
    """
    terms = _mixture_evaluator(scenario, "mixture_horizon_value")
    return terms(check_prices(scenario, prices))[0]


def _mixture_solve(scenario: Scenario) -> Solution:
    """Optimal prices under a mixture of horizons by the marginal-cost fixed point.

    The objective is a sum of ratios; setting dV/dp_k = 0 gives
    psi_k(p_k) = cost + Rbar_k, the loss system's condition with each class's
    busy hour shadow priced at the branch rates weighted by how much that
    class's load counts in each branch. The iteration runs from the monopoly
    prices. A sum of ratios need not be unimodal, so pricing every class out
    (each price at the top of its support) replaces the finisher when that
    earns more. That corner is worth 0 only where every law sells nothing at
    its top: an exponential law's operational upper bound keeps a 1e-12
    tail, so with the cost above it the objective and the shadows are
    negative, and the ascent can end below the corner. `rate` and `value`
    both carry the objective, and `trace` is empty.
    """
    terms = _mixture_evaluator(scenario, "mixture_horizon_optimize")
    classes, cost = scenario.classes, scenario.workers[0].cost
    monopoly = tuple(price_response(cls, 0.0, cost) for cls in classes)
    sol = marginal_cost_ascent(terms, classes, cost, monopoly)
    corner = tuple(cls.valuation.upper for cls in classes)
    corner_value = terms(corner)[0]
    if corner_value > sol.rate:
        sol = replace(sol, prices=corner, rate=corner_value)
    return replace(sol, value=sol.rate)


def mixture_horizon_optimize(scenario: Scenario) -> tuple[PriceVector, float]:
    """Optimal prices under a mixture of horizons and the value they earn, by
    the marginal-cost fixed point of `_mixture_solve`.

    Raises IrregularDistribution when a class's valuation law is not strictly
    regular."""
    sol = _mixture_solve(scenario)
    return sol.prices, sol.value
