"""Extensions beyond the pure loss system: one waiting spot, patient background
work, and horizons drawn from a mixture of exponential rates.

The capacity-one queue admits an arrival while the worker is busy only if
nobody is already waiting; the queued customer commits at arrival (paying the
posted rate for their class) and starts service when the current job ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import effective_load
from .errors import ModelMismatch, SingularSystem
from .model import (
    CustomerClass,
    ExponentialDuration,
    PriceVector,
    Scenario,
    WorkerSpec,
    check_prices,
    queue_parts,
)
from .search import multi_start_ascent
from .solver import price_response, solve_fixed_point

_RESTARTS = 20


def _queue_rate(cls_a: CustomerClass, cls_b: CustomerClass, cost: float,
                price_a: float, price_b: float) -> float:
    admit_a = cls_a.arrival_rate * cls_a.valuation.tail(price_a)
    admit_b = cls_b.arrival_rate * cls_b.valuation.tail(price_b)
    mu_a = cls_a.duration.rate
    mu_b = cls_b.duration.rate
    s = admit_a + admit_b
    idle_weight = (admit_a * mu_a + admit_b * mu_b + mu_a * mu_b) / (
        (s + mu_a) * (s + mu_b)
    )
    num = (price_a - cost) * admit_a / mu_a + (price_b - cost) * admit_b / mu_b
    den = idle_weight + admit_a / mu_a + admit_b / mu_b
    return num / den


def queue_rate(scenario: Scenario, price_a: float, price_b: float) -> float:
    """Long-run average earning rate with one waiting spot, in closed form."""
    parts = queue_parts(scenario, "queue_rate")
    return _queue_rate(*parts, *check_prices(scenario, (price_a, price_b)))


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


def _price_box(scenario: Scenario) -> list[tuple[float, float]]:
    return [(cls.valuation.lower, cls.valuation.upper) for cls in scenario.classes]


def _search_starts(bounds, objective, coarse: bool = True) -> list[list[float]]:
    """Deterministic multi-start set: box midpoint, a coarse grid winner, and
    fixed pseudo-random interior points."""
    rng = np.random.default_rng(0)
    starts = [[0.5 * (lo + hi) for lo, hi in bounds]]
    if coarse and len(bounds) == 2:
        (lo0, hi0), (lo1, hi1) = bounds
        xs = np.linspace(lo0, hi0, 41)
        ys = np.linspace(lo1, hi1, 41)
        best, arg = -math.inf, starts[0]
        for x in xs:
            for y in ys:
                v = objective((float(x), float(y)))
                if v > best:
                    best, arg = v, [float(x), float(y)]
        starts.append(arg)
    for _ in range(_RESTARTS):
        starts.append(
            [float(rng.uniform(lo, hi)) for lo, hi in bounds]
        )
    return starts


def queue_optimize(scenario: Scenario) -> tuple[PriceVector, float]:
    """Jointly optimal prices for the capacity-one queue via multi-start
    coordinate ascent on the closed-form rate."""
    parts = queue_parts(scenario, "queue_optimize")

    def objective(p) -> float:
        return _queue_rate(*parts, p[0], p[1])

    bounds = _price_box(scenario)
    prices, rate = multi_start_ascent(
        objective, bounds, _search_starts(bounds, objective)
    )
    return prices, rate


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


def _mixture_parts(scenario: Scenario, op: str):
    scenario.require(op, "mixture")
    mix = scenario.discount
    cost = scenario.workers[0].cost
    branch_loads = [
        [effective_load(cls, g) for cls in scenario.classes] for g in mix.rates
    ]
    return mix, cost, branch_loads


def _mixture_value(scenario: Scenario, parts, prices) -> float:
    mix, cost, branch_loads = parts
    tails = [cls.valuation.tail(p) for cls, p in zip(scenario.classes, prices)]
    total = 0.0
    for w, loads in zip(mix.weights, branch_loads):
        num = sum(
            load * (p - cost) * tail for load, p, tail in zip(loads, prices, tails)
        )
        den = 1.0 + sum(load * tail for load, tail in zip(loads, tails))
        total += w * num / den
    return total


def mixture_horizon_value(scenario: Scenario, prices) -> float:
    """Pricing objective under a mixture of exponential horizons: the weighted
    sum over branches of the branch's discount-adjusted average earning rate.

    For a single branch with rate 1 this coincides with discounted_value.
    """
    parts = _mixture_parts(scenario, "mixture_horizon_value")
    return _mixture_value(scenario, parts, check_prices(scenario, prices))


def mixture_horizon_optimize(scenario: Scenario) -> tuple[PriceVector, float]:
    """Maximize mixture_horizon_value by multi-start coordinate ascent."""
    parts = _mixture_parts(scenario, "mixture_horizon_optimize")

    def objective(p) -> float:
        # the search keeps p finite inside the nonnegative price box
        return _mixture_value(scenario, parts, p)

    bounds = _price_box(scenario)
    prices, value = multi_start_ascent(
        objective, bounds, _search_starts(bounds, objective)
    )
    return prices, value
