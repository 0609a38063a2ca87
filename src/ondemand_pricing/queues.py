"""Extensions beyond the pure loss system: one waiting spot, patient background
work, and horizons drawn from a mixture of exponential rates.

The capacity-one queue admits an arrival while the worker is busy only if
nobody is already waiting; the queued customer commits at arrival (paying the
posted rate for their class) and starts service when the current job ends.
Its prices meet the loss system's first-order condition with a class-specific
opportunity cost, so they come from the same per-class price response.
Mixture horizons are still priced by multi-start coordinate ascent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    queue_parts,
)
from .search import multi_start_ascent
from .solver import Solution, price_response, solve_fixed_point

_RESTARTS = 20
_MAX_ITERATIONS = 10_000
_PRICE_TOL = 1e-13
_RATE_ULPS = 8  # rounding allowance of the closed-form rate, in units in the last place


def _queue_terms(cls_a: CustomerClass, cls_b: CustomerClass, cost: float,
                 price_a: float, price_b: float) -> tuple[float, float, float]:
    """The closed-form rate R = N/D at one price pair, and each class's
    opportunity-cost factor m_k = mu_k * dD/da_k.

    With a_k = lambda_k * tail_k(p_k), s = a_A + a_B, B = (s + mu_A)(s + mu_B)
    and T = a_A mu_A + a_B mu_B + mu_A mu_B, the busy-and-idle weight is
    D = T/B + a_A/mu_A + a_B/mu_B, and
    m_k = 1 + mu_k * (mu_k - (T/B) * (2s + mu_A + mu_B)) / B.
    m_k divides by B twice rather than squaring it: a float power raises
    OverflowError on huge service rates, where products only overflow to inf.
    Tiny service rates with no admitted arrivals underflow B to 0, where the
    closed form is 0/0.
    """
    admit_a = cls_a.arrival_rate * cls_a.valuation.tail(price_a)
    admit_b = cls_b.arrival_rate * cls_b.valuation.tail(price_b)
    mu_a = cls_a.duration.rate
    mu_b = cls_b.duration.rate
    s = admit_a + admit_b
    both = (s + mu_a) * (s + mu_b)
    try:
        idle_weight = (admit_a * mu_a + admit_b * mu_b + mu_a * mu_b) / both
    except ZeroDivisionError:
        raise NonFiniteRate(f"queue earning rate is not finite at prices {(price_a, price_b)}: "
                            f"(s + mu_A)(s + mu_B) underflows to 0") from None
    num = (price_a - cost) * admit_a / mu_a + (price_b - cost) * admit_b / mu_b
    den = idle_weight + admit_a / mu_a + admit_b / mu_b
    # with no admitted arrivals num is (p - cost) * 0, which is -0.0 when p < cost
    rate = num / den + 0.0
    spread = idle_weight * (2.0 * s + mu_a + mu_b)
    return (rate, 1.0 + mu_a * ((mu_a - spread) / both),
            1.0 + mu_b * ((mu_b - spread) / both))


def queue_rate(scenario: Scenario, price_a: float, price_b: float) -> float:
    """Long-run average earning rate with one waiting spot, in closed form."""
    parts = queue_parts(scenario, "queue_rate")
    return _queue_terms(*parts, *check_prices(scenario, (price_a, price_b)))[0]


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


def _queue_ascent(parts: tuple[CustomerClass, CustomerClass, float], prices: PriceVector,
                  pinned: int | None = None) -> Solution:
    """The marginal-cost iteration from `prices`, with class `pinned` (if any)
    held at its price.

    Each iteration steps toward the target prices. When the targets at the
    full step land on the other side (the plain map can settle into a
    2-cycle), the step shrinks to the secant root of the gap along the line.
    It is then halved until the rate does not fall by more than the closed
    form's rounding. The iteration stops when the targets lie within
    _PRICE_TOL of the prices (relative to prices above 1); it is not converged
    when it reaches the cap or no step longer than that keeps the rate.
    """
    classes, cost = parts[:2], parts[2]

    def evaluate(point):
        rate, *factors = _queue_terms(*parts, *point)
        gaps = tuple(0.0 if k == pinned else price_response(cls, rate * m, cost) - p
                     for k, (cls, m, p) in enumerate(zip(classes, factors, point)))
        return rate, gaps

    def toward(step):
        return tuple(p + step * g for p, g in zip(prices, gaps))

    rate, gaps = evaluate(prices)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        move = max(map(abs, gaps))
        tol = _PRICE_TOL * max(1.0, *prices)
        if move <= tol or not math.isfinite(move):  # not finite: the rate overflowed
            return Solution(prices, rate, iteration, (), move <= tol)
        step = 1.0
        trial_rate, trial_gaps = evaluate(toward(step))
        turn = sum(t * g for t, g in zip(trial_gaps, gaps)) / sum(g * g for g in gaps)
        if turn < 0.0:
            step = 1.0 / (1.0 - turn)
            trial_rate, trial_gaps = evaluate(toward(step))
        while not trial_rate >= rate - _RATE_ULPS * math.ulp(rate):  # NaN falls
            step *= 0.5
            if step * move <= tol:
                return Solution(prices, rate, iteration, (), False)
            trial_rate, trial_gaps = evaluate(toward(step))
        prices, rate, gaps = toward(step), trial_rate, trial_gaps
    return Solution(prices, rate, _MAX_ITERATIONS, (), False)


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
    monopoly = tuple(price_response(cls, 0.0, cost) for cls in classes)
    runs = [_queue_ascent(parts, monopoly)]
    iterations = 0
    for k, cls in enumerate(classes):
        shut = tuple(cls.valuation.upper if i == k else p for i, p in enumerate(monopoly))
        settled = _queue_ascent(parts, shut, pinned=k)
        iterations += settled.iterations
        runs.append(_queue_ascent(parts, settled.prices))
    finite = [run for run in runs if math.isfinite(run.rate)]
    if not finite:
        raise NonFiniteRate(f"queue earning rate is not finite at prices {monopoly}")
    best = max(finite, key=lambda run: run.rate)
    return replace(best, iterations=iterations + sum(run.iterations for run in runs))


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
    """Maximize mixture_horizon_value by multi-start coordinate ascent, or
    price every class out when that earns more."""
    parts = _mixture_parts(scenario, "mixture_horizon_optimize")

    def objective(p) -> float:
        # the search keeps p finite inside the nonnegative price box
        return _mixture_value(scenario, parts, p)

    bounds = _price_box(scenario)
    prices, value = multi_start_ascent(
        objective, bounds, _search_starts(bounds, objective)
    )
    # Pricing every class out earns 0; an ascent that ends just inside the
    # tops of the supports earns slightly less when cost exceeds them.
    corner = tuple(hi for _, hi in bounds)
    corner_value = objective(corner)
    if corner_value > value:
        return corner, corner_value
    return prices, value
