"""Competition between workers posting per-unit-time prices to shared demand.

Two customer choice rules are covered, and a fleet's ranks pick one
(`Scenario.choice`). Quality-ranked choice (distinct ranks): every customer
prefers the highest-ranked worker she can afford among those currently
available, which yields a hierarchical equilibrium solvable one rank at a
time against residual demand. Undifferentiated choice (equal ranks):
customers take the cheapest available worker they can afford, for which no
pure equilibrium need exist and best-response dynamics can cycle.

Payoffs for best-response dynamics come from the exact stationary distribution
of the fleet's busy-set Markov chain rather than from the residual-demand
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelMismatch, SingularSystem
from .model import (
    CustomerClass,
    ExponentialDuration,
    PriceVector,
    Scenario,
    WorkerSpec,
    apply_commission,
    check_prices,
)
from .solver import solve_fixed_point

_MAX_FLEET = 10
_BISECT_TOL = 1e-13
_BISECT_MAX = 200
# Best-response dynamics move on a price grid of this step for at most
# _MAX_ROUNDS rounds. Each round solves the busy-set chain once per worker and
# grid point, so a grid past _MAX_GRID_POINTS (a valuation support above 1000)
# is refused before it is built: it would run for hours or exhaust memory.
_GRID_STEP = 0.01
_MAX_ROUNDS = 100
_MAX_GRID_POINTS = 100_000


def busy_fraction(scenario: Scenario, prices) -> float:
    """Long-run probability that the sole worker is serving a job."""
    scenario.require("busy_fraction", "loss")
    prices = check_prices(scenario, prices)
    offered = sum(
        cls.load * cls.valuation.tail(p) for cls, p in zip(scenario.classes, prices)
    )
    return offered / (1.0 + offered)


@dataclass(frozen=True)
class ResidualDemandCurve:
    """Demand reaching one worker for one class after higher-ranked workers
    skim it.

    Each level is an upstream (price, busy_fraction) pair. A customer with
    valuation v reaches the owner only when every upstream worker priced at or
    below v happens to be busy, so the pass-through weight is the product of
    those busy fractions.
    """

    customer_class: CustomerClass
    levels: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        levels = tuple((float(q), float(b)) for q, b in self.levels)
        object.__setattr__(self, "levels", levels)
        if any(b < 0.0 or b > 1.0 for _, b in levels):
            raise ModelMismatch("busy fractions must lie in [0, 1]")

    def extended(self, price: float, busy: float) -> "ResidualDemandCurve":
        return ResidualDemandCurve(self.customer_class, self.levels + ((price, busy),))

    def demand(self, p: float) -> float:
        """Arrival rate of customers who accept price p and reach this worker."""
        law = self.customer_class.valuation
        cuts = sorted(q for q, _ in self.levels if q > p)
        bounds = [max(p, 0.0)] + cuts
        total = 0.0
        for j, x in enumerate(bounds):
            weight = 1.0
            for q, b in self.levels:
                if q <= x:
                    weight *= b
            upper_tail = law.tail(bounds[j + 1]) if j + 1 < len(bounds) else 0.0
            total += weight * (law.tail(x) - upper_tail)
        return self.customer_class.arrival_rate * total


def _residual_rate(curves, prices, cost: float) -> float:
    num = 0.0
    den = 1.0
    for curve, p in zip(curves, prices):
        weight = curve.demand(p) * curve.customer_class.duration.mean
        num += weight * (p - cost)
        den += weight
    return num / den


def _increasing_root(gap, lo: float, hi: float) -> float:
    """Root of a nondecreasing function on [lo, hi] by bisection.

    Returns lo when gap(lo) >= 0 and the midpoint of the final bracket
    otherwise, which tends to hi when gap stays negative on the interval.
    """
    if gap(lo) >= 0.0:
        return lo
    for _ in range(_BISECT_MAX):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _best_response(curve: ResidualDemandCurve, floor: float) -> float:
    """Price maximizing (p - floor) * demand(p) against one residual curve.

    Upstream prices inside the valuation support cut it into pieces. Every
    valuation on a piece [a, b] passes the upstream workers with the same
    weight A, the product of the busy fractions of the upstream prices <= a,
    so demand there is lam * (A * tail(p) + B) with
    B = demand(a)/lam - A * tail(a) <= 0. The first-order condition is a
    shifted virtual-value root, p - floor = (tail(p) + B/A) / density(p), and
    for a strictly regular law the gap between its two sides increases along
    the piece, so the objective is unimodal there and the piece's best price
    is that root or an endpoint. Ties go to the lowest price.
    """
    law = curve.customer_class.valuation
    lam = curve.customer_class.arrival_rate
    lo, hi = law.lower, law.upper
    edges = sorted({lo, hi, *(q for q, _ in curve.levels if lo < q < hi)})
    candidates = set(edges)
    for a, b in zip(edges, edges[1:]):
        scale = lam * math.prod(busy for q, busy in curve.levels if q <= a)
        if scale > 0.0 and floor < b:
            shift = curve.demand(a) / scale - law.tail(a)
            candidates.add(_increasing_root(
                lambda p: (p - floor) - (law.tail(p) + shift) / law.density(p),
                max(a, floor),
                b,
            ))
    return max(sorted(candidates), key=lambda p: (p - floor) * curve.demand(p))


def _optimize_vs_residual(curves, cost: float, tol: float = 1e-12,
                          max_iter: int = 500) -> tuple[PriceVector, float, bool]:
    """Best prices against fixed residual demand curves, their rate, and
    whether the reserve iteration converged within max_iter steps.

    Same reserve-rate decomposition as the loss-system solver: at reserve R
    each class's price maximizes (p - cost - R) times residual demand, and the
    achieved rate feeds back until it reproduces itself.
    """
    reserve = 0.0
    prices: tuple[float, ...] = ()
    for _ in range(max_iter):
        prices = tuple(_best_response(curve, cost + reserve) for curve in curves)
        achieved = _residual_rate(curves, prices, cost)
        if abs(achieved - reserve) <= tol:
            return prices, achieved, True
        reserve = achieved
    return prices, reserve, False


@dataclass(frozen=True)
class WorkerOutcome:
    """One worker's equilibrium prices and model-implied performance."""

    rank: int
    prices: PriceVector
    rate: float
    busy_fraction: float
    converged: bool


@dataclass(frozen=True)
class RankedEquilibrium:
    """Hierarchical equilibrium under quality-ranked customer choice, best rank first."""

    outcomes: tuple[WorkerOutcome, ...]

    def by_rank(self, rank: int) -> WorkerOutcome:
        for outcome in self.outcomes:
            if outcome.rank == rank:
                return outcome
        raise KeyError(f"no worker with rank {rank}")


def _uniform_retention(scenario: Scenario) -> Scenario:
    retentions = {w.commission_retention for w in scenario.workers}
    if retentions == {1.0}:
        return scenario
    if len(retentions) > 1:
        raise ModelMismatch(
            "competition requires a common commission retention across workers"
        )
    keep = retentions.pop()
    classes = tuple(apply_commission(cls, keep) for cls in scenario.classes)
    return Scenario(classes=classes, workers=scenario.workers)


def ranked_price_equilibrium(scenario: Scenario) -> RankedEquilibrium:
    """Solve the quality-ranked pricing game one rank at a time.

    The best-ranked worker faces undiminished demand and prices as a lone
    worker. Each later worker maximizes the loss-system functional against the
    residual demand left by everyone ranked above; their equilibrium prices do
    not depend on anything ranked below. With a commission in force all
    prices are net (retained) rates. Each outcome says whether that worker's
    reserve-rate iteration converged.
    """
    scenario.require("ranked_price_equilibrium", "loss", "fleet")
    if scenario.choice != "ranked":
        raise ModelMismatch("quality ranks must be distinct")
    scenario = _uniform_retention(scenario)
    ordered = sorted(scenario.workers, key=lambda w: w.rank)

    curves = [ResidualDemandCurve(cls) for cls in scenario.classes]
    outcomes = []
    for level, worker in enumerate(ordered):
        if level == 0:
            sub = Scenario(classes=scenario.classes, workers=(WorkerSpec(cost=worker.cost),))
            sol = solve_fixed_point(sub)
            prices, rate, converged = sol.prices, sol.rate, sol.converged
        else:
            prices, rate, converged = _optimize_vs_residual(curves, worker.cost)
        offered = sum(
            curve.demand(p) * curve.customer_class.duration.mean
            for curve, p in zip(curves, prices)
        )
        busy = offered / (1.0 + offered)
        outcomes.append(
            WorkerOutcome(rank=worker.rank, prices=prices, rate=rate,
                          busy_fraction=busy, converged=converged)
        )
        curves = [
            curve.extended(p, busy) for curve, p in zip(curves, prices)
        ]
    return RankedEquilibrium(outcomes=tuple(outcomes))


# --- exact fleet chain, single class ---


def _fleet_parts(scenario: Scenario, op: str, *kinds: str):
    scenario.require(op, *kinds)
    if scenario.num_classes != 1:
        raise ModelMismatch("fleet chain supports a single customer class")
    cls = scenario.classes[0]
    if not isinstance(cls.duration, ExponentialDuration):
        raise ModelMismatch("fleet chain needs an exponential duration")
    n = len(scenario.workers)
    if n > _MAX_FLEET:
        raise ModelMismatch(f"fleet chain supports at most {_MAX_FLEET} workers")
    return cls, scenario.workers


def fleet_rates(scenario: Scenario, prices: tuple[float, ...]) -> tuple[float, ...]:
    """Each worker's exact long-run earning rate when worker i posts prices[i].

    The scenario's choice rule applies (`Scenario.choice`): with distinct
    ranks customers take the best-ranked affordable available worker; with
    equal ranks they take the cheapest available worker they can afford,
    splitting ties evenly.
    """
    cls, workers = _fleet_parts(scenario, "fleet_rates", "loss", "fleet")
    if len(prices) != len(workers):
        raise ConfigError(f"expected {len(workers)} prices, one per worker, got {len(prices)}")
    # the chain has one class, so each worker's price row is a single price
    prices = [check_prices(scenario, (p,))[0] for p in prices]
    return _chain_rates(cls, workers, scenario.choice == "cheapest", prices)


def _chain_rates(cls: CustomerClass, workers, cheapest: bool, prices) -> tuple[float, ...]:
    """Each worker's earning rate under the busy-set chain's stationary law, on
    inputs already checked: fleet_rates' own, or best-response grid prices."""
    n = len(workers)
    lam = cls.arrival_rate
    mu = cls.duration.rate
    law = cls.valuation
    size = 1 << n
    q = np.zeros((size, size))
    for state in range(size):
        available = [i for i in range(n) if not state & (1 << i)]
        for i in range(n):
            if state & (1 << i):
                q[state, state ^ (1 << i)] += mu
        if available:
            if cheapest:
                floor = min(prices[i] for i in available)
                winners = [i for i in available if prices[i] == floor]
                share = lam * law.tail(floor) / len(winners)
                for i in winners:
                    q[state, state | (1 << i)] += share
            else:
                for i in available:
                    better = [
                        prices[j]
                        for j in available
                        if workers[j].rank < workers[i].rank
                    ]
                    cap = min(better) if better else math.inf
                    if prices[i] >= cap:
                        continue
                    mass = law.tail(prices[i]) - (law.tail(cap) if cap < math.inf else 0.0)
                    if mass > 0.0:
                        q[state, state | (1 << i)] += lam * mass
        q[state, state] -= q[state].sum()
    coeffs = q.T.copy()
    coeffs[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(coeffs, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("the busy-set chain is singular in floating point") from None
    rates = []
    for i in range(n):
        busy = sum(pi[s] for s in range(size) if s & (1 << i))
        rates.append((prices[i] - workers[i].cost) * float(busy))
    return tuple(rates)


@dataclass(frozen=True)
class BestResponseReport:
    """Outcome of sequential best-response price dynamics on a shared grid."""

    trajectory: tuple[tuple[float, ...], ...]
    fixed_profile: tuple[float, ...] | None
    cycle_start: int | None
    cycle_length: int | None
    rounds_run: int


def best_response_dynamics(scenario: Scenario) -> BestResponseReport:
    """Iterate exact-payoff best responses worker by worker on a price grid.

    Workers update in scenario order within each round. Stops early at a fixed
    profile or on the first revisit of a profile (a cycle). Under
    undifferentiated (cheapest-available) choice a cycle is the expected
    outcome; under ranked choice the dynamics settle.
    """
    cls, workers = _fleet_parts(scenario, "best_response_dynamics", "fleet")
    cheapest = scenario.choice == "cheapest"
    upper = cls.valuation.upper
    if not upper / _GRID_STEP < _MAX_GRID_POINTS:
        raise ConfigError(f"valuation high {upper!r}: a best-response price grid at step "
                          f"{_GRID_STEP} would need more than {_MAX_GRID_POINTS} points")
    axis = [float(x) for x in np.arange(0.0, upper + _GRID_STEP / 2.0, _GRID_STEP)]

    def solo_rate(price: float, cost: float) -> float:
        weight = cls.load * cls.valuation.tail(price)
        return (price - cost) * weight / (1.0 + weight)

    profile = [
        max(axis, key=lambda p, c=w.cost: solo_rate(p, c)) for w in workers
    ]
    trajectory: list[tuple[float, ...]] = [tuple(profile)]
    seen = {tuple(profile): 0}
    fixed = None
    cycle_start = None
    cycle_length = None
    rounds = 0
    for round_no in range(1, _MAX_ROUNDS + 1):
        rounds = round_no
        for i in range(len(workers)):
            best_p, best_v = profile[i], -math.inf
            for candidate in axis:
                trial = list(profile)
                trial[i] = candidate
                value = _chain_rates(cls, workers, cheapest, trial)[i]
                if value > best_v + 1e-15:
                    best_p, best_v = candidate, value
            profile[i] = best_p
        snapshot = tuple(profile)
        if snapshot == trajectory[-1]:
            fixed = snapshot
            trajectory.append(snapshot)
            break
        if snapshot in seen:
            cycle_start = seen[snapshot]
            cycle_length = len(trajectory) - seen[snapshot]
            trajectory.append(snapshot)
            break
        seen[snapshot] = len(trajectory)
        trajectory.append(snapshot)
    return BestResponseReport(
        trajectory=tuple(trajectory),
        fixed_profile=fixed,
        cycle_start=cycle_start,
        cycle_length=cycle_length,
        rounds_run=rounds,
    )
