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

Every price here is in the scenario's own rates. The config reader applies a
commission to the valuation laws, so nothing in this module applies one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import busy_share, earning_rate, load_tails
from .errors import ConfigError, ModelMismatch, SingularSystem
from .model import (
    CustomerClass,
    ExponentialDuration,
    PriceVector,
    Scenario,
    WorkerSpec,
    check_prices,
    row_sums,
)
from .solver import Solution, reserve_iteration, solve_fixed_point

_MAX_FLEET = 10
_BISECT_TOL = 1e-13
_BISECT_MAX = 200
# A lower rank's reserve iteration stops when the rate moves by no more than
# _RESERVE_TOL, or after _RESERVE_MAX_ITER steps.
_RESERVE_TOL = 1e-12
_RESERVE_MAX_ITER = 500
# Best-response dynamics move on a price grid of this step for at most
# _MAX_ROUNDS rounds. Each round sweeps every worker over the whole grid, one
# busy-set chain per grid point, so a grid past _MAX_GRID_POINTS (a valuation
# support above 1000) is refused before it is built: it would run for hours or
# exhaust memory. A sweep's chains are solved stacked, at most _BLOCK_ENTRIES
# generator entries at a time: one 10-worker generator (8 MB), or many small ones.
# A round solves n sweeps of G dense 2^n-state chains, work of order n*G*8^n;
# past _MAX_CHAIN_WORK, that of 8 workers on a 101-point grid (about 1.6 s a
# round on a 2-core x86-64 host, 9 workers about 10 s), the dynamics are refused.
_GRID_STEP = 0.01
_MAX_ROUNDS = 100
_MAX_GRID_POINTS = 100_000
_MAX_CHAIN_WORK = 8 * 101 * 8**8
_BLOCK_ENTRIES = 1 << 20


def busy_fraction(scenario: Scenario, prices) -> float:
    """Long-run probability that the sole worker is serving a job."""
    scenario.require("busy_fraction", "loss")
    return busy_share(load_tails(scenario.classes), check_prices(scenario, prices))


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


def _optimize_vs_residual(curves, terms, cost: float) -> Solution:
    """Best prices against fixed residual demand curves and their rate, with
    the number of reserve steps taken and whether the reserve iteration
    converged within _RESERVE_MAX_ITER of them.

    A lower rank runs the lone worker's loop, `solver.reserve_iteration`, from
    reserve 0: at reserve R each class's price maximizes (p - cost - R) times
    residual demand, and the achieved rate feeds back until it reproduces
    itself. The rate is the loss system's `earning_rate` on `terms`, one
    (mean duration, `curve.demand`) pair per curve: each class's residual
    demand in place of its tail and its mean duration in place of its load.
    """
    def step(reserve: float) -> tuple[float, PriceVector]:
        prices = tuple(_best_response(curve, cost + reserve) for curve in curves)
        return earning_rate(terms, cost, prices), prices

    rate, prices, trace, converged = reserve_iteration(
        step, 0.0, _RESERVE_TOL, _RESERVE_MAX_ITER)
    return Solution(prices=prices, rate=rate, iterations=len(trace), trace=trace,
                    converged=converged)


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


def ranked_price_equilibrium(scenario: Scenario) -> RankedEquilibrium:
    """Solve the quality-ranked pricing game one rank at a time.

    The best-ranked worker faces undiminished demand and prices as a lone
    worker. Each later worker maximizes the loss-system functional against the
    residual demand left by everyone ranked above; their equilibrium prices do
    not depend on anything ranked below. Prices are in the scenario's own
    rates, which are net (retained) rates for a scenario the config reader
    built. Each outcome says whether that worker's reserve-rate iteration
    converged.
    """
    scenario.require("ranked_price_equilibrium", "loss", "fleet")
    if scenario.choice != "ranked":
        raise ModelMismatch("quality ranks must be distinct")

    curves = [ResidualDemandCurve(cls) for cls in scenario.classes]
    outcomes = []
    for level, worker in enumerate(scenario.workers[i] for i in scenario.rank_order):
        terms = [(curve.customer_class.duration.mean, curve.demand) for curve in curves]
        if level == 0:
            sol = solve_fixed_point(
                Scenario(classes=scenario.classes, workers=(WorkerSpec(cost=worker.cost),)))
        else:
            sol = _optimize_vs_residual(curves, terms, worker.cost)
        busy = busy_share(terms, sol.prices)
        outcomes.append(
            WorkerOutcome(rank=worker.rank, prices=sol.prices, rate=sol.rate,
                          busy_fraction=busy, converged=sol.converged)
        )
        curves = [
            curve.extended(p, busy) for curve, p in zip(curves, sol.prices)
        ]
    return RankedEquilibrium(outcomes=tuple(outcomes))


def _ranked_solution(scenario: Scenario, eq: RankedEquilibrium) -> Solution:
    """`eq`, the scenario's ranked equilibrium, as one Solution: a price row
    per worker in config order, the best rank's rate, and converged only
    when every rank's reserve iteration converged. The equilibrium counts no
    iterations."""
    return Solution(prices=tuple(eq.by_rank(w.rank).prices for w in scenario.workers),
                    rate=eq.outcomes[0].rate, iterations=0, trace=(),
                    converged=all(o.converged for o in eq.outcomes))


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
    splitting ties evenly. The rates come from the stationary law of the
    fleet's busy-set chain, solved as a one-row block of `_chain_rates`.
    """
    cls, workers = _fleet_parts(scenario, "fleet_rates", "loss", "fleet")
    if len(prices) != len(workers):
        raise ConfigError(f"expected {len(workers)} prices, one per worker, got {len(prices)}")
    # the chain has one class, so each worker's price row is a single price
    prices = [check_prices(scenario, (p,))[0] for p in prices]
    tails = [cls.valuation.tail(p) for p in prices]
    rates = _chain_rates(cls, workers, scenario.choice == "cheapest",
                         np.array([prices]), np.array([tails]))
    return tuple(float(r) for r in rates[0])


def _chain_rates(cls: CustomerClass, workers, cheapest: bool, prices: np.ndarray,
                 tails: np.ndarray) -> np.ndarray:
    """Each worker's earning rate under the busy-set chain's stationary law, for
    G price vectors at once: row g of the (G, n) result is the fleet's rates
    when worker i posts prices[g, i]. tails[g, i] is the valuation's tail at
    prices[g, i]. The inputs are already checked: fleet_rates' own, or
    best-response grid prices.

    State s of the chain is the set of busy workers, bit i for worker i. A
    busy worker finishes at the duration's rate; an arrival at an available
    worker comes at lam times the share of valuations that choose it. The
    generators are filled and solved in blocks of at most _BLOCK_ENTRIES
    entries.
    """
    n = len(workers)
    lam = cls.arrival_rate
    size = 1 << n
    states = np.arange(size)
    bits = 1 << np.arange(n)
    busy = (states[:, None] & bits) != 0  # (state, worker)
    if not cheapest:
        ranks = np.array([w.rank for w in workers])
        # hidden[s, i, j]: worker j is busy in s or ranked below worker i
        hidden = busy[:, None, :] | (ranks[None, None, :] >= ranks[None, :, None])
    up_s, up_i = np.nonzero(~busy)
    down_s, down_i = np.nonzero(busy)
    members = [states[busy[:, i]] for i in range(n)]
    costs = np.array([w.cost for w in workers])
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    rates = np.empty(prices.shape)
    step = max(1, _BLOCK_ENTRIES // (size * size))
    for lo in range(0, len(prices), step):
        p, t = prices[lo:lo + step], tails[lo:lo + step]
        g = len(p)
        rows = np.arange(g)[:, None]
        if cheapest:
            offered = np.where(busy, math.inf, p[:, None, :])  # (G, state, worker)
            winners = offered == offered.min(axis=-1, keepdims=True)
            # every winner posts the lowest available price: take the first one's tail
            floor_tail = t[rows, winners.argmax(axis=-1)]
            share = lam * floor_tail / winners.sum(axis=-1)
            flow = np.where(winners, share[..., None], 0.0)
        else:
            # valuations in [p_i, cap) choose worker i, where cap is the lowest
            # price among the available workers ranked above it
            ahead = np.where(hidden, math.inf, p[:, None, None, :])  # (G, state, i, j)
            cap = ahead.min(axis=-1)
            cap_tail = np.where(cap < math.inf, t[rows[..., None], ahead.argmin(axis=-1)], 0.0)
            mass = t[:, None, :] - cap_tail
            flow = np.where((p[:, None, :] < cap) & (mass > 0.0), lam * mass, 0.0)
        q = np.zeros((g, size, size))
        q[:, down_s, down_s ^ bits[down_i]] += cls.duration.rate
        q[:, up_s, up_s | bits[up_i]] += flow[:, up_s, up_i]
        q[:, states, states] -= q.sum(axis=-1)
        coeffs = q.transpose(0, 2, 1).copy()
        coeffs[:, -1, :] = 1.0
        try:
            pi = np.linalg.solve(coeffs, rhs)
        except np.linalg.LinAlgError:
            raise SingularSystem("the busy-set chain is singular in floating point") from None
        for i in range(n):
            rates[lo:lo + step, i] = (p[:, i] - costs[i]) * row_sums(pi[:, members[i]])
    return rates


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
    grid = np.arange(0.0, upper + _GRID_STEP / 2.0, _GRID_STEP)
    n, width = len(workers), len(grid)
    if n * width * 8**n > _MAX_CHAIN_WORK:
        raise ConfigError(f"best-response dynamics of {n} workers on a {width}-point price "
                          "grid: a round's chain work exceeds that of 8 workers on 101 points")
    tails = cls.valuation.tails(grid)
    # the solo rates use the Python floats: inf * 0.0 (an infinite load) is a
    # quiet nan there, and a RuntimeWarning in numpy
    axis, tail_list = grid.tolist(), tails.tolist()

    def solo_rate(k: int, cost: float) -> float:
        weight = cls.load * tail_list[k]
        return (axis[k] - cost) * weight / (1.0 + weight)

    # the profile holds grid indices; prices and tails are looked up on the axis
    points = range(len(axis))
    profile = [max(points, key=lambda k, c=w.cost: solo_rate(k, c)) for w in workers]
    trajectory: list[tuple[float, ...]] = [tuple(axis[k] for k in profile)]
    seen = {trajectory[0]: 0}  # each profile's first round
    for rounds in range(1, _MAX_ROUNDS + 1):
        for i in range(len(workers)):
            sweep = np.tile(profile, (len(axis), 1))
            sweep[:, i] = points
            values = _chain_rates(cls, workers, cheapest, grid[sweep],
                                  tails[sweep])[:, i].tolist()
            best_k, best_v = profile[i], -math.inf
            for k, value in enumerate(values):
                if value > best_v + 1e-15:
                    best_k, best_v = k, value
            profile[i] = best_k
        snapshot = tuple(axis[k] for k in profile)
        first = seen.setdefault(snapshot, rounds)
        trajectory.append(snapshot)
        if first < rounds:
            break
    # a revisit one round back is a fixed profile, an earlier one a cycle; 0 is none
    length = rounds - first
    return BestResponseReport(
        trajectory=tuple(trajectory),
        fixed_profile=snapshot if length == 1 else None,
        cycle_start=first if length > 1 else None,
        cycle_length=length if length > 1 else None,
        rounds_run=rounds,
    )
