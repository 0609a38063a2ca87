"""Discrete-event Monte Carlo ground truth for the analytic models.

Every replication draws per-class Poisson arrivals, valuations, and durations
from its own PRNG streams (PCG64 seeded via SeedSequence with
spawn_key=(replication, class_index)), so adding a class or changing routing
never perturbs another stream. Earnings accrue at (price - cost) per busy
hour; rate estimates discard a warmup prefix, discounted estimates run from
the idle start because the start state is part of the quantity.

Loss systems run on one kernel, `_loss_accepts`. A busy worker loses every
arrival, so the job a lone worker takes after the one ending at t + d is the
first arrival it can afford at or after t + d; one `searchsorted` gives that
successor for every job, and pointer doubling finds the chain of accepted jobs
in about log2(accepted) array passes.
A ranked fleet is a cascade of the kernel: workers in rank order each run it
on the arrivals they can afford that no better-ranked worker took. The
discounted simulator caps each successor at the first arrival of the next
window, where the worker restarts idle. The one-waiting-spot queue still
steps through its affordable arrivals, since a waiting job's start depends on
history, but that loop only decides which jobs are served and when each
starts. Every simulator adds up earnings as arrays, in start order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, ModelMismatch, NonFiniteRate
from .model import Scenario, check_prices, queue_parts

# Discount weight e^{-gamma t} is below 4e-18 past this many inverse rates, so
# discounted runs truncate their horizon there.
_DISCOUNT_SPAN = 40.0
# Window numbers are int64, so a horizon holds fewer windows than this.
_MAX_WINDOWS = 2.0**63


@dataclass(frozen=True)
class SimConfig:
    """Simulation sizing: expected arrivals (which set the horizon), seed, warmup."""

    scenario: Scenario
    expected_arrivals: float = 100_000.0
    replications: int = 30
    base_seed: int = 20260815
    warmup_fraction: float = 0.1
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not (0.0 <= self.warmup_fraction <= 0.5):
            raise ConfigError("warmup_fraction must lie in [0, 0.5]")
        if self.expected_arrivals <= 0.0:
            raise ConfigError("expected_arrivals must be positive")

    def horizon_hours(self) -> float:
        total = sum(cls.arrival_rate for cls in self.scenario.classes)
        if total <= 0.0:
            raise ConfigError("cannot size a horizon: total arrival rate is zero")
        horizon = self.expected_arrivals / total
        # an overflowing or underflowing rate sizes a horizon of 0 or inf
        if not 0.0 < horizon < math.inf:
            raise ConfigError(f"cannot size a horizon: total arrival rate {total!r} "
                              f"gives {horizon!r} hours")
        return horizon


@dataclass(frozen=True)
class Counts:
    arrivals: int = 0
    accepted: int = 0
    lost_busy: int = 0
    lost_price: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            self.arrivals + other.arrivals,
            self.accepted + other.accepted,
            self.lost_busy + other.lost_busy,
            self.lost_price + other.lost_price,
        )


@dataclass(frozen=True)
class SimStats:
    """Replication summary. `mean` is an hourly rate for kind "rate" and a
    discounted currency amount for kind "value"; for fleets it totals across
    workers with `per_worker_reps` holding the worker-major breakdown."""

    kind: str
    mean: float
    se: float
    ci_low: float
    ci_high: float
    replications: int
    rep_values: tuple[float, ...]
    counts: Counts
    per_worker_reps: tuple[tuple[float, ...], ...] | None = None

    def worker_mean_se(self, index: int) -> tuple[float, float]:
        if self.per_worker_reps is None:
            raise ValueError("no per-worker breakdown recorded")
        return _mean_se(self.per_worker_reps[index])

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "mean": self.mean,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "replications": self.replications,
            "rep_values": list(self.rep_values),
            "counts": {
                "arrivals": self.counts.arrivals,
                "accepted": self.counts.accepted,
                "lost_busy": self.counts.lost_busy,
                "lost_price": self.counts.lost_price,
            },
        }
        if self.per_worker_reps is not None:
            out["per_worker_mean"] = [
                _mean_se(row)[0] for row in self.per_worker_reps
            ]
        return out


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _stats(kind: str, rep_values, counts: Counts,
           per_worker_reps=None) -> SimStats:
    mean, se = _mean_se(rep_values)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFiniteRate(f"simulated {kind} is not finite: mean {mean!r}, SE {se!r}")
    return SimStats(
        kind=kind,
        mean=mean,
        se=se,
        ci_low=mean - 1.96 * se,
        ci_high=mean + 1.96 * se,
        replications=len(rep_values),
        rep_values=tuple(float(v) for v in rep_values),
        counts=counts,
        per_worker_reps=per_worker_reps,
    )


def _class_stream(base_seed: int, rep: int, class_index: int):
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=(rep, class_index))
    )


def _rep_stream(base_seed: int, rep: int):
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(rep,)))


def _class_arrivals(cls, rng, horizon: float):
    """Arrival times, valuations, and durations for one class on [0, horizon].

    Draws depend only on the stream and horizon, never on prices or routing,
    so common-random-number comparisons stay paired.
    """
    lam = cls.arrival_rate
    if lam <= 0.0:
        empty = np.empty(0)
        return empty, empty, empty
    expected = lam * horizon
    block = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    times = np.cumsum(rng.exponential(1.0 / lam, block))
    while times[-1] < horizon:
        more = np.cumsum(rng.exponential(1.0 / lam, block))
        times = np.concatenate([times, times[-1] + more])
    n = int(np.searchsorted(times, horizon, side="right"))
    times = times[:n]
    valuations = np.asarray(cls.valuation.sample(rng, n), dtype=float)
    durations = np.asarray(cls.duration.sample(rng, n), dtype=float)
    return times, valuations, durations


def _merged_events(scenario: Scenario, base_seed: int, rep: int, horizon: float):
    """Time-ordered (time, class, valuation, duration) arrays for one replication."""
    all_t, all_k, all_v, all_d = [], [], [], []
    for k, cls in enumerate(scenario.classes):
        rng = _class_stream(base_seed, rep, k)
        t, v, d = _class_arrivals(cls, rng, horizon)
        all_t.append(t)
        all_k.append(np.full(t.size, k, dtype=int))
        all_v.append(v)
        all_d.append(d)
    if len(all_t) == 1:  # one class is drawn in time order
        return all_t[0], all_k[0], all_v[0], all_d[0]
    times = np.concatenate(all_t) if all_t else np.empty(0)
    order = np.argsort(times, kind="stable")
    return (
        times[order],
        np.concatenate(all_k)[order],
        np.concatenate(all_v)[order],
        np.concatenate(all_d)[order],
    )


def _loss_accepts(times, ends, cut=None) -> np.ndarray:
    """Indices of the jobs a loss-system worker takes, starting idle.

    `times` are the sorted arrival times of the jobs the worker would take
    and `ends` their completion times. The job after job i is the first
    arrival at or after ends[i], capped at cut[i] when `cut` is given. A job
    whose end rounds to its start (t + d == t) frees the worker for the next
    arrival, even one at the same instant.

    The successors form a forest whose roots sit at n, and the accepted jobs
    are the path from job 0 to its root. Pointer doubling finds that path:
    while `path` holds the first 2**k jobs on it, `jump` is the 2**k-th
    successor, so jump[path] holds the next 2**k, and squaring the table
    doubles the stride. Each pass appends in path order, so `path` stays
    sorted. It takes about log2(accepted) passes over the table.
    """
    n = times.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    jump = np.empty(n + 1, dtype=np.intp)
    jump[:n] = np.searchsorted(times, ends, "left")
    if cut is not None:
        np.minimum(jump[:n], cut, out=jump[:n])
    np.maximum(jump[:n], np.arange(1, n + 1), out=jump[:n])
    jump[n] = n
    path = np.zeros(1, dtype=np.intp)
    while True:
        step = jump[path]
        inside = step[:np.searchsorted(step, n)]
        path = np.concatenate((path, inside))
        if inside.size < step.size:  # a step reached the root
            return path
        jump = jump[jump]


def _running_sum(terms) -> float:
    """Left-to-right sum from 0.0, as a running total adds it up: np.sum
    pairs terms, which can change the last bit, and would keep the sign of
    an all -0.0 sum (a job priced below cost inside the warm-up)."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _earnings(margins, starts, ends, warm: float, horizon: float) -> float:
    """Earnings over [warm, horizon] of jobs busy on [starts, ends), in order."""
    overlap = np.maximum(0.0, np.minimum(ends, horizon) - np.maximum(starts, warm))
    return _running_sum(margins * overlap)


def _rank_order(workers) -> list[int]:
    return sorted(range(len(workers)), key=lambda w: workers[w].rank)


def _serve(events, ends, free, row, cost: float, warm: float, horizon: float):
    """The arrivals one worker posting `row` takes among those still `free`,
    and its earnings over [warm, horizon]."""
    times, ks, vs, _ = events
    prices = np.asarray(row)[ks]
    offered = np.flatnonzero(free & (prices <= vs))
    taken = offered[_loss_accepts(times[offered], ends[offered])]
    return taken, _earnings(prices[taken] - cost, times[taken], ends[taken], warm, horizon)


def _loss_rep(events, workers, matrix, warm: float, horizon: float):
    """One replication of the loss system under best-affordable-worker choice.

    Returns each worker's earnings over [warm, horizon], the replication's
    counts, the chosen worker per arrival (-1 when lost) and the mask of
    arrivals priced out by every worker.
    """
    times, ks, vs, ds = events
    ends = times + ds
    chosen = np.full(times.size, -1, dtype=np.intp)
    free = np.ones(times.size, dtype=bool)
    earned = [0.0] * len(workers)
    for i in _rank_order(workers):
        taken, earned[i] = _serve(events, ends, free, matrix[i], workers[i].cost,
                                  warm, horizon)
        free[taken] = False
        chosen[taken] = i
    lost_price = vs < np.min(np.asarray(matrix), axis=0)[ks]
    n_acc = int(np.count_nonzero(chosen >= 0))
    n_price = int(np.count_nonzero(lost_price))
    counts = Counts(times.size, n_acc, times.size - n_acc - n_price, n_price)
    return earned, counts, chosen, lost_price


def _write_trace(path: str, events, chosen, lost_price) -> None:
    """Per-event CSV of one replication, in arrival order, written row by row
    in the bytes csv.writer would give. The file's directory is made here, so
    a run whose inputs fail makes none."""
    times, ks, vs, _ = events
    rows = zip(map(repr, times.tolist()), ks.tolist(), map(repr, vs.tolist()),
               chosen.tolist(), lost_price.tolist())
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("time,event,class,worker,value\r\n")
        fh.writelines(
            f"{t},accept,{k},{w},{v}\r\n" if w >= 0
            else f"{t},{'lost_price' if priced_out else 'lost_busy'},{k},,{v}\r\n"
            for t, k, v, w, priced_out in rows
        )


def _no_trace(config: SimConfig, model: str) -> None:
    if config.trace_path is not None:
        raise ConfigError(f"event traces cover loss systems only, not {model} runs")


def _check_matrix(scenario: Scenario, prices) -> list:
    """The rows of a fleet's price matrix, checked for shape only."""
    n, k = len(scenario.workers), scenario.num_classes
    try:
        if len(prices) == n and all(len(row) == k for row in prices):
            return list(prices)
    except TypeError:
        pass
    raise ConfigError(f"expected a {n}x{k} price matrix, one row per worker")


def _loss_matrix(scenario: Scenario, prices, op: str) -> list[tuple[float, ...]]:
    """The validated price matrix, one row per worker, of a loss-system run."""
    scenario.require(op, "loss", "fleet")
    if scenario.kind == "loss":
        return [check_prices(scenario, prices)]
    if scenario.choice != "ranked":
        raise ConfigError("fleet simulation needs distinct quality ranks")
    return [check_prices(scenario, row) for row in _check_matrix(scenario, prices)]


def simulate(config: SimConfig, prices) -> SimStats:
    """Simulate the loss system: a lone worker, or a ranked fleet under
    best-affordable-worker choice. Returns rate statistics over replications."""
    scenario = config.scenario
    matrix = _loss_matrix(scenario, prices, "simulate")
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    span = horizon - warm

    rep_totals = []
    worker_reps: list[list[float]] = [[] for _ in scenario.workers]
    counts = Counts()
    for rep in range(config.replications):
        events = _merged_events(scenario, config.base_seed, rep, horizon)
        earned, rep_counts, chosen, lost_price = _loss_rep(
            events, scenario.workers, matrix, warm, horizon
        )
        if rep == 0 and config.trace_path is not None:
            _write_trace(config.trace_path, events, chosen, lost_price)
        counts += rep_counts
        rates = [e / span for e in earned]
        for i, r in enumerate(rates):
            worker_reps[i].append(r)
        rep_totals.append(sum(rates))
    return _stats(
        "rate",
        rep_totals,
        counts,
        per_worker_reps=tuple(tuple(row) for row in worker_reps),
    )


def simulate_discounted(config: SimConfig, prices) -> SimStats:
    """Estimate discounted earnings from an idle start for a lone worker,
    at the scenario's own discount.

    Each replication chops its horizon into windows of 40 inverse discount
    rates. Poisson arrivals over disjoint intervals are independent, so every
    window restarted idle is a fresh draw of the idle-start value (the weight
    past a window end is below 5e-18); the replication reports the window
    mean. A discounted scenario discounts every replication at its rate. A
    mixture draws its branch rate per replication, and each replication is
    weighted by its branch rate so the estimate targets the same
    branch-rate-weighted objective as mixture_horizon_value.
    """
    scenario = config.scenario
    scenario.require("simulate_discounted", "discounted", "mixture")
    _no_trace(config, "discounted")
    price_arr = np.asarray(check_prices(scenario, prices))
    cost = scenario.workers[0].cost
    base = Scenario(classes=scenario.classes, workers=scenario.workers)
    budget = config.horizon_hours()

    rep_values = []
    counts = Counts()
    discount = scenario.discount
    mixture = scenario.kind == "mixture"
    for rep in range(config.replications):
        if mixture:
            aux = _rep_stream(config.base_seed, rep)
            g = float(aux.choice(np.asarray(discount.rates), p=np.asarray(discount.weights)))
        else:
            g = float(discount.rate)
        window = min(_DISCOUNT_SPAN / g, budget)
        windows = budget / window
        if not windows < _MAX_WINDOWS:
            raise ConfigError(f"discount rate {g!r} cuts the {budget!r}-hour horizon into "
                              f"{windows!r} windows, more than int64 can number")
        n_win = max(1, int(windows))
        times, ks, vs, ds = _merged_events(base, config.base_seed, rep, n_win * window)
        wins = (times / window).astype(np.int64)
        # an arrival at the horizon can fall in window n_win; it is not simulated
        n_arr = int(np.searchsorted(wins, n_win, "left"))
        job_prices = price_arr[ks[:n_arr]]
        fits = np.flatnonzero(~(vs[:n_arr] < job_prices))
        t, w = times[fits], wins[fits]
        taken = _loss_accepts(t, t + ds[fits], cut=np.searchsorted(w, w, "right"))
        jobs = fits[taken]
        local = times[jobs] - wins[jobs] * window
        # math.exp, not np.exp: numpy's SIMD exp can differ from libm's in the last bit
        head = np.array(list(map(math.exp, (-g * local).tolist())))
        tail = np.array(list(map(math.exp, (-g * (local + ds[jobs])).tolist())))
        value = _running_sum((price_arr[ks[jobs]] - cost) * (head - tail) / g)
        n_price = n_arr - fits.size
        counts += Counts(n_arr, taken.size, n_arr - taken.size - n_price, n_price)
        mean_value = value / n_win
        rep_values.append(g * mean_value if mixture else mean_value)
    return _stats("value", rep_values, counts)


def simulate_queue(config: SimConfig, price_a: float, price_b: float) -> SimStats:
    """Simulate the two-class system with one waiting spot.

    An arrival finding the worker busy waits only if nobody else is waiting;
    the waiting job starts when the current one ends.
    """
    scenario = config.scenario
    _, _, cost = queue_parts(scenario, "simulate_queue")
    _no_trace(config, "queue")
    price_arr = np.asarray(check_prices(scenario, (price_a, price_b)))
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    span = horizon - warm

    rep_rates = []
    counts = Counts()
    for rep in range(config.replications):
        times, ks, vs, ds = _merged_events(scenario, config.base_seed, rep, horizon)
        # A priced-out arrival changes no state, and a waiting job starts at
        # service_end whichever arrival comes next, so the loop skips them.
        # It records which affordable arrivals start, in start order, and when.
        fits = np.flatnonzero(~(vs < price_arr[ks]))
        durs = ds[fits].tolist()
        order: list[int] = []
        starts: list[float] = []
        service_end = 0.0
        pending = -1
        n_busy = 0
        for i, t in enumerate(times[fits].tolist()):
            if pending >= 0 and service_end <= t:
                order.append(pending)
                starts.append(service_end)
                service_end += durs[pending]
                pending = -1
            if service_end <= t:
                order.append(i)
                starts.append(t)
                service_end = t + durs[i]
            elif pending < 0:
                pending = i
            else:
                n_busy += 1
        if pending >= 0:
            order.append(pending)
            starts.append(service_end)
        jobs = fits[order]
        start = np.array(starts)
        earned = _earnings(price_arr[ks[jobs]] - cost, start, start + ds[jobs],
                           warm, horizon)
        n_arr, n_price = times.size, times.size - fits.size
        assert jobs.size + n_busy + n_price == n_arr
        counts += Counts(n_arr, jobs.size, n_busy, n_price)
        rep_rates.append(earned / span)
    return _stats("rate", rep_rates, counts)


@dataclass(frozen=True)
class DeviationPoint:
    """One scan point: the candidate price and its simulated gain over baseline."""

    price: float
    mean: float
    se: float
    delta: float
    delta_se: float
    significant_improvement: bool


@dataclass(frozen=True)
class DeviationScanReport:
    worker_index: int
    baseline_price: float
    baseline_mean: float
    baseline_se: float
    z_threshold: float
    points: tuple[DeviationPoint, ...]

    @property
    def any_significant(self) -> bool:
        return any(p.significant_improvement for p in self.points)


def deviation_scan(config: SimConfig, equilibrium_prices, worker_index: int,
                   price_grid=None) -> DeviationScanReport:
    """Re-simulate with one worker's price swept over a grid, everyone else fixed.

    Every scan point reuses the baseline's seed, so candidate and baseline see
    identical arrival, valuation, and duration draws (the per-replication
    streams are drawn independently of prices). Each delta is therefore a
    paired comparison: the per-replication differences of the scanned worker's
    rate, with a one-sample standard error. A point counts as a significant
    improvement when its simultaneous 95% interval sits above zero:
    delta > z * SE with z Bonferroni-adjusted across the grid (a single-point
    grid gives the usual 1.96). Single-class scenarios only.
    """
    scenario = config.scenario
    if scenario.num_classes != 1:
        raise ModelMismatch("deviation_scan supports single-class scenarios")
    if config.replications < 2:
        raise ConfigError("deviation_scan needs at least two replications")
    matrix = _loss_matrix(scenario, equilibrium_prices, "deviation_scan")
    if not 0 <= worker_index < len(scenario.workers):
        raise ConfigError(f"no worker at index {worker_index}")
    base_price = matrix[worker_index][0]
    if price_grid is None:
        price_grid = np.linspace(0.8 * base_price, 1.2 * base_price, 21)
    candidates = [check_prices(scenario, (p,)) for p in price_grid]
    if not candidates:
        raise ConfigError("deviation_scan needs at least one grid price")
    price_grid = [row[0] for row in candidates]
    z = NormalDist().inv_cdf(1.0 - 0.025 / len(price_grid))
    rows = [matrix[worker_index], *candidates]
    order = _rank_order(scenario.workers)
    above = order[:order.index(worker_index)]
    cost = scenario.workers[worker_index].cost

    # One replication's events at a time, shared by the baseline and every
    # candidate: the same draws simulate() would make for each of them. The
    # scanned worker's earnings depend only on the arrivals the workers ranked
    # above it leave free, which no candidate price changes, so that prefix of
    # the rank cascade runs once per replication and the workers ranked below
    # it not at all.
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    span = horizon - warm
    rates: list[list[float]] = [[] for _ in rows]
    for rep in range(config.replications):
        events = _merged_events(scenario, config.base_seed, rep, horizon)
        if rep == 0 and config.trace_path is not None:
            _, _, chosen, lost_price = _loss_rep(
                events, scenario.workers, matrix, warm, horizon
            )
            _write_trace(config.trace_path, events, chosen, lost_price)
        ends = events[0] + events[3]
        free = np.ones(ends.size, dtype=bool)
        for i in above:
            taken, _ = _serve(events, ends, free, matrix[i], scenario.workers[i].cost,
                              warm, horizon)
            free[taken] = False
        for j, row in enumerate(rows):
            _, earned = _serve(events, ends, free, row, cost, warm, horizon)
            rates[j].append(earned / span)

    base_mean, base_se = _mean_se(rates[0])
    base_reps = np.asarray(rates[0])
    points = []
    for candidate, row in zip(price_grid, rates[1:]):
        mean, se = _mean_se(row)
        deltas = np.asarray(row) - base_reps
        delta = float(deltas.mean())
        delta_se = float(deltas.std(ddof=1) / math.sqrt(deltas.size))
        points.append(
            DeviationPoint(
                price=candidate,
                mean=mean,
                se=se,
                delta=delta,
                delta_se=delta_se,
                significant_improvement=delta > z * delta_se,
            )
        )
    return DeviationScanReport(
        worker_index=worker_index,
        baseline_price=base_price,
        baseline_mean=base_mean,
        baseline_se=base_se,
        z_threshold=z,
        points=tuple(points),
    )
