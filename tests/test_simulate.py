import csv
import importlib
import math
import os
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from ondemand_pricing import (
    ConfigError,
    CustomerClass,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    MixtureDiscount,
    ModelMismatch,
    NonFiniteRate,
    PiecewiseLinearValuation,
    Scenario,
    SimConfig,
    UniformValuation,
    WorkerSpec,
    deviation_scan,
    discounted_value,
    mixture_horizon_optimize,
    mixture_horizon_value,
    queue_optimize,
    queue_rate,
    ranked_price_equilibrium,
    simulate,
    simulate_discounted,
    simulate_queue,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing import cli
from ondemand_pricing.competition import _ranked_solution
from ondemand_pricing.config import load_scenario
from ondemand_pricing.simulate import (
    _NEAR,
    Counts,
    DeviationPoint,
    DeviationScanReport,
    _class_arrivals,
    _finite_mean_se,
    _loss_accepts,
    _mean_se,
    _offered_events,
    _queue_rep,
    _run_ends,
    _stats,
    _stream,
    _write_trace,
)
from tests.conftest import queue_scenario, unit_uniform_class

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the module, which the package's `simulate` function shadows as an attribute
simulate_module = importlib.import_module("ondemand_pricing.simulate")


def merged_events(scenario, base_seed, rep, horizon):
    """Every arrival of one replication, as time-ordered (time, class,
    valuation, duration) arrays: each class's full draw, laid end to end in
    class order and stably sorted by time."""
    parts = [_class_arrivals(cls, _stream(base_seed, rep, k), horizon, -math.inf)[0]
             for k, cls in enumerate(scenario.classes)]
    times, vs, ds = (np.concatenate([part[i] for part in parts]) for i in range(3))
    ks = np.repeat(np.arange(len(parts)), [part[0].size for part in parts])
    order = np.argsort(times, kind="stable")
    return times[order], ks[order], vs[order], ds[order]


def small_config(scenario, **kw):
    args = dict(expected_arrivals=30_000.0, replications=12, base_seed=4242)
    args.update(kw)
    return SimConfig(scenario=scenario, **args)


def test_simulation_is_deterministic(two_class_scenario):
    prices = solve_fixed_point(two_class_scenario).prices
    a = simulate(small_config(two_class_scenario), prices)
    b = simulate(small_config(two_class_scenario), prices)
    assert a == b
    c = simulate(small_config(two_class_scenario, base_seed=7), prices)
    assert c.mean != a.mean


def test_event_conservation(two_class_scenario):
    stats = simulate(small_config(two_class_scenario), (0.6, 1.1))
    counts = stats.counts
    assert counts.arrivals == counts.accepted + counts.lost_busy + counts.lost_price
    assert counts.arrivals > 0


def test_choke_prices_earn_nothing(two_class_scenario):
    stats = simulate(small_config(two_class_scenario), (1.0, 2.0))
    assert stats.mean == 0.0
    assert stats.counts.accepted == 0
    assert stats.counts.lost_price == stats.counts.arrivals


def test_loss_simulation_matches_analytic(two_class_scenario):
    sol = solve_fixed_point(two_class_scenario)
    stats = simulate(small_config(two_class_scenario), sol.prices)
    assert abs(stats.mean - sol.rate) < 3.0 * stats.se
    assert stats.kind == "rate"
    assert stats.ci_low < sol.rate < stats.ci_high


def test_rate_variance_scales_like_renewal_theory(single_class_scenario):
    # doubling the horizon should roughly halve the replication variance
    short = SimConfig(scenario=single_class_scenario, expected_arrivals=4_000.0,
                      replications=100, base_seed=99)
    long = SimConfig(scenario=single_class_scenario, expected_arrivals=8_000.0,
                     replications=100, base_seed=99)
    v_short = np.var(simulate(short, (0.5,)).rep_values, ddof=1)
    v_long = np.var(simulate(long, (0.5,)).rep_values, ddof=1)
    assert 0.3 <= v_long / v_short <= 0.7


def test_discounted_simulation_matches_analytic(discounted_scenario):
    sol = solve_discounted(discounted_scenario)
    stats = simulate_discounted(small_config(discounted_scenario), sol.prices)
    assert stats.kind == "value"
    assert abs(stats.mean - sol.value) < 3.0 * stats.se


def test_discounted_steep_rate_earns_almost_nothing(single_class_scenario):
    steep = replace(single_class_scenario, discount=ExponentialDiscount(1000.0))
    stats = simulate_discounted(
        small_config(steep, expected_arrivals=10_000.0, replications=6),
        (0.55,),
    )
    # almost no time to earn anything before the weight dies
    assert stats.mean < 1e-4


def test_mixture_simulation_matches_objective(mixture_scenario):
    prices, value = mixture_horizon_optimize(mixture_scenario)
    stats = simulate_discounted(small_config(mixture_scenario), prices)
    assert abs(stats.mean - value) < 3.0 * stats.se
    assert value == pytest.approx(mixture_horizon_value(mixture_scenario, prices), abs=1e-12)


def test_queue_simulation_matches_closed_form():
    scn = queue_scenario(0.5)
    (pa, pb), rate = queue_optimize(scn)
    stats = simulate_queue(small_config(scn), pa, pb)
    assert abs(stats.mean - rate) < 3.0 * stats.se
    assert stats.counts.lost_busy > 0


def test_queue_simulation_choke_prices():
    scn = queue_scenario(0.5)
    stats = simulate_queue(small_config(scn, expected_arrivals=5_000.0), 1.0, 1.0)
    assert stats.mean == 0.0
    assert stats.counts.accepted == 0


def test_queue_buffer_admits_exactly_one_waiter():
    # with an always-affordable price the loss counts must reflect one buffer slot
    scn = queue_scenario(1.0)
    stats = simulate_queue(small_config(scn, expected_arrivals=20_000.0), 0.0, 0.0)
    counts = stats.counts
    assert counts.lost_price == 0
    assert counts.lost_busy > 0
    assert counts.accepted + counts.lost_busy == counts.arrivals


def test_fleet_top_worker_identical_to_solo(ranked_fleet_scenario):
    # the best-ranked worker never sees the others, so its replication rates
    # must match a single-worker run draw for draw
    prices = ((0.6,), (0.4,))
    fleet_stats = simulate(small_config(ranked_fleet_scenario), prices)
    solo = Scenario(classes=ranked_fleet_scenario.classes, workers=(WorkerSpec(rank=1),))
    solo_stats = simulate(small_config(solo), (0.6,))
    assert fleet_stats.per_worker_reps[0] == solo_stats.rep_values
    assert fleet_stats.mean == pytest.approx(
        sum(np.mean(r) for r in fleet_stats.per_worker_reps), abs=1e-12
    )


def test_fleet_needs_distinct_ranks(undifferentiated_scenario):
    with pytest.raises(ConfigError):
        simulate(small_config(undifferentiated_scenario), ((0.5,), (0.5,)))


def test_model_shape_guards(two_class_scenario, discounted_scenario):
    queued = queue_scenario(0.5)
    with pytest.raises(ModelMismatch):
        simulate(small_config(queued), (0.5, 0.5))
    with pytest.raises(ModelMismatch):
        simulate(small_config(discounted_scenario), (0.5,))
    with pytest.raises(ModelMismatch):
        simulate_queue(small_config(two_class_scenario), 0.5, 0.5)
    with pytest.raises(ConfigError):
        simulate(small_config(two_class_scenario), (0.5,))


def test_config_validation(single_class_scenario):
    with pytest.raises(ConfigError):
        SimConfig(scenario=single_class_scenario, replications=0)
    with pytest.raises(ConfigError):
        SimConfig(scenario=single_class_scenario, warmup_fraction=0.9)
    with pytest.raises(ConfigError):
        SimConfig(scenario=single_class_scenario, expected_arrivals=math.inf).horizon_hours()
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        SimConfig(scenario=single_class_scenario, base_seed=-1)
    bare = SimConfig(scenario=single_class_scenario, expected_arrivals=500.0)
    assert bare.horizon_hours() == pytest.approx(500.0)


def test_stats_to_dict(two_class_scenario):
    stats = simulate(small_config(two_class_scenario, expected_arrivals=2_000.0,
                                  replications=3), (0.7, 1.2))
    doc = stats.to_dict()
    assert doc["kind"] == "rate"
    assert doc["replications"] == 3
    assert len(doc["rep_values"]) == 3
    assert set(doc["counts"]) == {"arrivals", "accepted", "lost_busy", "lost_price"}


def reference_mean_se(values):
    """The mean and SE as they were first computed, with no scaling."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


ORDINARY_VALUES = [
    [0.25],
    [0.0, -0.0],
    [1.0, 2.0],
    [-3.5, 1e-300, 7.25],
    [2.0**500, -(2.0**500), 1.0],
    *(np.random.default_rng(seed).normal(scale, scale, 30)
      for seed, scale in enumerate((1e-5, 1.0, 1e100, 1e150), start=1)),
    [2.0**-500, -(2.0**-500), 1e-300],
    [0.0, 0.0, 0.0],
    [-7.5],
]


def assert_rows_match(values, want):
    """_mean_se of `values`, stacked as a row of a matrix beside an ordinary
    row (before it and after it), gives `want` for that row by float.hex,
    and the ordinary row its own result."""
    values = np.asarray(values, dtype=float)
    ordinary = np.random.default_rng(values.size).normal(1.0, 0.5, values.size)
    hexed = tuple(x.hex() for x in want)
    for rows, at in [((ordinary, values), 1), ((values, ordinary), 0)]:
        means, ses = _mean_se(np.stack(rows))
        assert (means[at].hex(), ses[at].hex()) == hexed
        assert (means[1 - at], ses[1 - at]) == reference_mean_se(ordinary)


@pytest.mark.parametrize("values", ORDINARY_VALUES)
def test_mean_se_on_ordinary_values_is_unchanged(values):
    got = _mean_se(values)
    assert tuple(x.hex() for x in got) == tuple(x.hex() for x in reference_mean_se(values))
    assert_rows_match(values, got)


@pytest.mark.parametrize("shift", [501, 700, 1000])
def test_mean_se_of_huge_values_scales_exactly(shift):
    values = np.random.default_rng(shift).normal(1.0, 0.5, 30)
    mean, se = reference_mean_se(values)
    got = _mean_se(np.ldexp(values, shift))
    assert got == (float(np.ldexp(mean, shift)), float(np.ldexp(se, shift)))
    assert all(math.isfinite(x) for x in got)
    assert_rows_match(np.ldexp(values, shift), got)
    # one huge value alone: n = 1
    assert_rows_match(np.ldexp(values[:1], shift), _mean_se(np.ldexp(values[:1], shift)))


TINY_VALUES = [
    # near 1e-300, where the squares of the deviations underflow to 0 unscaled
    np.random.default_rng(0).normal(1e-300, 1e-300, 30),
    *(np.ldexp(np.random.default_rng(shift).normal(1.0, 0.5, 30), -shift)
      for shift in (501, 700, 1000)),
]


@pytest.mark.parametrize("values", TINY_VALUES, ids=["1e-300", "-501", "-700", "-1000"])
def test_mean_se_of_tiny_values_scales_exactly(values):
    mean, se = reference_mean_se(np.ldexp(values, 1000))
    got = _mean_se(values)
    assert got == (float(np.ldexp(mean, -1000)), float(np.ldexp(se, -1000)))
    assert got[1] > 0.0
    assert_rows_match(values, got)


def test_mean_se_of_values_near_the_float_limit_is_finite():
    big = np.finfo(float).max
    mean, se = _mean_se([big, big, -big, big])
    assert mean == big / 2
    assert math.isfinite(se) and se > 0.0
    assert_rows_match([big, big, -big, big], (mean, se))
    assert _mean_se([1.0, math.inf])[0] == math.inf
    # a row of inf and NaN leaves the rows beside it as they are
    assert_rows_match([1.0, math.inf], _mean_se([1.0, math.inf]))
    assert_rows_match([math.nan, 2.0], _mean_se([math.nan, 2.0]))


def test_finite_mean_se_refuses_the_first_non_finite_row():
    rows = [[1.0, 2.0], [3.0, math.inf], [math.nan, 1.0]]
    with pytest.raises(NonFiniteRate, match=r"^simulated b is not finite: mean inf, SE nan$"):
        _finite_mean_se(["a", "b", "c"], rows)
    with pytest.raises(NonFiniteRate, match=r"^simulated c is not finite: mean nan, SE nan$"):
        _finite_mean_se(["a", "b", "c"], [rows[0], rows[0], rows[2]])
    means, ses = _finite_mean_se(["a", "b"], [rows[0], [5.0, 5.0]])
    assert (means, ses) == ([1.5, 5.0], [0.5, 0.0])
    assert all(type(x) is float for x in means + ses)


def test_event_trace_written(tmp_path, two_class_scenario):
    path = tmp_path / "events.csv"
    cfg = small_config(two_class_scenario, expected_arrivals=500.0, replications=2)
    simulate(cfg, (0.7, 1.2), trace_path=str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["time", "event", "class", "worker", "value"]
    events = {r[1] for r in rows[1:]}
    assert events <= {"accept", "lost_busy", "lost_price"}
    assert "accept" in events
    times = [float(r[0]) for r in rows[1:]]
    assert times == sorted(times)


def scan_config(scenario):
    return SimConfig(scenario=scenario, expected_arrivals=8_000.0,
                     replications=10, base_seed=314)


def test_deviation_scan_peak_near_optimum(single_class_scenario):
    sol = solve_fixed_point(single_class_scenario)
    report = deviation_scan(scan_config(single_class_scenario), sol.prices, 0,
                            price_grid=np.linspace(0.8 * sol.prices[0],
                                                   1.2 * sol.prices[0], 11))
    best = max(report.points, key=lambda pt: pt.mean)
    step = 0.04 * sol.prices[0]
    assert abs(best.price - sol.prices[0]) <= 2 * step + 1e-12
    assert not report.any_significant


def test_deviation_scan_flags_mispricing(single_class_scenario):
    sol = solve_fixed_point(single_class_scenario)
    low = (0.8 * sol.prices[0],)
    report = deviation_scan(scan_config(single_class_scenario), low, 0,
                            price_grid=np.linspace(0.8 * low[0], 1.2 * low[0], 11))
    # scanning up toward the true optimum must reveal a significant gain
    assert report.any_significant


def test_deviation_scan_guards(two_class_scenario, single_class_scenario):
    with pytest.raises(ModelMismatch):
        deviation_scan(scan_config(two_class_scenario), (0.7, 1.2), 0)
    with pytest.raises(ConfigError):
        deviation_scan(scan_config(single_class_scenario), (0.5,), 3)


# --- bit identity with the per-event loops ---
# The simulators step through accepted jobs only. These are the per-event
# loops they replaced, kept as references: same draws, same float operations
# in the same order, so every statistic and every trace byte must match.


def reference_simulate(config, prices, trace_path=None):
    scenario = config.scenario
    if len(scenario.workers) == 1:
        matrix = [[float(p) for p in prices]]
    else:
        matrix = [[float(p) for p in row] for row in prices]
    order = sorted(range(len(scenario.workers)), key=lambda i: scenario.workers[i].rank)
    costs = [w.cost for w in scenario.workers]
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    span = horizon - warm
    rep_totals = []
    worker_reps = [[] for _ in scenario.workers]
    counts = Counts()
    trace = open(trace_path, "w", newline="") if trace_path else None
    log = csv.writer(trace) if trace else None
    if log:
        log.writerow(["time", "event", "class", "worker", "value"])
    for rep in range(config.replications):
        events = [a.tolist() for a in merged_events(scenario, config.base_seed, rep, horizon)]
        row = log.writerow if log and rep == 0 else (lambda r: None)
        busy_until = [0.0] * len(scenario.workers)
        earned = [0.0] * len(scenario.workers)
        n_arr = n_acc = n_busy = n_price = 0
        for t, k, v, d in zip(*events):
            n_arr += 1
            if v < min(matrix[i][k] for i in range(len(matrix))):
                n_price += 1
                row([repr(t), "lost_price", k, "", repr(v)])
                continue
            chosen = None
            for i in order:
                if busy_until[i] <= t and matrix[i][k] <= v:
                    chosen = i
                    break
            if chosen is None:
                n_busy += 1
                row([repr(t), "lost_busy", k, "", repr(v)])
                continue
            n_acc += 1
            busy_until[chosen] = t + d
            overlap = max(0.0, min(t + d, horizon) - max(t, warm))
            earned[chosen] += (matrix[chosen][k] - costs[chosen]) * overlap
            row([repr(t), "accept", k, chosen, repr(v)])
        counts += Counts(n_arr, n_acc, n_busy, n_price)
        rates = [e / span for e in earned]
        for i, r in enumerate(rates):
            worker_reps[i].append(r)
        rep_totals.append(sum(rates))
    if trace:
        trace.close()
    return _stats("rate", rep_totals, counts,
                  per_worker_reps=tuple(tuple(row) for row in worker_reps))


def reference_simulate_discounted(config, prices):
    scenario = config.scenario
    mix = scenario.discount if isinstance(scenario.discount, MixtureDiscount) else None
    gamma = None if mix is not None else scenario.discount.rate
    price_list = [float(p) for p in prices]
    cost = scenario.workers[0].cost
    base = Scenario(classes=scenario.classes, workers=scenario.workers)
    budget = config.horizon_hours()
    rep_values = []
    counts = Counts()
    for rep in range(config.replications):
        if mix is not None:
            aux = np.random.default_rng(np.random.SeedSequence(config.base_seed, spawn_key=(rep,)))
            g = float(aux.choice(np.asarray(mix.rates), p=np.asarray(mix.weights)))
        else:
            g = float(gamma)
        window = min(40.0 / g, budget)
        n_win = max(1, int(budget / window))
        events = [a.tolist() for a in merged_events(base, config.base_seed, rep,
                                                     n_win * window)]
        busy_until = 0.0
        busy_win = -1
        value = 0.0
        n_arr = n_acc = n_busy = n_price = 0
        for t, k, v, d in zip(*events):
            w = int(t / window)
            if w >= n_win:
                break
            n_arr += 1
            if v < price_list[k]:
                n_price += 1
                continue
            if busy_until > t and busy_win == w:
                n_busy += 1
                continue
            n_acc += 1
            busy_until = t + d
            busy_win = w
            local = t - w * window
            value += (price_list[k] - cost) * (math.exp(-g * local)
                                               - math.exp(-g * (local + d))) / g
        counts += Counts(n_arr, n_acc, n_busy, n_price)
        mean_value = value / n_win
        rep_values.append(g * mean_value if mix is not None else mean_value)
    return _stats("value", rep_values, counts)


def reference_queue_rep(times, ks, ds, prices, cost, warm, horizon):
    """_queue_rep's earnings, served and lost-busy counts, one event at a time."""
    earned, service_end, pending = 0.0, 0.0, None
    n_served = n_busy = 0
    prices = prices.tolist()

    def start_job(k, start, dur):
        nonlocal earned, n_served, n_busy
        if math.isnan(start + dur):  # never served, nor is any job after it
            n_busy += 1
            return start + dur
        earned += (prices[k] - cost) * max(0.0, min(start + dur, horizon) - max(start, warm))
        n_served += 1
        return start + dur

    for t, k, d in zip(times.tolist(), ks.tolist(), ds.tolist()):
        if pending is not None and service_end <= t:
            service_end = start_job(pending[0], service_end, pending[1])
            pending = None
        if service_end <= t:
            service_end = start_job(k, t, d)
        elif pending is None:
            pending = (k, d)
        else:
            n_busy += 1
    if pending is not None:
        start_job(pending[0], service_end, pending[1])
    return earned, n_served, n_busy


def reference_simulate_queue(config, price_a, price_b):
    scenario = config.scenario
    cost = scenario.workers[0].cost
    prices = np.array([float(price_a), float(price_b)])
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    span = horizon - warm

    rep_rates = []
    counts = Counts()
    for rep in range(config.replications):
        times, ks, vs, ds = merged_events(scenario, config.base_seed, rep, horizon)
        fits = np.flatnonzero(~(vs < prices[ks]))
        n_arr, n_price = times.size, times.size - fits.size
        earned, n_acc, n_busy = reference_queue_rep(times[fits], ks[fits], ds[fits], prices,
                                                    cost, warm, horizon)
        assert n_acc + n_busy + n_price == n_arr
        counts += Counts(n_arr, n_acc, n_busy, n_price)
        rep_rates.append(earned / span)
    return _stats("rate", rep_rates, counts)


def assert_same_stats(got, want):
    assert got == want
    assert repr(got) == repr(want)  # also tells 0.0 from -0.0


def mixed_classes(k):
    laws = (
        (UniformValuation(0.0, 1.0), ExponentialDuration(1.0)),
        (ExponentialValuation(2.0), DeterministicDuration(0.3)),
        (PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.6), (1.5, 1.0))),
         EmpiricalDuration((0.1, 0.25, 0.25, 1.5))),
        (UniformValuation(0.2, 2.0), ExponentialDuration(3.0)),
    )
    return tuple(CustomerClass(arrival_rate=0.5 + 0.4 * i, valuation=v, duration=d)
                 for i, (v, d) in enumerate(laws[:k]))


LOSS_CASES = {
    "one_class": (Scenario(classes=mixed_classes(1)), (0.45,)),
    "two_classes": (Scenario(classes=mixed_classes(2)), (0.6, 0.3)),
    "three_classes": (Scenario(classes=mixed_classes(3)), (0.5, 0.4, 0.7)),
    "four_classes": (Scenario(classes=mixed_classes(4), workers=(WorkerSpec(cost=0.1),)),
                     (0.5, 0.4, 0.7, 0.9)),
    "choke_prices": (Scenario(classes=mixed_classes(2)), (1.0, 1e9)),
    "fleet_two": (
        Scenario(classes=mixed_classes(2),
                 workers=(WorkerSpec(rank=2, cost=0.05), WorkerSpec(rank=1))),
        ((0.3, 0.2), (0.6, 0.5)),
    ),
    "fleet_three_zero_rate_class": (
        Scenario(classes=(*mixed_classes(2),
                          CustomerClass(arrival_rate=0.0, valuation=UniformValuation(0.0, 1.0),
                                        duration=ExponentialDuration(1.0))),
                 workers=(WorkerSpec(rank=3), WorkerSpec(rank=1, cost=0.1),
                          WorkerSpec(rank=2))),
        ((0.1, 0.05, 0.2), (0.7, 0.4, 0.5), (0.4, 0.2, 0.3)),
    ),
    # t + d rounds to t, so the worker is free again at the same instant
    "duration_below_ulp": (
        Scenario(classes=(CustomerClass(arrival_rate=2.0, valuation=UniformValuation(0.0, 1.0),
                                        duration=DeterministicDuration(1e-300)),
                          *mixed_classes(1))),
        (0.3, 0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(LOSS_CASES))
def test_loss_kernel_matches_event_loop(tmp_path, case):
    scenario, prices = LOSS_CASES[case]
    kw = dict(expected_arrivals=3_000.0, replications=4, base_seed=77)
    got = simulate(small_config(scenario, **kw), prices, trace_path=str(tmp_path / "got.csv"))
    want = reference_simulate(small_config(scenario, **kw), prices,
                              trace_path=str(tmp_path / "want.csv"))
    assert_same_stats(got, want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_loss_kernel_matches_event_loop_below_cost_in_warmup():
    # jobs priced below cost earn -0.0 inside the warm-up: a replication with
    # no later job must still report a rate of 0.0
    scenario = Scenario(
        classes=(CustomerClass(arrival_rate=1.0, valuation=UniformValuation(0.0, 1.0),
                               duration=DeterministicDuration(0.01)),),
        workers=(WorkerSpec(cost=0.5),),
    )
    # a 2-hour horizon at one arrival an hour
    cfg = SimConfig(scenario=scenario, expected_arrivals=2.0, replications=40, base_seed=5,
                    warmup_fraction=0.5)
    got = simulate(cfg, (0.2,))
    assert_same_stats(got, reference_simulate(cfg, (0.2,)))
    assert 0.0 in got.rep_values


@pytest.mark.parametrize("gamma", [4.0, 0.8, 25.0])
def test_discounted_kernel_matches_event_loop(gamma):
    scenario = Scenario(classes=mixed_classes(3), workers=(WorkerSpec(cost=0.05),),
                        discount=ExponentialDiscount(gamma))
    cfg = small_config(scenario, expected_arrivals=4_000.0, replications=4)
    prices = (0.4, 0.3, 0.6)
    assert_same_stats(simulate_discounted(cfg, prices),
                      reference_simulate_discounted(cfg, prices))


def test_mixture_kernel_matches_event_loop():
    scenario = Scenario(classes=mixed_classes(2),
                        discount=MixtureDiscount(weights=(0.3, 0.7), rates=(6.0, 20.0)))
    cfg = small_config(scenario, expected_arrivals=4_000.0, replications=6)
    for prices in ((0.5, 0.35), (1.0, 1e9)):
        assert_same_stats(simulate_discounted(cfg, prices),
                          reference_simulate_discounted(cfg, prices))


QUEUE_CASES = {
    "bundled_config": (load_scenario(CONFIGS / "queue.json"), (0.6, 0.7), {}),
    "free_prices": (queue_scenario(0.5), (0.0, 0.0), {}),
    "choke_prices": (queue_scenario(0.5), (1.0, 1.0), {}),
    "class_b_priced_out": (queue_scenario(2.0), (0.4, 1e9), {}),
    "no_warmup": (queue_scenario(0.5), (0.5, 0.3), {"warmup_fraction": 0.0}),
    "half_warmup": (queue_scenario(0.5), (0.5, 0.3), {"warmup_fraction": 0.5}),
    # slow jobs on a short horizon: many straddle the warm-up end or the horizon
    "straddling_jobs": (
        Scenario(classes=(unit_uniform_class(arrival_rate=2.0, service_rate=0.4),
                          unit_uniform_class(arrival_rate=0.7, service_rate=0.9)),
                 workers=(WorkerSpec(cost=0.3),), queue_capacity=1),
        # a 6-hour horizon at 2.7 arrivals an hour
        (0.2, 0.5), {"expected_arrivals": 6.0 * 2.7, "warmup_fraction": 0.5,
                     "replications": 40},
    ),
}


@pytest.mark.parametrize("case", sorted(QUEUE_CASES))
def test_queue_kernel_matches_event_loop(case):
    scenario, prices, kw = QUEUE_CASES[case]
    cfg = small_config(scenario, **{"expected_arrivals": 4_000.0, "replications": 4,
                                    "base_seed": 77, **kw})
    got = simulate_queue(cfg, *prices)
    want = reference_simulate_queue(cfg, *prices)
    assert repr(got.rep_values) == repr(want.rep_values)  # also tells 0.0 from -0.0
    assert repr(got.counts) == repr(want.counts)


def test_queue_kernel_matches_event_loop_below_cost_in_warmup():
    # as for the loss kernel: a replication whose only jobs are priced below
    # cost inside the warm-up earns -0.0 per job and must report 0.0
    scenario = Scenario(classes=(unit_uniform_class(service_rate=50.0),
                                 unit_uniform_class(arrival_rate=0.5, service_rate=80.0)),
                        workers=(WorkerSpec(cost=0.5),), queue_capacity=1)
    # a 2-hour horizon at 1.5 arrivals an hour
    cfg = SimConfig(scenario=scenario, expected_arrivals=3.0, replications=40, base_seed=5,
                    warmup_fraction=0.5)
    got = simulate_queue(cfg, 0.2, 0.1)
    assert_same_stats(got, reference_simulate_queue(cfg, 0.2, 0.1))
    assert 0.0 in got.rep_values


def test_deviation_scan_equals_separate_simulations(ranked_fleet_scenario):
    cfg = SimConfig(scenario=ranked_fleet_scenario, expected_arrivals=2_000.0,
                    replications=4, base_seed=9)
    matrix = [[0.6], [0.4]]
    grid = [0.3, 0.45, 0.6]
    report = deviation_scan(cfg, matrix, 1, grid)
    base = reference_simulate(cfg, matrix).per_worker_reps[1]
    assert report.baseline_mean == np.mean(base)
    for point, price in zip(report.points, grid):
        reps = reference_simulate(cfg, [[0.6], [price]]).per_worker_reps[1]
        assert (point.mean, point.delta) == (float(np.mean(reps)),
                                              float(np.mean(np.subtract(reps, base))))


def three_worker_fleet():
    # ranks out of scenario order, so the workers ranked above and below a
    # scanned one are not its neighbours by index
    cls = CustomerClass(arrival_rate=1.3, duration=EmpiricalDuration((0.3, 1.2, 0.7)),
                        valuation=PiecewiseLinearValuation(((0.1, 0.0), (0.6, 0.3),
                                                            (1.5, 1.0))))
    return Scenario(classes=(cls,), workers=(WorkerSpec(cost=0.05, rank=3),
                                             WorkerSpec(cost=0.0, rank=1),
                                             WorkerSpec(cost=0.02, rank=2)))


@pytest.mark.parametrize("worker_index", [0, 1, 2])
def test_deviation_scan_three_worker_fleet_equals_separate_simulations(worker_index):
    cfg = SimConfig(scenario=three_worker_fleet(), expected_arrivals=2_000.0, replications=4,
                    base_seed=31)
    matrix = [[0.35], [0.7], [0.5]]
    grid = [0.3, 0.45, 0.6, 0.8]
    report = deviation_scan(cfg, matrix, worker_index, grid)
    base = reference_simulate(cfg, matrix).per_worker_reps[worker_index]
    assert (report.baseline_mean, report.baseline_se) == _mean_se(base)
    for point, price in zip(report.points, grid):
        trial = [row[:] for row in matrix]
        trial[worker_index] = [price]
        reps = reference_simulate(cfg, trial).per_worker_reps[worker_index]
        assert (point.mean, point.se) == _mean_se(reps)
        assert point.delta == float(np.mean(np.subtract(reps, base)))


@pytest.mark.parametrize("worker_index, above", [(1, []), (2, [1])], ids=["rank1", "rank2"])
def test_deviation_scan_ignores_the_workers_ranked_below(monkeypatch, worker_index, above):
    # the rank-3 worker (index 0) is never run, so its price changes nothing,
    # and the draw keeps only arrivals the scanned worker, at one of its
    # prices, or a worker ranked above it could afford
    cfg = SimConfig(scenario=three_worker_fleet(), expected_arrivals=2_000.0, replications=4,
                    base_seed=47)
    matrix = [[0.35], [0.7], [0.5]]
    grid = [0.45, 0.6, 0.9]
    floor = min(matrix[worker_index][0], *grid, *(matrix[i][0] for i in above))
    kept = []
    offered_events = simulate_module._offered_events
    monkeypatch.setattr(simulate_module, "_offered_events",
                        lambda *args: kept.append((got := offered_events(*args))[0][2])
                        or got)
    want = repr(deviation_scan(cfg, matrix, worker_index, grid))
    assert len(kept) == cfg.replications
    assert all(vs.size > 0 and vs.min() >= floor for vs in kept)
    for low_price in [0.0, 0.2, 1.4]:
        trial = [[low_price], *matrix[1:]]
        assert repr(deviation_scan(cfg, trial, worker_index, grid)) == want


def test_deviation_scan_repeated_prices_equal_separate_simulations(ranked_fleet_scenario,
                                                                   monkeypatch):
    # the grid repeats 0.3 and the baseline 0.4; each distinct row runs once
    # per replication, and every point still reads its own simulation
    cfg = SimConfig(scenario=ranked_fleet_scenario, expected_arrivals=2_000.0,
                    replications=4, base_seed=17)
    matrix = [[0.6], [0.4]]
    grid = [0.3, 0.4, 0.55, 0.3, 0.4, 0.4]
    serves, segments = [], []
    serve, serve_streams = simulate_module._serve, simulate_module._serve_streams
    monkeypatch.setattr(simulate_module, "_serve",
                        lambda *args: serves.append(args[3]) or serve(*args))
    monkeypatch.setattr(simulate_module, "_serve_streams",
                        lambda batch, *args: segments.extend(price for _, _, price in batch)
                        or serve_streams(batch, *args))
    report = deviation_scan(cfg, matrix, 1, grid)
    # the rank-1 worker once per replication, and each distinct row of the
    # scanned worker once per replication, as one segment of a kernel call
    assert serves == [(0.6,)] * cfg.replications
    assert sorted(segments) == sorted([0.3, 0.4, 0.55] * cfg.replications)

    def hex_mean_se(reps):
        return tuple(x.hex() for x in _mean_se(reps))

    base = simulate(cfg, matrix).per_worker_reps[1]
    assert (report.baseline_mean.hex(), report.baseline_se.hex()) == hex_mean_se(base)
    assert report.z_threshold == NormalDist().inv_cdf(1.0 - 0.025 / len(grid))
    assert [point.price for point in report.points] == grid
    for point, price in zip(report.points, grid):
        reps = simulate(cfg, [[0.6], [price]]).per_worker_reps[1]
        assert (point.mean.hex(), point.se.hex()) == hex_mean_se(reps)
        assert (point.delta.hex(), point.delta_se.hex()) == \
            hex_mean_se(np.subtract(reps, base))
    assert [p.delta for p in report.points if p.price == 0.4] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("worker_index, grid, arrivals", [
    (0, [0.45, 0.55, 0.6, 0.65, 0.7], 2_000.0),
    (1, [0.0, 0.3, 0.4, 0.4, 1.2], 2_000.0),
    (1, [0.35, 0.45], 9_000.0),    # some streams of at least _SHORT arrivals
])
def test_deviation_scan_batched_equals_alone(ranked_fleet_scenario, monkeypatch, worker_index,
                                             grid, arrivals):
    cfg = SimConfig(scenario=ranked_fleet_scenario, expected_arrivals=arrivals,
                    replications=5, base_seed=23)
    matrix = [[0.6], [0.4]]
    calls, cascades = [], []
    serve_streams, serve = simulate_module._serve_streams, simulate_module._serve
    monkeypatch.setattr(simulate_module, "_serve_streams",
                        lambda batch, *args: calls.append(len(batch))
                        or serve_streams(batch, *args))
    monkeypatch.setattr(simulate_module, "_serve",
                        lambda *args: cascades.append(args[3]) or serve(*args))
    default = deviation_scan(cfg, matrix, worker_index, grid)
    reports = {}
    # every stream in one kernel call, then each in a call of its own; the
    # rank-1 worker serves each replication alone in both
    for mode, short, batch in [("batched", math.inf, math.inf), ("alone", 0, 0)]:
        monkeypatch.setattr(simulate_module, "_SHORT", short)
        monkeypatch.setattr(simulate_module, "_BATCH", batch)
        calls.clear()
        cascades.clear()
        reports[mode] = deviation_scan(cfg, matrix, worker_index, grid)
        streams = cfg.replications * len({0.6 if worker_index == 0 else 0.4, *grid})
        assert calls == ([streams] if mode == "batched" else [1] * streams)
        assert cascades == ([(0.6,)] * cfg.replications if worker_index == 1 else [])
    assert repr(reports["batched"]) == repr(reports["alone"]) == repr(default)


def test_deviation_scan_batches_its_short_streams(ranked_fleet_scenario, monkeypatch):
    # a guard on calls, not on time: a scan of short streams packs them into
    # full batches, ceil(arrivals / _BATCH) kernel calls here, not one per row
    cfg = SimConfig(scenario=ranked_fleet_scenario, expected_arrivals=2_000.0,
                    replications=16, base_seed=5)
    calls, batches = [], []
    loss_accepts, serve_streams = simulate_module._loss_accepts, simulate_module._serve_streams
    monkeypatch.setattr(simulate_module, "_loss_accepts",
                        lambda times, *args: calls.append(times.size)
                        or loss_accepts(times, *args))
    monkeypatch.setattr(simulate_module, "_serve_streams",
                        lambda batch, *args: batches.append([t.size for t, _, _ in batch])
                        or serve_streams(batch, *args))
    deviation_scan(cfg, [[0.6], [0.4]], 0, np.linspace(0.48, 0.72, 11))
    short, batch = simulate_module._SHORT, simulate_module._BATCH
    assert sum(map(len, batches)) == cfg.replications * 11
    assert max(max(sizes) for sizes in batches) < short
    assert calls == [sum(sizes) for sizes in batches]
    assert sum(calls) > 2 * batch and max(calls) <= batch
    # each batch is full: its next stream would not have fitted
    assert all(sum(sizes) + after[0] > batch for sizes, after in zip(batches, batches[1:]))
    assert len(calls) <= math.ceil(sum(calls) / batch)


def test_batches_keep_stream_order(monkeypatch):
    # a long stream flushes the short ones gathered before it, so reading
    # the earnings back by position finds each stream's own
    monkeypatch.setattr(simulate_module, "_SHORT", 4)
    monkeypatch.setattr(simulate_module, "_BATCH", 6)
    sizes = [1, 2, 4, 3, 3, 1, 5, 2]
    streams = [(np.zeros(n), np.zeros(n), i) for i, n in enumerate(sizes)]
    batches = [[i for _, _, i in batch] for batch in simulate_module._batches(streams)]
    assert batches == [[0, 1], [2], [3, 4], [5], [6], [7]]


# --- the loss kernel, the event merge and the trace writer, part by part ---


def reference_loss_accepts(times, ends, cut=None):
    """The accepted jobs, by walking from job 0 to each job's successor."""
    taken, i, n = [], 0, len(times)
    while i < n:
        taken.append(i)
        j = int(np.searchsorted(times, ends[i], "left"))
        if cut is not None:
            j = min(j, int(cut[i]))
        i = max(j, i + 1)
    return taken


def kernel_instance(kind, n, seed):
    """Sorted arrival times, completion times and (for "cut") window caps."""
    rng = np.random.default_rng(seed)
    if kind == "tied_times":
        times = np.sort(rng.integers(0, max(1, n // 4), n)).astype(float)
        return times, times + rng.choice([0.0, 0.5, 2.0], n), None
    times = np.cumsum(rng.exponential(1.0, n))
    if kind == "below_ulp":
        # half the jobs end where they start: t + 1e-300 == t
        durations = np.where(rng.random(n) < 0.5, 1e-300, rng.exponential(1.5, n))
        return times, times + durations, None
    if kind == "nan_ends":
        # a NaN end sorts past every arrival, so it ends the path
        ends = times + np.where(rng.random(n) < 0.1, np.nan, rng.exponential(1.5, n))
        return times, ends, None
    # "far": most jobs outlast the next _NEAR arrivals, so the binary search
    # finds most successors
    mean = {"light": 0.2, "heavy": 6.0, "far": 20.0, "cut": 3.0}[kind]
    ends = times + rng.exponential(mean, n)
    if kind == "cut":
        windows = (times / 25.0).astype(np.int64)
        return times, ends, np.searchsorted(windows, windows, "right")
    return times, ends, None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 17, 1000, 5000])
@pytest.mark.parametrize("kind", ["light", "heavy", "far", "tied_times", "below_ulp",
                                  "nan_ends", "cut"])
def test_loss_accepts_matches_plain_loop(kind, n):
    for seed in range(3):
        times, ends, cut = kernel_instance(kind, n, seed)
        # the kernel takes window caps as ends capped at the next window's
        # first arrival, as simulate_discounted passes them
        capped = ends if cut is None else np.fmin(ends, np.append(times, np.inf)[cut])
        got = _loss_accepts(times, capped)
        assert got.dtype == np.intp
        assert got.tolist() == reference_loss_accepts(times, ends, cut)


def random_segments(kind, rng):
    """Segment starts and a stream of (times, ends) laid end to end: either
    one instance cut at random places, where times can tie across a cut, or
    independent instances, whose times start over at each cut. Cuts repeat
    (empty segments) and fall close together (segments shorter than _NEAR),
    and some ends next to a cut are NaN or inf."""
    if rng.random() < 0.5:
        n = int(rng.integers(0, 300))
        times, ends, cut = kernel_instance(kind, n, int(rng.integers(1 << 30)))
        starts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 12))))
    else:
        sizes = rng.choice([0, 1, 2, _NEAR - 1, _NEAR, _NEAR + 1, 9, 60], int(rng.integers(1, 9)))
        parts = [kernel_instance(kind, int(m), int(rng.integers(1 << 30))) for m in sizes]
        times = np.concatenate([t for t, _, _ in parts])
        ends = np.concatenate([e for _, e, _ in parts])
        starts = np.cumsum(sizes)[:-1]
        cut = None if kind != "cut" else np.concatenate(
            [c + lo for (_, _, c), lo in zip(parts, [0, *starts])])
    if cut is not None:
        ends = np.fmin(ends, np.append(times, np.inf)[cut])
    starts = np.concatenate(([0], starts)).astype(np.intp)
    for edge in np.concatenate((starts - 1, starts)):
        if 0 <= edge < times.size and rng.random() < 0.3:
            ends[edge] = rng.choice([np.nan, np.inf])
    return times, ends, starts


@pytest.mark.parametrize("kind", ["light", "heavy", "far", "tied_times", "below_ulp",
                                  "nan_ends", "cut"])
def test_segmented_loss_accepts_is_each_segment_served_alone(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(150):
        times, ends, starts = random_segments(kind, rng)
        bounds = [*starts.tolist(), times.size]
        want = [lo + j for lo, hi in zip(bounds, bounds[1:])
                for j in _loss_accepts(times[lo:hi], ends[lo:hi]).tolist()]
        got = _loss_accepts(times, ends, starts)
        assert got.dtype == np.intp
        assert got.tolist() == want


@pytest.mark.parametrize("terms", [
    [],
    [-0.0],
    [-0.0, -0.0, -0.0],
    [-0.0, 1e-320, -1e-320],
    [0.1, 0.2, 0.3, -0.6],
    [2.0**-1074, -0.0],
    [1e308, 1e308, -1e308],
    [1.0, math.nan, 2.0],
    [-math.inf, 1.0],
    np.random.default_rng(3).normal(0.0, 1.0, 1000),
], ids=lambda terms: f"n{len(terms)}")
def test_segment_sums_are_running_sums(terms):
    # each case alone, and cut among ordinary segments and empty ones, against
    # a running total of Python floats from 0.0, which raises no numpy warning
    def running_sum(part):
        total = 0.0
        for term in part.tolist():
            total += term
        return total

    terms = np.asarray(terms, dtype=float)
    ordinary = np.random.default_rng(terms.size).normal(0.0, 1e-3, 7)
    for parts in ([terms], [ordinary, terms, ordinary[:0], ordinary[:2]]):
        bounds = np.cumsum([0, *(part.size for part in parts)]).tolist()
        got = simulate_module._segment_sums(np.concatenate(parts), bounds)
        want = [running_sum(part) for part in parts]
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_far_instances_send_most_jobs_to_the_binary_search():
    times, ends, _ = kernel_instance("far", 5000, 0)
    assert np.mean(times[_NEAR:] < ends[:-_NEAR]) > 0.6


@pytest.mark.parametrize("windows", [
    [],
    [3],
    [7, 7, 7, 7],
    [0, 1, 2, 5, 9],
    *(np.sort(np.random.default_rng(seed).integers(0, 6, 40)) for seed in range(5)),
], ids=["empty", "one", "single_window", "all_distinct",
        *(f"random{seed}" for seed in range(5))])
def test_window_caps_are_the_run_ends(windows):
    w = np.asarray(windows, dtype=np.int64)
    got = _run_ends(w)
    want = np.searchsorted(w, w, "right")
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("n", range(18))
def test_loss_accepts_path_ending_at_last_job(n):
    # every job is accepted: path lengths 0 to 17 cross each power of two,
    # and the path ends exactly at job n - 1
    times = np.arange(n, dtype=float)
    assert _loss_accepts(times, times + 0.5).tolist() == list(range(n))
    # job 0 jumps straight to the last job
    if n >= 2:
        assert _loss_accepts(times, np.full(n, n - 1.5)).tolist() == [0, n - 1]


def tied_stream(seed, floors, n=400):
    """A replication's (times, classes, valuations, durations), without the
    arrivals of class k valued below floors[k], and its ends, with many tied
    times, every fifth duration 0 and one NaN end."""
    rng = np.random.default_rng(seed)
    times = np.sort(np.round(rng.uniform(0.0, 40.0, n), 1))
    ks = rng.integers(0, len(floors), n)
    vs = rng.random(n)
    ds = rng.exponential(0.5, n)
    ds[::5] = 0.0
    keep = ~(vs < np.asarray(floors)[ks])
    times, ks, vs, ds = times[keep], ks[keep], vs[keep], ds[keep]
    ends = times + ds
    ends[ends.size // 2] = np.nan
    return (times, ks, vs, ds), ends


def gathered_serve(events, ends, free, row):
    """The arrivals a worker posting `row` takes among those `free`, served
    on copies of the arrivals it is offered."""
    times, ks, vs, _ = events
    offered = np.flatnonzero(free & (np.asarray(row)[ks] <= vs))
    return offered[_loss_accepts(times[offered], ends[offered])]


# (the price matrix, the worker served, whether every arrival is offered to
# it); each stream holds only arrivals valued at the matrix's lowest price
# for their class or more
SERVED = {
    "lone_worker": ([[0.3]], 0, True),
    "top_rank_posting_the_floors": ([[0.2, 0.45], [0.3, 0.6]], 0, True),
    "nan_valuation": ([[0.3]], 0, False),
    "lower_rank": ([[0.2, 0.45], [0.3, 0.6]], 1, False),
}


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("case", SERVED)
def test_serve_on_the_stream_itself_takes_what_the_gathered_path_takes(monkeypatch, case, seed):
    matrix, worker, every_one_offered = SERVED[case]
    events, ends = tied_stream(seed, np.min(matrix, axis=0))
    if case == "nan_valuation":
        events[2][7] = np.nan
    free = np.ones(ends.size, dtype=bool)
    free[_loss_accepts(events[0], ends) if worker else []] = False  # the top rank's
    served = []
    loss_accepts = simulate_module._loss_accepts
    monkeypatch.setattr(simulate_module, "_loss_accepts",
                        lambda times, *args: served.append(times) or loss_accepts(times, *args))
    got = simulate_module._serve(events, ends, free, matrix[worker])
    want = gathered_serve(events, ends, free, matrix[worker])
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert (served[0] is events[0]) == every_one_offered
    assert np.isnan(ends).any() and (np.diff(events[0]) == 0.0).any()


@pytest.mark.parametrize("rate", [0.0, 0.7, 40.0])
def test_merged_events_one_class_is_the_stable_sort(rate):
    cls = replace(mixed_classes(1)[0], arrival_rate=rate)
    got, drawn = _offered_events(Scenario(classes=(cls,)), 11, 2, 300.0, [-math.inf])
    (times, vs, ds), n = _class_arrivals(cls, _stream(11, 2, 0), 300.0, -math.inf)
    assert drawn == n == times.size
    order = np.argsort(times, kind="stable")
    want = (times[order], np.zeros(times.size, dtype=int), vs[order], ds[order])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


# --- the draws: numpy's reference calls, bit for bit ---
# The simulators draw through _class_arrivals and the laws' sample methods,
# which scale numpy's standard draws in place. The seed contract is numpy's
# own calls: the same values, and the same use of the stream after them.

SUBNORMAL = 5e-324  # 1 / SUBNORMAL is inf


def uniform_reference(law, rng, n):
    return rng.uniform(law.low, law.high, n)


def exponential_valuation_reference(law, rng, n):
    return rng.exponential(1.0 / law.rate, n)


def exponential_duration_reference(law, rng, n):
    return rng.exponential(law.mean, n)


def piecewise_reference(law, rng, n):
    return np.interp(rng.random(n), [f for _, f in law.knots], [v for v, _ in law.knots])


# numpy's own call for each law
REFERENCE_DRAWS = {
    UniformValuation: uniform_reference,
    ExponentialValuation: exponential_valuation_reference,
    ExponentialDuration: exponential_duration_reference,
    PiecewiseLinearValuation: piecewise_reference,
    DeterministicDuration: lambda law, rng, n: np.full(n, law.value),
}
STREAM_LAWS = {
    "uniform": UniformValuation(0.2, 1.7),
    "uniform_wide": UniformValuation(1e-300, 1e300),
    "exponential_valuation": ExponentialValuation(2.5),
    "exponential_valuation_subnormal": ExponentialValuation(SUBNORMAL),
    "exponential_duration": ExponentialDuration(0.4),
    "exponential_duration_subnormal": ExponentialDuration(SUBNORMAL),
    "piecewise": PiecewiseLinearValuation(((0.1, 0.0), (0.5, 0.3), (0.6, 0.3), (2.0, 1.0))),
}


def assert_same_draws(got, want, rng, reference_rng):
    assert got.dtype == want.dtype == np.dtype(float)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 7, 20260815])
@pytest.mark.parametrize("n", [0, 1, 5, 10_000])
@pytest.mark.parametrize("law", sorted(STREAM_LAWS))
def test_law_samples_are_numpys_reference_draws(law, n, seed):
    law = STREAM_LAWS[law]
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = REFERENCE_DRAWS[type(law)](law, reference_rng, n)
    assert_same_draws(law.sample(rng, n), want, rng, reference_rng)


def reference_class_arrivals(cls, rng, horizon):
    """_class_arrivals with numpy's exponential and uniform calls."""
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
    valuations = REFERENCE_DRAWS[type(cls.valuation)](cls.valuation, rng, n)
    durations = REFERENCE_DRAWS[type(cls.duration)](cls.duration, rng, n)
    return times[:n], valuations, durations


class ShortFirstBlock:
    """A generator whose first exponential block is scaled by 2**-4, which
    is exact, so the arrivals it gives fall short of the horizon and
    _class_arrivals must draw another block."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.blocks = 0

    def shorten_first(self, draws):
        self.blocks += 1
        if self.blocks == 1:
            draws *= 0.0625
        return draws

    def standard_exponential(self, n):
        return self.shorten_first(self.rng.standard_exponential(n))

    def exponential(self, scale, n):
        return self.shorten_first(self.rng.exponential(scale, n))

    def __getattr__(self, name):
        return getattr(self.rng, name)


STREAM_CLASSES = {
    "uniform": CustomerClass(3.0, ExponentialDuration(1.5), UniformValuation(0.0, 1.0)),
    "exponential": CustomerClass(0.8, ExponentialDuration(SUBNORMAL), ExponentialValuation(2.0)),
    "piecewise": CustomerClass(1.2, DeterministicDuration(0.5), STREAM_LAWS["piecewise"]),
    "subnormal_rate": CustomerClass(SUBNORMAL, ExponentialDuration(1.0),
                                    UniformValuation(0.0, 1.0)),
    "zero_rate": CustomerClass(0.0, ExponentialDuration(1.0), UniformValuation(0.0, 1.0)),
}


def assert_same_arrivals(got, want, rng, reference_rng):
    for g, w in zip(got, want):
        assert_same_draws(g, w, rng, reference_rng)


@pytest.mark.parametrize("seed", [0, 7, 20260815])
@pytest.mark.parametrize("horizon", [0.5, 40.0, 5_000.0])
@pytest.mark.parametrize("cls", sorted(STREAM_CLASSES))
def test_class_arrivals_are_numpys_reference_draws(cls, horizon, seed):
    cls = STREAM_CLASSES[cls]
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_arrivals(_class_arrivals(cls, rng, horizon, -math.inf)[0],
                         reference_class_arrivals(cls, reference_rng, horizon),
                         rng, reference_rng)


@pytest.mark.parametrize("seed", [0, 7, 20260815])
@pytest.mark.parametrize("cls", ["uniform", "exponential", "piecewise"])
def test_class_arrivals_extend_a_short_first_block(cls, seed):
    cls = STREAM_CLASSES[cls]
    rng, reference_rng = ShortFirstBlock(seed), ShortFirstBlock(seed)
    got = _class_arrivals(cls, rng, 400.0, -math.inf)[0]
    want = reference_class_arrivals(cls, reference_rng, 400.0)
    assert rng.blocks == reference_rng.blocks >= 2
    assert_same_arrivals(got, want, rng.rng, reference_rng.rng)


def test_event_trace_bytes_match_csv_writer(tmp_path):
    # floats whose repr is in exponent form, next to plain ones
    times = np.array([1e-05, 0.25, 3.0, 1e+16, 1e+16])
    ks = np.array([0, 1, 0, 1, 0])
    vs = np.array([1e-05, 2.5e-07, 0.1, 1e+16, 7.0])
    chosen = np.array([0, -1, -1, 2, -1])
    lost_price = np.array([False, True, False, False, False])
    got = tmp_path / "new_dir" / "events.csv"
    _write_trace(str(got), (times, ks, vs, None), chosen, lost_price)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "class", "worker", "value"])
        for t, k, v, w, priced_out in zip(times.tolist(), ks.tolist(), vs.tolist(),
                                          chosen.tolist(), lost_price.tolist()):
            event = "accept" if w >= 0 else "lost_price" if priced_out else "lost_busy"
            writer.writerow([repr(t), event, k, w if w >= 0 else "", repr(v)])
    assert got.read_bytes() == want.read_bytes()
    assert b"\r\n1e-05,accept,0,0,1e-05\r\n" in got.read_bytes()
    assert b"\r\n1e+16,accept,1,2,1e+16\r\n" in got.read_bytes()


# --- dropping priced-out arrivals at the draw ---
# Every simulator drops the arrivals valued below the lowest price posted to
# their class before the merge. The references above step through every
# arrival of _merged_events, so each simulator must still match them field
# for field, counts included.


def run_queue(cfg, prices):
    return simulate_queue(cfg, *prices)


def reference_queue(cfg, prices):
    return reference_simulate_queue(cfg, *prices)


LOSS = (simulate, reference_simulate)
DISCOUNTED = (simulate_discounted, reference_simulate_discounted)
QUEUE = (run_queue, reference_queue)
ZERO_RATE_CLASS = CustomerClass(arrival_rate=0.0, valuation=UniformValuation(0.0, 1.0),
                                duration=ExponentialDuration(1.0))
# valuations of 0.5 or the next float up: priced at 0.5, many tie the price
TIE_CLASS = CustomerClass(arrival_rate=1.0,
                          valuation=UniformValuation(0.5, math.nextafter(0.5, 1.0)),
                          duration=ExponentialDuration(1.0))

# (simulator and reference, scenario, prices). Class 0 of mixed_classes is
# valued uniform on [0, 1] and class 2 up to 1.5, so 1.5 and 1.6 price them
# above every valuation.
PRUNING_CASES = {
    "loss_one_class": (LOSS, Scenario(classes=mixed_classes(1)), (0.45,)),
    "loss_two_classes": (LOSS, Scenario(classes=mixed_classes(2)), (0.6, 0.3)),
    "loss_three_classes": (LOSS, Scenario(classes=mixed_classes(3)), (0.5, 0.4, 0.7)),
    "loss_four_classes": (LOSS, Scenario(classes=mixed_classes(4),
                                         workers=(WorkerSpec(cost=0.1),)),
                          (0.5, 0.4, 0.7, 0.9)),
    "loss_price_zero": (LOSS, Scenario(classes=mixed_classes(2)), (0.0, 0.3)),
    "loss_above_every_valuation": (LOSS, Scenario(classes=mixed_classes(3)),
                                   (1.5, 0.3, 1.6)),
    "loss_zero_rate_class": (LOSS, Scenario(classes=(*mixed_classes(2), ZERO_RATE_CLASS)),
                             (0.5, 0.3, 0.2)),
    "loss_valuations_tie_the_price": (LOSS, Scenario(classes=(TIE_CLASS, *mixed_classes(1))),
                                      (0.5, 0.45)),
    "fleet_lower_rank_posts_lower": (
        LOSS,
        Scenario(classes=mixed_classes(2),
                 workers=(WorkerSpec(rank=1), WorkerSpec(rank=2, cost=0.05))),
        ((0.6, 0.5), (0.3, 0.2)),
    ),
    "fleet_floors_from_every_rank": (
        LOSS,
        Scenario(classes=mixed_classes(3),
                 workers=(WorkerSpec(rank=2), WorkerSpec(rank=1, cost=0.1),
                          WorkerSpec(rank=3))),
        ((0.4, 0.7, 1.6), (0.6, 0.3, 0.5), (0.2, 0.9, 0.0)),
    ),
    "discounted": (DISCOUNTED, Scenario(classes=mixed_classes(3),
                                        workers=(WorkerSpec(cost=0.05),),
                                        discount=ExponentialDiscount(4.0)),
                   (0.4, 0.3, 0.6)),
    "discounted_price_zero_and_above_every_valuation": (
        DISCOUNTED, Scenario(classes=mixed_classes(3), discount=ExponentialDiscount(0.8)),
        (0.0, 0.3, 1.6)),
    "discounted_zero_rate_class": (
        DISCOUNTED, Scenario(classes=(ZERO_RATE_CLASS, *mixed_classes(1)),
                             discount=ExponentialDiscount(4.0)),
        (0.3, 0.45)),
    "mixture": (DISCOUNTED, Scenario(classes=mixed_classes(2),
                                     discount=MixtureDiscount(weights=(0.3, 0.7),
                                                              rates=(6.0, 20.0))),
                (0.5, 0.35)),
    "mixture_above_every_valuation": (
        DISCOUNTED, Scenario(classes=mixed_classes(2),
                             discount=MixtureDiscount(weights=(0.5, 0.5), rates=(1.0, 2.0))),
        (1.5, 0.35)),
    "queue": (QUEUE, load_scenario(CONFIGS / "queue.json"), (0.6, 0.7)),
    "queue_price_zero": (QUEUE, queue_scenario(0.5), (0.0, 0.5)),
    "queue_above_every_valuation": (QUEUE, queue_scenario(2.0), (0.4, 1.5)),
    "queue_valuations_tie_the_price": (
        QUEUE, Scenario(classes=(TIE_CLASS, unit_uniform_class(0.5, 0.5)), queue_capacity=1),
        (0.5, 0.6)),
    "queue_zero_rate_class": (
        QUEUE, Scenario(classes=(unit_uniform_class(), ZERO_RATE_CLASS), queue_capacity=1),
        (0.5, 0.2)),
}


@pytest.mark.parametrize("case, traced", [
    *(pytest.param(case, False, id=case) for case in sorted(PRUNING_CASES)),
    # the trace scatters the kernel's choices on the priced-in stream back
    # onto the full one
    *(pytest.param(case, True, id=f"{case}-traced") for case in sorted(PRUNING_CASES)
      if PRUNING_CASES[case][0] is LOSS),
])
def test_pruned_runs_equal_the_unpruned_reference(tmp_path, case, traced):
    (run, reference), scenario, prices = PRUNING_CASES[case]
    cfg = SimConfig(scenario=scenario, expected_arrivals=3_000.0, replications=4,
                    base_seed=77)
    if not traced:
        assert_same_stats(run(cfg, prices), reference(cfg, prices))
        return
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert_same_stats(run(cfg, prices, trace_path=str(got)),
                      reference(cfg, prices, trace_path=str(want)))
    assert got.read_bytes() == want.read_bytes()


def read_in_chunks(column, chunk):
    """`column` as a view of every chunk-th element of a larger buffer: the
    queue loop reads it through a memoryview, strides and all."""
    return np.repeat(column, chunk)[::chunk]


@pytest.mark.parametrize("chunk", [1, 7, 500])
@pytest.mark.parametrize("case", ["queue", "queue_above_every_valuation"])
def test_queue_chunks_carry_the_worker_state(monkeypatch, case, chunk):
    # the loop carries its two floats and the running earnings through
    # whole replications, waiting jobs and all, read from strided buffers
    def strided_queue_rep(times, ks, ds, *rest):
        return queue_rep(*(read_in_chunks(c, chunk) for c in (times, ks, ds)), *rest)

    queue_rep = simulate_module._queue_rep
    monkeypatch.setattr(simulate_module, "_queue_rep", strided_queue_rep)
    _, scenario, prices = PRUNING_CASES[case]
    cfg = SimConfig(scenario=scenario, expected_arrivals=2_000.0, replications=3,
                    base_seed=5)
    assert_same_stats(run_queue(cfg, prices), reference_queue(cfg, prices))


# Hand-built arrivals (time, class, duration) for the edges of the queue
# loop's state: a waiting job, losses while it waits, and ties. Each case is
# read in chunks of 1, 2 and 3: every chunk-th element of a larger buffer, and
# cut after each whole chunk, so that runs end in each of these states.
QUEUE_EDGES = {
    # job 0 runs to 10 and job 1 waits; jobs 2-6 are lost while job 1 waits,
    # so runs cut after a whole chunk of them end with job 1 waiting, and job 1
    # starts at 10, after them all
    "waits_through_a_chunk_of_losses": [
        (0.0, 0, 10.0), (1.0, 1, 1.5), (2.0, 0, 1.0), (3.0, 1, 1.0), (4.0, 0, 1.0),
        (5.0, 1, 1.0), (6.0, 0, 1.0), (12.0, 1, 0.25), (13.0, 0, 0.5)],
    # jobs 2, 3, 5 and 8 each wait and start when the job ahead ends; the
    # waiting job is the last arrival of a chunk (jobs 2 and 5 for chunks of
    # 3, jobs 3 and 5 for chunks of 2); job 3 ends at 5.0, when job 4 arrives
    # and starts
    "last_arrival_of_a_chunk_waits": [
        (0.0, 0, 0.5), (1.0, 1, 2.5), (2.0, 0, 1.0), (4.0, 1, 0.5), (5.0, 0, 3.0),
        (6.0, 1, 0.5), (6.5, 0, 1.0), (9.0, 1, 0.75), (9.5, 0, 0.25)],
    # job 1 is still waiting at the end, behind a job that ends at 20; jobs 2
    # and 3 are lost, a whole chunk of them for chunks of 1 and 2
    "still_waiting_at_the_end": [(0.0, 0, 20.0), (1.0, 1, 2.0), (1.5, 0, 2.0), (2.0, 1, 1.0)],
    # job 2 arrives at 10, the instant waiting job 1 starts, and is admitted,
    # since the spot frees then; it starts at 12, so job 3 at 11 is lost, and
    # job 4 at 12.5 waits for job 2 to end at 13
    "arrives_as_the_waiting_job_starts": [
        (0.0, 0, 10.0), (1.0, 1, 2.0), (10.0, 0, 1.0), (11.0, 1, 0.5), (12.5, 0, 1.0)],
    # jobs 1-3 arrive together while job 0 runs: job 1 waits and jobs 2 and 3
    # are lost; job 4 finds the worker free
    "three_arrive_at_once_while_busy": [
        (0.0, 0, 5.0), (2.0, 1, 1.0), (2.0, 0, 1.0), (2.0, 1, 1.0), (6.5, 0, 1.0)],
}


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(QUEUE_EDGES))
def test_queue_chunk_edges_match_the_event_loop(case, chunk):
    columns = [np.array(column) for column in zip(*QUEUE_EDGES[case])]
    strided = [read_in_chunks(column, chunk) for column in columns]
    n = columns[0].size
    prices = np.array([0.5, 0.75])
    for cost, warm, horizon in [(0.1, 0.0, 30.0), (0.2, 1.25, 9.75), (0.6, 5.0, 12.5)]:
        for m in [*range(chunk, n, chunk), n]:
            got = _queue_rep(*(c[:m] for c in strided), prices, cost, warm, horizon)
            want = reference_queue_rep(*(c[:m] for c in columns), prices, cost, warm,
                                       horizon)
            assert repr(got) == repr(want)
            assert got[1] + got[2] == m


@pytest.mark.parametrize("seed, special", enumerate([math.nan, math.inf, 0.0, 5e-324, 1e-310]),
                         ids=["nan", "inf", "zero", "least_subnormal", "subnormal"])
def test_queue_loop_matches_the_event_loop_on_odd_durations(seed, special):
    # a fifth of the durations set to `special`, and in some cases one class
    # priced at inf, whose earnings are then inf or NaN
    rng = np.random.default_rng(seed)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        times = np.cumsum(rng.exponential(1.0, n))
        ks = rng.integers(0, 2, n)
        ds = rng.exponential(1.0, n)
        ds[rng.random(n) < 0.2] = special
        prices = rng.uniform(0.5, 2.0, 2)
        if rng.random() < 0.3:
            prices[rng.integers(2)] = math.inf
        args = (times, ks, ds, prices, 0.25, 0.1 * float(times[-1]), float(times[-1]))
        got = _queue_rep(*args)
        assert repr(got) == repr(reference_queue_rep(*args))
        assert got[1] + got[2] == n


def reference_deviation_scan(cfg, matrix, worker_index, grid):
    """The scan's report from one reference_simulate run per price."""
    base = reference_simulate(cfg, matrix).per_worker_reps[worker_index]
    z = NormalDist().inv_cdf(1.0 - 0.025 / len(grid))
    points = []
    for price in grid:
        trial = [list(row) for row in matrix]
        trial[worker_index] = [price]
        reps = reference_simulate(cfg, trial).per_worker_reps[worker_index]
        mean, se = _mean_se(reps)
        delta, delta_se = _mean_se(np.subtract(reps, base))
        points.append(DeviationPoint(price, mean, se, delta, delta_se, delta > z * delta_se))
    return DeviationScanReport(worker_index, matrix[worker_index][0], *_mean_se(base), z,
                               tuple(points))


@pytest.mark.parametrize("worker_index, grid", [
    (1, [0.2, 0.35, 0.4, 0.5]),   # the grid reaches below the baseline
    (0, [0.1, 0.45, 0.7]),        # and below the lower-ranked worker's price
    (1, [0.0, 0.4, 1.2]),         # price 0 and a price above every valuation
])
def test_pruned_deviation_scan_equals_the_unpruned_reference(ranked_fleet_scenario,
                                                             worker_index, grid):
    cfg = SimConfig(scenario=ranked_fleet_scenario, expected_arrivals=2_000.0,
                    replications=4, base_seed=9)
    matrix = [[0.6], [0.4]]
    got = deviation_scan(cfg, matrix, worker_index, grid)
    want = reference_deviation_scan(cfg, matrix, worker_index, grid)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("classes", [
    mixed_classes(1), mixed_classes(2), mixed_classes(4), (*mixed_classes(2), ZERO_RATE_CLASS),
], ids=["one", "two", "four", "zero_rate_class"])
def test_offered_events_are_the_merged_events_priced_in(classes):
    scenario = Scenario(classes=classes)
    floors = np.array([0.45, 0.0, 0.7, 1.6][:len(classes)])
    full = merged_events(scenario, 77, 3, 800.0)
    got, drawn = _offered_events(scenario, 77, 3, 800.0, floors)
    keep = ~(full[2] < floors[full[1]])
    assert drawn == full[0].size
    assert 0 < np.count_nonzero(keep) < drawn
    assert full[1].dtype == np.dtype(int)
    for g, w in zip(got, full):
        assert g.dtype == w.dtype
        assert g.tobytes() == w[keep].tobytes()


class EveryThirdNaN:
    """A valuation law whose draws run NaN, 0.4, 0.8, NaN, 0.4, ..."""

    def sample(self, rng, n):
        return np.where(np.arange(n) % 3 == 0, np.nan, np.arange(n) % 3 * 0.4)


def test_priced_in_keeps_nan_valuations():
    cls = replace(unit_uniform_class(2.0), valuation=EveryThirdNaN())
    full, drawn = _class_arrivals(cls, _stream(5, 0, 0), 60.0, -math.inf)
    got, priced_in_drawn = _class_arrivals(cls, _stream(5, 0, 0), 60.0, 0.5)
    keep = np.arange(drawn) % 3 != 1
    assert drawn == priced_in_drawn == full[0].size > 30
    for g, w in zip(got, full):
        assert g.tobytes() == w[keep].tobytes()
    assert np.isnan(got[1][::2]).all() and (got[1][1::2] == 0.8).all()


# --- one replication driver ---
# each simulator draws replication r through _offered_events, once, in order;
# simulate_discounted over its window horizon.


def two_ranked_workers(arrival_rate=1.0):
    return Scenario(classes=(unit_uniform_class(arrival_rate),),
                    workers=(WorkerSpec(rank=1), WorkerSpec(rank=2)))


def two_queue_classes(arrival_rate=1.0):
    return Scenario(classes=(unit_uniform_class(arrival_rate),
                             unit_uniform_class(arrival_rate, service_rate=1.5)),
                    queue_capacity=1)


def one_discounted_class(arrival_rate=1.0):
    return Scenario(classes=(unit_uniform_class(arrival_rate),),
                    discount=ExponentialDiscount(1.0))


# (scenario builder, a run at good prices, the same run with a bad price)
DRIVEN = {
    "simulate": (two_ranked_workers, lambda cfg: simulate(cfg, [[0.6], [0.4]]),
                 lambda cfg: simulate(cfg, [[0.6], [math.nan]])),
    "simulate_queue": (two_queue_classes, lambda cfg: simulate_queue(cfg, 0.5, 0.65),
                       lambda cfg: simulate_queue(cfg, 0.5, math.nan)),
    "deviation_scan": (two_ranked_workers,
                       lambda cfg: deviation_scan(cfg, [[0.6], [0.4]], 1, [0.3, 0.5]),
                       lambda cfg: deviation_scan(cfg, [[math.nan], [0.4]], 1, [0.3, 0.5])),
    "simulate_discounted": (one_discounted_class, lambda cfg: simulate_discounted(cfg, (0.6,)),
                            lambda cfg: simulate_discounted(cfg, (-0.1,))),
}


@pytest.mark.parametrize("name", DRIVEN)
def test_each_simulator_draws_every_replication_once_in_order(monkeypatch, name):
    scenario, run, _ = DRIVEN[name]
    cfg = SimConfig(scenario=scenario(), expected_arrivals=2_010.0, replications=3,
                    base_seed=61)
    horizon = cfg.horizon_hours()
    if name == "simulate_discounted":
        # 40-hour windows at discount rate 1: a whole number of them
        horizon = 40.0 * int(horizon / 40.0)
        assert horizon != cfg.horizon_hours()
    draws = []
    offered_events = simulate_module._offered_events
    monkeypatch.setattr(simulate_module, "_offered_events",
                        lambda scn, seed, rep, hours, *args: draws.append((seed, rep, hours))
                        or offered_events(scn, seed, rep, hours, *args))
    run(cfg)
    assert draws == [(61, rep, horizon) for rep in range(cfg.replications)]


@pytest.mark.parametrize("name", DRIVEN)
def test_bad_prices_fail_before_the_horizon_is_sized(name):
    scenario, run, bad_run = DRIVEN[name]
    cfg = SimConfig(scenario=scenario(arrival_rate=0.0), expected_arrivals=2_000.0,
                    replications=3)
    with pytest.raises(ConfigError, match="prices must be finite and nonnegative"):
        bad_run(cfg)
    with pytest.raises(ConfigError, match="cannot size a horizon"):
        run(cfg)


# --- bounded working sets ---


def traced_peak(func, *args):
    """The peak bytes tracemalloc sees while `func(*args)` runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trace_rows(n):
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.exponential(1.0, n))
    events = (times, rng.integers(0, 3, n), rng.random(n), None)
    chosen = np.where(rng.random(n) < 0.4, rng.integers(0, 2, n), -1)
    return events, chosen, rng.random(n) < 0.3


def test_trace_writer_peak_does_not_grow_with_rows(tmp_path):
    small, large = trace_rows(10_000), trace_rows(100_000)
    peak_small = traced_peak(_write_trace, str(tmp_path / "small.csv"), *small)
    peak_large = traced_peak(_write_trace, str(tmp_path / "large.csv"), *large)
    assert peak_large < 1.25 * peak_small
    # the writer holds one line's Python objects and the file's buffers, not
    # the replication: about 32 KB in CPython 3.11
    assert peak_large < 2**18


def queue_arrivals(n):
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.exponential(1.0, n))
    return times, rng.integers(0, 2, n), rng.exponential(0.8, n)


def test_queue_loop_peak_does_not_grow_with_arrivals():
    prices = np.array([0.5, 0.65])
    peaks = []
    for n in (10_000, 100_000):
        times, ks, ds = queue_arrivals(n)
        peaks.append(traced_peak(_queue_rep, times, ks, ds, prices, 0.1, 0.1 * times[-1],
                                 times[-1]))
    assert peaks[1] < 1.25 * peaks[0]
    # the loop holds one arrival's Python objects: under 2 KB in CPython 3.11
    assert peaks[1] < 2**16


@pytest.mark.parametrize("name", ["single_class", "compete_ranked"])
def test_traced_simulate_peaks_no_higher_than_untraced(tmp_path, name):
    # the trace redraws replication 0's full stream once its kernel has run,
    # and nothing may still hold that replication's arrays then
    scenario = load_scenario(CONFIGS / f"{name}.json")
    if scenario.kind == "fleet":
        prices = _ranked_solution(scenario, ranked_price_equilibrium(scenario)).prices
    else:
        prices = solve_fixed_point(scenario).prices
    cfg = SimConfig(scenario=scenario, replications=3)
    simulate(cfg, prices)  # a first call's one-off allocations are not a run's
    untraced = traced_peak(simulate, cfg, prices)
    traced = traced_peak(simulate, cfg, prices, str(tmp_path / "events.csv"))
    assert traced <= 1.05 * untraced


# --- runs shared with a forked child ---
# A run of _FORK_ARRIVALS expected arrivals or more in all forks. These tests
# force the rule each way at small sizes: at 0 every run of two or more
# replications forks, and at inf none does.


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child the simulators fork, in order."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def force_rule(monkeypatch, forked):
    monkeypatch.setattr(simulate_module, "_FORK_ARRIVALS", 0.0 if forked else math.inf)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_worker():
    return Scenario(classes=(unit_uniform_class(),))


def two_mixture_classes():
    return Scenario(classes=(unit_uniform_class(), unit_uniform_class(service_rate=2.0)),
                    discount=MixtureDiscount(weights=(0.5, 0.5), rates=(1.0, 2.0)))


SPLIT_RUNS = {
    "simulate_lone": (one_worker, lambda cfg: simulate(cfg, (0.6,))),
    "simulate_fleet": (two_ranked_workers, lambda cfg: simulate(cfg, [[0.6], [0.4]])),
    "simulate_queue": (two_queue_classes, lambda cfg: simulate_queue(cfg, 0.5, 0.65)),
    "simulate_discounted": (one_discounted_class, lambda cfg: simulate_discounted(cfg, (0.6,))),
    "simulate_mixture": (two_mixture_classes,
                         lambda cfg: simulate_discounted(cfg, (0.5, 0.6))),
}
TRACED_RUNS = {"lone": (one_worker, (0.6,)), "fleet": (two_ranked_workers, [[0.6], [0.4]])}


@pytest.mark.parametrize(("arrivals", "replications", "forked"), [
    (100_000.0, 30, True),  # `simulate`'s default, as the CLI runs it
    (2.0**19, 2, True),
    (2.0**19 - 1.0, 2, False),
    (2.0**20, 1, False),  # one replication does not split
    (20_000.0, 12, False),  # `validate`
    (6_000.0, 10, False),
])
def test_a_run_forks_by_its_expected_arrivals_in_all(arrivals, replications, forked):
    cfg = SimConfig(scenario=one_worker(), expected_arrivals=arrivals, replications=replications)
    assert simulate_module._forks(cfg) is forked


@pytest.mark.parametrize("replications", [1, 2, 5])
@pytest.mark.parametrize("name", SPLIT_RUNS)
def test_a_forked_run_equals_a_run_in_one_process(monkeypatch, forks, name, replications):
    scenario, run = SPLIT_RUNS[name]
    cfg = SimConfig(scenario=scenario(), expected_arrivals=2_000.0, replications=replications,
                    base_seed=83)
    got = []
    for forked in (True, False):
        force_rule(monkeypatch, forked)
        got.append(repr(run(cfg)))
    assert len(forks) == (replications > 1)
    assert got[0] == got[1]


@pytest.mark.parametrize("replications", [1, 2, 5])
@pytest.mark.parametrize("name", TRACED_RUNS)
def test_a_forked_trace_equals_one_written_in_one_process(tmp_path, monkeypatch, forks, name,
                                                          replications):
    scenario, prices = TRACED_RUNS[name]
    cfg = SimConfig(scenario=scenario(), expected_arrivals=2_000.0, replications=replications,
                    base_seed=84)
    got = []
    for forked in (True, False):
        force_rule(monkeypatch, forked)
        path = tmp_path / str(forked) / "events.csv"
        got.append((repr(simulate(cfg, prices, str(path))), path.read_bytes()))
    assert len(forks) == (replications > 1)
    assert got[0] == got[1]
    assert got[0][0] == repr(simulate(cfg, prices))


def failing_from(monkeypatch, first):
    """Make every replication from `first` on fail as it is drawn, with its
    number in the error."""
    offered_events = simulate_module._offered_events

    def offered_or_fail(scenario, seed, rep, *args):
        if rep >= first:
            raise ValueError(f"replication {rep} failed")
        return offered_events(scenario, seed, rep, *args)

    monkeypatch.setattr(simulate_module, "_offered_events", offered_or_fail)


@pytest.mark.parametrize("first", [0, 1, 2, 3])
@pytest.mark.parametrize("name", SPLIT_RUNS)
def test_a_forked_run_raises_the_error_a_run_in_turn_would(monkeypatch, forks, name, first):
    # of 4 replications, 0-1 run in the child and 2-3 here: from 0 both
    # halves fail, from 2 or 3 this process's alone
    scenario, run = SPLIT_RUNS[name]
    cfg = SimConfig(scenario=scenario(), expected_arrivals=2_000.0, replications=4)
    failing_from(monkeypatch, first)
    for forked in (True, False):
        force_rule(monkeypatch, forked)
        with pytest.raises(ValueError, match=f"^replication {first} failed$"):
            run(cfg)
        assert_no_child_left()
    assert len(forks) == 1


@pytest.mark.parametrize("first", [None, 1])
def test_a_forked_trace_raises_its_error_with_its_type_and_message(tmp_path, monkeypatch,
                                                                   forks, first):
    # the trace's directory is a regular file, so the child writing it fails;
    # when replications 1 and up fail too, the trace's error still comes first
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg = SimConfig(scenario=one_worker(), expected_arrivals=2_000.0, replications=3)
    if first is not None:
        failing_from(monkeypatch, first)
    errors = []
    for forked in (True, False):
        force_rule(monkeypatch, forked)
        with pytest.raises(OSError) as raised:
            simulate(cfg, (0.6,), str(blocker / "events.csv"))
        errors.append((type(raised.value), str(raised.value)))
        assert_no_child_left()
    assert len(forks) == 1
    assert errors[0] == errors[1]
    assert errors[0][0] is FileExistsError


@pytest.mark.parametrize("name", TRACED_RUNS)
def test_a_traced_run_whose_first_draw_fails_raises_that_error(tmp_path, monkeypatch, forks,
                                                               name):
    # the trace job draws replication 0 itself, as do the replications: both
    # calls fail at that draw, before the trace's directory is made
    scenario, prices = TRACED_RUNS[name]
    cfg = SimConfig(scenario=scenario(), expected_arrivals=2_000.0, replications=3)
    failing_from(monkeypatch, 0)
    for forked in (True, False):
        force_rule(monkeypatch, forked)
        path = tmp_path / str(forked) / "events.csv"
        with pytest.raises(ValueError, match="^replication 0 failed$"):
            simulate(cfg, prices, str(path))
        assert not path.parent.exists()
        assert_no_child_left()
    assert len(forks) == 1


class NeedsTwoArguments(Exception):
    """An exception that pickles but does not load back: loading calls the
    class with its one message."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def dying_in_the_child(monkeypatch, how):
    """Make `_queue_rep` end a forked child: exit with no report, or raise an
    exception that cannot be pickled or cannot be loaded back."""
    parent = os.getpid()
    queue_rep = simulate_module._queue_rep

    class Unpicklable(Exception):
        pass  # a local class: pickle cannot find it by name

    def queue_rep_or_die(*args):
        if os.getpid() != parent:
            if how == "exits":
                os._exit(3)
            raise Unpicklable("local") if how == "unpicklable" else NeedsTwoArguments("a", "b")
        return queue_rep(*args)

    monkeypatch.setattr(simulate_module, "_queue_rep", queue_rep_or_die)


@pytest.mark.parametrize("how", ["exits", "unpicklable", "unloadable"])
def test_a_child_that_does_not_report_raises_child_process_error(monkeypatch, forks, how):
    dying_in_the_child(monkeypatch, how)
    force_rule(monkeypatch, True)
    cfg = SimConfig(scenario=two_queue_classes(), expected_arrivals=2_000.0, replications=3)
    status = 3 if how == "exits" else 1
    with pytest.raises(ChildProcessError, match=f"exited with status {status} and no result"):
        simulate_queue(cfg, 0.5, 0.65)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_failed_child_exits_the_cli_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                           forks):
    # `simulate` runs at 100 000 expected arrivals x 30 replications, which fork
    dying_in_the_child(monkeypatch, "exits")
    code = cli.main(["simulate", "--config", str(CONFIGS / "queue.json"),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: a forked simulation process exited with status 3 and no result\n"
    assert len(forks) == 1
    assert_no_child_left()


def test_runs_go_in_one_process_where_the_platform_cannot_fork(monkeypatch, forks):
    cfg = SimConfig(scenario=two_queue_classes(), expected_arrivals=2_000.0, replications=3)
    force_rule(monkeypatch, False)
    alone = repr(simulate_queue(cfg, 0.5, 0.65))
    force_rule(monkeypatch, True)
    monkeypatch.delattr(os, "fork")
    assert not simulate_module._forks(cfg)
    assert repr(simulate_queue(cfg, 0.5, 0.65)) == alone
    assert forks == []


# the runs that split, and a scan of the rank-2 worker, which never forks
HELD_RUNS = {**SPLIT_RUNS,
             "deviation_scan": (two_ranked_workers,
                                lambda cfg: deviation_scan(cfg, [[0.6], [0.4]], 1))}


@pytest.mark.parametrize("name", HELD_RUNS)
def test_no_simulator_holds_a_replication_while_it_draws_the_next(monkeypatch, name):
    scenario, run = HELD_RUNS[name]
    cfg = SimConfig(scenario=scenario(), expected_arrivals=2_000.0, replications=3, base_seed=85)
    force_rule(monkeypatch, False)
    offered_events = simulate_module._offered_events
    drawn = []

    def offered_once_the_last_is_freed(*args):
        assert not drawn or drawn[-1]() is None, "the last replication's arrays are alive"
        events, n = offered_events(*args)
        drawn.append(weakref.ref(events[0]))
        return events, n

    monkeypatch.setattr(simulate_module, "_offered_events", offered_once_the_last_is_freed)
    run(cfg)
    assert len(drawn) == 3


def test_runs_go_in_one_process_while_another_thread_runs(monkeypatch, forks):
    # a fork copies only the calling thread, and any lock another holds
    cfg = SimConfig(scenario=two_queue_classes(), expected_arrivals=2_000.0, replications=3)
    force_rule(monkeypatch, False)
    alone = repr(simulate_queue(cfg, 0.5, 0.65))
    force_rule(monkeypatch, True)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(10.0,))
    waiting.start()
    try:
        assert not simulate_module._forks(cfg)
        assert repr(simulate_queue(cfg, 0.5, 0.65)) == alone
    finally:
        release.set()
        waiting.join(10.0)
    assert not waiting.is_alive()
    assert forks == []
    assert simulate_module._forks(cfg)
