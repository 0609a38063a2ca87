import csv
import math
from dataclasses import replace
from pathlib import Path

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
    simulate,
    simulate_discounted,
    simulate_queue,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing.config import load_scenario
from ondemand_pricing.simulate import (
    Counts,
    _class_arrivals,
    _class_stream,
    _loss_accepts,
    _mean_se,
    _merged_events,
    _stats,
    _write_trace,
)
from tests.conftest import queue_scenario, unit_uniform_class

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_event_trace_written(tmp_path, two_class_scenario):
    path = tmp_path / "events.csv"
    cfg = small_config(two_class_scenario, expected_arrivals=500.0,
                       replications=2, trace_path=str(path))
    simulate(cfg, (0.7, 1.2))
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


def reference_simulate(config, prices):
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
    trace = open(config.trace_path, "w", newline="") if config.trace_path else None
    log = csv.writer(trace) if trace else None
    if log:
        log.writerow(["time", "event", "class", "worker", "value"])
    for rep in range(config.replications):
        events = [a.tolist() for a in _merged_events(scenario, config.base_seed, rep, horizon)]
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
        events = [a.tolist() for a in _merged_events(base, config.base_seed, rep,
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


def reference_simulate_queue(config, price_a, price_b):
    scenario = config.scenario
    cost = scenario.workers[0].cost
    prices = (float(price_a), float(price_b))
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    span = horizon - warm

    rep_rates = []
    counts = Counts()
    for rep in range(config.replications):
        times, ks, vs, ds = _merged_events(scenario, config.base_seed, rep, horizon)
        fits = np.flatnonzero(~(vs < np.asarray(prices)[ks]))
        n_arr, n_price = times.size, times.size - fits.size
        service_end = 0.0
        pending = None
        earned = 0.0
        n_acc = n_busy = 0

        def start_job(k, start, dur):
            nonlocal earned
            earned += (prices[k] - cost) * max(0.0, min(start + dur, horizon) - max(start, warm))
            return start + dur

        for t, k, d in zip(times[fits].tolist(), ks[fits].tolist(), ds[fits].tolist()):
            if pending is not None and service_end <= t:
                service_end = start_job(pending[0], service_end, pending[1])
                pending = None
            if service_end <= t:
                n_acc += 1
                service_end = start_job(k, t, d)
            elif pending is None:
                n_acc += 1
                pending = (k, d)
            else:
                n_busy += 1
        if pending is not None:
            start_job(pending[0], service_end, pending[1])
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
    got = simulate(small_config(scenario, trace_path=str(tmp_path / "got.csv"), **kw), prices)
    want = reference_simulate(small_config(scenario, trace_path=str(tmp_path / "want.csv"),
                                           **kw), prices)
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


@pytest.mark.parametrize("worker_index", [0, 1, 2])
def test_deviation_scan_three_worker_fleet_equals_separate_simulations(worker_index):
    # ranks out of scenario order, so the workers ranked above and below the
    # scanned one are not its neighbours by index
    cls = CustomerClass(arrival_rate=1.3, duration=EmpiricalDuration((0.3, 1.2, 0.7)),
                        valuation=PiecewiseLinearValuation(((0.1, 0.0), (0.6, 0.3),
                                                            (1.5, 1.0))))
    scenario = Scenario(classes=(cls,), workers=(WorkerSpec(cost=0.05, rank=3),
                                                 WorkerSpec(cost=0.0, rank=1),
                                                 WorkerSpec(cost=0.02, rank=2)))
    cfg = SimConfig(scenario=scenario, expected_arrivals=2_000.0, replications=4,
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
    ends = times + rng.exponential({"light": 0.2, "heavy": 6.0, "cut": 3.0}[kind], n)
    if kind == "cut":
        windows = (times / 25.0).astype(np.int64)
        return times, ends, np.searchsorted(windows, windows, "right")
    return times, ends, None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000, 5000])
@pytest.mark.parametrize("kind", ["light", "heavy", "tied_times", "below_ulp", "cut"])
def test_loss_accepts_matches_plain_loop(kind, n):
    for seed in range(3):
        times, ends, cut = kernel_instance(kind, n, seed)
        got = _loss_accepts(times, ends, cut)
        assert got.dtype == np.intp
        assert got.tolist() == reference_loss_accepts(times, ends, cut)


@pytest.mark.parametrize("n", range(18))
def test_loss_accepts_path_ending_at_last_job(n):
    # every job is accepted: path lengths 0 to 17 cross each power of two,
    # and the path ends exactly at job n - 1
    times = np.arange(n, dtype=float)
    assert _loss_accepts(times, times + 0.5).tolist() == list(range(n))
    # job 0 jumps straight to the last job
    if n >= 2:
        assert _loss_accepts(times, np.full(n, n - 1.5)).tolist() == [0, n - 1]


@pytest.mark.parametrize("rate", [0.0, 0.7, 40.0])
def test_merged_events_one_class_is_the_stable_sort(rate):
    cls = replace(mixed_classes(1)[0], arrival_rate=rate)
    got = _merged_events(Scenario(classes=(cls,)), 11, 2, 300.0)
    times, vs, ds = _class_arrivals(cls, _class_stream(11, 2, 0), 300.0)
    order = np.argsort(times, kind="stable")
    want = (times[order], np.zeros(times.size, dtype=int), vs[order], ds[order])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


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
