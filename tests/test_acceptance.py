"""Acceptance checks: the numbered benchmark battery for the whole package.

Each test below stands for one numbered criterion; the conftest hook prints a
single [PASS]/[FAIL] line per criterion in the terminal summary. Tolerances
are part of the contract and must not be loosened.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from ondemand_pricing import (
    CustomerClass,
    ExponentialDiscount,
    ExponentialDuration,
    DeterministicDuration,
    EmpiricalDuration,
    Scenario,
    SimConfig,
    UniformValuation,
    WorkerSpec,
    best_response_dynamics,
    deviation_scan,
    discount_adjusted,
    first_step_solve,
    grid_search_optimum,
    hybrid_solve,
    mixture_horizon_optimize,
    queue_optimize,
    queue_rate,
    ranked_price_equilibrium,
    rate_map,
    simulate,
    simulate_discounted,
    simulate_queue,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing.cli import main
from tests.conftest import deadline_censor_ratio, queue_scenario, unit_uniform_class

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Registry of every solver run performed by this module; the trace-monotonicity
# criterion re-checks all of them at the end on top of its own battery.
SOLVED = []


def tracked_solve(scenario, **kwargs):
    sol = solve_fixed_point(scenario, **kwargs)
    SOLVED.append(sol)
    return sol


def tracked_solve_discounted(scenario):
    sol = solve_discounted(scenario)
    SOLVED.append(sol)
    return sol


def assert_trace_monotone(sol):
    achieved = [step[1] for step in sol.trace]
    for earlier, later in zip(achieved, achieved[1:]):
        assert later >= earlier - 1e-12
    assert all(value <= sol.rate + 1e-12 for value in achieved)


def test_criterion_01_two_class_benchmark(two_class_scenario):
    for r0 in (0.0, 1.0, 2.0):
        sol = tracked_solve(two_class_scenario, r0=r0)
        assert sol.converged
        assert sol.iterations <= 20
        assert sol.rate == pytest.approx(0.40589, abs=1e-4)
        assert sol.prices[0] == pytest.approx(0.70294, abs=1e-4)
        assert sol.prices[1] == pytest.approx(1.20294, abs=1e-4)

    solve_fixed_point(two_class_scenario)  # warm caches before timing
    timings = []
    for _ in range(200):
        start = time.perf_counter()
        solve_fixed_point(two_class_scenario)
        timings.append(time.perf_counter() - start)
    assert float(np.median(timings)) < 1e-3


def test_criterion_02_rate_map_branches(two_class_scenario):
    low = np.linspace(0.0, 1.0, 500)
    high = np.linspace(1.0, 2.0, 501)[1:]
    for reserve in np.concatenate([low, high]):
        reserve = float(reserve)
        achieved, _ = rate_map(two_class_scenario, reserve)
        if reserve <= 1.0:
            want = (6.0 - 3.0 * reserve**2) / (2.0 * (8.0 - 3.0 * reserve))
        else:
            want = (4.0 - reserve**2) / (2.0 * (6.0 - reserve))
        assert abs(achieved - want) <= 1e-12


def test_criterion_03_single_class_and_hybrid(single_class_scenario):
    sol = tracked_solve(single_class_scenario)
    price = sol.prices[0]
    assert price == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
    idle = 1.0 / (1.0 + 1.0 * (1.0 - price))
    assert idle == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    patient = unit_uniform_class(arrival_rate=0.5)
    hybrid = hybrid_solve(unit_uniform_class(), patient)
    assert hybrid.feasible
    assert hybrid.on_demand_price == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
    assert hybrid.patient_price == pytest.approx(0.5, abs=1e-9)


def test_criterion_04_mixture_price_discrimination(mixture_scenario):
    prices, value = mixture_horizon_optimize(mixture_scenario)
    assert prices[0] == pytest.approx(0.56761, abs=1e-3)
    assert prices[1] == pytest.approx(0.567089, abs=1e-3)
    # same valuation law, different service speeds: the optimum discriminates
    assert abs(prices[0] - prices[1]) > 1e-5
    assert value > 0.0


def _random_queue_instance(rng):
    classes = []
    for _ in range(2):
        upper = float(rng.uniform(0.5, 2.0))
        classes.append(
            CustomerClass(
                arrival_rate=float(rng.uniform(0.2, 2.5)),
                duration=ExponentialDuration(float(rng.uniform(0.3, 3.0))),
                valuation=UniformValuation(0.0, upper),
            )
        )
    prices = tuple(
        float(rng.uniform(0.05, 0.95)) * cls.valuation.upper for cls in classes
    )
    return Scenario(classes=tuple(classes), queue_capacity=1), prices


def test_criterion_05_queue_cross_derivation(tmp_path):
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        scenario, (price_a, price_b) = _random_queue_instance(rng)
        closed = queue_rate(scenario, price_a, price_b)
        renewal = first_step_solve(scenario, price_a, price_b).rate
        assert abs(closed - renewal) <= 1e-12

    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(CONFIGS / "queue.json"),
                 "--param", "r", "--out", str(out)]) == 0
    lines = (out / "sweep_r.csv").read_text().strip().splitlines()
    assert lines[0] == "r,p_A_star,p_B_star,rate"
    assert len(lines) > 20
    for line in lines[1:]:
        r, price_a, price_b, _ = (float(x) for x in line.split(","))
        if r == 1.0:
            assert abs(price_b - price_a) < 1e-5
        else:
            assert math.copysign(1.0, price_b - price_a) == math.copysign(1.0, 1.0 - r)


def test_criterion_06_shared_law_uniform_prices():
    rng = np.random.default_rng(606)
    class_counts = []
    for index in range(50):
        k = index % 3 + 1
        class_counts.append(k)
        law = UniformValuation(0.0, float(rng.uniform(0.6, 1.3)))
        classes = tuple(
            CustomerClass(
                arrival_rate=float(rng.uniform(0.2, 2.0)),
                duration=ExponentialDuration(float(rng.uniform(0.4, 2.5))),
                valuation=law,
            )
            for _ in range(k)
        )
        scenario = Scenario(classes=classes)
        sol = tracked_solve(scenario)
        assert all(price == sol.prices[0] for price in sol.prices)
        _, oracle_rate = grid_search_optimum(scenario, 1e-3)
        assert oracle_rate <= sol.rate + 1e-3

        gamma = float(rng.uniform(0.3, 2.0))
        discounted = Scenario(classes=classes, discount=ExponentialDiscount(gamma))
        dsol = tracked_solve_discounted(discounted)
        assert all(price == dsol.prices[0] for price in dsol.prices)
        _, adjusted_oracle = grid_search_optimum(discount_adjusted(discounted, gamma), 1e-3)
        assert adjusted_oracle <= dsol.rate + 1e-3
    assert set(class_counts) == {1, 2, 3}


def test_criterion_07_censor_ratio_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    lognormal_like = tuple(float(x) for x in np.exp(rng.normal(0.0, 0.5, size=64)))
    laws = (
        ExponentialDuration(1.0),
        DeterministicDuration(0.8),
        EmpiricalDuration(lognormal_like),
    )
    for law_index, law in enumerate(laws):
        for gamma_index, gamma in enumerate((0.5, 1.0, 3.0)):
            estimate = deadline_censor_ratio(
                law, gamma, draws=1_000_000, seed=100 + 10 * law_index + gamma_index
            )
            assert abs(estimate.ratio - gamma) <= 3.0 * estimate.se
    assert time.perf_counter() - start < 10.0


def test_criterion_08_simulator_agreement(two_class_scenario, discounted_scenario):
    start = time.perf_counter()

    sol = tracked_solve(two_class_scenario)
    stats = simulate(
        SimConfig(two_class_scenario, expected_arrivals=100_000.0,
                  replications=30, base_seed=801),
        sol.prices,
    )
    assert abs(stats.mean - sol.rate) <= 3.0 * stats.se

    dsol = tracked_solve_discounted(discounted_scenario)
    dstats = simulate_discounted(
        SimConfig(discounted_scenario, expected_arrivals=100_000.0,
                  replications=30, base_seed=802),
        dsol.prices,
    )
    assert abs(dstats.mean - dsol.value) <= 3.0 * dstats.se

    queue = queue_scenario(0.5)
    (price_a, price_b), analytic = queue_optimize(queue)
    qstats = simulate_queue(
        SimConfig(queue, expected_arrivals=100_000.0,
                  replications=30, base_seed=803),
        price_a,
        price_b,
    )
    assert abs(qstats.mean - analytic) <= 3.0 * qstats.se

    assert time.perf_counter() - start < 120.0


def test_criterion_10_fleet_deviation_and_cycle(
    ranked_fleet_scenario, undifferentiated_scenario
):
    equilibrium = ranked_price_equilibrium(ranked_fleet_scenario)
    matrix = [
        list(equilibrium.by_rank(worker.rank).prices)
        for worker in ranked_fleet_scenario.workers
    ]
    config = SimConfig(
        ranked_fleet_scenario, expected_arrivals=20_000.0,
        replications=16, base_seed=20260815,
    )
    for index in range(len(matrix)):
        report = deviation_scan(config, matrix, index)
        assert not report.any_significant

    dynamics = best_response_dynamics(undifferentiated_scenario)
    assert dynamics.fixed_profile is None
    assert dynamics.cycle_start is not None
    assert dynamics.cycle_length is not None and dynamics.cycle_length > 0
    assert dynamics.rounds_run <= 100


def test_criterion_09_trace_monotone(two_class_scenario, single_class_scenario):
    # own battery: the named benchmarks plus randomized instances and starts
    rng = np.random.default_rng(909)
    for scenario in (two_class_scenario, single_class_scenario):
        for r0 in (0.0, 0.5, 2.0):
            tracked_solve(scenario, r0=r0)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        classes = tuple(
            CustomerClass(
                arrival_rate=float(rng.uniform(0.2, 2.0)),
                duration=ExponentialDuration(float(rng.uniform(0.4, 2.5))),
                valuation=UniformValuation(0.0, float(rng.uniform(0.5, 2.0))),
            )
            for _ in range(k)
        )
        tracked_solve(Scenario(classes=classes), r0=float(rng.uniform(0.0, 1.0)))

    # plus everything the other criteria solved before this test ran
    assert len(SOLVED) >= 31
    for sol in SOLVED:
        assert_trace_monotone(sol)
