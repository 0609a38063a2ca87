"""Prices are hourly rates: every public operation that takes prices refuses a
NaN, an infinite or a negative price, and a price vector of the wrong length,
with a ConfigError from `check_prices` (a fleet's matrix shape aside)."""

import math

import pytest

from ondemand_pricing import (
    ConfigError,
    ExponentialDiscount,
    MixtureDiscount,
    Scenario,
    SimConfig,
    WorkerSpec,
    avg_earning_rate,
    busy_fraction,
    check_prices,
    deviation_scan,
    discounted_value,
    first_step_solve,
    fleet_rates,
    mixture_horizon_value,
    queue_rate,
    simulate,
    simulate_discounted,
    simulate_queue,
)

from tests.conftest import queue_scenario, unit_uniform_class

CLASSES = (unit_uniform_class(), unit_uniform_class(high=2.0))
RANKED = (WorkerSpec(rank=1), WorkerSpec(rank=2))
LOSS = Scenario(classes=CLASSES)
FLEET = Scenario(classes=CLASSES[:1], workers=RANKED)
FLEET_TWO_CLASSES = Scenario(classes=CLASSES, workers=RANKED)
UNDIFFERENTIATED = Scenario(classes=CLASSES[:1], workers=(WorkerSpec(), WorkerSpec()))
DISCOUNTED = Scenario(classes=CLASSES, discount=ExponentialDiscount(1.0))
MIXTURE = Scenario(classes=CLASSES, discount=MixtureDiscount((0.5, 0.5), (1.0, 2.0)))
QUEUE = queue_scenario(0.5)


def config(scenario):
    return SimConfig(scenario=scenario, expected_arrivals=100.0, replications=2)


# operation -> (valid prices, a call on them, whether their count is free);
# the queue operations take exactly two prices by signature
OPERATIONS = {
    "check_prices": ((0.5, 0.5), lambda p: check_prices(LOSS, p), True),
    "avg_earning_rate": ((0.5, 0.5), lambda p: avg_earning_rate(LOSS, p), True),
    "busy_fraction": ((0.5, 0.5), lambda p: busy_fraction(LOSS, p), True),
    "discounted_value": ((0.5, 0.5), lambda p: discounted_value(DISCOUNTED, p), True),
    "mixture_horizon_value": ((0.5, 0.5), lambda p: mixture_horizon_value(MIXTURE, p), True),
    "queue_rate": ((0.5, 0.5), lambda p: queue_rate(QUEUE, *p), False),
    "first_step_solve": ((0.5, 0.5), lambda p: first_step_solve(QUEUE, *p), False),
    "fleet_rates-ranked": ((0.6, 0.4), lambda p: fleet_rates(FLEET, p), True),
    "fleet_rates-cheapest": ((0.5, 0.5), lambda p: fleet_rates(UNDIFFERENTIATED, p), True),
    "simulate-loss": ((0.5, 0.5), lambda p: simulate(config(LOSS), p), True),
    # the first worker's row of a fleet's price matrix
    "simulate-fleet": ((0.6, 0.6), lambda p: simulate(config(FLEET_TWO_CLASSES),
                                                       (p, (0.4, 0.4))), True),
    "simulate_discounted": ((0.5, 0.5), lambda p: simulate_discounted(config(DISCOUNTED), p),
                            True),
    "simulate_discounted-mixture": ((0.5, 0.5),
                                    lambda p: simulate_discounted(config(MIXTURE), p), True),
    "simulate_queue": ((0.5, 0.5), lambda p: simulate_queue(config(QUEUE), *p), False),
    "deviation_scan-prices": ((0.6,), lambda p: deviation_scan(config(FLEET), (p, (0.4,)), 1,
                                                                (0.5,)), True),
    # the scanned grid, whose length is free; an empty one is refused below
    "deviation_scan-grid": ((0.3, 0.5), lambda p: deviation_scan(config(FLEET),
                                                                  ((0.6,), (0.4,)), 1, p),
                            False),
}

BAD_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -1.0}

CASES = [(op, bad) for op in OPERATIONS for bad in BAD_VALUES] + [
    (op, "wrong_length") for op, (_, _, sized) in OPERATIONS.items() if sized
]


def bad_prices(valid, bad):
    if bad == "wrong_length":
        return (*valid, 0.5)
    return (BAD_VALUES[bad], *valid[1:])


@pytest.mark.parametrize("op", OPERATIONS)
def test_valid_prices_pass(op):
    valid, call, _ = OPERATIONS[op]
    call(valid)


@pytest.mark.parametrize("op, bad", CASES, ids=[f"{op}-{bad}" for op, bad in CASES])
def test_bad_prices_are_refused(op, bad):
    valid, call, _ = OPERATIONS[op]
    with pytest.raises(ConfigError, match="price"):
        call(bad_prices(valid, bad))


def test_deviation_scan_refuses_an_empty_grid():
    with pytest.raises(ConfigError, match="grid"):
        deviation_scan(config(FLEET), ((0.6,), (0.4,)), 1, ())
