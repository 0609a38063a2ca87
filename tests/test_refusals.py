"""Refusals of outside input that no other test reaches: each raises its own
error type with a message naming what was wrong."""

import json
import math

import pytest

from ondemand_pricing import (
    ConfigError,
    CustomerClass,
    DeterministicDuration,
    ModelMismatch,
    PiecewiseLinearValuation,
    RankedEquilibrium,
    ResidualDemandCurve,
    Scenario,
    SimConfig,
    UniformValuation,
    WorkerOutcome,
    WorkerSpec,
    deviation_scan,
    hybrid_solve,
    load_scenario,
    queue_rate,
    simulate,
    simulate_queue,
)
from ondemand_pricing.cli import main

from .conftest import queue_scenario, unit_uniform_class

DETERMINISTIC = CustomerClass(arrival_rate=1.0, duration=DeterministicDuration(1.0),
                              valuation=UniformValuation(0.0, 1.0))


def fleet(workers=2):
    return Scenario(classes=(unit_uniform_class(),),
                    workers=tuple(WorkerSpec(rank=r + 1) for r in range(workers)))


def queue_stats():
    return simulate_queue(SimConfig(scenario=queue_scenario(1.0), expected_arrivals=50.0,
                                    replications=2), 0.5, 0.5)


def outcome(rank):
    return WorkerOutcome(rank=rank, prices=(0.5,), rate=0.1, busy_fraction=0.2, converged=True)


# case -> (call, error type, message); a dict or list in place of the call is
# a config document, which `load_scenario` refuses and `main` exits 2 on, its
# message naming the file as {path}
REFUSALS = {
    "uniform_infinite_high": (lambda: UniformValuation(0.0, math.inf), ConfigError,
                              "uniform valuation bounds must be finite"),
    "piecewise_one_knot": (lambda: PiecewiseLinearValuation(((0.0, 0.0),)), ConfigError,
                           "piecewise valuation needs at least two knots"),
    "piecewise_nan_knot": (lambda: PiecewiseLinearValuation(((0.0, 0.0), (math.nan, 1.0))),
                           ConfigError, "piecewise valuation knots must be finite"),
    "piecewise_negative_first_value": (
        lambda: PiecewiseLinearValuation(((-1.0, 0.0), (1.0, 1.0))), ConfigError,
        "piecewise valuation support must be nonnegative"),
    "queue_rate_deterministic_duration": (
        lambda: queue_rate(Scenario(classes=(DETERMINISTIC, unit_uniform_class()),
                                    queue_capacity=1), 0.5, 0.5),
        ModelMismatch, "queue_rate needs exponential durations"),
    "hybrid_deterministic_duration": (
        lambda: hybrid_solve(unit_uniform_class(), DETERMINISTIC), ModelMismatch,
        "hybrid_solve needs exponential durations"),
    "discount_none_with_params": (
        {"classes": [{"arrival_rate": 1.0,
                      "duration": {"kind": "exponential", "params": {"rate": 1.0}},
                      "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 1.0}}}],
         "discount": {"kind": "none", "params": {"rate": 1.0}}},
        ConfigError, "scenario.discount.params: discount kind 'none' takes no params"),
    "top_level_array": ([], ConfigError, "{path}: top level must be an object"),
    "zero_expected_arrivals": (
        lambda: SimConfig(scenario=fleet(1), expected_arrivals=0.0), ConfigError,
        "expected_arrivals must be positive"),
    "nan_expected_arrivals": (
        lambda: SimConfig(scenario=fleet(1), expected_arrivals=math.nan), ConfigError,
        "expected_arrivals must be positive"),
    "fractional_replications": (
        lambda: SimConfig(scenario=fleet(1), replications=2.5), ConfigError,
        "replications must be an integer >= 1, not 2.5"),
    "nan_replications": (
        lambda: SimConfig(scenario=fleet(1), replications=math.nan), ConfigError,
        "replications must be an integer >= 1, not nan"),
    "fractional_seed": (lambda: SimConfig(scenario=fleet(1), base_seed=1.5), ConfigError,
                        "seed must be an integer, not 1.5"),
    "nan_seed": (lambda: SimConfig(scenario=fleet(1), base_seed=math.nan), ConfigError,
                 "seed must be an integer, not nan"),
    "scan_one_replication": (
        lambda: deviation_scan(SimConfig(scenario=fleet(), replications=1),
                               [[0.6], [0.4]], 0),
        ConfigError, "deviation_scan needs at least two replications"),
    "worker_mean_se_of_a_queue_run": (lambda: queue_stats().worker_mean_se(0), ValueError,
                                      "no per-worker breakdown recorded"),
    "flat_prices_for_a_fleet": (
        lambda: simulate(SimConfig(scenario=fleet(), expected_arrivals=50.0,
                                   replications=2), [0.6, 0.4]),
        ConfigError, "expected a 2x1 price matrix, one row per worker"),
    "busy_fraction_above_one": (
        lambda: ResidualDemandCurve(unit_uniform_class(), ((0.5, 1.5),)), ModelMismatch,
        "busy fractions must lie in [0, 1]"),
    "by_rank_past_the_fleet": (
        lambda: RankedEquilibrium((outcome(1), outcome(2))).by_rank(3), KeyError,
        "no worker with rank 3"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_raises_its_error_and_message(tmp_path, capsys, case):
    call, error, message = REFUSALS[case]
    if isinstance(call, (dict, list)):
        cfg = tmp_path / "refused.json"
        cfg.write_text(json.dumps(call))
        message = message.format(path=cfg)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()
        call = lambda: load_scenario(cfg)  # noqa: E731
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert info.value.args == (message,)
