"""Scenario kinds: which model a scenario poses, the shapes no model covers,
and every public operation refusing the kinds it does not serve."""

import pytest

from ondemand_pricing import (
    ConfigError,
    ExponentialDiscount,
    MixtureDiscount,
    ModelMismatch,
    Scenario,
    SimConfig,
    WorkerSpec,
    avg_earning_rate,
    best_response_dynamics,
    busy_fraction,
    deviation_scan,
    discount_adjusted,
    discounted_value,
    first_step_solve,
    fleet_rates,
    grid_search_optimum,
    mixture_horizon_optimize,
    mixture_horizon_value,
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

from tests.conftest import queue_scenario, unit_uniform_class

CLASS = unit_uniform_class()
MIXTURE = MixtureDiscount(weights=(0.5, 0.5), rates=(1.0, 2.0))

# one single-class scenario per kind, so a class-count limit never fires first
KINDS = {
    "loss": Scenario(classes=(CLASS,)),
    "fleet": Scenario(classes=(CLASS,), workers=(WorkerSpec(rank=1), WorkerSpec(rank=2))),
    "discounted": Scenario(classes=(CLASS,), discount=ExponentialDiscount(1.0)),
    "mixture": Scenario(classes=(CLASS,), discount=MIXTURE),
    "queue": Scenario(classes=(CLASS,), queue_capacity=1),
}


def config(scenario):
    return SimConfig(scenario=scenario, expected_arrivals=100.0, replications=2)


# operation -> (the kinds it serves, a call on one scenario)
OPERATIONS = {
    "avg_earning_rate": (("loss",), lambda s: avg_earning_rate(s, (0.5,))),
    "rate_map": (("loss",), lambda s: rate_map(s, 0.1)),
    "solve_fixed_point": (("loss",), solve_fixed_point),
    "grid_search_optimum": (("loss",), lambda s: grid_search_optimum(s, 0.1)),
    "busy_fraction": (("loss",), lambda s: busy_fraction(s, (0.5,))),
    "discount_adjusted": (("loss", "discounted", "mixture"),
                          lambda s: discount_adjusted(s, 1.0)),
    "discounted_value": (("discounted",), lambda s: discounted_value(s, (0.5,))),
    "solve_discounted": (("discounted",), solve_discounted),
    "mixture_horizon_value": (("mixture",), lambda s: mixture_horizon_value(s, (0.5,))),
    "mixture_horizon_optimize": (("mixture",), mixture_horizon_optimize),
    "queue_rate": (("queue",), lambda s: queue_rate(s, 0.5, 0.5)),
    "first_step_solve": (("queue",), lambda s: first_step_solve(s, 0.5, 0.5)),
    "queue_optimize": (("queue",), queue_optimize),
    "ranked_price_equilibrium": (("loss", "fleet"), ranked_price_equilibrium),
    "fleet_rates": (("loss", "fleet"), lambda s: fleet_rates(s, (0.5,))),
    "best_response_dynamics": (("fleet",), best_response_dynamics),
    "simulate": (("loss", "fleet"), lambda s: simulate(config(s), (0.5,))),
    "simulate_discounted": (("discounted", "mixture"),
                            lambda s: simulate_discounted(config(s), (0.5,))),
    "simulate_queue": (("queue",), lambda s: simulate_queue(config(s), 0.5, 0.5)),
    "deviation_scan": (("loss", "fleet"), lambda s: deviation_scan(config(s), (0.5,), 0)),
}

MISMATCHES = [
    (op, kind) for op, (serves, _) in OPERATIONS.items() for kind in KINDS if kind not in serves
]


def test_kind_of_each_model(ranked_fleet_scenario, undifferentiated_scenario,
                            mixture_scenario, discounted_scenario, two_class_scenario):
    assert {name: s.kind for name, s in KINDS.items()} == {name: name for name in KINDS}
    assert two_class_scenario.kind == "loss"
    assert ranked_fleet_scenario.kind == undifferentiated_scenario.kind == "fleet"
    assert discounted_scenario.kind == "discounted"
    assert mixture_scenario.kind == "mixture"
    assert queue_scenario(0.5).kind == "queue"


@pytest.mark.parametrize(
    "shape, key",
    [
        (dict(queue_capacity=1, discount=ExponentialDiscount(1.0)), "scenario.discount"),
        (dict(queue_capacity=1, discount=MIXTURE), "scenario.discount"),
        (dict(queue_capacity=1, workers=(WorkerSpec(rank=1), WorkerSpec(rank=2))),
         "scenario.queue_capacity"),
        (dict(discount=ExponentialDiscount(1.0), workers=(WorkerSpec(), WorkerSpec())),
         "scenario.discount"),
        (dict(discount=MIXTURE, workers=(WorkerSpec(rank=1), WorkerSpec(rank=2))),
         "scenario.discount"),
    ],
    ids=["queue_exponential", "queue_mixture", "queue_fleet", "fleet_exponential",
         "fleet_mixture"],
)
def test_shapes_no_model_covers_are_rejected(shape, key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        Scenario(classes=(CLASS, CLASS), **shape)


def test_require_names_the_operation_and_kinds():
    KINDS["loss"].require("op", "loss", "fleet")
    with pytest.raises(ModelMismatch, match="^op applies to fleet or queue scenarios, not loss$"):
        KINDS["loss"].require("op", "fleet", "queue")


def test_grid_oracle_refuses_the_queue():
    # the loss-system grid optimum (0.268) is not the queue's optimum (0.352)
    with pytest.raises(ModelMismatch, match="not queue$"):
        grid_search_optimum(queue_scenario(0.5))


@pytest.mark.parametrize("op, kind", MISMATCHES, ids=[f"{op}-{kind}" for op, kind in MISMATCHES])
def test_operation_refuses_other_kinds(op, kind):
    _, call = OPERATIONS[op]
    with pytest.raises(ModelMismatch, match=f"^{op} applies to .* scenarios, not {kind}$"):
        call(KINDS[kind])
