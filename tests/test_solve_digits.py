"""The solve layer's outputs to the last bit.

Every solve function is run on every bundled config it applies to, plus a
few scenarios with exponential and piecewise-linear laws, and its prices,
rates, values and iteration counts are compared by `float.hex` with the
values the solve layer gave before its checks moved to the public entry
points. A refactor or speed-up of the solve layer must keep them all.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from ondemand_pricing import (
    CustomerClass,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    MixtureDiscount,
    PiecewiseLinearValuation,
    PricingError,
    Scenario,
    avg_earning_rate,
    discount_adjusted,
    mixture_horizon_value,
    queue_rate,
    UniformValuation,
    WorkerSpec,
    hybrid_solve,
    ranked_price_equilibrium,
    rate_map,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing.config import load_scenario
from ondemand_pricing.queues import _mixture_solve, _queue_solve
from tests.test_queues import random_law

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RESERVES = (0.0, 0.1, math.inf)


def _mixed_classes():
    steep = CustomerClass(2.0, ExponentialDuration(1.5), ExponentialValuation(1.5))
    knotted = CustomerClass(0.7, ExponentialDuration(0.8), PiecewiseLinearValuation(
        ((0.2, 0.0), (1.0, 0.2), (1.8, 0.6), (2.4, 1.0))))
    return steep, knotted


# A heavy-load queue whose best start shuts the piecewise class out: the run
# from its price at the top of its support earns 1.09277, while the interior
# point reached from the monopoly prices earns 1.09169.
SHUT_OUT_QUEUE = Scenario(
    classes=(
        CustomerClass(29.752, ExponentialDuration(0.37), ExponentialValuation(2.573)),
        CustomerClass(7.954, ExponentialDuration(2.738), PiecewiseLinearValuation(
            ((0.2, 0.0), (0.789, 0.352), (1.628, 1.0)))),
    ),
    workers=(WorkerSpec(cost=0.168),),
    queue_capacity=1,
)

# Four classes over every duration law, so the loads come from empirical and
# deterministic means as well as exponential ones.
FOUR_CLASS_LOSS = Scenario(
    classes=(
        CustomerClass(0.9, EmpiricalDuration((0.25, 1.5, 0.8, 2.2, 0.35)),
                      PiecewiseLinearValuation(((0.1, 0.0), (0.6, 0.1), (1.1, 0.3),
                                                (1.7, 0.65), (2.0, 1.0)))),
        CustomerClass(1.6, DeterministicDuration(0.45), UniformValuation(0.2, 1.4)),
        CustomerClass(0.35, ExponentialDuration(0.7), ExponentialValuation(0.9)),
        CustomerClass(2.3, DeterministicDuration(1.3),
                      PiecewiseLinearValuation(((0.0, 0.0), (0.9, 0.4), (1.3, 1.0)))),
    ),
    workers=(WorkerSpec(cost=0.05),),
)


def scenarios() -> dict[str, Scenario]:
    """The bundled configs by file stem, plus one scenario of each solvable
    kind whose classes use exponential and piecewise-linear laws, a
    heavy-load queue won by a shut-out start and a four-class loss system."""
    out = {path.stem: load_scenario(path) for path in sorted(CONFIGS.glob("*.json"))}
    steep, knotted = _mixed_classes()
    worker = (WorkerSpec(cost=0.2),)
    out["mixed_loss"] = Scenario(classes=(steep, knotted), workers=worker)
    out["mixed_discounted"] = Scenario(classes=(knotted,), workers=worker,
                                       discount=ExponentialDiscount(0.3))
    out["mixed_mixture"] = Scenario(classes=(steep, knotted), workers=worker,
                                    discount=MixtureDiscount((0.25, 0.75), (0.5, 3.0)))
    out["mixed_queue"] = Scenario(classes=(steep, knotted), workers=worker, queue_capacity=1)
    out["mixed_fleet"] = Scenario(classes=(knotted,),
                                  workers=(WorkerSpec(cost=0.2, rank=1), WorkerSpec(rank=2)))
    out["shut_out_queue"] = SHUT_OUT_QUEUE
    out["four_class_loss"] = FOUR_CLASS_LOSS
    return out


def _hex(x):
    if x is None or isinstance(x, (bool, int)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_hex(v) for v in x)
    return float(x).hex()


def _solution(sol):
    return _hex(sol.prices), _hex(sol.rate), _hex(sol.value), sol.iterations, sol.converged


def _hybrid(scenario):
    if scenario.num_classes != 2 or len(scenario.workers) != 1:
        raise PricingError("hybrid_solve takes an on-demand and a patient class")
    sol = hybrid_solve(*scenario.classes, scenario.workers[0].cost)
    return (_hex(sol.on_demand_price), _hex(sol.idle_fraction), sol.feasible,
            _hex(sol.patient_price))


def _ranked(scenario):
    return tuple((o.rank, _hex(o.prices), _hex(o.rate), _hex(o.busy_fraction), o.converged)
                 for o in ranked_price_equilibrium(scenario).outcomes)


FUNCTIONS = {
    "solve_fixed_point": lambda s: _solution(solve_fixed_point(s)),
    "solve_discounted": lambda s: _solution(solve_discounted(s)),
    "queue_optimize": lambda s: _solution(_queue_solve(s)),
    "mixture_horizon_optimize": lambda s: _solution(_mixture_solve(s)),
    "hybrid_solve": _hybrid,
    "ranked_price_equilibrium": _ranked,
    **{f"rate_map@{r}": (lambda s, r=r: _hex(rate_map(s, r))) for r in RESERVES},
}


def digits() -> dict[tuple[str, str], tuple]:
    """Every (function, scenario) pair that solves, with its outputs in hex.
    A pair whose function refuses the scenario's kind is left out."""
    out = {}
    for name, scenario in scenarios().items():
        for fn_name, fn in FUNCTIONS.items():
            try:
                out[fn_name, name] = fn(scenario)
            except PricingError:
                continue
    return out


PINS = {
    ('ranked_price_equilibrium', 'compete_ranked'):
        ((1, ('0x1.2bec333018867p-1',), '0x1.5f619980c4337p-3', '0x1.2bec333018867p-2', True),
         (2, ('0x1.9a28287eaaffep-2',), '0x1.80f210b5bbeebp-4', '0x1.e087565455ec1p-3', True)),
    ('solve_discounted', 'discounted'):
        (('0x1.19dc7afdb7b46p-1',), '0x1.9dc7afdb7b461p-4', '0x1.9dc7afdb7b461p-4', 4, True),
    ('mixture_horizon_optimize', 'mixture'):
        (('0x1.229dc2a6ee84cp-1', '0x1.225978fdc9121p-1'), '0x1.0f08162454b37p-3',
         '0x1.0f08162454b37p-3', 6, True),
    ('hybrid_solve', 'mixture'):
        ('0x1.2bec333018867p-1', '0x1.6a09e667f3bcdp-1', True, '0x1.0000000000000p-1'),
    ('queue_optimize', 'queue'):
        (('0x1.3d6ca809d36a2p-1', '0x1.3e4cb333fbb6cp-1'), '0x1.67fa6dc30e323p-2', None, 42,
         True),
    ('hybrid_solve', 'queue'):
        ('0x1.2bec333018867p-1', '0x1.6a09e667f3bcdp-1', False, None),
    ('solve_fixed_point', 'single_class'):
        (('0x1.2bec333018867p-1',), '0x1.5f619980c4337p-3', None, 4, True),
    ('ranked_price_equilibrium', 'single_class'):
        ((1, ('0x1.2bec333018867p-1',), '0x1.5f619980c4337p-3', '0x1.2bec333018867p-2', True),),
    ('rate_map@0.0', 'single_class'):
        ('0x1.5555555555555p-3', ('0x1.0000000000000p-1',)),
    ('rate_map@0.1', 'single_class'):
        ('0x1.5d9289b5d928ap-3', ('0x1.199999999999ap-1',)),
    ('rate_map@inf', 'single_class'):
        ('0x0.0p+0', ('0x1.0000000000000p+0',)),
    ('solve_fixed_point', 'two_class'):
        (('0x1.67e8684beea7cp-1', '0x1.33f43425f753ep+0'), '0x1.9fa1a12fba9f0p-2', None, 5,
         True),
    ('hybrid_solve', 'two_class'):
        ('0x1.2bec333018867p-1', '0x1.6a09e667f3bcdp-1', False, None),
    ('ranked_price_equilibrium', 'two_class'):
        ((1, ('0x1.67e8684beea7cp-1', '0x1.33f43425f753ep+0'), '0x1.9fa1a12fba9f0p-2',
          '0x1.a413e7441a6c4p-2', True),),
    ('rate_map@0.0', 'two_class'):
        ('0x1.8000000000000p-2', ('0x1.0000000000000p-1', '0x1.0000000000000p+0')),
    ('rate_map@0.1', 'two_class'):
        ('0x1.8cf75b189a43ep-2', ('0x1.199999999999ap-1', '0x1.0cccccccccccdp+0')),
    ('rate_map@inf', 'two_class'):
        ('0x0.0p+0', ('0x1.0000000000000p+0', '0x1.0000000000000p+1')),
    ('solve_fixed_point', 'mixed_loss'):
        (('0x1.5f5d24c31d018p+0', '0x1.a72609d905f84p+0'), '0x1.02fe8dca7e476p-1', None, 5,
         True),
    ('hybrid_solve', 'mixed_loss'):
        ('0x1.0cef6348dc16ap+0', '0x1.9151c7408daf6p-1', False, None),
    ('ranked_price_equilibrium', 'mixed_loss'):
        ((1, ('0x1.5f5d24c31d018p+0', '0x1.a72609d905f84p+0'), '0x1.02fe8dca7e476p-1',
          '0x1.79bc8ba89b826p-2', True),),
    ('rate_map@0.0', 'mixed_loss'):
        ('0x1.d8fdaa4515135p-2', ('0x1.bbbbbbbbbbbbcp-1', '0x1.6666666666667p+0')),
    ('rate_map@0.1', 'mixed_loss'):
        ('0x1.e9dd4ea98634ap-2', ('0x1.eeeeeeeeeeeefp-1', '0x1.7333333333334p+0')),
    ('rate_map@inf', 'mixed_loss'):
        ('0x1.ab6388e0aed01p-36', ('0x1.26bb1bbb55515p+4', '0x1.3333333333333p+1')),
    ('solve_discounted', 'mixed_discounted'):
        (('0x1.91af491ad0d60p+0',), '0x1.5a4715a3537c5p-2', '0x1.209092081ae7ap+0', 4, True),
    ('mixture_horizon_optimize', 'mixed_mixture'):
        (('0x1.1e111929cfb94p+0', '0x1.881ea0755cf88p+0'), '0x1.ce167fa0190f8p-3',
         '0x1.ce167fa0190f8p-3', 8, True),
    ('hybrid_solve', 'mixed_mixture'):
        ('0x1.0cef6348dc16ap+0', '0x1.9151c7408daf6p-1', False, None),
    ('queue_optimize', 'mixed_queue'):
        (('0x1.4a70cfa31e5f0p+0', '0x1.9b3fc263b7619p+0'), '0x1.5062dac8f28d0p-1', None, 46,
         True),
    ('hybrid_solve', 'mixed_queue'):
        ('0x1.0cef6348dc16ap+0', '0x1.9151c7408daf6p-1', False, None),
    ('ranked_price_equilibrium', 'mixed_fleet'):
        ((1, ('0x1.9cf21ef133170p+0',), '0x1.b45dc4566584dp-2', '0x1.34ceb04489459p-2', True),
         (2, ('0x1.196ef1bd261fep+0',), '0x1.26e995d64d7a2p-2', '0x1.0c42cdb9acdf1p-2', True)),
    ('queue_optimize', 'shut_out_queue'):
        (('0x1.7fd1f4df0c3bcp+0', '0x1.a0c49ba5e353fp+0'), '0x1.17bf90bcf6f30p+0', None, 58,
         True),
    ('hybrid_solve', 'shut_out_queue'):
        ('0x1.671938f59d644p+0', '0x1.42522fc315623p-2', False, None),
    ('solve_fixed_point', 'four_class_loss'):
        (('0x1.8c1d696e62aecp+0', '0x1.18ea363b2f7bap+0', '0x1.e7dfcd2c6a580p+0',
          '0x1.0c1d696e62aedp+0'), '0x1.7d42728657881p-1', None, 5, True),
    ('ranked_price_equilibrium', 'four_class_loss'):
        ((1, ('0x1.8c1d696e62aecp+0', '0x1.18ea363b2f7bap+0', '0x1.e7dfcd2c6a580p+0',
              '0x1.0c1d696e62aedp+0'), '0x1.7d42728657881p-1', '0x1.49a7fa030f116p-1', True),),
    ('rate_map@0.0', 'four_class_loss'):
        ('0x1.57e4751990cf3p-1', ('0x1.2ccccccccccccp+0', '0x1.7333333333333p-1',
                                  '0x1.293e93e93e93fp+0', '0x1.ccccccccccccdp-1')),
    ('rate_map@0.1', 'four_class_loss'):
        ('0x1.5dc12fbd3453bp-1', ('0x1.3999999999998p+0', '0x1.8ccccccccccccp-1',
                                  '0x1.42d82d82d82d8p+0', '0x1.ccccccccccccdp-1')),
    ('rate_map@inf', 'four_class_loss'):
        ('0x1.0d9c381854b69p-36', ('0x1.0000000000000p+1', '0x1.6666666666666p+0',
                                   '0x1.eb37d8e2e3879p+4', '0x1.4cccccccccccdp+0')),
}


def test_every_pinned_solve_keeps_its_digits():
    assert digits() == PINS


def test_pins_cover_every_bundled_config_each_function_applies_to():
    stems = {path.stem for path in CONFIGS.glob("*.json")}
    pinned = {(fn, name) for fn, name in PINS if name in stems}
    assert {fn for fn, _ in pinned} == set(FUNCTIONS)
    for fn in ("solve_fixed_point", "rate_map@0.0", "rate_map@0.1", "rate_map@inf"):
        assert {name for f, name in pinned if f == fn} == {"single_class", "two_class"}
    assert ("queue_optimize", "queue") in pinned
    assert ("mixture_horizon_optimize", "mixture") in pinned
    assert ("solve_discounted", "discounted") in pinned
    assert ("ranked_price_equilibrium", "compete_ranked") in pinned
    mixed = {name for _, name in PINS if name not in stems}
    assert mixed == set(scenarios()) - stems


def test_the_shut_out_start_wins_the_heavy_queue():
    sol = _queue_solve(SHUT_OUT_QUEUE)
    assert sol.prices[1] == SHUT_OUT_QUEUE.classes[1].valuation.upper
    assert sol.rate > 1.0927  # the interior point from the monopoly start earns 1.09169


def _seeded(queue: bool, count: int = 12):
    """Seeded loss scenarios of one to three classes, or two-class queues,
    over uniform, exponential and piecewise laws at loads from light to heavy."""
    rng = np.random.default_rng(29 if queue else 23)
    out = []
    for _ in range(count):
        classes = tuple(
            CustomerClass(float(rng.uniform(0.1, 2.0) * 10.0 ** rng.uniform(-1.0, 1.5)),
                          ExponentialDuration(float(rng.uniform(0.3, 3.0))), random_law(rng))
            for _ in range(2 if queue else int(rng.integers(1, 4)))
        )
        out.append(Scenario(classes=classes, workers=(WorkerSpec(float(rng.uniform(0.0, 0.4))),),
                            queue_capacity=int(queue)))
    return out


def _one_path_cases():
    """Every bundled config and generated scenario, with the fleets' top
    worker on its own, and the seeded scenarios of `_seeded`."""
    out = {}
    for name, scenario in scenarios().items():
        if scenario.kind == "fleet":
            scenario = Scenario(classes=scenario.classes, workers=scenario.workers[:1])
        out[name] = scenario
    for i, scenario in enumerate(_seeded(False) + _seeded(True)):
        out[f"seeded_{scenario.kind}_{i}"] = scenario
    return out


@pytest.mark.parametrize("name, scenario", list(_one_path_cases().items()))
def test_each_solve_steps_on_the_public_evaluators_bit_for_bit(name, scenario):
    """One arithmetic path: the fixed point's trace is rate_map's, and the
    queue and mixture solves' rates are the public rate functions' at their
    prices, to the bit."""
    if scenario.kind == "queue":
        sol = _queue_solve(scenario)
        assert queue_rate(scenario, *sol.prices).hex() == sol.rate.hex()
        return
    if scenario.kind == "mixture":
        sol = _mixture_solve(scenario)
        assert mixture_horizon_value(scenario, sol.prices).hex() == sol.rate.hex()
        return
    if scenario.kind == "discounted":
        sol = solve_discounted(scenario)
        scenario = discount_adjusted(scenario, scenario.discount.rate)
    else:
        sol = solve_fixed_point(scenario)
    assert sol.converged and sol.trace
    for reserve, achieved in sol.trace:
        assert rate_map(scenario, reserve)[0].hex() == achieved.hex()
    assert _hex(rate_map(scenario, sol.trace[-1][1])) == (_hex(sol.rate), _hex(sol.prices))
    assert avg_earning_rate(scenario, sol.prices).hex() == sol.rate.hex()
