"""The solve layer's outputs to the last bit.

Every solve function is run on every bundled config it applies to, plus a
few scenarios with exponential and piecewise-linear laws, and its prices,
rates, values and iteration counts are compared by `float.hex` with the
values the solve layer gave before its checks moved to the public entry
points. A refactor or speed-up of the solve layer must keep them all.
"""

import math
from pathlib import Path

from ondemand_pricing import (
    CustomerClass,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    MixtureDiscount,
    PiecewiseLinearValuation,
    PricingError,
    Scenario,
    WorkerSpec,
    hybrid_solve,
    ranked_price_equilibrium,
    rate_map,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing.config import load_scenario
from ondemand_pricing.queues import _mixture_solve, _queue_solve

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RESERVES = (0.0, 0.1, math.inf)


def _mixed_classes():
    steep = CustomerClass(2.0, ExponentialDuration(1.5), ExponentialValuation(1.5))
    knotted = CustomerClass(0.7, ExponentialDuration(0.8), PiecewiseLinearValuation(
        ((0.2, 0.0), (1.0, 0.2), (1.8, 0.6), (2.4, 1.0))))
    return steep, knotted


def scenarios() -> dict[str, Scenario]:
    """The bundled configs by file stem, plus one scenario of each solvable
    kind whose classes use exponential and piecewise-linear laws."""
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
