import math
from pathlib import Path

import numpy as np
import pytest

from ondemand_pricing import (
    CustomerClass,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    IrregularDistribution,
    MixtureDiscount,
    ModelMismatch,
    PiecewiseLinearValuation,
    Scenario,
    SingularSystem,
    UniformValuation,
    WorkerSpec,
    discounted_value,
    effective_load,
    first_step_solve,
    hybrid_solve,
    load_scenario,
    mixture_horizon_optimize,
    mixture_horizon_value,
    queue_optimize,
    queue_rate,
)
from ondemand_pricing import search
from ondemand_pricing.cli import main
from ondemand_pricing.model import queue_parts
from ondemand_pricing.queues import (
    _price_box,
    _queue_solve,
    _queue_terms,
    _search_starts,
)
from ondemand_pricing.search import multi_start_ascent
from ondemand_pricing.solver import price_response
from tests.conftest import queue_scenario, unit_uniform_class

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_queue_scenario(rng):
    return Scenario(
        classes=(
            unit_uniform_class(
                arrival_rate=rng.uniform(0.2, 3.0),
                service_rate=rng.uniform(0.2, 3.0),
                high=rng.uniform(0.5, 2.0),
            ),
            unit_uniform_class(
                arrival_rate=rng.uniform(0.2, 3.0),
                service_rate=rng.uniform(0.2, 3.0),
                high=rng.uniform(0.5, 2.0),
            ),
        ),
        queue_capacity=1,
    )


def test_closed_form_matches_first_step_randomized():
    rng = np.random.default_rng(101)
    for _ in range(300):
        scn = random_queue_scenario(rng)
        pa = rng.uniform(0.05, 0.95 * scn.classes[0].valuation.upper)
        pb = rng.uniform(0.05, 0.95 * scn.classes[1].valuation.upper)
        closed = queue_rate(scn, pa, pb)
        renewal = first_step_solve(scn, pa, pb).rate
        assert closed == pytest.approx(renewal, abs=1e-12)


def test_first_step_single_class_reduction():
    # choke class B: A-side recursion collapses to one class plus one buffer slot
    scn = queue_scenario(0.5)
    pa, pb = 0.4, 1.0
    sol = first_step_solve(scn, pa, pb)
    lam_a = 1.0 * (1.0 - pa)
    mu_a, mu_b = 1.0, 0.5
    t_a = (lam_a + mu_a) / mu_a**2
    e_a = (pa / mu_a) * (lam_a + mu_a) / mu_a
    assert sol.time_from_a == pytest.approx(t_a, abs=1e-12)
    assert sol.earning_from_a == pytest.approx(e_a, abs=1e-12)
    # hypothetical B start: B job runs fully, buffered A work may pile behind it
    t_b = 1.0 / mu_b + lam_a / (lam_a + mu_b) * t_a
    e_b = pb / mu_b + lam_a / (lam_a + mu_b) * e_a
    assert sol.time_from_b == pytest.approx(t_b, abs=1e-12)
    assert sol.earning_from_b == pytest.approx(e_b, abs=1e-12)
    # closed form still agrees when one class is shut off
    assert queue_rate(scn, pa, pb) == pytest.approx(sol.rate, abs=1e-12)


def test_first_step_symmetric_classes():
    scn = queue_scenario(1.0)
    sol = first_step_solve(scn, 0.6, 0.6)
    assert sol.earning_from_a == pytest.approx(sol.earning_from_b, abs=1e-12)
    assert sol.time_from_a == pytest.approx(sol.time_from_b, abs=1e-12)


def test_first_step_singular_when_no_demand():
    scn = queue_scenario(0.5)
    with pytest.raises(SingularSystem):
        first_step_solve(scn, 1.0, 1.0)


def test_queue_rate_zero_at_choke_prices():
    scn = queue_scenario(0.5)
    assert queue_rate(scn, 1.0, 1.0) == 0.0


def test_queue_rate_model_guards(two_class_scenario, single_class_scenario):
    with pytest.raises(ModelMismatch):
        queue_rate(two_class_scenario, 0.5, 0.5)
    one = Scenario(classes=single_class_scenario.classes, queue_capacity=1)
    with pytest.raises(ModelMismatch):
        queue_rate(one, 0.5, 0.5)


QUEUE_OPTIMA = {
    # frozen from a dense two-dimensional scan of the closed form
    0.1: (0.603441, 0.640400),
    0.5: (0.619969, 0.621679),
    1.0: (0.620106, 0.620106),
    10.0: (0.640400, 0.603441),
}


@pytest.mark.parametrize("r", sorted(QUEUE_OPTIMA))
def test_queue_optimize_known_optima(r):
    scn = queue_scenario(r)
    (pa, pb), rate = queue_optimize(scn)
    want_a, want_b = QUEUE_OPTIMA[r]
    assert pa == pytest.approx(want_a, abs=1e-4)
    assert pb == pytest.approx(want_b, abs=1e-4)
    assert rate == pytest.approx(queue_rate(scn, pa, pb), abs=1e-12)


def test_queue_price_ordering_tracks_service_speed():
    # slower second class waits longer in the buffer, so it pays a premium
    for r, sign in ((0.25, 1.0), (0.5, 1.0), (1.0, 0.0), (4.0, -1.0), (10.0, -1.0)):
        (pa, pb), _ = queue_optimize(queue_scenario(r))
        if sign == 0.0:
            assert abs(pb - pa) < 1e-5
        else:
            assert math.copysign(1.0, pb - pa) == sign


def test_queue_optimize_beats_random_and_local_moves():
    scn = queue_scenario(0.5)
    (pa, pb), rate = queue_optimize(scn)
    rng = np.random.default_rng(51)
    for _ in range(1_000):
        assert queue_rate(scn, rng.uniform(0, 1), rng.uniform(0, 1)) <= rate + 1e-10
    for da, db in ((1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4), (1e-4, 1e-4)):
        assert queue_rate(scn, pa + da, pb + db) <= rate + 1e-10


def test_queue_time_rescaling_swaps_classes():
    # speeding both classes up by 10x and swapping them reproduces r=0.1 prices
    (pa_fast, pb_fast), rate_fast = queue_optimize(queue_scenario(10.0))
    (pa_slow, pb_slow), _ = queue_optimize(queue_scenario(0.1))
    assert pa_fast == pytest.approx(pb_slow, abs=1e-5)
    assert pb_fast == pytest.approx(pa_slow, abs=1e-5)


def test_hybrid_benchmark_instance():
    on_demand = unit_uniform_class()
    patient = unit_uniform_class(arrival_rate=0.5)
    sol = hybrid_solve(on_demand, patient)
    assert sol.on_demand_price == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
    assert sol.idle_fraction == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert sol.feasible
    assert sol.patient_price == pytest.approx(0.5, abs=1e-9)


def test_hybrid_infeasible_when_patient_demand_exceeds_idle_capacity():
    on_demand = unit_uniform_class()
    patient = unit_uniform_class(arrival_rate=0.9)
    sol = hybrid_solve(on_demand, patient)
    assert not sol.feasible
    assert sol.patient_price is None
    # on-demand side is untouched by the patient overload
    assert sol.on_demand_price == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)


def test_hybrid_feasibility_threshold():
    on_demand = unit_uniform_class()
    phi = 1.0 / math.sqrt(2.0)
    assert hybrid_solve(on_demand, unit_uniform_class(arrival_rate=phi - 1e-6)).feasible
    assert not hybrid_solve(on_demand, unit_uniform_class(arrival_rate=phi + 1e-6)).feasible


def test_mixture_single_branch_at_rate_one_matches_discounted_value():
    cls = unit_uniform_class()
    mix = Scenario(classes=(cls,), discount=MixtureDiscount((1.0,), (1.0,)))
    disc = Scenario(classes=(cls,), discount=ExponentialDiscount(1.0))
    for p in np.linspace(0.05, 0.95, 20):
        assert mixture_horizon_value(mix, (p,)) == pytest.approx(
            discounted_value(disc, (p,)), abs=1e-15
        )


def test_mixture_value_matches_hand_formula(mixture_scenario):
    rng = np.random.default_rng(77)
    for _ in range(50):
        prices = tuple(rng.uniform(0.05, 0.95, 2))
        total = 0.0
        for w, g in ((0.5, 1.0), (0.5, 2.0)):
            num = den = 0.0
            for cls, p in zip(mixture_scenario.classes, prices):
                load = effective_load(cls, g) * cls.valuation.tail(p)
                num += load * p
                den += load
            total += w * num / (1.0 + den)
        assert mixture_horizon_value(mixture_scenario, prices) == pytest.approx(
            total, abs=1e-12
        )


def test_mixture_value_zero_at_choke_prices(mixture_scenario):
    assert mixture_horizon_value(mixture_scenario, (1.0, 1.0)) == 0.0


def test_mixture_weight_linearity(mixture_scenario):
    classes = mixture_scenario.classes

    def branch_value(g, prices):
        single = Scenario(classes=classes, discount=MixtureDiscount((1.0,), (g,)))
        return mixture_horizon_value(single, prices)

    prices = (0.55, 0.6)
    for w in (0.2, 0.5, 0.9):
        mix = Scenario(
            classes=classes, discount=MixtureDiscount((w, 1.0 - w), (1.0, 3.0))
        )
        want = w * branch_value(1.0, prices) + (1.0 - w) * branch_value(3.0, prices)
        assert mixture_horizon_value(mix, prices) == pytest.approx(want, abs=1e-14)


def test_mixture_optimize_benchmark(mixture_scenario):
    (pa, pb), value = mixture_horizon_optimize(mixture_scenario)
    assert pa == pytest.approx(0.56761, abs=1e-3)
    assert pb == pytest.approx(0.567089, abs=1e-3)
    # same valuation law, yet the optimum genuinely separates the class prices
    assert abs(pa - pb) > 1e-7
    assert value == pytest.approx(mixture_horizon_value(mixture_scenario, (pa, pb)), abs=1e-12)


def test_mixture_optimize_degenerate_branches_restore_uniform_pricing(mixture_scenario):
    # equal branch rates collapse to one exponential horizon, where identical
    # valuation laws must share one price again
    mix = Scenario(
        classes=mixture_scenario.classes,
        discount=MixtureDiscount((0.5, 0.5), (2.0, 2.0)),
    )
    (pa, pb), _ = mixture_horizon_optimize(mix)
    assert pa == pytest.approx(pb, abs=1e-7)


def test_mixture_requires_mixture_discount(single_class_scenario, discounted_scenario):
    with pytest.raises(ModelMismatch):
        mixture_horizon_value(single_class_scenario, (0.5,))
    with pytest.raises(ModelMismatch):
        mixture_horizon_value(discounted_scenario, (0.5,))


def test_optimizers_report_the_public_objective_bit_for_bit():
    # the searches evaluate a private objective set up once per call; the
    # value they report must be exactly what the public function returns
    piecewise = PiecewiseLinearValuation(((0.1, 0.0), (0.6, 0.3), (1.5, 1.0)))
    queue = Scenario(
        classes=(CustomerClass(0.9, ExponentialDuration(1.4), piecewise),
                 CustomerClass(1.2, ExponentialDuration(0.7), ExponentialValuation(1.8))),
        workers=(WorkerSpec(cost=0.05),),
        queue_capacity=1,
    )
    prices, rate = queue_optimize(queue)
    assert rate == queue_rate(queue, *prices)
    mixture = Scenario(
        classes=(CustomerClass(0.8, EmpiricalDuration((0.3, 1.7, 0.9, 0.45)), piecewise),
                 CustomerClass(1.1, ExponentialDuration(1.6), UniformValuation(0.2, 1.3))),
        workers=(WorkerSpec(cost=0.08),),
        discount=MixtureDiscount((0.3, 0.7), (0.6, 2.2)),
    )
    prices, value = mixture_horizon_optimize(mixture)
    assert value == mixture_horizon_value(mixture, prices)


# --- the marginal-cost fixed point against the multi-start ascent it replaced ---


def ascent_reference(scn):
    """Multi-start coordinate ascent on the closed-form rate: a 41 x 41 coarse
    grid winner, the box midpoint and 20 fixed random starts."""
    parts = queue_parts(scn, "ascent_reference")

    def objective(p):
        return _queue_terms(*parts, p[0], p[1])[0]

    bounds = _price_box(scn)
    return multi_start_ascent(objective, bounds, _search_starts(bounds, objective))


def random_law(rng):
    kind = rng.integers(3)
    if kind == 0:
        low = rng.uniform(0.0, 0.5)
        return UniformValuation(low, low + rng.uniform(0.6, 2.0))
    if kind == 1:
        return ExponentialValuation(rng.uniform(1.0, 3.0))
    # increasing slopes make the virtual value jump up at every knot: regular
    widths = rng.uniform(0.3, 1.0, rng.integers(2, 5))
    slopes = np.sort(rng.uniform(0.2, 1.0, len(widths)) + 0.3 * np.arange(len(widths)))
    values = rng.uniform(0.0, 0.4) + np.concatenate(([0.0], np.cumsum(widths)))
    cdf = np.concatenate(([0.0], np.cumsum(slopes * widths)))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return PiecewiseLinearValuation(tuple(zip(values, cdf)))


def random_loaded_queue(rng, index):
    """Loads scaled by 0.05 to 50 (log-uniform); cost 0, drawn, or 0.5 in turn."""
    scale = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
    classes = tuple(
        CustomerClass(rng.uniform(0.3, 1.5) * scale, ExponentialDuration(rng.uniform(0.5, 2.0)),
                      random_law(rng))
        for _ in range(2)
    )
    cost = (0.0, rng.uniform(0.02, 0.15), 0.5)[index % 3]
    return Scenario(classes=classes, workers=(WorkerSpec(cost=cost),), queue_capacity=1)


def reference_instances():
    yield from (queue_scenario(r) for r in sorted(QUEUE_OPTIMA))
    yield load_scenario(CONFIGS / "queue.json")
    rng = np.random.default_rng(2024)
    yield from (random_loaded_queue(rng, i) for i in range(200))


def test_queue_fixed_point_never_below_the_ascent():
    for scn in reference_instances():
        sol = _queue_solve(scn)
        _, reference = ascent_reference(scn)
        assert sol.converged
        assert sol.rate >= reference - 1e-12 * abs(reference)
        assert sol.rate == queue_rate(scn, *sol.prices)


# Heavy loads: admitting class A at all costs more than it brings. The interior
# fixed point reached from the monopoly prices earns 2.08974; shutting class A
# out (its price at the top of its support) earns more.
SHUT_OUT = Scenario(
    classes=(
        CustomerClass(26.74868470102036, ExponentialDuration(1.7738084943548182),
                      UniformValuation(0.34883030097286016, 2.0223130179301743)),
        CustomerClass(32.88904764880376, ExponentialDuration(0.6292997893115034),
                      ExponentialValuation(1.3423979160004604)),
    ),
    queue_capacity=1,
)


def test_queue_solve_finds_a_shut_out_class():
    sol = _queue_solve(SHUT_OUT)
    assert sol.converged
    assert sol.prices[0] == SHUT_OUT.classes[0].valuation.upper
    assert sol.rate >= 2.095384624319243  # the ascent's value, 0.27 % above the interior point


# The plain map p <- target(p) alternates between (0.6938, 1.2600) and
# (0.7308, 1.3350) here, at rates 0.64393 and 0.65183; the optimum is 0.66168.
TWO_CYCLE = Scenario(
    classes=(
        CustomerClass(19.145867177029388, ExponentialDuration(0.5941834624599847),
                      UniformValuation(0.05189283586762994, 0.747899597518689)),
        CustomerClass(3.715214039594792, ExponentialDuration(0.8089380692289898),
                      ExponentialValuation(1.6140856792927698)),
    ),
    workers=(WorkerSpec(cost=0.10845199651363217),),
    queue_capacity=1,
)


def test_queue_solve_settles_where_the_plain_map_cycles():
    parts = queue_parts(TWO_CYCLE, "test")
    classes, cost = parts[:2], parts[2]

    def target(prices):
        rate, *factors = _queue_terms(*parts, *prices)
        return tuple(price_response(cls, rate * m, cost) for cls, m in zip(classes, factors))

    prices = tuple(price_response(cls, 0.0, cost) for cls in classes)
    for _ in range(200):
        prices = target(prices)
    after = target(prices)
    assert max(abs(a - b) for a, b in zip(after, prices)) > 0.03
    assert target(after) == pytest.approx(prices, abs=1e-9)
    assert max(queue_rate(TWO_CYCLE, *prices), queue_rate(TWO_CYCLE, *after)) < 0.652
    sol = _queue_solve(TWO_CYCLE)
    assert sol.converged
    assert sol.rate >= 0.661684
    assert sol.prices == pytest.approx((0.71909, 1.31157), abs=1e-5)


def test_queue_optimize_rejects_an_irregular_law():
    irregular = PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.1), (0.6, 0.9), (1.0, 1.0)))
    scn = Scenario(
        classes=(unit_uniform_class(), CustomerClass(1.0, ExponentialDuration(1.0), irregular)),
        queue_capacity=1,
    )
    with pytest.raises(IrregularDistribution):
        queue_optimize(scn)


def test_queue_solve_without_arrivals_returns_monopoly_prices():
    scn = Scenario(
        classes=(unit_uniform_class(arrival_rate=0.0),
                 unit_uniform_class(arrival_rate=0.0, service_rate=0.5)),
        workers=(WorkerSpec(cost=0.2),),
        queue_capacity=1,
    )
    sol = _queue_solve(scn)
    assert sol.prices == (0.6, 0.6)  # best_price(cost) of uniform[0, 1]
    assert sol.rate == 0.0 and math.copysign(1.0, sol.rate) == 1.0
    assert sol.converged


def test_queue_rate_is_positive_zero_when_nobody_is_admitted():
    # num is (p - cost) * 0 with p < cost, which is -0.0 in floating point
    scn = Scenario(classes=queue_scenario(0.5).classes, workers=(WorkerSpec(cost=100.0),),
                   queue_capacity=1)
    rate = queue_rate(scn, 1.0, 1.0)
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0
    (pa, pb), rate = queue_optimize(scn)
    assert (pa, pb) == (1.0, 1.0)
    assert math.copysign(1.0, rate) == 1.0


def test_queue_solve_never_calls_the_search(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the queue solve called golden_section_max")

    monkeypatch.setattr(search, "golden_section_max", refuse)
    for r in sorted(QUEUE_OPTIMA):
        queue_optimize(queue_scenario(r))
    assert main(["solve", "--config", str(CONFIGS / "queue.json"),
                 "--out", str(tmp_path)]) == 0
    assert "p_A*" in capsys.readouterr().out
    # the mixture optimiser still searches, so the patch is live
    with pytest.raises(AssertionError, match="golden_section_max"):
        mixture_horizon_optimize(load_scenario(CONFIGS / "mixture.json"))


def test_mixture_optimize_unchanged_on_the_bundled_config():
    result = mixture_horizon_optimize(load_scenario(CONFIGS / "mixture.json"))
    assert repr(result) == "((0.5676099587423191, 0.5670890085713876), 0.13233964250919603)"
