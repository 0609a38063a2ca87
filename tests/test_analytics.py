import math

import numpy as np
import pytest

from ondemand_pricing import (
    CustomerClass,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialDuration,
    ModelMismatch,
    Scenario,
    UniformValuation,
    WorkerSpec,
    avg_earning_rate,
    discount_adjusted,
    discounted_value,
    effective_load,
)
from tests.conftest import deadline_censor_ratio, unit_uniform_class


def test_single_class_benchmark_rate(single_class_scenario):
    # load-1 uniform(0,1) class: optimum rate 3 - 2*sqrt(2) at price 2 - sqrt(2)
    p = 2.0 - math.sqrt(2.0)
    rate = avg_earning_rate(single_class_scenario, (p,))
    assert rate == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)


def test_two_class_rate_at_published_prices(two_class_scenario):
    rate = avg_earning_rate(two_class_scenario, (0.70294, 1.20294))
    assert rate == pytest.approx(0.40589, abs=1e-5)


def test_rate_zero_at_choke_prices(two_class_scenario):
    assert avg_earning_rate(two_class_scenario, (1.0, 2.0)) == 0.0


def test_rate_below_top_price(two_class_scenario):
    rng = np.random.default_rng(1)
    for _ in range(200):
        prices = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0))
        rate = avg_earning_rate(two_class_scenario, prices)
        assert 0.0 <= rate <= max(prices)


def test_rate_class_permutation_invariant(two_class_scenario):
    prices = (0.6, 1.1)
    swapped = Scenario(classes=two_class_scenario.classes[::-1])
    assert avg_earning_rate(two_class_scenario, prices) == pytest.approx(
        avg_earning_rate(swapped, prices[::-1]), abs=1e-15
    )


def test_rate_depends_only_on_load():
    # scaling arrivals and service together leaves every rate unchanged
    for a in (0.25, 4.0):
        base = Scenario(classes=(unit_uniform_class(),))
        scaled = Scenario(
            classes=(unit_uniform_class(arrival_rate=a, service_rate=a),)
        )
        for p in np.linspace(0.05, 0.95, 20):
            assert avg_earning_rate(base, (p,)) == pytest.approx(
                avg_earning_rate(scaled, (p,)), abs=1e-12
            )


def test_rate_rejects_wrong_model_shape(single_class_scenario):
    cls = single_class_scenario.classes[0]
    queued = Scenario(classes=(cls, cls), queue_capacity=1)
    with pytest.raises(ModelMismatch):
        avg_earning_rate(queued, (0.5, 0.5))
    fleet = Scenario(classes=(cls,), workers=(WorkerSpec(rank=1), WorkerSpec(rank=2)))
    with pytest.raises(ModelMismatch):
        avg_earning_rate(fleet, (0.5,))
    discounted = Scenario(classes=(cls,), discount=ExponentialDiscount(1.0))
    with pytest.raises(ModelMismatch):
        avg_earning_rate(discounted, (0.5,))


def test_effective_load_closed_forms():
    exp_cls = CustomerClass(1.0, ExponentialDuration(1.0), UniformValuation(0.0, 1.0))
    assert effective_load(exp_cls, 1.0) == pytest.approx(0.5, abs=1e-15)
    fast = CustomerClass(1.0, ExponentialDuration(2.0), UniformValuation(0.0, 1.0))
    assert effective_load(fast, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    long_job = CustomerClass(1.0, DeterministicDuration(40.0), UniformValuation(0.0, 1.0))
    assert effective_load(long_job, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_effective_load_empirical_matches_sample_average():
    samples = (0.3, 1.2, 2.0, 0.7)
    cls = CustomerClass(2.0, EmpiricalDuration(samples), UniformValuation(0.0, 1.0))
    gamma = 1.5
    expect = 2.0 * np.mean([(1.0 - math.exp(-gamma * x)) / gamma for x in samples])
    assert effective_load(cls, gamma) == pytest.approx(expect, abs=1e-12)


def test_effective_load_bounded_by_load_and_small_gamma_limit():
    classes = [
        CustomerClass(1.3, ExponentialDuration(0.8), UniformValuation(0.0, 1.0)),
        CustomerClass(0.7, DeterministicDuration(2.5), UniformValuation(0.0, 1.0)),
        CustomerClass(2.0, EmpiricalDuration((0.2, 0.9, 1.7)), UniformValuation(0.0, 1.0)),
    ]
    for cls in classes:
        for gamma in (0.1, 1.0, 10.0):
            assert effective_load(cls, gamma) <= cls.load + 1e-12
        assert effective_load(cls, 1e-9) == pytest.approx(cls.load, rel=1e-6)
    with pytest.raises(ValueError):
        effective_load(classes[0], 0.0)


def test_discount_adjusted_rewrites_loads(discounted_scenario):
    adjusted = discount_adjusted(discounted_scenario, 1.0)
    assert adjusted.discount is None
    assert adjusted.classes[0].load == pytest.approx(0.5, abs=1e-15)
    assert adjusted.classes[0].duration == discounted_scenario.classes[0].duration


def test_discounted_value_matches_hand_formula(discounted_scenario):
    gamma = 1.0
    cls = discounted_scenario.classes[0]
    rng = np.random.default_rng(5)
    for p in rng.uniform(0.05, 0.95, 50):
        load_hat = effective_load(cls, gamma)
        w = load_hat * cls.valuation.tail(p)
        expect = (w * p / (1.0 + w)) / gamma
        assert discounted_value(discounted_scenario, (p,)) == pytest.approx(expect, abs=1e-12)


def test_discounted_value_small_gamma_recovers_average_rate(single_class_scenario):
    gamma = 1e-8
    scn = Scenario(classes=single_class_scenario.classes, discount=ExponentialDiscount(gamma))
    p = (0.6,)
    assert gamma * discounted_value(scn, p) == pytest.approx(
        avg_earning_rate(single_class_scenario, p), rel=1e-6
    )


def test_discounted_value_needs_exponential_discount(single_class_scenario):
    with pytest.raises(ModelMismatch):
        discounted_value(single_class_scenario, (0.5,))


def test_deadline_censor_ratio_recovers_rate():
    est = deadline_censor_ratio(ExponentialDuration(1.0), rate=0.5, draws=200_000, seed=3)
    assert est.draws == 200_000
    assert est.se > 0.0
    assert abs(est.ratio - 0.5) < 3.0 * est.se


def test_deadline_censor_ratio_deterministic_seed():
    a = deadline_censor_ratio(DeterministicDuration(2.0), rate=1.0, draws=50_000, seed=9)
    b = deadline_censor_ratio(DeterministicDuration(2.0), rate=1.0, draws=50_000, seed=9)
    assert a == b
