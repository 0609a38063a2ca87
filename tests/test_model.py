import dataclasses
import math

import numpy as np
import pytest

from ondemand_pricing import (
    ConfigError,
    CustomerClass,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDuration,
    ExponentialValuation,
    MixtureDiscount,
    PiecewiseLinearValuation,
    PricingError,
    Scenario,
    UniformValuation,
    WorkerSpec,
    ZeroDensity,
    apply_commission,
    check_prices,
    regularity_check,
    virtual_value,
)

LAWS = [
    UniformValuation(0.0, 1.0),
    UniformValuation(0.5, 3.0),
    ExponentialValuation(1.0),
    ExponentialValuation(2.5),
    PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))),
    PiecewiseLinearValuation(((0.2, 0.0), (0.5, 0.6), (0.9, 0.8), (1.5, 1.0))),
]


@pytest.mark.parametrize("law", LAWS)
def test_cdf_tail_complement_exact(law):
    # cdf and tail must complement each other with no rounding slack at all
    grid = np.linspace(law.lower, law.upper, 10_000)
    for p in grid:
        assert law.cdf(p) + law.tail(p) == 1.0


@pytest.mark.parametrize("law", LAWS)
def test_tail_monotone_and_bounded(law):
    grid = np.linspace(law.lower - 0.5, law.upper + 0.5, 2_000)
    tails = [law.tail(p) for p in grid]
    assert all(0.0 <= t <= 1.0 for t in tails)
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert law.tail(law.lower) == 1.0


@pytest.mark.parametrize(
    "law",
    LAWS + [apply_commission(CustomerClass(1.0, ExponentialDuration(1.0), law), beta).valuation
            for law in LAWS for beta in (0.8, 0.37)],
)
def test_tails_match_tail_bit_for_bit(law):
    # the array form repeats the scalar arithmetic, so the grid oracle's tables
    # are the scalar tails exactly; -1000 would overflow a vectorised exp
    edges = [-1000.0, -1.0, -1e-12, 0.0, law.lower, law.upper, law.upper + 1e-9,
             law.upper + 1.0, 1e300] + [v for v, _ in getattr(law, "knots", ())]
    axes = [np.arange(0.0, law.upper + 5.0 * step, step) for step in (1e-3, 4e-3, 0.025)]
    for prices in axes + [np.array(edges), np.array([]), np.array(edges[:1])]:
        expected = np.array([law.tail(p) for p in prices.tolist()], dtype=float)
        assert law.tails(prices).tobytes() == expected.tobytes()


def _reference_upper(law):
    """Each law's upper bound as first written: the last knot, the uniform's
    high end, and the exponential's quantile at the tail cutoff 1e-12."""
    if isinstance(law, UniformValuation):
        return law.high
    if isinstance(law, ExponentialValuation):
        return -math.log(1e-12) / law.rate
    return law.knots[-1][0]


def _reference_best_price(law, floor):
    """Each law's best_price as first written, slopes recomputed per interval."""
    upper = _reference_upper(law)
    if upper <= floor:
        return upper
    if isinstance(law, UniformValuation):
        return max(law.low, (floor + law.high) / 2.0)
    if isinstance(law, ExponentialValuation):
        return min(max(floor + 1.0 / law.rate, 0.0), upper)
    lo = max(floor, law.knots[0][0])
    for (v0, f0), (v1, f1) in zip(law.knots, law.knots[1:]):
        d = (f1 - f0) / (v1 - v0)
        if d > 0.0:
            price = max(lo, v0, (floor + v0 + (1.0 - f0) / d) / 2.0)
            if price < v1:
                return price
    return upper


def _seeded_laws():
    """Strictly regular piecewise laws of 2 to 6 knots (rising slopes), and
    uniform and exponential laws, drawn from fixed seeds."""
    laws = []
    for seed in range(15):
        rng = np.random.default_rng(seed)
        widths = rng.uniform(0.05, 1.5, 1 + seed % 5)
        slopes = np.sort(rng.uniform(0.1, 2.0, len(widths)))
        values = rng.uniform(0.0, 1.0) + np.concatenate(([0.0], np.cumsum(widths)))
        cdf = np.concatenate(([0.0], np.cumsum(slopes * widths)))
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        laws.append(PiecewiseLinearValuation(tuple(zip(values.tolist(), cdf.tolist()))))
        low = rng.uniform(0.0, 2.0)
        laws.append(UniformValuation(low, low + rng.uniform(0.01, 3.0)))
        laws.append(ExponentialValuation(rng.uniform(0.05, 20.0)))
    return laws


@pytest.mark.parametrize(
    "law", [law for law in LAWS if law.regularity() == "strictly_regular"] + _seeded_laws()
)
def test_best_price_and_upper_match_their_first_formulas_bit_for_bit(law):
    # floors below the support, at every knot, at each interval's root at its
    # two ends, beyond the support and at +-inf
    upper = _reference_upper(law)
    assert law.upper.hex() == upper.hex()
    floors = [-math.inf, -1e300, -1.0, law.lower - 0.25, -0.0, 0.0, law.lower,
              0.5 * (law.lower + upper), upper - 1e-9, upper, upper + 1e-9, upper + 3.0,
              1e300, math.inf]
    knots = getattr(law, "knots", ())
    for (v0, f0), (v1, f1) in zip(knots, knots[1:]):
        c = (1.0 - f0) / ((f1 - f0) / (v1 - v0))
        floors += [v0, v1, v0 - c, 2.0 * v1 - v0 - c, 1.5 * v1 - 0.5 * v0 - c]
    for floor in floors:
        assert law.best_price(floor).hex() == _reference_best_price(law, floor).hex(), floor


@pytest.mark.parametrize("law", LAWS)
def test_density_nonnegative_integrates_to_one(law):
    grid = np.linspace(law.lower, law.upper, 10_001)
    dens = np.array([law.density(p) for p in grid])
    assert (dens >= 0.0).all()
    total = np.trapezoid(dens, grid)
    # exponential support is cut at the operational tail cutoff
    assert abs(total - 1.0) < 1e-4


@pytest.mark.parametrize("law", LAWS)
def test_sampler_matches_law(law):
    rng = np.random.default_rng(42)
    draws = law.sample(rng, 200_000)
    if isinstance(law, UniformValuation):
        mean = 0.5 * (law.low + law.high)
    elif isinstance(law, ExponentialValuation):
        mean = 1.0 / law.rate
    else:
        mean = sum(
            (f1 - f0) * 0.5 * (v0 + v1)
            for (v0, f0), (v1, f1) in zip(law.knots, law.knots[1:])
        )
    assert abs(np.mean(draws) - mean) < 0.01 * max(mean, 0.1)
    # empirical cdf agrees with the law at a few interior quantiles
    for q in (0.25, 0.5, 0.75):
        p = np.quantile(draws, q)
        assert abs(law.cdf(p) - q) < 0.01


def test_virtual_value_uniform_closed_form():
    law = UniformValuation(0.0, 1.0)
    for p in np.linspace(0.01, 0.99, 50):
        assert virtual_value(law, p) == pytest.approx(2.0 * p - 1.0, abs=1e-14)
    wide = UniformValuation(0.5, 3.0)
    for p in np.linspace(0.5, 3.0, 50):
        assert virtual_value(wide, p) == pytest.approx(2.0 * p - 3.0, abs=1e-13)


def test_virtual_value_exponential_closed_form():
    for rate in (0.5, 1.0, 4.0):
        law = ExponentialValuation(rate)
        for p in np.linspace(0.0, 5.0 / rate, 40):
            assert virtual_value(law, p) == pytest.approx(p - 1.0 / rate, rel=1e-13)


def test_virtual_value_piecewise_matches_hand_arithmetic():
    knots = ((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))
    law = PiecewiseLinearValuation(knots)
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.01, 0.99, 200):
        if p < 0.4:
            cdf = 0.2 * p / 0.4
            dens = 0.2 / 0.4
        else:
            cdf = 0.2 + 0.8 * (p - 0.4) / 0.6
            dens = 0.8 / 0.6
        assert virtual_value(law, p) == pytest.approx(p - (1.0 - cdf) / dens, abs=1e-12)


def test_density_matches_cdf_finite_difference():
    law = PiecewiseLinearValuation(((0.2, 0.0), (0.5, 0.6), (0.9, 0.8), (1.5, 1.0)))
    h = 1e-7
    rng = np.random.default_rng(3)
    for p in rng.uniform(0.21, 1.49, 100):
        if min(abs(p - k) for k, _ in law.knots) < 2 * h:
            continue
        fd = (law.cdf(p + h) - law.cdf(p - h)) / (2 * h)
        assert law.density(p) == pytest.approx(fd, abs=1e-6)


def test_virtual_value_outside_support_raises():
    law = UniformValuation(0.5, 1.0)
    with pytest.raises(ValueError):
        virtual_value(law, 0.4)
    with pytest.raises(ValueError):
        virtual_value(law, 1.1)


def test_virtual_value_zero_density_raises():
    flat = PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.5), (0.6, 0.5), (1.0, 1.0)))
    with pytest.raises(ZeroDensity):
        virtual_value(flat, 0.55)


def test_regularity_verdicts():
    assert regularity_check(UniformValuation(0.0, 1.0)) == "strictly_regular"
    assert regularity_check(ExponentialValuation(1.0)) == "strictly_regular"
    assert (
        regularity_check(PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))))
        == "strictly_regular"
    )
    # density collapses after the spike, so the virtual value drops at 0.6
    spike = PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.1), (0.6, 0.9), (1.0, 1.0)))
    assert regularity_check(spike) == "irregular"
    # an interior flat stretch means zero density on the grid
    flat = PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.5), (0.6, 0.5), (1.0, 1.0)))
    assert regularity_check(flat) == "irregular"


@pytest.mark.parametrize(
    "knots",
    [
        # the virtual value drops by 4e-5 at 0.5, between the points of a
        # 10 000-point scan of the support
        ((0.0, 0.0), (0.5, 0.50002), (1.0, 1.0)),
        # an interior flat stretch 1e-5 wide
        ((0.0, 0.0), (0.5, 0.5), (0.50001, 0.5), (1.0, 1.0)),
        # flat first and last segments
        ((0.0, 0.0), (0.3, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (0.7, 1.0), (1.0, 1.0)),
    ],
    ids=["knot_drop", "narrow_flat", "flat_first", "flat_last"],
)
def test_regularity_exact_irregular(knots):
    assert regularity_check(PiecewiseLinearValuation(knots)) == "irregular"


def test_regularity_collinear_knots_are_strictly_regular():
    uniform = UniformValuation(0.2, 1.2)
    knots = ((0.2, 0.0), (0.5, 0.3), (0.9, 0.7), (1.1, 0.9), (1.2, 1.0))
    law = PiecewiseLinearValuation(knots)
    assert regularity_check(law) == "strictly_regular"
    for floor in (-0.5, 0.0, 0.3, 0.5, 0.9, 1.15, 1.2, 2.0):
        assert law.best_price(floor) == pytest.approx(uniform.best_price(floor), abs=1e-15)


def test_regularity_check_reads_the_laws_own_verdict():
    # no cache: hashing laws would only keep them alive
    assert not hasattr(regularity_check, "cache_info")
    law = PiecewiseLinearValuation(((0.0, 0.0), (0.3, 0.1), (1.0, 1.0)))
    assert regularity_check(law) == regularity_check(law) == law.regularity() == "strictly_regular"


@pytest.mark.parametrize(
    "law",
    [UniformValuation(0.5, 2.0), ExponentialValuation(1.5),
     PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0)))],
)
def test_apply_commission_rescales_tail(law):
    cls = CustomerClass(1.0, ExponentialDuration(1.0), law)
    beta = 0.8
    net = apply_commission(cls, beta)
    assert net.arrival_rate == cls.arrival_rate
    assert net.duration == cls.duration
    for p in np.linspace(0.0, beta * law.upper, 200):
        assert net.valuation.tail(p) == pytest.approx(law.tail(p / beta), abs=1e-12)
    assert net.valuation.upper == pytest.approx(beta * law.upper, rel=1e-12)


def test_apply_commission_identity_and_validation():
    cls = CustomerClass(1.0, ExponentialDuration(1.0), UniformValuation(0.0, 1.0))
    assert apply_commission(cls, 1.0) is cls
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            apply_commission(cls, bad)


@pytest.mark.parametrize(
    "dur",
    [ExponentialDuration(1.5), DeterministicDuration(0.8), EmpiricalDuration((0.2, 0.5, 3.0))],
)
def test_censored_mean_matches_simulated_min(dur):
    rng = np.random.default_rng(17)
    gamma, n = 0.7, 400_000
    both = np.minimum(dur.sample(rng, n), rng.exponential(1.0 / gamma, n))
    se = both.std(ddof=1) / math.sqrt(n)
    assert abs(dur.censored_mean(gamma) - both.mean()) <= 4.0 * se
    assert dur.censored_mean(gamma, 2.5) == pytest.approx(2.5 * dur.censored_mean(gamma),
                                                          rel=1e-15)


def test_duration_means_and_samples():
    rng = np.random.default_rng(11)
    exp = ExponentialDuration(2.0)
    assert exp.mean == 0.5
    assert abs(np.mean(exp.sample(rng, 200_000)) - 0.5) < 0.005

    det = DeterministicDuration(0.7)
    assert det.mean == 0.7
    assert (det.sample(rng, 100) == 0.7).all()

    pool = (0.5, 1.0, 2.5)
    emp = EmpiricalDuration(pool)
    assert emp.mean == pytest.approx(sum(pool) / 3)
    draws = emp.sample(rng, 50_000)
    assert set(np.unique(draws)) <= set(pool)
    assert abs(np.mean(draws) - emp.mean) < 0.02


def test_load_property():
    cls = CustomerClass(3.0, ExponentialDuration(2.0), UniformValuation(0.0, 1.0))
    assert cls.load == 1.5


def test_validation_errors():
    with pytest.raises(ConfigError):
        UniformValuation(1.0, 1.0)
    with pytest.raises(ConfigError):
        UniformValuation(-0.5, 1.0)
    with pytest.raises(ConfigError):
        ExponentialValuation(0.0)
    with pytest.raises(ConfigError):
        PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.4), (0.5, 1.0)))
    with pytest.raises(ConfigError):
        PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.6), (1.0, 0.5)))
    with pytest.raises(ConfigError):
        PiecewiseLinearValuation(((0.0, 0.1), (1.0, 1.0)))
    with pytest.raises(ConfigError):
        ExponentialDuration(-1.0)
    with pytest.raises(ConfigError):
        DeterministicDuration(0.0)
    with pytest.raises(ConfigError):
        EmpiricalDuration(())
    with pytest.raises(ConfigError):
        EmpiricalDuration((1.0, -2.0))
    with pytest.raises(ConfigError):
        CustomerClass(-1.0, ExponentialDuration(1.0), UniformValuation(0.0, 1.0))
    with pytest.raises(ConfigError):
        WorkerSpec(cost=-0.1)
    with pytest.raises(ConfigError):
        WorkerSpec(rank=0)
    with pytest.raises(ConfigError):
        WorkerSpec(cost=math.nan)
    with pytest.raises(ConfigError):
        MixtureDiscount((0.5, 0.6), (1.0, 2.0))
    with pytest.raises(ConfigError):
        MixtureDiscount((0.5, 0.5), (1.0, -2.0))
    with pytest.raises(ConfigError):
        MixtureDiscount((1.0,), (1.0, 2.0))


def test_scenario_validation(single_class_scenario):
    cls = single_class_scenario.classes[0]
    with pytest.raises(ConfigError):
        Scenario(classes=())
    with pytest.raises(ConfigError):
        Scenario(classes=(cls,), workers=())
    with pytest.raises(ConfigError):
        Scenario(classes=(cls,), queue_capacity=2)
    with pytest.raises(ConfigError):
        Scenario(
            classes=(cls,),
            workers=(WorkerSpec(rank=1), WorkerSpec(rank=1), WorkerSpec(rank=2)),
        )
    # all-equal and all-distinct rank profiles are both fine
    Scenario(classes=(cls,), workers=(WorkerSpec(rank=1), WorkerSpec(rank=1)))
    Scenario(classes=(cls,), workers=(WorkerSpec(rank=2), WorkerSpec(rank=1)))


def test_frozen_dataclasses(single_class_scenario):
    with pytest.raises(dataclasses.FrozenInstanceError):
        single_class_scenario.queue_capacity = 1
    law = UniformValuation(0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        law.high = 2.0


# Every model object, built fresh for each test case: each valuation and
# duration law kind (an irregular piecewise law among them), a customer class,
# a worker and a scenario.
MODEL_OBJECTS = {
    "uniform": lambda: UniformValuation(0.2, 1.4),
    "exponential": lambda: ExponentialValuation(2.0),
    "piecewise": lambda: PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))),
    "piecewise_irregular": lambda: PiecewiseLinearValuation(
        ((0.0, 0.0), (0.5, 0.1), (0.6, 0.9), (1.0, 1.0))),
    "exponential_duration": lambda: ExponentialDuration(1.5),
    "deterministic_duration": lambda: DeterministicDuration(0.8),
    "empirical_duration": lambda: EmpiricalDuration((0.5, 1.5, 2.0)),
    "customer_class": lambda: CustomerClass(
        1.0, EmpiricalDuration((0.5, 1.5)),
        PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0)))),
    "worker": lambda: WorkerSpec(cost=0.1, rank=2),
    "scenario": lambda: Scenario(classes=(CustomerClass(
        1.0, EmpiricalDuration((0.5, 1.5)), UniformValuation(0.0, 1.0)),)),
}

_PRICES = (-1.0, 0.0, 0.2, 0.4, 0.55, 1.0, 1.4, 30.0)
# The argument tuples each public method is called with; a public method
# missing here fails the test, so none goes unchecked.
_METHOD_CALLS = {
    "tail": [(p,) for p in _PRICES],
    "cdf": [(p,) for p in _PRICES],
    "density": [(p,) for p in _PRICES],
    "tails": [(np.array(_PRICES),)],
    "best_price": [(f,) for f in (-1.0, 0.0, 0.3, 0.9, 5.0)],
    "regularity": [()],
    "scaled": [(0.8,)],
    "sample": [(np.random.default_rng(0), 5)],
    "censored_mean": [(0.5,), (0.5, 2.0)],
    "require": [("op", "loss"), ("op", "queue")],
}


@pytest.mark.parametrize("build", MODEL_OBJECTS.values(), ids=MODEL_OBJECTS.keys())
def test_model_objects_never_write_their_instance_after_construction(build):
    # a law works out its tables when it is built; no later call may cache
    # into the instance, which would slow every attribute read after it
    obj = build()
    before = dict(vars(obj))
    for name in dir(obj):
        if name.startswith("_"):
            continue
        attr = getattr(obj, name)
        if not callable(attr):
            continue
        for args in _METHOD_CALLS[name]:
            try:
                attr(*args)
            except PricingError:
                pass  # the irregular law's best_price, the scenario's require
    assert vars(obj) == before


def test_check_prices(two_class_scenario):
    assert check_prices(two_class_scenario, [0.5, 1.0]) == (0.5, 1.0)
    with pytest.raises(ConfigError):
        check_prices(two_class_scenario, [0.5])
    with pytest.raises(ConfigError):
        check_prices(two_class_scenario, [0.5, -1.0])
    with pytest.raises(ConfigError):
        check_prices(two_class_scenario, [0.5, math.inf])
    with pytest.raises(ConfigError, match="sequence of numbers"):
        check_prices(two_class_scenario, 0.5)
    with pytest.raises(ConfigError, match="sequence of numbers"):
        check_prices(two_class_scenario, [0.5, "x"])
