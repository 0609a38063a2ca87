import math

import numpy as np
import pytest

from ondemand_pricing import (
    ConfigError,
    CustomerClass,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    IrregularDistribution,
    NonFiniteRate,
    PiecewiseLinearValuation,
    Scenario,
    UniformValuation,
    WorkerSpec,
    avg_earning_rate,
    discount_adjusted,
    grid_search_optimum,
    price_response,
    rate_map,
    regularity_check,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing import solver
from tests.conftest import unit_uniform_class

# two-class optimum: R* solves 3R^2 - 16R + 6 = 0 on [0, 1]
TWO_CLASS_RATE = (8.0 - math.sqrt(46.0)) / 3.0


def uniform_cls(high):
    return unit_uniform_class(high=high)


def test_price_response_uniform_closed_form():
    for high in (1.0, 2.0):
        cls = uniform_cls(high)
        for r in np.linspace(0.0, high - 0.01, 30):
            # uniform tail/density is (high - p), so the root is (high + r)/2
            assert price_response(cls, r, 0.0) == pytest.approx(
                (high + r) / 2.0, abs=1e-12
            )


def test_price_response_exponential_closed_form():
    cls = CustomerClass(1.0, ExponentialDuration(1.0), ExponentialValuation(2.0))
    for r in np.linspace(0.0, 3.0, 20):
        assert price_response(cls, r, 0.0) == pytest.approx(r + 0.5, abs=1e-10)


def test_price_response_cost_shifts_reserve():
    cls = uniform_cls(1.0)
    assert price_response(cls, 0.2, 0.1) == pytest.approx(
        price_response(cls, 0.3, 0.0), abs=1e-12
    )


def test_price_response_hits_ceiling():
    cls = uniform_cls(1.0)
    assert price_response(cls, 1.5, 0.0) == 1.0
    assert price_response(cls, 0.9, 0.3) == 1.0


def test_price_response_monotone_in_reserve():
    for cls in (uniform_cls(1.0),
                CustomerClass(1.0, ExponentialDuration(1.0),
                              PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))))):
        prices = [price_response(cls, r, 0.0) for r in np.linspace(0.0, 1.2, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))


def test_price_response_maximizes_reserve_adjusted_revenue():
    laws = [
        UniformValuation(0.0, 1.0),
        ExponentialValuation(1.5),
        PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))),
    ]
    for law in laws:
        cls = CustomerClass(1.0, ExponentialDuration(1.0), law)
        for r in (0.0, 0.15, 0.4):
            star = price_response(cls, r, 0.0)
            grid = np.linspace(law.lower, law.upper, 200_001)
            gains = (grid - r) * np.array([law.tail(p) for p in grid])
            best = grid[int(np.argmax(gains))]
            assert abs(star - best) < 1e-4


def bisect_price_response(cls, reserve, cost):
    """Reference for price_response: 200-step bisection of the virtual-value
    gap (p - floor) - tail(p)/density(p) on [max(floor, lower), upper]."""
    law = cls.valuation
    floor = cost + reserve
    lo, hi = max(floor, law.lower), law.upper
    if hi <= floor:
        return hi

    def gap(p):
        return (p - floor) - law.tail(p) / law.density(p)

    if gap(lo) >= 0.0:
        return lo
    for _ in range(200):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def random_regular_piecewise(rng):
    """2-5 knots with nondecreasing slopes; about a third of the laws repeat
    a slope, which puts collinear knots on the CDF."""
    n = int(rng.integers(1, 5))
    slopes = np.sort(rng.uniform(0.2, 2.0, n))
    if n > 1 and rng.uniform() < 0.35:
        i = int(rng.integers(1, n))
        slopes[i] = slopes[i - 1]
    widths = rng.uniform(0.2, 1.0, n)
    mass = float(np.sum(slopes * widths))
    value, cdf = float(rng.uniform(0.0, 0.5)), 0.0
    knots = [(value, 0.0)]
    for slope, width in zip(slopes, widths):
        value += float(width)
        cdf += float(slope * width) / mass
        knots.append((value, cdf))
    knots[-1] = (value, 1.0)
    return PiecewiseLinearValuation(tuple(knots))


def random_law(rng, kind):
    if kind == "uniform":
        low = float(rng.uniform(0.0, 0.5))
        return UniformValuation(low, low + float(rng.uniform(0.3, 2.0)))
    if kind == "exponential":
        return ExponentialValuation(float(rng.uniform(0.5, 3.0)))
    return random_regular_piecewise(rng)


def probe_floors(rng, law):
    """Floors below the support, inside it, at every knot and above it."""
    lo, hi = law.lower, law.upper
    floors = [lo - float(rng.uniform(0.05, 2.0)), hi, hi + float(rng.uniform(0.0, 1.0))]
    # an exponential law's operational upper bound is far out in its tail
    floors += [float(x) for x in rng.uniform(lo, min(hi, lo + 4.0), 8)]
    if isinstance(law, PiecewiseLinearValuation):
        floors += [v for v, _ in law.knots]
    return floors


@pytest.mark.parametrize("kind", ["uniform", "exponential", "piecewise"])
def test_price_response_closed_form_matches_bisection(kind):
    rng = np.random.default_rng({"uniform": 51, "exponential": 52, "piecewise": 53}[kind])
    for _ in range(60):
        law = random_law(rng, kind)
        cls = CustomerClass(1.0, ExponentialDuration(1.0), law)
        for floor in probe_floors(rng, law):
            closed = price_response(cls, floor, 0.0)
            assert abs(closed - bisect_price_response(cls, floor, 0.0)) <= 1e-12
            assert law.lower <= closed <= law.upper


def test_price_response_returns_knot_where_virtual_value_jumps_over_floor():
    rng = np.random.default_rng(54)
    jumps = 0
    for _ in range(60):
        law = random_regular_piecewise(rng)
        cls = CustomerClass(1.0, ExponentialDuration(1.0), law)
        for (v, f), left, right in zip(law.knots[1:], law._slopes, law._slopes[1:]):
            below, above = v - (1.0 - f) / left, v - (1.0 - f) / right
            if above - below > 1e-6:
                jumps += 1
                assert price_response(cls, 0.5 * (below + above), 0.0) == v
    assert jumps > 20
    # psi jumps from 0 to 0.5 at the knot 1.0
    law = PiecewiseLinearValuation(((0.0, 0.0), (1.0, 0.5), (1.5, 1.0)))
    cls = CustomerClass(1.0, ExponentialDuration(1.0), law)
    for floor in (1e-9, 0.25, 0.5 - 1e-9):
        assert price_response(cls, floor, 0.0) == 1.0


# a virtual-value drop at the knot 0.6, and an interval without density
SPIKE = PiecewiseLinearValuation(((0.0, 0.0), (0.5, 0.1), (0.6, 0.9), (1.0, 1.0)))
FLAT = PiecewiseLinearValuation(((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)))


def test_price_response_rejects_irregular_law():
    # the law refuses itself, at every floor: above its support too
    message = "^PiecewiseLinearValuation is not strictly regular$"
    for law in (SPIKE, FLAT):
        cls = CustomerClass(1.0, ExponentialDuration(1.0), law)
        for floor in (0.0, 0.3, 2.0):
            with pytest.raises(IrregularDistribution, match=message):
                price_response(cls, floor, 0.0)
            with pytest.raises(IrregularDistribution, match=message):
                law.best_price(floor)


def test_rate_map_branch_formulas(two_class_scenario):
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        want = (6.0 - 3.0 * r * r) / (2.0 * (8.0 - 3.0 * r))
        assert rate_map(two_class_scenario, r)[0] == pytest.approx(want, abs=1e-12)
    for r in (1.25, 1.5, 2.0):
        want = (4.0 - r * r) / (2.0 * (6.0 - r))
        assert rate_map(two_class_scenario, r)[0] == pytest.approx(want, abs=1e-12)


def test_rate_map_refuses_a_nan_reserve(two_class_scenario):
    # max(low, nan) is low, so a NaN reserve would price every class at its floor
    with pytest.raises(ConfigError, match="reserve"):
        rate_map(two_class_scenario, math.nan)
    # an infinite reserve is valid: it gives the limiting prices
    assert rate_map(two_class_scenario, math.inf)[0] == 0.0
    assert rate_map(two_class_scenario, -math.inf)[0] == rate_map(two_class_scenario, -1e9)[0]


def test_rate_map_names_float_prices_when_the_rate_overflows():
    # a law built with int bounds prices at its int low; the message prints
    # floats, as check_prices makes them for avg_earning_rate
    crowded = Scenario(classes=(CustomerClass(1e308, ExponentialDuration(1e-300),
                                              UniformValuation(0, 1)),))
    with pytest.raises(NonFiniteRate, match=r"^earning rate is not finite at prices \(0\.0,\)$"):
        rate_map(crowded, -math.inf)
    with pytest.raises(NonFiniteRate, match=r"^earning rate is not finite at prices \(0\.0,\)$"):
        avg_earning_rate(crowded, (0,))


def test_two_class_solution_from_any_start(two_class_scenario):
    for r0 in (0.0, 1.0, 2.0):
        sol = solve_fixed_point(two_class_scenario, r0=r0)
        assert sol.converged
        assert sol.iterations <= 20
        assert sol.rate == pytest.approx(TWO_CLASS_RATE, abs=1e-10)
        assert sol.prices[0] == pytest.approx((1.0 + TWO_CLASS_RATE) / 2.0, abs=1e-10)
        assert sol.prices[1] == pytest.approx((2.0 + TWO_CLASS_RATE) / 2.0, abs=1e-10)
        assert sol.value is None


def test_trace_monotone_after_first_step(two_class_scenario):
    for r0 in (0.0, 0.7, 2.0):
        sol = solve_fixed_point(two_class_scenario, r0=r0)
        achieved = [a for _, a in sol.trace]
        assert all(b >= a - 1e-12 for a, b in zip(achieved, achieved[1:]))
        assert max(achieved) <= sol.rate + 1e-12


def test_fixed_point_consistency(two_class_scenario):
    sol = solve_fixed_point(two_class_scenario)
    achieved, prices = rate_map(two_class_scenario, sol.rate)
    assert achieved == pytest.approx(sol.rate, abs=1e-8)
    assert prices == pytest.approx(sol.prices, abs=1e-8)


@pytest.mark.parametrize("cap", [1, 2])
def test_capped_solve_reports_no_convergence_and_maps_its_last_rate(
        two_class_scenario, monkeypatch, cap):
    # the cap stops the shared reserve loop; the solver then maps its last
    # achieved rate once more, and returns that step's rate and prices
    monkeypatch.setattr(solver, "_MAX_ITER", cap)
    sol = solve_fixed_point(two_class_scenario)
    assert sol.converged is False
    assert sol.iterations == len(sol.trace) == cap
    assert (sol.rate, sol.prices) == rate_map(two_class_scenario, sol.trace[-1][1])


def test_solution_beats_random_price_vectors(two_class_scenario):
    sol = solve_fixed_point(two_class_scenario)
    rng = np.random.default_rng(17)
    for _ in range(1_000):
        prices = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0))
        assert avg_earning_rate(two_class_scenario, prices) <= sol.rate + 1e-12


def test_each_class_term_maximized_at_solution(two_class_scenario):
    # at the fixed point every class price maximizes load*(p - c - R)*tail(p)
    sol = solve_fixed_point(two_class_scenario)
    rng = np.random.default_rng(23)
    for k, cls in enumerate(two_class_scenario.classes):
        law = cls.valuation
        star = (sol.prices[k] - sol.rate) * law.tail(sol.prices[k])
        for p in rng.uniform(law.lower, law.upper, 500):
            assert (p - sol.rate) * law.tail(p) <= star + 1e-12


def test_solver_rejects_irregular_class():
    scn = Scenario(
        classes=(
            unit_uniform_class(),
            CustomerClass(1.0, ExponentialDuration(1.0), SPIKE),
        )
    )
    with pytest.raises(IrregularDistribution,
                       match=r"^classes\[1\] valuation law is not strictly regular$"):
        solve_fixed_point(scn)


@pytest.mark.parametrize("r0", [math.nan, math.inf, -1.0])
def test_solver_refuses_a_bad_start_as_a_config_error(two_class_scenario, r0):
    # a ConfigError is a PricingError, which is what callers of the solver catch
    with pytest.raises(ConfigError, match=rf"^r0 must be finite and nonnegative, got {r0!r}$"):
        solve_fixed_point(two_class_scenario, r0=r0)


def test_solver_checks_regularity_once_per_class(monkeypatch):
    # checked at the entry point; the iteration's steps run on the checked laws
    knotted = PiecewiseLinearValuation(((0.2, 0.0), (1.0, 0.2), (1.8, 0.6), (2.4, 1.0)))
    scn = Scenario(classes=(unit_uniform_class(),
                            CustomerClass(0.7, ExponentialDuration(0.8), knotted)))
    seen = []

    def counting(law):
        seen.append(law)
        return regularity_check(law)

    monkeypatch.setattr(solver, "regularity_check", counting)
    sol = solve_fixed_point(scn)
    assert sol.converged and sol.iterations >= 3
    assert seen == [cls.valuation for cls in scn.classes]


def test_solve_discounted_value_and_small_gamma_limit(single_class_scenario):
    scn = Scenario(classes=single_class_scenario.classes,
                   discount=ExponentialDiscount(1.0))
    sol = solve_discounted(scn)
    assert sol.value == pytest.approx(sol.rate / 1.0, abs=1e-15)

    tiny = Scenario(classes=single_class_scenario.classes,
                    discount=ExponentialDiscount(1e-9))
    base = solve_fixed_point(single_class_scenario)
    near = solve_discounted(tiny)
    assert near.prices[0] == pytest.approx(base.prices[0], abs=1e-6)
    assert 1e-9 * near.value == pytest.approx(base.rate, rel=1e-6)


def test_solve_discounted_equals_adjusted_undiscounted(discounted_scenario):
    sol = solve_discounted(discounted_scenario)
    plain = solve_fixed_point(discount_adjusted(discounted_scenario, 1.0))
    assert sol.prices == pytest.approx(plain.prices, abs=1e-12)
    assert sol.rate == pytest.approx(plain.rate, abs=1e-12)


def test_solve_discounted_identical_laws_share_price():
    scn = Scenario(
        classes=(
            unit_uniform_class(arrival_rate=0.7, service_rate=1.3),
            unit_uniform_class(arrival_rate=2.0, service_rate=0.6),
        ),
        discount=ExponentialDiscount(0.8),
    )
    sol = solve_discounted(scn)
    assert sol.prices[0] == sol.prices[1]


def test_grid_search_single_class(single_class_scenario):
    prices, rate = grid_search_optimum(single_class_scenario, step=1e-3)
    sol = solve_fixed_point(single_class_scenario)
    assert abs(prices[0] - sol.prices[0]) <= 2e-3
    assert rate <= sol.rate + 1e-12
    assert rate >= sol.rate - 1e-4


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_grid_search_refuses_a_bad_step(two_class_scenario, step):
    with pytest.raises(ConfigError, match="grid step"):
        grid_search_optimum(two_class_scenario, step)


def test_grid_search_two_classes(two_class_scenario):
    prices, rate = grid_search_optimum(two_class_scenario, step=2e-3)
    sol = solve_fixed_point(two_class_scenario)
    assert abs(prices[0] - sol.prices[0]) <= 4e-3
    assert abs(prices[1] - sol.prices[1]) <= 4e-3
    assert rate <= sol.rate + 1e-12


def test_grid_search_three_and_four_classes():
    scn3 = Scenario(
        classes=(uniform_cls(1.0), uniform_cls(1.5), uniform_cls(2.0))
    )
    prices, rate = grid_search_optimum(scn3, step=0.02)
    sol = solve_fixed_point(scn3)
    assert rate <= sol.rate + 1e-12
    assert rate >= sol.rate - 2e-3
    assert all(abs(p - q) <= 0.04 for p, q in zip(prices, sol.prices))

    scn4 = Scenario(
        classes=(uniform_cls(1.0), uniform_cls(1.5), uniform_cls(2.0), uniform_cls(2.5))
    )
    prices, rate = grid_search_optimum(scn4, step=0.01)
    sol = solve_fixed_point(scn4)
    assert rate <= sol.rate + 1e-12
    assert rate >= sol.rate - 1e-3
    assert all(abs(p - q) <= 0.02 for p, q in zip(prices, sol.prices))


def brute_force_grid(scenario, step):
    """Reference for grid_search_optimum: the rate at every price vector of
    the grid, summed left to right, and its first maximiser in row-major order."""
    cost = scenario.workers[0].cost
    k = scenario.num_classes
    axes, num, den = [], None, 1.0
    for index, cls in enumerate(scenario.classes):
        axis = np.arange(0.0, cls.valuation.upper + step / 2.0, step)
        tails = np.array([cls.valuation.tail(p) for p in axis])
        shape = [1] * k
        shape[index] = axis.size
        gain = (cls.load * (axis - cost) * tails).reshape(shape)
        num = gain if index == 0 else num + gain
        den = den + (cls.load * tails).reshape(shape)
        axes.append(axis)
    rates = num / den
    best = np.unravel_index(int(np.argmax(rates)), rates.shape)
    return tuple(float(axis[i]) for axis, i in zip(axes, best)), float(rates[best])


def random_grid_scenario(rng, k):
    classes = []
    for _ in range(k):
        if rng.uniform() < 0.5:
            low = float(rng.uniform(0.0, 0.4))
            law = UniformValuation(low, low + float(rng.uniform(0.5, 1.1)))
        else:
            # increasing segment slopes keep the law regular
            a, b = float(rng.uniform(0.3, 0.6)), float(rng.uniform(0.2, 0.5))
            law = PiecewiseLinearValuation(((0.0, 0.0), (a, 0.3), (a + b, 1.0)))
        classes.append(CustomerClass(
            arrival_rate=float(rng.uniform(0.2, 2.0)),
            duration=ExponentialDuration(float(rng.uniform(0.4, 2.5))),
            valuation=law,
        ))
    cost = float(rng.uniform(0.0, 0.2))
    return Scenario(classes=tuple(classes), workers=(WorkerSpec(cost=cost),))


@pytest.mark.parametrize("k, step", [(1, 1e-3), (2, 1e-3), (2, 4e-3)])
def test_grid_search_equals_brute_force_up_to_two_classes(k, step):
    rng = np.random.default_rng(1000 * k + round(1 / step))
    for _ in range(8):
        scenario = random_grid_scenario(rng, k)
        assert grid_search_optimum(scenario, step) == brute_force_grid(scenario, step)


def test_grid_search_equals_brute_force_three_classes():
    rng = np.random.default_rng(3025)
    for _ in range(8):
        scenario = random_grid_scenario(rng, 3)
        prices, rate = grid_search_optimum(scenario, 0.025)
        ref_prices, ref_rate = brute_force_grid(scenario, 0.025)
        assert prices == ref_prices
        assert abs(rate - ref_rate) <= 1e-15


def test_price_response_randomized_roots():
    # the closed-form root must satisfy the stationarity equation to solver tolerance
    rng = np.random.default_rng(31)
    for _ in range(100):
        high = rng.uniform(0.5, 3.0)
        cls = uniform_cls(high)
        r = rng.uniform(0.0, 0.8 * high)
        p = price_response(cls, r, 0.0)
        if p < high:
            law = cls.valuation
            gap = (p - r) - law.tail(p) / law.density(p)
            assert abs(gap) < 1e-10
