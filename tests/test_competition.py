import math
import re

import numpy as np
import pytest

from ondemand_pricing import (
    ConfigError,
    CustomerClass,
    ExponentialDuration,
    ExponentialValuation,
    ModelMismatch,
    NonFiniteRate,
    PiecewiseLinearValuation,
    Scenario,
    SingularSystem,
    UniformValuation,
    WorkerSpec,
    apply_commission,
    best_response_dynamics,
    busy_fraction,
    fleet_rates,
    ranked_price_equilibrium,
    solve_fixed_point,
)
from ondemand_pricing import competition
from ondemand_pricing.competition import (
    BestResponseReport,
    ResidualDemandCurve,
    _best_response,
    _optimize_vs_residual,
)
from ondemand_pricing.analytics import earning_rate
from tests.conftest import unit_uniform_class

SQRT2 = math.sqrt(2.0)

SCAN_POINTS = 10_000
SCAN_REFINE = 2_000


def scan_best_response(curve, floor):
    """Test-only reference: the two-stage dense scan of (p - floor) * demand(p)
    over the valuation support that the residual optimizer once used. Returns
    the first maximizer on the refined grid and the refined step."""
    law = curve.customer_class.valuation
    xs = np.linspace(law.lower, law.upper, SCAN_POINTS)
    i = int(np.argmax([(float(x) - floor) * curve.demand(float(x)) for x in xs]))
    fine = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], SCAN_REFINE)
    j = int(np.argmax([(float(x) - floor) * curve.demand(float(x)) for x in fine]))
    return float(fine[j]), float(fine[1] - fine[0])


def residual_terms(curves):
    """Each class's mean duration and residual demand, in place of its load
    and tail."""
    return [(c.customer_class.duration.mean, c.demand) for c in curves]


def residual_rate(curves, prices, cost):
    """The earning rate against residual demand curves."""
    return earning_rate(residual_terms(curves), cost, prices)


def scan_optimize_vs_residual(curves, cost):
    """Test-only reference: the reserve iteration on scanned best responses."""
    reserve = 0.0
    for _ in range(500):
        prices = tuple(scan_best_response(c, cost + reserve)[0] for c in curves)
        achieved = residual_rate(curves, prices, cost)
        if abs(achieved - reserve) <= 1e-12:
            break
        reserve = achieved
    return prices, achieved


def reference_chain_rates(cls, workers, cheapest, prices):
    """Test-only reference: the per-state Python builder of the busy-set
    generator, one chain and one solve per price vector, that the stacked
    `_chain_rates` replaced."""
    n = len(workers)
    lam = cls.arrival_rate
    mu = cls.duration.rate
    law = cls.valuation
    size = 1 << n
    q = np.zeros((size, size))
    for state in range(size):
        available = [i for i in range(n) if not state & (1 << i)]
        for i in range(n):
            if state & (1 << i):
                q[state, state ^ (1 << i)] += mu
        if available:
            if cheapest:
                floor = min(prices[i] for i in available)
                winners = [i for i in available if prices[i] == floor]
                share = lam * law.tail(floor) / len(winners)
                for i in winners:
                    q[state, state | (1 << i)] += share
            else:
                for i in available:
                    better = [prices[j] for j in available
                              if workers[j].rank < workers[i].rank]
                    cap = min(better) if better else math.inf
                    if prices[i] >= cap:
                        continue
                    mass = law.tail(prices[i]) - (law.tail(cap) if cap < math.inf else 0.0)
                    if mass > 0.0:
                        q[state, state | (1 << i)] += lam * mass
        q[state, state] -= q[state].sum()
    coeffs = q.T.copy()
    coeffs[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(coeffs, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystem("the busy-set chain is singular in floating point") from None
    rates = []
    for i in range(n):
        busy = sum(pi[s] for s in range(size) if s & (1 << i))
        rates.append((prices[i] - workers[i].cost) * float(busy))
    return tuple(rates)


def reference_dynamics(scenario):
    """Test-only reference: best-response dynamics with one reference chain
    solve per worker and grid candidate."""
    cls, workers = scenario.classes[0], scenario.workers
    cheapest = scenario.choice == "cheapest"
    step = competition._GRID_STEP
    axis = [float(x) for x in np.arange(0.0, cls.valuation.upper + step / 2.0, step)]

    def solo_rate(price, cost):
        weight = cls.load * cls.valuation.tail(price)
        return (price - cost) * weight / (1.0 + weight)

    profile = [max(axis, key=lambda p, c=w.cost: solo_rate(p, c)) for w in workers]
    trajectory = [tuple(profile)]
    seen = {tuple(profile): 0}
    fixed = cycle_start = cycle_length = None
    rounds = 0
    for round_no in range(1, competition._MAX_ROUNDS + 1):
        rounds = round_no
        for i in range(len(workers)):
            best_p, best_v = profile[i], -math.inf
            for candidate in axis:
                trial = list(profile)
                trial[i] = candidate
                value = reference_chain_rates(cls, workers, cheapest, trial)[i]
                if value > best_v + 1e-15:
                    best_p, best_v = candidate, value
            profile[i] = best_p
        snapshot = tuple(profile)
        if snapshot == trajectory[-1]:
            fixed = snapshot
            trajectory.append(snapshot)
            break
        if snapshot in seen:
            cycle_start = seen[snapshot]
            cycle_length = len(trajectory) - seen[snapshot]
            trajectory.append(snapshot)
            break
        seen[snapshot] = len(trajectory)
        trajectory.append(snapshot)
    return BestResponseReport(trajectory=tuple(trajectory), fixed_profile=fixed,
                              cycle_start=cycle_start, cycle_length=cycle_length,
                              rounds_run=rounds)


def test_busy_fraction_single_class(single_class_scenario):
    # offered load at the benchmark price: sqrt(2) - 1, so busy = 1 - 1/sqrt(2)
    assert busy_fraction(single_class_scenario, (2.0 - SQRT2,)) == pytest.approx(
        1.0 - 1.0 / SQRT2, abs=1e-12
    )
    assert busy_fraction(single_class_scenario, (1.0,)) == 0.0


def test_busy_fraction_matches_load_expression(two_class_scenario):
    rng = np.random.default_rng(13)
    for _ in range(50):
        prices = (rng.uniform(0, 1), rng.uniform(0, 2))
        offered = sum(
            cls.load * cls.valuation.tail(p)
            for cls, p in zip(two_class_scenario.classes, prices)
        )
        assert busy_fraction(two_class_scenario, prices) == pytest.approx(
            offered / (1.0 + offered), abs=1e-12
        )


def test_busy_fraction_of_an_infinite_offered_load_is_one():
    # loads of 1e308 sum to inf at prices (0, 0): the busy share's limit is 1,
    # not inf / inf
    flooded = Scenario(classes=(unit_uniform_class(arrival_rate=1e308),
                                unit_uniform_class(arrival_rate=1e308, high=2.0)))
    assert busy_fraction(flooded, (0.0, 0.0)) == 1.0


def test_busy_fraction_refuses_a_nan_offered_load():
    # a duration rate of 5e-324 makes the load inf: inf times a positive tail
    # is busy all the time, inf times the zero tail at the top price is no number
    endless = Scenario(classes=(unit_uniform_class(service_rate=5e-324),))
    assert endless.classes[0].load == math.inf
    assert busy_fraction(endless, (0.5,)) == 1.0
    with pytest.raises(NonFiniteRate, match=r"^offered load is not a number at prices \(1\.0,\)$"):
        busy_fraction(endless, (1.0,))


def test_residual_demand_spot_values():
    cls = unit_uniform_class()
    curve = ResidualDemandCurve(cls, ((0.6, 0.3),))
    # below the upstream price: diverted mass only when the upstream is busy
    assert curve.demand(0.4) == pytest.approx(0.2 + 0.3 * 0.4, abs=1e-14)
    # above the upstream price: everyone preferred upstream first
    assert curve.demand(0.8) == pytest.approx(0.3 * 0.2, abs=1e-14)
    assert curve.demand(1.0) == 0.0
    assert curve.demand(0.0) == pytest.approx(0.6 + 0.3 * 0.4, abs=1e-14)


def test_residual_demand_degenerate_busy_levels():
    cls = unit_uniform_class()
    always_busy = ResidualDemandCurve(cls, ((0.6, 1.0),))
    never_busy = ResidualDemandCurve(cls, ((0.6, 0.0),))
    for p in np.linspace(0.0, 1.0, 101):
        assert always_busy.demand(p) == pytest.approx(cls.valuation.tail(p), abs=1e-14)
        want = max(0.0, cls.valuation.tail(p) - cls.valuation.tail(0.6)) if p < 0.6 else 0.0
        assert never_busy.demand(p) == pytest.approx(want, abs=1e-14)


def test_residual_demand_monotone_and_continuous():
    cls = unit_uniform_class()
    curve = ResidualDemandCurve(cls, ((0.55, 0.4),)).extended(0.35, 0.7)
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [curve.demand(p) for p in grid]
    assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))
    for cut in (0.35, 0.55):
        assert abs(curve.demand(cut - 1e-9) - curve.demand(cut + 1e-9)) < 1e-8


def test_residual_demand_two_level_cascade():
    # hand-check: pass-through weight is the product of busy odds of the
    # upstream workers whose price does not exceed the valuation
    cls = unit_uniform_class()
    b1, b2 = 0.5, 0.25
    p1, p2 = 0.6, 0.3
    curve = ResidualDemandCurve(cls, ((p1, b1),)).extended(p2, b2)
    # valuation bands: [p, .3): direct; [.3, .6): through level 2; [.6, 1]: through both
    assert curve.demand(0.1) == pytest.approx(
        (0.3 - 0.1) + b2 * (0.6 - 0.3) + b1 * b2 * 0.4, abs=1e-14
    )
    assert curve.demand(0.45) == pytest.approx(b2 * (0.6 - 0.45) + b1 * b2 * 0.4, abs=1e-14)
    assert curve.demand(0.75) == pytest.approx(b1 * b2 * 0.25, abs=1e-14)


def test_equilibrium_single_worker_matches_solver(two_class_scenario):
    eq = ranked_price_equilibrium(two_class_scenario)
    sol = solve_fixed_point(two_class_scenario)
    assert len(eq.outcomes) == 1
    top = eq.by_rank(1)
    assert top.prices == sol.prices
    assert top.rate == sol.rate


def test_equilibrium_two_workers_benchmark(ranked_fleet_scenario):
    eq = ranked_price_equilibrium(ranked_fleet_scenario)
    top, second = eq.by_rank(1), eq.by_rank(2)
    # best-ranked worker prices as if alone
    assert top.prices[0] == pytest.approx(2.0 - SQRT2, abs=1e-12)
    assert top.rate == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-12)
    assert top.busy_fraction == pytest.approx(1.0 - 1.0 / SQRT2, abs=1e-12)
    # second-ranked worker maximizes against the residual demand curve
    assert second.prices[0] == pytest.approx(0.4005438, abs=1e-5)
    assert second.rate == pytest.approx(0.0939809, abs=1e-6)
    assert second.prices[0] < top.prices[0]


def test_equilibrium_second_worker_grid_oracle(ranked_fleet_scenario):
    eq = ranked_price_equilibrium(ranked_fleet_scenario)
    top, second = eq.by_rank(1), eq.by_rank(2)
    cls = ranked_fleet_scenario.classes[0]
    curve = ResidualDemandCurve(cls, ((top.prices[0], top.busy_fraction),))
    grid = np.linspace(0.0, 1.0, 400_001)
    demands = np.array([curve.demand(p) for p in grid])
    rates = demands * grid / (1.0 + demands)
    i = int(np.argmax(rates))
    assert abs(second.prices[0] - grid[i]) < 1e-5
    assert second.rate == pytest.approx(rates[i], abs=1e-9)


def test_equilibrium_upstream_untouched_by_downstream(ranked_fleet_scenario):
    solo = ranked_price_equilibrium(
        Scenario(classes=ranked_fleet_scenario.classes, workers=(WorkerSpec(rank=1),))
    )
    both = ranked_price_equilibrium(ranked_fleet_scenario)
    assert both.by_rank(1).prices == solo.by_rank(1).prices
    assert both.by_rank(1).rate == solo.by_rank(1).rate


def test_equilibrium_class_uniform_prices_with_shared_law():
    scn = Scenario(
        classes=(
            unit_uniform_class(arrival_rate=0.8, service_rate=1.4),
            unit_uniform_class(arrival_rate=1.7, service_rate=0.9),
        ),
        workers=(WorkerSpec(rank=1), WorkerSpec(rank=2)),
    )
    eq = ranked_price_equilibrium(scn)
    for outcome in eq.outcomes:
        assert outcome.prices[0] == outcome.prices[1]


def test_equilibrium_rejects_duplicate_ranks(undifferentiated_scenario):
    with pytest.raises(ModelMismatch):
        ranked_price_equilibrium(undifferentiated_scenario)


def test_fleet_rates_two_ranked_workers(ranked_fleet_scenario):
    eq = ranked_price_equilibrium(ranked_fleet_scenario)
    prices = (eq.by_rank(1).prices[0], eq.by_rank(2).prices[0])
    rates = fleet_rates(ranked_fleet_scenario, prices)
    # the exact chain keeps the best-ranked worker at the single-worker optimum
    assert rates[0] == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-14)
    assert rates[1] == pytest.approx(0.0910709, abs=1e-6)


def test_fleet_rates_cheapest_symmetric_pair(undifferentiated_scenario):
    p = 0.5
    rates = fleet_rates(undifferentiated_scenario, (p, p))
    # two identical servers, admitted load a = tail(p): Erlang-style weights
    a = 0.5
    states = np.array([1.0, a, a * a / 2.0])
    busy_each = (states[1] * 0.5 + states[2]) / states.sum()
    assert rates[0] == pytest.approx(p * busy_each, abs=1e-12)
    assert rates[1] == pytest.approx(rates[0], abs=1e-14)


def test_fleet_rates_sum_bounded_by_admitted_revenue(ranked_fleet_scenario):
    rng = np.random.default_rng(29)
    for _ in range(20):
        prices = tuple(sorted(rng.uniform(0.1, 0.9, 2), reverse=True))
        rates = fleet_rates(ranked_fleet_scenario, prices)
        assert all(r >= 0.0 for r in rates)
        # no worker can beat the single-worker optimum
        assert rates[0] <= 3.0 - 2.0 * SQRT2 + 1e-12


def test_fleet_rates_guards(ranked_fleet_scenario):
    big = Scenario(
        classes=ranked_fleet_scenario.classes,
        workers=tuple(WorkerSpec(rank=i + 1) for i in range(11)),
    )
    with pytest.raises(ModelMismatch):
        fleet_rates(big, (0.5,) * 11)


def test_fleet_rates_singular_chain_is_refused():
    # nobody buys at the top price, and every job's exit rate underflows
    slow = Scenario(classes=(unit_uniform_class(service_rate=5e-324),),
                    workers=(WorkerSpec(rank=1), WorkerSpec(rank=1)))
    with pytest.raises(SingularSystem, match="busy-set chain"):
        fleet_rates(slow, (1.0, 1.0))


@pytest.mark.parametrize("high", [1e12, 1e308])
def test_best_response_dynamics_refuses_huge_price_grid(monkeypatch, high):
    def no_axis(*args, **kwargs):
        raise AssertionError("the price axis was built")

    monkeypatch.setattr(competition.np, "arange", no_axis)
    wide = Scenario(classes=(unit_uniform_class(high=high),),
                    workers=(WorkerSpec(rank=1), WorkerSpec(rank=1)))
    with pytest.raises(ConfigError, match=re.escape(f"valuation high {high!r}:")):
        best_response_dynamics(wide)


class ChainBuilt(Exception):
    pass


@pytest.mark.parametrize("workers, high, refused", [
    (9, 1.0, True),    # 9 * 101 * 8^9: eight times the limit
    (8, 1.01, True),   # one grid point past 8 workers on 101 points
    (8, 1.0, False),   # the limit itself
    (5, 1.0, False),
], ids=["nine_workers", "eight_workers_102_points", "eight_workers_101_points",
        "five_workers"])
def test_best_response_dynamics_bounds_the_chain_work(monkeypatch, workers, high, refused):
    def no_chain(*args, **kwargs):
        raise ChainBuilt

    monkeypatch.setattr(competition, "_chain_rates", no_chain)
    fleet = Scenario(classes=(unit_uniform_class(high=high),),
                     workers=(WorkerSpec(rank=1),) * workers)
    if refused:
        points = 101 if high == 1.0 else 102
        with pytest.raises(ConfigError, match=f"^best-response dynamics of {workers} workers "
                                              f"on a {points}-point price grid: "):
            best_response_dynamics(fleet)
    else:
        with pytest.raises(ChainBuilt):
            best_response_dynamics(fleet)


def test_fleet_rates_keeps_its_worker_cap():
    # the chain-work bound is the dynamics'; one chain solve takes up to 10 workers
    cls = unit_uniform_class()
    ten = Scenario(classes=(cls,), workers=(WorkerSpec(rank=1),) * 10)
    assert len(fleet_rates(ten, (0.5,) * 10)) == 10
    eleven = Scenario(classes=(cls,), workers=(WorkerSpec(rank=1),) * 11)
    with pytest.raises(ModelMismatch, match="at most 10 workers"):
        fleet_rates(eleven, (0.5,) * 11)


def test_best_response_cycle_for_undifferentiated(undifferentiated_scenario):
    report = best_response_dynamics(undifferentiated_scenario)
    assert report.fixed_profile is None
    assert report.cycle_length is not None and report.cycle_length > 1
    assert report.rounds_run <= 100
    assert report.trajectory[report.cycle_start] == report.trajectory[-1]


def test_best_response_fixed_point_for_ranked(ranked_fleet_scenario):
    report = best_response_dynamics(ranked_fleet_scenario)
    assert report.fixed_profile is not None
    eq = ranked_price_equilibrium(ranked_fleet_scenario)
    want = (eq.by_rank(1).prices[0], eq.by_rank(2).prices[0])
    got = report.fixed_profile
    assert abs(got[0] - want[0]) <= 0.02 + 1e-12
    assert abs(got[1] - want[1]) <= 0.02 + 1e-12


def _class(law, arrival_rate=1.0):
    return CustomerClass(arrival_rate=arrival_rate, duration=ExponentialDuration(1.3),
                         valuation=law)


UNIFORM = UniformValuation(0.2, 1.4)
EXPONENTIAL = ExponentialValuation(1.7)
PIECEWISE = PiecewiseLinearValuation(((0.1, 0.0), (0.6, 0.3), (1.5, 1.0)))

# (class, upstream (price, busy fraction) levels): 1-3 levels with prices
# below, inside and above the support, and busy fractions of 0 and 1
BEST_RESPONSE_CASES = {
    "uniform_one_inside": (_class(UNIFORM), ((0.8, 0.4),)),
    "uniform_below_and_inside": (_class(UNIFORM), ((0.1, 0.6), (0.9, 0.3))),
    "uniform_three_with_idle": (_class(UNIFORM), ((1.1, 0.5), (0.7, 0.0), (0.4, 0.8))),
    "uniform_always_busy": (_class(UNIFORM), ((0.6, 1.0),)),
    "uniform_above": (_class(UNIFORM), ((2.0, 0.2),)),
    "exponential_one_inside": (_class(EXPONENTIAL), ((0.5, 0.45),)),
    "exponential_two_inside": (_class(EXPONENTIAL), ((0.9, 0.3), (0.35, 0.6))),
    "exponential_three": (_class(EXPONENTIAL), ((0.0, 0.7), (1.2, 0.2), (0.4, 0.5))),
    "piecewise_at_knot": (_class(PIECEWISE), ((0.6, 0.35),)),
    "piecewise_two_inside": (_class(PIECEWISE), ((1.0, 0.25), (0.45, 0.5))),
    "piecewise_three_mixed": (_class(PIECEWISE), ((0.05, 0.9), (0.8, 1.0), (3.0, 0.1))),
    "piecewise_idle_inside": (_class(PIECEWISE), ((0.9, 0.0),)),
    "commission_uniform": (apply_commission(_class(UNIFORM), 0.8), ((0.6, 0.4),)),
    "commission_piecewise": (apply_commission(_class(PIECEWISE, 2.1), 0.7),
                             ((0.5, 0.3), (0.8, 0.6))),
    "zero_arrivals": (_class(UNIFORM, 0.0), ((0.8, 0.4),)),
}


@pytest.mark.parametrize("floor", [0.0, 0.15, 0.4, 5.0])
@pytest.mark.parametrize("case", sorted(BEST_RESPONSE_CASES))
def test_best_response_matches_scan(case, floor):
    cls, levels = BEST_RESPONSE_CASES[case]
    curve = ResidualDemandCurve(cls, levels)

    def objective(p):
        return (p - floor) * curve.demand(p)

    price = _best_response(curve, floor)
    scanned, step = scan_best_response(curve, floor)
    law = cls.valuation
    assert law.lower <= price <= law.upper
    best, reference = objective(price), objective(scanned)
    assert best >= reference - 1e-15 * abs(reference)
    if best > 0.0:
        # a positive maximum sits at one price in every case here
        assert abs(price - scanned) <= step
    elif cls.arrival_rate == 0.0:
        assert price == law.lower


def test_residual_optimizer_matches_scan_two_classes_with_commission():
    classes = (apply_commission(_class(PIECEWISE, 1.4), 0.85),
               apply_commission(_class(EXPONENTIAL, 0.9), 0.85))
    curves = [ResidualDemandCurve(classes[0], ((0.7, 0.45), (0.4, 0.3))),
              ResidualDemandCurve(classes[1], ((0.6, 0.45), (0.3, 0.3)))]
    sol = _optimize_vs_residual(curves, residual_terms(curves), 0.05)
    assert sol.converged
    assert 1 <= sol.iterations <= competition._RESERVE_MAX_ITER
    assert sol.rate == residual_rate(curves, sol.prices, 0.05)
    _, want = scan_optimize_vs_residual(curves, 0.05)
    assert sol.rate >= want - 1e-15 * want


def test_equilibrium_reports_convergence(ranked_fleet_scenario, monkeypatch):
    scn = Scenario(classes=(ranked_fleet_scenario.classes[0],),
                   workers=(WorkerSpec(rank=1), WorkerSpec(rank=2), WorkerSpec(rank=3)))
    assert all(o.converged for o in ranked_price_equilibrium(scn).outcomes)
    curves = [ResidualDemandCurve(scn.classes[0], ((0.6, 0.3),))]
    # one reserve step cannot reach the fixed point: every lower rank says so
    monkeypatch.setattr(competition, "_RESERVE_MAX_ITER", 1)
    sol = _optimize_vs_residual(curves, residual_terms(curves), 0.0)
    assert (sol.converged, sol.iterations) == (False, 1)
    capped = ranked_price_equilibrium(scn)
    assert [o.converged for o in capped.outcomes] == [True, False, False]


def _fleet(law, n, ranked, costs=None, arrival_rate=1.0):
    costs = costs or (0.0,) * n
    cls = CustomerClass(arrival_rate=arrival_rate, duration=ExponentialDuration(1.3),
                        valuation=law)
    return Scenario(classes=(cls,), workers=tuple(
        WorkerSpec(cost=c, rank=(i + 1) if ranked else 1) for i, c in enumerate(costs)))


# grid axes of 61 to 301 points, so the per-candidate reference stays quick
DYNAMICS_CASES = {
    "uniform_cheapest_2": _fleet(UniformValuation(0.0, 1.0), 2, False),
    "uniform_ranked_2": _fleet(UniformValuation(0.0, 1.0), 2, True),
    "exponential_ranked_3": _fleet(ExponentialValuation(12.0), 3, True, (0.05, 0.0, 0.1)),
    "exponential_cheapest_3": _fleet(ExponentialValuation(12.0), 3, False),
    "piecewise_cheapest_3": _fleet(PIECEWISE, 3, False, (0.0, 0.02, 0.0)),
    "piecewise_ranked_3": _fleet(PIECEWISE, 3, True, (0.1, 0.0, 0.05)),
    "uniform_cheapest_4": _fleet(UniformValuation(0.2, 0.8), 4, False, (0.0, 0.05, 0.0, 0.1)),
    "uniform_ranked_4": _fleet(UniformValuation(0.2, 0.8), 4, True, (0.0, 0.05, 0.0, 0.1)),
    "cost_above_support": _fleet(UniformValuation(0.0, 1.0), 2, False, (0.0, 1.5)),
    "cost_above_support_ranked": _fleet(UniformValuation(0.0, 1.0), 2, True, (1.5, 0.0)),
    "zero_arrivals": _fleet(UniformValuation(0.0, 1.0), 2, True, arrival_rate=0.0),
    "zero_arrivals_cheapest": _fleet(PIECEWISE, 3, False, arrival_rate=0.0),
    "high_3": _fleet(UniformValuation(0.0, 3.0), 2, False),
}


@pytest.mark.parametrize("case", sorted(DYNAMICS_CASES))
def test_best_response_dynamics_matches_reference(case):
    scenario = DYNAMICS_CASES[case]
    assert best_response_dynamics(scenario) == reference_dynamics(scenario)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("law", [UNIFORM, EXPONENTIAL, PIECEWISE], ids=["uniform", "exp", "pw"])
@pytest.mark.parametrize("ranked", [True, False], ids=["ranked", "cheapest"])
def test_fleet_rates_matches_reference(n, law, ranked):
    rng = np.random.default_rng(41 + n)
    scenario = _fleet(law, n, ranked, tuple(rng.uniform(0.0, 0.2, n)), rng.uniform(0.5, 3.0))
    cls = scenario.classes[0]
    top = law.upper
    # free draws, draws rounded to 0.1 (ties), and prices at and above the support's top
    vectors = [rng.uniform(0.0, top, n) for _ in range(6)]
    vectors += [np.round(rng.uniform(0.0, top, n), 1) for _ in range(6)]
    vectors += [np.full(n, 0.3), np.full(n, top), rng.uniform(top, 2.0 * top, n)]
    for prices in vectors:
        prices = tuple(float(p) for p in prices)
        want = reference_chain_rates(cls, scenario.workers, scenario.choice == "cheapest",
                                     prices)
        assert fleet_rates(scenario, prices) == want


def test_singular_chain_message_matches_reference():
    slow = Scenario(classes=(unit_uniform_class(service_rate=5e-324),),
                    workers=(WorkerSpec(rank=1), WorkerSpec(rank=1)))
    with pytest.raises(SingularSystem) as want:
        reference_dynamics(slow)
    with pytest.raises(SingularSystem) as got:
        best_response_dynamics(slow)
    assert str(got.value) == str(want.value)
    with pytest.raises(SingularSystem) as got:
        fleet_rates(slow, (1.0, 1.0))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", ["uniform_cheapest_2", "exponential_ranked_3",
                                  "piecewise_ranked_3"])
def test_dynamics_blocking_keeps_results(monkeypatch, case):
    scenario = DYNAMICS_CASES[case]
    whole = best_response_dynamics(scenario)
    size = 1 << len(scenario.workers)
    # one candidate per block, then three (the grids' lengths are no multiple of 3)
    for entries in (1, 3 * size * size):
        monkeypatch.setattr(competition, "_BLOCK_ENTRIES", entries)
        assert best_response_dynamics(scenario) == whole
