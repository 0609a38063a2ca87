"""Shared scenario fixtures, a Monte Carlo ratio estimator, and the
acceptance-summary reporting hook."""

import math
import os
import re
from dataclasses import dataclass

import numpy as np
import pytest

from ondemand_pricing import (
    CustomerClass,
    ExponentialDiscount,
    ExponentialDuration,
    MixtureDiscount,
    Scenario,
    UniformValuation,
    WorkerSpec,
)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped: a long simulation
    forks, and must reap its child however its run ends. waitpid raises
    ChildProcessError when this process has no child at all; it reaps a
    child that has exited, and finds one still running, either of which
    the test left."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: waitpid gave pid {pid} "
                f"(0 while one runs), status {status}")


def unit_uniform_class(arrival_rate=1.0, service_rate=1.0, high=1.0):
    return CustomerClass(
        arrival_rate=arrival_rate,
        duration=ExponentialDuration(service_rate),
        valuation=UniformValuation(0.0, high),
    )


@pytest.fixture
def single_class_scenario():
    # one class, lambda = mu = 1, valuations uniform on [0, 1]
    return Scenario(classes=(unit_uniform_class(),))


@pytest.fixture
def two_class_scenario():
    # the worked two-class example: uniform(0,1) and uniform(0,2), both loads 1
    return Scenario(
        classes=(unit_uniform_class(), unit_uniform_class(high=2.0))
    )


def queue_scenario(r):
    """Two-class waiting-room family: class A has lambda = mu = 1, class B
    has lambda = mu = r, both uniform(0,1) valuations."""
    return Scenario(
        classes=(
            unit_uniform_class(),
            unit_uniform_class(arrival_rate=r, service_rate=r),
        ),
        queue_capacity=1,
    )


@pytest.fixture
def mixture_scenario():
    # identical valuations but different service speeds, horizon rate 1 or 2
    # with equal probability: the setting where uniform pricing stops being optimal
    return Scenario(
        classes=(unit_uniform_class(), unit_uniform_class(service_rate=2.0)),
        discount=MixtureDiscount(weights=(0.5, 0.5), rates=(1.0, 2.0)),
    )


@pytest.fixture
def discounted_scenario():
    return Scenario(
        classes=(unit_uniform_class(),),
        discount=ExponentialDiscount(1.0),
    )


@pytest.fixture
def ranked_fleet_scenario():
    return Scenario(
        classes=(unit_uniform_class(),),
        workers=(WorkerSpec(rank=1), WorkerSpec(rank=2)),
    )


@pytest.fixture
def undifferentiated_scenario():
    return Scenario(
        classes=(unit_uniform_class(),),
        workers=(WorkerSpec(rank=1), WorkerSpec(rank=1)),
    )


@dataclass(frozen=True)
class RatioEstimate:
    """Monte Carlo ratio estimate with a delta-method standard error."""

    ratio: float
    se: float
    draws: int


def deadline_censor_ratio(duration, rate: float, draws: int = 1_000_000,
                          seed: int = 0) -> RatioEstimate:
    """Estimate P(deadline <= duration) / E[min(duration, deadline)] by simulation,
    where the deadline is exponential with the given rate.

    For any positive duration law this ratio equals the deadline rate; the
    estimator lets tests check that identity on samples.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(duration.sample(rng, draws), dtype=float)
    y = rng.exponential(1.0 / rate, draws)
    hit = (y <= x).astype(float)
    both = np.minimum(x, y)
    a, b = float(hit.mean()), float(both.mean())
    var_a = float(hit.var(ddof=1))
    var_b = float(both.var(ddof=1))
    cov = float(np.cov(hit, both, ddof=1)[0, 1])
    ratio = a / b
    var_ratio = (var_a / b**2 + a**2 * var_b / b**4 - 2.0 * a * cov / b**3) / draws
    return RatioEstimate(ratio=ratio, se=math.sqrt(max(var_ratio, 0.0)), draws=draws)


# --- acceptance summary ---
# Each test named test_criterion_NN_* in tests/test_acceptance.py stands for one
# numbered acceptance check; print one PASS/FAIL line per criterion at the end
# of the run so the verdicts are visible without -s.

_CRITERION_TITLES = {
    1: "two-class benchmark: rate 0.40589, prices (0.70294, 1.20294), <=20 iters, <1 ms",
    2: "achieved-rate map matches both closed-form branches to 1e-12",
    3: "single-class price 2-sqrt(2), idle 1/sqrt(2); hybrid pricing (2-sqrt(2), 0.5)",
    4: "mixture-horizon optimum (0.56761, 0.567089) with unequal prices",
    5: "queue closed form vs first-step equations 1e-12; price crossing at r=1",
    6: "shared-valuation instances price class-uniformly; grid oracle finds no better",
    7: "censored-duration ratio within 3 SE of the horizon rate, 9 combinations, <10 s",
    8: "simulator within 3 SE of analytic optimum for loss/discounted/queue, <2 min",
    9: "every solver trace is nondecreasing and bounded by the optimum",
    10: "ranked fleet survives deviation scans; undifferentiated dynamics cycle",
}

_CRITERION_PATTERN = re.compile(r"test_criterion_(\d{2})")
_criterion_outcomes = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_PATTERN.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    passed = _criterion_outcomes.get(number, True)
    _criterion_outcomes[number] = passed and report.outcome == "passed"


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_outcomes):
        verdict = "PASS" if _criterion_outcomes[number] else "FAIL"
        title = _CRITERION_TITLES.get(number, "")
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {title}")
