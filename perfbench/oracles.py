"""Reference math for checking the package's outputs, written independently
of the package.

Everything here reads scenario documents in the JSON config schema (plain
dicts) and uses only the standard library and numpy's linear solver, so a
defect in the package's law classes, rate functionals or solvers cannot hide
by being shared with its oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# --- Student t ---


def t_two_sided(t: float, df: int) -> float:
    """P(|T| > t) for Student's t with an integer `df` >= 1, from the
    closed-form finite sums (Abramowitz and Stegun 26.7.3-4)."""
    theta = math.atan(abs(t) / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2:
        term, total = math.sin(theta) * math.cos(theta), 0.0
        for j in range(1, (df - 1) // 2 + 1):
            total += term
            term *= c2 * (2 * j) / (2 * j + 1)
        inside = 2.0 / math.pi * (theta + total)
    else:
        term, total = math.sin(theta), 0.0
        for j in range(1, df // 2 + 1):
            total += term
            term *= c2 * (2 * j - 1) / (2 * j)
        inside = total
    return 1.0 - inside


@functools.lru_cache(maxsize=None)
def t_quantile(alpha: float, df: int) -> float:
    """The t with P(|T| > t) = alpha, by bisection."""
    lo, hi = 0.0, 1.0
    while t_two_sided(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_two_sided(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


# --- valuation and duration laws ---


def tail(law: dict, p: float) -> float:
    """P(valuation >= p)."""
    kind, par = law["kind"], law["params"]
    if kind == "uniform":
        lo, hi = par["low"], par["high"]
        return 1.0 if p <= lo else 0.0 if p >= hi else (hi - p) / (hi - lo)
    if kind == "exponential":
        return 1.0 if p <= 0.0 else math.exp(-par["rate"] * p)
    knots = par["knots"]
    if p <= knots[0][0]:
        return 1.0
    if p >= knots[-1][0]:
        return 0.0
    for (v0, f0), (v1, f1) in zip(knots, knots[1:]):
        if v0 <= p < v1:
            return 1.0 - (f0 + (f1 - f0) * (p - v0) / (v1 - v0))
    raise AssertionError("unreachable")


def density(law: dict, p: float) -> float:
    kind, par = law["kind"], law["params"]
    if kind == "uniform":
        return 1.0 / (par["high"] - par["low"])
    if kind == "exponential":
        return par["rate"] * math.exp(-par["rate"] * p)
    knots = par["knots"]
    for (v0, f0), (v1, f1) in zip(knots, knots[1:]):
        if v0 <= p < v1:
            return (f1 - f0) / (v1 - v0)
    (v0, f0), (v1, f1) = knots[-2], knots[-1]
    return (f1 - f0) / (v1 - v0)


def support(law: dict) -> tuple[float, float]:
    kind, par = law["kind"], law["params"]
    if kind == "uniform":
        return par["low"], par["high"]
    if kind == "exponential":
        return 0.0, -math.log(1e-12) / par["rate"]
    return par["knots"][0][0], par["knots"][-1][0]


def mean_duration(dur: dict) -> float:
    kind, par = dur["kind"], dur["params"]
    if kind == "exponential":
        return 1.0 / par["rate"]
    if kind == "deterministic":
        return par["value"]
    return math.fsum(par["samples"]) / len(par["samples"])


def discounted_mean_duration(dur: dict, gamma: float) -> float:
    """E[min(duration, T)] for T ~ exponential(gamma)."""
    kind, par = dur["kind"], dur["params"]
    if kind == "exponential":
        return 1.0 / (par["rate"] + gamma)
    if kind == "deterministic":
        return -math.expm1(-gamma * par["value"]) / gamma
    xs = par["samples"]
    return math.fsum(-math.expm1(-gamma * x) for x in xs) / len(xs) / gamma


# --- loss system ---


def loss_rate(doc: dict, prices, loads=None) -> float:
    """Long-run earning rate of a lone worker; `loads` overrides offered loads."""
    cost = doc.get("workers", [{}])[0].get("cost", 0.0)
    if loads is None:
        loads = [c["arrival_rate"] * mean_duration(c["duration"]) for c in doc["classes"]]
    num, den = 0.0, 1.0
    for cls, load, p in zip(doc["classes"], loads, prices):
        w = load * tail(cls["valuation"], p)
        num += w * (p - cost)
        den += w
    return num / den


def discounted_loads(doc: dict, gamma: float) -> list[float]:
    return [
        c["arrival_rate"] * discounted_mean_duration(c["duration"], gamma)
        for c in doc["classes"]
    ]


def discounted_value(doc: dict, prices, gamma: float) -> float:
    return loss_rate(doc, prices, discounted_loads(doc, gamma)) / gamma


def mixture_value(doc: dict, prices) -> float:
    par = doc["discount"]["params"]
    return math.fsum(
        w * loss_rate(doc, prices, discounted_loads(doc, g))
        for w, g in zip(par["weights"], par["rates"])
    )


def virtual_value(law: dict, p: float) -> float:
    return p - tail(law, p) / density(law, p)


def is_best_response(law: dict, price: float, floor: float, delta: float = 1e-8) -> bool:
    """Whether `price` is, to within `delta`, the optimal price for one class
    when a busy hour is worth `floor`. For a regular law the optimum p*
    brackets the floor between the virtual value just left and just right of
    it (the virtual value may jump there), or sits at a support edge."""
    lo, hi = support(law)
    if hi <= floor:
        return abs(price - hi) <= delta
    start = max(lo, floor)
    if virtual_value(law, start) >= floor:
        return abs(price - start) <= delta
    if not lo <= price <= hi:
        return False
    return (virtual_value(law, max(price - delta, lo)) <= floor
            <= virtual_value(law, min(price + delta, hi)))


# --- queue with one waiting spot ---


def queue_rate(doc: dict, prices) -> float:
    """Earning rate with one waiting spot, from the stationary law of the
    7-state busy/queue Markov chain (exponential durations)."""
    cost = doc.get("workers", [{}])[0].get("cost", 0.0)
    a, b = doc["classes"]
    lam = [a["arrival_rate"] * tail(a["valuation"], prices[0]),
           b["arrival_rate"] * tail(b["valuation"], prices[1])]
    mu = [a["duration"]["params"]["rate"], b["duration"]["params"]["rate"]]
    # states: idle, serving k with empty queue, serving k with j waiting
    states = ["idle", (0, None), (1, None), (0, 0), (0, 1), (1, 0), (1, 1)]
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((7, 7))
    for k in (0, 1):
        q[index["idle"], index[(k, None)]] += lam[k]
        q[index[(k, None)], index["idle"]] += mu[k]
        for j in (0, 1):
            q[index[(k, None)], index[(k, j)]] += lam[j]
            q[index[(k, j)], index[(j, None)]] += mu[k]
    np.fill_diagonal(q, -q.sum(axis=1))
    coeffs = q.T.copy()
    coeffs[-1, :] = 1.0
    rhs = np.zeros(7)
    rhs[-1] = 1.0
    pi = np.linalg.solve(coeffs, rhs)
    serving = [0.0, 0.0]
    for s, i in index.items():
        if s != "idle":
            serving[s[0]] += pi[i]
    return sum((prices[k] - cost) * serving[k] for k in (0, 1))


# --- ranked fleets ---


def residual_demand(cls: dict, levels, p: float) -> float:
    """Arrival rate of class customers accepting p that reach a worker below
    upstream workers posting (price, busy fraction) `levels`: a customer with
    valuation v passes every upstream worker priced above v and each one
    priced at or below v only while it is busy."""
    law = cls["valuation"]
    cuts = sorted({q for q, _ in levels if q > p})
    edges = [max(p, 0.0)] + cuts + [math.inf]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        weight = math.prod(b for q, b in levels if q <= lo)
        upper = 0.0 if hi == math.inf else tail(law, hi)
        total += weight * (tail(law, lo) - upper)
    return cls["arrival_rate"] * total


def residual_rate(doc: dict, level_sets, prices, cost: float) -> tuple[float, float]:
    """(earning rate, busy fraction) of a worker facing residual demand."""
    num, den = 0.0, 1.0
    for cls, levels, p in zip(doc["classes"], level_sets, prices):
        w = residual_demand(cls, levels, p) * mean_duration(cls["duration"])
        num += w * (p - cost)
        den += w
    return num / den, (den - 1.0) / den

