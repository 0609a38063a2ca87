"""Core domain types: valuation laws, duration laws, customer classes, workers, scenarios.

All prices are per unit of service time (hourly rates). Valuation laws describe the
distribution of a customer's maximum acceptable rate; duration laws describe how long
an accepted job keeps the worker busy.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import ConfigError, IrregularDistribution, ModelMismatch, ZeroDensity

# Operational upper bound for laws with unbounded support: cut where the tail
# drops below this mass.
TAIL_CUTOFF = 1e-12

# A virtual-value drop at a knot no larger than this is taken as rounding.
_DROP_ALLOWANCE = 1e-12


def exponentials(rng, scale: float, n: int) -> np.ndarray:
    """n exponential draws of mean `scale`: the values and the stream use of
    numpy's Generator.exponential, which draws each element as
    scale * standard_exponential(). Scaling the standard draws in place
    gives the same bits without a second array."""
    draws = rng.standard_exponential(n)
    draws *= scale
    return draws


# --- exact-float rules ---
# Every reported figure is the same on any CPU and any Python: numpy's SIMD
# exp, expm1, log10 and power loops can differ from libm in the last bit from
# one CPU to the next, and `sum` adds floats with compensation from Python 3.12.


def libm_map(func, values) -> np.ndarray:
    """The `math` function `func` at each element of a 1-D float64 array, as
    a new array: libm's bits, as the scalar code gets them."""
    return np.fromiter(map(func, memoryview(values)), float, len(values))


def left_sum(values):
    """The sum of Python floats (or ints) added left to right from int 0, as
    `sum` adds them up to Python 3.11."""
    return reduce(operator.add, values, 0)


def row_sums(x) -> np.ndarray:
    """Each row's sum along the last axis, added left to right as a running
    total from 0.0 adds it up. np.sum pairs terms, which can change the last
    bit, and keeps the sign of an all -0.0 row. The running total from the
    first term differs from the one from 0.0 only while every term so far is
    -0.0, reading -0.0 for +0.0; adding 0.0 turns -0.0 into +0.0 and leaves
    every other value as it is. Each row needs at least one term."""
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


# --- valuation and duration laws ---
# Each law works out its derived tables in __post_init__ and never writes to
# its instance afterwards: a lazy cache writes through the instance __dict__,
# which on CPython 3.11 slows every later attribute read in tail and density.


@dataclass(frozen=True)
class UniformValuation:
    """Valuations uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigError("uniform valuation bounds must be finite")
        if self.low < 0.0 or self.high <= self.low:
            raise ConfigError("uniform valuation requires 0 <= low < high")

    @property
    def lower(self) -> float:
        return self.low

    @property
    def upper(self) -> float:
        return self.high

    def tail(self, p: float) -> float:
        if p <= self.low:
            return 1.0
        if p >= self.high:
            return 0.0
        return (self.high - p) / (self.high - self.low)

    def tails(self, prices: np.ndarray) -> np.ndarray:
        """tail at each price of an array, bit for bit."""
        p = np.asarray(prices, dtype=float)
        inner = (self.high - p) / (self.high - self.low)
        return np.where(p <= self.low, 1.0, np.where(p >= self.high, 0.0, inner))

    def cdf(self, p: float) -> float:
        return 1.0 - self.tail(p)

    def density(self, p: float) -> float:
        if self.low <= p <= self.high:
            return 1.0 / (self.high - self.low)
        return 0.0

    def best_price(self, floor: float) -> float:
        """Least price >= max(floor, low) whose virtual value 2p - high reaches
        floor; the upper bound when it cannot."""
        if self.high <= floor:
            return self.high
        return max(self.low, (floor + self.high) / 2.0)

    def regularity(self) -> str:
        return "strictly_regular"

    def scaled(self, retention: float) -> UniformValuation:
        return UniformValuation(retention * self.low, retention * self.high)

    def sample(self, rng, n: int):
        # Generator.uniform's own arithmetic, low + (high - low) * random(), in place
        draws = rng.random(n)
        draws *= self.high - self.low
        draws += self.low
        return draws


@dataclass(frozen=True)
class ExponentialValuation:
    """Valuations exponential with the given hazard rate."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ConfigError("exponential valuation requires rate > 0")
        # operational upper bound, the quantile at the tail cutoff
        object.__setattr__(self, "_upper", -math.log(TAIL_CUTOFF) / self.rate)

    @property
    def lower(self) -> float:
        return 0.0

    @property
    def upper(self) -> float:
        return self._upper

    def tail(self, p: float) -> float:
        if p <= 0.0:
            return 1.0
        return math.exp(-self.rate * p)

    def tails(self, prices: np.ndarray) -> np.ndarray:
        """tail at each price of a 1-D array, bit for bit as the scalar,
        except that fmax reads a NaN price as 0: it gives 1, not NaN."""
        return libm_map(math.exp, -self.rate * np.fmax(prices, 0.0))

    def cdf(self, p: float) -> float:
        return 1.0 - self.tail(p)

    def density(self, p: float) -> float:
        if p < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * p)

    def best_price(self, floor: float) -> float:
        """Least price >= max(floor, 0) whose virtual value p - 1/rate reaches
        floor, capped at the operational upper bound."""
        upper = self._upper
        if upper <= floor:
            return upper
        return min(max(floor + 1.0 / self.rate, 0.0), upper)

    def regularity(self) -> str:
        return "strictly_regular"

    def scaled(self, retention: float) -> ExponentialValuation:
        return ExponentialValuation(self.rate / retention)

    def sample(self, rng, n: int):
        return exponentials(rng, 1.0 / self.rate, n)


@dataclass(frozen=True)
class PiecewiseLinearValuation:
    """Valuation law given by a piecewise-linear CDF through the supplied knots.

    Knots are (value, cdf) pairs with strictly increasing values, nondecreasing
    cdf, first cdf 0 and last cdf 1. Density on each knot interval is the
    interval slope; at a knot the right interval's slope applies (the left one
    at the top of the support).
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        knots = tuple((float(v), float(f)) for v, f in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ConfigError("piecewise valuation needs at least two knots")
        vs = [v for v, _ in knots]
        fs = [f for _, f in knots]
        if any(not math.isfinite(v) or not math.isfinite(f) for v, f in knots):
            raise ConfigError("piecewise valuation knots must be finite")
        if vs[0] < 0.0:
            raise ConfigError("piecewise valuation support must be nonnegative")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ConfigError("piecewise valuation values must strictly increase")
        if any(b < a for a, b in zip(fs, fs[1:])):
            raise ConfigError("piecewise valuation cdf must be nondecreasing")
        if fs[0] != 0.0 or fs[-1] != 1.0:
            raise ConfigError("piecewise valuation cdf must run from 0 to 1")
        # The tables every call reads, worked out once: the knot values, the
        # density on each knot interval, (v0, v1, (1 - f0)/d) of each interval
        # with density d > 0, and the law's class. Each divisor is a positive
        # gap between distinct finite floats, so it can overflow but not raise.
        slopes = tuple((f1 - f0) / (v1 - v0) for (v0, f0), (v1, f1) in zip(knots, knots[1:]))
        object.__setattr__(self, "_values", tuple(vs))
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_selling", tuple(
            (v0, v1, (1.0 - f0) / d)
            for (v0, f0), (v1, _), d in zip(knots, knots[1:], slopes) if d > 0.0))
        object.__setattr__(self, "_regularity", _piecewise_regularity(knots, slopes))
        # the knot values and cdfs again as read-only arrays, for tails and sample
        values, cdfs = np.array(vs), np.array(fs)
        values.flags.writeable = cdfs.flags.writeable = False
        object.__setattr__(self, "_value_array", values)
        object.__setattr__(self, "_cdf_array", cdfs)

    @property
    def lower(self) -> float:
        return self.knots[0][0]

    @property
    def upper(self) -> float:
        return self.knots[-1][0]

    def cdf(self, p: float) -> float:
        vs = self._values
        if p <= vs[0]:
            return 0.0
        if p >= vs[-1]:
            return 1.0
        # searching within vs[1:-1] keeps i an interval's index at the top
        # of the support (density) and for a NaN price
        i = bisect_right(vs, p, 1, len(vs) - 1) - 1
        (v0, f0), (v1, f1) = self.knots[i], self.knots[i + 1]
        return f0 + (f1 - f0) * (p - v0) / (v1 - v0)

    def tail(self, p: float) -> float:
        return 1.0 - self.cdf(p)

    def tails(self, prices: np.ndarray) -> np.ndarray:
        """tail at each price of an array, bit for bit: the interval and the
        arithmetic of cdf."""
        p = np.asarray(prices, dtype=float)
        vs, fs = self._value_array, self._cdf_array
        i = np.clip(np.searchsorted(vs, p, "right") - 1, 0, len(vs) - 2)
        v0, v1, f0, f1 = vs[i], vs[i + 1], fs[i], fs[i + 1]
        cdf = f0 + (f1 - f0) * (p - v0) / (v1 - v0)
        return 1.0 - np.where(p <= self.lower, 0.0, np.where(p >= self.upper, 1.0, cdf))

    def density(self, p: float) -> float:
        vs = self._values
        if p < vs[0] or p > vs[-1]:
            return 0.0
        return self._slopes[bisect_right(vs, p, 1, len(vs) - 1) - 1]

    def best_price(self, floor: float) -> float:
        """Least price >= max(floor, lower) whose virtual value reaches floor;
        the upper bound when none does.

        On the interval from knot (v0, f0) with slope d the virtual value is
        2p - v0 - (1 - f0)/d, so its root there is (floor + v0 + (1 - f0)/d)/2.
        The first interval whose root, clipped to it, lies before its right
        end holds the price; a knot where the virtual value jumps over floor
        is returned exactly. Intervals without density never sell. An
        irregular law has no such price and is refused.
        """
        if self._regularity != "strictly_regular":
            raise IrregularDistribution("PiecewiseLinearValuation is not strictly regular")
        vs = self._values
        upper = vs[-1]
        if upper <= floor:
            return upper
        lo = max(floor, vs[0])
        for v0, v1, c in self._selling:
            price = max(lo, v0, (floor + v0 + c) / 2.0)
            if price < v1:
                return price
        return upper

    def regularity(self) -> str:
        """The law's class, worked out when the law is built."""
        return self._regularity

    def scaled(self, retention: float) -> PiecewiseLinearValuation:
        return PiecewiseLinearValuation(tuple((retention * v, f) for v, f in self.knots))

    def sample(self, rng, n: int):
        return np.interp(rng.random(n), self._cdf_array, self._value_array)


def _piecewise_regularity(knots, slopes) -> str:
    """Exact O(knots) test of a piecewise-linear law. The virtual value rises
    with slope 2 on every interval and jumps by tail(k) * (1/d_left - 1/d_right)
    at an interior knot k, so the law is strictly regular unless an interval
    has no density or some jump is a drop beyond rounding."""
    if any(d <= 0.0 for d in slopes):
        return "irregular"
    for (_, f), left, right in zip(knots[1:], slopes, slopes[1:]):
        if (1.0 - f) * (1.0 / left - 1.0 / right) <= -_DROP_ALLOWANCE:
            return "irregular"
    return "strictly_regular"


ValuationLaw = UniformValuation | ExponentialValuation | PiecewiseLinearValuation


def virtual_value(law: ValuationLaw, p: float) -> float:
    """p - tail(p)/density(p), the marginal-revenue transform of the valuation law."""
    if p < law.lower or p > law.upper:
        raise ValueError(f"price {p} outside valuation support [{law.lower}, {law.upper}]")
    d = law.density(p)
    if d <= 0.0:
        raise ZeroDensity(f"valuation density is zero at {p}")
    return p - law.tail(p) / d


def regularity_check(law: ValuationLaw) -> str:
    """Classify a valuation law: "strictly_regular" when its virtual value is
    increasing on the support, "irregular" otherwise.

    The test is exact. Uniform and exponential virtual values are linear with
    positive slope; a piecewise-linear law is checked at its knots. A merely
    nondecreasing ("regular") virtual value cannot arise for these laws.
    Each law finds its verdict at construction, so this reads it.
    """
    return law.regularity()


# --- duration laws ---


@dataclass(frozen=True)
class ExponentialDuration:
    """Service time exponential with the given completion rate (jobs per hour)."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ConfigError("exponential duration requires rate > 0")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def censored_mean(self, gamma: float, scale: float = 1.0) -> float:
        """scale * E[min(duration, Y)] for Y ~ exponential(gamma).

        `scale` (an arrival rate) enters before the last division, as in the
        effective-load formulas, so loads keep their last bits."""
        return scale / (self.rate + gamma)

    def sample(self, rng, n: int):
        return exponentials(rng, self.mean, n)


@dataclass(frozen=True)
class DeterministicDuration:
    """Every job takes exactly `value` hours."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value <= 0.0:
            raise ConfigError("deterministic duration requires value > 0")

    @property
    def mean(self) -> float:
        return self.value

    def censored_mean(self, gamma: float, scale: float = 1.0) -> float:
        """scale * E[min(value, Y)] for Y ~ exponential(gamma)."""
        return scale * (-math.expm1(-gamma * self.value)) / gamma

    def sample(self, rng, n: int):
        return np.full(n, self.value)


@dataclass(frozen=True)
class EmpiricalDuration:
    """Service times resampled uniformly from recorded samples; `mean` is
    their average, worked out when the law is built."""

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        samples = tuple(float(x) for x in self.samples)
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise ConfigError("empirical duration needs at least one sample")
        if any(not math.isfinite(x) or x <= 0.0 for x in samples):
            raise ConfigError("empirical duration samples must be positive and finite")
        object.__setattr__(self, "mean", math.fsum(samples) / len(samples))

    def censored_mean(self, gamma: float, scale: float = 1.0) -> float:
        """scale * E[min(duration, Y)] for Y ~ exponential(gamma), averaged
        over the samples."""
        xs = np.asarray(self.samples)
        return scale * float(np.mean(-libm_map(math.expm1, -gamma * xs))) / gamma

    def sample(self, rng, n: int):
        pool = np.asarray(self.samples)
        return pool[rng.integers(0, len(pool), n)]


DurationLaw = ExponentialDuration | DeterministicDuration | EmpiricalDuration


# --- discounting ---


@dataclass(frozen=True)
class ExponentialDiscount:
    """Earnings discounted at rate `rate`; equivalently an exp(rate) evaluation horizon."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ConfigError("discount rate must be positive")


@dataclass(frozen=True)
class MixtureDiscount:
    """Horizon drawn from a finite mixture of exponential discount rates."""

    weights: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        rates = tuple(float(g) for g in self.rates)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rates", rates)
        if len(weights) != len(rates) or not weights:
            raise ConfigError("mixture weights and rates must have equal nonzero length")
        if any(not math.isfinite(w) or w <= 0.0 for w in weights):
            raise ConfigError("mixture weights must be positive and finite")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ConfigError("mixture weights must sum to 1")
        if any(not math.isfinite(g) or g <= 0.0 for g in rates):
            raise ConfigError("mixture rates must be positive")


Discount = ExponentialDiscount | MixtureDiscount


# --- customers, workers, scenario ---


@dataclass(frozen=True)
class CustomerClass:
    """A Poisson stream of jobs with a shared valuation and duration law."""

    arrival_rate: float
    duration: DurationLaw
    valuation: ValuationLaw

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_rate) or self.arrival_rate < 0.0:
            raise ConfigError("arrival_rate must be finite and nonnegative")

    @property
    def load(self) -> float:
        """Offered load: arrival rate times mean duration."""
        return self.arrival_rate * self.duration.mean


@dataclass(frozen=True)
class WorkerSpec:
    """A worker: busy-time opportunity cost and quality rank (1 = most preferred).

    Prices are net (retained) rates: the config reader applies the workers'
    common commission by scaling every class's valuation law (`apply_commission`)."""

    cost: float = 0.0
    rank: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost) or self.cost < 0.0:
            raise ConfigError("worker cost must be finite and nonnegative")
        if self.rank < 1:
            raise ConfigError("worker rank must be a positive integer")


@dataclass(frozen=True)
class Scenario:
    """A pricing problem instance: customer classes, workers, discounting, queue room."""

    classes: tuple[CustomerClass, ...]
    workers: tuple[WorkerSpec, ...] = (WorkerSpec(),)
    discount: Discount | None = None
    queue_capacity: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "workers", tuple(self.workers))
        if not self.classes:
            raise ConfigError("scenario needs at least one customer class")
        if not self.workers:
            raise ConfigError("scenario needs at least one worker")
        if self.queue_capacity not in (0, 1):
            raise ConfigError("queue_capacity must be 0 or 1")
        ranks = [w.rank for w in self.workers]
        if len(set(ranks)) not in (1, len(ranks)):
            raise ConfigError("worker ranks must be all equal or all distinct")
        if self.queue_capacity and len(self.workers) > 1:
            raise ConfigError("scenario.queue_capacity: the queue takes a single worker")
        if self.discount is not None and (self.queue_capacity or len(self.workers) > 1):
            raise ConfigError("scenario.discount: discounting takes a single worker, no queue")

    @property
    def kind(self) -> str:
        """The model the scenario poses: "queue" with a waiting spot, else
        "mixture" or "discounted" by its discount, else "loss" for a lone worker
        and "fleet" for several. __post_init__ rejects every other shape."""
        if self.queue_capacity:
            return "queue"
        if isinstance(self.discount, MixtureDiscount):
            return "mixture"
        if self.discount is not None:
            return "discounted"
        return "loss" if len(self.workers) == 1 else "fleet"

    @property
    def choice(self) -> str:
        """How customers pick among available workers: "ranked" (the
        best-ranked one they can afford) when ranks are distinct, as for a
        lone worker, else "cheapest". __post_init__ allows no mixed ranks."""
        return "ranked" if len({w.rank for w in self.workers}) == len(self.workers) else "cheapest"

    def require(self, op: str, *kinds: str) -> None:
        """Raise ModelMismatch unless the scenario's kind is one of `kinds`."""
        if self.kind not in kinds:
            raise ModelMismatch(f"{op} applies to {' or '.join(kinds)} scenarios, not {self.kind}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


PriceVector = tuple[float, ...]


def check_prices(scenario: Scenario, prices) -> PriceVector:
    """Validate a per-class price vector against a scenario: one hourly rate
    per class, each finite and nonnegative. Every operation that takes prices
    checks them here."""
    try:
        prices = tuple(map(float, prices))
    except (TypeError, ValueError):
        raise ConfigError("prices must be a sequence of numbers") from None
    if len(prices) != scenario.num_classes:
        raise ConfigError(f"expected {scenario.num_classes} prices, got {len(prices)}")
    if not all(0.0 <= p < math.inf for p in prices):  # NaN fails every comparison
        raise ConfigError("prices must be finite and nonnegative")
    return prices


def queue_parts(scenario: Scenario, op: str) -> tuple[CustomerClass, CustomerClass, float]:
    """The two classes and the worker's cost of a queue scenario. The queue
    model covers exactly two classes, both with exponential durations."""
    scenario.require(op, "queue")
    if scenario.num_classes != 2:
        raise ModelMismatch(f"{op} supports exactly two classes")
    if not all(isinstance(cls.duration, ExponentialDuration) for cls in scenario.classes):
        raise ModelMismatch(f"{op} needs exponential durations")
    return scenario.classes[0], scenario.classes[1], scenario.workers[0].cost


def apply_commission(cls: CustomerClass, retention: float) -> CustomerClass:
    """Rescale a class's valuation law so pricing can be done in net (retained) rates.

    A customer who accepts gross rate p leaves the worker retention*p, so the
    net-rate acceptance tail is tail(p / retention); that is the original law
    with its support scaled by the retention factor.
    """
    if not (0.0 < retention <= 1.0):
        raise ConfigError("commission_retention must lie in (0, 1]")
    if retention == 1.0:
        return cls
    return replace(cls, valuation=cls.valuation.scaled(retention))
