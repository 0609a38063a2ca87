"""Discrete-event Monte Carlo ground truth for the analytic models.

Every replication draws per-class Poisson arrivals, valuations, and durations
from its own PRNG streams (PCG64 seeded via SeedSequence with
spawn_key=(replication, class_index)), so adding a class or changing routing
never perturbs another stream. The draws are numpy's exponential(scale) and
uniform(low, high) calls, which compute scale * standard_exponential() and
low + (high - low) * random() element by element; `_class_arrivals` and the
laws' `sample` methods make the standard draws and scale them in place,
which gives the same values from the same stream with no second array.
Earnings accrue at (price - cost) per busy hour; rate estimates discard a
warmup prefix, discounted estimates run from the idle start because the
start state is part of the quantity.

Every simulator draws a replication through `_offered_events`: it draws
each class, drops the arrivals valued below the lowest price any worker it
runs posts to their class, which leave without changing any state, and
merges the rest into one time-ordered stream, freeing each class's arrays
as they are merged. `simulate`, `simulate_queue` and `deviation_scan` take
their replications from the same two helpers: `_run_span` works out the
horizon, the warm-up end and the span once per run, and `_replications`
draws a range of replications lazily, one at a time, in order; `simulate_discounted` draws
its own, over a whole number of windows of each replication's discount
rate. A deviation scan
runs only the scanned worker, at its baseline and grid prices, and the
workers ranked above it, so only their prices set its floors. `_counts`
counts the dropped ones as priced out. Only `simulate` writes an event
trace, to the path it is given; the trace is a view of replication 0 and the
only place that builds a per-arrival worker column, from the arrivals each
worker took: it redraws the full stream, in which the priced-in arrivals keep
their order, and scatters that column back onto them, writing each line as it
reads the arrays' buffers, one arrival at a time.

Loss systems run on one kernel, `_loss_accepts`. A busy worker loses every
arrival, so the job a lone worker takes after the one ending at t + d is the
first arrival it can afford at or after t + d. That successor almost always
lies a few arrivals ahead, so a local scan of the next few arrivals finds it
for every job in linear time, and a binary search only for the jobs that
outlast the scan. Pointer doubling then finds the chain of accepted jobs in
about log2(accepted) array passes. Given segment starts, the kernel serves
many independent streams laid end to end in one call: a compare past a
segment's end counts as a miss, a job that outlasts the scan is searched for
in its own segment, and each segment's first job, taken because the worker
starts it idle, is the successor of the previous segment's last, so one
chain visits them all. A call with one segment is a lone worker's run. A
ranked fleet is a cascade of the kernel, `_loss_rep`, which serves one
replication everywhere: workers in rank order each run it on the arrivals
they can afford that no better-ranked worker took. A deviation scan runs the
cascade down to the scanned worker once per replication, then the scanned
worker once per distinct price. Only those streams of the scanned worker are
batched: on a few hundred arrivals a kernel call costs mostly its fixed
overhead, so the scan serves its (replication, price) streams of fewer than
_SHORT offered arrivals in batches of at most _BATCH, one kernel call each,
and sums each stream's earnings from 0.0 as a lone run does; a longer stream
runs alone. The streams stay in order, replication by replication and price
by price, through the batches and back, so the scan reads each one's
earnings by its position. The scan's report takes all its statistics in one
`_mean_se` pass over a matrix of rows. The discounted simulator caps each
job's end at the first arrival of the next window, where the worker restarts
idle, so the kernel takes that arrival next. The one-waiting-spot queue still steps
through its affordable arrivals, since a waiting job's start depends on
history, in one pass that reads the arrays' buffers as Python floats. Its
worker's state is two floats: when the admitted work ends, and when the last
admitted job starts and frees the waiting spot. An arrival before that start
is lost; any other starts on arrival or when the work ends, whichever is
later, and the loop adds its earnings to a running total as it admits it.
The loss simulators add up earnings as arrays, with `_segment_sums`; every
simulator adds them in start order, left to right from 0.0.

Long runs take two processes. `simulate`, `simulate_queue` and
`simulate_discounted` each compute their replications' values and counts
through one function of a range of replications. A run of two or more
replications that draws at least _FORK_ARRIVALS (2^20) expected arrivals in
all (replications x expected_arrivals) runs the lower half of the range here
and the upper half in a forked child, at once, and joins the two results in
replication order; a traced `simulate` runs replication 0 here, then writes
its trace in the child while it runs replications 1 and up. Smaller runs,
every run where `os.fork` does not exist and every run in a process that
runs other threads call the same function once over every replication, so
the outputs are byte-identical either way. The
child sends its result or its exception, pickled, through a pipe and ends
with `os._exit`; the parent reads the pipe and reaps the child whatever
happens here, raises the error of the lower replications when both halves
fail, as a run in turn would, and a ChildProcessError when the child ends
without reporting. The child's memory is its own, so the parent's peak RSS
does not count it.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import threading
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, ModelMismatch, NonFiniteRate
from .model import Scenario, check_prices, exponentials, left_sum, libm_map, queue_parts, row_sums

# Discount weight e^{-gamma t} is below 4e-18 past this many inverse rates, so
# a discounted run's windows are this long.
_DISCOUNT_SPAN = 40.0
# Window numbers are int64, so a horizon holds fewer windows than this.
_MAX_WINDOWS = 2.0**63
# The loss kernel compares each job's end with this many later arrivals and
# binary-searches the successor of a job that outlasts them all.
_NEAR = 4
# Squares of deviations among replication values past _HUGE in size could
# overflow, and among values below _TINY underflow.
_HUGE = 2.0**500
_TINY = 2.0**-500
# A deviation scan serves its streams of fewer offered arrivals than _SHORT
# in batches of at most _BATCH arrivals, one kernel call each. A longer one
# runs alone: batching it saves little call cost and costs copies, doubling
# passes over a longer table and cache misses.
_SHORT = 2**12
_BATCH = 2**15
# A run that draws at least this many expected arrivals in all (replications
# x expected_arrivals) shares its replications with a forked child, each
# process running its half at once on its own core. Below it a fork costs
# more than it saves: forked on every run, 6 000 x 10 ran 1.41-1.97x slower
# and 20 000 x 12 0.90-0.96x the time of a run in one process.
_FORK_ARRIVALS = 2**20


@dataclass(frozen=True)
class SimConfig:
    """Simulation sizing: expected arrivals (which set the horizon), seed, warmup."""

    scenario: Scenario
    expected_arrivals: float = 100_000.0
    replications: int = 30
    base_seed: int = 20260815
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        # numpy's integers are Integral too; a float count or seed would fail
        # only later, in range() or SeedSequence
        if not (isinstance(self.replications, numbers.Integral) and self.replications >= 1):
            raise ConfigError(f"replications must be an integer >= 1, not {self.replications!r}")
        if not (0.0 <= self.warmup_fraction <= 0.5):
            raise ConfigError("warmup_fraction must lie in [0, 0.5]")
        if not self.expected_arrivals > 0.0:  # NaN too
            raise ConfigError("expected_arrivals must be positive")
        if not isinstance(self.base_seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, not {self.base_seed!r}")
        if self.base_seed < 0:
            raise ConfigError(f"seed must be non-negative, not {self.base_seed!r}")

    def horizon_hours(self) -> float:
        total = left_sum(cls.arrival_rate for cls in self.scenario.classes)
        if total <= 0.0:
            raise ConfigError("cannot size a horizon: total arrival rate is zero")
        horizon = self.expected_arrivals / total
        # an overflowing or underflowing rate sizes a horizon of 0 or inf
        if not 0.0 < horizon < math.inf:
            raise ConfigError(f"cannot size a horizon: total arrival rate {total!r} "
                              f"gives {horizon!r} hours")
        return horizon


@dataclass(frozen=True)
class Counts:
    arrivals: int = 0
    accepted: int = 0
    lost_busy: int = 0
    lost_price: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            self.arrivals + other.arrivals,
            self.accepted + other.accepted,
            self.lost_busy + other.lost_busy,
            self.lost_price + other.lost_price,
        )


def _counts(drawn: int, priced_in: int, accepted: int) -> Counts:
    """One replication's counts: of `drawn` arrivals, `priced_in` could
    afford a price, `accepted` of those were served and the rest lost busy."""
    return Counts(drawn, accepted, priced_in - accepted, drawn - priced_in)


@dataclass(frozen=True)
class SimStats:
    """Replication summary. `mean` is an hourly rate for kind "rate" and a
    discounted currency amount for kind "value"; for fleets it totals across
    workers with `per_worker_reps` holding the worker-major breakdown."""

    kind: str
    mean: float
    se: float
    ci_low: float
    ci_high: float
    replications: int
    rep_values: tuple[float, ...]
    counts: Counts
    per_worker_reps: tuple[tuple[float, ...], ...] | None = None

    def worker_mean_se(self, index: int) -> tuple[float, float]:
        if self.per_worker_reps is None:
            raise ValueError("no per-worker breakdown recorded")
        return _mean_se(self.per_worker_reps[index])

    def to_dict(self) -> dict:
        """The fields as a dict, each worker's mean in place of
        `per_worker_reps` (a lone worker has neither)."""
        out = asdict(self)
        reps = out.pop("per_worker_reps")
        if reps is not None:
            out["per_worker_mean"] = [_mean_se(row)[0] for row in reps]
        return out


def _quiet(func):
    """`func` without numpy's overflow and invalid-value warnings: the inf or
    NaN it then returns reaches _finite_mean_se, which refuses it."""
    return np.errstate(over="ignore", invalid="ignore")(func)


@_quiet
def _mean_se(values):
    """Mean and standard error of `values`, or of each row of a (rows, n)
    array, bit for bit as arr.mean() and arr.std(ddof=1) / sqrt(n) of that
    row: the same sums, in numpy's order, without the calls' overhead. A row
    whose largest value is past _HUGE or below _TINY in size (not all zero)
    is first scaled by its own power of two, which is exact, so the squares
    of its deviations neither overflow nor underflow. Returns two floats for
    one row of values and two arrays for a (rows, n) array."""
    arr = np.asarray(values, dtype=float)
    n = arr.shape[-1]
    top = np.maximum.reduce(np.abs(arr), axis=-1, keepdims=True)
    outside = ((_HUGE < top) & (top < math.inf)) | ((0.0 < top) & (top < _TINY))
    scaled = outside.any()
    if scaled:
        shift = np.where(outside, np.frexp(top)[1], 0)
        arr = np.ldexp(arr, -shift)
    mean = np.add.reduce(arr, axis=-1, keepdims=True) / n
    if n == 1:
        se = np.zeros_like(mean)
    else:
        dev = np.subtract(arr, mean)
        se = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=-1, keepdims=True)
                     / (n - 1)) / math.sqrt(n)
    if scaled:
        mean, se = np.ldexp(mean, shift), np.ldexp(se, shift)
    mean, se = mean[..., 0], se[..., 0]
    return (float(mean), float(se)) if arr.ndim == 1 else (mean, se)


def _finite_mean_se(kinds, rows) -> tuple[list[float], list[float]]:
    """The means and SEs of `rows`, as _mean_se gives them, refusing the
    first row, in order, whose mean or SE is not finite: no gate can test
    it. kinds[i] names row i in the message."""
    means, ses = (stat.tolist() for stat in _mean_se(rows))
    for kind, mean, se in zip(kinds, means, ses):
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise NonFiniteRate(f"simulated {kind} is not finite: mean {mean!r}, SE {se!r}")
    return means, ses


def _stats(kind: str, rep_values, counts: Counts,
           per_worker_reps=None) -> SimStats:
    (mean,), (se,) = _finite_mean_se([kind], [rep_values])
    return SimStats(
        kind=kind,
        mean=mean,
        se=se,
        ci_low=mean - 1.96 * se,
        ci_high=mean + 1.96 * se,
        replications=len(rep_values),
        rep_values=tuple(float(v) for v in rep_values),
        counts=counts,
        per_worker_reps=per_worker_reps,
    )


def _stream(base_seed: int, *key: int):
    """The PRNG stream of `key`: (rep, class_index) for a class's draws, and
    (rep,) for a mixture replication's branch rate."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=key))


def _gaps_summed(rng, scale: float, n: int) -> np.ndarray:
    """The running sums of n exponential gaps of mean `scale`, summed in
    place in the array that holds the draws."""
    times = exponentials(rng, scale, n)
    return np.cumsum(times, out=times)


def _class_arrivals(cls, rng, horizon: float):
    """Arrival times, valuations, and durations for one class on [0, horizon].

    Draws depend only on the stream and horizon, never on prices or routing,
    so common-random-number comparisons stay paired. The times are running
    sums of exponential gaps of mean 1/rate, drawn in blocks that almost
    always cover the horizon. Each block is numpy's standard exponentials
    scaled and summed in place: the values and stream use of a cumsum of
    numpy's exponential(1/rate, block), in one array instead of two.
    """
    lam = cls.arrival_rate
    if lam <= 0.0:
        empty = np.empty(0)
        return empty, empty, empty
    expected = lam * horizon
    block = int(expected + 6.0 * math.sqrt(expected) + 16.0)
    times = _gaps_summed(rng, 1.0 / lam, block)
    while times[-1] < horizon:
        more = _gaps_summed(rng, 1.0 / lam, block)
        times = np.concatenate([times, times[-1] + more])
    n = int(np.searchsorted(times, horizon, side="right"))
    times = times[:n]
    valuations = np.asarray(cls.valuation.sample(rng, n), dtype=float)
    durations = np.asarray(cls.duration.sample(rng, n), dtype=float)
    return times, valuations, durations


def _merge(parts):
    """Time-ordered (time, class, valuation, duration) arrays from each
    class's (times, valuations, durations), in class order. `parts` is
    emptied and each class's arrays are freed once merged, so beyond its
    result the merge holds at most two arrays as long as the stream."""
    if len(parts) == 1:  # one class is drawn in time order
        times, vs, ds = parts.pop()
        return times, np.zeros(times.size, dtype=int), vs, ds
    ts, vs, ds = map(list, zip(*parts))
    parts.clear()
    sizes = [t.size for t in ts]
    times = np.concatenate(ts)
    ts.clear()
    order = np.argsort(times, kind="stable")
    times = times[order]
    ks = np.repeat(np.arange(len(sizes), dtype=int), sizes)[order]

    def gather(arrays):
        whole = np.concatenate(arrays)
        arrays.clear()
        return whole[order]

    return times, ks, gather(vs), gather(ds)


def _merged_events(scenario: Scenario, base_seed: int, rep: int, horizon: float):
    """Time-ordered (time, class, valuation, duration) arrays for one replication."""
    return _merge([_class_arrivals(cls, _stream(base_seed, rep, k), horizon)
                   for k, cls in enumerate(scenario.classes)])


def _priced_in(times, vs, ds, floor):
    """One class's arrivals without those valued below `floor`, the lowest
    price any worker posts to the class: none of them is ever served. A NaN
    valuation stays, as it stays in the kernels' own price tests."""
    keep = np.flatnonzero(~(vs < floor))
    return times[keep], vs[keep], ds[keep]


def _offered_events(scenario: Scenario, base_seed: int, rep: int, horizon: float, floors,
                    count=np.size):
    """_merged_events without the arrivals of class k valued below
    floors[k], and the arrivals drawn: the sum of `count` over each class's
    times, all of them by default. The draws are the same."""
    parts, drawn = [], 0
    for k, cls in enumerate(scenario.classes):
        times, vs, ds = _class_arrivals(cls, _stream(base_seed, rep, k), horizon)
        drawn += count(times)
        parts.append(_priced_in(times, vs, ds, floors[k]))
    del times, vs, ds  # the last class's full draw, before the merge
    return _merge(parts), drawn


def _successors(times, ends, work, cuts) -> np.ndarray:
    """The successor table of the loss kernel: entry i is the job a worker
    takes after job i, and entry n is n, the root past the last job.

    `times` are the arrival times of the jobs the worker would take and
    `ends` their completion times, in segments: independent streams laid
    end to end, each sorted, the first starting at 0 and the others at
    `cuts` (sorted, in [0, n]; two equal cuts bound an empty segment). The
    job after job i is the first arrival of its segment at or after ends[i],
    or the segment's end, which is the next segment's first job. A job whose
    end rounds to its start (t + d == t) frees the worker for the next
    arrival, even one at the same instant.

    That successor is i + 1 plus the number of later arrivals of its segment
    before ends[i]. The times are sorted, so those arrivals come first among
    the later ones, and a miss `times[i + k] >= ends[i]` at some k means a
    miss at every larger k. So each job is compared with its next _NEAR
    arrivals, one slice compare per k, and its misses are subtracted from
    i + 1 + _NEAR (or from n, near the end of the stream). A compare past a
    segment's end counts as a miss, which gives the last _NEAR jobs of a
    segment that segment's end, as the last jobs of the stream get n. A job
    with no miss there, a NaN end among them, gets its successor by binary
    search in its own segment. The compares and the miss counts go to
    `work`, an int8 buffer of at least 2n bytes that this overwrites.
    """
    n = times.size
    jump = np.arange(1 + _NEAR, n + 2 + _NEAR, dtype=np.intp)
    jump[-1 - _NEAR:] = n
    # row d - 1 holds the jobs d places before each cut: from k = d on, their
    # compares reach past their segment's end
    before = cuts - np.arange(1, _NEAR + 1)[:, None] if cuts.size else None
    if n > 1:
        misses = work[:n - 1]
        miss = work[n:2 * n - 1].view(bool)
        np.greater_equal(times[1:], ends[:-1], out=misses.view(bool))
        _cut_misses(misses.view(bool), before, 1)
        for k in range(2, min(_NEAR, n - 1) + 1):
            np.greater_equal(times[k:], ends[:n - k], out=miss[:n - k])
            _cut_misses(miss[:n - k], before, k)
            misses[:n - k] += miss[:n - k].view(np.int8)
        jump[:n - 1] -= misses
        if n > _NEAR:
            far = np.flatnonzero(np.logical_not(miss[:n - _NEAR], out=miss[:n - _NEAR]))
            if before is None:
                jump[far] = np.searchsorted(times, ends[far], "left")
            else:
                _segment_search(times, ends, far, cuts, jump)
    return jump


def _cut_misses(miss, before, k: int) -> None:
    """Mark as misses the compares at distance k, miss[i] for times[i + k],
    that reach past a cut: those of the jobs at most k places before one."""
    if before is not None:
        jobs = before[:k].ravel()
        miss[jobs[(jobs >= 0) & (jobs < miss.size)]] = True


def _segment_search(times, ends, far, cuts, jump) -> None:
    """jump[far] by binary search, each job among the arrivals of its own
    segment. The search keys are (segment, time) pairs held as complex
    numbers, which numpy orders real part first while no part is NaN, so
    one search lands each job in its own segment. The arrival times are
    finite, so a NaN end, probed as inf, lands past the segment's last
    arrival, as NaN sorts last in np.searchsorted over the times."""
    segment = np.repeat(np.arange(cuts.size + 1.0), np.diff(cuts, prepend=0, append=times.size))
    keys = np.empty(times.size, dtype=complex)
    keys.real, keys.imag = segment, times
    probes = np.empty(far.size, dtype=complex)
    probes.real, probes.imag = segment[far], np.fmin(ends[far], math.inf)
    jump[far] = np.searchsorted(keys, probes, "left")


def _loss_accepts(times, ends, starts=(0,)) -> np.ndarray:
    """Indices of the jobs a loss-system worker takes, starting idle, on
    each of the streams that begin at `starts` (0, then each later stream's
    first index; one stream by default), with `times` and `ends` as in
    `_successors`.

    The path buffer is `_successors`' work buffer first. One buffer in place
    of several temporaries per call keeps the heap of a long run, and so its
    peak memory, from growing.

    The successors form a forest whose roots sit at n, and the accepted jobs
    are the path from job 0 to its root. A stream's first job is always
    taken, since the worker starts it idle, and it is the successor of the
    previous stream's last taken job, so the one path visits every stream in
    order. Pointer doubling finds that path: while `path` holds the first
    m = 2**k jobs on it, `jump` is the m-th successor, so jump[path[:m]]
    holds the next m, and squaring the table doubles the stride. Each pass
    appends in path order, so `path` stays sorted, and the path has at most
    n jobs, so the buffer never overflows. It takes about log2(accepted)
    passes over the table.
    """
    n = times.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    path = np.empty(n, dtype=np.intp)
    jump = _successors(times, ends, path.view(np.int8),
                       np.asarray(starts[1:], dtype=np.intp))
    path[0] = 0
    m = 1
    while True:
        step = jump[path[:m]]
        if step[-1] == n:  # a step reached the root
            end = m + int(np.searchsorted(step, n))
            path[m:end] = step[:end - m]
            return path[:end]
        path[m:2 * m] = step
        m *= 2
        jump = jump[jump]


def _run_ends(w) -> np.ndarray:
    """np.searchsorted(w, w, "right") for sorted `w`: the index just past
    each entry's run of equal values."""
    ends = np.append(np.flatnonzero(w[1:] != w[:-1]) + 1, w.size)
    return np.repeat(ends, np.diff(ends, prepend=0))


@_quiet
def _segment_sums(terms, bounds) -> list[float]:
    """The `row_sums` of each segment terms[lo:hi] between consecutive
    `bounds`, 0.0 for an empty one: np.sum would keep the sign of an all
    -0.0 sum (a job priced below cost inside the warm-up)."""
    return [float(row_sums(terms[lo:hi])) if lo < hi else 0.0
            for lo, hi in zip(bounds, bounds[1:])]


@_quiet
def _earning_terms(margins, starts, ends, warm: float, horizon: float):
    """Each job's earnings over [warm, horizon], busy on [starts, ends)."""
    return margins * np.maximum(0.0, np.minimum(ends, horizon) - np.maximum(starts, warm))


def _earnings(margins, starts, ends, warm: float, horizon: float) -> float:
    """Earnings over [warm, horizon] of jobs busy on [starts, ends), added up
    in order by `_segment_sums` as one segment. The terms die with the call."""
    return _segment_sums(_earning_terms(margins, starts, ends, warm, horizon),
                         (0, starts.size))[0]


def _serve(events, ends, free, row) -> np.ndarray:
    """The arrivals of one replication that one worker posting `row` takes
    among those still `free`."""
    times, ks, vs, _ = events
    offered = np.flatnonzero(free & (np.asarray(row)[ks] <= vs))
    return offered[_loss_accepts(times[offered], ends[offered])]


def _serve_streams(streams, cost: float, warm: float, horizon: float) -> list[float]:
    """The earnings over [warm, horizon] of each of `streams`, in order, a
    stream being the (times, ends) of the arrivals a lone worker is offered
    at one price, and that price. One kernel call serves the streams laid
    end to end."""
    starts = np.cumsum([0] + [stream[0].size for stream in streams[:-1]])
    if len(streams) == 1:
        times, ends, _ = streams[0]
    else:
        times, ends = (np.concatenate([stream[i] for stream in streams]) for i in (0, 1))
    taken = _loss_accepts(times, ends, starts)
    bounds = [*np.searchsorted(taken, starts).tolist(), taken.size]
    margins = np.repeat([price - cost for _, _, price in streams], np.diff(bounds))
    terms = _earning_terms(margins, times[taken], ends[taken], warm, horizon)
    return _segment_sums(terms, bounds)


def _batches(streams):
    """`streams` in lists that keep their order, a stream's size being its
    first array's: a stream of _SHORT or more arrivals alone, and the shorter
    ones gathered into lists of at most _BATCH arrivals, so that a kernel
    call's fixed cost is paid once per list. A long stream ends the list
    before it, so no stream is served ahead of an earlier one."""
    batch, total = [], 0
    for stream in streams:
        n = stream[0].size
        if batch and (n >= _SHORT or total + n > _BATCH):
            yield batch
            batch, total = [], 0
        batch.append(stream)
        # a long stream fills its list: the next stream starts another
        total += n if n < _SHORT else math.inf
    if batch:
        yield batch


def _loss_rep(events, ends, matrix, ranks):
    """One replication of the loss system under best-affordable-worker
    choice, served by the workers `ranks` lists, best rank first; `ends` are
    the arrivals' times plus durations.

    Returns the mask of arrivals no worker took and the arrivals each worker
    of `ranks` took, in that order.
    """
    free = np.ones(events[0].size, dtype=bool)
    taken = []
    for i in ranks:
        taken.append(_serve(events, ends, free, matrix[i]))
        free[taken[-1]] = False
    return free, taken


def _trace_lines(times, ks, vs, chosen, lost_price):
    """The trace's lines for these arrivals, in the bytes csv.writer would
    give, made one at a time from the arrays' buffers."""
    for t, k, v, w, priced_out in zip(*map(memoryview, (times, ks, vs, chosen, lost_price))):
        if w >= 0:
            yield f"{t!r},accept,{k},{w},{v!r}\r\n"
        else:
            yield f"{t!r},{'lost_price' if priced_out else 'lost_busy'},{k},,{v!r}\r\n"


def _write_trace(path: str, events, chosen, lost_price) -> None:
    """Per-event CSV of one replication, in arrival order. The lines are
    written as they are made, so the Python objects held do not grow with
    the replication. The file's directory is made here, so a run whose
    inputs fail makes none."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("time,event,class,worker,value\r\n")
        fh.writelines(_trace_lines(*events[:3], chosen, lost_price))


def _trace_first_rep(path: str, config: SimConfig, horizon: float, floors, chosen) -> None:
    """Write replication 0's trace to `path`: `chosen`, its kernel's choices
    on the priced-in stream, scattered back onto the full stream redrawn
    here. The full stream lives only as long as this call."""
    events = _merged_events(config.scenario, config.base_seed, 0, horizon)
    lost_price = events[2] < floors[events[1]]
    shown = np.full(lost_price.size, -1, dtype=np.int32)
    shown[~lost_price] = chosen
    _write_trace(path, events, shown, lost_price)


def _check_matrix(scenario: Scenario, prices) -> list:
    """The rows of a fleet's price matrix, checked for shape only."""
    n, k = len(scenario.workers), scenario.num_classes
    try:
        if len(prices) == n and all(len(row) == k for row in prices):
            return list(prices)
    except TypeError:
        pass
    raise ConfigError(f"expected a {n}x{k} price matrix, one row per worker")


def _loss_matrix(scenario: Scenario, prices, op: str) -> list[tuple[float, ...]]:
    """The validated price matrix, one row per worker, of a loss-system run."""
    scenario.require(op, "loss", "fleet")
    if scenario.kind == "loss":
        return [check_prices(scenario, prices)]
    if scenario.choice != "ranked":
        raise ConfigError("fleet simulation needs distinct quality ranks")
    return [check_prices(scenario, row) for row in _check_matrix(scenario, prices)]


def _run_span(config: SimConfig) -> tuple[float, float, float]:
    """A rate run's horizon, warm-up end and span, worked out once per run."""
    horizon = config.horizon_hours()
    warm = config.warmup_fraction * horizon
    return horizon, warm, horizon - warm


def _replications(config: SimConfig, floors, horizon: float, reps: range):
    """The replications `reps` of a run over [0, horizon]: (rep, events,
    arrivals drawn) for each, from `_offered_events` at `floors`, drawn
    lazily in order. The tuples come straight from a generator expression,
    which keeps no reference to one once it is handed on, so a caller that
    drops a replication's arrays frees them (through `enumerate`, which keeps
    its last result, it could not)."""
    return ((rep, *_offered_events(config.scenario, config.base_seed, rep, horizon, floors))
            for rep in reps)


def _forks(config: SimConfig) -> bool:
    """Whether a run shares its replications with a forked child: a run of
    two or more that draws at least _FORK_ARRIVALS expected arrivals in all,
    on a platform that can fork, in a process running no other thread (a
    fork copies only the calling thread, and a lock another one holds stays
    held in the child)."""
    return (hasattr(os, "fork") and config.replications >= 2
            and config.replications * config.expected_arrivals >= _FORK_ARRIVALS
            and threading.active_count() == 1)


def _report(func, write_end: int) -> None:
    """In a forked child: write func()'s outcome, pickled as (result, None)
    or (None, its exception), to the pipe's `write_end`, and end the child.
    It never returns, so no code of the caller's runs twice. It exits 0 once
    the report is written; an exception that does not load back from its
    pickle is not written, nor is anything if func() is interrupted, and the
    child exits 1."""
    code = 1
    try:
        try:
            blob = pickle.dumps((func(), None))
        except Exception as exc:
            blob = pickle.dumps((None, exc))
            pickle.loads(blob)
        with open(write_end, "wb") as pipe:
            pipe.write(blob)
        code = 0
    finally:
        os._exit(code)


def _outcome(pid: int, read_end: int):
    """The outcome the child `pid` reports on the pipe's `read_end`, read to
    the end, once the child is reaped: (result, None), or (None, the error).
    A child exits 0 only once its report is written whole; any other end
    gives a ChildProcessError."""
    try:
        with open(read_end, "rb") as pipe:
            blob = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return None, ChildProcessError(
            f"a forked simulation process exited with status {code} and no result")
    return pickle.loads(blob)


def _at_once(first, second, fork: int | None):
    """(first(), second()). With `fork` None they run in turn here; else at
    once, the one at index `fork` in a forked child and the other here,
    after which the child's outcome is read and the child reaped, whatever
    happened here. If both fail, the error raised is first()'s, as running
    them in turn would give."""
    if fork is None:
        return first(), second()
    calls = (first, second)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _report(calls[fork], write_end)
    os.close(write_end)
    outcomes = [None, None]
    try:
        try:
            outcomes[1 - fork] = calls[1 - fork](), None
        except Exception as exc:
            outcomes[1 - fork] = None, exc
    finally:
        outcomes[fork] = _outcome(pid, read_end)
    for _, error in outcomes:
        if error is not None:
            raise error
    return outcomes[0][0], outcomes[1][0]


def _joined(lower, upper):
    """One (values, Counts) result from those of two runs of replications,
    the lower ones first."""
    return lower[0] + upper[0], lower[1] + upper[1]


def _split(run, config: SimConfig):
    """All of a run's replications through `run`, which gives the (values,
    Counts) of a range of them: in one call here, or for a run that forks,
    the lower half here and the upper half in a forked child at once, joined
    in replication order. Each replication's values are the same floats
    either way."""
    n = config.replications
    if not _forks(config):
        return run(range(n))
    return _joined(*_at_once(partial(run, range(n // 2)), partial(run, range(n // 2, n)), 1))


def _loss_reps(config: SimConfig, matrix, floors, sizes, reps: range, trace=None):
    """Each worker's rate, one row per replication of `reps` in config
    order, and their counts, for `simulate`. With `trace`, replication 0's
    worker column (each arrival's worker, -1 for none) goes to trace() once
    nothing else of the replication is held."""
    scenario = config.scenario
    horizon, warm, span = sizes
    ranks = scenario.rank_order
    rows = []
    counts = Counts()
    for rep, events, drawn in _replications(config, floors, horizon, reps):
        times, ks, _, ds = events
        ends = times + ds
        free, taken = _loss_rep(events, ends, matrix, ranks)
        counts += _counts(drawn, free.size, free.size - int(np.count_nonzero(free)))
        rates = [0.0] * len(ranks)  # in config order; `taken` is in rank order
        for i, jobs in zip(ranks, taken):
            rates[i] = _earnings(np.asarray(matrix[i])[ks[jobs]] - scenario.workers[i].cost,
                                 times[jobs], ends[jobs], warm, horizon) / span
        rows.append(rates)
        if rep == 0 and trace is not None:
            # each arrival's worker, -1 for none, as int32: the trace writes
            # the same ints, and intp put its peak 7-8 % above an untraced run's
            chosen = np.full(free.size, -1, dtype=np.int32)
            for i, jobs in zip(ranks, taken):
                chosen[jobs] = i
            del events, times, ks, _, ds, ends, free, taken, jobs  # the redraw needs only `chosen`
            trace(chosen)
        else:
            # the kernel's arrays go now, and the replication's own when the
            # next draw replaces them: freeing those first was measured slower
            del ends, free, taken, jobs
    return rows, counts


def simulate(config: SimConfig, prices, trace_path: str | None = None) -> SimStats:
    """Simulate the loss system: a lone worker, or a ranked fleet under
    best-affordable-worker choice. Returns rate statistics over replications.
    With a `trace_path`, replication 0's events are written there as CSV.

    A run of two or more replications that draws at least _FORK_ARRIVALS
    (2^20) expected arrivals in all runs the upper half of them in a forked
    child, or with a trace, writes replication 0's trace there while this
    process runs replications 1 and up. Its results are byte for byte those
    of a run in one process, which is how smaller runs go, and every run
    where `os.fork` does not exist or other threads run. The child's memory
    does not count in this process's peak RSS."""
    scenario = config.scenario
    matrix = _loss_matrix(scenario, prices, "simulate")
    floors = np.min(np.asarray(matrix), axis=0)
    sizes = _run_span(config)
    run = partial(_loss_reps, config, matrix, floors, sizes)
    if trace_path is None:
        rows, counts = _split(run, config)
    else:
        # replication 0 first, then its trace, from its worker column, beside
        # or before the rest: the order a run in turn takes, which keeps its
        # peak memory that of an untraced run
        chosen = []
        first = run(range(1), chosen.append)
        trace = partial(_trace_first_rep, trace_path, config, sizes[0], floors, chosen.pop())
        _, rest = _at_once(trace, partial(run, range(1, config.replications)),
                           0 if _forks(config) else None)
        rows, counts = _joined(first, rest)
    return _stats("rate", [left_sum(row) for row in rows], counts,
                  per_worker_reps=tuple(zip(*rows)))


def simulate_discounted(config: SimConfig, prices) -> SimStats:
    """Estimate discounted earnings from an idle start for a lone worker,
    at the scenario's own discount.

    Each replication chops its horizon into windows of 40 inverse discount
    rates; a horizon that holds no whole window at some rate of the discount
    is refused before the first draw. Poisson arrivals over disjoint
    intervals are independent, so every window restarted idle is a fresh
    draw of the idle-start value (the weight past a window end is below
    5e-18); the replication reports the window mean. A discounted scenario
    discounts every replication at its rate. A mixture draws its branch rate
    per replication, and each replication is weighted by its branch rate so
    the estimate targets the same branch-rate-weighted objective as
    mixture_horizon_value.

    A run of two or more replications that draws at least _FORK_ARRIVALS
    (2^20) expected arrivals in all runs the upper half of them in a forked
    child. Its results are byte for byte those of a run in one process,
    which is how smaller runs go, and every run where `os.fork` does not
    exist or other threads run. The child's memory does not count in this
    process's peak RSS.
    """
    scenario = config.scenario
    scenario.require("simulate_discounted", "discounted", "mixture")
    price_arr = np.asarray(check_prices(scenario, prices))
    budget = config.horizon_hours()
    discount = scenario.discount
    # every rate a replication can draw is checked before the first draw; a
    # window cut short by the horizon would drop the discounted tail past it
    for g in map(float, discount.rates if scenario.kind == "mixture" else (discount.rate,)):
        windows = budget / (_DISCOUNT_SPAN / g)
        if not 1.0 <= windows < _MAX_WINDOWS:
            raise ConfigError(f"discount rate {g!r} cuts the {budget!r}-hour horizon into "
                              f"{windows!r} windows of {_DISCOUNT_SPAN!r} inverse rates; a run "
                              f"needs at least one, and fewer than int64 can number")
    rep_values, counts = _split(partial(_discounted_reps, config, price_arr, budget), config)
    return _stats("value", rep_values, counts)


def _discounted_reps(config: SimConfig, price_arr, budget: float, reps: range):
    """The values and counts of the replications `reps` of a discounted run
    of `budget` hours, for `simulate_discounted`."""
    scenario = config.scenario
    cost = scenario.workers[0].cost
    discount = scenario.discount
    mixture = scenario.kind == "mixture"
    rep_values = []
    counts = Counts()
    for rep in reps:
        if mixture:
            aux = _stream(config.base_seed, rep)
            g = float(aux.choice(np.asarray(discount.rates), p=np.asarray(discount.weights)))
        else:
            g = float(discount.rate)
        window = _DISCOUNT_SPAN / g
        n_win = int(budget / window)
        # an arrival at the horizon can fall in window n_win; it is not simulated
        (times, ks, _, ds), n_arr = _offered_events(
            scenario, config.base_seed, rep, n_win * window, price_arr,
            lambda t: bisect_left(t, n_win, key=lambda x: int(x / window)))
        wins = (times / window).astype(np.int64)
        n_fit = int(np.searchsorted(wins, n_win, "left"))
        t, w = times[:n_fit], wins[:n_fit]
        # each end capped at the next window's first arrival, where the worker
        # restarts idle; fmin caps a NaN end there too
        jobs = _loss_accepts(t, np.fmin(t + ds[:n_fit], np.append(t, np.inf)[_run_ends(w)]))
        local = times[jobs] - wins[jobs] * window
        head = libm_map(math.exp, -g * local)
        tail = libm_map(math.exp, -g * (local + ds[jobs]))
        with np.errstate(over="ignore", invalid="ignore"):  # _stats refuses an inf or NaN
            value = _segment_sums((price_arr[ks[jobs]] - cost) * (head - tail) / g,
                                  (0, jobs.size))[0]
        counts += _counts(n_arr, n_fit, jobs.size)
        mean_value = value / n_win
        rep_values.append(g * mean_value if mixture else mean_value)
    return rep_values, counts


def _queue_rep(times, ks, ds, prices, cost: float, warm: float, horizon: float):
    """One replication of the one-waiting-spot queue over arrivals that can
    all afford their price. Returns the earnings over [warm, horizon], the
    number of jobs served and the number lost busy.

    The worker's state is two floats: `end`, when the admitted work is done,
    and `start`, when the last admitted job starts and so frees the waiting
    spot. An arrival at t with duration d is lost if t < start; otherwise it
    starts at t if t >= end, else at end, and end moves to its start plus d.
    The loop reads the arrays' buffers once, as Python floats, and adds each
    job's earnings as it is admitted, in start order, with _earning_terms'
    arithmetic written for floats: these conditionals give np.minimum's and
    np.maximum's results on NaN and on signed-zero ties. A job whose end is
    NaN is not served, nor is any later one, since their ends are NaN too.
    """
    # Python floats, not numpy scalars, which run the loop slower and warn
    cost, warm, horizon = float(cost), float(warm), float(horizon)
    margins = [price - cost for price in prices.tolist()]
    earned = 0.0
    start = end = 0.0
    n_served = 0
    for t, k, d in zip(memoryview(times), memoryview(ks), memoryview(ds)):
        if t < start:
            continue
        start = t if t >= end else end
        end = start + d
        if end > -math.inf:
            busy = (horizon if horizon < end else end) - (warm if warm > start else start)
            earned += margins[k] * (0.0 if busy < 0.0 else busy)
            n_served += 1
    return earned, n_served, times.size - n_served


def _queue_reps(config: SimConfig, price_arr, cost: float, sizes, reps: range):
    """The rates and counts of the replications `reps` of a queue run, for
    `simulate_queue`."""
    horizon, warm, span = sizes
    rep_rates = []
    counts = Counts()
    # a priced-out arrival changes no state, so it is dropped at the draw
    for _, (times, ks, _, ds), n_arr in _replications(config, price_arr, horizon, reps):
        earned, n_acc, _ = _queue_rep(times, ks, ds, price_arr, cost, warm, horizon)
        counts += _counts(n_arr, times.size, n_acc)
        rep_rates.append(earned / span)
    return rep_rates, counts


def simulate_queue(config: SimConfig, price_a: float, price_b: float) -> SimStats:
    """Simulate the two-class system with one waiting spot.

    An arrival finding the worker busy waits only if nobody else is waiting;
    the waiting job starts when the current one ends.

    A run of two or more replications that draws at least _FORK_ARRIVALS
    (2^20) expected arrivals in all runs the upper half of them in a forked
    child. Its results are byte for byte those of a run in one process,
    which is how smaller runs go, and every run where `os.fork` does not
    exist or other threads run. The child's memory does not count in this
    process's peak RSS.
    """
    scenario = config.scenario
    _, _, cost = queue_parts(scenario, "simulate_queue")
    price_arr = np.asarray(check_prices(scenario, (price_a, price_b)))
    sizes = _run_span(config)
    rep_rates, counts = _split(partial(_queue_reps, config, price_arr, cost, sizes), config)
    return _stats("rate", rep_rates, counts)


@dataclass(frozen=True)
class DeviationPoint:
    """One scan point: the candidate price and its simulated gain over baseline."""

    price: float
    mean: float
    se: float
    delta: float
    delta_se: float
    significant_improvement: bool


@dataclass(frozen=True)
class DeviationScanReport:
    worker_index: int
    baseline_price: float
    baseline_mean: float
    baseline_se: float
    z_threshold: float
    points: tuple[DeviationPoint, ...]

    @property
    def any_significant(self) -> bool:
        return any(p.significant_improvement for p in self.points)


@_quiet
def _report_rows(base, trials) -> np.ndarray:
    """A scan report's rows in its order: the baseline's replication rates,
    then each grid price's rates and their gains over the baseline."""
    rows = np.empty((1 + 2 * len(trials), base.size))
    rows[0], rows[1::2], rows[2::2] = base, trials, trials - base
    return rows


def deviation_scan(config: SimConfig, equilibrium_prices, worker_index: int,
                   price_grid=None) -> DeviationScanReport:
    """Re-simulate with one worker's price swept over a grid, everyone else fixed.

    The default grid is 11 evenly spaced prices from 0.8 to 1.2 times the
    worker's equilibrium price, the grid `compete --verify` scans.

    Every scan point reuses the baseline's seed, so candidate and baseline see
    identical arrival, valuation, and duration draws (the per-replication
    streams are drawn independently of prices). Each delta is therefore a
    paired comparison: the per-replication differences of the scanned worker's
    rate, with a one-sample standard error. A point counts as a significant
    improvement when its simultaneous 95% interval sits above zero:
    delta > z * SE with z Bonferroni-adjusted across the grid (a single-point
    grid gives the usual 1.96). A rate, gain or SE that is not finite raises
    NonFiniteRate, since no point could then be tested. Single-class scenarios
    only.

    The scanned worker's streams, one per replication and distinct price,
    stay in order through the batches that serve them, so each replication
    rate is read back by its position.
    """
    scenario = config.scenario
    if scenario.num_classes != 1:
        raise ModelMismatch("deviation_scan supports single-class scenarios")
    if config.replications < 2:
        raise ConfigError("deviation_scan needs at least two replications")
    matrix = _loss_matrix(scenario, equilibrium_prices, "deviation_scan")
    if not 0 <= worker_index < len(scenario.workers):
        raise ConfigError(f"no worker at index {worker_index}")
    base_price = matrix[worker_index][0]
    if price_grid is None:
        price_grid = np.linspace(0.8 * base_price, 1.2 * base_price, 11)
    candidates = [check_prices(scenario, (p,)) for p in price_grid]
    if not candidates:
        raise ConfigError("deviation_scan needs at least one grid price")
    price_grid = [row[0] for row in candidates]
    z = NormalDist().inv_cdf(1.0 - 0.025 / len(price_grid))
    baseline = matrix[worker_index]
    above = scenario.rank_order[:scenario.rank_order.index(worker_index)]
    cost = scenario.workers[worker_index].cost

    # Each replication's events are shared by the baseline and every
    # candidate: the same draws simulate() would make for each of them. The
    # scanned worker's earnings depend only on the arrivals the workers ranked
    # above it leave free, which no candidate price changes, so that prefix of
    # the rank cascade runs once and the workers ranked below it not at all;
    # an arrival none of those workers can afford at any of its prices is
    # dropped at the draw. The cascade runs once per replication, and the
    # scanned worker's streams, one per replication and distinct price, are
    # served in batches, in order.
    # a grid may repeat a price or the baseline: each distinct row runs once
    slots = {row: r for r, row in enumerate(dict.fromkeys((baseline, *candidates)))}
    floors = np.min(np.asarray([*(matrix[i] for i in above), *slots]), axis=0)
    horizon, warm, span = _run_span(config)
    reps = _replications(config, floors, horizon, range(config.replications))

    def streams():
        for _, events, _ in reps:
            times, _, vs, ds = events
            ends = times + ds
            free = _loss_rep(events, ends, matrix, above)[0]
            for (price,) in slots:
                offered = (free & (price <= vs)).nonzero()[0]
                yield times[offered], ends[offered], price

    # the streams come replication-major and their earnings stay in order,
    # so row r of `rates` is the distinct row r's replication rates
    earnings = [earned for batch in _batches(streams())
                for earned in _serve_streams(batch, cost, warm, horizon)]
    rates = np.reshape(earnings, (config.replications, len(slots))).T / span

    # the report's 2k + 1 statistics, from one pass
    means, ses = _finite_mean_se(
        ["baseline rate", *(f"{what} at price {price!r}" for price in price_grid
                            for what in ("rate", "gain"))],
        _report_rows(rates[slots[baseline]], rates[[slots[trial] for trial in candidates]]))
    points = tuple(
        DeviationPoint(price=price, mean=mean, se=se, delta=delta, delta_se=delta_se,
                       significant_improvement=delta > z * delta_se)
        for price, mean, se, delta, delta_se in zip(price_grid, means[1::2], ses[1::2],
                                                    means[2::2], ses[2::2]))
    return DeviationScanReport(
        worker_index=worker_index,
        baseline_price=base_price,
        baseline_mean=means[0],
        baseline_se=ses[0],
        z_threshold=z,
        points=points,
    )
