"""Seeded input generation: a pure function of (workload, seed, round).

Everything returned is plain JSON-compatible data. Scenarios use the
package's JSON config schema, so the same document feeds the in-process
calls, the config files handed to the CLI and the oracles.

Per seed, `scenarios` is fixed and `round_ops` lists one round of
operations; later rounds change only what the workload says they change
(fresh scenarios for solve-batch, fresh simulation seeds for the other
two), never the mix of operation kinds.
"""

from __future__ import annotations

import random

WORKLOADS = ("solve-batch", "simulate-long", "crosscheck-cli")


def _rng(seed: int, *path) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *path)))


def derived_seed(seed: int, *path) -> int:
    """A 31-bit seed for the package, derived from the workload seed."""
    return _rng(seed, "seed", *path).getrandbits(31)


# --- laws ---


def uniform_law(r: random.Random) -> dict:
    low = r.uniform(0.0, 0.5)
    return {"kind": "uniform", "params": {"low": low, "high": low + r.uniform(0.6, 2.0)}}


def exponential_law(r: random.Random) -> dict:
    return {"kind": "exponential", "params": {"rate": r.uniform(1.0, 3.0)}}


def piecewise_law(r: random.Random, regular: bool = True) -> dict:
    """Piecewise-linear CDF. Regular when segment slopes increase (the
    virtual value then jumps up at every knot); `regular=False` makes them
    decrease, so the virtual value drops at the knots."""
    n = r.randint(2, 4)
    widths = [r.uniform(0.3, 1.0) for _ in range(n)]
    slopes = sorted((r.uniform(0.2, 1.0) + 0.3 * i for i in range(n)), reverse=not regular)
    mass = sum(s * w for s, w in zip(slopes, widths))
    value = r.uniform(0.0, 0.4)
    knots = [[value, 0.0]]
    cdf = 0.0
    for s, w in zip(slopes, widths):
        value += w
        cdf += s * w / mass
        knots.append([value, cdf])
    knots[-1][1] = 1.0
    return {"kind": "piecewise_linear_cdf", "params": {"knots": knots}}


class LawPool:
    """Twelve laws (four of each kind) shared by the scenarios drawn from
    them, so the solver's regularity cache is exercised the way a catalogue
    of laws would. Laws are handed out in turn rather than at random, so
    every round has the same mix of kinds and only their parameters vary."""

    def __init__(self, seed: int):
        r = _rng(seed, "laws")
        self.laws = ([uniform_law(r) for _ in range(4)] + [exponential_law(r) for _ in range(4)]
                     + [piecewise_law(r) for _ in range(4)])
        self._turn = 0

    def next(self, bounded: bool = False) -> dict:
        """The next law in turn; `bounded` skips laws with unbounded support."""
        while True:
            law = self.laws[self._turn % len(self.laws)]
            self._turn += 5  # coprime to 12: visits every law, alternating kinds
            if not (bounded and law["kind"] == "exponential"):
                return law


def duration(r: random.Random, exponential_only: bool = False) -> dict:
    kind = "exponential" if exponential_only else r.choice(
        ["exponential", "exponential", "deterministic", "empirical"]
    )
    if kind == "exponential":
        return {"kind": "exponential", "params": {"rate": r.uniform(0.5, 2.0)}}
    if kind == "deterministic":
        return {"kind": "deterministic", "params": {"value": r.uniform(0.5, 2.0)}}
    return {"kind": "empirical", "params": {"samples": [r.uniform(0.2, 2.0) for _ in range(5)]}}


def customer_class(r: random.Random, law: dict, exponential_only: bool = False) -> dict:
    return {
        "arrival_rate": r.uniform(0.3, 1.5),
        "duration": duration(r, exponential_only),
        "valuation": law,
    }


def loss_doc(r: random.Random, laws: LawPool, k: int, exponential_only: bool = False,
             bounded: bool = False) -> dict:
    """Single-worker loss scenario with k classes and a nonzero cost.
    `bounded` keeps to laws with bounded support (for grid scans)."""
    return {
        "classes": [customer_class(r, laws.next(bounded), exponential_only) for _ in range(k)],
        "workers": [{"cost": r.uniform(0.02, 0.15)}],
    }


def fleet_doc(r: random.Random, laws: LawPool, workers: int, k: int = 1,
              ranked: bool = True) -> dict:
    return {
        "classes": [customer_class(r, laws.next(), True) for _ in range(k)],
        "workers": [
            {"cost": r.uniform(0.0, 0.1), "rank": (i + 1) if ranked else 1}
            for i in range(workers)
        ],
    }


def queue_doc(r: random.Random, laws: LawPool) -> dict:
    doc = loss_doc(r, laws, 2, exponential_only=True)
    doc["queue_capacity"] = 1
    return doc


def discounted_doc(r: random.Random, laws: LawPool, k: int) -> dict:
    doc = loss_doc(r, laws, k)
    doc["discount"] = {"kind": "exponential", "params": {"rate": r.uniform(0.2, 2.0)}}
    return doc


def mixture_doc(r: random.Random, laws: LawPool, k: int = 2) -> dict:
    doc = loss_doc(r, laws, k)
    w = r.uniform(0.2, 0.8)
    doc["discount"] = {
        "kind": "mixture",
        "params": {"weights": [w, 1.0 - w], "rates": [r.uniform(0.3, 1.0), r.uniform(1.2, 3.0)]},
    }
    return doc


SINGLE_CLASS = {
    "classes": [{
        "arrival_rate": 1.0,
        "duration": {"kind": "exponential", "params": {"rate": 1.0}},
        "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 1.0}},
    }]
}


# --- solve-batch ---


def _solve_batch_round(seed: int, rnd: int) -> list[dict]:
    laws = LawPool(seed)  # the same catalogue every round: misses come in round 0
    r = _rng(seed, "solve-batch", rnd)
    ops: list[dict] = []
    for k in range(1, 9):
        for _ in range(7):
            ops.append({"kind": "loss_fp", "doc": loss_doc(r, laws, k)})
        ops.append({"kind": "discounted_fp", "doc": discounted_doc(r, laws, k)})
        ops.append({"kind": "discounted_fp", "doc": discounted_doc(r, laws, k)})
    ops.append({"kind": "single_uniform", "doc": SINGLE_CLASS})
    # queue_opt outnumbers the heavier kinds so that p90 falls inside its
    # latency band rather than on the step between two kinds
    for _ in range(12):
        ops.append({"kind": "queue_opt", "doc": queue_doc(r, laws)})
    for _ in range(4):
        ops.append({"kind": "mixture_opt", "doc": mixture_doc(r, laws)})
    for _ in range(6):
        ops.append({
            "kind": "hybrid",
            "on_demand": customer_class(r, laws.next(), True),
            "patient": dict(customer_class(r, laws.next(), True),
                            arrival_rate=r.uniform(0.05, 0.6)),
            "cost": r.uniform(0.0, 0.1),
        })
    for workers in (2, 2, 3, 3):
        ops.append({"kind": "ranked_eq", "doc": fleet_doc(r, laws, workers)})
    for k, step in ((1, 1e-3), (1, 1e-3), (2, 4e-3), (2, 4e-3), (3, 0.025), (3, 0.025)):
        ops.append({"kind": "grid_check", "doc": loss_doc(r, laws, k, bounded=True),
                    "step": step})
    bad = loss_doc(r, laws, 1)
    bad["classes"][0]["valuation"] = piecewise_law(r, regular=False)
    ops.append({"kind": "expect_irregular", "doc": bad})
    return ops


# --- simulate-long ---

# ten replications, so that the gate's t-test on the replication SE has
# nine degrees of freedom
SIM_ARRIVALS = 6_000
SIM_REPLICATIONS = 10


# Each round simulates 8 loss systems, 3 fleets, 2 discounted, 1 mixture and
# 2 queue scenarios, taken in turn from pools fixed per seed. Per-op cost
# depends on the scenario (acceptance rate, classes), so a run samples many
# scenarios; loss systems are half the ops, so the median op is one of them.
SIM_POOLS = {"loss": (64, 8), "fleet": (12, 3), "disc": (8, 2), "mixture": (2, 1),
             "queue": (8, 2)}
SIM_KINDS = {"loss": "sim_loss", "fleet": "sim_fleet", "disc": "sim_discounted",
             "mixture": "sim_discounted", "queue": "sim_queue"}


def _simulate_long_scenarios(seed: int) -> dict[str, dict]:
    laws = LawPool(seed)
    r = _rng(seed, "simulate-long")
    make = {
        "loss": lambda i: loss_doc(r, laws, 1 + i % 4),
        "fleet": lambda i: fleet_doc(r, laws, 2 + i % 2),
        "disc": lambda i: discounted_doc(r, laws, 1 + i % 2),
        "mixture": lambda i: mixture_doc(r, laws),
        "queue": lambda i: queue_doc(r, laws),
    }
    return {f"{pool}{i}": make[pool](i)
            for pool, (size, _) in SIM_POOLS.items() for i in range(size)}


def _simulate_long_round(seed: int, rnd: int) -> list[dict]:
    names = [f"{pool}{(rnd * per_round + j) % size}"
             for pool, (size, per_round) in SIM_POOLS.items() for j in range(per_round)]
    return [
        {"kind": SIM_KINDS[name.rstrip("0123456789")], "scenario": name,
         "base_seed": derived_seed(seed, rnd, i)}
        for i, name in enumerate(names)
    ]


# --- crosscheck-cli ---

BUNDLED = ("single_class", "two_class", "discounted", "mixture", "queue",
           "compete_ranked", "undifferentiated")
SCAN_ARRIVALS = 2_000
SCAN_REPLICATIONS = 4
SCAN_STEPS = (0.9, 0.95, 1.0, 1.05, 1.1)


def _crosscheck_scenarios(seed: int) -> dict[str, dict]:
    laws = LawPool(seed)
    r = _rng(seed, "crosscheck-cli")
    out = {f"g_loss{k}": loss_doc(r, laws, k, exponential_only=True) for k in range(1, 4)}
    out["g_disc"] = discounted_doc(r, laws, 2)
    out["g_mix"] = mixture_doc(r, laws)
    out["g_queue"] = queue_doc(r, laws)
    out["g_fleet2"] = fleet_doc(r, laws, 2)
    out["g_fleet3"] = fleet_doc(r, laws, 3)
    out["g_undiff"] = fleet_doc(r, laws, 2, ranked=False)
    irregular = loss_doc(r, laws, 1)
    irregular["classes"][0]["valuation"] = piecewise_law(r, regular=False)
    out["g_irregular"] = irregular
    zero = queue_doc(r, laws)
    for cls in zero["classes"]:
        cls["arrival_rate"] = 0.0
    out["g_zero_queue"] = zero
    return out


def _cli(argv: list, expect: int = 0, check: str | None = None) -> dict:
    return {"kind": "cli", "argv": argv, "expect": expect, "check": check}


def _crosscheck_round(seed: int, rnd: int) -> list[dict]:
    s = lambda i: str(derived_seed(seed, rnd, i))  # noqa: E731
    ops = []
    for name in ("single_class", "two_class", "discounted", "mixture", "queue",
                 "g_loss1", "g_loss2", "g_loss3", "g_disc", "g_mix", "g_queue"):
        ops.append(_cli(["solve", "--config", name]))
    for name, param, grid in (
        ("two_class", "rho", "0.5:2:5"), ("g_loss2", "rho", "0.5:2:5"),
        ("single_class", "beta", "0.6:1:5"), ("g_loss1", "beta", "0.6:1:5"),
        ("discounted", "gamma", "0.5:2:4"), ("g_disc", "gamma", "0.5:2:4"),
        ("two_class", "reserve", "0:1:6"), ("g_loss3", "reserve", "0:1:6"),
        ("queue", "r", "0.5,1,2"), ("g_queue", "r", "0.5,1,2"),
        ("g_loss1", "rho", "0.25:4:9"), ("g_loss3", "beta", "0.5:1:6"),
    ):
        ops.append(_cli(["sweep", "--config", name, "--param", param, "--grid", grid]))
    # validation of the bundled loss configs (about 240k simulated arrivals
    # each, whatever the seed) is numerous enough that p90 falls inside its
    # latency band
    loss_configs = ("single_class", "two_class") * 7
    others = ("discounted", "mixture", "queue", "compete_ranked", "g_disc", "g_queue", "g_fleet2")
    for i, name in enumerate(loss_configs + others):
        ops.append(_cli(["validate", "--config", name, "--seed", s(i)]))
    ops.append(_cli(["simulate", "--config", "queue", "--seed", s(50)]))
    ops.append(_cli(["simulate", "--config", "g_loss1", "--seed", s(51), "--trace"]))
    ops.append(_cli(["compete", "--config", "undifferentiated", "--dynamics"], check="cycle"))
    ops.append(_cli(["compete", "--config", "compete_ranked", "--dynamics"], check="settle"))
    ops.append(_cli(["compete", "--config", "g_fleet2", "--dynamics"]))
    ops.append(_cli(["compete", "--config", "g_fleet2"]))
    ops.append(_cli(["compete", "--config", "g_fleet3"]))
    # about 15 s (2-core x86-64, no numba), 40% of the round: a round (the
    # least a run does) then takes about 40 s however short --seconds is
    ops.append(_cli(["compete", "--config", "compete_ranked", "--verify", "--seed", s(52)]))
    # expected errors, with the exit code the CLI's contract gives them
    ops.append(_cli(["solve", "--config", "g_irregular"], expect=3))
    ops.append(_cli(["compete", "--config", "g_undiff"], expect=4))
    ops.append(_cli(["sweep", "--config", "two_class", "--param", "rho", "--grid", "x,y"],
                    expect=2))
    ops.append(_cli(["simulate", "--config", "two_class", "--prices", "0.5,abc"], expect=2))
    ops.append(_cli(["validate", "--config", "g_zero_queue"], expect=2))
    # scans of the bundled ranked fleet: the seed draws their events, and the
    # scan cost does not depend on which generated fleet a seed happens to get
    for i in range(64):
        ops.append({
            "kind": "deviation_scan",
            "scenario": "compete_ranked",
            "worker_index": i % 2,
            "base_seed": derived_seed(seed, rnd, 100 + i),
        })
    return ops


def scenarios(workload: str, seed: int) -> dict[str, dict]:
    """Named scenario documents fixed for the whole run of a seed."""
    if workload == "simulate-long":
        return _simulate_long_scenarios(seed)
    if workload == "crosscheck-cli":
        return _crosscheck_scenarios(seed)
    return {}


_BUILDERS = {"solve-batch": _solve_batch_round, "simulate-long": _simulate_long_round,
             "crosscheck-cli": _crosscheck_round}


def round_ops(workload: str, seed: int, rnd: int) -> list[dict]:
    """The operations of one round, in a seeded random order: each kind is
    spread over the round rather than run as a block, so a passing slow
    spell of the machine does not land on one kind's latencies."""
    ops = _BUILDERS[workload](seed, rnd)
    _rng(seed, workload, "order", rnd).shuffle(ops)
    return ops


def warmup_op(workload: str, seed: int) -> dict:
    """A light op of round 0: the set-up's warm-up call, and the op re-run
    at the end of a run to check it reproduces its output bit for bit."""
    return _BUILDERS[workload](seed, 0)[0]
