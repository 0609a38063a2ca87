"""Operation runners: time one call into the package, then check its output.

Each runner times only the package call; building inputs beforehand and the
checks afterwards are outside the timed interval. A runner returns an
`Outcome` that separates three things:

- `failed`: the op did not produce the outcome its input calls for (an
  exception, or a CLI exit code other than the expected one);
- `wrong`: the op produced an output that an oracle check rejects;
- `gate_misses`: statistical gates missed: the benchmark's t-tests of a
  simulated mean against its analytic value (false-alarm rate GATE_ALPHA)
  and the package's own significance flags (validate checks, deviation
  scans). These are expected at a known rate and are counted, not treated
  as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracles as O

FP_TOL = 1e-8       # fixed-point consistency |map(R) - R|
RATE_TOL = 1e-9     # package value against the oracle at the same prices
SEARCH_TOL = 1e-6   # the package's searches locate prices to 1e-6, so a
                    # maximum on a box edge can be short by slope * 1e-6
QUEUE_TOL = 1e-9    # queue_rate against first_step_solve
GATE_ALPHA = 0.0027  # the two-sided rate of a 3-SE gate on a known SE
DETERMINISTIC_CHECKS = {"fixed_point_consistency", "queue_closed_form_vs_renewal_equations"}


@dataclass
class Outcome:
    latency_s: float = 0.0
    digest: object = None
    failed: str | None = None
    wrong: str | None = None
    gate_misses: int = 0
    events: int = 0
    exit_code: object = None
    output_bytes: int = 0


def _timed(fn):
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return None, time.perf_counter() - start, exc
    return result, time.perf_counter() - start, None


def _close(a: float, b: float, tol: float = RATE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _gate(mean: float, se: float, analytic: float, reps: int) -> int:
    """1 when the simulated mean misses the analytic value: a two-sided
    Student-t test on reps - 1 degrees of freedom (the SE is estimated from
    the replications) with false-alarm rate GATE_ALPHA."""
    return int(not abs(mean - analytic) <= O.t_quantile(GATE_ALPHA, reps - 1) * se)


# --- building package objects from documents (model layer only) ---


def build(P, doc: dict):
    m = P.model

    def law(d):
        par = d["params"]
        if d["kind"] == "uniform":
            return m.UniformValuation(par["low"], par["high"])
        if d["kind"] == "exponential":
            return m.ExponentialValuation(par["rate"])
        return m.PiecewiseLinearValuation(tuple(tuple(k) for k in par["knots"]))

    def dur(d):
        par = d["params"]
        if d["kind"] == "exponential":
            return m.ExponentialDuration(par["rate"])
        if d["kind"] == "deterministic":
            return m.DeterministicDuration(par["value"])
        return m.EmpiricalDuration(tuple(par["samples"]))

    def cls(c):
        return m.CustomerClass(c["arrival_rate"], dur(c["duration"]), law(c["valuation"]))

    workers = tuple(
        m.WorkerSpec(cost=w.get("cost", 0.0), rank=w.get("rank", i + 1))
        for i, w in enumerate(doc.get("workers", [{}]))
    )
    discount = None
    if "discount" in doc:
        par = doc["discount"]["params"]
        discount = (m.ExponentialDiscount(par["rate"]) if doc["discount"]["kind"] == "exponential"
                    else m.MixtureDiscount(tuple(par["weights"]), tuple(par["rates"])))
    return m.Scenario(tuple(cls(c) for c in doc["classes"]), workers, discount,
                      doc.get("queue_capacity", 0))


def _cost(doc: dict, index: int = 0) -> float:
    return doc.get("workers", [{}])[index].get("cost", 0.0)


def _solo(doc: dict, index: int) -> dict:
    return {"classes": doc["classes"], "workers": [{"cost": _cost(doc, index)}]}


# --- output checks shared by in-process and CLI ops ---


def check_loss(doc: dict, prices, rate: float) -> str | None:
    if not _close(O.loss_rate(doc, prices), rate):
        return f"rate {rate!r} != oracle {O.loss_rate(doc, prices)!r}"
    floor = _cost(doc) + rate
    for i, (c, p) in enumerate(zip(doc["classes"], prices)):
        if not O.is_best_response(c["valuation"], p, floor):
            return f"class {i} price {p!r} is not a best response at {floor!r}"
    return None


def check_discounted(doc: dict, prices, rate: float, value: float) -> str | None:
    gamma = doc["discount"]["params"]["rate"]
    if not _close(O.discounted_value(doc, prices, gamma), value):
        return f"value {value!r} != oracle {O.discounted_value(doc, prices, gamma)!r}"
    floor = _cost(doc) + rate
    for i, (c, p) in enumerate(zip(doc["classes"], prices)):
        if not O.is_best_response(c["valuation"], p, floor):
            return f"class {i} price {p!r} is not a best response at {floor!r}"
    return None


def _box(doc: dict):
    return [O.support(c["valuation"]) for c in doc["classes"]]


def check_local_max(objective, prices, value: float, box) -> str | None:
    """No axis step of 1e-3 of the box width improves on `value` by more
    than the search tolerance."""
    if not _close(objective(prices), value):
        return f"value {value!r} != oracle {objective(prices)!r}"
    for i, (lo, hi) in enumerate(box):
        for sign in (-1.0, 1.0):
            trial = list(prices)
            trial[i] = min(max(trial[i] + sign * 1e-3 * (hi - lo), lo), hi)
            if objective(trial) > value + SEARCH_TOL * max(1.0, abs(value)):
                return f"axis {i} step {sign:+} improves on {value!r}"
    return None


def check_queue(P, doc: dict, prices, rate: float) -> str | None:
    scenario = build(P, doc)
    closed = P.queues.queue_rate(scenario, *prices)
    renewal = P.queues.first_step_solve(scenario, *prices).rate
    if abs(closed - renewal) > QUEUE_TOL:
        return f"queue_rate {closed!r} vs first_step_solve {renewal!r}"
    return check_local_max(lambda p: O.queue_rate(doc, p), prices, rate, _box(doc))


def check_mixture(doc: dict, prices, value: float) -> str | None:
    return check_local_max(lambda p: O.mixture_value(doc, p), prices, value, _box(doc))


def check_ranked(doc: dict, outcomes) -> str | None:
    """outcomes: (worker index, prices, rate, busy) best rank first."""
    levels = [[] for _ in doc["classes"]]
    for level, (w, prices, rate, busy) in enumerate(outcomes):
        cost = _cost(doc, w)
        own_rate, own_busy = O.residual_rate(doc, levels, prices, cost)
        if not (_close(own_rate, rate) and _close(own_busy, busy)):
            return f"worker {w}: ({rate!r}, {busy!r}) != oracle ({own_rate!r}, {own_busy!r})"
        if level == 0:
            problem = check_loss(_solo(doc, w), prices, rate)
            if problem:
                return f"best-ranked worker: {problem}"
        else:
            for i, c in enumerate(doc["classes"]):
                lo, hi = O.support(c["valuation"])
                for j in range(201):
                    trial = list(prices)
                    trial[i] = lo + (hi - lo) * j / 200
                    better, _ = O.residual_rate(doc, levels, trial, cost)
                    if better > rate + SEARCH_TOL * max(1.0, rate):
                        return f"worker {w}: price {trial[i]!r} beats rate {rate!r}"
        levels = [lv + [(p, busy)] for lv, p in zip(levels, prices)]
    return None


def check_stats(stats, reps: int, arrivals_hint: float) -> str | None:
    c = stats.counts
    if c.accepted + c.lost_busy + c.lost_price != c.arrivals:
        return f"counts do not add up: {c}"
    if len(stats.rep_values) != reps or stats.replications != reps:
        return f"expected {reps} replications, got {len(stats.rep_values)}"
    if not _close(stats.mean, math.fsum(stats.rep_values) / reps, 1e-12):
        return "mean is not the mean of rep_values"
    if not 0.3 * arrivals_hint <= c.arrivals <= 1.1 * arrivals_hint + 100:
        return f"{c.arrivals} arrivals, expected about {arrivals_hint:.0f}"
    return None


# --- context ---


class Context:
    """What a workload's ops share: the package, the seed's scenarios and
    everything prepared from them during set-up."""

    def __init__(self, P, workload: str, seed: int, root: Path, workdir: Path):
        self.P = P
        self.workload = workload
        self.root = root
        self.workdir = workdir
        self.docs = inputs.scenarios(workload, seed)
        self.state: dict[str, dict] = {}

    def prepare(self) -> None:
        """Input generation that needs the package: config files, solved prices."""
        if self.workload == "simulate-long":
            for name, doc in self.docs.items():
                self.state[name] = _prepare_sim(self.P, name, doc)
        elif self.workload == "crosscheck-cli":
            configs = self.workdir / "configs"
            configs.mkdir(parents=True, exist_ok=True)
            for name, doc in self.docs.items():
                (configs / f"{name}.json").write_text(json.dumps(doc))
            for name in inputs.BUNDLED:
                path = self.root / "configs" / f"{name}.json"
                self.docs[name] = json.loads(path.read_text())
            scenario = self.P.config.load_scenario(self.config_path("compete_ranked"))
            eq = self.P.competition.ranked_price_equilibrium(scenario)
            prices = [list(eq.by_rank(w.rank).prices) for w in scenario.workers]
            self.state["compete_ranked"] = {"scenario": scenario, "prices": prices}

    def config_path(self, name: str) -> str:
        if name in inputs.BUNDLED:
            return str(self.root / "configs" / f"{name}.json")
        return str(self.workdir / "configs" / f"{name}.json")

    def run(self, spec: dict) -> Outcome:
        return RUNNERS[spec["kind"]](self, spec)


def _prepare_sim(P, name: str, doc: dict) -> dict:
    scenario = build(P, doc)
    if name.startswith("loss"):
        prices = list(P.solver.solve_fixed_point(scenario).prices)
        return {"scenario": scenario, "prices": prices, "analytic": O.loss_rate(doc, prices)}
    if name.startswith("fleet"):
        # every worker posts its lone-worker optimum: the best-ranked worker's
        # equilibrium price, and cheap to solve for a large pool of fleets
        solos = [_solo(doc, i) for i in range(len(doc["workers"]))]
        prices = [list(P.solver.solve_fixed_point(build(P, solo)).prices) for solo in solos]
        best = min(range(len(solos)), key=lambda i: doc["workers"][i]["rank"])
        return {"scenario": scenario, "prices": prices, "best": best,
                "analytic": O.loss_rate(solos[best], prices[best])}
    if name.startswith("queue"):
        prices, _ = P.queues.queue_optimize(scenario)
        return {"scenario": scenario, "prices": list(prices),
                "analytic": O.queue_rate(doc, prices)}
    if doc["discount"]["kind"] == "mixture":
        prices, _ = P.queues.mixture_horizon_optimize(scenario)
        return {"scenario": scenario, "prices": list(prices),
                "analytic": O.mixture_value(doc, prices)}
    prices = list(P.solver.solve_discounted(scenario).prices)
    gamma = doc["discount"]["params"]["rate"]
    return {"scenario": scenario, "prices": prices,
            "analytic": O.discounted_value(doc, prices, gamma)}


# --- solve-batch runners ---


def _failed(latency: float, exc: Exception) -> Outcome:
    return Outcome(latency, failed=f"{type(exc).__name__}: {exc}", digest=type(exc).__name__)


def run_loss_fp(ctx: Context, spec: dict) -> Outcome:
    P, doc = ctx.P, spec["doc"]
    scenario = build(P, doc)
    sol, lat, exc = _timed(lambda: P.solver.solve_fixed_point(scenario))
    if exc:
        return _failed(lat, exc)
    wrong = None
    achieved, _ = P.solver.rate_map(scenario, sol.rate)
    if not (sol.converged and abs(achieved - sol.rate) <= FP_TOL):
        wrong = f"fixed point: map({sol.rate!r}) = {achieved!r}"
    wrong = wrong or check_loss(doc, sol.prices, sol.rate)
    return Outcome(lat, digest=(sol.prices, sol.rate, sol.iterations), wrong=wrong)


def run_single_uniform(ctx: Context, spec: dict) -> Outcome:
    out = run_loss_fp(ctx, spec)
    if out.failed is None and out.wrong is None:
        price = out.digest[0][0]
        if abs(price - (2.0 - math.sqrt(2.0))) > 1e-9:
            out.wrong = f"single-class uniform price {price!r} != 2 - sqrt(2)"
    return out


def run_discounted_fp(ctx: Context, spec: dict) -> Outcome:
    P, doc = ctx.P, spec["doc"]
    scenario = build(P, doc)
    sol, lat, exc = _timed(lambda: P.solver.solve_discounted(scenario))
    if exc:
        return _failed(lat, exc)
    gamma = doc["discount"]["params"]["rate"]
    wrong = None if _close(sol.value * gamma, sol.rate) else "value != rate / gamma"
    wrong = wrong or check_discounted(doc, sol.prices, sol.rate, sol.value)
    return Outcome(lat, digest=(sol.prices, sol.rate, sol.value), wrong=wrong)


def run_queue_opt(ctx: Context, spec: dict) -> Outcome:
    P, doc = ctx.P, spec["doc"]
    scenario = build(P, doc)
    res, lat, exc = _timed(lambda: P.queues.queue_optimize(scenario))
    if exc:
        return _failed(lat, exc)
    prices, rate = res
    return Outcome(lat, digest=res, wrong=check_queue(P, doc, prices, rate))


def run_mixture_opt(ctx: Context, spec: dict) -> Outcome:
    P, doc = ctx.P, spec["doc"]
    scenario = build(P, doc)
    res, lat, exc = _timed(lambda: P.queues.mixture_horizon_optimize(scenario))
    if exc:
        return _failed(lat, exc)
    prices, value = res
    return Outcome(lat, digest=res, wrong=check_mixture(doc, prices, value))


def run_hybrid(ctx: Context, spec: dict) -> Outcome:
    P = ctx.P
    doc = {"classes": [spec["on_demand"], spec["patient"]], "workers": [{}]}
    scenario = build(P, doc)
    on_demand, patient = scenario.classes
    sol, lat, exc = _timed(lambda: P.queues.hybrid_solve(on_demand, patient, spec["cost"]))
    if exc:
        return _failed(lat, exc)
    od, pt = spec["on_demand"], spec["patient"]
    single = {"classes": [od], "workers": [{"cost": spec["cost"]}]}
    price = sol.on_demand_price
    wrong = check_loss(single, [price], O.loss_rate(single, [price]))
    idle = 1.0 / (1.0 + od["arrival_rate"] * O.mean_duration(od["duration"])
                  * O.tail(od["valuation"], price))
    feasible = pt["arrival_rate"] < idle * pt["duration"]["params"]["rate"]
    if not _close(idle, sol.idle_fraction, 1e-12) or feasible != sol.feasible:
        wrong = wrong or f"idle {sol.idle_fraction!r} / feasible {sol.feasible} != oracle"
    if feasible and not O.is_best_response(pt["valuation"], sol.patient_price, spec["cost"]):
        wrong = wrong or f"patient price {sol.patient_price!r} is not the monopoly price"
    if not feasible and sol.patient_price is not None:
        wrong = wrong or "infeasible patient stream got a price"
    return Outcome(lat, digest=(price, sol.idle_fraction, sol.patient_price), wrong=wrong)


def run_ranked_eq(ctx: Context, spec: dict) -> Outcome:
    P, doc = ctx.P, spec["doc"]
    scenario = build(P, doc)
    eq, lat, exc = _timed(lambda: P.competition.ranked_price_equilibrium(scenario))
    if exc:
        return _failed(lat, exc)
    index = {w.get("rank"): i for i, w in enumerate(doc["workers"])}
    outcomes = [(index[o.rank], o.prices, o.rate, o.busy_fraction) for o in eq.outcomes]
    return Outcome(lat, digest=tuple(outcomes), wrong=check_ranked(doc, outcomes))


def run_grid_check(ctx: Context, spec: dict) -> Outcome:
    """grid_search_optimum against the solver: the grid optimum can beat
    neither the solver's rate nor lose to the solver's prices rounded onto
    the grid, which the grid contains."""
    P, doc, step = ctx.P, spec["doc"], spec["step"]
    scenario = build(P, doc)
    res, lat, exc = _timed(lambda: P.solver.grid_search_optimum(scenario, step))
    if exc:
        return _failed(lat, exc)
    grid_prices, grid_rate = res
    sol = P.solver.solve_fixed_point(scenario)
    rounded = [
        min(round(p / step), math.floor((O.support(c["valuation"])[1] + step / 2) / step)) * step
        for p, c in zip(sol.prices, doc["classes"])
    ]
    wrong = None
    if grid_rate > sol.rate + 1e-9:
        wrong = f"grid rate {grid_rate!r} beats the solver's {sol.rate!r}"
    elif grid_rate < O.loss_rate(doc, rounded) - 1e-10:
        wrong = f"grid rate {grid_rate!r} below the rounded solver prices' rate"
    elif not _close(O.loss_rate(doc, grid_prices), grid_rate):
        wrong = "grid rate does not match its prices"
    return Outcome(lat, digest=res, wrong=wrong)


def run_expect_irregular(ctx: Context, spec: dict) -> Outcome:
    P = ctx.P
    scenario = build(P, spec["doc"])
    _, lat, exc = _timed(lambda: P.solver.solve_fixed_point(scenario))
    if isinstance(exc, P.errors.IrregularDistribution):
        return Outcome(lat, digest="IrregularDistribution")
    got = type(exc).__name__ if exc else "a solution"
    return Outcome(lat, digest=got, failed=f"expected IrregularDistribution, got {got}")


# --- simulate-long runners ---


def _sim_config(ctx: Context, state: dict, spec: dict, arrivals: float, reps: int):
    return ctx.P.simulate.SimConfig(scenario=state["scenario"], expected_arrivals=arrivals,
                                    replications=reps, base_seed=spec["base_seed"])


def _run_sim(ctx: Context, spec: dict, call) -> Outcome:
    state = ctx.state[spec["scenario"]]
    cfg = _sim_config(ctx, state, spec, inputs.SIM_ARRIVALS, inputs.SIM_REPLICATIONS)
    stats, lat, exc = _timed(lambda: call(cfg, state))
    if exc:
        return _failed(lat, exc)
    wrong = check_stats(stats, inputs.SIM_REPLICATIONS,
                        inputs.SIM_ARRIVALS * inputs.SIM_REPLICATIONS)
    if "best" in state:
        mean, se = stats.worker_mean_se(state["best"])
    else:
        mean, se = stats.mean, stats.se
    return Outcome(lat, digest=(state["prices"], stats.rep_values, stats.counts), wrong=wrong,
                   gate_misses=_gate(mean, se, state["analytic"], stats.replications),
                   events=stats.counts.arrivals)


def run_sim_loss(ctx: Context, spec: dict) -> Outcome:
    return _run_sim(ctx, spec, lambda cfg, s: ctx.P.simulate.simulate(cfg, s["prices"]))


def run_sim_discounted(ctx: Context, spec: dict) -> Outcome:
    return _run_sim(ctx, spec,
                    lambda cfg, s: ctx.P.simulate.simulate_discounted(cfg, s["prices"]))


def run_sim_queue(ctx: Context, spec: dict) -> Outcome:
    return _run_sim(ctx, spec,
                    lambda cfg, s: ctx.P.simulate.simulate_queue(cfg, *s["prices"]))


# --- crosscheck-cli runners ---


def run_deviation_scan(ctx: Context, spec: dict) -> Outcome:
    """Common random numbers make the grid point at the baseline price
    reproduce the baseline exactly, which is checked bit for bit."""
    P = ctx.P
    state = ctx.state[spec["scenario"]]
    prices, worker = state["prices"], spec["worker_index"]
    base = prices[worker][0]
    grid = [base * f for f in inputs.SCAN_STEPS]
    cfg = _sim_config(ctx, state, spec, inputs.SCAN_ARRIVALS, inputs.SCAN_REPLICATIONS)
    report, lat, exc = _timed(lambda: P.simulate.deviation_scan(cfg, prices, worker, grid))
    if exc:
        return _failed(lat, exc)
    at_base = report.points[inputs.SCAN_STEPS.index(1.0)]
    wrong = None
    if len(report.points) != len(grid) or report.baseline_price != base:
        wrong = "scan grid or baseline price changed"
    elif at_base.delta != 0.0 or at_base.mean != report.baseline_mean:
        wrong = f"baseline price re-simulated to delta {at_base.delta!r}"
    digest = (report.baseline_mean, [(p.price, p.mean, p.delta) for p in report.points])
    return Outcome(lat, digest=digest, wrong=wrong, gate_misses=int(report.any_significant))


def _read_outputs(outdir: Path) -> tuple[dict, int]:
    """Parsed outputs (JSON parsed, CSV as text; manifest and event log
    skipped) and the total bytes written."""
    parsed, size = {}, 0
    for path in sorted(outdir.iterdir()):
        size += path.stat().st_size
        if path.name in ("manifest.json", "events.csv"):
            continue
        text = path.read_text()
        parsed[path.name] = json.loads(text) if path.suffix == ".json" else text
    return parsed, size


def _check_cli(ctx: Context, spec: dict, files: dict) -> tuple[str | None, int, int]:
    """(wrong, gate misses, simulated arrivals) for a CLI run that exited 0 or 1."""
    command = spec["argv"][0]
    name = spec["argv"][spec["argv"].index("--config") + 1]
    doc = ctx.docs[name]
    if command == "solve":
        return _check_solution(ctx, name, doc, files["solution.json"]), 0, 0
    if command == "sweep":
        return _check_sweep(spec, doc, files), 0, 0
    if command == "simulate":
        payload = files["stats.json"]
        counts = payload["stats"]["counts"]
        if counts["accepted"] + counts["lost_busy"] + counts["lost_price"] != counts["arrivals"]:
            return f"counts do not add up: {counts}", 0, counts["arrivals"]
        prices = payload["prices"]
        analytic = (O.queue_rate(doc, prices) if doc.get("queue_capacity")
                    else O.loss_rate(doc, prices))
        stats = payload["stats"]
        miss = _gate(stats["mean"], stats["se"], analytic, stats["replications"])
        return None, miss, counts["arrivals"]
    if command == "validate":
        checks = files["validate.json"]
        hard = [c for c in checks if c["name"] in DETERMINISTIC_CHECKS and not c["passed"]]
        if not checks or hard:
            return f"validate: {hard or 'no checks'}", 0, 0
        return None, sum(not c["passed"] for c in checks), 0
    if "--dynamics" in spec["argv"]:
        dyn = files["dynamics.json"]
        expected = {"cycle": dyn["cycle_length"] is not None,
                    "settle": dyn["fixed_profile"] is not None}.get(spec["check"], True)
        if not dyn["trajectory"] or not expected:
            return f"dynamics did not {spec['check']}: {dyn['rounds_run']} rounds", 0, 0
        return None, 0, 0
    eq = files["equilibrium.json"]
    index = {w.get("rank"): i for i, w in enumerate(doc["workers"])}
    outcomes = [(index[w["rank"]], w["prices"], w["rate"], w["busy_fraction"])
                for w in eq["workers"]]
    wrong = check_ranked(doc, outcomes)
    scans = eq.get("deviation_scans", [])
    if "--verify" in spec["argv"] and len(scans) != len(doc["workers"]):
        wrong = wrong or "missing deviation scans"
    return wrong, sum(s["any_significant"] for s in scans), 0


def _check_solution(ctx: Context, name: str, doc: dict, sol: dict) -> str | None:
    prices = sol["prices"]
    if sol["model"] == "loss":
        problem = check_loss(doc, prices, sol["rate"])
        if not problem and name == "single_class" and abs(prices[0] - (2 - math.sqrt(2))) > 1e-9:
            problem = f"single-class uniform price {prices[0]!r} != 2 - sqrt(2)"
        return problem
    if sol["model"] == "discounted":
        return check_discounted(doc, prices, sol["rate"], sol["value"])
    if sol["model"] == "queue":
        return check_queue(ctx.P, doc, prices, sol["rate"])
    return check_mixture(doc, prices, sol["value"])


def _scaled_law(law: dict, beta: float) -> dict:
    par = law["params"]
    if law["kind"] == "uniform":
        return {"kind": "uniform", "params": {"low": beta * par["low"], "high": beta * par["high"]}}
    if law["kind"] == "exponential":
        return {"kind": "exponential", "params": {"rate": par["rate"] / beta}}
    return {"kind": law["kind"],
            "params": {"knots": [[beta * v, f] for v, f in par["knots"]]}}


def _check_sweep(spec: dict, doc: dict, files: dict) -> str | None:
    param = spec["argv"][spec["argv"].index("--param") + 1]
    lines = files[f"sweep_{param}.csv"].strip().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    grid = spec["argv"][spec["argv"].index("--grid") + 1]
    expected = len(grid.split(",")) if "," in grid else int(grid.split(":")[2])
    if len(rows) != expected:
        return f"{len(rows)} sweep rows, expected {expected}"
    k = len(doc["classes"])
    for row in rows:
        x, prices = row[0], row[1:1 + k]
        if param == "rho":
            variant = dict(doc, classes=[dict(c, arrival_rate=c["arrival_rate"] * x)
                                         for c in doc["classes"]])
            problem = check_loss(variant, prices, row[1 + k])
        elif param == "beta":
            variant = dict(doc, classes=[dict(c, valuation=_scaled_law(c["valuation"], x))
                                         for c in doc["classes"]])
            problem = check_loss(variant, prices, row[1 + k])
        elif param == "gamma":
            variant = dict(doc, discount={"kind": "exponential", "params": {"rate": x}})
            problem = check_discounted(variant, prices, row[1 + k], row[2 + k])
        elif param == "r":
            b = dict(doc["classes"][1], arrival_rate=x,
                     duration={"kind": "exponential", "params": {"rate": x}})
            variant = dict(doc, classes=[doc["classes"][0], b])
            problem = None if _close(O.queue_rate(variant, row[1:3]), row[3]) else \
                f"r = {x}: rate {row[3]!r} != oracle {O.queue_rate(variant, row[1:3])!r}"
        else:
            problem = None if math.isfinite(row[1]) else f"reserve {x}: rate {row[1]!r}"
        if problem:
            return f"{param} = {x}: {problem}"
    return None


def run_cli(ctx: Context, spec: dict) -> Outcome:
    argv = list(spec["argv"])
    i = argv.index("--config") + 1
    argv[i] = ctx.config_path(argv[i])
    outdir = ctx.workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    argv += ["--out", str(outdir)]
    sink = io.StringIO()

    def call():
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return ctx.P.cli.main(argv)
            except SystemExit as exc:  # argparse rejects usage this way
                return exc.code

    code, lat, exc = _timed(call)
    if exc is not None:
        code = "traceback"
    files, size = _read_outputs(outdir)
    out = Outcome(lat, exit_code=code, output_bytes=size)
    out.digest = (argv[0], code, sorted(files.items()) if code in (0, 1) else None)
    expect = spec["expect"]
    if code == 1 and argv[0] == "validate" and expect == 0:
        pass  # a statistical validation gate missed; counted below
    elif code != expect:
        detail = f"{type(exc).__name__}: {exc}" if exc else sink.getvalue().strip()[-200:]
        out.failed = f"exit {code}, expected {expect} ({detail})"
        return out
    if code in (0, 1):
        out.wrong, out.gate_misses, out.events = _check_cli(ctx, spec, files)
    return out


RUNNERS = {
    "loss_fp": run_loss_fp,
    "single_uniform": run_single_uniform,
    "discounted_fp": run_discounted_fp,
    "queue_opt": run_queue_opt,
    "mixture_opt": run_mixture_opt,
    "hybrid": run_hybrid,
    "ranked_eq": run_ranked_eq,
    "grid_check": run_grid_check,
    "expect_irregular": run_expect_irregular,
    "sim_loss": run_sim_loss,
    "sim_fleet": run_sim_loss,
    "sim_discounted": run_sim_discounted,
    "sim_queue": run_sim_queue,
    "deviation_scan": run_deviation_scan,
    "cli": run_cli,
}
