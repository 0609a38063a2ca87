"""Command-line surface: solve, sweep, simulate, compete, validate.

Exit codes: 0 success, 1 validation failure, 2 bad config, usage or model error
or unwritable output, 3 irregular valuation law, 4 no equilibrium exists for the
requested mode.
Printed numbers carry 6 significant digits; files keep full precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytics import avg_earning_rate, discounted_value
from .competition import (
    best_response_dynamics,
    ranked_price_equilibrium,
)
from .config import load_scenario
from .errors import ConfigError, IrregularDistribution, ModelMismatch, PricingError
from .model import ExponentialDiscount, ExponentialDuration, Scenario, apply_commission
from .queues import (
    _queue_solve,
    first_step_solve,
    mixture_horizon_optimize,
    mixture_horizon_value,
    queue_optimize,
    queue_rate,
)
from .simulate import SimConfig, SimStats, deviation_scan, simulate, simulate_discounted, simulate_queue
from .solver import rate_map, solve_discounted, solve_fixed_point

DEFAULT_SEED = 20260815


class NoEquilibrium(PricingError):
    """Requested equilibrium mode has no solution for this scenario."""


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: str
    seed: int
    outputs: tuple[str, ...]
    version: str
    wall_time_s: float


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# The first file a run writes makes --out, so a run that fails leaves none.
def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _trace_rows(trace) -> list[tuple[int, float]]:
    rows = [(t, r) for t, (r, _) in enumerate(trace)]
    if trace:
        rows.append((len(trace), trace[-1][1]))
    return rows


def _parse_grid(spec: str) -> list[float]:
    spec = spec.strip()
    try:
        if "," in spec:
            return [float(x) for x in spec.split(",")]
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) == 4 and parts[3] == "log":
                a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
                return [float(x) for x in np.logspace(np.log10(a), np.log10(b), n)]
            if len(parts) == 3:
                a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
                return [float(x) for x in np.linspace(a, b, n)]
            raise ConfigError(f"bad grid spec {spec!r} (use a:b:n, a:b:n:log, or a comma list)")
        return [float(spec)]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc


def _default_r_grid() -> list[float]:
    low = [float(x) for x in np.linspace(0.1, 1.0, 10)]
    high = [float(x) for x in np.logspace(0.0, 2.0, 20)]
    return sorted(dict.fromkeys(low + high))


# --- one model per scenario kind ---


@dataclass(frozen=True)
class Solved:
    """A model's optimum: the prices to simulate at, and what `solve` reports."""

    prices: list  # one per class; one row per worker for a fleet
    summary: str = ""
    payload: dict | None = None
    trace: tuple | None = None  # (reserve, achieved rate) per fixed-point iteration


def _fmts(prices) -> str:
    return ", ".join(_fmt(p) for p in prices)


def _fixed_point_solved(model: str, title: str, sol) -> Solved:
    payload = {"model": model, "prices": list(sol.prices), "rate": sol.rate,
               "iterations": sol.iterations, "converged": sol.converged}
    value = ""
    if sol.value is not None:
        payload["value"] = sol.value
        value = f", value = {_fmt(sol.value)}"
    summary = (f"{title}: prices = {_fmts(sol.prices)}, rate = {_fmt(sol.rate)}{value}, "
               f"iterations = {sol.iterations}")
    return Solved(list(sol.prices), summary, payload, sol.trace)


def _solve_loss(scenario: Scenario) -> Solved:
    return _fixed_point_solved("loss", "optimum", solve_fixed_point(scenario))


def _solve_discounted(scenario: Scenario) -> Solved:
    return _fixed_point_solved("discounted", "discounted optimum", solve_discounted(scenario))


def _solve_mixture(scenario: Scenario) -> Solved:
    prices, value = mixture_horizon_optimize(scenario)
    summary = f"mixture-horizon optimum: prices = {_fmts(prices)}, value = {_fmt(value)}"
    return Solved(list(prices), summary,
                  {"model": "mixture_horizon", "prices": list(prices), "value": value})


def _solve_queue(scenario: Scenario) -> Solved:
    sol = _queue_solve(scenario)
    summary = (f"queue optimum: p_A* = {_fmt(sol.prices[0])}, p_B* = {_fmt(sol.prices[1])}, "
               f"rate = {_fmt(sol.rate)}, iterations = {sol.iterations}")
    return Solved(list(sol.prices), summary,
                  {"model": "queue", "prices": list(sol.prices), "rate": sol.rate,
                   "iterations": sol.iterations, "converged": sol.converged})


def _solve_fleet(scenario: Scenario) -> Solved:
    eq = ranked_price_equilibrium(scenario)
    return Solved([list(eq.by_rank(w.rank).prices) for w in scenario.workers])


def _simulate_queue(config: SimConfig, prices) -> SimStats:
    if len(prices) != 2:
        raise ConfigError("queue simulation takes exactly two prices")
    return simulate_queue(config, prices[0], prices[1])


class Model(NamedTuple):
    """How the CLI solves, simulates and validates one scenario kind."""

    solve: Callable[[Scenario], Solved]
    simulate: Callable[[SimConfig, list], SimStats]
    objective: Callable[[Scenario, list], float] | None  # None: the fleet check
    check: str


def _model(scenario: Scenario) -> Model:
    """The scenario's row of the kind table. The table is built per call, so it
    holds the module's current bindings (a tracer or a test may rebind them)."""
    return {
        "loss": Model(_solve_loss, simulate, avg_earning_rate, "loss_rate_vs_simulation"),
        "fleet": Model(_solve_fleet, simulate, None, "best_ranked_worker_unaffected_by_fleet"),
        "discounted": Model(_solve_discounted, simulate_discounted, discounted_value,
                            "discounted_value_vs_simulation"),
        "mixture": Model(_solve_mixture, simulate_discounted, mixture_horizon_value,
                         "mixture_value_vs_simulation"),
        "queue": Model(_solve_queue, _simulate_queue, lambda s, p: queue_rate(s, p[0], p[1]),
                       "queue_rate_vs_simulation"),
    }[scenario.kind]


# Commands that serve only some kinds; any other kind exits 2 before any work.
_SERVES = {
    "solve": ("loss", "discounted", "mixture", "queue"),
    "compete": ("fleet",),
    "simulate --trace": ("loss", "fleet"),
}


# --- solve ---


def cmd_solve(scenario: Scenario, outdir: Path) -> list[str]:
    solved = _model(scenario).solve(scenario)
    print(solved.summary)
    outputs = []
    if solved.trace is not None:
        _write_csv(outdir / "trace.csv", ["t", "R_t"], _trace_rows(solved.trace))
        outputs.append("trace.csv")
    _write_json(outdir / "solution.json", solved.payload)
    outputs.append("solution.json")
    return outputs


# --- sweep ---


def _sweep_r(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
    if scenario.num_classes != 2:
        raise ModelMismatch("sweep over r varies the second class of a two-class scenario")
    rows = []
    for r in grid:
        second = replace(
            scenario.classes[1], arrival_rate=float(r), duration=ExponentialDuration(float(r))
        )
        variant = replace(scenario, classes=(scenario.classes[0], second))
        prices, rate = queue_optimize(variant)
        rows.append((float(r), prices[0], prices[1], rate))
    return ["r", "p_A_star", "p_B_star", "rate"], rows


def _sweep_gamma(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
    k = scenario.num_classes
    rows = []
    for g in grid:
        variant = replace(scenario, discount=ExponentialDiscount(float(g)))
        sol = solve_discounted(variant)
        rows.append((float(g), *sol.prices, sol.rate, sol.value))
    header = ["gamma"] + [f"p_{i + 1}" for i in range(k)] + ["rate", "value"]
    return header, rows


def _sweep_rho(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
    k = scenario.num_classes
    rows = []
    for scale in grid:
        classes = tuple(
            replace(cls, arrival_rate=cls.arrival_rate * float(scale))
            for cls in scenario.classes
        )
        sol = solve_fixed_point(replace(scenario, classes=classes))
        rows.append((float(scale), *sol.prices, sol.rate))
    return ["rho"] + [f"p_{i + 1}" for i in range(k)] + ["rate"], rows


def _sweep_beta(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
    k = scenario.num_classes
    rows = []
    for beta in grid:
        classes = tuple(apply_commission(cls, float(beta)) for cls in scenario.classes)
        sol = solve_fixed_point(replace(scenario, classes=classes))
        rows.append((float(beta), *sol.prices, sol.rate))
    return ["beta"] + [f"p_{i + 1}" for i in range(k)] + ["rate"], rows


def _sweep_reserve(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
    rows = []
    for reserve in grid:
        achieved, _ = rate_map(scenario, float(reserve))
        rows.append((float(reserve), achieved))
    return ["reserve", "achieved_rate"], rows


_SWEEPS = {
    "r": _sweep_r,
    "gamma": _sweep_gamma,
    "rho": _sweep_rho,
    "beta": _sweep_beta,
    "reserve": _sweep_reserve,
}
SWEEPABLES = tuple(_SWEEPS)


def cmd_sweep(scenario: Scenario, param: str, grid_spec: str | None, outdir: Path) -> list[str]:
    if param not in _SWEEPS:
        raise ConfigError(f"unknown sweep parameter {param!r} (one of {SWEEPABLES})")
    if grid_spec is not None:
        grid = _parse_grid(grid_spec)
    elif param == "r":
        grid = _default_r_grid()
    else:
        raise ConfigError(f"--grid is required for parameter {param!r}")
    header, rows = _SWEEPS[param](scenario, grid)
    name = f"sweep_{param}.csv"
    _write_csv(outdir / name, header, rows)
    print(f"swept {param} over {len(rows)} points -> {outdir / name}")
    return [name]


# --- simulate ---


def _parse_prices(spec: str, scenario: Scenario):
    rows = [chunk for chunk in spec.split(";") if chunk.strip()]
    try:
        matrix = [[float(x) for x in row.split(",")] for row in rows]
    except ValueError as exc:
        raise ConfigError(f"bad price list {spec!r}: {exc}") from exc
    if scenario.kind != "fleet":
        if len(matrix) != 1:
            raise ConfigError("single-worker scenario takes one price row")
        return matrix[0]
    return matrix


def cmd_simulate(scenario: Scenario, prices_spec: str, seed: int, outdir: Path,
                 trace: bool) -> list[str]:
    model = _model(scenario)
    if prices_spec == "solved":
        prices = model.solve(scenario).prices
    else:
        prices = _parse_prices(prices_spec, scenario)
    trace_path = str(outdir / "events.csv") if trace else None
    cfg = SimConfig(scenario=scenario, base_seed=seed, trace_path=trace_path)
    stats = model.simulate(cfg, prices)
    payload = {"prices": prices, "seed": seed, "stats": stats.to_dict()}
    _write_json(outdir / "stats.json", payload)
    print(f"simulated {stats.kind}: mean = {_fmt(stats.mean)}, "
          f"95% CI = [{_fmt(stats.ci_low)}, {_fmt(stats.ci_high)}], "
          f"replications = {stats.replications}")
    outputs = ["stats.json"]
    if trace:
        outputs.append("events.csv")
    return outputs


# --- compete ---


def cmd_compete(scenario: Scenario, seed: int, outdir: Path, verify: bool,
                dynamics: bool) -> list[str]:
    if dynamics:
        report = best_response_dynamics(scenario)
        if report.fixed_profile is not None:
            print(f"best-response dynamics settled at {_fmts(report.fixed_profile)}"
                  f" after {report.rounds_run} rounds")
        elif report.cycle_length is not None:
            print(f"best-response dynamics cycles: length {report.cycle_length} "
                  f"starting at round {report.cycle_start} "
                  f"(detected after {report.rounds_run} rounds)")
        else:
            print(f"best-response dynamics open after {report.rounds_run} rounds")
        _write_json(outdir / "dynamics.json", {"mode": "dynamics", **asdict(report)})
        return ["dynamics.json"]

    if scenario.choice != "ranked":
        raise NoEquilibrium(
            "undifferentiated workers admit no pure price equilibrium; "
            "rerun with --dynamics to see the cycling behaviour"
        )
    eq = ranked_price_equilibrium(scenario)
    for outcome in eq.outcomes:
        print(f"rank {outcome.rank}: prices = {_fmts(outcome.prices)}"
              f", rate = {_fmt(outcome.rate)}, busy = {_fmt(outcome.busy_fraction)}")
    payload = {"mode": "equilibrium", "workers": [asdict(o) for o in eq.outcomes]}
    outputs = ["equilibrium.json"]
    if verify:
        matrix = [list(eq.by_rank(w.rank).prices) for w in scenario.workers]
        cfg = SimConfig(
            scenario=scenario,
            base_seed=seed,
            expected_arrivals=20_000,
            replications=16,
        )
        scans = []
        for index in range(len(scenario.workers)):
            base = matrix[index][0]
            grid = np.linspace(0.8 * base, 1.2 * base, 11)
            report = deviation_scan(cfg, matrix, index, grid)
            verdict = "no significant improvement" if not report.any_significant \
                else "IMPROVEMENT FOUND"
            print(f"deviation scan, worker {index}: {verdict} "
                  f"(baseline rate {_fmt(report.baseline_mean)})")
            scans.append(
                {
                    "worker_index": index,
                    "baseline_price": report.baseline_price,
                    "baseline_mean": report.baseline_mean,
                    "baseline_se": report.baseline_se,
                    "any_significant": report.any_significant,
                    "points": [asdict(p) for p in report.points],
                }
            )
        payload["deviation_scans"] = scans
    _write_json(outdir / "equilibrium.json", payload)
    return outputs


# --- validate ---


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sim_config(scenario: Scenario, seed: int) -> SimConfig:
    return SimConfig(
        scenario=scenario, base_seed=seed, expected_arrivals=20_000, replications=12
    )


def _check_close(name: str, analytic: float, stats: SimStats) -> CheckResult:
    gap = abs(stats.mean - analytic)
    bound = 3.0 * stats.se
    return CheckResult(
        name=name,
        passed=bool(gap <= bound),
        detail=f"analytic {_fmt(analytic)}, simulated {_fmt(stats.mean)} "
               f"(|gap| {_fmt(gap)} vs 3 SE {_fmt(bound)})",
    )


def _fleet_check(name: str, scenario: Scenario, seed: int, matrix,
                 fleet_stats: SimStats) -> CheckResult:
    best_index = min(range(len(scenario.workers)), key=lambda i: scenario.workers[i].rank)
    solo = Scenario(classes=scenario.classes, workers=(scenario.workers[best_index],))
    solo_stats = simulate(_sim_config(solo, seed + 1), matrix[best_index])
    fleet_mean, fleet_se = fleet_stats.worker_mean_se(best_index)
    gap = abs(fleet_mean - solo_stats.mean)
    bound = 3.0 * (fleet_se**2 + solo_stats.se**2) ** 0.5
    return CheckResult(name, bool(gap <= bound), f"fleet {_fmt(fleet_mean)}, solo "
                       f"{_fmt(solo_stats.mean)} (|gap| {_fmt(gap)} vs {_fmt(bound)})")


def validation_checks(scenario: Scenario, seed: int) -> list[CheckResult]:
    """Cross-check battery: every analytic model against its simulator."""
    model = _model(scenario)
    solved = model.solve(scenario)
    prices = solved.prices
    analytic = None if model.objective is None else model.objective(scenario, prices)
    checks: list[CheckResult] = []
    if scenario.kind == "queue":
        renewal = first_step_solve(scenario, prices[0], prices[1]).rate
        checks.append(CheckResult("queue_closed_form_vs_renewal_equations",
                                  bool(abs(analytic - renewal) <= 1e-9),
                                  f"closed form {_fmt(analytic)}, renewal solve {_fmt(renewal)}"))
    elif scenario.kind == "loss":
        rate = solved.payload["rate"]
        achieved, _ = rate_map(scenario, rate)
        checks.append(CheckResult("fixed_point_consistency", bool(abs(achieved - rate) <= 1e-8),
                                  f"rate {_fmt(rate)}, map at rate {_fmt(achieved)}"))
    stats = model.simulate(_sim_config(scenario, seed), prices)
    if analytic is None:
        checks.append(_fleet_check(model.check, scenario, seed, prices, stats))
    else:
        checks.append(_check_close(model.check, analytic, stats))
    return checks


def cmd_validate(scenario: Scenario, seed: int, outdir: Path) -> tuple[list[str], bool]:
    checks = validation_checks(scenario, seed)
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    payload = [asdict(c) for c in checks]
    _write_json(outdir / "validate.json", payload)
    return ["validate.json"], all(c.passed for c in checks)


# --- entry point ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ondemand-pricing",
        description="Optimal per-unit-time pricing for on-demand workers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "simulate", "compete", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="scenario JSON path")
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--out", default="out", help="output directory")
        if name == "sweep":
            cmd.add_argument("--param", required=True, choices=SWEEPABLES)
            cmd.add_argument("--grid", help="a:b:n, a:b:n:log, or comma list")
        if name == "simulate":
            cmd.add_argument("--prices", default="solved",
                             help="comma list per class ('solved' to solve first; "
                                  "';' separates workers)")
            cmd.add_argument("--trace", action="store_true",
                             help="write a per-event CSV for the first replication")
        if name == "compete":
            cmd.add_argument("--dynamics", action="store_true",
                             help="run best-response dynamics instead")
            cmd.add_argument("--verify", action="store_true",
                             help="deviation-scan each worker at the equilibrium")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        scenario = load_scenario(args.config)
        op = "simulate --trace" if args.command == "simulate" and args.trace else args.command
        if op in _SERVES:
            scenario.require(op, *_SERVES[op])
        outdir = Path(args.out)
        ok = True
        if args.command == "solve":
            outputs = cmd_solve(scenario, outdir)
        elif args.command == "sweep":
            outputs = cmd_sweep(scenario, args.param, args.grid, outdir)
        elif args.command == "simulate":
            outputs = cmd_simulate(scenario, args.prices, args.seed, outdir, args.trace)
        elif args.command == "compete":
            outputs = cmd_compete(scenario, args.seed, outdir, args.verify, args.dynamics)
        else:
            outputs, ok = cmd_validate(scenario, args.seed, outdir)
        manifest = RunManifest(
            command=args.command,
            config=str(args.config),
            seed=args.seed,
            outputs=tuple(outputs),
            version=__version__,
            wall_time_s=time.perf_counter() - started,
        )
        _write_json(outdir / "manifest.json", asdict(manifest))
        return 0 if ok else 1
    except IrregularDistribution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoEquilibrium as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
