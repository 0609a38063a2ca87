"""Command-line surface: solve, sweep, simulate, compete, validate.

Exit codes: 0 success, 1 validation failure, 2 bad config, usage or model error
or unwritable output, 3 irregular valuation law, 4 no equilibrium exists for the
requested mode.
Printed numbers carry 6 significant digits; files keep full precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .competition import _ranked_solution, best_response_dynamics, ranked_price_equilibrium
from .config import load_scenario
from .errors import ConfigError, IrregularDistribution, ModelMismatch, PricingError
from .model import (
    ExponentialDiscount,
    ExponentialDuration,
    Scenario,
    apply_commission,
)
from .queues import _mixture_solve, _queue_solve, first_step_solve
from .simulate import SimConfig, SimStats, deviation_scan, simulate, simulate_discounted, simulate_queue
from .solver import Solution, rate_map, solve_discounted, solve_fixed_point

DEFAULT_SEED = SimConfig.base_seed


class NoEquilibrium(PricingError):
    """Requested equilibrium mode has no solution for this scenario."""


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# The first file a run writes makes --out, so a run that fails leaves none.
def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


# A sweep range of more points is refused before numpy allocates it (the
# same cap as the dynamics' price grid).
_MAX_RANGE_POINTS = 100_000


def _parse_grid(spec: str) -> list[float]:
    spec = spec.strip()
    try:
        if "," in spec:
            return [float(x) for x in spec.split(",")]
        if ":" in spec:
            parts = spec.split(":")
            log = len(parts) == 4 and parts[3] == "log"
            if len(parts) != 3 and not log:
                raise ConfigError(f"bad grid spec {spec!r} (use a:b:n, a:b:n:log, or a comma list)")
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            # refused here, before numpy would warn or return no points
            if not math.isfinite(b - a):
                raise ConfigError(f"bad grid spec {spec!r}: the ends and their distance "
                                  "must be finite")
            if n < 1:
                raise ConfigError(f"bad grid spec {spec!r}: a range needs at least one point")
            if n > _MAX_RANGE_POINTS:
                raise ConfigError(f"bad grid spec {spec!r}: a range takes at most "
                                  f"{_MAX_RANGE_POINTS} points")
            if log:
                if min(a, b) <= 0.0:
                    raise ConfigError(f"bad grid spec {spec!r}: log ends must be positive")
                # libm's log10 and pow, which numpy's SIMD loops can differ from by CPU
                return [10.0 ** y for y in np.linspace(math.log10(a), math.log10(b), n).tolist()]
            return [float(x) for x in np.linspace(a, b, n)]
        return [float(spec)]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}: {exc}") from exc
    except OverflowError:
        raise ConfigError(f"bad grid spec {spec!r}: a point overflows a float") from None


# --- one model per scenario kind ---


def _fmts(prices) -> str:
    return ", ".join(_fmt(p) for p in prices)


def _simulate_queue(config: SimConfig, prices) -> SimStats:
    if len(prices) != 2:
        raise ConfigError("queue simulation takes exactly two prices")
    return simulate_queue(config, prices[0], prices[1])


class Model(NamedTuple):
    """How the CLI solves, simulates, validates and reports one scenario kind.

    `validate` holds the simulation to the figure the solve reports: its
    `value`, or else its `rate` (a fleet's is its best-ranked worker's
    rate). `exact` is the kind's exact check in `validate`, run on the
    Solution before the simulation. `solve` writes `label` as
    solution.json's "model", the Solution's `fields` beside its prices,
    iterations and convergence flag, and prints `summary` formatted with the
    Solution as `sol` and its printed prices as `prices`. `solve` serves no
    fleet, so a fleet has no report."""

    solve: Callable[[Scenario], Solution]
    simulate: Callable[[SimConfig, tuple], SimStats]
    check: str
    exact: Callable[[Scenario, Solution], CheckResult] | None = None
    label: str = ""
    fields: tuple[str, ...] = ()
    summary: str = ""


def _model(scenario: Scenario) -> Model:
    """The scenario's row of the kind table. The table is built per call, so it
    holds the module's current bindings (a tracer or a test may rebind them)."""
    return {
        "loss": Model(solve_fixed_point, simulate, "loss_rate_vs_simulation",
                      _fixed_point_check, "loss", ("rate",),
                      "optimum: prices = {prices}, rate = {sol.rate:.6g}, "
                      "iterations = {sol.iterations}"),
        "fleet": Model(lambda scn: _ranked_solution(scn, ranked_price_equilibrium(scn)), simulate,
                       "best_ranked_worker_unaffected_by_fleet"),
        "discounted": Model(solve_discounted, simulate_discounted,
                            "discounted_value_vs_simulation", None, "discounted",
                            ("rate", "value"),
                            "discounted optimum: prices = {prices}, rate = {sol.rate:.6g}, "
                            "value = {sol.value:.6g}, iterations = {sol.iterations}"),
        "mixture": Model(_mixture_solve, simulate_discounted, "mixture_value_vs_simulation",
                         None, "mixture_horizon", ("value",),
                         "mixture-horizon optimum: prices = {prices}, value = {sol.value:.6g}"),
        "queue": Model(_queue_solve, _simulate_queue, "queue_rate_vs_simulation",
                       _renewal_check, "queue", ("rate",),
                       "queue optimum: p_A* = {sol.prices[0]:.6g}, "
                       "p_B* = {sol.prices[1]:.6g}, rate = {sol.rate:.6g}, "
                       "iterations = {sol.iterations}"),
    }[scenario.kind]


# Commands that serve only some kinds; any other kind exits 2 before any work.
_SERVES = {
    "solve": ("loss", "discounted", "mixture", "queue"),
    "compete": ("fleet",),
    "simulate --trace": ("loss", "fleet"),
}


# --- solve ---


def cmd_solve(scenario: Scenario, args, outdir: Path) -> tuple[list[str], bool]:
    model = _model(scenario)
    sol = model.solve(scenario)
    print(model.summary.format(sol=sol, prices=_fmts(sol.prices)))
    outputs = []
    if sol.trace:
        # (t, R_t): the reserve of each fixed-point step, then the rate reached
        rows = [(t, r) for t, (r, _) in enumerate(sol.trace)]
        rows.append((len(sol.trace), sol.trace[-1][1]))
        _write_csv(outdir / "trace.csv", ["t", "R_t"], rows)
        outputs.append("trace.csv")
    _write_json(outdir / "solution.json", {
        "model": model.label, "prices": list(sol.prices), "iterations": sol.iterations,
        "converged": sol.converged, **{name: getattr(sol, name) for name in model.fields}})
    outputs.append("solution.json")
    return outputs, True


# --- sweep ---


def _solve_sweep(param: str, vary, solve, extras=(), prices=None):
    """A sweep that solves `vary(scenario, x)` at each grid value x, one row
    per value: x, the optimal prices, the rate and the solution's `extras`.
    The price columns are named `prices`, or p_1, p_2, ... by class."""

    def sweep(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
        rows = []
        for x in grid:
            sol = solve(vary(scenario, float(x)))
            rows.append((float(x), *sol.prices, sol.rate, *(getattr(sol, e) for e in extras)))
        names = prices or [f"p_{i + 1}" for i in range(scenario.num_classes)]
        return [param, *names, "rate", *extras], rows

    return sweep


def _vary_r(scenario: Scenario, r: float) -> Scenario:
    """The two-class scenario with the second class's arrival and service
    rate both set to r, its load held fixed."""
    if scenario.num_classes != 2:
        raise ModelMismatch("sweep over r varies the second class of a two-class scenario")
    second = replace(scenario.classes[1], arrival_rate=r, duration=ExponentialDuration(r))
    return replace(scenario, classes=(scenario.classes[0], second))


def _sweep_reserve(scenario: Scenario, grid) -> tuple[list[str], list[tuple]]:
    rows = []
    for reserve in grid:
        achieved, _ = rate_map(scenario, float(reserve))
        rows.append((float(reserve), achieved))
    return ["reserve", "achieved_rate"], rows


def _sweeps() -> dict:
    """The sweep table. Like _model's, it is built per call, so each sweep
    solves through the module's current bindings."""
    return {
        "r": _solve_sweep("r", _vary_r, _queue_solve, prices=("p_A_star", "p_B_star")),
        "gamma": _solve_sweep(
            "gamma", lambda scn, g: replace(scn, discount=ExponentialDiscount(g)),
            solve_discounted, ("value",)),
        "rho": _solve_sweep(
            "rho",
            lambda scn, scale: replace(scn, classes=tuple(
                replace(cls, arrival_rate=cls.arrival_rate * scale) for cls in scn.classes)),
            solve_fixed_point),
        # on top of the share the config reader applied
        "beta": _solve_sweep(
            "beta",
            lambda scn, beta: replace(scn, classes=tuple(
                apply_commission(cls, beta) for cls in scn.classes)),
            solve_fixed_point),
        "reserve": _sweep_reserve,
    }


SWEEPABLES = tuple(_sweeps())


def cmd_sweep(scenario: Scenario, args, outdir: Path) -> tuple[list[str], bool]:
    param = args.param
    if args.grid is not None:
        grid = _parse_grid(args.grid)
    elif param == "r":  # 1 is in both ranges
        grid = sorted(dict.fromkeys(_parse_grid("0.1:1:10") + _parse_grid("1:100:20:log")))
    else:
        raise ConfigError(f"--grid is required for parameter {param!r}")
    header, rows = _sweeps()[param](scenario, grid)
    name = f"sweep_{param}.csv"
    _write_csv(outdir / name, header, rows)
    print(f"swept {param} over {len(rows)} points -> {outdir / name}")
    return [name], True


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


def cmd_simulate(scenario: Scenario, args, outdir: Path) -> tuple[list[str], bool]:
    model = _model(scenario)
    if args.prices == "solved":
        prices = model.solve(scenario).prices
    else:
        prices = _parse_prices(args.prices, scenario)
    cfg = SimConfig(scenario=scenario, base_seed=args.seed)
    # only `simulate` takes a trace path, and _SERVES gives --trace no other kind
    stats = model.simulate(cfg, prices, str(outdir / "events.csv")) if args.trace \
        else model.simulate(cfg, prices)
    payload = {"prices": prices, "seed": args.seed, "stats": stats.to_dict()}
    _write_json(outdir / "stats.json", payload)
    print(f"simulated {stats.kind}: mean = {_fmt(stats.mean)}, "
          f"95% CI = [{_fmt(stats.ci_low)}, {_fmt(stats.ci_high)}], "
          f"replications = {stats.replications}")
    outputs = ["stats.json"]
    if args.trace:
        outputs.append("events.csv")
    return outputs, True


# --- compete ---


def cmd_compete(scenario: Scenario, args, outdir: Path) -> tuple[list[str], bool]:
    if args.dynamics:
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
        return ["dynamics.json"], True

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
    if args.verify:
        matrix = _ranked_solution(scenario, eq).prices
        cfg = SimConfig(
            scenario=scenario,
            base_seed=args.seed,
            expected_arrivals=20_000,
            replications=16,
        )
        scans = []
        for index in range(len(scenario.workers)):
            report = deviation_scan(cfg, matrix, index)
            verdict = "no significant improvement" if not report.any_significant \
                else "IMPROVEMENT FOUND"
            print(f"deviation scan, worker {index}: {verdict} "
                  f"(baseline rate {_fmt(report.baseline_mean)})")
            scan = asdict(report)
            del scan["z_threshold"]
            scans.append({**scan, "any_significant": report.any_significant})
        payload["deviation_scans"] = scans
    _write_json(outdir / "equilibrium.json", payload)
    return ["equilibrium.json"], True


# --- validate ---


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fixed_point_check(scenario: Scenario, sol: Solution) -> CheckResult:
    achieved, _ = rate_map(scenario, sol.rate)
    return CheckResult("fixed_point_consistency", bool(abs(achieved - sol.rate) <= 1e-8),
                       f"rate {_fmt(sol.rate)}, map at rate {_fmt(achieved)}")


def _renewal_check(scenario: Scenario, sol: Solution) -> CheckResult:
    renewal = first_step_solve(scenario, sol.prices[0], sol.prices[1]).rate
    return CheckResult("queue_closed_form_vs_renewal_equations",
                       bool(abs(sol.rate - renewal) <= 1e-9),
                       f"closed form {_fmt(sol.rate)}, renewal solve {_fmt(renewal)}")


def _check_close(name: str, analytic: float, mean: float, se: float) -> CheckResult:
    gap = abs(mean - analytic)
    bound = 3.0 * se
    return CheckResult(
        name=name,
        passed=bool(gap <= bound),
        detail=f"analytic {_fmt(analytic)}, simulated {_fmt(mean)} "
               f"(|gap| {_fmt(gap)} vs 3 SE {_fmt(bound)})",
    )


def _best_ranked(scenario: Scenario) -> int:
    """The index of the best-ranked worker. Under ranked choice it sees every
    arrival, as if it worked alone."""
    return min(range(len(scenario.workers)), key=lambda i: scenario.workers[i].rank)


def validation_checks(scenario: Scenario, seed: int) -> list[CheckResult]:
    """Cross-check battery: every solve's reported figure against its
    simulator. A fleet is checked at its best-ranked worker."""
    model = _model(scenario)
    sol = model.solve(scenario)
    checks = [] if model.exact is None else [model.exact(scenario, sol)]
    cfg = SimConfig(scenario=scenario, base_seed=seed, expected_arrivals=20_000,
                    replications=12)
    stats = model.simulate(cfg, sol.prices)
    mean, se = stats.worker_mean_se(_best_ranked(scenario)) if scenario.kind == "fleet" \
        else (stats.mean, stats.se)
    analytic = sol.rate if sol.value is None else sol.value
    checks.append(_check_close(model.check, analytic, mean, se))
    return checks


def cmd_validate(scenario: Scenario, args, outdir: Path) -> tuple[list[str], bool]:
    checks = validation_checks(scenario, args.seed)
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    payload = [asdict(c) for c in checks]
    _write_json(outdir / "validate.json", payload)
    return ["validate.json"], all(c.passed for c in checks)


# --- entry point ---


# Each command takes (scenario, parsed arguments, output directory) and returns
# (the files written, whether every check passed).
_RUNS = {"solve": cmd_solve, "sweep": cmd_sweep, "simulate": cmd_simulate,
         "compete": cmd_compete, "validate": cmd_validate}


# Built once per process: parse_args fills a fresh namespace on every call
# and leaves the parser as it found it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ondemand-pricing",
        description="Optimal per-unit-time pricing for on-demand workers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _RUNS.items():
        cmd = sub.add_parser(name)
        cmd.set_defaults(run=run)
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
        op = "simulate --trace" if getattr(args, "trace", False) else args.command
        if op in _SERVES:
            scenario.require(op, *_SERVES[op])
        outdir = Path(args.out)
        outputs, ok = args.run(scenario, args, outdir)
        _write_json(outdir / "manifest.json", {
            "command": args.command, "config": str(args.config), "seed": args.seed,
            "outputs": outputs, "version": __version__,
            "wall_time_s": time.perf_counter() - started})
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
