"""Metric definitions, the percentile rule and the run-environment record."""

from __future__ import annotations

import math
import os
import platform
import re
from pathlib import Path

from tracing import LAYERS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Metrics of the traced run. `.calls`, `.busy_s` and `.self_s` come from the
# tracer's totals for the traced name before the suffix; the rest are
# computed in `per_layer`.
PER_LAYER = (
    ("solver.price_response.calls", "count"),
    ("solver.price_response.busy_s", "s"),
    ("solver.rate_map.calls", "count"),
    ("solver.solve_fixed_point.calls", "count"),
    ("solver.solve_fixed_point.busy_s", "s"),
    ("solver.solve_fixed_point.iterations", "count"),
    ("analytics.avg_earning_rate.calls", "count"),
    ("solver.grid_search_optimum.busy_s", "s"),
    ("search.coordinate_ascent.calls", "count"),
    ("search.coordinate_ascent.busy_s", "s"),
    ("search.golden_section_max.calls", "count"),
    ("queues.queue_rate.calls", "count"),
    ("queues.mixture_horizon_value.calls", "count"),
    ("queues.queue_optimize.busy_s", "s"),
    ("queues.mixture_horizon_optimize.busy_s", "s"),
    ("competition.demand.calls", "count"),
    ("competition.ranked_price_equilibrium.busy_s", "s"),
    ("competition.fleet_rates.calls", "count"),
    ("competition.fleet_rates.busy_s", "s"),
    ("competition.best_response_dynamics.busy_s", "s"),
    ("simulate.simulate.calls", "count"),
    ("simulate.simulate.busy_s", "s"),
    ("simulate.simulate_discounted.calls", "count"),
    ("simulate.simulate_discounted.busy_s", "s"),
    ("simulate.simulate_queue.calls", "count"),
    ("simulate.simulate_queue.busy_s", "s"),
    ("simulate.events", "count"),
    ("simulate.accepted", "count"),
    ("simulate.events_per_busy_s", "1/s"),
    ("simulate.deviation_scan.calls", "count"),
    ("simulate.deviation_scan.busy_s", "s"),
    ("simulate.deviation_scan.points", "count"),
    ("simulate.gate_misses", "count"),
    ("config.load_scenario.calls", "count"),
    ("config.load_scenario.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    *((f"cli.exit_code.{code}", "count") for code in ("0", "1", "2", "3", "4", "traceback")),
    ("model.regularity_check.hits", "count"),
    ("model.regularity_check.misses", "count"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of `samples`.

    Refuses (ValueError) when fewer than ten samples lie above it, since a
    tail percentile resting on fewer is not worth reporting.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(f"p{100 * q:g} of {n} samples has {n - rank} beyond it; need 10")
    return sorted(samples)[rank - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    try:
        import numba  # noqa: F401  (grid_search_optimum takes another 3-class path with it)
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": has_numba,
        "machine": platform.machine(),
    }
