"""Layer tracing for the traced benchmark run.

The tracer replaces public functions of the package with timing wrappers,
from outside the package: every module attribute (and the package namespace)
bound to the original function is rebound to the wrapper, so calls made
inside the package go through it too. `uninstall` restores every binding.

Each wrapped call pushes a frame on one stack. When it returns, its duration
minus the time covered by wrapped calls made inside it is its self time. Two
kinds of wrapper share that accounting:

- span wrappers (entry points) also keep a `Span` record in memory, written
  out by `write_spans` at the end of the run;
- counter wrappers (inner functions called up to ~10^5 times per op) keep
  only per-name totals, so the span list stays small.

Layer names are the package's module names.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "ondemand_pricing"

LAYERS = (
    "config", "model", "analytics", "solver", "search",
    "queues", "competition", "simulate", "cli",
)

# (module, attribute, kind); a "Class.method" attribute patches the class.
TARGETS = (
    ("config", "load_scenario", "span"),
    ("config", "parse_scenario", "span"),
    ("model", "regularity_check", "count"),
    ("model", "apply_commission", "count"),
    ("analytics", "avg_earning_rate", "count"),
    ("analytics", "effective_load", "count"),
    ("analytics", "discount_adjusted", "count"),
    ("analytics", "discounted_value", "count"),
    ("solver", "price_response", "count"),
    ("solver", "rate_map", "count"),
    ("solver", "solve_fixed_point", "span"),
    ("solver", "solve_discounted", "span"),
    ("solver", "grid_search_optimum", "span"),
    ("search", "golden_section_max", "count"),
    ("search", "coordinate_ascent", "count"),
    ("search", "multi_start_ascent", "span"),
    ("queues", "queue_rate", "count"),
    ("queues", "first_step_solve", "count"),
    ("queues", "mixture_horizon_value", "count"),
    ("queues", "queue_optimize", "span"),
    ("queues", "mixture_horizon_optimize", "span"),
    ("queues", "hybrid_solve", "span"),
    ("competition", "ResidualDemandCurve.demand", "count"),
    ("competition", "busy_fraction", "count"),
    ("competition", "fleet_rates", "count"),
    ("competition", "ranked_price_equilibrium", "span"),
    ("competition", "best_response_dynamics", "span"),
    ("simulate", "simulate", "span"),
    ("simulate", "simulate_discounted", "span"),
    ("simulate", "simulate_queue", "span"),
    ("simulate", "deviation_scan", "span"),
    ("cli", "main", "span"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    op_id: int | None
    self_s: float


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id")

    def __init__(self, name: str, start: float, span_id: int | None):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id


class Tracer:
    """Stack-based call timer. `clock` is injectable so tests can drive it.

    `observers` maps a traced name to a callback that receives each result,
    which is how counts held in return values (events, iterations) are read.
    """

    def __init__(self, clock=time.perf_counter, observers=None):
        self.clock = clock
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.busy_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.op_id: int | None = None
        self._next_span = 0
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, record_span: bool):
        """Return `fn` wrapped so that each call is timed under `name`."""
        observer = self.observers.get(name)

        def wrapper(*args, **kwargs):
            span_id = None
            if record_span:
                span_id = self._next_span
                self._next_span += 1
            frame = _Frame(name, self.clock(), span_id)
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(self._stack.pop(), self.clock())
            if observer is not None:
                observer(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, frame: _Frame, end: float) -> None:
        duration = end - frame.start
        own = duration - frame.child_s
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy_s[name] = self.busy_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.span_id is not None:
            parent = next(
                (f.span_id for f in reversed(self._stack) if f.span_id is not None),
                None,
            )
            self.spans.append(
                Span(frame.span_id, name, frame.start, end, parent, self.op_id, own)
            )

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer: the sum over the layer's traced names."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def install(self) -> None:
        """Rebind every TARGETS function in every loaded package module.
        A target missing from the package is skipped, so its metrics read 0."""
        owners = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _, _ in TARGETS}
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module_name, attr, kind in TARGETS:
            module = owners[module_name]
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"  # metric prefix
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name, None)
                if owner is None or method not in owner.__dict__:
                    continue  # gone from this version: its metrics read 0
                original = owner.__dict__[method]
                self._patch(owner, method, original, self.wrap(name, original, kind == "span"))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, kind == "span")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        """Write every span as [id, name, start, end, parent_id, op_id, self_s]."""
        rows = [
            [s.span_id, s.name, s.start, s.end, s.parent_id, s.op_id, s.self_s]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")
