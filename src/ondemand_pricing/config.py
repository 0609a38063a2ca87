"""Scenario ingestion from JSON with strict schema checking.

Unknown keys are rejected with the offending key path so a typo never
silently changes a run. See README for the full schema.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError
from .model import (
    CustomerClass,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialDuration,
    ExponentialValuation,
    MixtureDiscount,
    PiecewiseLinearValuation,
    Scenario,
    UniformValuation,
    WorkerSpec,
)

_DURATION_KINDS = {
    "exponential": (ExponentialDuration, {"rate"}),
    "deterministic": (DeterministicDuration, {"value"}),
    "empirical": (EmpiricalDuration, {"samples"}),
}
_VALUATION_KINDS = {
    "uniform": (UniformValuation, {"low", "high"}),
    "exponential": (ExponentialValuation, {"rate"}),
    "piecewise_linear_cdf": (PiecewiseLinearValuation, {"knots"}),
}


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _number(obj: dict, key: str, path: str) -> float:
    return _as_number(obj[key], f"{path}.{key}")


def _number_list(obj: dict, key: str, path: str) -> list[float]:
    value = obj[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}.{key}: expected a nonempty array of numbers")
    return [_as_number(x, f"{path}.{key}[{i}]") for i, x in enumerate(value)]


def _law(doc, kinds: dict, path: str):
    _check_keys(doc, {"kind", "params"}, {"kind", "params"}, path)
    kind = doc["kind"]
    if kind not in kinds:
        raise ConfigError(
            f"{path}.kind: unknown kind {kind!r} (expected one of {sorted(kinds)})"
        )
    ctor, fields = kinds[kind]
    params = doc["params"]
    _check_keys(params, fields, fields, f"{path}.params")
    ppath = f"{path}.params"
    try:
        if kind == "empirical":
            return ctor(tuple(_number_list(params, "samples", ppath)))
        if kind == "piecewise_linear_cdf":
            knots = params["knots"]
            if not isinstance(knots, list):
                raise ConfigError(f"{ppath}.knots: expected an array of [value, cdf] pairs")
            parsed = []
            for i, pair in enumerate(knots):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"{ppath}.knots[{i}]: expected a [value, cdf] pair")
                parsed.append(tuple(
                    _as_number(x, f"{ppath}.knots[{i}][{j}]") for j, x in enumerate(pair)
                ))
            return ctor(tuple(parsed))
        return ctor(**{f: _number(params, f, ppath) for f in fields})
    except ConfigError as exc:
        if str(exc).startswith(path):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_class(doc, path: str) -> CustomerClass:
    _check_keys(
        doc,
        {"arrival_rate", "duration", "valuation"},
        {"arrival_rate", "duration", "valuation"},
        path,
    )
    return CustomerClass(
        arrival_rate=_number(doc, "arrival_rate", path),
        duration=_law(doc["duration"], _DURATION_KINDS, f"{path}.duration"),
        valuation=_law(doc["valuation"], _VALUATION_KINDS, f"{path}.valuation"),
    )


def _parse_workers(docs, path: str) -> tuple[WorkerSpec, ...]:
    if not isinstance(docs, list) or not docs:
        raise ConfigError(f"{path}: expected a nonempty array of workers")
    explicit_ranks = ["rank" in d for d in docs if isinstance(d, dict)]
    if any(explicit_ranks) and not all(explicit_ranks):
        raise ConfigError(f"{path}: give rank for every worker or for none")
    workers = []
    for i, doc in enumerate(docs):
        wpath = f"{path}[{i}]"
        _check_keys(doc, {"cost", "rank", "commission_retention"}, set(), wpath)
        rank = doc.get("rank", i + 1)
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ConfigError(f"{wpath}.rank: expected an integer")
        workers.append(
            WorkerSpec(
                cost=_number(doc, "cost", wpath) if "cost" in doc else 0.0,
                rank=rank,
                commission_retention=(
                    _number(doc, "commission_retention", wpath)
                    if "commission_retention" in doc
                    else 1.0
                ),
            )
        )
    return tuple(workers)


def _parse_discount(doc, path: str):
    _check_keys(doc, {"kind", "params"}, {"kind"}, path)
    kind = doc["kind"]
    if kind == "none":
        if doc.get("params"):
            raise ConfigError(f"{path}.params: discount kind 'none' takes no params")
        return None
    params = doc.get("params")
    if params is None:
        raise ConfigError(f"{path}: missing required key 'params'")
    ppath = f"{path}.params"
    try:
        if kind == "exponential":
            _check_keys(params, {"rate"}, {"rate"}, ppath)
            return ExponentialDiscount(rate=_number(params, "rate", ppath))
        if kind == "mixture":
            _check_keys(params, {"weights", "rates"}, {"weights", "rates"}, ppath)
            return MixtureDiscount(
                weights=tuple(_number_list(params, "weights", ppath)),
                rates=tuple(_number_list(params, "rates", ppath)),
            )
    except ConfigError as exc:
        if str(exc).startswith(path):
            raise
        raise ConfigError(f"{ppath}: {exc}") from exc
    raise ConfigError(
        f"{path}.kind: unknown kind {kind!r} (expected none, exponential, or mixture)"
    )


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, rejecting unknown keys."""
    _check_keys(
        doc,
        {"classes", "workers", "discount", "queue_capacity"},
        {"classes"},
        "scenario",
    )
    classes_doc = doc["classes"]
    if not isinstance(classes_doc, list) or not classes_doc:
        raise ConfigError("scenario.classes: expected a nonempty array")
    classes = tuple(
        _parse_class(c, f"scenario.classes[{i}]") for i, c in enumerate(classes_doc)
    )
    workers = (
        _parse_workers(doc["workers"], "scenario.workers")
        if "workers" in doc
        else (WorkerSpec(),)
    )
    discount = (
        _parse_discount(doc["discount"], "scenario.discount")
        if "discount" in doc
        else None
    )
    capacity = doc.get("queue_capacity", 0)
    if isinstance(capacity, bool) or not isinstance(capacity, int):
        raise ConfigError("scenario.queue_capacity: expected an integer")
    return Scenario(
        classes=classes, workers=workers, discount=discount, queue_capacity=capacity
    )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_scenario(doc)
