"""Scenario ingestion from JSON with strict schema checking.

Every object in a config is read by one table that maps each key to the
reader of its value and to a default, or to _REQUIRED. An unknown key is
rejected with the offending key path, so a typo never silently changes a
run. Keys are checked and read in table order, so with several faults the
error names the first one the table lists. A number must be a JSON number
within the float range (booleans are refused), and a law's kind must be one
of the strings its table lists. See README for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .model import (
    CustomerClass, DeterministicDuration, EmpiricalDuration, ExponentialDiscount,
    ExponentialDuration, ExponentialValuation, MixtureDiscount, PiecewiseLinearValuation,
    Scenario, UniformValuation, WorkerSpec, apply_commission,
)

_REQUIRED = object()


def _record(doc, fields: dict, path: str) -> dict:
    """Read the object `doc` by its table `fields` (key -> (reader, default
    or _REQUIRED)): refuse an unknown key, report the first missing required
    key, then read each key at `path.key`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key, (_, default) in fields.items():
        if default is _REQUIRED and key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return {
        key: read(doc[key], f"{path}.{key}") if key in doc else default
        for key, (read, default) in fields.items()
    }


def _raw(value, path: str):
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        # an int past the float range; formatting it as a float would overflow again
        raise ConfigError(f"{path}: expected a number within the float range") from None


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _array(read, of: str = ""):
    """Reader of a nonempty array whose entries `read` reads at `path[i]`."""

    def read_array(value, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a nonempty array{of}")
        return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(value))

    return read_array


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected a [value, cdf] pair")
    return tuple(_number(x, f"{path}[{j}]") for j, x in enumerate(value))


_NUMBER = (_number, _REQUIRED)
_NUMBERS = (_array(_number, " of numbers"), _REQUIRED)
_LAW = {"kind": (_raw, _REQUIRED), "params": (_raw, _REQUIRED)}


def _law(kinds: dict, expected: str = ""):
    """Reader of a `{"kind": ..., "params": {...}}` law: `kinds` maps each
    kind to its constructor and the table of its params."""
    expected = expected or f"one of {sorted(kinds)}"

    def read_law(doc, path: str):
        law = _record(doc, _LAW, path)
        kind = law["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.kind: unknown kind {kind!r} (expected {expected})")
        ctor, fields = kinds[kind]
        params = _record(law["params"], fields, f"{path}.params")
        try:
            return ctor(**params)
        except ConfigError as exc:
            raise ConfigError(f"{path}.params: {exc}") from exc

    return read_law


_DISCOUNT_LAW = _law(
    {
        "exponential": (ExponentialDiscount, {"rate": _NUMBER}),
        "mixture": (MixtureDiscount, {"weights": _NUMBERS, "rates": _NUMBERS}),
    },
    "none, exponential, or mixture",
)


def _discount(doc, path: str):
    """A discount law, or None for `{"kind": "none"}`, the one kind without params."""
    law = _record(doc, {"kind": (_raw, _REQUIRED), "params": (_raw, None)}, path)
    if law["kind"] == "none":
        if law["params"]:
            raise ConfigError(f"{path}.params: discount kind 'none' takes no params")
        return None
    if law["params"] is None:
        raise ConfigError(f"{path}: missing required key 'params'")
    return _DISCOUNT_LAW(doc, path)


_CLASS = {
    "arrival_rate": _NUMBER,
    "duration": (_law({
        "exponential": (ExponentialDuration, {"rate": _NUMBER}),
        "deterministic": (DeterministicDuration, {"value": _NUMBER}),
        "empirical": (EmpiricalDuration, {"samples": _NUMBERS}),
    }), _REQUIRED),
    "valuation": (_law({
        "uniform": (UniformValuation, {"low": _NUMBER, "high": _NUMBER}),
        "exponential": (ExponentialValuation, {"rate": _NUMBER}),
        "piecewise_linear_cdf": (
            PiecewiseLinearValuation,
            {"knots": (_array(_pair, " of [value, cdf] pairs"), _REQUIRED)},
        ),
    }), _REQUIRED),
}


def _class(doc, path: str) -> CustomerClass:
    return CustomerClass(**_record(doc, _CLASS, path))


_WORKER = {"cost": (_number, 0.0), "commission_retention": (_number, 1.0)}


def _worker(doc, path: str, rank: int) -> tuple[WorkerSpec, float]:
    """A worker and the share of each price it keeps."""
    fields = _record(doc, {"rank": (_integer, rank), **_WORKER}, path)
    keep = fields.pop("commission_retention")
    worker = WorkerSpec(**fields)
    if not 0.0 < keep <= 1.0:  # NaN fails the comparison
        raise ConfigError("commission_retention must lie in (0, 1]")
    return worker, keep


def _workers(docs, path: str) -> tuple[tuple[WorkerSpec, float], ...]:
    """The fleet; ranks default to list order, so give one for every worker or none."""
    docs = _array(_raw, " of workers")(docs, path)
    given = ["rank" in doc for doc in docs if isinstance(doc, dict)]
    if any(given) and not all(given):
        raise ConfigError(f"{path}: give rank for every worker or for none")
    return tuple(_worker(doc, f"{path}[{i}]", i + 1) for i, doc in enumerate(docs))


_SCENARIO = {
    "classes": (_array(_class), _REQUIRED),
    "workers": (_workers, ((WorkerSpec(), 1.0),)),
    "discount": (_discount, None),
    "queue_capacity": (_integer, 0),
}


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, rejecting unknown keys.

    The scenario is in net (retained) rates: every class's valuation law is
    scaled once by the share of each price the workers keep, so every price
    solved, simulated or checked on it is what a worker keeps. Workers keeping
    different shares are refused, after any fault in the scenario's shape."""
    fields = _record(doc, _SCENARIO, "scenario")
    workers, keeps = zip(*fields.pop("workers"))
    scenario = Scenario(workers=workers, **fields)
    if len(set(keeps)) > 1:
        raise ConfigError("workers must share one commission retention")
    return replace(scenario, classes=tuple(
        apply_commission(cls, keeps[0]) for cls in scenario.classes))


def load_scenario(path) -> Scenario:
    """Read and parse a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_scenario(doc)
