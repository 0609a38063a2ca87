"""Tests of the benchmark's own machinery (not of the package)."""

import json
import math
import sys
from pathlib import Path

import pytest

import inputs
import metrics
import oracles
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    first = (inputs.scenarios(workload, 7), inputs.round_ops(workload, 7, 0),
             inputs.round_ops(workload, 7, 3))
    again = (inputs.scenarios(workload, 7), inputs.round_ops(workload, 7, 0),
             inputs.round_ops(workload, 7, 3))
    assert first == again
    assert json.loads(json.dumps(first)) == json.loads(json.dumps(again))
    assert inputs.round_ops(workload, 8, 0) != first[1]
    # later rounds keep the mix of op kinds
    assert sorted(op["kind"] for op in first[1]) == sorted(op["kind"] for op in first[2])
    assert len(first[1]) >= 12


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [n for n, _ in metrics.END_TO_END] + [n for n, _ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_percentile_needs_ten_samples_beyond_it():
    assert metrics.percentile(list(range(100)), 0.9) == 89
    assert metrics.percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 0.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    counted_leaf = tracer.wrap("model.leaf", leaf, record_span=False)

    def inner():
        clock.advance(2.0)
        counted_leaf()
        counted_leaf()

    inner_span = tracer.wrap("solver.inner", inner, record_span=True)

    def outer():
        clock.advance(0.5)
        inner_span()
        clock.advance(0.25)
        counted_leaf()

    outer_span = tracer.wrap("cli.outer", outer, record_span=True)
    tracer.op_id = 4
    outer_span()

    spans = {s.name: s for s in tracer.spans}
    assert spans["cli.outer"].end - spans["cli.outer"].start == pytest.approx(5.75)
    assert spans["cli.outer"].self_s == pytest.approx(0.75)
    assert spans["solver.inner"].self_s == pytest.approx(2.0)
    assert spans["solver.inner"].parent_id == spans["cli.outer"].span_id
    assert spans["cli.outer"].parent_id is None
    assert {s.op_id for s in tracer.spans} == {4}
    assert tracer.calls == {"model.leaf": 3, "solver.inner": 1, "cli.outer": 1}
    layers = tracer.layer_self_s()
    assert set(layers) == set(LAYERS)
    assert layers == {**dict.fromkeys(LAYERS, 0.0), "model": 3.0, "solver": 2.0,
                      "cli": pytest.approx(0.75)}
    assert sum(layers.values()) == pytest.approx(5.75)


def test_install_reaches_internal_bindings_and_uninstall_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import ondemand_pricing
    from ondemand_pricing import queues, solver

    original = solver.price_response
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.price_response is not original
        assert queues.price_response is solver.price_response
        scenario = ondemand_pricing.Scenario(
            classes=(ondemand_pricing.CustomerClass(
                1.0, ondemand_pricing.ExponentialDuration(1.0),
                ondemand_pricing.UniformValuation(0.0, 1.0)),))
        ondemand_pricing.solve_fixed_point(scenario)
    finally:
        tracer.uninstall()
    assert solver.price_response is original and queues.price_response is original
    assert tracer.calls["solver.solve_fixed_point"] == 1
    assert tracer.calls["solver.price_response"] >= 2


def test_oracles_reproduce_the_single_class_optimum():
    doc = inputs.SINGLE_CLASS
    law = doc["classes"][0]["valuation"]
    price = 2.0 - math.sqrt(2.0)
    rate = oracles.loss_rate(doc, [price])
    assert rate == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-15)
    assert oracles.is_best_response(law, price, rate)
    assert not oracles.is_best_response(law, price + 1e-6, rate)


def test_t_quantile_matches_tabulated_values():
    # two-sided 5% points and the 3-SE rate's limit for many degrees of freedom
    for df, expected in ((1, 12.7062047), (2, 4.3026527), (9, 2.2621572), (29, 2.0452296)):
        assert oracles.t_quantile(0.05, df) == pytest.approx(expected, abs=1e-6)
    assert oracles.t_two_sided(3.0, 10**6) == pytest.approx(0.0026998, abs=1e-6)
    assert oracles.t_two_sided(oracles.t_quantile(0.0027, 9), 9) == pytest.approx(0.0027)
