import json
import math
import signal
from pathlib import Path

import pytest

from ondemand_pricing import (
    ConfigError,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialValuation,
    MixtureDiscount,
    PiecewiseLinearValuation,
    UniformValuation,
    load_scenario,
    parse_scenario,
    queue_rate,
    rate_map,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing.cli import _parse_grid, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(Path(path).read_text())


def read_csv_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# --- config parsing ---


def test_load_example_configs():
    two = load_scenario(CONFIGS / "two_class.json")
    assert two.num_classes == 2
    assert two.classes[1].valuation == UniformValuation(0.0, 2.0)

    queue = load_scenario(CONFIGS / "queue.json")
    assert queue.queue_capacity == 1
    assert queue.classes[1].arrival_rate == 0.5

    mix = load_scenario(CONFIGS / "mixture.json")
    assert mix.discount == MixtureDiscount((0.5, 0.5), (1.0, 2.0))
    assert mix.num_classes == 2

    disc = load_scenario(CONFIGS / "discounted.json")
    assert disc.discount == ExponentialDiscount(1.0)

    fleet = load_scenario(CONFIGS / "compete_ranked.json")
    assert [w.rank for w in fleet.workers] == [1, 2]

    flat = load_scenario(CONFIGS / "undifferentiated.json")
    assert [w.rank for w in flat.workers] == [1, 1]


def base_class_doc():
    return {
        "arrival_rate": 1.0,
        "duration": {"kind": "exponential", "params": {"rate": 1.0}},
        "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 1.0}},
    }


def test_unknown_and_missing_keys_report_paths():
    with pytest.raises(ConfigError, match="scenario: unknown key 'extra'"):
        parse_scenario({"classes": [base_class_doc()], "extra": 1})
    doc = base_class_doc()
    doc["color"] = "red"
    with pytest.raises(ConfigError, match=r"classes\[0\]: unknown key 'color'"):
        parse_scenario({"classes": [doc]})
    doc = base_class_doc()
    del doc["valuation"]
    with pytest.raises(ConfigError, match=r"classes\[0\]: missing required key 'valuation'"):
        parse_scenario({"classes": [doc]})
    with pytest.raises(ConfigError, match="missing required key 'classes'"):
        parse_scenario({})


def test_unknown_kind_lists_choices():
    doc = base_class_doc()
    doc["duration"] = {"kind": "weibull", "params": {"k": 2}}
    with pytest.raises(ConfigError, match="unknown kind 'weibull'"):
        parse_scenario({"classes": [doc]})
    doc = base_class_doc()
    doc["valuation"] = {"kind": "normal", "params": {}}
    with pytest.raises(ConfigError, match="unknown kind 'normal'"):
        parse_scenario({"classes": [doc]})


def test_law_params_checked():
    doc = base_class_doc()
    doc["duration"] = {"kind": "exponential", "params": {"rate": 1.0, "shape": 2}}
    with pytest.raises(ConfigError, match="unknown key 'shape'"):
        parse_scenario({"classes": [doc]})
    doc = base_class_doc()
    doc["duration"] = {"kind": "exponential", "params": {}}
    with pytest.raises(ConfigError, match="missing required key 'rate'"):
        parse_scenario({"classes": [doc]})
    doc = base_class_doc()
    doc["duration"] = {"kind": "exponential", "params": {"rate": "fast"}}
    with pytest.raises(ConfigError, match="expected a number"):
        parse_scenario({"classes": [doc]})


def test_all_law_kinds_parse():
    doc = base_class_doc()
    doc["duration"] = {"kind": "deterministic", "params": {"value": 0.5}}
    doc["valuation"] = {
        "kind": "piecewise_linear_cdf",
        "params": {"knots": [[0.0, 0.0], [0.4, 0.2], [1.0, 1.0]]},
    }
    scn = parse_scenario({"classes": [doc]})
    assert scn.classes[0].duration == DeterministicDuration(0.5)
    assert scn.classes[0].valuation == PiecewiseLinearValuation(
        ((0.0, 0.0), (0.4, 0.2), (1.0, 1.0))
    )

    doc = base_class_doc()
    doc["duration"] = {"kind": "empirical", "params": {"samples": [0.5, 1.5]}}
    doc["valuation"] = {"kind": "exponential", "params": {"rate": 2.0}}
    scn = parse_scenario({"classes": [doc]})
    assert scn.classes[0].duration == EmpiricalDuration((0.5, 1.5))
    assert scn.classes[0].valuation == ExponentialValuation(2.0)


def test_bad_knots_reported_with_path():
    doc = base_class_doc()
    doc["valuation"] = {
        "kind": "piecewise_linear_cdf",
        "params": {"knots": [[0.0, 0.0], [0.4]]},
    }
    with pytest.raises(ConfigError, match=r"knots\[1\]"):
        parse_scenario({"classes": [doc]})


def test_worker_rank_defaults_and_rules():
    doc = {"classes": [base_class_doc()], "workers": [{}, {}]}
    scn = parse_scenario(doc)
    assert [w.rank for w in scn.workers] == [1, 2]
    doc = {"classes": [base_class_doc()], "workers": [{"rank": 1}, {}]}
    with pytest.raises(ConfigError, match="rank for every worker or for none"):
        parse_scenario(doc)


def test_discount_parsing():
    assert parse_scenario({"classes": [base_class_doc()]}).discount is None
    doc = {"classes": [base_class_doc()], "discount": {"kind": "none"}}
    assert parse_scenario(doc).discount is None
    doc = {
        "classes": [base_class_doc()],
        "discount": {"kind": "laplace", "params": {}},
    }
    with pytest.raises(ConfigError, match="laplace"):
        parse_scenario(doc)


def test_load_scenario_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(bad)


def test_parse_grid_forms():
    assert _parse_grid("0.5") == [0.5]
    assert _parse_grid("1,2,3.5") == [1.0, 2.0, 3.5]
    lin = _parse_grid("0:1:5")
    assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    log = _parse_grid("1:100:3:log")
    assert log == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(ConfigError):
        _parse_grid("1:2")


# --- CLI commands ---


def test_solve_two_class(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(CONFIGS / "two_class.json"),
                   "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "0.40589" in stdout
    assert "0.702945" in stdout

    payload = read_json(out / "solution.json")
    assert payload["model"] == "loss"
    assert payload["converged"] is True
    assert payload["rate"] == pytest.approx(0.40589, abs=1e-4)

    header, rows = read_csv_rows(out / "trace.csv")
    assert header == ["t", "R_t"]
    achieved = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(achieved, achieved[1:]))

    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 20260815
    assert set(manifest["outputs"]) == {"trace.csv", "solution.json"}
    assert manifest["wall_time_s"] > 0.0
    from ondemand_pricing import __version__
    assert manifest["version"] == __version__


def test_solve_queue(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(CONFIGS / "queue.json"),
                   "--out", str(out)) == 0
    assert "p_A*" in capsys.readouterr().out
    payload = read_json(out / "solution.json")
    assert payload["model"] == "queue"
    assert payload["prices"][1] > payload["prices"][0]
    assert payload["converged"] is True
    assert payload["iterations"] > 0


def test_solve_mixture(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(CONFIGS / "mixture.json"),
                   "--out", str(out)) == 0
    payload = read_json(out / "solution.json")
    assert payload["model"] == "mixture_horizon"
    pa, pb = payload["prices"]
    assert pa == pytest.approx(0.56761, abs=1e-3)
    assert pb == pytest.approx(0.567089, abs=1e-3)
    assert pa != pb


def test_solve_discounted(tmp_path):
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(CONFIGS / "discounted.json"),
                   "--out", str(out)) == 0
    payload = read_json(out / "solution.json")
    assert payload["model"] == "discounted"
    assert payload["value"] == pytest.approx(payload["rate"], abs=1e-12)
    assert (out / "trace.csv").exists()


def piecewise_doc(knots):
    return {
        "classes": [
            {
                "arrival_rate": 1.0,
                "duration": {"kind": "exponential", "params": {"rate": 1.0}},
                "valuation": {"kind": "piecewise_linear_cdf", "params": {"knots": knots}},
            }
        ]
    }


def nan_weight_mixture_doc():
    doc = read_json(CONFIGS / "mixture.json")
    doc["discount"]["params"]["weights"] = [math.nan, 1.0]
    return doc


def bundled_with(name, **keys):
    """A bundled config with some top-level keys added or replaced."""
    return dict(read_json(CONFIGS / name), **keys)


EXPONENTIAL = {"kind": "exponential", "params": {"rate": 1.0}}
MIXTURE = {"kind": "mixture", "params": {"weights": [0.5, 0.5], "rates": [1.0, 2.0]}}

# configs whose shape no model covers: Scenario rejects them at parse time
SHAPELESS_CONFIGS = {
    "queue_exponential.json": bundled_with("queue.json", discount=EXPONENTIAL),
    "queue_mixture.json": bundled_with("queue.json", discount=MIXTURE),
    "queue_two_workers.json": bundled_with("queue.json", workers=[{"rank": 1}, {"rank": 2}]),
    "fleet_exponential.json": bundled_with("compete_ranked.json", discount=EXPONENTIAL),
}


# configs the exit-code tests write into their temporary directory
GENERATED_CONFIGS = {
    "knot_string.json": piecewise_doc([[0, "a"], [1, 1]]),
    "knot_null.json": piecewise_doc([[0, None], [1, 1]]),
    "knot_bool.json": piecewise_doc([[0, 0], [1, True]]),
    "nan_weight.json": nan_weight_mixture_doc(),
    "negative_weight.json": bundled_with(
        "mixture.json",
        discount={"kind": "mixture", "params": {"weights": [-0.5, 1.5], "rates": [1.0, 2.0]}},
    ),
    "zero_rate.json": bundled_with(
        "discounted.json", discount={"kind": "exponential", "params": {"rate": 0.0}}
    ),
    "narrow_flat.json": piecewise_doc([[0.0, 0.0], [0.5, 0.5], [0.50001, 0.5], [1.0, 1.0]]),
    "knot_drop.json": piecewise_doc([[0.0, 0.0], [0.5, 0.50002], [1.0, 1.0]]),
    **SHAPELESS_CONFIGS,
}


def config_path(name):
    """A bundled config, or one of GENERATED_CONFIGS written to the working
    directory."""
    if name not in GENERATED_CONFIGS:
        return str(CONFIGS / name)
    Path(name).write_text(json.dumps(GENERATED_CONFIGS[name]))
    return name


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--config", "nope.json"),
        ("sweep", "--config", "two_class.json", "--param", "rho", "--grid", "x,y"),
        ("sweep", "--config", "two_class.json", "--param", "rho", "--grid", "0:1:x"),
        ("simulate", "--config", "two_class.json", "--prices", "0.5,abc"),
        ("solve", "--config", "compete_ranked.json"),
        ("sweep", "--config", "compete_ranked.json", "--param", "rho", "--grid", "1,2"),
        ("simulate", "--config", "discounted.json", "--trace"),
        ("simulate", "--config", "mixture.json", "--trace"),
        ("simulate", "--config", "queue.json", "--trace"),
        ("solve", "--config", "two_class.json", "--out", "a_file"),
        ("solve", "--config", "knot_string.json"),
        ("solve", "--config", "knot_null.json"),
        ("solve", "--config", "knot_bool.json"),
        ("solve", "--config", "nan_weight.json"),
        ("sweep", "--config", "single_class.json", "--param", "r", "--grid", "0.5,1"),
        ("solve", "--config", "negative_weight.json"),
        ("solve", "--config", "zero_rate.json"),
    ],
    ids=["missing_config", "grid_list", "grid_range", "prices", "solve_fleet", "sweep_fleet",
         "trace_discounted", "trace_mixture", "trace_queue", "out_is_file",
         "knot_string", "knot_null", "knot_bool", "nan_weight", "sweep_r_one_class",
         "negative_weight", "zero_rate"],
)
def test_exit_code_bad_config(tmp_path, monkeypatch, capsys, argv):
    command, flag, name, *rest = argv
    monkeypatch.chdir(tmp_path)
    Path("a_file").write_text("")
    assert run_cli(command, flag, config_path(name), "--out", "o", *rest) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if name.startswith("knot_"):
        # the key path names the offending knot entry
        assert "scenario.classes[0].valuation.params.knots[" in err
    if name in ("nan_weight.json", "negative_weight.json", "zero_rate.json"):
        assert err.startswith("error: scenario.discount.params: ")
    assert not Path("o", "manifest.json").exists()
    if "--trace" in rest:
        # rejected before any solve and before --out is created
        assert not Path("o").exists()


@pytest.mark.parametrize("name", SHAPELESS_CONFIGS)
@pytest.mark.parametrize(
    "command",
    [("solve",), ("simulate",), ("validate",), ("sweep", "--param", "r", "--grid", "0.5,1"),
     ("compete",)],
    ids=["solve", "simulate", "validate", "sweep_r", "compete"],
)
def test_exit_code_shape_no_model_covers(tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.chdir(tmp_path)
    assert run_cli(command[0], "--config", config_path(name), "--out", "o", *command[1:]) == 2
    assert capsys.readouterr().err.startswith("error: scenario.")
    assert not Path("o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--config", "two_class.json", "--param", "r"),
        ("sweep", "--config", "queue.json", "--param", "rho", "--grid", "0.5,1"),
        ("sweep", "--config", "compete_ranked.json", "--param", "gamma", "--grid", "1"),
        ("validate", "--config", "undifferentiated.json"),
        ("simulate", "--config", "undifferentiated.json"),
        ("simulate", "--config", "undifferentiated.json", "--prices", "0.5;0.5"),
    ],
    ids=["sweep_r_loss", "sweep_rho_queue", "sweep_gamma_fleet", "validate_undifferentiated",
         "simulate_undifferentiated", "simulate_undifferentiated_prices"],
)
def test_exit_code_failed_run_makes_no_out(tmp_path, monkeypatch, capsys, argv):
    command, flag, name, *rest = argv
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, flag, config_path(name), "--out", "o", *rest) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not Path("o").exists()


@pytest.mark.parametrize(
    "name, prices, rest",
    [
        ("single_class.json", "nan", ()),
        ("single_class.json", "inf", ()),
        ("single_class.json", "-1", ()),
        ("single_class.json", "nan", ("--trace",)),
        ("queue.json", "nan,0.5", ()),
        ("queue.json", "0.5,inf", ()),
        ("queue.json", "0.5,-1", ()),
        ("compete_ranked.json", "nan;0.4", ()),
        ("compete_ranked.json", "0.6;inf", ()),
        ("compete_ranked.json", "0.6;-1", ()),
        ("compete_ranked.json", "0.6;nan", ("--trace",)),
    ],
)
def test_exit_code_bad_prices(tmp_path, monkeypatch, capsys, name, prices, rest):
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--config", config_path(name), "--prices", prices,
                   "--out", "o", *rest) == 2
    assert capsys.readouterr().err == "error: prices must be finite and nonnegative\n"
    assert not Path("o").exists()


def test_exit_code_validate_zero_rate_queue(tmp_path, capsys):
    doc = json.loads((CONFIGS / "queue.json").read_text())
    for cls in doc["classes"]:
        cls["arrival_rate"] = 0.0
    path = tmp_path / "zero_queue.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_exit_code_irregular(tmp_path, capsys):
    doc = {
        "classes": [
            {
                "arrival_rate": 1.0,
                "duration": {"kind": "exponential", "params": {"rate": 1.0}},
                "valuation": {
                    "kind": "piecewise_linear_cdf",
                    "params": {"knots": [[0.0, 0.0], [0.5, 0.1], [0.6, 0.9], [1.0, 1.0]]},
                },
            }
        ]
    }
    cfg = tmp_path / "irregular.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
    assert "regular" in capsys.readouterr().err


def queue_with(doc_edit):
    doc = read_json(CONFIGS / "queue.json")
    doc_edit(doc)
    return doc


def test_exit_code_irregular_queue(tmp_path, capsys):
    law = piecewise_doc([[0.0, 0.0], [0.5, 0.1], [0.6, 0.9], [1.0, 1.0]])["classes"][0]["valuation"]
    cfg = tmp_path / "irregular_queue.json"
    cfg.write_text(json.dumps(queue_with(lambda doc: doc["classes"][1].update(valuation=law))))
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
    assert "regular" in capsys.readouterr().err


def test_queue_nobody_admitted_reports_positive_zero(tmp_path, capsys):
    # at cost 100 no price in [0, 1] covers the cost, so both classes are shut out
    cfg = tmp_path / "costly_queue.json"
    cfg.write_text(json.dumps(bundled_with("queue.json", workers=[{"cost": 100.0}])))
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
    assert ", rate = 0," in capsys.readouterr().out
    rate = read_json(tmp_path / "o" / "solution.json")["rate"]
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0
    # no admitted arrivals: the renewal cross-check has no cycle to solve
    assert run_cli("validate", "--config", str(cfg), "--out", str(tmp_path / "v")) == 2
    assert capsys.readouterr().err.startswith("error: no admitted arrivals")


def set_service_rates(doc, rates):
    for cls, rate in zip(doc["classes"], rates):
        if rate is not None:
            cls["duration"]["params"]["rate"] = rate


@pytest.mark.parametrize(
    "command, rates, code",
    [
        ("solve", (1e308, None), 0),
        ("validate", (1e308, None), 0),
        # both rates at 1e308: the closed-form rate overflows to NaN everywhere
        ("solve", (1e308, 1e308), 2),
        ("validate", (1e308, 1e308), 2),
        # both rates at 1e-300: the first-step equations are singular in floats
        ("validate", (1e-300, 1e-300), 2),
    ],
    ids=["solve_one_huge", "validate_one_huge", "solve_two_huge", "validate_two_huge",
         "validate_two_tiny"],
)
def test_exit_code_extreme_queue_service_rates(tmp_path, capsys, command, rates, code):
    cfg = tmp_path / "extreme_queue.json"
    cfg.write_text(json.dumps(queue_with(lambda doc: set_service_rates(doc, rates))))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_queue_service_rates_underflow(tmp_path, capsys):
    # at cost 100 nobody is admitted, so (s + mu_A)(s + mu_B) is 1e-600: 0.0 in floats
    doc = bundled_with("queue.json", workers=[{"cost": 100.0}])
    set_service_rates(doc, (1e-300, 1e-300))
    cfg = tmp_path / "tiny_queue.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: queue earning rate is not finite")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, name",
    [("simulate", "two_class.json"), ("validate", "two_class.json"),
     ("validate", "queue.json")],
)
def test_exit_code_overflowing_arrival_rates(tmp_path, capsys, command, name):
    # the rates sum to inf, which would size a horizon of 0 hours
    doc = read_json(CONFIGS / name)
    for cls in doc["classes"]:
        cls["arrival_rate"] = 1e308
    cfg = tmp_path / "crowded.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("error: cannot size a horizon")
    assert not (tmp_path / "o").exists()


def test_mixture_priced_out_reports_positive_zero(tmp_path, capsys):
    # at cost 100 no price in [0, 1] covers the cost: pricing every class out
    # earns 0, more than the ascent, which stops just inside the supports
    cfg = tmp_path / "costly_mixture.json"
    cfg.write_text(json.dumps(bundled_with("mixture.json", workers=[{"cost": 100.0}])))
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
    assert capsys.readouterr().out == "mixture-horizon optimum: prices = 1, 1, value = 0\n"
    payload = read_json(tmp_path / "o" / "solution.json")
    assert payload["prices"] == [1.0, 1.0]
    assert payload["value"] == 0.0 and math.copysign(1.0, payload["value"]) == 1.0
    assert run_cli("validate", "--config", str(cfg), "--out", str(tmp_path / "v")) == 0
    assert capsys.readouterr().out.startswith("[PASS] mixture_value_vs_simulation: analytic 0,")


class Overrun(Exception):
    """A case ran past its time budget. Not an OSError, which main maps to exit 2."""


@pytest.fixture
def time_budget():
    """Fail a case that runs past 10 s instead of hanging the whole run."""
    def expire(signum, frame):
        raise Overrun("past the 10 s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def edited(name, edit):
    """A bundled config changed in place by `edit`."""
    doc = read_json(CONFIGS / name)
    edit(doc)
    return doc


def set_high(index, high):
    def edit(doc):
        doc["classes"][index]["valuation"]["params"]["high"] = high
    return edit


@pytest.mark.parametrize(
    "command, high, codes",
    [
        ("solve", 1e12, (0,)),
        ("validate", 1e12, (0, 1)),  # the verdict is statistical: the case checks the run ends
        ("simulate", 1e12, (0,)),
        ("solve", 1e308, (0,)),
        # the simulated values overflow to inf
        ("validate", 1e308, (2,)),
        ("simulate", 1e308, (2,)),
    ],
    ids=["solve_1e12", "validate_1e12", "simulate_1e12",
         "solve_1e308", "validate_1e308", "simulate_1e308"],
)
def test_exit_code_huge_mixture_valuation(tmp_path, capsys, time_budget, command, high, codes):
    # far from 0 one ulp of the golden-section bracket exceeds its tolerance
    cfg = tmp_path / "wide_mixture.json"
    cfg.write_text(json.dumps(edited("mixture.json", set_high(0, high))))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) in codes


def set_discount_rate(doc):
    doc["discount"]["params"]["rate"] = 1e308


def set_branch_rate(doc):
    doc["discount"]["params"]["rates"][1] = 1e308


def set_duration_rate(doc):
    doc["classes"][0]["duration"]["params"]["rate"] = 5e-324


EXTREME_RUNS = {
    # 40 inverse discount rates make more windows than int64 can number
    "simulate_discount_rate": (("simulate",), edited("discounted.json", set_discount_rate),
                               "error: discount rate 1e+308 cuts"),
    "validate_discount_rate": (("validate",), edited("discounted.json", set_discount_rate),
                               "error: discount rate 1e+308 cuts"),
    "validate_branch_rate": (("validate",), edited("mixture.json", set_branch_rate),
                             "error: discount rate 1e+308 cuts"),
    "simulate_inf_value": (("simulate", "--prices", "1,5e307"),
                           edited("mixture.json", set_high(1, 1e308)),
                           "error: simulated value is not finite"),
    # every state's exit rate underflows
    "dynamics_tiny_duration_rate": (("compete", "--dynamics"),
                                    edited("undifferentiated.json", set_duration_rate),
                                    "error: the busy-set chain is singular"),
    "dynamics_high_1e12": (("compete", "--dynamics"),
                           edited("undifferentiated.json", set_high(0, 1e12)),
                           "error: valuation high 1000000000000.0:"),
    "dynamics_high_1e308": (("compete", "--dynamics"),
                            edited("undifferentiated.json", set_high(0, 1e308)),
                            "error: valuation high 1e+308:"),
}


@pytest.mark.parametrize("case", EXTREME_RUNS)
def test_exit_code_extreme_runs(tmp_path, capsys, time_budget, case):
    (command, *rest), doc, message = EXTREME_RUNS[case]
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(cfg), *rest, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["narrow_flat.json", "knot_drop.json"])
def test_exit_code_irregular_between_grid_points(tmp_path, monkeypatch, capsys, name):
    # a flat stretch of width 1e-5 and a 4e-5 drop at a knot, both narrower
    # than a 10 000-point scan of the support can see
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--config", config_path(name), "--out", "o") == 3
    assert "regular" in capsys.readouterr().err


def test_sweep_r_reproduces_price_crossing(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(CONFIGS / "queue.json"),
                   "--param", "r", "--grid", "0.5,1,2", "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "sweep_r.csv")
    assert header == ["r", "p_A_star", "p_B_star", "rate"]
    by_r = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert by_r[0.5][1] > by_r[0.5][0]
    assert abs(by_r[1.0][1] - by_r[1.0][0]) < 1e-5
    assert by_r[2.0][1] < by_r[2.0][0]


def test_sweep_reserve_matches_rate_map(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(CONFIGS / "two_class.json"),
                   "--param", "reserve", "--grid", "0:2:5", "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "sweep_reserve.csv")
    assert header == ["reserve", "achieved_rate"]
    scn = load_scenario(CONFIGS / "two_class.json")
    for raw in rows:
        reserve, achieved = float(raw[0]), float(raw[1])
        assert achieved == rate_map(scn, reserve)[0]


def test_sweep_single_point_equals_solve(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(CONFIGS / "two_class.json"),
                   "--param", "rho", "--grid", "1.0", "--out", str(out)) == 0
    _, rows = read_csv_rows(out / "sweep_rho.csv")
    sol = solve_fixed_point(load_scenario(CONFIGS / "two_class.json"))
    assert float(rows[0][-1]) == sol.rate
    assert float(rows[0][1]) == sol.prices[0]


def test_sweep_gamma(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(CONFIGS / "discounted.json"),
                   "--param", "gamma", "--grid", "0.5,1,2", "--out", str(out)) == 0
    header, rows = read_csv_rows(out / "sweep_gamma.csv")
    assert header == ["gamma", "p_1", "rate", "value"]
    scn = load_scenario(CONFIGS / "discounted.json")
    for raw in rows:
        g = float(raw[0])
        sol = solve_discounted(
            parse_scenario(
                {
                    "classes": [base_class_doc()],
                    "discount": {"kind": "exponential", "params": {"rate": g}},
                }
            )
        )
        assert float(raw[1]) == pytest.approx(sol.prices[0], abs=1e-12)
        assert float(raw[3]) == pytest.approx(sol.value, abs=1e-12)


def test_sweep_beta_scales_prices(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", str(CONFIGS / "two_class.json"),
                   "--param", "beta", "--grid", "0.8,1.0", "--out", str(out)) == 0
    _, rows = read_csv_rows(out / "sweep_beta.csv")
    by_beta = {float(r[0]): [float(x) for x in r[1:]] for r in rows}
    # the whole problem is homogeneous in the retained fraction
    for i in range(3):
        assert by_beta[0.8][i] == pytest.approx(0.8 * by_beta[1.0][i], abs=1e-9)


def test_sweep_requires_grid_for_non_r(tmp_path):
    assert run_cli("sweep", "--config", str(CONFIGS / "two_class.json"),
                   "--param", "rho", "--out", str(tmp_path / "o")) == 2


def test_simulate_repeat_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("simulate", "--config", str(CONFIGS / "single_class.json"),
                       "--prices", "0.6", "--seed", "7", "--out", str(out)) == 0
    assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()


def test_simulate_solved_prices_with_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(CONFIGS / "two_class.json"),
                   "--trace", "--out", str(out)) == 0
    assert "simulated rate" in capsys.readouterr().out
    payload = read_json(out / "stats.json")
    sol = solve_fixed_point(load_scenario(CONFIGS / "two_class.json"))
    assert payload["prices"] == pytest.approx(list(sol.prices), abs=1e-12)
    stats = payload["stats"]
    assert abs(stats["mean"] - sol.rate) < 4 * (stats["mean"] - stats["ci_low"]) / 1.96
    assert (out / "events.csv").exists()


def test_simulate_queue_routing(tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(CONFIGS / "queue.json"),
                   "--prices", "0.62,0.62", "--out", str(out)) == 0
    payload = read_json(out / "stats.json")
    scn = load_scenario(CONFIGS / "queue.json")
    want = queue_rate(scn, 0.62, 0.62)
    se = (payload["stats"]["mean"] - payload["stats"]["ci_low"]) / 1.96
    assert abs(payload["stats"]["mean"] - want) < 3.5 * se


def test_simulate_fleet_prices(tmp_path):
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(CONFIGS / "compete_ranked.json"),
                   "--prices", "0.6;0.4", "--out", str(out)) == 0
    payload = read_json(out / "stats.json")
    assert payload["prices"] == [[0.6], [0.4]]
    assert len(payload["stats"]["per_worker_mean"]) == 2


def test_compete_equilibrium(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("compete", "--config", str(CONFIGS / "compete_ranked.json"),
                   "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "rank 1" in stdout and "rank 2" in stdout
    payload = read_json(out / "equilibrium.json")
    assert payload["mode"] == "equilibrium"
    top = payload["workers"][0]
    assert top["rank"] == 1
    assert top["prices"][0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-9)
    assert all(worker["converged"] is True for worker in payload["workers"])
    assert "deviation_scans" not in payload


def test_compete_undifferentiated_has_no_equilibrium(tmp_path, capsys):
    assert run_cli("compete", "--config", str(CONFIGS / "undifferentiated.json"),
                   "--out", str(tmp_path / "o")) == 4
    assert "no pure price equilibrium" in capsys.readouterr().err


def test_compete_dynamics_reports_cycle(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("compete", "--config", str(CONFIGS / "undifferentiated.json"),
                   "--dynamics", "--out", str(out)) == 0
    assert "cycles" in capsys.readouterr().out
    payload = read_json(out / "dynamics.json")
    assert payload["mode"] == "dynamics"
    assert payload["fixed_profile"] is None
    assert payload["cycle_length"] > 1
    assert payload["rounds_run"] <= 100
    assert payload["trajectory"][payload["cycle_start"]] == payload["trajectory"][-1]


def test_validate_passes_on_benchmarks(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("validate", "--config", str(CONFIGS / "two_class.json"),
                   "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] fixed_point_consistency" in stdout
    assert "[PASS] loss_rate_vs_simulation" in stdout
    assert "[FAIL]" not in stdout
    checks = read_json(out / "validate.json")
    assert all(c["passed"] for c in checks)
    # manifest is still written so the run is reproducible
    assert read_json(out / "manifest.json")["command"] == "validate"


def test_validate_queue_cross_derivation(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("validate", "--config", str(CONFIGS / "queue.json"),
                   "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] queue_closed_form_vs_renewal_equations" in stdout
    assert "[PASS] queue_rate_vs_simulation" in stdout


def test_validate_detects_broken_closed_form(tmp_path, capsys, monkeypatch):
    # deliberately corrupt the closed form: validation must notice and exit 1
    import ondemand_pricing.cli as cli_mod

    real = cli_mod.queue_rate
    monkeypatch.setattr(cli_mod, "queue_rate", lambda scn, a, b: real(scn, a, b) + 0.05)
    out = tmp_path / "out"
    assert run_cli("validate", "--config", str(CONFIGS / "queue.json"),
                   "--out", str(out)) == 1
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    checks = read_json(out / "validate.json")
    assert not all(c["passed"] for c in checks)
