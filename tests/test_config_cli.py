import argparse
import copy
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from ondemand_pricing import (
    ConfigError,
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDiscount,
    ExponentialValuation,
    MixtureDiscount,
    ModelMismatch,
    PiecewiseLinearValuation,
    Scenario,
    UniformValuation,
    avg_earning_rate,
    discounted_value,
    fleet_rates,
    load_scenario,
    mixture_horizon_optimize,
    mixture_horizon_value,
    parse_scenario,
    queue_optimize,
    queue_rate,
    ranked_price_equilibrium,
    rate_map,
    solve_discounted,
    solve_fixed_point,
)
from ondemand_pricing import cli
from ondemand_pricing.cli import DEFAULT_SEED, _build_parser, _parse_grid, main
from ondemand_pricing.model import apply_commission

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


def test_load_scenario_refuses_what_json_cannot_read(tmp_path):
    # a file that is not UTF-8, an integer past Python's digit limit, and
    # nesting past the recursion limit
    for name, content in (("binary.json", b"\xff\xfe"),
                          ("digits.json", b'{"classes": ' + b"1" * 5000 + b"}"),
                          ("deep.json", b"[" * 100_000)):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read config|invalid JSON"):
            load_scenario(path)


# --- config type and shape mutations ---

# Each key path of each bundled config is set to each of these, and deleted.
TYPE_MUTATIONS = (None, True, "x", [], [1], {}, {"a": 1}, 0, -1, 10**400, 1e308, 0.5,
                  [[0, 0]], ["a"])
BUNDLED = sorted(p.name for p in CONFIGS.glob("*.json"))
DELETE = object()


def key_paths(node, prefix=()):
    """Every key path below a JSON value, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def mutated(doc, path, value=DELETE):
    """A copy of `doc` with the key at `path` set to `value`, or deleted."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def mutation_outcomes(name):
    """Each mutation of a bundled config, labelled by key path and value
    index: "ok", the ConfigError's message, or the name of any other
    exception."""
    doc = read_json(CONFIGS / name)
    outcomes = {}
    for path in key_paths(doc):
        for i, value in enumerate((*TYPE_MUTATIONS, DELETE)):
            label = f"{name}:{'.'.join(map(str, path))}:{i}"
            try:
                parse_scenario(mutated(doc, path, value))
                outcomes[label] = "ok"
            except ConfigError as exc:
                outcomes[label] = f"ConfigError: {exc}"
            except Exception as exc:
                outcomes[label] = type(exc).__name__
    return outcomes


@pytest.mark.parametrize("name", BUNDLED)
def test_config_mutations_end_in_a_scenario_or_config_error(name):
    outcomes = mutation_outcomes(name)
    assert len(outcomes) >= 12 * 15  # the smallest config has 12 key paths
    crashed = {label: out for label, out in outcomes.items()
               if out != "ok" and not out.startswith("ConfigError: ")}
    assert crashed == {}


def test_config_errors_do_not_depend_on_the_hash_seed():
    # the first missing key is the first the table lists, under any seed
    doc = base_class_doc()
    doc["valuation"]["params"] = {}
    with pytest.raises(ConfigError, match="missing required key 'low'"):
        parse_scenario({"classes": [doc]})
    root = Path(__file__).resolve().parent.parent
    script = ("import json, sys; from tests.test_config_cli import BUNDLED, mutation_outcomes; "
              "json.dump({k: v for n in BUNDLED for k, v in mutation_outcomes(n).items()}, "
              "sys.stdout)")
    path = os.pathsep.join([str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])
    runs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", script], cwd=root, capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        ).stdout)
        for seed in ("0", "1")
    ]
    assert len(runs[0]) > 2000
    assert {k: (v, runs[1][k]) for k, v in runs[0].items() if v != runs[1][k]} == {}


@pytest.mark.parametrize("path, value", [
    (("classes", 0, "valuation", "kind"), []),
    (("classes", 0, "arrival_rate"), 10**400),
], ids=["kind_list", "arrival_rate_past_float"])
def test_exit_code_config_types(tmp_path, capsys, path, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(mutated(read_json(CONFIGS / "single_class.json"), path, value)))
    assert run_cli("solve", "--config", str(config), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario.classes[0].") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_parse_grid_forms():
    assert _parse_grid("0.5") == [0.5]
    assert _parse_grid("1,2,3.5") == [1.0, 2.0, 3.5]
    lin = _parse_grid("0:1:5")
    assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    log = _parse_grid("1:100:3:log")
    assert log == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(ConfigError):
        _parse_grid("1:2")
    # degenerate ranges are refused before numpy runs: no points, a
    # non-finite end or span, a log end at or below zero, more points than
    # the 100 000 a range takes (numpy would allocate 745 GiB for the first)
    for spec in ("1:2:0", "1:2:-3", "1e400:2:3", "1:-1e400:3", "nan:1:3",
                 "-1e308:1e308:3", "0:1:3:log", "1:-2:3:log", "1e400:1:3:log",
                 "1:2:99999999999", "1:2:100001", "1:2:100001:log"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="bad grid spec"):
                _parse_grid(spec)
    assert _parse_grid("2:2:1") == [2.0]
    assert len(_parse_grid("1:2:100000")) == 100_000
    assert _parse_grid("3:3:1:log") == pytest.approx([3.0])


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


# One run of each subcommand: (arguments after --config, config, files written).
MANIFEST_RUNS = {
    "solve": ((), "two_class.json", ["trace.csv", "solution.json"]),
    "sweep": (("--param", "rho", "--grid", "0.5,2"), "two_class.json", ["sweep_rho.csv"]),
    "simulate": (("--prices", "0.6,0.6"), "queue.json", ["stats.json"]),
    "compete": (("--dynamics",), "undifferentiated.json", ["dynamics.json"]),
    "validate": ((), "mixture.json", ["validate.json"]),
}


@pytest.mark.parametrize("command", MANIFEST_RUNS)
def test_manifest_records_the_run(tmp_path, capsys, command):
    from ondemand_pricing import __version__
    rest, name, outputs = MANIFEST_RUNS[command]
    out = tmp_path / "out"
    config = str(CONFIGS / name)
    assert run_cli(command, "--config", config, *rest, "--out", str(out)) == 0
    manifest = read_json(out / "manifest.json")
    assert sorted(manifest) == ["command", "config", "outputs", "seed", "version",
                                "wall_time_s"]
    assert manifest["command"] == command
    assert manifest["config"] == config
    assert type(manifest["seed"]) is int and manifest["seed"] == DEFAULT_SEED
    assert manifest["outputs"] == outputs
    assert all((out / file).is_file() for file in outputs)
    assert manifest["version"] == __version__
    assert type(manifest["wall_time_s"]) is float and manifest["wall_time_s"] > 0.0


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
    assert payload["converged"] is True
    assert payload["iterations"] > 0


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
        ("simulate", "--config", "two_class.json", "--seed", "-1"),
        ("validate", "--config", "two_class.json", "--seed", "-1"),
        ("compete", "--config", "compete_ranked.json", "--verify", "--seed", "-1"),
    ],
    ids=["missing_config", "grid_list", "grid_range", "prices", "solve_fleet", "sweep_fleet",
         "trace_discounted", "trace_mixture", "trace_queue", "out_is_file",
         "knot_string", "knot_null", "knot_bool", "nan_weight", "sweep_r_one_class",
         "negative_weight", "zero_rate", "negative_seed_simulate", "negative_seed_validate",
         "negative_seed_compete_verify"],
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
    if "--seed" in rest:
        assert err == "error: seed must be non-negative, not -1\n"
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


@pytest.mark.parametrize(
    "name, prices, message",
    [
        ("queue.json", "0.5", "queue simulation takes exactly two prices"),
        ("queue.json", "0.5,0.5,0.5", "queue simulation takes exactly two prices"),
        ("two_class.json", "0.5;0.5", "single-worker scenario takes one price row"),
    ],
)
def test_exit_code_price_list_of_the_wrong_shape(tmp_path, monkeypatch, capsys, name, prices,
                                                  message):
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--config", config_path(name), "--prices", prices,
                   "--out", "o") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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
    # prices far from 0: the solve and the runs end within the time budget
    cfg = tmp_path / "wide_mixture.json"
    cfg.write_text(json.dumps(edited("mixture.json", set_high(0, high))))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) in codes


def set_discount_rate(doc):
    doc["discount"]["params"]["rate"] = 1e308


def set_branch_rate(doc):
    doc["discount"]["params"]["rates"][1] = 1e308


def set_discount(rate):
    def edit(doc):
        doc["discount"]["params"]["rate"] = rate
    return edit


def set_unlikely_branch_rate(doc):
    # a branch no replication of the default seed draws
    doc["discount"]["params"] = {"weights": [1.0 - 1e-9, 1e-9], "rates": [1.0, 1e-300]}


def set_overflowing_mixture(doc):
    for cls in doc["classes"]:
        cls["valuation"]["params"]["high"] = 1e308
    doc["discount"]["params"]["rates"] = [0.01, 0.02]


def set_duration_rate(doc):
    doc["classes"][0]["duration"]["params"]["rate"] = 5e-324


def set_overflowing_loads(doc):
    for cls in doc["classes"]:
        cls["arrival_rate"] = 1e308
        cls["duration"]["params"]["rate"] = 1e-300


# Rates near 1e199, whose squares overflow: each run must still report a
# finite standard error.
HUGE_HIGH_RUNS = {
    "simulate_single_class": (("simulate",), "single_class.json"),
    "simulate_compete_ranked": (("simulate",), "compete_ranked.json"),
    "validate_single_class": (("validate",), "single_class.json"),
    "validate_compete_ranked": (("validate",), "compete_ranked.json"),
    "verify_compete_ranked": (("compete", "--verify"), "compete_ranked.json"),
}


@pytest.mark.parametrize("case", HUGE_HIGH_RUNS)
def test_runs_at_high_1e200_report_finite_standard_errors(tmp_path, capsys, time_budget,
                                                          case):
    (command, *rest), name = HUGE_HIGH_RUNS[case]
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(edited(name, set_high(0, 1e200))))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), *rest, "--out", str(out)) in (0, 1)
    if command == "simulate":
        ses = [read_json(out / "stats.json")["stats"]["se"]]
    elif command == "validate":
        # the simulation check's detail ends with its bound, a multiple of the SE
        detail = read_json(out / "validate.json")[-1]["detail"]
        ses = [float(detail.rsplit(" ", 1)[1].rstrip(")"))]
    else:
        scans = read_json(out / "equilibrium.json")["deviation_scans"]
        ses = [scan["baseline_se"] for scan in scans]
        ses += [point[key] for scan in scans for point in scan["points"]
                for key in ("se", "delta_se") if point["delta"] != 0.0]
    assert len(ses) > 0
    assert all(math.isfinite(se) and se > 1e190 for se in ses)


def set_nine_workers(doc):
    doc["workers"] = [{"rank": 1}] * 9


EXTREME_RUNS = {
    # 40 inverse discount rates make more windows than int64 can number
    "simulate_discount_rate": (("simulate",), edited("discounted.json", set_discount_rate),
                               "error: discount rate 1e+308 cuts"),
    "validate_discount_rate": (("validate",), edited("discounted.json", set_discount_rate),
                               "error: discount rate 1e+308 cuts"),
    "validate_branch_rate": (("validate",), edited("mixture.json", set_branch_rate),
                             "error: discount rate 1e+308 cuts"),
    # a horizon shorter than one window of 40 inverse discount rates
    "validate_discount_rate_1e-4": (("validate",), edited("discounted.json", set_discount(1e-4)),
                                    "error: discount rate 0.0001 cuts"),
    "simulate_discount_rate_1e-300": (("simulate",),
                                      edited("discounted.json", set_discount(1e-300)),
                                      "error: discount rate 1e-300 cuts"),
    # every rate of the mixture is checked before the first draw
    "simulate_unlikely_branch_rate": (("simulate", "--prices", "0.5,0.5"),
                                      edited("mixture.json", set_unlikely_branch_rate),
                                      "error: discount rate 1e-300 cuts"),
    "simulate_mixture_overflow": (("simulate",), edited("mixture.json", set_overflowing_mixture),
                                  "error: simulated value is not finite"),
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
    # a round of 9 workers' chains, refused before the first one is built
    "dynamics_nine_workers": (("compete", "--dynamics"),
                              edited("undifferentiated.json", set_nine_workers),
                              "error: best-response dynamics of 9 workers on a 101-point"),
    # loads of 1e308 * 1e300: the fixed point's first step overflows
    "solve_rate_overflow": (("solve",), edited("two_class.json", set_overflowing_loads),
                            "error: earning rate is not finite at prices (0.5, 1.0)\n"),
    # every simulated rate overflows, so no deviation gain can be tested
    "verify_high_1e308": (("compete", "--verify"),
                          edited("compete_ranked.json", set_high(0, 1e308)),
                          "error: simulated baseline rate is not finite"),
}


@pytest.mark.parametrize("case", EXTREME_RUNS)
def test_exit_code_extreme_runs(tmp_path, capsys, time_budget, case):
    (command, *rest), doc, message = EXTREME_RUNS[case]
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(cfg), *rest, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "o").exists()


def test_compete_verify_refuses_a_multi_class_fleet_before_it_solves(tmp_path, capsys):
    # the scan takes one class: refused before the equilibrium is solved or printed
    doc = edited("compete_ranked.json", lambda doc: doc["classes"].append(doc["classes"][0]))
    cfg = tmp_path / "two_classes.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("compete", "--config", str(cfg), "--verify",
                   "--out", str(tmp_path / "o")) == 2
    out, err = capsys.readouterr()
    assert err == "error: deviation_scan supports single-class scenarios\n"
    assert out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["simulate_inf_value", "verify_high_1e308",
                                  "simulate_mixture_overflow"])
def test_overflowing_runs_print_no_numpy_warning(tmp_path, capsys, time_budget, case):
    # the simulated sums overflow; the error line must be all stderr says
    (command, *rest), doc, _ = EXTREME_RUNS[case]
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, "--config", str(cfg), *rest,
                       "--out", str(tmp_path / "o")) == 2
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("high, outcome", [
    (3.0, "best-response dynamics cycles: length "),
    (10.0, "best-response dynamics open after 100 rounds"),
], ids=["high_3", "high_10"])
def test_compete_dynamics_wide_support_in_budget(tmp_path, capsys, time_budget, high, outcome):
    # grids of 301 and 1001 points: each worker's sweep is one stacked chain solve
    cfg = tmp_path / "wide_undifferentiated.json"
    cfg.write_text(json.dumps(edited("undifferentiated.json", set_high(0, high))))
    assert run_cli("compete", "--config", str(cfg), "--dynamics",
                   "--out", str(tmp_path / "o")) == 0
    assert capsys.readouterr().out.startswith(outcome)


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


@pytest.mark.parametrize("param, grid", [
    ("rho", "1:2:0"),
    ("rho", "1e400:2:3"),
    ("rho", "0:1:3:log"),
    ("reserve", "nan"),
    ("rho", "1:2:99999999999"),
], ids=["no_points", "infinite_end", "log_zero_end", "nan_reserve", "huge_range"])
def test_sweep_refuses_a_degenerate_grid(tmp_path, capsys, param, grid):
    # exit 2 with the error as stderr's first line, and no output written
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("sweep", "--config", str(CONFIGS / "two_class.json"),
                       "--param", param, "--grid", grid, "--out", str(tmp_path / "o")) == 2
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


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


SWEEP_SOLVERS = ("solve_fixed_point", "solve_discounted", "_queue_solve")


@pytest.mark.parametrize("param, name, solver", [
    ("rho", "two_class.json", "solve_fixed_point"),
    ("beta", "two_class.json", "solve_fixed_point"),
    ("gamma", "discounted.json", "solve_discounted"),
    ("r", "queue.json", "_queue_solve"),
])
def test_sweeps_solve_through_the_current_bindings(tmp_path, monkeypatch, param, name, solver):
    # a tracer or a test that rebinds a solver in cli must see every sweep's solves
    calls = dict.fromkeys(SWEEP_SOLVERS, 0)

    def counting(attr):
        solve = getattr(cli, attr)

        def counted(scenario):
            calls[attr] += 1
            return solve(scenario)

        return counted

    for attr in SWEEP_SOLVERS:
        monkeypatch.setattr(cli, attr, counting(attr))
    assert run_cli("sweep", "--config", str(CONFIGS / name), "--param", param,
                   "--grid", "0.5,0.8,1", "--out", str(tmp_path / "o")) == 0
    assert calls == {attr: 3 if attr == solver else 0 for attr in SWEEP_SOLVERS}


# --- commission: every command prices in net (retained) rates ---


def with_retention(name, *retentions):
    """A bundled config whose workers keep the given shares of each price."""
    doc = read_json(CONFIGS / name)
    workers = doc.get("workers", [{}])
    doc["workers"] = [dict(w, commission_retention=r) for w, r in zip(workers, retentions)]
    return doc


def prescaled(name, retention):
    """A bundled config with its uniform valuations written in net rates."""
    doc = read_json(CONFIGS / name)
    for cls in doc["classes"]:
        params = cls["valuation"]["params"]
        params["low"], params["high"] = retention * params["low"], retention * params["high"]
    return doc


@pytest.mark.parametrize("retention", [0.5, 0.8, 0.37])
@pytest.mark.parametrize("name", ["single_class.json", "two_class.json"])
def test_solve_with_retention_equals_sweep_beta(tmp_path, name, retention):
    config = tmp_path / "kept.json"
    config.write_text(json.dumps(with_retention(name, retention)))
    assert run_cli("solve", "--config", str(config), "--out", str(tmp_path / "s")) == 0
    assert run_cli("sweep", "--config", str(CONFIGS / name), "--param", "beta",
                   "--grid", repr(retention), "--out", str(tmp_path / "b")) == 0
    sol = read_json(tmp_path / "s" / "solution.json")
    _, rows = read_csv_rows(tmp_path / "b" / "sweep_beta.csv")
    assert [float(x).hex() for x in (*sol["prices"], sol["rate"])] == \
        [float(x).hex() for x in rows[0][1:]]


@pytest.mark.parametrize("name, argv, output", [
    ("compete_ranked.json", ["simulate"], "stats.json"),
    ("compete_ranked.json", ["compete"], "equilibrium.json"),
    ("compete_ranked.json", ["validate"], "validate.json"),
    ("undifferentiated.json", ["compete", "--dynamics"], "dynamics.json"),
    ("single_class.json", ["simulate", "--trace"], "events.csv"),
])
def test_retention_runs_as_prescaled_valuations(tmp_path, capsys, name, argv, output):
    kept, net = tmp_path / "kept.json", tmp_path / "net.json"
    workers = len(read_json(CONFIGS / name).get("workers", [{}]))
    kept.write_text(json.dumps(with_retention(name, *[0.5] * workers)))
    net.write_text(json.dumps(prescaled(name, 0.5)))
    written = []
    for config in (kept, net):
        out = tmp_path / config.stem
        assert run_cli(*argv, "--config", str(config), "--seed", "7", "--out", str(out)) == 0
        written.append((out / output).read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("argv", [
    ["solve"], ["sweep", "--param", "rho", "--grid", "1"], ["simulate"],
    ["simulate", "--prices", "0.6;0.4"], ["compete"], ["compete", "--dynamics"],
    ["validate"],
])
def test_mixed_retentions_exit_2_in_every_command(tmp_path, capsys, argv):
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps(with_retention("compete_ranked.json", 0.9, 0.8)))
    assert run_cli(*argv, "--config", str(config), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "error: workers must share one commission retention\n"
    assert not (tmp_path / "o").exists()


def test_a_shape_fault_is_named_before_mixed_retentions():
    doc = dict(with_retention("compete_ranked.json", 0.9, 0.8), queue_capacity=1)
    with pytest.raises(ConfigError, match="^scenario.queue_capacity: the queue takes a single"):
        parse_scenario(doc)


def _prices_and_rate(solve):
    def run(scenario):
        sol = solve(scenario)
        return sol.prices, sol.rate

    return run


# Each single-worker kind's public solver, returning its prices and the
# solution.json field (rate, or value for a mixture) it must match.
LIBRARY_SOLVES = {
    "single_class.json": (_prices_and_rate(solve_fixed_point), "rate"),
    "two_class.json": (_prices_and_rate(solve_fixed_point), "rate"),
    "discounted.json": (_prices_and_rate(solve_discounted), "rate"),
    "mixture.json": (mixture_horizon_optimize, "value"),
    "queue.json": (queue_optimize, "rate"),
}


@pytest.mark.parametrize("retention", [0.5, 0.8])
@pytest.mark.parametrize("name", sorted(LIBRARY_SOLVES))
def test_library_and_cli_solve_a_commission_alike(tmp_path, name, retention):
    config = tmp_path / "kept.json"
    config.write_text(json.dumps(with_retention(name, retention)))
    solve, field = LIBRARY_SOLVES[name]
    prices, rate = solve(load_scenario(config))
    assert run_cli("solve", "--config", str(config), "--out", str(tmp_path / "o")) == 0
    sol = read_json(tmp_path / "o" / "solution.json")
    assert [x.hex() for x in (*prices, rate)] == \
        [float(x).hex() for x in (*sol["prices"], sol[field])]


@pytest.mark.parametrize("retention", [0.5, 0.8])
def test_library_and_cli_rank_a_commission_alike(tmp_path, retention):
    # the reader applies the share and the equilibrium does not apply it again
    config = tmp_path / "kept.json"
    config.write_text(json.dumps(with_retention("compete_ranked.json", retention, retention)))
    eq = ranked_price_equilibrium(load_scenario(config))
    assert run_cli("compete", "--config", str(config), "--out", str(tmp_path / "o")) == 0
    written = read_json(tmp_path / "o" / "equilibrium.json")["workers"]
    assert json.loads(json.dumps([asdict(o) for o in eq.outcomes])) == written


# ROADMAP item 5's numeric values, as JSON tokens, for the one config key no
# bundled config sets: 10**400 is an integer past the float range.
RETENTION_TOKENS = ("0", "-0.0", "5e-324", "1e-300", "1e-12", "0.5", "1",
                    repr(1.0 + 2.0**-52), "-1", "NaN", "Infinity", str(10**400))


@pytest.mark.parametrize("token", RETENTION_TOKENS)
@pytest.mark.parametrize("name", BUNDLED)
def test_every_retention_keeps_the_exit_code_contract(tmp_path, capsys, time_budget, name,
                                                      token):
    doc = read_json(CONFIGS / name)
    doc["workers"] = [dict(w, commission_retention="?") for w in doc.get("workers", [{}])]
    text = json.dumps(doc).replace('"?"', token)
    try:
        parse_scenario(json.loads(text))
    except ConfigError:
        pass
    config = tmp_path / "kept.json"
    config.write_text(text)
    for command in ("solve", "simulate", "compete", "validate"):
        code = run_cli(command, "--config", str(config), "--out", str(tmp_path / command))
        err = capsys.readouterr().err
        # 0 and 1 (a failed check) print no error; 2, 3 and 4 exactly one line
        assert code in (0, 1, 2, 3, 4)
        assert err.count("error: ") == err.count("\n") == (code >= 2)
        assert err.startswith("error: ") or not err


@pytest.mark.parametrize("name", ["discounted.json", "mixture.json", "queue.json"])
def test_net_rates_keep_discount_and_queue_room(name):
    gross = parse_scenario(read_json(CONFIGS / name))
    net = parse_scenario(with_retention(name, 0.5))
    assert (net.kind, net.discount, net.queue_capacity, net.workers) == \
        (gross.kind, gross.discount, gross.queue_capacity, gross.workers)
    assert net.classes == tuple(apply_commission(cls, 0.5) for cls in gross.classes)
    assert parse_scenario(with_retention(name, 1.0)) == gross


def test_simulate_repeat_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("simulate", "--config", str(CONFIGS / "single_class.json"),
                       "--prices", "0.6", "--seed", "7", "--out", str(out)) == 0
    assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()


def test_successive_runs_in_one_process_share_no_parsed_state(tmp_path, capsys):
    # the parser is built once per process, and each run reads only its own flags
    assert _build_parser() is _build_parser()
    two_class = str(CONFIGS / "two_class.json")
    traced, plain, bad, good, bare = (tmp_path / name
                                      for name in ("traced", "plain", "bad", "good", "bare"))
    assert run_cli("simulate", "--config", two_class, "--prices", "0.5,0.9", "--trace",
                   "--seed", "7", "--out", str(traced)) == 0
    assert run_cli("simulate", "--config", two_class, "--prices", "0.5,0.9",
                   "--out", str(plain)) == 0
    assert (traced / "events.csv").exists()
    assert read_json(plain / "manifest.json")["outputs"] == ["stats.json"]
    assert not (plain / "events.csv").exists()
    assert read_json(plain / "stats.json")["seed"] == DEFAULT_SEED
    assert run_cli("sweep", "--config", two_class, "--param", "rho", "--grid", "x,y",
                   "--out", str(bad)) == 2
    assert not bad.exists()
    with pytest.raises(SystemExit):
        run_cli("simulate", "--config", two_class, "--no-such-flag")
    assert run_cli("sweep", "--config", two_class, "--param", "rho", "--grid", "0.5,1",
                   "--out", str(good)) == 0
    assert read_json(good / "manifest.json")["seed"] == DEFAULT_SEED
    assert len(read_csv_rows(good / "sweep_rho.csv")[1]) == 2
    # no grid carries over from the calls before
    assert run_cli("sweep", "--config", two_class, "--param", "rho", "--out", str(bare)) == 2


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

    real = cli_mod._queue_solve

    def broken(scn):
        sol = real(scn)
        return replace(sol, rate=sol.rate + 0.05)

    monkeypatch.setattr(cli_mod, "_queue_solve", broken)
    out = tmp_path / "out"
    assert run_cli("validate", "--config", str(CONFIGS / "queue.json"),
                   "--out", str(out)) == 1
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    checks = read_json(out / "validate.json")
    assert not all(c["passed"] for c in checks)


# --- validate: one simulation and one gate per kind ---


VALIDATE_SIMULATORS = {
    "single_class.json": "simulate",
    "two_class.json": "simulate",
    "compete_ranked.json": "simulate",
    "discounted.json": "simulate_discounted",
    "mixture.json": "simulate_discounted",
    "queue.json": "simulate_queue",
}


def test_validate_simulators_cover_every_bundled_config_it_serves():
    # undifferentiated.json has no equilibrium to validate and exits 2
    assert set(VALIDATE_SIMULATORS) | {"undifferentiated.json"} == \
        {path.name for path in CONFIGS.glob("*.json")}


@pytest.mark.parametrize("name", sorted(VALIDATE_SIMULATORS))
def test_validate_simulates_once(tmp_path, capsys, monkeypatch, name):
    # every kind's simulation check reads the one run of its kind's simulator
    calls = dict.fromkeys(set(VALIDATE_SIMULATORS.values()), 0)

    def counting(attr):
        run = getattr(cli, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return run(*args, **kwargs)

        return counted

    for attr in calls:
        monkeypatch.setattr(cli, attr, counting(attr))
    assert run_cli("validate", "--config", str(CONFIGS / name), "--seed", "7",
                   "--out", str(tmp_path / "o")) == 0
    assert calls == {attr: int(attr == VALIDATE_SIMULATORS[name]) for attr in calls}


def test_validate_detects_broken_fleet_closed_form(tmp_path, capsys, monkeypatch):
    real = cli._ranked_solution

    def broken(scn, eq):
        sol = real(scn, eq)
        return replace(sol, rate=1.1 * sol.rate)

    monkeypatch.setattr(cli, "_ranked_solution", broken)
    out = tmp_path / "out"
    assert run_cli("validate", "--config", str(CONFIGS / "compete_ranked.json"),
                   "--seed", "7", "--out", str(out)) == 1
    assert "[FAIL] best_ranked_worker_unaffected_by_fleet: analytic" in capsys.readouterr().out
    assert read_json(out / "validate.json")[0]["passed"] is False


def set_deterministic_durations(doc):
    doc["classes"][0]["duration"] = {"kind": "deterministic", "params": {"value": 1.0}}


def add_second_class(doc):
    doc["classes"].append({
        "arrival_rate": 0.5,
        "duration": {"kind": "exponential", "params": {"rate": 2.0}},
        "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 2.0}},
    })


def set_three_unordered_workers(doc):
    doc["workers"] = [{"rank": 3, "cost": 0.1}, {"rank": 1, "cost": 0.05},
                      {"rank": 2, "cost": 0.0}]


# ranked fleets the busy-set chain refuses
CHAINLESS_FLEETS = {
    "deterministic": edited("compete_ranked.json", set_deterministic_durations),
    "two_classes": edited("compete_ranked.json", add_second_class),
}


@pytest.mark.parametrize("case", CHAINLESS_FLEETS)
def test_validate_gates_a_fleet_the_chain_refuses(tmp_path, capsys, case):
    scenario = parse_scenario(CHAINLESS_FLEETS[case])
    eq = ranked_price_equilibrium(scenario)
    with pytest.raises(ModelMismatch, match="fleet chain"):
        fleet_rates(scenario, [o.prices for o in eq.outcomes])
    cfg = tmp_path / "fleet.json"
    cfg.write_text(json.dumps(CHAINLESS_FLEETS[case]))
    out = tmp_path / "o"
    code = run_cli("validate", "--config", str(cfg), "--seed", "7", "--out", str(out))
    [check] = read_json(out / "validate.json")
    assert check["name"] == "best_ranked_worker_unaffected_by_fleet"
    assert check["detail"].startswith(f"analytic {cli._fmt(eq.by_rank(1).rate)}, simulated ")
    assert code == (0 if check["passed"] else 1)


def public_figure(scenario, prices) -> float:
    """The public function validate's figure is pinned to, at `prices`: a
    fleet's is its best-ranked worker's lone-worker rate at its row."""
    if scenario.kind == "fleet":
        best = scenario.rank_order[0]
        solo = Scenario(classes=scenario.classes, workers=(scenario.workers[best],))
        return avg_earning_rate(solo, prices[best])
    if scenario.kind == "queue":
        return queue_rate(scenario, *prices)
    return {"loss": avg_earning_rate, "discounted": discounted_value,
            "mixture": mixture_horizon_value}[scenario.kind](scenario, prices)


VALIDATED_DOCS = {
    **{Path(name).stem: read_json(CONFIGS / name) for name in sorted(VALIDATE_SIMULATORS)},
    **CHAINLESS_FLEETS,
    "three_unordered": edited("compete_ranked.json", set_three_unordered_workers),
    # a value that is not the rate: rate / 2
    "discounted_rate_2": edited("discounted.json",
                                lambda doc: doc["discount"]["params"].update(rate=2.0)),
}


@pytest.mark.parametrize("case", VALIDATED_DOCS)
def test_validate_figure_is_the_public_function_at_the_solved_prices(monkeypatch, case):
    # validate holds the simulation to the figure the solve reports; that
    # figure must be the public objective at the solved prices, bit for bit
    scenario = parse_scenario(VALIDATED_DOCS[case])
    sol = cli._model(scenario).solve(scenario)
    figures = []
    real = cli._check_close

    def recording(name, analytic, mean, se):
        figures.append(analytic)
        return real(name, analytic, mean, se)

    monkeypatch.setattr(cli, "_check_close", recording)
    cli.validation_checks(scenario, 7)
    assert [f.hex() for f in figures] == [public_figure(scenario, sol.prices).hex()]


def test_readme_lists_every_validate_check():
    section = (CONFIGS.parent / "README.md").read_text().split("## Validation checks")[1]
    section = section.split("\n## ")[0]
    kinds, names = set(), set()
    for path in CONFIGS.glob("*.json"):
        scenario = load_scenario(path)
        if scenario.choice == "cheapest":
            continue  # no equilibrium to validate
        kinds.add(scenario.kind)
        names.update(check.name for check in cli.validation_checks(scenario, 7))
    assert kinds == {"loss", "fleet", "discounted", "mixture", "queue"}
    assert sorted(name for name in names if f"`{name}`" not in section) == []


def test_readme_names_every_subcommand_and_flag():
    section = (CONFIGS.parent / "README.md").read_text().split("## Command line")[1]
    section = section.split("\n## ")[0]
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    names = {f"ondemand-pricing {command}" for command in subparsers.choices}
    for parser in subparsers.choices.values():
        names.update(flag for action in parser._actions
                     if not isinstance(action, argparse._HelpAction)
                     for flag in action.option_strings)
    assert {"ondemand-pricing validate", "--config", "--trace"} <= names
    assert sorted(name for name in names
                  if not re.search(re.escape(name) + r"(?![\w-])", section)) == []
