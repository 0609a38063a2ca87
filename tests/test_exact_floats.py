"""Every reported figure is the same on any CPU and any Python.

numpy's exp, expm1, log10 and power loops take AVX-512 kernels on CPUs that
have them, which can differ from libm in the last bit, and Python 3.12 made
`sum` compensated. The package maps libm's functions over arrays and adds
floats left to right, so switching numpy's AVX-512 dispatch off, or giving
every module a compensated `sum`, changes no byte.
"""

import importlib
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ondemand_pricing
from ondemand_pricing import (
    CustomerClass,
    ExponentialDuration,
    MixtureDiscount,
    Scenario,
    SimConfig,
    UniformValuation,
    WorkerSpec,
    busy_fraction,
    cli,
    mixture_horizon_optimize,
    mixture_horizon_value,
    queue_optimize,
    ranked_price_equilibrium,
    simulate,
    simulate_discounted,
    simulate_queue,
    solve_fixed_point,
)
from ondemand_pricing.model import left_sum, libm_map, row_sums

from .conftest import queue_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(ondemand_pricing.__file__).resolve().parent.parent

EMPIRICAL_DISCOUNTED = {
    "classes": [{
        "arrival_rate": 1.0,
        "duration": {"kind": "empirical",
                     "params": {"samples": [1.211332, 0.664677, 0.607965, 0.382391, 1.043805]}},
        "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 1.0}},
    }],
    "discount": {"kind": "exponential", "params": {"rate": 1.3253}},
}

# form -> (config, CLI arguments); each form reaches an exp, expm1, log10 or
# power that numpy runs with an AVX-512 kernel where the CPU has one
FORMS = {
    "sweep r": ("queue", ["sweep", "--param", "r"]),
    "sweep r log grid": ("queue", ["sweep", "--param", "r", "--grid", "0.3:30:25:log"]),
    "solve empirical discounted": (EMPIRICAL_DISCOUNTED, ["solve"]),
}


def avx512_groups() -> list[str]:
    """numpy's dispatch targets that need AVX-512 and that this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__
            if __cpu_features__.get(name) and ("AVX512" in name or name == "X86_V4")]


def form_dir(root: Path, form: str) -> Path:
    config, _ = FORMS[form]
    workdir = root / form.replace(" ", "_")
    workdir.mkdir(parents=True)
    if isinstance(config, str):
        shutil.copy(CONFIGS / f"{config}.json", workdir / "config.json")
    else:
        (workdir / "config.json").write_text(json.dumps(config))
    return workdir


def outputs(workdir: Path) -> dict[str, bytes]:
    out = workdir / "out"
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())
            if path.name != "manifest.json"}


@pytest.mark.parametrize("form", FORMS)
def test_cli_bytes_hold_without_avx512(tmp_path, capsys, monkeypatch, form):
    groups = avx512_groups()
    if not groups:
        pytest.skip("numpy reports no AVX-512 dispatch target on this CPU")
    args = [*FORMS[form][1], "--config", "config.json", "--seed", "7", "--out", "out"]
    here = form_dir(tmp_path / "here", form)
    monkeypatch.chdir(here)
    capsys.readouterr()
    code = cli.main(args)
    printed = capsys.readouterr()

    there = form_dir(tmp_path / "there", form)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(groups),
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-m", "ondemand_pricing", *args], cwd=there,
                           env=env, capture_output=True, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (
        code, printed.out.encode(), printed.err.encode())
    assert outputs(there) == outputs(here)


def uniform(arrival_rate, service_rate, high):
    return CustomerClass(arrival_rate, ExponentialDuration(service_rate),
                         UniformValuation(0.0, high))


THREE = (uniform(0.1, 1.0, 1.0), uniform(0.2, 0.7, 2.0), uniform(0.3, 1.3, 1.5))


def sim_config(scenario):
    return SimConfig(scenario=scenario, expected_arrivals=3000.0, replications=4)


def loss_figures():
    scenario = Scenario(classes=THREE)
    horizon = sim_config(scenario).horizon_hours()
    assert horizon == 3000.0 / ((0.1 + 0.2) + 0.3)
    sol = solve_fixed_point(scenario)
    return (horizon, sol, busy_fraction(scenario, sol.prices),
            simulate(sim_config(scenario), sol.prices))


def mixture_figures():
    scenario = Scenario(classes=THREE,
                        discount=MixtureDiscount(weights=(0.3, 0.7), rates=(1.0, 2.5)))
    prices, value = mixture_horizon_optimize(scenario)
    return (prices, value, mixture_horizon_value(scenario, (0.5, 0.9, 0.6)),
            simulate_discounted(sim_config(scenario), prices))


def queue_figures():
    scenario = queue_scenario(0.7)
    prices, rate = queue_optimize(scenario)
    return prices, rate, simulate_queue(sim_config(scenario), *prices)


def fleet_figures():
    scenario = Scenario(classes=THREE, workers=tuple(WorkerSpec(cost=0.05 * r, rank=r)
                                                     for r in (1, 2, 3)))
    eq = ranked_price_equilibrium(scenario)
    matrix = [eq.by_rank(w.rank).prices for w in scenario.workers]
    return eq, simulate(sim_config(scenario), matrix)


@pytest.mark.parametrize("figures", [loss_figures, mixture_figures, queue_figures,
                                     fleet_figures], ids=lambda f: f.__name__)
def test_figures_hold_under_a_compensated_sum(monkeypatch, figures):
    plain = repr(figures())
    for info in pkgutil.iter_modules(ondemand_pricing.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"ondemand_pricing.{info.name}")
            monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert repr(figures()) == plain


def test_libm_map_gives_libms_bits():
    xs = np.linspace(-3.0, 3.0, 1001)[::3]  # strided, not contiguous
    assert libm_map(math.exp, xs).tolist() == [math.exp(x) for x in xs.tolist()]
    assert libm_map(math.expm1, xs[:0]).shape == (0,)


def test_left_sum_adds_left_to_right_from_int_zero():
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3 == 0.6000000000000001
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert math.copysign(1.0, left_sum([-0.0])) == 1.0
    assert left_sum(iter([1, 2, 3])) == 6


def test_row_sums_is_a_running_total_from_zero():
    x = np.array([[0.1, 0.2, 0.3, 1e-17], [-0.0, -0.0, -0.0, -0.0], [1e16, 1.0, -1e16, 1.0]])
    expected = [left_sum(row) for row in x.tolist()]
    assert row_sums(x).tolist() == expected
    assert math.copysign(1.0, row_sums(x)[1]) == 1.0
    assert float(row_sums(x[0])) == expected[0]
