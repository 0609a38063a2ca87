"""The simulate layer's outputs to the last byte.

Every bundled config is run through `simulate`, `simulate --trace`,
`validate` and `compete --verify` at one fixed seed, and the sha256 of the
file each writes (`stats.json`, `events.csv`, `validate.json`,
`equilibrium.json`) is compared with the digest the simulate layer gave
before its loss kernel found successors by a local scan. A run that the
config's model refuses is pinned by its exit code, with no file. The
manifest is left out, since its `wall_time_s` varies. The digests were
captured with numpy 2.4.6; a refactor or speed-up of the simulate layer must
keep them all. The one later pin is `compete_ranked`'s `validate`, taken again
when the fleet's check moved from a solo re-simulation of its best-ranked
worker to that worker's closed-form rate.

`EDGE_PINS` adds runs at given prices where arrivals are priced out: a class
priced above its valuation support or at zero, and fleets whose lowest price
to a class is posted by a lower-ranked worker. They were captured before the
simulators dropped priced-out arrivals ahead of the event merge.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ondemand_pricing import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEED = 7

RUNS = {
    "simulate": (["simulate"], "stats.json"),
    "simulate --trace": (["simulate", "--trace"], "events.csv"),
    "validate": (["validate"], "validate.json"),
    "compete --verify": (["compete", "--verify"], "equilibrium.json"),
}

# (exit code, sha256 of the output file or None) per config and run.
PINS = {
    "compete_ranked": {
        "simulate": (0, "82d8bc55908538ecf3a22beb0ab10dd900670edf0f9d4b4ba0dfc9ad726cc48d"),
        "simulate --trace":
            (0, "19d4ca87c4e37e912874d91aa52b34d1bae40f1e4496121c52f5fa373b47dc0d"),
        "validate": (0, "084152032e45af132314ca7ff664983ad9a66d253d8023203480d275a1c9edc8"),
        "compete --verify":
            (0, "15c7307369f3c4c26fb945e096734fd3d0500ef5616c08ad62a85da4e19ec9cb"),
    },
    "discounted": {
        "simulate": (0, "e854348df57e9f2368ad41fea4e1b31ce3af8d2d04282383c780bd9ed48928b0"),
        "simulate --trace": (2, None),
        "validate": (0, "72f65e2f4db6550821fd3b2bb7d56553e1970e6fb57b2124d80ec72ecb14a1bd"),
        "compete --verify": (2, None),
    },
    "mixture": {
        "simulate": (0, "0bb4b08dba9996783a93707870a4de4d7b5162f6bc3af7912b03f79886cef6a2"),
        "simulate --trace": (2, None),
        "validate": (0, "1873518708bc3b5d04b235b64d6da3ebf93d97f2a0781a2c31d4fd96ea78f038"),
        "compete --verify": (2, None),
    },
    "queue": {
        "simulate": (0, "270e72c0ffd6cf6ec59231ee95a993ddf35d376922f4d2007b0a6d0d1de200f5"),
        "simulate --trace": (2, None),
        "validate": (0, "05bc8de0192a88b49d5c5174d6383ab6d4a2c5546cd50987f116a5576b6703d8"),
        "compete --verify": (2, None),
    },
    "single_class": {
        "simulate": (0, "5e08747f35b88f1487d411b264bde78f420e5cbef297c873ddc5013d8df0ada3"),
        "simulate --trace":
            (0, "0f0d82954fa42ff95396d365dd31901f25fdbff8561c089b2346c29c0a65c93c"),
        "validate": (0, "88e1ce2b370bf776ddcc92e84c493ca16c3803d1e4f13e99401cbc98866cb43e"),
        "compete --verify": (2, None),
    },
    "two_class": {
        "simulate": (0, "fc6a2ddbd496dfdf6ed3efb73c4009c0bfa9722d4b9ea9bf39583003c433452e"),
        "simulate --trace":
            (0, "0ba47da6c77af8d4c2dcd27d1f1fa01169a4311622950906b2489a62c99ce6c8"),
        "validate": (0, "272e094df5f413f5689d53bdfabeb3091dbdc71bd59bd78dfc34cedf29b05ac6"),
        "compete --verify": (2, None),
    },
    "undifferentiated": {
        "simulate": (2, None),
        "simulate --trace": (2, None),
        "validate": (2, None),
        "compete --verify": (4, None),
    },
}


def run_digest(tmp_path, config: str, run: str):
    """Exit code of one CLI run and the sha256 of the file it writes."""
    args, name = RUNS[run]
    code = cli.main([*args, "--config", str(CONFIGS / f"{config}.json"),
                     "--seed", str(SEED), "--out", str(tmp_path)])
    path = tmp_path / name
    return code, hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@pytest.mark.parametrize("config", sorted(PINS))
def test_every_pinned_run_keeps_its_bytes(tmp_path, capsys, config):
    got = {run: run_digest(tmp_path / run.replace(" ", ""), config, run) for run in RUNS}
    assert got == PINS[config]


def test_pins_cover_every_bundled_config_and_run():
    assert set(PINS) == {path.stem for path in CONFIGS.glob("*.json")}
    assert all(set(runs) == set(RUNS) for runs in PINS.values())


UNIFORM_CLASS = {
    "arrival_rate": 1.0,
    "duration": {"kind": "exponential", "params": {"rate": 1.0}},
    "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 1.0}},
}
WIDE_CLASS = {
    "arrival_rate": 1.0,
    "duration": {"kind": "exponential", "params": {"rate": 1.0}},
    "valuation": {"kind": "uniform", "params": {"low": 0.0, "high": 2.0}},
}
# Fleets written out for the edge runs, workers listed out of rank order.
EDGE_CONFIGS = {
    "fleet_two_class": {"classes": [UNIFORM_CLASS, WIDE_CLASS],
                        "workers": [{"rank": 2, "cost": 0.05}, {"rank": 1}]},
    "fleet_three": {"classes": [UNIFORM_CLASS],
                    "workers": [{"rank": 3, "cost": 0.05}, {"rank": 1},
                                {"rank": 2, "cost": 0.02}]},
}

# name: (config, arguments, output file)
EDGE_RUNS = {
    "two_class, class 2 above its support":
        ("two_class", ["simulate", "--prices", "0.5,2.5"], "stats.json"),
    "two_class, class 2 above its support, trace":
        ("two_class", ["simulate", "--trace", "--prices", "0.5,2.5"], "events.csv"),
    "two_class, class 1 at price 0":
        ("two_class", ["simulate", "--prices", "0,1.2"], "stats.json"),
    "compete_ranked, floor from rank 2":
        ("compete_ranked", ["simulate", "--prices", "0.6;0.3"], "stats.json"),
    "compete_ranked, floor from rank 2, trace":
        ("compete_ranked", ["simulate", "--trace", "--prices", "0.6;0.3"], "events.csv"),
    "fleet_two_class, floors from both ranks":
        ("fleet_two_class", ["simulate", "--prices", "0.3,0.9;0.6,0.5"], "stats.json"),
    "fleet_two_class, floors from both ranks, trace":
        ("fleet_two_class", ["simulate", "--trace", "--prices", "0.3,0.9;0.6,0.5"],
         "events.csv"),
    "fleet_three, compete --verify":
        ("fleet_three", ["compete", "--verify"], "equilibrium.json"),
    "queue, class B above its support":
        ("queue", ["simulate", "--prices", "0.5,1.5"], "stats.json"),
    "mixture, class 1 above its support":
        ("mixture", ["simulate", "--prices", "1.5,0.4"], "stats.json"),
    "discounted, price 0":
        ("discounted", ["simulate", "--prices", "0"], "stats.json"),
}

# name: (exit code, sha256 of the output file)
EDGE_PINS = {
    "compete_ranked, floor from rank 2":
        (0, "0bf2a8cc6d894377dfbecfbb20f1a72137422128d38e21040264b5378c5ee504"),
    "compete_ranked, floor from rank 2, trace":
        (0, "1df002606c75baa211c3721c7d217d2bcae8d9993b3aa9f6f7af5e8f8f74d4bb"),
    "discounted, price 0":
        (0, "1e4f2ba3c90bb4eae8cb90cfa9efe361ccf6bff200ac02a64776196fcad539a8"),
    "fleet_three, compete --verify":
        (0, "90f066eeac506ec49bea797860dbfa6a82cccb01290c866f50a847c25b5cd014"),
    "fleet_two_class, floors from both ranks":
        (0, "c1a567bdb705709816af8910cf2e05b4a6e85c4a55a47fa100b50ca22c8a4272"),
    "fleet_two_class, floors from both ranks, trace":
        (0, "ddac0bf4df5257d3c54f6873d37d6fd1cad36a0cdcb248a306c7f0bfe41bbf24"),
    "mixture, class 1 above its support":
        (0, "e9329a265fd62901882521b1ac0a2dfffabdae09eeef854aabc1146c475464ea"),
    "queue, class B above its support":
        (0, "e36c02ca212a4d778a4481536029dee858eaa68ff1e1075d670c9b269927fd25"),
    "two_class, class 1 at price 0":
        (0, "866a613e75ad7b074f81917b75c42afa5b515e950de3794289ae2ac45cc05416"),
    "two_class, class 2 above its support":
        (0, "3c4b9b97b052baf027fd41a9957209359e81439da9014c09176787c3c9d275c1"),
    "two_class, class 2 above its support, trace":
        (0, "67e7787883060a8af164257154be96fd2b96b53baef3d07b16c28903837eb823"),
}


def edge_digest(tmp_path, name: str):
    config, args, output = EDGE_RUNS[name]
    path = CONFIGS / f"{config}.json"
    if config in EDGE_CONFIGS:
        path = tmp_path / f"{config}.json"
        path.write_text(json.dumps(EDGE_CONFIGS[config]))
    out = tmp_path / "out"
    code = cli.main([*args, "--config", str(path), "--seed", str(SEED), "--out", str(out)])
    written = out / output
    return code, hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None


@pytest.mark.parametrize("name", sorted(EDGE_RUNS))
def test_every_edge_run_keeps_its_bytes(tmp_path, capsys, name):
    assert edge_digest(tmp_path, name) == EDGE_PINS[name]
