"""What every CLI subcommand form prints and writes, to the last byte.

Every bundled config is run through `solve`, `compete`, `compete --dynamics`,
`simulate` at given prices, and `sweep` over each parameter (with and
without a grid, and with grids the CLI refuses), at one fixed seed. Each run
is pinned by its exit code and the sha256 of its stdout, its stderr and
every file it writes except `manifest.json`, whose `wall_time_s` varies. Each
run works in its own directory, with the config copied in and relative paths,
so nothing printed depends on where the suite runs. The digests were captured
with numpy 2.4.6, and hold on any x86-64 CPU, with or without AVX-512.
`test_sim_digits.py` pins the runs at solved prices, the traces, `validate`
and `compete --verify`.
"""

import hashlib
import shutil
from pathlib import Path

import pytest

from ondemand_pricing import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEED = 7

FORMS = {
    "solve": ["solve"],
    "compete": ["compete"],
    "compete --dynamics": ["compete", "--dynamics"],
    "simulate --prices 0.5": ["simulate", "--prices", "0.5"],
    "simulate --prices 0.5;0.6": ["simulate", "--prices", "0.5;0.6"],
    "simulate --prices 0.5,0.6": ["simulate", "--prices", "0.5,0.6"],
    "sweep r": ["sweep", "--param", "r"],
    "sweep r --grid 0.5,2": ["sweep", "--param", "r", "--grid", "0.5,2"],
    "sweep gamma --grid 0.1:1:3": ["sweep", "--param", "gamma", "--grid", "0.1:1:3"],
    "sweep rho --grid 0.5,1,2": ["sweep", "--param", "rho", "--grid", "0.5,1,2"],
    "sweep rho": ["sweep", "--param", "rho"],
    "sweep rho --grid 1:2:0": ["sweep", "--param", "rho", "--grid", "1:2:0"],
    "sweep beta --grid 0.5:1:3": ["sweep", "--param", "beta", "--grid", "0.5:1:3"],
    "sweep reserve --grid 0,0.1,inf": ["sweep", "--param", "reserve", "--grid", "0,0.1,inf"],
}


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_digest(workdir: Path, config: str, form: str, capsys, monkeypatch):
    """(exit code, sha256 of stdout, of stderr, {file: sha256}) of one run."""
    workdir.mkdir()
    shutil.copy(CONFIGS / f"{config}.json", workdir / "config.json")
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = cli.main([*FORMS[form], "--config", "config.json", "--seed", str(SEED),
                     "--out", "out"])
    printed = capsys.readouterr()
    out = workdir / "out"
    files = {} if not out.exists() else {
        path.name: sha(path.read_bytes())
        for path in sorted(out.iterdir()) if path.name != "manifest.json"}
    return code, sha(printed.out), sha(printed.err), files


EMPTY = sha("")

# (exit code, sha256 of stdout, sha256 of stderr, {file: sha256}) per config and form.
PINS = {
    "compete_ranked": {
        "solve": (
            2, EMPTY,
            "a10bd2ae2e1da73613ade7cbe5f900a8a100360057b7c169d6464f8f58fbfde1",
            {}),
        "compete": (
            0, "9ff488bfcaac9aab0b01df4bdd36ce4e4787483bd4694805eceb59c63bc13397",
            EMPTY,
            {"equilibrium.json":
                "b3f7fc17f09fb89cefe688112a7a0b84ff3db1e2f184d70e85389bfae41cd53c"}),
        "compete --dynamics": (
            0, "2d4bcb7f022433b3afd40127665044c27bbd5b7a7a5dfcf3163626e20b12bbd9",
            EMPTY,
            {"dynamics.json":
                "12e510d3fd91919586f41913e1de0810e5f04a981e7460e57905e17de806f620"}),
        "simulate --prices 0.5": (
            2, EMPTY,
            "41fd80cccd943ca77074916ad8499da490fc541d412cb11868382fdc6e5ad0d9",
            {}),
        "simulate --prices 0.5;0.6": (
            0, "43a5bd92cec066aa366c16ec0272e8ecf3d904b3abdc8948fc2f20fb157468ab",
            EMPTY,
            {"stats.json":
                "fb2415b848e090abaa51f689543aeb2a957dd658f8ffae8282c7006b2b28f292"}),
        "simulate --prices 0.5,0.6": (
            2, EMPTY,
            "41fd80cccd943ca77074916ad8499da490fc541d412cb11868382fdc6e5ad0d9",
            {}),
        "sweep r": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep r --grid 0.5,2": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep gamma --grid 0.1:1:3": (
            2, EMPTY,
            "8af4beeb0a4f3e6463d2c382494f9d5c0d64f961f6062291c431588d09938a51",
            {}),
        "sweep rho --grid 0.5,1,2": (
            2, EMPTY,
            "0f22f1187cfc99b4fd8e4dc2e176555966153f9eb546ac37daaba98678bd6cc7",
            {}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            2, EMPTY,
            "0f22f1187cfc99b4fd8e4dc2e176555966153f9eb546ac37daaba98678bd6cc7",
            {}),
        "sweep reserve --grid 0,0.1,inf": (
            2, EMPTY,
            "41d7a686508334c87504f2fe6b8cccfcd008c15cb549d191fee33cec34b4abeb",
            {}),
    },
    "discounted": {
        "solve": (
            0, "1e719c1cbf3f0b26827fb2c1565d2b2d49cec3073dc021b330072288c82f0e1d",
            EMPTY,
            {"solution.json":
                "644cc6aef6077026add88d4b2c2342c62c484a8c3f4c72366e4c7afca8a2c268",
             "trace.csv":
                "a40de88bbbf11c72dc6a37a2a8335f83fff71e75b9344fbc906f8b4239fc2572"}),
        "compete": (
            2, EMPTY,
            "8a6a8053443f2a9b59a1428eefb8a046d41189f67e42e525b5420346b82bc5fe",
            {}),
        "compete --dynamics": (
            2, EMPTY,
            "8a6a8053443f2a9b59a1428eefb8a046d41189f67e42e525b5420346b82bc5fe",
            {}),
        "simulate --prices 0.5": (
            0, "fb9d4c72c053aea8eca0a39ebfc1ddd86efccaf3ce91117a2216100047caf6d8",
            EMPTY,
            {"stats.json":
                "5284c03441e26834f8ce57fe7455862e60d6597fb22c34f6f68bda4161c2cc05"}),
        "simulate --prices 0.5;0.6": (
            2, EMPTY,
            "47359f5f708a8402fe58c54e36d1f75747a8f6533d5ca80fe3356b517f00197f",
            {}),
        "simulate --prices 0.5,0.6": (
            2, EMPTY,
            "ca4e57bb8667bf41f31974edcf37d24b3cd7120715f4fd257cd81b31ae4ae071",
            {}),
        "sweep r": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep r --grid 0.5,2": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep gamma --grid 0.1:1:3": (
            0, "4b350b0857c3b2b55a61d986b81a7ff8099521d9d7287a8ddcea4aba631eb464",
            EMPTY,
            {"sweep_gamma.csv":
                "199da3954b56fd3023e57db215d6fc2561615682bd175515ba74a6cbbc3d0aff"}),
        "sweep rho --grid 0.5,1,2": (
            2, EMPTY,
            "33914be6a04b5a0bbce10cab57e6b53556c937d1449f7c05aa795ca4780f30a7",
            {}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            2, EMPTY,
            "33914be6a04b5a0bbce10cab57e6b53556c937d1449f7c05aa795ca4780f30a7",
            {}),
        "sweep reserve --grid 0,0.1,inf": (
            2, EMPTY,
            "8a073b0c5d0cf977f6d42de1164cb36c877bfdd1da3e4c0232b497da0b2cfba3",
            {}),
    },
    "mixture": {
        "solve": (
            0, "7af1f87f3d7c84f9629acc119e9a06260142ad28235479089af1150cf38798e7",
            EMPTY,
            {"solution.json":
                "9a767cc00cd369c04bbf8e1fd9cb39c4ea70c1eb06c346d12c2cd954f413c9ee"}),
        "compete": (
            2, EMPTY,
            "ab5bacd0299d760cc1a2a04b9a11aed2a8d2a5ae26299c39d545a19966620a30",
            {}),
        "compete --dynamics": (
            2, EMPTY,
            "ab5bacd0299d760cc1a2a04b9a11aed2a8d2a5ae26299c39d545a19966620a30",
            {}),
        "simulate --prices 0.5": (
            2, EMPTY,
            "099a07f52b20a18164a3bbd21761f0f45e93c85065137e3067f81cba1ad8c905",
            {}),
        "simulate --prices 0.5;0.6": (
            2, EMPTY,
            "47359f5f708a8402fe58c54e36d1f75747a8f6533d5ca80fe3356b517f00197f",
            {}),
        "simulate --prices 0.5,0.6": (
            0, "2d95c8df9908f0f5f3ab5f0389be1c1211560c558f87ad185e0f57552528564d",
            EMPTY,
            {"stats.json":
                "9571b2452294de39a72d4f904017e681ff2232a45029768c028af1ef495a04e5"}),
        "sweep r": (
            2, EMPTY,
            "0a0c81642cd60345a7f50efcdff34c8a5a6418987c9137ace76d2d9b035e0149",
            {}),
        "sweep r --grid 0.5,2": (
            2, EMPTY,
            "0a0c81642cd60345a7f50efcdff34c8a5a6418987c9137ace76d2d9b035e0149",
            {}),
        "sweep gamma --grid 0.1:1:3": (
            0, "4b350b0857c3b2b55a61d986b81a7ff8099521d9d7287a8ddcea4aba631eb464",
            EMPTY,
            {"sweep_gamma.csv":
                "cf283db955f9b2dd8f42f9688926849798a47f753af1a8e6095b68f46bf24375"}),
        "sweep rho --grid 0.5,1,2": (
            2, EMPTY,
            "bd5eb8b38877a88ee891bbb89b0191a8fcbadefb75a90ab13c8693c3f0cf2a05",
            {}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            2, EMPTY,
            "bd5eb8b38877a88ee891bbb89b0191a8fcbadefb75a90ab13c8693c3f0cf2a05",
            {}),
        "sweep reserve --grid 0,0.1,inf": (
            2, EMPTY,
            "87a8001f4948219d943f23b40ac79a292d5935c54ea27483c6662f19adaebb30",
            {}),
    },
    "queue": {
        "solve": (
            0, "71219178f77bfa5d0ea6020efe421e6aa5296d894d4568722c4ea7916e8e6c16",
            EMPTY,
            {"solution.json":
                "93baa86ef0deac66f58bc8b059c36753f4b93b8149011b694e0db497c4cee10f"}),
        "compete": (
            2, EMPTY,
            "4986e3b716dade7a33916fdc129b2c36fd0a2cbfbf01d45a624aa36d8ebe7ee8",
            {}),
        "compete --dynamics": (
            2, EMPTY,
            "4986e3b716dade7a33916fdc129b2c36fd0a2cbfbf01d45a624aa36d8ebe7ee8",
            {}),
        "simulate --prices 0.5": (
            2, EMPTY,
            "cdbc4d035913105a8c3a7d85bd56e30c0341b5d923afba8fde2bb34c0b14f506",
            {}),
        "simulate --prices 0.5;0.6": (
            2, EMPTY,
            "47359f5f708a8402fe58c54e36d1f75747a8f6533d5ca80fe3356b517f00197f",
            {}),
        "simulate --prices 0.5,0.6": (
            0, "aa9e026fa627c5346ac30498d4c8ce95ac205a3419a1efdc1f76440122282155",
            EMPTY,
            {"stats.json":
                "7f7b4b7b6ebff76431a332c9ac7a420dabc42532d3a3813bdf550013318fd621"}),
        "sweep r": (
            0, "ec8e88831f8bb5f8c6ff7a7d370d700c7ec905edff126ab15d8f8aba32aa7342",
            EMPTY,
            {"sweep_r.csv":
                "3e39bae6c31ea54e3572cf37ed9fd2b607e81909cdcd3c8136bc8a7c9f0b3be7"}),
        "sweep r --grid 0.5,2": (
            0, "9b7d5ad03f8a6f91b14040a05cc45ef518f901c4ccd6a6cf06393995c2fb3b36",
            EMPTY,
            {"sweep_r.csv":
                "d449982be90e3281faf1a24bf059a6a3b884f27c0280ea929937858d97d9e6d3"}),
        "sweep gamma --grid 0.1:1:3": (
            2, EMPTY,
            "8af4beeb0a4f3e6463d2c382494f9d5c0d64f961f6062291c431588d09938a51",
            {}),
        "sweep rho --grid 0.5,1,2": (
            2, EMPTY,
            "3c37cd5ae5876153dc5ab5ac8ddd3a02e4feb2c5e6701ee31f82c17bcd3c8e1e",
            {}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            2, EMPTY,
            "3c37cd5ae5876153dc5ab5ac8ddd3a02e4feb2c5e6701ee31f82c17bcd3c8e1e",
            {}),
        "sweep reserve --grid 0,0.1,inf": (
            2, EMPTY,
            "01eaf77de1a3ad6e886f896a836d206b1d61aee6fe0c66ebf499f78d76ec19e6",
            {}),
    },
    "single_class": {
        "solve": (
            0, "0e8ceabbf1328c45cf79097a9afebfcee571fd4daa478ccec7b3ed82346a3a71",
            EMPTY,
            {"solution.json":
                "7d4f2c35b12531b178d00c74cbb8e5dc783aa9d3a5d16ec2831812ef12d65dea",
             "trace.csv":
                "68b88f9e3dde979bb603b25b88c9b286a6e9b4c7e69eff88b38a6039d9375228"}),
        "compete": (
            2, EMPTY,
            "2fc4b281d9f35cabaadc2a81c9452086eb74f11d70af1f5f0cebd6daba59c794",
            {}),
        "compete --dynamics": (
            2, EMPTY,
            "2fc4b281d9f35cabaadc2a81c9452086eb74f11d70af1f5f0cebd6daba59c794",
            {}),
        "simulate --prices 0.5": (
            0, "c410cdd53155fdfdf126b8f0ad876a6d21e1c826730c720fb07bb16840be6d60",
            EMPTY,
            {"stats.json":
                "2e0e3113dcfff95cff4a8bd09fb7b658d473aa593bba41f452462b94cee8e807"}),
        "simulate --prices 0.5;0.6": (
            2, EMPTY,
            "47359f5f708a8402fe58c54e36d1f75747a8f6533d5ca80fe3356b517f00197f",
            {}),
        "simulate --prices 0.5,0.6": (
            2, EMPTY,
            "ca4e57bb8667bf41f31974edcf37d24b3cd7120715f4fd257cd81b31ae4ae071",
            {}),
        "sweep r": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep r --grid 0.5,2": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep gamma --grid 0.1:1:3": (
            0, "4b350b0857c3b2b55a61d986b81a7ff8099521d9d7287a8ddcea4aba631eb464",
            EMPTY,
            {"sweep_gamma.csv":
                "199da3954b56fd3023e57db215d6fc2561615682bd175515ba74a6cbbc3d0aff"}),
        "sweep rho --grid 0.5,1,2": (
            0, "18753ed61e48ff20fea310e5f1f3267cf11237b1e0e57cfbc47072c1654b9113",
            EMPTY,
            {"sweep_rho.csv":
                "bec3a665f0a394d21adb116916cd035b865f622d7b17d5fd08a56b67f1d25761"}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            0, "4049d5ddb0b5dcb2e7089df8f0ce0c23b0251f9a0bc319de3bce955b67671e3f",
            EMPTY,
            {"sweep_beta.csv":
                "25558a99db1a09e67c5f068a1cd567dfd2e5746a8c2d5ee9da8b8cd0796a8b36"}),
        "sweep reserve --grid 0,0.1,inf": (
            0, "13d129fd0be3879cecf492c7ddb06d633bd29b0293f4de32e390bdc183433a47",
            EMPTY,
            {"sweep_reserve.csv":
                "90f950b8f964608a64b94cada7a35eab4528e9586c92973c5c96a4fa02b4e447"}),
    },
    "two_class": {
        "solve": (
            0, "e2e1fda6b2076c9daa217f3596493e71b2e978eff9192b8bd6c526545bd9c337",
            EMPTY,
            {"solution.json":
                "ee3bd34964098a816910460de66c02def697782d84c6c29124cde1cb0d4270dc",
             "trace.csv":
                "39bd67208cb6eea0795f2214d8c3e128ac0b15f3f90cf0e717edc99ab4bcc50f"}),
        "compete": (
            2, EMPTY,
            "2fc4b281d9f35cabaadc2a81c9452086eb74f11d70af1f5f0cebd6daba59c794",
            {}),
        "compete --dynamics": (
            2, EMPTY,
            "2fc4b281d9f35cabaadc2a81c9452086eb74f11d70af1f5f0cebd6daba59c794",
            {}),
        "simulate --prices 0.5": (
            2, EMPTY,
            "099a07f52b20a18164a3bbd21761f0f45e93c85065137e3067f81cba1ad8c905",
            {}),
        "simulate --prices 0.5;0.6": (
            2, EMPTY,
            "47359f5f708a8402fe58c54e36d1f75747a8f6533d5ca80fe3356b517f00197f",
            {}),
        "simulate --prices 0.5,0.6": (
            0, "3cfe840277cc634c5a5e684f903b73c5ee05fd7b87a8abc34a04c039ec73a90a",
            EMPTY,
            {"stats.json":
                "b60c40dabb3bed0916f71742bd1d6e2d3823f3c4df405aa6a8972a13b97d6938"}),
        "sweep r": (
            2, EMPTY,
            "d59e44fd3d53ef19d57ff3c64fc2a12d86b35a9d53037393afb822f4f11e2e57",
            {}),
        "sweep r --grid 0.5,2": (
            2, EMPTY,
            "d59e44fd3d53ef19d57ff3c64fc2a12d86b35a9d53037393afb822f4f11e2e57",
            {}),
        "sweep gamma --grid 0.1:1:3": (
            0, "4b350b0857c3b2b55a61d986b81a7ff8099521d9d7287a8ddcea4aba631eb464",
            EMPTY,
            {"sweep_gamma.csv":
                "24dcc4c182dcb7c85ced048288ca97fbfcd1b63ce34828659ab3969c87a935e9"}),
        "sweep rho --grid 0.5,1,2": (
            0, "18753ed61e48ff20fea310e5f1f3267cf11237b1e0e57cfbc47072c1654b9113",
            EMPTY,
            {"sweep_rho.csv":
                "559970fb4b80039e32778ae9b979a65cab45174bff2bb4fffef84f4efe953990"}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            0, "4049d5ddb0b5dcb2e7089df8f0ce0c23b0251f9a0bc319de3bce955b67671e3f",
            EMPTY,
            {"sweep_beta.csv":
                "8d26c2b503d9dee3da744a75c96f3ddc175662f70aa27dd363deb94f048e17cc"}),
        "sweep reserve --grid 0,0.1,inf": (
            0, "13d129fd0be3879cecf492c7ddb06d633bd29b0293f4de32e390bdc183433a47",
            EMPTY,
            {"sweep_reserve.csv":
                "9e16cdfba5864b3f7b47dfa947cbceb4509a1b5e664d7e4bdce0e49358dad7c7"}),
    },
    "undifferentiated": {
        "solve": (
            2, EMPTY,
            "a10bd2ae2e1da73613ade7cbe5f900a8a100360057b7c169d6464f8f58fbfde1",
            {}),
        "compete": (
            4, EMPTY,
            "b904514f3fe7cd3c0b4b58ba4acc07bbc1ebd7d8943497018e6f65931ec0f103",
            {}),
        "compete --dynamics": (
            0, "11679869092fb98896a3092cbbc023741b3689763ac309e0b55f4171144e97dd",
            EMPTY,
            {"dynamics.json":
                "83e3538ccb1f1c640015a6d2c0f2bd0e06348691012bff73e8ea751a631a6a82"}),
        "simulate --prices 0.5": (
            2, EMPTY,
            "b15a78663ef92a1ff3870797f50340b95d5cd7d38007858b7a2d0f6166f4d57e",
            {}),
        "simulate --prices 0.5;0.6": (
            2, EMPTY,
            "b15a78663ef92a1ff3870797f50340b95d5cd7d38007858b7a2d0f6166f4d57e",
            {}),
        "simulate --prices 0.5,0.6": (
            2, EMPTY,
            "b15a78663ef92a1ff3870797f50340b95d5cd7d38007858b7a2d0f6166f4d57e",
            {}),
        "sweep r": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep r --grid 0.5,2": (
            2, EMPTY,
            "4f6e37fefd3a78362f331c46f990d5d91500671bba497c1d7a4a591cedeb7595",
            {}),
        "sweep gamma --grid 0.1:1:3": (
            2, EMPTY,
            "8af4beeb0a4f3e6463d2c382494f9d5c0d64f961f6062291c431588d09938a51",
            {}),
        "sweep rho --grid 0.5,1,2": (
            2, EMPTY,
            "0f22f1187cfc99b4fd8e4dc2e176555966153f9eb546ac37daaba98678bd6cc7",
            {}),
        "sweep rho": (
            2, EMPTY,
            "67149d713741b1ca0414cbe0ae32c46bbb145499ee44c840e201c1bb928a4d43",
            {}),
        "sweep rho --grid 1:2:0": (
            2, EMPTY,
            "31d880a9a73bf372db5c2b468523dc93ab6429a9d803d084c1e1f336e4fd5623",
            {}),
        "sweep beta --grid 0.5:1:3": (
            2, EMPTY,
            "0f22f1187cfc99b4fd8e4dc2e176555966153f9eb546ac37daaba98678bd6cc7",
            {}),
        "sweep reserve --grid 0,0.1,inf": (
            2, EMPTY,
            "41d7a686508334c87504f2fe6b8cccfcd008c15cb549d191fee33cec34b4abeb",
            {}),
    },
}


@pytest.mark.parametrize("config", sorted(PINS))
def test_every_cli_form_keeps_its_bytes(tmp_path, capsys, monkeypatch, config):
    got = {form: run_digest(tmp_path / str(i), config, form, capsys, monkeypatch)
           for i, form in enumerate(FORMS)}
    assert got == PINS[config]


def test_pins_cover_every_bundled_config_and_form():
    assert set(PINS) == {path.stem for path in CONFIGS.glob("*.json")}
    assert all(set(forms) == set(FORMS) for forms in PINS.values())
