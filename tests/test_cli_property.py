"""Seeded property test of the command line: random argv and expression
strings, run in-process through ``cli.run``, end in exit 0, 1 or 2 and
never raise.

Numbers are drawn small, past a limit, malformed or non-ASCII, so every
admitted case is cheap and every refused one must be refused before its
work starts; the time each limit admits is checked by the limit tests.
"""

import json
import random

import pytest

from simpson_nd.cli import run

SEED = 20261018
CASES = 400

_SMALL = [str(k) for k in range(0, 5)]
_NUMBERS = _SMALL + [
    "-1", "-3", "1/2", "-3/4", "7/3", "0.5", "-2.25", "1e3", "1e400", "13", "40",
    "1000", "10**9", str(10**12 + 1), str(10**30), "", " ", "x", "1/0", "nan", "inf",
    "-inf", "٣", "²", "1_000", "0x10", "+2", "--1", "3.", ".5", "2/-3", "1//2",
]
_RULES = ["CR1", "CR2", "CR3", "CR4", "CR5", "CR5*", "CR6", "TriangleMidedge",
          "cr3", " CR4 ", "CR7", "", "midpoint", "CR3(2)"]
_REGIONS = ["simplex:1", "simplex:2", "simplex:3", "cube:1", "cube:2", "cube:3",
            "simplex:0", "cube:-1", "cube:13", "simplex:99", "cube:", "cube:x",
            "disc", "trapezoid-paper", "hexagon-paper", "square", "", "simplex:٢"]
_VARIABLES = ["x", "y", "z", "x1", "x2", "x3", "x4", "x0", "w"]
_FUNCTIONS = ["sin", "cos", "exp", "log", "sqrt", "tan", "abs"]
_NOISE = list("()+-*/^,.:; xyz0123456789e") + ["**", "²", "٣", "\t", "[", "]"]


def _number(rng) -> str:
    return rng.choice(_SMALL if rng.random() < 0.5 else _NUMBERS)


def _expr(rng, depth=0) -> str:
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        return rng.choice(_VARIABLES) if rng.random() < 0.6 else _number(rng)
    if roll < 0.55:
        op = rng.choice(["+", "-", "*", "/", "^"])
        right = _number(rng) if op == "^" else _expr(rng, depth + 1)
        return f"{_expr(rng, depth + 1)}{op}{right}"
    if roll < 0.7:
        return f"{rng.choice(_FUNCTIONS)}({_expr(rng, depth + 1)})"
    if roll < 0.8:
        return f"-{_expr(rng, depth + 1)}"
    if roll < 0.9:
        return f"({_expr(rng, depth + 1)})"
    return f"({_expr(rng, depth + 1)})^{rng.choice(_SMALL)}"


def _mangled_expr(rng) -> str:
    text = _expr(rng)
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:i] + rng.choice(_NOISE) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def _region_files(tmp_path) -> list[str]:
    def rat(k):
        return {"rat": [str(k), "1"]}

    root3 = {"quad": {"a": ["0", "1"], "b": ["1", "1"], "rad": 3}}

    blobs = {
        "simplex.json": {"simplex": 2},
        "cube.json": {"cube": 3},
        "cube_big.json": {"cube": 40},
        "disc.json": {"disc": True},
        "triangle.json": {"polygon": [[rat(0), rat(0)], [rat(1), rat(0)], [rat(0), rat(1)]]},
        "flat.json": {"polygon": [[rat(0), rat(0)], [rat(1), rat(0)], [rat(2), rat(0)]]},
        "sqrt.json": {"polygon": [[rat(0), rat(0)], [root3, rat(0)], [rat(0), rat(1)]]},
        "two_keys.json": {"simplex": 2, "cube": 2},
        "list.json": [1, 2, 3],
        "empty.json": {},
    }
    paths = []
    for name, blob in blobs.items():
        path = tmp_path / name
        path.write_text(json.dumps(blob))
        paths.append(str(path))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    return paths + [str(broken), str(tmp_path / "missing.json"), str(tmp_path)]


def _options(rng, command, files) -> list[str]:
    choices = {
        "verify": [("--rule", lambda: rng.choice(_RULES)), ("--dim", lambda: _number(rng)),
                   ("--max-degree", lambda: _number(rng)), ("--all", None)],
        "moments": [("--region", lambda: rng.choice(_REGIONS)),
                    ("--region-file", lambda: rng.choice(files)),
                    ("--degree", lambda: _number(rng))],
        "derive": [("--region", lambda: rng.choice(_REGIONS)),
                   ("--region-file", lambda: rng.choice(files)),
                   ("--targets", lambda: rng.choice(["deg", "deg-1", "degx", "x"]) if rng.random()
                    < 0.2 else "deg" + rng.choice(_SMALL)),
                   ("--exclude", lambda: _mangled_expr(rng)),
                   ("--mode", lambda: rng.choice(["lambda", "weights", "both"]))],
        "family": [("--param", lambda: _number(rng)),
                   ("--point", lambda: ",".join(_number(rng) for _ in range(rng.randint(0, 5)))),
                   ("--branch", lambda: rng.choice(["primary", "conjugate", "other"])),
                   ("--vertex-search", None)],
        "compound": [("--rule", lambda: rng.choice(_RULES)), ("--dim", lambda: _number(rng)),
                     ("--expr", lambda: _mangled_expr(rng)),
                     ("--levels", lambda: f"{_number(rng)}:{_number(rng)}"),
                     ("--reference", lambda: _number(rng))],
        "catalog": [("--dim", lambda: _number(rng))],
    }[command]
    argv = []
    if command == "family":
        argv.append(rng.choice(["triangle", "square", "trapezoid", "simplex3", "pentagon"]))
    for flag, value in choices:
        # compound refuses to start without both
        if rng.random() < (0.9 if flag in ("--rule", "--expr") else 0.6):
            argv += [flag] if value is None else [f"{flag}={value()}"]
    return argv


def _argv(rng, files) -> list[str]:
    argv = []
    if rng.random() < 0.3:
        argv.append(f"--format={rng.choice(['text', 'json', 'csv', 'xml'])}")
    command = rng.choice(["verify", "moments", "derive", "family", "compound", "catalog"])
    argv += [command] + _options(rng, command, files)
    if rng.random() < 0.05:
        argv.insert(rng.randint(0, len(argv)), rng.choice(["--help", "-x", "--dim", "5", "é"]))
    if rng.random() < 0.05:
        argv = argv[1:] if argv else argv
    return argv


def test_random_argv_only_ever_exits_0_1_or_2(tmp_path, capsys):
    rng = random.Random(SEED)
    files = _region_files(tmp_path)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(CASES):
        argv = _argv(rng, files)
        try:
            code = run(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"cli.run({argv!r}) raised {exc!r}")
        capsys.readouterr()
        assert code in codes, argv
        codes[code] += 1
    # the generator reaches every outcome, not only argparse refusals
    assert all(codes.values()), codes
