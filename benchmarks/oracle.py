"""Expected outputs of every menu entry, and the comparison against them.

``expected.json`` holds, per workload and per menu entry (keyed by its
argv template), the exit code and the text output recorded from the
program.  Every line must match byte for byte, with one exception: in
``compound`` output the floating-point numbers may differ by a relative
``REL_TOL`` plus an absolute ``ABS_TOL`` plus half a unit in the last
digit the expected value prints (for the ``%.3f`` ratio and order
columns).  Everything around those numbers must still match exactly.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"
REL_TOL = 1e-6
ABS_TOL = 1e-12
_FLOAT = re.compile(r"-?(?:\d+\.\d*|\.\d+)(?:e[-+]?\d+)?|-?\d+e[-+]?\d+|-?inf|nan")


def load() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def save(outputs: dict) -> None:
    doc = {
        "format": "per workload: argv template -> exit code and text stdout",
        "float_tolerance": {
            "applies_to": "floating-point numbers in compound output",
            "relative": REL_TOL,
            "absolute": ABS_TOL,
            "plus": "half a unit in the last printed digit of the expected value",
        },
        "workloads": outputs,
    }
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _float_close(expected: str, actual: str) -> bool:
    e, a = float(expected), float(actual)
    if e == a:
        return True
    mantissa = expected.split("e")[0]
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    exponent = int(expected.split("e")[1]) if "e" in expected else 0
    half_unit = 0.5 * 10.0 ** (exponent - decimals)
    return abs(e - a) <= REL_TOL * max(abs(e), abs(a)) + ABS_TOL + half_unit


def _compound_match(expected: str, actual: str) -> bool:
    if _FLOAT.sub("#", expected) != _FLOAT.sub("#", actual):
        return False
    return all(
        _float_close(e, a)
        for e, a in zip(_FLOAT.findall(expected), _FLOAT.findall(actual))
    )


def mismatch(argv, expected: dict, exit_code, stdout: str) -> str | None:
    """None when the output matches the record, else a short reason."""
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    want = expected["stdout"]
    if stdout == want:
        return None
    if argv[0] == "compound" and _compound_match(want, stdout):
        return None
    got_lines, want_lines = stdout.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: got {g!r}, expected {w!r}"
    return f"got {len(got_lines)} lines, expected {len(want_lines)}"
