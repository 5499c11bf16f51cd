"""Smoke test of the benchmark harness on its tiny configuration.

    python3 -m pytest benchmarks/test_smoke.py

Each workload runs once per mode with one request per kind; every metric
BENCHMARK.json names must come back with its unit.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, sequence  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_comes_back_with_its_unit(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_lists_the_traced_layer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]


def test_every_menu_entry_has_a_recorded_output():
    expected = oracle.load()
    for name, workload in WORKLOADS.items():
        assert {r.key for r in workload.menu()} == set(expected[name])


def test_seed_fixes_the_request_order():
    def first(name, seed, n=200):
        return [r.key for r in itertools.islice(sequence(WORKLOADS[name], seed), n)]

    assert first("certify", 5) == first("certify", 5) != first("certify", 6)
    exact = [r.key for r in sequence(WORKLOADS["exact-fields"], 5)]
    assert len(exact) == len(set(exact)) == len(WORKLOADS["exact-fields"].menu())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_log_scales_by_the_samples_near_a_request():
    import speed

    log = speed.SpeedLog()
    for stamp, seconds in [(0.0, 1e-3), (1.0, 2e-3), (1.01, 2e-3), (1.02, 2e-3), (3.0, 1e-3)]:
        log.stamps.append(stamp)
        log.times.append(seconds)
    # samples inside the request are its busy time, taken out of its latency
    assert log.busy(0.995, 1.015) == 4e-3
    # the three samples near the request run at half the nominal speed
    assert log.factor(0.995, 1.015) == speed.REF_NOMINAL_S / 2e-3
    # a request far from any sample takes the nearest ones
    assert log.factor(2.5, 2.6) == speed.REF_NOMINAL_S / 2e-3
