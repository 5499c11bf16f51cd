"""Benchmark of the simpson-nd command line, end to end and per layer.

One closed-loop client in one thread drives the public CLI entry point
``simpson_nd.cli.run(argv)`` in-process with stdout captured, sending the
next request only after the last one returned.  The program is imported
from ``src/`` of the checkout this file sits in.  Each invocation runs one
workload in its own interpreter:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` replays the first requests of the same seeded
sequence once with every layer wrapped (see ``tracing.py``) and once
without, and reports the per-layer metrics and the trace overhead.

Times are scaled to a reference speed (see ``speed.py``): a fixed stdlib
kernel is timed between every two requests and every 20 ms during them
(an import-like one inside every set-up probe), and each time is
multiplied by the kernel's nominal time over its measured time nearby.  The reported
``setup_s``, ``requests_per_s``, ``latency_p50_ms`` and
``latency_tail_ms`` are scaled this way, since the shared host's speed
swings by up to 2x; the run record keeps the unscaled figures next to
them.  Every request's exit code and output are checked against
``expected.json``.  The last line of stdout is the JSON result; a run
record goes to ``benchmarks/.out/``.

Other modes:

    python3 benchmarks/run.py --check [--workload W]   # each menu entry once, exit 1 on mismatch
    python3 benchmarks/run.py --record                 # re-record expected.json from this commit
    python3 benchmarks/run.py --workload W --smoke ... # one request per kind, one set-up sample
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import speed  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Request, input_profile, sequence  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
SETUP_SAMPLES = 25
# a fixed percentile, so that the tail does not move with the number of
# requests a run fits in; every workload has at least 200 requests a run
TAIL_PERCENTILE = 95
_SETUP_CODE = (
    "import sys, time\n"
    + speed.IMPORT_KERNEL
    + "speed = [import_kernel() for _ in range(7)]\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import simpson_nd.cli\n"
    "simpson_nd.cli.build_parser()\n"
    "elapsed = time.perf_counter() - t0\n"
    "speed += [import_kernel() for _ in range(7)]\n"
    "print(elapsed, sorted(speed)[len(speed) // 2])\n"
)


class SetupError(Exception):
    pass


def import_cli():
    if not (SRC / "simpson_nd" / "cli.py").is_file():
        raise SetupError(f"no simpson_nd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import simpson_nd.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "simpson_nd":
        raise SetupError(f"imported simpson_nd from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Seconds to import simpson_nd.cli and build its parser, each in a
    fresh interpreter, scaled to the reference speed by the import-like
    kernel that the same interpreter times before and after; and the
    unscaled seconds.  One unmeasured first run fills the bytecode cache."""
    times, raw = [], []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            elapsed, kernel_s = map(float, proc.stdout.split())
            raw.append(elapsed)
            times.append(elapsed * speed.IMPORT_NOMINAL_S / kernel_s)
    return times, raw


def write_regions(workload, directory: Path) -> dict[str, str]:
    paths = {}
    for name, region in workload.regions.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(region), encoding="utf-8")
        paths[f"{{region:{name}}}"] = str(path)
    return paths


def call(cli, argv: list[str]):
    """One request: (exit code, stdout, start, end).  A request that raises
    gets the exception text as its exit code, which matches no record."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), t0, time.perf_counter()


class Client:
    """Sends one request at a time and checks each answer."""

    def __init__(self, cli, expected: dict, region_paths: dict[str, str]):
        self.cli = cli
        self.expected = expected
        self.region_paths = region_paths
        self.failures: list[str] = []

    def send(self, req: Request) -> tuple[float, float, bool]:
        code, stdout, start, end = call(self.cli, [self.region_paths.get(a, a) for a in req.argv])
        want = self.expected.get(req.key)
        if want is None:
            reason = "no recorded output"
        else:
            reason = oracle.mismatch(req.argv, want, code, stdout)
        if reason is not None:
            self.failures.append(f"{req.key}: {reason}")
        return start, end, reason is None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at ``TAIL_PERCENTILE``, or at the highest percentile with at
    least ten samples beyond it when a run has too few samples for that:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n * (100 - TAIL_PERCENTILE) / 100 >= 10:
        value = statistics.quantiles(ordered, n=100)[int(TAIL_PERCENTILE) - 1]
        return value, TAIL_PERCENTILE, sum(t > value for t in ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def timed_run(client: Client, requests, seconds: float | None, ticking: bool) -> dict:
    """Closed loop over ``requests`` until ``seconds`` pass (or the list ends).

    The speed kernel runs before the first request and after every
    request, outside the request latencies; with ``ticking`` also every
    ``speed.INTERVAL_S`` during requests, and that time is taken back out
    of them.  Latencies come both raw and scaled to the reference speed."""
    log = speed.SpeedLog()
    spans, done = [], []
    ok = 0
    exhausted = True
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    with log.ticking() if ticking else contextlib.nullcontext():
        log.sample()
        for req in requests:
            if deadline is not None and time.perf_counter() >= deadline:
                exhausted = False
                break
            t0, t1, good = client.send(req)
            spans.append((t0, t1))
            done.append(req)
            ok += good
            log.sample()
    wall = time.perf_counter() - start
    raw = [t1 - t0 - log.busy(t0, t1) for t0, t1 in spans]
    factors = [log.factor(t0, t1) for t0, t1 in spans]
    return {"raw": raw, "latencies": [t * f for t, f in zip(raw, factors)],
            "factors": factors, "kernel_s": list(log.times),
            "requests": done, "ok": ok, "wall": wall,
            "exhausted": exhausted and deadline is not None}


def end_to_end(window: dict, setup: list[float]) -> tuple[dict, dict]:
    raw, lat, factors = window["raw"], window["latencies"], window["factors"]
    n = len(lat)
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": window["ok"] / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": window["ok"] / n,
    }
    detail = {
        "requests": n,
        "error_rate": (n - window["ok"]) / n,
        "window_s": window["wall"],
        "exhausted_menu": window["exhausted"],
        "latency_tail": {"percentile": tail_pct, "samples": n, "samples_beyond": beyond},
        "setup_samples_s": setup,
        "speed_scaling": {
            "reference_nominal_s": speed.REF_NOMINAL_S,
            "reference_samples": len(window["kernel_s"]),
            "reference_median_s": statistics.median(window["kernel_s"]),
            "factor_min": min(factors),
            "factor_max": max(factors),
        },
        "unscaled": {
            "requests_per_s": window["ok"] / sum(raw),
            "requests_per_wall_s": window["ok"] / window["wall"],
            "latency_p50_ms": 1000 * statistics.median(raw),
            "latency_tail_ms": 1000 * tail(raw)[0],
        },
    }
    return metrics, detail


def traced_run(client: Client, requests: list[Request]) -> tuple[dict, Tracer, int]:
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_run(client, requests, None, ticking=False)
    finally:
        tracer.uninstall()
    untraced = timed_run(client, requests, None, ticking=False)
    metrics = tracer.layer_metrics()
    traced_rps = traced["ok"] / sum(traced["latencies"])
    untraced_rps = untraced["ok"] / sum(untraced["latencies"])
    metrics["trace.requests_per_s"] = traced_rps
    metrics["trace.untraced_requests_per_s"] = untraced_rps
    metrics["trace.overhead"] = untraced_rps / traced_rps
    metrics["input.repeat_share"] = input_profile(requests)["repeat_share"]
    return metrics, tracer, traced["ok"] + untraced["ok"]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, trace: int, requests: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "request_count": requests,
        "client": "closed loop, 1 client, 1 thread, in-process cli.run(argv)",
    }


def run_menu(cli, names, record: bool) -> int:
    """Run every menu entry once; compare with, or record, the outputs."""
    expected = oracle.load() if oracle.EXPECTED.exists() else {}
    bad = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in names:
            workload = WORKLOADS[name]
            paths = write_regions(workload, Path(tmp))
            recorded = {}
            slow = []
            for req in workload.menu():
                code, stdout, start, end = call(cli, [paths.get(a, a) for a in req.argv])
                slow.append((end - start, req.key))
                if record:
                    if code != 0:
                        print(f"{name}: {req.key}: exit {code}", file=sys.stderr)
                        bad += 1
                    recorded[req.key] = {"exit": code, "stdout": stdout}
                    continue
                want = expected.get(name, {}).get(req.key)
                reason = "no recorded output" if want is None else oracle.mismatch(
                    req.argv, want, code, stdout)
                if reason is not None:
                    bad += 1
                    print(f"MISMATCH {name}: {req.key}: {reason}", file=sys.stderr)
            if record:
                expected[name] = recorded
            slow.sort(reverse=True)
            print(f"{name}: {len(slow)} menu entries, {sum(t for t, _ in slow):.1f} s in all, "
                  f"slowest {1000 * slow[0][0]:.0f} ms ({slow[0][1]})", file=sys.stderr)
    if record:
        oracle.save(expected)
    print(f"{'recorded' if record else 'checked'}: {bad} problem(s)", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration: one request per kind, one set-up sample")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="run each menu entry once against expected.json")
    mode.add_argument("--record", action="store_true",
                      help="record expected.json from this commit")
    args = parser.parse_args(argv)
    if not (args.check or args.record) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    # the recorded outputs are the default text format
    os.environ.pop("SIMPSON_ND_FORMAT", None)
    OUT.mkdir(exist_ok=True)
    try:
        cli = import_cli()
        if args.check or args.record:
            names = [args.workload] if args.workload else list(WORKLOADS)
            return run_menu(cli, names, args.record)
        setup, setup_raw = (measure_setup(1 if args.smoke else SETUP_SAMPLES)
                            if args.trace == 0 else ([], []))
        expected = oracle.load()
    except (SetupError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        client = Client(cli, expected[workload.name], write_regions(workload, tmp))
        if args.smoke:
            requests = workload.one_per_kind()
        else:
            requests = sequence(workload, args.seed)
        tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if args.trace == 0:
            window = timed_run(client, requests, None if args.smoke else args.seconds,
                               ticking=True)
            metrics, detail = end_to_end(window, setup)
            detail["unscaled"]["setup_samples_s"] = setup_raw
            done = window["requests"]
            attempted, ok = len(done), window["ok"]
            units = END_TO_END
        else:
            if not args.smoke:
                requests = list(itertools.islice(requests, workload.trace_requests))
            metrics, tracer, ok = traced_run(client, requests)
            done = requests
            attempted = 2 * len(requests)
            spans = tracer.write_spans(OUT / f"spans-{tag}.tsv.gz")
            detail = {"spans": spans, "spans_file": f"spans-{tag}.tsv.gz",
                      "passes": "traced, then untraced, over the same requests"}
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
        record = run_record(workload.name, args.seed, args.trace, len(done))
        record.update(detail)
        record["inputs"] = input_profile(done)
        record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        record["failures"] = client.failures[:20]
        (OUT / f"result-{tag}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in client.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    summary = {k: v for k, v in record.items() if k not in ("metrics", "failures")}
    print(json.dumps(summary), file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not client.failures,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
