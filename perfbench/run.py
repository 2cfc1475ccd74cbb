"""Closed-loop benchmark of the csp-lab command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client sends seeded csp-lab requests by calling csplab.cli.main(argv)
in a fresh worker interpreter, the next request only after the previous
returns, and checks every output against facts it computes itself.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it wraps each
csplab module from outside and reports self time and counters per layer,
and the tracing overhead against an untraced run of the same requests.

Timings are reported at a reference speed of the machine, read from a
calibration kernel after each request and set-up (speed.py); the wall-clock
figures are printed beside them and kept in the record.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A full record of the run goes to
perfbench/results/.  Timings use only time.perf_counter and
resource.getrusage: the benchmark reads no hardware counters, drops no page
cache and pins no CPU.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 6  # set-up-only spawns before and again after the timed run
OVERHEAD_PAIRS = 3  # traced and untraced workers, alternated, that price the tracing
DEADLINE_S = 170  # the whole command ends well within 180 s

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_pct": "%",
}
SELF_TIMES = (
    "qpoly.cyclotomic", "qpoly.eval", "qpoly.construct", "qpoly.fold",
    "catalan.enumerate", "catalan.step", "catalan.label",
    "tableaux.enumerate", "tableaux.step", "tableaux.label",
    "perms.enumerate", "perms.step", "perms.label",
    "sieve.build", "sieve.materialize", "sieve.orbit_decompose", "sieve.roots",
    "sieve.orbits_check", "cli",
)
COUNTS = (
    "qpoly.cyclotomic.calls", "qpoly.cyclotomic.distinct", "qpoly.eval.calls",
    "qpoly.eval.nonint", "catalan.enumerate.objects", "catalan.step.calls",
    "catalan.label.calls", "tableaux.step.calls", "tableaux.label.calls",
    "perms.label.calls", "sieve.orbit_decompose.calls", "sieve.roots.compose_steps",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIMES},
    **{name: "count" for name in COUNTS},
    "cli.bytes_out": "bytes",
    "workload.repeat_pct": "%",
    "trace.coverage_pct": "%",
    "trace.layers_pct": "%",
    "trace.overhead_pct": "%",
    "probes.attempted": "count",
    "probes.failed": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(mode: str, workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Run one worker interpreter; its result, with its set-up time."""
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}
    spawned = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, one clock for every process
    result["setup_s"] = result["ready_at"] - spawned
    return result


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def mean_deck_median(latencies: list[float], n_decks: int) -> float:
    """The median latency of each whole deck, averaged over the decks.

    Every deck is the same mix, so each deck's median is a median latency.
    Averaging them, not pooling, keeps the figure from jumping between the
    machine's slow and fast phases, which last seconds to minutes."""
    size = len(latencies) // n_decks
    return statistics.fmean(
        statistics.median(latencies[i * size:(i + 1) * size]) for i in range(n_decks))


def scaled(run: dict) -> tuple[list[float], list[float]]:
    """A run's latencies (ms) and deck walls (s) at the reference speed:
    each deck's timings times REFERENCE_S over the kernel's mean time in
    that deck."""
    walls = run["deck_walls_s"]
    factors = [speed.REFERENCE_S / k for k in run["calibration_s"]]
    size = len(run["latencies_ms"]) // len(walls)
    latencies = [x * factors[i // size] for i, x in enumerate(run["latencies_ms"])]
    return latencies, [w * f for w, f in zip(walls, factors)]


def timings(latencies_ms: list[float], walls: list[float], setups: list[float]) -> dict:
    return {
        "requests_per_s": len(latencies_ms) / sum(walls),
        "latency_p50_ms": mean_deck_median(latencies_ms, len(walls)),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "setup_s": statistics.median(setups),
    }


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """End-to-end metrics at the reference speed; the wall-clock figures go
    to the record.  Set-up time is sampled on both sides of the timed run
    and its median reported."""
    def setups() -> list[dict]:
        return [worker("setup", workload, seed, seconds, deadline) for _ in range(SETUP_SPAWNS)]

    before = setups()
    run = worker("run", workload, seed, seconds, deadline)
    spawns = [*before, run, *setups()]
    setup_wall = [s["setup_s"] for s in spawns]
    setup_scaled = [s["setup_s"] * speed.REFERENCE_S / s["ready_calibration_s"] for s in spawns]
    metrics = {
        **timings(*scaled(run), setup_scaled),
        "peak_rss_mb": run["peak_rss_mb"],
        "passed_pct": 100 * (run["attempted"] - run["failed"]) / run["attempted"],
    }
    record = {key: run[key] for key in (
        "requests", "deck_walls_s", "calibration_s", "repeat_pct", "request_hash", "attempted",
        "failed", "failures", "probes_attempted", "probes_failed", "probe_failures",
        "latencies_ms")}
    record.update(
        wall=timings(run["latencies_ms"], run["deck_walls_s"], setup_wall),
        setup_samples_s=setup_wall,
        ready_calibration_s=[s["ready_calibration_s"] for s in spawns],
    )
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()}, "record": record}


def traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Per-layer metrics from the last traced worker, whose spans stay in
    results/.  The overhead is the median, over OVERHEAD_PAIRS pairs run in
    alternating order (ABBAAB...), of traced over untraced time on the same
    decks, each at the reference speed."""
    ratios, runs = [], []
    for i in range(OVERHEAD_PAIRS):
        order = ("trace", "reference") if i % 2 == 0 else ("reference", "trace")
        pair = {mode: worker(mode, workload, seed, seconds, deadline) for mode in order}
        ratios.append(sum(scaled(pair["trace"])[0]) / sum(scaled(pair["reference"])[0]))
        runs.append(pair["trace"])
    run = runs[-1]
    values = {f"{layer}.self_s": run["layer_self_s"].get(layer, 0.0) for layer in SELF_TIMES}
    values.update({name: run["layer_counts"].get(name, 0) for name in COUNTS})
    values.update({
        "cli.bytes_out": run["layer_counts"]["cli.bytes_out"],
        "workload.repeat_pct": run["repeat_pct"],
        "trace.coverage_pct": run["coverage_pct"],
        "trace.layers_pct": run["layers_pct"],
        "trace.overhead_pct": 100 * (statistics.median(ratios) - 1),
        "probes.attempted": run["probes_attempted"],
        "probes.failed": run["probes_failed"],
    })
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    record = {key: run[key] for key in (
        "requests", "repeat_pct", "spans", "attempted", "failed", "failures", "probes_attempted",
        "probes_failed", "probe_failures")}
    record.update(overhead_ratios=ratios)
    return {"metrics": metrics, "record": record}


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "clocks": "time.perf_counter and resource.getrusage only; no hardware "
                  "counters, no page-cache dropping, no CPU pinning",
    }


def report(workload: str, outcome: dict) -> None:
    """Human-readable lines, ahead of the JSON result line."""
    rec = outcome["record"]
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{workload:<16} {name:<30} {value:>14.4f} {unit}")
    for name, value in rec.get("wall", {}).items():
        print(f"{workload:<16} {name + ' (wall clock)':<30} {value:>14.4f} {END_TO_END[name]}")
    failed_pct = 100 * rec["failed"] / rec["attempted"]
    print(f"{workload:<16} {'failed_pct':<30} {failed_pct:>14.4f} %  "
          f"({rec['failed']} of {rec['attempted']} requests)")
    print(f"{workload:<16} timed requests {rec['requests']}, {rec['repeat_pct']:.1f}% repeating "
          f"an earlier polynomial or order; boundary probes: "
          f"{rec['probes_failed']} of {rec['probes_attempted']} failed")
    for line in rec["failures"]:
        print(f"{workload:<16} FAILED {line}")
    for line in rec["probe_failures"]:
        print(f"{workload:<16} PROBE FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "csplab" / "cli.py").is_file():
        print(f"error: no csplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    env = environment()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else untraced
    # --workload all runs each workload for its own deadline
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = measure(name, args.seed, args.seconds, perf_counter() + DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    print(f"environment: {json.dumps(env)}")
    for name, outcome in outcomes.items():
        report(name, outcome)
        path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
            **outcome["record"],
        }, indent=1))

    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(o["record"]["failed"] == 0 for o in outcomes.values()),
        "attempted": sum(o["record"]["attempted"] for o in outcomes.values()),
        "failed": sum(o["record"]["failed"] for o in outcomes.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, o in outcomes.items()
            for metric, (value, unit) in o["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
