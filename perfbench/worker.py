"""One benchmark process: a fresh interpreter, so csplab's caches start empty.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup      import csplab, generate the first deck, report when ready;
  run        then run whole decks, closed loop, for SECONDS (untraced);
  trace      run the workload's first trace_decks decks with every layer wrapped;
  reference  run the same decks untraced, to price the tracing.

Prints one JSON object on stdout.  csplab's own output goes to memory.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import resource
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent


def import_csplab():
    """csplab.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    from csplab import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "csplab":
        raise ImportError(f"csplab imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def call(main, req, check, tracer=None) -> tuple[float, str | None, int, float]:
    """Send one request: (latency s, problem or None, bytes out, check s).

    Any exception, SystemExit and RecursionError included, is a failed
    request, never the end of the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        if tracer:
            tracer.open(tracing.ROOT_SPAN)
        try:
            code = main(list(req.argv))
            raised = None
        except (Exception, SystemExit) as exc:
            raised = exc
        if tracer:
            tracer.close()
        latency = perf_counter() - start
    text = out.getvalue()
    start = perf_counter()
    if raised is not None:
        problem = f"raised {type(raised).__name__}: {str(raised)[:120]}"
    else:
        problem = check(req, code, text)
        if problem and err.getvalue():
            problem += f" ({err.getvalue().strip()[:120]})"
    return latency, problem, len(text.encode()), perf_counter() - start


class Tally:
    """Attempted and failed requests, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def add(self, req, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{' '.join(req.argv)[:120]}: {problem}")


def timed_loop(stream, main, check, *, seconds: float = math.inf, decks: int | None = None,
               tracer=None) -> dict:
    """Closed loop, one client: send the next request when the last returns,
    until `seconds` have passed or `decks` decks are done.  Metrics cover
    whole decks only, so each run measures the same mix; requests of a cut
    deck still count as attempted.  Checking outputs is client work and is
    left out of the wall time, and so is the calibration kernel, which runs
    after every request to read the machine's speed during each deck."""
    tally = Tally()
    latencies: list[float] = []
    timed = []
    walls: list[float] = []
    bytes_out = 0
    calibration: list[float] = []  # the kernel's mean time in each deck
    start = perf_counter()
    for deck in itertools.islice(stream, decks):
        deck_start, client_s, deck_latencies, kernel = perf_counter(), 0.0, [], []
        cut = False
        for req in deck:
            if latencies and perf_counter() - start >= seconds:
                cut = True
                break
            if tracer:
                tracer.request = tally.attempted
            latency, problem, nbytes, check_s = call(main, req, check, tracer)
            kernel.append(speed.calibrate())
            client_s += check_s + kernel[-1]
            bytes_out += nbytes
            deck_latencies.append(latency)
            tally.add(req, problem)
        if cut:
            break
        walls.append(perf_counter() - deck_start - client_s)
        latencies += deck_latencies
        timed += deck
        calibration.append(sum(kernel) / len(kernel))
    return {"latencies": latencies, "walls": walls, "calibration": calibration, "timed": timed,
            "tally": tally, "bytes_out": bytes_out}


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    cli = import_csplab()
    import oracle
    import workloads

    stream = workloads.decks(workload, seed)
    first = next(stream)
    ready_at = perf_counter()
    result: dict = {
        "ready_at": ready_at,
        "ready_calibration_s": sum(speed.calibrate() for _ in range(8)) / 8,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    stream = itertools.chain([first], stream)
    tracer = tracing.Tracer() if mode == "trace" else None
    if mode == "run":
        limit = {"seconds": seconds}
    else:
        limit = {"decks": workloads.WORKLOADS[workload].trace_decks}
    with tracing.installed(tracer) if tracer else nullcontext():
        loop = timed_loop(stream, cli.main, oracle.check, tracer=tracer, **limit)
    tally = loop["tally"]
    result.update(
        requests=len(loop["latencies"]),
        latencies_ms=[x * 1000 for x in loop["latencies"]],
        deck_walls_s=loop["walls"],
        calibration_s=loop["calibration"],
        repeat_pct=100 * workloads.repeat_share(loop["timed"]),
    )
    if mode == "run":
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            request_hash=workloads.request_hash(workload, seed, 2),
        )
    if tracer:
        result.update(layers(tracer, loop["latencies"], loop["bytes_out"]))
        write_spans(tracer, workload, seed)

    probes = Tally()
    for req in workloads.WORKLOADS[workload].probes:
        probes.add(req, call(cli.main, req, oracle.check)[1])
    result.update(
        attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
        probes_attempted=probes.attempted, probes_failed=probes.failed,
        probe_failures=probes.failures,
    )
    print(json.dumps(result))
    return 0


def layers(tracer, latencies: list[float], bytes_out: int) -> dict:
    """Per-layer self seconds and counters over the traced requests."""
    totals = tracer.layer_totals()
    calls = tracer.layer_calls()
    return {
        "layer_self_s": totals,
        "layer_counts": {
            **calls,
            "qpoly.cyclotomic.distinct": len(tracer.cyclotomic_orders),
            "cli.bytes_out": bytes_out,
        },
        # an identity: the root span's self time is whatever its children leave
        "coverage_pct": 100 * sum(totals.values()) / sum(latencies),
        # this can fall: time in functions no layer wraps lands in cli.self_s
        "layers_pct": 100 * (sum(totals.values()) - totals[tracing.ROOT_SPAN]) / sum(latencies),
        "spans": len(tracer.spans),
    }


def write_spans(tracer, workload: str, seed: int) -> None:
    """Write the spans and aggregates held in memory, one JSON line each."""
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "request": s.request,
                                 "parent": s.parent, "start": s.start, "end": s.end,
                                 "self_s": s.self_s}) + "\n")
        for (request, layer), (seconds, n) in sorted(tracer.aggregates.items()):
            fh.write(json.dumps({"aggregate": layer, "request": request,
                                 "seconds": seconds, "calls": n}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
