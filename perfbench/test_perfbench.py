"""Tests of the benchmark itself.

    python3 -m pytest perfbench      or      python3 -m unittest discover perfbench
"""
from __future__ import annotations

import importlib
import io
import itertools
import json
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class TracerTest(unittest.TestCase):
    def test_self_times_sum_to_wall_time(self):
        tracer = tracing.Tracer()
        tracer.request = 0
        leaf = tracer.wrap_span("leaf", lambda: busy(0.002))
        label = tracer.wrap_aggregate("label", lambda: busy(0.0002))
        # an aggregate that calls another is counted once
        step = tracer.wrap_aggregate("step", lambda: (label(), busy(0.0002)))

        def middle():
            leaf()
            for _ in range(5):
                step()
            label()
            busy(0.001)

        middle = tracer.wrap_span("middle", middle)
        tracer.open("root")
        middle()
        leaf()
        busy(0.001)
        tracer.close()

        (root,) = [s for s in tracer.spans if s.name == "root"]
        totals = tracer.layer_totals()
        self.assertAlmostEqual(sum(totals.values()), root.end - root.start, delta=1e-9)
        self.assertTrue(all(s.self_s >= 0 for s in tracer.spans))
        self.assertEqual(tracer.layer_calls()["step.calls"], 5)
        self.assertEqual(tracer.layer_calls()["label.calls"], 1)
        parents = {s.name: s.parent for s in tracer.spans}
        self.assertEqual(parents["middle"], root.id)
        self.assertIsNone(parents["root"])

    def test_originals_restored_after_traced_run(self):
        targets = {**tracing.SPANS, **tracing.AGGREGATES}
        modules = {m: importlib.import_module(f"csplab.{m}") for m, _ in targets}
        originals = {(m, a): getattr(modules[m], a) for m, a in targets}
        from csplab import cli

        tracer = tracing.Tracer()
        with self.assertRaises(RuntimeError):
            with tracing.installed(tracer) as saved:
                self.assertEqual(len(saved), len(targets))
                self.assertIsNot(getattr(modules["sieve"], "orbit_decompose"),
                                 originals[("sieve", "orbit_decompose")])
                with redirect_stdout(io.StringIO()):
                    self.assertEqual(cli.main(["verify", "ncp", "--n", "5"]), 0)
                raise RuntimeError("leave the traced block early")
        for (m, a), original in originals.items():
            self.assertIs(getattr(modules[m], a), original, f"csplab.{m}.{a}")
        self.assertGreater(tracer.layer_calls()["catalan.label.calls"], 0)


class WorkloadTest(unittest.TestCase):
    def test_request_list_hash_follows_the_seed(self):
        for name in workloads.WORKLOADS:
            first = workloads.request_hash(name, 1, 2)
            self.assertEqual(first, workloads.request_hash(name, 1, 2))
            self.assertNotEqual(first, workloads.request_hash(name, 2, 2))

    def test_decks_are_whole_and_seeded(self):
        for name in workloads.WORKLOADS:
            a = next(workloads.decks(name, 5))
            b = next(workloads.decks(name, 5))
            self.assertEqual([r.argv for r in a], [r.argv for r in b])
            self.assertEqual(len(a) % 2, 1, "odd deck length keeps p50 on one template")


class LoopTest(unittest.TestCase):
    def test_raising_request_is_failed_and_the_run_continues(self):
        deck = [workloads.Request(("ok",)), workloads.Request(("recurse",)),
                workloads.Request(("usage",)), workloads.Request(("ok",))]

        def main(argv):
            if argv == ["recurse"]:
                raise RecursionError("maximum recursion depth exceeded")
            if argv == ["usage"]:
                raise SystemExit(2)
            return 0

        def check(req, code, out):
            return None

        loop = worker.timed_loop(itertools.repeat(deck), main, check, seconds=0)
        tally = loop["tally"]
        self.assertEqual(len(loop["latencies"]), 4)
        self.assertEqual((tally.attempted, tally.failed), (4, 2))
        self.assertIn("RecursionError", tally.failures[0])
        self.assertIn("SystemExit", tally.failures[1])
        loop = worker.timed_loop(itertools.repeat(deck), main, check, decks=3)
        self.assertEqual((len(loop["latencies"]), len(loop["walls"])), (12, 3))


class MetricTest(unittest.TestCase):
    def test_p50_averages_the_median_of_each_deck(self):
        self.assertEqual(run.mean_deck_median([1, 2, 3, 10, 20, 30], 2), 11)

    def test_each_deck_is_scaled_by_its_own_kernel_time(self):
        ref = speed.REFERENCE_S
        result = {"latencies_ms": [1, 2, 3, 4], "deck_walls_s": [0.5, 0.5],
                  "calibration_s": [ref, 2 * ref]}
        self.assertEqual(run.scaled(result), ([1, 2, 1.5, 2], [0.5, 0.25]))


class ContractTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(declared, reported, key)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


class OracleTest(unittest.TestCase):
    def run_cli(self, req):
        from csplab import cli

        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(req.argv))
        return code, out.getvalue()

    def test_correct_outputs_pass(self):
        for req in (workloads.verify("syt_rect", m=2, n=3),
                    workloads.verify("cycle", n=12, corrupt=5, json=True),
                    workloads.orbits("ncm", n=4),
                    workloads.orbits("conj_class", lam=(3, 1), json=True),
                    workloads.poly("cyclotomic", 12)):
            self.assertIsNone(oracle.check(req, *self.run_cli(req)), req.argv)

    def test_wrong_outputs_fail(self):
        req = workloads.verify("multiset", n=3, k=2)
        code, out = self.run_cli(req)
        self.assertIsNotNone(oracle.check(req, 1, out))
        self.assertIn("size", oracle.check(req, code, out.replace("size 6", "size 7")))
        self.assertIsNotNone(oracle.check(req, code, out.replace("yes", "NO", 1)))
        req = workloads.poly("cyclotomic", 9)
        code, out = self.run_cli(req)
        self.assertIsNotNone(oracle.check(req, code, out.replace("value at q=1: 3", "value at q=1: 1")))


if __name__ == "__main__":
    unittest.main()
