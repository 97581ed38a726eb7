"""Self-tests of the benchmark harness: the oracles reject corrupted
reports, self time is computed correctly, the generator is deterministic,
and traced runs repeat their exact counts.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Call, make_workload  # noqa: E402
from worker import Runner  # noqa: E402

import fuzzfix  # noqa: E402


class _Calls(unittest.TestCase):
    """Runs small real calls once and hands out copies of their reports."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.workdir = Path(cls.tmp.name)
        cls.runs = {}
        for name in WORKLOADS:
            make_workload(name, 7).write(cls.workdir)
        cls.runner = Runner(cls.workdir)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def outcome(self, call: Call) -> tuple[int, dict]:
        key = call.argv
        if key not in self.runs:
            args = self.runner.parser.parse_args(self.runner.argv(call))
            code, text = fuzzfix.cli.run_command(args)
            self.runs[key] = (code, json.loads(text))
        code, doc = self.runs[key]
        return code, copy.deepcopy(doc)

    def problems(self, call: Call, code: int, doc: dict) -> list:
        recompute = (self.runner._recompute(call)
                     if call.expect["check"] == "verify" else None)
        return oracles.check(call.expect, code, doc, recompute)[0]


class TestOracles(_Calls):
    def assert_rejects(self, call, mutate, code_delta: int = 0):
        code, doc = self.outcome(call)
        self.assertEqual(self.problems(call, code, doc), [])
        mutate(doc)
        self.assertNotEqual(self.problems(call, code + code_delta, doc), [])

    def test_verify_pass(self):
        call = make_workload("verify-linear", 7).warmup[0]
        self.assert_rejects(call, lambda d: d.update(verdict="fail"))
        self.assert_rejects(call, lambda d: d["report"].update(worst_margin=1e-6))
        self.assert_rejects(call, lambda d: d["report"]["worst_point"].update(margin=-1e-6))
        self.assert_rejects(call, lambda d: d["report"]["margin_summary"].update(mean=0.5))
        self.assert_rejects(call, lambda d: d["report"].update(samples=1))

    def test_verify_integral_closed_form(self):
        call = make_workload("verify-integral", 7).warmup[0]
        self.assert_rejects(call, lambda d: d["report"]["recheck"].update(worst_margin=-1e-3))
        self.assert_rejects(call, lambda d: d["report"]["margin_summary"].update(max=1.0))

    def test_verify_fail_witness(self):
        call = next(c for c in make_workload("checks-mix", 7).unit
                    if c.argv[0] == "verify")
        self.assert_rejects(call, lambda d: d.update(verdict="pass"))
        self.assert_rejects(call, lambda d: d["report"]["witness"].update(margin=-0.5))
        self.assert_rejects(call, lambda d: None, code_delta=-1)

    def test_dp_solution(self):
        call = make_workload("dp-solve", 7).warmup[0]

        def shift(doc):
            doc["report"]["solution"]["value"][-1] += 1e-6
        self.assert_rejects(call, shift)
        self.assert_rejects(call, lambda d: d["report"].update(common_solution=False))

    def test_checks_mix_calls(self):
        for call in make_workload("checks-mix", 7).warmup:
            code, doc = self.outcome(call)
            self.assertEqual(self.problems(call, code, doc), [], call.label)
        theorem = make_workload("checks-mix", 7).warmup[1]

        def move_fixed_point(doc):
            doc["report"]["search"]["certificates"][0]["z"] = 0.25
        self.assert_rejects(theorem, move_fixed_point)


class TestSelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span(1, None, "root", 0.0, 10.0, 1),
            Span(2, 1, "a", 1.0, 4.0, 1),
            Span(3, 1, "b", 3.0, 6.0, 2),      # overlaps a, on another thread
            Span(4, 1, "c", 8.0, 12.0, 2),     # runs past its parent's end
            Span(5, 2, "d", 2.0, 3.0, 1),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(own[2], 3.0 - 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[5], 1.0)

    def test_parallel_metrics(self):
        spans = [
            Span(1, None, "parallel.map_concat", 0.0, 4.0, 1, 2),
            Span(2, 1, "parallel.chunk", 0.5, 2.5, 2, 0.0),
            Span(3, 1, "parallel.chunk", 1.0, 3.5, 3, 0.0),
        ]
        m = layer_metrics(spans)
        self.assertEqual(m["parallel.chunks"], 2)
        self.assertAlmostEqual(m["parallel.chunk_busy_s"], 4.5)
        self.assertAlmostEqual(m["parallel.chunk_wait_s"], 1.5)
        self.assertAlmostEqual(m["parallel.utilization"], 4.5 / 8.0)
        self.assertAlmostEqual(m["parallel.concat_s"], 1.0)


class TestGenerator(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in WORKLOADS:
            self.assertEqual(make_workload(name, 3), make_workload(name, 3))
            self.assertNotEqual(make_workload(name, 3).configs,
                                make_workload(name, 4).configs)

    def test_only_known_outcomes_vary(self):
        a, b = make_workload("dp-solve", 1), make_workload("dp-solve", 2)
        self.assertNotEqual(a.unit[0].expect["c"], b.unit[0].expect["c"])
        orders = {tuple(c.argv[0] for c in make_workload("checks-mix", s).unit)
                  for s in range(5)}
        self.assertGreater(len(orders), 1)


class TestTrace(_Calls):
    def test_exact_counts_repeat(self):
        t = tracer.Tracer()
        t.install()
        runner = Runner(self.workdir, t)
        counts = []
        for _ in range(2):
            t.enabled = True
            for call in make_workload("checks-mix", 7).warmup:
                self.assertEqual(runner.run(call)["problems"], [])
            t.enabled = False
            m = layer_metrics(t.take())
            counts.append({k: m[k] for k in tracer.EXACT})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["metric.membership.points"], 0)
        self.assertGreater(counts[0]["pipeline.residuals_on_grid.calls"], 0)


if __name__ == "__main__":
    unittest.main()
