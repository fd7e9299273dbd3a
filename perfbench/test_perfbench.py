"""Self-test of the benchmark on reduced-size workloads.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Checks that every workload passes its own checks, that a wrong recorded
digest and a wrong answer both count as errors, that traced and untraced
passes produce the same digests, and that the metric names agree with
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import quiverfilt as qf  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

SEED = 7


def _run(ops, expected=None, trace=False):
    with Clock() as clock:
        return harness.run(clock, ops, 0, expected, trace)


def _ratios(result):
    layers = harness.per_layer(result) if result.traced else None
    errors = len(result.problems("error")) / result.attempted
    refusals = len(result.problems("refused")) / result.attempted
    return errors, refusals, layers


class ReducedWorkloads(unittest.TestCase):
    def setUp(self):
        self.cases = {}
        for name, make in workloads.REDUCED.items():
            w = make()
            self.cases[name] = w.operations(w.setup(SEED))

    def test_every_check_passes_and_tracing_keeps_digests(self):
        for name, ops in self.cases.items():
            with self.subTest(workload=name):
                result = _run(ops, trace=True)
                errors, refusals, layers = _ratios(result)
                self.assertEqual((errors, refusals), (0, 0), result.problems("error"))
                self.assertEqual(layers["error_ratio"], 0)
                self.assertEqual(layers["refusal_ratio"], 0)
                untraced, (traced, _) = result.passes[0], result.traced[0]
                self.assertEqual(untraced.op_digests, traced.op_digests)
                self.assertNotIn("error", untraced.op_digests)

    def test_wrong_recorded_digest_is_an_error(self):
        ops = self.cases["endtower-qq"]
        good = _run(ops).passes[0].op_digests
        self.assertEqual(_ratios(_run(ops, expected=good))[0], 0)
        bad = list(good)
        bad[1] = "0" * 16
        errors, refusals, _ = _ratios(_run(ops, expected=bad))
        self.assertEqual((errors, refusals), (1 / len(ops), 0))

    def test_wrong_verdict_is_an_error(self):
        # Y(2) against itself: the query expects "not isomorphic".
        r = qf.quasi_simple(qf.QQ, qf.QQ.of(2))
        y2 = qf.tower(r, qf.check_semibrick([r]), 2).levels[-1]
        ops = [("iso_tower", workloads._iso_tower_query(y2, y2))] + self.cases["sweep-qq"]
        errors, refusals, _ = _ratios(_run(ops))
        self.assertEqual((errors, refusals), (1 / len(ops), 0))

    def test_wrong_library_answer_is_an_error(self):
        original = qf.uniserial_check
        qf.uniserial_check = lambda t: False
        try:
            errors, _, _ = _ratios(_run(self.cases["endtower-qq"]))
        finally:
            qf.uniserial_check = original
        self.assertEqual(errors, 1 / len(self.cases["endtower-qq"]))

    def test_refusal_is_counted_apart_from_errors(self):
        def refuse(state):
            raise qf.UndecidedError("search space too large")

        ops = [("refuse", refuse)] + self.cases["preproj-gf101"]
        errors, refusals, _ = _ratios(_run(ops))
        self.assertEqual((errors, refusals), (0, 1 / len(ops)))


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]], harness.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {n: run.layer_unit(n) for n in harness.PER_LAYER})
        e2e = harness.end_to_end(_run(self.ops()), [harness.Sample(0.0, 0.1, 0.1, 0.1)], False)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(e2e))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def ops(self):
        w = workloads.REDUCED["preproj-gf101"]()
        return w.operations(w.setup(SEED))


if __name__ == "__main__":
    unittest.main()
