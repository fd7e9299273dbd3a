"""Self-test of the wild-tower harness on its cheapest operations.

    python3 -m unittest discover -s wildbench -p "test_*.py"

Checks that every operation has a recorded digest, that a run reproduces
the recorded digests and reports a time and a memory peak, that a wrong
recorded digest is reported as a mismatch with exit status 1, and that
``--compare`` prints one ratio row per shared operation.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

CHEAP = ["hom-k3-qq-y5", "tower-p2-gf5-4"]


def _reference() -> dict:
    with open(run.REFERENCE) as fh:
        return json.load(fh)["digests"]


class WildbenchTest(unittest.TestCase):
    def test_every_operation_has_a_recorded_digest(self):
        self.assertEqual(set(_reference()), set(run.OPERATIONS))

    def test_a_run_reproduces_the_recorded_digests(self):
        result = run.run(CHEAP, 2, True, _reference(), log=io.StringIO())
        self.assertEqual(result["mismatches"], [])
        for name in CHEAP:
            res = result["operations"][name]
            self.assertEqual(len(res["runs_s"]), 2)
            self.assertEqual(res["best_s"], min(res["runs_s"]))
            self.assertGreater(res["tracemalloc_peak_kib"], 0)

    def test_a_wrong_recorded_digest_is_a_mismatch(self):
        wrong = dict(_reference(), **{CHEAP[0]: "0" * 16})
        result = run.run(CHEAP[:1], 0, False, wrong, log=io.StringIO())
        self.assertEqual(result["mismatches"], CHEAP[:1])
        with mock.patch.object(run, "REFERENCE", self._write({"digests": wrong})):
            with mock.patch("sys.stdout", io.StringIO()), mock.patch("sys.stderr", io.StringIO()):
                self.assertEqual(run.main(["--quick", "--only", CHEAP[0]]), 1)

    def test_compare_prints_one_row_per_shared_operation(self):
        def result(best, peak, digest):
            return {"best_s": best, "runs_s": [best], "tracemalloc_peak_kib": peak, "digest": digest}

        a = self._write({"operations": {"x": result(2.0, 100.0, "d"), "only-a": result(1.0, 1.0, "e")}})
        b = self._write({"operations": {"x": result(1.0, 150.0, "d")}})
        rows = run.compare(a, b, log=io.StringIO())
        self.assertEqual(rows, [("x", 0.5, 1.5, True)])

    def _write(self, doc) -> str:
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        self.addCleanup(os.remove, path)
        return path


if __name__ == "__main__":
    unittest.main()
