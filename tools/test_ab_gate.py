#!/usr/bin/env python3
"""Tests of tools/ab_gate.py: its decision rule on synthetic results, and
the whole gate over stub checkouts whose perfbench/run.py prints a fixed
result, so no benchmark is built or run.

  python3 tools/test_ab_gate.py
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_gate  # noqa: E402

SPEC = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [
    {"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def result(tps=100.0, setup=1.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {"trials_per_s": {"value": tps, "unit": "trials/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


STEADY = [result(tps) for tps in (99, 100, 100, 101, 102)]


def failures(parent, change):
    return ab_gate.compare(SPEC, {"w": parent}, {"w": change})[1]


class DecisionRuleTest(unittest.TestCase):
    def test_each_direction_fails_past_its_bound_only(self):
        cases = [((70, 71, 72, 73, 74), None, ["w trials_per_s"]),   # a drop past 25%
                 ((80, 81, 82, 83, 84), None, []),                   # a drop inside it
                 (None, (1.3, 1.3, 1.3, 1.4, 1.4), ["w setup_s"]),   # a rise past 25%
                 (None, (0.4, 0.5, 0.5, 0.5, 0.6), [])]              # an improvement
        for tps, setup, failing in cases:
            change = [result(tps=t) for t in tps] if tps else [result(setup=s) for s in setup]
            with self.subTest(tps=tps, setup=setup):
                self.assertEqual([f.split(":")[0] for f in failures(STEADY, change)], failing)

    def test_unresolved_row_fails_only_when_every_change_run_is_worse(self):
        wide = [result(tps) for tps in (60, 80, 100, 120, 140)]
        lines, fails = ab_gate.compare(SPEC, {"w": wide}, {"w": [result(t) for t in (50, 59, 65)]})
        self.assertEqual(fails, [])
        self.assertIn("trials_per_s  unresolved", "\n".join(lines))
        self.assertEqual(failures(wide, [result(t) for t in (40, 50, 59)]),
                         ["w trials_per_s: every change run is worse than every parent run"])

    def test_incorrect_run_and_larger_failed_share_fail(self):
        self.assertEqual(failures(STEADY, STEADY[:4] + [result(correct=False)]),
                         ["w: change run 5 printed correct: false"])
        self.assertEqual(len(failures(STEADY, STEADY[:4] + [result(failed=1)])), 1)
        self.assertEqual(failures(STEADY[:4] + [result(failed=1)], STEADY), [])


STUB_RUN = """import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
if (root / "broken").exists():
    sys.exit("perfbench: build failed")
metrics = {"trials_per_s": {"value": 100.0}, "setup_s": {"value": 1.0}}
print(json.dumps({"correct": not (root / "incorrect").exists(), "attempted": 10,
                  "failed": 0, "metrics": metrics}))
"""


class GateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.sides = [Path(tmp.name) / side for side in ("parent", "change")]
        for root in self.sides:
            (root / "perfbench").mkdir(parents=True)
            (root / "perfbench" / "run.py").write_text(STUB_RUN)
            (root / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def gate(self, argv=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = ab_gate.main(argv or [str(p) for p in self.sides])
        return status, out.getvalue(), err.getvalue()

    def test_equal_sides_pass(self):
        status, out, _ = self.gate()
        self.assertEqual(status, 0)
        self.assertTrue(out.endswith("ab_gate: PASS\n"))

    def test_differing_perfbench_trees_exit_2(self):
        (self.sides[1] / "perfbench" / "run.py").write_text(STUB_RUN + "# edited\n")
        self.assertEqual(self.gate()[::2], (2, "ab_gate: the benchmark differs between the "
                                               "sides: perfbench/run.py\n"))

    def test_side_without_a_result_exits_2_naming_it(self):
        (self.sides[1] / "broken").touch()
        status, _, err = self.gate()
        self.assertEqual(status, 2)
        self.assertIn("the change side", err)
        self.assertIn("build failed", err)

    def test_incorrect_run_fails_the_gate(self):
        (self.sides[1] / "incorrect").touch()
        status, out, _ = self.gate()
        self.assertEqual(status, 1)
        self.assertIn("FAIL: w: change run 1 printed correct: false", out)

    def test_a_flag_is_refused(self):
        status, _, err = self.gate(["--pairs=9", str(self.sides[0])])
        self.assertEqual(status, 2)
        self.assertIn("PARENT CHANGE", err)


if __name__ == "__main__":
    unittest.main()
