#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at its smoke size in both modes, checks the result
object, every metric name and unit in BENCHMARK.json, and that the traced
and untraced runs agree on the aggregate fingerprint; and checks the
command-line error paths and the wall-clock guard.

  python3 perfbench/tests/test_smoke.py
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import run as perfbench  # noqa: E402

SPEC = perfbench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)


def record(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("record: ")]
    return json.loads(lines[-1][len("record: "):])


class SmokeRunTest(unittest.TestCase):
    def test_every_workload_in_both_modes(self):
        for name in WORKLOADS:
            prints = {}
            for trace, group in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    res = bench("--workload", name, "--seed", "7", "--seconds", "0.5",
                                "--trace", trace, "--size", "smoke")
                    self.assertEqual(res.returncode, 0, res.stderr)
                    result = json.loads(res.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({m: v["unit"] for m, v in result["metrics"].items()},
                                     {m["name"]: m["unit"] for m in group})
                    for m in group:
                        self.assertRegex(res.stdout, rf"\n  {m['name']} +\S+ {m['unit']}\n")
                    self.assertIn("fail_share", res.stdout)
                    self.assertIn("host: ", res.stdout)
                    rec = record(res.stdout)
                    prints[trace] = rec["fingerprint"]
                    if trace == "0":
                        self.assertEqual(len(rec["setup_samples_s"]), perfbench.SETUPS)
            self.assertEqual(prints["0"], prints["1"], name)


class CliTest(unittest.TestCase):
    def test_unknown_flag_exits_2_with_a_suggestion(self):
        res = bench("--workload", "fused-n64", "--seeds", "3")
        self.assertEqual(res.returncode, 2)
        self.assertIn("did you mean --seed?", res.stderr)

    def test_unknown_workload_exits_2_with_a_suggestion(self):
        res = bench("--workload", "fused-n46")
        self.assertEqual(res.returncode, 2)
        self.assertIn("did you mean fused-n64?", res.stderr)

    def test_help_lists_workloads_and_metrics(self):
        res = bench("--help")
        self.assertEqual(res.returncode, 0)
        for name in WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]:
            self.assertIn(name, res.stdout)

    def test_compare_warns_across_hosts_and_shard_counts(self):
        res = bench("--workload", "fused-n64", "--seconds", "0.2", "--size", "smoke")
        self.assertEqual(res.returncode, 0, res.stderr)
        line = next(l for l in res.stdout.splitlines() if l.startswith("record: "))
        other = json.loads(line[len("record: "):])
        other["host"]["nproc"] += 1
        resharded = json.loads(line[len("record: "):])
        resharded["shards"] += 1
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            a, b, c = Path(tmp) / "a.txt", Path(tmp) / "b.txt", Path(tmp) / "c.txt"
            a.write_text(res.stdout)
            b.write_text("record: " + json.dumps(other) + "\n")
            c.write_text("record: " + json.dumps(resharded) + "\n")
            same = bench("--compare", str(a), str(a))
            mixed = bench("--compare", str(a), str(b))
            shards = bench("--compare", str(a), str(c))
            missing = bench("--compare", str(a), str(Path(tmp) / "missing.txt"))
        self.assertEqual(same.returncode, 0, same.stderr)
        self.assertNotIn("WARNING", same.stdout)
        self.assertIn("trials_per_s", same.stdout)
        self.assertEqual(mixed.returncode, 0, mixed.stderr)
        self.assertIn("different hosts", mixed.stdout)
        self.assertIn("shards per trial", shards.stdout)
        self.assertNotIn("different hosts", shards.stdout)
        self.assertEqual(missing.returncode, 2)



class GuardTest(unittest.TestCase):
    def test_guarded_process_is_killed_at_the_deadline(self):
        start = time.monotonic()
        self.assertIsNone(perfbench.run_guarded(["sleep", "5"], 0.2))
        self.assertLess(time.monotonic() - start, 2)

    def test_overrun_is_stopped_and_reported(self):
        self.assertTrue(perfbench.build())
        opts = {"seed": 1, "seconds": 5.0, "trace": "0", "size": "smoke"}
        out, err = io.StringIO(), io.StringIO()
        guard, perfbench.GUARD_S = perfbench.GUARD_S, 0.2
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = perfbench.run_workload("worstcase-n256", opts, SPEC)
        finally:
            perfbench.GUARD_S = guard
        self.assertEqual(status, 3)
        self.assertIn("overran", err.getvalue())
        self.assertNotIn('"correct"', out.getvalue())


if __name__ == "__main__":
    unittest.main()
