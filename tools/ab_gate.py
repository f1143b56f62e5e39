#!/usr/bin/env python3
"""Same-host A/B regression gate over the repository benchmark.

  python3 tools/ab_gate.py PARENT CHANGE

PARENT and CHANGE are checkouts with identical perfbench/ and BENCHMARK.json.
Every BENCHMARK.json workload W runs PAIRS times on each side, alternating
which side goes first, as `python3 perfbench/run.py --workload W --seed 1
--seconds <run_seconds> --trace 0`, and the gate reads each run's last-line
result. A row (workload, end-to-end metric) fails when the change's median is
worse than the parent's by more than the metric's bound. A row whose parent
interquartile range is wider than the bound is `unresolved`: it fails only if
every change run is worse than every parent run. Exit 1 on a failed row, a
`correct: false` run, or a larger share of failed trials in the change; exit 2
when the benchmarks differ, or a side cannot build or print a result.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SEED = 1


class GateError(Exception):
    """The two sides cannot be compared (exit 2)."""


def bench_files(side, root):
    """The files that define the benchmark, by path relative to the checkout."""
    if not (root / "BENCHMARK.json").is_file() or not (root / "perfbench" / "run.py").is_file():
        raise GateError(f"the {side} side {root} has no BENCHMARK.json and perfbench/run.py")
    files = {p.relative_to(root).as_posix(): p.read_bytes() for p in (root / "perfbench").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts}
    files["BENCHMARK.json"] = (root / "BENCHMARK.json").read_bytes()
    return files


def run_once(side, root, workload, spec):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"], cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        if {"correct", "attempted", "failed"} <= set(result) and all(
                m["name"] in result["metrics"] for m in spec["end_to_end"]):
            return result
    except (IndexError, ValueError, TypeError, KeyError):
        pass
    tail = "\n".join(proc.stderr.splitlines()[-20:])
    raise GateError(f"the {side} side {root} printed no {workload} result (run.py exited "
                    f"{proc.returncode}): it cannot build or run the benchmark\n{tail}")


def measure(spec, sides):
    """Runs every workload PAIRS times per side; returns {side: {workload: results}}."""
    results = {side: {w["name"]: [] for w in spec["workloads"]} for side, _ in sides}
    for w in spec["workloads"]:
        for pair in range(PAIRS):
            for side, root in (sides if pair % 2 == 0 else sides[::-1]):
                print(f"ab_gate: {w['name']} pair {pair + 1}/{PAIRS}: {side}",
                      file=sys.stderr, flush=True)
                results[side][w["name"]].append(run_once(side, root, w["name"], spec))
    return results


def judge(metric, parent, change):
    """One row's verdict over its runs' values, and why it fails (None if it passes)."""
    sign = 1 if metric["better"] == "higher" else -1

    def worse(x, y):
        return sign * (x - y) < 0

    q1, pm, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    cm = statistics.median(change)
    if q3 - q1 > metric["bound"] * abs(pm):
        if all(worse(c, p) for c in change for p in parent):
            return "unresolved FAIL", "every change run is worse than every parent run"
        return "unresolved", None
    if worse(cm, pm * (1 - sign * metric["bound"])):
        return "FAIL", (f"the change median {cm:.4g} is worse than the parent's {pm:.4g} "
                        f"by more than the {metric['bound']:g} bound")
    return "ok", None


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} ({q1:.4g}-{q3:.4g}; runs " + " ".join(f"{v:.4g}" for v in values) + ")"


def compare(spec, parent, change):
    """Judges the change's runs against the parent's, workload by workload.

    parent and change map each workload to its runs' last-line results.
    Returns the report's lines and the failures (none when the gate passes)."""
    lines, failures = [], []
    for w in (w["name"] for w in spec["workloads"]):
        runs, share = {"parent": parent[w], "change": change[w]}, {}
        for side, rs in runs.items():
            failures += [f"{w}: {side} run {i + 1} printed correct: false"
                         for i, r in enumerate(rs) if not r["correct"]]
            share[side] = sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        if share["change"] > share["parent"]:
            failures.append(f"{w}: the change failed {share['change']:.3g} of its trials, "
                            f"the parent {share['parent']:.3g}")
        lines.append(f"{w}: fail share parent {share['parent']:.3g}, change {share['change']:.3g}")
        for m in spec["end_to_end"]:
            p, c = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in runs)
            verdict, why = judge(m, p, c)
            if why:
                failures.append(f"{w} {m['name']}: {why}")
            pm = statistics.median(p)
            ratio = f"{statistics.median(c) / pm:.3f}x" if pm else "n/a"
            lines.append(f"  {m['name']:13s} {verdict:15s} change/parent {ratio:7s} "
                         f"parent {summary(p)}  change {summary(c)}")
    return lines, failures


def main(argv):
    if len(argv) != 2 or any(a.startswith("-") for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = [("parent", Path(argv[0]).resolve()), ("change", Path(argv[1]).resolve())]
    try:
        a, b = (bench_files(*side) for side in sides)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if differ:
            raise GateError("the benchmark differs between the sides: " + ", ".join(differ))
        spec = json.loads(b["BENCHMARK.json"])
        results = measure(spec, sides)
    except GateError as e:
        print(f"ab_gate: {e}", file=sys.stderr)
        return 2
    lines, failures = compare(spec, results["parent"], results["change"])
    print(f"ab_gate: {PAIRS} pairs per workload, seed {SEED}, {spec['run_seconds']:g} s runs; "
          f"parent {sides[0][1]}, change {sides[1][1]}")
    print("\n".join(lines + ["FAIL: " + f for f in failures]))
    print("ab_gate: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
