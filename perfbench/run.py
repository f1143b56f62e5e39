#!/usr/bin/env python3
"""Benchmark entry point for the adba Monte-Carlo trial stack.

Builds perfbench_driver from the checkout's sources into .bench_build/,
runs one or more named workloads under a wall-clock guard, and prints
every metric by name and unit. Each workload ends with one JSON object on
its own line with exactly the keys correct, attempted, failed and metrics,
so with a single workload the last line of stdout is that workload's result.

  python3 perfbench/run.py --workload NAME[,NAME...|all] --seed N
                           --seconds S --trace 0|1 [--size full|smoke]
  python3 perfbench/run.py --compare RUN_A.txt RUN_B.txt
  python3 perfbench/run.py --help

Exit status: 0 on a correct run; 1 on a fingerprint mismatch, a validity
failure or a build failure; 2 on bad command-line input; 3 when a workload
overran its wall-clock guard (it is stopped, never left running).
"""

import difflib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
BUILD_TIMEOUT_S = 850
GUARD_S = 150.0  # wall-clock deadline for all processes of one workload
SETUPS = 15      # cold set-ups per workload (fresh processes); setup_s is their median

FLAGS = ["workload", "seed", "seconds", "trace", "size", "compare", "help"]


class UsageError(Exception):
    pass


def load_spec():
    """The workload and metric catalog: BENCHMARK.json at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def usage(spec):
    lines = [__doc__.strip(), "", "Workloads:"]
    lines += [f"  {w['name']:16s} {w['why']}" for w in spec["workloads"]]
    lines += ["", "End-to-end metrics (--trace 0):"]
    lines += [f"  {m['name']:36s} {m['unit']:14s} {m['better']}-is-better, bound {m['bound']:g}"
              for m in spec["end_to_end"]]
    lines += ["", "Per-layer metrics (--trace 1):"]
    lines += [f"  {m['name']:36s} {m['unit']:14s} {m['better']}-is-better"
              for m in spec["per_layer"]]
    lines += ["", "See perfbench/README.md for what each metric should move."]
    return "\n".join(lines)


def suggest(word, candidates, prefix=""):
    near = difflib.get_close_matches(word, candidates, n=1)
    return f" (did you mean {prefix}{near[0]}?)" if near else ""


def parse_args(argv, spec):
    opts = {"seed": "1", "seconds": "5", "trace": "0", "size": "full"}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            opts["help"] = True
            i += 1
            continue
        if not arg.startswith("--"):
            raise UsageError(f"unexpected argument '{arg}'")
        key, eq, value = arg[2:].partition("=")
        if key not in FLAGS:
            raise UsageError(f"unknown flag --{key}" + suggest(key, FLAGS, "--"))
        if key == "compare":
            if eq or i + 2 >= len(argv):
                raise UsageError("--compare takes two files: --compare RUN_A.txt RUN_B.txt")
            opts["compare"] = (argv[i + 1], argv[i + 2])
            i += 3
            continue
        if not eq:
            if i + 1 >= len(argv):
                raise UsageError(f"--{key} needs a value")
            value = argv[i + 1]
            i += 1
        opts[key] = value
        i += 1
    if "help" in opts or "compare" in opts:
        return opts

    known = [w["name"] for w in spec["workloads"]]
    if "workload" not in opts:
        raise UsageError("--workload is required; one of " + ", ".join(known) + " or all")
    names = known if opts["workload"] == "all" else opts["workload"].split(",")
    for name in names:
        if name not in known:
            raise UsageError(f"unknown workload '{name}'" + suggest(name, known))
    opts["workloads"] = names
    try:
        opts["seed"] = int(opts["seed"])
        opts["seconds"] = float(opts["seconds"])
    except ValueError as e:
        raise UsageError(f"bad number: {e}") from None
    if opts["seed"] < 0 or opts["seconds"] <= 0:
        raise UsageError("--seed must be >= 0 and --seconds > 0")
    if opts["trace"] not in ("0", "1"):
        raise UsageError("--trace expects 0 or 1")
    if opts["size"] not in ("full", "smoke"):
        raise UsageError("--size expects full or smoke")
    return opts


def run_guarded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    or interruption and waits for it. Returns (returncode, stdout) or None on
    timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "sim" / "runner.hpp").is_file():
        print(f"perfbench: no adba sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return False
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        res = run_guarded(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env, cwd=ROOT)
        if res is None or res[0] != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def driver_env():
    # Process-wide knobs the library reads from the environment would change
    # the workload shape; perfbench_driver pins them, and they are dropped here too.
    return {k: v for k, v in os.environ.items() if not k.startswith("ADBA_")}


def run_workload(name, opts, spec):
    cmd = [str(DRIVER), "--workload", name, "--seed", str(opts["seed"]),
           "--seconds", repr(opts["seconds"]), "--trace", opts["trace"], "--size", opts["size"]]
    deadline = time.monotonic() + GUARD_S

    def guarded(args):
        res = run_guarded(args, deadline - time.monotonic(), stdout=subprocess.PIPE,
                          env=driver_env(), cwd=ROOT)
        if res is None:
            print(f"perfbench: FAILED {name}: overran the {GUARD_S:g} s wall-clock guard; "
                  "stopped", file=sys.stderr)
        return res

    # Cold set-ups in fresh processes; the timed run's own set-up is one more.
    setups = []
    if opts["trace"] == "0":
        for _ in range(SETUPS - 1):
            res = guarded(cmd + ["--setup_only"])
            if res is None:
                return 3
            if res[0] != 0:
                print(f"perfbench: FAILED {name}: set-up exited {res[0]}", file=sys.stderr)
                return 1
            setups.append(json.loads(res[1].decode().splitlines()[-1])["setup_s"])

    res = guarded(cmd)
    if res is None:
        return 3
    code, out = res
    lines = out.decode().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: FAILED {name}: driver exited {code} without a record",
              file=sys.stderr)
        return 1
    setups.append(rec["setup_s"])

    values = dict(rec["metrics"])
    if opts["trace"] == "0":
        values["setup_s"] = statistics.median(setups)
    group = spec["end_to_end"] if opts["trace"] == "0" else spec["per_layer"]
    expected = [m["name"] for m in group]
    if sorted(values) != sorted(expected):
        print(f"perfbench: FAILED {name}: driver metrics {sorted(values)} "
              f"differ from BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    fail_share = rec["failed"] / rec["attempted"]

    fp = rec["fingerprint"]
    print(f"host: {json.dumps(rec['host'])}")
    print(f"workload {name}: seed {opts['seed']}, trace {opts['trace']}, {rec['reps']} reps "
          f"x {rec['rep_trials']} trials, {rec['threads']} trial threads x {rec['shards']} "
          f"shards, fingerprint {fp['hash']} (mean rounds {fp['rounds'] / fp['trials']:.3f})")
    for m, v in metrics.items():
        print(f"  {m:36s} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'fail_share':36s} {fail_share:>16.6g} share ({rec['failed']} of "
          f"{rec['attempted']} trials)")
    print("record: " + json.dumps({"workload": name, "seed": opts["seed"],
                                   "trace": int(opts["trace"]), "size": opts["size"],
                                   "host": rec["host"], "shards": rec["shards"],
                                   "fingerprint": fp, "setup_samples_s": setups,
                                   "rep_trials_per_s": rec["rep_trials_per_s"],
                                   "fail_share": fail_share, "metrics": metrics}))
    print(json.dumps({"correct": bool(rec["correct"]) and code == 0,
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}), flush=True)
    if code != 0 or not rec["correct"]:
        print(f"perfbench: FAILED {name}: outputs incorrect (see messages above)",
              file=sys.stderr)
        return 1
    return 0


def load_records(path):
    recs = {}
    with open(path) as f:
        for line in f:
            if line.startswith("record: "):
                r = json.loads(line[len("record: "):])
                recs[(r["workload"], r["trace"])] = r
    return recs


def compare(path_a, path_b, spec):
    try:
        a, b = load_records(path_a), load_records(path_b)
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read records to compare: {e}", file=sys.stderr)
        return 2
    common = sorted(set(a) & set(b))
    if not common:
        print("perfbench: the two files share no (workload, trace) record", file=sys.stderr)
        return 1
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in common:
        ra, rb = a[key], b[key]
        if ra["host"] != rb["host"]:
            print(f"WARNING: {key[0]} was measured on different hosts; the comparison "
                  f"mixes machines:\n  A {json.dumps(ra['host'])}\n  B {json.dumps(rb['host'])}")
        if ra["shards"] != rb["shards"]:
            print(f"WARNING: {key[0]} ran {ra['shards']} shards per trial in A and "
                  f"{rb['shards']} in B; the automatic intra-trial policy follows the core count")
        print(f"{key[0]} (trace {key[1]}): B / A")
        for m, va in ra["metrics"].items():
            vb = rb["metrics"].get(m)
            if vb is None:
                continue
            x, y = va["value"], vb["value"]
            rel = f"{y / x:8.3f}x" if x else "     n/a"
            print(f"  {m:36s} {x:>14.6g} -> {y:>14.6g} {va['unit']:14s} {rel} "
                  f"({better[m]} is better)")
    return 0


def main(argv):
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    try:
        opts = parse_args(argv, spec)
    except UsageError as e:
        print(f"perfbench: {e}\n(run with --help for workloads and flags)", file=sys.stderr)
        return 2
    if "help" in opts:
        print(usage(spec))
        return 0
    if "compare" in opts:
        return compare(*opts["compare"], spec)
    if not build():
        return 1
    status = 0
    for name in opts["workloads"]:
        status = max(status, run_workload(name, opts, spec))
    return status


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
