#!/usr/bin/env python3
"""Fail CI when the freshly measured engine throughput regresses.

Compares a fresh BENCH_engine.json against the committed baseline and exits
non-zero when a tracked rate at any common n moves past its tolerance in
the bad direction (default 30%). The generous tolerance absorbs CI-runner
hardware variance while still catching the order-of-magnitude regressions a
botched delivery/batch-plane change produces; improvements never fail.

Gated blocks (each gate is a (block, field, direction) triple):
  entries         serial trials_per_sec per n            (higher is better)
  sharded         intra-trial-sharded trials_per_sec     (higher is better)
  tally_kernels   packed_gb_per_sec per n                (higher is better)
  sparse          sampled-plane trials_per_sec per n     (higher is better)
  sparse          sampled-plane ns_per_probe per n       (LOWER is better)
  fused           64-lane fused trials_per_sec per n     (higher is better)
  fused           64-lane fused ns_per_trial per n       (LOWER is better)

A block that exists in the baseline but is missing (or empty) in the fresh
measurement fails LOUDLY (exit 2), and so does a gated FIELD present in a
baseline entry but absent from the fresh one: a silently vanished number
would read as "no regression" exactly when the bench stopped measuring it.

Run health is gated before any rate: every entry of a gated block in the
FRESH document must report zero `exhausted` (round-cap exhaustions +
watchdog timeouts) and zero `faulted` trials — a timing row averaged over
trials that never decided is not a throughput measurement, so any nonzero
count exits 2 regardless of tolerances.
The asymmetric case — a block/field the fresh bench measures but the
committed baseline has never gated — is a NOTICE, not a failure: that is
exactly what the first CI run after adding a bench section looks like, and
it starts being gated the moment the baseline is regenerated with it.

The tolerance is per-block configurable: --tolerance=X sets the global
default and --tolerance-BLOCK=X (BLOCK as printed in the [brackets], e.g.
--tolerance-sparse=0.45) overrides it for one block — noisy cells get
slack without loosening every gate.

--max-sparse-flatness=R additionally enforces an ABSOLUTE ceiling on the
fresh sparse.ns_per_node_round_max_over_min ratio (the batched plane's
scaling-flatness claim); omitted means not checked.

Usage: check_bench_regression.py BASELINE FRESH [--tolerance=0.30]
           [--tolerance-BLOCK=X ...] [--max-sparse-flatness=R]
"""

import json
import sys

# Each gate: block name (tolerance key + display), json path to the entries
# list, field compared per n, and which direction is an improvement.
GATES = [
    {"block": "entries", "path": ("entries",),
     "field": "trials_per_sec", "better": "higher"},
    {"block": "sharded", "path": ("sharded", "entries"),
     "field": "trials_per_sec", "better": "higher"},
    {"block": "tally_kernels", "path": ("tally_kernels", "entries"),
     "field": "packed_gb_per_sec", "better": "higher"},
    {"block": "sparse", "path": ("sparse", "entries"),
     "field": "trials_per_sec", "better": "higher"},
    {"block": "sparse", "path": ("sparse", "entries"),
     "field": "ns_per_probe", "better": "lower"},
    {"block": "fused", "path": ("fused", "entries"),
     "field": "trials_per_sec", "better": "higher"},
    {"block": "fused", "path": ("fused", "entries"),
     "field": "ns_per_trial", "better": "lower"},
]


def load(path):
    with open(path) as fh:
        return json.load(fh)


def block_by_n(doc, keys):
    node = doc
    for k in keys:
        if not isinstance(node, dict) or k not in node:
            return None
        node = node[k]
    if not isinstance(node, list):
        return None
    return {e["n"]: e for e in node}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = 0.30
    block_tolerance = {}
    flatness_max = None
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
        elif a.startswith("--tolerance-"):
            key, val = a[len("--tolerance-"):].split("=", 1)
            block_tolerance[key] = float(val)
        elif a.startswith("--max-sparse-flatness="):
            flatness_max = float(a.split("=", 1)[1])

    base_doc = load(args[0])
    fresh_doc = load(args[1])

    # Health gate first: a fresh gated entry with exhausted/faulted trials is
    # not a valid measurement, whatever the rates say.
    for path in sorted({g["path"] for g in GATES}):
        fresh = block_by_n(fresh_doc, path)
        if not fresh:
            continue
        name = "/".join(path[:-1]) if len(path) > 1 else path[0]
        for n in sorted(fresh):
            for health in ("exhausted", "faulted"):
                count = fresh[n].get(health, 0)
                if count:
                    print(f"check_bench_regression: block '{name}' (n={n}) "
                          f"reports {count} {health} trial(s) in the fresh "
                          "measurement — the bench run itself is unhealthy; "
                          "fix the run before gating rates.", file=sys.stderr)
                    return 2

    failed = False
    compared = 0
    new_gates = 0
    for gate in GATES:
        name, field = gate["block"], gate["field"]
        tol = block_tolerance.get(name, tolerance)
        lower_better = gate["better"] == "lower"
        baseline = block_by_n(base_doc, gate["path"])
        fresh = block_by_n(fresh_doc, gate["path"])
        if not baseline:
            if fresh:
                # Never-before-gated block: the first run after a bench grows
                # a section. Not a failure — it gates once the baseline is
                # regenerated to include it.
                print(f"[{name}] new block (no baseline yet); regenerate the "
                      "committed baseline to start gating it")
                new_gates += 1
            else:
                print(f"[{name}] absent from baseline and fresh; skipped")
            continue
        if not fresh:
            print(f"check_bench_regression: block '{name}' present in "
                  f"{args[0]} but missing/empty in {args[1]} — the bench "
                  "stopped measuring it.", file=sys.stderr)
            return 2
        common = sorted(set(baseline) & set(fresh))
        if not common:
            print(f"check_bench_regression: no common n entries in block "
                  f"'{name}' between {args[0]} and {args[1]}", file=sys.stderr)
            return 2
        if not any(field in baseline[n] for n in common):
            # Baseline predates this gate's field — same shape as a new
            # block: notice now, gate after the baseline is regenerated.
            print(f"[{name}] field '{field}' not in baseline yet; regenerate "
                  "the committed baseline to start gating it")
            new_gates += 1
            continue
        for n in common:
            if field not in baseline[n]:
                continue
            if field not in fresh[n]:
                print(f"check_bench_regression: field '{field}' gated in "
                      f"block '{name}' (n={n}) but missing from the fresh "
                      "measurement — the bench stopped reporting it.",
                      file=sys.stderr)
                return 2
            base_rate = baseline[n][field]
            fresh_rate = fresh[n][field]
            if lower_better:
                bound = base_rate * (1.0 + tol)
                ok = fresh_rate <= bound
                edge = "ceil"
            else:
                bound = base_rate * (1.0 - tol)
                ok = fresh_rate >= bound
                edge = "floor"
            status = "ok" if ok else "REGRESSION"
            print(f"[{name}] n={n:7d}  baseline {base_rate:10.2f} {field}  "
                  f"fresh {fresh_rate:10.2f}  {edge} {bound:10.2f}  {status}")
            compared += 1
            if not ok:
                failed = True

    if flatness_max is not None:
        ratio = fresh_doc.get("sparse", {}).get("ns_per_node_round_max_over_min")
        if ratio is None:
            print("check_bench_regression: --max-sparse-flatness given but "
                  f"{args[1]} has no sparse.ns_per_node_round_max_over_min.",
                  file=sys.stderr)
            return 2
        status = "ok" if ratio <= flatness_max else "REGRESSION"
        print(f"[sparse] ns_per_node_round max/min {ratio:.3f}  "
              f"ceiling {flatness_max:.3f}  {status}")
        compared += 1
        if ratio > flatness_max:
            failed = True

    if compared == 0 and new_gates == 0:
        print("check_bench_regression: nothing compared — baseline has no "
              "gated blocks.", file=sys.stderr)
        return 2
    if failed:
        print("\nFAIL: a tracked rate moved past its tolerance in the bad "
              "direction at one or more sizes.", file=sys.stderr)
        return 1
    print("\nOK: all tracked rates within tolerance of the committed "
          "baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
