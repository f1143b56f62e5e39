// Shared plumbing for the experiment bench binaries.
//
// Every bench prints its reproduction table(s) first (the deliverable;
// PAPER.md names the bench behind each claim) and then runs its
// google-benchmark timing entries so `for b in build/bench/*; do $b; done`
// produces both.
//
// Common CLI contract (on top of each bench's own flags; every main() runs
// through run_main, support/cli.hpp, so --help lists them all and a bad flag
// exits 2 before any experiment runs):
//   --threads=N   worker threads for the Monte-Carlo executor
//                 (default: hardware concurrency; results are bit-identical
//                 at any thread count)
//   --intra_threads=N  default intra-trial shard count (0 = auto policy;
//                 results are bit-identical at any value)
//   --trials=N    trials per scenario cell
//   --csv_dir=DIR also dump each table as DIR/<slug>.csv
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace adba::benchutil {

/// Applies `--threads` (default: hardware concurrency) as the process-wide
/// executor default and returns the resolved count. Call once at the top of
/// main(), before any experiment runs.
inline unsigned init_threads(const Cli& cli) { return sim::init_threads(cli); }

/// Applies `--intra_threads` (default: the ADBA_INTRA_THREADS environment
/// variable, else auto) as the process-wide intra-trial shard default.
inline unsigned init_intra_threads(const Cli& cli) {
    return sim::init_intra_threads(cli);
}

/// Guard for benches whose workload has no fused trial plane (the coin and
/// multi-valued stacks): a stray `--fused` fails loudly with a pointer at
/// the binary-stack benches instead of being silently dropped — mirroring
/// the coin workload's `--plane` rejection in adba_sim. `what` names the
/// bench's workload for the message, e.g. "the standalone coin experiments".
inline void reject_fused(const Cli& cli, const std::string& what) {
    if (cli.has("fused"))
        throw ContractViolation(
            "--fused selects the binary stack's 64-lane trial plane; " + what +
            " have no fused form (drop the flag or use a binary-stack bench "
            "such as bench_e10_engine)");
}

/// Ends a bench's flag reading, before any experiment runs: recognizes
/// `--csv_dir` (read later by maybe_write_csv), then fails on anything left
/// over — a typo like `--trails=50` exits 2 instead of silently running
/// with defaults — or answers `--help` (cli.hpp's run_main).
inline void finish_flags(const Cli& cli) {
    cli.get("csv_dir", "");
    cli.check_unused();
}

/// Hands the non-experiment arguments (argv[0] + --benchmark_* flags) to
/// google-benchmark and runs the registered entries.
inline void run_benchmark_tail(const Cli& cli) {
    std::vector<std::string> args = cli.passthrough();
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (auto& s : args) argv.push_back(s.data());
    int argc = static_cast<int>(argv.size());
    benchmark::Initialize(&argc, argv.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
}

/// With `--csv_dir=DIR`, also dumps the table as DIR/<slug>.csv so plots
/// and paper-vs-measured comparisons stay mechanical. Creates DIR if absent and
/// throws (loudly) when the file cannot be written — a silently dropped
/// reproduction table is worse than a crash.
inline void maybe_write_csv(const Cli& cli, const Table& table, const std::string& slug) {
    const std::string dir = cli.get("csv_dir", "");
    if (dir.empty()) return;
    const std::string path = write_csv(table, dir, slug);
    std::printf("wrote %s\n", path.c_str());
}

/// Formats a bootstrap CI as "lo..hi".
inline std::string ci_str(double lo, double hi, int precision = 1) {
    return Table::num(lo, precision) + ".." + Table::num(hi, precision);
}

}  // namespace adba::benchutil
