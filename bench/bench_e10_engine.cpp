// E10 — simulator substrate throughput: the cost model behind every other
// experiment. Not a paper claim; reported so readers can size their own
// sweeps (messages delivered per second, trial latency vs n).
//
// Three timed readouts, each on one trial thread: the serial block
// (trials/sec and ns per node-round for the skeleton protocol against the
// static adversary at n in {64, ..., 4096} on the scalar engine;
// --bench_trials scales the n=256 trial count), the `sparse` block (direct
// trials through the sampled delivery plane at n up to 2^20, with each
// row's resolved intra-trial shard count) and the `fused` block (the
// small-n serial cells on the 64-lane fused trial plane, plus the fixed
// per-block overhead). A timed row with any exhausted or faulted trial
// exits 2 naming the row. Nothing gates these numbers: the repository's
// speed gate is perfbench (BENCHMARK.json), run parent against change on
// one host by tools/ab_gate.py.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "sim/macro.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

/// A timed row averaged over trials that never decided is not a throughput
/// measurement, so any exhausted or faulted trial ends the run (exit 2).
void require_healthy(const std::string& row, const sim::Aggregate& agg) {
    const Count exhausted = agg.cap_exhausted + agg.watchdog_timeouts;
    if (exhausted > 0 || agg.faulted > 0)
        throw ContractViolation("E10 row '" + row + "' ran " + std::to_string(exhausted) +
                                " exhausted and " + std::to_string(agg.faulted) +
                                " faulted trials; its timing is not a throughput measurement");
}

struct ThroughputPoint {
    NodeId n = 0;
    Count t = 0;
    Count trials = 0;
    double trials_per_sec = 0.0;
    double ns_per_node_round = 0.0;
};

ThroughputPoint measure_throughput(NodeId n, Count trials, bool use_batch) {
    sim::Scenario s;
    s.n = n;
    s.t = (n - 1) / 3;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.inputs = sim::InputPattern::Split;
    s.use_batch = use_batch;
    // The serial entries time the scalar engine; the `fused` block times
    // the fused plane.
    s.use_fused = false;

    const sim::ExecutorConfig serial{1, 0};  // the canonical single-thread metric
    (void)sim::run_trials(s, 0xE10, std::max<Count>(trials / 10, 2), serial);  // warm-up

    const auto start = std::chrono::steady_clock::now();
    const sim::Aggregate agg = sim::run_trials(s, 0xE10, trials, serial);
    const auto stop = std::chrono::steady_clock::now();
    require_healthy("serial n=" + std::to_string(n), agg);

    ThroughputPoint p;
    p.n = n;
    p.t = s.t;
    p.trials = trials;
    const double seconds = std::chrono::duration<double>(stop - start).count();
    p.trials_per_sec = seconds > 0 ? trials / seconds : 0.0;
    const double node_rounds = agg.rounds.sum() * static_cast<double>(n);
    p.ns_per_node_round = node_rounds > 0 ? 1e9 * seconds / node_rounds : 0.0;
    return p;
}

// ---- sparse-plane throughput (the million-node direct-trial evidence) ----
//
// Same protocol/adversary shape as the serial entries but routed through
// the sampled delivery plane: every receiver probes its own seed-derived
// sender sample, so the receive beat is n*degree real per-edge probes —
// work the flat plane's shared tally cannot represent (it relies on all
// receivers seeing one honest broadcast). The scenario keeps honest counts
// several sampling standard deviations clear of the n-t quorum threshold
// (t = n/10 margin, q capped at 256): sampled estimates concentrate at
// ~0.5*n/sqrt(degree) standard error, so knife-edge q=t shapes would
// straddle the threshold and never converge — that is a property of
// sampling, not a bug, and the bench deliberately measures the regime the
// plane is built for. One trial runs at a time, but from n = 16384 the auto
// policy splits it over shard workers when the trial pool leaves cores
// idle, so each row names its resolved shard count.

struct SparsePoint {
    NodeId n = 0;
    Count t = 0;
    Count trials = 0;
    unsigned shards = 0;
    double trials_per_sec = 0.0;
    double ns_per_node_round = 0.0;
    double ns_per_probe = 0.0;
    double bytes_per_node_round = 0.0;
};

SparsePoint measure_sparse(NodeId n, Count trials, Count degree) {
    sim::Scenario s;
    s.n = n;
    s.t = n / 10;  // honest count well clear of the n-t threshold
    s.q = 256;     // small corruption budget: sampled quorums need slack
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.inputs = sim::InputPattern::Split;
    s.sparse_plane = true;
    s.sample_degree = degree;

    const sim::ExecutorConfig serial{1, 0};
    (void)sim::run_trials(s, 0xE10, 1, serial);  // warm-up (pools, planes)

    const auto start = std::chrono::steady_clock::now();
    const sim::Aggregate agg = sim::run_trials(s, 0xE10, trials, serial);
    const auto stop = std::chrono::steady_clock::now();
    require_healthy("sparse n=" + std::to_string(n), agg);

    SparsePoint p;
    p.n = n;
    p.t = s.t;
    p.trials = trials;
    p.shards = sim::plan_intra_shards(s.intra_threads, s.n);
    const double seconds = std::chrono::duration<double>(stop - start).count();
    p.trials_per_sec = seconds > 0 ? trials / seconds : 0.0;
    const double mean_rounds = agg.rounds.mean();
    const double node_rounds = agg.rounds.sum() * static_cast<double>(n);
    p.ns_per_node_round = node_rounds > 0 ? 1e9 * seconds / node_rounds : 0.0;
    // Nominal per-edge cost: each node-round is `degree` sampled probes
    // (send/step beats are amortised into it, so this slightly overstates
    // the pure probe kernel; it stays comparable run over run).
    p.ns_per_probe =
        degree > 0 ? p.ns_per_node_round / static_cast<double>(degree) : 0.0;
    const double bits_per_trial = agg.bits.mean();
    p.bytes_per_node_round =
        mean_rounds > 0
            ? bits_per_trial / 8.0 / static_cast<double>(n) / mean_rounds
            : 0.0;
    return p;
}

// ---- fused trial plane (64 Monte-Carlo trials per machine word) ----
//
// Same protocol/adversary shape as the serial entries but with fused=true:
// 64 trials co-execute bit-sliced, one uint64_t per node, so the per-trial
// cost of small-n cells stops being dominated by per-node bookkeeping.
// Trial counts are whole multiples of 64 so the chunk is all whole fused
// blocks (a partial block would dilute the measurement).
// measure_fused_overhead() prices the fixed per-block cost (rearm,
// input packing, result scatter) on a fast-deciding all-one/no-adversary
// scenario where almost no protocol rounds run.

struct FusedPoint {
    NodeId n = 0;
    Count t = 0;
    Count trials = 0;
    double trials_per_sec = 0.0;
    double ns_per_node_round = 0.0;
    double ns_per_trial = 0.0;
    double speedup = 0.0;  ///< trials/sec vs the scalar entry at the same n
};

FusedPoint measure_fused(NodeId n, Count trials, double scalar_tps) {
    sim::Scenario s;
    s.n = n;
    s.t = (n - 1) / 3;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.inputs = sim::InputPattern::Split;
    s.use_fused = true;

    // One chunk per run: with trials % 64 == 0 every trial runs fused.
    (void)sim::run_trials(s, 0xE10, 64, sim::ExecutorConfig{1, 64});  // warm-up
    const auto start = std::chrono::steady_clock::now();
    const sim::Aggregate agg =
        sim::run_trials(s, 0xE10, trials, sim::ExecutorConfig{1, trials});
    const auto stop = std::chrono::steady_clock::now();
    require_healthy("fused n=" + std::to_string(n), agg);

    FusedPoint p;
    p.n = n;
    p.t = s.t;
    p.trials = trials;
    const double seconds = std::chrono::duration<double>(stop - start).count();
    p.trials_per_sec = seconds > 0 ? trials / seconds : 0.0;
    const double node_rounds = agg.rounds.sum() * static_cast<double>(n);
    p.ns_per_node_round = node_rounds > 0 ? 1e9 * seconds / node_rounds : 0.0;
    p.ns_per_trial = trials > 0 ? 1e9 * seconds / trials : 0.0;
    p.speedup = scalar_tps > 0 ? p.trials_per_sec / scalar_tps : 0.0;
    return p;
}

double measure_fused_overhead() {
    sim::Scenario s;
    s.n = 64;
    s.t = 21;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::None;
    s.inputs = sim::InputPattern::AllOne;  // unanimous: decides in the first phase
    s.use_fused = true;
    const Count trials = 64 * 128;
    (void)sim::run_trials(s, 0xE10, 64, sim::ExecutorConfig{1, 64});  // warm-up
    const auto start = std::chrono::steady_clock::now();
    const sim::Aggregate agg =
        sim::run_trials(s, 0xE10, trials, sim::ExecutorConfig{1, trials});
    const auto stop = std::chrono::steady_clock::now();
    require_healthy("fused overhead n=64", agg);
    const double secs = std::chrono::duration<double>(stop - start).count();
    return secs > 0 ? 1e9 * secs / trials : 0.0;
}

/// The throughput blocks' flags; main() reads them before any experiment
/// runs, with every other flag.
struct ThroughputFlags {
    Count base = 0;         ///< --bench_trials: trials at the n=256 cell
    bool use_batch = true;  ///< --batch=on|off
    Count degree = 0;       ///< --sample_degree (sparse block)
};

ThroughputFlags read_throughput_flags(const Cli& cli) {
    ThroughputFlags f;
    f.base = cli.get_uint<Count>("bench_trials", 2000);
    f.use_batch = cli.get_bool("batch", true);
    f.degree = cli.get_uint<Count>("sample_degree", 64);
    return f;
}

void throughput(const Cli& cli, const ThroughputFlags& flags) {
    const Count base = flags.base;

    Table tab("E10: delivery-plane throughput (ours + static, split inputs, 1 thread)");
    tab.set_header({"n", "t", "trials", "trials/sec", "ns/node-round"});
    std::vector<ThroughputPoint> points;
    const std::pair<NodeId, Count> cells[] = {
        {64, std::max<Count>(4 * base, 10)},
        {256, std::max<Count>(base, 10)},
        {1024, std::max<Count>(base / 5, 10)},
        {4096, std::max<Count>(base / 20, 5)},
    };
    for (const auto& [n, trials] : cells) {
        const ThroughputPoint p = measure_throughput(n, trials, flags.use_batch);
        points.push_back(p);
        tab.add_row({Table::num(std::uint64_t{p.n}), Table::num(std::uint64_t{p.t}),
                     Table::num(std::uint64_t{p.trials}), Table::num(p.trials_per_sec, 0),
                     Table::num(p.ns_per_node_round, 1)});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, tab, "e10_engine_throughput");

    // Sparse delivery plane: direct sampled-view trials up to n=2^20. The
    // n=2^20 cell runs several trials so that one slow trial does not set
    // its row.
    const Count degree = flags.degree;
    const std::pair<NodeId, Count> sparse_cells[] = {
        {1 << 14, std::max<Count>(base / 100, 5)},
        {1 << 17, std::max<Count>(base / 500, 2)},
        {1 << 20, std::max<Count>(base / 500, 3)},
    };
    std::vector<SparsePoint> sparse_points;
    Table sptab("E10: sparse delivery plane (degree " + std::to_string(degree) +
                ", ours + static q=256, split inputs, 1 trial thread)");
    sptab.set_header({"n", "t", "trials", "shards", "trials/sec", "ns/node-round",
                      "ns/probe", "bytes/node-round"});
    for (const auto& [n, trials] : sparse_cells) {
        const SparsePoint p = measure_sparse(n, trials, degree);
        sparse_points.push_back(p);
        sptab.add_row({Table::num(std::uint64_t{p.n}), Table::num(std::uint64_t{p.t}),
                       Table::num(std::uint64_t{p.trials}),
                       Table::num(std::uint64_t{p.shards}), Table::num(p.trials_per_sec, 2),
                       Table::num(p.ns_per_node_round, 1), Table::num(p.ns_per_probe, 2),
                       Table::num(p.bytes_per_node_round, 1)});
    }
    sptab.print(std::cout);
    benchutil::maybe_write_csv(cli, sptab, "e10_sparse_plane");

    // Fused trial plane: the small-n cells where 64-lane word parallelism
    // pays; trial counts rounded to whole 64-lane blocks.
    Table ftab("E10: fused trial plane (64 lanes/word, ours + static, "
               "split inputs, 1 thread)");
    ftab.set_header({"n", "t", "trials", "trials/sec", "ns/node-round",
                     "ns/trial", "speedup vs scalar"});
    for (const auto& [n, trials] : cells) {
        if (n > 1024) continue;  // beyond the small-n regime fused targets
        const Count blocks = std::max<Count>(trials / 64, 1) * 64;
        double scalar_tps = 0.0;
        for (const ThroughputPoint& q : points)
            if (q.n == n) scalar_tps = q.trials_per_sec;
        const FusedPoint p = measure_fused(n, blocks, scalar_tps);
        ftab.add_row({Table::num(std::uint64_t{p.n}), Table::num(std::uint64_t{p.t}),
                      Table::num(std::uint64_t{p.trials}),
                      Table::num(p.trials_per_sec, 0),
                      Table::num(p.ns_per_node_round, 2),
                      Table::num(p.ns_per_trial, 0), Table::num(p.speedup, 2)});
    }
    ftab.print(std::cout);
    benchutil::maybe_write_csv(cli, ftab, "e10_fused_plane");
    std::printf("fused per-trial overhead (all-one early decide): %.0f ns/trial\n",
                measure_fused_overhead());

    // Flatness: once probing and delivery are batched, ns/node-round should
    // not grow with n, so each block prints its max/min ratio across n.
    double sp_min = sparse_points.front().ns_per_node_round;
    double sp_max = sp_min;
    for (const SparsePoint& p : sparse_points) {
        sp_min = std::min(sp_min, p.ns_per_node_round);
        sp_max = std::max(sp_max, p.ns_per_node_round);
    }
    const double sp_ratio = sp_min > 0 ? sp_max / sp_min : 0.0;
    std::printf("sparse ns/node-round scaling: min %.1f, max %.1f, max/min %.2fx\n",
                sp_min, sp_max, sp_ratio);

    double ns_min = points.front().ns_per_node_round;
    double ns_max = ns_min;
    for (const ThroughputPoint& p : points) {
        ns_min = std::min(ns_min, p.ns_per_node_round);
        ns_max = std::max(ns_max, p.ns_per_node_round);
    }
    const double ns_ratio = ns_min > 0 ? ns_max / ns_min : 0.0;
    std::printf("ns/node-round scaling: min %.1f, max %.1f, max/min %.2fx\n", ns_min,
                ns_max, ns_ratio);
}

void experiment(const Cli& cli) {
    const auto trials = sim::read_trials(cli, 5);
    benchutil::finish_flags(cli);
    std::printf("E10: engine throughput (timing entries below); summary table of\n"
                "per-trial work at representative sizes.\n");

    sim::SweepGrid grid;
    grid.base.protocol = sim::ProtocolKind::Ours;
    grid.base.adversary = sim::AdversaryKind::WorstCase;
    grid.base.inputs = sim::InputPattern::Split;
    grid.ns = {64, 256, 512};
    grid.t_of_n = [](NodeId n) { return static_cast<Count>((n - 1) / 3); };

    Table tab("E10: full-fidelity trial cost (worst-case adversary, split inputs)");
    tab.set_header({"n", "t", "mean rounds", "mean msgs/trial"});
    const auto outcomes = sim::run_sweep(grid, 0xE10, trials);
    for (const auto& o : outcomes) {
        tab.add_row({Table::num(std::uint64_t{o.row.scenario.n}),
                     Table::num(std::uint64_t{o.row.scenario.t}),
                     Table::num(o.agg.rounds.mean(), 1),
                     Table::num(o.agg.messages.mean(), 0)});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab.title(), outcomes),
                               "e10_engine_cost");
}

void BM_engine_trial(benchmark::State& state) {
    sim::Scenario s;
    s.n = static_cast<NodeId>(state.range(0));
    s.t = (s.n - 1) / 3;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.inputs = sim::InputPattern::Split;
    std::uint64_t seed = 0;
    std::uint64_t msgs = 0;
    for (auto _ : state) {
        const auto r = sim::run_trial(s, seed++);
        msgs += r.metrics.honest_messages;
        benchmark::DoNotOptimize(r);
    }
    state.counters["msgs/s"] =
        benchmark::Counter(static_cast<double>(msgs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_engine_trial)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_macro_vs_micro(benchmark::State& state) {
    sim::MacroScenario m;
    m.n = static_cast<std::uint64_t>(state.range(0));
    m.t = m.n / 4;
    m.q = m.t;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_macro_trial(m, seed++));
}
BENCHMARK(BM_macro_vs_micro)->Arg(256)->Arg(1 << 14)->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        adba::benchutil::init_intra_threads(cli);
        const ThroughputFlags flags = read_throughput_flags(cli);
        experiment(cli);
        throughput(cli, flags);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
