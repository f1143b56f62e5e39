// E10 — simulator substrate throughput: the cost model behind every other
// experiment. Not a paper claim; reported so readers can size their own
// sweeps (messages delivered per second, trial latency vs n).
//
// The `throughput` section is the repo's perf trajectory point: single-
// thread trials/sec and ns per node-round for the skeleton protocol against
// the static adversary at n in {64, 256, 1024}, written as JSON only when
// --bench_json=PATH is given (--bench_trials scales the n=256 trial count),
// so CI can archive the numbers per commit and a plain run never overwrites
// the committed BENCH_engine.json baseline. Two further sections feed the same
// JSON: `sharded` (one huge-n trial split across intra-trial shard workers,
// speedup vs the serial entry at the same n), `tally_kernels` (bytes/sec
// of the packed popcount tally build vs the scalar byte-plane build, next
// to a streaming memory-bandwidth reference — the roofline the packed
// kernels are judged against) and `sparse` (direct trials through the
// sampled delivery plane at n up to 2^20 — per-receiver sampled sender
// views, the regime the shared-tally trick cannot represent — with
// trials/sec, ns per node-round, ns per sampled probe, delivered bytes per
// node-round, and the max/min ns flatness ratio across the n sweep). The
// `fused` block re-measures the small-n serial cells through the 64-lane
// fused trial plane (fused=true): trials/sec, ns per node-round, ns per
// trial, and speedup vs the scalar entry at the same n, plus the fixed
// per-block overhead priced on an early-deciding scenario.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "net/round_buffer.hpp"
#include "rand/rng.hpp"
#include "sim/macro.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

struct ThroughputPoint {
    NodeId n = 0;
    Count t = 0;
    Count trials = 0;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
    double mean_rounds = 0.0;
    double ns_per_node_round = 0.0;
    /// Outcome-taxonomy health counters: the regression gate rejects a
    /// baseline whose timing rows hide exhausted or faulted trials.
    Count exhausted = 0;  ///< cap_exhausted + watchdog_timeouts
    Count faulted = 0;
};

ThroughputPoint measure_throughput(NodeId n, Count trials, bool use_batch,
                                   Count intra_shards = 0) {
    sim::Scenario s;
    s.n = n;
    s.t = (n - 1) / 3;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::Static;
    s.inputs = sim::InputPattern::Split;
    s.use_batch = use_batch;
    s.intra_threads = intra_shards;
    // The serial, batch, shard and packed entries time the scalar engine
    // paths their names say; the `fused` block times the fused plane.
    s.use_fused = false;

    const sim::ExecutorConfig serial{1, 0};  // the canonical single-thread metric
    (void)sim::run_trials(s, 0xE10, std::max<Count>(trials / 10, 2), serial);  // warm-up

    const auto start = std::chrono::steady_clock::now();
    const sim::Aggregate agg = sim::run_trials(s, 0xE10, trials, serial);
    const auto stop = std::chrono::steady_clock::now();

    ThroughputPoint p;
    p.n = n;
    p.t = s.t;
    p.trials = trials;
    p.seconds = std::chrono::duration<double>(stop - start).count();
    p.trials_per_sec = p.seconds > 0 ? trials / p.seconds : 0.0;
    p.mean_rounds = agg.rounds.mean();
    const double node_rounds = agg.rounds.sum() * static_cast<double>(n);
    p.ns_per_node_round = node_rounds > 0 ? 1e9 * p.seconds / node_rounds : 0.0;
    p.exhausted = agg.cap_exhausted + agg.watchdog_timeouts;
    p.faulted = agg.faulted;
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
// plane is built for.

struct SparsePoint {
    NodeId n = 0;
    Count t = 0;
    Count trials = 0;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
    double mean_rounds = 0.0;
    double ns_per_node_round = 0.0;
    double ns_per_probe = 0.0;
    double bytes_per_node_round = 0.0;
    Count exhausted = 0;  ///< cap_exhausted + watchdog_timeouts (gated at 0)
    Count faulted = 0;
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

    SparsePoint p;
    p.n = n;
    p.t = s.t;
    p.trials = trials;
    p.seconds = std::chrono::duration<double>(stop - start).count();
    p.trials_per_sec = p.seconds > 0 ? trials / p.seconds : 0.0;
    p.mean_rounds = agg.rounds.mean();
    const double node_rounds = agg.rounds.sum() * static_cast<double>(n);
    p.ns_per_node_round = node_rounds > 0 ? 1e9 * p.seconds / node_rounds : 0.0;
    // Nominal per-edge cost: each node-round is `degree` sampled probes
    // (send/step beats are amortised into it, so this slightly overstates
    // the pure probe kernel — fine for a regression gate, which only needs
    // the number to be comparable run-over-run).
    p.ns_per_probe =
        degree > 0 ? p.ns_per_node_round / static_cast<double>(degree) : 0.0;
    const double bits_per_trial = agg.bits.mean();
    p.bytes_per_node_round =
        p.mean_rounds > 0
            ? bits_per_trial / 8.0 / static_cast<double>(n) / p.mean_rounds
            : 0.0;
    p.exhausted = agg.cap_exhausted + agg.watchdog_timeouts;
    p.faulted = agg.faulted;
    return p;
}

// ---- fused trial plane (64 Monte-Carlo trials per machine word) ----
//
// Same protocol/adversary shape as the serial entries but with fused=true:
// 64 trials co-execute bit-sliced, one uint64_t per node, so the per-trial
// cost of small-n cells stops being dominated by per-node bookkeeping.
// Trial counts are whole multiples of 64 so the chunk is all whole fused
// blocks (a partial block would dilute the measurement); aggregates stay
// bit-identical to the scalar path, so the health counters gate the same
// way. `ns_per_trial_overhead` prices the fixed per-block cost (rearm,
// input packing, result scatter) on a fast-deciding all-one/no-adversary
// scenario where almost no protocol rounds run.

struct FusedPoint {
    NodeId n = 0;
    Count t = 0;
    Count trials = 0;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
    double mean_rounds = 0.0;
    double ns_per_node_round = 0.0;
    double ns_per_trial = 0.0;
    double speedup = 0.0;  ///< trials/sec vs the scalar entry at the same n
    Count exhausted = 0;
    Count faulted = 0;
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

    FusedPoint p;
    p.n = n;
    p.t = s.t;
    p.trials = trials;
    p.seconds = std::chrono::duration<double>(stop - start).count();
    p.trials_per_sec = p.seconds > 0 ? trials / p.seconds : 0.0;
    p.mean_rounds = agg.rounds.mean();
    const double node_rounds = agg.rounds.sum() * static_cast<double>(n);
    p.ns_per_node_round = node_rounds > 0 ? 1e9 * p.seconds / node_rounds : 0.0;
    p.ns_per_trial = trials > 0 ? 1e9 * p.seconds / trials : 0.0;
    p.speedup = scalar_tps > 0 ? p.trials_per_sec / scalar_tps : 0.0;
    p.exhausted = agg.cap_exhausted + agg.watchdog_timeouts;
    p.faulted = agg.faulted;
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
    (void)sim::run_trials(s, 0xE10, trials, sim::ExecutorConfig{1, trials});
    const auto stop = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(stop - start).count();
    return secs > 0 ? 1e9 * secs / trials : 0.0;
}

// ---- tally-kernel microbench (the roofline evidence) ----
//
// One synthetic all-honest round, rebuilt over and over in each tally mode.
// Both modes sweep the same input — n Message cells plus the n-byte state
// plane per rebuild — so bytes/sec is directly comparable, and the packed
// mode's margin over scalar (and its distance from the streaming memory-
// bandwidth reference below) is the reproducible form of the "runs at
// memory bandwidth" claim.

struct KernelPoint {
    NodeId n = 0;
    double scalar_gbs = 0.0;
    double packed_gbs = 0.0;
    double speedup = 0.0;
};

KernelPoint measure_tally_kernel(NodeId n) {
    net::RoundBuffer buf;
    buf.reset(n);
    buf.begin_round();
    // Lockstep round shape: every live sender shares one (kind, phase)
    // signature (what the skeleton protocol's rounds look like), payload
    // bits random — the branchy case the packed kernels exist to flatten.
    Xoshiro256 rng(0xE10ull * n);
    for (NodeId v = 0; v < n; ++v) {
        net::Message m;
        m.kind = net::MsgKind::Vote1;
        m.phase = 1;
        m.val = static_cast<Bit>(rng.below(2));
        m.flag = static_cast<std::uint8_t>(rng.below(2));
        m.coin = static_cast<CoinSign>(static_cast<int>(rng.below(3)) - 1);
        buf.set_broadcast(v, m);
    }

    net::RoundTally tally;
    const double bytes_per_rebuild =
        static_cast<double>(n) * (sizeof(net::Message) + 1);
    const auto time_mode = [&](bool packed) {
        const Count reps = std::max<Count>(5'000'000 / n, 50);
        tally.rebuild(buf, packed, nullptr);  // warm-up (bucket storage etc.)
        std::uint64_t sink = 0;
        const auto start = std::chrono::steady_clock::now();
        for (Count r = 0; r < reps; ++r) {
            tally.rebuild(buf, packed, nullptr);
            sink += tally.bucket(0).total;
        }
        const auto stop = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(sink);
        const double secs = std::chrono::duration<double>(stop - start).count();
        return secs > 0 ? bytes_per_rebuild * static_cast<double>(reps) / secs / 1e9
                        : 0.0;
    };

    KernelPoint k;
    k.n = n;
    k.scalar_gbs = time_mode(false);
    k.packed_gbs = time_mode(true);
    k.speedup = k.scalar_gbs > 0 ? k.packed_gbs / k.scalar_gbs : 0.0;
    return k;
}

/// Streaming read bandwidth over a 64 MiB uint64 buffer — the roofline the
/// packed kernels are compared against.
double measure_mem_bandwidth() {
    std::vector<std::uint64_t> a(std::size_t{1} << 23, 0x0101010101010101ull);
    std::uint64_t sink = 0;
    for (const std::uint64_t x : a) sink += x;  // warm-up / fault-in
    const int passes = 4;
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p)
        for (const std::uint64_t x : a) sink += x;
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    const double secs = std::chrono::duration<double>(stop - start).count();
    const double bytes = static_cast<double>(a.size()) * sizeof(std::uint64_t) * passes;
    return secs > 0 ? bytes / secs / 1e9 : 0.0;
}

/// The throughput blocks' flags; main() reads them before any experiment
/// runs, with every other flag.
struct ThroughputFlags {
    Count base = 0;         ///< --bench_trials: trials at the n=256 cell
    std::string json_path;  ///< --bench_json; empty = write no file
    bool use_batch = true;  ///< --batch=on|off
    unsigned shards = 0;    ///< --shards
    Count degree = 0;       ///< --sample_degree (sparse blocks)
};

ThroughputFlags read_throughput_flags(const Cli& cli) {
    ThroughputFlags f;
    f.base = cli.get_uint<Count>("bench_trials", 2000);
    f.json_path = cli.get("bench_json", "");
    f.use_batch = cli.get_bool("batch", true);
    f.shards = cli.get_uint<unsigned>("shards", 4);
    f.degree = cli.get_uint<Count>("sample_degree", 64);
    return f;
}

void throughput(const Cli& cli, const ThroughputFlags& flags) {
    const Count base = flags.base;
    const std::string& json_path = flags.json_path;
    const bool use_batch = flags.use_batch;

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
        const ThroughputPoint p = measure_throughput(n, trials, use_batch);
        points.push_back(p);
        tab.add_row({Table::num(std::uint64_t{p.n}), Table::num(std::uint64_t{p.t}),
                     Table::num(std::uint64_t{p.trials}), Table::num(p.trials_per_sec, 0),
                     Table::num(p.ns_per_node_round, 1)});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, tab, "e10_engine_throughput");

    // Intra-trial sharding: the same huge-n cells, one trial at a time split
    // across shard workers. The trial pool default is pinned to 1 for the
    // measurement so the nested-parallelism clamp hands the whole machine to
    // the intra workers (the single-huge-trial use case). On a 1-core host
    // this degrades to the serial loop and speedup reads ~1.0x — the number
    // is honest, not padded.
    const unsigned shards = flags.shards;
    const unsigned saved_threads = sim::default_threads();
    sim::set_default_threads(1);
    const unsigned workers = std::min(shards, sim::intra_worker_cap(1));
    Table stab("E10: intra-trial sharding (" + std::to_string(shards) +
               " shards, " + std::to_string(workers) + " workers)");
    stab.set_header({"n", "trials", "trials/sec", "ns/node-round", "speedup"});
    std::vector<std::pair<ThroughputPoint, double>> sharded;
    for (const auto& [n, trials] : cells) {
        if (n < 1024) continue;  // sharding targets the huge-n cells
        const ThroughputPoint p = measure_throughput(n, trials, use_batch, shards);
        double serial_tps = 0.0;
        for (const ThroughputPoint& q : points)
            if (q.n == n) serial_tps = q.trials_per_sec;
        const double speedup = serial_tps > 0 ? p.trials_per_sec / serial_tps : 0.0;
        sharded.emplace_back(p, speedup);
        stab.add_row({Table::num(std::uint64_t{p.n}),
                      Table::num(std::uint64_t{p.trials}),
                      Table::num(p.trials_per_sec, 0),
                      Table::num(p.ns_per_node_round, 1), Table::num(speedup, 2)});
    }
    sim::set_default_threads(saved_threads);
    stab.print(std::cout);
    benchutil::maybe_write_csv(cli, stab, "e10_engine_sharded");

    // Packed-vs-scalar tally kernel bandwidth next to the streaming roofline.
    const double mem_bw = measure_mem_bandwidth();
    Table ktab("E10: tally kernel bandwidth (stream reference " +
               Table::num(mem_bw, 1) + " GB/s)");
    ktab.set_header({"n", "scalar GB/s", "packed GB/s", "speedup"});
    std::vector<KernelPoint> kernels;
    for (const NodeId n : {NodeId{1024}, NodeId{4096}, NodeId{16384}}) {
        const KernelPoint k = measure_tally_kernel(n);
        kernels.push_back(k);
        ktab.add_row({Table::num(std::uint64_t{k.n}), Table::num(k.scalar_gbs, 2),
                      Table::num(k.packed_gbs, 2), Table::num(k.speedup, 2)});
    }
    ktab.print(std::cout);
    benchutil::maybe_write_csv(cli, ktab, "e10_tally_kernels");

    // Sparse delivery plane: direct sampled-view trials up to n=2^20. The
    // n=2^20 cell runs several trials — a single ~1 s trial made the
    // committed baseline noisy enough to trip the regression gate.
    const Count degree = flags.degree;
    const std::pair<NodeId, Count> sparse_cells[] = {
        {1 << 14, std::max<Count>(base / 100, 5)},
        {1 << 17, std::max<Count>(base / 500, 2)},
        {1 << 20, std::max<Count>(base / 500, 3)},
    };
    std::vector<SparsePoint> sparse_points;
    Table sptab("E10: sparse delivery plane (degree " + std::to_string(degree) +
                ", ours + static q=256, split inputs, 1 thread)");
    sptab.set_header({"n", "t", "trials", "trials/sec", "ns/node-round", "ns/probe",
                      "bytes/node-round"});
    for (const auto& [n, trials] : sparse_cells) {
        const SparsePoint p = measure_sparse(n, trials, degree);
        sparse_points.push_back(p);
        sptab.add_row({Table::num(std::uint64_t{p.n}), Table::num(std::uint64_t{p.t}),
                       Table::num(std::uint64_t{p.trials}), Table::num(p.trials_per_sec, 2),
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
    std::vector<FusedPoint> fused_points;
    for (const auto& [n, trials] : cells) {
        if (n > 1024) continue;  // beyond the small-n regime fused targets
        const Count blocks = std::max<Count>(trials / 64, 1) * 64;
        double scalar_tps = 0.0;
        for (const ThroughputPoint& q : points)
            if (q.n == n) scalar_tps = q.trials_per_sec;
        const FusedPoint p = measure_fused(n, blocks, scalar_tps);
        fused_points.push_back(p);
        ftab.add_row({Table::num(std::uint64_t{p.n}), Table::num(std::uint64_t{p.t}),
                      Table::num(std::uint64_t{p.trials}),
                      Table::num(p.trials_per_sec, 0),
                      Table::num(p.ns_per_node_round, 2),
                      Table::num(p.ns_per_trial, 0), Table::num(p.speedup, 2)});
    }
    ftab.print(std::cout);
    benchutil::maybe_write_csv(cli, ftab, "e10_fused_plane");
    const double fused_overhead = measure_fused_overhead();
    std::printf("fused per-trial overhead (all-one early decide): %.0f ns/trial\n",
                fused_overhead);

    // Sparse flatness: once probing is batched, ns/node-round must not grow
    // with n across 2^14..2^20 (counter stream); CI gates the max/min ratio.
    double sp_min = sparse_points.front().ns_per_node_round;
    double sp_max = sp_min;
    for (const SparsePoint& p : sparse_points) {
        sp_min = std::min(sp_min, p.ns_per_node_round);
        sp_max = std::max(sp_max, p.ns_per_node_round);
    }
    const double sp_ratio = sp_min > 0 ? sp_max / sp_min : 0.0;
    std::printf("sparse ns/node-round scaling: min %.1f, max %.1f, max/min %.2fx\n",
                sp_min, sp_max, sp_ratio);

    // Scaling flatness: per-node-round cost should not grow with n once the
    // plane is batched; CI tracks the max/min ratio, not just throughput.
    double ns_min = points.front().ns_per_node_round;
    double ns_max = ns_min;
    for (const ThroughputPoint& p : points) {
        ns_min = std::min(ns_min, p.ns_per_node_round);
        ns_max = std::max(ns_max, p.ns_per_node_round);
    }
    const double ns_ratio = ns_min > 0 ? ns_max / ns_min : 0.0;
    std::printf("ns/node-round scaling: min %.1f, max %.1f, max/min %.2fx\n", ns_min,
                ns_max, ns_ratio);

    if (json_path.empty()) return;
    std::ofstream out(json_path);
    if (!out) throw ContractViolation("cannot write " + json_path);
    out << "{\n  \"bench\": \"engine_throughput\",\n"
        << "  \"protocol\": \"ours\",\n  \"adversary\": \"static\",\n"
        << "  \"inputs\": \"split\",\n  \"threads\": 1,\n"
        << "  \"batch\": " << (use_batch ? "true" : "false") << ",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ThroughputPoint& p = points[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "    {\"n\": %u, \"t\": %u, \"trials\": %u, \"seconds\": %.6f, "
                      "\"trials_per_sec\": %.1f, \"mean_rounds\": %.2f, "
                      "\"ns_per_node_round\": %.2f, \"exhausted\": %u, "
                      "\"faulted\": %u}%s\n",
                      p.n, p.t, p.trials, p.seconds, p.trials_per_sec, p.mean_rounds,
                      p.ns_per_node_round, p.exhausted, p.faulted,
                      i + 1 < points.size() ? "," : "");
        out << buf;
    }
    {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "  ],\n  \"sharded\": {\"shards\": %u, \"workers\": %u, "
                      "\"entries\": [\n",
                      shards, workers);
        out << buf;
    }
    for (std::size_t i = 0; i < sharded.size(); ++i) {
        const auto& [p, speedup] = sharded[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "    {\"n\": %u, \"trials\": %u, \"seconds\": %.6f, "
                      "\"trials_per_sec\": %.1f, \"ns_per_node_round\": %.2f, "
                      "\"speedup_vs_serial\": %.3f, \"exhausted\": %u, "
                      "\"faulted\": %u}%s\n",
                      p.n, p.trials, p.seconds, p.trials_per_sec,
                      p.ns_per_node_round, speedup, p.exhausted, p.faulted,
                      i + 1 < sharded.size() ? "," : "");
        out << buf;
    }
    {
        char buf[120];
        std::snprintf(buf, sizeof buf,
                      "  ]},\n  \"tally_kernels\": {\"mem_bw_gb_per_sec\": %.2f, "
                      "\"entries\": [\n",
                      mem_bw);
        out << buf;
    }
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelPoint& k = kernels[i];
        char buf[240];
        std::snprintf(buf, sizeof buf,
                      "    {\"n\": %u, \"scalar_gb_per_sec\": %.3f, "
                      "\"packed_gb_per_sec\": %.3f, \"speedup\": %.3f}%s\n",
                      k.n, k.scalar_gbs, k.packed_gbs, k.speedup,
                      i + 1 < kernels.size() ? "," : "");
        out << buf;
    }
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "  ]},\n  \"sparse\": {\"degree\": %u, \"entries\": [\n", degree);
        out << buf;
    }
    for (std::size_t i = 0; i < sparse_points.size(); ++i) {
        const SparsePoint& p = sparse_points[i];
        char buf[360];
        std::snprintf(buf, sizeof buf,
                      "    {\"n\": %u, \"t\": %u, \"trials\": %u, \"seconds\": %.6f, "
                      "\"trials_per_sec\": %.3f, \"mean_rounds\": %.2f, "
                      "\"ns_per_node_round\": %.2f, \"ns_per_probe\": %.3f, "
                      "\"bytes_per_node_round\": %.2f, \"exhausted\": %u, "
                      "\"faulted\": %u}%s\n",
                      p.n, p.t, p.trials, p.seconds, p.trials_per_sec, p.mean_rounds,
                      p.ns_per_node_round, p.ns_per_probe, p.bytes_per_node_round,
                      p.exhausted, p.faulted, i + 1 < sparse_points.size() ? "," : "");
        out << buf;
    }
    {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "  ], \"ns_per_node_round_max_over_min\": %.3f},\n"
                      "  \"fused\": {\"lanes\": 64, "
                      "\"ns_per_trial_overhead\": %.2f, \"entries\": [\n",
                      sp_ratio, fused_overhead);
        out << buf;
    }
    for (std::size_t i = 0; i < fused_points.size(); ++i) {
        const FusedPoint& p = fused_points[i];
        char buf[360];
        std::snprintf(buf, sizeof buf,
                      "    {\"n\": %u, \"t\": %u, \"trials\": %u, \"seconds\": %.6f, "
                      "\"trials_per_sec\": %.1f, \"mean_rounds\": %.2f, "
                      "\"ns_per_node_round\": %.2f, \"ns_per_trial\": %.2f, "
                      "\"speedup_vs_scalar\": %.3f, \"exhausted\": %u, "
                      "\"faulted\": %u}%s\n",
                      p.n, p.t, p.trials, p.seconds, p.trials_per_sec, p.mean_rounds,
                      p.ns_per_node_round, p.ns_per_trial, p.speedup, p.exhausted,
                      p.faulted, i + 1 < fused_points.size() ? "," : "");
        out << buf;
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  ]},\n  \"scaling\": {\"ns_per_node_round_min\": %.2f, "
                  "\"ns_per_node_round_max\": %.2f, "
                  "\"ns_per_node_round_max_over_min\": %.3f}\n}\n",
                  ns_min, ns_max, ns_ratio);
    out << buf;
    std::printf("wrote %s\n", json_path.c_str());
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
