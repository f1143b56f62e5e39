// perfbench_driver: runs one benchmark workload through the public
// sim::run_trials entry point for a fixed wall-clock budget and prints one
// JSON record as the last line of stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|smoke] [--setup_only]
//
// Every workload is a closed batch: a repetition runs the same `rep_trials`
// trials from the seed, the executor's workers pull the next chunk only after
// finishing one, and repetitions follow back to back until the budget is
// spent. Each repetition's aggregate fingerprint must equal the first's, and
// the traced executor (trace.hpp) must reproduce it for the same seed; any
// mismatch or validity failure makes the record `correct: false` and the exit
// status 1. With --trace 1, untraced and traced repetitions alternate and the
// record carries the per-layer metrics instead of the end-to-end ones.
//
// The record's `setup_s` is this process's cold set-up: the CPU time of all
// its threads from exec through registry init, make_plan validation and a
// one-round warm-up of one chunk per trial thread, which builds each arena
// for the first time. CPU time, not wall-clock: a set-up of a few
// milliseconds on a shared host is otherwise dominated by how long idle
// cores take to wake. --setup_only stops there and prints only that, so
// run.py can take the median over fresh processes.
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sim/executor.hpp"
#include "sim/faults.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace adba;
using perfbench::LayerTrace;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ workloads

/// One named benchmark workload. `threads` is the trial-pool width; the
/// intra-trial shard policy runs in its automatic mode under it.
struct Workload {
    std::string name;
    sim::Scenario scenario;
    unsigned threads = 1;
    Count rep_trials = 0;    ///< trials per timed repetition
    Count warmup_chunk = 1;  ///< warm-up trials per trial thread (part of set-up)
};

sim::Scenario split_ours(NodeId n, Count t, sim::AdversaryKind adversary) {
    sim::Scenario s;
    s.n = n;
    s.t = t;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = adversary;
    s.inputs = sim::InputPattern::Split;
    return s;
}

/// The benchmark's workloads; `smoke` shrinks each to a size that runs in
/// well under a second while keeping its execution paths.
std::vector<Workload> workloads(bool smoke) {
    std::vector<Workload> out;

    // The paper's headline adversary on the scalar engine path.
    out.push_back({"worstcase-n256", split_ours(256, 85, sim::AdversaryKind::WorstCase), 4,
                   smoke ? 64u : 1000u, 1});

    // Fused 64-lane blocks plus the scalar remainder of each chunk: 64000
    // trials give auto_chunk 1000 = 15 blocks + 40 scalar trials per chunk.
    // The warm-up gives each thread one block plus one scalar trial.
    Workload fused{"fused-n64", split_ours(64, 21, sim::AdversaryKind::Static), 4,
                   smoke ? 6400u : 64000u, 65};
    fused.scenario.use_fused = true;
    out.push_back(fused);

    // One million-node sampled trial at a time, sharded across the cores.
    const NodeId n = smoke ? NodeId{1} << 14 : NodeId{1} << 20;
    Workload sparse{"sparse-n1m", split_ours(n, n / 10, sim::AdversaryKind::Static), 1,
                    smoke ? 1u : 2u, 1};
    sparse.scenario.q = 256;
    sparse.scenario.sparse_plane = true;
    sparse.scenario.sample_degree = 64;
    sparse.scenario.sparse_stream = net::SparseStream::Counter;
    out.push_back(sparse);
    return out;
}

// ---------------------------------------------------------------- correctness

/// Everything a repetition's aggregate must reproduce: the counters, the
/// sums, and an FNV-1a hash over every sample in merge order.
struct Fingerprint {
    std::uint64_t hash = 0;
    double rounds = 0, messages = 0, corruptions = 0;
    Count trials = 0, agreement_failures = 0, validity_failures = 0, not_halted = 0,
          cap_exhausted = 0, watchdog_timeouts = 0, faulted = 0;

    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const sim::Aggregate& a) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Samples* s : {&a.rounds, &a.messages, &a.bits, &a.corruptions}) {
        mix(s->values().size());
        for (const double x : s->values()) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof bits);
            mix(bits);
        }
    }
    Fingerprint f;
    f.trials = a.trials;
    f.agreement_failures = a.agreement_failures;
    f.validity_failures = a.validity_failures;
    f.not_halted = a.not_halted;
    f.cap_exhausted = a.cap_exhausted;
    f.watchdog_timeouts = a.watchdog_timeouts;
    f.faulted = a.faulted;
    for (const Count c : {f.trials, f.agreement_failures, f.validity_failures, f.not_halted,
                          f.cap_exhausted, f.watchdog_timeouts, f.faulted})
        mix(c);
    f.hash = h;
    f.rounds = a.rounds.empty() ? 0.0 : a.rounds.sum();
    f.messages = a.messages.empty() ? 0.0 : a.messages.sum();
    f.corruptions = a.corruptions.empty() ? 0.0 : a.corruptions.sum();
    return f;
}

/// Trials that count as failed: agreement or validity failures and every
/// non-decided outcome (a trial in two classes is capped to one).
Count failed_trials(const sim::Aggregate& a) {
    const Count sum = a.agreement_failures + a.validity_failures + a.cap_exhausted +
                      a.watchdog_timeouts + a.faulted;
    return std::min(sum, a.trials);
}

// ----------------------------------------------------------------------- host

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                         &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

std::string avx512_flags() {
    std::string out;
#if defined(__x86_64__) || defined(__i386__)
    const std::pair<const char*, bool> flags[] = {
        {"avx512f", __builtin_cpu_supports("avx512f") != 0},
        {"avx512dq", __builtin_cpu_supports("avx512dq") != 0},
        {"avx512vl", __builtin_cpu_supports("avx512vl") != 0},
        {"avx512bw", __builtin_cpu_supports("avx512bw") != 0},
    };
    for (const auto& [name, on] : flags)
        if (on) out += (out.empty() ? "" : " ") + std::string(name);
#endif
    return out.empty() ? "none" : out;
}

std::string host_json() {
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"avx512\": \"" +
           avx512_flags() + "\", \"compiler\": \"" + json_escape(compiler) +
           "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE + "\"}";
}

// -------------------------------------------------------------------- measure

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of every thread this process has run, exited ones included, in
/// nanosecond resolution (getrusage rounds to microseconds).
double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec / 1e9;
}

/// Peak resident set of this process image in MiB: VmHWM, which exec
/// resets (getrusage's ru_maxrss also keeps the launching process's peak).
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    ADBA_EXPECTS_MSG(f != nullptr, "cannot read /proc/self/status for VmHWM");
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    ADBA_EXPECTS_MSG(kib > 0, "no VmHWM line in /proc/self/status");
    return kib / 1024.0;
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t m = xs.size() / 2;
    return xs.size() % 2 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Logical shards per trial under the automatic intra-trial policy. It
/// depends on the host: min(8, cores / trial threads) from n = 2048 up.
unsigned shards_per_trial(const Workload& w) {
    return w.scenario.use_shard ? sim::plan_intra_shards(w.scenario.intra_threads, w.scenario.n)
                                : 1;
}

/// OS threads that can execute one repetition: trial workers, each with
/// the ShardPool the automatic intra-trial policy gives it.
unsigned busy_threads(const Workload& w) {
    const unsigned shards = shards_per_trial(w);
    const unsigned per_trial =
        shards > 1 ? std::min(shards, sim::intra_worker_cap(sim::default_threads())) : 1;
    return w.threads * per_trial;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool setup_only = false;
};

constexpr int kMinReps = 3;  ///< timed repetitions even past the budget

int run(const Options& o) {
    const std::vector<Workload> all = workloads(o.smoke);
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Workload& w) { return w.name == o.workload; });
    ADBA_EXPECTS(it != all.end());
    const Workload& w = *it;

    // Pin every process-wide knob the workload shape depends on.
    sim::set_default_threads(w.threads);
    sim::set_default_intra_threads(0);
    sim::set_default_mem_budget_mb(0);
    sim::ExecutorConfig exec;
    exec.threads = w.threads;

    // The warm-up cuts each trial after its first round: it builds every
    // arena (allocation, first touch, shard pools) without timing whole
    // trials, which trials_per_s already measures.
    const sim::ScenarioPlan plan = sim::BinaryWorkload::make_plan(w.scenario);
    sim::Scenario first_round = w.scenario;
    first_round.max_rounds_override = 1;
    sim::ExecutorConfig warmup = exec;
    warmup.chunk = w.warmup_chunk;
    (void)sim::run_trials(first_round, o.seed, w.warmup_chunk * w.threads, warmup);
    const double setup_s = process_cpu_seconds();
    if (o.setup_only) {
        std::printf("{\"workload\": \"%s\", \"setup_s\": %.17g}\n", w.name.c_str(), setup_s);
        return 0;
    }

    std::optional<Fingerprint> reference;
    std::vector<std::string> mismatches;
    Count attempted = 0, failed = 0, validity_failures = 0;
    const auto check = [&](const sim::Aggregate& agg, const char* what, int rep) {
        const Fingerprint f = fingerprint(agg);
        attempted += agg.trials;
        failed += failed_trials(agg);
        validity_failures += agg.validity_failures;
        if (!reference)
            reference = f;
        else if (!(f == *reference))
            mismatches.push_back(std::string(what) + " repetition " + std::to_string(rep));
    };

    std::vector<double> untraced_tps, traced_tps;
    double cpu_s = 0, wall_s = 0;
    LayerTrace trace;
    const auto start = Clock::now();
    for (int rep = 0; rep < kMinReps || seconds_since(start) < o.seconds; ++rep) {
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        const sim::Aggregate agg = sim::run_trials(w.scenario, o.seed, w.rep_trials, exec);
        const double wall = seconds_since(t0);
        cpu_s += process_cpu_seconds() - cpu0;
        wall_s += wall;
        untraced_tps.push_back(w.rep_trials / wall);
        check(agg, "untraced", rep);
        if (o.trace) {
            const auto t1 = Clock::now();
            const sim::Aggregate traced =
                perfbench::run_traced(plan, o.seed, w.rep_trials, w.threads, trace);
            traced_tps.push_back(w.rep_trials / seconds_since(t1));
            check(traced, "traced", rep);
        }
    }
    const double rss_mb = peak_rss_mb();
    if (!o.trace) {
        // The cross-check the untraced record owes: the traced executor must
        // reproduce the same aggregate for the same seed.
        LayerTrace unused;
        check(perfbench::run_traced(plan, o.seed, w.rep_trials, w.threads, unused),
              "traced", 0);
    }

    std::vector<std::pair<std::string, double>> metrics;
    const double untraced = median(untraced_tps);
    if (!o.trace) {
        metrics = {{"trials_per_s", untraced}, {"rss_mb", rss_mb}};
    } else {
        const LayerTrace& t = trace;
        const double node_rounds = t.engine_node_rounds + t.fused_node_rounds;
        const double engine_self = static_cast<double>(t.engine_ns) - t.engine_children_ns;
        const double fused_self = static_cast<double>(t.block_ns) - t.block_children_ns;
        metrics = {
            {"sim.setup_ns_per_trial", ratio(t.setup_ns, t.trials)},
            {"sim.executor.busy_share", ratio(cpu_s, wall_s * busy_threads(w))},
            {"sim.executor.fused_trial_share", ratio(t.fused_trials, t.trials)},
            {"sim.shard.dispatches_per_round", ratio(t.dispatches, t.trial_rounds)},
            {"sim.shard.busy_share", ratio(t.shard_busy_ns, t.shard_capacity_ns)},
            {"sim.shard.overhead_ns_per_dispatch", ratio(t.shard_overhead_ns, t.dispatches)},
            {"net.engine.self_ns_per_node_round", ratio(engine_self, t.engine_node_rounds)},
            {"net.fused.self_ns_per_node_round", ratio(fused_self, t.fused_node_rounds)},
            {"net.fused.lane_occupancy", ratio(t.lane_rounds, t.lane_slots)},
            {"net.sparse.prepare_ns_per_round", ratio(t.sparse_prepare_ns, t.sparse_rounds)},
            {"net.sparse.ns_per_probe", ratio(t.sparse_range_ns, t.sparse_probes)},
            {"core.send_ns_per_node_round", ratio(t.send_ns, node_rounds)},
            {"core.receive_ns_per_node_round", ratio(t.receive_ns, node_rounds)},
            {"adversary.act_ns_per_node_round", ratio(t.act_ns, node_rounds)},
            {"adversary.observe_calls_per_round", ratio(t.observe_calls, t.trial_rounds)},
            {"adversary.deliver_cells_per_round", ratio(t.deliver_cells, t.trial_rounds)},
            {"adversary.split_rows_per_round", ratio(t.split_rows, t.trial_rounds)},
            {"trace.overhead_share", 1.0 - ratio(median(traced_tps), untraced)},
        };
    }

    const bool correct = mismatches.empty() && validity_failures == 0;
    for (const std::string& m : mismatches)
        std::fprintf(stderr, "perfbench: fingerprint mismatch in %s\n", m.c_str());
    if (validity_failures)
        std::fprintf(stderr, "perfbench: %u validity failures\n", validity_failures);

    const Fingerprint& f = *reference;
    std::printf(
        "{\"workload\": \"%s\", \"trace\": %d, \"host\": %s, \"reps\": %zu, "
        "\"rep_trials\": %u, \"threads\": %u, \"shards\": %u, \"busy_threads\": %u, "
        "\"setup_s\": %.17g, "
        "\"fingerprint\": {\"hash\": \"%016llx\", \"trials\": %u, \"rounds\": %.17g, "
        "\"messages\": %.17g, \"corruptions\": %.17g, \"agreement_failures\": %u, "
        "\"validity_failures\": %u, \"not_halted\": %u, \"cap_exhausted\": %u, "
        "\"watchdog_timeouts\": %u, \"faulted\": %u}, "
        "\"correct\": %s, \"attempted\": %u, \"failed\": %u, \"rep_trials_per_s\": [",
        w.name.c_str(), o.trace ? 1 : 0, host_json().c_str(), untraced_tps.size(),
        w.rep_trials, w.threads, shards_per_trial(w), busy_threads(w), setup_s, static_cast<unsigned long long>(f.hash),
        f.trials, f.rounds, f.messages, f.corruptions, f.agreement_failures,
        f.validity_failures, f.not_halted, f.cap_exhausted, f.watchdog_timeouts, f.faulted,
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < untraced_tps.size(); ++i)
        std::printf("%s%.6g", i ? ", " : "", untraced_tps[i]);
    std::printf("], \"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "", metrics[i].first.c_str(),
                    metrics[i].second);
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

// ------------------------------------------------------------------------ CLI

[[noreturn]] void usage_error(const std::string& msg) {
    std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
    std::exit(2);
}

/// Reads the flags through the repository's strict Cli: an unknown flag
/// names the closest known one, a malformed number throws.
Options parse(int argc, char** argv) {
    const Cli cli(argc, argv);
    Options o;
    o.workload = cli.get("workload", "");
    const std::int64_t seed = cli.get_int("seed", 1);
    o.seconds = cli.get_double("seconds", 10);
    const std::string trace = cli.get("trace", "0");
    const std::string size = cli.get("size", "full");
    o.setup_only = cli.get_bool("setup_only", false);
    cli.check_unused();
    if (cli.passthrough().size() > 1)
        usage_error("unexpected argument '" + cli.passthrough()[1] + "'");

    std::vector<std::string> names;
    for (const Workload& w : workloads(false)) names.push_back(w.name);
    if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
        const std::string near = closest_match(o.workload, names);
        usage_error("unknown workload '" + o.workload + "'" +
                    (near.empty() ? std::string() : " (did you mean " + near + "?)"));
    }
    if (seed < 0 || !(o.seconds > 0)) usage_error("--seed must be >= 0 and --seconds > 0");
    if (trace != "0" && trace != "1") usage_error("--trace expects 0 or 1");
    if (size != "full" && size != "smoke") usage_error("--size expects full or smoke");
    o.seed = static_cast<std::uint64_t>(seed);
    o.trace = trace == "1";
    o.smoke = size == "smoke";
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const ContractViolation& e) {
        usage_error(e.what());
    } catch (const std::exception&) {  // std::stoll / std::stod on a malformed number
        usage_error("--seed and --seconds expect numbers");
    }
    try {
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
