#include "sim/faults.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "rand/rng.hpp"
#include "sim/spec_keys.hpp"
#include "support/contracts.hpp"

namespace adba::sim {

namespace {

// Thread-local recovery state set by the trial kernel (workload.hpp).
thread_local std::uint32_t t_chunk_attempt = 0;
thread_local bool t_degraded_chunk = false;

// The armed process-wide injector. A plain owning pointer swapped only by
// arm()/disarm(), which the contract forbids calling concurrently with
// running trials; sites read it through active() on every visit.
std::unique_ptr<FaultInjector> g_injector;

// Site tags folded into the decision hash so distinct fault kinds at the
// same indices draw independent coins.
enum : std::uint64_t {
    kSiteShardDeath = 0x51,
    kSiteStall = 0x52,
    kSiteAlloc = 0x53,
    kSiteBeat = 0x54,
    kSiteTrial = 0x55,
};

double parse_rate(const std::string& what, const std::string& v) {
    const double r = parse_double(what, v);
    ADBA_EXPECTS_MSG(r >= 0.0 && r <= 1.0, what + " wants a rate in [0,1], got '" + v + "'");
    return r;
}

std::uint32_t parse_attempts(const std::string& what, const std::string& v) {
    const auto n = parse_uint<std::uint32_t>(what, v);
    ADBA_EXPECTS_MSG(n >= 1, "max_attempts must be >= 1");
    return n;
}

/// The fault spec's keys (spec_keys.hpp). Transient faults are recovered
/// without changing any aggregate; trial_rate (and the seed that places its
/// faults) changes results.
const std::vector<SpecKey<FaultConfig>>& fault_keys() {
    using F = FaultConfig;
    using R = KeyRole;
    static const std::vector<SpecKey<F>> keys = {
        spec_field("seed", R::Identity, &F::seed),
        spec_field("shard_death", R::Execution, &F::shard_death, &parse_rate),
        spec_field("shard_death_shard", R::Execution, &F::shard_death_shard),
        spec_field("stall_rate", R::Execution, &F::stall_rate, &parse_rate),
        spec_field("stall_ms", R::Execution, &F::stall_ms),
        spec_field("alloc_rate", R::Execution, &F::alloc_rate, &parse_rate),
        spec_field("trial_rate", R::Result, &F::trial_rate, &parse_rate),
        spec_field("beat_delay_rate", R::Execution, &F::beat_delay_rate, &parse_rate),
        spec_field("beat_delay_ms", R::Execution, &F::beat_delay_ms),
        spec_field("max_attempts", R::Execution, &F::max_attempts, &parse_attempts),
    };
    return keys;
}

}  // namespace

FaultConfig FaultConfig::parse(const std::string& spec) {
    return parse_spec(fault_keys(), "fault", spec);
}

std::string FaultConfig::describe() const { return describe_spec(fault_keys(), *this); }

void FaultInjector::arm(const FaultConfig& cfg) {
    g_injector.reset(new FaultInjector(cfg));
}

void FaultInjector::disarm() { g_injector.reset(); }

FaultInjector* FaultInjector::active() { return g_injector.get(); }

bool FaultInjector::decide(double rate, std::uint64_t site, std::uint64_t a,
                           std::uint64_t b) const {
    if (rate <= 0.0) return false;
    if (rate >= 1.0) return true;
    std::uint64_t h = mix64(cfg_.seed ^ mix64(site * 0x9e3779b97f4a7c15ULL ^ a) ^
                            mix64(b + 0x2545f4914f6cdd1dULL));
    // 53 uniform mantissa bits -> [0, 1).
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < rate;
}

void FaultInjector::on_shard_task(unsigned shard) {
    if (t_degraded_chunk) return;
    const std::uint64_t attempt = t_chunk_attempt;
    if (cfg_.stall_rate > 0.0 &&
        decide(cfg_.stall_rate, kSiteStall, shard, attempt)) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.stall_ms));
    }
    if (cfg_.shard_death > 0.0 &&
        (cfg_.shard_death_shard < 0 ||
         cfg_.shard_death_shard == static_cast<std::int64_t>(shard)) &&
        decide(cfg_.shard_death, kSiteShardDeath, shard, attempt)) {
        shard_deaths_.fetch_add(1, std::memory_order_relaxed);
        throw InjectedFault(InjectedFault::Site::ShardTask,
                            "injected worker death in shard " + std::to_string(shard));
    }
}

void FaultInjector::on_chunk_arena(std::size_t chunk_index) {
    if (t_degraded_chunk) return;
    if (cfg_.alloc_rate > 0.0 &&
        decide(cfg_.alloc_rate, kSiteAlloc, chunk_index, t_chunk_attempt)) {
        alloc_failures_.fetch_add(1, std::memory_order_relaxed);
        throw InjectedFault(
            InjectedFault::Site::ChunkArena,
            "injected arena allocation failure in chunk " + std::to_string(chunk_index));
    }
}

void FaultInjector::on_beat(Round round) {
    if (t_degraded_chunk) return;
    if (cfg_.beat_delay_rate > 0.0 &&
        decide(cfg_.beat_delay_rate, kSiteBeat, round, t_chunk_attempt)) {
        beat_delays_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.beat_delay_ms));
    }
}

bool FaultInjector::trial_faulted(Count index) {
    // Deliberately NOT suppressed in degraded chunks and NOT attempt-salted:
    // a permanent fault consumes the same trials under any recovery path,
    // which is what keeps armed aggregates thread-count invariant.
    if (cfg_.trial_rate <= 0.0) return false;
    if (!decide(cfg_.trial_rate, kSiteTrial, index, 0)) return false;
    trial_faults_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void FaultInjector::note_retry(std::uint32_t attempt) {
    chunk_retries_.fetch_add(1, std::memory_order_relaxed);
    // Bounded exponential backoff: 1ms, 2ms, 4ms, ... capped at 16ms — enough
    // to let a transient (a stalled sibling, a momentary allocation spike)
    // clear without turning recovery into a second watchdog problem.
    const std::uint32_t ms = 1u << std::min(attempt, 4u);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void FaultInjector::note_degraded() {
    degraded_chunks_.fetch_add(1, std::memory_order_relaxed);
}

FaultStats FaultInjector::stats() {
    FaultStats s;
    if (const FaultInjector* inj = g_injector.get()) {
        s.shard_deaths = inj->shard_deaths_.load(std::memory_order_relaxed);
        s.stalls = inj->stalls_.load(std::memory_order_relaxed);
        s.alloc_failures = inj->alloc_failures_.load(std::memory_order_relaxed);
        s.beat_delays = inj->beat_delays_.load(std::memory_order_relaxed);
        s.trial_faults = inj->trial_faults_.load(std::memory_order_relaxed);
        s.chunk_retries = inj->chunk_retries_.load(std::memory_order_relaxed);
        s.degraded_chunks = inj->degraded_chunks_.load(std::memory_order_relaxed);
    }
    return s;
}

std::string FaultInjector::stats_line() {
    const FaultStats s = stats();
    std::ostringstream os;
    os << "faults: " << s.shard_deaths << " shard-deaths, " << s.stalls
       << " stalls, " << s.alloc_failures << " alloc-failures, " << s.beat_delays
       << " beat-delays, " << s.trial_faults << " trial-faults, "
       << s.chunk_retries << " chunk-retries, " << s.degraded_chunks
       << " degraded-chunks";
    return os.str();
}

bool init_faults(const Cli& cli) {
    const std::string spec = cli.get("faults", "");
    if (spec.empty()) {
        FaultInjector::disarm();
        return false;
    }
    FaultInjector::arm(FaultConfig::parse(spec));
    return true;
}

ScopedChunkAttempt::ScopedChunkAttempt(std::uint32_t attempt)
    : previous_(t_chunk_attempt) {
    t_chunk_attempt = attempt;
}

ScopedChunkAttempt::~ScopedChunkAttempt() { t_chunk_attempt = previous_; }

ScopedDegradedChunk::ScopedDegradedChunk() { t_degraded_chunk = true; }

ScopedDegradedChunk::~ScopedDegradedChunk() { t_degraded_chunk = false; }

bool in_degraded_chunk() { return t_degraded_chunk; }

// ------------------------------------------------------------ memory budget

namespace {

std::uint64_t g_mem_budget_mb = ~0ULL;  // ~0 = "not resolved yet"

std::uint64_t env_mem_budget_mb() {
    if (const char* env = std::getenv("ADBA_MEM_BUDGET_MB")) {
        char* end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (end && *end == '\0') return static_cast<std::uint64_t>(v);
        std::fprintf(stderr,
                     "adba: ignoring unparsable ADBA_MEM_BUDGET_MB='%s'\n", env);
    }
    return 0;
}

}  // namespace

std::uint64_t default_mem_budget_mb() {
    if (g_mem_budget_mb == ~0ULL) g_mem_budget_mb = env_mem_budget_mb();
    return g_mem_budget_mb;
}

void set_default_mem_budget_mb(std::uint64_t mb) { g_mem_budget_mb = mb; }

std::uint64_t init_mem_budget(const Cli& cli) {
    if (cli.has("mem_budget_mb"))
        set_default_mem_budget_mb(cli.get_uint<std::uint64_t>("mem_budget_mb", 0));
    return default_mem_budget_mb();
}

std::uint64_t estimate_trial_arena_bytes(NodeId n, bool sparse_plane) {
    const std::uint64_t N = n;
    // Both modes carry the per-node protocol/engine state planes (state
    // bytes, halted/honesty bitplanes, outputs, tally delta caches, metrics
    // scratch) — modelled together as a flat per-node overhead.
    constexpr std::uint64_t kPerNodeCommon = 8;
    // Flat mode additionally owns the n-cell Message broadcast plane, the
    // packed tally planes and the dense Byzantine delta rows (~sizeof(Message)
    // + packed words + caches ≈ 56 B/node, rounded up — a deliberately
    // conservative model so the budget trips BEFORE the allocator does).
    constexpr std::uint64_t kPerNodeFlat = 56;
    // Sparse mode replaces the Message cells with ~3 bit planes plus a 2-bit
    // code plane per versioned stream and per-receiver sampled views
    // (~16 B/node conservative).
    constexpr std::uint64_t kPerNodeSparse = 16;
    constexpr std::uint64_t kFixed = 1ULL << 20;  // pools, vectors, slack
    return kFixed + N * (kPerNodeCommon + (sparse_plane ? kPerNodeSparse : kPerNodeFlat));
}

std::uint64_t estimate_fused_arena_bytes(NodeId n) {
    // 64 lanes' flat per-node share: ~4 KiB/node. Peak RSS of fused runs at
    // n = 16384 puts a real arena at ~0.5 KiB/node (committee coin) to
    // ~2.4 KiB/node (per-lane private coin streams).
    const std::uint64_t fixed = estimate_trial_arena_bytes(0, false);
    return fixed + 64 * (estimate_trial_arena_bytes(n, false) - fixed);
}

}  // namespace adba::sim
