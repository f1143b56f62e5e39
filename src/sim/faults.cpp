#include "sim/faults.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "rand/rng.hpp"
#include "support/cli.hpp"
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

void split_tokens(const std::string& spec, std::vector<std::string>& out) {
    std::string cur;
    for (char c : spec) {
        if (c == ' ' || c == '\t' || c == '\n' || c == ',') {
            if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty()) out.push_back(std::move(cur));
}

double parse_rate(const std::string& key, const std::string& v) {
    std::size_t pos = 0;
    double r = 0.0;
    try {
        r = std::stod(v, &pos);
    } catch (const std::exception&) {
        pos = std::string::npos;
    }
    ADBA_EXPECTS_MSG(pos == v.size() && r >= 0.0 && r <= 1.0,
                     "fault key '" + key + "' wants a rate in [0,1], got '" + v + "'");
    return r;
}

/// A fault key stored in an unsigned field of type T.
template <typename T>
T parse_count(const std::string& key, const std::string& v) {
    return parse_uint<T>("fault key '" + key + "'", v);
}

std::int64_t parse_i64_value(const std::string& key, const std::string& v) {
    std::size_t pos = 0;
    long long r = 0;
    try {
        r = std::stoll(v, &pos);
    } catch (const std::exception&) {
        pos = std::string::npos;
    }
    ADBA_EXPECTS_MSG(pos == v.size(),
                     "fault key '" + key + "' wants an integer, got '" + v + "'");
    return static_cast<std::int64_t>(r);
}

void append_rate(std::ostringstream& os, const char* key, double rate) {
    // Round-trippable rate formatting: max_digits10 keeps parse(describe())
    // exact for every representable double.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", rate);
    os << ' ' << key << '=' << buf;
}

}  // namespace

FaultConfig FaultConfig::parse(const std::string& spec) {
    FaultConfig c;
    std::vector<std::string> tokens;
    split_tokens(spec, tokens);
    for (const std::string& tok : tokens) {
        auto eq = tok.find('=');
        ADBA_EXPECTS_MSG(eq != std::string::npos && eq > 0,
                         "fault spec token '" + tok + "' is not key=value");
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "seed") {
            c.seed = parse_count<std::uint64_t>(key, val);
        } else if (key == "shard_death") {
            c.shard_death = parse_rate(key, val);
        } else if (key == "shard_death_shard") {
            c.shard_death_shard = parse_i64_value(key, val);
        } else if (key == "stall_rate") {
            c.stall_rate = parse_rate(key, val);
        } else if (key == "stall_ms") {
            c.stall_ms = parse_count<std::uint32_t>(key, val);
        } else if (key == "alloc_rate") {
            c.alloc_rate = parse_rate(key, val);
        } else if (key == "trial_rate") {
            c.trial_rate = parse_rate(key, val);
        } else if (key == "beat_delay_rate") {
            c.beat_delay_rate = parse_rate(key, val);
        } else if (key == "beat_delay_ms") {
            c.beat_delay_ms = parse_count<std::uint32_t>(key, val);
        } else if (key == "max_attempts") {
            c.max_attempts = parse_count<std::uint32_t>(key, val);
            ADBA_EXPECTS_MSG(c.max_attempts >= 1, "max_attempts must be >= 1");
        } else {
            ADBA_EXPECTS_MSG(false,
                             "unknown fault key '" + key +
                                 "' (known: seed shard_death shard_death_shard "
                                 "stall_rate stall_ms alloc_rate trial_rate "
                                 "beat_delay_rate beat_delay_ms max_attempts)");
        }
    }
    return c;
}

std::string FaultConfig::describe() const {
    std::ostringstream os;
    os << "seed=" << seed;
    if (shard_death > 0.0) append_rate(os, "shard_death", shard_death);
    if (shard_death_shard >= 0) os << " shard_death_shard=" << shard_death_shard;
    if (stall_rate > 0.0) append_rate(os, "stall_rate", stall_rate);
    if (stall_ms != 0) os << " stall_ms=" << stall_ms;
    if (alloc_rate > 0.0) append_rate(os, "alloc_rate", alloc_rate);
    if (trial_rate > 0.0) append_rate(os, "trial_rate", trial_rate);
    if (beat_delay_rate > 0.0) append_rate(os, "beat_delay_rate", beat_delay_rate);
    if (beat_delay_ms != 0) os << " beat_delay_ms=" << beat_delay_ms;
    if (max_attempts != 3) os << " max_attempts=" << max_attempts;
    return os.str();
}

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
