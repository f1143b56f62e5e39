// Run-resilience seam: deterministic harness-fault injection plus the
// process-wide resource budget the executor degrades against.
//
// The fault model covers the HARNESS, not the protocol (the adversary
// already owns protocol-level faults): ShardPool worker tasks that die or
// stall, arena pooling that fails to allocate at chunk start, and
// artificial per-round beat delays. Every decision is a pure function of
// (injector seed, site, stable indices — shard, chunk, trial, round,
// attempt), never of thread identity or visit order, so an armed injector
// preserves the repository's bit-exactness discipline: transient faults
// (shard death/stall, arena allocation, beat delay) are retried or degraded
// away by the trial kernel and leave aggregates bit-identical to an unarmed
// run; permanent per-trial faults are keyed by trial INDEX and therefore
// fault the same trials at any thread count.
//
// Recovery contract (implemented by sim/workload.hpp): a chunk whose
// attempt throws InjectedFault is retried with bounded backoff through a
// fresh arena up to FaultConfig::max_attempts times; if every attempt
// fails, one final attempt runs DEGRADED — transient injection suppressed
// and engine beats forced serial (plan_intra_shards resolves to 1) — so an
// injected fault always ends in a defined state: retried, degraded-to-
// serial, or a cleanly reported TrialOutcome::Faulted. Never a hang, never
// a corrupted aggregate.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/types.hpp"

namespace adba {
class Cli;
}

namespace adba::sim {

/// Scenario/CLI-selectable fault plan (`--faults="key=value ..."`).
/// Rates are probabilities in [0, 1]; 1 fires at every eligible site.
struct FaultConfig {
    std::uint64_t seed = 1;        ///< key `seed`: injector decision seed
    double shard_death = 0.0;      ///< key `shard_death`: P(shard task throws)
    std::int64_t shard_death_shard = -1;  ///< key `shard_death_shard`:
                                          ///< -1 = any shard, else only this
                                          ///< logical shard index dies
    double stall_rate = 0.0;       ///< key `stall_rate`: P(shard task stalls)
    std::uint32_t stall_ms = 0;    ///< key `stall_ms`: stall length
    double alloc_rate = 0.0;       ///< key `alloc_rate`: P(chunk arena
                                   ///< construction fails)
    double trial_rate = 0.0;       ///< key `trial_rate`: P(trial is consumed
                                   ///< by a permanent fault) — keyed by trial
                                   ///< index, reported as TrialOutcome::Faulted
    double beat_delay_rate = 0.0;  ///< key `beat_delay_rate`: P(round beat
                                   ///< sleeps beat_delay_ms)
    std::uint32_t beat_delay_ms = 0;  ///< key `beat_delay_ms`
    std::uint32_t max_attempts = 3;   ///< key `max_attempts`: regular chunk
                                      ///< attempts before the degraded one

    /// True when any transient (chunk-retryable) fault is armed.
    bool any_transient() const {
        return shard_death > 0.0 || stall_rate > 0.0 || alloc_rate > 0.0 ||
               beat_delay_rate > 0.0;
    }

    /// Builds a config from a `key=value ...` spec through its key table
    /// (faults.cpp; the tokenizer and table machinery of Scenario::parse);
    /// unknown keys throw ContractViolation with the accepted list.
    /// `FaultConfig::parse(c.describe()) == c`.
    static FaultConfig parse(const std::string& spec);
    std::string describe() const;

    friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// The exception injected fault sites throw. Transient by construction —
/// the trial kernel retries the enclosing chunk; anything else escaping a
/// chunk is a real error and propagates unchanged.
class InjectedFault : public std::runtime_error {
public:
    enum class Site : std::uint8_t { ShardTask, ChunkArena };
    InjectedFault(Site site, const std::string& what)
        : std::runtime_error(what), site_(site) {}
    Site site() const { return site_; }

private:
    Site site_;
};

/// Monotonic injection/recovery counters (process-wide, approximate under
/// chunk retries — retried trials re-roll their sites).
struct FaultStats {
    std::uint64_t shard_deaths = 0;
    std::uint64_t stalls = 0;
    std::uint64_t alloc_failures = 0;
    std::uint64_t beat_delays = 0;
    std::uint64_t trial_faults = 0;
    std::uint64_t chunk_retries = 0;
    std::uint64_t degraded_chunks = 0;
};

/// Process-wide injector. Disarmed by default (every site is a no-op);
/// armed via arm()/ScopedFaultInjection (tests) or init_faults (CLI).
class FaultInjector {
public:
    /// Arms the process-wide injector; replaces any previous config and
    /// zeroes the stats. Not safe concurrently with running trials.
    static void arm(const FaultConfig& cfg);
    static void disarm();
    /// The armed injector, or nullptr. Suppression (degraded chunks) is
    /// handled inside the transient sites, not here — trial_faulted stays
    /// visible so permanent faults survive degradation deterministically.
    static FaultInjector* active();

    // ---- sites ----
    /// ShardPool::drain, before running a claimed shard task. May throw
    /// InjectedFault (worker death) or sleep (stall). No-op in a degraded
    /// chunk.
    void on_shard_task(unsigned shard);
    /// Trial kernel, before constructing/reusing a chunk arena. May throw
    /// InjectedFault (allocation failure). No-op in a degraded chunk.
    void on_chunk_arena(std::size_t chunk_index);
    /// Engine beat probe (EngineConfig::beat_probe). May sleep. No-op in a
    /// degraded chunk.
    void on_beat(Round round);
    /// Whether trial `index` is consumed by a permanent fault. Pure in the
    /// trial index — identical at any thread count, attempt, or chunking.
    bool trial_faulted(Count index);

    void note_retry(std::uint32_t attempt);  ///< counts + bounded backoff sleep
    void note_degraded();

    const FaultConfig& config() const { return cfg_; }
    static FaultStats stats();
    /// One printable summary line for drivers, e.g.
    /// "faults: 3 shard-deaths, 2 retries, 1 degraded chunk".
    static std::string stats_line();

private:
    explicit FaultInjector(const FaultConfig& cfg) : cfg_(cfg) {}
    bool decide(double rate, std::uint64_t site, std::uint64_t a,
                std::uint64_t b) const;

    FaultConfig cfg_;
    std::atomic<std::uint64_t> shard_deaths_{0};
    std::atomic<std::uint64_t> stalls_{0};
    std::atomic<std::uint64_t> alloc_failures_{0};
    std::atomic<std::uint64_t> beat_delays_{0};
    std::atomic<std::uint64_t> trial_faults_{0};
    std::atomic<std::uint64_t> chunk_retries_{0};
    std::atomic<std::uint64_t> degraded_chunks_{0};
};

/// RAII arm/disarm for tests.
class ScopedFaultInjection {
public:
    explicit ScopedFaultInjection(const FaultConfig& cfg) { FaultInjector::arm(cfg); }
    ~ScopedFaultInjection() { FaultInjector::disarm(); }
    ScopedFaultInjection(const ScopedFaultInjection&) = delete;
    ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// Applies `--faults="..."` as the process-wide injector (absent/empty =
/// disarmed). Returns whether an injector was armed. Companion of
/// init_threads for driver binaries.
bool init_faults(const Cli& cli);

// ---- per-chunk recovery scopes (thread-local; used by the trial kernel) --

/// Marks the current thread as running chunk attempt `attempt`; the
/// injector salts transient decisions with it so a probabilistic fault
/// re-rolls on retry instead of failing the chunk forever.
class ScopedChunkAttempt {
public:
    explicit ScopedChunkAttempt(std::uint32_t attempt);
    ~ScopedChunkAttempt();
    ScopedChunkAttempt(const ScopedChunkAttempt&) = delete;
    ScopedChunkAttempt& operator=(const ScopedChunkAttempt&) = delete;

private:
    std::uint32_t previous_;
};

/// Degraded-chunk scope: suppresses every transient site on this thread and
/// forces plan_intra_shards to 1 (serial beats, no ShardPool), so the final
/// recovery attempt cannot re-fault and cannot hang on injected worker
/// deaths. Permanent per-trial faults stay visible (determinism).
class ScopedDegradedChunk {
public:
    ScopedDegradedChunk();
    ~ScopedDegradedChunk();
    ScopedDegradedChunk(const ScopedDegradedChunk&) = delete;
    ScopedDegradedChunk& operator=(const ScopedDegradedChunk&) = delete;
};

/// True while a ScopedDegradedChunk is live on this thread; read by
/// plan_intra_shards (executor.cpp) to force serial beats.
bool in_degraded_chunk();

// ------------------------------------------------- memory budget (graceful
// degradation on resource limits instead of an OOM kill)

/// Process-wide per-trial-arena memory budget in MiB; 0 = unlimited.
/// Lazily seeded from ADBA_MEM_BUDGET_MB; --mem_budget_mb / the setter
/// override it.
std::uint64_t default_mem_budget_mb();
void set_default_mem_budget_mb(std::uint64_t mb);

/// Applies `--mem_budget_mb` as the process-wide budget and returns the
/// resolved value (0 = unlimited). Companion of init_threads.
std::uint64_t init_mem_budget(const Cli& cli);

/// Conservative per-trial arena estimate for the binary engine stack, in
/// bytes. Flat mode owns the n Message broadcast cells, the byte state
/// planes, the packed tally planes and the per-receiver Byzantine delta
/// caches; sparse mode's receive path reads bit planes and a 2-bit code
/// plane instead of Message cells. Deliberately per-ARENA (one pooled
/// engine): multiply by your trial-worker count for a whole-sweep bound.
std::uint64_t estimate_trial_arena_bytes(NodeId n, bool sparse_plane);

/// Conservative estimate of one fused arena (net/fused_plane.hpp), in
/// bytes: a 64-lane block holds 64 trials' per-node state, so it is
/// budgeted as 64 flat trials' per-node share plus one fixed share. Under
/// an active budget fused blocks engage only where this fits
/// (sim::why_not_fused).
std::uint64_t estimate_fused_arena_bytes(NodeId n);

/// RAII budget override for tests.
class ScopedMemBudget {
public:
    explicit ScopedMemBudget(std::uint64_t mb)
        : previous_(default_mem_budget_mb()) {
        set_default_mem_budget_mb(mb);
    }
    ~ScopedMemBudget() { set_default_mem_budget_mb(previous_); }
    ScopedMemBudget(const ScopedMemBudget&) = delete;
    ScopedMemBudget& operator=(const ScopedMemBudget&) = delete;

private:
    std::uint64_t previous_;
};

}  // namespace adba::sim
