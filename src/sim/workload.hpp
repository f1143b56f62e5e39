// The workload-generic Monte-Carlo trial kernel.
//
// Every trial stack in this repository — binary engine trials, standalone
// common-coin trials, multi-valued (Turpin-Coan) trials, and the macro
// asymptotic simulator — is the same machine: validate a scenario once,
// split [0, trials) into executor chunks, run each chunk's trials in index
// order through a pooled per-chunk arena with index-derived seeds, and fold
// the partial aggregates into one run-sized aggregate in chunk order as they
// finish, so the result is bit-identical at any thread count. This header
// owns that machine ONCE; the four stacks are thin workload definitions on
// top of it (see src/sim/README.md for the full contract and how to add a
// fifth workload).
//
// A workload W provides:
//
//   typename W::Scenario   pure-value scenario (equality-comparable)
//   typename W::Result     outcome of one trial
//   typename W::Aggregate  aggregate with a `Count trials` field and one
//                          field list, A::fields() (see "aggregate field
//                          lists" in executor.hpp): merge, reserve and the
//                          checkpoint payload codec are derived from it
//   typename W::Plan       once-per-sweep resolved product of a scenario
//                          (registry entries, derived parameters, round caps)
//                          holding it as `scenario`, or the scenario itself
//   typename W::Arena      per-chunk pooled trial state; constructed from a
//                          Plan, `Result run(std::uint64_t seed)` must be a
//                          pure function of (plan, seed) — re-armed state
//                          included (the thread-invariance tests are the
//                          canary for stale pool state)
//   W::kSeedStride         per-trial seed stride: trial i runs at
//                          mix64(base_seed + kSeedStride * i). Frozen per
//                          workload — changing it silently re-randomizes
//                          every recorded experiment.
//   W::make_plan(scenario) validation + hoisting, called once per run/sweep
//   W::keys()              the scenario's key table (spec_keys.hpp): parse,
//                          describe, adba_sim's flags, and the checkpoint
//                          scope pinned in the journal header — the
//                          scenario less its Execution keys, so a resume
//                          under another result-changing key is refused
//   W::accumulate(agg, r)  folds one trial result into a chunk partial
//   W::block_trials(plan)  optional: trials one arena call co-executes under
//                          this plan (64 for fused binary plans); the
//                          default chunk rounds up to whole blocks, and
//                          the arena's run_fused(seeds, lanes, out) runs
//                          up to that many trials at once
//   W::why_scalar(plan, trials, chunk)
//                          with block_trials: THE run-level block decision,
//                          why a run goes trial by trial (nullopt = each
//                          chunk runs as blocks)
//
// plus reporting metadata used by the uniform CSV schema (sim/report.hpp):
//   W::kName, W::csv_header(), W::csv_row(agg).
//
// Resilience contract: every W::Result carries a TrialOutcome. The kernel
// below recovers injected harness faults (sim/faults.hpp) by retrying the
// failed CHUNK through a fresh arena — never by reusing an arena whose
// Engine::run unwound mid-round, which would leave pooled protocol state
// half-armed — and degrades the final attempt to serial execution.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "rand/rng.hpp"
#include "sim/checkpoint.hpp"
#include "sim/executor.hpp"
#include "sim/faults.hpp"
#include "sim/names.hpp"
#include "sim/spec_keys.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba::sim {

// ------------------------------------------------- checkpoint payloads
//
// A chunk partial's journal payload holds each field of its aggregate's
// field list (executor.hpp) in list order: a counter as u32, a series as
// BinWriter::doubles (raw IEEE bits in storage order), so decode-then-merge
// equals merging the originals, bit for bit.

/// Appends the checkpoint payload of `agg` to `out`.
template <typename A>
void encode_fields(const A& agg, std::string& out) {
    BinWriter w(out);
    detail::for_each_field<A>([&](auto field) {
        if constexpr (detail::kSeries<decltype(field)>) {
            w.doubles((agg.*field).values());
        } else {
            static_assert(std::is_same_v<decltype(field), Count A::*>);
            w.u32(agg.*field);
        }
    });
}

/// Decodes an encode_fields payload into `agg`, which must consume it
/// exactly; `workload` names it in the error.
template <typename A>
void decode_fields(std::string_view bytes, A& agg, const std::string& workload) {
    BinReader r(bytes);
    std::vector<double> xs;
    detail::for_each_field<A>([&](auto field) {
        if constexpr (detail::kSeries<decltype(field)>) {
            xs.clear();
            r.doubles(xs);
            for (double x : xs) (agg.*field).add(x);
        } else {
            agg.*field = r.u32();
        }
    });
    ADBA_EXPECTS_MSG(r.exhausted(), workload + " checkpoint payload has trailing bytes");
}

/// The scenario a plan was made from (a workload whose scenario doubles as
/// its plan passes it through).
template <typename W>
const typename W::Scenario& plan_scenario(const typename W::Plan& plan) {
    if constexpr (std::is_same_v<typename W::Plan, typename W::Scenario>)
        return plan;
    else
        return plan.scenario;
}

/// Runs one trial through a fresh arena; the one-shot (non-pooled) path.
/// Bit-identical to what a pooled arena produces for the same (plan, seed).
template <typename W>
typename W::Result run_one_trial(const typename W::Plan& plan, std::uint64_t seed) {
    typename W::Arena arena(plan);
    return arena.run(seed);
}

/// The chunk size a run uses, decided once for run_trials, run_journaled and
/// parallel_reduce: ExecutorConfig::chunk when set, else auto_chunk(trials)
/// rounded up to whole W::block_trials(plan) blocks, so only a run's last
/// chunk can end in a partial block (a run shorter than a block is one). A
/// function of (plan, trials, chunk) alone, like every chunk boundary.
template <typename W>
Count plan_chunk(const typename W::Plan& plan, Count trials, const ExecutorConfig& exec) {
    if (exec.chunk) return exec.chunk;
    const Count chunk = detail::auto_chunk(trials);
    if constexpr (requires { W::block_trials(plan); }) {
        const Count block = W::block_trials(plan);
        return (chunk + block - 1) / block * block;
    }
    return chunk;
}

/// True when a run of `trials` trials in chunks of `chunk` co-executes them
/// in W::block_trials(plan)-trial blocks, as W::why_scalar decides: each
/// chunk then runs as whole blocks and, for the rest, one partial block.
template <typename W>
bool runs_in_blocks(const typename W::Plan& plan, Count trials, Count chunk) {
    if constexpr (requires { W::why_scalar(plan, trials, chunk); })
        return !W::why_scalar(plan, trials, chunk);
    return false;
}

/// Runs one chunk's trials through a pooled arena, recovering injected
/// harness faults (sim/faults.hpp): an InjectedFault thrown anywhere in the
/// attempt — arena construction, a ShardPool shard task, the engine's beats
/// — abandons the whole attempt (the unwound arena may hold half-armed
/// pooled state, so it is never reused) and retries through a FRESH arena,
/// with bounded backoff, up to FaultConfig::max_attempts times. If every
/// regular attempt faults, one final attempt runs degraded: transient
/// injection suppressed and beats forced serial (plan_intra_shards -> 1).
/// Transient faults therefore never change the aggregate; permanent
/// per-trial faults (FaultInjector::trial_faulted, keyed by trial index)
/// consume exactly the same trials on every path and are folded in as
/// value-initialized results with TrialOutcome::Faulted. Any non-injected
/// exception propagates unchanged.
template <typename W>
typename W::Aggregate run_resilient_chunk(const typename W::Plan& plan,
                                          std::uint64_t base_seed,
                                          std::size_t chunk_index, Count begin,
                                          Count end, bool blocks) {
    auto attempt_chunk = [&](std::uint32_t attempt) {
        const ScopedChunkAttempt salt(attempt);
        FaultInjector* inj = FaultInjector::active();
        if (inj) inj->on_chunk_arena(chunk_index);
        typename W::Aggregate part;
        part.trials = end - begin;
        reserve_fields(part, end - begin);
        typename W::Arena arena(plan);
        Count i = begin;
        // Fused fast path: when the run goes in blocks (runs_in_blocks;
        // the binary stack under a fused plan), the arena's run_fused
        // co-executes up to 64 trials per word-parallel block, in index
        // order, with the SAME index-derived seeds the scalar loop below
        // would use — so the chunk partial is bit-identical either way and
        // chunk identity (checkpoint/resume, thread invariance) is
        // untouched. The chunk's last block may be partial; under the
        // default chunk (plan_chunk) only the run's last chunk has one.
        // Never under an armed fault injector (W::why_scalar): per-trial
        // fault identity and chunk-retry recovery are defined on the
        // scalar path only.
        if constexpr (requires { W::block_trials(plan); }) {
            if (blocks) {
                const Count block = W::block_trials(plan);
                std::uint64_t lane_seeds[64];
                typename W::Result lane_out[64];
                for (Count lanes = 0; i < end; i += lanes) {
                    lanes = std::min<Count>(block, end - i);
                    for (Count j = 0; j < lanes; ++j)
                        lane_seeds[j] = mix64(base_seed + W::kSeedStride * (i + j));
                    arena.run_fused(lane_seeds, lanes, lane_out);
                    for (Count j = 0; j < lanes; ++j) W::accumulate(part, lane_out[j]);
                }
            }
        }
        for (; i < end; ++i) {
            if (inj && inj->trial_faulted(i)) {
                typename W::Result faulted{};
                faulted.outcome = TrialOutcome::Faulted;
                W::accumulate(part, faulted);
                continue;
            }
            W::accumulate(part, arena.run(mix64(base_seed + W::kSeedStride * i)));
        }
        return part;
    };

    FaultInjector* inj = FaultInjector::active();
    const std::uint32_t max_attempts = inj ? inj->config().max_attempts : 1;
    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        try {
            return attempt_chunk(attempt);
        } catch (const InjectedFault&) {
            if (attempt + 1 >= max_attempts) break;
            inj->note_retry(attempt);
        }
    }
    // Every regular attempt faulted: last-resort degraded attempt. With
    // transient sites suppressed it cannot throw InjectedFault again, so
    // recovery terminates in a defined state by construction.
    inj->note_degraded();
    const ScopedDegradedChunk degraded;
    return attempt_chunk(max_attempts);
}

/// Checkpointed variant of the kernel loop: completed chunk partials are
/// journaled as they finish and recovered on --resume instead of re-run.
/// ALWAYS routes through detail::fold_chunks — the parallel_reduce serial
/// fast path would collapse chunk boundaries and break the journal's
/// thread-count-invariant chunk identity.
template <typename W>
typename W::Aggregate run_journaled(const typename W::Plan& plan,
                                    std::uint64_t base_seed, Count trials,
                                    const ExecutorConfig& exec) {
    const Count chunk = plan_chunk<W>(plan, trials, exec);
    const unsigned threads = exec.threads ? exec.threads : default_threads();
    CheckpointMeta meta;
    meta.workload = W::kName;
    meta.base_seed = base_seed;
    meta.seed_stride = W::kSeedStride;
    meta.trials = trials;
    meta.chunk = chunk;
    meta.scope = describe_spec(W::keys(), plan_scenario<W>(plan), KeyRole::Result);
    ChunkJournal journal(exec.checkpoint, meta, exec.resume);

    if (trials == 0) return typename W::Aggregate{};
    const std::size_t num_chunks = detail::chunk_count(trials, chunk);
    std::vector<std::optional<typename W::Aggregate>> recovered(num_chunks);
    for (const auto& [ci, payload] : journal.completed()) {
        ADBA_EXPECTS_MSG(ci < num_chunks,
                         "checkpoint journal record for chunk " + std::to_string(ci) +
                             " is beyond this sweep's " + std::to_string(num_chunks) +
                             " chunks");
        typename W::Aggregate agg;
        decode_fields(payload, agg, W::kName);
        const Count begin = static_cast<Count>(ci) * chunk;
        const Count end = detail::chunk_end(trials, begin, chunk);
        ADBA_EXPECTS_MSG(agg.trials == end - begin,
                         "checkpoint journal chunk " + std::to_string(ci) +
                             " records " + std::to_string(agg.trials) +
                             " trials, expected " + std::to_string(end - begin));
        recovered[ci].emplace(std::move(agg));
    }

    typename W::Aggregate out;
    reserve_fields(out, trials);
    const bool blocks = runs_in_blocks<W>(plan, trials, chunk);
    detail::fold_chunks(out, trials, chunk, threads, std::move(recovered),
                        [&](std::size_t ci, Count begin, Count end) {
                            typename W::Aggregate part = run_resilient_chunk<W>(
                                plan, base_seed, ci, begin, end, blocks);
                            std::string payload;
                            encode_fields(part, payload);
                            journal.append(ci, payload);
                            return part;
                        });
    return out;
}

/// THE Monte-Carlo executor loop. Per-trial seeds depend only on
/// (base_seed, trial index), chunk boundaries depend only on (trials,
/// chunk), chunks run their trials in index order through one pooled arena,
/// and partials fold in chunk-index order — so the aggregate is
/// bit-identical at any thread count, including serial. This is the only
/// pooled-arena chunk loop in src/sim/; workloads must not grow their own.
/// With ExecutorConfig::checkpoint set it becomes resumable (run_journaled);
/// either way each chunk runs under the fault-recovery contract of
/// run_resilient_chunk.
template <typename W>
typename W::Aggregate run_trials(const typename W::Plan& plan, std::uint64_t base_seed,
                                 Count trials, const ExecutorConfig& exec = {}) {
    ExecutorConfig resolved = exec;
    resolved.chunk = plan_chunk<W>(plan, trials, exec);
    if (!resolved.checkpoint.empty())
        return run_journaled<W>(plan, base_seed, trials, resolved);
    const bool blocks = runs_in_blocks<W>(plan, trials, resolved.chunk);
    return parallel_reduce<typename W::Aggregate>(
        trials, resolved, [&](Count begin, Count end) {
            return run_resilient_chunk<W>(plan, base_seed, begin / resolved.chunk, begin,
                                          end, blocks);
        });
}

/// Scenario-level convenience: validate/hoist once, then run the kernel.
/// (Constrained away when the workload's scenario doubles as its plan —
/// the plan overload above then takes the scenario directly.)
template <typename W>
    requires(!std::is_same_v<typename W::Plan, typename W::Scenario>)
typename W::Aggregate run_trials(const typename W::Scenario& s, std::uint64_t base_seed,
                                 Count trials, const ExecutorConfig& exec = {}) {
    const typename W::Plan plan = W::make_plan(s);
    return run_trials<W>(plan, base_seed, trials, exec);
}

// ------------------------------------------------------- workload directory

enum class WorkloadKind : std::uint8_t { Binary, Coin, Mv, Macro };

/// Metadata for one registered workload — the `adba_sim --workload=` axis
/// and the capability table in README.md.
struct WorkloadInfo {
    WorkloadKind kind;
    std::string name;  ///< canonical CLI key: binary, coin, mv, macro
    std::vector<std::string> aliases;
    std::string scenario;   ///< scenario type, e.g. "Scenario"
    std::string grid;       ///< sweep grid type, or "-" when none
    std::string summary;    ///< one-line note for capability tables
};

/// The four built-in workloads, in kernel-registration order, behind the
/// one name lookup (names.hpp).
const NameTable<WorkloadInfo>& workloads();

}  // namespace adba::sim
