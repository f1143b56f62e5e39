// Traced executor for the benchmark: runs the same trials as
// sim::run_trials<BinaryWorkload>, composed from the same public pieces the
// binary workload's arena composes (registry make_batch / reinit_batch /
// make_fused / make_adversary, then net::Engine::run or
// net::FusedBlock::run), with forwarding decorators around the layer seams
// that time or count every call crossing them. The decorators never change
// what they forward, so the traced aggregate must equal the untraced one bit
// for bit — the benchmark's correctness gate checks exactly that.
#pragma once

#include <cstdint>

#include "sim/registry.hpp"
#include "support/types.hpp"

namespace perfbench {

using adba::Count;

/// Counts and busy times collected by one traced run, summed over every
/// executor chunk. Times are steady_clock nanoseconds; "node-rounds" are
/// n x rounds summed over trials (fused lanes counted one trial each).
struct LayerTrace {
    // ---- sim: arena and executor
    std::uint64_t trials = 0;
    std::uint64_t fused_trials = 0;  ///< trials run inside whole 64-lane blocks
    std::uint64_t setup_ns = 0;      ///< arena time outside Engine::run / FusedBlock::run
    std::uint64_t trial_rounds = 0;  ///< sum of rounds over all trials
    double engine_node_rounds = 0;   ///< trials stepped by net::Engine
    double fused_node_rounds = 0;    ///< lanes stepped by net::FusedBlock

    // ---- sim.shard: the timing IntraDispatcher around ShardPool
    std::uint64_t dispatches = 0;
    std::uint64_t shard_busy_ns = 0;      ///< sum of per-shard callback time
    std::uint64_t shard_capacity_ns = 0;  ///< sum of dispatch wall x pool workers
    std::uint64_t shard_overhead_ns = 0;  ///< sum of (dispatch wall - longest shard)

    // ---- net.engine / net.fused: wall of the driver call and of its children
    std::uint64_t engine_ns = 0;
    std::uint64_t engine_children_ns = 0;  ///< protocol beats + adversary inside Engine::run
    std::uint64_t block_ns = 0;
    std::uint64_t block_children_ns = 0;   ///< protocol beats + lane adversaries
    std::uint64_t lane_rounds = 0;         ///< sum of per-lane rounds
    std::uint64_t lane_slots = 0;          ///< 64 x block rounds

    // ---- net.sparse: the sparse receive beat
    std::uint64_t sparse_rounds = 0;
    std::uint64_t sparse_prepare_ns = 0;
    std::uint64_t sparse_range_ns = 0;  ///< summed over shard threads
    double sparse_probes = 0;           ///< live receivers x sample degree

    // ---- core: protocol beat calls on either plane (summed over shard threads)
    std::uint64_t send_ns = 0;
    std::uint64_t receive_ns = 0;

    // ---- adversary: Adversary::act and the RoundControl calls it makes
    std::uint64_t act_ns = 0;
    std::uint64_t observe_calls = 0;
    std::uint64_t deliver_cells = 0;
    std::uint64_t split_rows = 0;

    void merge(const LayerTrace& o);
};

/// Runs `trials` trials of `plan` from `base_seed` on `threads` trial
/// threads, chunked exactly like sim::run_trials (detail::auto_chunk, the
/// serial single-chunk shortcut, whole 64-lane fused blocks then a scalar
/// remainder per chunk), and adds what the decorators saw to `trace`.
/// Requires a batch-plane scenario (use_batch with a native batch) and no
/// armed fault injector.
adba::sim::Aggregate run_traced(const adba::sim::ScenarioPlan& plan,
                                std::uint64_t base_seed, Count trials,
                                unsigned threads, LayerTrace& trace);

}  // namespace perfbench
