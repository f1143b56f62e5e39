// Parallel Monte-Carlo executor: chunked work distribution over a pool of
// worker threads, with deterministic, thread-count-invariant aggregation.
//
// Design rules that make parallel aggregates BIT-IDENTICAL to a serial run:
//  * per-trial seeds are derived from (base_seed, trial index) exactly as the
//    serial runners always did — never from the executing thread;
//  * the trial range [0, trials) is split into fixed chunks whose boundaries
//    depend only on (trials, chunk) — never on the thread count;
//  * each chunk produces a partial aggregate by running its trials in index
//    order, and partials fold into one run-sized aggregate in chunk-index
//    order as the workers finish them, so every Samples buffer ends up in
//    exactly the serial observation order.
// Any thread count (including 1) therefore yields the same aggregate, which
// the executor tests enforce.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/tally_kernels.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace adba::sim {

/// Per-call executor knobs. The zero defaults resolve to the process-wide
/// thread default (settable from `--threads`) and an automatic chunk size.
/// New fields append (callers brace-init the first two positionally).
struct ExecutorConfig {
    unsigned threads = 0;  ///< 0 = default_threads()
    /// Trials per work unit; 0 = auto_chunk(trials), which run_trials rounds
    /// up to whole 64-lane blocks for a fused plan (sim::plan_chunk).
    Count chunk = 0;
    /// Chunk-granular checkpoint journal (`--checkpoint=path`); empty = off.
    /// Completed chunk aggregates are appended to this write-ahead file as
    /// they finish, so a killed sweep resumes without redoing them.
    std::string checkpoint;
    /// Resume from an existing `checkpoint` journal (`--resume`): completed
    /// chunks are loaded instead of re-run; the merged result is bit-identical
    /// to an uninterrupted run at any thread count. Without this flag an
    /// existing journal is truncated and the sweep starts fresh.
    bool resume = false;
};

/// std::thread::hardware_concurrency(), clamped to at least 1.
unsigned hardware_threads();

/// Process-wide default thread count used when ExecutorConfig::threads is 0.
/// Starts at hardware_threads(); bench binaries override it from --threads.
unsigned default_threads();
void set_default_threads(unsigned threads);

/// Applies `--threads` (default: hardware concurrency, explicit 0 clamped to
/// serial) as the process-wide default and returns the resolved count. The
/// one entry point bench binaries and examples share for the flag.
unsigned init_threads(const Cli& cli);

/// Reads `--trials` (default `fallback`) for a bench or example, refusing a
/// count below `least`: the fewest trials that leave every cell the binary
/// runs at least one (a binary whose smaller cells run trials / 2 passes
/// 2). The refusal names --trials, the bound and the value, so run_main
/// exits 2 before any work.
Count read_trials(const Cli& cli, Count fallback, Count least = 1);

// ---- intra-trial sharding (nested-parallelism policy) ----
//
// Two independent axes: LOGICAL shards fix the node-range boundaries (part
// of the deterministic merge contract — any shard count is bit-identical,
// tests/test_intra_shard.cpp), OS WORKERS are however many threads actually
// execute them. Workers are clamped so the trial pool times the intra pool
// never oversubscribes the machine: a ShardPool built under a `pool_width`-
// wide trial pool gets at most max(1, hardware/pool_width) threads, and on
// a saturated pool the shards simply run serially on the calling thread.

/// Process-wide default intra-trial shard count. 0 = auto policy (shard
/// only when n is large and the trial pool leaves hardware headroom).
/// Seeded lazily from the ADBA_INTRA_THREADS environment variable;
/// `--intra_threads` / set_default_intra_threads override it.
unsigned default_intra_threads();
void set_default_intra_threads(unsigned shards);

/// Applies `--intra_threads` as the process-wide default and returns the
/// resolved count (0 = auto). Companion of init_threads.
unsigned init_intra_threads(const Cli& cli);

/// Worker budget left for intra-trial sharding once `pool_width` trial
/// workers are running: max(1, hardware_threads() / max(1, pool_width)).
unsigned intra_worker_cap(unsigned pool_width);

/// The smallest n the auto policy shards: from here up, four shards beat
/// one in the median on every shape of README's measured table.
inline constexpr NodeId kAutoShardFromN = 16384;

/// Resolves a scenario's intra_threads request to a logical shard count.
/// `requested` > 0 wins; else a non-zero process default wins; else auto:
/// 1 (no sharding) unless n >= kAutoShardFromN AND the trial pool leaves
/// idle hardware, in which case min(8, intra_worker_cap(default_threads())).
/// Explicit values are clamped to max(word_count(n), 8 * hardware) —
/// shards past one per plane word are empty ranges, and the ShardPool
/// claim loop iterates the logical count per dispatch.
unsigned plan_intra_shards(Count requested, NodeId n);

/// Persistent worker pool behind net::IntraDispatcher: the engine's beats
/// fan out over `shards` word-aligned node ranges per dispatch, with a full
/// quiescence barrier on return (no worker still touches pool state after
/// run_shards returns, so back-to-back beats never race). The calling
/// thread participates, so a pool clamped to one worker degrades to a
/// serial loop — same results, no threads.
class ShardPool final : public net::IntraDispatcher {
public:
    /// `shards` logical ranges, executed by min(shards, intra_worker_cap(
    /// pool_width)) threads. Emits a one-line stderr warning (once per
    /// process) when the clamp bites.
    ShardPool(unsigned shards, unsigned pool_width);
    ~ShardPool() override;
    ShardPool(const ShardPool&) = delete;
    ShardPool& operator=(const ShardPool&) = delete;

    unsigned shards() const override { return shards_; }
    /// Threads executing a dispatch, calling thread included.
    unsigned workers() const { return static_cast<unsigned>(workers_.size()) + 1; }
    void run_shards(NodeId n,
                    const std::function<void(unsigned, NodeId, NodeId)>& fn) override;

private:
    void worker_loop();
    /// Claims and runs shards until the cursor runs dry; returns whether
    /// every claimed shard completed without throwing.
    void drain(const std::function<void(unsigned, NodeId, NodeId)>& fn, NodeId n);

    const unsigned shards_;
    std::mutex mu_;
    std::condition_variable work_cv_;  ///< workers wait for a new generation
    std::condition_variable done_cv_;  ///< caller waits for quiescence
    std::uint64_t generation_ = 0;     ///< bumps once per run_shards
    unsigned remaining_ = 0;           ///< shards not yet completed
    unsigned active_ = 0;              ///< workers inside a claim loop
    bool stop_ = false;
    NodeId n_ = 0;
    const std::function<void(unsigned, NodeId, NodeId)>* job_ = nullptr;
    std::exception_ptr error_;
    std::atomic<unsigned> next_shard_{0};
    std::vector<std::thread> workers_;
};

// ------------------------------------------------- aggregate field lists
//
// Every workload aggregate lists its counters (Count) and sample series
// (Samples) once, in journal order,
//
//   static constexpr auto fields() { return std::tuple{&A::trials, ...}; }
//
// and merge, reserve and the checkpoint payload codec (workload.hpp) are
// derived from that list.

namespace detail {

template <typename Field>
inline constexpr bool kSeries = false;
template <typename A>
inline constexpr bool kSeries<Samples A::*> = true;

/// Calls visit(&A::field) for each field of A's list, in order.
template <typename A, typename Visit>
void for_each_field(Visit&& visit) {
    std::apply([&](auto... field) { (visit(field), ...); }, A::fields());
}

}  // namespace detail

/// Folds a later index range's partial in: counters add, series append in
/// storage order (merge partials in chunk-index order).
template <typename A>
void merge_fields(A& into, const A& from) {
    detail::for_each_field<A>([&](auto field) {
        if constexpr (detail::kSeries<decltype(field)>)
            (into.*field).merge(from.*field);
        else
            into.*field += from.*field;
    });
}

/// Pre-sizes every sample series for `trials` trials.
template <typename A>
void reserve_fields(A& agg, Count trials) {
    detail::for_each_field<A>([&](auto field) {
        if constexpr (detail::kSeries<decltype(field)>) (agg.*field).reserve(trials);
    });
}

// ------------------------------------------------------------ chunked runs

namespace detail {

/// Chunk size heuristic: small enough to load-balance a pool, large enough
/// to amortize dispatch. Depends only on the trial count (determinism rule).
Count auto_chunk(Count trials);

/// Chunks of `chunk` trials covering [0, trials), counted in 64 bits so a
/// run near 2^32 trials does not wrap.
inline std::size_t chunk_count(Count trials, Count chunk) {
    return (static_cast<std::size_t>(trials) + chunk - 1) / chunk;
}

/// One past the last trial of the chunk starting at `begin`:
/// min(trials, begin + chunk), summed in 64 bits for the same reason.
inline Count chunk_end(Count trials, Count begin, Count chunk) {
    return static_cast<Count>(std::min<std::uint64_t>(trials, std::uint64_t{begin} + chunk));
}

/// Runs body(chunk_index, begin, end) for the consecutive chunks covering
/// [0, trials). Worker threads claim chunks off a shared atomic cursor; the
/// first exception thrown by any chunk is rethrown on the calling thread
/// after all workers join.
void for_each_chunk(Count trials, Count chunk, unsigned threads,
                    const std::function<void(std::size_t, Count, Count)>& body);

/// The one fold of chunk partials, behind parallel_reduce and the journaled
/// kernel: runs per_chunk(chunk_index, begin, end) on `threads` workers for
/// every chunk of [0, trials) that `ready` does not already hold (ready[ci]
/// is a journal-recovered partial; an empty vector holds none), and merges
/// every partial into `out` in chunk-index order while the workers run. A
/// worker deposits its partial under one mutex; whichever worker then finds
/// the lowest unmerged chunk ready takes the merger role and, outside the
/// lock, merges every ready partial in index order, freeing each as it
/// goes. Chunk boundaries and merge order are those of a serial run, so
/// `out` is the same at any thread count.
template <typename Agg, typename PerChunk>
void fold_chunks(Agg& out, Count trials, Count chunk, unsigned threads,
                 std::vector<std::optional<Agg>> ready, PerChunk&& per_chunk) {
    ready.resize(chunk_count(trials, chunk));
    std::vector<bool> recovered(ready.size());
    for (std::size_t ci = 0; ci < ready.size(); ++ci) recovered[ci] = ready[ci].has_value();
    std::mutex mu;
    std::size_t merged = 0;  // chunks [0, merged) are in out
    bool merging = false;    // a thread holds the merger role
    const auto merge_ready = [&] {
        std::unique_lock<std::mutex> lock(mu);
        if (merging) return;  // the merger looks again before it lets go
        merging = true;
        while (true) {
            const std::size_t from = merged;
            std::size_t to = from;
            while (to < ready.size() && ready[to]) ++to;
            if (to == from) break;
            // Depositors only write chunks past `to`, so [from, to) is the
            // merger's alone until `merged` moves past it.
            lock.unlock();
            for (std::size_t ci = from; ci < to; ++ci) {
                out.merge(*ready[ci]);
                ready[ci].reset();
            }
            lock.lock();
            merged = to;
        }
        merging = false;
    };
    for_each_chunk(trials, chunk, threads, [&](std::size_t ci, Count begin, Count end) {
        if (recovered[ci]) return;
        Agg part = per_chunk(ci, begin, end);
        {
            const std::lock_guard<std::mutex> lock(mu);
            ready[ci].emplace(std::move(part));
        }
        merge_ready();
    });
    merge_ready();  // a run whose chunks were all recovered deposits none
    ADBA_ENSURES(merged == ready.size());
}

}  // namespace detail

/// Runs `per_chunk(begin, end)` over [0, trials) and folds the partial
/// aggregates in chunk-index order via `Agg::merge`, as the workers finish
/// them (detail::fold_chunks), into one output made on the calling thread
/// and, for an aggregate with a field list, reserved for `trials`.
/// `per_chunk` must be a pure function of its index range (thread-safe by
/// construction). One thread, or one chunk, runs [0, trials) as one range.
template <typename Agg, typename PerChunk>
Agg parallel_reduce(Count trials, const ExecutorConfig& cfg, PerChunk&& per_chunk) {
    if (trials == 0) return Agg{};
    const unsigned threads = cfg.threads ? cfg.threads : default_threads();
    const Count chunk = cfg.chunk ? cfg.chunk : detail::auto_chunk(trials);
    if (threads <= 1 || trials <= chunk) return per_chunk(Count{0}, trials);

    Agg out;
    if constexpr (requires { Agg::fields(); }) reserve_fields(out, trials);
    detail::fold_chunks(out, trials, chunk, threads, {},
                        [&](std::size_t, Count begin, Count end) {
                            return per_chunk(begin, end);
                        });
    return out;
}

}  // namespace adba::sim
