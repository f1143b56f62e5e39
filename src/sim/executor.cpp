#include "sim/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/faults.hpp"
#include "support/contracts.hpp"

namespace adba::sim {

namespace {
std::atomic<unsigned> g_default_threads{0};  // 0 = follow the hardware
std::atomic<int> g_default_intra{-1};        // -1 = consult ADBA_INTRA_THREADS
std::atomic<bool> g_intra_clamp_warned{false};
}  // namespace

unsigned hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned default_threads() {
    const unsigned v = g_default_threads.load(std::memory_order_relaxed);
    return v ? v : hardware_threads();
}

void set_default_threads(unsigned threads) {
    g_default_threads.store(threads, std::memory_order_relaxed);
}

unsigned init_threads(const Cli& cli) {
    auto threads = cli.get_uint<unsigned>("threads", hardware_threads());
    if (threads == 0) threads = 1;
    set_default_threads(threads);
    return threads;
}

unsigned default_intra_threads() {
    int v = g_default_intra.load(std::memory_order_relaxed);
    if (v < 0) {
        int from_env = 0;
        if (const char* e = std::getenv("ADBA_INTRA_THREADS"))
            from_env = std::max(0, std::atoi(e));
        g_default_intra.store(from_env, std::memory_order_relaxed);
        v = from_env;
    }
    return static_cast<unsigned>(v);
}

void set_default_intra_threads(unsigned shards) {
    g_default_intra.store(static_cast<int>(shards), std::memory_order_relaxed);
}

unsigned init_intra_threads(const Cli& cli) {
    const auto shards = cli.get_uint<unsigned>("intra_threads", default_intra_threads());
    set_default_intra_threads(shards);
    return shards;
}

unsigned intra_worker_cap(unsigned pool_width) {
    return std::max(1u, hardware_threads() / std::max(1u, pool_width));
}

unsigned plan_intra_shards(Count requested, NodeId n) {
    // A degraded chunk (the trial kernel's last recovery attempt after
    // repeated injected faults) must not re-enter the concurrency layer it
    // is recovering from: force serial beats regardless of policy.
    if (in_degraded_chunk()) return 1;
    // Scenario files accept any Count, so an absurd request (billions of
    // logical shards) must not reach ShardPool, where every beat's claim
    // loop iterates shards_ times per thread. Anything past one shard per
    // plane word is empty ranges; the hardware multiple keeps the ceiling
    // above every sane explicit request (tests pin small verbatim values).
    const auto clamp_shards = [n](Count s) {
        const Count cap = std::max<Count>(
            static_cast<Count>(net::kern::word_count(n)),
            Count{8} * hardware_threads());
        return static_cast<unsigned>(std::min(s, cap));
    };
    if (requested > 0) return clamp_shards(requested);
    const unsigned dflt = default_intra_threads();
    if (dflt > 0) return clamp_shards(dflt);
    // Auto policy: sharding pays only when one trial is large (the barrier
    // costs microseconds per beat) and the trial pool leaves hardware idle
    // (cross-trial parallelism is embarrassingly parallel and always wins
    // when there are enough trials to feed it).
    if (n < 2048) return 1;
    const unsigned cap = intra_worker_cap(default_threads());
    if (cap <= 1) return 1;
    return std::min(8u, cap);
}

// -------------------------------------------------------------- ShardPool

ShardPool::ShardPool(unsigned shards, unsigned pool_width)
    : shards_(std::max(1u, shards)) {
    const unsigned cap = intra_worker_cap(pool_width);
    const unsigned threads = std::min(shards_, cap);
    if (threads < shards_ && cap < shards_ &&
        !g_intra_clamp_warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "[adba] intra_threads clamped: %u shards share %u worker(s) "
                     "(pool %u x hardware %u)\n",
                     shards_, threads, pool_width, hardware_threads());
    }
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ShardPool::~ShardPool() {
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ShardPool::drain(const std::function<void(unsigned, NodeId, NodeId)>& fn,
                      NodeId n) {
    while (true) {
        const unsigned s = next_shard_.fetch_add(1, std::memory_order_relaxed);
        if (s >= shards_) return;
        try {
            if (FaultInjector* inj = FaultInjector::active()) inj->on_shard_task(s);
            const auto [lo, hi] = net::kern::shard_node_range(n, s, shards_);
            fn(s, lo, hi);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mu_);
            if (!error_) error_ = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock(mu_);
            if (--remaining_ == 0) done_cv_.notify_all();
        }
    }
}

void ShardPool::worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
        const std::function<void(unsigned, NodeId, NodeId)>* job = nullptr;
        NodeId n = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            // A generation can complete (all shards drained by the other
            // participants) and disarm job_ before a notified worker ever
            // acquires the mutex. generation_ != seen alone would let that
            // stale worker bind the null job_ — or, once the next dispatch
            // has re-armed the cursor, consume a shard of a generation it
            // never saw. Requiring an armed job keeps it parked until the
            // next run_shards publishes job_ and generation_ together.
            work_cv_.wait(lock,
                          [&] { return stop_ || (generation_ != seen && job_ != nullptr); });
            if (stop_) return;
            seen = generation_;
            job = job_;
            n = n_;
            ++active_;
        }
        drain(*job, n);
        {
            const std::lock_guard<std::mutex> lock(mu_);
            // Quiescence: the caller returns only once no worker can touch
            // next_shard_ again, so the next dispatch's cursor reset never
            // races a stale fetch_add from this generation.
            if (--active_ == 0) done_cv_.notify_all();
        }
    }
}

void ShardPool::run_shards(NodeId n,
                           const std::function<void(unsigned, NodeId, NodeId)>& fn) {
    {
        const std::lock_guard<std::mutex> lock(mu_);
        job_ = &fn;
        n_ = n;
        remaining_ = shards_;
        error_ = nullptr;
        next_shard_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    work_cv_.notify_all();
    drain(fn, n);  // the calling thread participates
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] { return remaining_ == 0 && active_ == 0; });
        job_ = nullptr;
        err = error_;
        error_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
}

namespace detail {

Count auto_chunk(Count trials) {
    // ~64 work units total keeps the pool balanced even when per-trial cost
    // varies (early termination vs budget-bound runs) without measurable
    // dispatch overhead; engine trials cost milliseconds each.
    return std::clamp<Count>(trials / 64, 1, 1024);
}

void for_each_chunk(Count trials, Count chunk, unsigned threads,
                    const std::function<void(std::size_t, Count, Count)>& body) {
    const std::size_t num_chunks = chunk_count(trials, chunk);
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;

    auto worker = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t ci = cursor.fetch_add(1, std::memory_order_relaxed);
            if (ci >= num_chunks) return;
            const Count begin = static_cast<Count>(ci) * chunk;
            const Count end = chunk_end(trials, begin, chunk);
            try {
                body(ci, begin, end);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(error_mu);
                    if (!first_error) first_error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const unsigned pool = static_cast<unsigned>(
        std::min<std::size_t>(threads, num_chunks));
    std::vector<std::thread> workers;
    workers.reserve(pool > 0 ? pool - 1 : 0);
    for (unsigned i = 1; i < pool; ++i) workers.emplace_back(worker);
    worker();  // the calling thread participates
    for (auto& w : workers) w.join();
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace adba::sim
