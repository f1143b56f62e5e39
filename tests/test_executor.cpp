// Executor tests: chunked parallel reduction correctness, exception
// propagation, and the headline determinism guarantee — aggregates are
// bit-identical at 1, 2, and 8 threads for a fixed (scenario, base seed).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "sim/coin_runner.hpp"
#include "sim/executor.hpp"
#include "sim/macro.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba::sim {
namespace {

// Toy aggregate recording the observed trial indices in merge order, and
// how many partials were merged into it.
struct OrderAgg {
    std::vector<Count> order;
    Count merges = 0;

    void merge(const OrderAgg& other) {
        order.insert(order.end(), other.order.begin(), other.order.end());
        ++merges;
    }
};

OrderAgg order_part(Count begin, Count end) {
    OrderAgg part;
    for (Count i = begin; i < end; ++i) part.order.push_back(i);
    return part;
}

OrderAgg run_order(Count trials, const ExecutorConfig& cfg) {
    return parallel_reduce<OrderAgg>(trials, cfg, order_part);
}

/// Spins until `done()` holds or 30 s pass; returns whether it held (a
/// broken fold fails the test instead of hanging it).
template <typename Done>
bool wait_for(Done done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(Executor, ReducePreservesIndexOrder) {
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        for (Count chunk : {1u, 3u, 7u, 100u}) {
            const OrderAgg agg = run_order(25, ExecutorConfig{threads, chunk});
            ASSERT_EQ(agg.order.size(), 25u) << threads << "x" << chunk;
            for (Count i = 0; i < 25; ++i) EXPECT_EQ(agg.order[i], i);
        }
    }
}

// Partials fold as the workers finish them, in chunk-index order: chunk 0
// is held until every other chunk has returned its partial, so all of them
// are deposited before the first can be merged.
TEST(Executor, FoldKeepsIndexOrderWhenChunkZeroFinishesLast) {
    const Count trials = 25, chunk = 3;
    const std::size_t chunks = detail::chunk_count(trials, chunk);
    for (unsigned threads : {2u, 3u, 8u}) {
        std::atomic<std::size_t> finished{0};
        bool held = false;
        const OrderAgg agg = parallel_reduce<OrderAgg>(
            trials, ExecutorConfig{threads, chunk}, [&](Count begin, Count end) {
                if (begin == 0)
                    held = wait_for([&] { return finished.load() == chunks - 1; });
                OrderAgg part = order_part(begin, end);
                if (begin != 0) ++finished;
                return part;
            });
        EXPECT_TRUE(held) << threads;
        ASSERT_EQ(agg.order.size(), trials) << threads;
        for (Count i = 0; i < trials; ++i) EXPECT_EQ(agg.order[i], i) << threads;
        EXPECT_EQ(agg.merges, chunks) << threads;  // each partial folded once
    }
}

// A chunk that throws after the chunks before it were folded into the
// output still rethrows on the caller.
std::atomic<std::size_t> g_folds{0};

struct FoldProbe {
    void merge(const FoldProbe&) { ++g_folds; }
};

TEST(Executor, ChunkThrowingAfterEarlierFoldsRethrowsOnTheCaller) {
    for (unsigned threads : {2u, 3u, 8u}) {
        g_folds = 0;
        bool folded_first = false;
        const auto body = [&](Count begin, Count) {
            if (begin == 5) {
                folded_first = wait_for([] { return g_folds.load() == 5; });
                ADBA_EXPECTS_MSG(false, "chunk 5 fails after chunks 0-4 folded");
            }
            return FoldProbe{};
        };
        EXPECT_THROW(parallel_reduce<FoldProbe>(8, ExecutorConfig{threads, 1}, body),
                     ContractViolation);
        EXPECT_TRUE(folded_first) << threads;
    }
}

TEST(Executor, ZeroTrialsYieldsEmptyAggregate) {
    const OrderAgg agg = run_order(0, ExecutorConfig{8, 2});
    EXPECT_TRUE(agg.order.empty());
}

TEST(Executor, ExceptionsPropagateFromWorkers) {
    const auto boom = [](Count begin, Count end) -> OrderAgg {
        for (Count i = begin; i < end; ++i)
            ADBA_EXPECTS_MSG(i != 13, "fault injected at trial 13");
        return {};
    };
    EXPECT_THROW(parallel_reduce<OrderAgg>(20, ExecutorConfig{4, 1}, boom),
                 ContractViolation);
    EXPECT_THROW(parallel_reduce<OrderAgg>(20, ExecutorConfig{1, 1}, boom),
                 ContractViolation);
}

TEST(Executor, ChunksTileRangesNearTheCountWidth) {
    // 2^32 - 1 trials in chunks of 2^31: the second chunk ends at the
    // range's end, where 32-bit begin + chunk would wrap to 0. The body
    // records each range instead of running trials.
    struct Ranges {
        std::vector<std::pair<Count, Count>> ranges;
        void merge(const Ranges& other) {
            ranges.insert(ranges.end(), other.ranges.begin(), other.ranges.end());
        }
    };
    const Count trials = ~Count{0};
    const Count chunk = Count{1} << 31;
    const auto record = [](Count begin, Count end) { return Ranges{{{begin, end}}}; };
    for (const unsigned threads : {2u, 4u}) {
        const Ranges agg = parallel_reduce<Ranges>(trials, ExecutorConfig{threads, chunk}, record);
        ASSERT_EQ(agg.ranges.size(), 2u) << threads;
        EXPECT_EQ(agg.ranges[0], std::make_pair(Count{0}, chunk));
        EXPECT_EQ(agg.ranges[1], std::make_pair(chunk, trials));
    }
    std::vector<std::pair<Count, Count>> seen(2);
    detail::for_each_chunk(trials, chunk, 2, [&seen](std::size_t ci, Count begin, Count end) {
        seen.at(ci) = {begin, end};
    });
    EXPECT_EQ(seen[0], std::make_pair(Count{0}, chunk));
    EXPECT_EQ(seen[1], std::make_pair(chunk, trials));
}

TEST(Executor, DefaultThreadsIsSettable) {
    const unsigned before = default_threads();
    set_default_threads(3);
    EXPECT_EQ(default_threads(), 3u);
    set_default_threads(0);  // back to hardware
    EXPECT_EQ(default_threads(), hardware_threads());
    EXPECT_GE(hardware_threads(), 1u);
    set_default_threads(before == hardware_threads() ? 0 : before);
}

TEST(Executor, ReadTrialsRefusesACountBelowTheBinarysFewest) {
    const char* argv[] = {"prog", "--trials=1"};
    const Cli cli(2, const_cast<char**>(argv));
    EXPECT_EQ(read_trials(cli, 20), 1u);
    try {
        (void)read_trials(cli, 20, 2);
        ADD_FAILURE() << "--trials=1 passed a bound of 2";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.find("--trials expects at least 2"), 0u) << msg;
        EXPECT_NE(msg.find("got 1"), std::string::npos) << msg;
    }
    const char* none[] = {"prog"};
    EXPECT_EQ(read_trials(Cli(1, const_cast<char**>(none)), 20, 2), 20u);
}

// ------------------------------------------------- thread-count invariance

void expect_samples_identical(const Samples& a, const Samples& b) {
    ASSERT_EQ(a.count(), b.count());
    // Compare raw buffers and the order-sensitive statistics only; min()/max()
    // would lazily SORT the shared serial aggregate and poison the comparison
    // for the next thread count (extrema are implied by buffer equality).
    const auto& xa = a.values();
    const auto& xb = b.values();
    for (std::size_t i = 0; i < xa.size(); ++i) EXPECT_EQ(xa[i], xb[i]) << "i=" << i;
    if (!xa.empty()) {
        EXPECT_EQ(a.mean(), b.mean());
        EXPECT_EQ(a.stddev(), b.stddev());
    }
}

TEST(Executor, RunTrialsBitIdenticalAcrossThreadCounts) {
    Scenario s;
    s.n = 32;
    s.t = 8;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;

    const Aggregate serial = run_trials(s, 0xD1CE, 12, ExecutorConfig{1});
    for (unsigned threads : {2u, 8u}) {
        const Aggregate par = run_trials(s, 0xD1CE, 12, ExecutorConfig{threads});
        EXPECT_EQ(par.trials, serial.trials);
        EXPECT_EQ(par.agreement_failures, serial.agreement_failures);
        EXPECT_EQ(par.validity_failures, serial.validity_failures);
        EXPECT_EQ(par.not_halted, serial.not_halted);
        expect_samples_identical(par.rounds, serial.rounds);
        expect_samples_identical(par.messages, serial.messages);
        expect_samples_identical(par.bits, serial.bits);
        expect_samples_identical(par.corruptions, serial.corruptions);
    }
}

TEST(Executor, RunCoinTrialsBitIdenticalAcrossThreadCounts) {
    const CoinScenario s{64, 64, 4, adv::CoinAttack::Split, 0};
    const CoinAggregate serial = run_coin_trials(s, 0xC0FFEE, 200, ExecutorConfig{1});
    for (unsigned threads : {2u, 8u}) {
        const CoinAggregate par = run_coin_trials(s, 0xC0FFEE, 200,
                                                  ExecutorConfig{threads});
        EXPECT_EQ(par.trials, serial.trials);
        EXPECT_EQ(par.common, serial.common);
        EXPECT_EQ(par.common_ones, serial.common_ones);
        EXPECT_EQ(par.attack_feasible, serial.attack_feasible);
    }
}

TEST(Executor, RunMvTrialsBitIdenticalAcrossThreadCounts) {
    MvScenario s;
    s.n = 16;
    s.t = 5;
    s.inputs = MvInputPattern::TwoBlocks;
    s.adversary = MvAdversaryKind::WorstCaseInner;
    const MvAggregate serial = run_mv_trials(s, 0x3D3D, 6, ExecutorConfig{1});
    for (unsigned threads : {2u, 8u}) {
        const MvAggregate par = run_mv_trials(s, 0x3D3D, 6, ExecutorConfig{threads});
        EXPECT_EQ(par.trials, serial.trials);
        EXPECT_EQ(par.agreement_failures, serial.agreement_failures);
        EXPECT_EQ(par.validity_failures, serial.validity_failures);
        EXPECT_EQ(par.decided_real, serial.decided_real);
        expect_samples_identical(par.rounds, serial.rounds);
    }
}

TEST(Executor, RunMacroTrialsBitIdenticalAcrossThreadCounts) {
    MacroScenario m;
    m.n = 4096;
    m.t = 300;
    m.q = 300;
    const MacroAggregate serial = run_macro_trials(m, 0xAAA, 32, ExecutorConfig{1});
    for (unsigned threads : {2u, 8u}) {
        const MacroAggregate par = run_macro_trials(m, 0xAAA, 32,
                                                    ExecutorConfig{threads});
        EXPECT_EQ(par.trials, serial.trials);
        EXPECT_EQ(par.agreement_failures, serial.agreement_failures);
        expect_samples_identical(par.rounds, serial.rounds);
        expect_samples_identical(par.phases, serial.phases);
        expect_samples_identical(par.corruptions, serial.corruptions);
    }
}

TEST(Executor, ChunkSizeDoesNotChangeResults) {
    Scenario s;
    s.n = 24;
    s.t = 6;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    const Aggregate serial = run_trials(s, 7, 10, ExecutorConfig{1});
    for (Count chunk : {1u, 2u, 3u, 64u}) {
        const Aggregate par = run_trials(s, 7, 10, ExecutorConfig{4, chunk});
        expect_samples_identical(par.rounds, serial.rounds);
        EXPECT_EQ(par.agreement_failures, serial.agreement_failures);
    }
}

// The exact per-trial seed derivation is the contract that keeps old results
// reproducible; a run at trials=K must be a prefix of a run at trials>K.
TEST(Executor, LongerRunExtendsShorterRun) {
    Scenario s;
    s.n = 24;
    s.t = 6;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    const Aggregate small = run_trials(s, 99, 5, ExecutorConfig{2});
    const Aggregate big = run_trials(s, 99, 9, ExecutorConfig{8});
    for (std::size_t i = 0; i < small.rounds.values().size(); ++i)
        EXPECT_EQ(small.rounds.values()[i], big.rounds.values()[i]);
}

}  // namespace
}  // namespace adba::sim
