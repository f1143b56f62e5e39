// Intra-trial sharding + packed-tally tests: the sharded beat execution
// (scenario `shard=`, EngineConfig::intra) and the word-packed popcount
// tally (scenario `simd=`, EngineConfig::simd_tally) must be BIT-IDENTICAL
// to the serial scalar byte-plane oracle — for every compatible registry
// pair, at any logical shard count, at sizes that straddle 64-bit word
// boundaries, with halted and corrupted nodes landing on the straddle.
// Plus the nested-parallelism policy (plan_intra_shards / intra_worker_cap)
// and the ShardPool dispatch contract (tiling, reuse, exception propagation,
// quiescence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/round_buffer.hpp"
#include "net/tally_kernels.hpp"
#include "rand/rng.hpp"
#include "sim/executor.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

void expect_samples_eq(const Samples& a, const Samples& b, const char* what) {
    ASSERT_EQ(a.count(), b.count()) << what;
    const auto& xs = a.values();
    const auto& ys = b.values();
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(xs[i], ys[i]) << what << " sample " << i;
}

void expect_aggregate_eq(const sim::Aggregate& a, const sim::Aggregate& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.agreement_failures, b.agreement_failures);
    EXPECT_EQ(a.validity_failures, b.validity_failures);
    EXPECT_EQ(a.not_halted, b.not_halted);
    expect_samples_eq(a.rounds, b.rounds, "rounds");
    expect_samples_eq(a.messages, b.messages, "messages");
    expect_samples_eq(a.bits, b.bits, "bits");
    expect_samples_eq(a.corruptions, b.corruptions, "corruptions");
}

/// Largest t the protocol's resilience predicate admits at n (0 if none).
Count max_t(const sim::ProtocolEntry& p, NodeId n) {
    Count t = (n - 1) / 3;
    while (t > 0 && !p.supports(n, t)) --t;
    return t;
}

/// Test-local IntraDispatcher: runs the logical shards serially on the
/// calling thread. Exercises the shard-range/merge contract at any shard
/// count without threads — determinism depends on shard boundaries, never
/// on who executes them.
class SerialShards final : public net::IntraDispatcher {
public:
    explicit SerialShards(unsigned shards) : shards_(shards) {}
    unsigned shards() const override { return shards_; }
    void run_shards(NodeId n,
                    const std::function<void(unsigned, NodeId, NodeId)>& fn) override {
        for (unsigned s = 0; s < shards_; ++s) {
            const auto [lo, hi] = net::kern::shard_node_range(n, s, shards_);
            fn(s, lo, hi);
        }
    }

private:
    unsigned shards_;
};

// ---------------------------------------------------------------------------
// Every compatible registry pair: sharded + packed trials must reproduce the
// serial scalar oracle bit for bit, at logical shard counts 1, 2, and 8.

TEST(IntraShardEquivalence, AllRegistryPairsShardedMatchesScalarSerial) {
    const NodeId n = 33;  // straddles nothing; sizes are swept separately
    Count covered = 0;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        if (p->make_batch == nullptr) continue;  // adapter-only protocol
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = a->kind;
            s.n = n;
            s.t = max_t(*p, n);
            s.inputs = sim::InputPattern::Split;
            s.local_coin_phases = 12;  // keep the private-coin runs bounded
            s.use_fused = false;  // sharded scalar trials are the subject
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);

            const sim::ExecutorConfig serial{1, 0};
            sim::Scenario oracle = s;  // full scalar path, nothing sharded
            oracle.use_shard = false;
            oracle.use_simd = false;
            const sim::Aggregate ref = sim::run_trials(oracle, 0x54A8D, 4, serial);

            // Packed tally alone (no beat sharding).
            sim::Scenario simd_only = s;
            simd_only.use_shard = false;
            expect_aggregate_eq(sim::run_trials(simd_only, 0x54A8D, 4, serial), ref);

            // Sharded beats + packed tally at 1, 2, and 8 logical shards.
            for (const Count intra : {Count{1}, Count{2}, Count{8}}) {
                SCOPED_TRACE("intra_threads=" + std::to_string(intra));
                sim::Scenario sharded = s;
                sharded.intra_threads = intra;
                expect_aggregate_eq(sim::run_trials(sharded, 0x54A8D, 4, serial), ref);
            }
        }
    }
    // 8 native-batch protocols x 9 adversaries minus constraints.
    EXPECT_GE(covered, 45u) << "shard registry coverage unexpectedly low";
}

// ---------------------------------------------------------------------------
// Size sweep across word-count regimes: n below one word, straddling one,
// multi-word, and the bench's huge-n cell.

TEST(IntraShardEquivalence, SizeSweepShardedMatchesScalarSerial) {
    const sim::ProtocolKind protocols[] = {sim::ProtocolKind::Ours,
                                           sim::ProtocolKind::BenOr,
                                           sim::ProtocolKind::PhaseKing};
    const NodeId sizes[] = {4, 33, 256, 1024};
    const sim::ExecutorConfig serial{1, 0};
    for (const sim::ProtocolKind pk : protocols) {
        const sim::ProtocolEntry& p = sim::ProtocolRegistry::instance().at(pk);
        for (const NodeId n : sizes) {
            sim::Scenario s;
            s.protocol = pk;
            s.adversary = sim::AdversaryKind::WorstCase;
            s.n = n;
            s.t = max_t(p, n);
            s.inputs = sim::InputPattern::Split;
            s.use_fused = false;  // sharded scalar trials are the subject
            if (!sim::compatible(s)) continue;
            SCOPED_TRACE(p.name + " n=" + std::to_string(n));

            sim::Scenario oracle = s;
            oracle.use_shard = false;
            oracle.use_simd = false;
            sim::Scenario sharded = s;
            sharded.intra_threads = 8;

            const Count trials = n >= 1024 ? 2 : 4;
            expect_aggregate_eq(sim::run_trials(sharded, 0x512E5, trials, serial),
                                sim::run_trials(oracle, 0x512E5, trials, serial));
        }
    }
}

// ---------------------------------------------------------------------------
// The multi-valued stack's packed word histograms against its scalar build.

TEST(IntraShardEquivalence, MvPackedWordTalliesMatchScalar) {
    sim::MvScenario s;
    s.n = 33;
    s.t = 8;
    s.inputs = sim::MvInputPattern::NearQuorum;
    s.adversary = sim::MvAdversaryKind::PreludePlusWorstCase;
    sim::MvScenario scalar = s;
    scalar.use_simd = false;

    const sim::ExecutorConfig serial{1, 0};
    const sim::MvAggregate fast = sim::run_mv_trials(s, 0x3C0DE, 5, serial);
    const sim::MvAggregate ref = sim::run_mv_trials(scalar, 0x3C0DE, 5, serial);
    EXPECT_EQ(fast.trials, ref.trials);
    EXPECT_EQ(fast.agreement_failures, ref.agreement_failures);
    EXPECT_EQ(fast.validity_failures, ref.validity_failures);
    EXPECT_EQ(fast.not_halted, ref.not_halted);
    EXPECT_EQ(fast.decided_real, ref.decided_real);
    expect_samples_eq(fast.rounds, ref.rounds, "mv rounds");
}

// ---------------------------------------------------------------------------
// Word-boundary fuzz for the bit-packed planes: randomized rounds at sizes
// that are not multiples of 64, with halted and corrupted nodes biased onto
// the word straddle; the packed RoundTally (at several logical shard counts,
// including more shards than words) must answer every query with the same
// integers as the scalar byte-plane build.

net::Message random_msg(Xoshiro256& rng) {
    static constexpr net::MsgKind kKinds[] = {
        net::MsgKind::Vote1, net::MsgKind::Vote2, net::MsgKind::Coin,
        net::MsgKind::BenOrReport, net::MsgKind::TCValue};
    net::Message m;
    m.kind = kKinds[rng.below(5)];
    m.val = static_cast<Bit>(rng.below(2));
    m.flag = static_cast<std::uint8_t>(rng.below(2));
    m.coin = static_cast<CoinSign>(static_cast<int>(rng.below(3)) - 1);
    m.phase = static_cast<Phase>(rng.below(3));
    m.word = static_cast<net::Word>(rng.below(5));
    return m;
}

void expect_tallies_eq(const net::RoundBuffer& buf, const net::RoundTally& scalar,
                       const net::RoundTally& packed, Xoshiro256& rng) {
    const NodeId n = buf.n();
    ASSERT_EQ(scalar.bucket_count(), packed.bucket_count());
    for (std::size_t i = 0; i < scalar.bucket_count(); ++i) {
        const net::TallyBucket& sb = scalar.bucket(i);
        const net::TallyBucket& pb = packed.bucket(i);
        // Same buckets in the same discovery order: the sharded pack merge
        // must preserve ascending-first-sender bucket order.
        ASSERT_EQ(static_cast<int>(sb.kind), static_cast<int>(pb.kind)) << i;
        ASSERT_EQ(sb.phase, pb.phase) << i;
        EXPECT_EQ(sb.total, pb.total);
        EXPECT_EQ(sb.val_cnt, pb.val_cnt);
        EXPECT_EQ(sb.val_flag_cnt, pb.val_flag_cnt);

        // Coin sums over ranges whose endpoints land mid-word.
        EXPECT_EQ(scalar.coin_range_sum(sb, 0, n), packed.coin_range_sum(pb, 0, n));
        for (int probe = 0; probe < 8; ++probe) {
            const auto first = static_cast<NodeId>(rng.below(n + 1));
            const auto last =
                static_cast<NodeId>(first + rng.below(n + 1 - first));
            EXPECT_EQ(scalar.coin_range_sum(sb, first, last),
                      packed.coin_range_sum(pb, first, last))
                << "coin range [" << first << ", " << last << ")";
        }

        // Word histograms (the mv quorum/plurality backing store).
        EXPECT_EQ(scalar.word_counts(sb, false), packed.word_counts(pb, false));
        EXPECT_EQ(scalar.word_counts(sb, true), packed.word_counts(pb, true));
    }

    // Receiver-visible queries (shared Byzantine deltas + honest planes).
    const NodeId receivers[] = {0, static_cast<NodeId>(n / 2),
                                static_cast<NodeId>(n - 1)};
    for (const NodeId r : receivers) {
        const net::ReceiveView vs(buf, scalar, r);
        const net::ReceiveView vp(buf, packed, r);
        for (std::size_t i = 0; i < scalar.bucket_count(); ++i) {
            const net::TallyBucket& b = scalar.bucket(i);
            EXPECT_EQ(vs.val_counts(b.kind, b.phase, false),
                      vp.val_counts(b.kind, b.phase, false));
            EXPECT_EQ(vs.val_counts(b.kind, b.phase, true),
                      vp.val_counts(b.kind, b.phase, true));
            EXPECT_EQ(vs.coin_sum(b.kind, b.phase, true, 0, n),
                      vp.coin_sum(b.kind, b.phase, true, 0, n));
            EXPECT_EQ(vs.plurality_word(b.kind, false),
                      vp.plurality_word(b.kind, false));
        }
        // A signature no broadcast used this round.
        EXPECT_EQ(vs.val_counts(net::MsgKind::PhaseKingRuler, 7, false),
                  vp.val_counts(net::MsgKind::PhaseKingRuler, 7, false));
    }
}

TEST(PackedTallyFuzz, WordBoundaryRoundsMatchScalarBitIdentically) {
    const NodeId sizes[] = {63, 64, 65, 127, 129, 191, 257};
    Xoshiro256 rng(0x5EED5);
    net::RoundBuffer buf;
    net::RoundTally scalar;
    net::RoundTally packed;
    for (const NodeId n : sizes) {
        for (int rep = 0; rep < 5; ++rep) {
            SCOPED_TRACE("n=" + std::to_string(n) + " rep=" + std::to_string(rep));
            buf.reset(n);
            buf.begin_round();

            // Honest sends, with silence (halted nodes) biased onto the
            // positions adjacent to every 64-bit word boundary.
            for (NodeId v = 0; v < n; ++v) {
                const NodeId in_word = v % net::kern::kWordBits;
                const double silent_p =
                    (in_word >= net::kern::kWordBits - 2 || in_word <= 1) ? 0.5
                                                                          : 0.15;
                if (!rng.bernoulli(silent_p)) buf.set_broadcast(v, random_msg(rng));
            }

            // Corruptions: always hit the word straddle, plus random picks.
            std::vector<NodeId> byz = {static_cast<NodeId>(net::kern::kWordBits - 1),
                                       static_cast<NodeId>(net::kern::kWordBits),
                                       static_cast<NodeId>(n - 1)};
            for (int k = 0; k < 4; ++k)
                byz.push_back(static_cast<NodeId>(rng.below(n)));
            for (const NodeId v : byz) {
                if (v >= n || !buf.is_honest(v)) continue;
                buf.corrupt(v);
                if (rng.bernoulli(0.5)) {
                    const net::Message low = random_msg(rng);
                    const net::Message high = random_msg(rng);
                    buf.apply_pattern(v, rng.bernoulli(0.8) ? &low : nullptr,
                                      rng.bernoulli(0.8) ? &high : nullptr,
                                      static_cast<NodeId>(rng.below(n + 1)));
                } else {
                    for (std::uint64_t k = rng.below(4); k-- > 0;)
                        buf.deliver(v, static_cast<NodeId>(rng.below(n)),
                                    random_msg(rng));
                }
            }

            scalar.rebuild(buf);
            // Shard counts beyond the word count force empty tail ranges.
            for (const unsigned shards : {1u, 2u, 3u, 5u}) {
                SCOPED_TRACE("shards=" + std::to_string(shards));
                SerialShards intra(shards);
                packed.rebuild(buf, true, &intra);
                EXPECT_TRUE(packed.packed());
                expect_tallies_eq(buf, scalar, packed, rng);
            }
            // Null dispatcher: packed build over one full-range "shard".
            packed.rebuild(buf, true, nullptr);
            expect_tallies_eq(buf, scalar, packed, rng);
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-range geometry: word-aligned interior boundaries tiling [0, n).

TEST(ShardPolicy, ShardNodeRangeTilesWordAligned) {
    for (const NodeId n : {NodeId{1}, NodeId{63}, NodeId{64}, NodeId{65},
                           NodeId{1000}, NodeId{4096}}) {
        for (const unsigned shards : {1u, 2u, 3u, 7u, 8u}) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " shards=" + std::to_string(shards));
            NodeId expect_lo = 0;
            for (unsigned s = 0; s < shards; ++s) {
                const auto [lo, hi] = net::kern::shard_node_range(n, s, shards);
                EXPECT_EQ(lo, expect_lo) << "shard " << s << " not contiguous";
                EXPECT_LE(lo, hi);
                EXPECT_LE(hi, n);
                if (s + 1 < shards && hi < n)
                    EXPECT_EQ(hi % net::kern::kWordBits, 0u)
                        << "interior boundary off word alignment";
                expect_lo = hi;
            }
            EXPECT_EQ(expect_lo, n) << "shards do not cover [0, n)";
        }
    }
}

TEST(ShardPolicy, PlanIntraShardsPrecedence) {
    const unsigned saved = sim::default_intra_threads();
    // Explicit scenario request wins verbatim.
    EXPECT_EQ(sim::plan_intra_shards(5, 10), 5u);
    EXPECT_EQ(sim::plan_intra_shards(1, 1 << 20), 1u);
    // A non-zero process default wins over auto.
    sim::set_default_intra_threads(3);
    EXPECT_EQ(sim::plan_intra_shards(0, 10), 3u);
    EXPECT_EQ(sim::plan_intra_shards(7, 10), 7u);
    // Auto: never shards small n; bounded by 8 when it does fire.
    sim::set_default_intra_threads(0);
    EXPECT_EQ(sim::plan_intra_shards(0, 100), 1u);
    const unsigned huge = sim::plan_intra_shards(0, 1 << 20);
    EXPECT_GE(huge, 1u);
    EXPECT_LE(huge, 8u);
    sim::set_default_intra_threads(saved);
}

TEST(ShardPolicy, AbsurdRequestsAreClamped) {
    // A scenario can request any Count; the resolved logical shard count
    // must stay bounded by max(word_count(n), 8 * hardware) so the pool's
    // per-beat claim loop never iterates billions of empty ranges.
    const Count absurd = std::numeric_limits<Count>::max();
    const unsigned cap = std::max<unsigned>(
        static_cast<unsigned>(net::kern::word_count(10)),
        8u * sim::hardware_threads());
    EXPECT_EQ(sim::plan_intra_shards(absurd, 10), cap);
    // The same ceiling applies to a process-wide default.
    const unsigned saved = sim::default_intra_threads();
    sim::set_default_intra_threads(1u << 30);
    EXPECT_LE(sim::plan_intra_shards(0, 10), cap);
    sim::set_default_intra_threads(saved);
}

TEST(ShardPolicy, IntraWorkerCapNeverOversubscribes) {
    const unsigned hw = sim::hardware_threads();
    EXPECT_EQ(sim::intra_worker_cap(1), hw);
    EXPECT_EQ(sim::intra_worker_cap(hw), 1u);
    EXPECT_EQ(sim::intra_worker_cap(2 * hw), 1u);
    EXPECT_EQ(sim::intra_worker_cap(1000 * hw), 1u);
    // pool_width x intra cap never exceeds the machine (beyond the one
    // worker per trial thread the pool already runs): the executor's
    // no-oversubscription invariant.
    for (unsigned pool = 1; pool <= 2 * hw; ++pool)
        EXPECT_LE(pool * sim::intra_worker_cap(pool), std::max(pool, hw));
}

// ---------------------------------------------------------------------------
// ShardPool dispatch contract.

TEST(ShardPoolDispatch, RangesTileAndReuseAcrossDispatches) {
    sim::ShardPool pool(4, 1);
    EXPECT_EQ(pool.shards(), 4u);
    EXPECT_GE(pool.workers(), 1u);
    for (const NodeId n : {NodeId{130}, NodeId{64}, NodeId{1}}) {
        for (int dispatch = 0; dispatch < 3; ++dispatch) {
            std::vector<std::pair<NodeId, NodeId>> got(4, {0, 0});
            std::vector<int> hits(4, 0);
            pool.run_shards(n, [&](unsigned s, NodeId lo, NodeId hi) {
                got[s] = {lo, hi};  // disjoint slots: no synchronization needed
                ++hits[s];
            });
            NodeId expect_lo = 0;
            for (unsigned s = 0; s < 4; ++s) {
                EXPECT_EQ(hits[s], 1) << "shard " << s << " ran " << hits[s]
                                      << " times";
                EXPECT_EQ(got[s].first, expect_lo);
                expect_lo = got[s].second;
            }
            EXPECT_EQ(expect_lo, n);
        }
    }
}

TEST(ShardPoolDispatch, ExceptionPropagatesAndPoolStaysUsable) {
    sim::ShardPool pool(3, 1);
    EXPECT_THROW(pool.run_shards(100,
                                 [&](unsigned s, NodeId, NodeId) {
                                     if (s == 1) throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);
    // Quiescence barrier: the failed dispatch left no stale worker behind,
    // so the next dispatch runs clean.
    std::vector<int> hits(3, 0);
    pool.run_shards(100, [&](unsigned s, NodeId, NodeId) { ++hits[s]; });
    for (unsigned s = 0; s < 3; ++s) EXPECT_EQ(hits[s], 1);
}

TEST(ShardPoolDispatch, RapidDispatchesNeverWakeStaleWorkers) {
    // Regression: with trivial per-shard work the calling thread routinely
    // drains an entire generation before a notified worker acquires the
    // mutex. Such a stale worker must park until the next generation is
    // armed — not bind a disarmed (null) job or consume a shard of a
    // generation it never saw. Hammer back-to-back dispatches and check
    // every shard of every generation ran exactly once.
    sim::ShardPool pool(4, 1);
    for (int gen = 0; gen < 2000; ++gen) {
        std::atomic<int> ran{0};
        std::atomic<int> bad{0};
        pool.run_shards(1, [&](unsigned s, NodeId, NodeId) {
            if (s >= 4) bad.fetch_add(1, std::memory_order_relaxed);
            ran.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(ran.load(), 4) << "generation " << gen;
        ASSERT_EQ(bad.load(), 0) << "generation " << gen;
    }
}

// ---------------------------------------------------------------------------
// Scenario plumbing for the new keys.

TEST(ShardScenarioKeys, BinaryKeysRoundTrip) {
    sim::Scenario s;
    s.n = 16;
    s.t = 5;
    s.use_shard = false;
    s.use_simd = false;
    s.intra_threads = 3;
    EXPECT_EQ(sim::Scenario::parse(s.describe()), s);

    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5").use_shard);
    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5").use_simd);
    EXPECT_EQ(sim::Scenario::parse("n=16 t=5").intra_threads, 0u);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5 shard=off").use_shard);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5 simd=off").use_simd);
    EXPECT_TRUE(sim::Scenario::parse("n=16 t=5 shard=on simd=on").use_simd);
    EXPECT_EQ(sim::Scenario::parse("n=16 t=5 intra_threads=4").intra_threads, 4u);
}

TEST(ShardScenarioKeys, MvSimdKeyRoundTrips) {
    sim::MvScenario s;
    s.n = 16;
    s.t = 5;
    s.use_simd = false;
    EXPECT_EQ(sim::MvScenario::parse(s.describe()), s);
    EXPECT_TRUE(sim::MvScenario::parse("n=16 t=5").use_simd);
    EXPECT_FALSE(sim::MvScenario::parse("n=16 t=5 simd=off").use_simd);
}

}  // namespace
}  // namespace adba
