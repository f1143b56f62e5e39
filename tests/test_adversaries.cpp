// Unit tests of adversary strategy mechanics (corruption timing, budget
// discipline, equivocation patterns) against scripted protocol stubs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/chaos.hpp"
#include "adversary/coin_ruin.hpp"
#include "adversary/crash.hpp"
#include "adversary/static_adversary.hpp"
#include "adversary/worst_case.hpp"
#include "core/skeleton.hpp"
#include "core/params.hpp"
#include "net/engine.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"
#include "support/contracts.hpp"

namespace adba::adv {
namespace {

/// Stub node broadcasting a fixed Vote1/Vote2 cadence with a fixed coin.
class StubVoter final : public net::HonestNode {
public:
    StubVoter(NodeId self, Bit val, CoinSign coin, NodeId committee_end)
        : self_(self), val_(val), coin_(coin), committee_end_(committee_end) {}

    std::optional<net::Message> round_send(Round r) override {
        net::Message m;
        m.phase = r / 2;
        m.val = val_;
        m.flag = 0;
        if (r % 2 == 0) {
            m.kind = net::MsgKind::Vote1;
        } else {
            m.kind = net::MsgKind::Vote2;
            m.coin = self_ < committee_end_ ? coin_ : CoinSign{0};
        }
        return m;
    }
    void round_receive(Round, const net::ReceiveView& view) override {
        last_inbox_.assign(view.n(), std::nullopt);
        for (NodeId u = 0; u < view.n(); ++u) {
            const auto* m = view.from(u);
            if (m) last_inbox_[u] = *m;
        }
    }
    bool halted() const override { return false; }
    Bit current_value() const override { return val_; }

    std::vector<std::optional<net::Message>> last_inbox_;

private:
    NodeId self_;
    Bit val_;
    CoinSign coin_;
    NodeId committee_end_;
};

std::vector<std::unique_ptr<net::HonestNode>> stub_network(
    NodeId n, NodeId committee_end, CoinSign coin,
    std::vector<StubVoter*>* raw = nullptr) {
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < n; ++v) {
        auto p = std::make_unique<StubVoter>(v, static_cast<Bit>(v & 1), coin,
                                             committee_end);
        if (raw) raw->push_back(p.get());
        nodes.push_back(std::move(p));
    }
    return nodes;
}

TEST(StaticAdversary, CorruptsExactlyQAtRoundZero) {
    StaticAdversary adv(3, Xoshiro256(1));
    net::Engine eng({10, 3, 2, false}, stub_network(10, 0, 0), adv);
    const auto res = eng.run();
    EXPECT_EQ(res.metrics.corruptions, 3u);
    EXPECT_EQ(adv.corrupted().size(), 3u);
    EXPECT_EQ(res.honest_count(), 7u);
}

TEST(StaticAdversary, SplitVotesEquivocatesByReceiverHalf) {
    std::vector<StubVoter*> raw;
    StaticAdversary adv(1, Xoshiro256(3));
    net::Engine eng({8, 1, 1, false}, stub_network(8, 0, 0, &raw), adv);
    eng.run();
    const NodeId byz = adv.corrupted()[0];
    // Survivors in the low half saw val 0, high half saw val 1.
    for (NodeId v = 0; v < 8; ++v) {
        if (v == byz) continue;
        ASSERT_TRUE(raw[v]->last_inbox_[byz].has_value());
        EXPECT_EQ(raw[v]->last_inbox_[byz]->val, v < 4 ? 0 : 1);
    }
}

/// The static draw as first specified: iota, the partial Fisher-Yates on the
/// adversary's generator, then a comparison sort.
std::vector<NodeId> sorted_fisher_yates(NodeId n, Count q, Xoshiro256& rng) {
    std::vector<NodeId> ids(n);
    std::iota(ids.begin(), ids.end(), NodeId{0});
    for (Count i = 0; i < q; ++i) {
        const auto j = i + static_cast<NodeId>(rng.below(n - i));
        std::swap(ids[i], ids[j]);
    }
    std::vector<NodeId> set(ids.begin(), ids.begin() + q);
    std::sort(set.begin(), set.end());
    return set;
}

TEST(StaticAdversary, BitmapSweepYieldsTheSortedFisherYatesDraw) {
    // n straddles the bitmap's word boundaries (63, 64, 65) and ends in a
    // partial word (7, 200, 4097); q runs from empty to the largest budget.
    for (const NodeId n : {7u, 63u, 64u, 65u, 200u, 4097u}) {
        for (const Count q : {Count{0}, Count{1}, Count{(n - 1) / 3}}) {
            for (std::uint64_t seed = 1; seed <= 16; ++seed) {
                SCOPED_TRACE("n=" + std::to_string(n) + " q=" + std::to_string(q) +
                             " seed=" + std::to_string(seed));
                StaticAdversary adv(q, Xoshiro256(seed));
                Xoshiro256 ref(seed);
                // The second on_start continues the same stream.
                for (int start = 0; start < 2; ++start) {
                    adv.on_start(n, q);
                    ASSERT_EQ(adv.corrupted(), sorted_fisher_yates(n, q, ref));
                    const auto& set = adv.corrupted();
                    EXPECT_TRUE(std::adjacent_find(set.begin(), set.end(),
                                                   std::greater_equal<>()) == set.end())
                        << "set not strictly ascending";
                }
            }
        }
    }
}

TEST(StaticAdversary, TranscriptListsRoundZeroCorruptionsAscending) {
    StaticAdversary adv(66, Xoshiro256(7));
    net::EngineConfig cfg;
    cfg.n = 200;
    cfg.budget = 66;
    cfg.max_rounds = 2;
    cfg.record_transcript = true;
    net::Engine eng(cfg, stub_network(200, 0, 0), adv);
    const auto res = eng.run();
    ASSERT_TRUE(res.transcript.has_value());
    const auto& round0 = res.transcript->round(0).new_corruptions;
    EXPECT_EQ(round0, adv.corrupted());
    EXPECT_EQ(round0.size(), 66u);
    EXPECT_TRUE(std::adjacent_find(round0.begin(), round0.end(), std::greater_equal<>()) ==
                round0.end());
}

TEST(StaticAdversary, RejectsOverBudget) {
    StaticAdversary adv(5, Xoshiro256(4));
    EXPECT_THROW(adv.on_start(10, 4), ContractViolation);
}

TEST(Chaos, RespectsSelfCap) {
    ChaosAdversary adv({2, 1.0, 0.5}, Xoshiro256(5));  // corrupt every round
    net::Engine eng({10, 9, 20, false}, stub_network(10, 0, 0), adv);
    const auto res = eng.run();
    EXPECT_LE(res.metrics.corruptions, 2u);
}

TEST(Chaos, DeliversGarbageWithoutCrashingReceivers) {
    ChaosAdversary adv({3, 1.0, 1.0}, Xoshiro256(6));
    net::Engine eng({10, 3, 10, false}, stub_network(10, 5, 1), adv);
    const auto res = eng.run();
    EXPECT_GT(res.metrics.byzantine_messages, 0u);
}

TEST(CrashRandom, CrashedNodesStaySilentForever) {
    CrashAdversary adv({3, CrashMode::Random, 1.0, std::nullopt}, Xoshiro256(7));
    std::vector<StubVoter*> raw;
    net::Engine eng({8, 3, 6, false}, stub_network(8, 0, 0, &raw), adv);
    const auto res = eng.run();
    EXPECT_EQ(adv.crashes_used(), 3u);
    // After the final round, every corrupted node's slot in every survivor's
    // inbox is empty (crash adversaries never speak again).
    for (NodeId v = 0; v < 8; ++v) {
        if (!res.honest[v]) continue;
        for (NodeId u = 0; u < 8; ++u) {
            if (res.honest[u]) continue;
            EXPECT_FALSE(raw[v]->last_inbox_[u].has_value());
        }
    }
}

/// Stub network where committee member `neg_member` flips -1 and the other
/// members flip +1.
std::vector<std::unique_ptr<net::HonestNode>> mixed_committee_network(
    NodeId n, NodeId committee_end, NodeId neg_member,
    std::vector<StubVoter*>* raw = nullptr) {
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < n; ++v) {
        const CoinSign c = v == neg_member ? CoinSign{-1} : CoinSign{1};
        auto p = std::make_unique<StubVoter>(v, static_cast<Bit>(v & 1), c,
                                             committee_end);
        if (raw) raw->push_back(p.get());
        nodes.push_back(std::move(p));
    }
    return nodes;
}

TEST(CrashTargeted, SplitsCoinWithPrefixDelivery) {
    // Committee {0,1,2,3} flips (+1,+1,+1,-1): S = 2, so the split needs
    // S+1 = 3 crashes of +1 flippers, the last partial. Survivor set {-1}
    // sums to -1; prefix receivers also get the partial +1 and see 0
    // (coin 1), the rest see -1 (coin 0).
    const auto sched = core::BlockSchedule::make(12, 4);
    {
        CrashAdversary adv({3, CrashMode::TargetedCoin, 0.0, sched}, Xoshiro256(8));
        std::vector<StubVoter*> raw;
        net::Engine eng({12, 3, 2, false}, mixed_committee_network(12, 4, 3, &raw),
                        adv);
        const auto res = eng.run();
        EXPECT_EQ(adv.crashes_used(), 3u);
        int ones = 0, zeros = 0;
        for (NodeId v = 0; v < 12; ++v) {
            if (!res.honest[v]) continue;
            std::int64_t sum = 0;
            for (NodeId u = 0; u < 4; ++u) {
                const auto& m = raw[v]->last_inbox_[u];
                if (m && m->coin != 0) sum += m->coin > 0 ? 1 : -1;
            }
            (sum >= 0 ? ones : zeros) += 1;
        }
        EXPECT_GT(ones, 0);
        EXPECT_GT(zeros, 0);
    }
    {
        // Budget one short of the needed 3: spend nothing.
        CrashAdversary adv({2, CrashMode::TargetedCoin, 0.0, sched}, Xoshiro256(8));
        net::Engine eng({12, 2, 2, false}, mixed_committee_network(12, 4, 3, nullptr),
                        adv);
        eng.run();
        EXPECT_EQ(adv.crashes_used(), 0u) << "unaffordable phase: spend nothing";
    }
    {
        // Unanimous +1 committee: needs S+1 = 5 crashes but only 4 flippers
        // exist — crash-immune (ties break to 1); spend nothing.
        CrashAdversary adv({12, CrashMode::TargetedCoin, 0.0, sched}, Xoshiro256(8));
        net::Engine eng({12, 12 - 1, 2, false}, stub_network(12, 4, +1, nullptr), adv);
        eng.run();
        EXPECT_EQ(adv.crashes_used(), 0u) << "crash-immune committee: spend nothing";
    }
}

TEST(CoinRuin, NeedsNoCorruptionsWhenSumIsTiny) {
    // If the honest flips land nearly balanced, the attack can be free; we
    // only assert the adversary never exceeds its budget and the feasibility
    // flag matches the outcome (checked statistically in test_coin).
    CoinRuinAdversary adv({16, 3, CoinAttack::Split, 0});
    // Engine integration happens in coin tests; here: construction sanity.
    EXPECT_FALSE(adv.attack_feasible());
}

TEST(WorstCase, SpendsNothingAgainstUnanimousInputs) {
    // All inputs equal (real Algorithm 3 nodes): the n-t vote quorum is
    // unblockable (blocking costs t+1 > budget) and every honest node
    // decides in round 1, so the decided-reduction cost d - t = n - 2t also
    // exceeds the budget. The adversary must give up without wasting a
    // single corruption and the run locks in immediately.
    const auto params = core::AgreementParams::compute(16, 5);
    const SeedTree seeds(123);
    const std::vector<Bit> inputs(16, 1);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    core::arm_skeleton_nodes({16, 5, params.phases, core::AgreementMode::WhpFixedPhases},
                             {core::CoinSpec::Kind::Committee, params.schedule}, inputs,
                             seeds, nodes);
    WorstCaseAdversary adv({5, 5, params.schedule, true});
    net::Engine eng({16, 5, core::max_rounds_whp(params), false}, std::move(nodes),
                    adv);
    const auto res = eng.run();
    EXPECT_EQ(res.metrics.corruptions, 0u);
    EXPECT_EQ(adv.corruptions_used(), 0u);
    EXPECT_TRUE(res.agreement());
    EXPECT_EQ(*res.agreed_value(), 1);
    EXPECT_LE(res.rounds, 6u);
}

TEST(WorstCase, RuinsUnanimousCoinWhenAffordable) {
    // Stub committee all flips +1 and votes split: the adversary must
    // corrupt ~half the committee to split the coin.
    const auto sched = core::BlockSchedule::make(16, 8);
    WorstCaseAdversary adv({5, 5, sched, true});
    std::vector<StubVoter*> raw;
    net::Engine eng({16, 5, 2, false}, stub_network(16, 8, +1, &raw), adv);
    eng.run();
    // Sum 8, need S' <= M-1: k >= 4.5 -> 5 corruptions (m starts 0).
    EXPECT_EQ(adv.corruptions_used(), 5u);
    EXPECT_EQ(adv.phases_ruined(), 1u);
}

TEST(WorstCase, GivesUpWhenRuinUnaffordable) {
    const auto sched = core::BlockSchedule::make(16, 8);
    WorstCaseAdversary adv({4, 4, sched, true});  // needs 5, has 4
    net::Engine eng({16, 4, 2, false}, stub_network(16, 8, +1, nullptr), adv);
    const auto res = eng.run();
    EXPECT_EQ(res.metrics.corruptions, 0u);
    EXPECT_EQ(adv.phases_ruined(), 0u);
}

TEST(WorstCase, EquivocatedCoinsSplitReceivers) {
    // After a successful ruin, some honest receivers must compute a
    // different committee-coin sign than others.
    const auto sched = core::BlockSchedule::make(16, 8);
    WorstCaseAdversary adv({6, 6, sched, true});
    std::vector<StubVoter*> raw;
    net::Engine eng({16, 6, 2, false}, stub_network(16, 8, +1, &raw), adv);
    const auto res = eng.run();
    ASSERT_EQ(adv.phases_ruined(), 1u);
    int coin_one = 0, coin_zero = 0, survivors = 0;
    for (NodeId v = 0; v < 16; ++v) {
        if (!res.honest[v]) continue;
        ++survivors;
        std::int64_t sum = 0;
        for (NodeId u = 0; u < 8; ++u) {
            const auto& m = raw[v]->last_inbox_[u];
            if (m && m->kind == net::MsgKind::Vote2 && m->coin != 0)
                sum += m->coin > 0 ? 1 : -1;
        }
        (sum >= 0 ? coin_one : coin_zero) += 1;
    }
    EXPECT_GT(coin_one, 0);
    EXPECT_GT(coin_zero, 0);
    EXPECT_EQ(coin_one + coin_zero, survivors);
}

TEST(WorstCase, SelfCapsBelowEngineBudget) {
    const auto sched = core::BlockSchedule::make(16, 8);
    WorstCaseAdversary adv({6, 2, sched, true});  // q=2 < t=6
    net::Engine eng({16, 6, 4, false}, stub_network(16, 8, +1, nullptr), adv);
    const auto res = eng.run();
    EXPECT_LE(res.metrics.corruptions, 2u);
}

// `split-vote` is StaticAdversary (the registry builds both names from one
// factory).
TEST(SplitVoteAdv, KeepsHalvesOnOppositeValues) {
    StaticAdversary adv(2, Xoshiro256(11));
    std::vector<StubVoter*> raw;
    net::Engine eng({10, 2, 2, false}, stub_network(10, 0, 0, &raw), adv);
    const auto res = eng.run();
    EXPECT_EQ(res.metrics.corruptions, 2u);
    for (NodeId v = 0; v < 10; ++v) {
        if (!res.honest[v]) continue;
        for (NodeId u = 0; u < 10; ++u) {
            if (res.honest[u]) continue;
            ASSERT_TRUE(raw[v]->last_inbox_[u].has_value());
            EXPECT_EQ(raw[v]->last_inbox_[u]->val, v < 5 ? 0 : 1);
        }
    }
}

}  // namespace
}  // namespace adba::adv
