// Tests for the extension modules: sampling-majority (APR 2013, paper
// §1.3), Ben-Or 1983 proper, the Turpin-Coan multi-valued reduction over
// Algorithm 3, and the balancer / prelude / composite adversaries.
#include <gtest/gtest.h>

#include <tuple>

#include "adversary/balancer.hpp"
#include "adversary/chaos.hpp"
#include "adversary/composite.hpp"
#include "baselines/ben_or.hpp"
#include "baselines/sampling_majority.hpp"
#include "core/multivalued.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::sim {
namespace {

// -------------------------------------------------------- sampling majority

TEST(SamplingMajority, ParamsPolylogRounds) {
    const auto p = base::SamplingMajorityParams::compute(1024, 16, 3.0);
    EXPECT_EQ(p.rounds, 300u);  // 3 * 10^2
    EXPECT_THROW(base::SamplingMajorityParams::compute(9, 3), ContractViolation);
}

TEST(SamplingMajority, ConvergesWithoutAdversary) {
    Scenario s;
    s.n = 128;
    s.t = 0;
    s.protocol = ProtocolKind::SamplingMajority;
    s.adversary = AdversaryKind::None;
    s.inputs = InputPattern::Split;
    const Aggregate agg = run_trials(s, 0x5A1, 10);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.not_halted, 0u);
}

TEST(SamplingMajority, ValidityStyleStability) {
    // All-same start: the absorbing state must hold even with Byzantine
    // samples pulling the other way (t well below sqrt(n)).
    Scenario s;
    s.n = 256;
    s.t = 4;
    s.protocol = ProtocolKind::SamplingMajority;
    s.adversary = AdversaryKind::Balancer;
    s.inputs = InputPattern::AllOne;
    const Aggregate agg = run_trials(s, 0x5A2, 10);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.validity_failures, 0u);
}

TEST(SamplingMajority, ToleratesSqrtScaleByzantine) {
    // t ~ sqrt(n)/log n (the APR regime): still converges under the
    // balancer within the polylog budget.
    const NodeId n = 256;
    const auto t = static_cast<Count>(isqrt(n) / 4);  // 4
    Scenario s;
    s.n = n;
    s.t = t;
    s.protocol = ProtocolKind::SamplingMajority;
    s.adversary = AdversaryKind::Balancer;
    s.inputs = InputPattern::Split;
    const Aggregate agg = run_trials(s, 0x5A3, 10);
    EXPECT_EQ(agg.agreement_failures, 0u);
}

TEST(SamplingMajority, BalancerDelaysConvergence) {
    // Stalling the drift costs the balancer ~sqrt(n) corruptions per round,
    // so a budget of q buys ~q/sqrt(n) rounds of enforced balance. Measure
    // the first round at which all honest values agree: a big balancer
    // must push it out relative to a trivial one.
    const NodeId n = 196;
    auto mean_first_agree = [&](Count t) {
        double total = 0.0;
        const int trials = 12;
        for (int i = 0; i < trials; ++i) {
            const SeedTree seeds(0x5A4 + static_cast<std::uint64_t>(i));
            const auto params = base::SamplingMajorityParams::compute(n, t, 4.0);
            std::vector<std::unique_ptr<net::HonestNode>> nodes;
            base::arm_sampling_majority_nodes(
                params, make_inputs(InputPattern::Split, n, seeds), seeds, nodes);
            adv::MajorityBalancerAdversary adversary({t, 0});
            net::Engine eng({n, t, params.rounds + 1, false}, std::move(nodes),
                            adversary);
            Round first_agree = params.rounds;
            bool found = false;
            eng.set_round_observer([&](Round r, const auto& live, const auto& honest) {
                if (found) return;
                std::optional<Bit> v;
                for (NodeId u = 0; u < live.size(); ++u) {
                    if (!honest[u]) continue;
                    const Bit b = live[u]->current_value();
                    if (!v) {
                        v = b;
                    } else if (*v != b) {
                        return;  // not yet agreed
                    }
                }
                first_agree = r;
                found = true;
            });
            eng.run();
            total += static_cast<double>(first_agree);
        }
        return total / 12.0;
    };
    const double small_adv = mean_first_agree(2);
    const double big_adv = mean_first_agree(60);  // >> sqrt(196) = 14
    EXPECT_GT(big_adv, small_adv)
        << "a sqrt(n)-scale balancer must delay full agreement";
}

// ------------------------------------------------------------------ Ben-Or

TEST(BenOr, RejectsFifthBound) {
    EXPECT_THROW(base::BenOrNode({10, 2, 4}, 0, 0, Xoshiro256(1)), ContractViolation);
    EXPECT_NO_THROW(base::BenOrNode({11, 2, 4}, 0, 0, Xoshiro256(1)));
}

using BenOrParam = std::tuple<NodeId, Count, AdversaryKind, InputPattern>;

class BenOrSweep : public ::testing::TestWithParam<BenOrParam> {};

TEST_P(BenOrSweep, SafetyAndEventualAgreement) {
    const auto [n, t, adversary, inputs] = GetParam();
    Scenario s;
    s.n = n;
    s.t = t;
    s.protocol = ProtocolKind::BenOr;
    s.adversary = adversary;
    s.inputs = inputs;
    s.local_coin_phases = 512;  // exponential expected; small n keeps it sane
    const Aggregate agg = run_trials(s, 0xB0 + n + t, 5);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.validity_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BenOrSweep,
    ::testing::Combine(::testing::Values<NodeId>(11, 16, 21),
                       ::testing::Values<Count>(1, 2),
                       ::testing::Values(AdversaryKind::None, AdversaryKind::Static,
                                         AdversaryKind::SplitVote,
                                         AdversaryKind::CrashRandom),
                       ::testing::Values(InputPattern::AllZero, InputPattern::AllOne,
                                         InputPattern::Split)));

TEST(BenOr, UnanimousDecidesInOnePhase) {
    Scenario s;
    s.n = 16;
    s.t = 3;
    s.protocol = ProtocolKind::BenOr;
    s.adversary = AdversaryKind::SplitVote;
    s.inputs = InputPattern::AllOne;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const TrialResult r = run_trial(s, seed);
        EXPECT_TRUE(r.agreement);
        EXPECT_TRUE(r.validity_ok);
        EXPECT_LE(r.rounds, 6u);
    }
}

TEST(BenOr, MuchSlowerThanCommitteeCoinFromSplit) {
    Scenario benor;
    benor.n = 16;
    benor.t = 3;
    benor.q = 0;
    benor.protocol = ProtocolKind::BenOr;
    benor.adversary = AdversaryKind::None;
    benor.inputs = InputPattern::Split;
    benor.local_coin_phases = 2048;
    Scenario ours = benor;
    ours.protocol = ProtocolKind::Ours;
    const auto agg_benor = run_trials(benor, 0xB1, 8);
    const auto agg_ours = run_trials(ours, 0xB1, 8);
    EXPECT_EQ(agg_benor.agreement_failures, 0u);
    EXPECT_GT(agg_benor.rounds.mean(), agg_ours.rounds.mean());
}

// ------------------------------------------------------------- multi-valued

using MvParam = std::tuple<NodeId, Count, MvAdversaryKind, MvInputPattern>;

class MultiValuedSweep : public ::testing::TestWithParam<MvParam> {};

TEST_P(MultiValuedSweep, AgreementValidityTermination) {
    const auto [n, t, adversary, inputs] = GetParam();
    MvScenario s;
    s.n = n;
    s.t = t;
    s.adversary = adversary;
    s.inputs = inputs;
    const MvAggregate agg = run_mv_trials(s, 0x717 + n + t, 5);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.validity_failures, 0u);
    EXPECT_EQ(agg.not_halted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiValuedSweep,
    ::testing::Combine(::testing::Values<NodeId>(16, 32, 64),
                       ::testing::Values<Count>(1, 5),
                       ::testing::Values(MvAdversaryKind::None, MvAdversaryKind::Chaos,
                                         MvAdversaryKind::WorstCaseInner,
                                         MvAdversaryKind::PreludePlusWorstCase),
                       ::testing::Values(MvInputPattern::AllSame,
                                         MvInputPattern::TwoBlocks,
                                         MvInputPattern::Distinct,
                                         MvInputPattern::RandomTiny,
                                         MvInputPattern::NearQuorum)));

TEST(MultiValued, NearQuorumBandIsSafeUnderPreludeSplit) {
    // The only regime where the prelude can split the derived binary inputs:
    // 60% share a word, and h_w < n-t <= h_w + q. Safety (one common output,
    // never an invented word) must survive; liveness may route through the
    // inner protocol's coin phases.
    MvScenario s;
    s.n = 96;
    s.t = 31;
    s.adversary = MvAdversaryKind::PreludePlusWorstCase;
    s.inputs = MvInputPattern::NearQuorum;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const MvTrialResult r = run_mv_trial(s, seed);
        EXPECT_TRUE(r.agreement) << seed;
        ASSERT_TRUE(r.agreed_word.has_value());
        EXPECT_TRUE(*r.agreed_word == 0xAAAA || *r.agreed_word == 0) << std::hex
                                                                     << *r.agreed_word;
    }
}

TEST(MultiValued, UnanimousInputWinsDespitePreludeAttack) {
    MvScenario s;
    s.n = 64;
    s.t = 21;
    s.adversary = MvAdversaryKind::PreludePlusWorstCase;
    s.inputs = MvInputPattern::AllSame;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const MvTrialResult r = run_mv_trial(s, seed);
        EXPECT_TRUE(r.agreement);
        ASSERT_TRUE(r.agreed_word.has_value());
        EXPECT_EQ(*r.agreed_word, 0xCAFEu) << "validity: the unanimous word must win";
        EXPECT_TRUE(r.decided_real);
    }
}

TEST(MultiValued, FragmentedInputsFallBackConsistently) {
    // With every input distinct no word can reach a quorum; the binary
    // protocol must decide 0 at everyone and all honest output the fallback.
    MvScenario s;
    s.n = 32;
    s.t = 10;
    s.adversary = MvAdversaryKind::WorstCaseInner;
    s.inputs = MvInputPattern::Distinct;
    s.fallback = 0x0D0D;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const MvTrialResult r = run_mv_trial(s, seed);
        EXPECT_TRUE(r.agreement);
        ASSERT_TRUE(r.agreed_word.has_value());
        if (!r.decided_real) {
            EXPECT_EQ(*r.agreed_word, 0x0D0Du);
        }
    }
}

TEST(MultiValued, TwoBlocksNeverInventsAWord) {
    // Agreement may land on either block's word or the fallback — never on
    // an adversary-invented word.
    MvScenario s;
    s.n = 48;
    s.t = 15;
    s.adversary = MvAdversaryKind::PreludePlusWorstCase;
    s.inputs = MvInputPattern::TwoBlocks;
    s.fallback = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const MvTrialResult r = run_mv_trial(s, seed);
        EXPECT_TRUE(r.agreement);
        ASSERT_TRUE(r.agreed_word.has_value());
        const net::Word w = *r.agreed_word;
        EXPECT_TRUE(w == 0xAAAA || w == 0xBBBB || w == 0) << std::hex << w;
    }
}

TEST(MultiValued, LasVegasModeAlwaysAgrees) {
    MvScenario s;
    s.n = 48;
    s.t = 15;
    s.adversary = MvAdversaryKind::PreludePlusWorstCase;
    s.inputs = MvInputPattern::NearQuorum;
    s.las_vegas = true;
    const MvAggregate agg = run_mv_trials(s, 0x1A5, 10);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.not_halted, 0u) << "Las Vegas inner must self-terminate";
}

TEST(MultiValued, RoundsAreBinaryPlusTwo) {
    MvScenario s;
    s.n = 32;
    s.t = 0;
    s.adversary = MvAdversaryKind::None;
    s.inputs = MvInputPattern::AllSame;
    const MvTrialResult r = run_mv_trial(s, 1);
    // Prelude (2) + unanimous binary run (locks immediately: <= 6).
    EXPECT_LE(r.rounds, 8u);
    EXPECT_TRUE(r.all_halted);
}

// --------------------------------------------------------------- composite

TEST(SwitchAdversary, DelegatesByRound) {
    // Chaos for the first 2 rounds, nothing afterwards: corruptions can
    // only happen early.
    auto first = std::make_unique<adv::ChaosAdversary>(adv::ChaosConfig{3, 1.0, 0.5},
                                                       Xoshiro256(3));
    auto second = std::make_unique<net::NullAdversary>();
    adv::SwitchAdversary sw(std::move(first), std::move(second), 2);

    Scenario s;  // reuse the runner's protocol factory via a manual engine
    s.n = 16;
    s.t = 3;
    const SeedTree seeds(9);
    const auto params = core::AgreementParams::compute(16, 3);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    core::arm_skeleton_nodes({16, 3, params.phases, core::AgreementMode::WhpFixedPhases},
                             {core::CoinSpec::Kind::Committee, params.schedule},
                             make_inputs(InputPattern::Split, 16, seeds), seeds, nodes);
    net::Engine eng({16, 3, core::max_rounds_whp(params), true}, std::move(nodes), sw);
    const auto res = eng.run();
    ASSERT_TRUE(res.transcript.has_value());
    for (const auto& round : res.transcript->rounds()) {
        if (round.round >= 2) {
            EXPECT_TRUE(round.new_corruptions.empty());
        }
    }
}

}  // namespace
}  // namespace adba::sim
