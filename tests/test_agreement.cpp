// Algorithm 3 (paper §3.2) end-to-end properties:
//   * Agreement + Validity + termination across a parameterized sweep of
//     (n, t, adversary, input pattern) — the w.h.p. claims of Theorem 2
//     checked as zero failures over fixed seeds;
//   * Lemma 3 invariant (all decided honest nodes share one value, checked
//     every round via the engine observer);
//   * Lemma 4 (a finisher in phase i forces global termination by i+2);
//   * early termination scaling in the actual corruption count q (Theorem 2
//     second clause);
//   * determinism of (scenario, seed).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>

#include "adversary/worst_case.hpp"
#include "core/skeleton.hpp"
#include "net/engine.hpp"
#include "sim/runner.hpp"

namespace adba::sim {
namespace {

using SweepParam = std::tuple<NodeId, Count, AdversaryKind, InputPattern>;

class AgreementSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AgreementSweep, AgreementValidityTermination) {
    const auto [n, t, adversary, inputs] = GetParam();
    Scenario s;
    s.n = n;
    s.t = t;
    s.protocol = ProtocolKind::Ours;
    s.adversary = adversary;
    s.inputs = inputs;
    const Count trials = 5;
    const Aggregate agg = run_trials(s, /*base_seed=*/0xA93ull + n * 1315423911ull + t,
                                     trials);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.validity_failures, 0u);
    EXPECT_EQ(agg.not_halted, 0u);
}

constexpr Count max_t(NodeId n) { return (n - 1) / 3; }

INSTANTIATE_TEST_SUITE_P(
    GridSmall, AgreementSweep,
    ::testing::Combine(::testing::Values<NodeId>(16, 32),
                       ::testing::Values<Count>(0, 1, 5),
                       ::testing::Values(AdversaryKind::None, AdversaryKind::Static,
                                         AdversaryKind::SplitVote, AdversaryKind::Chaos,
                                         AdversaryKind::CrashRandom,
                                         AdversaryKind::CrashTargetedCoin,
                                         AdversaryKind::WorstCase),
                       ::testing::Values(InputPattern::AllZero, InputPattern::AllOne,
                                         InputPattern::Split, InputPattern::Random)));

INSTANTIATE_TEST_SUITE_P(
    GridMedium, AgreementSweep,
    ::testing::Combine(::testing::Values<NodeId>(64),
                       ::testing::Values<Count>(1, 8, max_t(64)),
                       ::testing::Values(AdversaryKind::SplitVote,
                                         AdversaryKind::CrashTargetedCoin,
                                         AdversaryKind::WorstCase),
                       ::testing::Values(InputPattern::AllOne, InputPattern::Split,
                                         InputPattern::Random)));

INSTANTIATE_TEST_SUITE_P(
    GridLargeWorstCase, AgreementSweep,
    ::testing::Combine(::testing::Values<NodeId>(128),
                       ::testing::Values<Count>(12, max_t(128)),
                       ::testing::Values(AdversaryKind::WorstCase),
                       ::testing::Values(InputPattern::Split)));

// --------------------------------------------------------------- Las Vegas

class LasVegasSweep : public ::testing::TestWithParam<std::tuple<NodeId, Count>> {};

TEST_P(LasVegasSweep, AlwaysAgreesAndTerminates) {
    const auto [n, t] = GetParam();
    Scenario s;
    s.n = n;
    s.t = t;
    s.protocol = ProtocolKind::OursLasVegas;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    const Aggregate agg = run_trials(s, 0xBEEF, 8);
    EXPECT_EQ(agg.agreement_failures, 0u);
    EXPECT_EQ(agg.not_halted, 0u) << "Las Vegas must self-terminate";
}

INSTANTIATE_TEST_SUITE_P(Grid, LasVegasSweep,
                         ::testing::Combine(::testing::Values<NodeId>(32, 64, 96),
                                            ::testing::Values<Count>(2, 10)));

// ------------------------------------------------------- Lemma-level tests

/// Runs one trial with an observer asserting the global decided-value
/// invariant (Lemma 3 closure): at every round boundary, all decided honest
/// nodes hold the same value.
void run_with_lemma3_observer(NodeId n, Count t, std::uint64_t seed) {
    const SeedTree seeds(seed);
    const auto params = core::AgreementParams::compute(n, t);
    const auto inputs = make_inputs(InputPattern::Split, n, seeds);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    core::arm_skeleton_nodes({n, t, params.phases, core::AgreementMode::WhpFixedPhases},
                             {core::CoinSpec::Kind::Committee, params.schedule}, inputs,
                             seeds, nodes);
    adv::WorstCaseAdversary adversary({t, t, params.schedule, true});
    net::Engine engine({n, t, core::max_rounds_whp(params), false}, std::move(nodes),
                       adversary);

    engine.set_round_observer([&](Round, const auto& live_nodes, const auto& honest) {
        std::optional<Bit> decided_value;
        for (NodeId v = 0; v < live_nodes.size(); ++v) {
            if (!honest[v]) continue;
            const auto* node =
                dynamic_cast<const core::RabinSkeletonNode*>(live_nodes[v].get());
            ASSERT_NE(node, nullptr);
            if (node->current_decided()) {
                if (!decided_value) {
                    decided_value = node->current_value();
                } else {
                    ASSERT_EQ(*decided_value, node->current_value())
                        << "Lemma 3 violated: two honest decided values";
                }
            }
        }
    });
    engine.run();
}

TEST(Lemma3, DecidedHonestNodesAlwaysShareValue) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        run_with_lemma3_observer(64, 21, 0x33 + seed);
        run_with_lemma3_observer(32, 10, 0x55 + seed);
    }
}

TEST(Lemma4, FinisherForcesTerminationWithinTwoPhases) {
    // Track the earliest finish phase; every honest node must halt by the
    // end of phase i+2 (engine round 2*(i+3)) with the same output.
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
        const NodeId n = 48;
        const Count t = 15;
        const SeedTree seeds(0x77 + seed);
        const auto params = core::AgreementParams::compute(n, t);
        const auto inputs = make_inputs(InputPattern::Random, n, seeds);
        std::vector<std::unique_ptr<net::HonestNode>> nodes;
        core::arm_skeleton_nodes({n, t, params.phases, core::AgreementMode::WhpFixedPhases},
                                 {core::CoinSpec::Kind::Committee, params.schedule}, inputs,
                                 seeds, nodes);
        std::vector<const core::RabinSkeletonNode*> raw;
        for (const auto& p : nodes)
            raw.push_back(dynamic_cast<const core::RabinSkeletonNode*>(p.get()));
        adv::WorstCaseAdversary adversary({t, t, params.schedule, true});
        net::Engine engine({n, t, core::max_rounds_whp(params), false}, std::move(nodes),
                           adversary);
        const auto res = engine.run();

        std::optional<Phase> first_finish;
        for (NodeId v = 0; v < n; ++v) {
            if (!res.honest[v]) continue;
            if (const auto fp = raw[v]->finish_phase()) {
                if (!first_finish || *fp < *first_finish) first_finish = *fp;
            }
        }
        if (first_finish) {
            EXPECT_TRUE(res.all_halted);
            EXPECT_LE(res.rounds, 2 * (*first_finish + 3));
            EXPECT_TRUE(res.agreement());
            // Every finisher agrees with the global output.
            for (NodeId v = 0; v < n; ++v) {
                if (!res.honest[v]) continue;
                if (raw[v]->finish_phase()) {
                    EXPECT_EQ(res.outputs[v], *res.agreed_value());
                }
            }
        }
    }
}

TEST(Lemma2, UnanimousHonestInputLocksInOnePhaseRegardlessOfAdversary) {
    // All inputs b: every honest node decides b in phase 0 and the protocol
    // finishes within the first three phases — the adversary cannot block
    // the n-t quorum (blocking costs t+1 corruptions).
    for (AdversaryKind adv : {AdversaryKind::WorstCase, AdversaryKind::SplitVote,
                              AdversaryKind::CrashTargetedCoin}) {
        Scenario s;
        s.n = 64;
        s.t = 21;
        s.protocol = ProtocolKind::Ours;
        s.adversary = adv;
        s.inputs = InputPattern::AllOne;
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
            const TrialResult r = run_trial(s, 0x99 + seed);
            EXPECT_TRUE(r.agreement);
            EXPECT_TRUE(r.validity_ok);
            EXPECT_LE(r.rounds, 8u) << "unanimous input must lock immediately";
        }
    }
}

// ------------------------------------------------------- early termination

TEST(EarlyTermination, RoundsScaleWithActualCorruptionsQ) {
    // Theorem 2, second clause: q < t actual corruptions give
    // O(min(q^2 log n / n, q / log n)) rounds — measured as monotone growth
    // in q and quick termination at q=0, with budget t fixed.
    const NodeId n = 128;
    const Count t = 42;
    Samples by_q[4];
    const Count qs[4] = {0, 4, 12, 30};
    for (int qi = 0; qi < 4; ++qi) {
        Scenario s;
        s.n = n;
        s.t = t;
        s.q = qs[qi];
        s.protocol = ProtocolKind::Ours;
        s.adversary = AdversaryKind::WorstCase;
        s.inputs = InputPattern::Split;
        const Aggregate agg = run_trials(s, 0xE1, 12);
        EXPECT_EQ(agg.agreement_failures, 0u) << "q=" << qs[qi];
        by_q[qi] = agg.rounds;
    }
    // q=0: first phase is good -> terminate in 6 rounds flat.
    EXPECT_LE(by_q[0].max(), 6.0);
    // Monotone in expectation (generous noise margin).
    EXPECT_LE(by_q[0].mean(), by_q[2].mean());
    EXPECT_LE(by_q[1].mean(), by_q[3].mean() + 2.0);
    // The adversary cannot stretch the run beyond ~2 phases per corruption.
    EXPECT_LE(by_q[3].max(), 2.0 * (2 * 30 + 8));
}

// ------------------------------------------------------------- determinism

TEST(Determinism, SameSeedSameTrajectory) {
    Scenario s;
    s.n = 64;
    s.t = 20;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Random;
    for (std::uint64_t seed : {1ull, 42ull, 0xDEADull}) {
        const TrialResult a = run_trial(s, seed);
        const TrialResult b = run_trial(s, seed);
        EXPECT_EQ(a.rounds, b.rounds);
        EXPECT_EQ(a.agreement, b.agreement);
        EXPECT_EQ(a.agreed_value, b.agreed_value);
        EXPECT_EQ(a.metrics.honest_messages, b.metrics.honest_messages);
        EXPECT_EQ(a.metrics.honest_bits, b.metrics.honest_bits);
        EXPECT_EQ(a.metrics.corruptions, b.metrics.corruptions);
    }
}

TEST(Determinism, DifferentSeedsDifferentCoinOutcomes) {
    Scenario s;
    s.n = 64;
    s.t = 20;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    std::set<Round> rounds_seen;
    for (std::uint64_t seed = 0; seed < 12; ++seed)
        rounds_seen.insert(run_trial(s, seed).rounds);
    EXPECT_GE(rounds_seen.size(), 2u) << "trials should not be degenerate";
}

// ----------------------------------------------------- resource accounting

TEST(Accounting, MessageCountBoundedByBroadcasts) {
    Scenario s;
    s.n = 64;
    s.t = 10;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    const TrialResult r = run_trial(s, 5);
    const std::uint64_t per_round_cap =
        static_cast<std::uint64_t>(s.n) * (s.n - 1);
    EXPECT_LE(r.metrics.honest_messages, per_round_cap * r.rounds);
    EXPECT_GT(r.metrics.honest_messages, 0u);
    EXPECT_GE(r.metrics.honest_bits, r.metrics.honest_messages * 8);
}

TEST(Accounting, CorruptionsNeverExceedQ) {
    Scenario s;
    s.n = 96;
    s.t = 30;
    s.q = 7;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const TrialResult r = run_trial(s, seed);
        EXPECT_LE(r.metrics.corruptions, 7u);
        EXPECT_TRUE(r.agreement);
    }
}

}  // namespace
}  // namespace adba::sim
