// Edge-case and cross-cutting coverage that the module suites don't reach:
// macro simulator's alternative schedules, coin-runner determinism, engine
// halting interplay, Las Vegas committee cycling, and wire-format corners.
#include <gtest/gtest.h>

#include <set>

#include "baselines/chor_coan.hpp"
#include "core/skeleton.hpp"
#include "net/engine.hpp"
#include "sim/coin_runner.hpp"
#include "sim/macro.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

TEST(MacroExtras, ClassicScheduleRuns) {
    sim::MacroScenario m;
    m.n = 1 << 14;
    m.t = 800;
    m.q = 800;
    m.schedule = sim::MacroScheduleKind::ChorCoanClassic;
    const auto r = sim::run_macro_trial(m, 11);
    EXPECT_GT(r.rounds, 0u);
    EXPECT_LE(r.corruptions, m.q);
    // Classic groups are log-sized regardless of t.
    EXPECT_EQ(r.committee_size, ceil_log2(m.n));
}

TEST(MacroExtras, RushingVsClassicRuinEconomics) {
    // At large n and moderate t the classic schedule's small groups are
    // cheaper to ruin per phase, so the SAME budget ruins more phases =>
    // more rounds (this is the historic protocol's rushing weakness).
    sim::MacroScenario m;
    m.n = 1 << 16;
    m.t = 2000;
    m.q = 2000;
    double classic = 0, rushing = 0;
    for (int i = 0; i < 10; ++i) {
        m.schedule = sim::MacroScheduleKind::ChorCoanClassic;
        classic += static_cast<double>(
            sim::run_macro_trial(m, 200 + static_cast<std::uint64_t>(i)).rounds);
        m.schedule = sim::MacroScheduleKind::ChorCoanRushing;
        rushing += static_cast<double>(
            sim::run_macro_trial(m, 200 + static_cast<std::uint64_t>(i)).rounds);
    }
    EXPECT_GT(classic, rushing);
}

TEST(MacroExtras, BudgetExhaustionReportsFailureHonestly) {
    // Force the w.h.p. failure path: tiny alpha so the adversary can ruin
    // every phase.
    sim::MacroScenario m;
    m.n = 256;
    m.t = 85;
    m.q = 85;
    m.tuning.alpha = 0.0 + 1.0;
    m.tuning.gamma = 0.1;  // near-zero floor
    int failures = 0;
    for (int i = 0; i < 20; ++i) {
        const auto r = sim::run_macro_trial(m, 300 + static_cast<std::uint64_t>(i));
        if (!r.agreement) ++failures;
    }
    EXPECT_GT(failures, 0) << "alpha=1 with no floor must fail sometimes";
}

TEST(CoinRunnerExtras, DeterministicPerSeed) {
    const sim::CoinScenario s{128, 128, 5, adv::CoinAttack::Split, 0};
    const auto a = sim::run_coin_trial(s, 77);
    const auto b = sim::run_coin_trial(s, 77);
    EXPECT_EQ(a.common, b.common);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.attack_feasible, b.attack_feasible);
}

TEST(CoinRunnerExtras, ForceBitPushesConditionalValue) {
    const NodeId n = 256;
    const auto f1 =
        sim::run_coin_trials({n, n, 8, adv::CoinAttack::ForceBit, 1}, 5, 800);
    const auto f0 =
        sim::run_coin_trials({n, n, 8, adv::CoinAttack::ForceBit, 0}, 5, 800);
    EXPECT_GT(f1.p_one_given_common(), 0.6);
    EXPECT_LT(f0.p_one_given_common(), 0.4);
}

TEST(LasVegasExtras, CommitteesCycleBeyondFirstPass) {
    // With a tiny corruption budget the Las Vegas run ends quickly, but the
    // schedule arithmetic must cycle: phase p maps to committee p mod k.
    const auto params = core::AgreementParams::compute(32, 10);
    const auto& sched = params.schedule;
    const Count k = sched.num_blocks;
    for (Phase p = 0; p < 3 * k; ++p)
        EXPECT_EQ(sched.committee_of_phase(p), p % k);
}

TEST(EngineExtras, HaltedNodesStopReceivingButOthersContinue) {
    // Run ours at t=0: all halt simultaneously after the finish flush; the
    // engine must report all_halted and stop early (before max_rounds).
    sim::Scenario s;
    s.n = 32;
    s.t = 0;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::None;
    s.inputs = sim::InputPattern::Split;
    s.max_rounds_override = 100;
    const auto r = sim::run_trial(s, 3);
    EXPECT_TRUE(r.all_halted);
    EXPECT_LT(r.rounds, 100u);
}

TEST(EngineExtras, MaxRoundsOverrideRespected) {
    sim::Scenario s;
    s.n = 32;
    s.t = 10;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.inputs = sim::InputPattern::Split;
    s.max_rounds_override = 4;  // far below the protocol's own budget
    const auto r = sim::run_trial(s, 3);
    EXPECT_LE(r.rounds, 4u);
}

TEST(WireFormat, MessageEqualityIsFieldwise) {
    net::Message a, b;
    a.kind = b.kind = net::MsgKind::Vote2;
    a.val = b.val = 1;
    a.coin = 1;
    b.coin = -1;
    EXPECT_NE(a, b);
    b.coin = 1;
    EXPECT_EQ(a, b);
    b.word = 5;
    EXPECT_NE(a, b);
}

TEST(ChorCoanExtras, RushingCommitteesShrinkWithT) {
    // More faults -> more committees -> smaller committees.
    const NodeId n = 512;
    NodeId prev = n;
    for (Count t : {8u, 32u, 128u, 170u}) {
        const auto p = base::ChorCoanParams::compute_rushing(n, t);
        EXPECT_LE(p.schedule.block, prev) << t;
        prev = p.schedule.block;
    }
}

TEST(ChorCoanExtras, MaxRoundsCoversFlush) {
    const auto p = base::ChorCoanParams::compute_rushing(128, 40);
    EXPECT_GE(base::max_rounds_whp(p), 2 * p.phases + 2);
}

TEST(AggregateExtras, QuantileColumnsAreOrdered) {
    sim::Scenario s;
    s.n = 64;
    s.t = 21;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.inputs = sim::InputPattern::Split;
    const auto agg = sim::run_trials(s, 0xAB, 20);
    EXPECT_LE(agg.rounds.quantile(0.1), agg.rounds.quantile(0.5));
    EXPECT_LE(agg.rounds.quantile(0.5), agg.rounds.quantile(0.9));
    EXPECT_LE(agg.rounds.quantile(0.9), agg.rounds.max());
    EXPECT_GE(agg.rounds.quantile(0.1), agg.rounds.min());
}

TEST(SeedSensitivity, InputsDriveTheTrajectory) {
    // Unanimous inputs lock immediately; split inputs force coin phases —
    // the protocol must actually be reading its inputs. (Split vs Random at
    // balanced proportions genuinely coincide in LENGTH under the worst-case
    // adversary — the trajectory is coin-driven once no bloc has a quorum —
    // so the meaningful contrast is unanimous vs split.)
    sim::Scenario a;
    a.n = 64;
    a.t = 21;
    a.protocol = sim::ProtocolKind::Ours;
    a.adversary = sim::AdversaryKind::WorstCase;
    a.inputs = sim::InputPattern::AllOne;
    sim::Scenario b = a;
    b.inputs = sim::InputPattern::Split;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const auto ra = sim::run_trial(a, seed);
        const auto rb = sim::run_trial(b, seed);
        EXPECT_LT(ra.rounds, rb.rounds) << seed;
        EXPECT_EQ(*ra.agreed_value, 1) << "validity fixes the unanimous outcome";
    }
}

}  // namespace
}  // namespace adba
