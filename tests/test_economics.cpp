// Attack-economics property tests: Theorem 2's counting argument says a
// phase coin can only be ruined by ~½·sqrt(s) corruptions, so budget t
// buys ~2t/sqrt(s) ruined phases. These tests measure the adversary's
// actual bill and the resulting round structure, pinning the mechanism the
// whole paper stands on (not just its end-to-end effect).
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/worst_case.hpp"
#include "core/skeleton.hpp"
#include "net/engine.hpp"
#include "sim/inputs.hpp"
#include "sim/runner.hpp"
#include "support/math.hpp"

namespace adba::sim {
namespace {

struct EconomicsRun {
    double corruptions = 0;
    double ruined = 0;
    Round rounds = 0;
    bool agreement = false;
    NodeId committee_size = 0;
};

EconomicsRun run_once(NodeId n, Count t, std::uint64_t seed) {
    const SeedTree seeds(seed);
    const auto params = core::AgreementParams::compute(n, t);
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    core::arm_skeleton_nodes({n, t, params.phases, core::AgreementMode::WhpFixedPhases},
                             {core::CoinSpec::Kind::Committee, params.schedule},
                             make_inputs(InputPattern::Split, n, seeds), seeds, nodes);
    adv::WorstCaseAdversary adversary({t, t, params.schedule, true});
    net::Engine eng({n, t, core::max_rounds_whp(params), false}, std::move(nodes),
                    adversary);
    const auto res = eng.run();
    EconomicsRun out;
    out.corruptions = static_cast<double>(res.metrics.corruptions);
    out.ruined = adversary.phases_ruined();
    out.rounds = res.rounds;
    out.agreement = res.agreement();
    out.committee_size = params.schedule.block;
    return out;
}

TEST(AttackEconomics, RuinCostScalesWithSqrtCommitteeSize) {
    // Mean corruptions per ruined phase must sit in a constant band around
    // 0.4*sqrt(s)+0.5 (E|S|/2 plus rounding): the sqrt law is the paper's
    // entire leverage. Checked across committee sizes differing by 4x.
    struct Cell {
        NodeId n;
        Count t;
    };
    // Committee size s = n / phases; larger t -> smaller committees.
    for (const Cell cell : {Cell{256, 85}, Cell{256, 24}, Cell{1024, 48}}) {
        double corruptions = 0, ruined = 0;
        NodeId s_size = 0;
        for (std::uint64_t seed = 0; seed < 12; ++seed) {
            const auto r = run_once(cell.n, cell.t, 0xEC0 + seed);
            corruptions += r.corruptions;
            ruined += r.ruined;
            s_size = r.committee_size;
        }
        ASSERT_GT(ruined, 0.0);
        const double cost = corruptions / ruined;
        const double predicted = 0.4 * std::sqrt(static_cast<double>(s_size)) + 0.5;
        EXPECT_GE(cost, 0.45 * predicted)
            << "n=" << cell.n << " t=" << cell.t << " s=" << s_size;
        EXPECT_LE(cost, 2.2 * predicted)
            << "n=" << cell.n << " t=" << cell.t << " s=" << s_size;
    }
}

TEST(AttackEconomics, RoundsAreExactlyRuinedPhasesPlusTermination) {
    // Under split inputs the worst-case dynamics are rigid: the adversary
    // ruins phases 0..k-1, phase k is good, everyone decides in k+1 and
    // flushes through k+2 — the engine must report exactly 2(k+3) rounds.
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
        const auto r = run_once(128, 42, 0xEC1 + seed);
        ASSERT_TRUE(r.agreement);
        EXPECT_EQ(r.rounds, 2 * (static_cast<Round>(r.ruined) + 3)) << seed;
    }
}

TEST(AttackEconomics, BudgetCapsRuinedPhases) {
    // Every ruined phase costs >= 1 corruption while committees are fresh,
    // so ruined <= corruptions always at these scales (no committee reuse
    // before budget exhaustion).
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto r = run_once(256, 40, 0xEC2 + seed);
        EXPECT_LE(r.ruined, r.corruptions) << seed;
        EXPECT_LE(r.corruptions, 40.0) << seed;
    }
}

TEST(AttackEconomics, DoublingBudgetRoughlyDoublesRounds) {
    // In the budget-bound regime rounds ~ 2*(q / cost) + O(1): linearity in
    // the budget is the t/log n branch of Theorem 2 made visible.
    double rounds_small = 0, rounds_big = 0;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        Scenario s;
        s.n = 256;
        s.t = 85;
        s.protocol = ProtocolKind::Ours;
        s.adversary = AdversaryKind::WorstCase;
        s.inputs = InputPattern::Split;
        s.q = 20;
        rounds_small += static_cast<double>(run_trial(s, 0xEC3 + seed).rounds);
        s.q = 40;
        rounds_big += static_cast<double>(run_trial(s, 0xEC3 + seed).rounds);
    }
    const double ratio = rounds_big / rounds_small;
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 2.6);
}

}  // namespace
}  // namespace adba::sim
