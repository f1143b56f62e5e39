// Sweep-layer tests: grid enumeration order, labels, derived axes, filters
// (with stable row seeds), and equivalence of run_sweep with direct runner
// calls at the row's seed.
#include <gtest/gtest.h>

#include "sim/macro.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/sweep.hpp"
#include "support/contracts.hpp"

namespace adba::sim {
namespace {

TEST(SweepGrid, EmptyAxesYieldSingleBaseRow) {
    SweepGrid g;
    g.base.n = 32;
    g.base.t = 8;
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].scenario.n, 32u);
    EXPECT_EQ(rows[0].scenario.t, 8u);
    EXPECT_EQ(rows[0].index, 0u);
    EXPECT_TRUE(rows[0].label.empty());  // nothing swept, nothing to say
}

TEST(SweepGrid, CrossProductOrderAndLabels) {
    SweepGrid g;
    g.ns = {16, 32};
    g.ts = {2, 4};
    g.protocols = {ProtocolKind::Ours};
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 4u);
    // n is the outer axis, t the inner one.
    EXPECT_EQ(rows[0].scenario.n, 16u);
    EXPECT_EQ(rows[0].scenario.t, 2u);
    EXPECT_EQ(rows[1].scenario.n, 16u);
    EXPECT_EQ(rows[1].scenario.t, 4u);
    EXPECT_EQ(rows[3].scenario.n, 32u);
    EXPECT_EQ(rows[3].scenario.t, 4u);
    EXPECT_EQ(rows[0].label, "n=16 t=2 ours(alg3)");
    EXPECT_EQ(rows[3].label, "n=32 t=4 ours(alg3)");
    for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].index, i);
}

TEST(SweepGrid, TOfNDerivesThePerNBudget) {
    SweepGrid g;
    g.ns = {30, 90};
    g.t_of_n = [](NodeId n) { return static_cast<Count>(n / 3 - 1); };
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].scenario.t, 9u);
    EXPECT_EQ(rows[1].scenario.t, 29u);
}

TEST(SweepGrid, AdversaryOfPairsEachProtocol) {
    SweepGrid g;
    g.protocols = {ProtocolKind::Ours, ProtocolKind::PhaseKing,
                   ProtocolKind::RabinDealer};
    g.adversary_of = strongest_adversary;
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].scenario.adversary, AdversaryKind::WorstCase);
    EXPECT_EQ(rows[1].scenario.adversary, AdversaryKind::KingKiller);
    EXPECT_EQ(rows[2].scenario.adversary, AdversaryKind::SplitVote);
}

TEST(SweepGrid, FilterDropsRowsWithoutShiftingIndices) {
    SweepGrid g;
    g.ts = {1, 2, 3, 4};
    const auto all = g.rows();
    ASSERT_EQ(all.size(), 4u);

    g.filter = [](const Scenario& s) { return s.t % 2 == 0; };
    const auto filtered = g.rows();
    ASSERT_EQ(filtered.size(), 2u);
    // Surviving rows keep their position in the FULL enumeration, so their
    // row seeds (and the other rows' seeds) are unchanged by the filter.
    EXPECT_EQ(filtered[0].scenario.t, 2u);
    EXPECT_EQ(filtered[0].index, 1u);
    EXPECT_EQ(filtered[1].scenario.t, 4u);
    EXPECT_EQ(filtered[1].index, 3u);
    EXPECT_EQ(row_seed(5, filtered[0].index), row_seed(5, all[1].index));
}

TEST(SweepGrid, QAxisSetsActualCorruptions) {
    SweepGrid g;
    g.base.t = 10;
    g.qs = {0, 4};
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_TRUE(rows[0].scenario.q.has_value());
    EXPECT_EQ(*rows[0].scenario.q, 0u);
    EXPECT_EQ(*rows[1].scenario.q, 4u);
    EXPECT_EQ(rows[1].label, "q=4");
}

TEST(Sweep, RunSweepMatchesDirectRunnerCall) {
    SweepGrid g;
    g.base.n = 24;
    g.base.t = 6;
    g.base.protocol = ProtocolKind::Ours;
    g.base.adversary = AdversaryKind::WorstCase;
    g.base.inputs = InputPattern::Split;
    g.ts = {4, 6};
    const auto outcomes = run_sweep(g, 0xABCD, 5);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto& o : outcomes) {
        const Aggregate direct =
            run_trials(o.row.scenario, row_seed(0xABCD, o.row.index), 5);
        EXPECT_EQ(o.agg.rounds.values(), direct.rounds.values());
        EXPECT_EQ(o.agg.agreement_failures, direct.agreement_failures);
    }
}

// ----------------------------------------------------------------- coin grid

TEST(CoinSweepGrid, RatioBudgetsScaleWithCommitteeSqrt) {
    CoinSweepGrid g;
    g.ns = {256};
    g.ks = {16, 64};
    g.f_ratios = {0.0, 0.5};
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].scenario.f, 0u);
    EXPECT_EQ(rows[1].scenario.f, 2u);  // 0.5 * sqrt(16)
    EXPECT_EQ(rows[3].scenario.f, 4u);  // 0.5 * sqrt(64)
    EXPECT_EQ(rows[1].scenario.designated, 16u);
    EXPECT_EQ(rows[1].scenario.n, 256u);
}

TEST(CoinSweepGrid, CommitteesLargerThanNAreSkipped) {
    CoinSweepGrid g;
    g.ns = {64};
    g.ks = {16, 128};
    g.f_ratios = {0.0};
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].scenario.designated, 16u);
    EXPECT_EQ(rows[0].index, 0u);
}

TEST(CoinSweepGrid, KDefaultsToNAndExplicitBudgetsWork) {
    CoinSweepGrid g;
    g.ns = {64, 100};
    g.fs = {0, 3};
    const auto rows = g.rows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].scenario.designated, 64u);
    EXPECT_EQ(rows[1].scenario.f, 3u);
    EXPECT_EQ(rows[2].scenario.designated, 100u);
}

TEST(CoinSweepGrid, RejectsBothBudgetAxes) {
    CoinSweepGrid g;
    g.ns = {64};
    g.f_ratios = {0.5};
    g.fs = {2};
    EXPECT_THROW(g.rows(), ContractViolation);
}

TEST(CoinSweepGrid, RejectsMissingBudgetAxis) {
    // Forgetting both budget axes must fail loudly, not yield zero rows.
    CoinSweepGrid g;
    g.ns = {64};
    EXPECT_THROW(g.rows(), ContractViolation);
}

TEST(CoinSweep, RunCoinSweepMatchesDirectCall) {
    CoinSweepGrid g;
    g.ns = {64};
    g.f_ratios = {0.5};
    const auto outcomes = run_coin_sweep(g, 0x11, 50);
    ASSERT_EQ(outcomes.size(), 1u);
    const CoinAggregate direct =
        run_coin_trials(outcomes[0].row.scenario, row_seed(0x11, 0), 50);
    EXPECT_EQ(outcomes[0].agg.common, direct.common);
    EXPECT_EQ(outcomes[0].agg.common_ones, direct.common_ones);
}

// ---------------------------------------------------------------- mv names

TEST(MvSweep, ToStringCoverage) {
    EXPECT_EQ(to_string(MvInputPattern::NearQuorum), "near-quorum(60%)");
    EXPECT_EQ(to_string(MvAdversaryKind::PreludePlusWorstCase), "prelude+worst-case");
    EXPECT_EQ(to_string(MacroScheduleKind::ChorCoanRushing), "cc-rushing(macro)");
}

}  // namespace
}  // namespace adba::sim
