// Common-coin tests (paper §3.1): Theorem 3 and Corollary 1 as measurable
// properties, plus the rushing coin-ruin adversary's mechanics.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "rand/rng.hpp"
#include "sim/coin_runner.hpp"
#include "support/math.hpp"

namespace adba::sim {
namespace {

CoinScenario alg1(NodeId n, Count f, adv::CoinAttack attack = adv::CoinAttack::Split,
                  Bit forced = 0) {
    return CoinScenario{n, n, f, attack, forced};
}

TEST(CommonCoin, NoAdversaryAlwaysCommon) {
    for (NodeId n : {4u, 5u, 64u, 129u}) {
        const auto agg = run_coin_trials(alg1(n, 0), /*base_seed=*/1, /*trials=*/200);
        EXPECT_EQ(agg.common, agg.trials) << "n=" << n;
    }
}

TEST(CommonCoin, NoAdversaryValueIsFair) {
    const auto agg = run_coin_trials(alg1(101, 0), 2, 4000);
    // Odd n: no ties, so P(1) should be ~1/2. 4000 trials, sd ~ 0.0079.
    EXPECT_NEAR(agg.p_one_given_common(), 0.5, 0.05);
}

TEST(CommonCoin, TieBreaksToOne) {
    // n=2: sum is -2, 0, or +2; sum 0 (prob 1/2) -> both output 1 by the
    // >= 0 rule; sum ±2 -> unanimous anyway. Always common.
    const auto agg = run_coin_trials(alg1(2, 0), 3, 500);
    EXPECT_EQ(agg.common, agg.trials);
    // P(value=1) = P(sum>=0) = 3/4 for two fair ±1 flips.
    EXPECT_NEAR(agg.p_one_given_common(), 0.75, 0.06);
}

TEST(CommonCoin, Theorem3CommonnessUnderHalfSqrtN) {
    // f = ½ sqrt(n) adaptive rushing corruptions: P(common) must stay above
    // a constant (Definition 2(A)). The paper's proof-level constant is 1/6
    // (1/12 per tail); the measured value against the OPTIMAL greedy rushing
    // adversary converges to 2·Φ̄(1) ≈ 0.317, since each corruption both
    // removes a majority flip and adds an equivocator (margin 2 per
    // corruption), so commonness needs |S| >= 2f ≈ sqrt(n) ≈ one stddev.
    // bench_e1 prints the measured curve as the budget sweeps through it.
    for (NodeId n : {64u, 256u, 1024u}) {
        const auto f = static_cast<Count>(isqrt(n) / 2);
        const auto agg = run_coin_trials(alg1(n, f), 5, 1000);
        EXPECT_GE(agg.p_common(), 1.0 / 6.0) << "n=" << n << " f=" << f;
        EXPECT_NEAR(agg.p_common(), 0.317, 0.08) << "n=" << n << " f=" << f;
    }
}

TEST(CommonCoin, PaleyZygmundTailBoundHolds) {
    // Validates the anti-concentration math itself (Theorem 3's engine) on
    // the exact event it bounds: |sum of g fair ±1 flips| > ½ sqrt(n),
    // with g = n - f honest flippers.
    for (NodeId n : {64u, 256u, 1024u}) {
        const auto f = static_cast<Count>(isqrt(n) / 2);
        const NodeId g = n - f;
        const double threshold = 0.5 * std::sqrt(static_cast<double>(n));
        Xoshiro256 rng(n * 977u + 5);
        int hits = 0;
        const int trials = 4000;
        for (int i = 0; i < trials; ++i) {
            std::int64_t s = 0;
            for (NodeId j = 0; j < g; ++j) s += rng.sign();
            if (std::abs(static_cast<double>(s)) > threshold) ++hits;
        }
        const double measured = static_cast<double>(hits) / trials;
        EXPECT_GE(measured, an::coin_common_prob_lower(static_cast<double>(n), f))
            << "n=" << n;
    }
}

TEST(CommonCoin, ConditionalValueBoundedAwayFromZeroOne) {
    // Definition 2(B): epsilon <= P(b=0 | Comm) <= 1-epsilon even under the
    // biasing (ForceBit) attack with f = ½ sqrt(n).
    const NodeId n = 256;
    const Count f = 8;
    for (Bit target : {Bit{0}, Bit{1}}) {
        const auto agg =
            run_coin_trials(alg1(n, f, adv::CoinAttack::ForceBit, target), 7, 1500);
        const double p1 = agg.p_one_given_common();
        EXPECT_GE(p1, 0.05) << "target=" << int(target);
        EXPECT_LE(p1, 0.95) << "target=" << int(target);
    }
}

TEST(CommonCoin, LargeBudgetBreaksCommonness) {
    // With f >> sqrt(n) the rushing split attack almost always succeeds —
    // the theorem's precondition is tight in spirit.
    const NodeId n = 256;
    const auto agg = run_coin_trials(alg1(n, 64), 9, 500);  // f = 4*sqrt(n)
    EXPECT_LE(agg.p_common(), 0.05);
}

TEST(CommonCoin, SuccessDegradesMonotonicallyInBudget) {
    const NodeId n = 400;
    double prev = 1.1;
    for (Count f : {0u, 5u, 10u, 20u, 40u, 80u}) {
        const auto agg = run_coin_trials(alg1(n, f), 11, 600);
        EXPECT_LE(agg.p_common(), prev + 0.06) << "f=" << f;  // noise slack
        prev = agg.p_common();
    }
}

TEST(CommonCoin, AttackFeasibilityPredictsRuin) {
    // When the adversary's own feasibility math says "ruined", the trial
    // must indeed be non-common (the executed attack matches the plan).
    const NodeId n = 196;
    Count feasible_and_common = 0;
    for (std::uint64_t s = 0; s < 400; ++s) {
        const auto t = run_coin_trial(alg1(n, 7), 1000 + s);
        if (t.attack_feasible && t.common) ++feasible_and_common;
    }
    EXPECT_EQ(feasible_and_common, 0u);
}

// ------------------------------------------------------ designated variant

TEST(DesignatedCoin, NonDesignatedNodesStaySilentButAgree) {
    // k designated of n: everyone (including non-flippers) outputs the
    // common value.
    const CoinScenario s{100, 16, 0, adv::CoinAttack::Split, 0};
    const auto agg = run_coin_trials(s, 13, 300);
    EXPECT_EQ(agg.common, agg.trials);
}

TEST(DesignatedCoin, Corollary1HalfSqrtK) {
    // At most ½ sqrt(k) Byzantine among k designated -> common coin.
    const NodeId n = 512;
    for (NodeId k : {16u, 64u, 256u}) {
        const auto f = static_cast<Count>(isqrt(k) / 2);
        const CoinScenario s{n, k, f, adv::CoinAttack::Split, 0};
        const auto agg = run_coin_trials(s, 17, 1500);
        EXPECT_GE(agg.p_common(), 1.0 / 6.0) << "k=" << k;
    }
}

TEST(DesignatedCoin, RuinBudgetScalesWithSqrtKNotSqrtN) {
    // Corrupting ~2 sqrt(k) designated nodes ruins the coin even when n is
    // huge — the committee, not the network, is the defense perimeter.
    const NodeId n = 1024, k = 64;
    const CoinScenario s{n, k, 16, adv::CoinAttack::Split, 0};
    const auto agg = run_coin_trials(s, 19, 400);
    EXPECT_LE(agg.p_common(), 0.1);
}

TEST(DesignatedCoin, SingleDesignatedNodeIsADictatorCoin) {
    // k=1: the lone flipper's value is the coin; still "common" with f=0.
    const CoinScenario s{16, 1, 0, adv::CoinAttack::Split, 0};
    const auto agg = run_coin_trials(s, 23, 300);
    EXPECT_EQ(agg.common, agg.trials);
    EXPECT_NEAR(agg.p_one_given_common(), 0.5, 0.1);
}

// --------------------------------------------------------- theory formulas

TEST(CoinTheory, PaleyZygmundBoundSane) {
    // theta=0 gives E[X]^2/E[X^2]; theta=1 gives 0.
    EXPECT_NEAR(an::paley_zygmund(0.0, 2.0, 8.0), 0.5, 1e-12);
    EXPECT_NEAR(an::paley_zygmund(1.0, 2.0, 8.0), 0.0, 1e-12);
}

TEST(CoinTheory, CommonProbLowerBoundMatchesPaper) {
    // Paper: for g >= n/2, per-tail bound >= 1/12, so total >= 1/6.
    for (double n : {64.0, 1024.0, 65536.0}) {
        const double f = 0.5 * std::sqrt(n);
        const double p = an::coin_common_prob_lower(n, f);
        EXPECT_GE(p, 1.0 / 6.0 - 1e-9) << n;
        EXPECT_LE(p, 1.0) << n;
    }
}

TEST(CoinTheory, CommonProbLowerBoundIsBelowMeasuredSplitRate) {
    // The floor E1a prints must bound what it measures: P(common) under the
    // SPLIT attack at f = ½ sqrt(n), which sits near 0.31 at these shapes.
    for (NodeId n : {64u, 256u, 1024u}) {
        const auto f = static_cast<Count>(isqrt(n) / 2);
        const auto agg = run_coin_trials(alg1(n, f), 7, 1500);
        EXPECT_LE(an::coin_common_prob_lower(n, f), agg.p_common()) << "n=" << n;
    }
}

TEST(CoinTheory, BoundZeroBeyondPrecondition) {
    EXPECT_EQ(an::coin_common_prob_lower(100.0, 6.0), 0.0);  // f > sqrt(100)/2
}

}  // namespace
}  // namespace adba::sim
