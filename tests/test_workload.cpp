// Workload-kernel tests: the ordering contract of the ONE pooled-arena
// executor loop (sim/workload.hpp), pinned as a prefix-split/merge property
// over all four workloads — running [0, N) as chunks [0, k), [k, 2k), ...
// at any thread count merges bit-identically to the serial aggregate — plus
// the multi-valued scenario parity added with the kernel (parse/describe
// round-trips, the hoisted MvScenarioPlan, the q cap, engine toggles) and
// the workload directory behind `adba_sim --workload=...`.
#include <gtest/gtest.h>

#include "sim/macro.hpp"
#include "sim/registry.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/workload.hpp"
#include "support/contracts.hpp"

namespace adba::sim {
namespace {

void expect_samples_identical(const Samples& a, const Samples& b) {
    ASSERT_EQ(a.count(), b.count());
    const auto& xa = a.values();
    const auto& xb = b.values();
    for (std::size_t i = 0; i < xa.size(); ++i) EXPECT_EQ(xa[i], xb[i]) << "i=" << i;
}

// ------------------------------------------- prefix-split/merge properties
//
// For each workload: the serial aggregate over N trials must be reproduced
// bit-identically by every prefix split k (chunk size k forces the kernel
// to produce partials A[0,k), A[k,2k), ... and merge them in chunk order)
// at every thread count. This pins the kernel's ordering contract: seeds
// are index-derived, chunks run in index order, merges happen in chunk
// order — for ALL four workloads, not just the binary one.

constexpr Count kTrials = 12;
constexpr Count kSplits[] = {1, 2, 3, 5, 7, 11};
constexpr unsigned kThreads[] = {2, 4, 8};

TEST(WorkloadKernel, BinaryPrefixSplitMergeMatchesSerial) {
    Scenario s;
    s.n = 24;
    s.t = 6;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    const Aggregate serial = run_trials(s, 0x51AB, kTrials, ExecutorConfig{1});
    for (unsigned threads : kThreads) {
        for (Count k : kSplits) {
            const Aggregate part =
                run_trials(s, 0x51AB, kTrials, ExecutorConfig{threads, k});
            EXPECT_EQ(part.trials, serial.trials) << threads << "x" << k;
            EXPECT_EQ(part.agreement_failures, serial.agreement_failures);
            EXPECT_EQ(part.validity_failures, serial.validity_failures);
            EXPECT_EQ(part.not_halted, serial.not_halted);
            expect_samples_identical(part.rounds, serial.rounds);
            expect_samples_identical(part.messages, serial.messages);
            expect_samples_identical(part.bits, serial.bits);
            expect_samples_identical(part.corruptions, serial.corruptions);
        }
    }
}

TEST(WorkloadKernel, CoinPrefixSplitMergeMatchesSerial) {
    const CoinScenario s{64, 64, 4, adv::CoinAttack::Split, 0};
    const CoinAggregate serial = run_coin_trials(s, 0xC0, 60, ExecutorConfig{1});
    for (unsigned threads : kThreads) {
        for (Count k : kSplits) {
            const CoinAggregate part =
                run_coin_trials(s, 0xC0, 60, ExecutorConfig{threads, k});
            EXPECT_EQ(part.trials, serial.trials) << threads << "x" << k;
            EXPECT_EQ(part.common, serial.common);
            EXPECT_EQ(part.common_ones, serial.common_ones);
            EXPECT_EQ(part.attack_feasible, serial.attack_feasible);
        }
    }
}

TEST(WorkloadKernel, MvPrefixSplitMergeMatchesSerial) {
    MvScenario s;
    s.n = 16;
    s.t = 5;
    s.inputs = MvInputPattern::TwoBlocks;
    s.adversary = MvAdversaryKind::WorstCaseInner;
    const MvAggregate serial = run_mv_trials(s, 0x3D5, 8, ExecutorConfig{1});
    for (unsigned threads : kThreads) {
        for (Count k : {1u, 3u, 5u}) {
            const MvAggregate part =
                run_mv_trials(s, 0x3D5, 8, ExecutorConfig{threads, k});
            EXPECT_EQ(part.trials, serial.trials) << threads << "x" << k;
            EXPECT_EQ(part.agreement_failures, serial.agreement_failures);
            EXPECT_EQ(part.validity_failures, serial.validity_failures);
            EXPECT_EQ(part.not_halted, serial.not_halted);
            EXPECT_EQ(part.decided_real, serial.decided_real);
            expect_samples_identical(part.rounds, serial.rounds);
        }
    }
}

TEST(WorkloadKernel, MacroPrefixSplitMergeMatchesSerial) {
    MacroScenario m;
    m.n = 4096;
    m.t = 300;
    m.q = 300;
    const MacroAggregate serial = run_macro_trials(m, 0xA51, 32, ExecutorConfig{1});
    for (unsigned threads : kThreads) {
        for (Count k : kSplits) {
            const MacroAggregate part =
                run_macro_trials(m, 0xA51, 32, ExecutorConfig{threads, k});
            EXPECT_EQ(part.trials, serial.trials) << threads << "x" << k;
            EXPECT_EQ(part.agreement_failures, serial.agreement_failures);
            expect_samples_identical(part.rounds, serial.rounds);
            expect_samples_identical(part.phases, serial.phases);
            expect_samples_identical(part.corruptions, serial.corruptions);
        }
    }
}

// One-shot paths agree with the kernel at matching seeds: trial i of a
// pooled run equals run_*_trial at the workload's index-derived seed.
TEST(WorkloadKernel, OneShotTrialMatchesPooledIndexSeed) {
    Scenario s;
    s.n = 24;
    s.t = 6;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::WorstCase;
    s.inputs = InputPattern::Split;
    const Aggregate agg = run_trials(s, 0xF00, 4, ExecutorConfig{1});
    for (Count i = 0; i < 4; ++i) {
        const TrialResult r =
            run_trial(s, mix64(0xF00 + BinaryWorkload::kSeedStride * i));
        EXPECT_EQ(static_cast<double>(r.rounds), agg.rounds.values()[i]) << i;
    }
}

// ------------------------------------------------------ mv scenario parity

TEST(MvScenario, DescribeParseRoundTripsDefaults) {
    MvScenario s;
    s.n = 64;
    s.t = 21;
    EXPECT_EQ(MvScenario::parse(s.describe()), s);
}

TEST(MvScenario, DescribeParseRoundTripsEveryField) {
    MvScenario s;
    s.n = 96;
    s.t = 31;
    s.q = 10;
    s.inputs = MvInputPattern::NearQuorum;
    s.adversary = MvAdversaryKind::PreludePlusWorstCase;
    s.tuning.alpha = 7.5;
    s.tuning.gamma = 2.25;
    s.tuning.beta = 1.125;
    s.fallback = 0xBEEF;
    s.las_vegas = true;
    s.reference_delivery = true;
    s.use_simd = false;
    s.watchdog_ms = 250;
    const std::string spec = s.describe();
    EXPECT_EQ(MvScenario::parse(spec), s) << spec;
    // Every key of the table is off its default above; alone off its
    // default, each key round-trips and is written as `key=value`.
    EXPECT_EQ(mv_scenario_keys().size(), 13u);
    for (const SpecKey<MvScenario>& key : mv_scenario_keys()) {
        EXPECT_FALSE(key.at_default(s)) << key.name << ": set it off its default above";
        MvScenario one;
        key.parse(one, key.name, key.value(s));
        EXPECT_FALSE(key.at_default(one)) << key.name;
        EXPECT_EQ(MvScenario::parse(one.describe()), one) << one.describe();
        EXPECT_NE((" " + one.describe() + " ").find(" " + key.name + "=" + key.value(s) + " "),
                  std::string::npos)
            << one.describe();
    }
}

TEST(MvScenario, RoundTripsForEveryInputAndAdversary) {
    for (const auto* e : MvAdversaryRegistry::instance().list()) {
        for (const MvInputPattern p :
             {MvInputPattern::AllSame, MvInputPattern::TwoBlocks,
              MvInputPattern::Distinct, MvInputPattern::RandomTiny,
              MvInputPattern::NearQuorum}) {
            MvScenario s;
            s.n = 32;
            s.t = 9;
            s.inputs = p;
            s.adversary = e->kind;
            EXPECT_EQ(MvScenario::parse(s.describe()), s) << s.describe();
        }
    }
}

TEST(MvScenario, ParseRejectsUnknownKeysAndNames) {
    EXPECT_THROW(MvScenario::parse("protocol=ours"), ContractViolation);
    EXPECT_THROW(MvScenario::parse("adversary=worst-case"), ContractViolation);
    EXPECT_THROW(MvScenario::parse("inputs=split"), ContractViolation);
}

TEST(MvScenario, QAboveBudgetIsRejected) {
    MvScenario s;
    s.n = 32;
    s.t = 9;
    s.q = 10;
    EXPECT_FALSE(compatible(s));
    EXPECT_THROW(validate(s), ContractViolation);
    s.q = 9;
    EXPECT_TRUE(compatible(s));
}

TEST(MvScenario, ResilienceBoundIsRejected) {
    MvScenario s;
    s.n = 30;
    s.t = 10;  // 3t == n
    EXPECT_FALSE(compatible(s));
    const auto why = why_incompatible(s);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("t < n/3"), std::string::npos);
}

// q defaults to t, so setting q = t explicitly must not change the run.
TEST(MvScenario, QDefaultMatchesExplicitFullBudget) {
    MvScenario a;
    a.n = 16;
    a.t = 5;
    a.inputs = MvInputPattern::NearQuorum;
    a.adversary = MvAdversaryKind::PreludePlusWorstCase;
    MvScenario b = a;
    b.q = a.t;
    const MvAggregate ra = run_mv_trials(a, 7, 6, ExecutorConfig{1});
    const MvAggregate rb = run_mv_trials(b, 7, 6, ExecutorConfig{1});
    EXPECT_EQ(ra.agreement_failures, rb.agreement_failures);
    EXPECT_EQ(ra.decided_real, rb.decided_real);
    expect_samples_identical(ra.rounds, rb.rounds);
}

// q=0 disarms even the prelude+worst-case adversary: honest-only run.
TEST(MvScenario, QZeroDisarmsAdversary) {
    MvScenario armed;
    armed.n = 24;
    armed.t = 7;
    armed.inputs = MvInputPattern::NearQuorum;
    armed.adversary = MvAdversaryKind::PreludePlusWorstCase;
    MvScenario disarmed = armed;
    disarmed.q = 0;
    MvScenario honest = armed;
    honest.adversary = MvAdversaryKind::None;
    const MvAggregate rd = run_mv_trials(disarmed, 11, 5, ExecutorConfig{1});
    const MvAggregate rh = run_mv_trials(honest, 11, 5, ExecutorConfig{1});
    EXPECT_EQ(rd.agreement_failures, 0u);
    expect_samples_identical(rd.rounds, rh.rounds);
}

// The reference delivery oracle must agree with the flat plane, mv included.
TEST(MvScenario, ReferenceDeliveryMatchesFlatPlane) {
    MvScenario flat;
    flat.n = 16;
    flat.t = 5;
    flat.inputs = MvInputPattern::NearQuorum;
    flat.adversary = MvAdversaryKind::PreludePlusWorstCase;
    MvScenario ref = flat;
    ref.reference_delivery = true;
    const MvAggregate rf = run_mv_trials(flat, 13, 5, ExecutorConfig{1});
    const MvAggregate rr = run_mv_trials(ref, 13, 5, ExecutorConfig{1});
    EXPECT_EQ(rf.agreement_failures, rr.agreement_failures);
    EXPECT_EQ(rf.decided_real, rr.decided_real);
    expect_samples_identical(rf.rounds, rr.rounds);
}

// The hoisted plan path is the one-shot path.
TEST(MvScenario, PlanPathMatchesScenarioPath) {
    MvScenario s;
    s.n = 16;
    s.t = 5;
    s.inputs = MvInputPattern::TwoBlocks;
    const MvScenarioPlan plan = validate(s);
    for (std::uint64_t seed : {1ull, 99ull}) {
        const MvTrialResult a = run_mv_trial(plan, seed);
        const MvTrialResult b = run_mv_trial(s, seed);
        EXPECT_EQ(a.rounds, b.rounds);
        EXPECT_EQ(a.agreement, b.agreement);
        EXPECT_EQ(a.agreed_word, b.agreed_word);
    }
}

// ---------------------------------------------- coin/macro feasibility

TEST(CoinScenarioChecks, InfeasibleCommitteeIsActionable) {
    const CoinScenario s{64, 100, 2, adv::CoinAttack::Split, 0};
    EXPECT_FALSE(compatible(s));
    const auto why = why_incompatible(s);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("1 <= k <= n"), std::string::npos);
    EXPECT_THROW(run_coin_trials(s, 1, 5), ContractViolation);
    EXPECT_THROW(run_coin_trial(s, 1), ContractViolation);
    EXPECT_TRUE(compatible(CoinScenario{64, 64, 2, adv::CoinAttack::Split, 0}));
}

TEST(CoinScenarioChecks, MoreCorruptionsThanNodesAreRejected) {
    // f = n corrupts every flipper; one more has no node to corrupt.
    EXPECT_TRUE(compatible(CoinScenario{64, 64, 64, adv::CoinAttack::Split, 0}));
    for (const Count f : {Count{65}, Count{100}, ~Count{0}}) {
        const CoinScenario s{64, 64, f, adv::CoinAttack::Split, 0};
        const auto why = why_incompatible(s);
        ASSERT_TRUE(why.has_value()) << "f=" << f;
        EXPECT_EQ(*why, "coin scenario needs f <= n corruptions (got f=" + std::to_string(f) +
                            ", n=64)");
        EXPECT_THROW(run_coin_trial(s, 1), ContractViolation);
    }
}

TEST(MacroScenarioChecks, InfeasibleParametersAreActionable) {
    MacroScenario m;
    m.n = 4096;
    m.t = 2000;  // 3t >= n
    m.q = 100;
    EXPECT_FALSE(compatible(m));
    EXPECT_NE(why_incompatible(m)->find("t < n/3"), std::string::npos);
    m.t = 300;
    m.q = 400;  // q > t
    EXPECT_FALSE(compatible(m));
    EXPECT_NE(why_incompatible(m)->find("q must not exceed"), std::string::npos);
    EXPECT_THROW(run_macro_trials(m, 1, 4), ContractViolation);
    m.q = 300;
    EXPECT_TRUE(compatible(m));
}

// ------------------------------------------------------ workload directory

TEST(WorkloadDirectory, ListsAllFourWorkloads) {
    const auto all = workloads().list();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0]->name, "binary");
    EXPECT_EQ(all[1]->name, "coin");
    EXPECT_EQ(all[2]->name, "mv");
    EXPECT_EQ(all[3]->name, "macro");
}

TEST(WorkloadDirectory, FindsByAliasCaseInsensitive) {
    EXPECT_EQ(workloads().at("Turpin-Coan").name, "mv");
    EXPECT_EQ(workloads().at("multivalued").name, "mv");
    EXPECT_EQ(workloads().at("BIN").name, "binary");
    EXPECT_EQ(workloads().at("asymptotic").kind, WorkloadKind::Macro);
    EXPECT_EQ(workloads().find("no-such-thing"), nullptr);
}

TEST(WorkloadDirectory, UnknownNameGetsDidYouMean) {
    try {
        workloads().at("macor");
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("did you mean 'macro'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("binary"), std::string::npos) << msg;
    }
}

// ------------------------------------------------------ uniform CSV schema

TEST(Report, SweepCsvTablesShareTheLabelColumnAndWorkloadSchema) {
    SweepGrid g;
    g.base.n = 24;
    g.base.t = 6;
    g.ts = {4, 6};
    const Table bt = sweep_csv_table("b", run_sweep(g, 1, 3, ExecutorConfig{1}));
    EXPECT_EQ(bt.rows(), 2u);
    EXPECT_NE(bt.to_csv().find("label,trials,agree_pct"), std::string::npos);

    CoinSweepGrid cg;
    cg.ns = {32};
    cg.fs = {0, 2};
    const Table ct = sweep_csv_table("c", run_coin_sweep(cg, 1, 40, ExecutorConfig{1}));
    EXPECT_EQ(ct.rows(), 2u);
    EXPECT_NE(ct.to_csv().find("label,trials,faulted,p_common"), std::string::npos);

    MvSweepGrid mg;
    mg.base.n = 16;
    mg.base.t = 5;
    mg.adversaries = {MvAdversaryKind::None, MvAdversaryKind::WorstCaseInner};
    const Table mt = sweep_csv_table("m", run_mv_sweep(mg, 1, 3, ExecutorConfig{1}));
    EXPECT_EQ(mt.rows(), 2u);
    EXPECT_NE(mt.to_csv().find("label,trials,agree_pct"), std::string::npos);

    MacroScenario ms;
    ms.n = 1 << 12;
    ms.t = 64;
    ms.q = 64;
    const Table at = csv_table(
        "a", {{"n=4096", run_macro_trials(ms, 1, 8, ExecutorConfig{1})}});
    EXPECT_EQ(at.rows(), 1u);
    EXPECT_NE(at.to_csv().find("label,trials,agree_pct"), std::string::npos);
}

}  // namespace
}  // namespace adba::sim
