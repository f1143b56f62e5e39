// Macro-scale simulator for the asymptotic experiments (E4).
//
// The paper's headline separation (t^2 log n / n vs t / log n) only opens
// up numerically around n >= 2^16 (bench_e4's E4a table). The full-fidelity
// engine reaches that regime too: on its fused plane, `ours` vs
// `worst-case` runs 256 trials at n = 2^20 in 2.6-3.2 s (4-core Xeon VM,
// 4 threads) and agrees with this model within 3% on mean rounds from
// n = 2^12 to 2^20. This module is the cheap test-bed beside it: it
// simulates the SAME protocol semantics restricted to the regime the
// worst-case adversary actually induces from split inputs:
//
//   * no honest node ever passes a vote quorum while the adversary keeps
//     coins split, so every phase is: flip committee coins -> adversary
//     greedily corrupts majority-sign flippers until the equivocation
//     margin covers the honest sum (cost per ruined phase ~ ½ sqrt(s)) ->
//     split values re-balanced;
//   * the first un-ruinable phase produces a common coin, after which
//     quorum blocking is unaffordable (Lemma 2) and the run terminates two
//     phases later (Lemma 4).
//
// Per-phase work is O(committee size) instead of O(n^2) per round, reaching
// n = 2^20 comfortably. A calibration test asserts macro and micro agree on
// mean rounds at overlapping sizes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/params.hpp"
#include "sim/executor.hpp"
#include "sim/workload.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace adba::sim {

enum class MacroScheduleKind : std::uint8_t { Ours, ChorCoanRushing, ChorCoanClassic };

struct MacroScenario {
    std::uint64_t n = 0;
    std::uint64_t t = 0;             ///< protocol budget (threshold parameter)
    std::optional<std::uint64_t> q;  ///< actual corruption cap (default: t)
    MacroScheduleKind schedule = MacroScheduleKind::Ours;
    core::Tuning tuning;

    /// Builds a scenario from a `key=value ...` spec string through the key
    /// table (macro_scenario_keys); unknown keys or names throw
    /// ContractViolation with the accepted alternatives.
    static MacroScenario parse(const std::string& spec);
    /// Canonical spec string, in key-table order;
    /// `MacroScenario::parse(s.describe()) == s`, except that a q set to t (the
    /// same experiment) reads back unset.
    std::string describe() const;

    friend bool operator==(const MacroScenario&, const MacroScenario&) = default;
};

/// The key table of the macro spec (spec_keys.hpp): n, t, q, schedule,
/// alpha, gamma, beta.
const std::vector<SpecKey<MacroScenario>>& macro_scenario_keys();

struct MacroResult {
    std::uint64_t rounds = 0;
    std::uint64_t phases_run = 0;
    std::uint64_t corruptions = 0;
    bool agreement = false;
    std::uint64_t phase_budget = 0;
    std::uint64_t committee_size = 0;
    /// Decided when a phase produced the common coin within the budget;
    /// RoundCapExhausted when the phase budget ran dry (the macro analogue
    /// of hitting max_rounds); Faulted set by the trial kernel only.
    TrialOutcome outcome = TrialOutcome::Decided;
};

MacroResult run_macro_trial(const MacroScenario& s, std::uint64_t seed);

/// Aggregate over macro trials — the macro analogue of sim::Aggregate, so
/// the asymptotic benches go through the same executor as the engine ones.
struct MacroAggregate {
    Count trials = 0;
    Count agreement_failures = 0;
    /// Outcome taxonomy counters (see Aggregate in runner.hpp). The macro
    /// simulator has no watchdog (its trials are microseconds), so only
    /// budget exhaustion and injected faults occur.
    Count cap_exhausted = 0;
    Count faulted = 0;
    Samples rounds;
    Samples phases;
    Samples corruptions;

    /// The fields in journal order (workload.hpp).
    static constexpr auto fields() {
        using A = MacroAggregate;
        return std::tuple{&A::trials, &A::agreement_failures, &A::cap_exhausted,
                          &A::faulted, &A::rounds, &A::phases, &A::corruptions};
    }

    /// Merge in chunk-index order (see Aggregate::merge).
    void merge(const MacroAggregate& other) { merge_fields(*this, other); }
};

/// Macro workload: the asymptotic simulator as a workload.hpp trait. The
/// plan hoists the (seed-independent) committee schedule and phase budget.
struct MacroWorkload {
    using Scenario = MacroScenario;
    using Result = MacroResult;
    using Aggregate = MacroAggregate;
    struct Plan;   ///< schedule + phase budget, hoisted once (macro.cpp)
    class Arena;   ///< stateless beyond the plan reference (macro.cpp)
    static constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;
    static constexpr const char* kName = "macro";

    static Plan make_plan(const Scenario& s);
    static const std::vector<SpecKey<Scenario>>& keys() { return macro_scenario_keys(); }
    static void accumulate(Aggregate& agg, const Result& r);

    static std::vector<std::string> csv_header();
    static std::vector<std::string> csv_row(const Aggregate& agg);
};

/// Runs on the workload-generic kernel; per-trial seeds depend only on
/// (base_seed, index), so results are bit-identical at any thread count.
MacroAggregate run_macro_trials(const MacroScenario& s, std::uint64_t base_seed,
                                Count trials, const ExecutorConfig& exec = {});

/// The macro schedule names (names.hpp; adba_sim --workload=macro
/// --schedule): ours, cc-rushing, cc-classic, each also under its display
/// name, e.g. `ours(macro)`.
const Names<MacroScheduleKind>& macro_schedules();
std::string to_string(MacroScheduleKind k);

/// Macro feasibility: 4 <= n <= 2^32 - 1, t < n/3, q <= t, and alpha >= 1
/// under the `ours` schedule (core::why_bad_tuning). Returns an
/// actionable message; make_plan throws it as a ContractViolation.
std::optional<std::string> why_incompatible(const MacroScenario& s);
bool compatible(const MacroScenario& s);

}  // namespace adba::sim
