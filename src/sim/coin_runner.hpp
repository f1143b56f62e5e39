// Harness for the standalone common-coin experiments (E1/E2): runs
// Algorithm 1/2 against the rushing coin-ruin adversary and estimates
// Definition 2's constants (δ = P(common), ε-band of P(bit=0 | common)).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/coin_ruin.hpp"
#include "sim/executor.hpp"
#include "sim/workload.hpp"
#include "support/types.hpp"

namespace adba::sim {

struct CoinScenario {
    NodeId n = 0;
    NodeId designated = 0;  ///< k flippers (== n for Algorithm 1)
    Count f = 0;            ///< adaptive corruption budget
    adv::CoinAttack attack = adv::CoinAttack::Split;
    Bit forced_bit = 0;     ///< the bit `attack=force-bit` forces: 0 or 1

    /// Builds a scenario from a `key=value ...` spec string through the key
    /// table (coin_scenario_keys); unknown keys or names throw
    /// ContractViolation with the accepted alternatives.
    static CoinScenario parse(const std::string& spec);
    /// Canonical spec string, in key-table order;
    /// `CoinScenario::parse(s.describe()) == s`.
    std::string describe() const;

    friend bool operator==(const CoinScenario&, const CoinScenario&) = default;
};

/// The key table of the coin spec (spec_keys.hpp): n, k, f, attack,
/// forced_bit.
const std::vector<SpecKey<CoinScenario>>& coin_scenario_keys();

struct CoinTrial {
    bool common = false;
    Bit value = 0;          ///< the common bit, when common
    bool attack_feasible = false;
    /// Coin trials run exactly one round and the nodes self-halt, so the
    /// engine always reports Decided; Faulted is set by the trial kernel
    /// for injected permanent faults (sim/faults.hpp).
    TrialOutcome outcome = TrialOutcome::Decided;
};

CoinTrial run_coin_trial(const CoinScenario& s, std::uint64_t seed);

struct CoinAggregate {
    Count trials = 0;
    Count common = 0;
    Count common_ones = 0;   ///< common with value 1
    Count attack_feasible = 0;
    /// Trials consumed by an injected permanent fault; excluded from every
    /// probability estimate's denominator.
    Count faulted = 0;

    double p_common() const;
    /// P(bit = 1 | common); Definition 2(B) wants this in [ε, 1-ε].
    double p_one_given_common() const;

    /// The fields in journal order (workload.hpp).
    static constexpr auto fields() {
        using A = CoinAggregate;
        return std::tuple{&A::trials, &A::common, &A::common_ones, &A::attack_feasible,
                          &A::faulted};
    }

    /// Order-independent (pure counters), kept symmetric with Aggregate.
    void merge(const CoinAggregate& other) { merge_fields(*this, other); }
};

/// Common-coin workload: the standalone Algorithm 1/2 trial stack as a
/// workload.hpp trait. The scenario doubles as the plan — there is nothing
/// to hoist beyond the value itself.
struct CoinWorkload {
    using Scenario = CoinScenario;
    using Result = CoinTrial;
    using Aggregate = CoinAggregate;
    using Plan = CoinScenario;
    class Arena;  ///< pooled coin nodes + engine (coin_runner.cpp)
    static constexpr std::uint64_t kSeedStride = 0x9e3779b1ULL;
    static constexpr const char* kName = "coin";

    static Plan make_plan(const Scenario& s) { return s; }
    static const std::vector<SpecKey<Scenario>>& keys() { return coin_scenario_keys(); }
    static void accumulate(Aggregate& agg, const Result& r);

    static std::vector<std::string> csv_header();
    static std::vector<std::string> csv_row(const Aggregate& agg);
};

/// Runs on the workload-generic kernel (sim/workload.hpp); bit-identical at
/// any thread count (per-trial seeds are an index-only function of
/// base_seed). Throws ContractViolation with the why_incompatible message
/// on an infeasible scenario.
CoinAggregate run_coin_trials(const CoinScenario& s, std::uint64_t base_seed,
                              Count trials, const ExecutorConfig& exec = {});

/// Coin feasibility: needs n > 0, 1 <= k <= n flippers, f <= n and
/// forced_bit in {0, 1}. Returns an actionable message (the adba_sim-facing
/// counterpart of the arena's precondition asserts), nullopt when the
/// scenario can run.
std::optional<std::string> why_incompatible(const CoinScenario& s);
bool compatible(const CoinScenario& s);

/// The coin-attack names (names.hpp; adba_sim --workload=coin --attack).
const Names<adv::CoinAttack>& coin_attacks();
std::string to_string(adv::CoinAttack attack);

}  // namespace adba::sim
