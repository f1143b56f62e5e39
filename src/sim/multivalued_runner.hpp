// Trial runner for the multi-valued (Turpin-Coan over Algorithm 3) stack.
// Separate from the binary runner because inputs, outputs, and agreement
// evaluation are over words, not bits — but it is the same Monte-Carlo
// machine, so it rides the workload-generic kernel (sim/workload.hpp) and
// shares the binary stack's scenario machinery: parse/describe
// round-tripping, a hoisted plan and the `q` corruption cap. It always
// steps its per-node Turpin-Coan nodes on the flat plane, over the
// byte-plane tally.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/multivalued.hpp"
#include "sim/executor.hpp"
#include "sim/workload.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace adba::sim {

enum class MvInputPattern : std::uint8_t {
    AllSame,    ///< every node inputs the same word (validity probe)
    TwoBlocks,  ///< half input word A, half word B
    Distinct,   ///< every node inputs its own id (maximal fragmentation)
    RandomTiny, ///< i.i.d. uniform over a 4-word domain
    NearQuorum, ///< 60% share a word — inside the adversary's quorum-boundary
                ///< band (h_w < n-t <= h_w + t), the only regime where the
                ///< Turpin-Coan prelude can be split
};

enum class MvAdversaryKind : std::uint8_t {
    None,
    Chaos,                 ///< fuzzed garbage incl. TC kinds
    WorstCaseInner,        ///< full budget on the embedded Algorithm 3
    PreludePlusWorstCase,  ///< half budget equivocating the prelude, half inner
};

struct MvScenario {
    NodeId n = 0;
    Count t = 0;            ///< protocol fault tolerance / engine budget
    std::optional<Count> q; ///< actual corruptions cap (default: t)
    MvInputPattern inputs = MvInputPattern::TwoBlocks;
    MvAdversaryKind adversary = MvAdversaryKind::WorstCaseInner;
    core::Tuning tuning;
    net::Word fallback = 0;
    bool las_vegas = false;  ///< inner protocol in Las Vegas mode
    /// Per-trial wall-clock watchdog in ms (scenario key `watchdog_ms`);
    /// 0 = off. Same semantics as the binary scenario's key — the guard for
    /// `las_vegas=true` inner protocols whose round cap is generous by
    /// design. Wall-clock dependent, so armed sweeps are not
    /// bit-reproducible.
    std::uint32_t watchdog_ms = 0;

    /// Builds a scenario from a `key=value ...` spec string through the key
    /// table (mv_scenario_keys, registry.hpp), resolving names through the
    /// name tables. Unknown keys or names throw ContractViolation with the
    /// accepted alternatives.
    static MvScenario parse(const std::string& spec);

    /// Canonical spec string, in key-table order;
    /// `MvScenario::parse(s.describe()) == s`, except that a q set to t (the
    /// same experiment) reads back unset.
    std::string describe() const;

    friend bool operator==(const MvScenario&, const MvScenario&) = default;
};

/// The key table of the multi-valued spec (spec_keys.hpp; rows in
/// registry.cpp).
const std::vector<SpecKey<MvScenario>>& mv_scenario_keys();

struct MvTrialResult {
    bool agreement = false;
    std::optional<net::Word> agreed_word;
    bool validity_applicable = false;
    bool validity_ok = true;
    bool all_halted = false;
    bool decided_real = false;  ///< binary outcome 1 (a proposed word won)
    Round rounds = 0;
    /// How the trial ended (support/types.hpp); engine-reported, with
    /// Faulted set by the trial kernel for injected permanent faults.
    TrialOutcome outcome = TrialOutcome::Decided;
};

struct MvScenarioPlan;  // resolved mv registry entry + hoisted parameters
                        // (sim/registry.hpp); product of validate(MvScenario)

MvTrialResult run_mv_trial(const MvScenario& s, std::uint64_t seed);

/// Runs one trial against a pre-validated plan — no registry lookups or
/// parameter recomputation on the hot path. Bit-identical to
/// run_mv_trial(s, seed).
MvTrialResult run_mv_trial(const MvScenarioPlan& plan, std::uint64_t seed);

struct MvAggregate {
    Count trials = 0;
    Count agreement_failures = 0;
    Count validity_failures = 0;
    Count not_halted = 0;
    Count decided_real = 0;
    /// Outcome taxonomy counters (see Aggregate in runner.hpp for the
    /// accounting rules — faulted trials contribute nothing but their count).
    Count cap_exhausted = 0;
    Count watchdog_timeouts = 0;
    Count faulted = 0;
    Samples rounds;

    /// The fields in journal order (workload.hpp).
    static constexpr auto fields() {
        using A = MvAggregate;
        return std::tuple{&A::trials, &A::agreement_failures, &A::validity_failures,
                          &A::not_halted, &A::decided_real, &A::cap_exhausted,
                          &A::watchdog_timeouts, &A::faulted, &A::rounds};
    }

    /// Merge in chunk-index order (see Aggregate::merge).
    void merge(const MvAggregate& other) { merge_fields(*this, other); }
};

/// Multi-valued workload: the Turpin-Coan trial stack as a workload.hpp
/// trait.
struct MvWorkload {
    using Scenario = MvScenario;
    using Result = MvTrialResult;
    using Aggregate = MvAggregate;
    using Plan = MvScenarioPlan;
    class Arena;  ///< pooled Turpin-Coan nodes + engine (multivalued_runner.cpp)
    static constexpr std::uint64_t kSeedStride = 0x9e37ULL;
    static constexpr const char* kName = "mv";

    /// validate(s) + enforce_memory_budget(s) (no sparse fallback exists for
    /// the mv stack, so an over-budget plan is rejected, never adjusted).
    static Plan make_plan(const Scenario& s);
    static const std::vector<SpecKey<Scenario>>& keys() { return mv_scenario_keys(); }
    static void accumulate(Aggregate& agg, const Result& r);

    static std::vector<std::string> csv_header();
    static std::vector<std::string> csv_row(const Aggregate& agg);
};

/// Runs on the workload-generic kernel; bit-identical at any thread count.
MvAggregate run_mv_trials(const MvScenario& s, std::uint64_t base_seed, Count trials,
                          const ExecutorConfig& exec = {});

/// The multi-valued input-pattern names (names.hpp); display names such as
/// `random(4)` are what describe() writes.
const Names<MvInputPattern>& mv_input_patterns();

std::string to_string(MvInputPattern p);
std::string to_string(MvAdversaryKind a);

}  // namespace adba::sim
