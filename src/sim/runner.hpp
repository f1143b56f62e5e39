// Trial runner: wires a protocol, an adversary, and an input pattern into
// the engine and aggregates outcomes over seeds. Every experiment binary and
// most tests go through this layer, so a scenario is a pure value and a
// trial a pure function of (scenario, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/params.hpp"
#include "net/engine.hpp"
#include "sim/executor.hpp"
#include "sim/inputs.hpp"
#include "sim/workload.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace adba::sim {

enum class ProtocolKind : std::uint8_t {
    Ours,              ///< Algorithm 3, w.h.p. fixed phases (Theorem 2)
    OursLasVegas,      ///< Algorithm 3, Las Vegas variant (§3.2)
    ChorCoanRushing,   ///< rushing-hardened Chor-Coan (footnote 3 comparator)
    ChorCoanClassic,   ///< historic Θ(log n)-group Chor-Coan
    RabinDealer,       ///< trusted-dealer shared coin (ideal reference)
    LocalCoin,         ///< skeleton with private coins (ablation)
    BenOr,             ///< Ben-Or 1983 proper (t < n/5, private coins)
    PhaseKing,         ///< deterministic 2(t+1)-round baseline (t < n/4)
    SamplingMajority,  ///< APR 2013 sampling-majority drift protocol (§1.3)
};

enum class AdversaryKind : std::uint8_t {
    None,
    Static,             ///< static random set, split-vote behaviour
    SplitVote,          ///< static set, threshold-straddling equivocation
    Chaos,              ///< random corruptions, fuzzed messages
    CrashRandom,        ///< adaptive random crash faults
    CrashTargetedCoin,  ///< BJBO-style adaptive crash attack on the coin
    WorstCase,          ///< schedule-aware rushing attack (the paper's model)
    KingKiller,         ///< adaptive king corruption (Phase-King only)
    Balancer,           ///< drift-cancelling attack (sampling-majority, E11)
};

struct Scenario {
    NodeId n = 0;
    Count t = 0;            ///< protocol fault tolerance / engine budget
    std::optional<Count> q; ///< actual corruptions cap (default: t)
    ProtocolKind protocol = ProtocolKind::Ours;
    AdversaryKind adversary = AdversaryKind::WorstCase;
    InputPattern inputs = InputPattern::Split;
    core::Tuning tuning;
    Count local_coin_phases = 64;      ///< phase budget for LocalCoin / BenOr
    double sampling_kappa = 4.0;       ///< SamplingMajority round budget knob
    Round max_rounds_override = 0;     ///< 0 = protocol-derived default
    /// Written only by perfbench; src/ reads none of it.
    bool record_transcript = false;
    /// Written only by perfbench; src/ reads none of it.
    bool reference_delivery = false;
    /// Step the protocol through its native SoA batch plane when the
    /// registry entry provides one (scenario key `batch`, CLI `--batch`).
    /// `batch=false` forces the per-node adapter — the oracle the native
    /// batches are pinned against.
    bool use_batch = true;
    /// Written only by perfbench; src/ reads none of it.
    bool use_shard = true;
    /// Written only by perfbench; src/ reads none of it.
    bool use_simd = true;
    /// Intra-trial logical shard count (scenario key `intra_threads`).
    /// 0 = policy default: the process-wide `--intra_threads` /
    /// ADBA_INTRA_THREADS setting, else the auto heuristic
    /// (plan_intra_shards). Any value yields bit-identical results; only
    /// wall-clock changes. Shards split only native batches' beats, and
    /// a sharded round builds the word-packed tally; `intra_threads=1`
    /// pins the serial whole-population beats over the byte-plane tally,
    /// the oracle of both.
    Count intra_threads = 0;
    /// Answer receive beats from the sampled sparse delivery plane
    /// (net/sparse_plane.hpp; scenario key `plane=flat|sparse`, CLI
    /// `--plane`). Requires a sparse-capable native batch and `batch=on` —
    /// why_incompatible states the rule.
    /// With `sample_degree >= n` the sparse plane is bit-identical to flat
    /// (the dense oracle mode the equivalence tests pin).
    bool sparse_plane = false;
    /// Per-receiver sampled senders per broadcast under `plane=sparse`
    /// (scenario key `sample_degree`). 0 = the plane's built-in default
    /// (net::kDefaultSampleDegree); ignored under `plane=flat`.
    Count sample_degree = 0;
    /// Topology-stream selector under `plane=sparse` (scenario key
    /// `sparse_seed`, CLI `--sparse_seed`): the SeedTree child index of the
    /// SparseTopology stream, so a recorded sparse experiment can vary its
    /// sampled topology independently of every other randomness source.
    /// 0 (the default) reproduces the pre-key stream exactly.
    std::uint64_t sparse_seed = 0;
    /// Written only by perfbench; src/ reads none of it.
    net::SparseStream sparse_stream = net::SparseStream::Counter;
    /// Co-execute 64 trials per machine word through the fused trial plane
    /// when the plan can (net/fused_plane.hpp; scenario key `fused`, CLI
    /// `--fused`), like `batch`: it engages for a fused-capable protocol
    /// and adversary (registry capability flags) with `batch=on`,
    /// `plane=flat`, `watchdog_ms=0`, no explicit intra-trial shard
    /// count > 1 and a fused arena within any memory budget, on runs and
    /// chunks of at least two trials — why_not_fused and
    /// BinaryWorkload::why_scalar name the reason it does not. `fused=off`
    /// keeps the scalar oracle. Aggregates are
    /// bit-identical to the scalar path at any thread count; trial chunks
    /// split into whole 64-lane blocks plus one partial block, so
    /// checkpoint/resume identity is preserved. The default chunk size is
    /// then a multiple of 64, so only a run's last chunk has a partial
    /// block, and a run of fewer than 64 trials is one partial block.
    bool use_fused = true;
    /// Per-trial wall-clock watchdog in milliseconds (scenario key
    /// `watchdog_ms`, CLI `--watchdog_ms`); 0 = off. Guards the Las Vegas
    /// variants' unbounded round tail: a trial past the deadline stops with
    /// TrialOutcome::WatchdogTimeout instead of spinning toward the
    /// registry's generous round cap. Wall-clock dependent by design, so
    /// armed sweeps are NOT bit-reproducible — leave it off for recorded
    /// experiments.
    std::uint32_t watchdog_ms = 0;

    /// Builds a scenario from a `key=value ...` spec string through the key
    /// table (scenario_keys, registry.hpp), resolving names through the
    /// registries and name tables. Unknown keys or names throw
    /// ContractViolation with the accepted alternatives.
    static Scenario parse(const std::string& spec);

    /// Canonical spec string, in key-table order;
    /// `Scenario::parse(s.describe()) == s`, except that a q set to t (the
    /// same experiment) reads back unset.
    std::string describe() const;

    friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// The key table of the binary spec (spec_keys.hpp; rows in registry.cpp).
const std::vector<SpecKey<Scenario>>& scenario_keys();

struct TrialResult {
    bool agreement = false;
    std::optional<Bit> agreed_value;
    /// Validity check: inputs unanimous -> output must equal that input.
    bool validity_applicable = false;
    bool validity_ok = true;
    bool all_halted = false;
    Round rounds = 0;
    /// How the trial ended (support/types.hpp). Engine-reported for real
    /// runs; the trial kernel sets Faulted for trials consumed by an
    /// injected permanent fault, whose other fields are value-initialized
    /// and excluded from every sample/ratio by accumulate().
    TrialOutcome outcome = TrialOutcome::Decided;
    net::Metrics metrics;
    Count phases_configured = 0;  ///< protocol phase budget actually used
};

struct ScenarioPlan;  // resolved registry entries; defined in sim/registry.hpp

/// Runs one trial; pure function of (scenario, seed).
TrialResult run_trial(const Scenario& s, std::uint64_t seed);

/// Runs one trial against a pre-validated plan — no registry lookups or
/// feasibility checks on the hot path. Bit-identical to run_trial(s, seed).
TrialResult run_trial(const ScenarioPlan& plan, std::uint64_t seed);

/// Aggregate over `trials` seeds derived from base_seed.
struct Aggregate {
    Samples rounds;
    Samples messages;
    Samples bits;
    Samples corruptions;
    Count trials = 0;
    Count agreement_failures = 0;
    Count validity_failures = 0;
    Count not_halted = 0;
    /// Outcome taxonomy counters (support/types.hpp). Every non-Decided
    /// trial lands in exactly one of these; `trials` counts all of them, so
    /// decided = trials - cap_exhausted - watchdog_timeouts - faulted.
    /// Exhausted/timed-out trials still contribute rounds/messages samples
    /// (their cost is real and their non-agreement is already counted);
    /// faulted trials ran nothing and contribute only their count.
    Count cap_exhausted = 0;
    Count watchdog_timeouts = 0;
    Count faulted = 0;

    /// The fields in journal order (workload.hpp): merge, reserve and the
    /// checkpoint codec read this list.
    static constexpr auto fields() {
        using A = Aggregate;
        return std::tuple{&A::trials, &A::agreement_failures, &A::validity_failures,
                          &A::not_halted, &A::cap_exhausted, &A::watchdog_timeouts,
                          &A::faulted, &A::rounds, &A::messages, &A::bits,
                          &A::corruptions};
    }

    /// Folds a later index range's partial in (order matters: merge partials
    /// in chunk-index order for serial-identical Samples buffers).
    void merge(const Aggregate& other) { merge_fields(*this, other); }
};

/// Binary-engine workload: the full-fidelity (protocol x adversary) trial
/// stack as a workload.hpp trait. run_trials(Scenario, ...) below is the
/// untemplated face of run_trials<BinaryWorkload>.
struct BinaryWorkload {
    using Scenario = sim::Scenario;
    using Result = TrialResult;
    using Aggregate = sim::Aggregate;
    using Plan = ScenarioPlan;
    class Arena;  ///< pooled engine + node set + input buffer (runner.cpp)
    static constexpr std::uint64_t kSeedStride = 0x100000001b3ULL;
    static constexpr const char* kName = "binary";

    /// validate(s) + apply_memory_budget(s), once per sweep. Under an active
    /// memory budget (sim/faults.hpp) an over-budget flat plan auto-falls
    /// back to the sparse plane (one stderr warning) or is rejected with an
    /// actionable ContractViolation — never an OOM kill mid-sweep.
    static Plan make_plan(const Scenario& s);
    static const std::vector<SpecKey<Scenario>>& keys() { return scenario_keys(); }
    static void accumulate(Aggregate& agg, const Result& r);
    /// The kernel's pre-sizing of a chunk partial, for chunk loops outside
    /// it (perfbench's traced executor).
    static void reserve(Aggregate& agg, Count trials) { reserve_fields(agg, trials); }
    /// 64 when the plan engages fused blocks (one block), else 1.
    static Count block_trials(const Plan& plan);
    /// THE run-level fused decision (the kernel's runs_in_blocks, and
    /// adba_sim's stderr line via fused_skip_reason): why a run of
    /// `trials` trials in chunks of `chunk` runs no fused block, or nullopt
    /// when every chunk runs as blocks — the plan's why_not_fused reason, a
    /// run or chunk of one trial (a one-lane block costs more than the
    /// scalar trial it replaces), or an armed fault injector (whose
    /// recovery is defined on the scalar path).
    static std::optional<std::string> why_scalar(const Plan& plan, Count trials,
                                                 Count chunk);

    static std::vector<std::string> csv_header();
    static std::vector<std::string> csv_row(const Aggregate& agg);
};

/// Runs on the workload-generic kernel (sim/workload.hpp): the scenario is
/// validated ONCE and each executor chunk runs its trials through a pooled
/// arena (one engine + one node set + one input buffer, re-armed per trial),
/// so the Monte-Carlo loop does no per-trial allocation or registry work.
/// Bit-identical to calling run_trial(s, seed) per index, at any thread
/// count including the serial `exec.threads = 1`.
Aggregate run_trials(const Scenario& s, std::uint64_t base_seed, Count trials,
                     const ExecutorConfig& exec = {});
/// The same run against a pre-validated plan, e.g. one whose registry
/// entries a test substituted to wrap the strategy.
Aggregate run_trials(const ScenarioPlan& plan, std::uint64_t base_seed, Count trials,
                     const ExecutorConfig& exec = {});

/// BinaryWorkload::why_scalar for a run of `trials` trials under `exec`,
/// at the chunk run_trials picks (plan_chunk).
std::optional<std::string> fused_skip_reason(const ScenarioPlan& plan, Count trials,
                                             const ExecutorConfig& exec = {});

std::string to_string(ProtocolKind k);
std::string to_string(AdversaryKind k);

/// The committee/group schedule the given scenario's protocol uses (for
/// schedule-aware adversaries); nullopt for protocols without one.
std::optional<core::BlockSchedule> schedule_of(const Scenario& s);

}  // namespace adba::sim
