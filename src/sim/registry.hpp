// Open protocol/adversary registries: the scenario layer's extension point.
//
// Every agreement protocol and every adversary strategy self-describes here
// with a capability descriptor — canonical name + aliases, resilience
// predicate `supports(n, t)`, strongest known adversary, schedule hook,
// default phase/round budgets, compatibility constraints — plus the factory
// that builds it for a trial. Runners, sweeps, benches, and the `adba_sim`
// driver select entries by string key, so adding a (protocol x adversary)
// combination is ONE registration call in one translation unit instead of a
// new enum value threaded through four switch statements.
//
// The built-in entries are registered by the registry constructors in
// registry.cpp (linker-safe for a static library). Each built-in protocol
// is written there as ONE descriptor — a params function (scenario ->
// protocol parameters) plus one metadata function (phases, round cap,
// optional committee schedule), one arm function for its per-node form and
// its batch and fused builders — from which every
// ProtocolEntry hook (make_nodes, reinit_nodes, make_batch, reinit_batch,
// make_fused, budgets, schedule_of) is derived, so a protocol states its
// budgets once. A plug-in translation unit extends the system with
//
//     static const auto& my_proto = adba::sim::ProtocolRegistry::instance().add({...});
//
// provided the object file is linked into the binary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fused_plane.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/runner.hpp"
#include "sim/spec_keys.hpp"

namespace adba::sim {

/// What a protocol factory hands the engine: the node set (per-node form)
/// OR the native batch plane (batch form), plus the budgets and (optional)
/// committee schedule the adversary factories consume. Exactly one of
/// `nodes`/`batch` is populated, depending on which factory built it.
struct ProtocolBundle {
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    std::unique_ptr<net::BatchProtocol> batch;
    Round default_max_rounds = 0;
    Count phases = 0;
    std::optional<core::BlockSchedule> schedule;
};

/// Phase/round budgets a scenario would run with, computable without
/// building the node set (for `adba_sim` and capability listings).
struct BudgetHint {
    Count phases = 0;
    Round max_rounds = 0;
};

/// Capability descriptor + factory for one agreement protocol.
struct ProtocolEntry {
    ProtocolKind kind{};
    std::string name;     ///< canonical CLI key, e.g. "chor-coan-rushing"
    std::string display;  ///< table label, e.g. "chor-coan(rushing)"
    std::vector<std::string> aliases;
    std::string summary;     ///< one-line note for capability tables
    std::string resilience;  ///< human-readable bound, e.g. "t < n/4"

    /// Resilience predicate: can this protocol be instantiated at (n, t)?
    std::function<bool(NodeId, Count)> supports;

    /// The strongest implemented attack against this protocol.
    AdversaryKind strongest = AdversaryKind::None;

    /// Builds the node set for one trial.
    std::function<ProtocolBundle(const Scenario&, const std::vector<Bit>&,
                                 const SeedTree&)>
        make_nodes = nullptr;

    /// Trial-reuse fast path: re-arms `bundle.nodes` (produced by an earlier
    /// make_nodes for the SAME scenario) for a new trial's inputs/seeds with
    /// zero allocation. Null = no pooling; the runner falls back to
    /// make_nodes each trial. Bundle metadata (phases, schedule, round
    /// budget) is scenario-only and stays valid across trials.
    std::function<void(const Scenario&, const std::vector<Bit>&, const SeedTree&,
                       ProtocolBundle&)>
        reinit_nodes = nullptr;

    /// Committee schedule hook; null for protocols without one (their
    /// scenarios are incompatible with schedule-aware adversaries).
    std::function<core::BlockSchedule(const Scenario&)> schedule_of = nullptr;

    /// Default phase/round budgets at the scenario's parameters.
    std::function<BudgetHint(const Scenario&)> budgets = nullptr;

    /// Its bound on another scenario key (Algorithm 3's alpha >= 1): a
    /// message naming the key, the bound and the value, or nullopt. Null =
    /// none.
    std::function<std::optional<std::string>(const Scenario&)> why_unsupported = nullptr;

    /// Native SoA batch factory: fills a bundle whose `batch` steps the
    /// whole population under one dispatch per beat (bit-identical to
    /// make_nodes + the PerNodeBatch adapter, pinned by the equivalence
    /// suite). Null = no native batch; runners fall back to per-node. Every
    /// native batch is a net::NativeBatch, so it also runs the sampled
    /// plane (`plane=sparse`) and sharded beats.
    std::function<ProtocolBundle(const Scenario&, const std::vector<Bit>&,
                                 const SeedTree&)>
        make_batch = nullptr;

    /// Trial-reuse fast path for the batch form (same contract as
    /// reinit_nodes, re-arming `bundle.batch` in place).
    std::function<void(const Scenario&, const std::vector<Bit>&, const SeedTree&,
                       ProtocolBundle&)>
        reinit_batch = nullptr;

    /// Word-parallel fused-plane factory (net/fused_plane.hpp; scenario key
    /// `fused`): builds the 64-lane FusedProtocol for this scenario's
    /// parameters once per arena; the arena re-arms it per block with the
    /// lane SeedTrees. Null = the protocol has no fused form (its scenarios
    /// run scalar, with the reason why_not_fused names). Lane j of a fused
    /// block is bit-identical to the scalar trial at lane j's index — the
    /// scalar path stays the oracle, as with `batch=` / `plane=`.
    std::function<std::unique_ptr<net::FusedProtocol>(const Scenario&)> make_fused = nullptr;
};

/// Capability descriptor + factory for one adversary strategy.
struct AdversaryEntry {
    AdversaryKind kind{};
    std::string name;
    std::string display;
    std::vector<std::string> aliases;
    std::string summary;

    std::string adaptive = "no";  ///< "yes"/"no"/"-": corrupts based on the run
    std::string rushing = "no";   ///< "yes"/"no"/"-": acts after seeing a round

    /// Needs the protocol to expose a committee schedule (schedule-aware).
    bool needs_schedule = false;
    /// Only meaningful against one specific protocol (e.g. KingKiller).
    std::optional<ProtocolKind> requires_protocol;

    std::function<std::unique_ptr<net::Adversary>(const Scenario&,
                                                  const ProtocolBundle&,
                                                  const SeedTree&)>
        make_adversary;

    /// The strategy acts on the fused plane: through the lane-masked
    /// RoundControl bridge (corrupt/split_as only, one pattern per sender
    /// per round, no deliver_as) or through its block-level form
    /// (net::Adversary::block_form). False for strategies that need
    /// per-cell delivery; their scenarios run scalar, with the reason
    /// why_not_fused names.
    bool supports_fused = false;

    /// Trial-reuse fast path (the contract of ProtocolEntry::reinit_batch):
    /// re-seeds, in place, an adversary this entry's make_adversary built
    /// for the SAME scenario, so that after on_start it plays exactly what
    /// make_adversary(scenario, bundle, seeds) would. Returns false, and
    /// leaves it untouched, when the object is not of the type this entry
    /// builds (say, a decorator a substituted factory wrapped it in); the
    /// arenas then build a new one, as they do when this is null.
    std::function<bool(const SeedTree&, net::Adversary&)> reinit_adversary = nullptr;
};

/// Adversary strategies for the multi-valued (Turpin-Coan) stack.
struct MvAdversaryEntry {
    MvAdversaryKind kind{};
    std::string name;
    std::string display;
    std::vector<std::string> aliases;
    std::string summary;

    std::function<std::unique_ptr<net::Adversary>(const MvScenario&,
                                                  const core::MultiValuedParams&,
                                                  const SeedTree&)>
        make_adversary;
};

class ProtocolRegistry : public detail::RegistryBase<ProtocolEntry, ProtocolKind> {
public:
    static ProtocolRegistry& instance();

private:
    ProtocolRegistry();  ///< registers the built-in protocols
};

class AdversaryRegistry : public detail::RegistryBase<AdversaryEntry, AdversaryKind> {
public:
    static AdversaryRegistry& instance();

private:
    AdversaryRegistry();  ///< registers the built-in adversaries
};

class MvAdversaryRegistry
    : public detail::RegistryBase<MvAdversaryEntry, MvAdversaryKind> {
public:
    static MvAdversaryRegistry& instance();

private:
    MvAdversaryRegistry();
};

/// The registry entries a scenario resolves to once validated, plus the
/// validated scenario itself — the once-per-sweep product trial loops
/// capture so per-trial work never repeats validation or registry lookups.
struct ScenarioPlan {
    /// The validated scenario, with use_fused resolved: true iff fused
    /// blocks engage (why_not_fused found nothing against them; on the
    /// resolved scenario it names the reason when they do not).
    Scenario scenario;
    const ProtocolEntry* protocol = nullptr;
    const AdversaryEntry* adversary = nullptr;
};

/// The multi-valued analogue of ScenarioPlan: resolved mv-adversary entry
/// plus the (seed-independent) Turpin-Coan parameters and round cap, hoisted
/// once per sweep by validate(MvScenario).
struct MvScenarioPlan {
    MvScenario scenario;
    core::MultiValuedParams params;
    Round cap = 0;
    const MvAdversaryEntry* adversary = nullptr;
};

/// THE feasibility/compatibility rule set — the one place the repository
/// states them. Returns an actionable message when the scenario cannot run:
/// protocol resilience violated (`supports(n, t)` false) or another key
/// out of the protocol's bound (`why_unsupported`), q > t, adversary
/// needs a committee schedule the protocol lacks, or the adversary targets a
/// different protocol.
std::optional<std::string> why_incompatible(const Scenario& s);

/// Multi-valued feasibility: the Turpin-Coan reduction needs t < n/3, its
/// binary core alpha >= 1 (core::why_bad_tuning), and q must not exceed the
/// budget t.
std::optional<std::string> why_incompatible(const MvScenario& s);

/// The fused-plane policy. `fused=` means "when the plan can": fused
/// blocks engage unless this names a reason they cannot — a protocol or
/// adversary without a fused form, plane=sparse, batch=false, watchdog_ms,
/// an explicit intra-trial shard count > 1 (scenario key, else
/// --intra_threads / ADBA_INTRA_THREADS; the auto policy's shards yield),
/// a fused arena over an active memory budget, or, when nothing else
/// does, fused=off. No n
/// bound: fused blocks beat the flat plane, sharded or not, at every n in
/// README's fused-vs-scalar table. The run-level reasons are
/// BinaryWorkload::why_scalar's (sim/runner.hpp). Aggregates are the same
/// either way.
std::optional<std::string> why_not_fused(const Scenario& s);

/// True iff validate(s) would succeed. Sweep filters use this.
bool compatible(const Scenario& s);
bool compatible(const MvScenario& s);

/// Resolves and checks the scenario; throws ContractViolation with the
/// why_incompatible message on failure. Resolves the fused decision into
/// plan.scenario.use_fused (why_not_fused).
ScenarioPlan validate(const Scenario& s);

/// Resolves and checks the multi-valued scenario, hoisting the Turpin-Coan
/// parameters and round cap into the plan.
MvScenarioPlan validate(const MvScenario& s);

/// The delivery-plane names of the `plane` key: flat (false) and sparse
/// (true, Scenario::sparse_plane).
const Names<bool>& delivery_planes();

/// Graceful degradation on resource limits (sim/faults.hpp owns the budget
/// value): estimates the scenario's per-trial arena footprint against the
/// process-wide memory budget. Within budget (or budget off): no change,
/// nullopt. Over budget on the flat plane with a sparse-capable
/// configuration (protocol with a native batch, batch=on): flips
/// `s.sparse_plane = true` and returns the one-line warning to print. Otherwise throws ContractViolation with an actionable
/// message (raise --mem_budget_mb / ADBA_MEM_BUDGET_MB, shrink n, or pick a
/// sparse-capable protocol) instead of letting the sweep OOM.
std::optional<std::string> apply_memory_budget(Scenario& s);

/// Multi-valued budget check: the Turpin-Coan stack has no sparse fallback,
/// so an over-budget plan is rejected (ContractViolation) — never adjusted.
void enforce_memory_budget(const MvScenario& s);

}  // namespace adba::sim
