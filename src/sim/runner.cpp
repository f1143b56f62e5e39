#include "sim/runner.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/fused_plane.hpp"
#include "sim/faults.hpp"
#include "sim/registry.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

// All protocol/adversary construction goes through the registries in
// registry.cpp — this file only wires a validated scenario into the engine.
// Adding a protocol or adversary is a registry entry, not a switch edit here.
//
// The Monte-Carlo machinery itself (executor chunking, index-derived seeds,
// pooled per-chunk arenas, in-order merge) lives in the workload-generic
// kernel (sim/workload.hpp); this file defines only the BinaryWorkload
// binding: the arena that re-arms one engine + one node set + one input
// buffer per trial (ProtocolEntry::reinit_nodes + Engine::reset) and its
// adversaries in place (AdversaryEntry::reinit_adversary), so a warm trial
// allocates nothing beyond what a strategy without that hook needs to be
// rebuilt and to run.

namespace adba::sim {

std::optional<core::BlockSchedule> schedule_of(const Scenario& s) {
    const ProtocolEntry& e = ProtocolRegistry::instance().at(s.protocol);
    if (!e.schedule_of) return std::nullopt;
    return e.schedule_of(s);
}

/// Per-chunk reusable trial state: pooled nodes, engine, and input buffer.
/// run() is bit-identical to the one-shot run_trial path; the executor's
/// thread-invariance tests double as the canary for stale pool state.
class BinaryWorkload::Arena {
public:
    explicit Arena(const ScenarioPlan& plan) : plan_(plan) {
        ADBA_EXPECTS(plan_.scenario.n > 0);
    }

    TrialResult run(std::uint64_t seed) {
        const Scenario& s = plan_.scenario;
        const SeedTree seeds(seed);
        make_inputs(s.inputs, s.n, seeds, inputs_);

        // Native batch plane when the scenario wants it and the protocol
        // ships one; otherwise the per-node path (wrapped in the engine's
        // pooled PerNodeBatch adapter). Both are bit-identical by contract.
        const bool batched = s.use_batch && plan_.protocol->make_batch != nullptr;
        if (!have_bundle_) {
            bundle_ = batched ? plan_.protocol->make_batch(s, inputs_, seeds)
                              : plan_.protocol->make_nodes(s, inputs_, seeds);
            have_bundle_ = true;
        } else if (batched) {
            if (plan_.protocol->reinit_batch) {
                plan_.protocol->reinit_batch(s, inputs_, seeds, bundle_);
            } else {
                bundle_.batch = plan_.protocol->make_batch(s, inputs_, seeds).batch;
            }
        } else if (plan_.protocol->reinit_nodes) {
            plan_.protocol->reinit_nodes(s, inputs_, seeds, bundle_);
        } else {
            // No pooling support: rebuild the node set, keep the metadata.
            bundle_.nodes = plan_.protocol->make_nodes(s, inputs_, seeds).nodes;
        }
        net::Adversary& adversary = arm(adversary_, bundle_, seeds);

        net::EngineConfig cfg;
        cfg.n = s.n;
        cfg.budget = s.t;
        cfg.max_rounds =
            s.max_rounds_override ? s.max_rounds_override : bundle_.default_max_rounds;
        if (s.sparse_plane) {
            cfg.plane = net::PlaneMode::Sparse;
            cfg.sample_degree = s.sample_degree;
            // The scenario's sparse_seed selects the SparseTopology child
            // index, so topology streams vary under the seed tree's
            // independence guarantees; the default index 0 is exactly the
            // pre-key stream (recorded sparse runs replay unchanged).
            cfg.sparse_seed =
                seeds.seed(StreamPurpose::SparseTopology, s.sparse_seed);
        }
        cfg.watchdog_ms = s.watchdog_ms;
        // Resilience seam: only pay the per-round std::function call when an
        // armed injector actually wants beat delays.
        if (FaultInjector* inj = FaultInjector::active();
            inj && inj->config().beat_delay_rate > 0.0)
            cfg.beat_probe = [inj](Round r) { inj->on_beat(r); };
        // Intra-trial sharding: resolve the scenario's request through the
        // nested-parallelism policy once and keep one pool per arena (its
        // workers persist across trials; rebuilding per trial would pay
        // thread spawns on the hot path).
        if (batched) {
            const unsigned shards = plan_intra_shards(s.intra_threads, s.n);
            if (shards > 1) {
                if (!shard_pool_ || shard_count_ != shards) {
                    shard_pool_ =
                        std::make_unique<ShardPool>(shards, default_threads());
                    shard_count_ = shards;
                }
                cfg.intra = shard_pool_.get();
            }
        }

        if (batched) {
            if (engine_) {
                engine_->reset(cfg, std::move(bundle_.batch), adversary);
            } else {
                engine_.emplace(cfg, std::move(bundle_.batch), adversary);
            }
        } else if (engine_) {
            engine_->reset(cfg, std::move(bundle_.nodes), adversary);
        } else {
            engine_.emplace(cfg, std::move(bundle_.nodes), adversary);
        }
        const net::RunResult run = engine_->run();
        if (batched)
            bundle_.batch = engine_->take_batch();
        else
            bundle_.nodes = engine_->take_nodes();

        TrialResult res;
        res.agreement = run.agreement();
        res.agreed_value = run.agreed_value();
        res.validity_applicable = unanimous(inputs_);
        res.validity_ok = !res.validity_applicable ||
                          (res.agreement && res.agreed_value &&
                           *res.agreed_value == inputs_.front());
        res.all_halted = run.all_halted;
        res.rounds = run.rounds;
        res.outcome = run.outcome;
        res.metrics = run.metrics;
        res.phases_configured = bundle_.phases;
        return res;
    }

    /// Runs `lanes` (1..64) consecutive trials as one fused block, lane j
    /// for trial j. trial_seeds[j] is the index-derived seed of lane j's
    /// trial — the exact value the scalar path would pass to run() — and
    /// out[j] receives a TrialResult bit-identical to run(trial_seeds[j]).
    void run_fused(const std::uint64_t* trial_seeds, Count lanes, TrialResult* out) {
        ADBA_EXPECTS(lanes >= 1 && lanes <= net::kFusedLanes);
        const Scenario& s = plan_.scenario;
        const NodeId n = s.n;
        if (!fused_proto_) {
            fused_proto_ = plan_.protocol->make_fused(s);
            const BudgetHint hint = plan_.protocol->budgets(s);
            fused_meta_.phases = hint.phases;
            fused_meta_.default_max_rounds = hint.max_rounds;
            if (plan_.protocol->schedule_of)
                fused_meta_.schedule = plan_.protocol->schedule_of(s);
        }

        // Lanes past `lanes` stay out of the block: they repeat the last
        // trial's seed for the protocol's rearm and have no adversary.
        lane_seeds_.clear();
        for (unsigned j = 0; j < lanes; ++j) lane_seeds_.emplace_back(trial_seeds[j]);
        const InputPlaneLanes inputs =
            make_input_plane(s.inputs, n, lane_seeds_.data(), lanes, fused_inputs_);
        net::Adversary* advs[net::kFusedLanes] = {};
        for (unsigned j = 0; j < lanes; ++j)
            advs[j] = &arm(fused_advs_[j], fused_meta_, lane_seeds_[j]);
        const SeedTree last = lane_seeds_.back();
        lane_seeds_.resize(net::kFusedLanes, last);
        fused_proto_->rearm(fused_inputs_.data(), lane_seeds_.data());

        const Round max_rounds = s.max_rounds_override
                                     ? s.max_rounds_override
                                     : fused_meta_.default_max_rounds;
        net::FusedLaneResult results[net::kFusedLanes];
        const std::uint64_t in_block =
            lanes == net::kFusedLanes ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
        fused_block_.run(*fused_proto_, advs, s.t, max_rounds, results, in_block);

        // Per-lane agreement over the surviving honest outputs — exactly
        // RunResult::agreement(): honest = never corrupted, output = the
        // protocol's value plane.
        const std::uint64_t* byz = fused_block_.byz_plane();
        const std::uint64_t* val = fused_proto_->value_plane();
        std::uint64_t any0 = 0, any1 = 0;
        for (NodeId v = 0; v < n; ++v) {
            any0 |= ~byz[v] & ~val[v];
            any1 |= ~byz[v] & val[v];
        }
        for (unsigned j = 0; j < lanes; ++j) {
            const std::uint64_t bit = std::uint64_t{1} << j;
            TrialResult& res = out[j];
            res = TrialResult{};
            res.agreement = (any0 & any1 & bit) == 0;
            if (res.agreement)
                res.agreed_value = static_cast<Bit>((any1 & bit) != 0 ? 1 : 0);
            res.validity_applicable = (inputs.unanimous & bit) != 0;
            res.validity_ok =
                !res.validity_applicable ||
                (res.agreement && res.agreed_value &&
                 *res.agreed_value == static_cast<Bit>((inputs.front & bit) != 0 ? 1 : 0));
            res.all_halted = results[j].all_halted;
            res.rounds = results[j].rounds;
            res.outcome = results[j].outcome;
            res.metrics = results[j].metrics;
            res.phases_configured = fused_meta_.phases;
        }
    }

private:
    /// The adversary of the trial `seeds` seeds, in `slot`: re-armed in
    /// place when the entry can re-arm the one already there, else built.
    net::Adversary& arm(std::unique_ptr<net::Adversary>& slot, const ProtocolBundle& bundle,
                        const SeedTree& seeds) {
        const AdversaryEntry& entry = *plan_.adversary;
        if (!slot || !entry.reinit_adversary || !entry.reinit_adversary(seeds, *slot))
            slot = entry.make_adversary(plan_.scenario, bundle, seeds);
        return *slot;
    }

    const ScenarioPlan& plan_;
    std::vector<Bit> inputs_;
    ProtocolBundle bundle_;
    bool have_bundle_ = false;
    std::optional<net::Engine> engine_;
    std::unique_ptr<net::Adversary> adversary_;
    std::unique_ptr<ShardPool> shard_pool_;  ///< persists across trials
    unsigned shard_count_ = 0;
    // Fused-plane state (fused plans only): the 64-lane protocol is
    // built once per arena and re-armed per block; the metadata bundle only
    // carries phases/schedule/round budget for the adversary factories.
    std::unique_ptr<net::FusedProtocol> fused_proto_;
    net::FusedBlock fused_block_;
    ProtocolBundle fused_meta_;
    std::vector<std::uint64_t> fused_inputs_;
    std::vector<SeedTree> lane_seeds_;
    std::unique_ptr<net::Adversary> fused_advs_[net::kFusedLanes];  ///< kept across blocks
};

ScenarioPlan BinaryWorkload::make_plan(const Scenario& s) {
    ADBA_EXPECTS(s.n > 0);
    // Graceful degradation: under an active memory budget an over-budget
    // flat plan flips to the sparse plane (or is rejected with an actionable
    // message) BEFORE any allocation happens.
    Scenario adjusted = s;
    if (const auto warning = apply_memory_budget(adjusted))
        std::fprintf(stderr, "%s\n", warning->c_str());
    return validate(adjusted);
}

Count BinaryWorkload::block_trials(const Plan& plan) {
    return plan.scenario.use_fused ? net::kFusedLanes : 1;
}

std::optional<std::string> BinaryWorkload::why_scalar(const Plan& plan, Count trials,
                                                      Count chunk) {
    if (!plan.scenario.use_fused) return why_not_fused(plan.scenario);
    if (trials < 2) return "a run of one trial has no other trial to share its block";
    if (chunk < 2) return "chunk=1 leaves each trial alone in its block";
    if (FaultInjector::active() != nullptr)
        return "fault injection is armed; its recovery runs the scalar path";
    return std::nullopt;
}

void BinaryWorkload::accumulate(Aggregate& agg, const TrialResult& r) {
    if (r.outcome == TrialOutcome::Faulted) {
        // The trial never ran; nothing but its existence may enter the
        // aggregate (a value-initialized result would poison every sample
        // and read as an agreement failure).
        ++agg.faulted;
        return;
    }
    agg.rounds.add(static_cast<double>(r.rounds));
    agg.messages.add(static_cast<double>(r.metrics.honest_messages));
    agg.bits.add(static_cast<double>(r.metrics.honest_bits));
    agg.corruptions.add(static_cast<double>(r.metrics.corruptions));
    if (!r.agreement) ++agg.agreement_failures;
    if (!r.validity_ok) ++agg.validity_failures;
    if (!r.all_halted) ++agg.not_halted;
    switch (r.outcome) {
        case TrialOutcome::Decided:
            ADBA_ENSURES_MSG(r.all_halted,
                             "a Decided binary trial must have all-halted; an "
                             "exhausted trial may never be counted as decided");
            break;
        case TrialOutcome::RoundCapExhausted:
            ++agg.cap_exhausted;
            break;
        case TrialOutcome::WatchdogTimeout:
            ++agg.watchdog_timeouts;
            break;
        case TrialOutcome::Faulted:
            break;  // unreachable: early-returned above
    }
}

std::vector<std::string> BinaryWorkload::csv_header() {
    return {"trials",     "agree_pct",        "validity_failures",
            "not_halted", "exhausted",        "watchdog",
            "faulted",    "rounds_mean",      "rounds_p90",
            "rounds_max", "msgs_mean",        "bits_mean",
            "corruptions_mean"};
}

std::vector<std::string> BinaryWorkload::csv_row(const Aggregate& agg) {
    // agree_pct is over trials that actually RAN: a faulted trial carries no
    // agreement information, and an all-faulted aggregate has no samples at
    // all (the Samples accessors assert non-empty, hence the guards).
    const Count ran = agg.trials - agg.faulted;
    const double ok =
        ran == 0 ? 0.0
                 : 100.0 * static_cast<double>(ran - agg.agreement_failures) /
                       static_cast<double>(ran);
    const bool have = !agg.rounds.empty();
    return {Table::num(static_cast<std::uint64_t>(agg.trials)),
            Table::num(ok, 2),
            Table::num(static_cast<std::uint64_t>(agg.validity_failures)),
            Table::num(static_cast<std::uint64_t>(agg.not_halted)),
            Table::num(static_cast<std::uint64_t>(agg.cap_exhausted)),
            Table::num(static_cast<std::uint64_t>(agg.watchdog_timeouts)),
            Table::num(static_cast<std::uint64_t>(agg.faulted)),
            Table::num(have ? agg.rounds.mean() : 0.0, 3),
            Table::num(have ? agg.rounds.quantile(0.9) : 0.0, 3),
            Table::num(have ? agg.rounds.max() : 0.0, 0),
            Table::num(have ? agg.messages.mean() : 0.0, 1),
            Table::num(have ? agg.bits.mean() : 0.0, 1),
            Table::num(have ? agg.corruptions.mean() : 0.0, 3)};
}

std::optional<std::string> fused_skip_reason(const ScenarioPlan& plan, Count trials,
                                             const ExecutorConfig& exec) {
    return BinaryWorkload::why_scalar(plan, trials,
                                      plan_chunk<BinaryWorkload>(plan, trials, exec));
}

TrialResult run_trial(const ScenarioPlan& plan, std::uint64_t seed) {
    return run_one_trial<BinaryWorkload>(plan, seed);
}

TrialResult run_trial(const Scenario& s, std::uint64_t seed) {
    return run_one_trial<BinaryWorkload>(BinaryWorkload::make_plan(s), seed);
}

Aggregate run_trials(const Scenario& s, std::uint64_t base_seed, Count trials,
                     const ExecutorConfig& exec) {
    return run_trials<BinaryWorkload>(s, base_seed, trials, exec);
}

Aggregate run_trials(const ScenarioPlan& plan, std::uint64_t base_seed, Count trials,
                     const ExecutorConfig& exec) {
    return run_trials<BinaryWorkload>(plan, base_seed, trials, exec);
}

std::string to_string(ProtocolKind k) { return ProtocolRegistry::instance().at(k).display; }

std::string to_string(AdversaryKind k) {
    return AdversaryRegistry::instance().at(k).display;
}

}  // namespace adba::sim
