#include "sim/registry.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "adversary/balancer.hpp"
#include "adversary/chaos.hpp"
#include "adversary/composite.hpp"
#include "adversary/crash.hpp"
#include "adversary/king_killer.hpp"
#include "adversary/static_adversary.hpp"
#include "adversary/tc_prelude.hpp"
#include "adversary/worst_case.hpp"
#include "baselines/ben_or.hpp"
#include "baselines/chor_coan.hpp"
#include "baselines/local_coin.hpp"
#include "baselines/phase_king.hpp"
#include "baselines/rabin_dealer.hpp"
#include "baselines/sampling_majority.hpp"
#include "core/agreement.hpp"
#include "core/skeleton_fused.hpp"
#include "sim/faults.hpp"
#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace adba::sim {

namespace {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

std::string fmt_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);  // exact round trip via parse
    return buf;
}

bool third_resilient(NodeId n, Count t) { return 3 * static_cast<std::uint64_t>(t) < n; }

}  // namespace

// --------------------------------------------------------- registry machinery

namespace detail {

template <typename Entry, typename Kind>
const Entry& RegistryBase<Entry, Kind>::add(Entry entry) {
    // Validate every key BEFORE mutating, so a rejected plug-in leaves the
    // registry exactly as it was.
    auto check = [&](const std::string& key) {
        const auto it = by_name_.find(lower(key));
        if (it != by_name_.end())
            throw ContractViolation("duplicate " + what_ + " name '" + key +
                                    "' (already registered as '" + it->second->name +
                                    "')");
    };
    check(entry.name);
    for (const auto& alias : entry.aliases) check(alias);

    entries_.push_back(std::move(entry));
    const Entry& stored = entries_.back();
    by_name_[lower(stored.name)] = &stored;
    for (const auto& alias : stored.aliases) by_name_[lower(alias)] = &stored;
    return stored;
}

template <typename Entry, typename Kind>
const Entry& RegistryBase<Entry, Kind>::at(Kind kind) const {
    for (const Entry& e : entries_)
        if (e.kind == kind) return e;
    throw ContractViolation("unregistered " + what_ + " kind #" +
                            std::to_string(static_cast<int>(kind)) +
                            "; known: " + known_names());
}

template <typename Entry, typename Kind>
const Entry* RegistryBase<Entry, Kind>::find(const std::string& name_or_alias) const {
    const auto it = by_name_.find(lower(name_or_alias));
    return it == by_name_.end() ? nullptr : it->second;
}

template <typename Entry, typename Kind>
const Entry& RegistryBase<Entry, Kind>::at(const std::string& name_or_alias) const {
    if (const Entry* e = find(name_or_alias)) return *e;
    throw ContractViolation("unknown " + what_ + " '" + name_or_alias +
                            "'; known " + what_ + "s: " + known_names() +
                            " (aliases accepted; see `adba_sim --list`)");
}

template <typename Entry, typename Kind>
std::vector<const Entry*> RegistryBase<Entry, Kind>::list() const {
    std::vector<const Entry*> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(&e);
    return out;
}

template <typename Entry, typename Kind>
std::string RegistryBase<Entry, Kind>::known_names() const {
    std::string out;
    for (const Entry& e : entries_) {
        if (!out.empty()) out += ", ";
        out += e.name;
    }
    return out;
}

template class RegistryBase<ProtocolEntry, ProtocolKind>;
template class RegistryBase<AdversaryEntry, AdversaryKind>;
template class RegistryBase<MvAdversaryEntry, MvAdversaryKind>;

}  // namespace detail

// ---------------------------------------------------------- built-in protocols

ProtocolRegistry& ProtocolRegistry::instance() {
    static ProtocolRegistry reg;
    return reg;
}

ProtocolRegistry::ProtocolRegistry() : RegistryBase("protocol") {
    // Algorithm 3 (the paper), w.h.p. fixed-phase and Las Vegas modes.
    const auto alg3_nodes = [](const Scenario& s, const std::vector<Bit>& inputs,
                               const SeedTree& seeds, core::AgreementMode mode) {
        ProtocolBundle b;
        const auto params = core::AgreementParams::compute(s.n, s.t, s.tuning);
        b.nodes = core::make_algorithm3_nodes(params, mode, inputs, seeds);
        b.phases = params.phases;
        b.schedule = params.schedule;
        b.default_max_rounds = mode == core::AgreementMode::LasVegas
                                   ? 32 * core::max_rounds_whp(params) + 256
                                   : core::max_rounds_whp(params);
        return b;
    };
    const auto alg3_reinit = [](const Scenario& s, const std::vector<Bit>& inputs,
                                const SeedTree& seeds, core::AgreementMode mode,
                                ProtocolBundle& b) {
        const auto params = core::AgreementParams::compute(s.n, s.t, s.tuning);
        core::reinit_algorithm3_nodes(params, mode, inputs, seeds, b.nodes);
    };
    const auto alg3_schedule = [](const Scenario& s) {
        return core::AgreementParams::compute(s.n, s.t, s.tuning).schedule;
    };
    const auto alg3_batch = [](const Scenario& s, const std::vector<Bit>& inputs,
                               const SeedTree& seeds, core::AgreementMode mode) {
        ProtocolBundle b;
        const auto params = core::AgreementParams::compute(s.n, s.t, s.tuning);
        b.batch = core::make_algorithm3_batch(params, mode, inputs, seeds);
        b.phases = params.phases;
        b.schedule = params.schedule;
        b.default_max_rounds = mode == core::AgreementMode::LasVegas
                                   ? 32 * core::max_rounds_whp(params) + 256
                                   : core::max_rounds_whp(params);
        return b;
    };
    const auto alg3_batch_reinit = [](const Scenario& s, const std::vector<Bit>& inputs,
                                      const SeedTree& seeds, core::AgreementMode mode,
                                      ProtocolBundle& b) {
        const auto params = core::AgreementParams::compute(s.n, s.t, s.tuning);
        core::reinit_algorithm3_batch(params, mode, inputs, seeds, *b.batch);
    };
    const auto alg3_fused =
        [](const Scenario& s,
           core::AgreementMode mode) -> std::unique_ptr<net::FusedProtocol> {
        const auto params = core::AgreementParams::compute(s.n, s.t, s.tuning);
        return std::make_unique<core::FusedSkeleton>(
            core::SkeletonConfig{s.n, s.t, params.phases, mode},
            core::FusedCoinSpec{core::FusedCoinSpec::Kind::Committee, params.schedule,
                                nullptr});
    };

    add({ProtocolKind::Ours,
         "ours",
         "ours(alg3)",
         {"alg3", "ours(alg3)", "dufoulon-pandurangan"},
         "Algorithm 3, w.h.p. fixed phases (Theorem 2)",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase,
         [alg3_nodes](const Scenario& s, const std::vector<Bit>& in, const SeedTree& sd) {
             return alg3_nodes(s, in, sd, core::AgreementMode::WhpFixedPhases);
         },
         [alg3_reinit](const Scenario& s, const std::vector<Bit>& in,
                       const SeedTree& sd, ProtocolBundle& b) {
             alg3_reinit(s, in, sd, core::AgreementMode::WhpFixedPhases, b);
         },
         alg3_schedule,
         [](const Scenario& s) {
             const auto p = core::AgreementParams::compute(s.n, s.t, s.tuning);
             return BudgetHint{p.phases, core::max_rounds_whp(p)};
         },
         [alg3_batch](const Scenario& s, const std::vector<Bit>& in, const SeedTree& sd) {
             return alg3_batch(s, in, sd, core::AgreementMode::WhpFixedPhases);
         },
         [alg3_batch_reinit](const Scenario& s, const std::vector<Bit>& in,
                             const SeedTree& sd, ProtocolBundle& b) {
             alg3_batch_reinit(s, in, sd, core::AgreementMode::WhpFixedPhases, b);
         },
         /*supports_sparse=*/true,
         [alg3_fused](const Scenario& s) {
             return alg3_fused(s, core::AgreementMode::WhpFixedPhases);
         }});

    add({ProtocolKind::OursLasVegas,
         "ours-las-vegas",
         "ours(las-vegas)",
         {"ours(las-vegas)", "las-vegas", "alg3-lv"},
         "Algorithm 3, Las Vegas variant (paper §3.2)",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase,
         [alg3_nodes](const Scenario& s, const std::vector<Bit>& in, const SeedTree& sd) {
             return alg3_nodes(s, in, sd, core::AgreementMode::LasVegas);
         },
         [alg3_reinit](const Scenario& s, const std::vector<Bit>& in,
                       const SeedTree& sd, ProtocolBundle& b) {
             alg3_reinit(s, in, sd, core::AgreementMode::LasVegas, b);
         },
         alg3_schedule,
         [](const Scenario& s) {
             const auto p = core::AgreementParams::compute(s.n, s.t, s.tuning);
             return BudgetHint{p.phases, 32 * core::max_rounds_whp(p) + 256};
         },
         [alg3_batch](const Scenario& s, const std::vector<Bit>& in, const SeedTree& sd) {
             return alg3_batch(s, in, sd, core::AgreementMode::LasVegas);
         },
         [alg3_batch_reinit](const Scenario& s, const std::vector<Bit>& in,
                             const SeedTree& sd, ProtocolBundle& b) {
             alg3_batch_reinit(s, in, sd, core::AgreementMode::LasVegas, b);
         },
         /*supports_sparse=*/true,
         [alg3_fused](const Scenario& s) {
             return alg3_fused(s, core::AgreementMode::LasVegas);
         }});

    const auto chor_coan_nodes = [](const Scenario& s, const std::vector<Bit>& inputs,
                                    const SeedTree& seeds, bool rushing) {
        ProtocolBundle b;
        const auto params = rushing
                                ? base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning)
                                : base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning);
        b.nodes = base::make_chor_coan_nodes(params, core::AgreementMode::WhpFixedPhases,
                                             inputs, seeds);
        b.phases = params.phases;
        b.schedule = params.schedule;
        b.default_max_rounds = base::max_rounds_whp(params);
        return b;
    };
    const auto chor_coan_reinit = [](const Scenario& s, const std::vector<Bit>& inputs,
                                     const SeedTree& seeds, bool rushing,
                                     ProtocolBundle& b) {
        const auto params = rushing
                                ? base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning)
                                : base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning);
        base::reinit_chor_coan_nodes(params, core::AgreementMode::WhpFixedPhases,
                                     inputs, seeds, b.nodes);
    };
    const auto chor_coan_batch = [](const Scenario& s, const std::vector<Bit>& inputs,
                                    const SeedTree& seeds, bool rushing) {
        ProtocolBundle b;
        const auto params = rushing
                                ? base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning)
                                : base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning);
        b.batch = base::make_chor_coan_batch(params, core::AgreementMode::WhpFixedPhases,
                                             inputs, seeds);
        b.phases = params.phases;
        b.schedule = params.schedule;
        b.default_max_rounds = base::max_rounds_whp(params);
        return b;
    };
    const auto chor_coan_batch_reinit = [](const Scenario& s,
                                           const std::vector<Bit>& inputs,
                                           const SeedTree& seeds, bool rushing,
                                           ProtocolBundle& b) {
        const auto params = rushing
                                ? base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning)
                                : base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning);
        base::reinit_chor_coan_batch(params, core::AgreementMode::WhpFixedPhases,
                                     inputs, seeds, *b.batch);
    };
    const auto chor_coan_fused =
        [](const Scenario& s, bool rushing) -> std::unique_ptr<net::FusedProtocol> {
        const auto params = rushing
                                ? base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning)
                                : base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning);
        return std::make_unique<core::FusedSkeleton>(
            core::SkeletonConfig{s.n, s.t, params.phases,
                                 core::AgreementMode::WhpFixedPhases},
            core::FusedCoinSpec{core::FusedCoinSpec::Kind::Committee, params.schedule,
                                nullptr});
    };

    add({ProtocolKind::ChorCoanRushing,
         "chor-coan-rushing",
         "chor-coan(rushing)",
         {"chor-coan(rushing)", "cc-rushing"},
         "rushing-hardened Chor-Coan (footnote-3 comparator)",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase,
         [chor_coan_nodes](const Scenario& s, const std::vector<Bit>& in,
                           const SeedTree& sd) { return chor_coan_nodes(s, in, sd, true); },
         [chor_coan_reinit](const Scenario& s, const std::vector<Bit>& in,
                            const SeedTree& sd, ProtocolBundle& b) {
             chor_coan_reinit(s, in, sd, true, b);
         },
         [](const Scenario& s) {
             return base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning).schedule;
         },
         [](const Scenario& s) {
             const auto p = base::ChorCoanParams::compute_rushing(s.n, s.t, s.tuning);
             return BudgetHint{p.phases, base::max_rounds_whp(p)};
         },
         [chor_coan_batch](const Scenario& s, const std::vector<Bit>& in,
                           const SeedTree& sd) { return chor_coan_batch(s, in, sd, true); },
         [chor_coan_batch_reinit](const Scenario& s, const std::vector<Bit>& in,
                                  const SeedTree& sd, ProtocolBundle& b) {
             chor_coan_batch_reinit(s, in, sd, true, b);
         },
         /*supports_sparse=*/true,
         [chor_coan_fused](const Scenario& s) { return chor_coan_fused(s, true); }});

    add({ProtocolKind::ChorCoanClassic,
         "chor-coan-classic",
         "chor-coan(classic)",
         {"chor-coan(classic)", "cc-classic", "chor-coan"},
         "historic Chor-Coan 1985, Θ(log n)-size groups",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase,
         [chor_coan_nodes](const Scenario& s, const std::vector<Bit>& in,
                           const SeedTree& sd) { return chor_coan_nodes(s, in, sd, false); },
         [chor_coan_reinit](const Scenario& s, const std::vector<Bit>& in,
                            const SeedTree& sd, ProtocolBundle& b) {
             chor_coan_reinit(s, in, sd, false, b);
         },
         [](const Scenario& s) {
             return base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning).schedule;
         },
         [](const Scenario& s) {
             const auto p = base::ChorCoanParams::compute_classic(s.n, s.t, s.tuning);
             return BudgetHint{p.phases, base::max_rounds_whp(p)};
         },
         [chor_coan_batch](const Scenario& s, const std::vector<Bit>& in,
                           const SeedTree& sd) { return chor_coan_batch(s, in, sd, false); },
         [chor_coan_batch_reinit](const Scenario& s, const std::vector<Bit>& in,
                                  const SeedTree& sd, ProtocolBundle& b) {
             chor_coan_batch_reinit(s, in, sd, false, b);
         },
         /*supports_sparse=*/true,
         [chor_coan_fused](const Scenario& s) { return chor_coan_fused(s, false); }});

    add({ProtocolKind::RabinDealer,
         "rabin-dealer",
         "rabin(dealer)",
         {"rabin(dealer)", "rabin"},
         "Rabin 1983, trusted-dealer shared coin (ideal reference)",
         "t < n/3",
         third_resilient,
         AdversaryKind::SplitVote,
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const auto params = base::RabinDealerParams::compute(
                 s.n, s.t, seeds.seed(StreamPurpose::DealerCoin), s.tuning.gamma);
             b.nodes = base::make_rabin_dealer_nodes(
                 params, core::AgreementMode::WhpFixedPhases, inputs, seeds);
             b.phases = params.phases;
             b.default_max_rounds = base::max_rounds_whp(params);
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             // The dealer seed is per-trial; recompute params with it.
             const auto params = base::RabinDealerParams::compute(
                 s.n, s.t, seeds.seed(StreamPurpose::DealerCoin), s.tuning.gamma);
             base::reinit_rabin_dealer_nodes(params, core::AgreementMode::WhpFixedPhases,
                                             inputs, seeds, b.nodes);
         },
         nullptr,
         [](const Scenario& s) {
             const auto p = base::RabinDealerParams::compute(s.n, s.t, 0, s.tuning.gamma);
             return BudgetHint{p.phases, base::max_rounds_whp(p)};
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const auto params = base::RabinDealerParams::compute(
                 s.n, s.t, seeds.seed(StreamPurpose::DealerCoin), s.tuning.gamma);
             b.batch = base::make_rabin_dealer_batch(
                 params, core::AgreementMode::WhpFixedPhases, inputs, seeds);
             b.phases = params.phases;
             b.default_max_rounds = base::max_rounds_whp(params);
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             // The dealer seed is per-trial; recompute params with it.
             const auto params = base::RabinDealerParams::compute(
                 s.n, s.t, seeds.seed(StreamPurpose::DealerCoin), s.tuning.gamma);
             base::reinit_rabin_dealer_batch(params, core::AgreementMode::WhpFixedPhases,
                                             inputs, seeds, *b.batch);
         },
         /*supports_sparse=*/true,
         // Per-lane dealer seeds come from each lane's DealerCoin stream at
         // rearm time (skeleton_fused.cpp), so the phase budget — which is
         // dealer-seed-independent — is the only params field used here.
         [](const Scenario& s) -> std::unique_ptr<net::FusedProtocol> {
             const auto p = base::RabinDealerParams::compute(s.n, s.t, 0, s.tuning.gamma);
             return std::make_unique<core::FusedSkeleton>(
                 core::SkeletonConfig{s.n, s.t, p.phases,
                                      core::AgreementMode::WhpFixedPhases},
                 core::FusedCoinSpec{core::FusedCoinSpec::Kind::Dealer,
                                     {},
                                     &base::RabinDealerNode::dealer_coin});
         }});

    add({ProtocolKind::LocalCoin,
         "local-coin",
         "local-coin",
         {},
         "skeleton with private coins (ablation; exponential rounds)",
         "t < n/3",
         third_resilient,
         AdversaryKind::SplitVote,
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const base::LocalCoinParams params{s.n, s.t, s.local_coin_phases};
             b.nodes = base::make_local_coin_nodes(
                 params, core::AgreementMode::WhpFixedPhases, inputs, seeds);
             b.phases = params.phases;
             b.default_max_rounds = 2 * (params.phases + 2);
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             const base::LocalCoinParams params{s.n, s.t, s.local_coin_phases};
             base::reinit_local_coin_nodes(params, core::AgreementMode::WhpFixedPhases,
                                           inputs, seeds, b.nodes);
         },
         nullptr,
         [](const Scenario& s) {
             return BudgetHint{s.local_coin_phases,
                               static_cast<Round>(2 * (s.local_coin_phases + 2))};
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const base::LocalCoinParams params{s.n, s.t, s.local_coin_phases};
             b.batch = base::make_local_coin_batch(
                 params, core::AgreementMode::WhpFixedPhases, inputs, seeds);
             b.phases = params.phases;
             b.default_max_rounds = 2 * (params.phases + 2);
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             const base::LocalCoinParams params{s.n, s.t, s.local_coin_phases};
             base::reinit_local_coin_batch(params, core::AgreementMode::WhpFixedPhases,
                                           inputs, seeds, *b.batch);
         },
         /*supports_sparse=*/true,
         [](const Scenario& s) -> std::unique_ptr<net::FusedProtocol> {
             return std::make_unique<core::FusedSkeleton>(
                 core::SkeletonConfig{s.n, s.t, s.local_coin_phases,
                                      core::AgreementMode::WhpFixedPhases},
                 core::FusedCoinSpec{core::FusedCoinSpec::Kind::Local, {}, nullptr});
         }});

    add({ProtocolKind::BenOr,
         "ben-or",
         "ben-or(1983)",
         {"ben-or(1983)", "benor"},
         "Ben-Or 1983 proper, private coins",
         "t < n/5",
         [](NodeId n, Count t) { return 5 * static_cast<std::uint64_t>(t) < n; },
         AdversaryKind::SplitVote,
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const base::BenOrParams params{s.n, s.t, s.local_coin_phases};
             b.nodes = base::make_ben_or_nodes(params, inputs, seeds);
             b.phases = params.phases;
             b.default_max_rounds = 2 * (params.phases + 2);
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             const base::BenOrParams params{s.n, s.t, s.local_coin_phases};
             base::reinit_ben_or_nodes(params, inputs, seeds, b.nodes);
         },
         nullptr,
         [](const Scenario& s) {
             return BudgetHint{s.local_coin_phases,
                               static_cast<Round>(2 * (s.local_coin_phases + 2))};
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const base::BenOrParams params{s.n, s.t, s.local_coin_phases};
             b.batch = base::make_ben_or_batch(params, inputs, seeds);
             b.phases = params.phases;
             b.default_max_rounds = 2 * (params.phases + 2);
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             const base::BenOrParams params{s.n, s.t, s.local_coin_phases};
             base::reinit_ben_or_batch(params, inputs, seeds, *b.batch);
         },
         /*supports_sparse=*/true,
         [](const Scenario& s) -> std::unique_ptr<net::FusedProtocol> {
             return std::make_unique<base::FusedBenOr>(
                 base::BenOrParams{s.n, s.t, s.local_coin_phases});
         }});

    add({ProtocolKind::PhaseKing,
         "phase-king",
         "phase-king",
         {"phaseking", "king"},
         "deterministic 2(t+1)-round baseline",
         "t < n/4",
         [](NodeId n, Count t) { return 4 * static_cast<std::uint64_t>(t) < n; },
         AdversaryKind::KingKiller,
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree&) {
             ProtocolBundle b;
             const base::PhaseKingParams params{s.n, s.t};
             b.nodes = base::make_phase_king_nodes(params, inputs);
             b.phases = params.phases();
             b.default_max_rounds = params.total_rounds() + 2;
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree&,
            ProtocolBundle& b) {
             base::reinit_phase_king_nodes(base::PhaseKingParams{s.n, s.t}, inputs,
                                           b.nodes);
         },
         nullptr,
         [](const Scenario& s) {
             const base::PhaseKingParams p{s.n, s.t};
             return BudgetHint{p.phases(), static_cast<Round>(p.total_rounds() + 2)};
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree&) {
             ProtocolBundle b;
             const base::PhaseKingParams params{s.n, s.t};
             b.batch = base::make_phase_king_batch(params, inputs);
             b.phases = params.phases();
             b.default_max_rounds = params.total_rounds() + 2;
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree&,
            ProtocolBundle& b) {
             base::reinit_phase_king_batch(base::PhaseKingParams{s.n, s.t}, inputs,
                                           *b.batch);
         },
         /*supports_sparse=*/true,
         [](const Scenario& s) -> std::unique_ptr<net::FusedProtocol> {
             return std::make_unique<base::FusedPhaseKing>(
                 base::PhaseKingParams{s.n, s.t});
         }});

    add({ProtocolKind::SamplingMajority,
         "sampling-majority",
         "sampling-majority",
         {"sampling", "apr"},
         "APR 2013 sampling-majority drift protocol (paper §1.3)",
         "t < n/3, n >= 2",
         [](NodeId n, Count t) { return n >= 2 && third_resilient(n, t); },
         AdversaryKind::Balancer,
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds) {
             ProtocolBundle b;
             const auto params =
                 base::SamplingMajorityParams::compute(s.n, s.t, s.sampling_kappa);
             b.nodes = base::make_sampling_majority_nodes(params, inputs, seeds);
             b.phases = params.rounds;
             b.default_max_rounds = params.rounds + 1;
             return b;
         },
         [](const Scenario& s, const std::vector<Bit>& inputs, const SeedTree& seeds,
            ProtocolBundle& b) {
             const auto params =
                 base::SamplingMajorityParams::compute(s.n, s.t, s.sampling_kappa);
             base::reinit_sampling_majority_nodes(params, inputs, seeds, b.nodes);
         },
         nullptr,
         [](const Scenario& s) {
             const auto p = base::SamplingMajorityParams::compute(s.n, s.t, s.sampling_kappa);
             return BudgetHint{p.rounds, static_cast<Round>(p.rounds + 1)};
         },
         // No native batch: sampling-majority's receive is per-receiver
         // randomized (two random senders per node), so batching would only
         // save the dispatch; it rides the PerNodeBatch adapter.
         nullptr,
         nullptr});
}

// --------------------------------------------------------- built-in adversaries

AdversaryRegistry& AdversaryRegistry::instance() {
    static AdversaryRegistry reg;
    return reg;
}

AdversaryRegistry::AdversaryRegistry() : RegistryBase("adversary") {
    const auto q_of = [](const Scenario& s) { return s.q.value_or(s.t); };

    add({AdversaryKind::None,
         "none",
         "none",
         {"null"},
         "no corruptions (honest baseline)",
         "-",
         "-",
         false,
         std::nullopt,
         [](const Scenario&, const ProtocolBundle&, const SeedTree&) {
             return std::make_unique<net::NullAdversary>();
         },
         /*supports_fused=*/true});

    // `static` and `split-vote` are one strategy under two names: a static
    // random set (drawn from the Adversary stream) that equivocates split
    // votes every round.
    const auto split_votes = [q_of](const Scenario& s, const ProtocolBundle&,
                                    const SeedTree& seeds) -> std::unique_ptr<net::Adversary> {
        return std::make_unique<adv::StaticAdversary>(
            q_of(s), adv::StaticBehavior::SplitVotes, seeds.stream(StreamPurpose::Adversary));
    };
    add({AdversaryKind::Static,
         "static",
         "static",
         {},
         "static random corrupt set, split-vote behaviour",
         "no",
         "no",
         false,
         std::nullopt,
         split_votes,
         /*supports_fused=*/true});

    add({AdversaryKind::SplitVote,
         "split-vote",
         "split-vote",
         {"splitvote"},
         "static set, threshold-straddling equivocation",
         "no",
         "no",
         false,
         std::nullopt,
         split_votes,
         /*supports_fused=*/true});

    add({AdversaryKind::Chaos,
         "chaos",
         "chaos",
         {},
         "random adaptive corruptions, fuzzed messages",
         "yes",
         "no",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::ChaosAdversary>(
                 adv::ChaosConfig{q_of(s), 0.25, 0.7},
                 seeds.stream(StreamPurpose::Adversary));
         }});

    add({AdversaryKind::CrashRandom,
         "crash-random",
         "crash(random)",
         {"crash(random)", "crash"},
         "adaptive random crash faults",
         "yes",
         "yes",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::CrashAdversary>(
                 adv::CrashConfig{q_of(s), adv::CrashMode::Random, 0.15, std::nullopt},
                 seeds.stream(StreamPurpose::Adversary));
         },
         /*supports_fused=*/true});

    add({AdversaryKind::CrashTargetedCoin,
         "crash-targeted-coin",
         "crash(targeted)",
         {"crash(targeted)", "crash-targeted"},
         "BJBO-style adaptive crash attack on the committee coin",
         "yes",
         "yes",
         true,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle& bundle, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::CrashAdversary>(
                 adv::CrashConfig{q_of(s), adv::CrashMode::TargetedCoin, 0.0,
                                  bundle.schedule},
                 seeds.stream(StreamPurpose::Adversary));
         },
         /*supports_fused=*/true});

    add({AdversaryKind::WorstCase,
         "worst-case",
         "worst-case",
         {"worstcase", "rushing"},
         "schedule-aware rushing attack (the paper's model)",
         "yes",
         "yes",
         true,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle& bundle, const SeedTree&)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::WorstCaseAdversary>(
                 adv::WorstCaseConfig{s.t, q_of(s), *bundle.schedule, true});
         }});

    add({AdversaryKind::KingKiller,
         "king-killer",
         "king-killer",
         {"kingkiller"},
         "adaptive king corruption (Phase-King only)",
         "yes",
         "no",
         false,
         ProtocolKind::PhaseKing,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree&)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::KingKillerAdversary>(
                 base::PhaseKingParams{s.n, s.t}, q_of(s));
         }});

    add({AdversaryKind::Balancer,
         "balancer",
         "balancer",
         {"majority-balancer"},
         "drift-cancelling attack on sampling/majority protocols (E11)",
         "yes",
         "yes",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree&)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::MajorityBalancerAdversary>(
                 adv::BalancerConfig{q_of(s), 0});
         }});
}

// ------------------------------------------------- built-in mv adversaries

MvAdversaryRegistry& MvAdversaryRegistry::instance() {
    static MvAdversaryRegistry reg;
    return reg;
}

MvAdversaryRegistry::MvAdversaryRegistry() : RegistryBase("mv-adversary") {
    // Actual corruption cap: like the binary stack, `q` (default t) bounds
    // what the adversary spends while the engine budget stays t.
    const auto q_of = [](const MvScenario& s) { return s.q.value_or(s.t); };

    add({MvAdversaryKind::None,
         "none",
         "none",
         {"null"},
         "no corruptions",
         [](const MvScenario&, const core::MultiValuedParams&, const SeedTree&) {
             return std::make_unique<net::NullAdversary>();
         }});

    add({MvAdversaryKind::Chaos,
         "chaos",
         "chaos",
         {},
         "fuzzed garbage incl. Turpin-Coan message kinds",
         [q_of](const MvScenario& s, const core::MultiValuedParams&,
                const SeedTree& seeds) -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::ChaosAdversary>(
                 adv::ChaosConfig{q_of(s), 0.3, 0.7},
                 seeds.stream(StreamPurpose::Adversary));
         }});

    add({MvAdversaryKind::WorstCaseInner,
         "worst-case-inner",
         "worst-case(inner)",
         {"worst-case(inner)", "inner"},
         "full budget on the embedded Algorithm 3",
         [q_of](const MvScenario& s, const core::MultiValuedParams& params,
                const SeedTree&) -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::WorstCaseAdversary>(adv::WorstCaseConfig{
                 s.t, q_of(s), params.binary.schedule, true, /*round_offset=*/2});
         }});

    add({MvAdversaryKind::PreludePlusWorstCase,
         "prelude+worst-case",
         "prelude+worst-case",
         {"prelude-plus-worst-case", "prelude"},
         "half budget equivocating the prelude, half on the inner protocol",
         [q_of](const MvScenario& s, const core::MultiValuedParams& params,
                const SeedTree& seeds) -> std::unique_ptr<net::Adversary> {
             const Count half = q_of(s) / 2;
             auto prelude = std::make_unique<adv::TcPreludeAdversary>(
                 half, seeds.stream(StreamPurpose::Adversary));
             auto inner = std::make_unique<adv::WorstCaseAdversary>(adv::WorstCaseConfig{
                 s.t, q_of(s) - half, params.binary.schedule, true, /*round_offset=*/2});
             return std::make_unique<adv::SwitchAdversary>(std::move(prelude),
                                                           std::move(inner), 2);
         }});
}

// ------------------------------------------------------ compatibility checks

std::optional<std::string> why_incompatible(const Scenario& s) {
    const ProtocolEntry& p = ProtocolRegistry::instance().at(s.protocol);
    const AdversaryEntry& a = AdversaryRegistry::instance().at(s.adversary);

    if (!p.supports(s.n, s.t))
        return "protocol '" + p.name + "' requires " + p.resilience + " (got n=" +
               std::to_string(s.n) + ", t=" + std::to_string(s.t) +
               "); lower t or pick another protocol (see `adba_sim --list`)";

    const Count q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";

    if (a.needs_schedule && !p.schedule_of) {
        std::string with;
        for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
            if (e->schedule_of) with += (with.empty() ? "" : ", ") + e->name;
        return "adversary '" + a.name + "' needs a committee-schedule protocol; '" +
               p.name + "' has none (compatible protocols: " + with + ")";
    }

    if (a.requires_protocol && *a.requires_protocol != p.kind) {
        const std::string target =
            ProtocolRegistry::instance().at(*a.requires_protocol).name;
        return "adversary '" + a.name + "' targets protocol '" + target +
               "' only (scenario has '" + p.name + "')";
    }

    if (s.sparse_plane) {
        if (!p.supports_sparse) {
            std::string with;
            for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
                if (e->supports_sparse) with += (with.empty() ? "" : ", ") + e->name;
            return "plane=sparse needs a sparse-capable native batch; protocol '" +
                   p.name + "' has none (sparse-capable protocols: " + with + ")";
        }
        if (!s.use_batch)
            return "plane=sparse answers receive beats through the native batch "
                   "plane and cannot combine with batch=false; drop one of the two";
        if (s.reference_delivery)
            return "plane=sparse has no reference-delivery form; drop "
                   "reference=true (use plane=flat for oracle comparisons)";
        if (!s.use_simd)
            return "plane=sparse reads the word-packed tally planes and cannot "
                   "combine with simd=false; drop one of the two";
    }

    if (s.use_fused) {
        if (!p.make_fused) {
            std::string with;
            for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
                if (e->make_fused) with += (with.empty() ? "" : ", ") + e->name;
            return "fused=true needs a fused-capable protocol; '" + p.name +
                   "' has no 64-lane form (fused-capable protocols: " + with + ")";
        }
        if (!a.supports_fused) {
            std::string with;
            for (const AdversaryEntry* e : AdversaryRegistry::instance().list())
                if (e->supports_fused) with += (with.empty() ? "" : ", ") + e->name;
            return "adversary '" + a.name +
                   "' does not act through the fused plane's lane-masked "
                   "split_as bridge; drop fused=true or pick one of: " +
                   with;
        }
        if (s.sparse_plane)
            return "fused=true co-executes 64 trials on the flat bit planes and "
                   "cannot combine with plane=sparse; drop one of the two";
        if (s.reference_delivery)
            return "fused=true has no reference-delivery form; drop "
                   "reference=true (use fused=false for oracle comparisons)";
        if (s.record_transcript)
            return "fused=true does not record per-trial transcripts (64 trials "
                   "share each beat); drop transcript=true or fused=true";
        if (!s.use_batch)
            return "fused=true is the word-parallel form of the native batch "
                   "plane and cannot combine with batch=false; drop one of the "
                   "two";
        if (s.watchdog_ms != 0)
            return "fused=true shares wall-clock across 64 co-executing trials, "
                   "so a per-trial watchdog is undefined; drop watchdog_ms or "
                   "fused=true";
    }

    return std::nullopt;
}

bool compatible(const Scenario& s) { return !why_incompatible(s).has_value(); }

ScenarioPlan validate(const Scenario& s) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    return {s, &ProtocolRegistry::instance().at(s.protocol),
            &AdversaryRegistry::instance().at(s.adversary)};
}

std::optional<std::string> why_incompatible(const MvScenario& s) {
    if (s.n == 0) return "multi-valued scenario needs n > 0";
    if (3 * static_cast<std::uint64_t>(s.t) >= s.n)
        return "the Turpin-Coan reduction requires t < n/3 (got n=" +
               std::to_string(s.n) + ", t=" + std::to_string(s.t) + ")";
    const Count q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";
    if (s.sparse_plane)
        return "the multi-valued stack has no sparse delivery plane yet (the "
               "Turpin-Coan word histograms do not fit the bit-plane sampling); "
               "use plane=flat";
    return std::nullopt;
}

bool compatible(const MvScenario& s) { return !why_incompatible(s).has_value(); }

MvScenarioPlan validate(const MvScenario& s) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    MvScenarioPlan plan;
    plan.scenario = s;
    const auto mode = s.las_vegas ? core::AgreementMode::LasVegas
                                  : core::AgreementMode::WhpFixedPhases;
    plan.params = core::MultiValuedParams::compute(s.n, s.t, s.tuning, s.fallback, mode);
    plan.cap = s.las_vegas ? 32 * core::max_rounds_whp(plan.params) + 256
                           : core::max_rounds_whp(plan.params);
    plan.adversary = &MvAdversaryRegistry::instance().at(s.adversary);
    return plan;
}

// -------------------------------------------------------- input-name tables

InputPattern parse_input_pattern(const std::string& name) {
    const std::string k = lower(name);
    if (k == "all-zero" || k == "zeros") return InputPattern::AllZero;
    if (k == "all-one" || k == "ones") return InputPattern::AllOne;
    if (k == "split") return InputPattern::Split;
    if (k == "random") return InputPattern::Random;
    throw ContractViolation("unknown input pattern '" + name +
                            "'; known: all-zero, all-one, split, random");
}

MvInputPattern parse_mv_input_pattern(const std::string& name) {
    const std::string k = lower(name);
    if (k == "all-same") return MvInputPattern::AllSame;
    if (k == "two-blocks") return MvInputPattern::TwoBlocks;
    if (k == "all-distinct" || k == "distinct") return MvInputPattern::Distinct;
    if (k == "random" || k == "random(4)" || k == "random-tiny")
        return MvInputPattern::RandomTiny;
    if (k == "near-quorum" || k == "near-quorum(60%)") return MvInputPattern::NearQuorum;
    throw ContractViolation(
        "unknown multi-valued input pattern '" + name +
        "'; known: all-same, two-blocks, all-distinct, random, near-quorum");
}

bool parse_plane_name(const std::string& name) {
    const std::string k = lower(name);
    if (k == "flat") return false;
    if (k == "sparse") return true;
    std::string msg = "unknown delivery plane '" + name + "'; known: flat, sparse";
    const std::string suggestion = closest_match(k, {"flat", "sparse"});
    if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
    throw ContractViolation(msg);
}

net::SparseStream parse_sparse_stream_name(const std::string& name) {
    const std::string k = lower(name);
    if (k == "chain") return net::SparseStream::Chain;
    if (k == "counter") return net::SparseStream::Counter;
    std::string msg =
        "unknown sparse sample stream '" + name + "'; known: chain, counter";
    const std::string suggestion = closest_match(k, {"chain", "counter"});
    if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
    throw ContractViolation(msg);
}

// ------------------------------------------------- Scenario parse / describe

std::string Scenario::describe() const {
    static const Scenario defaults;
    std::string out = "protocol=" + ProtocolRegistry::instance().at(protocol).name +
                      " adversary=" + AdversaryRegistry::instance().at(adversary).name +
                      " inputs=" + to_string(inputs) + " n=" + std::to_string(n) +
                      " t=" + std::to_string(t);
    if (q) out += " q=" + std::to_string(*q);
    if (tuning.alpha != defaults.tuning.alpha)
        out += " alpha=" + fmt_double(tuning.alpha);
    if (tuning.gamma != defaults.tuning.gamma)
        out += " gamma=" + fmt_double(tuning.gamma);
    if (tuning.beta != defaults.tuning.beta) out += " beta=" + fmt_double(tuning.beta);
    if (local_coin_phases != defaults.local_coin_phases)
        out += " phases=" + std::to_string(local_coin_phases);
    if (sampling_kappa != defaults.sampling_kappa)
        out += " kappa=" + fmt_double(sampling_kappa);
    if (max_rounds_override != defaults.max_rounds_override)
        out += " max_rounds=" + std::to_string(max_rounds_override);
    if (record_transcript) out += " transcript=true";
    if (reference_delivery) out += " reference=true";
    if (!use_batch) out += " batch=false";
    if (!use_shard) out += " shard=false";
    if (!use_simd) out += " simd=false";
    if (intra_threads != defaults.intra_threads)
        out += " intra_threads=" + std::to_string(intra_threads);
    if (sparse_plane) out += " plane=sparse";
    if (sample_degree != defaults.sample_degree)
        out += " sample_degree=" + std::to_string(sample_degree);
    if (sparse_seed != defaults.sparse_seed)
        out += " sparse_seed=" + std::to_string(sparse_seed);
    if (sparse_stream != defaults.sparse_stream)
        out += std::string(" sparse_stream=") +
               (sparse_stream == net::SparseStream::Chain ? "chain" : "counter");
    if (use_fused) out += " fused=true";
    if (watchdog_ms != defaults.watchdog_ms)
        out += " watchdog_ms=" + std::to_string(watchdog_ms);
    return out;
}

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
    try {
        std::size_t pos = 0;
        const unsigned long long v = std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return v;
    } catch (const ContractViolation&) {
        throw;
    } catch (...) {
        throw ContractViolation("scenario key '" + key +
                                "' expects a non-negative integer, got '" + value + "'");
    }
}

bool parse_onoff(const std::string& value) {
    return value == "true" || value == "1" || value == "yes" || value == "on";
}

/// THE spec tokenizer: splits a `key=value ...` string (tolerating trailing
/// ','/';' per token) and hands lowercased keys to `apply`. Shared by
/// Scenario::parse and MvScenario::parse so separator/error semantics can
/// never diverge between the stacks.
template <typename Apply>
void for_each_spec_token(const std::string& spec, const Apply& apply) {
    std::istringstream in(spec);
    std::string token;
    while (in >> token) {
        while (!token.empty() && (token.back() == ',' || token.back() == ';'))
            token.pop_back();
        if (token.empty()) continue;
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            throw ContractViolation("scenario token '" + token +
                                    "' is not of the form key=value");
        apply(lower(token.substr(0, eq)), token.substr(eq + 1));
    }
}

double parse_f64(const std::string& key, const std::string& value) {
    try {
        std::size_t pos = 0;
        const double v = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return v;
    } catch (const ContractViolation&) {
        throw;
    } catch (...) {
        throw ContractViolation("scenario key '" + key + "' expects a number, got '" +
                                value + "'");
    }
}

}  // namespace

Scenario Scenario::parse(const std::string& spec) {
    Scenario s;
    for_each_spec_token(spec, [&s](const std::string& key, const std::string& value) {
        if (key == "protocol") {
            s.protocol = ProtocolRegistry::instance().at(value).kind;
        } else if (key == "adversary") {
            s.adversary = AdversaryRegistry::instance().at(value).kind;
        } else if (key == "inputs") {
            s.inputs = parse_input_pattern(value);
        } else if (key == "n") {
            s.n = static_cast<NodeId>(parse_u64(key, value));
        } else if (key == "t") {
            s.t = static_cast<Count>(parse_u64(key, value));
        } else if (key == "q") {
            s.q = static_cast<Count>(parse_u64(key, value));
        } else if (key == "alpha") {
            s.tuning.alpha = parse_f64(key, value);
        } else if (key == "gamma") {
            s.tuning.gamma = parse_f64(key, value);
        } else if (key == "beta") {
            s.tuning.beta = parse_f64(key, value);
        } else if (key == "phases") {
            s.local_coin_phases = static_cast<Count>(parse_u64(key, value));
        } else if (key == "kappa") {
            s.sampling_kappa = parse_f64(key, value);
        } else if (key == "max_rounds") {
            s.max_rounds_override = static_cast<Round>(parse_u64(key, value));
        } else if (key == "transcript") {
            s.record_transcript = parse_onoff(value);
        } else if (key == "reference") {
            s.reference_delivery = parse_onoff(value);
        } else if (key == "batch") {
            s.use_batch = parse_onoff(value);
        } else if (key == "shard") {
            s.use_shard = parse_onoff(value);
        } else if (key == "simd") {
            s.use_simd = parse_onoff(value);
        } else if (key == "intra_threads") {
            s.intra_threads = static_cast<Count>(parse_u64(key, value));
        } else if (key == "plane") {
            s.sparse_plane = parse_plane_name(value);
        } else if (key == "sample_degree") {
            s.sample_degree = static_cast<Count>(parse_u64(key, value));
        } else if (key == "sparse_seed") {
            s.sparse_seed = parse_u64(key, value);
        } else if (key == "sparse_stream") {
            s.sparse_stream = parse_sparse_stream_name(value);
        } else if (key == "fused") {
            s.use_fused = parse_onoff(value);
        } else if (key == "watchdog_ms") {
            s.watchdog_ms = static_cast<std::uint32_t>(parse_u64(key, value));
        } else {
            throw ContractViolation(
                "unknown scenario key '" + key +
                "'; valid keys: protocol, adversary, inputs, n, t, q, alpha, gamma, "
                "beta, phases, kappa, max_rounds, transcript, reference, batch, "
                "shard, simd, intra_threads, plane, sample_degree, sparse_seed, "
                "sparse_stream, fused, watchdog_ms");
        }
    });
    return s;
}

// --------------------------------------------- MvScenario parse / describe

std::string MvScenario::describe() const {
    static const MvScenario defaults;
    std::string out = "adversary=" + MvAdversaryRegistry::instance().at(adversary).name +
                      " inputs=" + to_string(inputs) + " n=" + std::to_string(n) +
                      " t=" + std::to_string(t);
    if (q) out += " q=" + std::to_string(*q);
    if (tuning.alpha != defaults.tuning.alpha)
        out += " alpha=" + fmt_double(tuning.alpha);
    if (tuning.gamma != defaults.tuning.gamma)
        out += " gamma=" + fmt_double(tuning.gamma);
    if (tuning.beta != defaults.tuning.beta) out += " beta=" + fmt_double(tuning.beta);
    if (fallback != defaults.fallback) out += " fallback=" + std::to_string(fallback);
    if (las_vegas) out += " las_vegas=true";
    if (reference_delivery) out += " reference=true";
    if (!use_batch) out += " batch=false";
    if (!use_simd) out += " simd=false";
    if (sparse_plane) out += " plane=sparse";
    if (sample_degree != defaults.sample_degree)
        out += " sample_degree=" + std::to_string(sample_degree);
    if (watchdog_ms != defaults.watchdog_ms)
        out += " watchdog_ms=" + std::to_string(watchdog_ms);
    return out;
}

MvScenario MvScenario::parse(const std::string& spec) {
    MvScenario s;
    for_each_spec_token(spec, [&s](const std::string& key, const std::string& value) {
        if (key == "adversary") {
            s.adversary = MvAdversaryRegistry::instance().at(value).kind;
        } else if (key == "inputs") {
            s.inputs = parse_mv_input_pattern(value);
        } else if (key == "n") {
            s.n = static_cast<NodeId>(parse_u64(key, value));
        } else if (key == "t") {
            s.t = static_cast<Count>(parse_u64(key, value));
        } else if (key == "q") {
            s.q = static_cast<Count>(parse_u64(key, value));
        } else if (key == "alpha") {
            s.tuning.alpha = parse_f64(key, value);
        } else if (key == "gamma") {
            s.tuning.gamma = parse_f64(key, value);
        } else if (key == "beta") {
            s.tuning.beta = parse_f64(key, value);
        } else if (key == "fallback") {
            s.fallback = static_cast<net::Word>(parse_u64(key, value));
        } else if (key == "las_vegas") {
            s.las_vegas = parse_onoff(value);
        } else if (key == "reference") {
            s.reference_delivery = parse_onoff(value);
        } else if (key == "batch") {
            s.use_batch = parse_onoff(value);
        } else if (key == "simd") {
            s.use_simd = parse_onoff(value);
        } else if (key == "plane") {
            s.sparse_plane = parse_plane_name(value);
        } else if (key == "sample_degree") {
            s.sample_degree = static_cast<Count>(parse_u64(key, value));
        } else if (key == "watchdog_ms") {
            s.watchdog_ms = static_cast<std::uint32_t>(parse_u64(key, value));
        } else {
            throw ContractViolation(
                "unknown multi-valued scenario key '" + key +
                "'; valid keys: adversary, inputs, n, t, q, alpha, gamma, beta, "
                "fallback, las_vegas, reference, batch, simd, plane, sample_degree, "
                "watchdog_ms");
        }
    });
    return s;
}

// ----------------------------------------------------------- memory budget

namespace {

std::string mb_string(std::uint64_t bytes) {
    // Ceiling in MiB so "needs ~X MiB" never understates.
    return std::to_string((bytes + (1ULL << 20) - 1) >> 20) + " MiB";
}

}  // namespace

std::optional<std::string> apply_memory_budget(Scenario& s) {
    const std::uint64_t budget_mb = default_mem_budget_mb();
    if (budget_mb == 0) return std::nullopt;
    const std::uint64_t budget = budget_mb << 20;

    const std::uint64_t flat = estimate_trial_arena_bytes(s.n, s.sparse_plane);
    if (flat <= budget) return std::nullopt;

    const ProtocolEntry& p = ProtocolRegistry::instance().at(s.protocol);
    const bool can_fall_back = !s.sparse_plane && p.supports_sparse && s.use_batch &&
                               s.use_simd && !s.reference_delivery && !s.use_fused;
    if (can_fall_back) {
        const std::uint64_t sparse = estimate_trial_arena_bytes(s.n, true);
        if (sparse <= budget) {
            s.sparse_plane = true;
            return "[adba] memory budget: flat plane at n=" + std::to_string(s.n) +
                   " needs ~" + mb_string(flat) + " > budget " +
                   std::to_string(budget_mb) +
                   " MiB; falling back to plane=sparse (~" + mb_string(sparse) +
                   "); results are sampled estimates, not exact tallies";
        }
    }

    throw ContractViolation(
        "scenario at n=" + std::to_string(s.n) + " needs ~" + mb_string(flat) +
        " per trial arena, over the memory budget of " + std::to_string(budget_mb) +
        " MiB" +
        (can_fall_back ? " (even the sparse plane would not fit)"
         : s.sparse_plane
             ? ""
             : " and cannot fall back to the sparse plane under this "
               "configuration (needs a sparse-capable protocol with batch=on, "
               "simd=on, reference=off)") +
        "; raise --mem_budget_mb / ADBA_MEM_BUDGET_MB, lower n, or pick a "
        "sparse-capable protocol");
}

void enforce_memory_budget(const MvScenario& s) {
    const std::uint64_t budget_mb = default_mem_budget_mb();
    if (budget_mb == 0) return;
    const std::uint64_t need = estimate_trial_arena_bytes(s.n, false);
    if (need <= (budget_mb << 20)) return;
    throw ContractViolation(
        "multi-valued scenario at n=" + std::to_string(s.n) + " needs ~" +
        mb_string(need) + " per trial arena, over the memory budget of " +
        std::to_string(budget_mb) +
        " MiB; the Turpin-Coan stack has no sparse fallback — raise "
        "--mem_budget_mb / ADBA_MEM_BUDGET_MB or lower n");
}

}  // namespace adba::sim
