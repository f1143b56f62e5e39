#include "sim/registry.hpp"

#include <limits>
#include <memory>
#include <typeinfo>

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
#include "core/skeleton_batch.hpp"
#include "core/skeleton_fused.hpp"
#include "sim/faults.hpp"
#include "support/contracts.hpp"

namespace adba::sim {

namespace {

bool third_resilient(NodeId n, Count t) { return 3 * static_cast<std::uint64_t>(t) < n; }

std::string mb_string(std::uint64_t bytes) {
    // Ceiling in MiB so "needs ~X MiB" never understates.
    return std::to_string((bytes + (1ULL << 20) - 1) >> 20) + " MiB";
}

}  // namespace

// ---------------------------------------------------------- built-in protocols

ProtocolRegistry& ProtocolRegistry::instance() {
    static ProtocolRegistry reg;
    return reg;
}

namespace {

using core::AgreementMode;
using Coin = core::CoinSpec::Kind;
using Inputs = std::vector<Bit>;
using NodeSet = std::vector<std::unique_ptr<net::HonestNode>>;
using BatchSlot = std::unique_ptr<net::BatchProtocol>;

/// What a protocol's parameters fix for a whole scenario: the phase budget,
/// the default round cap and, for committee protocols, the schedule. Every
/// bundle carries exactly this and budgets()/schedule_of() report exactly
/// this, so the fused arena (cap from budgets()) and the scalar arena (cap
/// from the bundle) cannot disagree.
struct ProtocolMeta {
    Count phases = 0;
    Round max_rounds = 0;
    std::optional<core::BlockSchedule> schedule = std::nullopt;
};

ProtocolBundle bundle_of(const ProtocolMeta& m) {
    ProtocolBundle b;
    b.phases = m.phases;
    b.default_max_rounds = m.max_rounds;
    b.schedule = m.schedule;
    return b;
}

/// Arms the B in the slot, built first into an empty one.
template <typename B, typename... Args>
void arm(BatchSlot& slot, const Args&... args) {
    if (slot == nullptr) slot = std::make_unique<B>();
    auto* b = dynamic_cast<B*>(slot.get());
    ADBA_EXPECTS_MSG(b != nullptr, "batch pool type does not match the requested protocol");
    b->rearm(args...);
}

// A protocol descriptor is a struct of static functions, written once per
// protocol:
//   params(scenario) -> P          the protocol's parameters (seed-free; a
//                                  trial's seeds reach only the builders),
//   meta(P) -> ProtocolMeta        phases, round cap, optional schedule,
//   committee                      true when meta() carries a schedule,
//   arm_nodes                      the per-node form, built into an empty
//                                  pool or re-armed in place, and, when the
//   arm_batch / make_fused         protocol has them, the native batch
//                                  (built into an empty slot or re-armed
//                                  in place) and the 64-lane form.
// derive<D>() turns one into every ProtocolEntry hook.
template <typename D>
ProtocolEntry derive(ProtocolEntry e) {
    e.make_nodes = [](const Scenario& s, const Inputs& in, const SeedTree& sd) {
        const auto p = D::params(s);
        ProtocolBundle b = bundle_of(D::meta(p));
        D::arm_nodes(p, in, sd, b.nodes);
        return b;
    };
    e.reinit_nodes = [](const Scenario& s, const Inputs& in, const SeedTree& sd,
                        ProtocolBundle& b) { D::arm_nodes(D::params(s), in, sd, b.nodes); };
    e.budgets = [](const Scenario& s) {
        const ProtocolMeta m = D::meta(D::params(s));
        return BudgetHint{m.phases, m.max_rounds};
    };
    if constexpr (D::committee)
        e.schedule_of = [](const Scenario& s) { return D::meta(D::params(s)).schedule.value(); };
    if constexpr (requires { &D::arm_batch; }) {
        e.make_batch = [](const Scenario& s, const Inputs& in, const SeedTree& sd) {
            const auto p = D::params(s);
            ProtocolBundle b = bundle_of(D::meta(p));
            D::arm_batch(p, in, sd, b.batch);
            return b;
        };
        e.reinit_batch = [](const Scenario& s, const Inputs& in, const SeedTree& sd,
                            ProtocolBundle& b) { D::arm_batch(D::params(s), in, sd, b.batch); };
    }
    if constexpr (requires { &D::make_fused; })
        e.make_fused = [](const Scenario& s) { return D::make_fused(D::params(s)); };
    if constexpr (requires { D::why_unsupported; }) e.why_unsupported = D::why_unsupported;
    return e;
}

/// The six skeleton protocols: each supplies params() and meta(), and this
/// base supplies the rest — the per-node, batch and fused forms from one
/// SkeletonConfig-and-coin builder over the params' (n, t, phases) in mode
/// M: a committee coin over the params' schedule, the trusted dealer's
/// public coin, or private flips.
template <typename P, AgreementMode M, Coin C>
struct Skeleton {
    static constexpr bool committee = C == Coin::Committee;

    static core::SkeletonConfig config(const P& p) { return {p.n, p.t, p.phases, M}; }
    static core::CoinSpec coin(const P& p) {
        core::CoinSpec spec;
        spec.kind = C;
        if constexpr (C == Coin::Committee) spec.schedule = p.schedule;
        if constexpr (C == Coin::Dealer) spec.dealer = &base::dealer_coin;
        return spec;
    }
    static void arm_nodes(const P& p, const Inputs& in, const SeedTree& sd, NodeSet& nodes) {
        core::arm_skeleton_nodes(config(p), coin(p), in, sd, nodes);
    }
    static void arm_batch(const P& p, const Inputs& in, const SeedTree& sd, BatchSlot& slot) {
        arm<core::SkeletonBatch>(slot, config(p), coin(p), in, sd);
    }
    static std::unique_ptr<net::FusedProtocol> make_fused(const P& p) {
        return std::make_unique<core::FusedSkeleton>(config(p), coin(p));
    }
};

/// Explicit phase budgets (scenario key `phases`): every phase plus two
/// rounds of slack for the last finish flush.
Round phase_budget_cap(Count phases) { return static_cast<Round>(2 * (phases + 2)); }

/// Why the `phases` key gives no run: no phase, or a cap past every Round.
std::optional<std::string> why_bad_phases(const Scenario& s) {
    constexpr Count kMaxPhases = std::numeric_limits<Round>::max() / 2 - 2;
    if (s.local_coin_phases >= 1 && s.local_coin_phases <= kMaxPhases) return std::nullopt;
    return "phases must be between 1 and " + std::to_string(kMaxPhases) +
           " (got phases=" + std::to_string(s.local_coin_phases) + ")";
}

/// Algorithm 3 (the paper), w.h.p. fixed-phase or Las Vegas.
template <AgreementMode M>
struct Alg3 : Skeleton<core::AgreementParams, M, Coin::Committee> {
    static std::optional<std::string> why_unsupported(const Scenario& s) {
        return core::why_bad_tuning(s.tuning);
    }
    static core::AgreementParams params(const Scenario& s) {
        return core::AgreementParams::compute(s.n, s.t, s.tuning);
    }
    static ProtocolMeta meta(const core::AgreementParams& p) {
        const Round whp = core::max_rounds_whp(p);
        return {p.phases, M == AgreementMode::LasVegas ? 32 * whp + 256 : whp, p.schedule};
    }
};

template <base::ChorCoanParams (*Compute)(NodeId, Count, const core::Tuning&)>
struct ChorCoan : Skeleton<base::ChorCoanParams, AgreementMode::WhpFixedPhases, Coin::Committee> {
    static base::ChorCoanParams params(const Scenario& s) { return Compute(s.n, s.t, s.tuning); }
    static ProtocolMeta meta(const base::ChorCoanParams& p) {
        return {p.phases, base::max_rounds_whp(p), p.schedule};
    }
};

struct RabinDealer
    : Skeleton<base::RabinDealerParams, AgreementMode::WhpFixedPhases, Coin::Dealer> {
    static base::RabinDealerParams params(const Scenario& s) {
        return base::RabinDealerParams::compute(s.n, s.t, s.tuning.gamma);
    }
    static ProtocolMeta meta(const base::RabinDealerParams& p) {
        return {p.phases, base::max_rounds_whp(p)};
    }
};

struct LocalCoin : Skeleton<base::LocalCoinParams, AgreementMode::WhpFixedPhases, Coin::Local> {
    static constexpr auto why_unsupported = &why_bad_phases;
    static base::LocalCoinParams params(const Scenario& s) {
        return {s.n, s.t, s.local_coin_phases};
    }
    static ProtocolMeta meta(const base::LocalCoinParams& p) {
        return {p.phases, phase_budget_cap(p.phases)};
    }
};

struct BenOr {
    static constexpr bool committee = false;
    static constexpr auto why_unsupported = &why_bad_phases;
    static base::BenOrParams params(const Scenario& s) { return {s.n, s.t, s.local_coin_phases}; }
    static ProtocolMeta meta(const base::BenOrParams& p) {
        return {p.phases, phase_budget_cap(p.phases)};
    }
    static constexpr auto arm_nodes = &base::arm_ben_or_nodes;
    static void arm_batch(const base::BenOrParams& p, const Inputs& in, const SeedTree& sd,
                          BatchSlot& slot) {
        arm<base::BenOrBatch>(slot, p, in, sd);
    }
    static std::unique_ptr<net::FusedProtocol> make_fused(const base::BenOrParams& p) {
        return std::make_unique<base::FusedBenOr>(p);
    }
};

struct PhaseKing {
    static constexpr bool committee = false;
    static base::PhaseKingParams params(const Scenario& s) { return {s.n, s.t}; }
    static ProtocolMeta meta(const base::PhaseKingParams& p) {
        return {p.phases(), static_cast<Round>(p.total_rounds() + 2)};
    }
    static void arm_nodes(const base::PhaseKingParams& p, const Inputs& in, const SeedTree&,
                          NodeSet& nodes) {
        base::arm_phase_king_nodes(p, in, nodes);
    }
    static void arm_batch(const base::PhaseKingParams& p, const Inputs& in, const SeedTree&,
                          BatchSlot& slot) {
        arm<base::PhaseKingBatch>(slot, p, in);
    }
    static std::unique_ptr<net::FusedProtocol> make_fused(const base::PhaseKingParams& p) {
        return std::make_unique<base::FusedPhaseKing>(p);
    }
};

/// No native batch: sampling-majority's receive is per-receiver randomized
/// (two random senders per node), so batching would only save the
/// dispatch; it rides the PerNodeBatch adapter.
struct SamplingMajority {
    static constexpr bool committee = false;
    static std::optional<std::string> why_unsupported(const Scenario& s) {
        return base::why_bad_kappa(s.n, s.sampling_kappa);
    }
    static base::SamplingMajorityParams params(const Scenario& s) {
        return base::SamplingMajorityParams::compute(s.n, s.t, s.sampling_kappa);
    }
    static ProtocolMeta meta(const base::SamplingMajorityParams& p) {
        return {p.rounds, static_cast<Round>(p.rounds + 1)};
    }
    static constexpr auto arm_nodes = &base::arm_sampling_majority_nodes;
};

}  // namespace

ProtocolRegistry::ProtocolRegistry() : RegistryBase("protocol") {
    add(derive<Alg3<AgreementMode::WhpFixedPhases>>(
        {ProtocolKind::Ours,
         "ours",
         "ours(alg3)",
         {"alg3", "ours(alg3)", "dufoulon-pandurangan"},
         "Algorithm 3, w.h.p. fixed phases (Theorem 2)",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase}));
    add(derive<Alg3<AgreementMode::LasVegas>>(
        {ProtocolKind::OursLasVegas,
         "ours-las-vegas",
         "ours(las-vegas)",
         {"ours(las-vegas)", "las-vegas", "alg3-lv"},
         "Algorithm 3, Las Vegas variant (paper §3.2)",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase}));
    add(derive<ChorCoan<&base::ChorCoanParams::compute_rushing>>(
        {ProtocolKind::ChorCoanRushing,
         "chor-coan-rushing",
         "chor-coan(rushing)",
         {"chor-coan(rushing)", "cc-rushing"},
         "rushing-hardened Chor-Coan (footnote-3 comparator)",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase}));
    add(derive<ChorCoan<&base::ChorCoanParams::compute_classic>>(
        {ProtocolKind::ChorCoanClassic,
         "chor-coan-classic",
         "chor-coan(classic)",
         {"chor-coan(classic)", "cc-classic", "chor-coan"},
         "historic Chor-Coan 1985, Θ(log n)-size groups",
         "t < n/3",
         third_resilient,
         AdversaryKind::WorstCase}));
    add(derive<RabinDealer>({ProtocolKind::RabinDealer,
                             "rabin-dealer",
                             "rabin(dealer)",
                             {"rabin(dealer)", "rabin"},
                             "Rabin 1983, trusted-dealer shared coin (ideal reference)",
                             "t < n/3",
                             third_resilient,
                             AdversaryKind::SplitVote}));
    add(derive<LocalCoin>({ProtocolKind::LocalCoin,
                           "local-coin",
                           "local-coin",
                           {},
                           "skeleton with private coins (ablation; exponential rounds)",
                           "t < n/3",
                           third_resilient,
                           AdversaryKind::SplitVote}));
    add(derive<BenOr>({ProtocolKind::BenOr,
                       "ben-or",
                       "ben-or(1983)",
                       {"ben-or(1983)", "benor"},
                       "Ben-Or 1983 proper, private coins",
                       "t < n/5",
                       [](NodeId n, Count t) { return 5 * static_cast<std::uint64_t>(t) < n; },
                       AdversaryKind::SplitVote}));
    add(derive<PhaseKing>({ProtocolKind::PhaseKing,
                           "phase-king",
                           "phase-king",
                           {"phaseking", "king"},
                           "deterministic 2(t+1)-round baseline",
                           "t < n/4",
                           [](NodeId n, Count t) { return 4 * static_cast<std::uint64_t>(t) < n; },
                           AdversaryKind::KingKiller}));
    add(derive<SamplingMajority>(
        {ProtocolKind::SamplingMajority,
         "sampling-majority",
         "sampling-majority",
         {"sampling", "apr"},
         "APR 2013 sampling-majority drift protocol (paper §1.3)",
         "t < n/3, n >= 2",
         [](NodeId n, Count t) { return n >= 2 && third_resilient(n, t); },
         AdversaryKind::Balancer}));
}

// --------------------------------------------------------- built-in adversaries

AdversaryRegistry& AdversaryRegistry::instance() {
    static AdversaryRegistry reg;
    return reg;
}

namespace {

/// AdversaryEntry::reinit_adversary of a strategy of type A that draws no
/// seed and whose on_start resets all that a trial changes: nothing to do.
template <typename A>
bool rearm_unseeded(const SeedTree&, net::Adversary& a) {
    return typeid(a) == typeid(A);
}

}  // namespace

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
         /*supports_fused=*/true,
         &rearm_unseeded<net::NullAdversary>});

    // `static` and `split-vote` are one strategy under two names: a static
    // random set (drawn from the Adversary stream) that equivocates split
    // votes every round.
    const auto split_votes = [q_of](const Scenario& s, const ProtocolBundle&,
                                    const SeedTree& seeds) -> std::unique_ptr<net::Adversary> {
        return std::make_unique<adv::StaticAdversary>(q_of(s),
                                                      seeds.stream(StreamPurpose::Adversary));
    };
    const auto reseed_split_votes = [](const SeedTree& seeds, net::Adversary& a) {
        if (typeid(a) != typeid(adv::StaticAdversary)) return false;
        static_cast<adv::StaticAdversary&>(a).reseed(seeds.stream(StreamPurpose::Adversary));
        return true;
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
         /*supports_fused=*/true,
         reseed_split_votes});

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
         /*supports_fused=*/true,
         reseed_split_votes});

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
         },
         /*supports_fused=*/true,
         &rearm_unseeded<adv::WorstCaseAdversary>});

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
    if (p.why_unsupported)
        if (auto why = p.why_unsupported(s)) return why;

    const Count q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";

    if (a.needs_schedule && !p.schedule_of) {
        const std::string with = ProtocolRegistry::instance().known_names(
            [](const ProtocolEntry& e) { return e.schedule_of != nullptr; });
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
        if (!p.make_batch) {
            const std::string with = ProtocolRegistry::instance().known_names(
                [](const ProtocolEntry& e) { return e.make_batch != nullptr; });
            return "plane=sparse needs a sparse-capable native batch; protocol '" +
                   p.name + "' has none (sparse-capable protocols: " + with + ")";
        }
        if (!s.use_batch)
            return "plane=sparse answers receive beats through the native batch "
                   "plane and cannot combine with batch=false; drop one of the two";
    }

    return std::nullopt;
}

bool compatible(const Scenario& s) { return !why_incompatible(s).has_value(); }

std::optional<std::string> why_not_fused(const Scenario& s) {
    const ProtocolEntry& p = ProtocolRegistry::instance().at(s.protocol);
    const AdversaryEntry& a = AdversaryRegistry::instance().at(s.adversary);
    if (!p.make_fused) {
        const std::string with = ProtocolRegistry::instance().known_names(
            [](const ProtocolEntry& e) { return e.make_fused != nullptr; });
        return "protocol '" + p.name + "' has no 64-lane form (fused-capable protocols: " +
               with + ")";
    }
    if (!a.supports_fused) {
        const std::string with = AdversaryRegistry::instance().known_names(
            [](const AdversaryEntry& e) { return e.supports_fused; });
        return "adversary '" + a.name + "' does not act on the fused plane (fused-capable " +
               "adversaries: " + with + ")";
    }
    if (s.sparse_plane)
        return "plane=sparse samples each receiver's senders; fused blocks run on the "
               "flat bit planes";
    if (!s.use_batch)
        return "batch=false steps the per-node adapter; fused blocks are the native "
               "batch's word-parallel form";
    if (s.watchdog_ms != 0)
        return "watchdog_ms is a per-trial wall-clock deadline, undefined for 64 "
               "trials sharing each beat";
    // An explicit shard count (the scenario key, else the process default)
    // asks for sharded trials; the auto policy's shards yield to fused blocks.
    if (s.intra_threads > 1)
        return "intra_threads=" + std::to_string(s.intra_threads) +
               " shards each trial; fused blocks do not";
    if (s.intra_threads == 0 && default_intra_threads() > 1)
        return "--intra_threads / ADBA_INTRA_THREADS=" +
               std::to_string(default_intra_threads()) +
               " shards each trial; fused blocks do not";
    if (const std::uint64_t budget_mb = default_mem_budget_mb(); budget_mb != 0) {
        const std::uint64_t need = estimate_fused_arena_bytes(s.n);
        if (need > (budget_mb << 20))
            return "a fused arena at n=" + std::to_string(s.n) + " needs ~" +
                   mb_string(need) + ", over the memory budget of " +
                   std::to_string(budget_mb) + " MiB";
    }
    if (!s.use_fused) return "fused=off";
    return std::nullopt;
}

ScenarioPlan validate(const Scenario& s) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    ScenarioPlan plan{s, &ProtocolRegistry::instance().at(s.protocol),
                      &AdversaryRegistry::instance().at(s.adversary)};
    plan.scenario.use_fused = !why_not_fused(s);
    return plan;
}

std::optional<std::string> why_incompatible(const MvScenario& s) {
    if (s.n == 0) return "multi-valued scenario needs n > 0";
    if (3 * static_cast<std::uint64_t>(s.t) >= s.n)
        return "the Turpin-Coan reduction requires t < n/3 (got n=" +
               std::to_string(s.n) + ", t=" + std::to_string(s.t) + ")";
    if (auto why = core::why_bad_tuning(s.tuning)) return why;
    const Count q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";
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

// ------------------------------------------------------------- name tables

const Names<bool>& delivery_planes() {
    static const Names<bool> table("delivery plane", {{false, "flat"}, {true, "sparse"}});
    return table;
}

// -------------------------------------------------------------- key tables
//
// The binary and multi-valued specs (runner.hpp, multivalued_runner.hpp):
// parse, describe, adba_sim's scenario flags and the checkpoint scopes all
// read these rows, so a key is declared exactly once.

const std::vector<SpecKey<Scenario>>& scenario_keys() {
    using S = Scenario;
    using R = KeyRole;
    static const std::vector<SpecKey<S>> keys = {
        spec_name("protocol", R::Identity, &S::protocol, &ProtocolRegistry::instance),
        spec_name("adversary", R::Identity, &S::adversary, &AdversaryRegistry::instance),
        spec_name("inputs", R::Identity, &S::inputs, &input_patterns),
        spec_field("n", R::Identity, &S::n),
        spec_field("t", R::Identity, &S::t),
        spec_field("q", R::Result, &S::q, &S::t),
        spec_field("alpha", R::Result, &S::tuning, &core::Tuning::alpha),
        spec_field("gamma", R::Result, &S::tuning, &core::Tuning::gamma),
        spec_field("beta", R::Result, &S::tuning, &core::Tuning::beta),
        spec_field("phases", R::Result, &S::local_coin_phases),
        spec_field("kappa", R::Result, &S::sampling_kappa),
        spec_field("max_rounds", R::Result, &S::max_rounds_override),
        spec_field("batch", R::Execution, &S::use_batch),
        spec_field("intra_threads", R::Execution, &S::intra_threads),
        spec_name("plane", R::Result, &S::sparse_plane, &delivery_planes),
        spec_field("sample_degree", R::Result, &S::sample_degree),
        spec_field("sparse_seed", R::Result, &S::sparse_seed),
        spec_field("fused", R::Execution, &S::use_fused),
        spec_field("watchdog_ms", R::Result, &S::watchdog_ms),
    };
    return keys;
}

const std::vector<SpecKey<MvScenario>>& mv_scenario_keys() {
    using S = MvScenario;
    using R = KeyRole;
    static const std::vector<SpecKey<S>> keys = {
        spec_name("adversary", R::Identity, &S::adversary, &MvAdversaryRegistry::instance),
        spec_name("inputs", R::Identity, &S::inputs, &mv_input_patterns, /*display=*/true),
        spec_field("n", R::Identity, &S::n),
        spec_field("t", R::Identity, &S::t),
        spec_field("q", R::Result, &S::q, &S::t),
        spec_field("alpha", R::Result, &S::tuning, &core::Tuning::alpha),
        spec_field("gamma", R::Result, &S::tuning, &core::Tuning::gamma),
        spec_field("beta", R::Result, &S::tuning, &core::Tuning::beta),
        spec_field("fallback", R::Result, &S::fallback),
        spec_field("las_vegas", R::Result, &S::las_vegas),
        spec_field("watchdog_ms", R::Result, &S::watchdog_ms),
    };
    return keys;
}

Scenario Scenario::parse(const std::string& spec) {
    return parse_spec(scenario_keys(), "scenario", spec);
}

std::string Scenario::describe() const { return describe_spec(scenario_keys(), *this); }

MvScenario MvScenario::parse(const std::string& spec) {
    return parse_spec(mv_scenario_keys(), "multi-valued scenario", spec);
}

std::string MvScenario::describe() const { return describe_spec(mv_scenario_keys(), *this); }

// ----------------------------------------------------------- memory budget

std::optional<std::string> apply_memory_budget(Scenario& s) {
    const std::uint64_t budget_mb = default_mem_budget_mb();
    if (budget_mb == 0) return std::nullopt;
    const std::uint64_t budget = budget_mb << 20;

    const std::uint64_t flat = estimate_trial_arena_bytes(s.n, s.sparse_plane);
    if (flat <= budget) return std::nullopt;

    // Fused blocks hold 64 trials on the flat planes, so they are over the
    // budget too (estimate_fused_arena_bytes >= flat): the fallback takes
    // the plan to sparse, where they stay off.
    const ProtocolEntry& p = ProtocolRegistry::instance().at(s.protocol);
    const bool can_fall_back = !s.sparse_plane && p.make_batch && s.use_batch;
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
               "configuration (needs a sparse-capable protocol with batch=on)") +
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
