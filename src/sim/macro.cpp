#include "sim/macro.hpp"

#include <vector>

#include "baselines/chor_coan.hpp"
#include "rand/rng.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace adba::sim {

namespace {

core::BlockSchedule schedule_for(const MacroScenario& s, Count& phases_out) {
    const auto n = static_cast<NodeId>(s.n);
    const auto t = static_cast<Count>(s.t);
    switch (s.schedule) {
        case MacroScheduleKind::Ours: {
            const auto p = core::AgreementParams::compute(n, t, s.tuning);
            phases_out = p.phases;
            return p.schedule;
        }
        case MacroScheduleKind::ChorCoanRushing: {
            const auto p = base::ChorCoanParams::compute_rushing(n, t, s.tuning);
            phases_out = p.phases;
            return p.schedule;
        }
        case MacroScheduleKind::ChorCoanClassic: {
            const auto p = base::ChorCoanParams::compute_classic(n, t, s.tuning);
            phases_out = p.phases;
            return p.schedule;
        }
    }
    ADBA_ENSURES_MSG(false, "unreachable schedule kind");
    return {};
}

}  // namespace

/// Once-per-sweep product of a MacroScenario: the committee schedule and
/// phase budget are seed-independent, so trial loops compute them once.
struct MacroWorkload::Plan {
    MacroScenario scenario;
    core::BlockSchedule sched;
    Count phases = 0;

    explicit Plan(const MacroScenario& s) : scenario(s) {
        if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
        sched = schedule_for(s, phases);
    }
};

/// Macro trials need no pooled engine state; the arena exists to satisfy
/// the kernel contract and to pin the plan reference.
class MacroWorkload::Arena {
public:
    explicit Arena(const Plan& plan) : plan_(plan) {}

    MacroResult run(std::uint64_t seed) const {
        const MacroScenario& s = plan_.scenario;
        const std::uint64_t q = s.q.value_or(s.t);
        const Count phases = plan_.phases;
        const core::BlockSchedule& sched = plan_.sched;

        Xoshiro256 rng(mix64(seed ^ 0x6d6163726f2d3031ULL));
        std::vector<std::uint32_t> byz_in(sched.num_blocks, 0);  // corrupted per committee
        std::uint64_t used = 0;

        MacroResult out;
        out.phase_budget = phases;
        out.committee_size = sched.block;

        for (Phase p = 0; p < phases; ++p) {
            const Count k = sched.committee_of_phase(p);
            const NodeId csize = sched.size(k);
            ADBA_ENSURES(byz_in[k] <= csize);
            const std::uint32_t honest_members = csize - byz_in[k];

            // Round 2's committee flips (split inputs keep round 1
            // quorum-free; see header).
            std::int64_t sum = 0;
            for (std::uint32_t i = 0; i < honest_members; ++i) sum += rng.sign();
            std::uint64_t pos = (static_cast<std::uint64_t>(honest_members) +
                                 static_cast<std::uint64_t>(sum)) / 2;
            std::uint64_t neg = honest_members - pos;

            // Adversary's greedy SPLIT ruin: corrupt majority-sign flippers
            // until the equivocation margin covers the surviving sum.
            std::int64_t m = byz_in[k];
            std::uint64_t cost = 0;
            bool feasible = true;
            while (!(sum >= -m && sum <= m - 1)) {
                if (sum >= 0 && pos > 0) {
                    --pos;
                    --sum;
                } else if (sum < 0 && neg > 0) {
                    --neg;
                    ++sum;
                } else {
                    feasible = false;
                    break;
                }
                ++m;
                ++cost;
            }

            if (feasible && used + cost <= q) {
                used += cost;
                byz_in[k] += static_cast<std::uint32_t>(cost);
                out.phases_run = p + 1;
                continue;  // phase ruined; honest values re-split balanced
            }

            // Good phase p: the common coin unifies every honest value.
            // Phase p+1 decides and finishes (quorum blocking costs
            // t-used+1 > q-used, never affordable); the flush phase p+2
            // completes termination. The micro engine counts 2(p+3) rounds
            // for this ending.
            out.phases_run = p + 1;
            out.rounds = 2 * (static_cast<std::uint64_t>(p) + 3);
            out.agreement = true;
            out.corruptions = used;
            return out;
        }

        // Phase budget exhausted with every phase ruined: the honest values
        // are still split — the w.h.p. failure event, the macro analogue of
        // hitting the engine's round cap.
        out.phases_run = phases;
        out.rounds = 2 * static_cast<std::uint64_t>(phases);
        out.agreement = false;
        out.corruptions = used;
        out.outcome = TrialOutcome::RoundCapExhausted;
        return out;
    }

private:
    const Plan& plan_;
};

MacroWorkload::Plan MacroWorkload::make_plan(const MacroScenario& s) {
    return Plan(s);
}

void MacroWorkload::accumulate(MacroAggregate& agg, const MacroResult& r) {
    if (r.outcome == TrialOutcome::Faulted) {
        // Injected permanent fault: the trial produced no schedule walk, so
        // only the taxonomy counter moves (see Aggregate in runner.hpp).
        ++agg.faulted;
        return;
    }
    if (r.outcome == TrialOutcome::RoundCapExhausted) ++agg.cap_exhausted;
    agg.rounds.add(static_cast<double>(r.rounds));
    agg.phases.add(static_cast<double>(r.phases_run));
    agg.corruptions.add(static_cast<double>(r.corruptions));
    if (!r.agreement) ++agg.agreement_failures;
}

std::vector<std::string> MacroWorkload::csv_header() {
    return {"trials",      "agree_pct",  "exhausted",       "faulted",
            "rounds_mean", "rounds_p90", "rounds_max",      "phases_mean",
            "corruptions_mean"};
}

std::vector<std::string> MacroWorkload::csv_row(const MacroAggregate& agg) {
    const Count ran = agg.trials - agg.faulted;
    const double ok = ran == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(ran -
                                                        agg.agreement_failures) /
                                static_cast<double>(ran);
    const bool have = !agg.rounds.empty();
    return {Table::num(static_cast<std::uint64_t>(agg.trials)),
            Table::num(ok, 2),
            Table::num(static_cast<std::uint64_t>(agg.cap_exhausted)),
            Table::num(static_cast<std::uint64_t>(agg.faulted)),
            Table::num(have ? agg.rounds.mean() : 0.0, 3),
            Table::num(have ? agg.rounds.quantile(0.9) : 0.0, 3),
            Table::num(have ? agg.rounds.max() : 0.0, 0),
            Table::num(have ? agg.phases.mean() : 0.0, 3),
            Table::num(have ? agg.corruptions.mean() : 0.0, 3)};
}

MacroResult run_macro_trial(const MacroScenario& s, std::uint64_t seed) {
    return run_one_trial<MacroWorkload>(MacroWorkload::make_plan(s), seed);
}

MacroAggregate run_macro_trials(const MacroScenario& s, std::uint64_t base_seed,
                                Count trials, const ExecutorConfig& exec) {
    return run_trials<MacroWorkload>(s, base_seed, trials, exec);
}

const Names<MacroScheduleKind>& macro_schedules() {
    static const Names<MacroScheduleKind> table(
        "macro schedule",
        {{MacroScheduleKind::Ours, "ours", {"ours(macro)", "alg3"}, "ours(macro)"},
         {MacroScheduleKind::ChorCoanRushing,
          "cc-rushing",
          {"cc-rushing(macro)", "chor-coan-rushing"},
          "cc-rushing(macro)"},
         {MacroScheduleKind::ChorCoanClassic,
          "cc-classic",
          {"cc-classic(macro)", "chor-coan-classic"},
          "cc-classic(macro)"}});
    return table;
}

std::string to_string(MacroScheduleKind k) { return macro_schedules().at(k).display; }

std::optional<std::string> why_incompatible(const MacroScenario& s) {
    if (s.n < 4 || s.n > 0xFFFFFFFFULL)
        return "macro scenario needs 4 <= n <= 4294967295 (2^32 - 1) (got n=" +
               std::to_string(s.n) + ")";
    if (3 * s.t >= s.n)
        return "macro schedules require t < n/3 (got n=" + std::to_string(s.n) +
               ", t=" + std::to_string(s.t) + ")";
    if (s.schedule == MacroScheduleKind::Ours)
        if (auto why = core::why_bad_tuning(s.tuning)) return why;
    const std::uint64_t q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";
    return std::nullopt;
}

bool compatible(const MacroScenario& s) { return !why_incompatible(s).has_value(); }

const std::vector<SpecKey<MacroScenario>>& macro_scenario_keys() {
    using S = MacroScenario;
    using R = KeyRole;
    static const std::vector<SpecKey<S>> keys = {
        spec_field("n", R::Identity, &S::n),
        spec_field("t", R::Identity, &S::t),
        spec_field("q", R::Result, &S::q, &S::t),
        spec_name("schedule", R::Identity, &S::schedule, &macro_schedules),
        spec_field("alpha", R::Result, &S::tuning, &core::Tuning::alpha),
        spec_field("gamma", R::Result, &S::tuning, &core::Tuning::gamma),
        spec_field("beta", R::Result, &S::tuning, &core::Tuning::beta),
    };
    return keys;
}

MacroScenario MacroScenario::parse(const std::string& spec) {
    return parse_spec(macro_scenario_keys(), "macro scenario", spec);
}

std::string MacroScenario::describe() const {
    return describe_spec(macro_scenario_keys(), *this);
}

}  // namespace adba::sim
