#include "sim/multivalued_runner.hpp"

#include <memory>
#include <vector>

#include "net/engine.hpp"
#include "rand/seed_tree.hpp"
#include "sim/faults.hpp"
#include "sim/registry.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace adba::sim {

namespace {

void make_mv_inputs(MvInputPattern pattern, NodeId n, const SeedTree& seeds,
                    std::vector<net::Word>& inputs) {
    inputs.assign(n, 0);
    switch (pattern) {
        case MvInputPattern::AllSame:
            inputs.assign(n, 0xCAFE);
            break;
        case MvInputPattern::TwoBlocks:
            for (NodeId v = 0; v < n; ++v) inputs[v] = v < n / 2 ? 0xAAAA : 0xBBBB;
            break;
        case MvInputPattern::Distinct:
            for (NodeId v = 0; v < n; ++v) inputs[v] = 0x1000u + v;
            break;
        case MvInputPattern::RandomTiny: {
            auto rng = seeds.stream(StreamPurpose::InputAssignment);
            for (NodeId v = 0; v < n; ++v)
                inputs[v] = static_cast<net::Word>(rng.below(4));
            break;
        }
        case MvInputPattern::NearQuorum: {
            const auto share = static_cast<NodeId>((6 * static_cast<std::uint64_t>(n) + 9) / 10);
            for (NodeId v = 0; v < n; ++v)
                inputs[v] = v < share ? 0xAAAA : 0x2000u + v;
            break;
        }
    }
}

}  // namespace

/// Per-chunk reusable mv-trial state (pooled Turpin-Coan nodes + engine);
/// run() is bit-identical to the one-shot run_mv_trial path.
class MvWorkload::Arena {
public:
    explicit Arena(const MvScenarioPlan& plan) : plan_(plan) {}

    MvTrialResult run(std::uint64_t seed) {
        const MvScenario& s = plan_.scenario;
        const SeedTree seeds(seed);
        make_mv_inputs(s.inputs, s.n, seeds, inputs_);
        const auto& inputs = inputs_;

        core::arm_turpin_coan_nodes(plan_.params, inputs, seeds, nodes_);
        raw_.clear();
        raw_.reserve(s.n);
        for (const auto& p : nodes_)
            raw_.push_back(static_cast<const core::TurpinCoanNode*>(p.get()));
        const auto& raw = raw_;

        auto adversary = plan_.adversary->make_adversary(s, plan_.params, seeds);
        net::EngineConfig cfg;
        cfg.n = s.n;
        cfg.budget = s.t;
        cfg.max_rounds = plan_.cap;
        cfg.watchdog_ms = s.watchdog_ms;
        if (FaultInjector* inj = FaultInjector::active();
            inj && inj->config().beat_delay_rate > 0.0)
            cfg.beat_probe = [inj](Round r) { inj->on_beat(r); };
        if (engine_) {
            engine_->reset(cfg, std::move(nodes_), *adversary);
        } else {
            engine_.emplace(cfg, std::move(nodes_), *adversary);
        }
        const net::RunResult run = engine_->run();
        nodes_ = engine_->take_nodes();

        MvTrialResult res;
        res.rounds = run.rounds;
        res.all_halted = run.all_halted;
        res.outcome = run.outcome;
        res.agreement = true;
        std::optional<net::Word> seen;
        bool any_real = false;
        for (NodeId v = 0; v < s.n; ++v) {
            if (!run.honest[v]) continue;
            const net::Word w = raw[v]->output_word();
            any_real = any_real || raw[v]->decided_real_value();
            if (!seen) {
                seen = w;
            } else if (*seen != w) {
                res.agreement = false;
            }
        }
        res.agreed_word = res.agreement ? seen : std::nullopt;
        res.decided_real = any_real;

        bool unanimous = true;
        for (const auto w : inputs) unanimous = unanimous && w == inputs.front();
        res.validity_applicable = unanimous;
        res.validity_ok = !unanimous || (res.agreement && res.agreed_word &&
                                         *res.agreed_word == inputs.front());
        return res;
    }

private:
    const MvScenarioPlan& plan_;
    std::vector<net::Word> inputs_;
    std::vector<const core::TurpinCoanNode*> raw_;
    std::vector<std::unique_ptr<net::HonestNode>> nodes_;
    std::optional<net::Engine> engine_;
};

MvScenarioPlan MvWorkload::make_plan(const MvScenario& s) {
    enforce_memory_budget(s);
    return validate(s);
}

void MvWorkload::accumulate(MvAggregate& agg, const MvTrialResult& r) {
    if (r.outcome == TrialOutcome::Faulted) {
        ++agg.faulted;
        return;
    }
    if (!r.agreement) ++agg.agreement_failures;
    if (!r.validity_ok) ++agg.validity_failures;
    if (!r.all_halted) ++agg.not_halted;
    if (r.decided_real) ++agg.decided_real;
    switch (r.outcome) {
        case TrialOutcome::Decided:
            ADBA_ENSURES_MSG(r.all_halted,
                             "a Decided mv trial must have all-halted; an "
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
    agg.rounds.add(static_cast<double>(r.rounds));
}

std::vector<std::string> MvWorkload::csv_header() {
    return {"trials",     "agree_pct", "validity_failures", "not_halted",
            "exhausted",  "watchdog",  "faulted",           "real_value_pct",
            "rounds_mean", "rounds_p90", "rounds_max"};
}

std::vector<std::string> MvWorkload::csv_row(const MvAggregate& agg) {
    const Count ran = agg.trials - agg.faulted;
    const auto pct = [&](Count c) {
        return ran == 0 ? 0.0
                        : 100.0 * static_cast<double>(c) / static_cast<double>(ran);
    };
    const bool have = !agg.rounds.empty();
    return {Table::num(static_cast<std::uint64_t>(agg.trials)),
            Table::num(pct(ran - agg.agreement_failures), 2),
            Table::num(static_cast<std::uint64_t>(agg.validity_failures)),
            Table::num(static_cast<std::uint64_t>(agg.not_halted)),
            Table::num(static_cast<std::uint64_t>(agg.cap_exhausted)),
            Table::num(static_cast<std::uint64_t>(agg.watchdog_timeouts)),
            Table::num(static_cast<std::uint64_t>(agg.faulted)),
            Table::num(pct(agg.decided_real), 2),
            Table::num(have ? agg.rounds.mean() : 0.0, 3),
            Table::num(have ? agg.rounds.quantile(0.9) : 0.0, 3),
            Table::num(have ? agg.rounds.max() : 0.0, 0)};
}

MvTrialResult run_mv_trial(const MvScenarioPlan& plan, std::uint64_t seed) {
    return run_one_trial<MvWorkload>(plan, seed);
}

MvTrialResult run_mv_trial(const MvScenario& s, std::uint64_t seed) {
    return run_one_trial<MvWorkload>(MvWorkload::make_plan(s), seed);
}

MvAggregate run_mv_trials(const MvScenario& s, std::uint64_t base_seed, Count trials,
                          const ExecutorConfig& exec) {
    return run_trials<MvWorkload>(s, base_seed, trials, exec);
}

const Names<MvInputPattern>& mv_input_patterns() {
    static const Names<MvInputPattern> table(
        "multi-valued input pattern",
        {{MvInputPattern::AllSame, "all-same"},
         {MvInputPattern::TwoBlocks, "two-blocks"},
         {MvInputPattern::Distinct, "all-distinct", {"distinct"}},
         {MvInputPattern::RandomTiny, "random", {"random(4)", "random-tiny"}, "random(4)"},
         {MvInputPattern::NearQuorum, "near-quorum", {"near-quorum(60%)"}, "near-quorum(60%)"}});
    return table;
}

std::string to_string(MvInputPattern p) { return mv_input_patterns().at(p).display; }

std::string to_string(MvAdversaryKind a) {
    return MvAdversaryRegistry::instance().at(a).display;
}

}  // namespace adba::sim
