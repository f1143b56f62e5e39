// E9 — design ablations of the committee coin's constants:
//   (a) the committee-count constant α: the paper's analysis wants
//       α - 4·sqrt(α) >= γ (α ≈ 18 for γ = 1); how small can α really be?
//       This regenerates the measured w.h.p. failure boundary that fixed
//       our default α = 4 (see core/params.hpp).
//   (b) the validity fast path (Lemma 2): unanimous inputs lock in O(1)
//       phases under every adversary, independent of α.
//   (c) the γ phase floor at tiny t.
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "core/params.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

void experiment(const Cli& cli) {
    const auto n = cli.get_uint<NodeId>("n", 64);
    const auto t = cli.get_uint<Count>("t", (n - 1) / 3);
    const auto trials = sim::read_trials(cli, 60, 2);
    benchutil::finish_flags(cli);
    std::printf("E9: committee-sizing ablation (n=%u, t=%u — the hardest cell — "
                "%u trials).\n", n, t, trials);

    sim::SweepGrid grid_a;
    grid_a.base.n = n;
    grid_a.base.t = t;
    grid_a.base.protocol = sim::ProtocolKind::Ours;
    grid_a.base.adversary = sim::AdversaryKind::WorstCase;
    grid_a.base.inputs = sim::InputPattern::Split;
    for (double alpha : {1.0, 2.0, 4.0, 8.0, 18.0}) {
        core::Tuning tune;
        tune.alpha = alpha;
        grid_a.tunings.push_back(tune);
    }

    Table tab("E9a: alpha sweep at maximal t (worst-case adversary, split inputs)");
    tab.set_header({"alpha", "phases c", "committee s", "agree %", "mean rounds",
                    "analysis needs"});
    const auto outcomes_a = sim::run_sweep(grid_a, 0xE9A, trials);
    for (const auto& o : outcomes_a) {
        const double alpha = o.row.scenario.tuning.alpha;
        const auto params = core::AgreementParams::compute(n, t, o.row.scenario.tuning);
        const auto& agg = o.agg;
        tab.add_row({Table::num(alpha, 1), Table::num(std::uint64_t{params.phases}),
                     Table::num(std::uint64_t{params.schedule.block}),
                     Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                    agg.trials, 1),
                     Table::num(agg.rounds.mean(), 1),
                     alpha >= 18.0 ? "alpha-4*sqrt(alpha)>=1 holds" : "below paper's constant"});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab.title(), outcomes_a),
                               "e9a_alpha_sweep");

    sim::SweepGrid grid_b;
    grid_b.base.n = n;
    grid_b.base.t = t;
    grid_b.base.protocol = sim::ProtocolKind::Ours;
    grid_b.base.inputs = sim::InputPattern::AllOne;
    grid_b.adversaries = {sim::AdversaryKind::WorstCase, sim::AdversaryKind::SplitVote,
                          sim::AdversaryKind::CrashTargetedCoin, sim::AdversaryKind::Chaos};

    Table tab2("E9b: validity fast path (Lemma 2) — unanimous inputs, any adversary");
    tab2.set_header({"adversary", "agree %", "validity", "mean rounds"});
    const auto outcomes_b = sim::run_sweep(grid_b, 0xE9B, trials / 2);
    for (const auto& o : outcomes_b) {
        const auto& agg = o.agg;
        tab2.add_row({sim::to_string(o.row.scenario.adversary),
                      Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                     agg.trials, 1),
                      agg.validity_failures == 0 ? "ok" : "VIOLATED",
                      Table::num(agg.rounds.mean(), 1)});
    }
    tab2.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab2.title(), outcomes_b),
                               "e9b_validity_fast_path");

    sim::SweepGrid grid_c;
    grid_c.base.n = n;
    grid_c.base.t = 1;
    grid_c.base.protocol = sim::ProtocolKind::Ours;
    grid_c.base.adversary = sim::AdversaryKind::WorstCase;
    grid_c.base.inputs = sim::InputPattern::Split;
    for (double gamma : {1.0, 2.0, 4.0}) {
        core::Tuning tune;
        tune.gamma = gamma;
        grid_c.tunings.push_back(tune);
    }

    Table tab3("E9c: gamma phase-floor at tiny t (floor = ceil(gamma*log2 n) phases)");
    tab3.set_header({"gamma", "phases at t=1", "agree %", "mean rounds"});
    const auto outcomes_c = sim::run_sweep(grid_c, 0xE9C, trials / 2);
    for (const auto& o : outcomes_c) {
        const auto params = core::AgreementParams::compute(n, 1, o.row.scenario.tuning);
        const auto& agg = o.agg;
        tab3.add_row({Table::num(o.row.scenario.tuning.gamma, 1),
                      Table::num(std::uint64_t{params.phases}),
                      Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                     agg.trials, 1),
                      Table::num(agg.rounds.mean(), 1)});
    }
    tab3.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab3.title(), outcomes_c),
                               "e9c_gamma_floor");
    std::printf(
        "Shape check: E9a shows the measured w.h.p. boundary — small alpha gives\n"
        "the adversary enough budget-per-phase to ruin everything at this scale;\n"
        "alpha=4 restores 100%% (our default); the paper's alpha=18 is safe but\n"
        "pays more phases. E9b: validity never depends on alpha (Lemma 2 is\n"
        "deterministic). E9c: the floor only matters for the failure budget, not\n"
        "measured rounds (early termination).\n");
}

void BM_params_compute(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::AgreementParams::compute(1 << 16, 20000));
    }
}
BENCHMARK(BM_params_compute);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
