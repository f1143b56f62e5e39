// E7 — the Las Vegas variant (paper §3.2 end): cycle committees instead of
// stopping after c phases; agreement is then ALWAYS reached, in
// O(min(t^2 log n / n, t / log n)) expected rounds, driven by the same
// early-termination machinery.
//
// Regenerates the termination-round distribution (mean + quantiles) and
// verifies the always-agree property over many adversarial trials.
#include <cstdio>
#include <iostream>

#include "analysis/bounds.hpp"
#include "bench/common.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

void experiment(const Cli& cli) {
    const auto n = cli.get_uint<NodeId>("n", 128);
    const auto trials = cli.get_uint<Count>("trials", 60);
    benchutil::finish_flags(cli);
    std::printf("E7: Las Vegas Algorithm 3 (n=%u, worst-case adversary, split inputs, "
                "%u trials).\n", n, trials);

    sim::SweepGrid grid;
    grid.base.n = n;
    grid.base.protocol = sim::ProtocolKind::OursLasVegas;
    grid.base.adversary = sim::AdversaryKind::WorstCase;
    grid.base.inputs = sim::InputPattern::Split;
    grid.ts = {5, 10, 20, 30, static_cast<Count>((n - 1) / 3)};

    Table tab("E7: termination-round distribution of the Las Vegas variant");
    tab.set_header({"t", "agree %", "halted %", "mean", "p50", "p90", "p99", "max",
                    "thy E[rounds]"});
    const auto outcomes = sim::run_sweep(grid, 0xE7, trials);
    for (const auto& o : outcomes) {
        const auto& agg = o.agg;
        const Count t = o.row.scenario.t;
        tab.add_row({Table::num(std::uint64_t{t}),
                     Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                    agg.trials, 1),
                     Table::num(100.0 * (agg.trials - agg.not_halted) / agg.trials, 1),
                     Table::num(agg.rounds.mean(), 1),
                     Table::num(agg.rounds.quantile(0.5), 0),
                     Table::num(agg.rounds.quantile(0.9), 0),
                     Table::num(agg.rounds.quantile(0.99), 0),
                     Table::num(agg.rounds.max(), 0),
                     Table::num(an::rounds_ours(double(n), double(t)), 1)});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab.title(), outcomes),
                               "e7_las_vegas");
    std::printf(
        "Shape check vs paper: 100%% agreement and termination at every t (the\n"
        "Las Vegas guarantee); the distribution is tight around the budget-bound\n"
        "mean — once the adversary's t corruptions are spent, the very next\n"
        "committee coin ends the run, so the tail is short.\n");
}

void BM_las_vegas_trial(benchmark::State& state) {
    sim::Scenario s;
    s.n = 128;
    s.t = 30;
    s.protocol = sim::ProtocolKind::OursLasVegas;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.inputs = sim::InputPattern::Split;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_trial(s, seed++));
}
BENCHMARK(BM_las_vegas_trial);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
