// E5 — Theorem 2, second clause: if the adversary actually corrupts only
// q < t nodes, Algorithm 3 terminates in O(min(q^2 log n / n, q / log n))
// rounds — the protocol pays for the attack it receives, not for the one it
// tolerates.
//
// Paper reference: §1.2 + Theorem 2 ("if only q < t nodes are corrupted...
// the protocol will terminate in O(min(q^2 log n/n, q/log n)) rounds").
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
    const auto n = cli.get_uint<NodeId>("n", 256);
    const auto t = cli.get_uint<Count>("t", (n - 1) / 3);
    const auto trials = sim::read_trials(cli, 30);
    benchutil::finish_flags(cli);
    std::printf("E5: early termination — budget t=%u fixed, actual corruptions q "
                "sweep (n=%u, %u trials).\n", t, n, trials);

    sim::SweepGrid grid;
    grid.base.n = n;
    grid.base.t = t;
    grid.base.protocol = sim::ProtocolKind::Ours;
    grid.base.adversary = sim::AdversaryKind::WorstCase;
    grid.base.inputs = sim::InputPattern::Split;
    grid.qs = {0, 2, 5, 10, 20, 40, t};
    grid.filter = [t](const sim::Scenario& s) { return s.q.value_or(t) <= t; };

    Table tab("E5: rounds vs actual corruptions q (worst-case adversary, split inputs)");
    tab.set_header({"q", "mean rounds", "p90 rounds", "max rounds", "mean corruptions",
                    "thy min(q^2logn/n, q/logn)", "agree %"});
    const auto outcomes = sim::run_sweep(grid, 0xE5, trials);
    for (const auto& o : outcomes) {
        const auto& agg = o.agg;
        const Count q = *o.row.scenario.q;
        tab.add_row({Table::num(std::uint64_t{q}), Table::num(agg.rounds.mean(), 1),
                     Table::num(agg.rounds.quantile(0.9), 1),
                     Table::num(agg.rounds.max(), 0),
                     Table::num(agg.corruptions.mean(), 1),
                     Table::num(an::rounds_ours(double(n), double(q)), 2),
                     Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                    agg.trials, 1)});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab.title(), outcomes),
                               "e5_early_termination");
    std::printf(
        "Shape check vs paper: rounds grow with q, not with the budget t — at\n"
        "q=0 the very first committee coin ends the run (6 rounds flat); the\n"
        "q-scaling tracks the theory column's growth up to constants, because\n"
        "each ruined phase costs the adversary ~sqrt(s)/2 of its q.\n");
}

void BM_early_term(benchmark::State& state) {
    sim::Scenario s;
    s.n = 128;
    s.t = 42;
    s.q = static_cast<Count>(state.range(0));
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.inputs = sim::InputPattern::Split;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_trial(s, seed++));
}
BENCHMARK(BM_early_term)->Arg(0)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
