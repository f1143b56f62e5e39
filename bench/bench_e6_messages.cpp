// E6 — message complexity: the paper claims
// O(min(n·t^2·log n, n^2·t/log n)) messages (§1.2, §4), an improvement over
// Chor-Coan, still Õ(t) above the Ω(nt) lower bound of Hadzilacos-Halpern.
//
// Every round is a full broadcast (n(n-1) wire messages from live honest
// senders), so message complexity = rounds × n^2 up to halting effects;
// this bench regenerates the measured counts and bits (CONGEST accounting)
// against the formulas.
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
    const auto trials = cli.get_uint<Count>("trials", 15);
    benchutil::finish_flags(cli);
    std::printf("E6: communication accounting (worst-case adversary, split inputs, "
                "%u trials).\n", trials);

    sim::SweepGrid grid;
    grid.base.adversary = sim::AdversaryKind::WorstCase;
    grid.base.inputs = sim::InputPattern::Split;
    grid.ns = {64, 128, 256};
    grid.t_of_n = [](NodeId n) { return static_cast<Count>((n - 1) / 3); };
    grid.protocols = {sim::ProtocolKind::Ours, sim::ProtocolKind::ChorCoanRushing};

    Table tab("E6: measured messages/bits vs theory");
    tab.set_header({"n", "t", "protocol", "mean rounds", "mean msgs", "mean Mbits",
                    "thy msgs n^2*R", "thy LB n*t"});
    const auto outcomes = sim::run_sweep(grid, 0xE6, trials);
    for (const auto& o : outcomes) {
        const auto& s = o.row.scenario;
        const double r = o.agg.rounds.mean();
        tab.add_row({Table::num(std::uint64_t{s.n}), Table::num(std::uint64_t{s.t}),
                     sim::to_string(s.protocol), Table::num(r, 1),
                     Table::num(o.agg.messages.mean(), 0),
                     Table::num(o.agg.bits.mean() / 1e6, 2),
                     Table::num(double(s.n) * s.n * r, 0),
                     Table::num(double(s.n) * s.t, 0)});
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab.title(), outcomes),
                               "e6_messages");
    std::printf(
        "Shape check vs paper: measured messages sit just under n^2 x rounds\n"
        "(halting nodes stop broadcasting), i.e. message complexity is rounds-\n"
        "driven exactly as §1.2 computes it; the Hadzilacos-Halpern Ω(nt) lower\n"
        "bound is ~Õ(t) below, matching the paper's §4 gap discussion.\n");
}

void BM_message_accounting(benchmark::State& state) {
    sim::Scenario s;
    s.n = static_cast<NodeId>(state.range(0));
    s.t = (s.n - 1) / 3;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.inputs = sim::InputPattern::Split;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_trial(s, seed++));
}
BENCHMARK(BM_message_accounting)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
