// E12 — the multi-valued extension (Turpin-Coan 1984 over Algorithm 3):
// agreement over an arbitrary 32-bit domain at the cost of two prelude
// rounds, with t < n/3 preserved. Not a claim of the paper — it is the
// natural "first feature request" for a BA library, and doubles as an
// end-to-end stress of Algorithm 3 when embedded.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

void experiment(const Cli& cli) {
    const auto n = cli.get_uint<NodeId>("n", 96);
    const auto t = cli.get_uint<Count>("t", (n - 1) / 3);
    const auto trials = sim::read_trials(cli, 20);
    benchutil::finish_flags(cli);
    std::printf("E12: multi-valued agreement (Turpin-Coan over Algorithm 3), n=%u, "
                "t=%u, %u trials/cell.\n", n, t, trials);

    Table tab("E12: multi-valued agreement across inputs x adversaries");
    tab.set_header({"inputs", "adversary", "agree %", "validity", "real-value %",
                    "mean rounds"});
    std::vector<std::pair<std::string, sim::MvAggregate>> rows;
    for (const sim::MvInputPattern inputs :
         {sim::MvInputPattern::AllSame, sim::MvInputPattern::TwoBlocks,
          sim::MvInputPattern::Distinct, sim::MvInputPattern::RandomTiny,
          sim::MvInputPattern::NearQuorum}) {
        for (const sim::MvAdversaryKind adversary :
             {sim::MvAdversaryKind::None, sim::MvAdversaryKind::WorstCaseInner,
              sim::MvAdversaryKind::PreludePlusWorstCase}) {
            sim::MvScenario s;
            s.n = n;
            s.t = t;
            s.inputs = inputs;
            s.adversary = adversary;
            const auto agg = sim::run_mv_trials(s, sim::row_seed(0xE12, rows.size()), trials);
            tab.add_row({sim::to_string(inputs), sim::to_string(adversary),
                         Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                        agg.trials, 1),
                         agg.validity_failures == 0 ? "ok" : "VIOLATED",
                         Table::num(100.0 * agg.decided_real / agg.trials, 1),
                         Table::num(agg.rounds.mean(), 1)});
            rows.emplace_back(sim::to_string(inputs) + " " + sim::to_string(adversary), agg);
        }
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::csv_table(tab.title(), rows), "e12_multivalued");

    // Overhead vs the plain binary protocol on the matching instance: a
    // unanimous binary run locks immediately, as does the unanimous
    // multi-valued run — the difference is exactly the 2 prelude rounds.
    sim::Scenario binary;
    binary.n = n;
    binary.t = t;
    binary.protocol = sim::ProtocolKind::Ours;
    binary.adversary = sim::AdversaryKind::WorstCase;
    binary.inputs = sim::InputPattern::AllOne;
    const auto bin_agg = sim::run_trials(binary, 0xE12B, trials);
    sim::MvScenario mv;
    mv.n = n;
    mv.t = t;
    mv.inputs = sim::MvInputPattern::AllSame;
    mv.adversary = sim::MvAdversaryKind::WorstCaseInner;
    const auto mv_agg = sim::run_mv_trials(mv, 0xE12B, trials);
    std::printf(
        "Reduction overhead (unanimous instance): binary %.1f rounds -> "
        "multi-valued %.1f rounds (the 2 prelude rounds).\n"
        "Note the Turpin-Coan design: unless honest inputs sit near the n-t\n"
        "quorum boundary, the derived binary instance is unanimous and the\n"
        "inner protocol locks in one phase — the adversary's only leverage is\n"
        "the boundary band, which the prelude attack above targets.\n",
        bin_agg.rounds.mean(), mv_agg.rounds.mean());
}

void BM_mv_trial(benchmark::State& state) {
    sim::MvScenario s;
    s.n = 64;
    s.t = 21;
    s.inputs = sim::MvInputPattern::TwoBlocks;
    s.adversary = sim::MvAdversaryKind::WorstCaseInner;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_mv_trial(s, seed++));
}
BENCHMARK(BM_mv_trial);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        adba::benchutil::reject_fused(cli, "the multi-valued (Turpin-Coan) experiments");
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
