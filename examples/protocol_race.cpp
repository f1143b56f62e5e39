// Protocol race: every agreement protocol in the registry at the same
// (n, t), each against its strongest implemented adversary, from a split
// start. A miniature of experiment E3 — run bench_e3_rounds_vs_t for the
// full sweep that regenerates the paper's comparison.
//
// The field is enumerated from ProtocolRegistry::list(), so a protocol
// registered by a future plug-in shows up here with no edit to this file;
// infeasible (n, t) combinations are skipped via the registry's resilience
// metadata rather than hand-rolled predicates.
//
// Usage: protocol_race [--n=128] [--t=30] [--trials=20] [--threads=N]
#include <cstdio>
#include <iostream>

#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

static int run(const adba::Cli& cli) {
    using namespace adba;
    const auto n = cli.get_uint<NodeId>("n", 128);
    const auto t = cli.get_uint<Count>("t", 30);
    const auto trials = sim::read_trials(cli, 20);
    sim::init_threads(cli);
    cli.check_unused();

    const auto entries = sim::ProtocolRegistry::instance().list();

    sim::SweepGrid grid;
    grid.base.n = n;
    grid.base.t = t;
    grid.base.inputs = sim::InputPattern::Split;
    for (const auto* e : entries) grid.protocols.push_back(e->kind);
    grid.adversary_of = sim::strongest_adversary;
    grid.filter = [](const sim::Scenario& s) { return sim::compatible(s); };  // registry resilience + pairing rules
    const auto outcomes = sim::run_sweep(grid, 0xACE, trials);

    std::printf("n=%u, t=%u, split inputs, %u trials per protocol, %u threads.\n", n, t,
                trials, sim::default_threads());
    Table table("Protocol race at (n=" + std::to_string(n) + ", t=" + std::to_string(t) +
                ")");
    table.set_header({"protocol", "adversary", "agree %", "mean rounds", "max rounds",
                      "note"});
    for (const auto* e : entries) {
        const sim::SweepOutcome* o = nullptr;
        for (const auto& candidate : outcomes)
            if (candidate.row.scenario.protocol == e->kind) o = &candidate;
        const std::string adversary = sim::to_string(e->strongest);
        if (!o) {
            table.add_row({e->display, adversary, "-", "-", "-",
                           "skipped: needs " + e->resilience});
            continue;
        }
        const auto& agg = o->agg;
        const double agree =
            100.0 * (agg.trials - agg.agreement_failures) / agg.trials;
        table.add_row({e->display, adversary, Table::num(agree, 1),
                       Table::num(agg.rounds.mean(), 1),
                       Table::num(agg.rounds.max(), 0), e->summary});
    }
    table.print(std::cout);
    return 0;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
