// Multi-valued agreement demo: agreeing on a 32-bit configuration word
// (say, a leader id or an epoch hash) under an adaptive rushing adversary,
// using the Turpin-Coan reduction over Algorithm 3.
//
// Usage: multivalued_demo [--n=96] [--t=31] [--trials=12] [--threads=N]
#include <cstdio>
#include <iostream>

#include "sim/multivalued_runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

static int run(const adba::Cli& cli) {
    using namespace adba;
    const auto n = cli.get_uint<NodeId>("n", 96);
    const auto t = cli.get_uint<Count>("t", (n - 1) / 3);
    const auto trials = cli.get_uint<Count>("trials", 12);
    sim::init_threads(cli);
    cli.check_unused();

    std::printf("Multi-valued BA (Turpin-Coan 1984 over Algorithm 3), n=%u, t=%u.\n", n,
                t);
    std::printf("Two prelude rounds reduce any 32-bit domain to ONE binary\n"
                "agreement; resilience t < n/3 is preserved.\n");

    struct Case {
        sim::MvInputPattern inputs;
        sim::MvAdversaryKind adversary;
        const char* story;
    };
    const Case cases[] = {
        {sim::MvInputPattern::AllSame, sim::MvAdversaryKind::PreludePlusWorstCase,
         "all propose 0xCAFE: validity forces 0xCAFE"},
        {sim::MvInputPattern::TwoBlocks, sim::MvAdversaryKind::WorstCaseInner,
         "half 0xAAAA / half 0xBBBB: no quorum, consistent fallback"},
        {sim::MvInputPattern::NearQuorum, sim::MvAdversaryKind::PreludePlusWorstCase,
         "60% share a word: the one attackable band — safety holds"},
        {sim::MvInputPattern::Distinct, sim::MvAdversaryKind::Chaos,
         "every input distinct + fuzzing: consistent fallback"},
    };

    Table tab("Multi-valued agreement scenarios");
    tab.set_header({"scenario", "agree %", "validity", "real-value %", "mean rounds"});
    std::string last_spec;
    for (const auto& c : cases) {
        sim::MvScenario s;
        s.n = n;
        s.t = t;
        s.inputs = c.inputs;
        s.adversary = c.adversary;
        last_spec = s.describe();  // round-trips: MvScenario::parse(last_spec) == s
        const auto agg = sim::run_mv_trials(s, 0x3D, trials);
        tab.add_row({c.story,
                     Table::num(100.0 * (agg.trials - agg.agreement_failures) /
                                    agg.trials, 1),
                     agg.validity_failures == 0 ? "ok" : "VIOLATED",
                     Table::num(100.0 * agg.decided_real / agg.trials, 1),
                     Table::num(agg.rounds.mean(), 1)});
    }
    tab.print(std::cout);
    std::printf("Every row is a plain scenario spec, e.g.\n"
                "  adba_sim --workload=mv --scenario=\"%s\"\n"
                "See bench_e12_multivalued for the full sweep and the\n"
                "quorum-boundary attack analysis.\n",
                last_spec.c_str());
    return 0;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
