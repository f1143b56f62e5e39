// E13 — lower-bound witness (Theorem 1, Bar-Joseph & Ben-Or): the
// Ω(t/sqrt(n log n)) bound holds already for adaptive rushing CRASH faults.
// Our targeted-crash adversary is that construction operationalized: it
// drags each committee's flip sum across the >=0 boundary with ~|S|+1
// mid-broadcast crashes per ruined phase.
//
// Measured: rounds vs crash budget q for Algorithm 3 under crash faults
// only, against the Byzantine worst case and the BJBO curve. Crash ruin
// costs ~2x the Byzantine ruin (a crash removes a flip; a corruption
// removes a flip AND adds an equivocator), and some committees are
// crash-immune (unanimous flips behind the tie rule) — both visible below.
#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/bootstrap.hpp"
#include "analysis/bounds.hpp"
#include "bench/common.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

void experiment(const Cli& cli) {
    const auto n = cli.get_uint<NodeId>("n", 256);
    const auto t = cli.get_uint<Count>("t", (n - 1) / 3);
    const auto trials = sim::read_trials(cli, 25);
    benchutil::finish_flags(cli);
    std::printf("E13: crash-fault lower-bound witness on Algorithm 3 (n=%u, budget "
                "t=%u, %u trials).\n", n, t, trials);

    sim::SweepGrid grid;
    grid.base.n = n;
    grid.base.t = t;
    grid.base.protocol = sim::ProtocolKind::Ours;
    grid.base.inputs = sim::InputPattern::Split;
    grid.qs = {0, 5, 10, 20, 40, t};
    grid.adversaries = {sim::AdversaryKind::CrashTargetedCoin,
                        sim::AdversaryKind::WorstCase};
    grid.filter = [t](const sim::Scenario& s) { return s.q.value_or(t) <= t; };
    const auto outcomes = sim::run_sweep(grid, 0xE13, trials);

    // Pair each q's crash row with its Byzantine row by scenario identity.
    auto mean_of = [&](Count q, sim::AdversaryKind kind) {
        for (const auto& o : outcomes)
            if (*o.row.scenario.q == q && o.row.scenario.adversary == kind)
                return o.agg.rounds.mean();
        ADBA_ENSURES_MSG(false, "missing sweep cell for q=" + std::to_string(q));
        return 0.0;
    };

    Table tab("E13: rounds under adaptive crash vs Byzantine worst case");
    tab.set_header({"q", "crash rounds", "byzantine rounds", "crash/byz",
                    "BJBO LB t/sqrt(n log n)"});
    const sim::Aggregate* crash_none = nullptr;  // the crash rows at q = 0 and q = t
    const sim::Aggregate* crash_full = nullptr;
    std::string ratio_over;                      // the q > 0 rows with crash/byz >= 1
    for (const auto& o : outcomes) {
        if (o.row.scenario.adversary != sim::AdversaryKind::CrashTargetedCoin) continue;
        const Count q = *o.row.scenario.q;
        const double crash_mean = o.agg.rounds.mean();
        const double byz_mean = mean_of(q, sim::AdversaryKind::WorstCase);
        const double ratio = crash_mean / std::max(1.0, byz_mean);
        tab.add_row({Table::num(std::uint64_t{q}), Table::num(crash_mean, 1),
                     Table::num(byz_mean, 1), Table::num(ratio, 2),
                     Table::num(an::rounds_lower_bound(double(n), double(q)), 2)});
        if (q == 0) crash_none = &o.agg;
        if (q == t) crash_full = &o.agg;
        if (q > 0 && ratio >= 1.0)
            ratio_over += " q=" + std::to_string(q) + ":" + Table::num(ratio, 2);
    }
    tab.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(tab.title(), outcomes),
                               "e13_crash_lower_bound");

    // Theorem 1's message is that the adaptive lower bound needs no
    // Byzantine behaviour: crashes alone must delay the protocol, though
    // each buys less delay than a corruption. Both checks read the table.
    ADBA_ENSURES_MSG(crash_none != nullptr && crash_full != nullptr,
                     "missing crash sweep cell for q=0 or q=t");
    const auto none_ci = an::bootstrap_mean_ci(crash_none->rounds.values());
    const auto full_ci = an::bootstrap_mean_ci(crash_full->rounds.values());
    std::printf("Shape checks vs paper (Theorem 1):\n");
    std::printf("  crash rounds at q=t=%u exceed q=0 beyond the 95%% bootstrap CIs "
                "(%s vs %s): %s\n",
                t, benchutil::ci_str(full_ci.lo, full_ci.hi).c_str(),
                benchutil::ci_str(none_ci.lo, none_ci.hi).c_str(),
                full_ci.lo > none_ci.hi ? "PASS" : "FAIL");
    const std::string over = ratio_over.empty() ? "" : " (" + ratio_over.substr(1) + ")";
    std::printf("  crash/byz < 1 at every q > 0: %s%s\n", ratio_over.empty() ? "PASS" : "FAIL",
                over.c_str());
}

void BM_crash_trial(benchmark::State& state) {
    sim::Scenario s;
    s.n = 256;
    s.t = 85;
    s.q = static_cast<Count>(state.range(0));
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::CrashTargetedCoin;
    s.inputs = sim::InputPattern::Split;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_trial(s, seed++));
}
BENCHMARK(BM_crash_trial)->Arg(10)->Arg(85);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
