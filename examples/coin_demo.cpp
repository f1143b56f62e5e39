// Common-coin demo (paper §3.1, Algorithms 1 & 2).
//
// Measures Definition 2's constants for the one-round coin protocol as the
// adaptive rushing adversary's budget grows past the ½·sqrt(n) threshold of
// Theorem 3 — the "defense perimeter" of the whole agreement protocol.
//
// Usage: coin_demo [--n=256] [--trials=2000] [--threads=N]
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/bounds.hpp"
#include "sim/sweep.hpp"
#include "support/cli.hpp"
#include "support/math.hpp"
#include "support/table.hpp"

static int run(const adba::Cli& cli) {
    using namespace adba;
    const auto n = cli.get_uint<NodeId>("n", 256);
    const auto trials = cli.get_uint<Count>("trials", 2000);
    sim::init_threads(cli);
    cli.check_unused();
    const double sqrt_n = std::sqrt(static_cast<double>(n));

    std::printf("Algorithm 1: every node flips ±1, broadcasts, outputs sign of sum.\n");
    std::printf("Adaptive rushing adversary corrupts f nodes AFTER seeing all flips.\n");
    std::printf("Theorem 3: with f <= 0.5*sqrt(n) = %.1f this is a common coin.\n\n",
                0.5 * sqrt_n);

    sim::CoinSweepGrid grid;
    grid.ns = {n};
    grid.f_ratios = {0.0, 0.25, 0.5, 1.0, 1.5, 2.0};

    Table table("Common coin vs adaptive corruption budget (n=" + std::to_string(n) +
                ", " + std::to_string(trials) + " trials)");
    table.set_header({"f", "f/sqrt(n)", "P(common)", "P(1|common)",
                      "paper floor (1/6)", "attack feasible %"});
    for (const auto& o : sim::run_coin_sweep(grid, 0xC01, trials)) {
        const auto& agg = o.agg;
        table.add_row({Table::num(std::uint64_t{o.row.scenario.f}),
                       Table::num(o.row.f_ratio, 2),
                       Table::num(agg.p_common(), 3),
                       Table::num(agg.p_one_given_common(), 3),
                       o.row.f_ratio <= 0.5 ? "holds" : "n/a",
                       Table::num(100.0 * agg.attack_feasible / agg.trials, 1)});
    }
    table.print(std::cout);

    std::printf("Reading: commonness stays a constant up to the theorem's budget and\n"
                "collapses soon after — the anti-concentration margin |S| ~ sqrt(n) is\n"
                "exactly what the adversary must out-spend.\n");

    sim::CoinSweepGrid dgrid;
    dgrid.ns = {n};
    dgrid.ks = {16, 64, 256};  // rows with k > n are skipped by the grid
    const std::vector<double> dratios = {0.0, 0.5, 1.0, 2.0};
    dgrid.f_ratios = dratios;
    const auto doutcomes = sim::run_coin_sweep(dgrid, 0xC02, trials / 2);

    Table dtable("Designated-node variant (Algorithm 2, k flippers of n=" +
                 std::to_string(n) + ")");
    dtable.set_header({"k", "f=0", "f=sqrt(k)/2", "f=sqrt(k)", "f=2*sqrt(k)"});
    for (std::size_t i = 0; i < doutcomes.size(); i += dratios.size()) {
        std::vector<std::string> row{
            Table::num(std::uint64_t{doutcomes[i].row.scenario.designated})};
        for (std::size_t r = 0; r < dratios.size(); ++r)
            row.push_back(Table::num(doutcomes[i + r].agg.p_common(), 3));
        dtable.add_row(std::move(row));
    }
    dtable.print(std::cout);
    std::printf("Corollary 1: the perimeter scales with sqrt(k) of the committee,\n"
                "independent of n — this is why Algorithm 3 can afford small committees.\n");
    return 0;
}

int main(int argc, char** argv) { return adba::run_main(argc, argv, run); }
