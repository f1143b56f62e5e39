// E2 — Corollary 1: the designated-node coin (Algorithm 2) is a common coin
// while at most ½·sqrt(k) of the k designated flippers are Byzantine — the
// committee-scaling fact Algorithm 3 is built on.
//
// Regenerates P(common) over (k, f) at fixed n, showing the ½·sqrt(k)
// perimeter is independent of n. Paper reference: §3.1, Algorithm 2,
// Corollary 1 (proofs only; this is the measurable form).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

void experiment(const Cli& cli) {
    const auto n = cli.get_uint<NodeId>("n", 1024);
    const auto trials = cli.get_uint<Count>("trials", 1200);
    benchutil::finish_flags(cli);
    std::printf("E2: designated-node common coin (Algorithm 2) at n=%u.\n", n);

    const std::vector<double> ratios = {0.0, 0.25, 0.5, 1.0, 2.0};
    sim::CoinSweepGrid grid;
    grid.ns = {n};
    grid.ks = {16, 64, 256, 1024};  // rows with k > n are skipped by the grid
    grid.f_ratios = ratios;
    const auto outcomes = sim::run_coin_sweep(grid, 0xE2, trials);

    Table t("E2: P(common) by committee size k and corruption budget f");
    t.set_header({"k", "f=0", "f=0.25*sqrt(k)", "f=0.5*sqrt(k) (cor.1)",
                  "f=sqrt(k)", "f=2*sqrt(k)"});
    for (std::size_t i = 0; i < outcomes.size(); i += ratios.size()) {
        std::vector<std::string> row{
            Table::num(std::uint64_t{outcomes[i].row.scenario.designated})};
        for (std::size_t r = 0; r < ratios.size(); ++r)
            row.push_back(Table::num(outcomes[i + r].agg.p_common(), 3));
        t.add_row(std::move(row));
    }
    t.print(std::cout);
    benchutil::maybe_write_csv(cli, sim::sweep_csv_table(t.title(), outcomes),
                               "e2_designated_coin");
    std::printf(
        "Shape check vs paper: every row shows the same profile — constant\n"
        "commonness through f = 0.5*sqrt(k), collapse by f = 2*sqrt(k) — i.e.\n"
        "the defense perimeter scales with the committee, not the network.\n"
        "This is Corollary 1, and it is why phase i of Algorithm 3 can delegate\n"
        "its coin to a committee of s = n/c nodes.\n");
}

void BM_designated_coin(benchmark::State& state) {
    const auto k = static_cast<NodeId>(state.range(0));
    const sim::CoinScenario s{1024, k, static_cast<Count>(std::sqrt(double(k)) / 2),
                              adv::CoinAttack::Split, 0};
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_coin_trial(s, seed++));
}
BENCHMARK(BM_designated_coin)->Arg(16)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        adba::benchutil::reject_fused(cli, "the standalone coin experiments");
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
